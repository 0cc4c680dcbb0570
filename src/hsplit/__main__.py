"""``python -m hsplit``: the ``hsplit`` command line."""

import sys

from hsplit.cli import main

if __name__ == "__main__":
    sys.exit(main())
