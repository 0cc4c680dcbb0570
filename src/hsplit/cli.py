"""Command-line front end: run experiments, verify properties, sweep schedules.

Subcommands
-----------
``run``            one splitting run on a shipped problem; writes a CSV
                   trace and a JSON metadata sidecar.
``verify``         seeded property suites with per-property PASS/FAIL.
``bench``          grid sweep over schedule parameters; one trace per
                   cell plus a deterministic summary CSV.  Cells run in
                   order in the calling thread; ``--jobs`` is parsed and ignored.
``list-problems``  shipped problem ids with manifold and provenance.

Configuration is a flat ``key = value`` text file; command-line flags
win over config values.  The output directory resolves in the order
``--out`` flag, ``HSPLIT_OUT_DIR`` environment variable, config ``out``
key, then ``./runs``.

Exit codes: 0 success / tolerance reached; 1 verification failure;
2 iteration budget exhausted before tolerance; 3 resolvent failure;
64 bad configuration or unknown suite; 65 unknown problem id.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import apps, splitting, verify

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_MAX_ITER = 2
EXIT_RESOLVENT_FAILURE = 3
EXIT_CONFIG = 64
EXIT_UNKNOWN_PROBLEM = 65

_RUN_KEYS = {
    "problem", "algorithm", "alpha", "beta", "lambda", "r",
    "tol", "ref_tol", "max_iter", "out", "seed", "timing",
}
_BENCH_KEYS = {
    "problems", "alpha", "beta", "lambda", "r",
    "tol", "max_iter", "out", "seed", "jobs",
}


#: ``hsplit bench`` grid for an axis left unset; why it is not the run
#: default is in the bench description of :func:`build_parser`
_BENCH_GRID_DEFAULTS = {"alpha": "0.5", "beta": "0.5", "lambda": "1.0", "r": "1.0"}


class ConfigError(ValueError):
    pass


def _parse_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _merged(args: argparse.Namespace, allowed: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config, allowed))
    for key in allowed:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return values


def _float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {values[key]!r}") from exc


def _int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from exc


def _bool(values: dict[str, str], key: str) -> bool:
    text = values.get(key, "false").lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true, false, 1, 0, yes or no, got {values[key]!r}")


def _out_dir(args: argparse.Namespace, values: dict[str, str]) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("HSPLIT_OUT_DIR")
    if env:
        return Path(env)
    return Path(values.get("out", "runs"))


#: config key -> keyword and parser of the values that ``run`` hands on
#: only when set, so that ``StepSchedule.constant`` and ``StoppingRule``
#: supply every default
_SCHEDULE_KEYS = {
    "alpha": ("alpha", _float), "beta": ("beta", _float),
    "lambda": ("lam", _float), "r": ("r", _float),
}
_STOP_KEYS = {"max_iter": ("max_iter", _int), "tol": ("step_tol", _float), "ref_tol": ("ref_tol", _float)}


def _set_kwargs(values: dict[str, str], keys: dict) -> dict:
    """Keyword arguments, parsed, for those of ``keys`` that ``values`` sets."""
    return {kw: parse(values, key) for key, (kw, parse) in keys.items() if key in values}


def _exit_for(trace: splitting.IterationTrace) -> int:
    if trace.termination_reason in ("step_tol", "ref_tol"):
        return EXIT_OK
    if trace.termination_reason == "resolvent_failure":
        return EXIT_RESOLVENT_FAILURE
    return EXIT_MAX_ITER


def cmd_run(args: argparse.Namespace) -> int:
    try:
        values = _merged(args, _RUN_KEYS)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problem_id = values.get("problem")
    if not problem_id:
        print("config error: no problem specified", file=sys.stderr)
        return EXIT_CONFIG
    try:
        problem = apps.get_problem(problem_id)
    except KeyError as exc:
        print(f"unknown problem: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    try:
        schedule = splitting.StepSchedule.constant(**_set_kwargs(values, _SCHEDULE_KEYS))
        stop = splitting.StoppingRule(**_set_kwargs(values, _STOP_KEYS))
        timing = _bool(values, "timing")
        trace = splitting.run(
            problem, schedule, stop,
            algorithm=values.get("algorithm", "auto"),
            seed=_int(values, "seed") if "seed" in values else 0,
        )
    except ValueError as exc:  # ConfigError, ScheduleError and refused settings
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args, values)
    csv_path, meta_path = trace.write(out, problem_id, deterministic_timing=not timing)
    print(f"{problem_id}: {trace.termination_reason} after {trace.iterations} iterations")
    print(f"trace: {csv_path}")
    print(f"meta:  {meta_path}")
    if trace.error:
        print(f"error: {trace.error}", file=sys.stderr)
    return _exit_for(trace)


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in verify.SUITES]
    if unknown:
        print(f"unknown suite: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    results, all_passed = verify.run_suites(
        names, args.seed, with_anti_monotone=args.include_anti_monotone
    )
    sys.stdout.write(verify.format_report(results, args.seed))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _float_grid(values: dict[str, str], key: str) -> list[float]:
    raw = values.get(key, _BENCH_GRID_DEFAULTS[key])
    try:
        grid = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key} must be comma-separated numbers, got {raw!r}") from exc
    if not grid:  # an empty axis would sweep no cells
        raise ConfigError(f"{key} grid is empty, got {raw!r}")
    return _distinct(key, grid)


def _distinct(key: str, values: list) -> list:
    # a repeated value would sweep its cells twice, the second run writing
    # over the first's trace files, whose stem spells the value by repr
    seen = set()
    for v in values:
        if repr(v) in seen:
            raise ConfigError(f"{key} repeats {v!r}")
        seen.add(repr(v))
    return values


def _bench_cell(problem_id: str, alpha: float, beta: float, lam: float, r: float,
                stop: splitting.StoppingRule, seed: int, out: Path):
    """Run one sweep cell; returns its summary row.  Never raises."""
    stem = f"{problem_id}__a{alpha}_b{beta}_l{lam}_r{r}"
    try:
        problem = apps.get_problem(problem_id)
    except KeyError:
        return (problem_id, alpha, beta, lam, r, "unknown_problem", "nan")
    schedule = splitting.StepSchedule.constant(alpha=alpha, beta=beta, lam=lam, r=r)
    try:
        trace = splitting.run(problem, schedule, stop, seed=seed)
    except splitting.ScheduleError:
        return (problem_id, alpha, beta, lam, r, "schedule_invalid", "nan")
    except Exception:
        return (problem_id, alpha, beta, lam, r, "error", "nan")
    trace.write(out, stem)
    final_dx = trace.final_step_distance()
    if trace.termination_reason in ("step_tol", "ref_tol"):
        iters = str(trace.iterations)
    else:
        iters = trace.termination_reason
    return (problem_id, alpha, beta, lam, r, iters, repr(float(final_dx)))


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        values = _merged(args, _BENCH_KEYS)
        problems = [p.strip() for p in values.get("problems", "").split(",") if p.strip()]
        if not problems:
            raise ConfigError("no problems specified")
        _distinct("problems", problems)
        alphas, betas, lams, rs = (_float_grid(values, key) for key in _BENCH_GRID_DEFAULTS)
        stop = splitting.StoppingRule(**_set_kwargs(values, _STOP_KEYS))
        seed = _int(values, "seed") if "seed" in values else 0
        if "jobs" in values:  # accepted for old command lines; cells run in order
            _int(values, "jobs")
    except ValueError as exc:  # ConfigError and a refused stopping rule
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args, values)
    out.mkdir(parents=True, exist_ok=True)

    cells = sorted(
        (p, a, b, l, r)
        for p in problems
        for a in alphas
        for b in betas
        for l in lams
        for r in rs
    )
    rows = [_bench_cell(*cell, stop, seed ^ idx, out) for idx, cell in enumerate(cells)]

    summary = out / "summary.csv"
    lines = ["problem,alpha,beta,lambda,r,iters_to_tol,final_dx"]
    lines.extend(
        f"{p},{a!r},{b!r},{l!r},{r!r},{iters},{dx}" for p, a, b, l, r, iters, dx in rows
    )
    summary.write_text("\n".join(lines) + "\n")
    print(f"swept {len(cells)} cells -> {summary}")
    return EXIT_OK


def cmd_list_problems(args: argparse.Namespace) -> int:
    for pid in apps.problem_ids():
        meta = apps.problem_metadata(pid)
        print(f"{pid:18s} {meta['manifold']:24s} {meta['summary']}")
        print(f"{'':18s} reference: {meta['provenance']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsplit",
        description="Splitting iterations for common equilibrium and inclusion "
                    "solutions on Hadamard manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one problem and write its trace")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--problem", help="problem id (see list-problems)")
    run.add_argument("--algorithm", choices=["auto", "common", "inclusion", "equilibrium"])
    run.add_argument("--alpha", type=float, help="relaxation toward the field resolvent")
    run.add_argument("--beta", type=float, help="relaxation toward the bifunction resolvent")
    run.add_argument("--lambda", dest="lambda", type=float, help="field resolvent step")
    run.add_argument("--r", type=float, help="bifunction resolvent parameter")
    run.add_argument("--tol", type=float, help="stop when d(x_{n+1}, x_n) <= tol")
    run.add_argument("--ref-tol", dest="ref_tol", type=float,
                     help="stop when d(x_n, reference) <= tol")
    run.add_argument("--max-iter", dest="max_iter", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--timing", action="store_const", const="true",
                     help="record measured wall times (breaks byte reproducibility)")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run seeded property suites")
    ver.add_argument("suite", help="geometry, fields, equilibrium, splitting, apps, or all")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--include-anti-monotone", action="store_true",
                     help="register the anti-monotone fixture as if it were a real "
                          "field; the monotonicity property then fails with a witness")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser(
        "bench", help="sweep schedule grids over problems",
        description="An axis left unset takes one value: alpha {alpha}, beta {beta}, "
                    "lambda {lambda}, r {r}.  These are not the run defaults: the "
                    "benchmark's sweep sets only --alpha and --lambda, so its beta "
                    "and r are part of its measured work.".format(**_BENCH_GRID_DEFAULTS),
    )
    bench.add_argument("--config", help="flat key = value config file")
    bench.add_argument("--problems", help="comma-separated problem ids")
    bench.add_argument("--alpha", help="comma-separated grid")
    bench.add_argument("--beta", help="comma-separated grid")
    bench.add_argument("--lambda", dest="lambda", help="comma-separated grid")
    bench.add_argument("--r", help="comma-separated grid")
    bench.add_argument("--tol", type=float)
    bench.add_argument("--max-iter", dest="max_iter", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--jobs", type=int, help="accepted and ignored; cells run one at a time")
    bench.add_argument("--out", help="output directory")
    bench.set_defaults(func=cmd_bench)

    lp = sub.add_parser("list-problems", help="show shipped problems")
    lp.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
