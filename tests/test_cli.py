"""Command-line interface tests: exit codes, config handling, artifacts."""

import json
import subprocess
import sys
import threading

import pytest

from hsplit import apps
from hsplit.cli import main
from hsplit.splitting import DEFAULT_SCHEDULE, StepSchedule, fejer_diagnostics, run


def run_cli(*argv):
    return main(list(argv))


# -- run ---------------------------------------------------------------------------


def test_run_converges_and_writes_trace(tmp_path, capsys):
    code = run_cli(
        "run", "--problem", "euclid_quad", "--alpha", "0.5", "--beta", "0.5",
        "--lambda", "1", "--r", "1", "--tol", "1e-9", "--out", str(tmp_path),
    )
    assert code == 0
    csv_path = tmp_path / "euclid_quad_trace.csv"
    meta_path = tmp_path / "euclid_quad_meta.json"
    assert csv_path.exists() and meta_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,dx_step,dx_y,dx_z,dx_ref,res_A,res_F,wall_ms"
    # trace tail shows convergence
    last = lines[-1].split(",")
    assert float(last[1]) <= 1e-9
    meta = json.loads(meta_path.read_text())
    assert meta["termination"] == "step_tol"


def test_run_unknown_problem_exit_65(tmp_path):
    assert run_cli("run", "--problem", "nosuch", "--out", str(tmp_path)) == 65


def test_run_zero_budget_exit_2_single_row(tmp_path):
    code = run_cli("run", "--problem", "euclid_quad", "--max-iter", "0",
                   "--out", str(tmp_path))
    assert code == 2
    lines = (tmp_path / "euclid_quad_trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_run_invalid_schedule_exit_64(tmp_path):
    assert run_cli("run", "--problem", "euclid_quad", "--alpha", "0.999",
                   "--out", str(tmp_path)) == 64


def test_run_missing_problem_exit_64(tmp_path):
    assert run_cli("run", "--out", str(tmp_path)) == 64


@pytest.mark.parametrize("pid", apps.problem_ids())
def test_run_default_schedule_ends_within_15_iterations(tmp_path, pid):
    # with no schedule flags a run takes DEFAULT_SCHEDULE: the CLI trace is
    # the library run's, bit for bit, and its Fejer replay passes
    assert run_cli("run", "--problem", pid, "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / f"{pid}_meta.json").read_text())
    assert meta["schedule"] == DEFAULT_SCHEDULE.description
    assert meta["termination"] == "step_tol"
    assert meta["iterations"] <= 15
    trace = run(apps.get_problem(pid))
    assert trace.to_csv() == (tmp_path / f"{pid}_trace.csv").read_text()
    assert fejer_diagnostics(trace).passed


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (("--alpha", "0.5"), {"alpha": 0.5}),
        (("--lambda", "2", "--r", "3"), {"lam": 2.0, "r": 3.0}),
    ],
)
def test_run_unset_schedule_values_take_the_defaults(tmp_path, flags, kwargs):
    assert run_cli("run", "--problem", "euclid_quad", *flags, "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "euclid_quad_meta.json").read_text())
    assert meta["schedule"] == StepSchedule.constant(**kwargs).description


@pytest.mark.parametrize(
    "problem, flag, value",
    [("hyper_dist", "--r", "inf"), ("saddle_bilinear", "--r", "inf"),
     ("euclid_quad", "--r", "nan"), ("euclid_quad", "--tol", "nan")],
)
def test_run_nonfinite_parameter_exit_64(tmp_path, capsys, problem, flag, value):
    assert run_cli("run", "--problem", problem, flag, value, "--out", str(tmp_path)) == 64
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# euclid demo\n"
        "problem = euclid_quad\n"
        "alpha = 0.9\n"
        "max-iter = 5000\n"
        f"out = {tmp_path / 'from_config'}\n"
    )
    code = run_cli("run", "--config", str(config), "--alpha", "0.5")
    assert code == 0
    meta = json.loads((tmp_path / "from_config" / "euclid_quad_meta.json").read_text())
    assert "alpha=0.5" in meta["schedule"]  # flag wins over config


def test_run_bad_config_exit_64(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("problem euclid_quad\n")
    assert run_cli("run", "--config", str(config)) == 64
    config.write_text("nonsense_key = 1\n")
    assert run_cli("run", "--config", str(config)) == 64
    config.write_text("problems = euclid_quad\njobs = two\n")
    assert run_cli("bench", "--config", str(config), "--out", str(tmp_path)) == 64


@pytest.mark.parametrize("value, timed", [("TRUE", True), ("yes", True), ("1", True),
                                          ("False", False), ("no", False), ("0", False)])
def test_run_config_timing_values(tmp_path, value, timed):
    config = tmp_path / "run.cfg"
    config.write_text(f"problem = euclid_quad\ntiming = {value}\n")
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "euclid_quad_meta.json").read_text())
    assert ("total_wall_ms" in meta) == timed


@pytest.mark.parametrize("key, value, message", [
    ("timing", "ture", "config error: timing must be true, false, 1, 0, yes or no, got 'ture'"),
    ("ref_tol", "abc", "config error: ref_tol must be a number, got 'abc'"),
], ids=["timing", "ref_tol"])
def test_run_bad_config_value_exit_64(tmp_path, capsys, key, value, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"problem = euclid_quad\n{key} = {value}\n")
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 64
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HSPLIT_OUT_DIR", str(tmp_path / "env_out"))
    assert run_cli("run", "--problem", "euclid_quad") == 0
    assert (tmp_path / "env_out" / "euclid_quad_trace.csv").exists()


def test_run_byte_reproducible(tmp_path):
    run_cli("run", "--problem", "hyper_dist", "--out", str(tmp_path / "a"))
    run_cli("run", "--problem", "hyper_dist", "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "hyper_dist_trace.csv").read_bytes() == (
        tmp_path / "b" / "hyper_dist_trace.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "hyper_dist_meta.json").read_bytes() == (
        tmp_path / "b" / "hyper_dist_meta.json"
    ).read_bytes()


# -- verify -------------------------------------------------------------------------


def test_verify_geometry_passes(capsys):
    assert run_cli("verify", "geometry", "--seed", "42") == 0
    out = capsys.readouterr().out
    assert "[PASS] geometry/comparison_residual[hyperboloid:2]" in out


def test_verify_unknown_suite_exit_64():
    assert run_cli("verify", "nosuch") == 64


def test_verify_anti_monotone_fixture_fails_suite(capsys):
    assert run_cli("verify", "fields", "--seed", "3", "--include-anti-monotone") == 1
    out = capsys.readouterr().out
    assert "[FAIL] fields/monotonicity_spot_checks" in out


def test_python_dash_m_hsplit_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "hsplit", "list-problems"], capture_output=True)
    assert done.returncode == 0, done.stderr
    assert b"euclid_quad" in done.stdout


def test_verify_reports_deterministic():
    cmd = [sys.executable, "-m", "hsplit.cli", "verify", "geometry", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


# -- bench --------------------------------------------------------------------------


def test_bench_single_cell_matches_run(tmp_path):
    # the run takes the schedule of bench's one default cell
    run_cli("run", "--problem", "euclid_quad", "--alpha", "0.5", "--beta", "0.5",
            "--lambda", "1", "--r", "1", "--out", str(tmp_path / "single"))
    code = run_cli("bench", "--problems", "euclid_quad", "--out", str(tmp_path / "sweep"))
    assert code == 0
    single = (tmp_path / "single" / "euclid_quad_trace.csv").read_text()
    cell = (tmp_path / "sweep" / "euclid_quad__a0.5_b0.5_l1.0_r1.0_trace.csv").read_text()
    assert single == cell


def test_bench_unset_beta_and_r_grids_stay_half_and_unit(tmp_path):
    # bench's own grid defaults, not the run default, fill the unset axes
    code = run_cli("bench", "--problems", "euclid_quad", "--alpha", "0.9", "--lambda", "10",
                   "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    problem, alpha, beta, lam, r, iters, _ = lines[1].split(",")
    assert (problem, alpha, beta, lam, r) == ("euclid_quad", "0.9", "0.5", "10.0", "1.0")
    assert iters.isdigit()


def test_bench_alpha_grid_with_invalid_cell(tmp_path):
    code = run_cli(
        "bench", "--problems", "euclid_quad", "--alpha", "0.1,0.5,0.9,0.999",
        "--jobs", "2", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "problem,alpha,beta,lambda,r,iters_to_tol,final_dx"
    assert len(lines) == 5
    by_alpha = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    for alpha in ("0.1", "0.5", "0.9"):
        assert int(by_alpha[alpha][5]) > 0  # converged with a finite count
    assert by_alpha["0.999"][5] == "schedule_invalid"
    # deterministic lexicographic cell order
    assert [line.split(",")[1] for line in lines[1:]] == ["0.1", "0.5", "0.9", "0.999"]


def test_bench_summary_deterministic(tmp_path):
    args = ("bench", "--problems", "euclid_quad,hyper_dist", "--alpha", "0.3,0.6",
            "--jobs", "2")
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_bench_outputs_identical_across_jobs(tmp_path):
    # every trace CSV and sidecar, not only the summary, is the same at any --jobs
    args = ("bench", "--problems", "euclid_quad,saddle_bilinear,hyper_dist", "--alpha", "0.3,0.6")
    assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "one")) == 0
    assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "two")) == 0
    one = {f.name: f.read_bytes() for f in (tmp_path / "one").iterdir()}
    two = {f.name: f.read_bytes() for f in (tmp_path / "two").iterdir()}
    assert len(one) == 1 + 2 * 6
    assert one == two


def test_bench_starts_no_thread(tmp_path, monkeypatch):
    # --jobs and the jobs config key are accepted, and cells still run in this thread
    def refuse(self):
        raise AssertionError("hsplit bench started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    args = ("bench", "--problems", "euclid_quad,hyper_dist", "--alpha", "0.3,0.6")
    config = tmp_path / "bench.cfg"
    config.write_text("jobs = 2\n")
    for extra, out in ((("--jobs", "2"), "flag"), (("--config", str(config)), "config")):
        assert run_cli(*args, *extra, "--out", str(tmp_path / out)) == 0
        rows = (tmp_path / out / "summary.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        assert all(int(row.split(",")[5]) > 0 for row in rows)


def test_bench_no_problems_exit_64(tmp_path):
    assert run_cli("bench", "--out", str(tmp_path)) == 64


@pytest.mark.parametrize("flag,axis", [("--alpha", "alpha"), ("--beta", "beta"),
                                       ("--lambda", "lambda"), ("--r", "r")])
def test_bench_empty_axis_exit_64(tmp_path, capsys, flag, axis):
    # an empty grid axis sweeps no cells, so it is refused before any output
    assert run_cli("bench", "--problems", "euclid_quad", flag, ",",
                   "--out", str(tmp_path)) == 64
    assert f"config error: {axis} grid is empty" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("flag,values,axis,value", [
    ("--problems", "euclid_quad,euclid_quad", "problems", "'euclid_quad'"),
    ("--alpha", "0.5,.5", "alpha", "0.5"),
    ("--beta", "0.5,0.25,0.50", "beta", "0.5"),
    ("--lambda", "1,1e0", "lambda", "1.0"),
    ("--r", "nan,2,nan", "r", "nan"),
])
def test_bench_repeated_grid_value_exit_64(tmp_path, capsys, flag, values, axis, value):
    # a repeated value names one trace stem twice, so the second cell would
    # overwrite the first's files; it is refused before any output
    argv = ["bench", "--out", str(tmp_path)]
    if flag != "--problems":
        argv += ["--problems", "euclid_quad"]
    assert run_cli(*argv, flag, values) == 64
    assert f"config error: {axis} repeats {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_bench_invalid_stopping_rule_exit_64(tmp_path, capsys, flag):
    assert run_cli("bench", "--problems", "euclid_quad", flag, "-1",
                   "--out", str(tmp_path)) == 64
    assert "config error:" in capsys.readouterr().err


def test_bench_nonfinite_r_cells_schedule_invalid(tmp_path):
    code = run_cli("bench", "--problems", "euclid_quad,hyper_dist", "--r", "inf,nan",
                   "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "summary.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[5] == "schedule_invalid" for row in rows)


# -- list-problems ---------------------------------------------------------------------


def test_list_problems_output(capsys):
    assert run_cli("list-problems") == 0
    out = capsys.readouterr().out
    for pid in ("euclid_quad", "hyper_frechet", "spd_karcher", "saddle_bilinear"):
        assert pid in out
    assert "reference:" in out
