"""Smoke-size tests of the benchmark itself: the run loop, the output oracle
and failure counting.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import tracer
from oracle import Oracle, read_table
from run import END_TO_END, TRACER, Session, run_workload, trace_check
from tracer import LAYER_METRICS
from workloads import OUT_DIR, WORKLOADS, main_args, setup_commands, write_inputs

SMOKE = {
    "mesh_circle": dataclasses.replace(
        WORKLOADS["mesh_circle"], order=2, mesh_cap=0.8, n_obs=8, permutations=19,
        circle=(4, 4.0, 1.5), adjust_caps=(0.5, 1.2), expected_balls=None),
    "sphere25": dataclasses.replace(
        WORKLOADS["sphere25"], order=3, mesh_cap=0.5, n_obs=8, permutations=19,
        expected_balls=None),
    "simulate_fullcap": dataclasses.replace(
        WORKLOADS["simulate_fullcap"], order=2, n_obs=8, permutations=19, replicates=2),
}


def test_smoke_covers_every_workload():
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_prints_every_metric(name, trace, tmp_path, capsys):
    result = run_workload(SMOKE[name], seed=3, seconds=0, trace=trace, base=tmp_path)
    out = capsys.readouterr().out

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = LAYER_METRICS if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    lines = out.splitlines()
    for metric, unit in expected.items():
        assert any(l.split()[0] == metric and l.split()[-1] == unit for l in lines), metric
    assert any(l.startswith("error_rate ") for l in lines)
    if name == "mesh_circle" and not trace:
        assert any(l.startswith("adjust_s ") for l in lines)
    if trace:
        assert any(l.startswith("trace check ") for l in lines)

    report = json.loads((tmp_path / "results" / f"{name}-seed3-trace{int(trace)}.json").read_text())
    env = report["environment"]
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "threads", "git_commit", "git_dirty", "seed"):
        assert key in env
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_all_runs_every_workload(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", SMOKE)
    monkeypatch.setattr(run, "run_workload", functools.partial(run.run_workload, base=tmp_path))
    assert run.main(["--workload", "all", "--seed", "4", "--seconds", "0"]) == 0
    final = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert final["correct"] and final["failed"] == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {f"{n}.{m}" for n in SMOKE for m in END_TO_END}


def test_traced_self_times_partition_cli_main(tmp_path):
    w = SMOKE["simulate_fullcap"]
    workdir = tmp_path / "w"
    workdir.mkdir()
    session = Session(workdir)
    for args in setup_commands(w):
        session.run(args)
    write_inputs(w, workdir, seed=5)
    session.run(main_args(w), spans=workdir / "spans.json")
    assert session.failed == 0

    record = json.loads((workdir / "spans.json").read_text())
    assert record["absent"] == []
    total, self_, _ = tracer.span_times(record["spans"])
    # spans nest under cli.main, so their self times partition it
    assert math.isclose(sum(self_.values()), total["cli.main"], rel_tol=1e-9)
    metrics = tracer.layer_metrics(record)
    assert metrics["evalsim.scenario_self_s"] > 0 and metrics["domain.integrate_calls"] > 0


def test_trace_check_fails_when_spans_miss_time():
    # 10 s traced, 0.7 s start-up: spans covering 9.2 s leave 0.1 s unexplained
    walls, startups = [9.9, 10.1], [0.7, 0.7, 0.7]
    ok = run.trace_accounting(walls, [10.0, 10.0], [9.2, 9.2], startups)
    assert ok["trace.unaccounted_s"] == pytest.approx(0.1)
    assert trace_check(ok, 10.0).startswith("trace check ok")
    # a layer outside cli.main, or lost spans, leaves 2 s unexplained
    missed = run.trace_accounting(walls, [10.0, 10.0], [7.3, 7.3], startups)
    assert trace_check(missed, 10.0).startswith("trace check FAILED")


def test_missing_trace_target_is_recorded_as_absent(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS", (("gone", "ballwise.domain", "AdjustmentFamily.no_such_method", None),))
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["ballwise.domain.AdjustmentFamily.no_such_method"]


@pytest.fixture(scope="module")
def test_outputs(tmp_path_factory):
    """A smoke mesh x circle `test` run, as the benchmark makes it."""
    w = SMOKE["mesh_circle"]
    workdir = tmp_path_factory.mktemp("mc")
    session = Session(workdir)
    for args in setup_commands(w):
        session.run(args)
    write_inputs(w, workdir, seed=7)
    session.run(main_args(w))
    assert session.failed == 0
    return w, workdir


@pytest.fixture
def check_everything(monkeypatch):
    """The oracle checks every ball and every grid point, not a sample."""
    monkeypatch.setattr(oracle, "N_BALLS", 10**9)
    monkeypatch.setattr(oracle, "N_POINTS", 10**9)


def _oracle(w, workdir):
    return Oracle(w, workdir, seed=7)


def _edit_ball(src, dst, column, edit):
    """Copy a run's work directory, applying ``edit`` to one balls.csv cell."""
    shutil.copytree(src, dst)
    path = dst / OUT_DIR / "balls.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    k, new = edit(header, lines)
    cells = lines[k + 1].split(",")
    cells[header.index(column)] = new
    lines[k + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return dst


def test_oracle_accepts_the_program_outputs(test_outputs, check_everything):
    w, workdir = test_outputs
    assert _oracle(w, workdir).check_test() == []


def test_oracle_flags_a_changed_ball_p_value(test_outputs, check_everything, tmp_path):
    w, workdir = test_outputs
    oracle = _oracle(w, workdir)
    _, pw = read_table(workdir / OUT_DIR / "pointwise.csv")
    g = int(np.argmin(pw[:, -1]))
    assert pw[g, -1] < 1.0

    def raise_a_covering_ball(header, lines):
        # 1.0 = (1 + B) / (B + 1) is a valid p-value, so only the covering
        # max can tell
        centers, radii, _, _, _ = oracle._balls()
        cover = np.ones(len(centers[0]), dtype=bool)
        for comp, c, r, x in zip(oracle.components, centers, radii,
                                 np.unravel_index(g, oracle.shape)):
            cover &= comp.column(int(x))[c] < r
        return int(np.nonzero(cover)[0][0]), "1"

    bad = _edit_ball(workdir, tmp_path / "p", "p_ball", raise_a_covering_ball)
    problems = _oracle(w, bad).check_test()
    assert any(f"grid point {g}:" in p for p in problems)


def test_oracle_flags_a_perturbed_ball_statistic(test_outputs, check_everything, tmp_path):
    w, workdir = test_outputs

    def perturb(header, lines):
        k = 5
        value = float(lines[k + 1].split(",")[header.index("T_ball_obs")])
        return k, repr(value * (1 + 1e-6) + 1e-12)

    bad = _edit_ball(workdir, tmp_path / "t", "T_ball_obs", perturb)
    problems = _oracle(w, bad).check_test()
    assert any(p.startswith("ball 5:") for p in problems)


def test_nonzero_exit_counts_as_failed(tmp_path, capsys):
    # three caps for a two-component domain: `ballwise adjust` exits 2
    w = dataclasses.replace(SMOKE["mesh_circle"], adjust_caps=(0.5, 1.2, 1.0))
    result = run_workload(w, seed=3, seconds=0, trace=False, base=tmp_path)
    out = capsys.readouterr().out

    assert not result["correct"]
    assert result["failed"] == 1
    error_rate = next(l for l in out.splitlines() if l.startswith("error_rate "))
    assert float(error_rate.split()[1]) == pytest.approx(1 / result["attempted"])
    assert "FAILED ballwise adjust: exit code 2" in out


@pytest.mark.parametrize("trace", [False, True])
def test_failed_setup_is_reported_not_raised(tmp_path, capsys, trace):
    # order 0: `ballwise tessellate` exits non-zero and writes no mesh
    w = dataclasses.replace(SMOKE["sphere25"], order=0)
    result = run_workload(w, seed=3, seconds=0, trace=trace, base=tmp_path)
    out = capsys.readouterr().out

    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert "FAILED ballwise tessellate: exit code" in out
    assert (tmp_path / "results" / f"sphere25-seed3-trace{int(trace)}.json").exists()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(TRACER.parent, bench, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sphere25", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
