"""Benchmark of the ballwise CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload mesh_circle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload generates its inputs from the
seed, runs the set-up commands and the main command (``ballwise test`` or
``ballwise simulate``) as subprocesses, repeatedly, for about ``--seconds``
seconds (the main command at least twice), and checks every output (see
oracle.py). Repeats of one run must write byte-identical outputs.

With ``--trace 0`` it reports the end-to-end metrics: medians over the
repeats of the main command's wall time and peak RSS, and of the set-up wall
time. With ``--trace 1`` it alternates untraced and traced runs of the main
command (tracer.py), measures interpreter start-up on its own, and reports
per-layer metrics. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a command that exits non-zero or
whose outputs fail a check counts as failed. An environment record is written
next to each result under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from oracle import Oracle, check_simulate
from tracer import LAYER_METRICS, layer_metrics, span_times
from workloads import (
    OUT_DIR,
    SIM_OUT,
    WORKLOADS,
    Workload,
    adjust_args,
    main_args,
    output_files,
    setup_commands,
    write_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"

# BLAS/OpenMP threads of every child: one, so timings do not depend on how
# busy the other cores are.
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
MIN_REPEATS = 2
# set-up is repeated between the main commands until its time is this share of
# their time, so that setup_s is a median over several runs
SETUP_SHARE = 0.5
# the traced run's interpreter start-up, measured on its own
IMPORT_ONLY = [sys.executable, "-c", "import ballwise.cli"]
STARTUP_REPEATS = 3
# share of the traced wall by which the spans and start-up may miss it; a
# single wall varies by about 15 % between consecutive runs on a shared host
TRACE_SLACK = 0.05
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Session:
    """Runs ballwise commands in one work directory and counts failures."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.log = workdir / "commands.log"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, args: list[str], check=None, spans: Path | None = None):
        """Run one ballwise command; returns (wall seconds, peak RSS in MB).

        ``check`` returns the problems found in the command's outputs; it is
        only called when the command exits 0.
        """
        if spans is None:
            argv = [sys.executable, "-m", "ballwise.cli", *args]
        else:
            argv = [sys.executable, str(TRACER), str(spans), "--", *args]
        return self.execute(argv, f"ballwise {args[0]}", check)

    def execute(self, argv: list[str], label: str, check=None):
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        elif check is None:
            problems = []
        else:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]
        return wall, usage.ru_maxrss / 1024.0


def _digests(workdir: Path, files: list[str]) -> dict:
    return {f: hashlib.sha256((workdir / f).read_bytes()).hexdigest() for f in files}


def _git(*args: str):
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except FileNotFoundError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


def trace_accounting(walls, traced, covered, startups) -> dict:
    """Start-up, tracer overhead and the part of the traced wall that neither
    the spans nor start-up explain.

    The overhead is the median, over the interleaved untraced/traced pairs, of
    their difference; a workload with a single pair gives one difference,
    which carries the host's drift between the two runs.
    """
    startup = statistics.median(startups)
    return {
        "cli.startup_s": startup,
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, walls)),
        "trace.unaccounted_s":
            statistics.median(t - c for t, c in zip(traced, covered)) - startup,
    }


def trace_check(values: dict, traced_wall: float) -> str:
    """Whether the span self times plus start-up add up to the traced wall
    within the tracer overhead. The overhead rests on few pairs of noisy
    walls, so a gap up to TRACE_SLACK of the traced wall is allowed besides."""
    gap, overhead = values["trace.unaccounted_s"], values["trace.overhead_s"]
    ok = abs(gap) <= max(overhead, 0.0) + TRACE_SLACK * traced_wall
    return (f"trace check {'ok' if ok else 'FAILED'}: traced wall - span self times - "
            f"start-up = {gap:.3g} s, overhead {overhead:.3g} s, traced wall {traced_wall:.3g} s")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 base: Path = ROOT / ".perfbench") -> dict:
    """One benchmark run of one workload; returns the result object.

    Inputs and outputs go to a work directory under ``base``, removed after a
    run without failures; the result and its environment record go to
    ``base/results``.
    """
    workdir = base / "work" / f"{w.name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(workdir)
    setup, walls, rss, traced, covered, layers = [], [], [], [], [], []
    extra: dict = {}

    def set_up():
        setup.append(sum(session.run(args)[0] for args in setup_commands(w)))

    set_up()
    # a failed set-up leaves no inputs to run the main command on
    if session.failed == 0:
        write_inputs(w, workdir, seed)
        oracle = None if w.replicates else Oracle(w, workdir, seed)
        first: dict = {}

        def check_main():
            # the full oracle on the first repeat; later ones must match its bytes
            digests = _digests(workdir, output_files(w))
            if not first:
                first.update(digests)
                return check_simulate(w, workdir) if oracle is None else oracle.check_test()
            return [f"{f} differs from the first repeat"
                    for f in digests if digests[f] != first[f]]

        if trace:
            extra["startup_s"] = [session.execute(IMPORT_ONLY, "import ballwise.cli")[0]
                                  for _ in range(STARTUP_REPEATS)]
        steps = []
        start = time.perf_counter()
        # stop once the next repeat would likely end over half a repeat past the window
        while (len(walls) < (1 if trace else MIN_REPEATS)
               or time.perf_counter() - start + statistics.median(steps) / 2 < seconds):
            step = time.perf_counter()
            if walls and not trace:
                # set-up runs between the main commands, so that both see the
                # same host speed, until it has a share of the measured time
                set_up()
                while sum(setup) < SETUP_SHARE * sum(walls):
                    set_up()
            wall, peak = session.run(main_args(w), check=check_main)
            walls.append(wall)
            rss.append(peak)
            if trace:
                spans = workdir / "spans.json"
                spans.unlink(missing_ok=True)
                wall, _ = session.run(main_args(w), check=check_main, spans=spans)
                record = (json.loads(spans.read_text()) if spans.exists()
                          else {"spans": [], "absent": []})
                traced.append(wall)
                covered.append(sum(span_times(record["spans"])[1].values()))
                layers.append(layer_metrics(record))
                extra["absent"] = record["absent"]
            elif w.adjust_caps and "adjust_s" not in extra:
                extra["adjust_s"] = session.run(
                    adjust_args(w), check=lambda: oracle.check_adjusted(w.adjust_caps))[0]
            steps.append(time.perf_counter() - step)

    if trace and layers:
        values = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        out = [workdir / SIM_OUT] if w.replicates else list((workdir / OUT_DIR).iterdir())
        values["cli.output_bytes"] = sum(p.stat().st_size for p in out)
        values.update(trace_accounting(walls, traced, covered, extra["startup_s"]))
        extra["trace_check"] = trace_check(values, statistics.median(traced))
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
    elif trace:
        metrics = {}
    else:
        values = {"setup_s": statistics.median(setup)}
        if walls:
            values.update(wall_s=statistics.median(walls), peak_rss_mb=statistics.median(rss))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()
                   if k in values}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}

    report = {"environment": environment(w.name, seed), "result": result,
              "repeats": len(walls), "samples": {"wall_s": walls, "setup_s": setup,
                                                 "peak_rss_mb": rss, "traced_wall_s": traced,
                                                 "span_self_sum_s": covered},
              "problems": session.problems, **extra}
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2))
    if session.failed == 0:
        shutil.rmtree(workdir)

    print(f"# {w.name} seed={seed} trace={int(trace)} repeats={len(walls)} "
          f"setups={len(setup)} threads={THREADS['OMP_NUM_THREADS']} nproc={os.cpu_count()}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if "adjust_s" in extra:
        print(f"{'adjust_s':28s} {extra['adjust_s']:.6g} s")
    print(f"{'error_rate':28s} {session.failed / session.attempted:.6g} failed/attempted")
    if "trace_check" in extra:
        print(extra["trace_check"])
    for name in extra.get("absent", []):
        print(f"absent from the program, not traced: {name}")
    for problem in session.problems:
        print(f"FAILED {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ballwise" / "cli.py").is_file():
        print(f"error: no ballwise source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
