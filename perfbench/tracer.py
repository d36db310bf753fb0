"""Layer tracing for the ballwise benchmark.

Run as a script, this module executes ``ballwise.cli.main`` with timing spans
around the public entry points of each layer (``mesh``, ``domain``, ``glm``,
``permute``, ``evalsim``, ``cli``) and writes the spans as JSON:

    python3 perfbench/tracer.py SPANS.json -- test --config run.json ...

The wrappers are installed from outside; no ballwise source changes. A name
imported into several modules (``enumerate_family`` lives in ``domain`` and is
imported by ``cli`` and ``evalsim``) is replaced in every module that holds it.
A target that no longer exists is listed as absent, not treated as an error.

Imported as a module, it turns recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

LAYER_MODULES = (
    "ballwise",
    "ballwise.mesh",
    "ballwise.domain",
    "ballwise.glm",
    "ballwise.permute",
    "ballwise.evalsim",
    "ballwise.cli",
)


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_balls(args, result):
    return {"count": len(result)}


def _count_family(args, result):
    return {
        "balls": result.n_balls,
        "memberships": result.n_memberships,
        "rss_mb": _rss_mb(),
    }


def _count_flops(args, result):
    # computed, not measured: one multiply and one add per support membership
    # per stat column
    family, fields = args[0], args[1]
    columns = 1 if getattr(fields, "ndim", 1) == 1 else fields.shape[0]
    return {"flops": 2 * family.n_memberships * columns}


# (span name, module, attribute path, counter function)
TARGETS = (
    ("mesh.load", "ballwise.mesh", "load_mesh", None),
    ("mesh.weights", "ballwise.mesh", "TriangulatedManifold.compute_weights", None),
    ("mesh.distances", "ballwise.mesh", "TriangulatedManifold.compute_distances", None),
    ("mesh.cache_load", "ballwise.mesh", "load_distance_cache", None),
    ("domain.component_balls", "ballwise.domain", "enumerate_component_balls", _count_balls),
    ("domain.enumerate", "ballwise.domain", "enumerate_family", _count_family),
    ("domain.integrate", "ballwise.domain", "AdjustmentFamily.integrated_stats", _count_flops),
    ("glm.stat_field", "ballwise.glm", "stat_field", None),
    ("permute.run", "ballwise.permute", "run_inference", None),
    ("permute.generate", "ballwise.permute", "generate_permutations", None),
    ("permute.adjust", "ballwise.permute", "adjusted_from_ballwise", None),
    ("evalsim.sampler", "ballwise.evalsim", "GaussianFieldSampler.__init__", None),
    ("evalsim.sampler", "ballwise.evalsim", "GaussianFieldSampler.sample", None),
    ("evalsim.scenario", "ballwise.evalsim", "run_scenario", None),
    ("cli.main", "ballwise.cli", "main", None),
)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a later refactor changed the shape; keep the timing
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in LAYER_MODULES]
        for name, module, path, counter in TARGETS:
            owner = importlib.import_module(module)
            *scope, attr = path.split(".")
            try:
                for part in scope:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module}.{path}")
                continue
            wrapper = self.wrap(name, original, counter)
            if scope:
                setattr(owner, attr, wrapper)  # a method: patch the class once
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


# --- aggregation (benchmark side) ---------------------------------------------

# Per-layer metric -> unit. The end-to-end metric and workload each one should
# move are recorded in perfbench/baseline.json.
LAYER_METRICS = {
    "mesh.load_s": "s",
    "mesh.weights_s": "s",
    "mesh.distances_s": "s",
    "mesh.cache_load_s": "s",
    "domain.component_balls_s": "s",
    "domain.component_balls": "count",
    "domain.enumerate_self_s": "s",
    "domain.enumerate_rss_mb": "MB",
    "domain.balls": "count",
    "domain.memberships": "count",
    "domain.integrate_s": "s",
    "domain.integrate_calls": "count",
    "domain.integrate_flops": "flop",
    "glm.stat_field_s": "s",
    "glm.stat_field_calls": "count",
    "permute.run_s": "s",
    "permute.self_s": "s",
    "permute.generate_s": "s",
    "permute.adjust_s": "s",
    "evalsim.sampler_s": "s",
    "evalsim.scenario_self_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def span_times(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Total time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct children;
    the traced program is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    total: dict = {}
    self_: dict = {}
    calls: dict = {}
    for s, c in zip(spans, child):
        dur = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        self_[s["name"]] = self_.get(s["name"], 0.0) + dur - c
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    return total, self_, calls


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced command's spans (all but output bytes,
    start-up and the tracer's own cost, which need other runs). Layers the
    command never reached read 0."""
    spans = trace["spans"]
    total, self_, calls = span_times(spans)

    def counts(name, key, reduce=sum):
        vals = [s["counts"][key] for s in spans
                if s["name"] == name and key in s.get("counts", {})]
        return reduce(vals) if vals else 0

    return {
        "mesh.load_s": total.get("mesh.load", 0.0),
        "mesh.weights_s": total.get("mesh.weights", 0.0),
        "mesh.distances_s": total.get("mesh.distances", 0.0),
        "mesh.cache_load_s": total.get("mesh.cache_load", 0.0),
        "domain.component_balls_s": total.get("domain.component_balls", 0.0),
        "domain.component_balls": counts("domain.component_balls", "count"),
        "domain.enumerate_self_s": self_.get("domain.enumerate", 0.0),
        "domain.enumerate_rss_mb": counts("domain.enumerate", "rss_mb", max),
        "domain.balls": counts("domain.enumerate", "balls", max),
        "domain.memberships": counts("domain.enumerate", "memberships", max),
        "domain.integrate_s": total.get("domain.integrate", 0.0),
        "domain.integrate_calls": calls.get("domain.integrate", 0),
        "domain.integrate_flops": counts("domain.integrate", "flops"),
        "glm.stat_field_s": total.get("glm.stat_field", 0.0),
        "glm.stat_field_calls": calls.get("glm.stat_field", 0),
        "permute.run_s": total.get("permute.run", 0.0),
        "permute.self_s": self_.get("permute.run", 0.0),
        "permute.generate_s": total.get("permute.generate", 0.0),
        "permute.adjust_s": total.get("permute.adjust", 0.0),
        "evalsim.sampler_s": total.get("evalsim.sampler", 0.0),
        "evalsim.scenario_self_s": self_.get("evalsim.scenario", 0.0),
        "cli.self_s": self_.get("cli.main", 0.0),
    }


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- BALLWISE-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("ballwise.cli")
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
