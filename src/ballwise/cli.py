"""Command-line front end: tessellate, distances, test, adjust, simulate.

Configs and manifests are JSON, tabular outputs CSV, meshes ASCII OFF.
All outputs are written atomically (temp file + rename) and every run emits
a manifest with the config hash, seed and RNG algorithm so reruns are
byte-for-byte reproducible.

Exit codes: 0 success, 1 computation error, 2 configuration/input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .domain import (
    DEFAULT_MAX_BALLS,
    FamilyTooLargeError,
    ProductDomain,
    circle_component,
    enumerate_family,
    interval_component,
    mesh_component,
)
from .evalsim import ScenarioConfig, multi_patch_mask, run_scenario
from .glm import (
    DesignSpec,
    HypothesisSpec,
    design_vector,
    load_signals_bin,
    load_signals_csv,
)
from .mesh import (
    build_icosphere,
    load_distance_cache,
    load_mesh,
    off_text,
    save_distance_cache,
)
from .permute import RNG_ALGORITHM, PermutationPlan, adjusted_from_ballwise, run_inference

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid configuration or unreadable input."""


class Stages:
    """Wall time per stage of a command, in the order the stages ran.

    ``with stages("inference"):`` times one stage; a ``MemoryError`` raised
    inside it leaves as a ``MemoryError`` whose message names the stage.
    """

    def __init__(self):
        self._spans: dict[str, list] = {}  # name: [start, end or None]

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self._spans[name] = [time.monotonic(), None]
        try:
            yield
        except MemoryError:
            raise MemoryError(f"out of memory during {name}") from None
        finally:
            span[1] = time.monotonic()

    def seconds(self) -> dict[str, float]:
        """Seconds per stage, a running stage's up to now."""
        now = time.monotonic()
        return {
            name: round((now if end is None else end) - start, 3)
            for name, (start, end) in self._spans.items()
        }


def _atomic_write(path: str, data: str | bytes | Iterable[str]) -> None:
    """Write ``data`` (text, bytes, or text chunks in order) via temp + rename;
    on any failure the temp file is removed and ``path`` is left as it was."""
    _atomic_write_all([(path, data)])


def _atomic_write_all(outputs: list[tuple[str, str | bytes | Iterable[str]]]) -> None:
    """Write each ``(path, data)`` of ``outputs``, all or none: every output
    goes to a temp file, and the temp files are renamed only once the last is
    written. On any failure every temp file is removed and every path is left
    as it was."""
    tmps = []
    try:
        for path, data in outputs:
            tmps.append(f"{path}.tmp.{os.getpid()}")
            with open(tmps[-1], "wb" if isinstance(data, bytes) else "w") as fh:
                if isinstance(data, (str, bytes)):
                    fh.write(data)
                else:  # a generator of chunks can raise part way through
                    fh.writelines(data)
        for (path, _), tmp in zip(outputs, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _check_keys(section: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing key(s) {sorted(missing)}")


def _positive_cap(cap: float, where: str) -> float:
    if not cap > 0:  # also rejects nan
        raise ConfigError(f"{where}: radius_cap must be positive")
    return cap


def _parse_cap(value, where: str) -> float:
    """A config's ``radius_cap``: a JSON number or ``"inf"``."""
    if value == "inf":
        return math.inf
    if not _is_number(value):
        raise ConfigError(f"{where}: radius_cap must be a number or 'inf', got {value!r}")
    return _positive_cap(float(value), where)


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer (bool is an int subclass: not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (bool is an int subclass: not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite JSON number."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_number(value, what: str) -> float:
    if not _is_finite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _positive_int(value, what: str) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


def _seed(value, what: str) -> int:
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _load_mesh(path: str, where: str, edge_lengths=None):
    """The mesh of an OFF file with optional edge-length overrides; a file
    that does not describe a valid mesh is a ``ConfigError``."""
    if not os.path.exists(path):
        raise ConfigError(f"{where}mesh file not found: {path}")
    try:
        m = load_mesh(path)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None
    if edge_lengths:
        if not os.path.exists(edge_lengths):
            raise ConfigError(f"{where}edge-length file not found: {edge_lengths}")
        try:
            m.override_edge_lengths(edge_lengths)
        except ValueError as exc:
            raise ConfigError(f"{where}{exc}") from None
    return m


def _build_component(section: dict, where: str):
    _check_keys(
        section,
        {"kind", "path", "edge_lengths", "distance_cache", "points",
         "circumference", "bounds", "radius_cap"},
        {"kind"},
        where,
    )
    kind = section["kind"]
    cap = _parse_cap(section.get("radius_cap", "inf"), where)
    if kind == "mesh":
        if "path" not in section:
            raise ConfigError(f"{where}: mesh component needs a 'path'")
        m = _load_mesh(section["path"], f"{where}: ", section.get("edge_lengths"))
        try:
            m.compute_weights()
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        cache = section.get("distance_cache")
        if cache and os.path.exists(cache):
            try:
                m.distances = load_distance_cache(cache, limit=cap)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            m.distance_limit = cap
            if len(m.distances) != m.n_vertices:
                raise ConfigError(f"{where}: distance cache does not match the mesh")
        return mesh_component(m, radius_cap=cap)
    try:
        if kind == "circle":
            if "points" not in section:
                raise ConfigError(f"{where}: circle component needs 'points'")
            circumference = _finite_number(
                section.get("circumference", 2 * math.pi), f"{where}: circumference"
            )
            return circle_component(
                _positive_int(section["points"], f"{where}: points"),
                circumference=circumference,
                radius_cap=cap,
            )
        if kind == "interval":
            if "bounds" not in section or "points" not in section:
                raise ConfigError(
                    f"{where}: interval component needs 'bounds' and 'points'"
                )
            bounds = section["bounds"]
            if not (
                isinstance(bounds, list) and len(bounds) == 2
                and all(_is_finite(v) for v in bounds)
            ):
                raise ConfigError(
                    f"{where}: bounds must be a list of two finite numbers, got {bounds!r}"
                )
            a, b = bounds
            return interval_component(
                float(a), float(b),
                _positive_int(section["points"], f"{where}: points"),
                radius_cap=cap,
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown component kind {kind!r}")


def _build_domain(config: dict):
    if "max_memberships" in config:
        raise ConfigError(
            "domain: max_memberships is no longer supported; the family size "
            "limit is max_balls, a number of balls"
        )
    _check_keys(config, {"components", "max_balls"}, {"components"}, "domain")
    max_balls = _positive_int(
        config.get("max_balls", DEFAULT_MAX_BALLS), "domain: max_balls"
    )
    comps = [
        _build_component(c, f"domain.components[{i}]")
        for i, c in enumerate(config["components"])
    ]
    return ProductDomain(comps), max_balls


def _enumerate_family(domain, max_balls: int):
    try:
        return enumerate_family(domain, max_balls)
    except FamilyTooLargeError as exc:
        raise ConfigError(f"{exc}, or raise domain.max_balls") from None


def _load_signals(section: dict):
    _check_keys(section, {"path", "format"}, {"path"}, "data")
    path = section["path"]
    if not os.path.exists(path):
        raise ConfigError(f"data file not found: {path}")
    fmt = section.get("format", "csv")
    if fmt not in ("csv", "bin"):
        raise ConfigError(f"data.format must be 'csv' or 'bin', got {fmt!r}")
    try:
        Y = load_signals_csv(path)[0] if fmt == "csv" else load_signals_bin(path)
    except ValueError as exc:
        raise ConfigError(f"data: {exc}") from None
    if not np.isfinite(Y).all():
        obs, point = np.argwhere(~np.isfinite(Y))[0]
        raise ConfigError(
            f"data: {path}: observation {obs}, point {point} is {Y[obs, point]}; "
            "signals must be finite"
        )
    return Y


def _build_model(section: dict):
    _check_keys(section, {"statistic", "groups", "covariate"}, {"statistic"}, "model")
    stat = section["statistic"]
    try:
        hyp = HypothesisSpec(statistic=stat)
        if stat == "t_two_sample_sq":
            if "groups" not in section:
                raise ConfigError("model: t_two_sample_sq needs 'groups'")
            design = DesignSpec(group_labels=np.asarray(section["groups"]))
        else:
            if "covariate" not in section:
                raise ConfigError(f"model: {stat} needs 'covariate'")
            design = DesignSpec(covariates=np.asarray(section["covariate"], dtype=float))
        design_vector(design, hyp)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from None
    return design, hyp


def _seed_override(flag):
    """The seed of ``--seed``, else of ``BALLWISE_SEED``, else None."""
    if flag is not None:
        return _seed(flag, "--seed")
    env = os.environ.get("BALLWISE_SEED")
    if env is None:
        return None
    return _seed(int(env) if env.isdecimal() else env, "BALLWISE_SEED")


def _build_plan(section: dict, seed_override):
    _check_keys(
        section,
        {"permutations", "seed", "alpha", "scheme"},
        {"permutations", "seed"},
        "inference",
    )
    seed = _seed(section["seed"], "inference: seed")
    if seed_override is not None:
        seed = seed_override
    alpha = section.get("alpha", 0.05)
    if not _is_number(alpha) or not 0 < alpha < 1:
        raise ConfigError(f"inference: alpha must be a number in (0, 1), got {alpha!r}")
    try:
        plan = PermutationPlan(
            n_permutations=_positive_int(
                section["permutations"], "inference: permutations"
            ),
            seed=seed,
            scheme=section.get("scheme", "freedman_lane"),
        )
    except ValueError as exc:
        raise ConfigError(f"inference: {exc}") from None
    return plan, alpha


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest(config: dict, plan, family, stages: Stages) -> str:
    import scipy  # only for its version: most commands never need scipy

    seconds = stages.seconds()
    return json.dumps(
        {
            "config_sha256": _config_hash(config),
            "seed": plan.seed,
            "permutations": plan.n_permutations,
            "scheme": plan.scheme,
            "rng_algorithm": RNG_ALGORITHM,
            "family_balls": family.n_balls,
            "family_shape": list(family.shape),
            "family_memberships": family.n_memberships,
            "ballwise_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # from the build to the end of inference
            "wall_time_s": round(
                sum(seconds[name] for name in ("build", "enumerate", "inference")), 3
            ),
            # the write stage up to the manifest, which is formatted last
            "stages": seconds,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            ),
        },
        indent=2,
    )


def _float_text(values: np.ndarray) -> np.ndarray:
    """The ``'%.17g'`` text of each float64 in ``values``, as an object array.

    Each distinct bit pattern is formatted once, in one C-level call, so
    ``-0.0``, ``0.0`` and every NaN keep their own text.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(text[:-1], dtype=object)[inverse]


def _rows(columns) -> str:
    """CSV rows whose fields are ``columns`` (integers or the text of
    ``_float_text``), written as ``csv.writer`` writes numbers: no quoting,
    ``\r\n`` line ends. One ``%`` call formats them all."""
    n = len(columns[0])
    table = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return (",".join(["%s"] * len(columns)) + "\r\n") * n % tuple(table.ravel().tolist())


def _pointwise_csv(domain, result, p) -> str:
    ncomp = len(domain.components)
    header = ",".join(
        ["grid_id"] + [f"coord_{l}" for l in range(ncomp)] + ["T_obs", "p", "p_adj"]
    )
    columns = [np.arange(domain.size)]
    for comp, idx in zip(domain.components, np.unravel_index(columns[0], domain.shape)):
        labels = comp.points[idx]
        columns.append(_float_text(labels) if labels.dtype.kind == "f" else labels)
    columns += [_float_text(v) for v in (result.observed_field, p.pointwise, p.adjusted)]
    return header + "\r\n" + _rows(columns)


def _adjusted_csv(adjusted: np.ndarray) -> str:
    return "grid_id,p_adj\r\n" + _rows([np.arange(len(adjusted)), _float_text(adjusted)])


# rows of balls.csv formatted and written per chunk, so neither the text nor
# a Python object per ball is ever held for the whole family
BALLS_CSV_CHUNK = 4096


def _balls_csv(family, result) -> Iterator[str]:
    """``balls.csv`` as text chunks: one row per product ball, in ball order.

    Each chunk unravels only its own ball ids and formats only the values
    its rows use, so memory is bounded by the chunk, not by the family.
    """
    yield ",".join(
        ["ball_id"]
        + [f"center_{l},radius_{l},inner_radius_{l}" for l in range(len(family.shape))]
        + ["T_ball_obs,p_ball\r\n"]
    )
    n = family.n_balls
    for start in range(0, n, BALLS_CSV_CHUNK):
        stop = min(start + BALLS_CSV_CHUNK, n)
        ids = np.arange(start, stop)
        columns = [ids]
        for balls, idx in zip(family.component_balls, np.unravel_index(ids, family.shape)):
            centers, radii, inner_radii = balls.table(idx)
            columns += [centers, _float_text(radii), _float_text(inner_radii)]
        columns += [
            _float_text(result.observed_ball_stats[start:stop]),
            _float_text(result.p.ballwise[start:stop]),
        ]
        yield _rows(columns)


# --- subcommands -------------------------------------------------------------

def cmd_tessellate(args) -> int:
    try:
        m = build_icosphere(args.order, args.radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _atomic_write(args.out, off_text(m))
    print(f"wrote icosphere order {args.order}: {m.n_vertices} vertices, "
          f"{len(m.triangles)} faces -> {args.out}")
    return EXIT_OK


def cmd_distances(args) -> int:
    m = _load_mesh(args.mesh, "", args.edge_lengths)
    save_distance_cache(m, args.out)
    print(f"wrote {m.n_vertices}x{m.n_vertices} distance cache -> {args.out}")
    return EXIT_OK


TEST_SECTIONS = {"domain", "data", "model", "inference", "output"}


def _load_test_config(path: str):
    config = _load_json(path)
    _check_keys(config, TEST_SECTIONS, {"domain", "data", "model", "inference"}, "config")
    output = config.get("output", {})
    _check_keys(output, {"dir"}, set(), "output")
    out_dir = output.get("dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output: dir must be a non-empty string, got {out_dir!r}")
    return config


def cmd_test(args) -> int:
    config = _load_test_config(args.config)
    out_dir = args.out_dir or config.get("output", {}).get("dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    stages = Stages()
    with stages("build"):
        domain, max_balls = _build_domain(config["domain"])
        Y = _load_signals(config["data"])
        if Y.shape[1] != domain.size:
            raise ConfigError(
                f"signal matrix has {Y.shape[1]} columns but the domain has "
                f"{domain.size} grid points"
            )
        design, hyp = _build_model(config["model"])
        if design.n_obs != Y.shape[0]:
            raise ConfigError(
                f"model: the design has {design.n_obs} observations but the signal "
                f"matrix has {Y.shape[0]} rows"
            )
        plan, alpha = _build_plan(config["inference"], _seed_override(args.seed))
    with stages("enumerate"):
        family = _enumerate_family(domain, max_balls)
    with stages("inference"):
        result = run_inference(Y, design, hyp, family, plan)

    def manifest():  # formatted last, so its peak RSS covers the other writes
        yield _manifest(config, plan, family, stages)

    with stages("write"):
        outputs = {
            "pointwise.csv": _pointwise_csv(domain, result, result.p),
            "balls.csv": _balls_csv(family, result),
            "manifest.json": manifest(),
        }
        _atomic_write_all(
            [(os.path.join(out_dir, name), data) for name, data in outputs.items()]
        )
    n_sig = int(np.sum(result.p.adjusted <= alpha))
    print(
        f"{domain.size} grid points, {family.n_balls} balls; "
        f"{n_sig} adjusted-significant at alpha={alpha} -> {out_dir}"
    )
    return EXIT_OK


def cmd_adjust(args) -> int:
    config = _load_test_config(args.config)
    stages = Stages()
    with stages("build"):
        domain, max_balls = _build_domain(config["domain"])
    with stages("enumerate"):
        family = _enumerate_family(domain, max_balls)
    caps = []
    for tok in args.caps.split(","):
        try:
            cap = float(tok)  # also "inf"
        except ValueError:
            raise ConfigError(
                f"--caps: radius_cap must be a number or 'inf', got {tok.strip()!r}"
            ) from None
        caps.append(_positive_cap(cap, "--caps"))
    if len(caps) != len(domain.components):
        raise ConfigError(
            f"--caps has {len(caps)} entries but the domain has "
            f"{len(domain.components)} components"
        )
    if not os.path.exists(args.balls):
        raise ConfigError(f"ball p-value file not found: {args.balls}")
    with stages("adjust"):
        with open(args.balls, newline="") as fh:
            reader = csv.DictReader(fh)
            if "p_ball" not in (reader.fieldnames or []):
                raise ConfigError(f"{args.balls}: no p_ball column")
            rows = list(reader)
        if len(rows) != family.n_balls:
            raise ConfigError(
                f"{args.balls}: {len(rows)} balls but the re-enumerated family has "
                f"{family.n_balls}; config/caps mismatch"
            )
        try:
            p_ball = np.array([float(r["p_ball"]) for r in rows])
        except (TypeError, ValueError):  # TypeError: a short row reads as None
            raise ConfigError(f"{args.balls}: p_ball values must be numbers") from None
        # a p-value is finite and in (0, 1]; nan fails both comparisons
        bad = np.flatnonzero(~((p_ball > 0) & (p_ball <= 1)))
        if len(bad):
            raise ConfigError(
                f"{args.balls}: row {bad[0] + 1} (line {bad[0] + 2}): p_ball must be "
                f"in (0, 1], got {rows[bad[0]]['p_ball']!r}"
            )
        mask = family.admissible_mask(caps)
        adjusted = adjusted_from_ballwise(p_ball, family, ball_mask=mask)

    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    with stages("write"):
        _atomic_write(os.path.join(out_dir, "adjusted.csv"), _adjusted_csv(adjusted))
    print(
        f"re-adjusted with caps {caps}: {int(mask.sum())}/{family.n_balls} balls "
        f"kept -> {os.path.join(out_dir, 'adjusted.csv')}"
    )
    return EXIT_OK


SCENARIO_KEYS = {
    "id", "icosphere_order", "icosphere_radius", "mesh_path", "n_samples",
    "permutations", "replicates", "seed", "alpha", "radius_cap",
    "signal_amplitude", "noise_bandwidth", "noise_sd", "truth",
}


def _scenario_from_config(section: dict, idx: int) -> ScenarioConfig:
    where = f"scenario[{idx}]"
    _check_keys(
        section, SCENARIO_KEYS,
        {"n_samples", "permutations", "replicates", "seed"}, where,
    )
    order = section.get("icosphere_order")
    if order is not None:
        _positive_int(order, f"{where}: icosphere_order")

    def number(key, default):
        return _finite_number(section.get(key, default), f"{where}: {key}")
    try:
        cfg = ScenarioConfig(
            n_samples=_positive_int(section["n_samples"], f"{where}: n_samples"),
            n_permutations=_positive_int(
                section["permutations"], f"{where}: permutations"
            ),
            replicates=_positive_int(section["replicates"], f"{where}: replicates"),
            seed=_seed(section["seed"], f"{where}: seed"),
            alpha=number("alpha", 0.05),
            radius_cap=_parse_cap(section.get("radius_cap", "inf"), where),
            signal_amplitude=number("signal_amplitude", 0.0),
            noise_bandwidth=number("noise_bandwidth", 0.3),
            noise_sd=number("noise_sd", 1.0),
            icosphere_order=order,
            icosphere_radius=number("icosphere_radius", 1.0),
            mesh_path=section.get("mesh_path"),
            scenario_id=str(section.get("id", idx)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return cfg


def _apply_truth(cfg: ScenarioConfig, section: dict, mesh, idx: int):
    truth_cfg = section.get("truth", {"type": "none"})
    where = f"scenario[{idx}].truth"
    keys = {"type", "center", "centers", "radius"}
    _check_keys(truth_cfg, keys, {"type"}, where)
    kind = truth_cfg["type"]
    if kind == "none":
        cfg.truth_mask = np.zeros(mesh.n_vertices, dtype=bool)
        return
    if kind not in ("cap", "patches"):
        raise ConfigError(f"{where}: unknown truth type {kind!r}")
    key = "center" if kind == "cap" else "centers"
    _check_keys(truth_cfg, keys, {key, "radius"}, where)
    centers = [truth_cfg[key]] if kind == "cap" else truth_cfg[key]
    n = mesh.n_vertices
    if not isinstance(centers, list) or not centers or not all(
        _is_int(c) and 0 <= c < n for c in centers
    ):
        raise ConfigError(
            f"{where}: {key} must be vertex indices in [0, {n}), got {truth_cfg[key]!r}"
        )
    radius = truth_cfg["radius"]
    if not _is_number(radius) or not radius > 0:
        raise ConfigError(f"{where}: radius must be a positive number, got {radius!r}")
    cfg.truth_mask = multi_patch_mask(mesh, centers, float(radius))


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    if not isinstance(config, list) or not config:
        raise ConfigError("simulate config must be a non-empty JSON list of scenarios")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scenario", "sensitivity", "fwer", "fpr", "fdr", "replicates"])
    mesh_cache: dict = {}
    stages = Stages()
    for idx, section in enumerate(config):
        cfg = _scenario_from_config(section, idx)
        key = (cfg.mesh_path, cfg.icosphere_order, cfg.icosphere_radius)
        if key not in mesh_cache:
            try:
                with stages("build"):
                    mesh_cache[key] = cfg.build_mesh()
            except ValueError as exc:
                raise ConfigError(f"scenario[{idx}]: {exc}") from None
        mesh = mesh_cache[key]
        _apply_truth(cfg, section, mesh, idx)
        try:
            with stages("simulation"):
                rates = run_scenario(cfg, mesh=mesh)
        except FamilyTooLargeError as exc:
            raise ConfigError(f"scenario[{idx}]: {exc}") from None
        writer.writerow(
            [
                cfg.scenario_id,
                "" if rates.sensitivity is None else f"{rates.sensitivity:.6f}",
                f"{rates.fwer:.6f}",
                f"{rates.false_positive_rate:.6f}",
                f"{rates.false_discovery_rate:.6f}",
                rates.n_replicates,
            ]
        )
        print(f"scenario {cfg.scenario_id}: fwer={rates.fwer:.3f}")
    out = args.out or "simulation_results.csv"
    with stages("write"):
        _atomic_write(out, buf.getvalue())
    print(f"wrote {len(config)} scenario rows -> {out}")
    return EXIT_OK


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballwise",
        description="Ball-wise local inference for functional data on "
        "triangulated manifold domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tessellate", help="write an icosphere OFF mesh")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("distances", help="precompute a geodesic distance cache")
    p.add_argument("--mesh", required=True)
    p.add_argument("--edge-lengths", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("test", help="run the permutation test pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser(
        "adjust", help="re-adjust cached ball p-values under smaller caps"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--balls", required=True, help="balls.csv from a previous run")
    p.add_argument("--caps", required=True, help="comma-separated caps, one per component")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("simulate", help="run a scenario sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # a MemoryError outside a stage, for one, has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, (ConfigError, FileNotFoundError, PermissionError)):
            return EXIT_CONFIG
        return EXIT_COMPUTE  # computation failure


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
