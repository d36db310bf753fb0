"""Command-line front end: tessellate, distances, test, adjust, simulate.

Configs and manifests are JSON, tabular outputs CSV, meshes ASCII OFF.
All outputs are written atomically (temp file + rename) and every run emits
a manifest with the config hash, seed and RNG algorithm so reruns are
byte-for-byte reproducible.

Exit codes: 0 success, 2 when the input is at fault (a ``ValueError`` or an
``OSError``), 1 for any other error; see ``main``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import importlib.util
import io
import itertools
import math
import os
import platform
import resource
import runpy
import sys
import time
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
# the other layers (domain, glm, permute, evalsim) are imported by the commands
# that run them, so tessellate and distances never compile or load them
from .mesh import (
    build_icosphere,
    check_memory,
    distance_cache_chunks,
    icosphere_bytes,
    load_distance_cache,
    load_mesh,
    memory_limit,
    off_text,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """A config value or input file that the CLI's own checks refuse."""


@contextlib.contextmanager
def _located(where: str):
    """Name the input that a ``ValueError`` or ``OSError`` raised in the
    block is about: ``main`` prints ``where: `` before its message. Nested
    blocks join their names with ``.``, the outermost first, as in
    ``scenario[0].truth: ...``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        inner = getattr(exc, "where", None)
        exc.where = where if inner is None else f"{where}.{inner}"
        raise


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


def _atomic_write(outputs: dict[str, str | bytes | Iterable[str | bytes]]) -> None:
    """Write each path's data (text, bytes, or such chunks in order, each
    written before the next is drawn) of ``outputs``, all or none: a path
    that is a directory, which no rename could replace, is refused before
    anything is written, every output goes to a temp file, and the temp
    files are renamed only once the last is written. On any failure every
    temp file is removed and every path is left as it was. An ``OSError``
    leaves as a ``ConfigError`` that names the output it hit, not its temp
    file."""
    tmps = []
    try:
        for path in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, data in outputs.items():
            tmps.append(f"{path}.tmp.{os.getpid()}")
            with open(tmps[-1], "wb") as fh:
                # a generator of chunks can raise part way through
                for chunk in [data] if isinstance(data, (str, bytes)) else data:
                    fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        for path, tmp in zip(outputs, tmps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"output {path}: {exc.strerror or exc}") from None
        raise


def _check_keys(section: dict, allowed: set[str], required: set[str]):
    if not isinstance(section, dict):
        raise ConfigError(f"must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)}")


def _positive_cap(cap: float) -> float:
    if not cap > 0:  # also rejects nan
        raise ConfigError("radius_cap must be positive")
    return cap


def _parse_cap(value) -> float:
    """A config's ``radius_cap``: a JSON number or ``"inf"``."""
    if value == "inf":
        return math.inf
    if not _is_number(value):
        raise ConfigError(f"radius_cap must be a number or 'inf', got {value!r}")
    try:
        return _positive_cap(float(value))
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"radius_cap must be a finite number or 'inf', got {value!r}") from None


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
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _load_mesh(path: str, edge_lengths=None):
    """The mesh of an OFF file with optional edge-length overrides."""
    m = load_mesh(path)
    if edge_lengths is not None:
        m.override_edge_lengths(edge_lengths)
    return m


def _file_key(section: dict, key: str, what: str | None = None) -> str | None:
    """The path a section's file key names, None without the key;
    anything but the path of an existing file is a ``ConfigError``, which
    calls the file ``what`` (by default the key)."""
    if key not in section:
        return None
    path = section[key]
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{key} must be a file path, got {path!r}")
    if not os.path.exists(path):
        raise ConfigError(f"{what or key} file not found: {path}")
    return path


def _check_kind_keys(section: dict, key: str, table: dict, what: str) -> str:
    """``section[key]``, the kind of ``section``, once ``section`` has every
    key its kind requires and no other key than its kind takes: ``table``
    gives each kind's (required, optional) keys. A key of no kind is refused
    before the kind is read."""
    _check_keys(section, set().union(*(r | o for r, o in table.values())), {key})
    kind = section[key]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} {kind!r}")
    required, optional = table[kind]
    _check_keys(section, required | optional, required)
    return kind


COMPONENT_KEYS = {  # kind: (required keys, optional keys)
    "mesh": ({"kind", "path"}, {"radius_cap", "edge_lengths", "distance_cache"}),
    "icosphere": ({"kind", "order"}, {"radius_cap", "radius"}),
    "circle": ({"kind", "points"}, {"radius_cap", "circumference"}),
    "interval": ({"kind", "bounds", "points"}, {"radius_cap"}),
}


def _component_mesh(section: dict, cap: float):
    """The weighed mesh of a checked mesh or icosphere component and the
    rows of its ``distance_cache`` up to ``cap``, None without a cache."""
    if section["kind"] == "icosphere":
        radius = _finite_number(section.get("radius", 1.0), "radius")
        m = _icosphere(_positive_int(section["order"], "order"), radius)
    else:
        m = _load_mesh(_file_key(section, "path", "mesh"), _file_key(section, "edge_lengths"))
    m.compute_weights()
    cache = _file_key(section, "distance_cache")
    if cache is None:
        return m, None
    rows = load_distance_cache(cache, limit=cap)
    if len(rows) != m.n_vertices:
        raise ConfigError("distance cache does not match the mesh")
    return m, rows


def _build_component(section: dict, mesh_of):
    from .domain import circle_component, interval_component, mesh_component

    kind = _check_kind_keys(section, "kind", COMPONENT_KEYS, "component kind")
    cap = _parse_cap(section.get("radius_cap", "inf"))
    if kind in ("mesh", "icosphere"):
        m, rows = mesh_of(section, cap)
        return mesh_component(m, radius_cap=cap, rows=rows)
    if kind == "circle":
        circumference = _finite_number(
            section.get("circumference", 2 * math.pi), "circumference"
        )
        return circle_component(
            _positive_int(section["points"], "points"),
            circumference=circumference,
            radius_cap=cap,
        )
    # an interval
    bounds = section["bounds"]
    if not (
        isinstance(bounds, list) and len(bounds) == 2
        and all(_is_finite(v) for v in bounds)
    ):
        raise ConfigError(f"bounds must be a list of two finite numbers, got {bounds!r}")
    a, b = bounds
    return interval_component(
        float(a), float(b), _positive_int(section["points"], "points"), radius_cap=cap
    )


def _build_domain(config: dict, mesh_of=_component_mesh):
    from .domain import ProductDomain

    retired = ("max_balls", "max_memberships")
    with _located("domain"):
        _check_keys(config, {"components", *retired}, {"components"})
        for key in retired:
            if key in config:
                raise ConfigError(
                    f"{key} is no longer supported; the family's memory "
                    "limit is now worked out from the machine's memory"
                )
        components = config["components"]
        if not isinstance(components, list) or not components:
            raise ConfigError(f"components must be a non-empty list, got {components!r}")
        grids = []
        for i, section in enumerate(components):
            with _located(f"components[{i}]"):
                grids.append(_build_component(section, mesh_of))
        return ProductDomain(grids)


def _load_signals(section: dict):
    from .glm import load_signals_bin, load_signals_csv

    with _located("data"):
        _check_keys(section, {"path", "format"}, {"path"})
        path = _file_key(section, "path", "data")
    fmt = section.get("format", "csv")
    if fmt not in ("csv", "bin"):
        raise ConfigError(f"data.format must be 'csv' or 'bin', got {fmt!r}")
    with _located("data"):
        Y = load_signals_csv(path)[0] if fmt == "csv" else load_signals_bin(path)
        if not np.isfinite(Y).all():
            obs, point = np.argwhere(~np.isfinite(Y))[0]
            raise ConfigError(
                f"{path}: observation {obs}, point {point} is {Y[obs, point]}; "
                "signals must be finite"
            )
    return Y


def _build_model(section: dict):
    """The statistic, the one vector it reads and that vector's length."""
    from .glm import check_statistic, design_vector

    with _located("model"):
        _check_keys(section, {"statistic", "groups", "covariate"}, {"statistic"})
        statistic = check_statistic(section["statistic"])
        key = "groups" if statistic == "t_two_sample_sq" else "covariate"
        _check_keys(section, {"statistic", key}, {"statistic", key})
        # numbers, or group labels that are strings: null or an object would
        # reach numpy as an object array
        kinds, ndim, what = ("biufU", 1, "a list of labels") if key == "groups" else (
            "biuf", 2, "a list of numbers or of lists of numbers")
        design = np.asarray(section[key])
        if not 1 <= design.ndim <= ndim or design.dtype.kind not in kinds:
            raise ConfigError(f"{key} must be {what}, got {section[key]!r}")
        return statistic, design, len(design_vector(statistic, design))


def _build_inference(section: dict, seed_flag, n_obs: int):
    """The permutations of ``n_obs`` observations, the seed they are drawn from and alpha."""
    from .permute import generate_permutations

    if seed_flag is not None:
        _seed(seed_flag, "--seed")
    with _located("inference"):
        _check_keys(
            section, {"permutations", "seed", "alpha", "scheme"}, {"permutations", "seed"}
        )
        seed = _seed(section["seed"], "seed")
        seed = seed if seed_flag is None else seed_flag
        alpha = section.get("alpha", 0.05)
        if not _is_number(alpha) or not 0 < alpha < 1:
            raise ConfigError(f"alpha must be a number in (0, 1), got {alpha!r}")
        n_permutations = _positive_int(section["permutations"], "permutations")
        # under the intercept-only null, the only one a config states, both
        # schemes permute the same data, so both take the one path
        schemes = ("freedman_lane", "raw_label_permutation")
        scheme = section.get("scheme", schemes[0])
        if scheme not in schemes:
            raise ConfigError(f"unknown scheme {scheme!r}; choose from {schemes}")
        return generate_permutations(n_permutations, seed, n_obs), seed, alpha


def _scipy_version() -> str | None:
    """``scipy.__version__``, read from ``scipy/version.py``: importing scipy
    itself would cost a run more than a small command's own work. None when
    scipy is not installed: no command needs it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    return runpy.run_path(
        os.path.join(spec.submodule_search_locations[0], "version.py")
    )["version"]


def _manifest(config: dict, seed: int, perms: np.ndarray, family, chunk: int,
              stages: Stages) -> str:
    import hashlib
    import json

    from .domain import memory_bound
    from .permute import RNG_ALGORITHM

    seconds = stages.seconds()
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
            "seed": seed,
            "permutations": len(perms),
            "rng_algorithm": RNG_ALGORITHM,
            "family_balls": family.n_balls,
            "family_shape": list(family.shape),
            "family_memberships": family.n_memberships,
            "permutation_chunk": chunk,
            # MiB, as peak_rss_mb
            "memory_bound_mb": round(
                memory_bound(family.domain, chunk, family.n_obs) / 2**20, 1
            ),
            "ballwise_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
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
            centers, radii, inner = balls.table(idx)
            # a ball's radius is mostly the next one's inner radius: the two
            # columns share their distinct values, formatted once
            texts = _float_text(np.concatenate([radii, inner]))
            columns += [centers, texts[:len(idx)], texts[len(idx):]]
        columns += [
            _float_text(result.observed_ball_stats[start:stop]),
            _float_text(result.p.ballwise[start:stop]),
        ]
        yield _rows(columns)


# --- subcommands -------------------------------------------------------------

def _icosphere(order: int, radius: float, off: bool = False):
    """``build_icosphere(order, radius)``, refused first if it and, with
    ``off``, its OFF text could pass the limit."""
    what = f"an order-{order} icosphere{' and its OFF text' if off else ''}"
    check_memory(what, icosphere_bytes(order), memory_limit(), error=ConfigError)
    return build_icosphere(order, radius)


def cmd_tessellate(args) -> int:
    m = _icosphere(args.order, args.radius, off=True)
    _atomic_write({args.out: off_text(m)})
    print(f"wrote icosphere order {args.order}: {m.n_vertices} vertices, "
          f"{len(m.triangles)} faces -> {args.out}")
    return EXIT_OK


def cmd_distances(args) -> int:
    m = _load_mesh(args.mesh, args.edge_lengths)
    _atomic_write({args.out: distance_cache_chunks(m)})
    print(f"wrote {m.n_vertices}x{m.n_vertices} distance cache -> {args.out}")
    return EXIT_OK


@contextlib.contextmanager
def _output_dir(path: str):
    """Make the directory ``path`` and its missing parents, a ``ConfigError``
    if it cannot be one; if the block raises, remove those made, if empty."""
    made = [os.path.abspath(path)]
    while not os.path.lexists(made[-1]):
        made.append(os.path.dirname(made[-1]))
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror or exc}") from None
    try:
        yield
    except BaseException:
        for d in made[:-1]:  # deepest first; the last one was there
            with contextlib.suppress(OSError):
                os.rmdir(d)
        raise


TEST_SECTIONS = {"domain", "data", "model", "inference", "output"}


def _load_test_config(path: str, out_dir_flag: str | None):
    """The config of ``test`` and ``adjust`` and their output directory:
    ``--out-dir``, else the config's ``output.dir``, else ``.``."""
    config = _load_json(path)
    with _located("config"):
        _check_keys(config, TEST_SECTIONS, {"domain", "data", "model", "inference"})
    output = config.get("output", {})
    with _located("output"):
        _check_keys(output, {"dir"}, set())
        out_dir = output.get("dir", ".")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"dir must be a non-empty string, got {out_dir!r}")
    return config, out_dir_flag or out_dir


def cmd_test(args) -> int:
    from .domain import enumerate_family
    from .glm import StatKernel
    from .permute import run_inference

    config, out_dir = _load_test_config(args.config, args.out_dir)
    with _output_dir(out_dir):
        stages = Stages()
        with stages("build"):
            domain = _build_domain(config["domain"])
            Y = _load_signals(config["data"])
            if Y.shape[1] != domain.size:
                raise ConfigError(
                    f"signal matrix has {Y.shape[1]} columns but the domain has "
                    f"{domain.size} grid points"
                )
            statistic, design, n_obs = _build_model(config["model"])
            if n_obs != Y.shape[0]:
                raise ConfigError(
                    f"model: the design has {n_obs} observations but the signal "
                    f"matrix has {Y.shape[0]} rows"
                )
            # refuses signals whose fields would overflow before any family work
            kernel = StatKernel(Y, statistic, design)
            perms, seed, alpha = _build_inference(config["inference"], args.seed, n_obs)
        with stages("enumerate"):
            family = enumerate_family(domain, n_obs)
        with stages("inference"):
            result = run_inference(kernel, family, perms)

        def manifest():  # formatted last, so its peak RSS covers the other writes
            yield _manifest(config, seed, perms, family, result.permutation_chunk, stages)

        with stages("write"):
            outputs = {
                "pointwise.csv": _pointwise_csv(domain, result, result.p),
                "balls.csv": _balls_csv(family, result),
                "manifest.json": manifest(),
            }
            _atomic_write({os.path.join(out_dir, k): v for k, v in outputs.items()})
    n_sig = int(np.sum(result.p.adjusted <= alpha))
    print(
        f"{domain.size} grid points, {family.n_balls} balls; "
        f"{n_sig} adjusted-significant at alpha={alpha} -> {out_dir}"
    )
    return EXIT_OK


def _p_ball_texts(path: str) -> Iterator[str | None]:
    """The ``p_ball`` field of each row of a balls file, None for a row too
    short to have one. A blank line is not a row, and of two ``p_ball``
    columns the last counts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if "p_ball" not in header:
            raise ConfigError(f"{path}: no p_ball column")
        col = {name: j for j, name in enumerate(header)}["p_ball"]
        for row in reader:
            if row:
                yield row[col] if col < len(row) else None


def _read_p_ball(path: str, n_balls: int) -> np.ndarray:
    """The ``p_ball`` column of a balls file of ``n_balls`` rows, as float64.

    The file is read a row at a time into the array, so memory is the array's
    8 bytes per ball. A file that fails a check is read again to find out
    which check: the row count first, then the numbers, then their range.
    """
    texts = _p_ball_texts(path)
    try:
        # a file of fewer rows raises ValueError; rows past n_balls are left
        p_ball = np.fromiter(map(float, texts), np.float64, count=n_balls)
        n_rows = n_balls + sum(1 for _ in texts)
    except (TypeError, ValueError):  # TypeError: a short row's None
        p_ball = None
        n_rows = sum(1 for _ in _p_ball_texts(path))
    if n_rows != n_balls:
        raise ConfigError(
            f"{path}: {n_rows} balls but the re-enumerated family has "
            f"{n_balls}; config/caps mismatch"
        )
    if p_ball is None:
        raise ConfigError(f"{path}: p_ball values must be numbers")
    # a p-value is finite and in (0, 1]; nan fails both comparisons
    bad = np.flatnonzero(~((p_ball > 0) & (p_ball <= 1)))
    if len(bad):
        row = int(bad[0])
        text = next(itertools.islice(_p_ball_texts(path), row, None))
        raise ConfigError(
            f"{path}: row {row + 1} (line {row + 2}): p_ball must be "
            f"in (0, 1], got {text!r}"
        )
    return p_ball


def cmd_adjust(args) -> int:
    from .domain import enumerate_family

    config, out_dir = _load_test_config(args.config, args.out_dir)
    caps = []
    with _located("--caps"):
        for tok in args.caps.split(","):
            try:
                cap = float(tok)  # also "inf"
            except ValueError:
                raise ConfigError(
                    f"radius_cap must be a number or 'inf', got {tok.strip()!r}"
                ) from None
            caps.append(_positive_cap(cap))
    if not os.path.exists(args.balls):
        raise ConfigError(f"ball p-value file not found: {args.balls}")
    stages = Stages()
    with _output_dir(out_dir):
        with stages("build"):
            domain = _build_domain(config["domain"])
        if len(caps) != len(domain.components):
            raise ConfigError(
                f"--caps has {len(caps)} entries but the domain has "
                f"{len(domain.components)} components"
            )
        with stages("enumerate"):
            family = enumerate_family(domain)
        with stages("adjust"):
            p_ball = _read_p_ball(args.balls, family.n_balls)
            adjusted = family.cover(family.to_slots(p_ball), caps)
        with stages("write"):
            _atomic_write({os.path.join(out_dir, "adjusted.csv"): _adjusted_csv(adjusted)})
    kept = math.prod(int((b.inner < c).sum()) for b, c in zip(family.component_balls, caps))
    print(
        f"re-adjusted with caps {caps}: {kept}/{family.n_balls} balls "
        f"kept -> {os.path.join(out_dir, 'adjusted.csv')}"
    )
    return EXIT_OK


# shorthand for a domain of one mesh: each scenario key's component key
MESH_SHORTHAND = {"mesh_path": "path", "icosphere_order": "order",
                  "icosphere_radius": "radius", "radius_cap": "radius_cap"}
SCENARIO_KEYS = {
    "id", "domain", "n_samples", "permutations", "replicates", "seed", "alpha",
    "signal_amplitude", "noise_bandwidth", "noise_sd", "truth", *MESH_SHORTHAND,
}


def _scenario_from_config(section: dict, idx: int):
    """A scenario's ``ScenarioConfig`` and ``domain`` section: its own, or the
    one of its shorthand keys, a mesh with ``mesh_path``, else an icosphere."""
    from .evalsim import ScenarioConfig

    _check_keys(section, SCENARIO_KEYS, {"n_samples", "permutations", "replicates", "seed"})
    given = [key for key in MESH_SHORTHAND if key in section]
    if "domain" in section and given:
        raise ConfigError(f"give a domain section or the key(s) {given}, not both")
    mesh = {"kind": "mesh" if "mesh_path" in section else "icosphere"}
    mesh.update((MESH_SHORTHAND[key], section[key]) for key in given)
    cfg = ScenarioConfig(
        n_samples=_positive_int(section["n_samples"], "n_samples"),
        n_permutations=_positive_int(section["permutations"], "permutations"),
        replicates=_positive_int(section["replicates"], "replicates"),
        seed=_seed(section["seed"], "seed"),
        scenario_id=str(section.get("id", idx)),
        # the keys the scenario leaves out take ScenarioConfig's defaults
        **{key: _finite_number(value, key) for key, value in section.items()
           if key in ("alpha", "signal_amplitude", "noise_bandwidth", "noise_sd")},
    )
    return cfg, section.get("domain", {"components": [mesh]})


TRUTH_KEYS = {  # type: (required keys, optional keys)
    "none": ({"type"}, set()),
    "cap": ({"type", "center", "radius"}, set()),
    "patches": ({"type", "centers", "radius"}, set()),
}


def _truth_mask(section: dict, mesh) -> np.ndarray:
    from .evalsim import multi_patch_mask

    truth_cfg = section.get("truth", {"type": "none"})
    kind = _check_kind_keys(truth_cfg, "type", TRUTH_KEYS, "truth type")
    if kind == "none":
        return np.zeros(mesh.n_vertices, dtype=bool)
    key = "center" if kind == "cap" else "centers"
    centers = [truth_cfg[key]] if kind == "cap" else truth_cfg[key]
    n = mesh.n_vertices
    if not isinstance(centers, list) or not centers or not all(
        _is_int(c) and 0 <= c < n for c in centers
    ):
        raise ConfigError(
            f"{key} must be vertex indices in [0, {n}), got {truth_cfg[key]!r}"
        )
    radius = truth_cfg["radius"]
    if not _is_number(radius) or not radius > 0:
        raise ConfigError(f"radius must be a positive number, got {radius!r}")
    return multi_patch_mask(mesh, centers, float(radius))


def _mesh_key(section: dict) -> str:
    """One key per mesh source: a component section less its cap."""
    return repr(sorted((k, v) for k, v in section.items() if k != "radius_cap"))


def _search_bounds(scenarios) -> dict[str, float]:
    """The bound to search each mesh to, by ``_mesh_key``: the largest cap
    or 3 noise bandwidths of the scenarios whose domain names it, so one
    search serves every cap's cut and every scenario's noise. A component
    that does not parse is left out: building its domain refuses it."""
    bounds: dict[str, float] = {}
    for cfg, domain_section in scenarios:
        components = domain_section.get("components") if isinstance(domain_section, dict) else ()
        for section in components if isinstance(components, list) else ():
            if not isinstance(section, dict):
                continue
            try:
                cap = _parse_cap(section.get("radius_cap", "inf"))
            except ValueError:
                continue
            key = _mesh_key(section)
            bounds[key] = max(bounds.get(key, 0.0), cap, 3 * cfg.noise_bandwidth)
    return bounds


def cmd_simulate(args) -> int:
    from .evalsim import _check_one_mesh, run_scenario

    config = _load_json(args.config)
    if not isinstance(config, list) or not config:
        raise ConfigError("simulate config must be a non-empty JSON list of scenarios")
    scenarios = []
    for idx, section in enumerate(config):
        with _located(f"scenario[{idx}]"):
            scenarios.append(_scenario_from_config(section, idx))
    bounds = _search_bounds(scenarios)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scenario", "sensitivity", "fwer", "fpr", "fdr", "replicates"])
    meshes: dict = {}

    def mesh_of(section, cap=None):
        # one mesh per source, searched or its cache read once, to its bound
        key = _mesh_key(section)
        if key not in meshes:
            m, rows = _component_mesh(section, bounds[key])
            meshes[key] = m, m.compute_distances(limit=bounds[key]) if rows is None else rows
        return meshes[key]

    stages = Stages()
    for idx, (section, (cfg, domain_section)) in enumerate(zip(config, scenarios)):
        with _located(f"scenario[{idx}]"):
            with stages("build"):
                domain = _build_domain(domain_section, mesh_of)
                _check_one_mesh(domain)
                mesh, distances = mesh_of(domain_section["components"][0])
            with _located("truth"):
                truth = _truth_mask(section, mesh)
            with stages("simulation"):
                rates = run_scenario(cfg, domain, truth, distances)
        errors = [rates.fwer, rates.false_positive_rate, rates.false_discovery_rate]
        sensitivity = "" if rates.sensitivity is None else f"{rates.sensitivity:.6f}"
        writer.writerow([cfg.scenario_id, sensitivity, *(f"{v:.6f}" for v in errors),
                         rates.n_replicates])
        print(f"scenario {cfg.scenario_id}: fwer={rates.fwer:.3f}")
    out = args.out or "simulation_results.csv"
    with stages("write"):
        _atomic_write({out: buf.getvalue()})
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
    """Run the command of ``argv``; its exit code is 0 on success, else 2
    when the input is at fault: a ``ValueError``, as every check on a config,
    file or data raises (``ConfigError``, ``FamilyTooLargeError`` and numpy's
    ``LinAlgError`` among them), or an ``OSError``, a given path that cannot
    be read or written. Any other error, such as a ``MemoryError`` (named by
    its stage), exits 1. The message goes to stderr, after the name of the
    input that a ``_located`` block gave it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # a MemoryError outside a stage, for one, has no message of its own
        message = str(exc) or type(exc).__name__
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"
        if getattr(exc, "where", None) is not None:
            message = f"{exc.where}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ValueError, OSError)) else EXIT_COMPUTE


def entry_point() -> None:
    """The process entry of ``python -m ballwise.cli`` and the ``ballwise``
    script: freeze the objects of every module loaded so far, so that no
    later garbage collection (the one at exit included) walks them, and exit
    with ``main``'s code. ``main`` itself changes no process-wide state."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
