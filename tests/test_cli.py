import contextlib
import csv
import errno
import json
import math
import os
import platform
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy

import oracles
from ballwise import cli, domain, evalsim, mesh, permute
from ballwise.cli import _balls_csv, main
from ballwise.domain import (
    ProductDomain,
    circle_component,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise.glm import (
    StatKernel,
    load_signals_csv,
    save_signals_bin,
    save_signals_csv,
)
from ballwise.mesh import build_icosphere, load_distance_cache, load_mesh
from ballwise.permute import InferenceResult, PValueFields, generate_permutations, run_inference
from oracles import weight_matrix


def write_test_setup(tmp_path, n_perm=19, seed=5, cap="inf", order=1):
    """Icosphere two-sample run config plus matching data."""
    mesh_path = tmp_path / "ico.off"
    assert main(["tessellate", "--order", str(order), "--out", str(mesh_path)]) == 0
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((8, load_mesh(mesh_path).n_vertices))
    data_path = tmp_path / "signals.csv"
    save_signals_csv(Y, data_path)
    config = {
        "domain": {
            "components": [
                {"kind": "mesh", "path": str(mesh_path), "radius_cap": cap}
            ]
        },
        "data": {"path": str(data_path), "format": "csv"},
        "model": {"statistic": "t_two_sample_sq", "groups": [0, 0, 0, 0, 1, 1, 1, 1]},
        "inference": {
            "permutations": n_perm,
            "seed": seed,
            "scheme": "raw_label_permutation",
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


class TestTessellate:
    def test_writes_off(self, tmp_path):
        out = tmp_path / "sphere.off"
        assert main(["tessellate", "--order", "1", "--out", str(out)]) == 0
        m = load_mesh(out)
        assert m.n_vertices == 12
        assert len(m.triangles) == 20

    def test_order_25_vertex_count(self, tmp_path):
        out = tmp_path / "s25.off"
        assert main(["tessellate", "--order", "25", "--out", str(out)]) == 0
        assert load_mesh(out).n_vertices == 6252

    def test_zero_order_usage_error(self, tmp_path):
        out = tmp_path / "bad.off"
        assert main(["tessellate", "--order", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_usage_error(self, tmp_path, capsys, radius):
        out = tmp_path / "bad.off"
        assert main(["tessellate", "--order", "2", "--radius", radius, "--out", str(out)]) == 2
        assert f"radius must be positive and finite, got {radius}" in capsys.readouterr().err
        assert not out.exists()


class TestDistances:
    def test_cache_roundtrip(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        main(["tessellate", "--order", "1", "--out", str(mesh_path)])
        cache = tmp_path / "d.bin"
        assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) == 0
        assert cache.read_bytes() == oracles.cache_bytes(
            oracles.dense_dijkstra(load_mesh(mesh_path))
        )
        loaded = load_distance_cache(cache)
        searched = load_mesh(mesh_path).compute_distances()
        assert oracles.row_arrays(loaded) == oracles.row_arrays(searched)

    def test_never_holds_the_matrix(self, tmp_path, monkeypatch):
        mesh_path = tmp_path / "m.off"
        assert main(["tessellate", "--order", "12", "--out", str(mesh_path)]) == 0
        n = 1442
        monkeypatch.setattr(mesh, "DISTANCE_BLOCK", 8 * n)  # eight rows a block
        cache = tmp_path / "d.bin"
        tracemalloc.start()
        try:
            assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache.stat().st_size == 8 + 8 * n * n
        assert peak < n * n * 8 / 2

    def test_missing_mesh(self, tmp_path):
        assert main(
            ["distances", "--mesh", str(tmp_path / "no.off"), "--out", str(tmp_path / "d.bin")]
        ) == 2

    def test_failed_run_leaves_the_target(self, tmp_path, monkeypatch):
        # the cache goes out a block at a time, through a temp file
        mesh_path = tmp_path / "m.off"
        assert main(["tessellate", "--order", "2", "--out", str(mesh_path)]) == 0
        monkeypatch.setattr(mesh, "DISTANCE_BLOCK", 8 * 42)  # eight rows a block
        search_blocks = mesh._Graph.search_blocks

        def fail_after_one(self, limit):
            blocks = search_blocks(self, limit)
            yield next(blocks)
            raise RuntimeError("search failed")

        monkeypatch.setattr(mesh._Graph, "search_blocks", fail_after_one)
        cache = tmp_path / "d.bin"
        cache.write_bytes(b"an earlier cache")
        assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) != 0
        assert cache.read_bytes() == b"an earlier cache"
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestTestCommand:
    def test_minimal_run(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "pointwise.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for row in rows:
            p, p_adj = float(row["p"]), float(row["p_adj"])
            assert 0 < p <= 1
            assert p_adj >= p - 1e-15
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["rng_algorithm"] == "PCG64"
        assert manifest["seed"] == 5
        assert manifest["family_balls"] > 12

    def test_scheme_names_take_one_path(self, tmp_path, capsys):
        # under the intercept-only null both names permute the same data, so
        # the outputs are the same bytes and the manifest records neither
        config = write_test_setup(tmp_path)
        outputs = []
        for scheme in ("freedman_lane", "raw_label_permutation"):
            edit_config(config, lambda c: c["inference"].update(scheme=scheme))
            out_dir = tmp_path / scheme
            assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
            outputs.append([(out_dir / f).read_bytes() for f in ("pointwise.csv", "balls.csv")])
            assert "scheme" not in json.loads((out_dir / "manifest.json").read_text())
        assert outputs[0] == outputs[1]
        edit_config(config, lambda c: c["inference"].update(scheme="wild_bootstrap"))
        err = run_test(tmp_path, config, capsys)
        assert err == (
            "error: inference: unknown scheme 'wild_bootstrap'; "
            "choose from ('freedman_lane', 'raw_label_permutation')\n"
        )

    def test_manifest_stages(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        stages = manifest["stages"]
        assert list(stages) == ["build", "enumerate", "inference", "write"]
        assert all(seconds >= 0 for seconds in stages.values())
        assert manifest["wall_time_s"] == pytest.approx(
            stages["build"] + stages["enumerate"] + stages["inference"], abs=0.002
        )

    @pytest.mark.parametrize(
        "command, name, stage",
        [
            ("test", "enumerate_family", "enumerate"),
            ("test", "run_inference", "inference"),
            ("test", "_pointwise_csv", "write"),
            ("adjust", "_build_domain", "build"),
            ("adjust", "cover", "adjust"),
            ("simulate", "run_scenario", "simulation"),
        ],
    )
    def test_out_of_memory_names_the_stage(
        self, tmp_path, capsys, monkeypatch, command, name, stage
    ):
        config = write_test_setup(tmp_path)
        if command == "test":
            argv = ["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]
        elif command == "adjust":
            assert main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0
            argv = ["adjust", "--config", str(config), "--balls",
                    str(tmp_path / "o" / "balls.csv"), "--caps", "inf",
                    "--out-dir", str(tmp_path / "a")]
        else:
            sweep = tmp_path / "sweep.json"
            sweep.write_text(json.dumps(
                [{"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                  "replicates": 1, "seed": 1}]
            ))
            argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
        capsys.readouterr()

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        # patched in the module the CLI looks the name up in when it runs
        module = {
            "enumerate_family": domain, "run_inference": permute,
            "cover": domain.AdjustmentFamily, "run_scenario": evalsim,
        }.get(name, cli)
        monkeypatch.setattr(module, name, out_of_memory)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: out of memory during {stage}\n"

    def test_disconnected_mesh_warns_once(self, tmp_path):
        # one warning and one search of the edge graph for one mesh, though
        # both the load and the distance search would report it
        a, b = build_icosphere(1), build_icosphere(1)
        two = mesh.TriangulatedManifold(
            np.concatenate([a.vertices, b.vertices + 5.0]),
            np.concatenate([a.triangles, b.triangles + a.n_vertices]),
        )
        config = write_test_setup(tmp_path)
        mesh.save_off(two, tmp_path / "ico.off")
        save_signals_csv(
            np.random.default_rng(0).standard_normal((8, two.n_vertices)),
            tmp_path / "signals.csv",
        )
        connected = mesh._Graph.connected
        searches = []

        def counted(graph):
            searches.append(graph)
            return connected(graph)

        with mock.patch.object(mesh._Graph, "connected", counted), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert [str(w.message) for w in caught] == [
            f"{tmp_path / 'ico.off'}: mesh is disconnected"
        ]
        assert len(searches) == 1

    def test_rerun_byte_identical(self, tmp_path):
        config = write_test_setup(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
        assert main(["test", "--config", str(config), "--out-dir", str(d2)]) == 0
        assert (d1 / "pointwise.csv").read_bytes() == (d2 / "pointwise.csv").read_bytes()
        assert (d1 / "balls.csv").read_bytes() == (d2 / "balls.csv").read_bytes()

    def test_capped_run_matches_full_distance_cache(self, tmp_path):
        # without a cache the mesh distances stop at the cap, and with one the
        # file is read a block of rows at a time; outputs must not change
        for order, cap in ((1, 1.5), (3, 0.35), (3, "exact"), (2, "inf")):
            work = tmp_path / f"{order}-{cap}"
            work.mkdir()
            cache = work / "d.bin"
            mesh_path = work / "ico.off"
            assert main(["tessellate", "--order", str(order), "--out", str(mesh_path)]) == 0
            assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) == 0
            if cap == "exact":  # a cap equal to a realised distance
                cap = float(np.unique(load_distance_cache(cache).row(0)[1])[4])
            config = write_test_setup(work, cap=cap, order=order)
            cfg = json.loads(config.read_text())
            cfg["domain"]["components"][0]["distance_cache"] = str(cache)
            cached_config = work / "cached.json"
            cached_config.write_text(json.dumps(cfg))
            d1, d2 = work / "bounded", work / "cached"
            assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
            assert main(["test", "--config", str(cached_config), "--out-dir", str(d2)]) == 0
            for name in ("pointwise.csv", "balls.csv"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_icosphere_component_matches_its_off_file(self, tmp_path):
        # the OFF text of tessellate reads back the same vertices and triangles
        # as the icosphere it wrote, so an icosphere component is that mesh
        config = write_test_setup(tmp_path, cap=0.6, order=3)
        d1, d2 = tmp_path / "off", tmp_path / "icosphere"
        assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
        icosphere = {"kind": "icosphere", "order": 3, "radius_cap": 0.6}
        edit_config(config, lambda c: c["domain"].update(components=[icosphere]))
        assert main(["test", "--config", str(config), "--out-dir", str(d2)]) == 0
        for name in ("pointwise.csv", "balls.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_manifest_environment_and_byte_identical_reruns(self, tmp_path):
        config = write_test_setup(tmp_path, cap=1.2)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
        assert main(["test", "--config", str(config), "--out-dir", str(d2)]) == 0
        manifest = json.loads((d1 / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] > 0
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["python"] == platform.python_version()
        for name in ("pointwise.csv", "balls.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_data_file(self, tmp_path):
        config = write_test_setup(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["data"]["path"] = str(tmp_path / "gone.csv")
        config.write_text(json.dumps(cfg))
        assert main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        config = write_test_setup(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["inference"]["bootstrap"] = True
        config.write_text(json.dumps(cfg))
        assert main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    def test_seed_flag_overrides(self, tmp_path):
        config = write_test_setup(tmp_path, seed=5)
        out_dir = tmp_path / "o"
        assert main(
            ["test", "--config", str(config), "--seed", "99", "--out-dir", str(out_dir)]
        ) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_nan_cap_rejected(self, tmp_path):
        config = write_test_setup(tmp_path, cap="nan")
        out_dir = tmp_path / "o"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert not (out_dir / "pointwise.csv").exists()

    def test_manifest_family_size(self, tmp_path):
        config = write_test_setup(tmp_path, cap=1.2)
        cfg = json.loads(config.read_text())
        cfg["domain"]["components"].append(
            {"kind": "circle", "points": 3, "circumference": 3.0}
        )
        save_signals_csv(np.random.default_rng(1).standard_normal((8, 36)), cfg["data"]["path"])
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        fam = enumerate_family(
            ProductDomain(
                [
                    mesh_component(load_mesh(tmp_path / "ico.off"), radius_cap=1.2),
                    circle_component(3, circumference=3.0),
                ]
            )
        )
        assert manifest["family_shape"] == list(fam.shape) and len(fam.shape) == 2
        assert manifest["family_balls"] == fam.n_balls
        assert manifest["family_memberships"] == weight_matrix(fam).nnz
        assert manifest["permutation_chunk"] == fam.chunk_size() == 32
        bound = domain.memory_bound(fam.domain, domain.CHUNK_PERMUTATIONS)
        assert manifest["memory_bound_mb"] == round(bound / 2**20, 1)

    def test_order8_full_cap_family(self, tmp_path):
        # 100 M support memberships: refused while the family was one sparse
        # matrix with a membership limit
        config = write_test_setup(tmp_path, n_perm=9, order=8)
        out_dir = tmp_path / "o"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["family_shape"] == [314_481]
        assert manifest["family_memberships"] == 100_222_114
        with open(out_dir / "balls.csv", newline="") as fh:
            assert sum(1 for _ in fh) == 314_481 + 1

    @pytest.mark.parametrize("existing", [".", "kept"])
    def test_refused_run_removes_the_directories_it_made(self, tmp_path, existing):
        config = write_test_setup(tmp_path, cap="nan")
        (tmp_path / existing).mkdir(exist_ok=True)
        out_dir = tmp_path / existing / "new" / "o"
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert not (tmp_path / existing / "new").exists()
        assert (tmp_path / existing).is_dir()

    @pytest.mark.parametrize("command", ["test", "adjust"])
    def test_output_path_that_is_a_file(self, tmp_path, capsys, monkeypatch, command):
        config = write_test_setup(tmp_path)
        balls = tmp_path / "b.csv"
        balls.touch()
        built = []
        monkeypatch.setattr(cli, "_build_domain", built.append)
        out = tmp_path / "o"
        out.write_text("kept")
        for out_dir in (out, out / "sub"):
            argv = [command, "--config", str(config), "--out-dir", str(out_dir)]
            if command == "adjust":
                argv += ["--balls", str(balls), "--caps", "inf"]
            assert main(argv) == 2
            assert f"error: output directory {out_dir}: " in capsys.readouterr().err
        assert built == [] and out.read_text() == "kept"

    def test_column_mismatch(self, tmp_path):
        config = write_test_setup(tmp_path)
        cfg = json.loads(config.read_text())
        bad = tmp_path / "bad.csv"
        save_signals_csv(np.zeros((8, 5)), bad)
        cfg["data"]["path"] = str(bad)
        config.write_text(json.dumps(cfg))
        assert main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2


def run_test(tmp_path, config, capsys, expected_exit=2):
    """Run ``test`` on ``config``; return its stderr."""
    out_dir = tmp_path / "o"
    assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == expected_exit
    assert not (out_dir / "pointwise.csv").exists()
    return capsys.readouterr().err


def edit_config(config, edit):
    cfg = json.loads(config.read_text())
    edit(cfg)
    config.write_text(json.dumps(cfg))
    return config


class TestMalformedInputs:
    """Input files and config values that cannot be used exit 2 with a message."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ("OFF\n3 1 0\n0 0 0\n1 0\n", "malformed OFF"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", "malformed OFF"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", "repeated vertices"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "invalid vertex index"),
        ],
    )
    def test_malformed_off(self, tmp_path, capsys, text, message):
        config = write_test_setup(tmp_path)
        (tmp_path / "ico.off").write_text(text)
        assert message in run_test(tmp_path, config, capsys)
        out = tmp_path / "d.bin"
        assert main(["distances", "--mesh", str(tmp_path / "ico.off"), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cut", [3, 8, 8 + 8 * 143, -1])
    @pytest.mark.parametrize("cap", [1.5, "inf"])
    def test_wrongly_sized_distance_cache(self, tmp_path, capsys, cut, cap):
        config = write_test_setup(tmp_path, cap=cap)
        cache = tmp_path / "d.bin"
        assert main(["distances", "--mesh", str(tmp_path / "ico.off"), "--out", str(cache)]) == 0
        raw = cache.read_bytes()
        cache.write_bytes(raw + bytes(8) if cut == -1 else raw[:cut])
        edit_config(
            config, lambda c: c["domain"]["components"][0].update(distance_cache=str(cache))
        )
        err = run_test(tmp_path, config, capsys)
        assert "truncated" in err or "expected 144 entries" in err

    @pytest.mark.parametrize("value, message", [
        ("nope.bin", "distance_cache file not found: nope.bin"),
        (5, "distance_cache must be a file path, got 5"),
        ("", "distance_cache must be a file path, got ''"),
        (None, "distance_cache must be a file path, got None"),
    ], ids=["missing-file", "int", "empty", "null"])
    def test_unusable_distance_cache(self, tmp_path, capsys, monkeypatch, value, message):
        # such a cache used to be skipped (every distance recomputed, exit 0),
        # and os.path.exists took an integer for an open file descriptor
        monkeypatch.chdir(tmp_path)
        config = edit_config(
            write_test_setup(tmp_path),
            lambda c: c["domain"]["components"][0].update(distance_cache=value),
        )
        assert f"error: domain.components[0]: {message}\n" == run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize("value, message", [
        ("nope.csv", "edge_lengths file not found: nope.csv"),
        (5, "edge_lengths must be a file path, got 5"),
        (0, "edge_lengths must be a file path, got 0"),
        ("", "edge_lengths must be a file path, got ''"),
        (False, "edge_lengths must be a file path, got False"),
        (None, "edge_lengths must be a file path, got None"),
    ], ids=["missing-file", "int", "zero", "empty", "false", "null"])
    def test_unusable_edge_lengths(self, tmp_path, capsys, monkeypatch, value, message):
        # 0, "" and false used to be skipped (the OFF lengths used, exit 0),
        # and os.path.exists took a non-zero integer for an open file descriptor
        monkeypatch.chdir(tmp_path)
        config = edit_config(
            write_test_setup(tmp_path),
            lambda c: c["domain"]["components"][0].update(edge_lengths=value),
        )
        assert f"error: domain.components[0]: {message}\n" == run_test(tmp_path, config, capsys)

    def test_truncated_signal_bin(self, tmp_path, capsys):
        config = write_test_setup(tmp_path)
        signals = tmp_path / "signals.bin"
        save_signals_bin(np.zeros((8, 12)), signals)
        signals.write_bytes(signals.read_bytes()[:-5])
        edit_config(config, lambda c: c.update(data={"path": str(signals), "format": "bin"}))
        assert "expected 96 entries" in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal(self, tmp_path, capsys, fmt, value):
        config = write_test_setup(tmp_path)
        Y = np.random.default_rng(1).standard_normal((8, 12))
        Y[5, 7] = value
        signals = tmp_path / f"bad.{fmt}"
        (save_signals_csv if fmt == "csv" else save_signals_bin)(Y, signals)
        edit_config(config, lambda c: c.update(data={"path": str(signals), "format": fmt}))
        err = run_test(tmp_path, config, capsys)
        assert err.startswith(f"error: data: {signals}: observation 5, point 7 is")
        assert "signals must be finite" in err

    def test_non_numeric_signal_csv(self, tmp_path, capsys):
        config = write_test_setup(tmp_path)
        path = json.loads(config.read_text())["data"]["path"]
        with open(path, "a") as fh:
            fh.write(",".join(["abc"] * 12) + "\n")
        assert "could not convert" in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize("points", [0, -3, "abc"])
    def test_bad_circle_points(self, tmp_path, capsys, points):
        config = write_test_setup(tmp_path)
        edit_config(
            config,
            lambda c: c["domain"]["components"].append({"kind": "circle", "points": points}),
        )
        assert "domain.components[1]" in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize(
        "model,message",
        [
            ({"statistic": "t_two_sample_sq", "groups": [0, 0, 0, 1, 1, 1]}, "6 observations"),
            ({"statistic": "t_two_sample_sq", "groups": [0] * 5 + [1] * 5}, "10 observations"),
            ({"statistic": "t_trend_cutoff", "covariate": list(range(6))}, "6 observations"),
            ({"statistic": "t_two_sample_sq", "groups": [0] + [1] * 7}, "at least two"),
            ({"statistic": "t_two_sample_sq", "groups": [0, 1, 2, 0, 1, 2, 0, 1]}, "two groups"),
            # designs the statistic cannot use
            ({"statistic": "t_trend_cutoff", "covariate": [2.5] * 8}, "covariate is constant"),
            ({"statistic": "slope_sq", "covariate": [1.0] * 8}, "covariate is constant"),
            (
                {"statistic": "slope_sq", "covariate": [[i, i * i] for i in range(8)]},
                "exactly one scalar covariate",
            ),
            (
                {"statistic": "t_trend_cutoff", "covariate": [[i, -i] for i in range(8)]},
                "exactly one scalar covariate",
            ),
            # values numpy would take as an object array
            ({"statistic": "slope_sq", "covariate": {"a": 1}},
             "model: covariate must be a list of numbers or of lists of numbers, got {'a': 1}"),
            ({"statistic": "t_two_sample_sq", "groups": [[0]] * 4 + [[1]] * 4},
             "model: groups must be a list of labels, got [[0], [0], [0], [0], [1]"),
            ({"statistic": "t_two_sample_sq", "groups": [None] * 8},
             "model: groups must be a list of labels, got [None, "),
        ],
    )
    def test_design_does_not_fit_the_signals(self, tmp_path, capsys, model, message):
        config = edit_config(write_test_setup(tmp_path), lambda c: c.update(model=model))
        assert message in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c["inference"].update(seed="abc"),
             "inference: seed must be a non-negative integer, got 'abc'"),
            (lambda c: c["inference"].update(seed=None), "seed must be a non-negative"),
            (lambda c: c["inference"].update(seed=-1), "got -1"),
            (lambda c: c["inference"].update(permutations=None),
             "inference: permutations must be a positive integer, got None"),
            (lambda c: c["inference"].update(permutations=2.7), "got 2.7"),
            (lambda c: c["inference"].update(alpha="abc"),
             "inference: alpha must be a number in (0, 1), got 'abc'"),
            (lambda c: c["domain"]["components"].append({"kind": "circle", "points": 2.7}),
             "domain.components[1]: points must be a positive integer, got 2.7"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 1], "points": 2.7}),
             "domain.components[1]: points must be a positive integer, got 2.7"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": True}),
             "domain.components[1]: circumference must be a finite number, got True"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": "1"}),
             "domain.components[1]: circumference must be a finite number, got '1'"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": math.inf}),
             "domain.components[1]: circumference must be a finite number, got inf"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, "1"], "points": 3}),
             "domain.components[1]: bounds must be a list of two finite numbers, "
             "got [0, '1']"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [True, 2], "points": 3}),
             "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 10**400], "points": 3}),
             "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 1, 2], "points": 3}),
             "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": 5, "points": 3}),
             "domain.components[1]: bounds must be a list of two finite numbers, got 5"),
            (lambda c: c.update(output={"dir": "x", "format": "csv"}),
             "output: unknown key(s) ['format']"),
            (lambda c: c.update(output=5), "output: must be a JSON object, got 5"),
        ],
        ids=["seed-abc", "seed-null", "seed-negative", "permutations-null",
             "permutations-float", "alpha-abc", "circle-points-float",
             "interval-points-float", "circumference-bool", "circumference-string",
             "circumference-inf", "bounds-string", "bounds-bool", "bounds-huge-int", "bounds-three",
             "bounds-not-a-list", "output-unknown-key", "output-not-an-object"],
    )
    def test_malformed_numbers(self, tmp_path, capsys, edit, message):
        config = edit_config(write_test_setup(tmp_path), edit)
        assert message in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize("value", [5, "", None, ["o"]])
    def test_bad_output_dir(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)  # no --out-dir: the config's dir is used
        config = edit_config(write_test_setup(tmp_path), lambda c: c.update(output={"dir": value}))
        assert main(["test", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"output: dir must be a non-empty string, got {value!r}" in err
        assert not (tmp_path / "pointwise.csv").exists()

    def test_trend_needs_three_observations(self, tmp_path, capsys):
        config = write_test_setup(tmp_path)
        path = json.loads(config.read_text())["data"]["path"]
        Y, _ = load_signals_csv(path)
        save_signals_csv(Y[:2], path)
        model = {"statistic": "t_trend_cutoff", "covariate": [0.0, 1.0]}
        edit_config(config, lambda c: c.update(model=model))
        assert "at least 3 observations" in run_test(tmp_path, config, capsys)


def run_argv(tmp_path, edit=None):
    """``test`` on ``write_test_setup``'s config, after ``edit`` if given."""
    config = write_test_setup(tmp_path)
    if edit is not None:
        edit_config(config, edit)
    return ["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]


def non_finite_vertex(tmp_path, value):
    """``write_test_setup``'s mesh with ``value`` as vertex 1's x coordinate."""
    path = tmp_path / "ico.off"
    lines = path.read_text().split("\n")
    lines[3] = f"{value} 0 0"  # after "OFF", the counts and vertex 0
    path.write_text("\n".join(lines))
    return path


def empty_components(tmp_path, monkeypatch):
    argv = run_argv(tmp_path, lambda c: c["domain"].update(components=[]))
    return argv, "domain: components must be a non-empty list, got []"


def object_components(tmp_path, monkeypatch):
    # an object used to be iterated by its keys
    argv = run_argv(tmp_path, lambda c: c["domain"].update(components={"a": 1}))
    return argv, "domain: components must be a non-empty list, got {'a': 1}"


def zero_variance(tmp_path, monkeypatch):
    argv = run_argv(tmp_path)
    Y = np.random.default_rng(0).standard_normal((8, 12))
    Y[:, 3] = [0.0] * 4 + [1.0] * 4  # constant within each group
    save_signals_csv(Y, tmp_path / "signals.csv")
    return argv, "zero residual variance with nonzero effect at grid point(s) [3]"


def huge_signals(tmp_path, monkeypatch):
    # finite, but their squares are not: every field would be nan, below no
    # tie floor, and every p-value 1 / (B + 1)
    signals = tmp_path / "signals.bin"
    argv = run_argv(tmp_path, lambda c: c.update(data={"path": str(signals), "format": "bin"}))
    save_signals_bin(1e160 * np.random.default_rng(0).standard_normal((8, 12)), signals)
    return argv, ("t_two_sample_sq would overflow on these signals and this design; "
                  "rescale the signals or the covariate")


def huge_noise_sd(tmp_path, monkeypatch):
    # the noise at sd 1e200 meets the same refusal
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"icosphere_order": 2, "n_samples": 8, "permutations": 9,
                                  "replicates": 1, "seed": 1, "noise_sd": 1e200}]))
    argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
    return argv, ("scenario[0]: t_two_sample_sq would overflow on these signals and this "
                  "design; rescale the signals or the covariate")


def nan_vertex_distances(tmp_path, monkeypatch):
    write_test_setup(tmp_path)
    path = non_finite_vertex(tmp_path, "nan")
    argv = ["distances", "--mesh", str(path), "--out", str(tmp_path / "d.bin")]
    return argv, f"{path}: vertex 1 is not finite: [nan, 0.0, 0.0]"


def nan_vertex_test(tmp_path, monkeypatch):
    argv = run_argv(tmp_path)
    path = non_finite_vertex(tmp_path, "nan")
    return argv, f"domain.components[0]: {path}: vertex 1 is not finite: [nan, 0.0, 0.0]"


def overflowing_vertex_test(tmp_path, monkeypatch):
    argv = run_argv(tmp_path)
    path = non_finite_vertex(tmp_path, "1e400")
    return argv, f"domain.components[0]: {path}: vertex 1 is not finite: [inf, 0.0, 0.0]"


def nan_edge_length(tmp_path, monkeypatch):
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("0,1,nan\n")
    argv = run_argv(
        tmp_path, lambda c: c["domain"]["components"][0].update(edge_lengths=str(lengths))
    )
    return argv, (
        f"domain.components[0]: {lengths}: override length nan (negative or not "
        "finite) for edge (0, 1)"
    )


def zero_area_mesh(tmp_path, monkeypatch):
    argv = run_argv(tmp_path)
    (tmp_path / "ico.off").write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    return argv, (
        "domain.components[0]: point 0 has weight 0.0; "
        "component weights must be positive and finite"
    )


def isolated_vertex(tmp_path, monkeypatch):
    # vertex 42 is in no triangle, so it weighs nothing
    argv = run_argv(tmp_path)
    path = tmp_path / "ico.off"
    m = build_icosphere(2)
    m.vertices = np.vstack([m.vertices, [2.0, 0.0, 0.0]])
    path.write_text(mesh.off_text(m))
    return argv, (
        "domain.components[0]: point 42 has weight 0.0; "
        "component weights must be positive and finite"
    )


def directory_as_mesh(tmp_path, monkeypatch):
    (tmp_path / "dir").mkdir()
    argv = ["distances", "--mesh", str(tmp_path / "dir"), "--out", str(tmp_path / "d.bin")]
    return argv, f"{tmp_path / 'dir'}: {os.strerror(errno.EISDIR)}"


def directory_as_data(tmp_path, monkeypatch):
    (tmp_path / "dir").mkdir()
    argv = run_argv(tmp_path, lambda c: c["data"].update(path=str(tmp_path / "dir")))
    return argv, f"data: {tmp_path / 'dir'}: {os.strerror(errno.EISDIR)}"


def data_path_not_a_string(tmp_path, monkeypatch):
    # 0 would be taken as a file descriptor: standard input
    argv = run_argv(tmp_path, lambda c: c["data"].update(path=0))
    return argv, "data: path must be a file path, got 0"


def output_among_directories(tmp_path, monkeypatch):
    # balls.csv is a directory: pointwise.csv, renamed first, must not appear
    argv = run_argv(tmp_path)
    (tmp_path / "o" / "balls.csv").mkdir(parents=True)
    return argv, f"output {tmp_path / 'o' / 'balls.csv'}: {os.strerror(errno.EISDIR)}"


def out_in_missing_directory(tmp_path, monkeypatch):
    out = tmp_path / "missing" / "m.off"
    argv = ["tessellate", "--order", "2", "--out", str(out)]
    return argv, f"output {out}: {os.strerror(errno.ENOENT)}"


def out_names_a_directory(tmp_path, monkeypatch):
    (tmp_path / "dir").mkdir()
    argv = ["tessellate", "--order", "2", "--out", str(tmp_path / "dir")]
    return argv, f"output {tmp_path / 'dir'}: {os.strerror(errno.EISDIR)}"


def icosphere_over_the_limit(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("built an icosphere over the limit")

    monkeypatch.setattr(cli, "memory_limit", lambda: 5_000_000)
    monkeypatch.setattr(cli, "build_icosphere", refuse)
    assert mesh.icosphere_bytes(40) == 9_601_200
    argv = ["tessellate", "--order", "40", "--out", str(tmp_path / "m.off")]
    return argv, (
        "an order-40 icosphere and its OFF text would need up to 9.6 MB, over the "
        "limit of 5.0 MB (half of physical memory or of the address-space limit)"
    )


def icosphere_component_over_the_limit(tmp_path, monkeypatch):
    # a component writes no OFF text, and its message says none
    argv, message = icosphere_over_the_limit(tmp_path, monkeypatch)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"icosphere_order": 40, "n_samples": 8,
                                  "permutations": 9, "replicates": 1, "seed": 1}]))
    argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
    return argv, "scenario[0].domain.components[0]: " + message.replace(" and its OFF text", "")


def missing_scenario_mesh(tmp_path, monkeypatch):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"mesh_path": str(tmp_path / "nope.off"), "n_samples": 8,
                                  "permutations": 9, "replicates": 1, "seed": 1}]))
    argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
    return argv, f"scenario[0].domain.components[0]: mesh file not found: {tmp_path / 'nope.off'}"


def refuse_past_the_build(monkeypatch):
    """Fail if the family is enumerated or the noise sampler is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the refusal")

    for module, name in ((domain, "enumerate_family"), (evalsim, "enumerate_family"),
                         (evalsim, "GaussianFieldSampler")):
        monkeypatch.setattr(module, name, refuse)


def permutations_past_the_counts(tmp_path, monkeypatch):
    # B + 1 must fit the int32 count grid; nothing is drawn
    refuse_past_the_build(monkeypatch)
    argv = run_argv(tmp_path, lambda c: c["inference"].update(permutations=2**31 - 1))
    return argv, ("inference: permutations must be at most 2147483646, the most that the "
                  "int32 counts hold, got 2147483647")


def permutations_over_the_limit(tmp_path, monkeypatch):
    refuse_past_the_build(monkeypatch)
    monkeypatch.setattr(permute, "memory_limit", lambda: 1_000_000)
    argv = run_argv(tmp_path, lambda c: c["inference"].update(permutations=100_000))
    return argv, ("inference: permutations = 100000 of 8 observations would need up to "
                  "6.4 MB, over the limit of 1.0 MB (half of physical memory or of the "
                  "address-space limit)")


def distance_rows_over_the_limit(component, message, limit=1_000_000):
    """A ``test`` run whose one component is ``component``, with the mesh
    layer's limit at ``limit`` bytes: its distance rows are refused while
    gathered."""
    def make(tmp_path, monkeypatch):
        refuse_past_the_build(monkeypatch)
        monkeypatch.setattr(mesh, "memory_limit", lambda: limit)
        argv = run_argv(tmp_path, lambda c: c["domain"].update(components=[component]))
        return argv, (f"domain.components[0]: distance rows of {message}, over the limit "
                      f"of {limit / 1e6:.1f} MB (half of physical memory or of the "
                      "address-space limit); use a smaller radius_cap or a coarser grid")

    make.__name__ = f"{component['kind']}_rows_over_the_limit"
    if limit != 1_000_000:
        make.__name__ += f"_of_{limit}"
    return make


def scenario_over_the_limit(key, value, message):
    """A one-scenario ``simulate`` run on an order-1 icosphere with ``key``
    set to ``value``, with the scenario's limits at 1 MB."""
    def make(tmp_path, monkeypatch):
        refuse_past_the_build(monkeypatch)
        monkeypatch.setattr(evalsim, "memory_limit", lambda: 1_000_000)
        monkeypatch.setattr(permute, "memory_limit", lambda: 1_000_000)
        scenario = {"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                    "replicates": 1, "seed": 1, key: value}
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([scenario]))
        argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
        return argv, (f"scenario[0]: {key} = {value} {message}, over the limit of 1.0 MB "
                      "(half of physical memory or of the address-space limit)")

    make.__name__ = f"scenario_{key}_over_the_limit"
    return make


@pytest.mark.parametrize("make", [
    empty_components, object_components, zero_variance, huge_signals, huge_noise_sd,
    nan_vertex_distances,
    nan_vertex_test, overflowing_vertex_test, nan_edge_length, zero_area_mesh,
    # the mesh is disconnected, and says so when it is loaded
    pytest.param(isolated_vertex, marks=pytest.mark.filterwarnings("ignore:.*disconnected")),
    directory_as_mesh, directory_as_data, data_path_not_a_string, output_among_directories,
    out_in_missing_directory, out_names_a_directory, icosphere_over_the_limit,
    icosphere_component_over_the_limit, missing_scenario_mesh,
    permutations_past_the_counts, permutations_over_the_limit,
    # 12 bytes a slot, and 64 a pair of the search's block or 40 of a dense
    # one: one block of 362 full rows of 362, and one of 1000 rows of 1000
    distance_rows_over_the_limit({"kind": "icosphere", "order": 6},
                                 "362 points would need up to 10.0 MB"),
    distance_rows_over_the_limit({"kind": "circle", "points": 1000},
                                 "1000 points would need up to 52.0 MB"),
    # the rows alone (1.6 MB) fit 2 MB; the search's work beside them does not
    distance_rows_over_the_limit({"kind": "icosphere", "order": 6},
                                 "362 points would need up to 10.0 MB", limit=2_000_000),
    # 17 bytes a point per sample, 1 a point and 400 per replicate, 8 per
    # permuted observation
    scenario_over_the_limit("n_samples", 10_000, "on 12 points would need up to 2.0 MB"),
    scenario_over_the_limit("replicates", 10_000, "on 12 points would need up to 4.1 MB"),
    scenario_over_the_limit("permutations", 100_000,
                            "of 8 observations would need up to 6.4 MB"),
], ids=lambda make: make.__name__.replace("_", "-"))
def test_degenerate_input(tmp_path, capsys, monkeypatch, make):
    # each exits 2 naming the input, and writes nothing, not even a temp file;
    # standard input is /dev/null, so a run that reads it ends at once
    argv, message = make(tmp_path, monkeypatch)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with stdin_from_devnull():
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_overflowing_signals_refused_before_the_family(tmp_path, capsys, monkeypatch):
    # the stat kernel is built with the signals, so its refusal comes before
    # any family work
    enumerated = []
    monkeypatch.setattr(domain, "enumerate_family", enumerated.append)
    argv, message = huge_signals(tmp_path, monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert enumerated == []


@pytest.mark.filterwarnings("ignore:.*disconnected")
@pytest.mark.parametrize("command", ["test", "simulate"])
def test_zero_weight_refused_before_distances(tmp_path, capsys, monkeypatch, command):
    # the weights are checked before any distance is computed or read
    def refuse(*args, **kwargs):
        raise AssertionError("distance work before the weight check")

    argv, message = isolated_vertex(tmp_path, monkeypatch)
    if command == "test":
        cache = tmp_path / "d.bin"
        cache.write_bytes(b"")
        edit_config(tmp_path / "config.json",
                    lambda c: c["domain"]["components"][0].update(distance_cache=str(cache)))
    else:
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps([{"mesh_path": str(tmp_path / "ico.off"), "n_samples": 8,
                                      "permutations": 9, "replicates": 1, "seed": 1}]))
        argv = ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]
        message = f"scenario[0].{message}"
    monkeypatch.setattr(mesh.TriangulatedManifold, "compute_distances", refuse)
    monkeypatch.setattr(cli, "load_distance_cache", refuse)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@contextlib.contextmanager
def stdin_from_devnull():
    """File descriptor 0 reads /dev/null inside the block."""
    saved = os.dup(0)
    try:
        with open(os.devnull, "rb") as null:
            os.dup2(null.fileno(), 0)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


def scenario_argv(tmp_path, truth):
    """``simulate`` on one order-1 scenario with ``truth``."""
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                                  "replicates": 1, "seed": 1, "truth": truth}]))
    return ["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")]


def with_component(component):
    """An edit that adds ``component`` to the domain, as component 1."""
    return lambda c: c["domain"]["components"].append(component)


@pytest.mark.parametrize("argv, message", [
    (lambda t: run_argv(t, with_component({"kind": "circle", "points": 3, "path": "m.off"})),
     "domain.components[1]: unknown key(s) ['path']"),
    (lambda t: run_argv(t, with_component(
        {"kind": "interval", "bounds": [0, 1], "points": 3, "circumference": 2.0})),
     "domain.components[1]: unknown key(s) ['circumference']"),
    (lambda t: run_argv(t, lambda c: c["domain"]["components"][0].update(points=3)),
     "domain.components[0]: unknown key(s) ['points']"),
    (lambda t: run_argv(t, lambda c: c["domain"]["components"][0].pop("path")),
     "domain.components[0]: missing key(s) ['path']"),
    (lambda t: run_argv(t, with_component({"kind": "interval", "points": 3})),
     "domain.components[1]: missing key(s) ['bounds']"),
    (lambda t: run_argv(t, lambda c: c["model"].update(covariate=list(range(8)))),
     "model: unknown key(s) ['covariate']"),
    (lambda t: run_argv(t, lambda c: c.update(model={"statistic": "slope_sq"})),
     "model: missing key(s) ['covariate']"),
    (lambda t: scenario_argv(t, {"type": "cap", "center": 0, "centers": [1], "radius": 0.5}),
     "scenario[0].truth: unknown key(s) ['centers']"),
    (lambda t: scenario_argv(t, {"type": "none", "radius": 0.5}),
     "scenario[0].truth: unknown key(s) ['radius']"),
], ids=["circle-path", "interval-circumference", "mesh-points", "mesh-without-path",
        "interval-without-bounds", "two-sample-covariate", "slope-without-covariate",
        "cap-centers", "none-radius"])
def test_keys_are_those_of_the_kind(tmp_path, capsys, argv, message):
    # a key that only another kind reads would be ignored: each exits 2
    # naming where it is and the key
    assert main(argv(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def limit_memory(monkeypatch, fraction, n_obs=0):
    """Set the family's memory limit to ``fraction`` of the bound, at a chunk of
    one permutation and with ``n_obs`` signals (``write_test_setup`` has 8),
    of the order-1 full-cap domain of ``write_test_setup``, and return the
    bound."""
    bound = domain.memory_bound(ProductDomain([mesh_component(build_icosphere(1))]), 1, n_obs)
    monkeypatch.setattr(domain, "memory_limit", lambda: int(bound * fraction))
    return bound


class TestFamilyGuard:
    """The family's memory limit, worked out from the machine: over-limit
    families exit 2 before anything is enumerated, and the retired size keys
    exit 2. A component's radius_cap: a JSON number or "inf"."""

    @staticmethod
    def run_with_domain_key(tmp_path, key, value, command="test", component=None):
        """Exit code of a run whose ``domain`` (or ``domain.components``
        entry ``component``) has ``key`` set to ``value``."""
        config = write_test_setup(tmp_path)
        cfg = json.loads(config.read_text())
        section = cfg["domain"] if component is None else cfg["domain"]["components"][component]
        section[key] = value
        config.write_text(json.dumps(cfg))
        if command == "test":
            return main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        # adjust checks that the balls file exists before it builds the domain
        balls = tmp_path / "b.csv"
        balls.touch()
        return main(
            ["adjust", "--config", str(config), "--balls", str(balls),
             "--caps", "inf", "--out-dir", str(tmp_path / "a")]
        )

    @pytest.mark.parametrize("value", ["abc", -5, 0, True, 2.5, None, 10_000_000])
    def test_bad_value(self, tmp_path, value, capsys):
        # max_balls is retired: no value of it is accepted
        assert self.run_with_domain_key(tmp_path, "max_balls", value) == 2
        assert capsys.readouterr().err == (
            "error: domain: max_balls is no longer supported; the family's memory "
            "limit is now worked out from the machine's memory\n"
        )

    @pytest.mark.parametrize("command", ["test", "adjust"])
    def test_over_limit_family(self, tmp_path, command, capsys, monkeypatch):
        # adjust reads no signals
        bound = limit_memory(monkeypatch, 0.5, 8 if command == "test" else 0)
        assert self.run_with_domain_key(tmp_path, "radius_cap", "inf", command, 0) == 2
        err = capsys.readouterr().err
        assert f"would need up to {bound / 1e6:,.1f} MB" in err
        assert f"over the limit of {int(bound * 0.5) / 1e6:,.1f} MB" in err

    def test_at_limit_runs(self, tmp_path, monkeypatch):
        bound = limit_memory(monkeypatch, 1.0, 8)
        assert self.run_with_domain_key(tmp_path, "radius_cap", "inf", component=0) == 0
        # in chunks of one permutation, which the manifest records
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["permutation_chunk"] == 1
        assert manifest["memory_bound_mb"] == round(bound / 2**20, 1)

    def test_signals_over_the_limit(self, tmp_path, capsys, monkeypatch):
        # the family fits the limit alone; its 8 signals of 12 points and
        # their centred copy, 1536 bytes, push it over
        bound = limit_memory(monkeypatch, 1.0)
        assert domain.memory_bound(ProductDomain([mesh_component(build_icosphere(1))]), 1, 8) == (
            bound + 1536
        )
        assert self.run_with_domain_key(tmp_path, "radius_cap", "inf", component=0) == 2
        assert capsys.readouterr().err == (
            "error: the adjustment family and inference on it with 8 signals of 12 points "
            f"would need up to {(bound + 1536) / 1e6:,.1f} MB, over the limit of "
            f"{bound / 1e6:,.1f} MB (half of physical memory or of the address-space "
            "limit); use smaller radius caps or a coarser grid\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["test", "adjust", "simulate"])
    def test_refused_before_enumeration(self, tmp_path, command, capsys, monkeypatch):
        enumerated = []
        monkeypatch.setattr(domain, "enumerate_component_balls", enumerated.append)
        limit_memory(monkeypatch, 0.99)
        if command == "simulate":
            sweep = tmp_path / "sweep.json"
            sweep.write_text(json.dumps([{"icosphere_order": 1, "n_samples": 8,
                                          "permutations": 9, "replicates": 1, "seed": 1}]))
            code = main(["simulate", "--config", str(sweep), "--out", str(tmp_path / "r.csv")])
        else:
            code = self.run_with_domain_key(tmp_path, "radius_cap", "inf", command, 0)
        assert code == 2
        assert "over the limit of" in capsys.readouterr().err
        assert enumerated == []

    @pytest.mark.parametrize("command", ["test", "adjust"])
    @pytest.mark.parametrize("value", [True, "0.5", None, "Infinity", "nan"])
    def test_bad_radius_cap(self, tmp_path, value, command, capsys):
        # a cap is a JSON number or "inf"; true used to run as cap 1.0
        assert self.run_with_domain_key(tmp_path, "radius_cap", value, command, 0) == 2
        assert (
            f"domain.components[0]: radius_cap must be a number or 'inf', got {value!r}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["test", "adjust"])
    def test_radius_cap_beyond_float_range(self, tmp_path, command, capsys):
        # an integer that no float holds is refused naming the key
        assert self.run_with_domain_key(tmp_path, "radius_cap", 10**400, command, 0) == 2
        assert (
            "domain.components[0]: radius_cap must be a finite number or 'inf', got 1000"
            in capsys.readouterr().err
        )

    def test_old_key_rejected(self, tmp_path, capsys):
        assert self.run_with_domain_key(tmp_path, "max_memberships", 50_000_000) == 2
        err = capsys.readouterr().err
        assert "domain: max_memberships is no longer supported" in err
        assert "worked out from the machine's memory" in err


class TestAdjust:
    def test_writes_under_the_config_output_dir(self, tmp_path, monkeypatch):
        # without --out-dir, adjust writes where test does
        monkeypatch.chdir(tmp_path)
        config = edit_config(write_test_setup(tmp_path), lambda c: c.update(output={"dir": "res"}))
        assert main(["test", "--config", str(config)]) == 0
        assert main(
            ["adjust", "--config", str(config), "--balls", "res/balls.csv", "--caps", "inf"]
        ) == 0
        assert (tmp_path / "res" / "adjusted.csv").exists()
        assert not (tmp_path / "adjusted.csv").exists()

    def test_readjust_with_original_caps_matches(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        adj_dir = tmp_path / "adj"
        assert main(
            ["adjust", "--config", str(config), "--balls", str(out_dir / "balls.csv"),
             "--caps", "inf", "--out-dir", str(adj_dir)]
        ) == 0
        with open(out_dir / "pointwise.csv", newline="") as fh:
            original = {r["grid_id"]: float(r["p_adj"]) for r in csv.DictReader(fh)}
        with open(adj_dir / "adjusted.csv", newline="") as fh:
            readjusted = {r["grid_id"]: float(r["p_adj"]) for r in csv.DictReader(fh)}
        assert original == readjusted

    def test_smaller_cap_never_raises_adjusted(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        adj_dir = tmp_path / "adj_small"
        assert main(
            ["adjust", "--config", str(config), "--balls", str(out_dir / "balls.csv"),
             "--caps", "1.2", "--out-dir", str(adj_dir)]
        ) == 0
        with open(out_dir / "pointwise.csv", newline="") as fh:
            original = {r["grid_id"]: float(r["p_adj"]) for r in csv.DictReader(fh)}
        with open(adj_dir / "adjusted.csv", newline="") as fh:
            smaller = {r["grid_id"]: float(r["p_adj"]) for r in csv.DictReader(fh)}
        for g, p in smaller.items():
            assert p <= original[g] + 1e-15
            assert p > 0  # singletons keep every point covered

    @pytest.mark.parametrize("jitter", [None, 0, 1, 2, 3, 4])
    @pytest.mark.parametrize("cap, new_cap", [("0.8", "0.3"), ("0.8", "0.5"), ("inf", "0.5")])
    def test_matches_a_fresh_run_at_the_new_cap(self, tmp_path, jitter, cap, new_cap):
        # the kept center of a support, and with it the summation order of its
        # statistic, may differ between the two families; p_adj may not
        ico = build_icosphere(3)
        vertices = ico.vertices
        if jitter is not None:
            scale = 1.0 + np.random.default_rng(jitter).normal(0.0, 0.05, len(vertices))
            vertices = vertices * scale[:, None]
        mesh_path = tmp_path / "mesh.off"
        mesh_path.write_text(mesh.off_text(mesh.TriangulatedManifold(vertices, ico.triangles)))
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((12, len(vertices)))
        Y[6:, :20] += 0.8
        data_path = tmp_path / "signals.csv"
        save_signals_csv(Y, data_path)

        def run(radius_cap, out_dir):
            config = tmp_path / f"config_{radius_cap}.json"
            # a config's cap is a JSON number or "inf"; --caps takes the text
            json_cap = radius_cap if radius_cap == "inf" else float(radius_cap)
            config.write_text(json.dumps({
                "domain": {"components": [
                    {"kind": "mesh", "path": str(mesh_path), "radius_cap": json_cap}
                ]},
                "data": {"path": str(data_path)},
                "model": {"statistic": "t_two_sample_sq", "groups": [0] * 6 + [1] * 6},
                "inference": {"permutations": 300, "seed": 3},
            }))
            assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 0
            return config

        def p_adj(path):
            with open(path, newline="") as fh:
                return [row["p_adj"] for row in csv.DictReader(fh)]

        config = run(cap, tmp_path / "wide")
        run(new_cap, tmp_path / "fresh")
        assert main(
            ["adjust", "--config", str(config), "--balls", str(tmp_path / "wide" / "balls.csv"),
             "--caps", new_cap, "--out-dir", str(tmp_path / "adj")]
        ) == 0
        assert p_adj(tmp_path / "adj" / "adjusted.csv") == p_adj(
            tmp_path / "fresh" / "pointwise.csv"
        )

    @pytest.mark.parametrize("caps, balls, message", [
        ("0.5,x", "b.csv", "--caps: radius_cap must be a number or 'inf', got 'x'"),
        ("0.5,inf", "b.csv", "--caps has 2 entries but the domain has 1 components"),
        ("0.5", "gone.csv", "ball p-value file not found: "),
    ], ids=["malformed-cap", "cap-count", "missing-balls"])
    def test_arguments_checked_before_enumeration(
        self, tmp_path, capsys, monkeypatch, caps, balls, message
    ):
        config = write_test_setup(tmp_path)
        (tmp_path / "b.csv").touch()
        built, enumerated = [], []
        build = cli._build_domain

        def spy_build(section):
            built.append(section)
            return build(section)

        monkeypatch.setattr(cli, "_build_domain", spy_build)
        monkeypatch.setattr(domain, "enumerate_component_balls", enumerated.append)
        assert main(
            ["adjust", "--config", str(config), "--balls", str(tmp_path / balls),
             "--caps", caps, "--out-dir", str(tmp_path / "a")]
        ) == 2
        assert message in capsys.readouterr().err
        assert enumerated == []
        # only the cap count needs the domain
        assert len(built) == (caps == "0.5,inf")
        assert not (tmp_path / "a").exists()

    def test_cap_count_mismatch(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        assert main(
            ["adjust", "--config", str(config), "--balls", str(out_dir / "balls.csv"),
             "--caps", "1.0,2.0", "--out-dir", str(tmp_path / "x")]
        ) == 2

    def test_nan_cap_rejected(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        adj_dir = tmp_path / "adj"
        assert main(
            ["adjust", "--config", str(config), "--balls", str(out_dir / "balls.csv"),
             "--caps", "nan", "--out-dir", str(adj_dir)]
        ) == 2
        assert not (adj_dir / "adjusted.csv").exists()

    @staticmethod
    def adjust_rewritten_balls(tmp_path, rewrite):
        """Exit code of `adjust` on a balls.csv whose rows went through ``rewrite``."""
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        with open(out_dir / "balls.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        bad = tmp_path / "bad_balls.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rewrite(rows))
        return main(
            ["adjust", "--config", str(config), "--balls", str(bad),
             "--caps", "inf", "--out-dir", str(tmp_path / "adj")]
        )

    def test_missing_p_ball_column(self, tmp_path):
        def drop_last_column(rows):  # p_ball is the last column
            return [r[:-1] for r in rows]

        assert self.adjust_rewritten_balls(tmp_path, drop_last_column) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "2", "0", "-1", "1.0000000000000002"])
    def test_out_of_range_p_ball(self, tmp_path, capsys, value):
        def corrupt(rows):
            rows[3][-1] = value
            rows[5][-1] = "nan"
            return rows

        assert self.adjust_rewritten_balls(tmp_path, corrupt) == 2
        err = capsys.readouterr().err
        assert f"bad_balls.csv: row 3 (line 4): p_ball must be in (0, 1], got '{value}'" in err
        assert not (tmp_path / "adj" / "adjusted.csv").exists()

    def test_non_numeric_p_ball(self, tmp_path):
        def corrupt(rows):
            rows[3][-1] = "0.5x"
            return rows

        assert self.adjust_rewritten_balls(tmp_path, corrupt) == 2

    def test_p_ball_parse_holds_no_object_per_ball(self, tmp_path):
        # one dict per ball took about 700 bytes a ball; the float64 column
        # itself is 8
        n = 100_000
        path = tmp_path / "balls.csv"
        with open(path, "w", newline="") as fh:
            fh.write("ball_id,center_0,radius_0,inner_radius_0,T_ball_obs,p_ball\r\n")
            fh.writelines(
                f"{i},{i % 97},0.25,0.125,1.5,{(i + 1) / n!r}\r\n" for i in range(n)
            )
        tracemalloc.start()
        try:
            p_ball = cli._read_p_ball(str(path), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(p_ball, (np.arange(n) + 1) / n)
        assert peak <= 24 * n

    @pytest.mark.parametrize("rewrite, message", [
        (lambda rows: rows[:-1], "36 balls but the re-enumerated family has 37"),
        (lambda rows: rows + [rows[-1]], "38 balls but the re-enumerated family has 37"),
        # a count mismatch is named before a bad number
        (lambda rows: rows[:3] + [rows[3][:-1]] + rows[4:-1], "36 balls"),
        (lambda rows: rows[:3] + [rows[3][:-1]] + rows[4:], "p_ball values must be numbers"),
        # blank lines are not rows
        (lambda rows: rows[:5] + [[]] + rows[5:], None),
    ], ids=["short-file", "long-file", "short-row-and-file", "short-row", "blank-line"])
    def test_balls_file_shape(self, tmp_path, capsys, rewrite, message):
        code = self.adjust_rewritten_balls(tmp_path, rewrite)
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 2 and message in err


class TestSimulate:
    def test_single_null_scenario(self, tmp_path):
        sweep = [
            {
                "id": "null",
                "icosphere_order": 1,
                "n_samples": 8,
                "permutations": 15,
                "replicates": 3,
                "seed": 1,
                "truth": {"type": "none"},
            }
        ]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep))
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["sensitivity"] == ""  # global null
        for key in ("fwer", "fpr", "fdr"):
            assert 0.0 <= float(rows[0][key]) <= 1.0

    def test_over_limit_family(self, tmp_path, monkeypatch, capsys):
        bound = limit_memory(monkeypatch, 0.5, 8)
        sweep = [{"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                  "replicates": 1, "seed": 1}]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"would need up to {bound / 1e6:,.1f} MB" in err
        assert f"over the limit of {int(bound * 0.5) / 1e6:,.1f} MB" in err
        assert not (tmp_path / "o.csv").exists()

    def test_twelve_scenario_sweep(self, tmp_path):
        sweep = []
        for region in ("patch_a", "patch_b"):
            center = 0 if region == "patch_a" else 6
            for i, (n, cap) in enumerate(
                [(8, "inf"), (4, "inf"), (12, "inf"), (8, 2.0), (8, 1.0), (8, 0.2)]
            ):
                sweep.append(
                    {
                        "id": f"{region}_{i+1}",
                        "icosphere_order": 1,
                        "n_samples": n,
                        "permutations": 9,
                        "replicates": 2,
                        "seed": i,
                        "radius_cap": cap,
                        "signal_amplitude": 2.0,
                        "truth": {"type": "cap", "center": center, "radius": 1.2},
                    }
                )
        cfg = tmp_path / "sweep12.json"
        cfg.write_text(json.dumps(sweep))
        out = tmp_path / "rates12.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12

    def test_zero_replicates_usage_error(self, tmp_path):
        sweep = [
            {
                "id": "bad",
                "icosphere_order": 1,
                "n_samples": 8,
                "permutations": 5,
                "replicates": 0,
                "seed": 1,
            }
        ]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(sweep))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_unknown_scenario_key(self, tmp_path):
        sweep = [
            {
                "id": "bad",
                "icosphere_order": 1,
                "n_samples": 8,
                "permutations": 5,
                "replicates": 1,
                "seed": 1,
                "bogus": 1,
            }
        ]
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps(sweep))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @staticmethod
    def run_scenario_json(tmp_path, capsys, scenarios) -> str:
        """The error of a simulate run that must exit 2."""
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(scenarios))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert not (tmp_path / "o.csv").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda s: s["truth"].pop("center"), "missing key(s) ['center']"),
            (lambda s: s["truth"].update(center="abc"), "center must be vertex indices"),
            (lambda s: s["truth"].update(center=2.0), "got 2.0"),
            (lambda s: s["truth"].update(center=999), "center must be vertex indices in [0, 12)"),
            (lambda s: s["truth"].update(center=-1), "got -1"),
            (lambda s: s["truth"].update(radius=-1.0), "radius must be a positive number"),
            (lambda s: s["truth"].update(radius=math.nan), "radius must be a positive number"),
            (lambda s: s["truth"].update(radius="abc"), "radius must be a positive number"),
            (lambda s: s.update(truth={"type": "patches", "centers": [0, 12], "radius": 1.0}),
             "centers must be vertex indices in [0, 12), got [0, 12]"),
            (lambda s: s.update(truth={"type": "patches", "centers": 3, "radius": 1.0}),
             "centers must be vertex indices"),
            (lambda s: s.update(truth=3), "truth: must be a JSON object"),
            (lambda s: s.update(icosphere_order="abc"),
             "scenario[0].domain.components[0]: order must be a positive integer, got 'abc'"),
            (lambda s: s.update(icosphere_order=2.5),
             "scenario[0].domain.components[0]: order must be a positive integer, got 2.5"),
            (lambda s: s.update(n_samples=None), "scenario[0]"),
            (lambda s: s.update(n_samples=8.5),
             "scenario[0]: n_samples must be a positive integer, got 8.5"),
            (lambda s: s.update(permutations="9"),
             "scenario[0]: permutations must be a positive integer, got '9'"),
            (lambda s: s.update(replicates=1.5),
             "scenario[0]: replicates must be a positive integer, got 1.5"),
            (lambda s: s.update(seed=1.5),
             "scenario[0]: seed must be a non-negative integer, got 1.5"),
            (lambda s: s.update(noise_bandwidth=math.nan),
             "scenario[0]: noise_bandwidth must be a finite number, got nan"),
            (lambda s: s.update(noise_bandwidth="0.3"),
             "scenario[0]: noise_bandwidth must be a finite number, got '0.3'"),
            (lambda s: s.update(noise_bandwidth=True),
             "scenario[0]: noise_bandwidth must be a finite number, got True"),
            (lambda s: s.update(noise_bandwidth=math.inf),
             "scenario[0]: noise_bandwidth must be a finite number, got inf"),
            (lambda s: s.update(signal_amplitude="0.05"),
             "scenario[0]: signal_amplitude must be a finite number, got '0.05'"),
            (lambda s: s.update(signal_amplitude=True),
             "scenario[0]: signal_amplitude must be a finite number, got True"),
            (lambda s: s.update(signal_amplitude=math.nan),
             "scenario[0]: signal_amplitude must be a finite number, got nan"),
            (lambda s: s.update(alpha="0.05"),
             "scenario[0]: alpha must be a finite number, got '0.05'"),
            (lambda s: s.update(noise_sd=None),
             "scenario[0]: noise_sd must be a finite number, got None"),
            (lambda s: s.update(noise_sd=10**400),
             "scenario[0]: noise_sd must be a finite number, got 1000"),
            (lambda s: s.update(icosphere_radius=True),
             "scenario[0].domain.components[0]: radius must be a finite number, got True"),
            (lambda s: s.update(radius_cap=True),
             "scenario[0].domain.components[0]: radius_cap must be a number or 'inf', got True"),
            (lambda s: s.update(radius_cap=10**400),
             "scenario[0].domain.components[0]: radius_cap must be a finite number or 'inf', "
             "got 1000"),
        ],
        ids=["no-center", "center-abc", "center-float", "center-999", "center-negative",
             "radius-negative", "radius-nan", "radius-abc", "patch-center-12",
             "centers-not-a-list", "truth-not-an-object", "order-abc", "order-float",
             "n-samples-null", "n-samples-float", "permutations-string",
             "replicates-float", "seed-float", "bandwidth-nan", "bandwidth-string",
             "bandwidth-bool", "bandwidth-inf", "amplitude-string", "amplitude-bool",
             "amplitude-nan", "alpha-string", "noise-sd-null", "noise-sd-huge-int",
             "icosphere-radius-bool",
             "cap-bool", "cap-huge-int"],
    )
    def test_malformed_scenario(self, tmp_path, capsys, change, message):
        scenario = {"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                    "replicates": 1, "seed": 1,
                    "truth": {"type": "cap", "center": 0, "radius": 1.2}}
        change(scenario)
        assert message in self.run_scenario_json(tmp_path, capsys, [scenario])

    def test_icosphere_radius_with_a_mesh_path(self, tmp_path, capsys):
        # the radius only scales an icosphere the scenario builds; a mesh file
        # used to run at its own size with the radius ignored. The shorthand
        # stands for a mesh component, whose kind takes no radius
        mesh_path = tmp_path / "m.off"
        assert main(["tessellate", "--order", "1", "--out", str(mesh_path)]) == 0
        scenario = {"mesh_path": str(mesh_path), "icosphere_radius": 2.0, "n_samples": 8,
                    "permutations": 9, "replicates": 1, "seed": 1}
        assert self.run_scenario_json(tmp_path, capsys, [scenario]) == (
            "error: scenario[0].domain.components[0]: unknown key(s) ['radius']\n"
        )

    @staticmethod
    def rates(tmp_path, name, scenarios) -> bytes:
        """The rates file of a simulate run that must succeed."""
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps(scenarios))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("form", ["mesh_path", "icosphere_order"])
    def test_domain_section_matches_its_shorthand(self, tmp_path, form):
        mesh_path = tmp_path / "m.off"
        assert main(["tessellate", "--order", "2", "--out", str(mesh_path)]) == 0
        base = {"id": "s", "n_samples": 8, "permutations": 19, "replicates": 2, "seed": 3,
                "signal_amplitude": 1.5, "truth": {"type": "cap", "center": 4, "radius": 0.7}}
        if form == "mesh_path":
            shorthand = {"mesh_path": str(mesh_path), "radius_cap": 0.8}
            component = {"kind": "mesh", "path": str(mesh_path), "radius_cap": 0.8}
        else:
            shorthand = {"icosphere_order": 2, "icosphere_radius": 1.0, "radius_cap": 0.8}
            component = {"kind": "icosphere", "order": 2, "radius": 1.0, "radius_cap": 0.8}
        expected = self.rates(tmp_path, "shorthand", [{**base, **shorthand}])
        domain = {"domain": {"components": [component]}}
        assert self.rates(tmp_path, "domain", [{**base, **domain}]) == expected

    def test_domain_and_shorthand_exit_2(self, tmp_path, capsys):
        scenario = {"domain": {"components": [{"kind": "icosphere", "order": 1}]},
                    "icosphere_order": 1, "radius_cap": 0.5, "n_samples": 8,
                    "permutations": 9, "replicates": 1, "seed": 1}
        assert self.run_scenario_json(tmp_path, capsys, [scenario]) == (
            "error: scenario[0]: give a domain section or the key(s) "
            "['icosphere_order', 'radius_cap'], not both\n"
        )

    @pytest.mark.parametrize("components", [
        [{"kind": "icosphere", "order": 1}, {"kind": "circle", "points": 4}],
        [{"kind": "circle", "points": 12}],
    ], ids=["mesh-by-circle", "circle"])
    def test_only_one_mesh(self, tmp_path, capsys, components):
        # the noise sampler draws fields on one mesh; the truth is never read
        scenario = {"domain": {"components": components}, "n_samples": 8,
                    "permutations": 9, "replicates": 1, "seed": 1,
                    "truth": {"type": "cap", "center": 0, "radius": 0.5}}
        assert self.run_scenario_json(tmp_path, capsys, [scenario]) == (
            "error: scenario[0]: the noise sampler needs a domain of exactly one "
            "mesh component\n"
        )

    def test_one_search_per_mesh(self, tmp_path, monkeypatch):
        # scenarios on one mesh at different caps, by shorthand or by a
        # domain section, share one load and one search, to the largest cap
        # or 3 noise bandwidths among them: 3 x 0.5 here
        mesh_path = tmp_path / "m.off"
        assert main(["tessellate", "--order", "2", "--out", str(mesh_path)]) == 0
        calls = []
        search = mesh.TriangulatedManifold.compute_distances
        monkeypatch.setattr(mesh.TriangulatedManifold, "compute_distances",
                            lambda self, *a, **k: calls.append(k) or search(self, *a, **k))
        base = {"n_samples": 8, "permutations": 9, "replicates": 1, "seed": 1}
        component = {"kind": "mesh", "path": str(mesh_path), "radius_cap": 1.0}
        self.rates(tmp_path, "sweep", [
            {**base, "mesh_path": str(mesh_path), "radius_cap": 0.5},
            {**base, "domain": {"components": [component]}},
            {**base, "mesh_path": str(mesh_path), "radius_cap": 0.5, "noise_bandwidth": 0.5},
        ])
        assert calls == [{"limit": 1.5}]

    def test_cache_read_once_to_the_bound(self, tmp_path, monkeypatch):
        # a cached mesh is read once, up to 3 x the default bandwidth 0.3
        # here, and gives the rates of a search
        mesh_path, cache = tmp_path / "m.off", tmp_path / "d.bin"
        assert main(["tessellate", "--order", "3", "--out", str(mesh_path)]) == 0
        assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) == 0
        base = {"n_samples": 8, "permutations": 19, "replicates": 2, "seed": 1,
                "signal_amplitude": 1.5, "truth": {"type": "cap", "center": 0, "radius": 0.5}}
        searched = self.rates(tmp_path, "searched", [
            {**base, "mesh_path": str(mesh_path), "radius_cap": cap} for cap in (0.5, 0.8)])
        limits = []
        read = cli.load_distance_cache
        monkeypatch.setattr(cli, "load_distance_cache",
                            lambda path, limit: limits.append(limit) or read(path, limit))
        monkeypatch.setattr(mesh.TriangulatedManifold, "compute_distances",
                            lambda *a, **k: pytest.fail("searched a cached mesh"))
        component = {"kind": "mesh", "path": str(mesh_path), "distance_cache": str(cache)}
        cached = self.rates(tmp_path, "cached", [
            {**base, "domain": {"components": [{**component, "radius_cap": cap}]}}
            for cap in (0.5, 0.8)])
        assert limits == [3 * 0.3]
        assert cached == searched

    @pytest.mark.parametrize(
        "bandwidth", [1e-200, 1e200], ids=["tiny-bandwidth", "huge-bandwidth"]
    )
    def test_extreme_noise_bandwidth_runs(self, tmp_path, bandwidth):
        # iid noise and one common factor; neither squares the bandwidth
        scenario = {"icosphere_order": 2, "n_samples": 8, "permutations": 9,
                    "replicates": 1, "seed": 1, "noise_bandwidth": bandwidth,
                    "signal_amplitude": 1.0, "truth": {"type": "cap", "center": 0, "radius": 0.5}}
        rows = list(csv.DictReader(self.rates(tmp_path, "extreme", [scenario])
                                   .decode().splitlines()))
        assert [row["replicates"] for row in rows] == ["1"]

    def test_scenario_not_an_object(self, tmp_path, capsys):
        err = self.run_scenario_json(tmp_path, capsys, [5])
        assert "scenario[0]: must be a JSON object, got 5" in err

    @pytest.mark.parametrize("source", ["icosphere_order", "mesh_path", "domain"])
    def test_mesh_over_2000_vertices_runs(self, tmp_path, monkeypatch, source):
        # order 15, 2252 vertices: searched to 3 noise bandwidths, not in full
        calls = []
        search = mesh.TriangulatedManifold.compute_distances
        monkeypatch.setattr(mesh.TriangulatedManifold, "compute_distances",
                            lambda self, *a, **k: calls.append(k) or search(self, *a, **k))
        scenario = {"n_samples": 8, "permutations": 9, "replicates": 1, "seed": 1,
                    "signal_amplitude": 1.0, "truth": {"type": "cap", "center": 0, "radius": 0.3}}
        component = {"kind": "icosphere", "order": 15, "radius_cap": 0.1}
        if source == "mesh_path":
            mesh_path = tmp_path / "big.off"
            assert main(["tessellate", "--order", "15", "--out", str(mesh_path)]) == 0
            scenario.update(mesh_path=str(mesh_path), radius_cap=0.1)
        elif source == "domain":
            scenario["domain"] = {"components": [component]}
        else:
            scenario.update(icosphere_order=15, radius_cap=0.1)
        rows = list(csv.DictReader(self.rates(tmp_path, "big", [scenario])
                                   .decode().splitlines()))
        assert [row["replicates"] for row in rows] == ["1"]
        assert 0.0 <= float(rows[0]["sensitivity"]) <= 1.0
        assert calls == [{"limit": 3 * 0.3}]


def small_inference(components):
    """A family on ``components`` and a run_inference result on random data."""
    fam = enumerate_family(ProductDomain(components))
    Y = np.random.default_rng(0).standard_normal((8, fam.domain.size))
    kernel = StatKernel(Y, "t_two_sample_sq", [0] * 4 + [1] * 4)
    return fam, run_inference(kernel, fam, generate_permutations(9, 1, len(Y)))


# the last domain's interval coordinates are floats and go through the formatter
WRITER_DOMAINS = pytest.mark.parametrize(
    "make",
    [
        lambda: [mesh_component(build_icosphere(2), radius_cap=0.7)],
        lambda: [
            mesh_component(build_icosphere(1)),
            circle_component(12, radius_cap=2.5),
        ],
        lambda: [
            mesh_component(build_icosphere(1), radius_cap=1.2),
            circle_component(5),
            interval_component(0.0, 1.0, 4),
        ],
    ],
    ids=["mesh", "mesh-circle-inf", "mesh-circle-interval-inf"],
)

# floats whose text is easy to get wrong: signed zero, infinities, NaNs with
# other payloads and signs, the least subnormal, values %.17g must not round
SPECIAL_FLOATS = np.array(
    [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 0.1, 1e22, 2**53 + 1.0]
    + [np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0]]
)


class TestBallsCsv:
    """The column-wise writers are byte-identical to the row-wise ones."""

    @WRITER_DOMAINS
    def test_matches_row_writer(self, make, monkeypatch):
        fam, result = small_inference(make())
        expected = oracles.balls_csv(fam, result).encode()
        assert expected.count(b"\r\n") == fam.n_balls + 1
        assert "".join(_balls_csv(fam, result)).encode() == expected
        monkeypatch.setattr(cli, "BALLS_CSV_CHUNK", 7)  # chunk ends inside the family
        assert "".join(_balls_csv(fam, result)).encode() == expected

    @WRITER_DOMAINS
    @pytest.mark.parametrize("chunk", [7, 1])
    def test_every_writer_matches_its_row_writer(self, make, chunk, monkeypatch):
        monkeypatch.setattr(cli, "BALLS_CSV_CHUNK", chunk)
        fam, result = small_inference(make())
        assert_writers_match_oracles(fam, result)

    @WRITER_DOMAINS
    def test_special_values(self, make, monkeypatch):
        monkeypatch.setattr(cli, "BALLS_CSV_CHUNK", 7)
        fam, result = small_inference(make())
        for values in (result.observed_ball_stats, result.p.ballwise,
                       result.observed_field, result.p.adjusted):
            # spread over the array, so each chunk of balls.csv gets some
            at = np.linspace(0, len(values) - 1, len(SPECIAL_FLOATS)).astype(int)
            values[at] = SPECIAL_FLOATS
        assert_writers_match_oracles(fam, result)

    def test_memory_bounded_by_the_chunk(self):
        # 314,481 balls: the whole family's text is about 28 MB, one chunk's
        # about 0.36 MB; the writer's peak measured 6.7 chunks of text
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(8))]))
        rng = np.random.default_rng(0)
        result = InferenceResult(
            observed_field=np.zeros(fam.domain.size),
            observed_ball_stats=rng.standard_normal(fam.n_balls) ** 2,
            p=PValueFields(np.ones(fam.domain.size), rng.integers(1, 501, fam.n_balls) / 500,
                           np.ones(fam.domain.size), 499),
            permutation_chunk=32,
        )
        longest = 0
        tracemalloc.start()
        try:
            for chunk in _balls_csv(fam, result):  # a null sink
                longest = max(longest, len(chunk))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.n_balls > 70 * cli.BALLS_CSV_CHUNK
        assert peak < 10 * longest

    def test_failed_writer_leaves_no_partial_output(self, tmp_path, capsys, monkeypatch):
        def fails_after_one_chunk(family, result):
            chunks = _balls_csv(family, result)
            yield next(chunks)  # the header
            yield next(chunks)
            raise MemoryError

        monkeypatch.setattr(cli, "BALLS_CSV_CHUNK", 7)
        monkeypatch.setattr(cli, "_balls_csv", fails_after_one_chunk)
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "o"
        # made before the run, so the failed run leaves it in place
        out_dir.mkdir()
        assert main(["test", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert not [p.name for p in out_dir.iterdir() if p.name.startswith("balls.csv")]
        # nor the pointwise.csv written before balls.csv, nor any other output
        assert not (out_dir / "pointwise.csv").exists()
        assert list(out_dir.iterdir()) == []
        assert capsys.readouterr().err == "error: out of memory during write\n"


def assert_writers_match_oracles(fam, result):
    expected = oracles.balls_csv(fam, result).encode()
    assert "".join(_balls_csv(fam, result)).encode() == expected
    expected = oracles.pointwise_csv(fam.domain, result, result.p).encode()
    assert cli._pointwise_csv(fam.domain, result, result.p).encode() == expected
    expected = oracles.adjusted_csv(result.p.adjusted).encode()
    assert cli._adjusted_csv(result.p.adjusted).encode() == expected
