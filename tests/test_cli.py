import csv
import functools
import json
import math
import platform
import tracemalloc

import numpy as np
import pytest
import scipy

import oracles
from ballwise import cli, evalsim, mesh
from ballwise.cli import _balls_csv, main
from ballwise.domain import (
    ProductDomain,
    circle_component,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise.glm import (
    DesignSpec,
    HypothesisSpec,
    load_signals_csv,
    save_signals_bin,
    save_signals_csv,
)
from ballwise.mesh import build_icosphere, load_distance_cache, load_mesh
from ballwise.permute import InferenceResult, PermutationPlan, PValueFields, run_inference
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
        searched = load_mesh(mesh_path).compute_distances().distances
        for name in ("indptr", "indices", "values"):
            assert getattr(loaded, name).tobytes() == getattr(searched, name).tobytes()

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
            ("test", "_enumerate_family", "enumerate"),
            ("test", "run_inference", "inference"),
            ("test", "_pointwise_csv", "write"),
            ("adjust", "_build_domain", "build"),
            ("adjust", "adjusted_from_ballwise", "adjust"),
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

        monkeypatch.setattr(cli, name, out_of_memory)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: out of memory during {stage}\n"

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
        ],
    )
    def test_design_does_not_fit_the_signals(self, tmp_path, capsys, model, message):
        config = edit_config(write_test_setup(tmp_path), lambda c: c.update(model=model))
        assert message in run_test(tmp_path, config, capsys)

    @pytest.mark.parametrize(
        "edit, env, message",
        [
            (lambda c: c["inference"].update(seed="abc"), None,
             "inference: seed must be a non-negative integer, got 'abc'"),
            (lambda c: c["inference"].update(seed=None), None, "seed must be a non-negative"),
            (lambda c: c["inference"].update(seed=-1), None, "got -1"),
            (lambda c: c["inference"].update(permutations=None), None,
             "inference: permutations must be a positive integer, got None"),
            (lambda c: c["inference"].update(permutations=2.7), None, "got 2.7"),
            (lambda c: c["inference"].update(alpha="abc"), None,
             "inference: alpha must be a number in (0, 1), got 'abc'"),
            (lambda c: c["domain"]["components"].append({"kind": "circle", "points": 2.7}),
             None, "domain.components[1]: points must be a positive integer, got 2.7"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 1], "points": 2.7}),
             None, "domain.components[1]: points must be a positive integer, got 2.7"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": True}),
             None, "domain.components[1]: circumference must be a finite number, got True"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": "1"}),
             None, "domain.components[1]: circumference must be a finite number, got '1'"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "circle", "points": 3, "circumference": math.inf}),
             None, "domain.components[1]: circumference must be a finite number, got inf"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, "1"], "points": 3}),
             None, "domain.components[1]: bounds must be a list of two finite numbers, "
                   "got [0, '1']"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [True, 2], "points": 3}),
             None, "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 10**400], "points": 3}),
             None, "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": [0, 1, 2], "points": 3}),
             None, "domain.components[1]: bounds must be a list of two finite numbers"),
            (lambda c: c["domain"]["components"].append(
                {"kind": "interval", "bounds": 5, "points": 3}),
             None, "domain.components[1]: bounds must be a list of two finite numbers, got 5"),
            (lambda c: c.update(output={"dir": "x", "format": "csv"}), None,
             "output: unknown key(s) ['format']"),
            (lambda c: c.update(output=5), None, "output: must be a JSON object, got 5"),
            (lambda c: None, "abc", "BALLWISE_SEED must be a non-negative integer, got 'abc'"),
        ],
        ids=["seed-abc", "seed-null", "seed-negative", "permutations-null",
             "permutations-float", "alpha-abc", "circle-points-float",
             "interval-points-float", "circumference-bool", "circumference-string",
             "circumference-inf", "bounds-string", "bounds-bool", "bounds-huge-int", "bounds-three",
             "bounds-not-a-list", "output-unknown-key", "output-not-an-object",
             "env-seed-abc"],
    )
    def test_malformed_numbers(self, tmp_path, capsys, monkeypatch, edit, env, message):
        if env is not None:
            monkeypatch.setenv("BALLWISE_SEED", env)
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


class TestFamilyGuard:
    """domain.max_balls: a positive integer; over-limit families exit 2. A
    component's radius_cap: a JSON number or "inf"."""

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
        return main(
            ["adjust", "--config", str(config), "--balls", str(tmp_path / "b.csv"),
             "--caps", "inf", "--out-dir", str(tmp_path / "a")]
        )

    @pytest.mark.parametrize("value", ["abc", -5, 0, True, 2.5, None])
    def test_bad_value(self, tmp_path, value, capsys):
        assert self.run_with_domain_key(tmp_path, "max_balls", value) == 2
        assert "max_balls must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "adjust"])
    def test_over_limit_family(self, tmp_path, command, capsys):
        # the order-1 full-cap family has 37 balls
        assert self.run_with_domain_key(tmp_path, "max_balls", 36, command) == 2
        err = capsys.readouterr().err
        assert "37 balls (limit 36)" in err and "domain.max_balls" in err

    def test_at_limit_runs(self, tmp_path):
        assert self.run_with_domain_key(tmp_path, "max_balls", 37) == 0

    @pytest.mark.parametrize("command", ["test", "adjust"])
    @pytest.mark.parametrize("value", [True, "0.5", None, "Infinity", "nan"])
    def test_bad_radius_cap(self, tmp_path, value, command, capsys):
        # a cap is a JSON number or "inf"; true used to run as cap 1.0
        assert self.run_with_domain_key(tmp_path, "radius_cap", value, command, 0) == 2
        assert (
            f"domain.components[0]: radius_cap must be a number or 'inf', got {value!r}"
            in capsys.readouterr().err
        )

    def test_old_key_rejected(self, tmp_path, capsys):
        assert self.run_with_domain_key(tmp_path, "max_memberships", 50_000_000) == 2
        assert "max_balls" in capsys.readouterr().err


class TestAdjust:
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
        # the order-1 full-cap family has 37 balls
        monkeypatch.setattr(
            evalsim, "enumerate_family", functools.partial(enumerate_family, max_balls=5)
        )
        sweep = [{"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                  "replicates": 1, "seed": 1}]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "37 balls (limit 5)" in capsys.readouterr().err

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
             "icosphere_order must be a positive integer, got 'abc'"),
            (lambda s: s.update(icosphere_order=2.5),
             "icosphere_order must be a positive integer, got 2.5"),
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
             "scenario[0]: icosphere_radius must be a finite number, got True"),
            (lambda s: s.update(radius_cap=True),
             "scenario[0]: radius_cap must be a number or 'inf', got True"),
        ],
        ids=["no-center", "center-abc", "center-float", "center-999", "center-negative",
             "radius-negative", "radius-nan", "radius-abc", "patch-center-12",
             "centers-not-a-list", "truth-not-an-object", "order-abc", "order-float",
             "n-samples-null", "n-samples-float", "permutations-string",
             "replicates-float", "seed-float", "bandwidth-nan", "bandwidth-string",
             "bandwidth-bool", "bandwidth-inf", "amplitude-string", "amplitude-bool",
             "amplitude-nan", "alpha-string", "noise-sd-null", "noise-sd-huge-int",
             "icosphere-radius-bool",
             "cap-bool"],
    )
    def test_malformed_scenario(self, tmp_path, capsys, change, message):
        scenario = {"icosphere_order": 1, "n_samples": 8, "permutations": 9,
                    "replicates": 1, "seed": 1,
                    "truth": {"type": "cap", "center": 0, "radius": 1.2}}
        change(scenario)
        assert message in self.run_scenario_json(tmp_path, capsys, [scenario])

    def test_scenario_not_an_object(self, tmp_path, capsys):
        err = self.run_scenario_json(tmp_path, capsys, [5])
        assert "scenario[0]: must be a JSON object, got 5" in err

    @pytest.mark.parametrize(
        "source, order", [("icosphere_order", 15), ("icosphere_order", 60), ("mesh_path", 15)]
    )
    def test_mesh_too_large_for_the_noise(self, tmp_path, capsys, monkeypatch, source, order):
        scenario = {"n_samples": 8, "permutations": 9, "replicates": 1, "seed": 1}
        if source == "mesh_path":
            mesh_path = tmp_path / "big.off"
            assert main(["tessellate", "--order", str(order), "--out", str(mesh_path)]) == 0
            scenario["mesh_path"] = str(mesh_path)
        else:
            scenario["icosphere_order"] = order

        def refuse(*args, **kwargs):
            raise AssertionError("distances computed for a mesh the sampler refuses")

        monkeypatch.setattr(mesh.TriangulatedManifold, "compute_distances", refuse)
        err = self.run_scenario_json(tmp_path, capsys, [scenario])
        vertices = 10 * order**2 + 2
        assert f"dense covariance limited to 2000 vertices, the mesh has {vertices}" in err


def small_inference(components):
    """A family on ``components`` and a run_inference result on random data."""
    fam = enumerate_family(ProductDomain(components))
    Y = np.random.default_rng(0).standard_normal((8, fam.domain.size))
    plan = PermutationPlan(9, seed=1, scheme="raw_label_permutation")
    design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
    return fam, run_inference(Y, design, HypothesisSpec("t_two_sample_sq"), fam, plan)


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
