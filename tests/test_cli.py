import csv
import json
import math

import numpy as np
import pytest

from ballwise.cli import main
from ballwise.glm import save_signals_csv
from ballwise.mesh import load_distance_cache, load_mesh


def write_test_setup(tmp_path, n_perm=19, seed=5, cap="inf"):
    """Icosphere-order-1 two-sample run config plus matching data."""
    mesh_path = tmp_path / "ico.off"
    assert main(["tessellate", "--order", "1", "--out", str(mesh_path)]) == 0
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((8, 12))
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


class TestDistances:
    def test_cache_roundtrip(self, tmp_path):
        mesh_path = tmp_path / "m.off"
        main(["tessellate", "--order", "1", "--out", str(mesh_path)])
        cache = tmp_path / "d.bin"
        assert main(["distances", "--mesh", str(mesh_path), "--out", str(cache)]) == 0
        d = load_distance_cache(cache)
        assert d.shape == (12, 12)
        m = load_mesh(mesh_path).compute_distances()
        np.testing.assert_array_equal(d, m.distances)

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

    def test_rerun_byte_identical(self, tmp_path):
        config = write_test_setup(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
        assert main(["test", "--config", str(config), "--out-dir", str(d2)]) == 0
        assert (d1 / "pointwise.csv").read_bytes() == (d2 / "pointwise.csv").read_bytes()
        assert (d1 / "balls.csv").read_bytes() == (d2 / "balls.csv").read_bytes()

    def test_capped_run_matches_full_distance_cache(self, tmp_path):
        # without a cache the mesh distances stop at the cap; outputs must not
        # change
        config = write_test_setup(tmp_path, cap=1.5)
        cache = tmp_path / "d.bin"
        assert main(["distances", "--mesh", str(tmp_path / "ico.off"), "--out", str(cache)]) == 0
        cfg = json.loads(config.read_text())
        cfg["domain"]["components"][0]["distance_cache"] = str(cache)
        cached_config = tmp_path / "cached.json"
        cached_config.write_text(json.dumps(cfg))
        d1, d2 = tmp_path / "bounded", tmp_path / "cached"
        assert main(["test", "--config", str(config), "--out-dir", str(d1)]) == 0
        assert main(["test", "--config", str(cached_config), "--out-dir", str(d2)]) == 0
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

    def test_column_mismatch(self, tmp_path):
        config = write_test_setup(tmp_path)
        cfg = json.loads(config.read_text())
        bad = tmp_path / "bad.csv"
        save_signals_csv(np.zeros((8, 5)), bad)
        cfg["data"]["path"] = str(bad)
        config.write_text(json.dumps(cfg))
        assert main(["test", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2


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

    def test_cap_count_mismatch(self, tmp_path):
        config = write_test_setup(tmp_path)
        out_dir = tmp_path / "out"
        main(["test", "--config", str(config), "--out-dir", str(out_dir)])
        assert main(
            ["adjust", "--config", str(config), "--balls", str(out_dir / "balls.csv"),
             "--caps", "1.0,2.0", "--out-dir", str(tmp_path / "x")]
        ) == 2


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
