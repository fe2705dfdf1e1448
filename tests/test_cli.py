import json
import re

import pytest

from pidlab import ParamSpace, compute_metrics, region_from_boundary
from pidlab.cli import ConfigError, load_config, main
from pidlab.evalkit import grid_from_csv
from pidlab.search import boundary_from_csv

BASE_CONFIG = """\
[plant]
a1 = 1.0
a2 = 1.0
dt = 0.01
t_max = 120

[mission]
mode = hold
setpoint = 1.0
hold_tol = 0.05
settle_deadline = 8
duration = 16

[space]
p_min = 2.0
p_max = 2.0
p_step = 1.0
i_min = 0.4
i_max = 6.0
i_step = 0.4
d_min = 0.2
d_max = 0.8
d_step = 0.3
"""


# (key, text replaced in BASE_CONFIG or None to append, new text)
NON_FINITE = [
    ("budget", None, "\n[search]\nbudget = inf\n"),
    ("base_seed", None, "\n[oracle]\nbase_seed = inf\n"),
    ("repeats", None, "\n[oracle]\nrepeats = 1e400\n"),
    ("p_max", "p_max = 2.0", "p_max = inf"),
    ("dt", "dt = 0.01", "dt = nan"),
    ("duration", "duration = 16", "duration = nan"),
    ("seed", None, "\n[search]\nseed = nan\n"),
    ("t_max", "t_max = 120", "t_max = nan"),
    ("sensor_sigma", None, "\n[noise]\nsensor_sigma = nan\n"),
    ("hold_tol", "hold_tol = 0.05", "hold_tol = NaN"),
]


def edit(text, old, new):
    return text.replace(old, new) if old else text + new


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_volatile(meta):
    return {k: v for k, v in meta.items()
            if k not in ("created_at", "wall_time_s")}


class TestLoadConfig:
    def test_parses_everything(self, config):
        app = load_config(config)
        assert app.plant.a1 == 1.0 and app.plant.dt == 0.01
        assert app.mission.mode == "hold" and app.mission.duration == 16
        assert app.space.size() == 15 * 3
        assert app.oracle.kind == "offline" and app.formula is None
        assert app.search == {"budget": 200, "seed": 0, "strides": (1, 1, 1)}

    def test_optional_sections(self, config):
        config.write_text(BASE_CONFIG + """
[noise]
sensor_sigma = 0.01

[oracle]
kind = online
window = 120
repeats = 3

[search]
budget = 44
seed = 9
strides = 1 2 1
""")
        app = load_config(config)
        assert app.plant.noise.sensor_sigma == 0.01
        assert app.plant.noise.seed == 0
        assert (app.oracle.kind, app.oracle.window, app.oracle.repeats) == \
            ("online", 120, 3)
        assert app.search == {"budget": 44, "seed": 9, "strides": (1, 2, 1)}

    def test_formula_override(self, config):
        config.write_text(BASE_CONFIG + "\n[oracle]\nformula = (G (< (abs e) 2.0))\n")
        assert load_config(config).formula is not None

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda t: t.replace("[space]\n", "[spice]\n"), "space"),
        (lambda t: t.replace("mode = hold", "mode = teleport"), "mode"),
        (lambda t: t.replace("i_step = 0.4", "i_step = 0"), "step"),
        (lambda t: t.replace("i_step = 0.4", "i_step = fast"), "number"),
        (lambda t: t + "\n[oracle]\nformula = (G\n", "formula"),
        (lambda t: t + "\n[search]\nstrides = 1 2\n", "strides"),
        (lambda t: t.replace("p_min = 2.0\n", ""), "p_min"),
        (lambda t: t + "\n[noise]\nseed = 3\n", "base_seed"),
        (lambda t: t + "\n[oracle]\nkind = offline\nwindow = 200\n", "window"),
        (lambda t: t.replace("p_min = 2.0\np_max = 2.0\np_step = 1.0",
                             "p_min = 1000000\np_max = 1000000.01\np_step = 0.001"),
         "[space] kp step 0.001 is finer than the 9 significant digits"),
        (lambda t: t + "\n[oracle]\nwindow = 200\n", "window"),
    ] + [
        (lambda t, old=old, new=new: edit(t, old, new), f"{key} must be a finite number")
        for key, old, new in NON_FINITE
    ])
    def test_bad_configs_raise(self, config, mutate, fragment):
        config.write_text(mutate(BASE_CONFIG))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_error_points_at_the_line(self, config):
        for _, old, new in [("i_step", "i_step = 0.4", "i_step = fast")] + NON_FINITE:
            text = edit(BASE_CONFIG, old, new)
            config.write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config)
            at = text.splitlines().index(new.strip().splitlines()[-1]) + 1
            assert re.search(rf"run\.ini:{at}: ", str(err.value)), new

    def test_error_points_at_the_key_in_its_own_section(self, config):
        # configparser lower-cases keys; the anchor must find them anyway
        for tail, line, where in [
                ("\n[search]\nseed = 4\n\n[noise]\nseed = 3\n", "seed = 3", "[noise] seed"),
                ("\n[search]\nSeed = 4\n\n[noise]\nSeed = 3\n", "Seed = 3", "[noise] seed"),
                ("\n[oracle]\nWindow = 20\n", "Window = 20", "[oracle] window")]:
            text = BASE_CONFIG + tail
            config.write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config)
            at = text.splitlines().index(line) + 1
            assert f"run.ini:{at}: {where}" in str(err.value)


class TestGroundTruthCommand:
    def test_writes_grid_and_sidecar(self, config, tmp_path, capsys):
        out = tmp_path / "gt.csv"
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(out), "--workers", "1"]) == 0
        assert "labeled 45 configs" in capsys.readouterr().out
        space = load_config(config).space
        grid = grid_from_csv(out, space)
        assert len(grid.labels) == 45
        meta = read_json(tmp_path / "gt.json")
        assert meta["kind"] == "classified_grid"
        assert meta["labeled"] == 45
        assert meta["oracle_queries"] == 45
        assert meta["coverage"] == "exhaustive"
        assert meta["space"] == space.to_dict()
        assert len(meta["config_sha256"]) == 64

    def test_reruns_are_identical_apart_from_timestamps(self, config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ground-truth", "--config", str(config), "--out", str(out1),
              "--workers", "1"])
        main(["ground-truth", "--config", str(config), "--out", str(out2),
              "--workers", "1"])
        assert out1.read_bytes() == out2.read_bytes()
        m1 = strip_volatile(read_json(tmp_path / "a.json"))
        m2 = strip_volatile(read_json(tmp_path / "b.json"))
        assert m1 == m2

    def test_formula_override_changes_labels(self, config, tmp_path):
        strict = tmp_path / "strict.ini"
        strict.write_text(BASE_CONFIG + "\n[oracle]\nformula = (G (< x -1))\n")
        out = tmp_path / "gt.csv"
        assert main(["ground-truth", "--config", str(strict),
                     "--out", str(out), "--workers", "1"]) == 0
        assert read_json(tmp_path / "gt.json")["invalid"] == 45

    def test_unwritable_out_is_io_error(self, config, tmp_path):
        out = tmp_path / "missing" / "gt.csv"
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(out), "--workers", "1"]) == 3

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[plant]\n")
        out = tmp_path / "gt.csv"
        assert main(["ground-truth", "--config", str(bad),
                     "--out", str(out)]) == 2

    def test_grid_finer_than_the_csv_digits_exit_code(self, config, tmp_path, capsys):
        config.write_text(BASE_CONFIG.replace("p_min = 2.0\np_max = 2.0",
                                              "p_min = 1000000\np_max = 1000000.01")
                          .replace("p_step = 1.0", "p_step = 0.001"))
        out = tmp_path / "gt.csv"
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(out), "--workers", "1"]) == 2
        assert "finer than the 9 significant digits" in capsys.readouterr().err
        assert not out.exists()


class TestSearchCommand:
    def test_boundary_run(self, config, tmp_path):
        out = tmp_path / "bl.csv"
        assert main(["search", "--config", str(config), "--algorithm",
                     "boundary", "--out", str(out), "--workers", "1"]) == 0
        space = load_config(config).space
        bl = boundary_from_csv(out, space)
        assert len(bl.columns) == space.n_d
        meta = read_json(tmp_path / "bl.json")
        assert meta["kind"] == "boundary_line"
        assert meta["algorithm"] == "boundary"
        assert meta["budget"] is None
        assert 0 < meta["oracle_queries"] <= space.size()

    def test_baseline_run_respects_budget_and_seed(self, config, tmp_path):
        out = tmp_path / "fuzz.csv"
        assert main(["search", "--config", str(config), "--algorithm",
                     "random-fuzz", "--out", str(out), "--budget", "10",
                     "--seed", "7", "--workers", "1"]) == 0
        meta = read_json(tmp_path / "fuzz.json")
        assert meta["kind"] == "config_set"
        assert (meta["budget"], meta["seed"]) == (10, 7)
        assert meta["oracle_queries"] == 10

    @pytest.mark.parametrize("algorithm", ["boundary", "boundary-dsoff"])
    @pytest.mark.parametrize("flag", ["--budget", "--seed"])
    def test_walk_rejects_budget_and_seed(self, config, tmp_path, capsys,
                                          algorithm, flag):
        # the walk has neither a budget nor randomness, so the flag would do nothing
        assert main(["search", "--config", str(config), "--algorithm", algorithm,
                     "--out", str(tmp_path / "bl.csv"), flag, "5",
                     "--workers", "1"]) == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_algorithm_is_usage_error(self, config, tmp_path):
        assert main(["search", "--config", str(config), "--algorithm",
                     "simulated-annealing", "--out", str(tmp_path / "x.csv"),
                     "--workers", "1"]) == 2


class TestOracleOverrides:
    def run(self, config, tmp_path, *extra):
        return main(["search", "--config", str(config), "--algorithm",
                     "random-fuzz", "--out", str(tmp_path / "fuzz.csv"),
                     "--budget", "1", "--workers", "1", *extra])

    def test_window_with_offline_oracle_is_config_error(self, config, tmp_path, capsys):
        assert self.run(config, tmp_path, "--window", "50") == 2
        assert "window" in capsys.readouterr().err
        assert not (tmp_path / "fuzz.json").exists()

    def test_online_override_takes_the_window(self, config, tmp_path):
        assert self.run(config, tmp_path, "--oracle", "online", "--window", "50") == 0
        oracle = read_json(tmp_path / "fuzz.json")["oracle"]
        assert (oracle["kind"], oracle["window"]) == ("online", 50)

    def test_offline_override_drops_the_inherited_window(self, config, tmp_path):
        config.write_text(BASE_CONFIG + "\n[oracle]\nkind = online\nwindow = 120\n")
        assert self.run(config, tmp_path, "--oracle", "offline") == 0
        oracle = read_json(tmp_path / "fuzz.json")["oracle"]
        assert (oracle["kind"], oracle["window"]) == ("offline", None)
        assert self.run(config, tmp_path, "--oracle", "offline", "--window", "50") == 2


class TestEvalCommand:
    @pytest.fixture
    def artifacts(self, config, tmp_path):
        gt = tmp_path / "gt.csv"
        bl = tmp_path / "bl.csv"
        main(["ground-truth", "--config", str(config), "--out", str(gt),
              "--workers", "1"])
        main(["search", "--config", str(config), "--algorithm", "boundary",
              "--out", str(bl), "--workers", "1"])
        return gt, bl

    def test_metrics_match_the_library(self, artifacts, config, tmp_path, capsys):
        gt_path, bl_path = artifacts
        out = tmp_path / "metrics.json"
        assert main(["eval", "--gt", str(gt_path), "--result", str(bl_path),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "miss rate" in printed and "hit rate" in printed
        space = load_config(config).space
        grid = grid_from_csv(gt_path, space)
        expected = compute_metrics(
            grid, region_from_boundary(boundary_from_csv(bl_path, space), space))
        got = read_json(out)
        assert got["mr"] == expected.mr
        assert got["hr"] == expected.hr
        assert got["gt_size"] == expected.gt_size
        assert got["rs_size"] == expected.rs_size

    def test_config_set_results_are_scored_too(self, artifacts, config, tmp_path):
        gt_path, _ = artifacts
        found = tmp_path / "fuzz.csv"
        main(["search", "--config", str(config), "--algorithm", "random-fuzz",
              "--out", str(found), "--budget", "12", "--seed", "0",
              "--workers", "1"])
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt_path), "--result", str(found),
                     "--out", str(out)]) == 0
        got = read_json(out)
        assert 0.0 <= got["mr"] <= 1.0 and 0.0 <= got["hr"] <= 1.0

    def test_mismatched_grids_refused(self, artifacts, tmp_path):
        gt_path, bl_path = artifacts
        side = tmp_path / "bl.json"
        meta = read_json(side)
        meta["space"]["i_max"] = 99.0
        side.write_text(json.dumps(meta))
        assert main(["eval", "--gt", str(gt_path), "--result", str(bl_path),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_missing_sidecar_refused(self, artifacts, tmp_path):
        gt_path, bl_path = artifacts
        (tmp_path / "bl.json").unlink()
        assert main(["eval", "--gt", str(gt_path), "--result", str(bl_path),
                     "--out", str(tmp_path / "m.json")]) == 2


class TestPlotCommand:
    @pytest.fixture
    def artifacts(self, config, tmp_path):
        gt = tmp_path / "gt.csv"
        bl = tmp_path / "bl.csv"
        main(["ground-truth", "--config", str(config), "--out", str(gt),
              "--workers", "1"])
        main(["search", "--config", str(config), "--algorithm", "boundary",
              "--out", str(bl), "--workers", "1"])
        return gt, bl

    def test_renders_grid_and_boundary(self, artifacts, tmp_path):
        gt, bl = artifacts
        out = tmp_path / "plane.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt),
                     "--boundary", str(bl)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert 'class="cell' in svg
        # theory line comes from the plant coefficients in the sidecar
        assert 'id="theory"' in svg

    def test_needs_some_input(self, tmp_path):
        assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 2

    def test_multiplane_grid_needs_p(self, tmp_path):
        multi = tmp_path / "multi.ini"
        multi.write_text(BASE_CONFIG.replace("p_max = 2.0", "p_max = 3.0"))
        gt = tmp_path / "gt.csv"
        main(["ground-truth", "--config", str(multi), "--out", str(gt),
              "--workers", "1"])
        out = tmp_path / "plane.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt)]) == 2
        assert main(["plot", "--out", str(out), "--grid", str(gt),
                     "--p", "3.0"]) == 0
        assert main(["plot", "--out", str(out), "--grid", str(gt),
                     "--p", "1.7"]) == 2

    def test_empty_grid_refused(self, artifacts, tmp_path):
        gt, _ = artifacts
        gt.write_text("kp,ki,kd,label\n")
        assert main(["plot", "--out", str(tmp_path / "x.svg"),
                     "--grid", str(gt)]) == 2


class TestArgumentHandling:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_workers_below_one_is_usage_error(self, config, tmp_path, workers):
        assert main(["search", "--config", str(config), "--algorithm",
                     "boundary", "--out", str(tmp_path / "bl.csv"),
                     "--workers", workers]) == 2
        assert not (tmp_path / "bl.csv").exists()
