import builtins
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from pidlab import ParamSpace, compute_metrics, region_from_boundary
from pidlab import cli
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
    ("base_seed", None, "\n[oracle]\nbase_seed = inf\n"),
    ("repeats", None, "\n[oracle]\nrepeats = 1e400\n"),
    ("p_max", "p_max = 2.0", "p_max = inf"),
    ("dt", "dt = 0.01", "dt = nan"),
    ("duration", "duration = 16", "duration = nan"),
    ("t_max", "t_max = 120", "t_max = nan"),
    ("sensor_sigma", None, "\n[noise]\nsensor_sigma = nan\n"),
    ("hold_tol", "hold_tol = 0.05", "hold_tol = NaN"),
]

# (key, None, appended text ending in the key's line, message): [oracle] kind
# and window settings that OracleConfig refuses
ORACLE_KIND = [
    ("kind", None, "\n[oracle]\nkind = foo\n", "kind must be offline or online, got 'foo'"),
    ("kind", None, "\n[oracle]\nkind = online\n",
     "kind online needs a window of >= 2 samples"),
    ("window", None, "\n[oracle]\nkind = online\nwindow = 1\n",
     "window must be >= 2 samples for an online oracle"),
]

# (case, text replaced in BASE_CONFIG or None to append, new text ending in the
# line the error names, message fragment): sections and keys the config
# table does not list
NOT_A_KEY = [
    ("typo", None, "\n[oracle]\nrepeat = 3\n", "[oracle] repeat is not a config key"),
    ("unknown key", "a2 = 1.0", "a2 = 1.0\na3 = 7", "[plant] a3 is not a config key"),
    ("another mode's key", "duration = 16", "duration = 16\nradius = 9",
     "[mission] radius is not a config key"),
    ("unknown section", None, "\n[serch]\n", "[serch] is not a config section"),
    ("DEFAULT key", None, "\n[DEFAULT]\nrepeats = 3\n", "the DEFAULT section takes no keys"),
    ("search budget", None, "\n[search]\nbudget = 0\n", "[search] budget is not a config key"),
    ("search seed", None, "\n[search]\nseed = nan\n", "[search] seed is not a config key"),
]

# (case, None to append, new text): formulas that fit the grammar but that the
# reader refuses, and that would otherwise crash the first oracle query
BAD_FORMULA = [
    ("inf bound", None, "\n[oracle]\nformula = (G [0 inf] (< (abs e) 2.0))\n"),
    ("prev mode", None, "\n[oracle]\nformula = (G (< x (prev mode)))\n"),
    # there is no mode signal: a run flies one mission
    ("mode atom", None,
     "\n[oracle]\nformula = (G (=> (= mode circle) (< (abs e) 0.01)))\n"),
    ("nested 1000 deep", None,
     "\n[oracle]\nformula = " + "(not " * 999 + "(< x 1)" + ")" * 999 + "\n"),
]


def edit(text, old, new):
    return text.replace(old, new) if old else text + new


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture
def artifacts(config, tmp_path):
    """A ground-truth grid and a boundary walk of the base config, each
    with its sidecar."""
    gt = tmp_path / "gt.csv"
    bl = tmp_path / "bl.csv"
    main(["ground-truth", "--config", str(config), "--out", str(gt),
          "--workers", "1"])
    main(["search", "--config", str(config), "--algorithm", "boundary",
          "--out", str(bl), "--workers", "1"])
    return gt, bl


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
        assert app.strides == (1, 1, 1)

    def test_optional_sections(self, config):
        config.write_text(BASE_CONFIG + """
[noise]
sensor_sigma = 0.01

[oracle]
kind = online
window = 120
repeats = 3

[search]
strides = 1 2 1
""")
        app = load_config(config)
        assert app.plant.noise.sensor_sigma == 0.01
        assert app.plant.noise.seed == 0
        assert (app.oracle.kind, app.oracle.window, app.oracle.repeats) == \
            ("online", 120, 3)
        assert app.strides == (1, 2, 1)

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
        (lambda t: t + "\n[search]\nstrides = 1 \u00b2 1\n", "strides"),
        (lambda t: t.replace("p_min = 2.0\n", ""), "p_min"),
        (lambda t: t + "\n[noise]\nseed = 3\n", "base_seed"),
        (lambda t: t + "\n[oracle]\nkind = offline\nwindow = 200\n", "window"),
        (lambda t: t.replace("p_min = 2.0\np_max = 2.0\np_step = 1.0",
                             "p_min = 1000000\np_max = 1000000.01\np_step = 0.001"),
         "[space] p_step 0.001 is finer than the 9 significant digits"),
        (lambda t: t.replace("p_min = 2.0\np_max = 2.0\np_step = 1.0",
                             "p_min = 0\np_max = 1\np_step = 1e-12"),
         "[space] p_step 1e-12 gives 1000000000001 points on kp"),
        (lambda t: t + "\n[oracle]\nwindow = 200\n", "window"),
        (lambda t: t + "\n[oracle]\nbase_seed = -1\n", "[oracle] base_seed must be >= 0"),
        (lambda t: t + "\n[oracle]\nrepeats = 2.5\n", "[oracle] repeats must be an integer"),
        (lambda t: t + "\n[noise]\nsensor_sigma = -1\n",
         "[noise] sensor_sigma must be >= 0"),
        (lambda t: t.replace("t_max = 120", "t_max = 10"),
         "[mission] duration: mission duration exceeds plant t_max"),
    ] + [
        (lambda t, old=old, new=new: edit(t, old, new), f"{key} must be a finite number")
        for key, old, new in NON_FINITE
    ] + [
        (lambda t, old=old, new=new: edit(t, old, new), fragment)
        for _, old, new, fragment in NOT_A_KEY
    ] + [
        (lambda t, new=new: t + new, f"[oracle] {message}")
        for _, _, new, message in ORACLE_KIND
    ] + [
        (lambda t, new=new: t + new, "[oracle] formula") for _, _, new in BAD_FORMULA
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
        for _, old, new in [("i_step", "i_step = 0.4", "i_step = fast"),
                            ("strides", None, "\n[search]\nstrides = 1 \u00b2 1\n"),
                            ("repeats", None, "\n[oracle]\nrepeats = 2\n"),
                            ("repeats", None, "\n[oracle]\nrepeats = 2.5\n"),
                            ("base_seed", None, "\n[oracle]\nbase_seed = -1\n"),
                            ("t_max", "duration = 16", "duration = 160"),
                            ("i_step", "i_step = 0.4", "i_step = 0"),
                            ("i_max", "i_max = 6.0", "i_max = 0.2"),
                            ("hold_tol", "hold_tol = 0.05", "hold_tol = 0"),
                            ("settle_deadline", "settle_deadline = 8", "settle_deadline = 70"),
                            ("p_step", "p_step = 1.0", "p_step = -1"),
                            ] + NON_FINITE + BAD_FORMULA + [case[:3] for case in
                                                            NOT_A_KEY + ORACLE_KIND]:
            text = edit(BASE_CONFIG, old, new)
            config.write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config)
            at = text.splitlines().index(new.strip().splitlines()[-1]) + 1
            assert re.search(rf"run\.ini:{at}: ", str(err.value)), new

    def test_error_points_at_the_key_in_its_own_section(self, config):
        # configparser lower-cases keys; the anchor must find them anyway, and
        # not stop at an earlier key whose name ends in the same word
        for tail, line, where in [
                ("\n[oracle]\nbase_seed = 4\n\n[noise]\nseed = 3\n", "seed = 3",
                 "[noise] seed"),
                ("\n[oracle]\nBase_Seed = 4\n\n[noise]\nSeed = 3\n", "Seed = 3",
                 "[noise] seed"),
                ("\n[oracle]\nWindow = 20\n", "Window = 20", "[oracle] window")]:
            text = BASE_CONFIG + tail
            config.write_text(text)
            with pytest.raises(ConfigError) as err:
                load_config(config)
            at = text.splitlines().index(line) + 1
            assert f"run.ini:{at}: {where}" in str(err.value)

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "run.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        app = load_config(path)
        assert (app.mission.mode, app.oracle.kind) == ("hold", "offline")
        assert app.formula is not None

    def test_configparsers_own_errors_keep_their_text(self, config):
        config.write_text(BASE_CONFIG.replace("a2 = 1.0", "a2 = 1.0\nA1 = 2.0"))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        # configparser names the file and line itself; no prefix is added
        assert str(err.value) == (f"While reading from '{config}' [line  4]: "
                                  "option 'a1' in section 'plant' already exists")


@pytest.fixture
def opened(monkeypatch):
    """The paths that open() and Path.open are called with from here on."""
    paths = []
    real = io.open

    def counting(file, *args, **kwargs):
        paths.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return paths


class TestReadOnce:
    """A run config is read once: the bytes parsed are the bytes hashed, and
    its errors are placed from the same lines."""

    def test_a_run_opens_its_config_once(self, config, tmp_path, opened):
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 0
        assert [os.fspath(path) for path in opened].count(str(config)) == 1

    def test_an_error_opens_the_config_once(self, config, opened):
        text = BASE_CONFIG + "\n[oracle]\nrepeat = 3\n"
        config.write_text(text)
        del opened[:]
        with pytest.raises(ConfigError, match=rf"run\.ini:{len(text.splitlines())}: "):
            load_config(config)
        assert opened == [config]

    def test_the_sidecar_hashes_the_bytes_parsed(self, config, tmp_path, monkeypatch):
        parsed = config.read_bytes()
        real = cli.ground_truth

        def then_edit(*args, **kwargs):
            grid = real(*args, **kwargs)
            config.write_text(BASE_CONFIG.replace("i_max = 6.0", "i_max = 8.0"))
            return grid

        monkeypatch.setattr(cli, "ground_truth", then_edit)
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 0
        assert config.read_bytes() != parsed
        assert (read_json(tmp_path / "gt.json")["config_sha256"]
                == hashlib.sha256(parsed).hexdigest())
        assert load_config(config).sha256 == hashlib.sha256(config.read_bytes()).hexdigest()

    def test_an_undecodable_config_is_a_config_error(self, config, tmp_path, capsys):
        config.write_bytes(b"[plant]\na1 = 1\xff\n")
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pidlab: {config}: ") and "0xff" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [config]

    def test_an_undecodable_sidecar_is_a_config_error(self, artifacts, tmp_path, capsys):
        gt, _ = artifacts
        side = gt.with_suffix(".json")
        side.write_bytes(b'{"kind": "\xff"}')
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pidlab: cannot read {side}: ") and "0xff" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_universal_newlines_place_errors_as_before(self, config):
        # a lone carriage return ends a line, as when open() read the file
        text = BASE_CONFIG.replace("\n", "\r") + "\r[oracle]\rrepeat = 3\r"
        config.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=rf"run\.ini:{text.count(chr(13))}: "):
            load_config(config)


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

    @pytest.mark.parametrize("old,new,fragment", [case[1:] for case in NOT_A_KEY],
                             ids=[case[0] for case in NOT_A_KEY])
    def test_unknown_section_or_key_exit_code(self, config, tmp_path, capsys,
                                              old, new, fragment):
        text = edit(BASE_CONFIG, old, new)
        config.write_text(text)
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 2
        at = text.splitlines().index(new.strip().splitlines()[-1]) + 1
        err = capsys.readouterr().err
        assert f"run.ini:{at}: " in err and fragment in err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("old,new,fragment", [
        ("i_step = 0.4", "i_step = 0", "[space] i_step must be > 0"),
        ("settle_deadline = 8\nduration = 16", "settle_deadline = 70\nduration = 60",
         "[mission] settle_deadline must satisfy 0 < settle_deadline < duration"),
    ], ids=["i_step", "settle_deadline"])
    def test_builder_error_exit_code_names_the_line(self, config, tmp_path, capsys,
                                                    old, new, fragment):
        text = edit(BASE_CONFIG, old, new)
        config.write_text(text)
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 2
        at = text.splitlines().index(new.splitlines()[0]) + 1
        err = capsys.readouterr().err
        assert f"run.ini:{at}: {fragment}" in err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("new", [case[2] for case in BAD_FORMULA],
                             ids=[case[0] for case in BAD_FORMULA])
    def test_refused_formula_exit_code(self, config, tmp_path, capsys, new):
        text = BASE_CONFIG + new
        config.write_text(text)
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 2
        at = text.splitlines().index(new.strip().splitlines()[-1]) + 1
        assert f"run.ini:{at}: [oracle] formula: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_negative_base_seed_exit_code(self, config, tmp_path, capsys):
        # numpy would refuse the negative noise seed mid-run
        config.write_text(BASE_CONFIG + "\n[noise]\nsensor_sigma = 0.01\n"
                          "\n[oracle]\nbase_seed = -1\n")
        assert main(["ground-truth", "--config", str(config),
                     "--out", str(tmp_path / "gt.csv")]) == 2
        assert "base_seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]


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

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_budget_below_one_is_config_error(self, config, tmp_path, capsys, budget):
        # a baseline with no budget would spend no query and write an empty CSV
        assert main(["search", "--config", str(config), "--algorithm", "random-fuzz",
                     "--out", str(tmp_path / "fuzz.csv"), "--budget", budget]) == 2
        assert "budget must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

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

    @pytest.mark.parametrize("new", [case[2] for case in BAD_FORMULA],
                             ids=[case[0] for case in BAD_FORMULA])
    def test_refused_formula_exit_code(self, config, tmp_path, capsys, new):
        text = BASE_CONFIG + new
        config.write_text(text)
        assert main(["search", "--config", str(config), "--algorithm", "boundary",
                     "--out", str(tmp_path / "bl.csv")]) == 2
        at = text.splitlines().index(new.strip().splitlines()[-1]) + 1
        assert f"run.ini:{at}: [oracle] formula: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_algorithm_is_usage_error(self, config, tmp_path):
        assert main(["search", "--config", str(config), "--algorithm",
                     "simulated-annealing", "--out", str(tmp_path / "x.csv"),
                     "--workers", "1"]) == 2


class TestEvalCommand:
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

    def test_strided_ground_truth_is_scored_on_its_sub_grid(self, config, tmp_path):
        config.write_text(BASE_CONFIG + "\n[search]\nstrides = 1 2 1\n")
        gt_path, bl_path, out = tmp_path / "gt.csv", tmp_path / "bl.csv", tmp_path / "m.json"
        assert main(["ground-truth", "--config", str(config), "--out", str(gt_path)]) == 0
        meta = read_json(tmp_path / "gt.json")
        assert meta["coverage"] == {"sampled": [1, 2, 1]}
        assert meta["labeled"] == 8 * 3  # every other ki of 15, every kd of 3
        assert main(["search", "--config", str(config), "--algorithm", "boundary",
                     "--out", str(bl_path)]) == 0
        assert main(["eval", "--gt", str(gt_path), "--result", str(bl_path),
                     "--out", str(out)]) == 0
        space = load_config(config).space
        expected = compute_metrics(
            grid_from_csv(gt_path, space, strides=(1, 2, 1)),
            region_from_boundary(boundary_from_csv(bl_path, space), space))
        got = read_json(out)
        assert (got["mr"], got["hr"], got["rs_size"]) == \
            (expected.mr, expected.hr, expected.rs_size)

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

    def test_result_kind_comes_from_its_sidecar(self, artifacts, tmp_path, capsys):
        # a ground-truth grid read as a config set would flag every labeled cell
        gt, bl = artifacts
        out = tmp_path / "m.json"
        for ground, result, flag in ((gt, gt, "--result"), (bl, bl, "--gt"),
                                     (bl, gt, "--gt")):
            assert main(["eval", "--gt", str(ground), "--result", str(result),
                         "--out", str(out)]) == 2
            assert f"{flag} {tmp_path}" in capsys.readouterr().err
            assert not out.exists()
        rewrite_sidecar(bl, lambda meta: meta.pop("kind"))
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert "sidecar's kind is None" in capsys.readouterr().err

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

    def test_an_empty_result_set_is_scored_with_a_note(self, artifacts, config, tmp_path,
                                                       capsys):
        gt, _ = artifacts
        found = tmp_path / "fuzz.csv"
        assert main(["search", "--config", str(config), "--algorithm", "random-fuzz",
                     "--out", str(found), "--budget", "3"]) == 0
        found.write_text(found.read_text().splitlines(keepends=True)[0])
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt), "--result", str(found),
                     "--out", str(out)]) == 0
        assert f"{'note':>22}: empty_result_set" in capsys.readouterr().out
        assert read_json(out)["flags"] == ["empty_result_set"]

    def test_truncated_ground_truth_refused(self, artifacts, tmp_path, capsys):
        gt, bl = artifacts
        lines = gt.read_text().splitlines(keepends=True)
        gt.write_text("".join(lines[:20]))
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert "holds 19 labels, but" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_given_twice_refused(self, artifacts, tmp_path, capsys):
        gt, bl = artifacts
        lines = gt.read_text().splitlines(keepends=True)
        kp, ki, kd, label = lines[1].rstrip().split(",")
        flipped = "invalid" if label == "valid" else "valid"
        gt.write_text("".join(lines) + f"{kp},{ki},{kd},{flipped}\r\n")
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert f"gt.csv:{len(lines) + 1}: cell" in capsys.readouterr().err
        assert not out.exists()

    def test_column_given_twice_refused(self, artifacts, tmp_path, capsys):
        gt, bl = artifacts
        lines = bl.read_text().splitlines(keepends=True)
        p, d = lines[1].split(",")[:2]
        # the union of both predictions would score MR 0.0571, not 0.0857
        bl.write_text("".join(lines) + f"{p},{d},all_invalid,\r\n")
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert (f"bl.csv:{len(lines) + 1}: column p={p}, d={d} is given twice"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_a_field_past_the_csv_field_limit_is_refused(self, artifacts, tmp_path,
                                                         capsys):
        gt, bl = artifacts
        lines = gt.read_text().splitlines(keepends=True)
        gt.write_text(lines[0] + "1,0.5,0," + "x" * 140_000 + "\r\n")
        out = tmp_path / "m.json"
        # csv.Error once escaped both commands as a traceback
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert "gt.csv:2: field larger than field limit" in capsys.readouterr().err
        assert main(["plot", "--out", str(tmp_path / "x.svg"), "--grid", str(gt)]) == 2
        assert "gt.csv:2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_ground_truth_refused(self, artifacts, tmp_path, capsys, bad):
        gt, bl = artifacts
        lines = gt.read_text().splitlines(keepends=True)
        lines[5] = bad + lines[5][lines[5].index(","):]
        gt.write_text("".join(lines))
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert f"gt.csv:6: kp={bad} is not on the grid" in capsys.readouterr().err


def rewrite_sidecar(csv_path, change):
    side = csv_path.with_suffix(".json")
    meta = read_json(side)
    change(meta)
    side.write_text(json.dumps(meta))


MALFORMED_SIDECARS = [
    ("no space", lambda meta: meta.pop("space"), "no 'space' object"),
    ("space without p_max", lambda meta: meta["space"].pop("p_max"),
     "'space' has no key 'p_max'"),
    ("space with a non-number", lambda meta: meta["space"].update(i_step="wide"),
     "bad 'space'"),
    ("space with a number too large for a float",
     lambda meta: meta["space"].update(p_min=10**400), "bad 'space'"),
    ("coverage without sampled", lambda meta: meta.update(coverage={"strided": [1, 1, 1]}),
     "'coverage' must be"),
    ("coverage with two strides", lambda meta: meta.update(coverage={"sampled": [1, 2]}),
     "'coverage' must be"),
]


class TestMalformedSidecars:
    """A sidecar of the wrong shape is a config error (exit 2), not a traceback."""

    @pytest.mark.parametrize("change,fragment",
                             [case[1:] for case in MALFORMED_SIDECARS],
                             ids=[case[0] for case in MALFORMED_SIDECARS])
    def test_eval(self, artifacts, tmp_path, capsys, change, fragment):
        gt, bl = artifacts
        rewrite_sidecar(gt, change)
        rewrite_sidecar(bl, change)
        out = tmp_path / "m.json"
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,fragment",
                             [case[1:] for case in MALFORMED_SIDECARS],
                             ids=[case[0] for case in MALFORMED_SIDECARS])
    def test_plot(self, artifacts, tmp_path, capsys, change, fragment):
        gt, _ = artifacts
        rewrite_sidecar(gt, change)
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plant", [{"a2": 1.0}, {"a1": 1.0}, {"a1": "x", "a2": 1.0},
                                       [1.0, 1.0], {"a1": 10**400, "a2": 1.0}])
    def test_plot_plant_without_coefficients(self, artifacts, tmp_path, capsys, plant):
        gt, bl = artifacts
        rewrite_sidecar(bl, lambda meta: meta.update(plant=plant))
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--boundary", str(bl)]) == 2
        assert "'plant' needs numbers a1 and a2" in capsys.readouterr().err
        # flags on the command line take the sidecar's place
        assert main(["plot", "--out", str(out), "--boundary", str(bl),
                     "--a1", "1", "--a2", "1"]) == 0

    def test_not_json(self, artifacts, tmp_path, capsys):
        gt, bl = artifacts
        gt.with_suffix(".json").write_text('{"kind": ')
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert (f"cannot read {gt.with_suffix('.json')}: Expecting value"
                in capsys.readouterr().err)

    def test_not_an_object(self, artifacts, tmp_path, capsys):
        gt, bl = artifacts
        gt.with_suffix(".json").write_text("[1, 2]")
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "expected a JSON object" in capsys.readouterr().err


class TestPlotCommand:
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

    @pytest.mark.parametrize("flag", ["--a1", "--a2"])
    def test_one_plant_coefficient_is_config_error(self, artifacts, tmp_path, capsys,
                                                   flag):
        # the other would come from nowhere, and the theory line would go
        gt, _ = artifacts
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt), flag, "2"]) == 2
        assert "--a1 and --a2 go together" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("a1", ["nan", "inf", "-inf"])
    def test_non_finite_plant_coefficient_is_config_error(self, artifacts, tmp_path,
                                                          capsys, a1):
        # theoretical_boundary has no line for it, so the plot would drop it
        gt, _ = artifacts
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt),
                     "--a1", a1, "--a2", "1"]) == 2
        assert "--a1 and --a2 must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_p_is_off_the_grid(self, artifacts, tmp_path, capsys, p):
        gt, _ = artifacts
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt), "--p", p]) == 2
        assert f"kp={float(p)!r} is not on the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_p_with_an_exponent_plots(self, tmp_path):
        shifted = tmp_path / "shifted.ini"
        shifted.write_text(BASE_CONFIG.replace("p_min = 2.0", "p_min = -0.001")
                           .replace("p_max = 2.0", "p_max = 0.999"))
        gt = tmp_path / "gt.csv"
        assert main(["ground-truth", "--config", str(shifted), "--out", str(gt),
                     "--workers", "1"]) == 0
        for argv in (["--p", "-1e-3"], ["--p=-1e-3"], ["--p", "-1e-3", "--a1", "-5e-1",
                                                       "--a2", "-2e0"]):
            out = tmp_path / "plane.svg"
            assert main(["plot", "--out", str(out), "--grid", str(gt), *argv]) == 0
            assert out.read_text().startswith("<svg")
            out.unlink()

    def test_negative_infinite_p_is_off_the_grid(self, artifacts, tmp_path, capsys):
        gt, _ = artifacts
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt), "--p", "-inf"]) == 2
        assert "kp=-inf is not on the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_refused(self, artifacts, tmp_path, capsys):
        gt, _ = artifacts
        gt.write_text("kp,ki,kd,label\n")
        assert main(["plot", "--out", str(tmp_path / "x.svg"),
                     "--grid", str(gt)]) == 2
        assert "holds 0 labels" in capsys.readouterr().err
        # a sidecar that records no count lets the empty grid through to plot
        rewrite_sidecar(gt, lambda meta: meta.pop("labeled"))
        assert main(["plot", "--out", str(tmp_path / "x.svg"),
                     "--grid", str(gt)]) == 2
        assert f"{gt} contains no labeled configs" in capsys.readouterr().err

    def test_malformed_boundary_refused(self, artifacts, tmp_path, capsys):
        _, bl = artifacts
        lines = bl.read_text().splitlines(keepends=True)
        bl.write_text(lines[0] + "2,0.2\r\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--boundary", str(bl)]) == 2
        assert "bl.csv:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_from_another_grid_refused(self, artifacts, config, tmp_path, capsys):
        gt, _ = artifacts
        wider = tmp_path / "wider.ini"
        wider.write_text(BASE_CONFIG.replace("i_max = 6.0", "i_max = 8.0"))
        bl = tmp_path / "wide.csv"
        assert main(["search", "--config", str(wider), "--algorithm", "boundary",
                     "--out", str(bl)]) == 0
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt),
                     "--boundary", str(bl)]) == 2
        assert "grid and boundary were produced on different grids" in capsys.readouterr().err
        assert not out.exists()
        # as eval refuses the same pair
        assert main(["eval", "--gt", str(gt), "--result", str(bl),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "were produced on different grids" in capsys.readouterr().err


class TestArgumentHandling:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_an_option_after_p_is_not_its_value(self, artifacts, tmp_path, capsys):
        # only a word that float() reads is attached to --p as its value
        gt, _ = artifacts
        out = tmp_path / "x.svg"
        assert main(["plot", "--out", str(out), "--grid", str(gt), "--p", "-x"]) == 2
        assert "argument --p: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2", "two", "2"])
    def test_workers_below_one_is_usage_error(self, config, tmp_path, workers):
        assert main(["search", "--config", str(config), "--algorithm",
                     "boundary", "--out", str(tmp_path / "bl.csv"),
                     "--workers", workers]) == 2
        assert not (tmp_path / "bl.csv").exists()
