"""simulate's compiled kernel: it loads where a C compiler is on PATH, and
every way it can fail to load leaves simulate on its Python loop, with the
same bits, no warning and no temporary file left behind."""

import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from pidlab import NoiseSpec, PidConfig, PlantModel, kernel, return_home_mission, simulate
from pidlab import plant as plant_module

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")

PLANT = PlantModel(noise=NoiseSpec(sensor_sigma=0.03, disturbance_amp=0.4,
                                   disturbance_freq=0.7, seed=9))
MISSION = return_home_mission(out_t=2.0, return_t=2.0, settle_deadline=5.0, duration=6.0)
GAINS = (PidConfig(1, 0.5, 1), PidConfig(-50, 100, -50), PidConfig(1e6, 1e6, 1e6))


@pytest.fixture
def loader(tmp_path, monkeypatch):
    """A fresh first run: simulate looks for its engine again, kernel.load
    builds into tmp_path/cache, and tempfile makes its files in
    tmp_path/tmp. Returns the two directories."""
    cache, tmp = tmp_path / "cache", tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(plant_module, "_engine", None)
    monkeypatch.setattr(kernel, "CACHE", cache)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return cache, tmp


def python_runs(stops=()):
    """The Python loop's runs of GAINS, with decided never accepting."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plant_module, "_engine", plant_module._python_steps)
        return [simulate(PLANT, pid, MISSION, stops=stops, decided=lambda run: False)
                for pid in GAINS]


def first_runs():
    """Each GAINS run on an engine found afresh, paused at sample 200 and
    not, and the engine; no warning may be raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [simulate(PLANT, pid, MISSION, stops=stops, decided=lambda run: False)
                for stops in ((), (200,)) for pid in GAINS]
    return runs, plant_module._engine


def assert_python_bits(runs):
    for got, want in zip(runs, python_runs() + python_runs((200,))):
        for name in "txvre":
            a, b = getattr(got, name), getattr(want, name)
            assert a.tobytes() == b.tobytes(), name


def files(directory):
    return sorted(path.name for path in directory.iterdir()) if directory.exists() else []


@needs_cc
def test_the_kernel_loads_and_passes_its_self_check(monkeypatch):
    # the real cache: a broken _rk4.c cannot hide behind the Python loop
    monkeypatch.setattr(plant_module, "_engine", None)
    engine = plant_module._find_engine()
    assert engine is not plant_module._python_steps
    assert plant_module._agrees(engine)
    runs, _ = first_runs()
    assert_python_bits(runs)


@needs_cc
def test_a_cold_build_installs_one_whole_library(loader):
    cache, tmp = loader
    runs, engine = first_runs()
    assert engine is not plant_module._python_steps
    assert_python_bits(runs)
    (name,) = files(cache)
    assert name.startswith("_rk4.") and name.endswith(".so")
    assert files(tmp) == []
    # a second first run loads the cached library and builds nothing
    built = (cache / name).stat().st_mtime_ns
    plant_module._engine = None
    _, engine = first_runs()
    assert engine is not plant_module._python_steps
    assert (cache / name).stat().st_mtime_ns == built


def test_no_compiler(loader, tmp_path, monkeypatch):
    cache, tmp = loader
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    runs, engine = first_runs()
    assert engine is plant_module._python_steps
    assert_python_bits(runs)
    assert files(cache) == files(tmp) == []


@needs_cc
def test_a_compile_error(loader, tmp_path, monkeypatch):
    cache, tmp = loader
    source = tmp_path / "_rk4.c"
    source.write_text(kernel.SOURCE.read_text().replace("double xv,", "double xv"))
    monkeypatch.setattr(kernel, "SOURCE", source)
    runs, engine = first_runs()
    assert engine is plant_module._python_steps
    assert_python_bits(runs)
    assert files(cache) == files(tmp) == []


@needs_cc
def test_a_kernel_that_fails_the_self_check(loader, tmp_path, monkeypatch):
    cache, tmp = loader
    # the same terms of stage 1's acceleration, summed in another order
    text = kernel.SOURCE.read_text()
    stage1 = "acc1 = kp * e1 + ki * q + kd * (rd0 - v) + u0 - a2 * v - a1 * x;"
    assert stage1 in text
    source = tmp_path / "_rk4.c"
    source.write_text(text.replace(
        stage1, "acc1 = kp * e1 + ki * q + kd * (rd0 - v) + u0 - (a2 * v + a1 * x);"))
    monkeypatch.setattr(kernel, "SOURCE", source)
    assert kernel.load() is not None  # it builds and loads; only the check refuses it
    runs, engine = first_runs()
    assert engine is plant_module._python_steps
    assert_python_bits(runs)
    assert len(files(cache)) == 1 and files(tmp) == []


@pytest.mark.parametrize("temporary", [True, False], ids=["tmp", "no_tmp"])
def test_an_unwritable_cache(loader, tmp_path, monkeypatch, temporary):
    # a directory under a regular file cannot be made, even by root
    _, tmp = loader
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(kernel, "CACHE", tmp_path / "file" / "__pycache__")
    if not temporary:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file" / "tmp"))
    runs, engine = first_runs()
    # built and loaded in a private temporary directory, which is gone
    assert (engine is not plant_module._python_steps) == (HAS_CC and temporary)
    assert_python_bits(runs)
    assert files(tmp) == []


@pytest.mark.parametrize("keep", [0, 100, 0.5, -1], ids=["empty", "header", "half", "digest"])
@pytest.mark.parametrize("compiler", [True, False], ids=["cc", "no_cc"])
def test_a_truncated_cached_library(loader, tmp_path, monkeypatch, keep, compiler):
    """Loading a truncated library can end the process with SIGBUS, so a
    cached library whose digest does not match is built again, and left
    alone where it cannot be."""
    if not HAS_CC:
        pytest.skip("no C compiler on PATH to build the library to truncate")
    cache, tmp = loader
    whole = tmp_path / "whole.so"
    assert kernel._build(whole)
    data = whole.read_bytes()
    cut = data[:int(len(data) * keep) if isinstance(keep, float) else keep]
    # the name load looks for, found by a build elsewhere that is not loaded again
    monkeypatch.setattr(kernel, "CACHE", tmp_path / "named")
    kernel.load()
    (name,) = files(tmp_path / "named")
    cache.mkdir()
    (cache / name).write_bytes(cut)
    monkeypatch.setattr(kernel, "CACHE", cache)
    plant_module._engine = None
    if not compiler:
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    runs, engine = first_runs()
    assert (engine is not plant_module._python_steps) == compiler
    assert_python_bits(runs)
    assert files(cache) == [name] and files(tmp) == []
    assert (cache / name).read_bytes() == (data if compiler else cut)


def test_importing_pidlab_builds_and_loads_nothing(tmp_path):
    # numpy imports ctypes itself, so the test is that pidlab.kernel is not
    # imported and no engine was looked for
    src = Path(plant_module.__file__).parent.parent
    code = ("import sys, pidlab\n"
            "from pidlab import plant\n"
            "print('pidlab.kernel' in sys.modules, plant._engine)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={"PYTHONPATH": str(src), "PATH": ""})
    assert (done.returncode, done.stdout) == (0, "False None\n"), done.stderr


@needs_cc
def test_the_engine_refuses_inputs_that_do_not_fit_the_run(monkeypatch):
    monkeypatch.setattr(plant_module, "_engine", None)
    engine = plant_module._find_engine()
    assert engine is not plant_module._python_steps
    _, _, _, steps = plant_module._inputs(PLANT, MISSION)
    n = len(steps[0]) + 1
    coefficients = (1.0, 0.5, 1.0, 1.0, 1.0, 0.01, plant_module.CLAMP)
    xs, vs = np.zeros(n), np.zeros(n)
    bad = [
        (steps[:9], xs, vs, (n - 1,)),
        ((steps[0][:-1], *steps[1:]), xs, vs, (n - 1,)),
        ((steps[0].astype(np.float32), *steps[1:]), xs, vs, (n - 1,)),
        (steps, xs[:-1], vs, (n - 1,)),
        (steps, xs, np.zeros(2 * n)[::2], (n - 1,)),
        (steps, xs, steps[1].base[:n], (n - 1,)),
        (steps, xs, vs, (5, 3, n - 1)),
        (steps, xs, vs, (-1, n - 1)),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            list(engine(coefficients, *args))


def test_the_package_data_ships_the_kernel_source():
    # without the entry an installed pidlab has no _rk4.c and runs the Python loop
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(plant_module.__file__).parents[2]
    config = tomllib.loads((root / "pyproject.toml").read_text())
    assert config["tool"]["setuptools"]["package-data"]["pidlab"] == [kernel.SOURCE.name]
