import weakref

import pytest

from pidlab import plant as plant_module
from pidlab import validator as validator_module


@pytest.fixture(autouse=True)
def clean_counter(monkeypatch):
    """Start each test with the oracle query count at 0."""
    monkeypatch.setattr(validator_module, "_queries", 0)


@pytest.fixture
def python_engine(monkeypatch):
    """Run the test on simulate's Python loop, as on a platform where no
    compiled kernel loads: there the validator batches BATCH_MIN new pids
    or more through simulate_batch and runs fewer one at a time on
    simulate, so the route counts a test pins hold on every machine."""
    monkeypatch.setattr(plant_module, "_engine", plant_module._python_steps)


@pytest.fixture
def kernel_engine():
    """Skip the test where simulate's compiled kernel does not load."""
    if not plant_module.compiled():
        pytest.skip("no compiled kernel loads here (tests/test_kernel.py says why)")


@pytest.fixture
def freed_runs(monkeypatch):
    """Check that no earlier run is alive when the validator builds a run.

    Each simulate and simulate_batch call asserts that every trajectory
    built before it, and every earlier batch's x/v array, has been freed.
    Returns, by name, the number of calls of each.
    """
    refs = []
    calls = {"simulate": 0, "simulate_batch": 0}
    real, real_batch = validator_module.simulate, validator_module.simulate_batch

    def alive():
        return sum(ref() is not None for ref in refs)

    def simulate(plant, pid, mission, **kwargs):
        assert alive() == 0, "an earlier run is still alive"
        calls["simulate"] += 1
        traj = real(plant, pid, mission, **kwargs)
        refs.append(weakref.ref(traj.x))
        return traj

    def simulate_batch(plant, pids, mission):
        assert alive() == 0, "an earlier run or batch's array is still alive"
        calls["simulate_batch"] += 1
        for traj in real_batch(plant, pids, mission):
            refs.append(weakref.ref(traj.x.base))
            yield traj

    monkeypatch.setattr(validator_module, "simulate", simulate)
    monkeypatch.setattr(validator_module, "simulate_batch", simulate_batch)
    return calls
