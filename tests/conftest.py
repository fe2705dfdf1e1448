import weakref

import pytest

from pidlab import validator as validator_module


@pytest.fixture
def freed_runs(monkeypatch):
    """Check that no earlier run is alive when the validator simulates.

    Each simulate call asserts that every trajectory it built before has
    been freed, and each simulate_batch call the same of every earlier
    call's x/v array.
    Returns the number of simulate and simulate_batch calls, by name.
    """
    refs = []
    calls = {"simulate": 0, "simulate_batch": 0}
    real, real_batch = validator_module.simulate, validator_module.simulate_batch

    def alive():
        return sum(ref() is not None for ref in refs)

    def simulate(plant, pid, mission):
        assert alive() == 0, "an earlier run is still alive"
        calls["simulate"] += 1
        traj = real(plant, pid, mission)
        refs.append(weakref.ref(traj.x))
        return traj

    def simulate_batch(plant, pids, mission):
        assert alive() == 0, "an earlier batch's array is still alive"
        calls["simulate_batch"] += 1
        for traj in real_batch(plant, pids, mission):
            refs.append(weakref.ref(traj.x.base))
            yield traj

    monkeypatch.setattr(validator_module, "simulate", simulate)
    monkeypatch.setattr(validator_module, "simulate_batch", simulate_batch)
    return calls
