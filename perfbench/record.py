"""Regenerate the benchmark's recorded fixtures from the pidlab in src/.

    python3 perfbench/record.py fixtures   # ground truth and online verdicts
    python3 perfbench/record.py digests    # output digests per shipped seed

`fixtures` labels the full 40x40 disturbed plane at base_seed 0 (the ground
truth the search workload scores against) and records compare_oracles'
verdicts for test_08's 100 configs under the lap and hold specs. `digests`
runs one pass of every digest-checked workload per shipped seed and stores
what it wrote. Run `fixtures` before `digests`: the search workload's
metrics files depend on the ground truth. Recording is only valid from a
commit whose outputs are known to be right; a later change that alters an
output must explain why before re-recording.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record_fixtures(workloads, pidlab):
    from pidlab import cli

    scratch = workloads.OUT / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    config = scratch / "plane_full.ini"
    workloads.write_seeded_config(config, 0, strides="1 1 1")
    code = cli.main(["ground-truth", "--config", str(config),
                     "--out", str(workloads.GT_FIXTURE), "--workers", "1"])
    if code != 0:
        raise SystemExit(f"ground-truth exited {code}")

    online = workloads.OnlineLapCircle
    configs = [pidlab.PidConfig(p, i, d)
               for p in (0.2, 0.5, 1.0, 2.0, 4.0)
               for i in (0.05, 0.1, 0.3, 1.0, 3.0)
               for d in (0.2, 0.6, 1.2, 2.5)]
    lap = pidlab.compare_oracles(configs, online.circle, online.plant,
                                 window=online.window, formula=online.lap_spec)
    hold = pidlab.compare_oracles(configs, online.hold, online.plant, window=online.window)
    with open(workloads.ONLINE_FIXTURE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kp", "ki", "kd", *workloads.VERDICT_COLUMNS])
        for pid, a, b in zip(configs, lap.rows, hold.rows):
            writer.writerow(["%.9g" % pid.kp, "%.9g" % pid.ki, "%.9g" % pid.kd,
                             *("valid" if v else "invalid" for v in a[1:] + b[1:])])


def record_digests(workloads, checks):
    table = {}
    for cls in (workloads.LabelHoldDisturbed, workloads.SearchHoldDisturbed,
                workloads.RouthGrid3d):
        seeds = range(workloads.SHIPPED_SEEDS) if cls.uses_seed else (0,)
        for seed in seeds:
            workload = cls(seed)
            workload.setup()
            ops = checks.Ops(expected=None)
            workload.run_pass(ops, workloads.PassClock(calibrate=False))
            if ops.failed:
                raise SystemExit(f"{cls.name} seed {seed}: {ops.failed} operations failed")
            table.setdefault(cls.name, {})[str(seed)] = ops.produced
            print(f"recorded {cls.name} seed {seed}", flush=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="record perfbench fixtures")
    parser.add_argument("what", choices=("fixtures", "digests"))
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import pidlab
    import workloads

    if args.what == "fixtures":
        record_fixtures(workloads, pidlab)
    else:
        record_digests(workloads, checks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
