"""pidlab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports pidlab from the src/ of the checkout this file sits in (and refuses
any other copy), runs one workload (see workloads.py) as harness.py
describes, and prints a readable report followed by one JSON result line:
{"correct", "attempted", "failed", "metrics"}. Metric names and units come
from BENCHMARK.json at the checkout root: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pidlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_pidlab():
    """Put this checkout's src/ first on the path and check pidlab came from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pidlab

    if src.resolve() not in Path(pidlab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: pidlab imported from {pidlab.__file__}, not {src}")


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    import_pidlab()
    import harness

    print(json.dumps(harness.run(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
