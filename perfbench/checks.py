"""Output checks: operation accounting and digests of the files a pass writes.

Each CLI call or library stage of a pass is one operation. It fails when it
raises, when a CLI call exits non-zero, or when one of its outputs does not
match what this benchmark recorded for the same seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path

# Sidecar fields that change from run to run on identical inputs.
VOLATILE_KEYS = ("created_at", "wall_time_s")


def file_digest(path):
    """sha256 of a CSV's bytes, or of a JSON file with VOLATILE_KEYS removed."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        for key in VOLATILE_KEYS:
            payload.pop(key, None)
        data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def value_digest(value):
    """sha256 of a JSON-serialisable value written canonically."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class OutputMismatch(Exception):
    pass


class Ops:
    """Counts attempted and failed operations of a run.

    expected maps output names to digests recorded for this seed; with
    expected=None every digest is accepted and collected in `produced`,
    which is how the recorded digests are made.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.produced = {}
        self.attempted = 0
        self.failed = 0

    def op(self, name):
        return _Op(self, name)

    def fail(self, name, reason):
        self.failed += 1
        print(f"perfbench: operation {name!r} failed: {reason}", file=sys.stderr)


class _Op:
    def __init__(self, ops, name):
        self.ops = ops
        self.name = name

    def expect(self, ok, message):
        if not ok:
            raise OutputMismatch(message)

    def output(self, key, digest):
        """Check one produced output's digest against the recorded one."""
        self.ops.produced[key] = digest
        if self.ops.expected is None:
            return
        want = self.ops.expected.get(key)
        self.expect(want == digest,
                    f"{key}: digest {digest[:12]} != recorded {str(want)[:12]}")

    def output_file(self, key, path):
        self.output(key, file_digest(path))

    def __enter__(self):
        self.ops.attempted += 1
        return self

    def __exit__(self, kind, exc, tb):
        if not isinstance(exc, Exception):
            return False
        if isinstance(exc, OutputMismatch):
            self.ops.fail(self.name, exc)
        else:
            self.ops.fail(self.name, "".join(traceback.format_exception(kind, exc, tb)))
        return True
