"""simulate's step loop compiled: build _rk4.c with the platform's C
compiler on first use, load it with ctypes, and wrap it as an engine with
the signature of plant._python_steps.

The library is built once per source, flags and platform, as
__pycache__/_rk4.<sha256 of the three>.so beside this file: it is written
under a temporary name and then os.replace'd into place, so a process never
loads a half-written one, and two processes that build at once each
install a whole library. The compiler's output is followed by its own
sha256, and a cached library whose bytes do not match it is built again,
since loading a truncated shared library can kill the process with SIGBUS
instead of raising. Where __pycache__ cannot be written, the library is
built and loaded in a private temporary directory, which is removed once
it is loaded.

plant imports this module on the first simulate call, so importing pidlab
imports no ctypes and compiles nothing; plant also checks the kernel
against its Python loop before first use. Where no kernel loads, load
returns None and simulate keeps the Python loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_rk4.c")
CACHE = SOURCE.with_name("__pycache__")

# -ffp-contract=off: no a * b + c fused into one multiply-add, rounded once
# where Python rounds twice; -fno-fast-math: no reassociation or other
# rewrite that IEEE arithmetic does not allow.
COMMAND = ("cc", "-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-fast-math")

_DIGEST = hashlib.sha256().digest_size

_double_p = ctypes.POINTER(ctypes.c_double)
_ARGTYPES = (ctypes.c_ssize_t, ctypes.c_ssize_t, _double_p, _double_p,
             ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_ssize_t),
             ctypes.c_void_p, ctypes.c_void_p)


def load():
    """The compiled engine, a generator function of the signature of
    plant._python_steps, or None where there is no source or compiler, the
    build fails, or the library does not load."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(b"\0".join([source, " ".join(COMMAND).encode(),
                                     sysconfig.get_platform().encode()])).hexdigest()
    name = f"_rk4.{key}.so"
    try:
        built = _intact(CACHE / name) or _install(CACHE, name)
        step = _open(CACHE / name) if built else None
    except OSError:  # CACHE cannot be read or written
        step = _private(name)
    return None if step is None else _wrap(step)


def _private(name):
    """rk4_steps of the library built as name in a private temporary
    directory, removed once it is loaded; None where it does not build or
    load, or there is no temporary directory to write."""
    try:
        with tempfile.TemporaryDirectory() as private:
            path = Path(private) / name
            return _open(path) if _build(path) else None
    except OSError:
        return None


def _intact(path):
    """Whether path holds a library followed by its own sha256."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    return (len(data) > _DIGEST
            and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:])


def _open(path):
    """rk4_steps of the library at path, or None where it does not load."""
    try:
        step = ctypes.CDLL(str(path)).rk4_steps
    except (OSError, AttributeError):
        return None
    step.argtypes = _ARGTYPES
    step.restype = None
    return step


def _install(cache, name):
    """Build the library as cache/name, through a temporary file in cache;
    whether it was built. OSError where cache cannot be written."""
    cache.mkdir(exist_ok=True)
    fd, temporary = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        if not _build(Path(temporary)):
            return False
        os.replace(temporary, cache / name)
        return True
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def _build(path):
    """Compile SOURCE to path and append the output's sha256; whether the
    compiler ran and succeeded."""
    import subprocess  # only a cold build needs it, and it weighs 0.5 MB

    try:
        done = subprocess.run([*COMMAND, "-o", str(path), str(SOURCE)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except OSError:  # no compiler
        return False
    if done.returncode != 0:
        return False
    with open(path, "r+b") as library:
        library.write(hashlib.sha256(library.read()).digest())
    return True


def _wrap(step):
    def engine(coefficients, steps, xs, vs, ends):
        """plant._python_steps through rk4_steps, one call per end."""
        last = ends[-1] if ends else 0
        if len(steps) != 10:
            raise ValueError("the step inputs are ten arrays")
        for array in steps:
            if array.dtype != np.float64 or array.shape != (last,) or array.strides[0] % 8:
                raise ValueError("each step input must be a float64 array of one entry per step")
        for array in (xs, vs):
            if (array.dtype != np.float64 or array.shape != (last + 1,)
                    or not (array.flags.c_contiguous and array.flags.writeable)):
                raise ValueError("xs and vs must be writable float64 arrays of one entry per sample")
        inputs = (ctypes.c_void_p * 10)(*(array.ctypes.data for array in steps))
        strides = (ctypes.c_ssize_t * 10)(*(array.strides[0] // 8 for array in steps))
        c = (ctypes.c_double * 7)(*coefficients)
        state = (ctypes.c_double * 3)()
        x_at, v_at = xs.ctypes.data, vs.ctypes.data
        start = 0
        for end in ends:
            if not start <= end <= last:
                raise ValueError("ends must increase up to the step count")
            step(start, end, state, c, inputs, strides, x_at, v_at)
            yield end
            start = end

    return engine
