"""Command line front end.

Subcommands: ground-truth, search, eval, plot. Exit codes: 0 on success,
2 for usage or config problems, 3 for I/O failures. Data files are CSV with
a JSON metadata sidecar (same stem, .json suffix) carrying the grid, the
oracle settings, seeds, query counts and a config hash so runs can be
reproduced and compared byte for byte (timestamps aside).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import inspect
import io
import json
import math
import sys
import time
from collections import namedtuple
from dataclasses import asdict, fields
from datetime import datetime, timezone
from operator import countOf
from pathlib import Path

from . import __version__
from .evalkit import (INVALID, compute_metrics, configs_from_csv, configs_to_csv,
                      grid_from_csv, grid_to_csv, ground_truth,
                      region_from_boundary)
from .mtl import MtlSyntaxError, parse_formula
from .plant import MODES, NoiseSpec, PlantModel, sample_count
from .search import (ParamSpace, boundary_from_csv, boundary_to_csv,
                     genetic_search, hill_climb, identify_boundary, random_fuzz)
from .stability import theoretical_boundary
from .svgplot import render_plane
from .validator import OracleConfig, SimulationValidator, query_count

ALGORITHMS = ("boundary", "boundary-dsoff", "random-fuzz", "hill-climb", "genetic")

class ConfigError(Exception):
    """Configuration problem. An error in a run config's values names their
    section, and the key where there is one; load_config prefixes it with
    path:line, the line of the key or else of the section's header, or
    with path alone where the file has no such line."""

    def __init__(self, message, section=None, key=None):
        self.section = section
        self.key = key
        super().__init__(message)


def _find_line(lines, section, key):
    current = None
    for lineno, text in enumerate(lines, start=1):
        header = configparser.ConfigParser.SECTCRE.match(text.strip())
        if header:
            current = header.group("header")
            if key is None and current == section:
                return lineno
        elif (current == section  # configparser lower-cases keys
              and text.split("=")[0].split(":")[0].strip().lower() == key):
            return lineno
    return None


def _keys(cls, *skip):
    """The constructor arguments of dataclass cls, apart from skip."""
    return tuple(f.name for f in fields(cls) if f.init and f.name not in skip)


# The sections of a run configuration and the keys each takes; [mission] also
# takes the keys of its mode's builder. Defaults are those of the dataclass or
# builder a key feeds. Any other section or key is a config error.
_SECTIONS = {
    "plant": _keys(PlantModel, "noise"),
    "noise": _keys(NoiseSpec, "seed"),
    "mission": ("mode",),
    "space": _keys(ParamSpace),
    "oracle": _keys(OracleConfig) + ("formula",),
    "search": ("strides",),
}


def _check_keys(cp, sections):
    """Reject any section or key that sections does not list, and any
    [DEFAULT] entry, which every section would inherit."""
    for key in cp.defaults():
        raise ConfigError(f"[DEFAULT] {key}: the DEFAULT section takes no keys",
                          "DEFAULT", key)
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"[{section}] is not a config section; the sections are "
                              + ", ".join(f"[{name}]" for name in sections),
                              section)
        for key in cp.options(section):
            if key not in sections[section]:
                moved = (" (the oracle seeds each run from [oracle] base_seed)"
                         if (section, key) == ("noise", "seed") else "")
                raise ConfigError(f"[{section}] {key} is not a config key{moved}; "
                                  f"[{section}] takes {', '.join(sections[section])}",
                                  section, key)


def _get_float(cp, section, key):
    if not cp.has_option(section, key):
        raise ConfigError(f"[{section}] is missing required key '{key}'", section, key)
    raw = cp.get(section, key)
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}",
                          section, key)
    return val


def _get_int(cp, section, key):
    val = _get_float(cp, section, key)
    if val != int(val):
        raise ConfigError(f"[{section}] {key} must be an integer", section, key)
    return int(val)


def _floats(cp, section, keys):
    """{key: value} of those of keys that section sets."""
    return {key: _get_float(cp, section, key)
            for key in keys if cp.has_option(section, key)}


def _build(section, make, kwargs):
    """make(**kwargs), its ValueError raised as a ConfigError at the line of
    the key that the message starts with, if it starts with one."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}", section, str(exc).partition(" ")[0]) from exc


# A parsed run configuration; sha256 is that of the bytes parsed.
AppConfig = namedtuple("AppConfig", "plant mission space oracle formula strides sha256")


def load_config(path):
    """Parse the INI-style run configuration, read once: the bytes parsed
    are the bytes hashed, and an error is placed at path:line from the
    lines parsed. Raises ConfigError."""
    cp = configparser.ConfigParser()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # decoded as open(path) decodes: the locale's encoding, universal newlines
        lines = list(io.TextIOWrapper(io.BytesIO(data)))
        cp.read_file(lines, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return _parse(cp, hashlib.sha256(data).hexdigest())
    except ConfigError as exc:
        line = _find_line(lines, exc.section, exc.key)
        raise ConfigError(f"{path}:{line}: {exc}" if line else f"{path}: {exc}") from exc


def _parse(cp, sha256):
    """The AppConfig of the parsed cp; a ConfigError names no file."""
    for section in ("plant", "mission", "space"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    mode = cp.get("mission", "mode", fallback=None)
    if mode not in MODES:
        raise ConfigError(f"[mission] mode must be one of {sorted(MODES)}, "
                          f"got {mode!r}", "mission", "mode")
    builder = MODES[mode]
    mission_keys = tuple(inspect.signature(builder).parameters)
    _check_keys(cp, {**_SECTIONS, "mission": _SECTIONS["mission"] + mission_keys})

    noise = _build("noise", NoiseSpec, _floats(cp, "noise", _SECTIONS["noise"]))
    plant = _build("plant", PlantModel,
                   dict(_floats(cp, "plant", _SECTIONS["plant"]), noise=noise))
    mission = _build("mission", builder, _floats(cp, "mission", mission_keys))
    try:
        sample_count(plant, mission)  # simulate refuses a mission past t_max
    except ValueError as exc:
        raise ConfigError(f"[mission] duration: {exc}", "mission", "duration") from exc
    space = _build("space", ParamSpace, {key: _get_float(cp, "space", key)
                                         for key in _SECTIONS["space"]})
    settings = {key: _get_int(cp, "oracle", key)
                for key in ("window", "repeats", "base_seed")
                if cp.has_option("oracle", key)}
    if cp.has_option("oracle", "kind"):
        settings["kind"] = cp.get("oracle", "kind")
    oracle = _build("oracle", OracleConfig, settings)
    formula = None
    if cp.has_option("oracle", "formula"):
        try:
            formula = parse_formula(cp.get("oracle", "formula"))
        except MtlSyntaxError as exc:
            raise ConfigError(f"[oracle] formula: {exc}", "oracle", "formula") from exc
    return AppConfig(plant, mission, space, oracle, formula, _parse_strides(cp), sha256)


def _parse_strides(cp):
    if not cp.has_option("search", "strides"):
        return (1, 1, 1)
    raw = cp.get("search", "strides")
    parts = raw.replace(",", " ").split()
    if len(parts) != 3 or not all(p.isdecimal() and int(p) >= 1 for p in parts):
        raise ConfigError(f"[search] strides must be three positive integers, "
                          f"got {raw!r}", "search", "strides")
    return tuple(int(p) for p in parts)


def _sidecar(path):
    return Path(path).with_suffix(".json")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_meta(app, kind):
    return {
        "kind": kind,
        "tool": {"name": "pidlab", "version": __version__},
        "config_sha256": app.sha256,
        "space": app.space.to_dict(),
        "plant": asdict(app.plant),
        "mission": asdict(app.mission),
        "oracle": asdict(app.oracle),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def _make_validator(app):
    return SimulationValidator(app.plant, app.mission, app.oracle,
                               formula=app.formula)


def cmd_ground_truth(args):
    app = load_config(args.config)
    q0 = query_count()
    t0 = time.perf_counter()
    grid = ground_truth(app.space, _make_validator(app),
                        strides=app.strides)
    wall = time.perf_counter() - t0
    grid_to_csv(grid, args.out)
    meta = _base_meta(app, "classified_grid")
    meta["coverage"] = ("exhaustive" if grid.strides == (1, 1, 1)
                        else {"sampled": list(grid.strides)})
    invalid = countOf(grid.labels.values(), INVALID)
    meta["labeled"] = len(grid.labels)
    meta["invalid"] = invalid
    meta["oracle_queries"] = query_count() - q0
    meta["wall_time_s"] = wall
    _write_json(_sidecar(args.out), meta)
    print(f"ground-truth: labeled {len(grid.labels)} configs "
          f"({invalid} invalid) -> {args.out}")
    return 0


def cmd_search(args):
    algorithm = args.algorithm
    walk = algorithm in ("boundary", "boundary-dsoff")
    if walk:
        # the walk neither spends a budget nor draws random numbers
        for flag, value in (("--budget", args.budget), ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(f"{flag} has no effect on --algorithm {algorithm}")
    elif args.budget is not None and args.budget < 1:
        raise ConfigError(f"--budget must be at least 1, got {args.budget}")
    app = load_config(args.config)
    validator = _make_validator(app)
    q0 = query_count()
    t0 = time.perf_counter()
    if walk:
        budget = seed = None
        bl = identify_boundary(app.space, validator, dsoff=algorithm == "boundary-dsoff")
        wall = time.perf_counter() - t0
        boundary_to_csv(bl, args.out)
        summary = (f"{len(bl.entries())} boundary columns of "
                   f"{app.space.n_p * app.space.n_d}")
    else:
        budget = 200 if args.budget is None else args.budget
        seed = 0 if args.seed is None else args.seed
        fn = {"random-fuzz": random_fuzz, "hill-climb": hill_climb,
              "genetic": genetic_search}[algorithm]
        configs = fn(app.space, validator, budget=budget, seed=seed)
        wall = time.perf_counter() - t0
        configs_to_csv(configs, args.out)
        summary = f"{len(configs)} invalid configs"
    meta = _base_meta(app, "boundary_line" if walk else "config_set")
    meta["algorithm"] = algorithm
    meta["budget"] = budget
    meta["seed"] = seed
    meta["oracle_queries"] = query_count() - q0
    meta["wall_time_s"] = wall
    _write_json(_sidecar(args.out), meta)
    print(f"search[{algorithm}]: {summary}, {meta['oracle_queries']} queries "
          f"-> {args.out}")
    return 0


def _load_meta(path):
    side = _sidecar(path)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"missing metadata sidecar {side}") from exc
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or no JSON
        raise ConfigError(f"cannot read {side}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{side}: expected a JSON object")
    return meta


def _same_grid(meta, other, pair):
    """Refuse two sidecars whose 'space' differs; pair names the two files."""
    if meta.get("space") != other.get("space"):
        raise ConfigError(f"{pair} were produced on different grids")


def _read_space(path, meta):
    """The ParamSpace recorded in the sidecar of path."""
    side = _sidecar(path)
    if not isinstance(meta.get("space"), dict):
        raise ConfigError(f"{side}: no 'space' object")
    try:
        return ParamSpace.from_dict(meta["space"])
    except KeyError as exc:
        raise ConfigError(f"{side}: 'space' has no key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{side}: bad 'space': {exc}") from exc


def _read_grid(path, meta, space):
    """The labeled grid at path, with the strides its sidecar's coverage
    records: (1, 1, 1) for "exhaustive", [sp, si, sd] for {"sampled": [...]}."""
    coverage = meta.get("coverage", "exhaustive")
    strides = (1, 1, 1)
    if coverage != "exhaustive":
        sampled = coverage.get("sampled") if isinstance(coverage, dict) else None
        if not (isinstance(sampled, list) and len(sampled) == 3
                and all(type(s) is int and s >= 1 for s in sampled)):
            raise ConfigError(f"{_sidecar(path)}: 'coverage' must be \"exhaustive\" "
                              f"or {{\"sampled\": [sp, si, sd]}}, got {coverage!r}")
        strides = tuple(sampled)
    try:
        grid = grid_from_csv(path, space, strides=strides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    labeled = meta.get("labeled")
    if labeled is not None and labeled != len(grid.labels):
        raise ConfigError(f"{path} holds {len(grid.labels)} labels, but "
                          f"{_sidecar(path)} records labeled: {labeled!r}")
    return grid


def cmd_eval(args):
    gt_meta = _load_meta(args.gt)
    rs_meta = _load_meta(args.result)
    if gt_meta.get("kind") != "classified_grid":
        raise ConfigError(f"--gt {args.gt}: its sidecar's kind is {gt_meta.get('kind')!r}"
                          "; eval scores against a 'classified_grid'")
    kind = rs_meta.get("kind")
    if kind not in ("boundary_line", "config_set"):
        raise ConfigError(f"--result {args.result}: its sidecar's kind is {kind!r}; "
                          "eval scores a 'boundary_line' or a 'config_set'")
    _same_grid(gt_meta, rs_meta, "ground truth and result")
    space = _read_space(args.gt, gt_meta)
    gt = _read_grid(args.gt, gt_meta, space)

    try:
        if kind == "boundary_line":
            region = region_from_boundary(boundary_from_csv(args.result, space), space)
        else:
            region = configs_from_csv(args.result, space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    metrics = compute_metrics(gt, region)
    payload = {
        "kind": "metrics",
        "tool": {"name": "pidlab", "version": __version__},
        "space": gt_meta["space"],
        "ground_truth": str(args.gt),
        "result": str(args.result),
        "gt_oracle_queries": gt_meta.get("oracle_queries"),
        "rs_oracle_queries": rs_meta.get("oracle_queries"),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    payload.update(metrics.to_dict())
    _write_json(args.out, payload)
    print(f"{'total invalid (GT)':>22}: {metrics.gt_size}")
    print(f"{'identified':>22}: {metrics.rs_size}")
    print(f"{'accurately identified':>22}: {metrics.intersection}")
    print(f"{'miss rate':>22}: {metrics.mr:.4f}")
    print(f"{'hit rate':>22}: {metrics.hr:.4f}")
    for flag in metrics.flags:
        print(f"{'note':>22}: {flag}")
    return 0


def cmd_plot(args):
    if args.grid is None and args.boundary is None:
        raise ConfigError("plot needs --grid and/or --boundary")
    if (args.a1 is None) != (args.a2 is None):
        raise ConfigError("--a1 and --a2 go together: give both, or neither to "
                          "take the plant from the sidecar")
    if args.a1 is not None and not (math.isfinite(args.a1) and math.isfinite(args.a2)):
        raise ConfigError(f"--a1 and --a2 must be finite, got {args.a1!r} and "
                          f"{args.a2!r}")
    source = args.grid if args.grid is not None else args.boundary
    meta = _load_meta(source)
    if None not in (args.grid, args.boundary):
        _same_grid(meta, _load_meta(args.boundary), "grid and boundary")
    space = _read_space(source, meta)

    p = args.p
    if p is None:
        if space.n_p > 1:
            raise ConfigError(f"grid spans {space.n_p} kp planes; pick one with --p")
        p = space.p_min
    try:
        space.axes[0].snap(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid = None
    if args.grid is not None:
        grid = _read_grid(args.grid, meta, space)
        if not grid.labels:
            raise ConfigError(f"{args.grid} contains no labeled configs")
    boundary = None
    if args.boundary is not None:
        try:
            boundary = boundary_from_csv(args.boundary, space)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    a1, a2 = args.a1, args.a2
    if a1 is None and "plant" in meta:
        try:
            a1, a2 = float(meta["plant"]["a1"]), float(meta["plant"]["a2"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{_sidecar(source)}: 'plant' needs numbers a1 and a2, "
                              f"got {meta['plant']!r}") from exc
    theory = None
    if a1 is not None:
        theory = theoretical_boundary(p, a1, a2, space.axes[2].values)

    svg = render_plane(space, p, grid=grid, boundary=boundary, theory=theory,
                       title=args.title)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"plot: wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pidlab",
                                     description="PID valid-region analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of the commands that run the oracle
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    # everything runs in one process; the flag stays, accepting only 1,
    # because perfbench's workloads still pass --workers 1
    run.add_argument("--workers", type=int, choices=(1,), default=1)

    sub.add_parser("ground-truth", parents=[run], help="label a grid by brute force")
    se = sub.add_parser("search", parents=[run], help="run a boundary search or baseline")
    se.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    # the baselines' settings, rejected by the walks: None when not given
    se.add_argument("--budget", type=int, help="baseline query budget (default 200)")
    se.add_argument("--seed", type=int, help="baseline random seed (default 0)")

    ev = sub.add_parser("eval", help="score a search result against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--result", required=True)
    ev.add_argument("--out", required=True)

    pl = sub.add_parser("plot", help="render one kp plane as SVG")
    pl.add_argument("--out", required=True)
    pl.add_argument("--grid")
    pl.add_argument("--boundary")
    pl.add_argument("--p", type=float)
    pl.add_argument("--a1", type=float)
    pl.add_argument("--a2", type=float)
    pl.add_argument("--title")
    return parser


# Options whose value is a float and may be negative.
_FLOAT_OPTIONS = ("--p", "--a1", "--a2")


def _attach_float_values(argv):
    """argv with `--p -1e-3` spelled `--p=-1e-3`, and so for each option in
    _FLOAT_OPTIONS followed by a word that starts with '-' and that float()
    reads. argparse takes such a word for an option unless it looks like a
    plain decimal, so an exponent or -inf would never reach the value."""
    out = []
    for word in argv:
        if out and out[-1] in _FLOAT_OPTIONS and word.startswith("-") and _is_float(word):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None):
    parser = build_parser()
    argv = _attach_float_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # looked up on every call, so a rebound cmd_* is the one that runs
    command = {"ground-truth": cmd_ground_truth, "search": cmd_search,
               "eval": cmd_eval, "plot": cmd_plot}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"pidlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pidlab: i/o error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
