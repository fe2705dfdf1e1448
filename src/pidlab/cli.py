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
import json
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .evalkit import (compute_metrics, configs_from_csv, configs_to_csv,
                      grid_from_csv, grid_to_csv, ground_truth,
                      region_from_boundary)
from .mtl import MtlSyntaxError, parse_formula
from .plant import (NoiseSpec, PlantModel, brake_mission, circle_mission,
                    hold_mission, return_home_mission)
from .search import (ParamSpace, boundary_from_csv, boundary_to_csv,
                     genetic_search, hill_climb, identify_boundary, random_fuzz)
from .stability import theoretical_boundary
from .svgplot import render_plane
from .validator import OracleConfig, SimulationValidator, query_count

ALGORITHMS = ("boundary", "boundary-dsoff", "random-fuzz", "hill-climb", "genetic")

_MISSION_BUILDERS = {
    "hold": (hold_mission, ("setpoint", "hold_tol", "settle_deadline", "duration")),
    "brake": (brake_mission, ("cruise_speed", "brake_at", "brake_deadline",
                              "v_stop", "duration")),
    "circle_track": (circle_mission, ("radius", "freq", "circle_tol",
                                      "settle_deadline", "duration")),
    "return_home": (return_home_mission, ("out_dist", "out_t", "return_t",
                                          "home_radius", "settle_deadline",
                                          "mono_margin", "eps_mono", "duration")),
}


class ConfigError(Exception):
    """Configuration problem, with a best-effort file:line anchor."""

    def __init__(self, message, path=None, section=None, key=None):
        self.path = path
        line = _find_line(path, section, key) if path and key else None
        if path is not None:
            at = f"{path}:{line}" if line else str(path)
            message = f"{at}: {message}"
        super().__init__(message)


def _find_line(path, section, key):
    current = None
    try:
        with open(path) as fh:
            for lineno, text in enumerate(fh, start=1):
                header = configparser.ConfigParser.SECTCRE.match(text.strip())
                if header:
                    current = header.group("header")
                elif (current == section  # configparser lower-cases keys
                      and text.split("=")[0].split(":")[0].strip().lower() == key):
                    return lineno
    except OSError:
        return None
    return None


def _get_float(cp, path, section, key, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"[{section}] is missing required key '{key}'",
                              path, section, key)
        return default
    raw = cp.get(section, key)
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}",
                          path, section, key)
    return val


def _get_int(cp, path, section, key, default=None):
    val = _get_float(cp, path, section, key,
                     default=float(default) if default is not None else None)
    if val != int(val):
        raise ConfigError(f"[{section}] {key} must be an integer", path, section, key)
    return int(val)


class AppConfig:
    def __init__(self, plant, mission, space, oracle, formula, search):
        self.plant = plant
        self.mission = mission
        self.space = space
        self.oracle = oracle
        self.formula = formula
        self.search = search


def load_config(path):
    """Parse the INI-style run configuration. Raises ConfigError."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in ("plant", "mission", "space"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section", path)

    if cp.has_option("noise", "seed"):
        raise ConfigError("[noise] seed is not used; set [oracle] base_seed instead",
                          path, "noise", "seed")
    noise = NoiseSpec(
        sensor_sigma=_get_float(cp, path, "noise", "sensor_sigma", 0.0),
        disturbance_amp=_get_float(cp, path, "noise", "disturbance_amp", 0.0),
        disturbance_freq=_get_float(cp, path, "noise", "disturbance_freq", 0.0),
    )
    try:
        plant = PlantModel(a1=_get_float(cp, path, "plant", "a1", 1.0),
                           a2=_get_float(cp, path, "plant", "a2", 1.0),
                           dt=_get_float(cp, path, "plant", "dt", 0.01),
                           t_max=_get_float(cp, path, "plant", "t_max", 120.0),
                           noise=noise)
    except ValueError as exc:
        raise ConfigError(f"[plant] {exc}", path) from exc

    mode = cp.get("mission", "mode", fallback=None)
    if mode not in _MISSION_BUILDERS:
        raise ConfigError(f"[mission] mode must be one of {sorted(_MISSION_BUILDERS)}, "
                          f"got {mode!r}", path, "mission", "mode")
    builder, keys = _MISSION_BUILDERS[mode]
    kwargs = {}
    for key in keys:
        if cp.has_option("mission", key):
            kwargs[key] = _get_float(cp, path, "mission", key)
    try:
        mission = builder(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[mission] {exc}", path) from exc

    try:
        space = ParamSpace(
            p_min=_get_float(cp, path, "space", "p_min"),
            p_max=_get_float(cp, path, "space", "p_max"),
            p_step=_get_float(cp, path, "space", "p_step"),
            i_min=_get_float(cp, path, "space", "i_min"),
            i_max=_get_float(cp, path, "space", "i_max"),
            i_step=_get_float(cp, path, "space", "i_step"),
            d_min=_get_float(cp, path, "space", "d_min"),
            d_max=_get_float(cp, path, "space", "d_max"),
            d_step=_get_float(cp, path, "space", "d_step"))
    except ValueError as exc:
        raise ConfigError(f"[space] {exc}", path) from exc

    kind = cp.get("oracle", "kind", fallback="offline")
    window = None
    if cp.has_option("oracle", "window") and cp.get("oracle", "window").strip():
        window = _get_int(cp, path, "oracle", "window")
        if kind == "offline":
            raise ConfigError("[oracle] window has no effect on an offline oracle; "
                              "set kind = online or drop it", path, "oracle", "window")
    formula = None
    raw_formula = cp.get("oracle", "formula", fallback="").strip()
    if raw_formula:
        try:
            formula = parse_formula(raw_formula)
        except MtlSyntaxError as exc:
            raise ConfigError(f"[oracle] formula: {exc}", path, "oracle",
                              "formula") from exc
    try:
        oracle = OracleConfig(kind=kind, window=window,
                              repeats=_get_int(cp, path, "oracle", "repeats", 1),
                              base_seed=_get_int(cp, path, "oracle", "base_seed", 0))
    except ValueError as exc:
        raise ConfigError(f"[oracle] {exc}", path) from exc

    search = {
        "budget": _get_int(cp, path, "search", "budget", 200),
        "seed": _get_int(cp, path, "search", "seed", 0),
        "strides": _parse_strides(cp, path),
    }
    return AppConfig(plant, mission, space, oracle, formula, search)


def _parse_strides(cp, path):
    if not cp.has_option("search", "strides"):
        return (1, 1, 1)
    raw = cp.get("search", "strides")
    parts = raw.replace(",", " ").split()
    if len(parts) != 3 or not all(p.isdigit() and int(p) >= 1 for p in parts):
        raise ConfigError(f"[search] strides must be three positive integers, "
                          f"got {raw!r}", path, "search", "strides")
    return tuple(int(p) for p in parts)


def _config_sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _sidecar(path):
    return Path(path).with_suffix(".json")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_meta(app, config_path, kind):
    return {
        "kind": kind,
        "tool": {"name": "pidlab", "version": __version__},
        "config_sha256": _config_sha(config_path),
        "space": app.space.to_dict(),
        "plant": {"a1": app.plant.a1, "a2": app.plant.a2, "dt": app.plant.dt,
                  "t_max": app.plant.t_max,
                  "noise": {"sensor_sigma": app.plant.noise.sensor_sigma,
                            "disturbance_amp": app.plant.noise.disturbance_amp,
                            "disturbance_freq": app.plant.noise.disturbance_freq,
                            "seed": app.plant.noise.seed}},
        "mission": {"mode": app.mission.mode, "duration": app.mission.duration,
                    "params": app.mission.params},
        "oracle": {"kind": app.oracle.kind, "window": app.oracle.window,
                   "repeats": app.oracle.repeats, "base_seed": app.oracle.base_seed},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def _load_run(args):
    """The run configuration, with the command line's oracle flags applied."""
    app = load_config(args.config)
    changes = {}
    if args.oracle:
        changes["kind"] = args.oracle
        if args.oracle == "offline":
            changes["window"] = None  # an inherited window has no effect offline
    if args.window is not None:
        changes["window"] = args.window
    if args.repeats is not None:
        changes["repeats"] = args.repeats
    if changes:
        try:
            app.oracle = replace(app.oracle, **changes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return app


def _make_validator(app):
    return SimulationValidator(app.plant, app.mission, app.oracle,
                               formula=app.formula)


def cmd_ground_truth(args):
    app = _load_run(args)
    q0 = query_count()
    t0 = time.perf_counter()
    grid = ground_truth(app.space, _make_validator(app),
                        strides=app.search["strides"], workers=args.workers)
    wall = time.perf_counter() - t0
    grid_to_csv(grid, args.out)
    meta = _base_meta(app, args.config, "classified_grid")
    meta["coverage"] = ("exhaustive" if grid.coverage == "exhaustive"
                        else {"sampled": list(grid.strides())})
    meta["labeled"] = len(grid.labels)
    meta["invalid"] = len(grid.invalid_set())
    meta["oracle_queries"] = query_count() - q0
    meta["wall_time_s"] = wall
    _write_json(_sidecar(args.out), meta)
    print(f"ground-truth: labeled {len(grid.labels)} configs "
          f"({len(grid.invalid_set())} invalid) -> {args.out}")
    return 0


def cmd_search(args):
    algorithm = args.algorithm
    walk = algorithm in ("boundary", "boundary-dsoff")
    if walk:
        # the walk neither spends a budget nor draws random numbers
        for flag, value in (("--budget", args.budget), ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(f"{flag} has no effect on --algorithm {algorithm}")
    app = _load_run(args)
    validator = _make_validator(app)
    q0 = query_count()
    t0 = time.perf_counter()
    if walk:
        budget = seed = None
        bl = identify_boundary(app.space, validator, workers=args.workers,
                               dsoff=algorithm == "boundary-dsoff")
        wall = time.perf_counter() - t0
        boundary_to_csv(bl, args.out)
        summary = (f"{len(bl.entries())} boundary columns of "
                   f"{app.space.n_p * app.space.n_d}")
    else:
        budget = app.search["budget"] if args.budget is None else args.budget
        seed = app.search["seed"] if args.seed is None else args.seed
        fn = {"random-fuzz": random_fuzz, "hill-climb": hill_climb,
              "genetic": genetic_search}[algorithm]
        configs = fn(app.space, validator, budget=budget, seed=seed)
        wall = time.perf_counter() - t0
        configs_to_csv(configs, args.out)
        summary = f"{len(configs)} invalid configs"
    meta = _base_meta(app, args.config, "boundary_line" if walk else "config_set")
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
    if not side.exists():
        raise ConfigError(f"missing metadata sidecar {side}")
    try:
        with open(side) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {side}: {exc}") from exc


def _read_grid(path, meta, space):
    """The labeled grid at path, with the coverage its sidecar records."""
    coverage = meta.get("coverage", "exhaustive")
    if isinstance(coverage, dict):
        coverage = ("sampled", tuple(coverage["sampled"]))
    try:
        return grid_from_csv(path, space, coverage=coverage)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_eval(args):
    gt_meta = _load_meta(args.gt)
    rs_meta = _load_meta(args.result)
    if gt_meta.get("space") != rs_meta.get("space"):
        raise ConfigError("ground truth and result were produced on different grids")
    space = ParamSpace.from_dict(gt_meta["space"])
    gt = _read_grid(args.gt, gt_meta, space)

    with open(args.result) as fh:
        header = fh.readline().strip()
    try:
        if "status" in header.split(","):
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
    meta = _load_meta(args.grid if args.grid is not None else args.boundary)
    space = ParamSpace.from_dict(meta["space"])

    p = args.p
    if p is None:
        if space.n_p > 1:
            raise ConfigError(f"grid spans {space.n_p} kp planes; pick one with --p")
        p = space.p_min
    try:
        space.p_index(p)
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
    if a1 is None and a2 is None and "plant" in meta:
        a1 = meta["plant"]["a1"]
        a2 = meta["plant"]["a2"]
    theory = None
    if a1 is not None and a2 is not None:
        d_values = [space.d_value(k) for k in range(space.n_d)]
        theory = theoretical_boundary(p, a1, a2, d_values)

    svg = render_plane(space, p, grid=grid, boundary=boundary, theory=theory,
                       title=args.title)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"plot: wrote {args.out}")
    return 0


def _worker_count(raw):
    if not raw.isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(raw)


def build_parser():
    parser = argparse.ArgumentParser(prog="pidlab",
                                     description="PID valid-region analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gt = sub.add_parser("ground-truth", help="label a grid by brute force")
    gt.add_argument("--config", required=True)
    gt.add_argument("--out", required=True)
    gt.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1)
    gt.add_argument("--oracle", choices=("offline", "online"))
    gt.add_argument("--window", type=int)
    gt.add_argument("--repeats", type=int)

    se = sub.add_parser("search", help="run a boundary search or baseline")
    se.add_argument("--config", required=True)
    se.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    se.add_argument("--out", required=True)
    se.add_argument("--budget", type=int)
    se.add_argument("--seed", type=int)
    se.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1)
    se.add_argument("--oracle", choices=("offline", "online"))
    se.add_argument("--window", type=int)
    se.add_argument("--repeats", type=int)

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


def main(argv=None):
    parser = build_parser()
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
