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
from .evalkit import (ClassifiedGrid, compute_metrics, configs_from_csv,
                      configs_to_csv, grid_from_csv, grid_to_csv, ground_truth,
                      region_from_boundary)
from .mtl import MtlSyntaxError, parse_formula
from .plant import (NoiseSpec, PlantModel, brake_mission, circle_mission,
                    hold_mission, return_home_mission)
from .search import (BoundaryLine, ParamSpace, boundary_from_csv,
                     boundary_to_csv, genetic_search, hill_climb,
                     identify_boundary, random_fuzz)
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


def _apply_oracle_overrides(app, args):
    changes = {}
    if getattr(args, "oracle", None):
        changes["kind"] = args.oracle
        if args.oracle == "offline":
            changes["window"] = None  # an inherited window has no effect offline
    if getattr(args, "window", None) is not None:
        changes["window"] = args.window
    if getattr(args, "repeats", None) is not None:
        changes["repeats"] = args.repeats
    if changes:
        try:
            app.oracle = replace(app.oracle, **changes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def cmd_ground_truth(config_path, out_path, workers=1, args=None):
    app = load_config(config_path)
    if args is not None:
        _apply_oracle_overrides(app, args)
    q0 = query_count()
    t0 = time.perf_counter()
    grid = ground_truth(app.space, app.mission, app.plant, app.oracle,
                        validator=_make_validator(app),
                        strides=app.search["strides"], workers=workers)
    wall = time.perf_counter() - t0
    grid_to_csv(grid, out_path)
    meta = _base_meta(app, config_path, "classified_grid")
    meta["coverage"] = ("exhaustive" if grid.coverage == "exhaustive"
                        else {"sampled": list(grid.strides())})
    meta["labeled"] = len(grid.labels)
    meta["invalid"] = len(grid.invalid_set())
    meta["oracle_queries"] = query_count() - q0
    meta["wall_time_s"] = wall
    _write_json(_sidecar(out_path), meta)
    print(f"ground-truth: labeled {len(grid.labels)} configs "
          f"({len(grid.invalid_set())} invalid) -> {out_path}")
    return 0


def _make_validator(app):
    return SimulationValidator(app.plant, app.mission, app.oracle,
                               formula=app.formula)


def cmd_search(config_path, algorithm, out_path, budget=None, seed=None,
               workers=1, args=None):
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    app = load_config(config_path)
    if args is not None:
        _apply_oracle_overrides(app, args)
    budget = app.search["budget"] if budget is None else budget
    seed = app.search["seed"] if seed is None else seed
    validator = _make_validator(app)
    q0 = query_count()
    t0 = time.perf_counter()
    if algorithm in ("boundary", "boundary-dsoff"):
        bl = identify_boundary(app.space, validator=validator, workers=workers,
                               dsoff=algorithm == "boundary-dsoff")
        wall = time.perf_counter() - t0
        boundary_to_csv(bl, out_path)
        found = len(bl.entries())
        summary = f"{found} boundary columns of {app.space.n_p * app.space.n_d}"
    else:
        fn = {"random-fuzz": random_fuzz, "hill-climb": hill_climb,
              "genetic": genetic_search}[algorithm]
        configs = fn(app.space, budget=budget, seed=seed, validator=validator)
        wall = time.perf_counter() - t0
        configs_to_csv(configs, out_path)
        summary = f"{len(configs)} invalid configs"
    meta = _base_meta(app, config_path, "boundary_line"
                      if algorithm.startswith("boundary") else "config_set")
    meta["algorithm"] = algorithm
    meta["budget"] = None if algorithm.startswith("boundary") else budget
    meta["seed"] = None if algorithm.startswith("boundary") else seed
    meta["oracle_queries"] = query_count() - q0
    meta["wall_time_s"] = wall
    _write_json(_sidecar(out_path), meta)
    print(f"search[{algorithm}]: {summary}, {meta['oracle_queries']} queries "
          f"-> {out_path}")
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


def cmd_eval(gt_path, result_path, out_path):
    gt_meta = _load_meta(gt_path)
    rs_meta = _load_meta(result_path)
    if gt_meta.get("space") != rs_meta.get("space"):
        raise ConfigError("ground truth and result were produced on different grids")
    space = ParamSpace.from_dict(gt_meta["space"])
    coverage = gt_meta.get("coverage", "exhaustive")
    if isinstance(coverage, dict):
        coverage = ("sampled", tuple(coverage["sampled"]))
    try:
        gt = grid_from_csv(gt_path, space, coverage=coverage)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    with open(result_path) as fh:
        header = fh.readline().strip()
    try:
        if "status" in header.split(","):
            region = region_from_boundary(boundary_from_csv(result_path, space), space)
        else:
            region = configs_from_csv(result_path, space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    metrics = compute_metrics(gt, region)
    payload = {
        "kind": "metrics",
        "tool": {"name": "pidlab", "version": __version__},
        "space": gt_meta["space"],
        "ground_truth": str(gt_path),
        "result": str(result_path),
        "gt_oracle_queries": gt_meta.get("oracle_queries"),
        "rs_oracle_queries": rs_meta.get("oracle_queries"),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    payload.update(metrics.to_dict())
    _write_json(out_path, payload)
    print(f"{'total invalid (GT)':>22}: {metrics.gt_size}")
    print(f"{'identified':>22}: {metrics.rs_size}")
    print(f"{'accurately identified':>22}: {metrics.intersection}")
    print(f"{'miss rate':>22}: {metrics.mr:.4f}")
    print(f"{'hit rate':>22}: {metrics.hr:.4f}")
    for flag in metrics.flags:
        print(f"{'note':>22}: {flag}")
    return 0


def cmd_plot(out_svg, grid_path=None, boundary_path=None, p=None, a1=None,
             a2=None, title=None):
    if grid_path is None and boundary_path is None:
        raise ConfigError("plot needs --grid and/or --boundary")
    meta = _load_meta(grid_path if grid_path is not None else boundary_path)
    space = ParamSpace.from_dict(meta["space"])

    if p is None:
        if space.n_p > 1:
            raise ConfigError(f"grid spans {space.n_p} kp planes; pick one with --p")
        p = space.p_min
    try:
        space.p_index(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    grid = None
    if grid_path is not None:
        coverage = meta.get("coverage", "exhaustive")
        if isinstance(coverage, dict):
            coverage = ("sampled", tuple(coverage["sampled"]))
        try:
            grid = grid_from_csv(grid_path, space, coverage=coverage)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not grid.labels:
            raise ConfigError(f"{grid_path} contains no labeled configs")
    boundary = None
    if boundary_path is not None:
        try:
            boundary = boundary_from_csv(boundary_path, space)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if a1 is None and a2 is None and "plant" in meta:
        a1 = meta["plant"]["a1"]
        a2 = meta["plant"]["a2"]
    theory = None
    if a1 is not None and a2 is not None:
        d_values = [space.d_value(k) for k in range(space.n_d)]
        theory = theoretical_boundary(p, a1, a2, d_values)

    svg = render_plane(space, p, grid=grid, boundary=boundary, theory=theory,
                       title=title)
    with open(out_svg, "w") as fh:
        fh.write(svg)
    print(f"plot: wrote {out_svg}")
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
    try:
        if args.command == "ground-truth":
            return cmd_ground_truth(args.config, args.out,
                                    workers=args.workers, args=args)
        if args.command == "search":
            return cmd_search(args.config, args.algorithm, args.out,
                              budget=args.budget, seed=args.seed,
                              workers=args.workers, args=args)
        if args.command == "eval":
            return cmd_eval(args.gt, args.result, args.out)
        if args.command == "plot":
            return cmd_plot(args.out, grid_path=args.grid,
                            boundary_path=args.boundary, p=args.p,
                            a1=args.a1, a2=args.a2, title=args.title)
    except ConfigError as exc:
        print(f"pidlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pidlab: i/o error: {exc}", file=sys.stderr)
        return 3
    return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
