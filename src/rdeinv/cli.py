"""Command line interface: lift signals, solve, observe, rank-test, reconstruct.

Experiments are reproducible by file (INI config with sections) and tweakable
by hand: any config key can be overridden with --set SECTION.KEY=VALUE, and
the common keys have dedicated flags.

`observe`, `reconstruct` and `convergence` observe all their intervals (and,
for `convergence`, all driver seeds) in one lockstep `rde.observe_flows` run,
and `reconstruct` and `convergence` recover them all with one lockstep
`reconstruct.reconstruct_many` call.

Exit codes: 0 success, 1 numerical failure (machine-readable error JSON on
stdout), 2 domain error, 64 usage error (bad flags or config values, and
missing, unreadable or malformed files).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rde, reconstruct, roughpath
from .errors import (
    DimensionMismatch,
    DomainViolation,
    IndexOutOfRange,
    InvalidGrid,
    InvalidParameter,
    NonFinite,
    NotConverged,
    RankDeficient,
)
from .io import fmt, write_table
from .systems import SYSTEM_BUILDERS

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad flags, config values or file contents."""


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise UsageError(f"cannot parse vector {text!r}") from exc


def _parse_points(text):
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_intervals(text):
    """'s,t;s,t;...' as a list of (s, t) pairs, each with s < t."""
    pairs = _parse_points(text)
    for pair in pairs:
        if len(pair) != 2 or not pair[0] < pair[1]:
            raise UsageError(f"bad interval {pair}; need s < t")
    return pairs


def _build_system(name, ell=2, dim=2, kohn_d=2):
    if name not in SYSTEM_BUILDERS:
        raise UsageError(
            f"unknown system {name!r}; choose from {sorted(SYSTEM_BUILDERS)}"
        )
    if name == "constant":
        return SYSTEM_BUILDERS[name](ell, dim)
    if name == "kohn":
        return SYSTEM_BUILDERS[name](kohn_d)
    return SYSTEM_BUILDERS[name]()


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    """Assembled settings for reconstruct/convergence runs."""

    system: str = "rolling_ball"
    method: str = "taylor"
    ell: int = 2
    dim: int = 2
    kohn_d: int = 2
    driver_kind: str = "circle"
    driver_n: int = 4096
    seed: int = 0
    n_seeds: int = 1
    n_coarse: int = 256
    n_fine: int = 8
    horizon: float = 1.0
    alpha: float = 0.5
    linear_v: np.ndarray | None = None
    driver_file: str = ""
    points_mode: str = "recommended"
    points: list = field(default_factory=list)
    search_seed: int = 0
    c_max: int = 1
    n_trials: int = 64
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    schedule_kind: str = "uniform"
    s: float = 0.0
    t: float = 1.0
    n_intervals: int = 8
    levels: int = 5
    intervals: list = field(default_factory=list)
    n_internal: int = 64
    n_sub: int = 8
    max_iter: int = 50
    tol: float = 1e-12
    out_dir: str = "out"


_CFG_CASTS = {
    ("experiment", "system"): ("system", str),
    ("experiment", "method"): ("method", str),
    ("experiment", "ell"): ("ell", int),
    ("experiment", "dim"): ("dim", int),
    ("experiment", "kohn_d"): ("kohn_d", int),
    ("driver", "kind"): ("driver_kind", str),
    ("driver", "n"): ("driver_n", int),
    ("driver", "ell"): ("ell", int),
    ("driver", "seed"): ("seed", int),
    ("driver", "n_seeds"): ("n_seeds", int),
    ("driver", "n_coarse"): ("n_coarse", int),
    ("driver", "n_fine"): ("n_fine", int),
    ("driver", "horizon"): ("horizon", float),
    ("driver", "alpha"): ("alpha", float),
    ("driver", "v"): ("linear_v", _parse_vector),
    ("driver", "file"): ("driver_file", str),
    ("points", "mode"): ("points_mode", str),
    ("points", "points"): ("points", _parse_points),
    ("points", "seed"): ("search_seed", int),
    ("points", "c_max"): ("c_max", int),
    ("points", "n_trials"): ("n_trials", int),
    ("points", "box_lo"): ("box_lo", _parse_vector),
    ("points", "box_hi"): ("box_hi", _parse_vector),
    ("schedule", "kind"): ("schedule_kind", str),
    ("schedule", "s"): ("s", float),
    ("schedule", "t"): ("t", float),
    ("schedule", "n"): ("n_intervals", int),
    ("schedule", "levels"): ("levels", int),
    ("schedule", "intervals"): ("intervals", _parse_intervals),
    ("solver", "n_internal"): ("n_internal", int),
    ("solver", "n_sub"): ("n_sub", int),
    ("solver", "max_iter"): ("max_iter", int),
    ("solver", "tol"): ("tol", float),
    ("output", "dir"): ("out_dir", str),
}


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file {args.config!r} does not exist")
        parser.read(args.config)
    for override in args.set or []:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise UsageError(f"--set expects SECTION.KEY=VALUE, got {override!r}")
        key, value = override.split("=", 1)
        section, option = (part.strip() for part in key.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value.strip())
    for (section, option), (attr, cast) in _CFG_CASTS.items():
        if parser.has_option(section, option):
            raw = parser.get(section, option)
            try:
                setattr(cfg, attr, cast(raw))
            except (ValueError, UsageError) as exc:
                raise UsageError(f"bad config value {section}.{option} = {raw!r}") from exc
    # dedicated flags override the file
    for attr in ("system", "method", "out_dir"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "points", None):
        cfg.points = _parse_points(args.points)
        cfg.points_mode = "explicit"
    if getattr(args, "intervals", None):
        cfg.intervals = _parse_intervals(args.intervals)
        cfg.schedule_kind = "explicit"
    return cfg


def _build_driver(cfg: ExperimentConfig, seed=None) -> roughpath.GridRoughPath:
    kind = cfg.driver_kind
    if kind == "circle":
        times, values = roughpath.circle_samples(cfg.driver_n)
        return roughpath.lift_piecewise_linear(times, values, cfg.alpha)
    if kind == "brownian":
        return roughpath.sample_brownian_lift(
            cfg.ell, cfg.n_coarse, cfg.n_fine, cfg.horizon, cfg.seed if seed is None else seed
        )
    if kind == "linear":
        if cfg.linear_v is None:
            raise UsageError("linear driver needs driver.v")
        times = np.linspace(0.0, cfg.horizon, cfg.driver_n + 1)
        return roughpath.make_linear_rough_path(cfg.linear_v, cfg.ell, times, cfg.alpha)
    if kind == "file":
        if not cfg.driver_file:
            raise UsageError("driver.kind = file needs driver.file")
        return roughpath.read_path_csv(cfg.driver_file, cfg.alpha)
    raise UsageError(f"unknown driver kind {kind!r}")


def _resolve_points(cfg: ExperimentConfig, system):
    if cfg.points_mode == "explicit" or cfg.points:
        points = [np.asarray(p, dtype=float) for p in cfg.points]
        if not points:
            raise UsageError("points.mode = explicit but no points given")
        return np.vstack(points)
    if cfg.points_mode == "search":
        lo = cfg.box_lo if cfg.box_lo is not None else -np.ones(system.fields.d)
        hi = cfg.box_hi if cfg.box_hi is not None else np.ones(system.fields.d)
        res = reconstruct.search_points(
            system.fields, lo, hi, cfg.c_max, cfg.search_seed, cfg.n_trials
        )
        return res.points
    if cfg.points_mode == "recommended":
        if not system.recommended_points:
            raise UsageError(f"system {system.name} has no recommended points")
        return np.vstack(system.recommended_points)
    raise UsageError(f"unknown points mode {cfg.points_mode!r}")


def _grid_index(path, time, what):
    idx = int(np.argmin(np.abs(path.times - time)))
    scale = max(1.0, abs(float(path.times[-1])))
    if abs(path.times[idx] - time) > 1e-9 * scale:
        raise UsageError(
            f"{what} = {time} does not lie on the driver grid "
            f"(nearest grid time {path.times[idx]})"
        )
    return idx


def _grid_pairs(path, intervals):
    return [(_grid_index(path, s, "s"), _grid_index(path, t, "t")) for s, t in intervals]


def _schedule(cfg: ExperimentConfig, path) -> list:
    """Interval list [(i, j)] of grid indices for the configured schedule."""
    if cfg.schedule_kind == "explicit":
        if not cfg.intervals:
            raise UsageError("schedule.kind = explicit but no intervals given")
        return _grid_pairs(path, cfg.intervals)
    if cfg.schedule_kind == "uniform":
        if cfg.n_intervals < 1:
            raise UsageError("schedule.n must be >= 1")
        i0 = _grid_index(path, cfg.s, "schedule.s")
        j0 = _grid_index(path, cfg.t, "schedule.t")
        if not i0 < j0:
            raise UsageError("schedule needs s < t")
        span = j0 - i0
        if span % cfg.n_intervals != 0:
            raise UsageError(
                f"{cfg.n_intervals} uniform intervals do not align with the "
                f"{span} driver steps in [s, t]"
            )
        w = span // cfg.n_intervals
        return [(i0 + k * w, i0 + (k + 1) * w) for k in range(cfg.n_intervals)]
    if cfg.schedule_kind == "dyadic":
        i0 = _grid_index(path, cfg.s, "schedule.s")
        j0 = _grid_index(path, cfg.t, "schedule.t")
        if not i0 < j0:
            raise UsageError("schedule needs s < t")
        span = j0 - i0
        out = []
        for k in range(cfg.levels):
            if span % (1 << k) != 0:
                raise UsageError(
                    f"dyadic level {k} does not align with the driver grid"
                )
            out.append((i0, i0 + span // (1 << k)))
        return out
    raise UsageError(f"unknown schedule kind {cfg.schedule_kind!r}")


def _reconstruct_all(system, obs_list, cfg):
    if cfg.method not in ("taylor", "flow"):
        raise UsageError(f"unknown method {cfg.method!r}; choose taylor or flow")
    return reconstruct.reconstruct_many(
        system.fields, obs_list, cfg.method, cfg.max_iter, cfg.tol, cfg.n_sub
    )


def _error_json(exc):
    print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))


def _write_json(data, file):
    with open(file, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_lift(args):
    alpha = args.alpha if args.alpha is not None else 0.5
    if args.driver == "file":
        if not args.samples:
            raise UsageError("--driver file needs --samples")
        raw = roughpath.read_path_csv(args.samples, alpha)
        path = roughpath.lift_piecewise_linear(raw.times, raw.values, alpha)
    elif args.driver == "circle":
        times, values = roughpath.circle_samples(args.n)
        path = roughpath.lift_piecewise_linear(times, values, alpha)
    elif args.driver == "brownian":
        if args.alpha is not None and args.alpha != 0.4:
            raise UsageError("brownian lifts carry alpha = 0.4")
        path = roughpath.sample_brownian_lift(
            args.ell, args.n_coarse, args.n_fine, args.horizon, args.seed
        )
    elif args.driver == "linear":
        if not args.v:
            raise UsageError("linear driver needs --v")
        times = np.linspace(0.0, args.horizon, args.n + 1)
        path = roughpath.make_linear_rough_path(_parse_vector(args.v), args.ell, times, alpha)
    else:
        raise UsageError(f"unknown driver {args.driver!r}")
    roughpath.write_path_csv(path, args.out)
    print(json.dumps({"written": args.out, "n": path.n, "ell": path.ell}))
    return EXIT_OK


def cmd_solve(args):
    system = _build_system(args.system, args.ell, args.dim, args.kohn_d)
    path = roughpath.read_path_csv(args.path, args.alpha)
    if args.x0:
        x0 = _parse_vector(args.x0)
    elif system.recommended_points:
        x0 = system.recommended_points[0]
    else:
        raise UsageError("no --x0 given and the system has no recommended point")
    traj = rde.solve(system.fields, x0, path, method=args.method, n_sub=args.n_sub)
    rde.write_trajectory_csv(traj, args.out)
    print(json.dumps({"written": args.out, "n": path.n, "d": system.fields.d}))
    return EXIT_OK


def cmd_observe(args):
    system = _build_system(args.system, args.ell, args.dim, args.kohn_d)
    path = roughpath.read_path_csv(args.path, args.alpha)
    if args.points:
        points = np.vstack(_parse_points(args.points))
    elif system.recommended_points:
        points = np.vstack(system.recommended_points)
    else:
        raise UsageError("no --points given and the system has no recommended points")
    pairs = _grid_pairs(path, _parse_intervals(args.intervals))
    if not pairs:
        raise UsageError("--intervals is required, e.g. '0,0.5;0.5,1'")
    [obs_list] = rde.observe_flows(
        system.fields, points, [path], pairs, args.n_internal, args.n_sub
    )
    reconstruct.write_observations_csv(obs_list, args.out)
    print(json.dumps({"written": args.out, "intervals": len(obs_list), "c": len(points)}))
    return EXIT_OK


def _search(system, args):
    """Greedy point search from the --box-lo/--box-hi (default [-1, 1]^d) flags."""
    d = system.fields.d
    return reconstruct.search_points(
        system.fields,
        _parse_vector(args.box_lo) if args.box_lo else -np.ones(d),
        _parse_vector(args.box_hi) if args.box_hi else np.ones(d),
        args.c_max,
        args.seed,
        args.n_trials,
    )


def cmd_rank(args):
    system = _build_system(args.system, args.ell, args.dim, args.kohn_d)
    if args.points:
        points = np.vstack(_parse_points(args.points))
    elif args.search:
        points = _search(system, args).points
    elif system.recommended_points:
        points = np.vstack(system.recommended_points)
    else:
        raise UsageError("give --points or --search")
    rm = reconstruct.reconstruction_matrix(system.fields, points)
    report = {
        "system": system.name,
        "m": rm.m,
        "rank": rm.rank,
        "pass": rm.rank == rm.m,
        "singular_values": [float(v) for v in rm.singular_values],
        "points": [[float(v) for v in p] for p in points],
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        _write_json(report, args.out)
    return EXIT_OK if rm.rank == rm.m else EXIT_NUMERIC


def cmd_search_points(args):
    system = _build_system(args.system, args.ell, args.dim, args.kohn_d)
    res = _search(system, args)
    report = {
        "system": system.name,
        "m": res.m,
        "rank": res.rank,
        "full_rank": res.full_rank,
        "sigma_min": res.sigma_min,
        "points": [[float(v) for v in p] for p in res.points],
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        _write_json(report, args.out)
    return EXIT_OK


def cmd_reconstruct(args):
    cfg = _load_experiment_config(args)
    system = _build_system(cfg.system, cfg.ell, cfg.dim, cfg.kohn_d)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if args.obs:
        obs_list = reconstruct.read_observations_csv(args.obs)
        rank_info = reconstruct.reconstruction_matrix(system.fields, obs_list[0].base_points)
        path = None
    else:
        path = _build_driver(cfg)
        points = _resolve_points(cfg, system)
        rank_info = reconstruct.reconstruction_matrix(system.fields, points)
        pairs = _schedule(cfg, path)
        if cfg.schedule_kind == "dyadic":
            raise UsageError("use the convergence command for dyadic schedules")
        for i, j in pairs:
            if j - i < 2:
                print(
                    "note: interval with a single driver step; observations "
                    "carry no information beyond the step data",
                    file=sys.stderr,
                )
                break
        [obs_list] = rde.observe_flows(
            system.fields, points, [path], pairs, cfg.n_internal, cfg.n_sub
        )
    results = list(zip(obs_list, _reconstruct_all(system, obs_list, cfg)))
    reports = [
        reconstruct.reconstruction_report(res, obs.s, obs.t, rank_info)
        for obs, res in results
    ]
    summary = {
        "system": system.name,
        "method": cfg.method,
        "m": rank_info.m,
        "rank": rank_info.rank,
        "sigma_min": float(rank_info.singular_values[-1]),
        "n_intervals": len(reports),
        "results": reports,
    }
    results_file = os.path.join(cfg.out_dir, "results.json")
    _write_json(summary, results_file)
    outputs = {"results": results_file}
    # stitch when the intervals chain consecutively
    chain = all(
        abs(results[k][0].t - results[k + 1][0].s) < 1e-12
        for k in range(len(results) - 1)
    )
    if chain and results:
        times = [results[0][0].s] + [obs.t for obs, _ in results]
        stitched = reconstruct.stitch(
            [res for _, res in results], times, alpha=path.alpha if path else 0.5
        )
        stitched_file = os.path.join(cfg.out_dir, "stitched.csv")
        roughpath.write_path_csv(stitched, stitched_file)
        outputs["stitched"] = stitched_file
    if path is not None:
        err_file = os.path.join(cfg.out_dir, "errors.csv")
        rows = []
        for (obs, res), (i, j) in zip(results, pairs):
            truth = path.increment(i, j)
            err_x = np.linalg.norm(res.a_hat - truth.x)
            err_a = np.linalg.norm(res.b_hat - truth.a)
            rows.append([obs.s, obs.t, err_x, err_a])
        write_table(err_file, ["s", "t", "err_x", "err_a"], rows)
        outputs["errors"] = err_file
    print(json.dumps({"outputs": outputs, "n_intervals": len(reports)}, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args):
    if args.intervals:
        raise UsageError(
            "convergence runs the dyadic schedule set by schedule.s, schedule.t and "
            "schedule.levels; --intervals does not apply"
        )
    cfg = _load_experiment_config(args)
    system = _build_system(cfg.system, cfg.ell, cfg.dim, cfg.kohn_d)
    cfg.schedule_kind = "dyadic"
    seeds = [cfg.seed + k for k in range(max(1, cfg.n_seeds))]
    paths = [_build_driver(cfg, seed=seed) for seed in seeds]
    points = _resolve_points(cfg, system)
    # every seed's driver lives on the same grid, and every dyadic interval
    # starts at s, so one lockstep run over the longest covers them all
    pairs = _schedule(cfg, paths[0])
    observed = rde.observe_flows(
        system.fields, points, paths, pairs, cfg.n_internal, cfg.n_sub
    )
    # and one lockstep recovery covers every seed and level
    recovered = _reconstruct_all(system, [obs for row in observed for obs in row], cfg)
    per_seed = []
    for p, path in enumerate(paths):
        rows = []
        for (i, j), res in zip(pairs, recovered[p * len(pairs) : (p + 1) * len(pairs)]):
            truth = path.increment(i, j)
            rows.append(
                (
                    float(path.times[j] - path.times[i]),
                    float(np.linalg.norm(res.a_hat - truth.x)),
                    float(np.linalg.norm(res.b_hat - truth.a)),
                )
            )
        per_seed.append(rows)
    lengths = [row[0] for row in per_seed[0]]
    err_x = np.median([[row[1] for row in rows] for rows in per_seed], axis=0)
    err_a = np.median([[row[2] for row in rows] for rows in per_seed], axis=0)
    total = err_x + err_a
    degenerate = bool(np.all(total < 1e-12))
    lines = ["length,err_x,err_a,slope_running"]
    for k in range(len(lengths)):
        if k == 0 or degenerate or total[k] == 0 or total[k - 1] == 0:
            slope = ""
        else:
            slope = fmt(
                float(np.log(total[k - 1] / total[k]) / np.log(lengths[k - 1] / lengths[k]))
            )
        lines.append(f"{fmt(lengths[k])},{fmt(err_x[k])},{fmt(err_a[k])},{slope}")
    if degenerate:
        summary = "# slope=nan status=degenerate (errors at solver tolerance)"
        slope_overall = None
    else:
        slopes = []
        for rows in per_seed:
            errs = np.array([r[1] + r[2] for r in rows])
            if np.all(errs > 0):
                slopes.append(
                    float(np.polyfit(np.log([r[0] for r in rows]), np.log(errs), 1)[0])
                )
        slope_overall = float(np.median(slopes)) if slopes else float("nan")
        summary = f"# slope={fmt(slope_overall)} status=ok seeds={len(seeds)}"
    lines.append(summary)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(
        json.dumps(
            {
                "written": args.out,
                "levels": len(lengths),
                "seeds": len(seeds),
                "slope": slope_overall,
                "degenerate": degenerate,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_system_flags(p):
    p.add_argument("--system", required=True, help="named system")
    p.add_argument("--ell", type=int, default=2, help="constant system: number of fields")
    p.add_argument("--dim", type=int, default=2, help="constant system: state dimension")
    p.add_argument("--kohn-d", dest="kohn_d", type=int, default=2, help="kohn parameter d")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rdeinv",
        description="Solve rough differential equations and recover their drivers "
        "from flow observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="build a rough path CSV from a signal")
    p.add_argument("--driver", required=True, choices=["circle", "brownian", "linear", "file"])
    p.add_argument("--samples", help="sample CSV (t,X1..Xl) for --driver file")
    p.add_argument("--n", type=int, default=1024, help="number of segments")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-coarse", dest="n_coarse", type=int, default=256)
    p.add_argument("--n-fine", dest="n_fine", type=int, default=8)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--v", help="linear driver components, length ell*(ell+1)/2")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("solve", help="integrate an RDE along a path CSV")
    _add_system_flags(p)
    p.add_argument("--path", required=True, help="driver path CSV")
    p.add_argument("--x0", help="start state, comma separated")
    p.add_argument("--method", default="logode", choices=["logode", "euler2"])
    p.add_argument("--n-sub", dest="n_sub", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("observe", help="record flow images over intervals")
    _add_system_flags(p)
    p.add_argument("--path", required=True)
    p.add_argument("--points", help="base points 'p1;p2' with comma components")
    p.add_argument("--intervals", required=True, help="'s,t[;s,t...]'")
    p.add_argument("--n-internal", dest="n_internal", type=int, default=64)
    p.add_argument("--n-sub", dest="n_sub", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("rank", help="rank-test the reconstruction matrix")
    _add_system_flags(p)
    p.add_argument("--points", help="explicit base points 'p1;p2'")
    p.add_argument("--search", action="store_true", help="search points instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-max", dest="c_max", type=int, default=3)
    p.add_argument("--n-trials", dest="n_trials", type=int, default=64)
    p.add_argument("--box-lo", dest="box_lo", help="search box lower corner")
    p.add_argument("--box-hi", dest="box_hi", help="search box upper corner")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("search-points", help="greedy base-point search")
    _add_system_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-max", dest="c_max", type=int, default=3)
    p.add_argument("--n-trials", dest="n_trials", type=int, default=64)
    p.add_argument("--box-lo", dest="box_lo")
    p.add_argument("--box-hi", dest="box_hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_points)

    for name, fn in (("reconstruct", cmd_reconstruct), ("convergence", cmd_convergence)):
        p = sub.add_parser(name, help=f"{name} experiment from config and flags")
        p.add_argument("--config", help="INI experiment file")
        p.add_argument("--set", action="append", help="override SECTION.KEY=VALUE")
        p.add_argument("--system")
        p.add_argument("--method", choices=["taylor", "flow"])
        p.add_argument("--seed", type=int)
        p.add_argument("--points")
        p.add_argument("--intervals")
        p.add_argument("--out-dir", dest="out_dir")
        if name == "reconstruct":
            p.add_argument("--obs", help="ingest an observation CSV instead of simulating")
        else:
            p.add_argument("--out", required=True, help="slope table CSV")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainViolation as exc:
        _error_json(exc)
        return EXIT_DOMAIN
    except (RankDeficient, NotConverged, NonFinite) as exc:
        _error_json(exc)
        return EXIT_NUMERIC
    except (InvalidGrid, InvalidParameter, DimensionMismatch, IndexOutOfRange, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
