"""Command line interface: lift signals, solve, observe, rank-test, reconstruct.

Experiments are reproducible by file (INI config with sections) and tweakable
by hand: any config key can be overridden with --set SECTION.KEY=VALUE, and
the common keys have dedicated flags, built from their key's row of the config
table on every command.  A key that is not in the table, or a value (of a key
or a flag) that its row's rule rejects, is a usage error before any work.

`reconstruct` and `convergence` run one pipeline, `_experiment`: every driver
seed and interval is observed in one lockstep `rde.observe_flows` run,
recovered with one lockstep `reconstruct.reconstruct_many` call and scored
against the driver's own increments, all as flat lists, path-major; the two
commands differ only in how they report.  `observe` likewise observes all its
intervals in one run.

Exit codes: 0 success, 1 numerical failure (machine-readable error JSON on
stdout), 2 domain error, 64 usage error (bad flags or config values, and
missing, unreadable or malformed files).
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import os
import re
import sys
from functools import lru_cache, partial

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
    count,
    non_negative,
    positive,
)
from .io import fmt, write_table
from .systems import SYSTEM_BUILDERS

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

MAX_SUBSTEPS = 1024  # the ceiling of solver.n_sub and of solver.n_internal
MAX_POINTS = 256  # the ceiling of points.c_max, the search's rounds
MAX_SAMPLES = 1 << 22  # the ceiling of the samples a driver draws, over every seed


class UsageError(argparse.ArgumentTypeError):
    """Bad flags, config values or file contents.

    An ArgumentTypeError, so the parse functions below also serve as argparse
    types: a flag that mirrors a config key is parsed as that key is.
    """


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so its subcommand parsers, raising its errors as UsageErrors.

    A token that starts with "-" and a digit or ".digit" is a value, not a flag: no flag
    is spelt so, and vector values such as "--box-lo -2,-2,-2" start so.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


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


def _build_system(spec):
    """The system a spec names: a SYSTEM_BUILDERS key, then that builder's
    integer arguments, each after an underscore (kohn_1, constant_2_3), as
    the systems name themselves."""
    name, args = re.fullmatch(r"(.*?)((?:_\d+)*)", spec, re.S).groups()
    values = [int(v) for v in args.split("_")[1:]]
    if name not in SYSTEM_BUILDERS:
        raise UsageError(f"unknown system {spec!r}; choose from {sorted(SYSTEM_BUILDERS)}")
    signature = inspect.signature(SYSTEM_BUILDERS[name])
    try:
        signature.bind(*values)
    except TypeError:
        raise UsageError(f"system {spec!r}: {name} takes the arguments {signature}") from None
    return SYSTEM_BUILDERS[name](*values)


# ---------------------------------------------------------------------------
# experiment configuration


def _choice(*values):
    """Cast of a key that takes one of values."""
    def cast(raw):
        if raw not in values:
            raise UsageError(f"choose from {', '.join(values)}")
        return raw
    return cast


def _at_most(ceiling, value, what):
    """The count rule with a ceiling."""
    if count(value, what) > ceiling:
        raise InvalidParameter(f"{what} must be at most {ceiling}, got {value!r}")
    return value


def _rule(check, parse):
    """Cast that parses a value and applies an input rule of `rdeinv.errors` to it.  A
    failure is a UsageError: a bad flag value names the rule."""
    def cast(raw):
        try:
            return check(parse(raw), "value")
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return cast


# (section, option) -> (attribute, cast, default) of every config key.  The cast
# enforces the key's rule when the config is read.  `_key_flags` builds each flag that
# mirrors a key from its row, with the attribute as dest, so readers take either.
_CONFIG = {
    ("experiment", "system"): ("system", str, "rolling_ball"),
    ("experiment", "method"): ("method", _choice("taylor", "flow"), "taylor"),
    ("driver", "kind"): ("driver", _choice("circle", "brownian", "linear", "file"), "circle"),
    ("driver", "n"): ("n", _rule(partial(_at_most, MAX_SAMPLES), int), 4096),
    ("driver", "ell"): ("ell", _rule(count, int), None),  # unset: the system's
    ("driver", "seed"): ("seed", _rule(non_negative, int), 0),
    ("driver", "n_seeds"): ("n_seeds", _rule(count, int), 1),
    ("driver", "n_coarse"): ("n_coarse", _rule(count, int), 256),
    ("driver", "n_fine"): ("n_fine", _rule(count, int), 8),
    ("driver", "horizon"): ("horizon", _rule(positive, float), 1.0),
    ("driver", "v"): ("v", _parse_vector, None),
    ("driver", "file"): ("driver_file", str, ""),
    ("points", "mode"): ("points_mode", _choice("recommended", "search"), "recommended"),
    ("points", "points"): ("points", _parse_points, None),
    ("points", "seed"): ("search_seed", _rule(non_negative, int), 0),
    ("points", "c_max"): ("c_max", _rule(partial(_at_most, MAX_POINTS), int), 3),
    ("points", "n_trials"): ("n_trials", _rule(count, int), 64),
    ("points", "box_lo"): ("box_lo", _parse_vector, -1.0),
    ("points", "box_hi"): ("box_hi", _parse_vector, 1.0),
    ("schedule", "kind"): ("schedule_kind", _choice("uniform", "dyadic"), None),  # unset: the command's
    ("schedule", "s"): ("s", float, None),  # unset: the driver's first grid time
    ("schedule", "t"): ("t", float, None),  # unset: its last
    ("schedule", "n"): ("n_intervals", _rule(count, int), 8),
    ("schedule", "levels"): ("levels", _rule(count, int), 5),
    ("schedule", "intervals"): ("intervals", _parse_intervals, None),
    # observation only: each grid step is n_internal equal Chen pieces, taken as one log-ODE
    # step of n_internal * n_sub substeps (bitwise n_internal steps when it is a power of two)
    ("solver", "n_internal"): ("n_internal", _rule(partial(_at_most, MAX_SUBSTEPS), int), 1),
    ("solver", "n_sub"): ("n_sub", _rule(partial(_at_most, MAX_SUBSTEPS), int), rde.N_SUB),
    ("output", "dir"): ("out_dir", str, "out"),
}

# the --alpha of solve and observe, which the benchmark passes: checked, then ignored
_INERT_ALPHA = {"type": _rule(lambda a, _: roughpath._check_alpha(a), float),
                "help": "ignored, as a path carries no Holder exponent (ROADMAP item 1 removes it)"}


def _load_config(args):
    """Settings (table defaults, overridden by the INI file, then --set, then the
    dedicated flags) and system of an experiment; an unset driver.ell is the system's."""
    # no interpolation: a '%' in a value is taken literally
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:  # not a readable INI file
            reason = getattr(exc, "strerror", None) or str(exc).splitlines()[0]
            raise UsageError(f"config file {args.config!r}: {reason}") from exc
    for override in args.set or []:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise UsageError(f"--set expects SECTION.KEY=VALUE, got {override!r}")
        key, value = override.split("=", 1)
        section, option = (part.strip() for part in key.split(".", 1))
        parser.read_dict({section: {option: value.strip()}})
    cfg = argparse.Namespace(**{attr: default for attr, _, default in _CONFIG.values()})
    # iterating the parser visits [DEFAULT] too; its keys would reach every
    # section, so they are unknown keys like any other
    for section in parser:
        for option, raw in parser[section].items():
            if (section, option) not in _CONFIG:
                raise UsageError(f"unknown config key {section}.{option}")
            attr, cast, _ = _CONFIG[section, option]
            try:
                setattr(cfg, attr, cast(raw))
            except (ValueError, UsageError) as exc:
                raise UsageError(f"{section}.{option} = {raw!r}: {exc}") from exc
    # the flags given that mirror a key; an absent flag leaves no attribute in args
    vars(cfg).update({attr: value for attr, value in vars(args).items() if attr in vars(cfg)})
    system = _build_system(cfg.system)
    if cfg.ell is None:
        cfg.ell = system.fields.ell
    return cfg, system


def _check_samples(ns, n_seeds=1):
    """UsageError when the Brownian drivers of n_seeds seeds draw more than MAX_SAMPLES
    samples in all: a check before any driver is drawn."""
    samples = n_seeds * ns.n_coarse * ns.n_fine
    if ns.driver == "brownian" and samples > MAX_SAMPLES:
        raise UsageError(f"n_seeds * n_coarse * n_fine = {n_seeds} * {ns.n_coarse} * {ns.n_fine} "
                         f"= {samples} Brownian samples, above MAX_SAMPLES = {MAX_SAMPLES}")


def _build_driver(ns, seed) -> roughpath.GridRoughPath:
    """Driver of kind ns.driver, from the `lift` flags or the driver.* config keys."""
    if ns.driver == "brownian":
        return roughpath.sample_brownian_lift(ns.ell, ns.n_coarse, ns.n_fine, ns.horizon, seed)
    if ns.driver == "circle":
        if ns.ell != 2:
            raise UsageError(f"a circle driver has 2 channels, not driver.ell = {ns.ell}")
        return roughpath.lift_piecewise_linear(*roughpath.circle_samples(ns.n))
    if ns.driver == "linear":
        if ns.v is None:
            raise UsageError("linear driver needs --v (driver.v in a config)")
        times = np.linspace(0.0, ns.horizon, ns.n + 1)
        return roughpath.make_linear_rough_path(ns.v, ns.ell, times)
    # kind "file": lift --driver and driver.kind admit no other
    if not ns.driver_file:
        raise UsageError("driver.kind = file needs driver.file")
    return roughpath.read_path_csv(ns.driver_file)


def _search(ns, system):
    """The rank test at the points the greedy search chooses in the box [ns.box_lo, ns.box_hi]."""
    return reconstruct.search_points(
        system.fields, ns.box_lo, ns.box_hi, ns.c_max, ns.search_seed, ns.n_trials
    )


def _resolve_points(ns, system, mode):
    """Base points as a (c, d) stack: the given ones (ns.points), else the greedy search's
    (mode "search") or the system's own (mode "recommended")."""
    given = getattr(ns, "points", None)
    if given:
        if len({len(p) for p in given}) > 1:
            raise UsageError(f"base points {[p.tolist() for p in given]} differ in length")
        return np.vstack(given)
    if mode == "search":
        return _search(ns, system).points
    return np.vstack(system.recommended_points)


def _grid_index(path, time, what):
    idx = int(np.argmin(np.abs(path.times - time)))
    scale = max(1.0, abs(float(path.times[-1])))
    if not abs(path.times[idx] - time) <= 1e-9 * scale:  # a NaN time fails too
        raise UsageError(
            f"{what} = {time} does not lie on the driver grid "
            f"(nearest grid time {path.times[idx]})"
        )
    return idx


def _grid_pairs(path, intervals):
    return [(_grid_index(path, s, "s"), _grid_index(path, t, "t")) for s, t in intervals]


def _schedule(cfg, path) -> list:
    """Interval list [(i, j)] of grid indices: the given intervals, else the schedule's."""
    if cfg.intervals:
        return _grid_pairs(path, cfg.intervals)
    i0 = 0 if cfg.s is None else _grid_index(path, cfg.s, "schedule.s")
    j0 = len(path.times) - 1 if cfg.t is None else _grid_index(path, cfg.t, "schedule.t")
    if not i0 < j0:
        raise UsageError("schedule needs s < t")
    span = j0 - i0
    if cfg.schedule_kind != "dyadic":  # an unset kind is uniform here
        if span % cfg.n_intervals != 0:
            raise UsageError(
                f"{cfg.n_intervals} uniform intervals do not align with the "
                f"{span} driver steps in [s, t]"
            )
        w = span // cfg.n_intervals
        return [(i0 + k * w, i0 + (k + 1) * w) for k in range(cfg.n_intervals)]
    if cfg.levels > span.bit_length() or span % (1 << (cfg.levels - 1)) != 0:
        raise UsageError(f"{cfg.levels} dyadic levels do not align with the {span} driver steps")
    return [(i0, i0 + (span >> k)) for k in range(cfg.levels)]


def _recover(cfg, system, obs_list):
    """Recover every observation set of obs_list with one lockstep call.

    When K of the N recoveries carry the trust_region_exceeded flag, one
    stderr note says so; each result's warnings say which.
    """
    results = reconstruct.reconstruct_many(system.fields, obs_list, cfg.method, cfg.n_sub)
    outside = sum("trust_region_exceeded" in res.warnings for res in results)
    if outside:
        print(f"note: {outside} of {len(results)} recoveries lie outside the injectivity "
              "radius eps2, where local recovery is not guaranteed", file=sys.stderr)
    return results


def _experiment(cfg, system, paths, pairs, points):
    """Observe, recover and score every (path, interval) in one lockstep pass each.

    Returns the observations, the recoveries and the (err_x, err_a) distances
    of each recovery from its path's true increment, as flat lists, path-major:
    entry p * len(pairs) + q belongs to paths[p] over pairs[q].
    """
    obs_list = rde.observe_flows(system.fields, points, paths, pairs, cfg.n_internal * cfg.n_sub)
    results = _recover(cfg, system, obs_list)
    truths = (path.increment(i, j) for path in paths for i, j in pairs)
    errors = [(np.linalg.norm(res.a_hat - truth.x), np.linalg.norm(res.b_hat - truth.a))
              for res, truth in zip(results, truths)]
    return obs_list, results, errors


def _error_json(exc):
    print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))


def _write_json(data, file):
    with open(file, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(report, out):
    """Write report to the file out, when given, then print it: a failed write prints nothing."""
    if out:
        _write_json(report, out)
    print(json.dumps(report, sort_keys=True))


def _rank_report(system, rm, out, extra):
    """`_report` the rank test rm of system, its points and the keys of extra."""
    _report({"system": system.name, "m": rm.m, "rank": rm.rank, "points": rm.points.tolist(),
             **extra}, out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lift(args):
    if args.driver == "file":
        if not args.samples:
            raise UsageError("--driver file needs --samples")
        raw = roughpath.read_path_csv(args.samples)
        path = roughpath.lift_piecewise_linear(raw.times, raw.values)
    else:
        _check_samples(args)
        path = _build_driver(args, args.seed)
    roughpath.write_path_csv(path, args.out)
    print(json.dumps({"written": args.out, "n": path.n, "ell": path.ell}))
    return EXIT_OK


def cmd_solve(args):
    system = _build_system(args.system)
    path = roughpath.read_path_csv(args.path)
    x0 = args.x0
    if x0 is None or not x0.size:  # an empty --x0 means the recommended point
        x0 = _resolve_points(args, system, "recommended")[0]
    traj = rde.solve(system.fields, x0, path, method=args.method, n_sub=args.n_sub)
    rde.write_trajectory_csv(traj, args.out)
    print(json.dumps({"written": args.out, "n": path.n, "d": system.fields.d}))
    return EXIT_OK


def cmd_observe(args):
    system = _build_system(args.system)
    path = roughpath.read_path_csv(args.path)
    points = _resolve_points(args, system, "recommended")
    pairs = _grid_pairs(path, args.intervals)
    if not pairs:
        raise UsageError("--intervals is required, e.g. '0,0.5;0.5,1'")
    n_sub = args.n_internal * args.n_sub
    obs_list = rde.observe_flows(system.fields, points, [path], pairs, n_sub)
    reconstruct.write_observations_csv(obs_list, args.out)
    print(json.dumps({"written": args.out, "intervals": len(obs_list), "c": len(points)}))
    return EXIT_OK


def cmd_rank(args):
    system = _build_system(args.system)
    rm = reconstruct.reconstruction_matrix(
        system.fields, _resolve_points(args, system, "recommended"))
    _rank_report(system, rm, args.out,
                 {"pass": rm.full_rank, "singular_values": rm.singular_values.tolist()})
    return EXIT_OK if rm.full_rank else EXIT_NUMERIC


def cmd_search_points(args):
    system = _build_system(args.system)
    rm = _search(args, system)
    _rank_report(system, rm, args.out, {"full_rank": rm.full_rank, "sigma_min": rm.sigma_min})
    return EXIT_OK


def cmd_reconstruct(args):
    cfg, system = _load_config(args)
    if cfg.n_seeds != 1:
        raise UsageError(f"driver.n_seeds = {cfg.n_seeds}: several seeds are for convergence")
    if cfg.schedule_kind == "dyadic" and not (cfg.intervals or args.obs):
        raise UsageError("schedule.kind = dyadic: dyadic schedules are for convergence")
    if args.obs:
        obs_list = reconstruct.read_observations_csv(args.obs)
        results = _recover(cfg, system, obs_list)
        errors = None
    else:
        _check_samples(cfg)
        path = _build_driver(cfg, cfg.seed)
        points = _resolve_points(cfg, system, cfg.points_mode)
        pairs = _schedule(cfg, path)
        obs_list, results, errors = _experiment(cfg, system, [path], pairs, points)
        if any(j - i < 2 for i, j in pairs):
            print("note: interval with a single driver step; observations carry no "
                  "information beyond the step data", file=sys.stderr)
    reports = [
        reconstruct.reconstruction_report(res, obs.s, obs.t) for obs, res in zip(obs_list, results)
    ]
    summary = {
        "system": system.name,
        "method": cfg.method,
        "m": reports[0]["rank"],  # every recovery passed the rank test
        "rank": reports[0]["rank"],
        "sigma_min": min(report["sigma_min"] for report in reports),
        "n_intervals": len(reports),
        "results": reports,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    results_file = os.path.join(cfg.out_dir, "results.json")
    _write_json(summary, results_file)
    outputs = {"results": results_file}
    # stitch when the intervals chain consecutively
    chain = all(abs(a.t - b.s) < 1e-12 for a, b in zip(obs_list, obs_list[1:]))
    if chain and results:
        times = [obs_list[0].s] + [obs.t for obs in obs_list]
        segments = [roughpath.RoughIncrement(res.a_hat, res.b_hat) for res in results]
        stitched = reconstruct.stitch(segments, times)
        stitched_file = os.path.join(cfg.out_dir, "stitched.csv")
        roughpath.write_path_csv(stitched, stitched_file)
        outputs["stitched"] = stitched_file
    if errors is not None:
        err_file = os.path.join(cfg.out_dir, "errors.csv")
        rows = [[obs.s, obs.t, err_x, err_a] for obs, (err_x, err_a) in zip(obs_list, errors)]
        write_table(err_file, ["s", "t", "err_x", "err_a"], rows)
        outputs["errors"] = err_file
    print(json.dumps({"outputs": outputs, "n_intervals": len(reports)}, sort_keys=True))
    return EXIT_OK


def cmd_convergence(args):
    cfg, system = _load_config(args)
    if cfg.intervals:
        raise UsageError(
            "convergence runs the dyadic schedule set by schedule.s, schedule.t and "
            "schedule.levels; --intervals and schedule.intervals do not apply"
        )
    if cfg.levels < 2:
        raise UsageError(f"schedule.levels = {cfg.levels}: a slope needs at least 2 levels")
    if cfg.schedule_kind == "uniform":
        raise UsageError("schedule.kind = uniform: convergence runs the dyadic schedule")
    if cfg.n_seeds > 1 and cfg.driver != "brownian":  # the one driver drawn from a seed
        raise UsageError(f"driver.n_seeds = {cfg.n_seeds}: several seeds need a brownian driver")
    _check_samples(cfg, cfg.n_seeds)
    cfg.schedule_kind = "dyadic"
    paths = [_build_driver(cfg, seed) for seed in range(cfg.seed, cfg.seed + cfg.n_seeds)]
    points = _resolve_points(cfg, system, cfg.points_mode)
    # every seed's driver lives on the same grid, and every dyadic interval
    # starts at s, so one lockstep run over the longest covers them all
    pairs = _schedule(cfg, paths[0])
    errors = _experiment(cfg, system, paths, pairs, points)[2]
    errors = np.reshape(errors, (cfg.n_seeds, len(pairs), 2))  # (seed, level, err_x/err_a)
    lengths = [float(paths[0].times[j] - paths[0].times[i]) for i, j in pairs]
    err_x, err_a = np.median(errors, axis=0).T
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
        slopes = [
            float(np.polyfit(np.log(lengths), np.log(errs), 1)[0])
            for errs in errors.sum(axis=2)
            if np.all(errs > 0)
        ]
        slope_overall = float(np.median(slopes)) if slopes else float("nan")
        summary = f"# slope={fmt(slope_overall)} status=ok seeds={cfg.n_seeds}"
    lines.append(summary)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    report = {"written": args.out, "levels": len(lengths), "seeds": cfg.n_seeds,
              "slope": slope_overall, "degenerate": degenerate}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _key_flags(p, *keys, flag=None, **kwargs):
    """Add to p the flag of each config key "section.option", named `flag` or its attribute
    (--n-coarse for n_coarse), with the dest, cast and (unless kwargs say) default of its row."""
    for key in keys:
        attr, cast, default = _CONFIG[tuple(key.split("."))]
        p.add_argument(flag or "--" + attr.replace("_", "-"), dest=attr, type=cast,
                       **{"default": default, "help": f"as config key {key}", **kwargs})


@lru_cache(maxsize=None)
def _build_parser():
    """The one parser of the process, built at its first use: parsing leaves it unchanged."""
    parser = _Parser(
        prog="rdeinv",
        description="Solve rough differential equations and recover their drivers "
        "from flow observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="build a rough path CSV from a signal")
    _key_flags(p, "driver.kind", required=True)
    _key_flags(p, "driver.n", "driver.seed", "driver.n_coarse", "driver.n_fine",
               "driver.horizon", "driver.v")
    _key_flags(p, "driver.ell", default=2)  # an unset driver.ell is the system's; lift has none
    p.add_argument("--samples", help="sample CSV (t,X1..Xl) for --driver file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("solve", help="integrate an RDE along a path CSV")
    _key_flags(p, "experiment.system", required=True)
    p.add_argument("--path", required=True, help="driver path CSV")
    p.add_argument("--x0", type=_parse_vector, help="start state, comma separated")
    p.add_argument("--method", default="logode", choices=["logode", "euler2"])
    _key_flags(p, "solver.n_sub")
    p.add_argument("--alpha", **_INERT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("observe", help="record flow images over intervals")
    _key_flags(p, "experiment.system", "schedule.intervals", required=True)
    p.add_argument("--path", required=True)
    _key_flags(p, "points.points", "solver.n_internal", "solver.n_sub")
    p.add_argument("--alpha", **_INERT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("rank", help="rank-test the reconstruction matrix")
    _key_flags(p, "experiment.system", required=True)
    _key_flags(p, "points.points")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("search-points", help="greedy base-point search")
    _key_flags(p, "experiment.system", required=True)
    _key_flags(p, "points.seed", flag="--seed")
    _key_flags(p, "points.c_max", "points.n_trials", "points.box_lo", "points.box_hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_points)

    for name, fn in (("reconstruct", cmd_reconstruct), ("convergence", cmd_convergence)):
        p = sub.add_parser(name, help=f"{name} experiment from config and flags")
        p.add_argument("--config", help="INI experiment file")
        p.add_argument("--set", action="append", help="override SECTION.KEY=VALUE")
        # a given flag overrides the config; an absent one leaves no attribute (_load_config)
        _key_flags(p, "experiment.system", "experiment.method", "driver.seed", "points.points",
                   "schedule.intervals", "output.dir", default=argparse.SUPPRESS)
        if name == "reconstruct":
            p.add_argument("--obs", help="ingest an observation CSV instead of simulating")
        else:
            p.add_argument("--out", required=True, help="slope table CSV")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help has printed; a parse error is a UsageError
            return EXIT_OK
        return args.func(args)
    except DomainViolation as exc:
        _error_json(exc)
        return EXIT_DOMAIN
    except (RankDeficient, NotConverged, NonFinite) as exc:
        _error_json(exc)
        return EXIT_NUMERIC
    except (UsageError, InvalidGrid, InvalidParameter, DimensionMismatch, IndexOutOfRange,
            OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, ValueError) as exc:  # numpy refuses a size beyond the address space
        if type(exc) is ValueError and not re.match("Maximum allowed|array is too big", str(exc)):
            raise
        print(f"usage error: too large to allocate: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
