#!/usr/bin/env python3
"""rdeinv benchmark: end-to-end metrics of three CLI workloads, or per-layer
metrics from a traced run.

    python3 bench/run.py                                   # all workloads, table + JSON
    python3 bench/run.py --workload reconstruct_flow --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload file_pipeline --trace 1

Run it from anywhere; it builds nothing and imports the package from the
``src`` directory next to this one.  Every command of a pass goes through
``rdeinv.cli.main(argv)`` inside this one long-lived process, after a warm-up
pass.  With ``--trace 0`` passes run untraced and the end-to-end metrics are
reported; set-up time and peak memory come from fresh interpreters.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer metrics
come from the traced ones (spans go to ``.bench_work/traces/`` as JSONL).

Every pass checks its outputs (see workloads.py).  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give provenance and a readable table.  ``RDEINV_WORKERS`` is
left as found, so the thread pool runs as users run it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_PASSES = 3  # timed passes per run, however long a pass takes
SETUP_RUNS = 5  # fresh interpreters timed for setup_s, after one unmeasured
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ["convergence_brownian", "reconstruct_flow", "file_pipeline"]

# (name, unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]

CLI_COMMANDS = ["lift", "solve", "observe", "reconstruct", "convergence", "search-points"]
SPAN_CALLS = [
    "roughpath.increment", "rde.observe_flow", "rde.logode_step", "rde.euler2_step",
    "reconstruct.local_reconstruct_flow", "reconstruct.local_reconstruct_taylor",
    "reconstruct.flow_map", "reconstruct.reconstruction_matrix",
]
SPAN_SELF = [
    "roughpath.increment", "roughpath.sample_brownian_lift", "roughpath.write_path_csv",
    "roughpath.read_path_csv", "rde.observe_flow", "rde.logode_step", "rde.euler2_step", "rde.solve",
    "rde.trajectory_csv", "reconstruct.local_reconstruct_flow",
    "reconstruct.local_reconstruct_taylor", "reconstruct.reconstruction_matrix",
    "reconstruct.search_points", "reconstruct.observations_csv", "reconstruct.stitch",
]
COUNTERS = [
    ("roughpath.increment.steps", "count"), ("roughpath.path_csv.bytes", "bytes"),
    ("vectorfields.field_evals", "count"), ("vectorfields.jacobian_evals", "count"),
    ("rde.rk4_stages", "count"), ("reconstruct.gn_iterations", "count"),
    ("reconstruct.failed", "count"),
]
# union of these spans' intervals over the pass wall time
SHARES = {
    "roughpath.path_csv.share": ("roughpath.write_path_csv", "roughpath.read_path_csv"),
    "rde.observe_flow.share": ("rde.observe_flow",),
    "reconstruct.local_reconstruct_flow.share": ("reconstruct.local_reconstruct_flow",),
}

PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in SPAN_CALLS]
    + [(n, u, "lower") for n, u in COUNTERS]
    + [("reconstruct.trust_region_exceeded_frac", "ratio", "lower")]
    + [(f"{n}.self_s", "s", "lower") for n in SPAN_SELF]
    + [(n, "ratio", "lower") for n in SHARES]
    + [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [("cli.self_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower")]
)
# metrics that must repeat exactly between traced passes of one run
EXACT = {n for n, u, _ in PER_LAYER if u in ("count", "bytes")} | {
    "reconstruct.trust_region_exceeded_frac"
}


# ---------------------------------------------------------------------------
# program import and provenance


def import_program():
    """Import rdeinv from this checkout's src directory; None when it is absent."""
    if not (SRC / "rdeinv" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rdeinv

    if Path(rdeinv.__file__).resolve().parent != (SRC / "rdeinv").resolve():
        return None
    return rdeinv


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; provenance only
        return "unknown"


def provenance(seed):
    import numpy as np

    src_hash = hashlib.sha256()
    for f in sorted((SRC / "rdeinv").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "RDEINV_WORKERS": os.environ.get("RDEINV_WORKERS"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class CommandResult:
    command: str
    code: int | None
    error: str | None
    stdout: str
    stderr: str


@dataclass
class PassResult:
    results: list
    wall_s: float
    cpu_s: float
    warnings: int


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_command(argv, rec=None):
    """One CLI command with stdout and stderr captured; failures are recorded, not raised."""
    from rdeinv import cli

    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with redirect_stdout(out), redirect_stderr(err):
        with rec.command(f"cli.{argv[0]}") if rec is not None else nullcontext():
            try:
                code = cli.main(argv)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=err)
    return CommandResult(argv[0], code, error, out.getvalue(), err.getvalue())


def run_pass(workload, rec=None):
    """Run every command of the workload once, timed, with warnings recorded."""
    workload.clean()
    gc.collect()
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0, t0 = _cpu_seconds(), perf_counter()
        for argv in workload.commands:
            results.append(run_command(argv, rec))
        wall, cpu = perf_counter() - t0, _cpu_seconds() - cpu0
    return PassResult(results, wall, cpu, len(caught))


class Tally:
    """Operations attempted and failed over a run, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, workload, pass_result):
        failures = workload.check(pass_result.results)
        self.attempted += len(failures)
        for res, msgs in zip(pass_result.results, failures):
            if msgs:
                self.failed += 1
                self.messages += [f"{workload.name}/{res.command}: {m}" for m in msgs]

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        self.messages.append(message)


def _child(code, timeout=CHILD_TIMEOUT_S):
    """Run ``code`` in a fresh interpreter; returns (wall seconds, completed process)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    return perf_counter() - t0, proc


def setup_once(systems):
    """Wall time for a fresh interpreter to import rdeinv.cli and build ``systems``."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import rdeinv.cli as cli\n"
        f"for name in {list(systems)!r}: cli.SYSTEM_BUILDERS[name]()\n"
    )
    wall, proc = _child(code, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return wall


def rss_child(name, seed, size, work):
    """Entry point of the fresh process that measures peak RSS over one pass."""
    if import_program() is None:
        raise SystemExit("rdeinv not found")
    from workloads import WORKLOADS

    wl = WORKLOADS[name](work, seed, size)
    pass_result = run_pass(wl)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = Tally()
    tally.add(wl, pass_result)
    print(json.dumps({"peak_rss_mb": peak_mb, "attempted": tally.attempted,
                      "failed": tally.failed, "messages": tally.messages}))


def measure_rss(name, seed, size, work, tally):
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run\n"
        f"run.rss_child({name!r}, {seed!r}, {size!r}, {str(work)!r})\n"
    )
    _, proc = _child(code)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tally.fail(f"{name}: peak-RSS pass failed: {proc.stderr.strip()[-500:]}")
        return None
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    tally.messages += report["messages"]
    return report["peak_rss_mb"]


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans, counts, wall):
    """Per-layer metrics of one traced pass."""
    from tracer import span_stats, union_seconds

    stats = span_stats(spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {f"{n}.calls": stat(n, "calls") for n in SPAN_CALLS}
    m.update({n: counts.get(n, 0) for n, _ in COUNTERS})
    recovered = counts.get("reconstruct.recovered", 0)
    exceeded = counts.get("reconstruct.trust_region_exceeded", 0)
    m["reconstruct.trust_region_exceeded_frac"] = exceeded / recovered if recovered else 0.0
    m.update({f"{n}.self_s": stat(n, "self_s") for n in SPAN_SELF})
    m.update({k: union_seconds(spans, names) / wall for k, names in SHARES.items()})
    m.update({f"cli.{c}.s": stat(f"cli.{c}", "total_s") for c in CLI_COMMANDS})
    m["cli.self_s"] = sum(stat(f"cli.{c}", "self_s") for c in CLI_COMMANDS)
    return m


def _measure_untraced(wl, seconds, tally, rss_work):
    setup_once(wl.systems)  # unmeasured: fills the file cache and compiles bytecode
    warm = run_pass(wl)
    tally.add(wl, warm)
    est = warm.wall_s
    passes, setups = [], []
    t_start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t_start + est <= seconds:
        # set-up runs are spread over the run, so they meet the same machine load as the passes
        setups.append(setup_once(wl.systems))
        passes.append(run_pass(wl))
        tally.add(wl, passes[-1])
        est = statistics.median(p.wall_s for p in passes) + statistics.median(setups)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once(wl.systems))
    peak = measure_rss(wl.name, wl.seed, wl.size_name, rss_work, tally)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setups),
        # a failed child is already counted; this process's own peak stands in for it
        "peak_rss_mb": peak if peak is not None
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    notes = {"passes": len(passes), "wall_s": [round(p.wall_s, 4) for p in passes],
             "setup_runs": len(setups), "warnings": passes[0].warnings}
    return metrics, notes


def _measure_traced(wl, seconds, tally):
    import tracer

    warm = run_pass(wl)
    tally.add(wl, warm)
    est = 2 * warm.wall_s
    rec = tracer.Recorder()
    plain, traced, layers, dumped = [], [], [], []
    t_start = perf_counter()
    while len(traced) < 2 or perf_counter() - t_start + est <= seconds:
        plain.append(run_pass(wl))
        tally.add(wl, plain[-1])
        with rec.patched():
            t0 = perf_counter()
            traced.append(run_pass(wl, rec))
        spans, counts = rec.take()
        tally.add(wl, traced[-1])
        layers.append(layer_metrics(spans, counts, traced[-1].wall_s))
        dumped.append((t0, spans))
        est = plain[-1].wall_s + traced[-1].wall_s
    for key in sorted(EXACT):
        if len({lm[key] for lm in layers}) > 1:
            tally.fail(f"{wl.name}: counter {key} differs between traced passes: "
                       f"{[lm[key] for lm in layers]}")
    metrics = {key: statistics.median(lm[key] for lm in layers) for key in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
        - 1.0
    )
    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{wl.name}-seed{wl.seed}.jsonl"
    tracer.dump(trace_file, {"workload": wl.name, "provenance": provenance(wl.seed)}, dumped)
    return metrics, {"passes": len(traced), "trace_file": str(trace_file.relative_to(ROOT))}


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload and return (metrics {name: (value, unit)}, tally, notes)."""
    from workloads import WORKLOADS

    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        wl = WORKLOADS[name](work / "pass", seed, size)
        if trace:
            metrics, notes = _measure_traced(wl, seconds, tally)
        else:
            metrics, notes = _measure_untraced(wl, seconds, tally, work / "rss")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    return {k: (v, units[k]) for k, v in metrics.items()}, tally, notes


def _fmt_value(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="tiny runs the same workloads at a fraction of the work")
    parser.add_argument("--update-reference", action="store_true",
                        help="run one pass of the default seed and store its values as the reference")
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"rdeinv sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    if args.update_reference:
        return update_reference(names, args.size)

    print(json.dumps({"provenance": provenance(args.seed)}, sort_keys=True))
    combined = {}
    total = Tally()
    for name in names:
        metrics, tally, notes = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        for msg in tally.messages[:20]:
            print(f"FAILED {msg}", file=sys.stderr)
        total.attempted += tally.attempted
        total.failed += tally.failed
        print(f"# {name}: {json.dumps(notes, sort_keys=True)}")
        for key, (value, unit) in metrics.items():
            print(f"{name:22s} {key:44s} {_fmt_value(value):>14s} {unit}")
        print(f"{name:22s} {'failed_frac':44s} {_fmt_value(tally.failed / tally.attempted):>14s} "
              f"ratio ({tally.failed} of {tally.attempted} operations)")
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": combined}))
    return 0


def update_reference(names, size):
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference, reference_file

    ref = load_reference()
    for name in names:
        work = WORK_ROOT / f"reference-{name}-{os.getpid()}"
        try:
            wl = WORKLOADS[name](work, DEFAULT_SEED, size)
            wl.compare_reference = False
            failures = wl.check(run_pass(wl).results)
            if any(failures):
                print(f"{name}: checks failed, reference not written: {failures}", file=sys.stderr)
                return 1
            ref.setdefault(name, {})[size] = wl.digest
        finally:
            shutil.rmtree(work, ignore_errors=True)
    reference_file().write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
