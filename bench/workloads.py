"""Benchmark workloads: inputs made from a seed, the commands that run them,
and the checks that their outputs are right.

Each workload is a closed loop with one client: the commands of a pass run
one after another through ``rdeinv.cli.main(argv)``, and the program receives
only the generated INI file and argv.  Truth values come from ``roughpath``
(or from an in-process solve) outside the timed region.

``WHY`` holds each workload's one-line rationale (the same text as in
BENCHMARK.json) and ``LAYERS`` the per-layer metrics that should move the
end-to-end metrics on it; ``BYPASSED`` names the layers a workload does not
exercise, where a change to that layer should show no difference.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from rdeinv import rde, reconstruct, roughpath
from rdeinv.systems import SYSTEM_BUILDERS

DEFAULT_SEED = 0

WHY = {
    "convergence_brownian": "paper's order experiment: 8 Brownian seeds x 4 dyadic levels; "
    "observe_flow and the log-ODE bracket path dominate, c=1 so point batching is bypassed",
    "reconstruct_flow": "flow-model recovery on triple_product (c=3, m=6): finite-difference "
    "Jacobian of flow_map dominates; runs the interval thread pool and writes three reports",
    "file_pipeline": "lift, solve, observe, reconstruct --obs, search-points through CSV files; "
    "path CSV I/O dominates, one long euler2 trajectory, no thread pool",
}

LAYERS = {
    "convergence_brownian": {
        "rde": ["rde.observe_flow.self_s", "rde.observe_flow.share", "rde.logode_step.calls",
                "rde.logode_step.self_s", "rde.rk4_stages"],
        "vectorfields": ["vectorfields.field_evals", "vectorfields.jacobian_evals"],
        "cli": ["cli.convergence.s", "cli.self_s"],
    },
    "reconstruct_flow": {
        "reconstruct": ["reconstruct.local_reconstruct_flow.self_s",
                        "reconstruct.local_reconstruct_flow.share", "reconstruct.flow_map.calls",
                        "reconstruct.gn_iterations"],
        "vectorfields": ["vectorfields.field_evals", "vectorfields.jacobian_evals"],
        "cli": ["cli.reconstruct.s", "cli.self_s"],
    },
    "file_pipeline": {
        "roughpath": ["roughpath.write_path_csv.self_s", "roughpath.read_path_csv.self_s",
                      "roughpath.path_csv.bytes", "roughpath.path_csv.share"],
        "rde": ["rde.solve.self_s", "rde.euler2_step.calls"],
        "reconstruct": ["reconstruct.search_points.self_s",
                        "reconstruct.reconstruction_matrix.calls"],
    },
}

BYPASSED = {
    "convergence_brownian": ["point batching (c=1)", "path CSV I/O", "flow model"],
    "reconstruct_flow": ["path CSV I/O", "euler2", "point search"],
    "file_pipeline": ["thread pool", "flow model", "seed fan-out"],
}

# Work sizes.  "full" is what the benchmark measures; "tiny" keeps the same
# shape at a fraction of the cost for the self-test.
SIZES = {
    "convergence_brownian": {
        "full": dict(n_seeds=8, n_coarse=128, n_fine=8, levels=4, n_internal=8, n_sub=4),
        "tiny": dict(n_seeds=2, n_coarse=16, n_fine=4, levels=3, n_internal=2, n_sub=2),
    },
    "reconstruct_flow": {
        "full": dict(n_coarse=64, n_fine=8, n_intervals=16, n_internal=2, n_sub=8),
        "tiny": dict(n_coarse=8, n_fine=4, n_intervals=4, n_internal=1, n_sub=4),
    },
    "file_pipeline": {
        "full": dict(n_coarse=16384, n_fine=4, n_obs=16, obs_steps=16, n_trials=1024),
        "tiny": dict(n_coarse=256, n_fine=2, n_obs=4, obs_steps=16, n_trials=32),
    },
}

# Floor on the median per-seed slope that convergence_brownian reports.  AC5
# asks for 0.9, but over 50 seeds; the median over 8 scatters more: for
# workload seeds 0-39 it had mean 1.49, standard deviation 0.25 and minimum
# 0.85 (seed 8).  This floor sits 4 standard deviations below the mean.
SLOPE_FLOOR = 0.5
# Largest recovery error over increment size |x| + |a| accepted per interval.
# Over seeds 0-39 the largest seen was 0.0034 on file_pipeline and 0.066 on
# reconstruct_flow (seed 7); a recovery that returns zero scores 1.
RECOVERY_RATIO_MAX = 0.25
RTOL_REF = 1e-6  # committed reference values, default seed only
RTOL_SAME = 1e-9  # a value the program reports twice, or the check recomputes


def _sha(file):
    return hashlib.sha256(Path(file).read_bytes()).hexdigest()


def _close(a, b, rtol, atol=0.0):
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=atol))


def _read_csv_rows(file):
    with open(file) as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


class Workload:
    """A named workload bound to a work directory, a seed and a size.

    ``commands`` is the pass; ``check(results)`` returns one list of failure
    messages per command.  Output files are compared with those of the first
    checked pass, so a pass that changes the numbers fails.  ``digest`` holds
    the values compared with the committed reference for the default seed.
    """

    name = ""
    systems: tuple = ()  # named systems the pass builds, for setup_s
    commands: list  # argv of each command of a pass
    outputs: list  # files each command writes, relative to the work directory

    def __init__(self, work, seed, size="full"):
        self.work = Path(work)
        self.seed = int(seed)
        self.size_name = size
        self.size = SIZES[self.name][size]
        self.work.mkdir(parents=True, exist_ok=True)
        self._first_hashes = None
        self._truth = None
        self.digest = {}
        self.compare_reference = True

    def clean(self):
        """Remove the outputs of the previous pass, so stale files cannot pass."""
        for files in self.outputs:
            for f in files:
                p = self.work / f
                if p.is_dir():
                    shutil.rmtree(p)
                elif p.exists():
                    p.unlink()

    def truth(self):
        if self._truth is None:
            self._truth = self._truth_data()
        return self._truth

    def check(self, results):
        """Failure messages per command for one pass (empty lists when all is well)."""
        failures = []
        for k, res in enumerate(results):
            msgs = []
            if res.error is not None:
                msgs.append(f"raised {res.error}")
            elif res.code != 0:
                msgs.append(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
            failures.append(msgs)
        hashes = {}
        first = self._first_hashes is None
        for k, files in enumerate(self.outputs):
            if failures[k]:
                continue
            missing = [f for f in files if not (self.work / f).exists()]
            if missing:
                failures[k].append(f"missing outputs {missing}")
                continue
            for f in files:
                if (self.work / f).is_file():
                    hashes[f] = _sha(self.work / f)
            if first:
                try:
                    failures[k] += self._check_op(k, results[k])
                except Exception as exc:  # a malformed output is a failed check
                    failures[k].append(f"check raised {type(exc).__name__}: {exc}")
            else:
                changed = [f for f in files if f in hashes and hashes[f] != self._first_hashes.get(f)]
                if changed:
                    failures[k].append(f"outputs differ from the first pass: {changed}")
        if first and not any(failures):
            self._first_hashes = hashes
            if self.compare_reference and self.seed == DEFAULT_SEED:
                ref = load_reference().get(self.name, {}).get(self.size_name)
                if ref is None:
                    failures[-1].append("no committed reference values")
                else:
                    for key, want in ref.items():
                        got = self.digest.get(key)
                        if got is None or not _close(got, want, RTOL_REF, 1e-14):
                            failures[-1].append(f"reference mismatch in {key}")
        return failures


def reference_file():
    return Path(__file__).with_name("reference.json")


def load_reference():
    try:
        return json.loads(reference_file().read_text())
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------


class ConvergenceBrownian(Workload):
    name = "convergence_brownian"
    systems = ("rolling_ball",)

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        z = self.size
        # each workload seed owns a disjoint block of driver seeds
        ini = (
            "[experiment]\nsystem = rolling_ball\nmethod = taylor\n"
            f"[driver]\nkind = brownian\nell = 2\nseed = {self.seed * z['n_seeds']}\n"
            f"n_seeds = {z['n_seeds']}\nn_coarse = {z['n_coarse']}\nn_fine = {z['n_fine']}\n"
            "horizon = 1.0\n[points]\nmode = recommended\n"
            f"[schedule]\nkind = dyadic\ns = 0.0\nt = 1.0\nlevels = {z['levels']}\n"
            f"[solver]\nn_internal = {z['n_internal']}\nn_sub = {z['n_sub']}\n"
        )
        (self.work / "convergence.ini").write_text(ini)
        self.commands = [
            ["convergence", "--config", str(self.work / "convergence.ini"),
             "--out", str(self.work / "slopes.csv")],
        ]
        self.outputs = [["slopes.csv"]]

    def _truth_data(self):
        return None

    def _check_op(self, k, res):
        z = self.size
        msgs = []
        rows = _read_csv_rows(self.work / "slopes.csv")
        if rows[0] != "length,err_x,err_a,slope_running":
            return [f"bad slope table header {rows[0]!r}"]
        table = [r.split(",") for r in rows[1:-1]]
        if len(table) != z["levels"]:
            return [f"{len(table)} slope rows, expected {z['levels']}"]
        lengths = np.array([float(r[0]) for r in table])
        errs = np.array([[float(r[1]), float(r[2])] for r in table])
        if not _close(lengths, [2.0**-k for k in range(z["levels"])], RTOL_SAME):
            msgs.append(f"dyadic lengths wrong: {lengths}")
        if not (np.all(np.isfinite(errs)) and np.all(errs > 0)):
            msgs.append("errors must be finite and positive")
            return msgs
        total = errs.sum(axis=1)
        for i in range(1, len(table)):
            want = math.log(total[i - 1] / total[i]) / math.log(lengths[i - 1] / lengths[i])
            if not _close(float(table[i][3]), want, RTOL_SAME):
                msgs.append(f"running slope on row {i} is not the log-ratio of its errors")
        summary = rows[-1]
        want_tail = f" status=ok seeds={z['n_seeds']}"
        if not (summary.startswith("# slope=") and summary.endswith(want_tail)):
            return msgs + [f"bad summary line {summary!r}"]
        slope = float(summary[len("# slope="): -len(want_tail)])
        reported = json.loads(res.stdout.strip().splitlines()[-1])
        if reported.get("slope") != slope or reported.get("levels") != z["levels"]:
            msgs.append("stdout disagrees with the slope table")
        if not slope >= SLOPE_FLOOR:
            msgs.append(f"median slope {slope:.3f} below the {SLOPE_FLOOR} floor")
        self.digest.update(err_x=errs[:, 0].tolist(), err_a=errs[:, 1].tolist(), slope=[slope])
        return msgs


class ReconstructFlow(Workload):
    name = "reconstruct_flow"
    systems = ("triple_product",)
    horizon = 0.05

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        z = self.size
        ini = (
            "[experiment]\nsystem = triple_product\nmethod = flow\n"
            f"[driver]\nkind = brownian\nell = 3\nseed = {self.seed}\n"
            f"n_coarse = {z['n_coarse']}\nn_fine = {z['n_fine']}\nhorizon = {self.horizon!r}\n"
            "[points]\nmode = recommended\n"
            f"[schedule]\nkind = uniform\ns = 0.0\nt = {self.horizon!r}\nn = {z['n_intervals']}\n"
            f"[solver]\nn_internal = {z['n_internal']}\nn_sub = {z['n_sub']}\n"
            f"[output]\ndir = {self.work / 'out'}\n"
        )
        (self.work / "reconstruct.ini").write_text(ini)
        self.commands = [["reconstruct", "--config", str(self.work / "reconstruct.ini")]]
        self.outputs = [["out/results.json", "out/stitched.csv", "out/errors.csv"]]

    def _truth_data(self):
        z = self.size
        path = roughpath.sample_brownian_lift(3, z["n_coarse"], z["n_fine"], self.horizon, self.seed)
        w = z["n_coarse"] // z["n_intervals"]
        pairs = [(k * w, (k + 1) * w) for k in range(z["n_intervals"])]
        return path, pairs, [path.increment(i, j) for i, j in pairs]

    def _check_op(self, k, res):
        path, pairs, incs = self.truth()
        msgs = []
        report = json.loads((self.work / "out/results.json").read_text())
        if (report["m"], report["rank"], report["method"]) != (6, 6, "flow"):
            msgs.append(f"unexpected m/rank/method {report['m']}/{report['rank']}/{report['method']}")
        results = report["results"]
        if len(results) != len(pairs):
            return msgs + [f"{len(results)} intervals in results.json, expected {len(pairs)}"]
        rows = [r.split(",") for r in _read_csv_rows(self.work / "out/errors.csv")[1:]]
        if len(rows) != len(pairs):
            return msgs + [f"{len(rows)} rows in errors.csv, expected {len(pairs)}"]
        err = np.empty((len(pairs), 2))
        for n, ((i, j), inc, r, row) in enumerate(zip(pairs, incs, results, rows)):
            st = [path.times[i], path.times[j]]
            if not (_close(r["interval"], st, RTOL_SAME) and _close([float(row[0]), float(row[1])], st, RTOL_SAME)):
                msgs.append(f"interval {n} does not match the schedule")
            err[n] = (np.linalg.norm(np.array(r["a_hat"]) - inc.x), np.linalg.norm(np.array(r["b_hat"]) - inc.a))
            if not _close([float(row[2]), float(row[3])], err[n], RTOL_SAME, 1e-15):
                msgs.append(f"errors.csv row {n} disagrees with the truth increment")
            scale = np.linalg.norm(inc.x) + np.linalg.norm(inc.a)
            if not err[n].sum() <= RECOVERY_RATIO_MAX * scale:
                msgs.append(f"interval {n}: error {err[n].sum():.3e} against increment size {scale:.3e}")
        stitched = roughpath.read_path_csv(self.work / "out/stitched.csv")
        want = np.cumsum([r["a_hat"] for r in results], axis=0)
        if stitched.n != len(pairs) or not _close(stitched.values[1:], want, RTOL_SAME, 1e-15):
            msgs.append("stitched path does not chain the recovered increments")
        self.digest.update(err_x=err[:, 0].tolist(), err_a=err[:, 1].tolist())
        return msgs


class FilePipeline(Workload):
    name = "file_pipeline"
    systems = ("unicycle", "rolling_ball", "triple_product")
    box = (0.5, 3.0)

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        z = self.size
        n = z["n_coarse"]
        w = z["obs_steps"]
        self.pairs = [(k * w, (k + 1) * w) for k in range(z["n_obs"])]
        intervals = ";".join(f"{i / n!r},{j / n!r}" for i, j in self.pairs)
        lo, hi = (",".join([repr(b)] * 3) for b in self.box)
        path, traj, obs, out, search = (
            str(self.work / f) for f in ("path.csv", "traj.csv", "obs.csv", "out", "search.json")
        )
        self.commands = [
            ["lift", "--driver", "brownian", "--seed", str(self.seed), "--n-coarse", str(n),
             "--n-fine", str(z["n_fine"]), "--out", path],
            ["solve", "--system", "unicycle", "--path", path, "--method", "euler2",
             "--alpha", "0.4", "--out", traj],
            ["observe", "--system", "rolling_ball", "--path", path, "--intervals", intervals,
             "--n-internal", "1", "--n-sub", "1", "--alpha", "0.4", "--out", obs],
            ["reconstruct", "--system", "rolling_ball", "--obs", obs, "--out-dir", out],
            ["search-points", "--system", "triple_product", "--seed", str(self.seed), "--c-max", "3",
             "--n-trials", str(z["n_trials"]), "--box-lo", lo, "--box-hi", hi, "--out", search],
        ]
        self.outputs = [["path.csv"], ["traj.csv"], ["obs.csv"], ["out/results.json"], ["search.json"]]

    def _truth_data(self):
        z = self.size
        path = roughpath.sample_brownian_lift(2, z["n_coarse"], z["n_fine"], 1.0, self.seed)
        return path, [path.increment(i, j) for i, j in self.pairs]

    def _check_op(self, k, res):
        path, incs = self.truth()
        return [self._check_lift, self._check_solve, self._check_observe,
                self._check_reconstruct, self._check_search][k](path, incs)

    def _check_lift(self, path, incs):
        back = roughpath.read_path_csv(self.work / "path.csv", 0.4)
        same = all(np.array_equal(getattr(back, a), getattr(path, a)) for a in ("times", "values", "step_areas"))
        return [] if same else ["path CSV does not round-trip the lift bitwise"]

    def _check_solve(self, path, incs):
        system = SYSTEM_BUILDERS["unicycle"]()
        want = rde.solve(system.fields, system.recommended_points[0], path, method="euler2")
        got = rde.read_trajectory_csv(self.work / "traj.csv")
        self.digest["traj_end"] = got.states[-1].tolist()
        same = np.array_equal(got.times, want.times) and np.array_equal(got.states, want.states)
        return [] if same else ["trajectory from the file differs from the in-process solve"]

    def _check_observe(self, path, incs):
        system = SYSTEM_BUILDERS["rolling_ball"]()
        points = np.vstack(system.recommended_points)
        got = reconstruct.read_observations_csv(self.work / "obs.csv")
        if len(got) != len(self.pairs):
            return [f"{len(got)} observation sets, expected {len(self.pairs)}"]
        for obs, (i, j) in zip(got, self.pairs):
            want = rde.observe_flow(system.fields, points, path, i, j, 1, 1)
            if not (np.array_equal(obs.observed, want.observed) and np.array_equal(obs.base_points, points)):
                return [f"observation over steps {i}..{j} differs from the in-process flow"]
        return []

    def _check_reconstruct(self, path, incs):
        report = json.loads((self.work / "out/results.json").read_text())
        msgs = []
        if (report["m"], report["rank"]) != (3, 3) or len(report["results"]) != len(incs):
            return [f"unexpected m/rank/count {report['m']}/{report['rank']}/{len(report['results'])}"]
        err = []
        for n, (r, inc) in enumerate(zip(report["results"], incs)):
            e = np.linalg.norm(np.array(r["a_hat"]) - inc.x) + np.linalg.norm(np.array(r["b_hat"]) - inc.a)
            scale = np.linalg.norm(inc.x) + np.linalg.norm(inc.a)
            if not e <= RECOVERY_RATIO_MAX * scale:
                msgs.append(f"interval {n}: error {e:.3e} against increment size {scale:.3e}")
            err.append(e)
        self.digest["recon_err"] = err
        return msgs

    def _check_search(self, path, incs):
        report = json.loads((self.work / "search.json").read_text())
        if not (report["rank"] == report["m"] == 6 and report["full_rank"]):
            return [f"search found rank {report['rank']} of m = {report['m']}"]
        points = np.array(report["points"])
        if not np.all((points >= self.box[0]) & (points <= self.box[1])):
            return ["search returned points outside the box"]
        rm = reconstruct.reconstruction_matrix(SYSTEM_BUILDERS["triple_product"]().fields, points)
        if rm.rank != 6 or not _close(rm.singular_values[-1], report["sigma_min"], RTOL_SAME):
            return ["search report disagrees with the rank test at its points"]
        self.digest["sigma_min"] = [report["sigma_min"]]
        return []


WORKLOADS = {w.name: w for w in (ConvergenceBrownian, ReconstructFlow, FilePipeline)}
