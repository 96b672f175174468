"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import fit_slope, rolling_ball_generator
from rdeinv.cli import main as cli_main
from rdeinv.errors import RankDeficient
from rdeinv.rde import ObservationSet, euler2_step, logode_step, observe_flow, observe_flows, solve
from rdeinv.reconstruct import (
    doss_sussmann_1d,
    local_reconstruct_flow,
    local_reconstruct_taylor,
    reconstruction_matrix,
    stitch,
    trust_region,
)
from rdeinv.roughpath import (
    GridRoughPath,
    RoughIncrement,
    area_matrix,
    chen_mul,
    circle_samples,
    make_linear_rough_path,
    sample_brownian_fine,
)
from rdeinv.systems import (
    constant_fields,
    cvt,
    kohn,
    rolling_ball,
    triple_product,
    unicycle,
)
from rdeinv.vectorfields import VectorFieldSet, bracket


def report(name, passed, started, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"{name}: {status} [{time.perf_counter() - started:.2f}s]{extra}")
    assert passed, f"{name} failed{extra}"


def random_increment(rng, ell):
    raw = rng.standard_normal((ell, ell))
    return RoughIncrement(rng.standard_normal(ell), 0.5 * (raw - raw.T))


def test_ac1_rank_oracles():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(101)
    tp = triple_product()
    # any 2-point matrix of this system is singular; at {(1,1,1),(1,2,3)} the
    # kernel is exactly (5,-32,27,2,3,-30), so full rank needs three points
    ok &= reconstruction_matrix(tp.fields, [[1, 1, 1], [1, 2, 3]]).rank == 5
    ok &= reconstruction_matrix(tp.fields, tp.recommended_points).rank == 6
    deg = kohn(2)
    for _ in range(10):
        points = rng.standard_normal((rng.integers(1, 4), 5))
        ok &= reconstruction_matrix(deg.fields, points).rank < deg.fields.ell * (deg.fields.ell + 1) // 2
    heis = kohn(1)
    for _ in range(10):
        ok &= reconstruction_matrix(heis.fields, [rng.standard_normal(3)]).rank == 3
    uni = unicycle()
    for _ in range(10):
        ok &= reconstruction_matrix(uni.fields, [rng.standard_normal(3)]).rank == 3
    trans = cvt()
    for _ in range(10):
        p = rng.standard_normal(4)
        p[3] = rng.uniform(0.05, 0.95)
        ok &= reconstruction_matrix(trans.fields, [p]).rank == 3
    for ell, d in ((2, 3), (3, 3)):
        sys_ = constant_fields(ell, d)
        ok &= reconstruction_matrix(sys_.fields, [rng.standard_normal(d)]).rank == ell
    report("AC1 rank oracles", ok, t0, "triple product: 2 points rank 5, 3 points rank 6")


def test_ac2_bracket_displays():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(202)
    tp, uni, trans, deg = triple_product(), unicycle(), cvt(), kohn(2)
    ball = rolling_ball()
    from rdeinv.systems import ROLLING_BALL_A1, ROLLING_BALL_A2

    comm = ROLLING_BALL_A2 @ ROLLING_BALL_A1 - ROLLING_BALL_A1 @ ROLLING_BALL_A2
    for _ in range(20):
        x, y, z = rng.standard_normal(3)
        p = np.array([x, y, z])
        ok &= np.allclose(bracket(tp.fields, 0, 1, p), [-x * z * z, y * z * z, 0], atol=1e-10)
        ok &= np.allclose(bracket(tp.fields, 0, 2, p), [-x * y * y, 0, z * y * y], atol=1e-10)
        ok &= np.allclose(bracket(tp.fields, 1, 2, p), [0, -y * x * x, z * x * x], atol=1e-10)
        q = rng.standard_normal(5)
        ok &= np.max(np.abs(bracket(deg.fields, 0, 1, q))) <= 1e-10
        ok &= np.max(np.abs(bracket(deg.fields, 2, 3, q))) <= 1e-10
        ok &= np.allclose(bracket(deg.fields, 0, 2, q), [0, 0, 0, 0, -4.0], atol=1e-10)
        ok &= np.max(np.abs(bracket(deg.fields, 0, 3, q))) <= 1e-10
        u = rng.standard_normal(3)
        ok &= np.allclose(
            bracket(uni.fields, 0, 1, u), [np.sin(u[2]), -np.cos(u[2]), 0], atol=1e-10
        )
        w = rng.standard_normal(4)
        w[3] = rng.uniform(0.05, 0.95)
        ok &= np.allclose(
            bracket(trans.fields, 0, 1, w),
            [1 / w[3] ** 2, -1 / (1 - w[3]) ** 2, 0, 0],
            atol=1e-10,
        )
        m = rng.standard_normal((3, 3))
        ok &= np.allclose(
            bracket(ball.fields, 0, 1, m.ravel()), (comm @ m).ravel(), atol=1e-10
        )
    report("AC2 bracket displays", ok, t0)


def test_ac3_chen_and_weak_geometricity():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(303)
    for _ in range(1000):
        a, b, c = (random_increment(rng, 3) for _ in range(3))
        left = chen_mul(chen_mul(a, b), c)
        right = chen_mul(a, chen_mul(b, c))
        scale = 1.0 + np.linalg.norm(left.second_level)
        ok &= np.linalg.norm(left.x - right.x) <= 1e-10 * scale
        ok &= np.linalg.norm(left.a - right.a) <= 1e-10 * scale
    # refinement invariance: a midpoint on a straight segment changes nothing
    times = np.sort(rng.uniform(0, 1, 7))
    times[0], times[-1] = 0.0, 1.0
    values = rng.standard_normal((7, 2))
    base = GridRoughPath(times, values).increment(0, 6)
    t_mid = 0.5 * (times[3] + times[4])
    v_mid = 0.5 * (values[3] + values[4])
    fine = GridRoughPath(
        np.insert(times, 4, t_mid), np.insert(values, 4, v_mid, axis=0)
    ).increment(0, 7)
    ok &= np.linalg.norm(base.x - fine.x) <= 1e-10
    ok &= np.linalg.norm(base.a - fine.a) <= 1e-10
    loop = GridRoughPath(*circle_samples(10_000))
    inc = loop.increment(0, loop.n)
    ok &= np.linalg.norm(inc.x) <= 1e-6
    ok &= abs(inc.a[0, 1] - np.pi) <= 1e-4
    report("AC3 Chen/weak geometricity", ok, t0)


def test_ac4_solver_order():
    t0 = time.perf_counter()
    sys_ = rolling_ball()
    x0 = np.eye(3).ravel()
    fine = GridRoughPath(*circle_samples(2**14))
    top = 1024
    sub = GridRoughPath(fine.times[: top + 1], fine.values[: top + 1], fine.step_areas[:top])
    ref = solve(sys_.fields, x0, sub, method="logode", n_sub=4)
    lengths, err_e, err_l = [], [], []
    for k in range(5):
        j = top >> k
        inc = fine.increment(0, j)
        truth = ref.states[j]
        err_e.append(np.linalg.norm(euler2_step(sys_.fields, x0, inc) - truth))
        err_l.append(np.linalg.norm(logode_step(sys_.fields, x0, inc, n_sub=32) - truth))
        lengths.append(fine.times[j])
    slope_e, slope_l = fit_slope(lengths, err_e), fit_slope(lengths, err_l)
    inc = RoughIncrement([0.2, -0.1], area_matrix([0.15], 2))
    got = logode_step(sys_.fields, x0, inc, n_sub=32)
    oracle = expm(rolling_ball_generator(inc.x, 0.15)).ravel()
    exp_err = float(np.max(np.abs(got - oracle)))
    ok = slope_e >= 2.5 and slope_l >= 2.5 and exp_err <= 1e-8
    report(
        "AC4 solver order",
        ok,
        t0,
        f"euler2 slope {slope_e:.2f}, logode slope {slope_l:.2f}, expm gap {exp_err:.1e}",
    )


def test_ac5_reconstruction_order():
    t0 = time.perf_counter()
    sys_ = rolling_ball()
    base = np.array([np.eye(3).ravel()])
    # (i) smooth driver, both methods
    fine = GridRoughPath(*circle_samples(2**13))
    top = 512
    lengths, e_taylor, e_flow = [], [], []
    for k in range(5):
        j = top >> k
        inc = fine.increment(0, j)
        obs = observe_flow(sys_.fields, base, fine, 0, j, n_internal=1, n_sub=4)
        rt = local_reconstruct_taylor(sys_.fields, obs)
        rf = local_reconstruct_flow(sys_.fields, obs, n_sub=16)
        e_taylor.append(
            np.linalg.norm(rt.a_hat - inc.x) + np.linalg.norm(rt.b_hat - inc.a)
        )
        e_flow.append(
            np.linalg.norm(rf.a_hat - inc.x) + np.linalg.norm(rf.b_hat - inc.a)
        )
        lengths.append(fine.times[j])
    slope_t, slope_f = fit_slope(lengths, e_taylor), fit_slope(lengths, e_flow)
    # (ii) Brownian lifts, alpha = 0.4, median per-seed slope over 50 seeds
    n_total, horizon = 4096, 0.5
    hs = [horizon / 2**k for k in range(5)]
    ends = [n_total >> k for k in range(5)]
    slopes = []
    b_paths = [
        sample_brownian_fine(2, 8, n_total // 8, horizon, seed=1000 + seed) for seed in range(50)
    ]
    # every seed's log-ODE solution (one RK4 substep per grid step) in one lockstep run
    observed = observe_flows(sys_.fields, base, b_paths, [(0, j) for j in ends], n_sub=1)
    for p, b_fine in enumerate(b_paths):
        errs = []
        for j, obs in zip(ends, observed[p * len(ends):]):
            inc = b_fine.increment(0, j)
            res = local_reconstruct_taylor(sys_.fields, obs)
            errs.append(
                np.linalg.norm(res.a_hat - inc.x) + np.linalg.norm(res.b_hat - inc.a)
            )
        slopes.append(fit_slope(hs, errs))
    median_slope = float(np.median(slopes))
    ok = slope_t >= 2.5 and slope_f >= 2.5 and median_slope >= 0.9
    report(
        "AC5 reconstruction order",
        ok,
        t0,
        f"smooth taylor {slope_t:.2f}, smooth flow {slope_f:.2f}, "
        f"brownian median {median_slope:.2f} (target 1.2)",
    )


def test_ac6_necessity():
    t0 = time.perf_counter()
    ok = True
    times = np.linspace(0.0, 0.3, 5)
    sys_ = constant_fields(2, 2)
    points = np.array([[0.0, 0.0], [1.0, -1.0]])
    null_obs = observe_flow(
        sys_.fields, points, make_linear_rough_path(np.zeros(3), 2, times), 0, 4, 4
    )
    area_obs = observe_flow(
        sys_.fields,
        points,
        make_linear_rough_path(np.array([0.0, 0.0, 0.8]), 2, times),
        0,
        4,
        4,
    )
    ok &= float(np.max(np.abs(null_obs.observed - area_obs.observed))) <= 1e-9
    try:
        local_reconstruct_taylor(sys_.fields, area_obs)
        ok = False
    except RankDeficient:
        pass
    deg = kohn(2)
    rng = np.random.default_rng(606)
    kpoints = rng.standard_normal((4, 5))
    rm = reconstruction_matrix(deg.fields, kpoints)
    v = np.linalg.svd(rm.mat)[2][-1]
    ok &= float(np.linalg.norm(rm.mat @ v)) <= 1e-10
    null_obs = observe_flow(
        deg.fields, kpoints[:2], make_linear_rough_path(np.zeros(10), 4, times), 0, 4, 4
    )
    v_obs = observe_flow(
        deg.fields, kpoints[:2], make_linear_rough_path(v, 4, times), 0, 4, 4
    )
    ok &= float(np.max(np.abs(null_obs.observed - v_obs.observed))) <= 1e-9
    try:
        local_reconstruct_taylor(deg.fields, v_obs)
        ok = False
    except RankDeficient:
        pass
    report("AC6 necessity (kernel drivers indistinguishable)", ok, t0)


def test_ac7_doss_sussmann_exactness():
    t0 = time.perf_counter()
    fields = VectorFieldSet([lambda x: x.copy()], d=1, jacs=[lambda x: np.eye(1)])
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        target = rng.uniform(0.5, 2.0)
        got = doss_sussmann_1d(fields, 1.0, target)
        worst = max(worst, abs(got - np.log(target)))
    report("AC7 one-dimensional exact inversion", worst <= 1e-10, t0, f"max error {worst:.1e}")


def test_ac8_stitching():
    t0 = time.perf_counter()
    n_fine, n_local = 64 * 256, 64
    f = n_fine // n_local
    fine = GridRoughPath(*circle_samples(n_fine))
    segments = [fine.increment(k * f, (k + 1) * f) for k in range(n_local)]
    stitched = stitch(segments, fine.times[::f])
    total = stitched.increment(0, n_local)
    ok = abs(total.a[0, 1] - np.pi) <= 1e-6
    for i, j in [(0, 64), (0, 32), (0, 16), (16, 48), (32, 64), (8, 40), (1, 2)]:
        a = stitched.increment(i, j)
        b = fine.increment(i * f, j * f)
        ok &= np.linalg.norm(a.x - b.x) <= 1e-10
        ok &= np.linalg.norm(a.a - b.a) <= 1e-10
    report("AC8 stitching", ok, t0, f"loop area gap {abs(total.a[0,1] - np.pi):.1e}")


def test_ac9_trust_region_constants():
    t0 = time.perf_counter()
    ok = True
    sys_ = rolling_ball()
    point = [np.eye(3).ravel()]
    eps1, eps2 = trust_region(sys_.fields, point)
    rm = reconstruction_matrix(sys_.fields, point)
    pinv_norm = float(np.linalg.norm(np.linalg.pinv(rm.mat), 2))
    ok &= abs(eps1 - 1.0 / pinv_norm) <= 1e-10
    ok &= abs(eps2 - 1.0 / (2.0 * (2.0 + 2.0 * np.sqrt(2.0)))) <= 1e-12
    # Lipschitz stability of the minimiser under observation perturbations
    fine = GridRoughPath(*circle_samples(2**12))
    base = np.array([np.eye(3).ravel()])
    obs = observe_flow(sys_.fields, base, fine, 0, 64, n_internal=1)
    res0 = local_reconstruct_taylor(sys_.fields, obs)
    rng = np.random.default_rng(909)
    worst_ratio = 0.0
    for _ in range(100):
        delta = rng.standard_normal(9)
        delta *= 1e-6 / np.linalg.norm(delta)
        res_p = local_reconstruct_taylor(
            sys_.fields, ObservationSet(base, obs.s, obs.t, obs.observed + delta)
        )
        moved = np.sqrt(
            np.linalg.norm(res_p.a_hat - res0.a_hat) ** 2
            + 0.5 * np.linalg.norm(res_p.b_hat - res0.b_hat) ** 2
        )
        worst_ratio = max(worst_ratio, moved / 1e-6)
        ok &= moved <= (2.0 / eps1) * 1e-6
    report(
        "AC9 trust-region constants",
        ok,
        t0,
        f"eps1 {eps1:.6f}, eps2 {eps2:.6f}, worst dtheta/dobs {worst_ratio:.3f} "
        f"<= {2.0 / eps1:.3f}",
    )


def test_ac10_cli_determinism_and_roundtrips(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    # repeated reconstruct runs with a fixed seed produce identical bytes
    blobs = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        cfg = tmp_path / f"{sub}.ini"
        cfg.write_text(
            "[experiment]\nsystem = rolling_ball\nmethod = taylor\n"
            "[driver]\nkind = brownian\nell = 2\nseed = 42\nn_coarse = 64\n"
            "n_fine = 8\nhorizon = 1.0\n[points]\nmode = recommended\n"
            "[schedule]\nkind = uniform\ns = 0.0\nt = 1.0\nn = 8\n"
            "[solver]\nn_internal = 4\nn_sub = 4\n"
            f"[output]\ndir = {out_dir}\n"
        )
        ok &= cli_main(["reconstruct", "--config", str(cfg)]) == 0
        blobs.append(
            tuple(
                (out_dir / n).read_bytes()
                for n in ("results.json", "stitched.csv", "errors.csv")
            )
        )
    ok &= blobs[0] == blobs[1]
    # lift -> file -> solve reproduces the in-process solve bitwise
    path_file = tmp_path / "path.csv"
    traj_file = tmp_path / "traj.csv"
    ok &= cli_main(["lift", "--driver", "circle", "--n", "64", "--out", str(path_file)]) == 0
    ok &= (
        cli_main(
            [
                "solve", "--system", "rolling_ball", "--path", str(path_file),
                "--n-sub", "8", "--out", str(traj_file),
            ]
        )
        == 0
    )
    from rdeinv.rde import read_trajectory_csv

    direct = solve(
        rolling_ball().fields,
        np.eye(3).ravel(),
        GridRoughPath(*circle_samples(64)),
        method="logode",
        n_sub=8,
    )
    ok &= np.array_equal(read_trajectory_csv(traj_file).states, direct.states)
    # two lift runs, identical bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        ok &= (
            cli_main(
                [
                    "lift", "--driver", "brownian", "--seed", "7", "--n-coarse", "32",
                    "--n-fine", "4", "--out", str(f),
                ]
            )
            == 0
        )
    ok &= a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    report("AC10 CLI determinism and round-trips", ok, t0)
