"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ltcsim import (
    FeedForwardApprox,
    Method,
    PipelineConfig,
    SolverConfig,
    approximate_trajectory,
    assemble_augmented_system,
    augmented_rhs,
    conservation_check,
    effective_time_constant,
    integrate_field,
    monitor_trajectory,
    parse_network,
    random_network,
    realize_as_ltc,
    serialize_network,
    simulate,
    state_bounds,
    tau_bounds,
    trajectory_from_csv,
    trajectory_to_csv,
)
from ltcsim.cli import cli_dispatch
from helpers import box_arrays, driven_pair, gap_ring, rotation_field

# Calibrated offline: median sup_traj_error over 20 pipeline runs
# (seeds 0..19, N=64, tau=100, w_l=1e-4, samples=1024) is 1.9899e-2;
# threshold frozen at twice the median.
DEMO_ERROR_THRESHOLD = 3.98e-2


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_trajectory_approximation_demo():
    start = time.perf_counter()
    report = approximate_trajectory(
        rotation_field(), [1.0, 0.0], 2.0, PipelineConfig(n_features=64, seed=7)
    )
    elapsed = time.perf_counter() - start
    ok = report.sup_traj_error < DEMO_ERROR_THRESHOLD and elapsed < 30.0
    _report(
        1,
        ok,
        f"sup_traj_error={report.sup_traj_error:.4e} "
        f"(threshold {DEMO_ERROR_THRESHOLD:.2e}), runtime={elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_tau_interval_exactness():
    rng = np.random.default_rng(100)
    violations = 0
    pairs = 0
    for trial in range(500):
        net = random_network(rng)
        u = rng.uniform(-100.0, 100.0, net.size)
        if trial % 3 == 0:
            u = np.where(rng.uniform(size=net.size) < 0.5, -100.0, 100.0)
        pairs += 1
        for i in range(net.size):
            tb = tau_bounds(i, net)
            tau = effective_time_constant(i, u, net)
            if not (tb.tau_min <= tau <= tb.tau_max):
                violations += 1
    _report(2, violations == 0,
            f"{pairs} (network, state) pairs incl. saturating |v|=100, "
            f"{violations} interval violations (exact comparison)")


def test_criterion_3_forward_invariance():
    rng = np.random.default_rng(101)
    total_entries = 0
    for _ in range(50):
        net = random_network(rng, chemical_only=True)
        lo, hi = box_arrays(state_bounds(net))
        u0 = rng.uniform(lo, hi)
        traj = simulate(net, u0, SolverConfig(Method.RK4, 1e-3, 10.0, 1))
        total_entries += len(monitor_trajectory(traj, net, 1e-6).entries)
    _report(3, total_entries == 0,
            f"50 chemical-only networks, RK4 dt=1e-3 T=10, "
            f"{total_entries} violations at tolerance 1e-6")


def test_criterion_4_analytic_oracle_and_order():
    net, a, b = driven_pair()
    u0 = np.array([0.3, -0.5])
    traj = simulate(net, u0, SolverConfig(Method.RK4, 1e-3, 5.0, 1))
    expect = (u0[1] - a / b) * np.exp(-b * traj.times) + a / b
    sup = float(np.max(np.abs(traj.states[:, 1] - expect)))

    dts = np.logspace(-3, -1, 5)
    errs = []
    for dt in dts:
        stride = max(1, round(0.1 / dt))
        tr = simulate(net, u0, SolverConfig(Method.RK4, float(dt), 5.0, stride))
        ref = (u0[1] - a / b) * np.exp(-b * tr.times) + a / b
        errs.append(np.max(np.abs(tr.states[:, 1] - ref)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = sup < 1e-8 and 3.7 <= slope <= 4.3
    _report(4, ok,
            f"exponential-solution sup error {sup:.2e} (< 1e-8), "
            f"convergence order {slope:.3f} in [3.7, 4.3]")


def test_criterion_5_semi_implicit_boundedness():
    rng = np.random.default_rng(102)
    total_entries = 0
    for _ in range(50):
        net = random_network(rng, chemical_only=True)
        lo, hi = box_arrays(state_bounds(net))
        u0 = rng.uniform(lo, hi)
        for dt in (0.01, 0.1, 1.0, 10.0):
            traj = simulate(
                net, u0, SolverConfig(Method.SEMI_IMPLICIT, dt, 200 * dt, 1)
            )
            total_entries += len(monitor_trajectory(traj, net, 1e-6).entries)
    _report(5, total_entries == 0,
            f"50 chemical-only networks, dt in {{0.01, 0.1, 1, 10}}, "
            f"{total_entries} box violations")


def test_criterion_6_conservation():
    ring = gap_ring()
    u0 = np.array([1.0, -0.3, 0.2])
    traj = simulate(ring, u0, SolverConfig(Method.RK4, 1e-3, 10.0, 1))
    drift = conservation_check(traj, ring)
    _report(6, drift < 1e-9,
            f"leakless gap-only 3-ring, sum(cm*v) drift {drift:.2e} (< 1e-9)")


def test_criterion_7_dual_path_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        nf = int(rng.integers(1, 5))
        fit = FeedForwardApprox(
            rng.normal(size=(n, nf)), rng.normal(size=(nf, n)),
            rng.normal(size=nf), 0.0,
        )
        system = replace(assemble_augmented_system(fit, 10.0, 1e-3), resting_aug=np.concatenate(
            [rng.normal(size=n) * 0.1, rng.normal(size=nf) * 0.1]))  # constant drives A1, A2
        net = realize_as_ltc(system)
        z0 = rng.uniform(-1, 1, n + nf)
        cfg = SolverConfig(Method.RK4, 1e-4, 1.0, 10)
        direct = integrate_field(augmented_rhs(system), z0, cfg)
        ltc = simulate(net, np.concatenate([z0[n:], z0[:n]]), cfg)
        ltc_aug = np.concatenate([ltc.states[:, nf:], ltc.states[:, :nf]], axis=1)
        worst = max(worst, float(np.max(np.abs(direct.states - ltc_aug))))
    _report(7, worst < 1e-10,
            f"20 random systems, realized-LTC vs direct augmented ODE "
            f"sup diff {worst:.2e} (< 1e-10)")


def test_criterion_8_approximation_monotonicity():
    # feature count is made the binding constraint: large tau keeps the
    # decay perturbation below the fit error, sharp features make the fit
    # genuinely improve through N=128
    medians = []
    for nf in (16, 32, 64, 128):
        errs = []
        for seed in range(10):
            cfg = PipelineConfig(n_features=nf, seed=seed, tau_base=1e4,
                                 w_l=1e-6, n_samples=1024, gamma_scale=4.0)
            errs.append(
                approximate_trajectory(rotation_field(), [1.0, 0.0], 2.0,
                                       cfg).sup_traj_error
            )
        medians.append(float(np.median(errs)))
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    _report(8, ok,
            "median sup_traj_error over 10 seeds for N=16,32,64,128: "
            + ", ".join(f"{m:.3e}" for m in medians))


def test_criterion_9_format_roundtrips(tmp_path, capsys):
    from ltcsim import Trajectory

    rng = np.random.default_rng(104)
    net_ok = True
    for _ in range(50):
        net = random_network(rng)
        if parse_network(serialize_network(net)) != net:
            net_ok = False
    csv_ok = True
    for _ in range(50):
        k, n = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        traj = Trajectory(
            np.concatenate([[0.0], np.sort(rng.uniform(0.01, 5, k - 1))]),
            rng.normal(scale=10.0 ** rng.integers(-6, 7), size=(k, n)),
        )
        back = trajectory_from_csv(trajectory_to_csv(traj))
        if not ((back.times == traj.times).all() and (back.states == traj.states).all()):
            csv_ok = False

    args = ["approximate", "--field", "x2;-x1", "--domain", "-1.5:1.5,-1.5:1.5",
            "--x0", "1,0", "--horizon", "0.5", "--features", "8", "--seed", "7",
            "--samples", "256"]
    outputs = []
    for tag in ("a", "b"):
        net_p = tmp_path / f"n{tag}.json"
        traj_p = tmp_path / f"t{tag}.csv"
        rep_p = tmp_path / f"r{tag}.txt"
        code = cli_dispatch(args + ["--out-net", str(net_p), "--out-traj",
                                    str(traj_p), "--report", str(rep_p)])
        assert code == 0
        outputs.append((net_p.read_bytes(), traj_p.read_bytes(), rep_p.read_bytes()))
    capsys.readouterr()
    cli_ok = outputs[0] == outputs[1]
    _report(9, net_ok and csv_ok and cli_ok,
            f"50 network roundtrips lossless={net_ok}, 50 CSV roundtrips "
            f"bit-exact={csv_ok}, repeated CLI runs identical={cli_ok}")
