"""Approximation: fits, Lipschitz estimates, augmented systems, pipeline."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist
from scipy.special import expit
from scipy.stats import qmc

from ltcsim import (
    AugmentedSystem,
    ChemicalSynapse,
    ConditionsViolatedError,
    DomainError,
    FeedForwardApprox,
    LtcNetwork,
    Method,
    NeuronParams,
    PipelineConfig,
    RankDeficiencyError,
    RealizationError,
    SolverConfig,
    Trajectory,
    VectorField,
    approximate_trajectory,
    assemble_augmented_system,
    augmented_rhs,
    check_tau_conditions,
    estimate_gtilde_lipschitz,
    estimate_lipschitz,
    feedforward_eval,
    fit_feedforward,
    integrate_field,
    monitor_trajectory,
    network_derivative,
    neuron_derivative,
    parse_field,
    parse_network,
    realize_as_ltc,
    serialize_network,
    simulate,
    tau_bounds,
)
from ltcsim.approx import (
    _SLOPE_ROWS, _error_budget, _halton, _max_slope, _pairwise_distances, _validation_grid,
)
from ltcsim import model
from helpers import realized_network, rotation_field
from test_solver import one_step, semi_implicit_step
from test_verification import entry_bits, per_row_monitor

# Calibrated offline: median sup_error over seeds 0..19 for the -x fit
# below is 2.21e-5; threshold frozen at twice the median.
NEG_X_FIT_THRESHOLD = 4.421e-5


def full_matrix_slope(points, values):
    """The grid estimate over whole distance matrices, summed axis by axis as
    ``cdist`` does: the reference the blocked estimate must equal."""
    def distances(x):
        sq = 0.0
        for k in range(x.shape[1]):
            diff = x[:, None, k] - x[None, :, k]
            sq = sq + diff * diff
        return np.sqrt(sq)
    dx = distances(points)
    dv = distances(values)
    mask = dx > 0
    return float(np.max(dv[mask] / dx[mask]))


def slope_outcome(estimate, points, values):
    """The result's bits ("nan" for any NaN), or the message of the error.
    Squares that overflow and inf / inf are part of what is compared."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = estimate(points, values)
    except ValueError as exc:
        return str(exc)
    return "nan" if math.isnan(value) else np.float64(value).view(np.int64)


# 1e+-160 and beyond: squared differences overflow to inf or underflow to 0
SCALES = [1.0, 1e-150, 1e150, 1e-160, 1e160, 1e-300, 1e300]


@st.composite
def slope_cases(draw):
    """Points and field values with dims 1-3, n from 2 to 400 (and around
    one row block), per-axis scales at 1e+-150 and beyond, and repeated rows."""
    n = draw(st.integers(2, 400) | st.sampled_from(
        [_SLOPE_ROWS - 1, _SLOPE_ROWS, _SLOPE_ROWS + 1, 2 * _SLOPE_ROWS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(2):
        dim = draw(st.integers(1, 3))
        scales = draw(st.lists(st.sampled_from(SCALES), min_size=dim, max_size=dim))
        x = rng.normal(size=(n, dim)) * scales
        repeats = draw(st.integers(0, n))  # rows copied over others: dx = 0, dv = 0
        x[rng.integers(n, size=repeats)] = x[rng.integers(n, size=repeats)]
        arrays.append(x)
    return tuple(arrays)


def neg_field():
    return VectorField(1, lambda x: np.array([-x[0]]), [[-1.0, 1.0]])


def random_fit(rng, n, n_features):
    return FeedForwardApprox(
        rng.normal(size=(n, n_features)),
        rng.normal(size=(n_features, n)),
        rng.normal(size=n_features),
        0.0,
    )


class TestFit:
    def test_zero_field_zero_readout(self):
        fld = VectorField(2, lambda x: np.zeros(2), [[-1, 1], [-1, 1]])
        fit = fit_feedforward(fld, 16, 128, 1e-6, 0)
        assert (fit.readout_matrix == 0.0).all()
        assert fit.sup_error == 0.0

    def test_neg_x_below_calibrated_threshold(self):
        errs = [fit_feedforward(neg_field(), 32, 512, 1e-8, s).sup_error
                for s in range(20)]
        assert float(np.median(errs)) < NEG_X_FIT_THRESHOLD

    def test_fit_error_decreases_with_features(self):
        rot = rotation_field()
        medians = []
        for nf in (8, 16, 32, 64):
            errs = [fit_feedforward(rot, nf, 512, 1e-8, s).sup_error
                    for s in range(10)]
            medians.append(float(np.median(errs)))
        assert all(b <= a for a, b in zip(medians, medians[1:]))

    def test_fit_peak_memory(self, monkeypatch):
        # the training sigmoids (1024 x 256) held beside the validation ones
        # (1089 x 256), each with a tolist() and full-size temporaries, peak
        # at 15.9 MiB; one set at a time, in place, near 5 MiB.  A fresh
        # process takes the math.exp path, whatever budget earlier tests spent
        monkeypatch.setattr(model, "expit", model._expit_libm)
        fld = rotation_field()
        tracemalloc.start()
        try:
            fit_feedforward(fld, 256, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_fit_and_realize_hold_each_array_once(self, monkeypatch):
        # N = 256, rotation, seed 8.  The fit takes the sigmoid of its 1024 x
        # 256 training features and its validation pre-activations in place
        # (3.1 MiB; 4.7 with a pre-activation array beside each).
        # realize_as_ltc builds one C-contiguous e_rev grid, and from_arrays
        # expands it once into a 3.0 MiB network (4.5 MiB above its start;
        # 8.1 with per-synapse columns that from_arrays copied again)
        monkeypatch.setattr(model, "expit", model._expit_libm)
        tracemalloc.start()
        try:
            fit = fit_feedforward(rotation_field(), 256, seed=8)
            fit_peak = tracemalloc.get_traced_memory()[1]
            system = assemble_augmented_system(fit, 100.0, 1e-4)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            realize_as_ltc(system)
            realize_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert fit_peak <= 3.3 * 2**20
        assert realize_peak <= 5.5 * 2**20

    def test_deterministic_given_seed(self):
        rot = rotation_field()
        a = fit_feedforward(rot, 16, 256, 1e-8, 5)
        b = fit_feedforward(rot, 16, 256, 1e-8, 5)
        assert (a.readout_matrix == b.readout_matrix).all()
        assert (a.projection_matrix == b.projection_matrix).all()
        assert (a.bias == b.bias).all()
        assert a.sup_error == b.sup_error

    def test_non_integer_counts_refused_before_sampling(self, monkeypatch):
        rot = rotation_field()
        want = fit_feedforward(rot, 4, 16, 1e-8, 5)

        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was made before the counts were checked")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for name, args in (("n_features", (2.5,)), ("n_samples", (4, 10.0)),
                           ("n_features", ("4",)), ("n_samples", (4, None))):
            with pytest.raises(TypeError, match=rf"^{name}: '\w+' object cannot be "
                                                "interpreted as an integer$"):
                fit_feedforward(rot, *args)
        monkeypatch.undo()
        got = fit_feedforward(rot, np.int64(4), np.uint16(16), 1e-8, 5)
        assert (got.readout_matrix == want.readout_matrix).all()
        assert got.sup_error == want.sup_error

    def test_rank_deficiency_at_zero_ridge(self):
        with pytest.raises(RankDeficiencyError, match="ridge"):
            fit_feedforward(neg_field(), 8, 3, 0.0, 0)

    @pytest.mark.parametrize("n_features", [32, 64, 256])
    def test_ridge_solve_agrees_with_scipy(self, n_features):
        # The Gram matrix's condition number is about 1e12, so round-off
        # fixes the readout only to about 1e-4 of its size: scipy's upper and
        # lower factors already give readouts that far apart.  The fit's
        # readout must stay within a few times that spread of cho_solve's, and
        # its field on the validation grid, which those directions barely
        # move, within 1e-8 of the largest value.
        rot = rotation_field()
        fit = fit_feedforward(rot, n_features, seed=7)
        lo, hi = rot.domain[:, 0], rot.domain[:, 1]
        samples = lo + qmc.Halton(d=2, scramble=False).random(1024) * (hi - lo)
        hidden = expit(samples @ fit.projection_matrix.T + fit.bias)
        gram = hidden.T @ hidden + 1e-8 * np.eye(n_features)
        rhs = hidden.T @ np.array([rot(x) for x in samples])
        upper = cho_solve(cho_factor(gram), rhs).T
        lower = cho_solve(cho_factor(gram, lower=True), rhs).T
        spread = np.max(np.abs(lower - upper))
        assert np.max(np.abs(fit.readout_matrix - upper)) <= 4 * spread
        grid = _validation_grid(rot)
        want = expit(grid @ fit.projection_matrix.T + fit.bias) @ upper.T
        np.testing.assert_allclose(feedforward_eval(fit, grid), want,
                                   rtol=0, atol=1e-8 * np.max(np.abs(want)))

    def test_ridge_local_optimality(self):
        # perturbing single readout entries never lowers the training loss
        rot = rotation_field()
        ridge = 1e-6
        for seed in range(5):
            fit = fit_feedforward(rot, 8, 128, ridge, seed)
            sampler = qmc.Halton(d=2, scramble=False)
            unit = sampler.random(128)
            lo, hi = rot.domain[:, 0], rot.domain[:, 1]
            samples = lo + unit * (hi - lo)
            targets = np.array([rot(x) for x in samples])
            hidden = expit(samples @ fit.projection_matrix.T + fit.bias)

            def loss(readout):
                resid = hidden @ readout.T - targets
                return np.sum(resid**2) + ridge * np.sum(readout**2)

            base = loss(fit.readout_matrix)
            rng = np.random.default_rng(seed)
            for _ in range(8):
                pert = fit.readout_matrix.copy()
                i = rng.integers(pert.shape[0])
                j = rng.integers(pert.shape[1])
                pert[i, j] += rng.choice([-1e-3, 1e-3])
                assert loss(pert) >= base - 1e-12

    def test_halton_equals_scipy(self):
        for d in range(1, 7):
            for n in (1, 5, 1024, 4099):
                ours = _halton(n, d)
                ref = qmc.Halton(d=d, scramble=False).random(n)
                assert ours.shape == ref.shape
                assert (ours.view(np.int64) == ref.view(np.int64)).all()

    def test_feedforward_eval_shapes(self):
        rng = np.random.default_rng(0)
        fit = random_fit(rng, 2, 5)
        out = feedforward_eval(fit, rng.normal(size=(7, 2)))
        assert out.shape == (7, 2)


class TestLipschitz:
    def test_linear_field(self):
        assert estimate_lipschitz(neg_field()) == pytest.approx(1.0, rel=0.02)

    def test_rotation_field(self):
        assert estimate_lipschitz(rotation_field()) == pytest.approx(1.0, rel=0.02)

    def test_sin_3x(self):
        fld = VectorField(1, lambda x: np.array([np.sin(3 * x[0])]), [[-1.0, 1.0]])
        assert estimate_lipschitz(fld) == pytest.approx(3.0, rel=0.05)

    def test_high_dim_sampling_path(self):
        fld = VectorField(4, lambda x: -x, [[-1.0, 1.0]] * 4)
        assert estimate_lipschitz(fld) == pytest.approx(1.0, rel=0.05)

    def test_pairwise_distances_equal_cdist(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3):
            for _ in range(10):
                points = rng.normal(size=(150, d)) * 10.0 ** rng.integers(-6, 7)
                points[rng.integers(150)] = points[0]  # a zero distance off the diagonal
                ours = _pairwise_distances(points, points)
                assert (ours.view(np.int64) == cdist(points, points).view(np.int64)).all()
                # row blocks against the columns from their first row on
                for s, e in ((0, 64), (64, 128), (128, 150), (149, 150), (10, 11)):
                    a, b = points[s:e], points[s:]
                    block = _pairwise_distances(a, b)
                    assert block.shape == (e - s, 150 - s)
                    assert (block.view(np.int64) == cdist(a, b).view(np.int64)).all()

    @given(slope_cases())
    def test_blocked_slope_equals_full_matrix(self, case):
        points, values = case
        assert slope_outcome(_max_slope, points, values) == slope_outcome(
            full_matrix_slope, points, values)

    def test_blocked_slope_visits_every_pair(self):
        # point j sits 0.25 from point i and at least 0.75 from all others;
        # only j's value is nonzero, so only the pair (i, j) gives slope 4
        n = 2 * _SLOPE_ROWS + 1
        values = np.zeros((n, 1))
        for i in range(n):
            for j in range(i + 1, n):
                points = np.arange(n, dtype=float)[:, None]
                points[j] = i + 0.25
                values[j] = 1.0
                assert _max_slope(points, values) == 4.0, (i, j)
                values[j] = 0.0

    def test_grid_peak_memory(self):
        # two whole 1089 x 1089 matrices and their masked copies take 37 MiB;
        # row blocks of 64 peak near 3 MiB
        fld = rotation_field()
        tracemalloc.start()
        try:
            estimate_lipschitz(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_degenerate_domain(self):
        fld = VectorField(2, lambda x: x, [[-1.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="zero-width"):
            estimate_lipschitz(fld)


class TestAssemble:
    def test_block_shapes_and_zero_columns(self):
        rng = np.random.default_rng(1)
        fit = random_fit(rng, 2, 8)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        # only the 8 hidden coordinates drive: the n = 2 output columns of
        # the augmented coupling are not stored at all
        assert system.readout_block.shape == (2, 8)
        assert system.hidden_block.shape == (8, 8)
        assert (system.bias == fit.bias).all() and system.bias.shape == (8,)
        with pytest.raises(ValueError, match="readout_block and hidden_block"):
            AugmentedSystem(2, 8, np.zeros((2, 10)), system.hidden_block,
                            system.bias, system.resting_aug, 10.0, 1e-3)
        with pytest.raises(ValueError, match="bias must have length N"):
            AugmentedSystem(2, 8, system.readout_block, system.hidden_block,
                            np.zeros(10), system.resting_aug, 10.0, 1e-3)

    def test_rejects_non_finite_parameters(self):
        fit = random_fit(np.random.default_rng(11), 2, 4)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        blocks = (system.readout_block, system.hidden_block, system.bias,
                  system.resting_aug)
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            for name, params in (("tau_base", (bad, 1e-3)), ("w_l", (10.0, bad))):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    assemble_augmented_system(fit, *params)
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    AugmentedSystem(2, 4, *blocks, *params)
            with pytest.raises(ValueError, match="gamma_scale must be finite and > 0"):
                fit_feedforward(rotation_field(), 4, gamma_scale=bad)
            if bad != 0.0:  # ridge = 0 is allowed: no regularization
                with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
                    fit_feedforward(rotation_field(), 4, ridge=bad)

    def test_hidden_block_is_triple_product(self):
        rng = np.random.default_rng(2)
        fit = random_fit(rng, 2, 4)
        w_l = 1e-3
        system = assemble_augmented_system(fit, 10.0, w_l)
        brute = fit.projection_matrix @ (w_l * system.readout_block)
        assert system.hidden_block == pytest.approx(brute, rel=1e-12)
        # and the drive coefficients recover the fitted readout
        assert system.w_l * system.readout_block == pytest.approx(
            fit.readout_matrix, rel=1e-12
        )

    def test_gtilde_equals_padded_drive_norm(self):
        # the (n+N)^2 drive [[0, w_l B_rev], [0, E]] has the singular values
        # of its nonzero columns, which is all the estimate decomposes
        rng = np.random.default_rng(5)
        for n, nf in ((1, 4), (2, 8), (3, 32)):
            system = assemble_augmented_system(random_fit(rng, n, nf), 10.0, 1e-3)
            padded = np.zeros((n + nf, n + nf))
            padded[:n, n:] = system.w_l * system.readout_block
            padded[n:, n:] = system.hidden_block
            assert estimate_gtilde_lipschitz(system) == pytest.approx(
                0.5 * np.linalg.norm(padded, 2), rel=1e-13)

    def test_tau_wl_gate(self):
        rng = np.random.default_rng(3)
        fit = random_fit(rng, 1, 2)
        with pytest.raises(ConditionsViolatedError, match="0.01"):
            assemble_augmented_system(fit, 100.0, 1e-3)

    def test_zero_fit_decouples_to_resting(self):
        fit = FeedForwardApprox(np.zeros((1, 3)), np.ones((3, 1)),
                                np.array([0.5, -0.25, 0.0]), 0.0)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        rhs = augmented_rhs(system)
        # equilibrium: outputs at 0, hidden at their biases
        z_star = np.array([0.0, 0.5, -0.25, 0.0])
        assert rhs(z_star) == pytest.approx(np.zeros(4), abs=1e-15)
        z = np.array([1.0, 2.0, 2.0, 2.0])
        traj = integrate_field(rhs, z, SolverConfig(Method.RK4, 0.1, 100.0, 100))
        assert traj.states[-1] == pytest.approx(z_star, abs=1e-3)


def conditions(rows) -> dict:
    """check_tau_conditions' rows as {name: (ok, {margin name: margin})}."""
    return {name: (ok, dict(margins)) for name, ok, margins in rows}


def unit_system(bias=0.0, tau=1.0, w_l=1.0) -> AugmentedSystem:
    """n = N = 1 with no drive: tau_sys_min is 0.5 at the default tau and w_l."""
    return AugmentedSystem(
        n=1, N=1, readout_block=np.zeros((1, 1)), hidden_block=np.zeros((1, 1)),
        bias=np.array([bias]), resting_aug=np.zeros(2), tau_base=tau, w_l=w_l,
    )


class TestTauConditions:
    def test_huge_tau_all_pass(self):
        rng = np.random.default_rng(4)
        fit = random_fit(rng, 2, 4)
        system = assemble_augmented_system(fit, 1e9, 1e-12)
        l_gt = estimate_gtilde_lipschitz(system)
        rows = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, l_gt, 1.0)
        assert [(name, ok) for name, ok, _ in rows] == [
            ("condition_a", True), ("condition_b", True), ("tau_wl", True)]

    def test_small_tau_fails_condition_a(self):
        system = unit_system()
        assert system.tau_sys_range == (0.5, 1.0)
        cond = conditions(check_tau_conditions(system, [[-1.0, 1.0]], 0.1, 0.0, 1.0, 1.0))
        assert not cond["condition_a"][0]
        # |x| / tau_sys_min = 1 / 0.5 = 2, budget epsilon_l / 2 = 0.05
        assert cond["condition_a"][1]["margin"] == pytest.approx(0.05 - 2.0)
        assert not cond["tau_wl"][0]

    def test_flags_follow_margins_at_zero(self):
        # tau * w_l == 0.01 exactly, as with the CLI defaults: a zero margin passes
        system = assemble_augmented_system(random_fit(np.random.default_rng(4), 2, 4),
                                           100.0, 1e-4)
        cond = conditions(check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, 1.0, 1.0))
        assert cond["tau_wl"] == (True, {"margin": 0.0})
        cond = conditions(check_tau_conditions(unit_system(tau=1.0, w_l=np.nextafter(0.01, 1)),
                                               [[-1.0, 1.0]], 0.1, 0.0, 1.0, 1.0))
        assert not cond["tau_wl"][0] and cond["tau_wl"][1]["margin"] < 0
        # conditions (a) and (b) need strictly positive margins.  On [-0.5, 0.5]
        # widened by eta 0.5, |x| / tau_sys_min = 2 and 1 / tau_sys_min = 2.
        tiny_eps, tiny_l = np.nextafter(4.0, 5.0), np.nextafter(4.0, 5.0)
        cases = [
            (unit_system(), 4.0, 4.0, (False, False), ["margin", "rate_margin"]),
            (unit_system(), tiny_eps, tiny_l, (True, True), []),
            # the bias leakage |mu| / tau_sys_min equals the budget
            (unit_system(bias=0.5 * _error_budget(0.5, tiny_l, 1.0)), tiny_eps, tiny_l,
             (True, False), ["bias_margin"]),
        ]
        for system, epsilon_l, l_gt, flags, zero in cases:
            cond = conditions(check_tau_conditions(system, [[-0.5, 0.5]], epsilon_l, 0.5,
                                                   l_gt, 1.0))
            assert (cond["condition_a"][0], cond["condition_b"][0]) == flags
            margins = {**cond["condition_a"][1], **cond["condition_b"][1]}
            assert [k for k, m in margins.items() if m == 0.0] == zero
            assert all(m > 0 for k, m in margins.items() if k not in zero)

    def test_budget_overflow_fails_condition_b(self):
        # exp(l_gtilde * horizon) overflows: the budget is 0.0, not an error
        rng = np.random.default_rng(8)
        system = assemble_augmented_system(random_fit(rng, 2, 4), 100.0, 1e-4)
        tau_sys_min = system.tau_sys_range[0]
        ok, margins = conditions(
            check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, 5e3, 2.0))["condition_b"]
        mu_norm = float(np.linalg.norm(system.bias))
        assert not ok
        assert margins["bias_margin"] == -mu_norm / tau_sys_min
        # below the overflow the formula is unchanged bit for bit
        ok, margins = conditions(
            check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, 300.0, 2.0))["condition_b"]
        budget = 0.1 * 300.0 / (2.0 * math.expm1(300.0 * 2.0))
        assert margins["bias_margin"] == budget - mu_norm / tau_sys_min

    def test_stiff_field_pipeline_finishes(self):
        vdp = VectorField(2, lambda x: np.array([x[1], (1 - x[0] ** 2) * x[1] - x[0]]),
                          [[-2.5, 2.5], [-3.0, 3.0]])
        report = approximate_trajectory(vdp, [1.0, 0.0], 0.5,
                                        PipelineConfig(n_features=16))
        assert report.l_gtilde * 0.5 > 710  # past the float range of exp
        assert math.isfinite(report.sup_traj_error)
        assert not conditions(report.conditions)["condition_b"][0]

    def test_margins_improve_with_tau(self):
        rng = np.random.default_rng(5)
        fit = random_fit(rng, 2, 4)
        margins = []
        for tau in (10.0, 100.0, 1000.0):
            system = assemble_augmented_system(fit, tau, 0.01 / tau)
            l_gt = estimate_gtilde_lipschitz(system)
            rows = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, l_gt, 1.0)
            margins.append([v for _, _, named in rows[:2] for _, v in named])
        # margin_a, bias_margin and rate_margin each grow with tau
        for a, b, c in zip(*margins):
            assert a < b < c


class TestRealize:
    def test_minimal_two_neuron_system(self):
        fit = FeedForwardApprox(np.array([[0.5]]), np.array([[1.0]]),
                                np.array([0.2]), 0.0)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        net = realize_as_ltc(system)
        assert net.size == 2 and net.n_hidden == 1 and net.n_output == 1
        assert all(s.src == 0 for s in net.chem)
        assert all(p.g_leak == pytest.approx(0.1) for p in net.neurons)

    def test_dual_path_agreement_small_systems(self):
        # five systems as assembled, then five with 40% of their block entries
        # set to exact zeros, which are synapses too (one shared decay rate)
        rng, pick = np.random.default_rng(6), np.random.default_rng(16)
        for zeros in [0.0] * 5 + [0.4] * 5:
            n = int(rng.integers(1, 3))
            nf = int(rng.integers(1, 4))
            fit = random_fit(rng, n, nf)
            system = replace(assemble_augmented_system(fit, 10.0, 1e-3), resting_aug=np.concatenate(
                [rng.normal(size=n) * 0.1, rng.normal(size=nf) * 0.1]))  # drives A1, A2
            for block in (system.readout_block, system.hidden_block):
                block[pick.uniform(size=block.shape) < zeros] = 0.0
            net = realize_as_ltc(system)
            assert net._block
            z0 = rng.uniform(-1, 1, n + nf)
            cfg = SolverConfig(Method.RK4, 1e-4, 1.0, 20)
            direct = integrate_field(augmented_rhs(system), z0, cfg)
            u0 = np.concatenate([z0[n:], z0[:n]])
            ltc = simulate(net, u0, cfg)
            ltc_aug = np.concatenate(
                [ltc.states[:, nf:], ltc.states[:, :nf]], axis=1
            )
            assert np.max(np.abs(direct.states - ltc_aug)) < 1e-10

    def test_zero_block_wires_every_entry(self):
        # every entry is a synapse, exact zeros too: the all-zero system is a
        # block that reverses at mu on hidden targets and at 0 on outputs
        fit = FeedForwardApprox(np.zeros((2, 3)), np.ones((3, 2)),
                                np.array([0.5, -0.25, 0.0]), 0.0)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        net = realize_as_ltc(system)
        assert net._block and net.n_chem == 3 * 5 and not net.gaps
        assert net._erev.tolist() == [[0.5, -0.25, 0.0, 0.0, 0.0]] * 3
        assert (net._w == 1e-3 / 3).all()

    def test_realized_topology_feed_forward(self):
        rng = np.random.default_rng(7)
        fit = random_fit(rng, 2, 6)
        net = realize_as_ltc(assemble_augmented_system(fit, 10.0, 1e-3))
        # constructing the network already enforces the rule; check structure
        assert all(s.src < net.n_hidden for s in net.chem)
        assert not net.gaps

    @staticmethod
    def _loop_realization(system):
        """Per-entry reference wiring, exact zeros included: source j outer,
        hidden targets, then outputs."""
        n, nf, tau = system.n, system.N, system.tau_base
        mu, a1, a2 = system.bias, system.resting_aug[:n], system.resting_aug[n:]
        neurons = [NeuronParams(1.0, 1.0 / tau, tau * a2[k] + mu[k]) for k in range(nf)]
        neurons += [NeuronParams(1.0, 1.0 / tau, tau * a1[i]) for i in range(n)]
        w_syn = system.w_l / nf if nf else 0.0
        syns = []
        for j in range(nf):
            for k in range(nf):
                e_rev = nf * system.hidden_block[k, j] / system.w_l + mu[k]
                syns.append(ChemicalSynapse(j, k, w_syn, 1.0, 0.0, e_rev))
            for i in range(n):
                e_rev = nf * system.readout_block[i, j]
                syns.append(ChemicalSynapse(j, nf + i, w_syn, 1.0, 0.0, e_rev))
        return LtcNetwork(tuple(neurons), tuple(syns), (), n_output=n)

    def test_vectorized_equals_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n, nf = int(rng.integers(1, 4)), int(rng.integers(0, 9))
            block = rng.normal(size=(n + nf, nf)) * 10.0 ** rng.integers(-3, 4)
            block[rng.uniform(size=block.shape) < 0.3] = 0.0
            bias = rng.normal(size=nf)
            system = AugmentedSystem(n, nf, block[:n], block[n:], bias,
                                     rng.normal(size=n + nf),
                                     float(rng.uniform(1, 100)), 1e-4)
            net, ref = realize_as_ltc(system), self._loop_realization(system)
            assert net._block == (nf > 0) and net.n_chem == nf * (n + nf)
            assert net == ref and net.chem == ref.chem and net.neurons == ref.neurons
            assert (net._erev.view(np.int64) == ref._erev.view(np.int64)).all()
            assert (net._vleak.view(np.int64) == ref._vleak.view(np.int64)).all()

    def test_shared_channel_derivative_per_synapse(self):
        # a realized network drives every target of feature j through the
        # same sigmoid; the derivative still equals one expit per synapse
        rng = np.random.default_rng(12)
        net = realize_as_ltc(assemble_augmented_system(random_fit(rng, 2, 64), 10.0, 1e-3))
        assert net.n_hidden == 64 and len({s.src for s in net.chem}) == 64
        src, dst, w, gamma, mu, e_rev = (np.array(c) for c in zip(
            *((s.src, s.dst, s.w, s.gamma, s.mu, s.e_rev) for s in net.chem)))
        cm, g, v_leak = (np.array(c) for c in zip(
            *((p.cm, p.g_leak, p.v_leak) for p in net.neurons)))
        for _ in range(50):
            u = rng.uniform(-2.0, 2.0, net.size)
            chem = w * expit(gamma * (u[src] + mu)) * (e_rev - u[dst])
            want = (g * (v_leak - u) + np.bincount(dst, chem, net.size)) / cm
            assert (network_derivative(u, net).view(np.int64) == want.view(np.int64)).all()

    def test_grid_layout_keeps_every_bit(self):
        # realize_as_ltc hands over an F-ordered grid; from_arrays holds a
        # C-contiguous copy of any grid, whose source axis numpy then sums row
        # by row: kept F-ordered, the sum would go pairwise and, at N >= 64,
        # change a derivative's last bits
        net = realized_network(64, seed=5)
        grid = np.array(net._erev)
        wide = np.zeros((2 * grid.shape[0], 3 * grid.shape[1]))
        wide[::2, ::3] = grid
        cols = dict(cm=net._cm, g_leak=net._g, v_leak=net._vleak, w=net._w[:, 0],
                    gamma=net._gamma[:, 0], mu=net._mu[:, 0], n_output=net.n_output)
        nets = [LtcNetwork.from_arrays(**cols, e_rev=e)
                for e in (grid, np.asfortranarray(grid), wide[::2, ::3])]
        rng = np.random.default_rng(5)
        states = rng.uniform(-2.0, 2.0, (5, net.size))
        states[1, 2], states[2, 0], states[3] = np.nan, np.inf, -0.0
        states[4, 1::3] = 1e7  # outside every box
        traj = Trajectory(0.5 * np.arange(5), states)
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_row_monitor(traj, net, 1e-6)
        assert len(want) > net.size // 3
        for u in states[[0, 4]]:
            loop = np.array([neuron_derivative(i, u, net) for i in range(net.size)])
            step = semi_implicit_step(u, net, 0.1)
            for case in nets:
                assert case == net and case._block and case._erev.flags.c_contiguous
                assert (network_derivative(u, case).view(np.int64) == loop.view(np.int64)).all()
                assert (one_step(Method.SEMI_IMPLICIT, u, case, 0.1).view(np.int64)
                        == step.view(np.int64)).all()
        for case in nets:
            with np.errstate(over="ignore", invalid="ignore"):
                assert entry_bits(monitor_trajectory(traj, case, 1e-6).entries) == entry_bits(want)

    def test_block_parameters_held_once(self):
        # the (R, 1) rows and the e_rev grid are a block's only synapse
        # storage, realized, read or given as columns: every array a network
        # holds, with the arrays they view, totals the grid plus O(R + size) bytes
        system = assemble_augmented_system(fit_feedforward(rotation_field(), 256, seed=61),
                                           100.0, 1e-4)
        net = realize_as_ltc(system)
        flat = model._per_synapse(net._src, net._dst, net._w, net._gamma, net._mu, net._erev)
        columns = LtcNetwork.from_arrays(
            net._cm, net._g, net._vleak, *flat, n_output=net.n_output)
        for case in (net, parse_network(serialize_network(net)), columns):
            owners = {}
            for a in vars(case).values():
                while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                    a = a.base
                if isinstance(a, np.ndarray):
                    owners[id(a)] = a.nbytes
            grid = case._erev.nbytes
            assert case._block and case == net and grid == 256 * 258 * 8
            assert sum(owners.values()) <= 1.05 * grid + 64 * 1024

    def test_realized_network_is_a_block(self):
        # every source drives every neuron with one (w, gamma, mu).  A network
        # one synapse short, or with mu flipped to -0.0 on one synapse of a
        # source, is no block; flipped on all of the source's synapses, it is
        # one.  All of them evaluate bit for bit as the per-synapse loops.
        net = realized_network(9, seed=4)
        assert net._block and net.n_chem == 9 * net.size
        assert (net._mu.view(np.int64) == 0).all()
        chem = net.chem
        k = 3 * net.size + 4  # source 3, target 4
        short = LtcNetwork(net.neurons, chem[:k] + chem[k + 1:], (), net.n_output)
        one = LtcNetwork(net.neurons, chem[:k] + (replace(chem[k], mu=-0.0),) + chem[k + 1:],
                         (), net.n_output)
        source = LtcNetwork(net.neurons, [replace(s, mu=-0.0) if s.src == 3 else s
                                          for s in chem], (), net.n_output)
        assert not short._block and not one._block and source._block
        rng = np.random.default_rng(3)
        states = rng.uniform(-2.0, 2.0, (6, net.size))
        states[1, 2], states[2, 0], states[3, 1], states[4] = np.nan, np.inf, -np.inf, -0.0
        traj = Trajectory(0.5 * np.arange(6), states)
        for case in (net, short, one, source):
            for u in states[[0, 4, 5]]:
                loop = [neuron_derivative(i, u, case) for i in range(case.size)]
                assert (network_derivative(u, case).view(np.int64)
                        == np.array(loop).view(np.int64)).all()
                assert (one_step(Method.SEMI_IMPLICIT, u, case, 0.1).view(np.int64)
                        == semi_implicit_step(u, case, 0.1).view(np.int64)).all()
            with np.errstate(over="ignore", invalid="ignore"):
                got = monitor_trajectory(traj, case, 1e-6).entries
                want = per_row_monitor(traj, case, 1e-6)
            assert entry_bits(got) == entry_bits(want)

    def test_zero_readout_row_is_a_block(self):
        # x2;0 fits its second coordinate with an all-zero readout row; that row
        # is wired too, so the network is a block, written in the block layout,
        # and every neuron's smallest tau is the system's 1/(1/tau + w_l)
        fld = parse_field(["x2", "0"], [[-1.5, 1.5], [-1.5, 1.5]])
        system = assemble_augmented_system(fit_feedforward(fld, 256, seed=7), 100.0, 1e-4)
        assert (system.readout_block[1] == 0.0).all()
        net = realize_as_ltc(system)
        assert net._block and net.n_chem == 256 * 258
        doc = json.loads(serialize_network(net))
        assert doc["chemical_synapses"].keys() == {"w", "gamma", "mu", "e_rev"}
        tau_min = system.tau_sys_range[0]
        for i in range(net.size):
            assert tau_bounds(i, net).tau_min == pytest.approx(tau_min, rel=1e-12, abs=0.0)

    def test_unrepresentable_entry(self):
        readout = np.array([[1e308]])
        hidden = np.array([[1e308]])  # N * entry / w_l overflows
        system = AugmentedSystem(1, 1, readout, hidden, np.zeros(1), np.zeros(2),
                                 1.0, 1e-3)
        with pytest.raises(RealizationError, match=r"\(0, 0\)"):
            realize_as_ltc(system)
        for bad in (np.nan, np.inf, -np.inf):  # a non-finite entry is named too
            system.hidden_block[0, 0], system.readout_block[0, 0] = 1.0, bad
            with pytest.raises(RealizationError, match=r"readout block entry \(0, 0\)"):
                realize_as_ltc(system)


class TestPipeline:
    def test_config_rejects_bad_values(self):
        bad = {"eta": (math.nan, math.inf, -1.0, 0.0),
               "gamma_scale": (math.nan, math.inf, -1.0, 0.0)}
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError, match=name):
                    PipelineConfig(**{name: value})
        assert PipelineConfig(eta=0.05, gamma_scale=2.0).eta == 0.05

    def test_config_rejects_non_integer_counts(self):
        # refused when built, not deep inside numpy's sampling and fitting
        for name, value in (("n_features", math.nan), ("n_samples", 2.5), ("seed", 1.5),
                            ("n_features", 8.0)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                PipelineConfig(**{name: value})
        config = PipelineConfig(n_features=np.int64(8), n_samples=np.int32(64), seed=np.uint8(3))
        assert [type(v) for v in (config.n_features, config.n_samples, config.seed)] == [int] * 3

    def test_config_count_errors_name_their_field(self):
        for name, value, kind in (("n_features", 8.0, "float"), ("n_samples", 2.5, "float"),
                                  ("seed", 1.5, "float"), ("seed", "3", "str")):
            with pytest.raises(TypeError, match=rf"^{name}: '{kind}' object cannot be "
                                                "interpreted as an integer$"):
                PipelineConfig(**{name: value})

    def test_zero_field_trivial(self):
        fld = VectorField(2, lambda x: np.zeros(2), [[-1, 1], [-1, 1]])
        report = approximate_trajectory(fld, [0.0, 0.0], 1.0,
                                        PipelineConfig(n_features=8, seed=0))
        assert report.sup_traj_error < 1e-6

    def test_x0_outside_domain(self):
        with pytest.raises(DomainError):
            approximate_trajectory(rotation_field(), [5.0, 0.0], 1.0,
                                   PipelineConfig(n_features=4))

    def test_rotation_small_run(self):
        report = approximate_trajectory(rotation_field(), [1.0, 0.0], 1.0,
                                        PipelineConfig(n_features=16, seed=3))
        assert report.sup_traj_error < 0.1
        assert report.lipschitz_f == pytest.approx(1.0, rel=0.02)
        assert conditions(report.conditions)["tau_wl"][0]
        assert report.network.n_output == 2
        assert report.times.shape[0] == report.reference_states.shape[0]

    def test_pipeline_deterministic(self):
        cfg = PipelineConfig(n_features=8, seed=11, ltc_dt=1e-2, ref_dt=1e-3)
        a = approximate_trajectory(rotation_field(), [1.0, 0.0], 0.5, cfg)
        b = approximate_trajectory(rotation_field(), [1.0, 0.0], 0.5, cfg)
        assert a.sup_traj_error == b.sup_traj_error
        assert (a.network_outputs == b.network_outputs).all()
