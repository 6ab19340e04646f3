"""Approximation: fits, Lipschitz estimates, augmented systems, pipeline."""

import math

import numpy as np
import pytest
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
    network_derivative,
    realize_as_ltc,
    simulate,
)
from ltcsim.approx import _halton, _pairwise_distances
from helpers import rotation_field

# Calibrated offline: median sup_error over seeds 0..19 for the -x fit
# below is 2.21e-5; threshold frozen at twice the median.
NEG_X_FIT_THRESHOLD = 4.421e-5


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

    def test_deterministic_given_seed(self):
        rot = rotation_field()
        a = fit_feedforward(rot, 16, 256, 1e-8, 5)
        b = fit_feedforward(rot, 16, 256, 1e-8, 5)
        assert (a.readout_matrix == b.readout_matrix).all()
        assert (a.projection_matrix == b.projection_matrix).all()
        assert (a.bias == b.bias).all()
        assert a.sup_error == b.sup_error

    def test_rank_deficiency_at_zero_ridge(self):
        with pytest.raises(RankDeficiencyError, match="ridge"):
            fit_feedforward(neg_field(), 8, 3, 0.0, 0)

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
                ours = _pairwise_distances(points)
                assert (ours.view(np.int64) == cdist(points, points).view(np.int64)).all()

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
        assert (system.bias_aug[:2] == 0.0).all()
        with pytest.raises(ValueError, match="readout_block and hidden_block"):
            AugmentedSystem(2, 8, np.zeros((2, 10)), system.hidden_block,
                            system.bias_aug, system.resting_aug, 10.0, 1e-3)

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


class TestTauConditions:
    def test_huge_tau_all_pass(self):
        rng = np.random.default_rng(4)
        fit = random_fit(rng, 2, 4)
        system = assemble_augmented_system(fit, 1e9, 1e-12)
        l_gt = estimate_gtilde_lipschitz(system)
        cond = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, l_gt, 1.0)
        assert cond.ok_a and cond.ok_b and cond.ok_tau_wl

    def test_small_tau_fails_condition_a(self):
        system = AugmentedSystem(
            n=1, N=1, readout_block=np.zeros((1, 1)), hidden_block=np.zeros((1, 1)),
            bias_aug=np.zeros(2), resting_aug=np.zeros(2), tau_base=1.0, w_l=1.0,
        )
        cond = check_tau_conditions(system, [[-1.0, 1.0]], 0.1, 0.0, 1.0, 1.0)
        assert not cond.ok_a
        # |x| / tau_sys_min = 1 / 0.5 = 2, budget epsilon_l / 2 = 0.05
        assert cond.margin_a == pytest.approx(0.05 - 2.0)
        assert not cond.ok_tau_wl

    def test_budget_overflow_fails_condition_b(self):
        # exp(l_gtilde * horizon) overflows: the budget is 0.0, not an error
        rng = np.random.default_rng(8)
        system = assemble_augmented_system(random_fit(rng, 2, 4), 100.0, 1e-4)
        cond = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, 5e3, 2.0)
        mu_norm = float(np.linalg.norm(system.bias_aug[2:]))
        assert not cond.ok_b
        assert cond.margin_b_bias == -mu_norm / cond.tau_sys_min
        # below the overflow the formula is unchanged bit for bit
        cond = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1, 300.0, 2.0)
        budget = 0.1 * 300.0 / (2.0 * math.expm1(300.0 * 2.0))
        assert cond.margin_b_bias == budget - mu_norm / cond.tau_sys_min

    def test_stiff_field_pipeline_finishes(self):
        vdp = VectorField(2, lambda x: np.array([x[1], (1 - x[0] ** 2) * x[1] - x[0]]),
                          [[-2.5, 2.5], [-3.0, 3.0]])
        report = approximate_trajectory(vdp, [1.0, 0.0], 0.5,
                                        PipelineConfig(n_features=16))
        assert report.l_gtilde * 0.5 > 710  # past the float range of exp
        assert math.isfinite(report.sup_traj_error)
        assert not report.conditions.ok_b

    def test_margins_improve_with_tau(self):
        rng = np.random.default_rng(5)
        fit = random_fit(rng, 2, 4)
        margins_a, margins_bias, margins_rate = [], [], []
        for tau in (10.0, 100.0, 1000.0):
            system = assemble_augmented_system(fit, tau, 0.01 / tau)
            l_gt = estimate_gtilde_lipschitz(system)
            cond = check_tau_conditions(system, [[-1, 1], [-1, 1]], 0.1, 0.1,
                                        l_gt, 1.0)
            margins_a.append(cond.margin_a)
            margins_bias.append(cond.margin_b_bias)
            margins_rate.append(cond.margin_b_rate)
        assert margins_a[0] < margins_a[1] < margins_a[2]
        assert margins_bias[0] < margins_bias[1] < margins_bias[2]
        assert margins_rate[0] < margins_rate[1] < margins_rate[2]


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
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(1, 3))
            nf = int(rng.integers(1, 4))
            fit = random_fit(rng, n, nf)
            system = assemble_augmented_system(
                fit, 10.0, 1e-3, rng.normal(size=n) * 0.1, rng.normal(size=nf) * 0.1
            )
            net = realize_as_ltc(system)
            z0 = rng.uniform(-1, 1, n + nf)
            cfg = SolverConfig(Method.RK4, 1e-4, 1.0, 20)
            direct = integrate_field(augmented_rhs(system), z0, cfg)
            u0 = np.concatenate([z0[n:], z0[:n]])
            ltc = simulate(net, u0, cfg)
            ltc_aug = np.concatenate(
                [ltc.states[:, nf:], ltc.states[:, :nf]], axis=1
            )
            assert np.max(np.abs(direct.states - ltc_aug)) < 1e-10

    def test_zero_block_gives_leak_only(self):
        fit = FeedForwardApprox(np.zeros((2, 3)), np.ones((3, 2)),
                                np.zeros(3), 0.0)
        system = assemble_augmented_system(fit, 10.0, 1e-3)
        net = realize_as_ltc(system)
        assert not net.chem and not net.gaps

    def test_realized_topology_feed_forward(self):
        rng = np.random.default_rng(7)
        fit = random_fit(rng, 2, 6)
        net = realize_as_ltc(assemble_augmented_system(fit, 10.0, 1e-3))
        # constructing the network already enforces the rule; check structure
        assert all(s.src < net.n_hidden for s in net.chem)
        assert not net.gaps

    @staticmethod
    def _loop_realization(system):
        """Per-entry reference wiring: source j outer, hidden targets, then outputs."""
        n, nf, tau = system.n, system.N, system.tau_base
        mu, a1, a2 = system.bias_aug[n:], system.resting_aug[:n], system.resting_aug[n:]
        neurons = [NeuronParams(1.0, 1.0 / tau, tau * a2[k] + mu[k]) for k in range(nf)]
        neurons += [NeuronParams(1.0, 1.0 / tau, tau * a1[i]) for i in range(n)]
        w_syn = system.w_l / nf if nf else 0.0
        syns = []
        for j in range(nf):
            for k in range(nf):
                if system.hidden_block[k, j] != 0.0:
                    e_rev = nf * system.hidden_block[k, j] / system.w_l + mu[k]
                    syns.append(ChemicalSynapse(j, k, w_syn, 1.0, 0.0, e_rev))
            for i in range(n):
                if system.readout_block[i, j] != 0.0:
                    e_rev = nf * system.readout_block[i, j]
                    syns.append(ChemicalSynapse(j, nf + i, w_syn, 1.0, 0.0, e_rev))
        return LtcNetwork(tuple(neurons), tuple(syns), (), n_output=n)

    def test_vectorized_equals_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n, nf = int(rng.integers(1, 4)), int(rng.integers(0, 9))
            block = rng.normal(size=(n + nf, nf)) * 10.0 ** rng.integers(-3, 4)
            block[rng.uniform(size=block.shape) < 0.3] = 0.0
            bias = np.concatenate([np.zeros(n), rng.normal(size=nf)])
            system = AugmentedSystem(n, nf, block[:n], block[n:], bias,
                                     rng.normal(size=n + nf),
                                     float(rng.uniform(1, 100)), 1e-4)
            net, ref = realize_as_ltc(system), self._loop_realization(system)
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

    def test_unrepresentable_entry(self):
        readout = np.array([[1e308]])
        hidden = np.array([[1e308]])  # N * entry / w_l overflows
        system = AugmentedSystem(1, 1, readout, hidden, np.zeros(2), np.zeros(2),
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
        assert report.conditions.ok_tau_wl
        assert report.network.n_output == 2
        assert report.times.shape[0] == report.reference_states.shape[0]

    def test_pipeline_deterministic(self):
        cfg = PipelineConfig(n_features=8, seed=11, ltc_dt=1e-2, ref_dt=1e-3)
        a = approximate_trajectory(rotation_field(), [1.0, 0.0], 0.5, cfg)
        b = approximate_trajectory(rotation_field(), [1.0, 0.0], 0.5, cfg)
        assert a.sup_traj_error == b.sup_traj_error
        assert (a.network_outputs == b.network_outputs).all()
