"""Constructive approximation of a dynamical system by an LTC network.

Pipeline: fit a one-hidden-layer sigmoid model B*sigma(C x + mu) to the
target vector field by random features plus ridge regression, embed the
fit in an (n+N)-dimensional augmented system whose first n coordinates
track the target trajectory, realize that system as a genuine LTC network,
simulate, and measure the sup-norm error against a fine reference solve.

Augmented dynamics (z = [x; y], sigma applied to the hidden block y):

    x' = -(1/tau + r(y)) * x + (w_l * B_rev) sigma(y) + A1
    y' = -(1/tau + r(y)) * y + E sigma(y) + A2 + mu * (1/tau + r(y))

where B_rev is the readout divided by the coupling w_l (reversal
encoding), E = C (w_l B_rev), and r(y) = (w_l/N) * sum of sigma(y_j) over
all N hidden sources, one rate shared by every coordinate: every entry,
exact zeros included, is a synapse.  Every realized synapse has weight
w_l/N, unit-slope zero-offset sigmoid, and a reversal potential that
encodes N * (matrix entry) / w_l, shifted by mu for hidden targets (so a
zero entry reverses at mu, or at 0 for an output target); leak potentials
absorb the constant drive.  With this
wiring the LTC network reproduces the augmented equations term by term,
and the state-dependent decay stays within [1/tau, 1/tau + w_l].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from . import model
from .errors import (
    ConditionsViolatedError,
    DomainError,
    RankDeficiencyError,
    RealizationError,
)
from .model import LtcNetwork
from .solver import Method, SolverConfig, integrate_field, simulate

__all__ = [
    "VectorField",
    "FeedForwardApprox",
    "AugmentedSystem",
    "PipelineConfig",
    "ApproximationReport",
    "fit_feedforward",
    "feedforward_eval",
    "estimate_lipschitz",
    "assemble_augmented_system",
    "augmented_rhs",
    "estimate_gtilde_lipschitz",
    "check_tau_conditions",
    "realize_as_ltc",
    "approximate_trajectory",
]


@dataclass
class VectorField:
    """An autonomous vector field on an axis-aligned box.

    ``fn`` maps an n-vector to an n-vector and is assumed C1 on the box.
    """

    dim: int
    fn: object
    domain: np.ndarray  # (dim, 2) rows of [lo, hi]

    def __post_init__(self):
        self.domain = np.asarray(self.domain, dtype=float)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.domain.shape != (self.dim, 2):
            raise ValueError(
                f"domain must have shape ({self.dim}, 2), got {self.domain.shape}"
            )
        if not np.isfinite(self.domain).all():
            raise ValueError("domain bounds must be finite")
        if (self.domain[:, 0] > self.domain[:, 1]).any():
            raise ValueError("domain rows must satisfy lo <= hi")

    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            (x >= self.domain[:, 0] - 1e-12).all()
            and (x <= self.domain[:, 1] + 1e-12).all()
        )


@dataclass
class FeedForwardApprox:
    """Fitted one-hidden-layer model: x -> readout @ sigma(projection @ x + bias)."""

    readout_matrix: np.ndarray    # (n, N)
    projection_matrix: np.ndarray  # (N, n)
    bias: np.ndarray              # (N,)
    sup_error: float

    def __post_init__(self):
        self.readout_matrix = np.asarray(self.readout_matrix, dtype=float)
        self.projection_matrix = np.asarray(self.projection_matrix, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        n, nf = self.readout_matrix.shape
        if self.projection_matrix.shape != (nf, n):
            raise ValueError(
                f"projection shape {self.projection_matrix.shape} inconsistent "
                f"with readout shape {self.readout_matrix.shape}"
            )
        if self.bias.shape != (nf,):
            raise ValueError(f"bias shape {self.bias.shape}, expected ({nf},)")
        if not (self.sup_error >= 0 and math.isfinite(self.sup_error)):
            raise ValueError(f"sup_error must be finite and >= 0, got {self.sup_error}")

    @property
    def n(self) -> int:
        return self.readout_matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.readout_matrix.shape[1]


def feedforward_eval(fit: FeedForwardApprox, points: np.ndarray) -> np.ndarray:
    """Evaluate the fitted model on rows of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h = model.expit(points @ fit.projection_matrix.T + fit.bias)
    return h @ fit.readout_matrix.T


def _field_values(fld: VectorField, points: np.ndarray) -> np.ndarray:
    try:
        values = np.array([fld(x) for x in points], dtype=float)
    except OverflowError:  # x ** 2000 raises where a float would be inf
        values = np.array([math.inf])
    if not np.isfinite(values).all():
        raise ValueError("vector field returned non-finite values on its domain")
    return values


def _validation_grid(fld: VectorField) -> np.ndarray:
    """Full tensor grid: 33 points per axis up to 2-D, else >= 1000 points."""
    if fld.dim <= 2:
        per_axis = 33
    else:
        per_axis = int(math.ceil(1000.0 ** (1.0 / fld.dim)))
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in fld.domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _require_positive(**values) -> None:
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _halton(n: int, d: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in d dimensions.

    Axis k is the radical inverse of 0, 1, ..., n-1 in the k-th prime base,
    summed digit by digit in the floating-point order of
    ``scipy.stats.qmc.Halton(scramble=False)``, so the points are equal.
    """
    primes = islice((p for p in count(2) if all(p % q for q in range(2, p))), d)
    out = np.zeros((n, d))
    for k, base in enumerate(primes):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, k] += (q % base) * scale
            scale /= base
            q //= base
    return out


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` and of ``b``, summing squared
    differences axis by axis in the order ``cdist`` does for d <= 3."""
    sq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # huge values give inf or nan
        for k in range(a.shape[1]):
            diff = a[:, None, k] - b[None, :, k]
            sq = sq + diff * diff
    return np.sqrt(sq)


_SLOPE_ROWS = 64


def _max_slope(points: np.ndarray, values: np.ndarray) -> float:
    """Max of |v_i - v_j| / |x_i - x_j| over the pairs with |x_i - x_j| > 0.

    Rows s..s+63 against the columns from s on hold every pair i < j.  The few
    mirrored pairs give the same bits and max is exact, so the result is that
    of the full matrix, without holding it."""
    best = []
    for s in range(0, len(points), _SLOPE_ROWS):
        dx = _pairwise_distances(points[s:s + _SLOPE_ROWS], points[s:])
        dv = _pairwise_distances(values[s:s + _SLOPE_ROWS], values[s:])
        mask = dx > 0
        if mask.any():
            best.append(np.max(dv[mask] / dx[mask]))
    return float(np.max(best))  # no pair at all raises as np.max of nothing does


def fit_feedforward(
    fld: VectorField,
    n_features: int,
    n_samples: int = 1024,
    ridge: float = 1e-8,
    seed: int = 0,
    gamma_scale: float = 1.0,
) -> FeedForwardApprox:
    """Random-features ridge fit of the field.

    Projection rows are sampled uniformly in [-s, s] with
    s = 2 * gamma_scale / (half the domain diagonal); biases are uniform
    over the negated projected range of each feature, which centers the
    sigmoid transitions inside the box.  The readout is the closed-form
    ridge solution on a Halton sample of the domain; the reported sup
    error is measured on a held-out regular grid.
    """
    n_features = model._count(n_features, "n_features")
    n_samples = model._count(n_samples, "n_samples")
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    _require_positive(gamma_scale=gamma_scale)
    lo = fld.domain[:, 0]
    hi = fld.domain[:, 1]
    radius = float(np.linalg.norm(hi - lo)) / 2.0
    if radius == 0.0:
        raise ValueError("domain has zero diameter; cannot scale random features")
    rng = np.random.default_rng(seed)
    scale = 2.0 * gamma_scale / radius
    projection = rng.uniform(-scale, scale, size=(n_features, fld.dim))
    center = (hi + lo) / 2.0
    half = (hi - lo) / 2.0
    proj_center = projection @ center
    proj_span = np.abs(projection) @ half
    bias = rng.uniform(-(proj_center + proj_span), -(proj_center - proj_span))

    unit = _halton(n_samples, fld.dim)
    samples = lo + unit * (hi - lo)
    targets = _field_values(fld, samples)
    hidden = samples @ projection.T  # the features, made in place: never two at once
    hidden += bias
    model.expit(hidden, out=hidden)
    gram = hidden.T @ hidden + ridge * np.eye(n_features)
    with np.errstate(over="ignore", invalid="ignore"):  # huge targets give inf or nan
        rhs = hidden.T @ targets
    # cholesky reads one triangle of gram and solve checks nothing: refuse inf and nan here
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:  # gram is not positive definite
        raise RankDeficiencyError(
            "normal equations are singular; use ridge > 0 to regularize"
        ) from exc
    readout = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs)).T
    del hidden, gram, lower  # never hold the training and the validation sigmoids at once

    grid = _validation_grid(fld)
    truth = _field_values(fld, grid)
    inner = grid @ projection.T
    inner += bias
    preds = model.expit(inner, out=inner) @ readout.T
    sup_error = float(np.max(np.linalg.norm(truth - preds, axis=1)))
    return FeedForwardApprox(readout, projection, bias, sup_error)


def estimate_lipschitz(fld: VectorField) -> float:
    """Max of |F(x)-F(y)| / |x-y| over sampled pairs; a lower bound on L_F.

    Grid mode (all pairs of the validation grid) for dim <= 3; 100,000
    random pairs, half of them nearby, for higher dimensions.
    """
    lo = fld.domain[:, 0]
    hi = fld.domain[:, 1]
    widths = hi - lo
    if (widths == 0).any():
        raise ValueError("degenerate domain: zero-width axis")
    if fld.dim <= 3:
        points = _validation_grid(fld)
        return _max_slope(points, _field_values(fld, points))
    pairs = 100_000
    rng = np.random.default_rng(0)
    half = pairs // 2
    xa = rng.uniform(lo, hi, size=(pairs, fld.dim))
    xb = np.empty_like(xa)
    xb[:half] = rng.uniform(lo, hi, size=(half, fld.dim))
    step = 1e-3 * float(np.linalg.norm(widths))
    bump = rng.normal(size=(pairs - half, fld.dim))
    bump *= step / np.linalg.norm(bump, axis=1, keepdims=True)
    xb[half:] = np.clip(xa[half:] + bump, lo, hi)
    va = _field_values(fld, xa)
    vb = _field_values(fld, xb)
    dx = np.linalg.norm(xa - xb, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # huge values give inf or nan
        dv = np.linalg.norm(va - vb, axis=1)
    mask = dx > 0
    return float(np.max(dv[mask] / dx[mask]))


@dataclass
class AugmentedSystem:
    """(n+N)-dimensional system tracking the target in its first n coordinates.

    ``readout_block`` (n x N) is the reversal-encoded readout B_rev =
    readout / w_l and ``hidden_block`` (N x N) the hidden drive matrix
    E = C (w_l B_rev).  Only the N hidden coordinates drive anything, which
    is what keeps the realized network feed-forward into the outputs.
    """

    n: int
    N: int
    readout_block: np.ndarray  # (n, N)
    hidden_block: np.ndarray   # (N, N)
    bias: np.ndarray         # (N,) = mu
    resting_aug: np.ndarray  # (n+N,) = [A1; A2]
    tau_base: float
    w_l: float

    def __post_init__(self):
        self.readout_block = np.asarray(self.readout_block, dtype=float)
        self.hidden_block = np.asarray(self.hidden_block, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        self.resting_aug = np.asarray(self.resting_aug, dtype=float)
        shapes = (self.readout_block.shape, self.hidden_block.shape)
        if shapes != ((self.n, self.N), (self.N, self.N)):
            raise ValueError(f"readout_block and hidden_block shapes {shapes}, "
                             f"expected {((self.n, self.N), (self.N, self.N))}")
        if self.bias.shape != (self.N,) or self.resting_aug.shape != (self.n + self.N,):
            raise ValueError("bias must have length N and resting_aug length n + N")
        _require_positive(tau_base=self.tau_base, w_l=self.w_l)
        # tau_base * w_l <= 0.01 is enforced by assemble_augmented_system;
        # the constructor stays permissive so check_tau_conditions can
        # describe failing parameter triples.

    @property
    def tau_sys_range(self) -> tuple[float, float]:
        """The system time constant's (smallest, largest) values, 1/(1/tau + w_l)
        with every activation at 1 and tau with every activation at 0."""
        return 1.0 / (1.0 / self.tau_base + self.w_l), self.tau_base


def assemble_augmented_system(fit: FeedForwardApprox, tau_base: float, w_l: float
                              ) -> AugmentedSystem:
    """Build the augmented system of a fitted model, with constant drives A1 = A2 = 0."""
    _require_positive(tau_base=tau_base, w_l=w_l)
    if tau_base * w_l > 0.01:
        raise ConditionsViolatedError(
            f"tau_base * w_l = {tau_base * w_l:g} exceeds 0.01; the coupling "
            "must stay a small perturbation of the base rate 1/tau"
        )
    b_rev = fit.readout_matrix / w_l
    e_block = fit.projection_matrix @ (w_l * b_rev)
    return AugmentedSystem(fit.n, fit.n_features, b_rev, e_block, fit.bias.copy(),
                           np.zeros(fit.n + fit.n_features), tau_base, w_l)


def _drive(system: AugmentedSystem) -> np.ndarray:
    """The (n+N) x N stacked drive [w_l B_rev; E] of the hidden activations."""
    return np.vstack([system.w_l * system.readout_block, system.hidden_block])


def augmented_rhs(system: AugmentedSystem):
    """Right-hand side of the augmented ODE (the direct integration path):
    z' = -(1/tau + r(y)) z + [w_l B_rev; E] sigma(y) + A, plus mu (1/tau + r(y))
    on y, with one rate r(y) = (w_l/N) * sum sigma(y_j) for every coordinate."""
    n, drive = system.n, _drive(system)
    per_syn = system.w_l / system.N if system.N else 0.0
    inv_tau = 1.0 / system.tau_base

    def rhs(z):
        s = model.expit(z[n:])
        rate = inv_tau + per_syn * s.sum()
        dz = -rate * z + drive @ s + system.resting_aug
        dz[n:] += system.bias * rate
        return dz

    return rhs


def estimate_gtilde_lipschitz(system: AugmentedSystem) -> float:
    """Lipschitz constant estimate for the augmented drive: twice the
    constant of z -> W sigma(z) + A bounded by |W|_2 * sup|sigma'|.

    W = [[0, w_l B_rev], [0, E]] has the singular values of its nonzero
    columns [w_l B_rev; E], so only that (n+N) x N block is decomposed.
    """
    return float(np.linalg.norm(_drive(system), 2) * 0.25 * 2.0)


def _error_budget(eta: float, lipschitz: float, horizon: float) -> float:
    """Perturbation budget eta L / (2 (exp(L T) - 1)), eta / (2 T) at L = 0.

    Once exp(L T) overflows the denominator is infinite and the budget is
    0.0, so every condition measured against it fails instead of raising.
    """
    if not lipschitz > 0:
        return eta / (2.0 * horizon)
    try:
        return eta * lipschitz / (2.0 * math.expm1(lipschitz * horizon))
    except OverflowError:
        return 0.0


def check_tau_conditions(
    system: AugmentedSystem,
    domain,
    epsilon_l: float,
    eta: float,
    l_gtilde: float,
    horizon: float,
) -> list:
    """The largeness conditions on the system time constant, as report rows
    (name, PASS as a bool, ((margin name, margin), ...)), in report order.

    Each uses the smallest time constant the decay can reach: (a) the
    decay perturbation |x| / tau_sys stays below epsilon_l / 2 on the
    eta-fattened domain; (b) the bias leakage |mu| / tau_sys stays below
    the perturbation budget eta L / (2 (exp(L T) - 1)) and the decay rate
    below L / 2.  The fixed smallness bound tau * w_l <= 0.01 is reported
    alongside.
    """
    box = np.asarray(domain, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"domain must be an (n, 2) box, got shape {box.shape}")
    tau_sys_min = system.tau_sys_range[0]
    lo = box[:, 0] - eta
    hi = box[:, 1] + eta
    max_norm = float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))
    margin_a = epsilon_l / 2.0 - max_norm / tau_sys_min
    mu_norm = float(np.linalg.norm(system.bias))
    bias_margin = _error_budget(eta, l_gtilde, horizon) - mu_norm / tau_sys_min
    rate_margin = l_gtilde / 2.0 - 1.0 / tau_sys_min
    margin_tau_wl = 0.01 - system.tau_base * system.w_l
    return [
        ("condition_a", margin_a > 0, (("margin", margin_a),)),
        ("condition_b", bias_margin > 0 and rate_margin > 0,
         (("bias_margin", bias_margin), ("rate_margin", rate_margin))),
        ("tau_wl", margin_tau_wl >= 0, (("margin", margin_tau_wl),)),
    ]


def realize_as_ltc(system: AugmentedSystem) -> LtcNetwork:
    """Wire the augmented system as an LTC network.

    Hidden neurons 0..N-1 carry the y coordinates, output neurons N..N+n-1
    the x coordinates.  Every block entry (row k, source j), exact zeros
    included, becomes a synapse from hidden neuron j with weight w_l/N,
    unit sigmoid, and a reversal potential of N * entry / w_l for hidden
    targets (shifted by the bias of the target coordinate) or N * entry for
    output targets; leak parameters give each neuron the base rate 1/tau
    and the constant drives.  So every network with N >= 1 is a block.
    """
    n, nf, tau, mu = system.n, system.N, system.tau_base, system.bias
    # Row j of the grid [E^T, B_rev^T] (F-contiguous: hstack of two transposes)
    # lists the targets of hidden source j: hidden neurons 0..N-1, then outputs
    # N..N+n-1.  It is scaled, and its hidden columns divided and shifted, in place.
    e_rev = np.hstack([system.hidden_block.T, system.readout_block.T])
    with np.errstate(over="ignore"):
        e_rev *= nf
        e_rev[:, :nf] /= system.w_l
        e_rev[:, :nf] += mu
    if not np.isfinite(e_rev).all():
        j, r = np.argwhere(~np.isfinite(e_rev))[0].tolist()
        block, row = ("hidden", r) if r < nf else ("readout", r - nf)
        entry = getattr(system, f"{block}_block")[row, j]
        raise RealizationError(f"{block} block entry ({row}, {j}) = {entry!r} "
                               "needs a non-finite reversal potential")
    return LtcNetwork.from_arrays(
        cm=np.ones(nf + n), g_leak=np.full(nf + n, 1.0 / tau),
        v_leak=np.concatenate([tau * system.resting_aug[n:] + mu, tau * system.resting_aug[:n]]),
        w=np.full(nf, system.w_l) / nf, gamma=np.ones(nf), mu=np.zeros(nf), e_rev=e_rev,
        n_output=n)


@dataclass
class PipelineConfig:
    """Knobs for the end-to-end approximation pipeline."""

    n_features: int = 64
    n_samples: int = 1024
    ridge: float = 1e-8
    seed: int = 0
    tau_base: float = 100.0
    w_l: float = 1e-4
    gamma_scale: float = 1.0
    ltc_dt: float = 1e-3
    ref_dt: float = 1e-4
    eta: float | None = None

    def __post_init__(self):
        for name, least in (("n_features", 1), ("n_samples", 1), ("seed", 0)):
            value = model._count(getattr(self, name), name)  # refused here, not in numpy
            setattr(self, name, value)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        positive = ("tau_base", "w_l", "gamma_scale", "ltc_dt", "ref_dt")
        positive += () if self.eta is None else ("eta",)
        _require_positive(**{name: getattr(self, name) for name in positive})
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass
class ApproximationReport:
    """Everything the pipeline measured, plus the paired trajectories."""

    sup_traj_error: float
    fitted: FeedForwardApprox
    system: AugmentedSystem
    conditions: list  # check_tau_conditions' rows
    lipschitz_f: float
    l_gtilde: float
    epsilon_l: float
    eta: float
    times: np.ndarray
    reference_states: np.ndarray  # (k, n) target trajectory
    network_outputs: np.ndarray   # (k, n) output coordinates of the LTC run
    network: LtcNetwork = field(repr=False, default=None)


def approximate_trajectory(
    fld: VectorField, x0, horizon: float, config: PipelineConfig | None = None
) -> ApproximationReport:
    """Run the full construction and measure the sup-norm trajectory error.

    The reference trajectory is integrated with RK4 at (close to) the
    configured reference step; the network is initialized with its output
    block at x0 and its hidden block at projection @ x0 + bias, and both
    trajectories are compared on the common recording grid.
    """
    if config is None:
        config = PipelineConfig()
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if horizon < config.ltc_dt:
        raise ValueError(f"horizon must be >= ltc_dt, got {horizon} < {config.ltc_dt}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (fld.dim,):
        raise DomainError(f"x0 has shape {x0.shape}, field dimension is {fld.dim}")
    if not fld.contains(x0):
        raise DomainError(f"x0 = {x0.tolist()} lies outside the field domain")

    lipschitz_f = estimate_lipschitz(fld)
    if config.eta is not None:
        eta = float(config.eta)
    else:
        eta = 0.1 * float(np.min(fld.domain[:, 1] - fld.domain[:, 0])) / 2.0
    epsilon_l = _error_budget(eta, lipschitz_f, horizon)

    fit = fit_feedforward(
        fld,
        config.n_features,
        config.n_samples,
        config.ridge,
        config.seed,
        config.gamma_scale,
    )
    system = assemble_augmented_system(fit, config.tau_base, config.w_l)
    l_gtilde = estimate_gtilde_lipschitz(system)
    conditions = check_tau_conditions(
        system, fld.domain, epsilon_l, eta, l_gtilde, horizon
    )
    net = realize_as_ltc(system)

    stride = max(1, round(config.ltc_dt / config.ref_dt))
    ref_dt = config.ltc_dt / stride
    ref = integrate_field(
        fld, x0, SolverConfig(Method.RK4, ref_dt, horizon, record_every=stride)
    )
    h0 = fit.projection_matrix @ x0 + fit.bias
    u0 = np.concatenate([h0, x0])
    ltc = simulate(net, u0, SolverConfig(Method.RK4, config.ltc_dt, horizon, 1))
    if ref.n_points != ltc.n_points:
        raise RuntimeError(
            f"recording grids disagree: {ref.n_points} reference points vs "
            f"{ltc.n_points} network points"
        )
    if np.max(np.abs(ref.times - ltc.times)) > 1e-9:
        raise RuntimeError("recording grids disagree beyond tolerance")
    outputs = ltc.states[:, net.n_hidden:]
    errors = np.linalg.norm(ref.states - outputs, axis=1)
    return ApproximationReport(
        sup_traj_error=float(np.max(errors)),
        fitted=fit,
        system=system,
        conditions=conditions,
        lipschitz_f=lipschitz_f,
        l_gtilde=l_gtilde,
        epsilon_l=epsilon_l,
        eta=eta,
        times=ltc.times,
        reference_states=ref.states,
        network_outputs=outputs,
        network=net,
    )
