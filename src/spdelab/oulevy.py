"""Linear dynamics driven by an additive Levy process: characteristic
exponents, the limiting characteristic function under a uniformly convergent
semigroup, and the stochastically perturbed Kolmogorov-equation instance on a
weighted state space.

The limiting law started at x has characteristic function

    E exp(i<u, X_inf>) = exp( i<Px, u> + int_0^inf Psi(S(r)* u) dr ),

evaluated here by composite Simpson quadrature on [0, T_cut] with a certified
exponential tail bound of the form C(||u|| + ||u||^2) e^{-rate T_cut} / rate.
The orbit u_k = S(h)* u_{k-1} is stepped one node after the other (a batched
form, such as powers of S(h)*, would round differently); the exponent Psi
then runs over all of its nodes in one call. A quadrature takes at most
MAX_QUAD_NODES = 10^6 steps t_cut / quad_step (shipped calls take 8,000);
more is BudgetExceeded.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .engine import ConstantDrift, ConstantSigma, Scenario
from .errors import BudgetExceeded, ContractViolation, HypothesisViolated
from .gdc import ConvergenceFit, fit_convergence, make_certificate
from .hilbert import (EUCLIDEAN, HilbertSpace, MATRIX_EXP, OperatorModel, Projection,
                      euclidean_space, expm, matrix_operator, weighted_space,
                      averaging_projection)
from .noise import JumpSpec, QWienerSpec

HYP_DRIFT = "ou-drift-in-ker-P"
HYP_COV = "ou-covariance-in-ker-P"
HYP_JUMPS = "ou-jump-measure-on-ker-P"
HYP_TOL = 1e-10
MAX_QUAD_NODES = 1_000_000     # most quadrature steps t_cut / quad_step
CONV_PROBE_SEED = 11_311       # random probes of the semigroup convergence fit
_MARK_BLOCK = 1 << 18         # phase-matrix entries per block of rows


def _op_norm(space: HilbertSpace, m: np.ndarray) -> float:
    """Operator 2-norm in the space's geometry (diagonal-weight aware)."""
    if space.weight is None:
        return float(np.linalg.norm(m, 2))
    r = np.sqrt(space.weight)
    return float(np.linalg.norm((m * r[:, None]) / r[None, :], 2))


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Drift, Gaussian covariance (as an operator on H) and a finite jump
    measure ``mu = jumps.total_rate * law(jumps.marks)`` (None: no jumps)."""

    drift: np.ndarray
    cov: np.ndarray
    jumps: JumpSpec | None = None

    def __post_init__(self):
        b = np.asarray(self.drift, dtype=float)
        q = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if q.shape != (len(b), len(b)):
            raise ContractViolation("covariance must be square, matching the drift")
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "cov", q)

    def validate(self, space: HilbertSpace) -> None:
        q = self.cov
        if np.abs(q - space.adjoint(q)).max() > 1e-10 * max(1.0, np.abs(q).max()):
            raise ContractViolation("covariance is not self-adjoint in this geometry")
        sigma_eucl = self.euclidean_covariance(space)
        if np.linalg.eigvalsh(0.5 * (sigma_eucl + sigma_eucl.T)).min() < -1e-10:
            raise ContractViolation("covariance is not positive semidefinite")
        if self.jumps is not None:
            w, nodes = self.jumps.marks.quadrature()
            nz = np.sqrt(space.norm2_rows(nodes))
            big = nz > 1.0
            if not np.isfinite(self.jumps.total_rate * float(w[big] @ np.log1p(nz[big]))):
                raise ContractViolation("log moment of big jumps is not finite")

    def euclidean_covariance(self, space: HilbertSpace) -> np.ndarray:
        """Coordinate covariance Sigma of the Gaussian part, from Q = Sigma D."""
        if space.weight is None:
            return self.cov
        return self.cov / space.weight[None, :]

    def jump_quadrature(self, space: HilbertSpace):
        if self.jumps is None:
            return None
        w, nodes = self.jumps.marks.quadrature()
        small = np.sqrt(space.norm2_rows(nodes)) <= 1.0
        return w, nodes, small


def levy_exponent(t: LevyTriplet, u, space: HilbertSpace | None = None):
    """Characteristic exponent

    Psi(u) = i<b,u> - 1/2 <Qu,u> + int (e^{i<u,z>} - 1 - i<u,z> 1_{||z||<=1}) mu(dz)

    at one vector ``u`` (a complex) or at each row of an ``(n, d)`` array (an
    array of n complexes), with the jump integral taken over the mark law's
    quadrature (exact for atoms, fixed-seed Monte-Carlo otherwise). The phases
    <u_i, z_k> form an (n, q) matrix, in blocks of rows that bound its memory.
    """
    U = np.atleast_2d(np.asarray(u, dtype=float))
    if np.ndim(u) not in (1, 2) or U.shape[1] != len(t.drift):
        raise ContractViolation(f"Levy exponent needs vectors of length {len(t.drift)}, "
                                f"got shape {np.shape(u)}")
    if space is None:
        space = euclidean_space(U.shape[1])
    val = 1j * space.inner_rows(np.broadcast_to(t.drift, U.shape), U) \
        - 0.5 * space.inner_rows(U @ t.cov.T, U)
    quad = t.jump_quadrature(space)
    if quad is not None:
        w, nodes, small = quad
        if space.kind != EUCLIDEAN:
            raise ContractViolation("jump phases need a euclidean geometry")
        zw = nodes if space.weight is None else nodes * space.weight
        rows = max(1, _MARK_BLOCK // len(w))
        for lo in range(0, len(U), rows):
            phase = U[lo:lo + rows] @ zw.T
            vals = np.exp(1j * phase) - 1.0 - 1j * phase * small
            val[lo:lo + rows] += t.jumps.total_rate * (vals @ w)
    return complex(val[0]) if np.ndim(u) == 1 else val


@dataclass(eq=False)
class OuScenario:
    """Operator with a certified convergent semigroup plus the driving triplet.

    The structural hypotheses are recomputed from the data at construction,
    never trusted from the caller.
    """

    op: OperatorModel
    P: Projection
    triplet: LevyTriplet
    conv: ConvergenceFit
    scenario_id: str = "ou"

    @property
    def space(self) -> HilbertSpace:
        return self.op.space

    def audit_hypotheses(self) -> None:
        space = self.space
        pb = space.norm(self.P.apply(self.triplet.drift))
        if pb > HYP_TOL:
            raise HypothesisViolated(HYP_DRIFT, f"||P b|| = {pb:.3e}")
        pq = _op_norm(space, self.P.matrix @ self.triplet.cov)
        if pq > HYP_TOL:
            raise HypothesisViolated(HYP_COV, f"||P Q|| = {pq:.3e}")
        if self.triplet.jumps is not None:
            _, nodes, _ = self.triplet.jump_quadrature(space)
            worst = float(np.sqrt(space.norm2_rows(self.P.apply(nodes))).max())
            if worst > HYP_TOL:
                raise HypothesisViolated(HYP_JUMPS, f"max ||P z|| = {worst:.3e}")


def make_ou_scenario(op: OperatorModel, P: Projection, triplet: LevyTriplet,
                     t_grid=None, scenario_id: str = "ou") -> OuScenario:
    """Assemble and audit an OU scenario; fits the semigroup convergence rate."""
    if op.semigroup_mode != MATRIX_EXP:
        raise ContractViolation("the OU machinery needs a matrix generator")
    space = op.space
    triplet.validate(space)
    P.validate(space)
    if t_grid is None:
        t_grid = np.linspace(0.25, 6.0, 16)
    gen = np.random.Generator(np.random.Philox(CONV_PROBE_SEED))
    probes = list(np.eye(space.dim)) + list(gen.standard_normal((3, space.dim)))
    conv = fit_convergence(op, P, t_grid, probes)
    sc = OuScenario(op=op, P=P, triplet=triplet, conv=conv, scenario_id=scenario_id)
    sc.audit_hypotheses()
    return sc


@dataclass(frozen=True)
class CfValue:
    value: complex
    tail_bound: float
    quad_error: float
    t_cut: float


def _simpson_weights(npts: int) -> np.ndarray:
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _tail_constants(sc: OuScenario) -> tuple[float, float]:
    space, t = sc.space, sc.triplet
    m = max(sc.conv.prefactor, 1.0)
    ms = m + _op_norm(space, sc.P.matrix)
    a1 = m * space.norm(t.drift)
    a2 = m * ms * _op_norm(space, t.cov)
    quad = t.jump_quadrature(space)
    if quad is not None:
        w, nodes, small = quad
        nz = np.sqrt(space.norm2_rows(nodes))
        a1 += m * t.jumps.total_rate * float(w[~small] @ nz[~small])
        a2 += 0.5 * m * m * t.jumps.total_rate * float(w[small] @ nz[small] ** 2)
    return a1, a2


def _finite_vector(v, name: str, dim: int) -> np.ndarray:
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (dim,) or not np.isfinite(a).all():
        raise ContractViolation(f"{name} must be a finite vector of length {dim}")
    return a


def _positive_finite(v, name: str) -> float:
    """``v`` as a float if it is a positive finite real number; a bool is not."""
    if (isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)
            or not (v > 0 and math.isfinite(v))):
        raise ContractViolation(f"{name} must be positive and finite, got {v!r}")
    return float(v)


def limiting_cf(sc: OuScenario, x, u, t_cut: float | None = None,
                quad_step: float = 0.01) -> CfValue:
    """Quadrature evaluation of the limiting characteristic function at u.

    Needs a positive fitted convergence rate; ``+inf`` (residuals that vanish
    identically) makes the tail exactly zero. ``t_cut`` and ``quad_step``
    must be positive finite real numbers (not booleans), and ask for at most
    MAX_QUAD_NODES steps.
    """
    space = sc.space
    u = _finite_vector(u, "u", space.dim)
    x = _finite_vector(x, "x", space.dim)
    quad_step = _positive_finite(quad_step, "quad_step")
    if t_cut is not None:
        t_cut = _positive_finite(t_cut, "t_cut")
    rate = sc.conv.rate
    if not rate > 0:
        raise ContractViolation(f"the fitted semigroup convergence rate {rate:.4g} "
                                "is not positive")
    if t_cut is None:
        t_cut = 1.0 if not math.isfinite(rate) else 40.0 / rate
    if not t_cut / quad_step <= MAX_QUAD_NODES:
        raise BudgetExceeded(f"t_cut / quad_step = {t_cut / quad_step:.4g} quadrature steps "
                             f"exceed the budget of {MAX_QUAD_NODES}")
    sc.audit_hypotheses()
    n = max(4, int(math.ceil(t_cut / quad_step)))
    n += (-n) % 4
    h = t_cut / n
    astar = space.adjoint(sc.op.generator)
    estar = expm(h * astar)
    us = np.empty((n + 1, len(u)))
    us[0] = u
    for k in range(n):
        np.matmul(estar, us[k], out=us[k + 1])
    psi = levy_exponent(sc.triplet, us, space)
    integral = (h / 3.0) * complex(_simpson_weights(n + 1) @ psi)
    coarse = (2.0 * h / 3.0) * complex(_simpson_weights(n // 2 + 1) @ psi[::2])
    quad_error = abs(integral - coarse) / 15.0
    a1, a2 = _tail_constants(sc)
    un = space.norm(u)
    tail = 0.0 if not math.isfinite(rate) else \
        (a1 * un + a2 * un * un) * math.exp(-rate * t_cut) / rate
    value = cmath.exp(1j * space.inner(sc.P.apply(x), u) + integral)
    return CfValue(value=value, tail_bound=float(tail), quad_error=float(quad_error),
                   t_cut=float(t_cut))


def empirical_cf(samples, u, space: HilbertSpace | None = None):
    """Monte-Carlo characteristic function with its 1/sqrt(N) error bound."""
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    u = np.asarray(u, dtype=float)
    if space is None:
        space = euclidean_space(len(u))
    phase = space.inner_rows(X, np.broadcast_to(u, X.shape))
    val = complex(np.mean(np.exp(1j * phase)))
    return val, 1.0 / math.sqrt(X.shape[0])


def ou_engine_scenario(sc: OuScenario) -> Scenario:
    """Wire the OU dynamics into the time stepper.

    The compensated-jump form absorbs the uncompensated big jumps into the
    constant drift: F = b + int_{||z||>1} z mu(dz), all jumps compensated.
    The covariance's eigenvectors are the diffusion's columns.
    """
    space = sc.space
    t = sc.triplet
    b_eff = t.drift.copy()
    if t.jumps is not None:
        w, nodes, small = t.jump_quadrature(space)
        b_eff = b_eff + t.jumps.total_rate * ((w * ~small) @ nodes)
    sigma_eucl = t.euclidean_covariance(space)
    vals, vecs = np.linalg.eigh(0.5 * (sigma_eucl + sigma_eucl.T))
    keep = vals > 1e-12 * max(vals.max(), 1.0) if vals.size else np.zeros(0, bool)
    lam, cols = vals[keep], vecs[:, keep]
    qw = QWienerSpec(lam) if keep.any() else None
    sigma = ConstantSigma(cols) if keep.any() else None
    drift = ConstantDrift(b_eff) if np.any(b_eff != 0.0) else None
    cert = make_certificate(sc.op.generator, sc.P, lambda1=0.0, space=space)
    return Scenario(op=sc.op, P1=sc.P, qwiener=qw, drift=drift, sigma=sigma,
                    jumps=t.jumps, certificate=cert, scenario_id=sc.scenario_id)


def kolmogorov_instance(q_matrix, eta, triplet: LevyTriplet, t_grid=None) -> OuScenario:
    """OU scenario for a stochastically perturbed finite-state Kolmogorov
    equation: state space L^2(eta), averaging projection, generator q_matrix."""
    q = np.asarray(q_matrix, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = len(eta)
    if q.shape != (n, n):
        raise ContractViolation("generator must be square and match the weights")
    if abs(eta.sum() - 1.0) > 1e-12 or np.any(eta <= 0):
        raise ContractViolation("eta must be a strictly positive probability vector")
    scale = max(1.0, np.abs(q).max())
    if np.abs(q.sum(axis=1)).max() > 1e-10 * scale:
        raise ContractViolation("generator rows must sum to zero")
    off = q - np.diag(np.diag(q))
    if off.min() < -1e-12 * scale:
        raise ContractViolation("generator off-diagonal rates must be nonnegative")
    balance = eta[:, None] * q - (eta[:, None] * q).T
    if np.abs(balance).max() > 1e-10 * scale:
        raise ContractViolation("generator is not symmetric in L^2(eta)")
    reach = np.eye(n, dtype=bool) | (off > 0)
    closure = np.linalg.matrix_power(reach.astype(np.int64), n) > 0
    if not closure.all():
        raise ContractViolation("the chain is not irreducible")
    space = weighted_space(eta)
    op = matrix_operator(space, q)
    proj = averaging_projection(eta)
    return make_ou_scenario(op, proj, triplet, t_grid=t_grid, scenario_id="kolmogorov")
