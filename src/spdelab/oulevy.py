"""Linear dynamics driven by an additive Levy process, the particular case of
the engine's scenario with a constant drift, a constant diffusion and
additive jumps: characteristic exponents, the limiting characteristic
function under a uniformly convergent semigroup, and the stochastically
perturbed Kolmogorov-equation instance on a weighted state space.

The triplet is read from the scenario, fully compensated as the stepper
simulates it: the drift F, the Gaussian covariance Q = C diag(lambda) C^T D
(the diffusion's columns C, the mode variances lambda and the geometry's
weights D), and jumps at rate r whose marks z have the closed-form
characteristic function phi, so that

    Psi(u) = i<F,u> - 1/2 <Qu,u> + r (phi(u) - 1 - i<u, E z>).

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

from .engine import ConstantSigma, Scenario
from .errors import BudgetExceeded, ContractViolation, HypothesisViolated
from .gdc import ConvergenceFit, fit_convergence
from .hilbert import (EUCLIDEAN, HilbertSpace, MATRIX_EXP, euclidean_space, expm,
                      matrix_operator, weighted_space, averaging_projection)
from .noise import QWienerSpec

HYP_DRIFT = "ou-drift-in-ker-P"
HYP_COV = "ou-covariance-in-ker-P"
HYP_JUMPS = "ou-jump-measure-on-ker-P"
HYP_TOL = 1e-10
MAX_QUAD_NODES = 1_000_000     # most quadrature steps t_cut / quad_step
CONV_PROBE_SEED = 11_311       # random probes of the semigroup convergence fit


def _op_norm(space: HilbertSpace, m: np.ndarray) -> float:
    """Operator 2-norm in the space's geometry (diagonal-weight aware)."""
    if space.weight is None:
        return float(np.linalg.norm(m, 2))
    r = np.sqrt(space.weight)
    return float(np.linalg.norm((m * r[:, None]) / r[None, :], 2))


def _hs_norm(space: HilbertSpace, rows: np.ndarray) -> float:
    """Hilbert-Schmidt norm of the map whose images of a basis are ``rows``."""
    return math.sqrt(float(space.norm2_rows(rows).sum()))


def _drift_and_covariance(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The drift F (0 without one) and Q = C diag(lambda) C^T D as an operator on H."""
    F = sc.drift.value if sc.drift is not None else np.zeros(sc.dim)
    q = np.zeros((sc.dim, sc.dim))
    if sc.sigma is not None and sc.qwiener is not None:
        c = sc.sigma.matrix
        q = (c * sc.qwiener.eigenvalues) @ c.T
        if sc.space.weight is not None:
            q = q * sc.space.weight[None, :]
    return F, q


def levy_exponent(sc: Scenario, u):
    """Characteristic exponent

    Psi(u) = i<F,u> - 1/2 <Qu,u> + r (phi(u) - 1 - i<u, E z>)

    at one vector ``u`` (a complex) or at each row of an ``(n, d)`` array (an
    array of n complexes), with the marks' characteristic function phi in
    closed form (see the module docstring).
    """
    U = np.atleast_2d(np.asarray(u, dtype=float))
    if np.ndim(u) not in (1, 2) or U.shape[1] != sc.dim:
        raise ContractViolation(f"Levy exponent needs vectors of length {sc.dim}, "
                                f"got shape {np.shape(u)}")
    space = sc.space
    F, q = _drift_and_covariance(sc)
    val = 1j * space.inner_rows(np.broadcast_to(F, U.shape), U) \
        - 0.5 * space.inner_rows(U @ q.T, U)
    if sc.jumps is not None:
        marks = sc.jumps.marks
        V = U if space.weight is None else U * space.weight     # <u, z> = V @ z
        val += sc.jumps.total_rate * (marks.cf(V) - 1.0 - 1j * (V @ marks.mark_mean()))
    return complex(val[0]) if np.ndim(u) == 1 else val


def _audit_hypotheses(sc: Scenario) -> None:
    """The triplet lives on ker P: ||P F||, ||P C diag(sqrt lambda)|| and, for
    the marks, ||P E z|| and ||P diag(std z)|| are each at most HYP_TOL."""
    space, P = sc.space, sc.P1
    if sc.drift is not None:
        pb = space.norm(P.apply(sc.drift.value))
        if pb > HYP_TOL:
            raise HypothesisViolated(HYP_DRIFT, f"||P F|| = {pb:.3e}")
    if sc.sigma is not None and sc.qwiener is not None:
        cols = sc.sigma.matrix.T * np.sqrt(sc.qwiener.eigenvalues)[:, None]
        pq = _hs_norm(space, P.apply(cols))
        if pq > HYP_TOL:
            raise HypothesisViolated(HYP_COV, f"||P C diag(sqrt lambda)|| = {pq:.3e}")
    if sc.jumps is not None:
        marks = sc.jumps.marks
        pm = space.norm(P.apply(marks.mark_mean()))
        ps = _hs_norm(space, P.apply(marks.spread()))
        if max(pm, ps) > HYP_TOL:
            raise HypothesisViolated(HYP_JUMPS, f"||P E z|| = {pm:.3e}, "
                                                f"||P diag(std z)|| = {ps:.3e}")


@dataclass(eq=False)
class OuScenario:
    """An engine scenario that is a Levy OU process, with the fitted
    convergence of its semigroup to the projection P = P1."""

    scenario: Scenario
    conv: ConvergenceFit


def make_ou_scenario(sc: Scenario, t_grid=None) -> OuScenario:
    """Admit and audit a scenario as a Levy OU, and fit its semigroup's
    convergence rate: a matrix generator on a euclidean space, coefficients
    that do not depend on the state, and a triplet on ker P."""
    if sc.op.semigroup_mode != MATRIX_EXP or sc.space.kind != EUCLIDEAN:
        raise ContractViolation("the OU machinery needs a matrix generator on a euclidean space")
    key = sc.state_dependent
    if key is not None:
        raise ContractViolation(f"coefficients.{key}: the Levy OU needs a zero or constant "
                                "drift and an unwrapped constant or tabulated diffusion")
    _audit_hypotheses(sc)
    if t_grid is None:
        t_grid = np.linspace(0.25, 6.0, 16)
    gen = np.random.Generator(np.random.Philox(CONV_PROBE_SEED))
    probes = list(np.eye(sc.dim)) + list(gen.standard_normal((3, sc.dim)))
    return OuScenario(scenario=sc, conv=fit_convergence(sc.op, sc.P1, t_grid, probes))


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


def _tail_constants(ou: OuScenario) -> tuple[float, float]:
    """a1, a2 of the tail bound: |Psi(S(r)* u)| <= (a1 ||u|| + a2 ||u||^2) e^{-rate r},
    with |e^{ix} - 1 - ix| <= x^2 / 2 for every jump."""
    sc = ou.scenario
    space = sc.space
    m = max(ou.conv.prefactor, 1.0)
    ms = m + _op_norm(space, sc.P1.matrix)
    F, q = _drift_and_covariance(sc)
    a1 = m * space.norm(F)
    a2 = m * ms * _op_norm(space, q)
    if sc.jumps is not None:
        a2 += 0.5 * m * m * sc.jumps.second_moment(space)
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


def limiting_cf(ou: OuScenario, x, u, t_cut: float | None = None,
                quad_step: float = 0.01) -> CfValue:
    """Quadrature evaluation of the limiting characteristic function at u.

    Needs a positive fitted convergence rate; ``+inf`` (residuals that vanish
    identically) makes the tail exactly zero. ``t_cut`` and ``quad_step``
    must be positive finite real numbers (not booleans), and ask for at most
    MAX_QUAD_NODES steps.
    """
    sc = ou.scenario
    space = sc.space
    u = _finite_vector(u, "u", space.dim)
    x = _finite_vector(x, "x", space.dim)
    quad_step = _positive_finite(quad_step, "quad_step")
    if t_cut is not None:
        t_cut = _positive_finite(t_cut, "t_cut")
    rate = ou.conv.rate
    if not rate > 0:
        raise ContractViolation(f"the fitted semigroup convergence rate {rate:.4g} "
                                "is not positive")
    if t_cut is None:
        t_cut = 1.0 if not math.isfinite(rate) else 40.0 / rate
    if not t_cut / quad_step <= MAX_QUAD_NODES:
        raise BudgetExceeded(f"t_cut / quad_step = {t_cut / quad_step:.4g} quadrature steps "
                             f"exceed the budget of {MAX_QUAD_NODES}")
    _audit_hypotheses(sc)
    n = max(4, int(math.ceil(t_cut / quad_step)))
    n += (-n) % 4
    h = t_cut / n
    astar = space.adjoint(sc.op.generator)
    estar = expm(h * astar)
    us = np.empty((n + 1, len(u)))
    us[0] = u
    for k in range(n):
        np.matmul(estar, us[k], out=us[k + 1])
    psi = levy_exponent(sc, us)
    integral = (h / 3.0) * complex(_simpson_weights(n + 1) @ psi)
    coarse = (2.0 * h / 3.0) * complex(_simpson_weights(n // 2 + 1) @ psi[::2])
    quad_error = abs(integral - coarse) / 15.0
    a1, a2 = _tail_constants(ou)
    un = space.norm(u)
    tail = 0.0 if not math.isfinite(rate) else \
        (a1 * un + a2 * un * un) * math.exp(-rate * t_cut) / rate
    value = cmath.exp(1j * space.inner(sc.P1.apply(x), u) + integral)
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


def kolmogorov_instance(q_matrix, eta, columns, t_grid=None) -> OuScenario:
    """OU scenario for a stochastically perturbed finite-state Kolmogorov
    equation: state space L^2(eta), averaging projection, generator q_matrix,
    and Gaussian noise along the coordinate ``columns`` (dim, m) with unit
    mode variances, or none for ``columns`` None."""
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
    sigma = None if columns is None else ConstantSigma(columns)
    qw = None if sigma is None else QWienerSpec(np.ones(sigma.matrix.shape[1]))
    sc = Scenario(op=matrix_operator(weighted_space(eta), q), P1=averaging_projection(eta),
                  qwiener=qw, sigma=sigma, scenario_id="kolmogorov")
    return make_ou_scenario(sc, t_grid=t_grid)
