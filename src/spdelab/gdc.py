"""Certification of the generalized dissipativity inequality

    <Ax, x>  <=  -lambda0 ||x||^2 + (lambda0 + lambda1) ||P1 x||^2

for a matrix generator and a self-adjoint projection, together with the
derived contraction constants

    alpha = lambda0 - sqrt(L_F),   beta = lambda1 + sqrt(L_F),
    epsilon = 2 alpha - L_sigma   (every jump is additive: no jump term).

The inequality is certified through the symmetric part of the quadratic form:
it holds for all x iff the largest eigenvalue of

    Sym(A) + lambda0 (I - P1) - lambda1 P1

is nonpositive (with the Gram matrix inserted for weighted geometries), which
is monotone in lambda0, so the best constant is found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationFailed, ContractViolation
from .hilbert import EUCLIDEAN, HilbertSpace, OperatorModel, Projection, euclidean_space

AUDIT_SEED = 40_127
AUDIT_PROBES = 1000        # random probe vectors of the quadratic-form audit
AUDIT_SLACK = 1e-8
ROUNDOFF_FLOOR = 1e-12     # relative round-off of semigroup residuals
REFINE_ROUNDS = 8


@dataclass(frozen=True)
class LipschitzConstants:
    """Squared-norm Lipschitz bounds of the drift and diffusion maps."""
    L_F: float = 0.0
    L_sigma: float = 0.0

    def __post_init__(self):
        if min(self.L_F, self.L_sigma) < 0:
            raise ContractViolation("Lipschitz constants must be nonnegative")


@dataclass(frozen=True)
class GdcCertificate:
    lambda0: float
    lambda1: float
    alpha: float
    beta_const: float
    epsilon: float
    lipschitz: LipschitzConstants
    contractive: bool          # epsilon > 0, the stability-estimate hypothesis
    audit_max_violation: float


def _form_matrices(A, P1: Projection, space: HilbertSpace | None):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation("generator must be a square matrix")
    d = A.shape[0]
    if P1.dim != d:
        raise ContractViolation("projection dimension does not match the generator")
    if space is None:
        space = euclidean_space(d)
    if space.kind != EUCLIDEAN:
        raise ContractViolation("certification is only implemented for euclidean geometries")
    D = np.eye(d) if space.weight is None else np.diag(space.weight)
    sym = 0.5 * (D @ A + A.T @ D)
    qp1 = P1.matrix.T @ D @ P1.matrix
    qp0 = D - qp1
    return sym, qp0, qp1, D


def certify_lambda0(A, P1: Projection, lambda1: float = 0.0, tol: float = 1e-9,
                    space: HilbertSpace | None = None):
    """Largest ``lambda0`` (within ``tol``) certifying the inequality, or None."""
    if lambda1 < 0 or tol <= 0:
        raise ContractViolation("lambda1 must be >= 0 and tol > 0")
    sym, qp0, qp1, D = _form_matrices(A, P1, space)
    # the feasibility slack scales with the form alone: one that grew with
    # lambda1 ||P1|| would accept a lambda0 far above the true one
    scale = np.linalg.norm(sym, 2) + 1.0

    def feasible(lam0: float) -> bool:
        m = sym + lam0 * qp0 - lambda1 * qp1
        top = np.linalg.eigvalsh(m)[-1]
        return top <= 1e-13 * scale

    lo = tol
    if not feasible(lo):
        return None
    hi = np.linalg.norm(sym, 2) / (1.0 if space is None or space.weight is None
                                   else float(np.min(space.weight))) + lambda1 + 1.0
    if feasible(hi):
        return float(hi)   # degenerate geometry (P1 = I); capped at the search bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:      # adjacent doubles: their spacing is above tol
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def quadratic_form_audit(A, P1: Projection, lambda0: float, lambda1: float,
                         space: HilbertSpace | None = None) -> float:
    """Worst violation of the inequality over random probe vectors."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if space is None:
        space = euclidean_space(d)
    gen = np.random.Generator(np.random.Philox(AUDIT_SEED))
    X = gen.standard_normal((AUDIT_PROBES, d))
    AX = X @ A.T
    lhs = space.inner_rows(AX, X)
    rhs = -lambda0 * space.norm2_rows(X) + (lambda0 + lambda1) * space.norm2_rows(P1.apply(X))
    return float(np.max(lhs - rhs))


def make_certificate(A, P1: Projection, lambda1: float, L_F: float = 0.0,
                     L_sigma: float = 0.0, tol: float = 1e-9,
                     space: HilbertSpace | None = None,
                     lambda0: float | None = None) -> GdcCertificate:
    """Certify ``lambda0`` and assemble the derived contraction constants.

    ``lambda0`` may be supplied directly when it is known analytically (the
    grid-shift semigroup); otherwise it is found by bisection. A matrix
    generator ``A`` is audited on random probes; ``A = None`` is not.
    """
    lip = LipschitzConstants(L_F=L_F, L_sigma=L_sigma)
    if lambda0 is None:
        lambda0 = certify_lambda0(A, P1, lambda1, tol=tol, space=space)
        if lambda0 is None:
            raise CertificationFailed(
                f"no lambda0 >= {tol} satisfies the dissipativity inequality")
    root_lf = math.sqrt(lip.L_F)
    if lambda0 <= root_lf:
        raise CertificationFailed(
            f"lambda0 = {lambda0:.6g} does not exceed sqrt(L_F) = {root_lf:.6g}; "
            "the contraction constant would not be positive")
    alpha = lambda0 - root_lf
    beta_const = lambda1 + root_lf
    epsilon = 2.0 * alpha - lip.L_sigma
    worst = 0.0
    if A is not None:
        worst = quadratic_form_audit(A, P1, lambda0, lambda1, space=space)
        if worst > AUDIT_SLACK:
            raise CertificationFailed(
                f"quadratic-form audit failed: worst violation {worst:.3e} > {AUDIT_SLACK:.0e}")
    return GdcCertificate(lambda0=float(lambda0), lambda1=float(lambda1),
                          alpha=float(alpha), beta_const=float(beta_const),
                          epsilon=float(epsilon), lipschitz=lip,
                          contractive=epsilon > 0.0, audit_max_violation=worst)


@dataclass(frozen=True)
class ConvergenceFit:
    prefactor: float      # fitted M with residual ~ M e^{-rate t}
    rate: float           # +inf when the residuals vanish identically
    residual: float       # rms misfit of the log-linear regression
    n_points: int


def fit_convergence(op: OperatorModel, P: Projection, t_grid, probes) -> ConvergenceFit:
    """Fit ``sup_x ||S(t)x - Px|| / ||x||`` to an exponential decay.

    Residuals at or below ``ROUNDOFF_FLOOR * max(1, t ||A||)`` are round-off
    of the semigroup, not decay, and are left out. When fewer than 4 points
    remain, the fit moves to a grid of the same size on ``(0, t]``, with ``t``
    the first time at the floor, until 4 remain or ``REFINE_ROUNDS`` grids
    are spent.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 4 or np.any(np.diff(t_grid) <= 0):
        raise ContractViolation("t_grid must be increasing with at least 4 points")
    probes = [np.asarray(p, dtype=float) for p in probes]
    space = op.space
    norms = [space.norm(p) for p in probes]
    if any(n == 0.0 for n in norms):
        raise ContractViolation("probe vectors must be nonzero")

    a_norm = 0.0 if op.generator is None else float(np.linalg.norm(op.generator, 2))

    def residuals(ts):
        r = np.array([max(space.norm(op.apply_semigroup(t, p) - P.apply(p)) / n
                          for p, n in zip(probes, norms)) for t in ts])
        return r, r > ROUNDOFF_FLOOR * np.maximum(1.0, ts * a_norm)

    t_fit = t_grid
    resid, keep = residuals(t_fit)
    for _ in range(REFINE_ROUNDS):
        if keep.sum() >= 4:
            break
        t_fit = np.linspace(0.0, t_fit[np.argmin(keep)], len(t_grid) + 1)[1:]
        resid, keep = residuals(t_fit)
    if np.all(resid < 1e-14):
        return ConvergenceFit(prefactor=0.0, rate=math.inf, residual=0.0,
                              n_points=len(t_grid))
    return fit_exponential(t_fit[keep], resid[keep])


# The decay-rate policy of the experiments: a fitted rate passes at
# RATE_BUDGET times the theoretical one; a vanishing-coefficient decay series
# is fitted from FIT_BURN on, over its values above
# max(start, DECAY_FIT_FLOOR) * 1e-12.
RATE_BUDGET = 0.85
DECAY_FIT_FLOOR = 1e-300
FIT_BURN = 0.5


def fit_exponential(times, values) -> ConvergenceFit:
    """Least-squares fit of ``log values`` against ``times`` over the
    positive values, ``values ~ prefactor e^{-rate t}``; needs 4 of them."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if keep.sum() < 4:
        raise ContractViolation("not enough positive values to fit an exponential")
    t, y = times[keep], np.log(values[keep])
    slope, intercept = np.polyfit(t, y, 1)
    rms = float(np.sqrt(np.mean((slope * t + intercept - y) ** 2)))
    return ConvergenceFit(prefactor=float(np.exp(intercept)), rate=float(-slope),
                          residual=rms, n_points=int(keep.sum()))
