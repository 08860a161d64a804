"""Wasserstein-2 distances between equal-weight empirical laws, the
quantile-matching W2 from a 1-D sample to a Gaussian, and two-sample test
statistics used to accept convergence claims."""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .errors import BudgetExceeded, ContractViolation

ASSIGNMENT_BUDGET = 512


@dataclass(frozen=True, eq=False)
class EmpiricalLaw:
    """Uniformly weighted samples, one per row (1-D input is promoted)."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] == 0:
            raise ContractViolation("an empirical law needs at least one sample vector")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _as_law(a) -> EmpiricalLaw:
    return a if isinstance(a, EmpiricalLaw) else EmpiricalLaw(a)


def w2_1d(a, b) -> float:
    """Exact W2 between two same-size one-dimensional empirical laws."""
    a, b = _as_law(a), _as_law(b)
    if a.dim != 1 or b.dim != 1:
        raise ContractViolation("the sort estimator needs one-dimensional samples")
    if a.n != b.n:
        raise ContractViolation("the sort estimator needs equal sample counts")
    xs = np.sort(a.samples[:, 0])
    ys = np.sort(b.samples[:, 0])
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def w2_assignment(a, b) -> float:
    """Exact W2 between equal-count empirical laws via optimal assignment."""
    a, b = _as_law(a), _as_law(b)
    if a.dim != b.dim:
        raise ContractViolation("sample dimensions differ")
    if a.n != b.n:
        raise ContractViolation("the assignment solver needs equal sample counts")
    if a.n > ASSIGNMENT_BUDGET:
        raise BudgetExceeded(
            f"assignment solver budget is {ASSIGNMENT_BUDGET} samples, got {a.n}; "
            "use the 1-D sort estimator on a declared observable or subsample")
    diff = a.samples[:, None, :] - b.samples[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_1d_to_gaussian(samples, mean: float, std: float) -> float:
    """W2 between a 1-D empirical law and a Gaussian, by quantile matching
    at the midpoints (i - 1/2)/N."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(s)
    if n == 0:
        raise ContractViolation("empty sample")
    from scipy.special import ndtri
    q = mean + std * ndtri((np.arange(n) + 0.5) / n)
    return float(np.sqrt(np.mean((s - q) ** 2)))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if len(a) == 0 or len(b) == 0:
        raise ContractViolation("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS threshold c(alpha) sqrt((n+m)/(nm))."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))
