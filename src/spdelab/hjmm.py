"""Forward-curve dynamics on the weighted grid space: the arbitrage-free
drift built from the volatility factors, the explicit Lipschitz bound for
that drift, the worked single-factor volatility, and the decay-to-long-rate
experiment.

Grid conventions: curves live on a uniform grid over [0, x_max]; the long
rate is the terminal grid value; curve-valued coefficients are clamped to
zero at the terminal node so the long rate is conserved exactly in floating
point (their analytic values there are below double resolution anyway).

Buffers: ``example_volatility_rows``, ``cumtrapz_rows`` and
``hjmm_drift_rows`` accept ``out=`` (and the volatility a ``work=`` scratch
array) and then compute in place; without them each returns a fresh array
the caller owns. The engine's step reuses one workspace per thread for the
whole run: one array per volatility factor (the factor value, then its noise
term) and one array that is the volatility's scratch, then the drift, then
the Euler update. The grid shift writes the next state back into the state
array, so a step allocates no curve-sized array.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .engine import (Scenario, ScenarioFlags, mean_stderr, obs_coordinate, obs_norm2,
                     simulate_ensemble, snapshot_grid)
from .errors import ContractViolation, HypothesisViolated
from .gdc import fit_exponential, make_certificate
from .hilbert import HBETA_GRID, HilbertSpace, hbeta_grid_space, long_rate_projection, shift_operator
from .noise import JumpSpec, MarkSampler, diagonal_qwiener
from .wasserstein import w2_1d

GRID_POINTS = 2048
EXP_GUARD = 700.0


def forward_space(beta: float, x_max: float | None = None, n: int = GRID_POINTS) -> HilbertSpace:
    """Default working grid; the weight e^{beta x} concentrates the norm near
    the origin, so x_max scales like 20/beta (floored at 20)."""
    if x_max is None:
        x_max = 20.0 / beta * max(1.0, beta)
    return hbeta_grid_space(beta, x_max, n)


@dataclass(frozen=True, eq=False)
class ForwardCurve:
    space: HilbertSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if self.space.kind != HBETA_GRID or v.shape != (self.space.dim,):
            raise ContractViolation("a forward curve needs values on its grid space")
        object.__setattr__(self, "values", v)

    @property
    def long_rate(self) -> float:
        return float(self.values[-1])

    def detrended(self) -> np.ndarray:
        """The zero-long-rate part of the curve."""
        return self.values - self.values[-1]

    def norm(self) -> float:
        return self.space.norm(self.values)


@dataclass(frozen=True, eq=False)
class FiniteMarkMeasure:
    """Finite measure mu = rate * law(marks) driving the jump part."""
    rate: float
    marks: MarkSampler | None = None

    def quadrature(self):
        if self.rate == 0 or self.marks is None:
            return None
        w, nodes = self.marks.quadrature()
        return self.rate, w, nodes


def cumtrapz_rows(F: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise cumulative trapezoid integral starting at zero; ``out`` (not
    overlapping ``F``) receives it when given."""
    if out is None:
        out = np.empty_like(F)
    # the scaling passes run over whole rows (contiguous, several times
    # faster than the column slice), which keep column 0 at zero
    out[:, 0] = 0.0
    np.add(F[:, 1:], F[:, :-1], out=out[:, 1:])
    np.multiply(out, 0.5, out=out)
    np.multiply(out, dx, out=out)
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def lf_bound(L_sigma: float, L_gamma: float, M: float, beta: float,
             beta_prime: float) -> float:
    """Explicit drift Lipschitz constant implied by the volatility bounds:

    L_F = (max(L_sigma, L_gamma) sqrt(M) / beta) *
          ( sqrt(6 M sqrt(2)) + sqrt(8/beta^3 + 16/beta)
            + sqrt((16 (1 + 1/sqrt(beta))^2 + 48) / (beta' - beta)) ).

    ``beta_prime = inf`` drops the last term.
    """
    if beta <= 0 or beta_prime <= beta:
        raise ContractViolation("need beta' > beta > 0")
    if min(L_sigma, L_gamma) < 0 or M < 0:
        raise ContractViolation("constants must be nonnegative")
    pre = max(L_sigma, L_gamma) * math.sqrt(M) / beta
    term1 = math.sqrt(6.0 * M * math.sqrt(2.0))
    term2 = math.sqrt(8.0 / beta**3 + 16.0 / beta)
    term3 = 0.0 if math.isinf(beta_prime) else \
        math.sqrt((16.0 * (1.0 + 1.0 / math.sqrt(beta))**2 + 48.0) / (beta_prime - beta))
    return pre * (term1 + term2 + term3)


def contraction_margin(beta: float, L_F: float, L_sigma: float, L_gamma: float) -> float:
    return beta - 2.0 * math.sqrt(L_F) - L_sigma - L_gamma


def example_volatility_rows(space: HilbertSpace, X: np.ndarray, out: np.ndarray | None = None,
                            work: np.ndarray | None = None) -> np.ndarray:
    """Single-factor volatility sigma(h)(x) = int_x^inf min(e^{-beta y}, |h'(y)|) dy.

    The derivative magnitude is taken by forward differences (terminal value
    copied), the tail integral by reverse cumulative trapezoid, and the piece
    beyond the grid in closed form with |h'| continued at its terminal value.
    The terminal node is clamped to zero (exact zero-long-rate range).
    ``out`` receives the result and ``work`` is scratch; both have X's shape
    and must not overlap X or each other.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta, g, dx = space.beta, space.grid, space.dx
    if out is None:
        out = np.empty_like(X)
    if work is None:
        work = np.empty_like(X)
    # elementwise passes run over whole rows where the spare column is
    # harmless: contiguous passes are several times faster than column slices
    np.subtract(X[:, 1:], X[:, :-1], out=work[:, :-1])
    work[:, -1] = work[:, -2]
    np.abs(work, out=work)
    np.divide(work, dx, out=work)
    c = work[:, -1].copy()
    f = np.minimum(np.exp(-beta * g), work, out=work)
    np.add(f[:, :-1], f[:, 1:], out=out[:, :-1])
    out[:, -1] = 0.0
    np.multiply(out, 0.5, out=out)
    np.multiply(out, dx, out=out)
    rev = out[:, -2::-1]
    np.cumsum(rev, axis=1, out=rev)
    edge = math.exp(-beta * g[-1])
    ystar = -np.log(np.maximum(c, 1e-300)) / beta
    tail = np.where(c >= edge, edge / beta,
                    np.where(c > 0, c * (ystar - g[-1]) + c / beta, 0.0))
    out += tail[:, None]
    out[:, -1] = 0.0
    return out


def example_volatility(space: HilbertSpace, h) -> np.ndarray:
    return example_volatility_rows(space, np.asarray(h, dtype=float)[None, :])[0]


@dataclass(eq=False)
class HjmmVolatility:
    """Volatility factors with their declared bounds.

    ``sigma_factors`` are rowwise maps curve -> curve valued in the
    zero-long-rate subspace; ``gamma(X, marks)`` likewise (or None). A factor
    that also takes keyword arrays ``out`` and ``work`` (X's shape) writes
    its value into ``out`` with ``work`` as scratch, which lets the engine
    step without allocating; a plain ``f(X)`` factor is copied into ``out``.
    ``M`` bounds the squared factor norm sum; ``phi(marks)`` dominates the
    jump exponent.
    """

    sigma_factors: tuple
    gamma: "callable | None" = None
    phi: "callable | None" = None
    M: float = 0.0
    L_sigma: float = 0.0
    L_gamma: float = 0.0
    beta_prime: float = math.inf
    vanishing_at_constants: bool = False

    @property
    def n_factors(self) -> int:
        return len(self.sigma_factors)


def hjmm_example_volatility(space: HilbertSpace,
                            beta_prime: float = math.inf) -> HjmmVolatility:
    """The worked single-factor model: M = 1/beta, L_sigma = 1, no jumps."""
    def factor(X, out=None, work=None, _sp=space):
        return example_volatility_rows(_sp, X, out=out, work=work)

    return HjmmVolatility(sigma_factors=(factor,), M=1.0 / space.beta, L_sigma=1.0,
                          L_gamma=0.0, beta_prime=beta_prime,
                          vanishing_at_constants=True)


def hjmm_drift_rows(vol: HjmmVolatility, mu: FiniteMarkMeasure | None,
                    space: HilbertSpace, X: np.ndarray,
                    factors: list | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Arbitrage-free drift

        F(h) = sum_j sigma_j(h) Sigma_j(h) - int gamma(h,nu)(e^{Gamma(h,nu)}-1) mu(dnu)

    with Sigma_j the running integral of sigma_j and Gamma the negative
    running integral of gamma. ``out`` (X's shape, not overlapping X or the
    factor values) receives the drift when given.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dx = space.dx
    if factors is None:
        factors = [f(X) for f in vol.sigma_factors]
    if out is None:
        out = np.empty_like(X)
    if factors:
        s = factors[0]
        np.multiply(s, cumtrapz_rows(s, dx, out=out), out=out)
        out += 0.0      # a sum started at zero turns a -0.0 product into +0.0
        for s in factors[1:]:
            out += s * cumtrapz_rows(s, dx)
    else:
        out.fill(0.0)
    quad = mu.quadrature() if mu is not None else None
    if quad is not None and vol.gamma is not None:
        rate, w, nodes = quad
        for wq, nq in zip(w, nodes):
            gq = vol.gamma(X, np.tile(nq, (X.shape[0], 1)))
            expo = -cumtrapz_rows(gq, dx)
            bound = np.abs(expo).max()
            if vol.phi is not None:
                cap = float(np.max(vol.phi(nq[None, :])))
                if bound > cap + 1e-12:
                    raise HypothesisViolated("bounded-jump-exponent",
                                             f"|Gamma| = {bound:.3g} exceeds phi = {cap:.3g}")
            if bound > EXP_GUARD or not np.isfinite(bound):
                raise HypothesisViolated("bounded-jump-exponent",
                                         f"jump exponent magnitude {bound:.3g} overflows")
            out -= rate * wq * gq * np.expm1(expo)
    return out


def hjmm_drift(vol: HjmmVolatility, mu: FiniteMarkMeasure | None,
               space: HilbertSpace, h) -> tuple[np.ndarray, float]:
    """Drift of one curve plus its long-rate residual |F(h)(x_max)|."""
    rows = hjmm_drift_rows(vol, mu, space, np.asarray(h, dtype=float)[None, :])
    return rows[0], float(abs(rows[0][-1]))


def _buffered_factor(f):
    """The factor as ``(X, out, work) -> out``, whatever its own signature."""
    try:
        params = inspect.signature(f).parameters
    except (TypeError, ValueError):
        params = {}
    takes_buffers = "out" in params and "work" in params

    def factor(X, out, work):
        v = f(X, out=out, work=work) if takes_buffers else f(X)
        if v is not out:
            np.copyto(out, v)
        return out

    return factor


class HjmmModel:
    """Engine coefficients: evaluates the factors once per step and reuses
    them for both the drift and the diffusion contribution."""

    def __init__(self, space: HilbertSpace, vol: HjmmVolatility,
                 mu: FiniteMarkMeasure | None = None):
        self.space = space
        self.vol = vol
        self.mu = mu
        self._factors = [_buffered_factor(f) for f in vol.sigma_factors]

    def fused(self, X, xi, work):
        """Drift and noise rows of one step, both in arrays of ``work``."""
        n = len(self._factors)
        *vals, scratch = work.arrays(n + 1, X.shape)
        factors = [f(X, v, scratch) for f, v in zip(self._factors, vals)]
        drift = hjmm_drift_rows(self.vol, self.mu, self.space, X, factors=factors,
                                out=scratch)
        if xi is None:
            return drift, 0.0
        noise = np.multiply(factors[0], xi[:, :1], out=factors[0])
        for j in range(1, n):
            noise += np.multiply(factors[j], xi[:, j:j + 1], out=factors[j])
        return drift, noise

    def drift_rows(self, X):
        return hjmm_drift_rows(self.vol, self.mu, self.space, X)

    def columns(self, x):
        X = np.asarray(x, dtype=float)[None, :]
        return np.column_stack([f(X)[0] for f in self.vol.sigma_factors])


def audit_volatility(vol: HjmmVolatility, space: HilbertSpace, probes,
                     slack: float = 1.01) -> dict:
    """Check the declared factor-norm bound and the zero-long-rate range on
    probe curves."""
    report = {"norm2_max": 0.0, "terminal_max": 0.0}
    for h in probes:
        X = np.asarray(h, dtype=float)[None, :]
        total = 0.0
        for f in vol.sigma_factors:
            v = f(X)
            total += float(space.norm2_rows(v)[0])
            report["terminal_max"] = max(report["terminal_max"], abs(float(v[0, -1])))
        report["norm2_max"] = max(report["norm2_max"], total)
    if report["norm2_max"] > vol.M * slack + 1e-12:
        raise HypothesisViolated("volatility-norm-bound",
                                 f"sum ||sigma_j(h)||^2 = {report['norm2_max']:.4g} "
                                 f"exceeds M = {vol.M:.4g}")
    if report["terminal_max"] > 1e-12:
        raise HypothesisViolated("volatility-zero-long-rate",
                                 f"factor terminal value {report['terminal_max']:.3g}")
    return report


def hjmm_scenario(space: HilbertSpace, vol: HjmmVolatility,
                  mu: FiniteMarkMeasure | None = None,
                  jumps: JumpSpec | None = None,
                  scenario_id: str = "hjmm") -> tuple[Scenario, float]:
    """Wire the forward-curve dynamics into the engine; returns the scenario
    and the computed drift Lipschitz constant."""
    L_F = lf_bound(vol.L_sigma, vol.L_gamma, vol.M, space.beta, vol.beta_prime)
    model = HjmmModel(space, vol, mu)
    cert = make_certificate(None, long_rate_projection(space), lambda1=0.0,
                            L_F=L_F, L_sigma=vol.L_sigma, L_gamma=vol.L_gamma,
                            lambda0=space.beta / 2.0, audit=False)
    n = vol.n_factors
    qw = diagonal_qwiener(np.ones(n), embedding=np.zeros((space.dim, n))) if n else None
    sc = Scenario(op=shift_operator(space), P1=long_rate_projection(space),
                  qwiener=qw, drift=model.drift_rows, sigma=model, jumps=jumps,
                  certificate=cert, fused=model.fused,
                  flags=ScenarioFlags(vanishing_on_H1=vol.vanishing_at_constants,
                                      deterministic_P1=True),
                  scenario_id=scenario_id)
    return sc, L_F


@dataclass(eq=False)
class HjmmReport:
    times: np.ndarray
    decay_mean: np.ndarray
    decay_se: np.ndarray
    bound: np.ndarray
    fitted_rate: float
    fit_residual: float
    theoretical_rate: float
    l_f: float
    margin: float
    long_rate_max_dev: float
    mode: str
    w2_pairs: np.ndarray | None
    verdicts: list


def hjmm_ergodicity_experiment(space: HilbertSpace, vol: HjmmVolatility, h0,
                               horizon: float, n_traj: int, seed: int,
                               dt: float | None = None,
                               mu: FiniteMarkMeasure | None = None,
                               jumps: JumpSpec | None = None,
                               snapshot_spacing: float = 0.25,
                               fit_burn: float = 0.5,
                               rate_budget: float = 0.85,
                               threads: int = 1) -> HjmmReport:
    """Simulate the curve dynamics and check the decay of
    E ||X_t - h0(inf)||^2 against the certified contraction margin.

    With volatilities vanishing at constants the decay series itself is
    checked; otherwise snapshot-to-snapshot Wasserstein distances of the
    short-rate observable are fitted against half the margin.
    """
    L_F = lf_bound(vol.L_sigma, vol.L_gamma, vol.M, space.beta, vol.beta_prime)
    margin = contraction_margin(space.beta, L_F, vol.L_sigma, vol.L_gamma)
    if margin <= 0:
        raise HypothesisViolated("contraction-margin",
                                 f"beta - 2 sqrt(L_F) - L_sigma - L_gamma = {margin:.4g} <= 0")
    sc, _ = hjmm_scenario(space, vol, mu=mu, jumps=jumps)
    h0 = np.asarray(h0, dtype=float)
    if dt is None:
        dt = space.dx
    n_steps = int(round(horizon / dt))
    snap_times = snapshot_grid(horizon, dt, snapshot_spacing)
    target = np.full(space.dim, h0[-1])
    obs = {"dist2": obs_norm2(space, center=target), "long_rate": obs_coordinate(space.dim - 1),
           "short_rate": obs_coordinate(0)}
    ens = simulate_ensemble(sc, h0, dt, n_steps, n_traj, seed, snap_times,
                            observables=obs, threads=threads)
    mean, se = mean_stderr(ens.observables["dist2"])
    bound = mean[0] * np.exp(-margin * snap_times)
    lr_dev = float(np.abs(ens.observables["long_rate"] - h0[-1]).max())
    verdicts = []
    if vol.vanishing_at_constants:
        mode, w2_pairs, theoretical = "vanishing", None, margin
        keep = (snap_times >= fit_burn) & (mean > max(mean[0], 1e-300) * 1e-12)
        fit = fit_exponential(snap_times[keep], mean[keep])
        fitted, resid = fit.rate, fit.residual
        ok_bound = bool(np.all(mean <= bound + 3.0 * se + 1e-12 * mean[0]))
        verdicts.append(("decay-bound", "pass" if ok_bound else "fail",
                         "second-moment decay within the certified envelope"))
        ok_rate = fitted >= rate_budget * theoretical
        rate_detail = f"fitted {fitted:.4g} vs budgeted {rate_budget:.2f} x {theoretical:.4g}"
    else:
        mode, theoretical = "w2", margin / 2.0
        sr = ens.observables["short_rate"]
        w2_pairs = np.array([w2_1d(sr[i], sr[i + 1]) for i in range(len(snap_times) - 1)])
        # two disjoint halves of one marginal estimate the sampling floor of
        # the snapshot-to-snapshot distance
        half = n_traj // 2
        floor = w2_1d(sr[-1][:half], sr[-1][half:2 * half]) if half >= 8 else 0.0
        keep = (snap_times[:-1] >= fit_burn) & (w2_pairs > max(2.0 * floor, 1e-14))
        if keep.sum() >= 4:
            fit = fit_exponential(snap_times[:-1][keep], w2_pairs[keep])
            fitted, resid = fit.rate, fit.residual
            ok_rate = fitted >= rate_budget * theoretical
            rate_detail = f"fitted {fitted:.4g} vs budgeted {rate_budget:.2f} x {theoretical:.4g}"
        else:
            fitted, resid = math.nan, math.nan
            ok_rate = bool(w2_pairs[-1] <= 2.0 * floor + 1e-12)
            rate_detail = (f"snapshot W2 reached the sampling floor {floor:.3g} "
                           f"before a rate could be fitted")
    verdicts.append(("decay-rate", "pass" if ok_rate else "fail", rate_detail))
    verdicts.append(("long-rate-conserved", "pass" if lr_dev == 0.0 else "fail",
                     f"max |P1 X_t - h0(inf)| = {lr_dev:.3g}"))
    return HjmmReport(times=snap_times, decay_mean=mean, decay_se=se, bound=bound,
                      fitted_rate=fitted, fit_residual=resid, theoretical_rate=theoretical,
                      l_f=L_F, margin=margin, long_rate_max_dev=lr_dev, mode=mode,
                      w2_pairs=w2_pairs, verdicts=verdicts)
