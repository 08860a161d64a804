"""Forward-curve dynamics on the weighted grid space: the arbitrage-free
drift ``sum_j sigma_j Sigma_j`` built from the volatility factors, the
explicit Lipschitz bound for that drift, the worked single-factor
volatility, and the decay-to-long-rate experiment.

Grid conventions: curves live on a uniform grid over [0, x_max]; the long
rate is the terminal grid value; curve-valued coefficients are clamped to
zero at the terminal node so the long rate is conserved exactly in floating
point (their analytic values there are below double resolution anyway).

Buffers: ``example_volatility_rows``, ``cumtrapz_rows`` and
``hjmm_drift_rows`` accept ``out=`` (and the volatility a ``work=`` scratch
array) and then compute in place; without them each returns a fresh array
the caller owns. The two kernels run their shifted-pair passes (the
volatility's difference and pair sum, the integral's pair sum) as one 1-D
pass over the flattened block and then overwrite the one column per row that
took a cross-row value. They need X's shape of ``out`` and ``work``, and no
overlap with X; any layout works, but only a C-contiguous buffer is written
in place (another is filled from a C scratch array at the end). Each scales
its pair sums in one multiplication by ``0.5 * dx``, bit-equal to halving and
scaling except at pair sums below 2^-1021 (see the kernel docstrings).
``HjmmModel.fused`` is the engine's coefficient hook for
forward curves; it takes from the engine's per-thread workspace a first
array that is the volatility's scratch, then the drift, then the step's
Euler update, and one array per volatility factor (the factor value, then
its noise term). The step writes the grid shift back into the state
array, so it allocates no curve-sized array.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import lab
from .engine import (Scenario, mean_stderr, obs_coordinate, obs_norm2, simulate_ensemble,
                     snapshot_grid)
from .errors import ContractViolation, HypothesisViolated
from .gdc import make_certificate
from .hilbert import HilbertSpace, hbeta_grid_space, long_rate_projection, shift_operator
from .noise import QWienerSpec

GRID_POINTS = 2048
NORM_SLACK = 1.01           # relative slack of the audited factor-norm bound
SNAPSHOT_SPACING = 0.25     # time between the snapshots of the decay series


def forward_space(beta: float, x_max: float | None = None, n: int = GRID_POINTS) -> HilbertSpace:
    """Default working grid; the weight e^{beta x} concentrates the norm near
    the origin, so x_max scales like 20/beta (floored at 20)."""
    if x_max is None:
        x_max = 20.0 / beta * max(1.0, beta)
    return hbeta_grid_space(beta, x_max, n)


def _c_buffer(a, shape):
    """``a`` if it is C-contiguous, so that ``a.reshape(-1)`` is a view a
    flattened pass writes through; else (or for None) a fresh C array."""
    return a if a is not None and a.flags.c_contiguous else np.empty(shape)


def _into(out, buf):
    """``buf``'s values in the caller's ``out`` (if given and not ``buf``)."""
    if out is None:
        return buf
    if out is not buf:
        np.copyto(out, buf)
    return out


def cumtrapz_rows(F: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise cumulative trapezoid integral starting at zero; ``out`` (F's
    shape, any layout, not overlapping ``F``) receives it when given.

    The pair sum runs as one pass over the flattened block, which leaves a
    cross-row sum in column 0 of each row; that column is then set to zero.
    A non-C-contiguous ``out`` is filled from a C scratch array at the end.
    The scaling is one multiplication by ``0.5 * dx``: it equals halving and
    then scaling except where a pair sum is below 2^-1021, where halving
    rounds and the one product may differ by one subnormal ulp.
    """
    buf = _c_buffer(out, F.shape)
    f, b = F.reshape(-1), buf.reshape(-1)
    np.add(f[1:], f[:-1], out=b[1:])
    buf[:, 0] = 0.0
    np.multiply(buf, 0.5 * dx, out=buf)
    np.cumsum(buf[:, 1:], axis=1, out=buf[:, 1:])
    return _into(out, buf)


def lf_bound(L_sigma: float, M: float, beta: float, beta_prime: float) -> float:
    """Explicit drift Lipschitz constant implied by the volatility bounds:

    L_F = (L_sigma sqrt(M) / beta) *
          ( sqrt(6 M sqrt(2)) + sqrt(8/beta^3 + 16/beta)
            + sqrt((16 (1 + 1/sqrt(beta))^2 + 48) / (beta' - beta)) ).

    ``beta_prime = inf`` drops the last term. From ``beta = 1e100`` on,
    8/beta^3 is below 2^-53 of 16/beta and leaves the sum unchanged, so it is
    dropped there, which keeps ``beta**3`` from overflowing.
    """
    if not (beta > 0 and beta_prime > beta):        # nan fails too
        raise ContractViolation("need beta' > beta > 0")
    if not (L_sigma >= 0 and M >= 0):
        raise ContractViolation("constants must be nonnegative")
    pre = L_sigma * math.sqrt(M) / beta
    term1 = math.sqrt(6.0 * M * math.sqrt(2.0))
    term2 = math.sqrt((8.0 / beta**3 if beta < 1e100 else 0.0) + 16.0 / beta)
    term3 = 0.0 if math.isinf(beta_prime) else \
        math.sqrt((16.0 * (1.0 + 1.0 / math.sqrt(beta))**2 + 48.0) / (beta_prime - beta))
    return pre * (term1 + term2 + term3)


def example_volatility_rows(space: HilbertSpace, X: np.ndarray, out: np.ndarray | None = None,
                            work: np.ndarray | None = None,
                            decay: np.ndarray | None = None) -> np.ndarray:
    """Single-factor volatility sigma(h)(x) = int_x^inf min(e^{-beta y}, |h'(y)|) dy.

    The derivative magnitude is taken by forward differences (terminal value
    copied), the tail integral by reverse cumulative trapezoid, and the piece
    beyond the grid in closed form with |h'| continued at its terminal value.
    The terminal node is clamped to zero (exact zero-long-rate range).
    ``out`` receives the result and ``work`` is scratch; both have X's shape,
    may have any layout and must not overlap X or each other. ``decay`` is
    the row e^{-beta x} on the grid, computed here when not given.

    The difference and the pair sum each run as one pass over the flattened
    block, which puts a cross-row value in each row's last column; the code
    overwrites that column afterwards (numpy may warn if that discarded value
    overflows). A non-C-contiguous ``out`` or ``work`` is replaced by a C
    scratch array, and ``out`` is filled from it at the end. The scaling is
    one multiplication by ``0.5 * dx``: it equals halving and then scaling
    except where a pair sum is below 2^-1021 (|h'| that small; e^{-beta x}
    stays above it where beta x_max <= 700, as every grid needs), where
    halving rounds and the one product may differ by one subnormal ulp.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta, g, dx = space.beta, space.grid, space.dx
    if decay is None:
        decay = np.exp(-beta * g)
    res, w = _c_buffer(out, X.shape), _c_buffer(work, X.shape)
    x, wf = X.reshape(-1), w.reshape(-1)
    np.subtract(x[1:], x[:-1], out=wf[:-1])
    w[:, -1] = w[:, -2]
    np.abs(w, out=w)
    np.divide(w, dx, out=w)
    c = w[:, -1].copy()
    np.minimum(decay, w, out=w)
    np.add(wf[:-1], wf[1:], out=res.reshape(-1)[:-1])
    res[:, -1] = 0.0
    np.multiply(res, 0.5 * dx, out=res)
    rev = res[:, -2::-1]
    np.cumsum(rev, axis=1, out=rev)
    edge = math.exp(-beta * g[-1])
    ystar = -np.log(np.maximum(c, 1e-300)) / beta
    tail = np.where(c >= edge, edge / beta,
                    np.where(c > 0, c * (ystar - g[-1]) + c / beta, 0.0))
    res += tail[:, None]
    res[:, -1] = 0.0
    return _into(out, res)


@dataclass(eq=False)
class HjmmVolatility:
    """Volatility factors with their declared bounds.

    ``sigma_factors`` are rowwise maps curve -> curve valued in the
    zero-long-rate subspace. A factor that also takes keyword arrays ``out``
    and ``work`` (X's shape) writes its value into ``out`` with ``work`` as
    scratch, which lets the engine step without allocating; a plain ``f(X)``
    factor is copied into ``out``. ``M`` bounds the squared factor norm sum.
    """

    sigma_factors: tuple
    M: float = 0.0
    L_sigma: float = 0.0
    beta_prime: float = math.inf

    @property
    def n_factors(self) -> int:
        return len(self.sigma_factors)


def hjmm_example_volatility(space: HilbertSpace,
                            beta_prime: float = math.inf) -> HjmmVolatility:
    """The worked single-factor model: M = 1/beta, L_sigma = 1, no jumps."""
    decay = np.exp(-space.beta * space.grid)

    def factor(X, out=None, work=None):
        return example_volatility_rows(space, X, out=out, work=work, decay=decay)

    return HjmmVolatility(sigma_factors=(factor,), M=1.0 / space.beta, L_sigma=1.0,
                          beta_prime=beta_prime)


def hjmm_drift_rows(vol: HjmmVolatility, space: HilbertSpace, X: np.ndarray,
                    factors: list | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Arbitrage-free drift

        F(h) = sum_j sigma_j(h) Sigma_j(h)

    with Sigma_j the running integral of sigma_j. ``out`` (X's shape, not
    overlapping X or the factor values) receives the drift when given.
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
    return out


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
    """The scenario's diffusion for forward curves: ``fused`` evaluates the
    factors once per step for both the drift and the diffusion contribution."""

    def __init__(self, space: HilbertSpace, vol: HjmmVolatility):
        self.space = space
        self.vol = vol
        self._factors = [_buffered_factor(f) for f in vol.sigma_factors]

    def fused(self, X, xi, work):
        """Drift and noise rows of one step, both in arrays of ``work``."""
        n = len(self._factors)
        scratch, *vals = work.arrays(n + 1, X.shape)
        factors = [f(X, v, scratch) for f, v in zip(self._factors, vals)]
        drift = hjmm_drift_rows(self.vol, self.space, X, factors=factors, out=scratch)
        if xi is None:
            return drift, 0.0
        noise = np.multiply(factors[0], xi[:, :1], out=factors[0])
        for j in range(1, n):
            noise += np.multiply(factors[j], xi[:, j:j + 1], out=factors[j])
        return drift, noise

    def drift_rows(self, X):
        return hjmm_drift_rows(self.vol, self.space, X)

    def columns(self, x):
        X = np.asarray(x, dtype=float)[None, :]
        return np.column_stack([f(X)[0] for f in self.vol.sigma_factors])


def audit_volatility(vol: HjmmVolatility, space: HilbertSpace, probes) -> dict:
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
    if report["norm2_max"] > vol.M * NORM_SLACK + 1e-12:
        raise HypothesisViolated("volatility-norm-bound",
                                 f"sum ||sigma_j(h)||^2 = {report['norm2_max']:.4g} "
                                 f"exceeds M = {vol.M:.4g}")
    if report["terminal_max"] > 1e-12:
        raise HypothesisViolated("volatility-zero-long-rate",
                                 f"factor terminal value {report['terminal_max']:.3g}")
    return report


def hjmm_scenario(space: HilbertSpace, vol: HjmmVolatility,
                  scenario_id: str = "hjmm") -> Scenario:
    """Wire the forward-curve dynamics into the engine, certified with the
    drift Lipschitz constant the volatility bounds imply (no jump part)."""
    L_F = lf_bound(vol.L_sigma, vol.M, space.beta, vol.beta_prime)
    model = HjmmModel(space, vol)
    p1 = long_rate_projection(space)
    cert = make_certificate(None, p1, lambda1=0.0, L_F=L_F, L_sigma=vol.L_sigma,
                            lambda0=space.beta / 2.0)
    n = vol.n_factors
    qw = QWienerSpec(np.ones(n)) if n else None
    return Scenario(op=shift_operator(space), P1=p1,
                    qwiener=qw, drift=model.drift_rows, sigma=model,
                    certificate=cert, scenario_id=scenario_id)


@dataclass(eq=False)
class HjmmReport:
    times: np.ndarray
    decay_mean: np.ndarray
    decay_se: np.ndarray
    bound: np.ndarray
    fitted_rate: float
    l_f: float
    margin: float
    long_rate_max_dev: float
    verdicts: list


def hjmm_ergodicity_experiment(space: HilbertSpace, vol: HjmmVolatility, h0,
                               horizon: float, n_traj: int, seed: int,
                               threads: int = 1) -> HjmmReport:
    """Simulate the curve dynamics in steps of one grid cell and check the
    decay of E ||X_t - h0(inf)||^2 under lab's ``vanishing_decay`` against the
    margin, ``hjmm_scenario``'s epsilon, and that the long rate stays put.

    Every coefficient must vanish at the constant curve at h0's long rate;
    a factor that does not raises ``coefficients-vanish-at-anchor`` before
    anything is simulated.
    """
    sc = hjmm_scenario(space, vol)
    margin = sc.contractive_certificate().epsilon
    h0 = np.asarray(h0, dtype=float)
    dt = space.dx
    snap_times = snapshot_grid(horizon, dt, SNAPSHOT_SPACING)
    target = np.full(space.dim, h0[-1])
    bad = lab.nonvanishing_coefficient(sc, target)
    if bad is not None:
        raise HypothesisViolated("coefficients-vanish-at-anchor", bad)
    lab.require_decay_fit(space.norm2(h0 - target), snap_times, horizon, SNAPSHOT_SPACING)
    obs = {"dist2": obs_norm2(space, center=target), "long_rate": obs_coordinate(space.dim - 1)}
    ens = simulate_ensemble(sc, h0, dt, int(round(horizon / dt)), n_traj, seed, snap_times,
                            observables=obs, threads=threads)
    mean, se = mean_stderr(ens.observables["dist2"])
    lr_dev = float(np.abs(ens.observables["long_rate"] - h0[-1]).max())
    bound, fit, checks = lab.vanishing_decay(snap_times, mean, se, margin, horizon,
                                            SNAPSHOT_SPACING)
    verdicts = [(v.invariant, v.status, v.detail) for v in checks]
    verdicts.append(("long-rate-conserved", "pass" if lr_dev == 0.0 else "fail",
                     f"max |P1 X_t - h0(inf)| = {lr_dev:.3g}"))
    return HjmmReport(times=snap_times, decay_mean=mean, decay_se=se, bound=bound,
                      fitted_rate=math.nan if fit is None else fit.rate,
                      l_f=sc.certificate.lipschitz.L_F, margin=margin,
                      long_rate_max_dev=lr_dev, verdicts=verdicts)
