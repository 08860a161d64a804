import math

import numpy as np
import pytest

from reference import sample_path, simulate_trajectory
from spdelab import engine as eng
from spdelab import hjmm
from spdelab.errors import CertificationFailed, ContractViolation, HypothesisViolated


def test_lf_bound_example_values():
    assert hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, math.inf) == pytest.approx(0.780, abs=1e-3)
    v = hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0)
    assert v < 1.0
    assert hjmm.lf_bound(0.0, 0.0, 1.0 / 3.0, 3.0, 10.0) == 0.0


def test_lf_bound_reproducible_to_last_bit():
    a = hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0)
    b = hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0)
    assert a == b


def test_lf_bound_monotone_in_beta_prime():
    vals = [hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, bp) for bp in (5.0, 50.0, 500.0)]
    assert vals[0] > vals[1] > vals[2]


def test_lf_bound_contracts():
    with pytest.raises(ContractViolation):
        hjmm.lf_bound(1.0, 0.0, 0.5, 3.0, 2.0)
    for args in [(1.0, 0.0, 0.5, math.nan, 5.0), (1.0, 0.0, 0.5, 3.0, math.nan),
                 (1.0, 0.0, math.nan, 3.0, 5.0)]:
        with pytest.raises(ContractViolation):
            hjmm.lf_bound(*args)


def _full_lf_bound(L_sigma, L_gamma, M, beta, beta_prime):
    """The closed form with every term kept; overflows in ``beta**3`` past
    beta ~ 5.6e102."""
    pre = max(L_sigma, L_gamma) * math.sqrt(M) / beta
    term3 = 0.0 if math.isinf(beta_prime) else \
        math.sqrt((16.0 * (1.0 + 1.0 / math.sqrt(beta))**2 + 48.0) / (beta_prime - beta))
    return pre * (math.sqrt(6.0 * M * math.sqrt(2.0)) + math.sqrt(8.0 / beta**3 + 16.0 / beta)
                  + term3)


@pytest.mark.parametrize("beta", [1e200, 1e308])
def test_lf_bound_finite_at_huge_beta(beta):
    assert math.isfinite(hjmm.lf_bound(1.0, 0.0, 1.0, beta, math.inf))
    assert math.isfinite(hjmm.lf_bound(1.0, 0.0, 1.0, beta, math.nextafter(beta, math.inf)))


def test_lf_bound_bit_identical_to_the_full_closed_form():
    vol = hjmm.hjmm_example_volatility(hjmm.forward_space(3.0, n=64), beta_prime=1000.0)
    cases = [(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0),                          # c09
             (vol.L_sigma, 0.0, vol.M, 3.0, vol.beta_prime)]              # c10
    edge = [1e100, math.nextafter(1e100, 0.0), math.nextafter(1e100, math.inf), 5e102]
    for beta in [*np.geomspace(1e-6, 5e102, 1500).tolist(), *edge]:
        for beta_prime in (math.inf, 2.0 * beta, beta + 1.0):
            if beta_prime > beta:
                cases.append((1.0, 0.5, 1.0 / 3.0, beta, beta_prime))
    for args in cases:
        assert hjmm.lf_bound(*args) == _full_lf_bound(*args), args


def test_example_volatility_vanishes_on_constants():
    sp = hjmm.forward_space(3.0, n=512)
    assert np.all(hjmm.example_volatility_rows(sp, np.full(sp.dim, 4.2)[None])[0] == 0.0)


def test_example_volatility_saturated_branch():
    sp = hjmm.forward_space(1.0, x_max=20.0, n=2001)
    h = -2.0 * sp.grid     # |h'| = 2 dominates e^{-y} everywhere
    got = hjmm.example_volatility_rows(sp, h[None])[0]
    want = np.exp(-sp.grid) / sp.beta
    assert np.abs(got[:-1] - want[:-1]).max() <= 1e-4


def test_example_volatility_norm_bound():
    sp = hjmm.forward_space(3.0)
    gen = np.random.Generator(np.random.Philox(5))
    worst = 0.0
    for _ in range(100):
        amps = gen.standard_normal(4) * 0.1
        decays = 2.0 + 3.0 * gen.random(4)
        h = 0.03 + sum(a * np.exp(-b * sp.grid) for a, b in zip(amps, decays))
        worst = max(worst, sp.norm2(hjmm.example_volatility_rows(sp, h[None])[0]))
    assert worst <= (1.0 / sp.beta) * 1.01


def test_drift_zero_volatility():
    sp = hjmm.forward_space(2.0, n=256)
    vol = hjmm.HjmmVolatility(sigma_factors=(), M=0.0)
    rows = hjmm.hjmm_drift_rows(vol, sp, np.zeros((3, sp.dim)))
    assert np.all(rows == 0.0)


def test_drift_closed_form_single_factor():
    sp = hjmm.forward_space(3.0)
    fac = np.exp(-sp.beta * sp.grid)
    vol = hjmm.HjmmVolatility(sigma_factors=(lambda X: np.broadcast_to(fac, X.shape),),
                              M=1.0)
    drift = hjmm.hjmm_drift_rows(vol, sp, np.zeros(sp.dim)[None])[0]
    resid = abs(drift[-1])
    want = np.exp(-3.0 * sp.grid) * (1.0 - np.exp(-3.0 * sp.grid)) / 3.0
    assert np.abs(drift - want).max() <= 1e-4
    assert resid <= 1e-4


def test_drift_vanishes_on_constant_curves_with_example_volatility():
    sp = hjmm.forward_space(3.0, n=512)
    vol = hjmm.hjmm_example_volatility(sp)
    drift = hjmm.hjmm_drift_rows(vol, sp, np.full(sp.dim, 0.07)[None])[0]
    resid = abs(drift[-1])
    assert np.all(drift == 0.0)
    assert resid == 0.0


def test_drift_lipschitz_audit_against_bound():
    sp = hjmm.forward_space(3.0)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    l_f = hjmm.lf_bound(vol.L_sigma, 0.0, vol.M, sp.beta, vol.beta_prime)
    gen = np.random.Generator(np.random.Philox(77))
    worst = 0.0
    for _ in range(200):
        amps = gen.standard_normal((2, 3)) * 0.1
        decays = 2.0 + 3.0 * gen.random((2, 3))
        h1 = 0.05 + sum(a * np.exp(-b * sp.grid) for a, b in zip(amps[0], decays[0]))
        h2 = 0.05 + sum(a * np.exp(-b * sp.grid) for a, b in zip(amps[1], decays[1]))
        f1 = hjmm.hjmm_drift_rows(vol, sp, h1[None, :])[0]
        f2 = hjmm.hjmm_drift_rows(vol, sp, h2[None, :])[0]
        gap = sp.norm(h1 - h2)
        if gap > 0:
            worst = max(worst, sp.norm(f1 - f2) / gap)
    assert worst <= math.sqrt(l_f) * 1.05


def test_the_lipschitz_audit_sees_the_example_volatility_on_a_grid():
    # smooth probe curves keep |h'| below e^(-beta x), where the factor is
    # linear in h: declared with a tenth of its L_sigma, the example fails
    sp = hjmm.forward_space(3.0)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    measured = hjmm.hjmm_scenario(sp, vol).lipschitz_audit()
    assert 0.1 < measured["L_sigma"] <= vol.L_sigma
    lying = hjmm.HjmmVolatility(sigma_factors=vol.sigma_factors, M=vol.M, L_sigma=0.1,
                                beta_prime=1000.0)
    with pytest.raises(HypothesisViolated) as exc:
        hjmm.hjmm_scenario(sp, lying).lipschitz_audit()
    assert exc.value.hypothesis == "lipschitz-sigma"


def test_audit_volatility_passes_and_fails():
    sp = hjmm.forward_space(3.0, n=512)
    vol = hjmm.hjmm_example_volatility(sp)
    probes = [0.05 + 0.03 * np.exp(-2.0 * sp.grid), np.full(sp.dim, 0.01)]
    rep = hjmm.audit_volatility(vol, sp, probes)
    assert rep["terminal_max"] == 0.0
    lying = hjmm.HjmmVolatility(sigma_factors=vol.sigma_factors, M=1e-6)
    with pytest.raises(HypothesisViolated):
        hjmm.audit_volatility(lying, sp, probes)


def test_constant_curve_is_stationary_point():
    sp = hjmm.forward_space(3.0, n=512)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    sc = hjmm.hjmm_scenario(sp, vol)
    c = np.full(sp.dim, 0.04)
    ens = eng.simulate_ensemble(sc, c, sp.dx, 200, 8, 12, [200 * sp.dx])
    assert np.array_equal(ens.states[-1], np.tile(c, (8, 1)))


def test_contraction_margin_hypothesis_guard():
    # at beta 1 the certificate's lambda0 = beta / 2 does not exceed sqrt(L_F)
    sp = hjmm.forward_space(1.0, n=256)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    with pytest.raises(CertificationFailed):
        hjmm.hjmm_ergodicity_experiment(sp, vol, np.full(sp.dim, 0.05), horizon=1.0,
                                        n_traj=4, seed=1)


def test_pure_transport_decays_at_least_at_beta():
    sp = hjmm.forward_space(3.0, n=1024)
    vol = hjmm.HjmmVolatility(sigma_factors=(), M=0.0)
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sp.grid)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, h0, horizon=3.0, n_traj=1,
                                          seed=3)
    # deterministic transport: E||X_t - h(inf)||^2 = ||S(t) P0 h0||^2, rate >= beta
    assert rep.fitted_rate >= sp.beta * 0.95
    assert rep.long_rate_max_dev == 0.0


def test_ergodicity_experiment_small_scale():
    sp = hjmm.forward_space(3.0, n=512)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sp.grid)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, h0, horizon=5.0, n_traj=256, seed=9)
    assert all(s == "pass" for _, s, _ in rep.verdicts)
    assert rep.fitted_rate >= 0.85 * rep.margin
    assert rep.long_rate_max_dev == 0.0


def _no_simulation(*args, **kwargs):
    raise AssertionError("the experiment simulated before checking its horizon")


@pytest.mark.parametrize("horizon", [0.3, 1.25])
def test_a_horizon_too_short_for_the_decay_fit_stops_before_simulating(monkeypatch, horizon):
    # at dt = dx ~ 0.317, horizon 1.25 leaves 3 snapshots at or after FIT_BURN = 0.5
    sp = hjmm.forward_space(3.0, n=64)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sp.grid)
    monkeypatch.setattr(hjmm, "simulate_ensemble", _no_simulation)
    with pytest.raises(ContractViolation, match=f"T = {horizon!r} with spacing 0.25"):
        hjmm.hjmm_ergodicity_experiment(sp, vol, h0, horizon=horizon, n_traj=4, seed=1)


def test_a_start_at_the_long_rate_passes_without_a_fit():
    sp = hjmm.forward_space(3.0, n=64)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, np.full(sp.dim, 0.05), horizon=2.0,
                                          n_traj=4, seed=1)
    assert np.all(rep.decay_mean == 0.0) and math.isnan(rep.fitted_rate)
    assert [(n, s) for n, s, _ in rep.verdicts] == [
        ("decay-bound", "pass"), ("decay-rate", "pass"), ("long-rate-conserved", "pass")]


def test_a_start_at_the_long_rate_that_moves_fails_the_rate():
    # a factor that does not vanish at constants runs the measured w2 mode,
    # never the no-fit pass of a start at the long rate: the curves spread
    # out from it, and their snapshot-to-snapshot W2 grows
    sp = hjmm.forward_space(3.0, n=64)
    bump = 0.01 * np.exp(-3.0 * sp.grid)
    bump[-1] = 0.0
    vol = hjmm.HjmmVolatility(sigma_factors=(lambda Y: np.broadcast_to(bump, Y.shape),),
                              M=1e-4, L_sigma=0.1, beta_prime=1000.0)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, np.full(sp.dim, 0.05), horizon=2.0,
                                          n_traj=4, seed=1)
    assert rep.mode == "w2"
    assert rep.decay_mean[0] == 0.0 and rep.decay_mean[-1] > 0.0
    assert ("decay-rate", "fail") in [(n, s) for n, s, _ in rep.verdicts]


def test_w2_mode_reports_rate():
    # volatility NOT vanishing at constants: constant shift of the example factor
    sp = hjmm.forward_space(3.0, n=512)
    base = np.exp(-3.0 * sp.grid)
    base[-1] = 0.0

    def factor(X):
        return hjmm.example_volatility_rows(sp, X) + 0.02 * base

    vol = hjmm.HjmmVolatility(sigma_factors=(factor,), M=1.2 / sp.beta, L_sigma=1.0,
                              beta_prime=1000.0)
    h0 = 0.05 + 0.02 * np.exp(-2.0 * sp.grid)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, h0, horizon=6.0, n_traj=512,
                                          seed=10)
    assert rep.mode == "w2"
    assert rep.theoretical_rate == rep.margin / 2.0
    assert rep.long_rate_max_dev == 0.0


# The kernels as first written (fresh arrays throughout); the buffered kernels
# must reproduce them bit for bit.

def _ref_cumtrapz_rows(F, dx):
    out = np.empty_like(F)
    out[:, 0] = 0.0
    np.cumsum(0.5 * (F[:, 1:] + F[:, :-1]) * dx, axis=1, out=out[:, 1:])
    return out


def _ref_example_volatility_rows(space, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta, g, dx = space.beta, space.grid, space.dx
    D = np.abs(np.diff(X, axis=1)) / dx
    Dn = np.concatenate([D, D[:, -1:]], axis=1)
    f = np.minimum(np.exp(-beta * g)[None, :], Dn)
    seg = 0.5 * (f[:, :-1] + f[:, 1:]) * dx
    rev = np.zeros_like(X)
    rev[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    c = Dn[:, -1]
    edge = math.exp(-beta * g[-1])
    ystar = -np.log(np.maximum(c, 1e-300)) / beta
    tail = np.where(c >= edge, edge / beta,
                    np.where(c > 0, c * (ystar - g[-1]) + c / beta, 0.0))
    out = rev + tail[:, None]
    out[:, -1] = 0.0
    return out


def _ref_sigma_drift_rows(factors, dx):
    out = np.zeros_like(factors[0])
    for s in factors:
        out += s * _ref_cumtrapz_rows(s, dx)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _kernel_curves(sp, n_random=13, seed=2026):
    """Random curves plus rows that reach each branch of the volatility tail:
    saturated (|h'| >= e^{-beta x} at the end), flat (c = 0) and the
    intermediate closed form."""
    gen = np.random.Generator(np.random.Philox(seed))
    g = sp.grid
    rows = [0.05 + gen.standard_normal() * 0.03 * np.exp(-gen.uniform(0.5, 4.0) * g)
            + 1e-4 * gen.standard_normal(sp.dim) for _ in range(n_random)]
    rows.append(-2.0 * g)                                    # saturated everywhere
    rows.append(np.full(sp.dim, 0.031))                      # flat: c = 0
    tail = 0.02 * np.exp(-2.0 * g)
    tail[-2] = 0.0
    tail[-1] = 0.5 * math.exp(-sp.beta * g[-1]) * sp.dx      # 0 < c < e^{-beta x_max}
    rows.append(tail)
    return np.array(rows)


@pytest.mark.parametrize("beta,n", [(3.0, 2048), (1.0, 257), (5.0, 64)])
def test_example_volatility_rows_bit_identical_to_reference(beta, n):
    sp = hjmm.forward_space(beta, n=n)
    X = _kernel_curves(sp)
    want = _ref_example_volatility_rows(sp, X)
    c = np.abs(X[:, -1] - X[:, -2]) / sp.dx
    edge = math.exp(-beta * sp.grid[-1])
    assert np.any(c >= edge) and np.any(c == 0.0) and np.any((c > 0) & (c < edge))
    assert _same_bits(hjmm.example_volatility_rows(sp, X), want)
    out, work = np.full_like(X, np.nan), np.full_like(X, np.nan)
    got = hjmm.example_volatility_rows(sp, X, out=out, work=work)
    assert got is out and _same_bits(got, want)
    assert np.all(got[:, -1] == 0.0)
    assert _same_bits(hjmm.example_volatility_rows(sp, X[3][None])[0], want[3])


def test_cumtrapz_rows_bit_identical_to_reference():
    gen = np.random.Generator(np.random.Philox(8))
    F = gen.standard_normal((9, 300)) * np.exp(-gen.random((9, 1)) * np.arange(300))
    want = _ref_cumtrapz_rows(F, 0.013)
    assert _same_bits(hjmm.cumtrapz_rows(F, 0.013), want)
    out = np.full_like(F, np.nan)
    assert hjmm.cumtrapz_rows(F, 0.013, out=out) is out and _same_bits(out, want)


def test_drift_rows_bit_identical_to_reference():
    sp = hjmm.forward_space(3.0, n=512)
    X = _kernel_curves(sp)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    s = _ref_example_volatility_rows(sp, X)
    want = _ref_sigma_drift_rows([s], sp.dx)
    assert _same_bits(hjmm.hjmm_drift_rows(vol, sp, X), want)
    out = np.full_like(X, np.nan)
    got = hjmm.hjmm_drift_rows(vol, sp, X, factors=[s], out=out)
    assert got is out and _same_bits(got, want)
    # two factors, one of them negative (its products at x = 0 are -0.0)
    bump = -np.exp(-2.0 * sp.grid)
    bump[-1] = 0.0
    two = hjmm.HjmmVolatility(sigma_factors=(vol.sigma_factors[0],
                                             lambda Y: np.broadcast_to(bump, Y.shape)))
    want2 = _ref_sigma_drift_rows([s, np.broadcast_to(bump, X.shape)], sp.dx)
    assert _same_bits(hjmm.hjmm_drift_rows(two, sp, X), want2)


@pytest.mark.parametrize("extra_factor", [False, True])
def test_engine_step_bit_identical_to_reference_step(extra_factor):
    sp = hjmm.forward_space(3.0, n=512)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    bump = 0.1 * np.exp(-3.0 * sp.grid) * np.sin(sp.grid)
    bump[-1] = 0.0
    if extra_factor:    # a plain f(X) factor rides next to the buffered one
        vol = hjmm.HjmmVolatility(
            sigma_factors=vol.sigma_factors + (lambda Y: np.broadcast_to(bump, Y.shape),),
            M=vol.M, L_sigma=1.0, beta_prime=1000.0)
    sc = hjmm.hjmm_scenario(sp, vol)
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sp.grid)
    n_steps = 40
    path = sample_path(sc.qwiener, None, sp.dx, n_steps, 17)
    got = simulate_trajectory(sc, h0, path)
    X = h0[None, :].copy()
    for k in range(n_steps):
        fac = [_ref_example_volatility_rows(sp, X)]
        if extra_factor:
            fac.append(np.broadcast_to(bump, X.shape))
        xi = path.gaussian[k][None, :]
        upd = X + sp.dx * _ref_sigma_drift_rows(fac, sp.dx)
        noise = fac[0] * xi[:, :1]
        for j in range(1, len(fac)):
            noise += fac[j] * xi[:, j:j + 1]
        upd += noise
        X = np.empty_like(upd)
        X[:, :-1] = upd[:, 1:]          # dt = dx: a shift by exactly one cell
        X[:, -1:] = upd[:, -1:]
        assert _same_bits(got[k + 1], X[0])
    assert got[-1][-1] == h0[-1]


# The merged scaling multiplies a pair sum p by 0.5 dx once, where the
# references halve and then scale. Halving is exact unless p < 2^-1021, so
# there the two may differ by one subnormal ulp per scaled value. Below
# 2^-1021 every value here is a multiple of 2^-1074 and every partial sum
# stays under 2^-1021, so the sums are exact and column j differs from the
# reference by at most the number of such pairs summed into it.

TINY = 2.0 ** -1021
ULP = 2.0 ** -1074


def _within_subnormal_ulps(got, want, below_summed):
    return np.all(np.abs(got - want) <= below_summed * ULP)


def _rounds_differently(pair, dx):
    """Whether halving then scaling some pair sums differs from one product."""
    return np.any((0.5 * pair) * dx != pair * (0.5 * dx))


def test_cumtrapz_rows_near_subnormal_scaling():
    gen = np.random.Generator(np.random.Philox(21))
    dx = 0.3                                     # coarse: more of the pairs round apart
    F = np.vstack([gen.uniform(2.0 ** -1024, 2.0 ** -1021, (400, 4)),   # sums on both sides
                   gen.uniform(2.0 ** -1020, 2.0 ** -1018, (50, 4))])   # sums above only
    pair = F[:, 1:] + F[:, :-1]
    below = pair < TINY
    mixed = slice(0, 400)
    assert below[mixed].any() and (~below[mixed]).any() and not below[400:].any()
    assert _rounds_differently(pair[below], dx)
    got, want = hjmm.cumtrapz_rows(F, dx), _ref_cumtrapz_rows(F, dx)
    assert np.all(want[mixed, -1] < TINY)        # the sums stay exact
    summed = np.zeros(F.shape)
    summed[:, 1:] = np.cumsum(below, axis=1)
    assert _within_subnormal_ulps(got, want, summed)
    assert _same_bits(got[400:], want[400:])


def test_example_volatility_rows_near_subnormal_scaling():
    # |h'| near 2^-1021 (e^{-beta x} is normal on any valid grid); a 4-point
    # grid with a coarse cell keeps the tail sums below 2^-1021, and a flat
    # last cell makes the closed-form tail zero
    sp = hjmm.forward_space(3.0, x_max=0.9, n=4)
    gen = np.random.Generator(np.random.Philox(22))
    slopes = np.vstack([gen.uniform(2.0 ** -1024, 2.0 ** -1020, (400, 2)),
                        gen.uniform(2.0 ** -1020, 2.0 ** -1018, (50, 2))])
    X = np.zeros((450, sp.dim))
    X[:, 1:3] = np.cumsum(slopes * sp.dx, axis=1)
    X[:, 3] = X[:, 2]
    f = np.minimum(np.exp(-sp.beta * sp.grid),
                   np.concatenate([np.abs(np.diff(X, axis=1)) / sp.dx,
                                   np.zeros((450, 1))], axis=1))
    pair = f[:, :-1] + f[:, 1:]
    below = (pair > 0) & (pair < TINY)          # halving zero is exact
    mixed = slice(0, 400)
    assert below[mixed].any() and (~below[mixed]).any() and not below[400:].any()
    assert _rounds_differently(pair[below], sp.dx)
    got, want = hjmm.example_volatility_rows(sp, X), _ref_example_volatility_rows(sp, X)
    assert np.all(want[mixed, 0] < TINY)
    summed = np.zeros(X.shape)
    summed[:, :-1] = np.cumsum(below[:, ::-1], axis=1)[:, ::-1]
    assert _within_subnormal_ulps(got, want, summed)
    assert _same_bits(got[400:], want[400:])


# Any layout the kernels accept: a column slice of a wider array, Fortran
# order and a broadcast row as input; buffers that are row slices of a larger
# array (C-contiguous, written in place) or column slices and Fortran arrays
# (not C-contiguous, so a flattened pass cannot write through them).

def _layouts(X):
    wide = np.full((X.shape[0], X.shape[1] + 5), 7.0)
    wide[:, :X.shape[1]] = X
    return {"C": X, "columns": wide[:, :X.shape[1]], "fortran": np.asfortranarray(X),
            "broadcast": np.broadcast_to(X[2], X.shape)}


def _buffers(shape):
    """Buffer layouts, each with the cells around it in its larger array."""
    b, n = shape
    rows = np.full((b + 4, n), np.nan)
    cols = np.full((b, n + 3), np.nan)
    return [(rows[2:b + 2], [rows[:2], rows[b + 2:]]),
            (cols[:, 1:n + 1], [cols[:, :1], cols[:, n + 1:]]),
            (np.full(shape, np.nan, order="F"), [])]


def _untouched(around):
    return all(np.all(np.isnan(a)) for a in around)


@pytest.mark.parametrize("layout", ["C", "columns", "fortran", "broadcast"])
def test_kernels_any_layout_bit_identical_to_reference(layout):
    sp = hjmm.forward_space(3.0, n=257)
    base = _kernel_curves(sp)
    X = _layouts(base)[layout]
    want = _ref_example_volatility_rows(sp, np.ascontiguousarray(X))
    assert _same_bits(hjmm.example_volatility_rows(sp, X), want)
    for (out, out_around), (work, work_around) in zip(_buffers(X.shape),
                                                      _buffers(X.shape)[::-1]):
        got = hjmm.example_volatility_rows(sp, X, out=out, work=work)
        assert got is out and _same_bits(got, want)
        assert _untouched(out_around) and _untouched(work_around)
    F = _layouts(want)[layout]
    want_ct = _ref_cumtrapz_rows(np.ascontiguousarray(F), sp.dx)
    assert _same_bits(hjmm.cumtrapz_rows(F, sp.dx), want_ct)
    for out, around in _buffers(F.shape):
        assert hjmm.cumtrapz_rows(F, sp.dx, out=out) is out and _same_bits(out, want_ct)
        assert _untouched(around)
