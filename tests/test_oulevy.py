import math

import numpy as np
import pytest

from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab import oulevy as ou
from spdelab.errors import ContractViolation, HypothesisViolated
from spdelab.gdc import ConvergenceFit
from spdelab.noise import MarkSampler, POINT_MASS


def decoupled_scenario():
    a = np.diag([-1.0, 0.0])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    p = hb.coordinate_projection(2, [1])
    trip = ou.LevyTriplet(drift=np.zeros(2), cov=np.diag([1.0, 0.0]))
    return ou.make_ou_scenario(op, p, trip)


def test_levy_exponent_pure_drift():
    t = ou.LevyTriplet(drift=np.array([2.0, -1.0]), cov=np.zeros((2, 2)))
    u = np.array([0.5, 0.5])
    assert ou.levy_exponent(t, u) == pytest.approx(1j * 0.5)


def test_levy_exponent_pure_gaussian():
    t = ou.LevyTriplet(drift=np.zeros(2), cov=np.diag([2.0, 4.0]))
    u = np.array([1.0, 0.5])
    assert ou.levy_exponent(t, u) == pytest.approx(-0.5 * (2.0 + 1.0))


def test_levy_exponent_big_atom():
    z0 = np.array([2.0, 0.0])
    t = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)), jump_rate=0.7,
                       jump_marks=MarkSampler(POINT_MASS, point=z0))
    u = np.array([0.3, 0.9])
    want = 0.7 * (np.exp(1j * 0.6) - 1.0)
    assert ou.levy_exponent(t, u) == pytest.approx(want, abs=1e-12)


def test_levy_exponent_small_atom_is_compensated():
    z0 = np.array([0.5])
    t = ou.LevyTriplet(drift=np.zeros(1), cov=np.zeros((1, 1)), jump_rate=2.0,
                       jump_marks=MarkSampler(POINT_MASS, point=z0))
    u = np.array([1.0])
    want = 2.0 * (np.exp(0.5j) - 1.0 - 0.5j)
    assert ou.levy_exponent(t, u) == pytest.approx(want, abs=1e-12)


def test_limiting_cf_at_zero_is_one():
    sc = decoupled_scenario()
    cf = ou.limiting_cf(sc, np.array([5.0, 7.0]), np.zeros(2))
    assert cf.value == 1.0


def test_limiting_cf_1d_ou_closed_form():
    # A = -a, sigma = s: limit is N(0, s^2/(2a)); log CF = -s^2 u^2 / (4a)
    a, s = 1.5, 0.8
    op = hb.matrix_operator(hb.euclidean_space(1), [[-a]])
    p = hb.Projection(np.zeros((1, 1)))
    trip = ou.LevyTriplet(drift=np.zeros(1), cov=np.array([[s * s]]))
    sc = ou.make_ou_scenario(op, p, trip, t_grid=np.linspace(0.2, 4.0, 12))
    for u in (0.5, 1.0, 2.0):
        cf = ou.limiting_cf(sc, np.zeros(1), np.array([u]), t_cut=40.0 / a,
                            quad_step=0.005)
        want = np.exp(-s * s * u * u / (4 * a))
        assert abs(cf.value - want) <= 1e-6


def test_limiting_cf_decoupled_structure():
    sc = decoupled_scenario()
    x = np.array([5.0, 7.0])
    for u in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.7], [2.0, 0.3]):
        u = np.array(u)
        cf = ou.limiting_cf(sc, x, u, t_cut=40.0, quad_step=0.005)
        want = np.exp(1j * 7.0 * u[1]) * np.exp(-u[0] ** 2 / 4.0)
        assert abs(cf.value - want) <= 1e-6


def test_limiting_cf_p_shift_only_depends_on_projection():
    sc = decoupled_scenario()
    u = np.array([0.7, 1.3])
    a = ou.limiting_cf(sc, np.array([5.0, 7.0]), u).value
    b = ou.limiting_cf(sc, np.array([-100.0, 7.0]), u).value
    assert a == pytest.approx(b, abs=1e-12)


def test_hypothesis_audits_fire():
    a = np.diag([-1.0, 0.0])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    p = hb.coordinate_projection(2, [1])
    bad_drift = ou.LevyTriplet(drift=np.array([0.0, 1.0]), cov=np.zeros((2, 2)))
    with pytest.raises(HypothesisViolated):
        ou.make_ou_scenario(op, p, bad_drift)
    bad_cov = ou.LevyTriplet(drift=np.zeros(2), cov=np.diag([0.0, 1.0]))
    with pytest.raises(HypothesisViolated):
        ou.make_ou_scenario(op, p, bad_cov)
    bad_marks = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)), jump_rate=1.0,
                               jump_marks=MarkSampler(POINT_MASS, point=np.array([0.0, 2.0])))
    with pytest.raises(HypothesisViolated):
        ou.make_ou_scenario(op, p, bad_marks)


def test_empirical_cf_trivials():
    val, se = ou.empirical_cf(np.zeros((10, 2)), np.zeros(2))
    assert val == 1.0
    z0 = np.array([1.0, 2.0])
    val, _ = ou.empirical_cf(np.tile(z0, (7, 1)), np.array([0.3, -0.1]))
    assert val == pytest.approx(np.exp(1j * (0.3 - 0.2)), abs=1e-12)


def test_empirical_cf_gaussian():
    gen = np.random.Generator(np.random.Philox(31))
    samples = gen.standard_normal(100_000)
    val, se = ou.empirical_cf(samples, np.array([1.0]))
    assert abs(abs(val) - np.exp(-0.5)) <= 3e-3
    assert se == pytest.approx(1.0 / np.sqrt(100_000))


def test_cf_agreement_with_simulation_including_jumps():
    # 1-D contraction with an atomic jump measure; quadrature vs Monte-Carlo
    a = 1.0
    op = hb.matrix_operator(hb.euclidean_space(1), [[-a]])
    p = hb.Projection(np.zeros((1, 1)))
    trip = ou.LevyTriplet(drift=np.zeros(1), cov=np.array([[0.25]]), jump_rate=2.0,
                          jump_marks=MarkSampler(POINT_MASS, point=np.array([0.4])))
    sc = ou.make_ou_scenario(op, p, trip, t_grid=np.linspace(0.2, 4.0, 12))
    esc = ou.ou_engine_scenario(sc)
    T, dt, n = 12.0, 2e-3, 20_000
    ens = eng.simulate_ensemble(esc, np.zeros(1), dt, int(T / dt), n, 616, [T])
    for u in (0.5, 1.0):
        cf = ou.limiting_cf(sc, np.zeros(1), np.array([u]), quad_step=0.002)
        emp, se = ou.empirical_cf(ens.states[-1], np.array([u]))
        assert abs(cf.value - emp) <= 3 * se + cf.tail_bound + 5e-3


def test_kolmogorov_two_state_gap():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    trip = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)))
    sc = ou.kolmogorov_instance(q, [0.5, 0.5], trip,
                                t_grid=np.linspace(0.25, 3.0, 10))
    assert sc.conv.rate == pytest.approx(2.0, abs=1e-4)


def test_kolmogorov_constant_initial_zero_noise_is_fixed():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    trip = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)))
    sc = ou.kolmogorov_instance(q, [0.5, 0.5], trip,
                                t_grid=np.linspace(0.25, 3.0, 10))
    esc = ou.ou_engine_scenario(sc)
    v0 = np.array([1.7, 1.7])
    ens = eng.simulate_ensemble(esc, v0, 0.01, 200, 4, 2, [1.0, 2.0])
    assert np.allclose(ens.states, 1.7, atol=1e-12)


def test_kolmogorov_average_is_conserved():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    eta = np.array([0.5, 0.5])
    cov = 0.8 * np.array([[0.5, -0.5], [-0.5, 0.5]])   # noise orthogonal to constants
    sc = ou.kolmogorov_instance(q, eta, ou.LevyTriplet(drift=np.zeros(2), cov=cov),
                                t_grid=np.linspace(0.25, 3.0, 10))
    esc = ou.ou_engine_scenario(sc)
    n = 2000
    ens = eng.simulate_ensemble(esc, np.array([2.0, 0.0]), 1e-3, 3000, n, 99, [3.0])
    avg = ens.states[-1] @ eta
    se = avg.std(ddof=1) / np.sqrt(n) + 1e-9
    assert abs(avg.mean() - 1.0) <= 3 * se


def test_kolmogorov_rejects_bad_generators():
    trip = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)))
    with pytest.raises(ContractViolation):
        ou.kolmogorov_instance(np.array([[-1.0, 0.5], [1.0, -1.0]]), [0.5, 0.5], trip)
    with pytest.raises(ContractViolation):   # detailed balance broken
        ou.kolmogorov_instance(np.array([[-1.0, 1.0], [3.0, -3.0]]), [0.7, 0.3], trip)
    with pytest.raises(ContractViolation):   # reducible
        ou.kolmogorov_instance(np.zeros((2, 2)), [0.5, 0.5], trip)


def test_multiple_limits_differ_by_projected_shift():
    sc = decoupled_scenario()
    esc = ou.ou_engine_scenario(sc)
    T, dt, n = 8.0, 2e-3, 10_000
    x, y = np.array([5.0, 7.0]), np.array([5.0, 3.0])
    ex = eng.simulate_ensemble(esc, x, dt, int(T / dt), n, 1001, [T])
    ey = eng.simulate_ensemble(esc, y, dt, int(T / dt), n, 1001, [T])
    from spdelab.wasserstein import w2_1d
    sep = w2_1d(ex.states[-1][:, 1], ey.states[-1][:, 1])
    assert sep == pytest.approx(4.0, abs=0.02)


def _reversible_chain(n, seed, gap):
    """Random reversible generator in L^2(eta) rescaled to a given spectral gap."""
    gen = np.random.Generator(np.random.Philox(seed))
    eta = gen.uniform(0.5, 1.5, n)
    eta /= eta.sum()
    flux = gen.uniform(0.0, 1.0, (n, n))
    flux = 0.5 * (flux + flux.T)
    np.fill_diagonal(flux, 0.0)
    q = flux / eta[:, None]
    np.fill_diagonal(q, -q.sum(axis=1))
    own_gap = -np.sort(np.linalg.eigvals(q).real)[-2]
    return q * (gap / own_gap), eta


@pytest.mark.parametrize("n,gap", [(4, 22.4), (16, 822.0)])
def test_fast_chain_rate_fit_ignores_roundoff(n, gap):
    q, eta = _reversible_chain(n, n, gap)
    trip = ou.LevyTriplet(drift=np.zeros(n), cov=np.zeros((n, n)))
    sc = ou.kolmogorov_instance(q, eta, trip)
    assert abs(sc.conv.rate - gap) <= 0.05 * gap
    assert sc.conv.n_points >= 4
    cf = ou.limiting_cf(sc, np.ones(n), np.full(n, 0.3))
    assert cf.t_cut > 0 and np.isfinite(cf.value) and np.isfinite(cf.quad_error)


@pytest.mark.parametrize("rate", [-0.14, 0.0, math.nan])
def test_limiting_cf_rejects_a_non_positive_rate(rate):
    q, eta = _reversible_chain(4, 4, 2.0)
    trip = ou.LevyTriplet(drift=np.zeros(4), cov=np.zeros((4, 4)))
    sc = ou.kolmogorov_instance(q, eta, trip)
    sc.conv = ConvergenceFit(prefactor=1.0, rate=rate, residual=0.0, n_points=16)
    with pytest.raises(ContractViolation):
        ou.limiting_cf(sc, np.ones(4), np.full(4, 0.3))


def test_constant_ou_drift_takes_the_linear_additive_collapse():
    # a drift in ker P with no jumps is a constant drift, not a closure
    a = np.diag([-1.0, 0.0])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    trip = ou.LevyTriplet(drift=np.array([0.5, 0.0]), cov=np.diag([1.0, 0.0]))
    esc = ou.ou_engine_scenario(ou.make_ou_scenario(op, hb.coordinate_projection(2, [1]), trip))
    assert isinstance(esc.drift, eng.ConstantDrift)
    assert np.array_equal(esc.drift.value, [0.5, 0.0])
    assert eng._Runtime(esc, 0.01).linear_additive
