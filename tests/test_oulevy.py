import cmath
import math

import numpy as np
import pytest

from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab import oulevy as ou
from spdelab.errors import BudgetExceeded, ContractViolation, HypothesisViolated
from spdelab.gdc import ConvergenceFit
from spdelab.noise import GAUSSIAN_MARK, JumpSpec, MarkSampler, POINT_MASS


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
    t = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)),
                       jumps=JumpSpec(0.7, MarkSampler(POINT_MASS, point=z0)))
    u = np.array([0.3, 0.9])
    want = 0.7 * (np.exp(1j * 0.6) - 1.0)
    assert ou.levy_exponent(t, u) == pytest.approx(want, abs=1e-12)


def test_levy_exponent_small_atom_is_compensated():
    z0 = np.array([0.5])
    t = ou.LevyTriplet(drift=np.zeros(1), cov=np.zeros((1, 1)),
                       jumps=JumpSpec(2.0, MarkSampler(POINT_MASS, point=z0)))
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
    bad_marks = ou.LevyTriplet(drift=np.zeros(2), cov=np.zeros((2, 2)), jumps=JumpSpec(
        1.0, MarkSampler(POINT_MASS, point=np.array([0.0, 2.0]))))
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
    trip = ou.LevyTriplet(drift=np.zeros(1), cov=np.array([[0.25]]),
                          jumps=JumpSpec(2.0, MarkSampler(POINT_MASS, point=np.array([0.4]))))
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


# The exponent and the quadrature as first written: one exponent call per
# node. The batched exponent must reproduce them bit for bit on the c04
# instance (euclidean, diagonal covariance, no jumps).

def _ref_levy_exponent(t, u, space=None):
    u = np.asarray(u, dtype=float)
    if space is None:
        space = hb.euclidean_space(len(u))
    val = 1j * space.inner(t.drift, u) - 0.5 * space.inner(t.cov @ u, u)
    quad = t.jump_quadrature(space)
    if quad is not None:
        w, nodes, small = quad
        phase = space.inner_rows(nodes, np.broadcast_to(u, nodes.shape))
        vals = np.exp(1j * phase) - 1.0 - 1j * phase * small
        val += t.jumps.total_rate * complex(w @ vals)
    return complex(val)


def _ref_limiting_cf(sc, x, u, t_cut, quad_step):
    space = sc.space
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    rate = sc.conv.rate
    n = max(4, int(math.ceil(t_cut / quad_step)))
    n += (-n) % 4
    h = t_cut / n
    astar = space.adjoint(sc.op.generator)
    estar = ou.expm(h * astar)
    us = np.empty((n + 1, len(u)))
    us[0] = u
    for k in range(n):
        us[k + 1] = estar @ us[k]
    psi = np.array([_ref_levy_exponent(sc.triplet, uk, space) for uk in us])
    integral = (h / 3.0) * complex(ou._simpson_weights(n + 1) @ psi)
    coarse = (2.0 * h / 3.0) * complex(ou._simpson_weights(n // 2 + 1) @ psi[::2])
    quad_error = abs(integral - coarse) / 15.0
    a1, a2 = ou._tail_constants(sc)
    un = space.norm(u)
    tail = 0.0 if not math.isfinite(rate) else \
        (a1 * un + a2 * un * un) * math.exp(-rate * t_cut) / rate
    value = cmath.exp(1j * space.inner(sc.P.apply(x), u) + integral)
    return ou.CfValue(value=value, tail_bound=float(tail), quad_error=float(quad_error),
                      t_cut=float(t_cut))


C04_PROBES = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.7], [2.0, 0.3])


def _c04_rows():
    """Orbit nodes of the c04 quadrature for every probe, plus random rows."""
    estar = ou.expm(0.005 * np.diag([-1.0, 0.0]))
    rows = []
    for u in C04_PROBES:
        v = np.array(u)
        for _ in range(400):
            rows.append(v)
            v = estar @ v
    gen = np.random.Generator(np.random.Philox(404))
    rows += list(gen.standard_normal((200, 2)) * np.exp(gen.uniform(-5.0, 3.0, (200, 1))))
    return np.array(rows)


def test_levy_exponent_rows_equal_vector_calls_on_c04():
    t = decoupled_scenario().triplet
    rows = _c04_rows()
    psi = ou.levy_exponent(t, rows)
    assert psi.shape == (len(rows),) and psi.dtype == complex
    one = [ou.levy_exponent(t, r) for r in rows]
    assert all(type(v) is complex for v in one)
    assert psi.tobytes() == np.array(one).tobytes()
    assert psi.tobytes() == np.array([_ref_levy_exponent(t, r) for r in rows]).tobytes()


def _weighted_kolmogorov_triplet(marks):
    gen = np.random.Generator(np.random.Philox(2718))
    _, eta = _reversible_chain(4, 4, 2.0)
    a = gen.standard_normal((4, 4))
    cov = 0.3 * (a @ a.T) * eta[None, :]      # Q = Sigma D is self-adjoint in L^2(eta)
    trip = ou.LevyTriplet(drift=gen.standard_normal(4), cov=cov, jumps=JumpSpec(1.3, marks))
    space = hb.weighted_space(eta)
    trip.validate(space)
    rows = gen.standard_normal((300, 4)) * np.exp(gen.uniform(-4.0, 2.0, (300, 1)))
    return trip, space, rows


@pytest.mark.parametrize("marks", [
    pytest.param(MarkSampler(POINT_MASS, point=np.array([0.6, -0.2, 0.1, -0.4])), id="small-atom"),
    pytest.param(MarkSampler(POINT_MASS, point=np.array([2.6, -0.2, 0.1, -0.9])), id="big-atom"),
    pytest.param(MarkSampler(GAUSSIAN_MARK, mean=np.zeros(4), cov_diag=np.full(4, 0.5)),
                 id="gaussian-marks"),
])
def test_levy_exponent_rows_match_vector_calls_on_weighted_kolmogorov(marks):
    # a general covariance, a weighted geometry and the mark phases regroup
    # the sums, so rows agree to rounding rather than bit for bit; 300 rows
    # of 4,096 Gaussian marks take five blocks of the phase matrix
    trip, space, rows = _weighted_kolmogorov_triplet(marks)
    psi = ou.levy_exponent(trip, rows, space)
    one = np.array([ou.levy_exponent(trip, r, space) for r in rows])
    assert np.all(np.abs(psi - one) <= 1e-14 * np.abs(one))
    ref = np.array([_ref_levy_exponent(trip, r, space) for r in rows])
    assert np.all(np.abs(psi - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("u", [np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2)), 0.0])
def test_levy_exponent_rejects_a_wrong_shape(u):
    with pytest.raises(ContractViolation):
        ou.levy_exponent(decoupled_scenario().triplet, u)


def test_limiting_cf_matches_the_per_node_loop():
    sc = decoupled_scenario()
    x = np.array([5.0, 7.0])
    for u in C04_PROBES:
        u = np.array(u)
        got = ou.limiting_cf(sc, x, u, t_cut=40.0, quad_step=0.005)
        want = _ref_limiting_cf(sc, x, u, t_cut=40.0, quad_step=0.005)
        assert got == want


@pytest.fixture
def no_quadrature(monkeypatch):
    """The c04 instance, with the orbit's matrix exponential made to fail:
    a rejection must come before any quadrature work."""
    sc = decoupled_scenario()

    def fail(*_):
        raise AssertionError("the quadrature started")
    monkeypatch.setattr(ou, "expm", fail)
    return sc


@pytest.mark.parametrize("kwargs", [
    {"quad_step": -0.01}, {"quad_step": 0.0}, {"quad_step": math.nan}, {"quad_step": math.inf},
    {"t_cut": -5.0}, {"t_cut": 0.0}, {"t_cut": math.nan}, {"t_cut": math.inf},
    {"u": np.zeros(3)}, {"u": np.zeros((2, 2))}, {"u": 1.0}, {"u": [0.0, math.nan]},
    {"u": ["a", "b"]}, {"x": np.zeros(1)}, {"x": [[5.0, 7.0]]}, {"x": [math.inf, 0.0]},
    {"quad_step": True}, {"t_cut": True},
])
def test_limiting_cf_rejects_malformed_arguments(no_quadrature, kwargs):
    args = {"x": np.array([5.0, 7.0]), "u": np.array([1.0, 0.5]), **kwargs}
    with pytest.raises(ContractViolation):
        ou.limiting_cf(no_quadrature, **args)


@pytest.mark.parametrize("t_cut", [1e30, 1e300])
def test_limiting_cf_caps_the_node_count(no_quadrature, t_cut):
    with pytest.raises(BudgetExceeded, match="budget"):
        ou.limiting_cf(no_quadrature, np.zeros(2), np.ones(2), t_cut=t_cut, quad_step=0.005)
