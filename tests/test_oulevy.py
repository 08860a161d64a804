import cmath
import json
import math
import os

import numpy as np
import pytest

from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab import oulevy as ou
from spdelab import scenarios
from spdelab.errors import BudgetExceeded, ContractViolation, HypothesisViolated
from spdelab.gdc import ConvergenceFit
from spdelab.noise import GAUSSIAN_MARK, JumpSpec, MarkSampler, POINT_MASS, QWienerSpec, UNIFORM_MARK

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def constant_scenario(a, p, drift=None, columns=None, eigenvalues=None, jumps=None,
                      space=None):
    """An engine scenario on generator ``a`` with a constant drift, constant
    diffusion columns (unit mode variances unless given) and additive jumps."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    sigma = None if columns is None else eng.ConstantSigma(columns)
    qw = None if sigma is None else QWienerSpec(
        np.ones(sigma.matrix.shape[1]) if eigenvalues is None else eigenvalues)
    return eng.Scenario(op=hb.matrix_operator(space or hb.euclidean_space(len(a)), a), P1=p,
                        qwiener=qw, drift=None if drift is None else eng.ConstantDrift(drift),
                        sigma=sigma, jumps=jumps)


def decoupled_scenario():
    return ou.make_ou_scenario(constant_scenario(np.diag([-1.0, 0.0]),
                                                 hb.coordinate_projection(2, [1]),
                                                 columns=[[1.0], [0.0]]))


def _free(dim, **kwargs):
    """A scenario for exponents alone: A = -I and P = 0."""
    return constant_scenario(-np.eye(dim), hb.Projection(np.zeros((dim, dim))), **kwargs)


def test_levy_exponent_pure_drift():
    sc = _free(2, drift=np.array([2.0, -1.0]))
    u = np.array([0.5, 0.5])
    assert ou.levy_exponent(sc, u) == pytest.approx(1j * 0.5)


def test_levy_exponent_pure_gaussian():
    sc = _free(2, columns=np.eye(2), eigenvalues=[2.0, 4.0])
    u = np.array([1.0, 0.5])
    assert ou.levy_exponent(sc, u) == pytest.approx(-0.5 * (2.0 + 1.0))


def test_levy_exponent_big_atom():
    # every jump is compensated, a big one too: the stepper subtracts rate z dt
    z0 = np.array([2.0, 0.0])
    sc = _free(2, jumps=JumpSpec(0.7, MarkSampler(POINT_MASS, point=z0)))
    u = np.array([0.3, 0.9])
    want = 0.7 * (np.exp(1j * 0.6) - 1.0 - 0.6j)
    assert ou.levy_exponent(sc, u) == pytest.approx(want, abs=1e-12)


def test_levy_exponent_small_atom_is_compensated():
    z0 = np.array([0.5])
    sc = _free(1, jumps=JumpSpec(2.0, MarkSampler(POINT_MASS, point=z0)))
    u = np.array([1.0])
    want = 2.0 * (np.exp(0.5j) - 1.0 - 0.5j)
    assert ou.levy_exponent(sc, u) == pytest.approx(want, abs=1e-12)


def test_limiting_cf_at_zero_is_one():
    sc = decoupled_scenario()
    cf = ou.limiting_cf(sc, np.array([5.0, 7.0]), np.zeros(2))
    assert cf.value == 1.0


def test_limiting_cf_1d_ou_closed_form():
    # A = -a, sigma = s: limit is N(0, s^2/(2a)); log CF = -s^2 u^2 / (4a)
    a, s = 1.5, 0.8
    sc = ou.make_ou_scenario(constant_scenario([[-a]], hb.Projection(np.zeros((1, 1))),
                                               columns=[[1.0]], eigenvalues=[s * s]),
                             t_grid=np.linspace(0.2, 4.0, 12))
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
    p = hb.coordinate_projection(2, [1])
    with pytest.raises(HypothesisViolated, match=ou.HYP_DRIFT):
        ou.make_ou_scenario(constant_scenario(a, p, drift=np.array([0.0, 1.0])))
    with pytest.raises(HypothesisViolated, match=ou.HYP_COV):
        ou.make_ou_scenario(constant_scenario(a, p, columns=[[0.0], [1.0]]))
    bad_marks = JumpSpec(1.0, MarkSampler(POINT_MASS, point=np.array([0.0, 2.0])))
    with pytest.raises(HypothesisViolated, match=ou.HYP_JUMPS):
        ou.make_ou_scenario(constant_scenario(a, p, jumps=bad_marks))
    # centred marks that spread onto ran P
    bad_spread = JumpSpec(1.0, MarkSampler(GAUSSIAN_MARK, mean=np.zeros(2),
                                           cov_diag=np.array([0.25, 0.01])))
    with pytest.raises(HypothesisViolated, match=ou.HYP_JUMPS):
        ou.make_ou_scenario(constant_scenario(a, p, jumps=bad_spread))


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
    jumps = JumpSpec(2.0, MarkSampler(POINT_MASS, point=np.array([0.4])))
    sc = ou.make_ou_scenario(constant_scenario([[-a]], hb.Projection(np.zeros((1, 1))),
                                               columns=[[1.0]], eigenvalues=[0.25],
                                               jumps=jumps),
                             t_grid=np.linspace(0.2, 4.0, 12))
    esc = sc.scenario
    T, dt, n = 12.0, 2e-3, 20_000
    ens = eng.simulate_ensemble(esc, np.zeros(1), dt, int(T / dt), n, 616, [T])
    for u in (0.5, 1.0):
        cf = ou.limiting_cf(sc, np.zeros(1), np.array([u]), quad_step=0.002)
        emp, se = ou.empirical_cf(ens.states[-1], np.array([u]))
        assert abs(cf.value - emp) <= 3 * se + cf.tail_bound + 5e-3


def test_kolmogorov_two_state_gap():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    sc = ou.kolmogorov_instance(q, [0.5, 0.5], None, t_grid=np.linspace(0.25, 3.0, 10))
    assert sc.conv.rate == pytest.approx(2.0, abs=1e-4)


def test_kolmogorov_constant_initial_zero_noise_is_fixed():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    sc = ou.kolmogorov_instance(q, [0.5, 0.5], None, t_grid=np.linspace(0.25, 3.0, 10))
    esc = sc.scenario
    v0 = np.array([1.7, 1.7])
    ens = eng.simulate_ensemble(esc, v0, 0.01, 200, 4, 2, [1.0, 2.0])
    assert np.allclose(ens.states, 1.7, atol=1e-12)


def test_kolmogorov_average_is_conserved():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    eta = np.array([0.5, 0.5])
    columns = math.sqrt(0.8) * np.array([[1.0], [-1.0]])   # noise orthogonal to constants
    sc = ou.kolmogorov_instance(q, eta, columns, t_grid=np.linspace(0.25, 3.0, 10))
    esc = sc.scenario
    n = 2000
    ens = eng.simulate_ensemble(esc, np.array([2.0, 0.0]), 1e-3, 3000, n, 99, [3.0])
    avg = ens.states[-1] @ eta
    se = avg.std(ddof=1) / np.sqrt(n) + 1e-9
    assert abs(avg.mean() - 1.0) <= 3 * se


def test_kolmogorov_rejects_bad_generators():
    with pytest.raises(ContractViolation):
        ou.kolmogorov_instance(np.array([[-1.0, 0.5], [1.0, -1.0]]), [0.5, 0.5], None)
    with pytest.raises(ContractViolation):   # detailed balance broken
        ou.kolmogorov_instance(np.array([[-1.0, 1.0], [3.0, -3.0]]), [0.7, 0.3], None)
    with pytest.raises(ContractViolation):   # reducible
        ou.kolmogorov_instance(np.zeros((2, 2)), [0.5, 0.5], None)


def test_multiple_limits_differ_by_projected_shift():
    esc = decoupled_scenario().scenario
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
    sc = ou.kolmogorov_instance(q, eta, None)
    assert abs(sc.conv.rate - gap) <= 0.05 * gap
    assert sc.conv.n_points >= 4
    cf = ou.limiting_cf(sc, np.ones(n), np.full(n, 0.3))
    assert cf.t_cut > 0 and np.isfinite(cf.value) and np.isfinite(cf.quad_error)


@pytest.mark.parametrize("rate", [-0.14, 0.0, math.nan])
def test_limiting_cf_rejects_a_non_positive_rate(rate):
    q, eta = _reversible_chain(4, 4, 2.0)
    sc = ou.kolmogorov_instance(q, eta, None)
    sc.conv = ConvergenceFit(prefactor=1.0, rate=rate, residual=0.0, n_points=16)
    with pytest.raises(ContractViolation):
        ou.limiting_cf(sc, np.ones(4), np.full(4, 0.3))


def test_constant_ou_drift_takes_the_linear_additive_collapse():
    # a drift in ker P with no jumps is a constant drift, not a closure
    sc = constant_scenario(np.diag([-1.0, 0.0]), hb.coordinate_projection(2, [1]),
                           drift=np.array([0.5, 0.0]), columns=[[1.0], [0.0]])
    esc = ou.make_ou_scenario(sc).scenario
    assert isinstance(esc.drift, eng.ConstantDrift)
    assert np.array_equal(esc.drift.value, [0.5, 0.0])
    assert eng._Runtime(esc, 0.01).linear_additive


# The exponent and the quadrature as first written: one exponent call per
# node, and the marks' characteristic function one coordinate at a time. The
# batched exponent must reproduce them bit for bit on the c04 instance
# (euclidean, diagonal covariance, no jumps).

def _ref_mark_cf(marks, v):
    val = 1.0 + 0j
    for k, vk in enumerate(v):
        if marks.kind == POINT_MASS:
            val *= cmath.exp(1j * vk * marks.point[k])
        elif marks.kind == GAUSSIAN_MARK:
            val *= cmath.exp(1j * vk * marks.mean[k] - 0.5 * vk * vk * marks.cov_diag[k])
        else:
            c, h = 0.5 * (marks.lo[k] + marks.hi[k]), 0.5 * (marks.hi[k] - marks.lo[k])
            val *= cmath.exp(1j * vk * c) * (1.0 if vk * h == 0 else math.sin(vk * h) / (vk * h))
    return val


def _ref_levy_exponent(sc, u):
    u = np.asarray(u, dtype=float)
    space = sc.space
    drift = sc.drift.value if sc.drift is not None else np.zeros(len(u))
    q = np.zeros((len(u), len(u)))
    if sc.sigma is not None:
        c = sc.sigma.matrix
        q = (c * sc.qwiener.eigenvalues) @ c.T
        if space.weight is not None:
            q = q * space.weight[None, :]
    val = 1j * space.inner(drift, u) - 0.5 * space.inner(q @ u, u)
    if sc.jumps is not None:
        marks = sc.jumps.marks
        v = u if space.weight is None else u * space.weight
        val += sc.jumps.total_rate * (_ref_mark_cf(marks, v) - 1.0
                                      - 1j * float(v @ marks.mark_mean()))
    return complex(val)


def _ref_limiting_cf(ousc, x, u, t_cut, quad_step):
    sc = ousc.scenario
    space = sc.space
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    rate = ousc.conv.rate
    n = max(4, int(math.ceil(t_cut / quad_step)))
    n += (-n) % 4
    h = t_cut / n
    astar = space.adjoint(sc.op.generator)
    estar = ou.expm(h * astar)
    us = np.empty((n + 1, len(u)))
    us[0] = u
    for k in range(n):
        us[k + 1] = estar @ us[k]
    psi = np.array([_ref_levy_exponent(sc, uk) for uk in us])
    integral = (h / 3.0) * complex(ou._simpson_weights(n + 1) @ psi)
    coarse = (2.0 * h / 3.0) * complex(ou._simpson_weights(n // 2 + 1) @ psi[::2])
    quad_error = abs(integral - coarse) / 15.0
    a1, a2 = ou._tail_constants(ousc)
    un = space.norm(u)
    tail = 0.0 if not math.isfinite(rate) else \
        (a1 * un + a2 * un * un) * math.exp(-rate * t_cut) / rate
    value = cmath.exp(1j * space.inner(sc.P1.apply(x), u) + integral)
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
    t = decoupled_scenario().scenario
    rows = _c04_rows()
    psi = ou.levy_exponent(t, rows)
    assert psi.shape == (len(rows),) and psi.dtype == complex
    one = [ou.levy_exponent(t, r) for r in rows]
    assert all(type(v) is complex for v in one)
    assert psi.tobytes() == np.array(one).tobytes()
    assert psi.tobytes() == np.array([_ref_levy_exponent(t, r) for r in rows]).tobytes()


def _weighted_kolmogorov_scenario(marks):
    gen = np.random.Generator(np.random.Philox(2718))
    q, eta = _reversible_chain(4, 4, 2.0)
    a = gen.standard_normal((4, 4))
    # Sigma = 0.3 a a^T, so Q = Sigma D is self-adjoint in L^2(eta)
    sc = constant_scenario(q, hb.averaging_projection(eta), drift=gen.standard_normal(4),
                           columns=a, eigenvalues=np.full(4, 0.3),
                           jumps=JumpSpec(1.3, marks), space=hb.weighted_space(eta))
    rows = gen.standard_normal((300, 4)) * np.exp(gen.uniform(-4.0, 2.0, (300, 1)))
    return sc, rows


@pytest.mark.parametrize("marks", [
    pytest.param(MarkSampler(POINT_MASS, point=np.array([0.6, -0.2, 0.1, -0.4])), id="small-atom"),
    pytest.param(MarkSampler(POINT_MASS, point=np.array([2.6, -0.2, 0.1, -0.9])), id="big-atom"),
    pytest.param(MarkSampler(GAUSSIAN_MARK, mean=np.zeros(4), cov_diag=np.full(4, 0.5)),
                 id="gaussian-marks"),
    pytest.param(MarkSampler(UNIFORM_MARK, lo=np.array([-1.0, 0.0, 0.5, 0.0]),
                             hi=np.array([1.0, 0.0, 2.0, 0.3])), id="uniform-marks"),
])
def test_levy_exponent_rows_match_vector_calls_on_weighted_kolmogorov(marks):
    # a general covariance, a weighted geometry and the mark phases regroup
    # the sums, so rows agree to rounding rather than bit for bit; the
    # reference takes the marks' characteristic function one coordinate at a
    # time, whose last-bit difference phi - 1 - i<v, E z> does not cancel
    sc, rows = _weighted_kolmogorov_scenario(marks)
    psi = ou.levy_exponent(sc, rows)
    one = np.array([ou.levy_exponent(sc, r) for r in rows])
    assert np.all(np.abs(psi - one) <= 1e-14 * np.abs(one))
    ref = np.array([_ref_levy_exponent(sc, r) for r in rows])
    assert np.all(np.abs(psi - ref) <= 1e-14 * (np.abs(ref) + 1.0))


@pytest.mark.parametrize("u", [np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2)), 0.0])
def test_levy_exponent_rejects_a_wrong_shape(u):
    with pytest.raises(ContractViolation):
        ou.levy_exponent(decoupled_scenario().scenario, u)


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


def _ou_jump_document():
    """The shipped ou-decoupled-2d document with the continuous-integration
    jumps: rate 1.5, Gaussian marks with mean (0.3, 0) and variances (0.25, 0)."""
    doc = scenarios.load_document(os.path.join(ROOT, "scenarios", "ou-decoupled-2d.json"))
    doc["coefficients"]["gamma"] = {
        "builder": "additive", "rate": 1.5,
        "marks": {"kind": "gaussian-mark", "mean": [0.3, 0.0], "cov_diag": [0.25, 0.0]}}
    return doc


def test_limiting_cf_with_gaussian_marks_matches_adaptive_quadrature():
    # the exponent of the law the stepper simulates, every jump compensated:
    # with A = diag(-1, 0), S(r)* u = (e^-r u0, u1), and only v0 = e^-r u0
    # meets the noise: Psi = -v0^2 / 2 + 1.5 (e^{0.3 i v0 - v0^2 / 8} - 1 - 0.3 i v0)
    from scipy.integrate import quad
    doc = _ou_jump_document()
    cfg = doc["experiment"]["ou-limit"]
    ousc = scenarios.build_ou_scenario(doc)
    x = np.array(cfg["x"])

    def psi(r, u0):
        v = math.exp(-r) * u0
        return -0.5 * v * v + 1.5 * (cmath.exp(0.3j * v - v * v / 8.0) - 1.0 - 0.3j * v)

    for u in cfg["probes"]:
        cf = ou.limiting_cf(ousc, x, u, t_cut=cfg["t_cut"], quad_step=cfg["quad_step"])
        parts = [quad(lambda r: part(psi(r, u[0])), 0.0, math.inf, epsabs=1e-15,
                      epsrel=1e-13, limit=500)[0] for part in (lambda z: z.real,
                                                                lambda z: z.imag)]
        ref = cmath.exp(1j * x[1] * u[1] + complex(*parts))
        assert abs(cf.value - ref) <= cf.quad_error + cf.tail_bound + 1e-12, (u, cf, ref)
