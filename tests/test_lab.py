import numpy as np
import pytest

from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab import hjmm, lab, scenarios
from spdelab.errors import HypothesisViolated
from spdelab.gdc import make_certificate
from spdelab.noise import diagonal_qwiener


def vanishing_multiplicative_scenario():
    """A = diag(-1, 0), sigma = 0.3 x_1 on the first coordinate; coefficients
    vanish on the P1 range and at the anchor; eps = 2 - 0.09."""
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=0.0, L_sigma=0.09)
    sigma = eng.LinearSigma(tensors=np.array([[[0.3, 0.0], [0.0, 0.0]]]),
                            offsets=np.zeros((1, 2)))
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]), sigma=sigma,
                        certificate=cert,
                        scenario_id="vanish-mult")


def linear_deterministic_scenario():
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=0.0)
    return eng.Scenario(op=op, P1=p1, certificate=cert,
                        scenario_id="vanish-linear")


def test_vanishing_linear_demo_rate_two():
    sc = linear_deterministic_scenario()
    rep = lab.vanishing_coeff_experiment(sc, np.array([3.0, -1.0]), 1e-3, 4.0,
                                         n_traj=2, seed=1)
    assert rep.passed
    assert rep.fitted["decay"].rate == pytest.approx(2.0, rel=1e-3)
    # deterministic flow: the bound is attained exactly
    assert np.allclose(rep.stats["dist2_mean"], rep.stats["bound"], rtol=5e-3)


def test_vanishing_multiplicative_rate_equals_epsilon():
    sc = vanishing_multiplicative_scenario()
    rep = lab.vanishing_coeff_experiment(sc, np.array([1.0, 2.0]), 1e-3, 3.0,
                                         n_traj=10_000, seed=7)
    assert rep.passed
    assert rep.fitted["decay"].rate == pytest.approx(sc.certificate.epsilon, rel=0.1)


def test_vanishing_starts_at_invariant_point():
    sc = linear_deterministic_scenario()
    rep = lab.vanishing_coeff_experiment(sc, np.array([0.0, 5.0]), 1e-2, 2.0,
                                         n_traj=2, seed=1)
    assert rep.passed


def test_vanishing_audit_names_kernel_violation():
    # anti-dissipative block: ran(P1) not inside ker(A)
    a = np.array([[-1.0, 1.0], [0.0, 1.0]])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=1.5)
    sc = eng.Scenario(op=op, P1=p1, certificate=cert)
    with pytest.raises(HypothesisViolated) as exc:
        lab.vanishing_coeff_experiment(sc, np.array([1.0, 1.0]), 1e-2, 1.0, 2, 1)
    assert exc.value.hypothesis == "p1-in-kernel"


def test_vanishing_audit_names_anchor_violation(ou2d_decoupled):
    # constant noise does not vanish at P1 x
    with pytest.raises(HypothesisViolated) as exc:
        lab.vanishing_coeff_experiment(ou2d_decoupled, np.array([1.0, 1.0]), 1e-2, 1.0, 2, 1)
    assert exc.value.hypothesis == "coefficients-vanish-at-anchor"


def test_vanishing_audit_passes_on_the_example_forward_curve():
    # the grid shift's generator maps the constant curve P1 p to exactly 0,
    # so the e^(beta x) weight has no rounding to lift; the example
    # volatility vanishes at constant curves
    sc = scenarios.build_scenario({
        "id": "forward-curve", "space": {"kind": "hbeta-grid", "beta": 3.0, "n": 2048},
        "operator": {"mode": "grid-shift"}, "projection": {"builder": "long-rate"},
        "hjmm": {"volatility": "example"}})
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sc.space.grid)
    lab.audit_vanishing_hypotheses(sc, h0)


def test_a_forward_curve_vanishing_run_is_the_hjmm_decay():
    # one decay rule: the lab experiment on a forward-curve document and the
    # hjmm experiment on the same curves, seed and horizon give the same
    # series, envelope and fitted rate (both fit from FIT_BURN on)
    sc = scenarios.build_scenario({
        "id": "forward-curve", "space": {"kind": "hbeta-grid", "beta": 3.0, "n": 256},
        "operator": {"mode": "grid-shift"}, "projection": {"builder": "long-rate"},
        "hjmm": {"volatility": "example"}})
    space = sc.space
    h0 = 0.05 + 0.04 * np.exp(-2.0 * space.grid)
    rep = lab.vanishing_coeff_experiment(sc, h0, space.dx, 4.0, 32, 7, snapshot_spacing=0.25)
    vol = hjmm.hjmm_example_volatility(space, beta_prime=1000.0)
    ref = hjmm.hjmm_ergodicity_experiment(space, vol, h0, horizon=4.0, n_traj=32, seed=7)
    assert rep.passed
    assert np.array_equal(rep.times, ref.times)
    assert np.array_equal(rep.stats["dist2_mean"], ref.decay_mean)
    assert np.array_equal(rep.stats["bound"], ref.bound)
    assert rep.fitted["decay"].rate == ref.fitted_rate
    assert rep.theoretical["epsilon"] == ref.margin


def test_limit_existence_ou_rate(ou2d_decoupled):
    rep = lab.limit_existence_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                         [0.0, 0.5, 1.0], T=4.0, dt=1e-3,
                                         n_traj=4000, seed=11)
    assert rep.passed
    eps = ou2d_decoupled.certificate.epsilon
    fit = rep.fitted["diag_tau=0.5"]
    assert fit.rate == pytest.approx(eps / 2.0, rel=0.15)
    assert np.all(rep.stats["diag_tau=0"] == 0.0)


def test_limit_existence_detects_divergence():
    a = np.array([[-1.0, 1.0], [0.0, 1.0]])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=1.5)
    sc = eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]),
                      sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                      certificate=cert,
                      scenario_id="antidissipative")
    rep = lab.limit_existence_experiment(sc, np.array([1.0, 1.0]), [0.5], T=6.0,
                                         dt=1e-3, n_traj=200, seed=5)
    assert rep.diverged


def test_affine_uniqueness_same_projection(ou2d_decoupled):
    rep = lab.affine_uniqueness_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                           np.array([-2.0, 7.0]), T=10.0, dt=2e-3,
                                           n_traj=512, seed=21)
    assert rep.passed
    assert rep.stats["terminal_w2"][0] < 0.05


def test_affine_uniqueness_trivial_equal_points(ou2d_decoupled):
    rep = lab.affine_uniqueness_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                           np.array([5.0, 7.0]), T=2.0, dt=1e-2,
                                           n_traj=64, seed=2)
    assert rep.passed
    assert np.all(rep.stats["pair_gap2"] == 0.0)


def test_affine_uniqueness_distinct_projection(ou2d_decoupled):
    rep = lab.affine_uniqueness_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                           np.array([5.0, 3.0]), T=8.0, dt=2e-3,
                                           n_traj=10_000, seed=23)
    assert rep.passed
    assert rep.stats["p1_w2"][-1] == pytest.approx(4.0, abs=0.02)


def test_affine_uniqueness_contraction_rate_linear(ou2d_decoupled):
    rep = lab.affine_uniqueness_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                           np.array([-1.0, 7.0]), T=4.0, dt=1e-2,
                                           n_traj=16, seed=3)
    # linear flow: pathwise S(t)(x - y), so the gap matches the envelope exactly
    mean = rep.stats["pair_gap2"]
    bound = rep.stats["contraction_bound"]
    assert np.allclose(mean, bound, rtol=2e-2)


def test_counterexample_kernel_noise_slope_one():
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    sc = eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0, 1.0]),
                      sigma=eng.ConstantSigma(np.eye(2)), scenario_id="ce-a")
    rep = lab.counterexample_experiment(sc, np.array([1.0, 1.0]), T=10.0, dt=1e-2,
                                        n_traj=4000, seed=808)
    assert rep.diverged
    assert rep.verdicts[0].invariant == "variance-linear-growth"
    assert rep.fitted["variance_linear"].rate == pytest.approx(1.0, rel=0.10)


def test_counterexample_antidissipative_exponential():
    a = np.array([[-1.0, 1.0], [0.0, 1.0]])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    sc = eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]),
                      sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                      scenario_id="ce-b")
    rep = lab.counterexample_experiment(sc, np.array([1.0, 1.0]), T=8.0, dt=1e-3,
                                        n_traj=100, seed=808)
    assert rep.diverged
    assert rep.verdicts[0].invariant == "second-moment-exponential-growth"
    assert rep.fitted["m2_exponential"].rate == pytest.approx(-2.0, rel=0.05)


def test_verdicts_stable_across_seeds(ou2d_decoupled):
    statuses = set()
    for seed in range(5):
        rep = lab.affine_uniqueness_experiment(ou2d_decoupled, np.array([5.0, 7.0]),
                                               np.array([-2.0, 7.0]), T=8.0, dt=5e-3,
                                               n_traj=256, seed=seed)
        statuses.add(rep.passed)
    assert statuses == {True}


def test_coupling_diagnostic_triangle_combination(ou2d_decoupled):
    # adjacent-tau diagnostics dominate the doubled-shift diagnostic
    sc = ou2d_decoupled
    x = np.array([5.0, 7.0])
    dt, T, n = 1e-3, 3.0, 4000
    times = np.arange(0.0, 2.01, 0.5)

    def diag(tau):
        res = eng.simulate_coupled_ensemble(sc, x, int(round(tau / dt)), dt,
                                            int(T / dt), n, 31, times)
        m = res.coupling_gap2.mean(axis=1)
        se = res.coupling_gap2.std(axis=1, ddof=1) / np.sqrt(n)
        return np.sqrt(m), se / (2.0 * np.sqrt(np.maximum(m, 1e-30)))

    d05, se05 = diag(0.5)
    d10, se10 = diag(1.0)
    assert np.all(d05 >= 0.0) and np.all(d10 >= 0.0)
    for i in range(len(times) - 1):
        slack = 3.0 * (se10[i] + se05[i] + se05[i + 1])
        assert d10[i] <= d05[i] + d05[i + 1] + slack


def test_limit_existence_fits_delta_on_the_sampled_times():
    # P1 X_t = 2 (1 - 0.5 dt)^k decays deterministically at about 0.5; the
    # P1 path is sampled every round(0.25 / dt) steps, so at dt = 0.1 every
    # 0.2, and the fit must use those times for delta to agree across dt
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    m = np.array([[0.0, 0.0], [0.0, -0.5]])
    sc = eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(2), a), P1=p1,
                      qwiener=diagonal_qwiener([1.0]),
                      sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                      drift=lambda X: X @ m.T,
                      certificate=make_certificate(a, p1, lambda1=0.0, L_F=0.25))
    x = np.array([1.0, 2.0])
    delta = [lab.limit_existence_experiment(sc, x, [0.0], T=8.0, dt=dt, n_traj=8,
                                            seed=3).theoretical["delta_fit"]
             for dt in (0.1, 0.05)]
    assert delta[0] == pytest.approx(delta[1], rel=0.05)
