import gc
import os
import sys

import numpy as np
import pytest

from conftest import PlainSigma
from reference import coupled_pair, sample_path, simulate_trajectory, step
from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab import cli, hjmm, scenarios
from spdelab.errors import ContractViolation, HypothesisViolated, NumericalBlowup
from spdelab.gdc import make_certificate
from spdelab.noise import (GAUSSIAN_MARK, MarkSampler, POINT_MASS, STREAM_GAUSS, STREAM_SEGMENT,
                           JumpSpec, diagonal_qwiener, substream)
from spdelab.wasserstein import ks_critical_value, ks_statistic

SCEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def test_step_pure_semigroup(paper2x2):
    sc = eng.Scenario(op=paper2x2.op, P1=paper2x2.P1)
    x = np.array([0.7, -0.2])
    got = step(sc, x, 0.05)
    assert np.allclose(got, paper2x2.op.apply_semigroup(0.05, x), atol=1e-14)


def test_step_euler_on_constant_drift():
    op = hb.matrix_operator(hb.euclidean_space(2), np.zeros((2, 2)))
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((2, 2))),
                      drift=eng.ConstantDrift([0.5, -1.0]))
    got = step(sc, np.array([1.0, 1.0]), 0.1)
    assert np.allclose(got, [1.05, 0.9], atol=1e-15)


def test_step_applies_jumps_at_left_state():
    op = hb.matrix_operator(hb.euclidean_space(1), [[0.0]])
    js = JumpSpec(1.0, MarkSampler(POINT_MASS, point=np.array([2.0])))
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((1, 1))), jumps=js)
    got = step(sc, np.array([1.0]), 0.1, jump_marks=np.array([[2.0], [2.0]]))
    # two jumps of +2, compensator 1.0*2.0 per unit time
    assert got[0] == pytest.approx(1.0 + 4.0 - 0.1 * 2.0)


def _wrapped_scenario():
    """ou-decoupled-2d with its diffusion under the vanishing wrapper."""
    doc = scenarios.load_document(os.path.join(SCEN, "ou-decoupled-2d.json"))
    doc["coefficients"]["sigma"]["vanishing_wrapper"] = True
    return scenarios.build_scenario(doc)


def test_vanishing_wrapper_is_zero_on_the_p1_range():
    sc = _wrapped_scenario()
    x = np.array([0.0, 3.0])            # P1 keeps coordinate 1, so x is in its range
    assert np.all(sc.sigma.columns(x) == 0.0)
    assert np.all(sc.sigma.apply(x[None, :], np.ones((1, 1))) == 0.0)
    assert np.array_equal(sc.sigma.columns(np.array([2.0, 3.0])), [[1.0], [0.0]])
    assert np.array_equal(sc.sigma.columns(np.array([0.25, 3.0])), [[0.25], [0.0]])


@pytest.mark.parametrize("kind", ["wrapped-diffusion", "no-drift-no-noise", "jumps"])
def test_one_trajectory_ensemble_equals_simulate_trajectory(kind):
    # without drift and noise the step propagates the state into its own input
    a = np.array([[-1.0, 0.5], [0.0, -0.2]])
    op, p0 = hb.matrix_operator(hb.euclidean_space(2), a), hb.Projection(np.zeros((2, 2)))
    if kind == "wrapped-diffusion":
        sc = _wrapped_scenario()
    elif kind == "no-drift-no-noise":
        sc = eng.Scenario(op=op, P1=p0)
    else:   # about one jump per four steps, several in some steps
        marks = MarkSampler(GAUSSIAN_MARK, mean=np.array([0.1, -0.2]),
                            cov_diag=np.array([0.3, 0.1]))
        sc = eng.Scenario(op=op, P1=p0, qwiener=diagonal_qwiener([1.0]),
                          sigma=PlainSigma([[0.5], [0.2]]),
                          drift=lambda X: 0.1 * np.sin(X), jumps=JumpSpec(25.0, marks))
    dt, n_steps, x = 0.01, 250, np.array([0.4, -1.3])
    ens = eng.simulate_ensemble(sc, x, dt, n_steps, 1, 77, np.arange(n_steps + 1) * dt)
    path = sample_path(sc.qwiener, sc.jumps, dt, n_steps, seed=77, traj_index=0)
    hist = simulate_trajectory(sc, x, path)
    assert np.array_equal(ens.states[:, 0], hist)
    assert not np.array_equal(hist[-1], hist[0])


def test_ou_terminal_moments(ou1d):
    dt, T, n = 1e-3, 5.0, 20_000
    ens = eng.simulate_ensemble(ou1d, np.array([1.0]), dt, int(T / dt), n, 909, [T])
    xt = ens.states[-1][:, 0]
    exact_mean = np.exp(-T)
    exact_var = 0.5 * (1.0 - np.exp(-2 * T))
    assert abs(xt.mean() - exact_mean) <= 3 * xt.std(ddof=1) / np.sqrt(n)
    assert xt.var(ddof=1) == pytest.approx(exact_var, rel=0.05)


def test_single_trajectory_reproduces_manual_stepping(ou1d):
    dt, n_steps = 0.01, 200
    path = sample_path(ou1d.qwiener, None, dt, n_steps, seed=321, traj_index=0)
    hist = simulate_trajectory(ou1d, np.array([0.5]), path)
    x = np.array([0.5])
    for k in range(n_steps):
        x = step(ou1d, x, dt, gaussian_inc=path.gaussian[k])
    assert np.array_equal(hist[-1], x)


def test_ensemble_n1_matches_manual_stepping_bitwise(ou1d):
    dt, n_steps = 0.01, 300
    ens = eng.simulate_ensemble(ou1d, np.array([0.5]), dt, n_steps, 1, 321,
                                [n_steps * dt])
    path = sample_path(ou1d.qwiener, None, dt, n_steps, seed=321, traj_index=0)
    x = np.array([0.5])
    for k in range(n_steps):
        x = step(ou1d, x, dt, gaussian_inc=path.gaussian[k])
    assert np.array_equal(ens.states[-1][0], x)


def test_zero_noise_trajectories_identical():
    op = hb.matrix_operator(hb.euclidean_space(2), np.diag([-1.0, -2.0]))
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((2, 2))))
    ens = eng.simulate_ensemble(sc, np.array([1.0, 2.0]), 0.01, 100, 16, 5, [1.0])
    assert np.all(ens.states[-1] == ens.states[-1][0])


def test_determinism_across_thread_counts(ou2d_decoupled):
    kw = dict(initial=np.array([5.0, 7.0]), dt=0.01, n_steps=200, n_traj=3000,
              master_seed=11, snapshot_times=[1.0, 2.0])
    a = eng.simulate_ensemble(ou2d_decoupled, threads=1, **kw)
    b = eng.simulate_ensemble(ou2d_decoupled, threads=3, **kw)
    assert np.array_equal(a.states, b.states)


def test_affine_common_noise_identity():
    # constant drift + constant noise: X^x - X^y = S(t)(x - y) exactly
    a = np.array([[-1.0, 0.3], [0.0, -0.5]])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((2, 2))),
                      qwiener=diagonal_qwiener([1.0]),
                      sigma=PlainSigma(np.array([[1.0], [0.4]])),
                      drift=eng.ConstantDrift([0.2, -0.1]))
    x, y = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    dt, n_steps = 0.01, 150
    res = eng.simulate_pair_ensemble(sc, x, y, dt, n_steps, 8, 13,
                                     [n_steps * dt], keep_terminal=True)
    et = op.semigroup_matrix(dt)
    d = (x - y).copy()
    for _ in range(n_steps):
        d = et @ d
    gap = res.x_terminal - res.y_terminal
    assert np.allclose(gap, d, rtol=1e-12, atol=1e-14)


def test_deterministic_p1_has_zero_sample_variance(ou2d_decoupled):
    ens = eng.simulate_ensemble(ou2d_decoupled, np.array([5.0, 7.0]), 0.01, 300,
                                64, 3, [1.0, 3.0])
    p1 = ens.states[:, :, 1]
    assert np.all(p1 == 7.0)


def test_coupled_pair_tau_zero_is_identity(ou1d):
    out = coupled_pair(ou1d, np.array([1.0]), tau=0.0, dt=0.01, n_steps=100, seed=5)
    assert np.array_equal(out["x_path"], out["y_path"])


def test_coupled_pair_deterministic_flow_identity():
    # zero noise, linear flow: ||Y_t - X_{t+tau}|| = ||S(t)(x - X_tau)|| exactly
    a = np.array([[-1.0, 0.4], [0.0, -2.0]])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((2, 2))),
                      drift=eng.ConstantDrift([0.3, 0.1]))
    x = np.array([2.0, -1.0])
    dt, n_steps, tau = 0.01, 120, 0.4
    out = coupled_pair(sc, x, tau, dt, n_steps, seed=9)
    ts = out["tau_steps"]
    xp, yp = out["x_path"], out["y_path"]
    for k in (0, 30, 120):
        gap = yp[k] - xp[k + ts]
        want = op.apply_semigroup(k * dt, x - xp[ts])
        # the drift difference cancels pathwise for the affine flow
        assert np.allclose(np.linalg.norm(gap), np.linalg.norm(want), rtol=1e-10)


def test_coupled_ensemble_matches_coupled_pair(ou2d_decoupled):
    dt, n_steps, tau_steps = 0.01, 80, 20
    res = eng.simulate_coupled_ensemble(ou2d_decoupled, np.array([5.0, 7.0]),
                                        tau_steps, dt, n_steps, 3, 21,
                                        [n_steps * dt], keep_terminal=True)
    for i in range(3):
        out = coupled_pair(ou2d_decoupled, np.array([5.0, 7.0]), tau_steps * dt,
                           dt, n_steps, seed=21, traj_index=i)
        assert np.allclose(res.y_terminal[i], out["y_path"][-1], rtol=1e-12, atol=1e-13)
        assert np.allclose(res.x_terminal[i], out["x_path"][-1], rtol=1e-12, atol=1e-13)


def test_coupling_marginal_law_ks(ou2d_decoupled):
    dt, T, n = 1e-3, 1.5, 4000
    n_steps = int(T / dt)
    indep = eng.simulate_ensemble(ou2d_decoupled, np.array([5.0, 7.0]), dt, n_steps,
                                  n, 100, [T])
    res = eng.simulate_coupled_ensemble(ou2d_decoupled, np.array([5.0, 7.0]),
                                        int(0.5 / dt), dt, n_steps, n, 200, [T],
                                        keep_terminal=True)
    d = ks_statistic(res.y_terminal[:, 0], indep.states[-1][:, 0])
    assert d < ks_critical_value(n, n, alpha=0.01)


def test_lyapunov_probe_trivials(paper2x2):
    x = np.array([0.3, 1.0])
    assert eng.lyapunov_probe(paper2x2, x, x) == 0.0
    assert eng.lyapunov_bound(paper2x2, x, x) == 0.0


def test_lyapunov_linear_tight():
    a = -1.5 * np.eye(2)
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, hb.Projection(np.zeros((2, 2))), lambda1=0.0)
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((2, 2))), certificate=cert)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    val = eng.lyapunov_probe(sc, x, y)
    assert val == pytest.approx(-2 * 1.5 * 5.0, rel=1e-12)
    assert val <= eng.lyapunov_bound(sc, x, y) + 1e-9


def test_lyapunov_inequality_on_random_pairs(paper2x2):
    gen = np.random.Generator(np.random.Philox(2024))
    for _ in range(500):
        x, y = gen.standard_normal((2, 2)) * 2.0
        val = eng.lyapunov_probe(paper2x2, x, y)
        bound = eng.lyapunov_bound(paper2x2, x, y)
        assert val <= bound + 1e-8


def test_stability_check_equal_points(paper2x2):
    rep = eng.stability_check(paper2x2, [1.0, 2.0], [1.0, 2.0], 0.01, 50, 32, 7,
                              snapshot_times=[0.25, 0.5])
    assert rep.ok
    assert np.all(rep.lhs_mean == 0.0)


def test_stability_check_multiplicative_equality_case():
    # 1-D with sigma(x) = sqrt(L) x: E||dX||^2 = e^{-eps t}||dx||^2 exactly
    a = np.array([[-1.0]])
    lsig = 0.2
    op = hb.matrix_operator(hb.euclidean_space(1), a)
    p0 = hb.Projection(np.zeros((1, 1)))
    cert = make_certificate(a, p0, lambda1=0.0, L_sigma=lsig)
    sigma = eng.LinearSigma(tensors=np.array([[[np.sqrt(lsig)]]]),
                            offsets=np.zeros((1, 1)))
    sc = eng.Scenario(op=op, P1=p0, qwiener=diagonal_qwiener([1.0]), sigma=sigma,
                      certificate=cert)
    rep = eng.stability_check(sc, [2.0], [0.5], 1e-3, 4000, 10_000, 2718,
                              snapshot_times=np.arange(0.5, 4.01, 0.5))
    assert rep.ok
    # the bound is attained: the gap stays within Monte-Carlo noise of it
    rel = np.abs(rep.lhs_mean - rep.rhs) / rep.rhs
    within = np.abs(rep.lhs_mean - rep.rhs) <= 4.0 * (rep.lhs_se + 1e-4 * rep.rhs)
    assert within.all(), rel


def test_stability_check_block_scenario(paper2x2):
    rep = eng.stability_check(paper2x2, [2.0, 1.0], [-1.0, 1.0], 1e-3, 2000, 4000,
                              424242, snapshot_times=np.arange(0.25, 2.01, 0.25))
    assert rep.ok


def test_stability_check_requires_contraction(paper2x2):
    bad = eng.Scenario(op=paper2x2.op, P1=paper2x2.P1, qwiener=paper2x2.qwiener,
                       sigma=paper2x2.sigma, certificate=None)
    with pytest.raises(HypothesisViolated):
        eng.stability_check(bad, [1.0, 0.0], [0.0, 0.0], 0.01, 10, 4, 1, [0.1])


def test_blowup_raises_structured_error():
    op = hb.matrix_operator(hb.euclidean_space(1), [[5.0]])
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((1, 1))))
    with pytest.raises(NumericalBlowup) as exc:
        eng.simulate_ensemble(sc, np.array([1.0]), 1.0, 20, 2, 3, [20.0])
    assert 0 <= exc.value.step_index < 20


def test_jump_scenario_compensation_keeps_mean():
    # pure-jump OU: compensated jumps leave the mean on the deterministic flow
    a = np.array([[-1.0]])
    op = hb.matrix_operator(hb.euclidean_space(1), a)
    js = JumpSpec(5.0, MarkSampler(POINT_MASS, point=np.array([0.3])))
    cert = make_certificate(a, hb.Projection(np.zeros((1, 1))), lambda1=0.0)
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((1, 1))), jumps=js,
                      certificate=cert)
    T, dt, n = 2.0, 1e-3, 4000
    ens = eng.simulate_ensemble(sc, np.array([1.0]), dt, int(T / dt), n, 55, [T])
    xt = ens.states[-1][:, 0]
    se = xt.std(ddof=1) / np.sqrt(n)
    assert abs(xt.mean() - np.exp(-T)) <= 3 * se + 1e-3


def test_lipschitz_audit_accepts_and_rejects(paper2x2):
    report = paper2x2.lipschitz_audit()
    assert report["L_F"] <= 0.01 * 1.01
    a = paper2x2.op.generator
    bad_cert = make_certificate(a, paper2x2.P1, lambda1=1.5, L_F=0.0004)
    bad = eng.Scenario(op=paper2x2.op, P1=paper2x2.P1, qwiener=paper2x2.qwiener,
                       sigma=paper2x2.sigma, drift=paper2x2.drift,
                       certificate=bad_cert)
    with pytest.raises(HypothesisViolated):
        bad.lipschitz_audit()


def test_chunked_noise_equals_one_shot_stream():
    # generator streams concatenate across chunk boundaries
    g1 = substream(12, 3, 0)
    a = np.concatenate([g1.standard_normal((700, 2)), g1.standard_normal((324, 2))])
    g2 = substream(12, 3, 0)
    b = g2.standard_normal((1024, 2))
    assert np.array_equal(a, b)


def _small_hjmm():
    sp = hjmm.forward_space(3.0, n=256)
    sc = hjmm.hjmm_scenario(sp, hjmm.hjmm_example_volatility(sp, beta_prime=1000.0))
    return sp, sc, 0.05 + 0.04 * np.exp(-2.0 * sp.grid)


def test_grid_shift_ensemble_leaves_no_reference_cycles():
    sp, sc, h0 = _small_hjmm()
    gc.collect()
    gc.disable()
    try:
        eng.simulate_ensemble(sc, h0, sp.dx, 30, 4, 5, [30 * sp.dx])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stepped_drift_and_sigma_leave_no_reference_cycles(paper2x2):
    # the default coefficient hook; PlainSigma keeps the ensemble off the collapse
    sc = eng.Scenario(op=paper2x2.op, P1=paper2x2.P1, qwiener=paper2x2.qwiener,
                      sigma=PlainSigma(paper2x2.sigma.matrix), drift=paper2x2.drift)
    gc.collect()
    gc.disable()
    try:
        eng.simulate_ensemble(sc, np.array([0.5, -0.5]), 0.01, 30, 4, 5, [0.3])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hjmm_concurrent_blocks_match_single_thread(monkeypatch):
    sp, sc, h0 = _small_hjmm()
    n_steps, n_traj = 60, 24
    times = [20 * sp.dx, n_steps * sp.dx]
    assert eng._block_size(n_traj, sc.n_modes, sc.dim, 1) == n_traj
    whole = eng.simulate_ensemble(sc, h0, sp.dx, n_steps, n_traj, 31, times)
    # blocks of 5 trajectories, cut by either cap alone: 5 blocks, up to three
    # of them in flight at once
    caps = [("_BLOCK_CAP_BYTES", 5 * 8 * (2 * eng._CHUNK_STEPS + 6 * sp.dim)),
            ("_BLOCK_STATE_VALUES", 5 * sp.dim)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name, value in caps:
            with monkeypatch.context() as m:
                m.setattr(eng, name, value)
                assert eng._block_size(n_traj, sc.n_modes, sc.dim, 1) == 5
                for threads in (1, 2, 3):
                    ens = eng.simulate_ensemble(sc, h0, sp.dx, n_steps, n_traj, 31, times,
                                                threads=threads)
                    assert ens.states.tobytes() == whole.states.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_block_size_caps_state_values_per_system():
    # 2**16 state values per system: 32 curves on a 2,048-point grid
    assert eng._block_size(2000, 1, 2048, 1) == 32
    assert eng._block_size(64, 1, 2048, 1) == 32
    # at dim <= 8 the state cap never binds: c06's 2-D pair plan is the byte cap's
    assert eng._block_size(10_000, 2, 2, 2) == 3063
    assert eng._BLOCK_STATE_VALUES // 8 >= eng._MAX_BLOCK


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_block_plan_does_not_depend_on_threads(threads):
    # 70 forward curves on 2,048 points: blocks of 32, 32 and 6 at any thread count
    sp = hjmm.forward_space(3.0, n=2048)
    sc = hjmm.hjmm_scenario(sp, hjmm.hjmm_example_volatility(sp, beta_prime=1000.0))
    ls = eng._Lockstep(sc, sp.dx, [(np.full(sp.dim, 0.05), 0)], 0, 70, 3, [0.0])
    seen = []
    ls.run(lambda k, i, lo, hi, xs: seen.append((lo, hi)), threads)
    assert sorted(seen) == [(0, 32), (32, 64), (64, 70)]


def test_pair_sums_under_the_state_cap_do_not_depend_on_threads(paper2x2, monkeypatch):
    # blocks of 5 and 3 trajectories; the pair driver sums per block
    monkeypatch.setattr(eng, "_BLOCK_STATE_VALUES", 5 * 2)
    x, y, dt, n, traj, seed = np.array([1.5, -0.5]), np.array([-1.0, 0.5]), 1e-3, 300, 8, 19
    assert eng._block_size(traj, paper2x2.n_modes, paper2x2.dim, 2) == 5
    res = [eng.simulate_pair_ensemble(paper2x2, x, y, dt, n, traj, seed, [0.1, n * dt],
                                      keep_terminal=True, threads=threads)
           for threads in (1, 2)]
    for name in ("p1gap2_mean", "p1gap2_se", "gap2", "x_terminal", "y_terminal"):
        assert getattr(res[0], name).tobytes() == getattr(res[1], name).tobytes()


# The three ensemble drivers share one noise stream per trajectory: a pair or a
# coupling must reproduce independent runs bit for bit. 2,500 steps cross the
# 2,048-step noise chunk boundary.
N_PINNED = 2500


def _jump_ou():
    """diag(-1, 0) with Gaussian noise and Gaussian-mark jumps on coordinate 0."""
    a = np.diag([-1.0, 0.0])
    js = JumpSpec(2.0, MarkSampler(GAUSSIAN_MARK, mean=np.zeros(2),
                                         cov_diag=np.array([0.25, 0.0])))
    return eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(2), a),
                        P1=hb.coordinate_projection(2, [1]), qwiener=diagonal_qwiener([1.0]),
                        sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])), jumps=js,
                        scenario_id="jump-ou")


@pytest.fixture(params=["block2x2", "jump-ou"])
def pinned(request, paper2x2, monkeypatch):
    # blocks of 2-5 trajectories, so two threads run blocks concurrently
    monkeypatch.setattr(eng, "_BLOCK_CAP_BYTES", 3 * 8 * (4 * eng._CHUNK_STEPS + 12))
    return paper2x2 if request.param == "block2x2" else _jump_ou()


@pytest.mark.parametrize("threads", [1, 2])
def test_pair_terminals_equal_two_independent_runs(pinned, threads):
    x, y, dt, n, traj, seed = np.array([1.5, -0.5]), np.array([-1.0, 0.5]), 1e-3, N_PINNED, 8, 17
    res = eng.simulate_pair_ensemble(pinned, x, y, dt, n, traj, seed, [n * dt],
                                     keep_terminal=True, threads=threads)
    ex = eng.simulate_ensemble(pinned, x, dt, n, traj, seed, [n * dt], threads=threads)
    ey = eng.simulate_ensemble(pinned, y, dt, n, traj, seed, [n * dt], threads=threads)
    assert res.x_terminal.tobytes() == ex.states[-1].tobytes()
    assert res.y_terminal.tobytes() == ey.states[-1].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_coupled_x_terminal_equals_one_run_over_n_plus_tau(pinned, threads):
    x, dt, n, tau, traj, seed = np.array([1.5, -0.5]), 1e-3, N_PINNED, 300, 8, 23
    res = eng.simulate_coupled_ensemble(pinned, x, tau, dt, n, traj, seed, [n * dt],
                                        keep_terminal=True, threads=threads)
    ex = eng.simulate_ensemble(pinned, x, dt, n + tau, traj, seed, [(n + tau) * dt],
                               threads=threads)
    assert res.x_terminal.tobytes() == ex.states[-1].tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("split", [False, True], ids=["default-cap", "split-cap"])
@pytest.mark.parametrize("kind", ["ou-decoupled-2d", "block2x2", "jump-ou"])
def test_shared_noise_starts_equal_one_start_runs(paper2x2, monkeypatch, kind, split, threads):
    # ou-decoupled-2d collapses, sharing one noise contraction between the
    # starts; the other two step. Under the split cap one start runs in
    # blocks of 3 trajectories and three starts in blocks of 2, so this also
    # pins the rows' independence of the block plan.
    if kind == "ou-decoupled-2d":
        sc = scenarios.build_scenario(
            scenarios.load_document(os.path.join(SCEN, "ou-decoupled-2d.json")))
    else:
        sc = paper2x2 if kind == "block2x2" else _jump_ou()
    dt, n, traj, seed = 1e-3, N_PINNED, 8, 41
    if split:
        monkeypatch.setattr(eng, "_BLOCK_CAP_BYTES",
                            3 * 8 * (2 * eng._CHUNK_STEPS * sc.n_modes + 6 * sc.dim))
        assert [eng._block_size(traj, sc.n_modes, sc.dim, k) for k in (1, 3)] == [3, 2]
    times = [0.0, 1.0, n * dt]
    starts = [np.array([1.5, -0.5]), np.array([-1.0, 0.5]),
              np.linspace(-2.0, 2.0, 2 * traj).reshape(traj, 2)]
    ls = eng._Lockstep(sc, dt, [(x, 0) for x in starts], n, traj, seed, times)
    assert ls.fast == (kind == "ou-decoupled-2d")
    shared = eng.simulate_ensembles(sc, starts, dt, n, traj, seed, times, threads=threads)
    for x, ens in zip(starts, shared):
        one = eng.simulate_ensemble(sc, x, dt, n, traj, seed, times, threads=threads)
        assert ens.states.tobytes() == one.states.tobytes()
    obs = eng.simulate_ensembles(sc, starts, dt, n, traj, seed, times,
                                 observables={"x1": eng.obs_coordinate(1)}, threads=threads)
    for ens, o in zip(shared, obs):
        assert o.states is None
        assert o.observables["x1"].tobytes() == ens.states[:, :, 1].tobytes()


def test_simulate_ensembles_needs_a_start(ou1d):
    with pytest.raises(ContractViolation):
        eng.simulate_ensembles(ou1d, [], 0.01, 10, 4, 1, [0.1])


@pytest.mark.parametrize("driver", ["pair", "coupled"])
def test_lockstep_blowup_carries_trajectory_ids(driver):
    op = hb.matrix_operator(hb.euclidean_space(1), [[5.0]])
    sc = eng.Scenario(op=op, P1=hb.Projection(np.zeros((1, 1))))
    x = np.array([1.0])
    with pytest.raises(NumericalBlowup) as exc:
        if driver == "pair":
            eng.simulate_pair_ensemble(sc, x, 2 * x, 1.0, 20, 3, 7, [20.0])
        else:
            eng.simulate_coupled_ensemble(sc, x, 4, 1.0, 20, 3, 7, [20.0])
    assert exc.value.trajectory_ids == [0, 1, 2]
    assert 0 <= exc.value.step_index < 24


@pytest.mark.parametrize("n_steps, n_traj, tau", [(10, 0, 0), (-1, 4, 0), (10, 4, -1)])
def test_drivers_reject_empty_or_negative_sizes(ou1d, n_steps, n_traj, tau):
    x = np.array([1.0])
    with pytest.raises(ContractViolation):
        eng.simulate_coupled_ensemble(ou1d, x, tau, 0.01, n_steps, n_traj, 1, [0.0])
    if tau == 0:
        with pytest.raises(ContractViolation):
            eng.simulate_ensemble(ou1d, x, 0.01, n_steps, n_traj, 1, [0.0])
        with pytest.raises(ContractViolation):
            eng.simulate_pair_ensemble(ou1d, x, x, 0.01, n_steps, n_traj, 1, [0.0])


@pytest.mark.parametrize("bad", [1e300, eng.BLOWUP_NORM, -np.inf, np.nan])
@pytest.mark.parametrize("driver", ["ensemble", "per-trajectory", "pair", "coupled"])
def test_drivers_reject_an_initial_state_past_the_blowup_bound(ou2d_decoupled, driver, bad):
    # with zero steps no step's check runs, so only the initial check stops the run
    sc, ok, x = ou2d_decoupled, np.array([5.0, 7.0]), np.array([bad, 7.0])
    with pytest.raises(ContractViolation, match="blow-up bound"):
        if driver == "ensemble":
            eng.simulate_ensemble(sc, x, 0.01, 0, 2, 1, [0.0])
        elif driver == "per-trajectory":
            eng.simulate_ensemble(sc, np.stack([ok, x]), 0.01, 0, 2, 1, [0.0])
        elif driver == "pair":
            eng.simulate_pair_ensemble(sc, ok, x, 0.01, 0, 2, 1, [0.0])
        else:
            eng.simulate_coupled_ensemble(sc, x, 0, 0.01, 0, 2, 1, [0.0])


def test_an_initial_state_just_below_the_blowup_bound_runs(ou2d_decoupled):
    x = np.array([np.nextafter(eng.BLOWUP_NORM, 0.0), 7.0])
    ens = eng.simulate_ensemble(ou2d_decoupled, x, 0.01, 0, 2, 1, [0.0])
    assert np.array_equal(ens.states[0], [x, x])


def test_lockstep_blocks_in_flight_match_single_thread(pinned):
    # per-block partial sums and terminal slices written from three threads
    x, y, dt, n, traj, seed = np.array([1.5, -0.5]), np.array([-1.0, 0.5]), 1e-3, 300, 12, 29
    times = [0.1, 0.3]

    def run(threads):
        p = eng.simulate_pair_ensemble(pinned, x, y, dt, n, traj, seed, times,
                                       keep_terminal=True, threads=threads)
        c = eng.simulate_coupled_ensemble(pinned, x, 50, dt, n, traj, seed, times,
                                          keep_terminal=True, threads=threads)
        return [a.tobytes() for a in (p.p1gap2_mean, p.p1gap2_se, p.gap2, p.x_terminal,
                                      p.y_terminal, c.coupling_gap2, c.x_terminal, c.y_terminal)]

    whole = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run(3) == whole
    finally:
        sys.setswitchinterval(interval)


# The collapse draws each segment's noise as xi @ R, with R the triangular
# factor of the segment's raw-noise weights w, so it has exactly the law
# N(0, w^T w) of the per-step draws it replaces.


def _raw_noise_weights(sc, dt, L):
    """The weights w of the L m per-step standard normals of an L-step
    segment, built by stepping powers of the propagator, one mode at a time."""
    et = sc.op.semigroup_matrix(dt).T
    cols = sc.sigma.matrix.T * sc.qwiener.increment_std(dt)[:, None]     # (m, dim)
    rows, power = [], et
    for _ in range(L):               # the last step's normals see one propagator
        rows.append(cols @ power)
        power = power @ et
    return np.concatenate(rows[::-1])


def test_segment_factor_has_the_gram_matrix_of_the_raw_weights(ou1d, monkeypatch, tmp_path,
                                                               capsys):
    seen = []
    collapse_weights = eng._Lockstep._collapse_weights

    def spy(self, L):
        out = collapse_weights(self, L)
        seen.append((self.sc, self.rt.dt, L, out[1]))
        return out

    monkeypatch.setattr(eng._Lockstep, "_collapse_weights", spy)
    for name in sorted(os.listdir(SCEN)):
        for cmd in ("simulate", "lab", "ou-limit"):
            cli.run([cmd, os.path.join(SCEN, name), "--traj", "2",
                     "--out", str(tmp_path / f"{cmd}-{name}")])
    capsys.readouterr()
    # gdc-example-2x2 is noise-free, so its segments have no noise factor
    assert {sc.scenario_id for sc, *_, R in seen if R is None} == {"gdc-example-2x2"}
    assert {sc.scenario_id for sc, *_, R in seen if R is not None} == {
        "ou-decoupled-2d", "counterexample-antidissipative", "counterexample-kernel-noise"}
    # c03's 1-D OU: 10,000 steps as segments of 2,048 and 1,808
    eng._Lockstep(ou1d, 1e-3, [(np.array([1.0]), 0)], 10_000, 2, 1, [10.0])
    assert sorted(L for sc, _, L, _ in seen if sc is ou1d) == [1808, 2048]
    for sc, dt, L, R in (r for r in seen if r[3] is not None):
        w = _raw_noise_weights(sc, dt, L)
        assert R.shape == (min(w.shape), sc.dim)
        gram = w.T @ w
        assert np.abs(R.T @ R - gram).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("still", [0, 1])
def test_noise_free_coordinate_stays_exactly_constant(still):
    # a zero column of w gives a zero column of R, also as QR's first column
    a = np.diag([0.0, -1.0] if still == 0 else [-1.0, 0.0])
    cols = np.zeros((2, 1))
    cols[1 - still] = 1.0
    sc = eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(2), a),
                      P1=hb.coordinate_projection(2, [still]), qwiener=diagonal_qwiener([1.0]),
                      sigma=eng.ConstantSigma(cols))
    x, times = np.array([5.0, 7.0]), [0.01, 1.0, 3.0]
    ls = eng._Lockstep(sc, 0.01, [(x, 0)], 300, 64, 3, times)
    assert ls.fast and sorted(ls.weights) == [1, 99, 200]
    assert all(np.all(R[:, still] == 0.0) for _, R, _, _ in ls.weights.values())
    ens = eng.simulate_ensemble(sc, x, 0.01, 300, 64, 3, times)
    assert np.all(ens.states[:, :, still] == x[still])
    assert np.all(ens.states[:, :, 1 - still].std(axis=1) > 0)


def test_segment_shorter_than_the_state_draws_fewer_normals():
    # a 3-D state driven by one mode: the one-step segment has a 1 x 3 factor
    a = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -1.5]])
    sc = eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(3), a),
                      P1=hb.Projection(np.zeros((3, 3))), qwiener=diagonal_qwiener([2.0]),
                      sigma=eng.ConstantSigma(np.array([[1.0], [0.5], [0.2]])))
    x, dt, n, traj = np.array([1.0, -1.0, 0.5]), 0.01, 10, 20_000
    ls = eng._Lockstep(sc, dt, [(x, 0)], n, traj, 5, [dt, n * dt])
    assert ls.fast
    assert {L: R.shape for L, (_, R, _, _) in ls.weights.items()} == {1: (1, 3), 9: (3, 3)}
    assert [c[3] for c in ls.chunks] == [4]
    ens = eng.simulate_ensemble(sc, x, dt, n, traj, 5, [dt, n * dt])
    assert np.all(np.isfinite(ens.states))
    # after one step the noise lies on the line of w and has its variance
    w = _raw_noise_weights(sc, dt, 1)[0]
    inc = ens.states[0] - x @ ls.weights[1][0]
    assert np.abs(np.cross(inc, w)).max() <= 1e-12 * np.abs(inc).max()
    coef = inc @ w / (w @ w)
    assert coef.var() == pytest.approx(1.0, rel=0.05)


def test_collapsed_run_keys_each_trajectory_once(ou2d_decoupled, monkeypatch):
    calls = []
    stream_keys = eng.stream_keys

    def counting(seed, traj_ids, tag):
        calls.append((list(traj_ids), tag))
        return stream_keys(seed, traj_ids, tag)

    monkeypatch.setattr(eng, "stream_keys", counting)
    starts = [np.array([5.0, 7.0]), np.array([1.0, 3.0])]
    # 2,500 steps span two noise chunks, drawn in one call per trajectory
    eng.simulate_ensembles(ou2d_decoupled, starts, 1e-3, 2500, 300, 8, [1.0, 2.5])
    assert sorted(i for ids, _ in calls for i in ids) == list(range(300))
    assert {tag for _, tag in calls} == {STREAM_SEGMENT}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["collapse", "stepping"])
def test_block_draws_equal_each_trajectorys_substream_in_pieces(ou2d_decoupled, monkeypatch,
                                                                 kind, threads):
    # 16-step chunks: the collapse's budget of 16 normals splits its draws
    # (a stop every 2 steps makes 8 two-normal segments per chunk), and 50
    # steps of stepping span 4 chunks; blocks of 3 trajectories
    monkeypatch.setattr(eng, "_CHUNK_STEPS", 16)
    sc = ou2d_decoupled if kind == "collapse" else _jump_ou()
    monkeypatch.setattr(eng, "_BLOCK_CAP_BYTES", 3 * 8 * (2 * 16 * sc.n_modes + 6 * sc.dim))
    blocks = []

    class Spy(eng._BlockNoise):
        def __init__(self, sc, dt, n_steps, master_seed, traj_ids, segments=False):
            super().__init__(sc, dt, n_steps, master_seed, traj_ids, segments)
            self.ids, self.drawn = traj_ids, []
            blocks.append(self)

        def normals(self, n, more):
            out = super().normals(n, more)
            self.drawn.append(out)
            return out

    monkeypatch.setattr(eng, "_BlockNoise", Spy)
    dt, n, traj, seed = 0.01, 50, 7, 29
    times = np.arange(2, n + 1, 2) * dt
    assert eng._Lockstep(sc, dt, [(np.ones(2), 0)], n, traj, seed, times).fast == (kind == "collapse")
    eng.simulate_ensemble(sc, np.ones(2), dt, n, traj, seed, times, threads=threads)
    tag = STREAM_SEGMENT if kind == "collapse" else STREAM_GAUSS
    assert sorted(i for nb in blocks for i in nb.ids) == list(range(traj)) and len(blocks) == 3
    for nb in blocks:
        assert len(nb.drawn) >= (2 if kind == "collapse" else 3)
        for b, ti in enumerate(nb.ids):
            gen = substream(seed, ti, tag)
            for piece in nb.drawn:
                assert np.array_equal(piece[b], gen.standard_normal(piece.shape[1]))


def test_jump_scenario_ensemble_equals_the_reference_for_every_trajectory():
    # Gaussian noise and jumps over 2 full noise chunks and part of a third,
    # 5 trajectories in one block
    sc, x, dt, seed = _jump_ou(), np.array([1.5, -0.5]), 1e-3, 31
    n = 2 * eng._CHUNK_STEPS + 404
    times = [1.0, 2.5, n * dt]
    assert eng._block_size(5, sc.n_modes, sc.dim, 1) == 5
    ens = eng.simulate_ensemble(sc, x, dt, n, 5, seed, times)
    for j in range(5):
        path = sample_path(sc.qwiener, sc.jumps, dt, n, seed, traj_index=j)
        assert len(path.jump_steps) > 0
        hist = simulate_trajectory(sc, x, path)
        assert np.array_equal(ens.states[:, j], hist[[1000, 2500, n]])


# Two-sample KS at 10^5 trajectories per arm: the collapse under two segment
# plans against per-step stepping, which PlainSigma forces.
KS_TRAJ, KS_ALPHA = 100_000, 1e-4


@pytest.mark.parametrize("kind", ["ou-decoupled-2d", "ou1d"])
def test_collapsed_draws_have_the_law_of_stepping(kind, ou1d):
    if kind == "ou1d":
        sc = ou1d
    else:
        sc = scenarios.build_scenario(
            scenarios.load_document(os.path.join(SCEN, "ou-decoupled-2d.json")))
    step_sc = eng.Scenario(op=sc.op, P1=sc.P1, qwiener=sc.qwiener,
                           sigma=PlainSigma(sc.sigma.matrix))
    x, dt, n = np.full(sc.dim, 2.0), 0.005, 400
    three = [0.5, 1.2, n * dt]
    obs = {"x0": eng.obs_coordinate(0)}
    assert not eng._Lockstep(step_sc, dt, [(x, 0)], n, KS_TRAJ, 1, three).fast
    step = eng.simulate_ensemble(step_sc, x, dt, n, KS_TRAJ, 71, three, obs)
    crit = ks_critical_value(KS_TRAJ, KS_TRAJ, alpha=KS_ALPHA)
    for times, seed in (([n * dt], 72), (three, 73)):
        assert eng._Lockstep(sc, dt, [(x, 0)], n, KS_TRAJ, seed, times).fast
        ens = eng.simulate_ensemble(sc, x, dt, n, KS_TRAJ, seed, times, obs)
        got = ens.observables["x0"]
        want = step.observables["x0"][-len(times):]
        for g, w in zip(got, want):
            assert ks_statistic(g, w) < crit
