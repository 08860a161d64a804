import math

import numpy as np
import pytest

from spdelab import hilbert as hb
from spdelab.errors import CertificationFailed, ContractViolation
from spdelab.gdc import (certify_lambda0, fit_convergence, fit_exponential,
                         make_certificate, quadratic_form_audit)

A_BLOCK = np.array([[-1.0, 1.0], [0.0, 1.0]])
P_SECOND = hb.coordinate_projection(2, [1])


def test_certify_block_example():
    lam0 = certify_lambda0(A_BLOCK, P_SECOND, lambda1=1.5, tol=1e-10)
    assert lam0 == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("lambda1", [1e6, 1e9, 1e12, 1e14, 1e300])
def test_certify_block_example_at_large_lambda1(lambda1):
    # Sym(A) + l0 (I - P1) - l1 P1 = [[l0 - 1, 1/2], [1/2, 1 - l1]] is negative
    # semidefinite iff l0 <= 1 - 1 / (4 (l1 - 1)): below 1 however large l1 is
    lam0 = certify_lambda0(A_BLOCK, P_SECOND, lambda1=lambda1, tol=1e-10)
    assert lam0 == pytest.approx(1.0 - 1.0 / (4.0 * (lambda1 - 1.0)), abs=1e-10)


def test_certify_scaled_identity():
    a = -2.0 * np.eye(3)
    lam0 = certify_lambda0(a, hb.Projection(np.zeros((3, 3))), lambda1=0.0)
    assert lam0 == pytest.approx(2.0, abs=1e-8)


def test_certify_stops_when_tol_is_below_the_double_spacing():
    # near 10 adjacent doubles are 1.8e-15 apart, so the interval never
    # shrinks to tol = 1e-15; the bisection ends at adjacent doubles
    lam0 = certify_lambda0(-10.0 * np.eye(2), P_SECOND, lambda1=0.0, tol=1e-15)
    assert lam0 == pytest.approx(10.0, abs=1e-11)


def test_certify_matches_grid_search_oracle():
    # random symmetric generator, rank-one projection onto an eigenvector
    gen = np.random.Generator(np.random.Philox(97))
    q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    vals = np.array([-3.0, -1.2, -0.4, 0.9])
    a = q @ np.diag(vals) @ q.T
    v = q[:, 3]
    p1 = hb.Projection(np.outer(v, v))
    lambda1 = 1.0
    tol = 1e-9
    got = certify_lambda0(a, p1, lambda1=lambda1, tol=tol)

    # brute force: scan lambda0 densely, direct eigenvalue evaluation
    sym = 0.5 * (a + a.T)
    grid = np.linspace(tol, np.linalg.norm(sym, 2) + lambda1 + 1.0, 200_001)
    feasible = np.array([
        np.linalg.eigvalsh(sym + l0 * (np.eye(4) - p1.matrix) - lambda1 * p1.matrix)[-1] <= 1e-12
        for l0 in grid[:: len(grid) // 4000 or 1]])
    coarse = grid[:: len(grid) // 4000 or 1]
    best = coarse[feasible][-1]
    assert abs(got - best) <= (coarse[1] - coarse[0]) + 2 * tol


def test_certify_monotone_in_lambda1():
    # below lambda1 = 1.25 the expanding coordinate makes the block infeasible
    assert certify_lambda0(A_BLOCK, P_SECOND, lambda1=0.0) is None
    prev = -np.inf
    for lam1 in (1.3, 1.5, 2.0, 3.0):
        lam0 = certify_lambda0(A_BLOCK, P_SECOND, lambda1=lam1)
        # closed form from the 2x2 determinant: lambda0 = 1 - 1/(4 (lambda1 - 1))
        assert lam0 == pytest.approx(1.0 - 0.25 / (lam1 - 1.0), abs=1e-8)
        assert lam0 >= prev - 1e-9
        prev = lam0


def test_certify_infeasible_returns_none():
    a = np.array([[1.0]])     # strictly expanding, no projection help
    assert certify_lambda0(a, hb.Projection(np.zeros((1, 1))), lambda1=0.0) is None


def test_certify_rejects_nonsquare():
    with pytest.raises(ContractViolation):
        certify_lambda0(np.zeros((2, 3)), P_SECOND, 0.0)


def test_make_certificate_formulas():
    cert = make_certificate(A_BLOCK, P_SECOND, lambda1=1.5)
    assert cert.alpha == pytest.approx(0.5, abs=1e-9)
    assert cert.beta_const == pytest.approx(1.5, abs=1e-12)
    assert cert.epsilon == pytest.approx(1.0, abs=2e-9)
    assert cert.contractive
    assert cert.epsilon == 2.0 * cert.alpha - cert.lipschitz.L_sigma


def test_make_certificate_with_lipschitz_constants():
    cert = make_certificate(-2.0 * np.eye(2), hb.Projection(np.zeros((2, 2))),
                            lambda1=0.0, L_F=1.0, L_sigma=1.5)
    assert cert.lambda0 == pytest.approx(2.0, abs=1e-8)
    assert cert.alpha == pytest.approx(1.0, abs=1e-8)
    assert cert.beta_const == pytest.approx(1.0, abs=1e-8)
    assert cert.epsilon == pytest.approx(0.5, abs=1e-8)


def test_make_certificate_fails_when_lambda0_below_sqrt_lf():
    with pytest.raises(CertificationFailed):
        make_certificate(A_BLOCK, P_SECOND, lambda1=0.0, L_F=1.0)


def test_quadratic_form_audit_on_certificate():
    cert = make_certificate(A_BLOCK, P_SECOND, lambda1=1.5)
    worst = quadratic_form_audit(A_BLOCK, P_SECOND, cert.lambda0, cert.lambda1)
    assert worst <= 1e-8


def test_fit_convergence_exact_rate():
    op = hb.matrix_operator(hb.euclidean_space(2), np.diag([-1.0, 0.0]))
    p = hb.coordinate_projection(2, [1])
    fit = fit_convergence(op, p, np.linspace(0.25, 4.0, 12),
                          [np.array([1.0, 0.4]), np.array([-2.0, 1.0])])
    assert fit.rate == pytest.approx(1.0, abs=1e-6)
    assert fit.residual <= 1e-10


def test_fit_convergence_degenerate_sentinel():
    op = hb.matrix_operator(hb.euclidean_space(2), np.zeros((2, 2)))
    fit = fit_convergence(op, hb.identity_projection(2), np.linspace(0.5, 2.0, 5),
                          [np.array([1.0, 1.0])])
    assert math.isinf(fit.rate)


def test_fit_convergence_grid_shift_rate():
    sp = hb.hbeta_grid_space(2.0, 20.0, 2048)
    op = hb.shift_operator(sp)
    p = hb.long_rate_projection(sp)
    probes = [np.exp(-1.01 * sp.grid) + 0.2, np.exp(-1.5 * sp.grid) - 0.1,
              np.exp(-2.5 * sp.grid)]
    t_grid = np.arange(1, 9) * (64 * sp.dx)
    fit = fit_convergence(op, p, t_grid, probes)
    assert fit.rate >= 2.0 / 2 - 0.05


def test_fit_convergence_input_contracts():
    op = hb.matrix_operator(hb.euclidean_space(1), [[-1.0]])
    p = hb.Projection(np.zeros((1, 1)))
    with pytest.raises(ContractViolation):
        fit_convergence(op, p, [0.1, 0.2, 0.3], [np.array([1.0])])   # too few points
    with pytest.raises(ContractViolation):
        fit_convergence(op, p, [0.1, 0.2, 0.3, 0.4], [np.array([0.0])])  # zero probe


def test_fit_exponential_exact_data():
    t = np.linspace(0.0, 3.0, 7)
    fit = fit_exponential(t, 2.5 * np.exp(-1.7 * t))
    assert fit.rate == pytest.approx(1.7, rel=1e-12)
    assert fit.prefactor == pytest.approx(2.5, rel=1e-12)
    assert fit.residual <= 1e-12
    assert fit.n_points == 7


def test_fit_exponential_drops_nonpositive_values():
    t = np.arange(8.0)
    v = 3.0 * np.exp(-0.5 * t)
    v[[1, 4, 6]] = [0.0, -1.0, 0.0]
    fit = fit_exponential(t, v)
    assert fit.n_points == 5
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)


def test_fit_exponential_needs_four_positive_values():
    with pytest.raises(ContractViolation):
        fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
    with pytest.raises(ContractViolation):
        fit_exponential([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.0, 0.125, -1.0])
