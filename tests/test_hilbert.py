import numpy as np
import pytest

from spdelab import hilbert as hb
from spdelab.errors import ContractViolation


def test_euclidean_orthonormal_basis():
    sp = hb.euclidean_space(2)
    assert sp.inner([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert sp.inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_dimension_mismatch():
    sp = hb.euclidean_space(2)
    with pytest.raises(ContractViolation):
        sp.inner([1.0, 0.0, 0.0], [1.0, 0.0])


def test_hbeta_constant_curve_norm_is_its_value():
    sp = hb.hbeta_grid_space(1.0, 20.0, 500)
    h = np.full(sp.dim, 3.0)
    assert sp.norm(h) == pytest.approx(3.0, abs=1e-14)


def test_hbeta_norm_matches_closed_form_integral():
    # h = e^{-x} + 2 with beta = 1: ||h||^2 = 4 + int e^{-2x} e^x dx = 5
    sp = hb.hbeta_grid_space(1.0, 25.0, 2600)
    h = np.exp(-sp.grid) + 2.0
    assert sp.norm2(h) == pytest.approx(5.0, abs=1e-3)


def test_hbeta_norm_monotone_in_beta():
    grid_args = dict(x_max=20.0, n=800)
    gen = np.random.Generator(np.random.Philox(3))
    amp = gen.standard_normal(3) * 0.2
    for b1, b2 in [(0.5, 1.0), (1.0, 2.5), (2.5, 3.0)]:
        s1 = hb.hbeta_grid_space(b1, **grid_args)
        s2 = hb.hbeta_grid_space(b2, **grid_args)
        h = sum(a * np.exp(-(2.0 + i) * s1.grid) for i, a in enumerate(amp))
        assert s1.norm(h) <= s2.norm(h) + 1e-12


def test_projection_idempotent_and_self_adjoint():
    sp = hb.euclidean_space(3)
    p = hb.coordinate_projection(3, [0, 2])
    p.validate(sp)
    gen = np.random.Generator(np.random.Philox(11))
    X = gen.standard_normal((100, 3))
    PX = p.apply(X)
    assert np.abs(p.apply(PX) - PX).max() <= 1e-10 * (1 + np.abs(X).max())


def test_projection_rejects_non_idempotent():
    with pytest.raises(ContractViolation):
        hb.Projection(np.array([[0.5, 0.0], [0.0, 1.0]])).validate(hb.euclidean_space(2))


def test_long_rate_projection_self_adjoint_in_hbeta():
    sp = hb.hbeta_grid_space(2.0, 10.0, 300)
    p = hb.long_rate_projection(sp)
    p.validate(sp)
    h = np.exp(-2.0 * sp.grid) + 0.7
    ph = p.apply(h)
    assert np.allclose(ph, 0.7 + np.exp(-20.0))


def test_project_trivial_cases():
    sp = hb.euclidean_space(2)
    x = np.array([3.0, 4.0])
    assert np.array_equal(hb.identity_projection(2).apply(x), x)
    assert np.array_equal(hb.Projection(np.zeros((2, 2))).apply(x), np.zeros(2))
    assert np.array_equal(hb.coordinate_projection(2, [1]).apply(x),
                          np.array([0.0, 4.0]))


def test_semigroup_identity_and_paper_block():
    a = np.array([[-1.0, 1.0], [0.0, 1.0]])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    x = np.array([0.3, -0.8])
    assert np.array_equal(op.apply_semigroup(0.0, x), x)
    # explicit exponential of the block: entries e^{-t}, (e^t - e^{-t})/2, 0, e^t
    got = op.apply_semigroup(1.0, np.array([1.0, 0.0]))
    assert got == pytest.approx([np.exp(-1.0), 0.0], abs=1e-12)
    got = op.apply_semigroup(1.0, np.array([0.0, 1.0]))
    assert got == pytest.approx([np.sinh(1.0), np.exp(1.0)], rel=1e-12)


def test_matrix_semigroup_law_on_random_vectors():
    gen = np.random.Generator(np.random.Philox(17))
    a = gen.standard_normal((3, 3))
    op = hb.matrix_operator(hb.euclidean_space(3), a)
    for _ in range(20):
        t, s = gen.random(2) * 2.0
        x = gen.standard_normal(3)
        lhs = op.apply_semigroup(t + s, x)
        rhs = op.apply_semigroup(t, op.apply_semigroup(s, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(x) * np.exp(4.0)


def test_grid_shift_semigroup_law_exact_on_cell_multiples():
    sp = hb.hbeta_grid_space(1.0, 10.0, 400)
    op = hb.shift_operator(sp)
    gen = np.random.Generator(np.random.Philox(23))
    x = gen.standard_normal(sp.dim)
    t, s = 7 * sp.dx, 12 * sp.dx
    lhs = op.apply_semigroup(t + s, x)
    rhs = op.apply_semigroup(t, op.apply_semigroup(s, x))
    assert np.array_equal(lhs, rhs)


def test_grid_shift_matches_analytic_shift():
    sp = hb.hbeta_grid_space(1.0, 20.0, 2401)   # spacing < 0.01
    op = hb.shift_operator(sp)
    h = np.exp(-sp.grid)
    got = op.apply_semigroup(0.5, h)
    want = np.exp(-0.5) * np.exp(-sp.grid)
    inside = sp.grid <= sp.grid[-1] - 0.5
    assert np.abs(got[inside] - want[inside]).max() <= 1e-4


def test_grid_shift_preserves_constants_exactly():
    sp = hb.hbeta_grid_space(2.0, 10.0, 256)
    op = hb.shift_operator(sp)
    c = np.full(sp.dim, 0.37)
    for t in (0.0, sp.dx, 3.7 * sp.dx, 5.0):
        assert np.array_equal(op.apply_semigroup(t, c), c)


def test_grid_shift_generator_kills_constants():
    sp = hb.hbeta_grid_space(2.0, 10.0, 128)
    op = hb.shift_operator(sp)
    a = op.generator_matrix()
    assert np.abs(a @ np.full(sp.dim, 1.3)).max() == 0.0


def test_weighted_space_inner_and_adjoint():
    sp = hb.weighted_space([0.25, 0.75])
    x, y = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    assert sp.inner(x, y) == pytest.approx(0.25 * 3.0 - 0.75 * 2.0)
    m = np.array([[0.0, 1.0], [2.0, -1.0]])
    ms = sp.adjoint(m)
    assert sp.inner(m @ x, y) == pytest.approx(sp.inner(x, ms @ y))


@pytest.mark.parametrize("cells,zero_weight", [(1.0, True), (3.0, True), (1.5, False),
                                               (7.25, False), (300.0, True)])
def test_grid_shift_in_place_matches_out_of_place(cells, zero_weight):
    sp = hb.hbeta_grid_space(2.0, 10.0, 257)
    op = hb.shift_operator(sp)
    t = cells * sp.dx
    k, w = op.shift_plan(t)
    assert k >= 1 and (w == 0.0) == zero_weight
    X = np.random.Generator(np.random.Philox(4)).standard_normal((6, sp.dim))
    want = op.apply_semigroup_rows(t, X)
    Y = X.copy()
    got = op.apply_semigroup_rows(t, Y, out=Y)
    assert got is Y and np.array_equal(got, want)


def test_matrix_semigroup_in_place_matches_out_of_place(paper2x2):
    X = np.random.Generator(np.random.Philox(5)).standard_normal((7, 2))
    want = paper2x2.op.apply_semigroup_rows(0.3, X)
    Y = X.copy()
    assert paper2x2.op.apply_semigroup_rows(0.3, Y, out=Y) is Y
    assert np.array_equal(Y, want)
