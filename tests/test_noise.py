import numpy as np
import pytest

from reference import sample_path, shift_view
from spdelab.engine import MAX_TRAJ
from spdelab.errors import ContractViolation
from spdelab.noise import (MarkSampler, POINT_MASS, GAUSSIAN_MARK, STREAM_GAUSS, STREAM_JUMP,
                           STREAM_SEGMENT, UNIFORM_MARK, JumpSpec, diagonal_qwiener,
                           stream_keys, substream)
from spdelab import hilbert as hb
from spdelab.scenarios import build_jumps


def make_jumps(rate=2.0, z=(1.0, -0.5)):
    return JumpSpec(rate, MarkSampler(POINT_MASS, point=np.array(z)))


def test_no_jumps_when_rate_zero():
    # no jumps is None: a JumpSpec needs a positive rate, and a document's
    # rate 0 builds none
    with pytest.raises(ContractViolation):
        make_jumps(rate=0.0)
    doc = {"builder": "additive", "rate": 0.0,
           "marks": {"kind": "point-mass", "point": [1.0, -0.5]}}
    assert build_jumps(doc, hb.euclidean_space(2)) is None
    p = sample_path(diagonal_qwiener([1.0, 2.0]), None, 0.01, 50, seed=1)
    assert len(p.jump_steps) == 0


def test_zero_eigenvalues_give_zero_increments():
    p = sample_path(diagonal_qwiener([0.0, 0.0]), None, 0.01, 50, seed=1)
    assert np.all(p.gaussian == 0.0)


def test_increment_variance_matches_dt():
    # pooled increments across paths: Var = dt * lambda within 3e-4
    dt, lam = 0.01, 1.0
    incs = []
    for i in range(2000):
        p = sample_path(diagonal_qwiener([lam]), None, dt, 50, seed=99, traj_index=i)
        incs.append(p.gaussian[:, 0])
    incs = np.concatenate(incs)
    assert incs.var() == pytest.approx(dt * lam, abs=3e-4)
    assert abs(incs.mean()) <= 3 * np.sqrt(dt / len(incs))


def test_regeneration_is_bit_exact():
    qw = diagonal_qwiener([1.0, 0.5])
    js = make_jumps()
    a = sample_path(qw, js, 0.02, 200, seed=1234, traj_index=7)
    b = sample_path(qw, js, 0.02, 200, seed=1234, traj_index=7)
    assert np.array_equal(a.gaussian, b.gaussian)
    assert np.array_equal(a.jump_steps, b.jump_steps)
    assert np.array_equal(a.jump_marks, b.jump_marks)


def test_different_trajectories_differ():
    a = sample_path(diagonal_qwiener([1.0]), None, 0.02, 100, seed=1234, traj_index=0)
    b = sample_path(diagonal_qwiener([1.0]), None, 0.02, 100, seed=1234, traj_index=1)
    assert not np.array_equal(a.gaussian, b.gaussian)


def test_shift_view_zero_is_identity():
    p = sample_path(diagonal_qwiener([1.0]), make_jumps(), 0.01, 100, seed=5)
    assert shift_view(p, 0) is p


def test_shift_view_increments_match_parent_exactly():
    p = sample_path(diagonal_qwiener([1.0]), make_jumps(), 0.01, 120, seed=6)
    v = shift_view(p, 30)
    assert v.n_steps == 90
    assert np.shares_memory(v.gaussian, p.gaussian)
    assert np.array_equal(v.gaussian, p.gaussian[30:])
    back = v.jump_steps + 30
    keep = p.jump_steps >= 30
    assert np.array_equal(back, p.jump_steps[keep])
    assert np.array_equal(v.jump_marks, p.jump_marks[keep])


def test_shift_view_composition():
    p = sample_path(diagonal_qwiener([1.0]), make_jumps(), 0.01, 100, seed=7)
    v1 = shift_view(shift_view(p, 20), 30)
    v2 = shift_view(p, 50)
    assert np.array_equal(v1.gaussian, v2.gaussian)
    assert np.array_equal(v1.jump_steps, v2.jump_steps)


def test_shift_view_out_of_range():
    p = sample_path(diagonal_qwiener([1.0]), None, 0.01, 10, seed=8)
    with pytest.raises(ContractViolation):
        shift_view(p, 11)


def test_gauss_and_jump_streams_uncorrelated():
    n = 10_000
    g_sum = np.empty(n)
    j_cnt = np.empty(n)
    for i in range(n):
        p = sample_path(diagonal_qwiener([1.0]), make_jumps(rate=3.0), 0.05, 20,
                        seed=42, traj_index=i)
        g_sum[i] = p.gaussian.sum()
        j_cnt[i] = len(p.jump_steps)
    corr = np.corrcoef(g_sum, j_cnt)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_jump_counts_are_poisson_with_the_right_mean():
    rate, dt, n_steps, n = 3.0, 0.05, 20, 4000
    counts = np.array([len(sample_path(None, make_jumps(rate=rate), dt, n_steps,
                                       seed=4242, traj_index=i).jump_steps)
                       for i in range(n)])
    lam = rate * dt * n_steps
    assert counts.mean() == pytest.approx(lam, abs=3 * np.sqrt(lam / n))
    assert counts.var() == pytest.approx(lam, rel=0.1)


def test_compensation_mean_zero():
    # sum of jump contributions minus dt * compensator has mean ~ 0 per step
    rate, dt, n_steps, n = 4.0, 0.05, 10, 3000
    js = make_jumps(rate=rate, z=(0.7,))
    total = np.zeros(n)
    for i in range(n):
        p = sample_path(None, js, dt, n_steps, seed=515, traj_index=i)
        total[i] = p.jump_marks.sum() - dt * n_steps * rate * 0.7
    se = total.std(ddof=1) / np.sqrt(n)
    assert abs(total.mean()) <= 3 * se


def test_mark_samplers_and_closed_form_cf():
    gen = substream(0, 0, 0)
    gm = MarkSampler(GAUSSIAN_MARK, mean=np.array([1.0, -1.0]),
                     cov_diag=np.array([0.25, 1.0]))
    s = gm.sample(gen, 20_000)
    assert np.allclose(s.mean(axis=0), [1.0, -1.0], atol=0.05)
    assert np.allclose(s.var(axis=0), [0.25, 1.0], atol=0.05)
    um = MarkSampler(UNIFORM_MARK, lo=np.array([0.0, 3.0]), hi=np.array([2.0, 3.0]))
    assert um.mark_mean() == pytest.approx([1.0, 3.0])
    # a zero frequency, and a zero width at any frequency, give exactly 1
    assert um.cf(np.zeros((1, 2)))[0] == 1.0
    assert gm.cf(np.zeros((1, 2)))[0] == 1.0
    assert abs(um.cf(np.array([[0.0, 0.7]]))[0]) == 1.0
    # the closed forms against the sample means of exp(i <v, z>)
    V = np.array([[0.3, -0.2], [1.1, 0.4], [-2.0, 0.05]])
    for m in (gm, um, MarkSampler(POINT_MASS, point=np.array([0.5, 2.0]))):
        z = m.sample(gen, 20_000)
        emp = np.exp(1j * (z @ V.T)).mean(axis=0)
        assert np.all(np.abs(m.cf(V) - emp) <= 3.0 / np.sqrt(len(z)))


def test_jump_spec_moments_against_closed_form():
    sp = hb.euclidean_space(2)
    js = make_jumps(rate=2.0, z=(1.0, -0.5))
    assert js.second_moment(sp) == pytest.approx(2.0 * 1.25)
    # rate (||E z||^2 + the marks' variances), in a weighted geometry too
    w = hb.weighted_space([0.5, 2.0])
    gm = JumpSpec(3.0, MarkSampler(GAUSSIAN_MARK, mean=np.array([1.0, -1.0]),
                                   cov_diag=np.array([0.25, 1.0])))
    assert gm.second_moment(w) == pytest.approx(3.0 * (0.5 * 1.25 + 2.0 * 2.0))
    um = JumpSpec(1.0, MarkSampler(UNIFORM_MARK, lo=np.zeros(2), hi=np.array([2.0, 0.0])))
    assert um.second_moment(sp) == pytest.approx(4.0 / 3.0)
    comp = js.compensator_rows(np.zeros((3, 2)))
    assert np.allclose(comp, 2.0 * np.array([1.0, -0.5]))


def test_qwiener_rejects_negative_eigenvalues():
    with pytest.raises(ContractViolation):
        diagonal_qwiener([-0.5])


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1, 2**130 + 99])
def test_stream_keys_equal_seed_sequence_spawn_keys(seed):
    ids = [0, 1, 65_536, MAX_TRAJ - 1]
    for tag in (STREAM_GAUSS, STREAM_JUMP, STREAM_SEGMENT):
        keys = stream_keys(seed, np.array(ids), tag)
        assert keys.dtype == np.uint64 and keys.shape == (len(ids), 2)
        for key, ti in zip(keys, ids):
            ss = np.random.SeedSequence(seed, spawn_key=(ti, tag))
            assert np.array_equal(key, ss.generate_state(2, np.uint64))
            assert np.array_equal(substream(seed, ti, tag).bit_generator.random_raw(8),
                                  np.random.Philox(ss).random_raw(8))


def test_a_negative_seed_fails_as_seed_sequence_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-3, spawn_key=(0, STREAM_GAUSS))
    with pytest.raises(ValueError):
        stream_keys(-3, np.arange(2), STREAM_GAUSS)
    with pytest.raises(ValueError):
        substream(-3, 0, STREAM_GAUSS)
