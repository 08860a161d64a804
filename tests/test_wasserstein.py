import itertools

import numpy as np
import pytest

from spdelab.errors import BudgetExceeded, ContractViolation
from spdelab.wasserstein import (EmpiricalLaw, ks_critical_value, ks_statistic,
                                 w2_1d, w2_1d_to_gaussian, w2_assignment)


def test_w2_1d_identical_multisets():
    x = np.array([3.0, -1.0, 2.0])
    assert w2_1d(x, np.array([-1.0, 2.0, 3.0])) == 0.0


def test_w2_1d_point_masses():
    a = np.full(10, 1.5)
    b = np.full(10, -0.5)
    assert w2_1d(a, b) == pytest.approx(2.0)


def test_w2_1d_gaussian_oracle():
    gen = np.random.Generator(np.random.Philox(1))
    a = gen.normal(0.0, 1.0, 10_000)
    b = gen.normal(2.0, 2.0, 10_000)
    exact = np.sqrt((0.0 - 2.0) ** 2 + (1.0 - 2.0) ** 2)
    assert w2_1d(a, b) == pytest.approx(exact, abs=0.05)


def test_w2_1d_contracts():
    with pytest.raises(ContractViolation):
        w2_1d(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractViolation):
        w2_1d(np.zeros((3, 2)), np.zeros((3, 2)))


def test_assignment_equals_sort_in_1d():
    gen = np.random.Generator(np.random.Philox(2))
    a = gen.standard_normal(64)
    b = gen.standard_normal(64) + 0.5
    assert w2_assignment(a, b) == pytest.approx(w2_1d(a, b), abs=1e-12)


def test_assignment_matches_brute_force_permutations():
    gen = np.random.Generator(np.random.Philox(3))
    for _ in range(100):
        n = int(gen.integers(2, 7))
        a = gen.standard_normal((n, 2))
        b = gen.standard_normal((n, 2))
        got = w2_assignment(a, b)
        best = min(np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1))
                   for perm in itertools.permutations(range(n)))
        assert got == pytest.approx(np.sqrt(best), abs=1e-10)


def test_assignment_zero_iff_equal_multisets():
    gen = np.random.Generator(np.random.Philox(4))
    a = gen.standard_normal((12, 3))
    perm = gen.permutation(12)
    assert w2_assignment(a, a[perm]) == 0.0
    b = a.copy()
    b[0, 0] += 1e-3
    assert w2_assignment(a, b) > 0.0


def test_assignment_budget_error():
    with pytest.raises(BudgetExceeded):
        w2_assignment(np.zeros((513, 2)), np.zeros((513, 2)))


def test_metric_axioms_on_random_triples():
    gen = np.random.Generator(np.random.Philox(5))
    for _ in range(100):
        a, b, c = (EmpiricalLaw(gen.standard_normal((8, 2))) for _ in range(3))
        dab = w2_assignment(a, b)
        dba = w2_assignment(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        dac, dcb = w2_assignment(a, c), w2_assignment(c, b)
        assert dab <= dac + dcb + 1e-9


def test_mean_separation_lower_bound():
    gen = np.random.Generator(np.random.Philox(6))
    for _ in range(50):
        a = gen.standard_normal((32, 2))
        b = gen.standard_normal((32, 2)) + gen.standard_normal(2)
        gap = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        assert w2_assignment(a, b) >= gap - 1e-9


def test_empirical_to_gaussian_consistency():
    gen = np.random.Generator(np.random.Philox(7))
    errs = []
    for n in (100, 10_000):
        med = np.median([w2_1d_to_gaussian(gen.normal(0.5, 2.0, n), 0.5, 2.0)
                         for _ in range(5)])
        errs.append(med)
    assert errs[1] < errs[0]


def test_ks_statistic_and_threshold():
    gen = np.random.Generator(np.random.Philox(8))
    a = gen.standard_normal(4000)
    b = gen.standard_normal(4000)
    assert ks_statistic(a, b) < ks_critical_value(4000, 4000, alpha=0.01)
    c = gen.standard_normal(4000) + 1.0
    assert ks_statistic(a, c) > ks_critical_value(4000, 4000, alpha=0.01)
    assert ks_critical_value(10_000, 10_000, 0.01) == pytest.approx(0.02302, abs=2e-4)
