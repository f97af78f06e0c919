"""Finite-field flag variety oracle: flags, cells, convolution."""

import random
import time

import pytest

from ihkl.coxeter import (Permutation, all_elements, identity,
                          longest_element, simple)
from ihkl.errors import ComputationError
from ihkl.flagfq import (WFunction, convolve, enumerate_flags, permuted_flag,
                         relative_position, rref, schubert_cell_sizes,
                         standard_flag, verify_hecke_specialization)


def flag_count(n, q):
    """Product formula: [n]_q! = prod (q^i - 1) / (q - 1)."""
    total = 1
    for i in range(1, n + 1):
        total *= (q ** i - 1) // (q - 1)
    return total


def test_rref_canonical():
    assert rref(((2, 4), (1, 2)), 5) == ((1, 2),)
    assert rref(((0, 1), (1, 0)), 2) == ((1, 0), (0, 1))
    assert rref((), 3) == ()


def test_flag_counts():
    assert len(enumerate_flags(2, 2)) == 3
    assert len(enumerate_flags(2, 3)) == 4
    assert len(enumerate_flags(3, 2)) == 21
    assert len(enumerate_flags(3, 3)) == flag_count(3, 3)
    assert len(enumerate_flags(4, 2)) == flag_count(4, 2)


def test_relative_position_calibration():
    for n, q in ((2, 3), (3, 2), (3, 5), (4, 2)):
        base = standard_flag(n, q)
        for w in all_elements(n):
            assert relative_position(base, permuted_flag(w, q)) == w, (n, q, w)


def test_relative_position_symmetry():
    flags = enumerate_flags(3, 2)
    rng = random.Random(3)
    for _ in range(30):
        f1, f2 = rng.choice(flags), rng.choice(flags)
        assert relative_position(f1, f2) == relative_position(f2, f1).inverse()


def test_relative_position_diagonal_is_identity():
    for f in enumerate_flags(3, 2):
        assert relative_position(f, f) == identity(3)


def test_relative_position_g_invariance():
    # translating both flags by a random invertible matrix preserves position
    from ihkl.flagfq import FullFlag, rref as _rref

    def act(g, f, q):
        steps = []
        for step in f.steps:
            rows = tuple(tuple(sum(g[i][k] * v[k] for k in range(f.n)) % q
                               for i in range(f.n)) for v in step)
            steps.append(_rref(rows, q))
        return FullFlag(f.n, q, tuple(steps))

    n, q = 3, 3
    flags = enumerate_flags(n, q)
    rng = random.Random(17)
    mats = []
    while len(mats) < 4:
        g = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
               - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
               + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])) % q
        if det:
            mats.append(g)
    for g in mats:
        for _ in range(10):
            f1, f2 = rng.choice(flags), rng.choice(flags)
            assert relative_position(act(g, f1, q), act(g, f2, q)) == \
                relative_position(f1, f2)


def test_schubert_cell_sizes_are_q_powers():
    for n, q in ((3, 2), (3, 3)):
        sizes = schubert_cell_sizes(n, q)
        assert len(sizes) == 6
        for w, size in sizes.items():
            assert size == q ** w.length(), (n, q, w)
        assert sum(sizes.values()) == flag_count(n, q)


def test_convolution_unit():
    e = WFunction.t(identity(3))
    f = WFunction.t(Permutation((3, 1, 2)))
    assert convolve(e, f, 3, 2) == f
    assert convolve(f, e, 3, 2) == f


def test_convolution_associativity():
    a = WFunction.t(simple(1, 3))
    b = WFunction.t(simple(2, 3))
    c = WFunction.t(longest_element(3))
    lhs = convolve(convolve(a, b, 3, 2), c, 3, 2)
    rhs = convolve(a, convolve(b, c, 3, 2), 3, 2)
    assert lhs == rhs


def test_convolution_quadratic_relation():
    # T_s * T_s = (q - 1) T_s + q T_e at q = 3
    s = WFunction.t(simple(1, 3))
    prod = convolve(s, s, 3, 3).as_dict()
    assert prod == {simple(1, 3): 2, identity(3): 3}


def test_specialization_q_equals_group_algebra_limit():
    # at q = 2 the length-additive products are exact: T_s1 T_s2 = T_s1s2
    rep = verify_hecke_specialization(3, 2)
    assert rep.passed
    assert rep.checked == 36


def test_specialization_sweep_small():
    for n, q in ((2, 2), (2, 3), (2, 5), (3, 3)):
        rep = verify_hecke_specialization(n, q)
        assert rep.passed, rep.render_text()
    assert "pairs match" in rep.render_text()
    data = rep.to_json()
    assert data["passed"] and data["mismatches"] == []


def test_specialization_n4_q2():
    # 315 flags; every structure constant is counted once for all 576 pairs
    rep = verify_hecke_specialization(4, 2)
    assert rep.passed, rep.render_text()
    assert rep.checked == 576


def test_bounds_enforced():
    # [6]_2! = 615,195 and [5]_3! = 251,680 flags, past the 15,120 budget
    with pytest.raises(ComputationError):
        enumerate_flags(6, 2)
    with pytest.raises(ComputationError):
        schubert_cell_sizes(5, 3)
    with pytest.raises(ComputationError):
        enumerate_flags(3, 11)
    with pytest.raises(ComputationError):
        enumerate_flags(3, 4)  # not prime


def test_sweep_budget_refuses_before_enumerating():
    # 2,080 flags at (4, 3), but a sweep of 2 * 4! * 2,080 = 99,840 positions
    start = time.perf_counter()
    with pytest.raises(ComputationError, match="relative positions"):
        verify_hecke_specialization(4, 3)
    with pytest.raises(ComputationError, match="relative positions"):
        convolve(WFunction.t(identity(4)), WFunction.t(identity(4)), 4, 3)
    assert time.perf_counter() - start < 1
