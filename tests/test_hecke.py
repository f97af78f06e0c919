"""Hecke algebra over Z[v, v^-1], canonical basis, KL polynomials."""

import itertools
import random
import re
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ihkl import complexes, coxeter, flagfq, hecke
from ihkl.cli import main
from ihkl.coxeter import (Permutation, all_elements, bruhat_leq, from_word,
                          identity, longest_element, reduced_words, simple)
from ihkl.errors import ComputationError, InternalConsistencyError
from ihkl.hecke import (HeckeElement, LaurentPoly, cprime, ic_stalk_dims,
                        iota, kl_bott_samelson, kl_interval, kl_recursion,
                        kl_table, t_inverse, t_mul)


def T(w):
    return HeckeElement.t(w)


def test_laurent_arithmetic():
    a = LaurentPoly({2: 1, 0: -1})
    b = LaurentPoly({-2: 1, 0: 1})
    assert (a * b) == LaurentPoly({4: 0, 2: 1, 0: 0, -2: -1})
    assert a.bar() == LaurentPoly({-2: 1, 0: -1})
    assert LaurentPoly({1: 1, -1: 1}).is_palindromic()
    assert not a.is_palindromic()
    assert a.subs_q(3) == 2  # v^2 = 3


def test_laurent_formatting():
    assert LaurentPoly({-2: 1, 2: 1}).format() == "v^-2+v^2"
    assert LaurentPoly({0: 1, 2: 1}).to_q().format("q") == "1+q"
    assert LaurentPoly({0: 1}).format() == "1"
    assert LaurentPoly({1: -2, 3: 1}).format() == "-2*v+v^3"


def test_a_laurent_poly_refuses_what_is_not_an_integer():
    """Arithmetic is exact: a fractional coefficient or exponent is refused,
    not truncated, and an integral value of another type is read as its int."""
    for coeffs, entry in [({0: 1.5}, "entry 0: 1.5"), ({0.5: 1}, "entry 0.5: 1"),
                          ({0: Fraction(3, 2)}, "entry 0: Fraction(3, 2)")]:
        with pytest.raises(ComputationError, match=re.escape(entry + " is not an integer")):
            LaurentPoly(coeffs)
    with pytest.raises(ComputationError, match=re.escape("entry 0: 2.7 is not an integer")):
        HeckeElement(3, {identity(3): 2.7})
    assert LaurentPoly({0: Fraction(4, 2), 2.0: 3}) == LaurentPoly({0: 2, 2: 3})


def test_a_constant_laurent_poly_is_its_int_on_either_side():
    """A constant equals its int and hashes as it, so a set or a dict holds one of
    the two; int arithmetic works from the left as from the right."""
    for c in (0, 1, -3):
        p = LaurentPoly({0: c})
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1
    p = LaurentPoly({1: 1, 0: 2})
    assert 1 + p == p + 1 == LaurentPoly({1: 1, 0: 3})
    assert 1 - p == -(p - 1) == LaurentPoly({1: -1, 0: -1})
    assert sum([p, p]) == 2 * p == p * 2


def test_arithmetic_with_what_is_not_an_int_or_a_laurent_poly_is_a_type_error():
    """+ and * give the other operand its turn (NotImplemented), so a Fraction, a
    float or a str is a TypeError, not an AttributeError on its missing ``_c``."""
    p = LaurentPoly({1: 1})
    for call in (lambda: p + Fraction(1, 2), lambda: p * 1.5, lambda: p + 1.0,
                 lambda: 1.0 - p, lambda: p * "a"):
        with pytest.raises(TypeError):
            call()
    assert p + 1 == LaurentPoly({1: 1, 0: 1})
    assert 1 - p == LaurentPoly({1: -1, 0: 1})
    assert sum([p, p]) == LaurentPoly({1: 2})


def test_quadratic_relation():
    for n in (2, 3, 4):
        for i in range(1, n):
            s = simple(i, n)
            lhs = t_mul(T(s), T(s))
            rhs = T(s).scale(LaurentPoly({2: 1, 0: -1})) + \
                HeckeElement.unit(n).scale(LaurentPoly({2: 1}))
            assert lhs == rhs, (n, i)


def test_braid_relation():
    s1, s2 = simple(1, 3), simple(2, 3)
    aba = t_mul(t_mul(T(s1), T(s2)), T(s1))
    bab = t_mul(t_mul(T(s2), T(s1)), T(s2))
    assert aba == bab


def test_length_additivity():
    for u in all_elements(3):
        for w in all_elements(3):
            prod = t_mul(T(u), T(w))
            if u.length() + w.length() == (u * w).length():
                assert prod == T(u * w), (u, w)
            else:
                assert prod != T(u * w), (u, w)


def test_t_inverse_contract():
    for n in (3, 4):
        for w in all_elements(n):
            assert t_mul(T(w), t_inverse(w)) == HeckeElement.unit(n)
            assert t_mul(t_inverse(w), T(w)) == HeckeElement.unit(n)


def test_associativity_random_triples():
    rng = random.Random(5)
    elems = all_elements(3)
    for _ in range(10):
        a = T(rng.choice(elems)).scale(LaurentPoly({rng.randint(-2, 2): 1}))
        b = T(rng.choice(elems)) + HeckeElement.unit(3)
        c = T(rng.choice(elems)).scale(LaurentPoly({0: rng.randint(-3, 3)}))
        assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))


def test_iota_is_an_involution_and_antihomomorphism_fixes_cprime():
    """iota fixes every C'_w of S_5 from either route; no route runs it."""
    rng = random.Random(9)
    elems = all_elements(3)
    for _ in range(8):
        a = HeckeElement(3, {rng.choice(elems): LaurentPoly({rng.randint(-2, 2): 1}),
                             rng.choice(elems): LaurentPoly({0: 1, 1: 1})})
        assert iota(iota(a)) == a
    for w in all_elements(5):
        for alg in ("bott_samelson", "recursion"):
            c = cprime(w, alg).cprime
            assert iota(c) == c, (w, alg)


def hecke_elements(n):
    """Up to three T-basis terms of S_n with small Laurent coefficients."""
    perms = st.permutations(range(1, n + 1)).map(lambda x: Permutation(tuple(x)))
    polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)
    return st.dictionaries(perms, polys.map(LaurentPoly), max_size=3).map(
        lambda terms: HeckeElement(n, terms))


ELEMENT_AND_SIMPLES = st.integers(3, 4).flatmap(lambda n: st.tuples(
    hecke_elements(n), st.integers(1, n - 1), st.integers(1, n - 1)))


@seed(16)
@settings(max_examples=60)
@given(ELEMENT_AND_SIMPLES)
def test_t_mul_quadratic_and_braid_relations_on_random_elements(drawn):
    a, i, j = drawn
    ti, tj = T(simple(i, a.n)), T(simple(j, a.n))

    def mul(*factors):
        return reduce(t_mul, factors)

    assert mul(a, ti, ti) == mul(a, ti).scale(LaurentPoly({2: 1, 0: -1})) + \
        a.scale(LaurentPoly({2: 1}))
    assert mul(ti, ti, a) == mul(ti, a).scale(LaurentPoly({2: 1, 0: -1})) + \
        a.scale(LaurentPoly({2: 1}))
    if abs(i - j) == 1:
        assert mul(a, ti, tj, ti) == mul(a, tj, ti, tj)
        assert mul(ti, tj, ti, a) == mul(tj, ti, tj, a)
    else:
        assert mul(a, ti, tj) == mul(a, tj, ti)
        assert mul(ti, tj, a) == mul(tj, ti, a)


@seed(17)
@settings(max_examples=40)
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(*[hecke_elements(n)] * 3)))
def test_t_mul_is_associative_on_random_elements(drawn):
    a, b, c = drawn
    assert t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c))


def test_cprime_simple_reflection():
    s = simple(1, 2)
    c = cprime(s).cprime
    assert c == HeckeElement(2, {s: LaurentPoly({-1: 1}),
                                 identity(2): LaurentPoly({-1: 1})})


def test_kl_table_s3_all_one():
    table = kl_table(3, algorithm="both")
    assert len(table) == 19
    assert all(p == 1 for p in table.values())


def test_kl_table_s4_values():
    table = kl_table(4, algorithm="both")
    assert len(table) == 213
    one = LaurentPoly({0: 1})
    oneplusq = LaurentPoly({0: 1, 1: 1})
    assert set(table.values()) == {one, oneplusq}
    nontrivial = sorted((u.word, w.word) for (u, w), p in table.items()
                        if p == oneplusq)
    # exactly the singular Schubert varieties 3412 and 4231
    assert nontrivial == [
        ((1, 2, 3, 4), (3, 4, 1, 2)), ((1, 2, 3, 4), (4, 2, 3, 1)),
        ((1, 2, 4, 3), (4, 2, 3, 1)), ((1, 3, 2, 4), (3, 4, 1, 2)),
        ((2, 1, 3, 4), (4, 2, 3, 1)), ((2, 1, 4, 3), (4, 2, 3, 1))]


@pytest.mark.parametrize("algorithm", ["bott_samelson", "recursion", "both"])
def test_an_interval_is_the_whole_table_cut_to_it(algorithm):
    """kl_interval(u, w) is the whole S_4 table kept to u <= x <= y <= w, for
    every u <= w: the path that built the table and then cut it."""
    table = kl_table(4, algorithm)
    for u, w in itertools.product(all_elements(4), repeat=2):
        if bruhat_leq(u, w):
            want = {(x, y): p for (x, y), p in table.items()
                    if bruhat_leq(u, x) and bruhat_leq(y, w)}
            assert kl_interval(u, w, algorithm) == want, (u, w)


@pytest.fixture
def fresh_recursion():
    """The recursion route's memo of checked results, cleared before and after a
    test that plants a fault in ``_kl_polys``: no result of the fault outlives it,
    and none made before it hides it."""
    hecke._recursion.cache_clear()
    yield
    hecke._recursion.cache_clear()


def test_both_mode_compares_the_routes_on_the_interval_pairs_alone(monkeypatch, fresh_recursion):
    """A recursion table with P_{e,3412} = 1 in place of 1 + q still passes the
    route's own check; both mode names that pair wherever the interval holds it,
    and an interval without it is left alone."""
    real, e, w = hecke._kl_polys, identity(4), Permutation((3, 4, 1, 2))

    def wrong(x):
        return {**real(x), e.word: hecke.ONE} if x == w.word else real(x)

    for y in all_elements(4):   # every S_4 table memoised, so none is made from the wrong one
        real(y.word)
    monkeypatch.setattr(hecke, "_kl_polys", wrong)
    assert kl_interval(e, w, "recursion")[(e, w)] == 1
    for top in (w, longest_element(4)):
        with pytest.raises(InternalConsistencyError,
                           match=re.escape("KL algorithm disagreement at: (1234,3412)")):
            kl_interval(e, top, "both")
    u = Permutation((1, 3, 2, 4))
    assert kl_interval(u, w, "both")[(u, w)] == LaurentPoly({0: 1, 1: 1})


def test_bott_samelson_word_independence():
    for w in all_elements(4):
        if w.length() < 2:
            continue
        words = reduced_words(w)
        base = kl_bott_samelson(words[0], 4)
        for word in words[1:]:
            assert kl_bott_samelson(word, 4).cprime == base.cprime, (w, word)


def test_bott_samelson_other_reduced_word_is_not_memoised():
    w = from_word((1, 2, 1), 3)
    assert w.reduced_word() != (2, 1, 2)
    for u in all_elements(3):
        cprime(u)   # the corrections below hit memoised results only
    before = hecke._bott_samelson.cache_info().currsize
    assert kl_bott_samelson((2, 1, 2), 3).cprime == cprime(w).cprime
    assert hecke._bott_samelson.cache_info().currsize == before


def test_a_warm_recursion_table_runs_no_check(monkeypatch):
    """The recursion route keeps its checked result per element, as
    Bott-Samelson does: a second table checks nothing, and the first checks
    each of the 24 elements of S_4 once."""
    before, real, checked = kl_table(4, "recursion"), hecke._check_kl, []
    monkeypatch.setattr(hecke, "_check_kl", lambda w, table: checked.append(w) or real(w, table))
    assert kl_table(4, "recursion") == before and checked == []
    hecke._recursion.cache_clear()
    assert kl_table(4, "recursion") == before
    assert sorted(checked, key=lambda w: w.word) == sorted(all_elements(4), key=lambda w: w.word)


def test_the_recursion_computes_one_polynomial_per_coset():
    """At the first right descent s of w, y and ys hold the same polynomial
    object: P_{y,w} = P_{ys,w} is computed once."""
    for w in all_elements(4):
        i, table = coxeter._first_descent(w.word), hecke._kl_polys(w.word)
        for y, p in table.items():
            assert i is None or table[coxeter._swap(y, i)] is p, (w, y)


def test_every_cache_clears_and_recomputes_the_same_table():
    before = kl_table(4, algorithm="both")
    caches = (hecke._bott_samelson, hecke._kl_polys, hecke._recursion, hecke._perm,
              hecke._iota_t, complexes.vkey, coxeter.all_elements, coxeter._bruhat_leq,
              flagfq.enumerate_flags, flagfq._cells,
              flagfq._structure_constants)
    for cache in caches:
        cache.cache_clear()
        assert cache.cache_info().currsize == 0, cache
    assert kl_table(4, algorithm="both") == before


def test_bott_samelson_rejects_non_reduced_word():
    with pytest.raises(ComputationError):
        kl_bott_samelson((1, 1), 3)


def test_bott_samelson_corrections_are_palindromic():
    res = kl_bott_samelson((2, 1, 3, 2), 4)
    for p in res.corrections.values():
        assert p.is_palindromic()


def test_degree_bounds_and_normalization():
    for w in all_elements(4):
        res = kl_recursion(w)
        for u, p in res.kl_polys.items():
            assert bruhat_leq(u, w)
            assert all(c > 0 for c in p.coeffs.values()), (u, w)
            assert p.coefficient(0) == 1, (u, w)
            if u != w:
                assert 2 * (p.max_degree() or 0) <= w.length() - u.length() - 1
        assert res.kl_polys[w] == LaurentPoly({0: 1})
    # full support: every u <= w appears
    w0 = longest_element(4)
    assert len(kl_recursion(w0).kl_polys) == 24


def test_ic_stalk_dims():
    s = simple(1, 2)
    assert ic_stalk_dims(identity(2), s) == {-1: 1}
    u = Permutation((1, 3, 2, 4))
    w = Permutation((3, 4, 1, 2))
    assert ic_stalk_dims(u, w) == {-4: 1, -2: 1}
    assert ic_stalk_dims(longest_element(3), simple(1, 3)) == {}
    # a plain dict, empty exactly off the Bruhat order: P_{u,w}(0) = 1, so
    # every pair u <= w has a stalk in degree -l(w)
    els = all_elements(4)
    for u, w in itertools.product(els, els):
        table = ic_stalk_dims(u, w)
        assert type(table) is dict
        assert (table == {}) == (not bruhat_leq(u, w)), (u, w)
        assert not table or table[-w.length()] == 1


def test_cprime_reaches_each_route_through_its_public_entry(monkeypatch):
    """Counting wrappers put where perfbench's trace puts its own see every
    cprime call of their route, and kl_table(3, "both") once per element of S_3."""
    calls = {"kl_bott_samelson": [], "kl_recursion": []}
    for name, seen in calls.items():
        real = getattr(hecke, name)
        monkeypatch.setattr(hecke, name,
                            lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    w = Permutation((3, 4, 1, 2))
    assert cprime(w) is cprime(w, "bott_samelson")
    assert calls["kl_bott_samelson"] == [(w.reduced_word(), 4)] * 2
    assert calls["kl_recursion"] == []
    cprime(w, "recursion")
    assert calls["kl_recursion"] == [(w,)]
    for seen in calls.values():
        seen.clear()
    kl_table(3, "both")
    assert [len(seen) for seen in calls.values()] == [6, 6]
    assert {a[0] for a in calls["kl_recursion"]} == set(all_elements(3))


def test_kl_table_rejects_unknown_algorithm():
    with pytest.raises(ComputationError):
        kl_table(3, algorithm="magic")


def test_hecke_element_rejects_a_term_of_the_wrong_rank():
    with pytest.raises(ComputationError, match="wrong rank"):
        HeckeElement(3, {identity(4): 1})
    with pytest.raises(ComputationError, match="wrong rank"):
        HeckeElement(4, {identity(4): 1, simple(1, 3): LaurentPoly({1: 2})})


def test_terms_view_round_trips_every_cprime_in_s4():
    for w in all_elements(4):
        for alg in ("bott_samelson", "recursion"):
            e = cprime(w, alg).cprime
            assert HeckeElement(4, e.terms) == e, (w, alg)
            assert all(isinstance(u, Permutation) and u.n == 4 for u in e.terms)
    with pytest.raises(TypeError):
        e.terms[w] = LaurentPoly({0: 1})


def test_single_elements_work_past_the_enumeration_bound():
    for n in (7, 9):
        with pytest.raises(ComputationError, match="limited to n <= 6"):
            kl_table(n)
    w = from_word((1, 2, 1, 4), 9)
    bs, rec = cprime(w, "bott_samelson"), cprime(w, "recursion")
    assert bs.kl_polys == rec.kl_polys
    assert len(bs.kl_polys) == 12 and all(p == 1 for p in bs.kl_polys.values())


def test_hecke_element_formatting():
    s1 = simple(1, 3)
    e = T(s1).scale(LaurentPoly({2: 1, 0: -1})) + HeckeElement.unit(3)
    text = e.format()
    assert "T:213" in text and "T:123" in text


def test_kl_results_are_read_only_so_the_memo_stays_right():
    w = Permutation((3, 4, 1, 2))
    res = cprime(w)
    for view in (res.kl_polys, res.corrections, cprime(w, "recursion").kl_polys):
        with pytest.raises(AttributeError):
            view.clear()
        with pytest.raises(TypeError):
            view[w] = LaurentPoly({0: 2})
    assert ic_stalk_dims(identity(4), w) == {-2: 1, -4: 1}


def test_a_laurent_poly_is_immutable_so_the_kl_memos_stay_right():
    w, e = Permutation((3, 4, 1, 2)), identity(4)

    def snapshot():
        return ([{u: dict(p.coeffs) for u, p in cprime(w, alg).kl_polys.items()}
                 for alg in ("bott_samelson", "recursion")],
                {k: dict(p.coeffs) for k, p in kl_table(4).items()})

    before = snapshot()
    for p in (cprime(w).kl_polys[e], cprime(w, "recursion").kl_polys[e],
              kl_table(4)[(e, w)]):
        with pytest.raises(TypeError):
            p.coeffs[1] = 7
        with pytest.raises(AttributeError):
            p.coeffs.clear()
        for name in ("coeffs", "_c"):
            with pytest.raises(AttributeError):
                setattr(p, name, {1: 7})
    assert snapshot() == before
    assert ic_stalk_dims(e, w) == {-2: 1, -4: 1}


def test_a_hecke_element_is_immutable_so_the_memoised_cprime_still_adds():
    w = Permutation((3, 4, 1, 2))
    for e in (cprime(w).cprime, cprime(w, "recursion").cprime, HeckeElement.t(w),
              HeckeElement(4, {w: 2})):
        for name, value in (("n", 3), ("_coeffs", {}), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(e, name, value)
        assert e.n == 4
    total = cprime(w).cprime + HeckeElement.t(w)
    assert total.terms[w] == LaurentPoly({0: 1, -4: 1})
    assert total - HeckeElement.t(w) == cprime(w).cprime


def test_check_kl_wants_p_w_w_and_the_degree_bound():
    w = Permutation((3, 4, 1, 2))
    good = {u.word: p for u, p in cprime(w).kl_polys.items()}
    assert dict(hecke._check_kl(w, good)) == dict(cprime(w).kl_polys)
    e = identity(4).word
    for bad, why in [({x: p for x, p in good.items() if x != w.word}, "P_{w,w}"),
                     ({**good, w.word: LaurentPoly({0: 2})}, "P_{w,w}"),
                     ({**good, e: LaurentPoly({0: 1, 2: 1})}, "degree bound"),
                     ({**good, e: LaurentPoly()}, "degree bound")]:
        with pytest.raises(InternalConsistencyError, match=re.escape(why)):
            hecke._check_kl(w, bad)


def test_a_recursion_that_drops_e_v_s_fails_at_run_time(monkeypatch, fresh_recursion):
    """The planted fault builds [e, w] as [e, v] alone, leaving out [e, v]s,
    and so loses P_{w,w}; the route's check refuses it."""
    real = hecke._kl_polys

    def dropped(x):
        i = coxeter._first_descent(x)
        return real(x) if i is None else {
            y: p for y, p in real(x).items() if y in dropped(coxeter._swap(x, i))}

    real.cache_clear()
    monkeypatch.setattr(hecke, "_kl_polys", dropped)
    try:
        with pytest.raises(InternalConsistencyError, match=re.escape("P_{w,w} != 1")):
            kl_recursion(Permutation((3, 4, 1, 2)))
    finally:
        real.cache_clear()


def test_single_element_work_is_bounded_by_the_largest_table_interval():
    """[e, w] may hold 6! = 720 elements, as w0 of S_6 does, and no more."""
    start = time.perf_counter()
    hecke._check_work(Permutation((6, 5, 4, 3, 2, 1, 7)))
    for w in (Permutation((6, 5, 4, 3, 2, 7, 1)), longest_element(7),
              longest_element(100)):
        for call in (lambda: cprime(w), lambda: cprime(w, "recursion"),
                     lambda: kl_recursion(w), lambda: ic_stalk_dims(identity(w.n), w),
                     lambda: kl_bott_samelson(w.reduced_word(), w.n)):
            with pytest.raises(ComputationError, match="more than 720 elements"):
                call()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("algorithm, name, old, new", [
    # T_s in place of T_s + 1 in the Bott-Samelson product: the table is {w: 1}
    ("bott_samelson", "_extract_bott_samelson",
     "e = _mul_right_simple(e, i) + e", "e = _mul_right_simple(e, i)"),
    # one member of each coset {y, ys} alone: the table keeps w and loses e
    ("recursion", "_kl_polys", "out[y] = out[_swap(y, i)] = p", "out[y] = p"),
], ids=["bott-samelson-t-s", "recursion-e-v-s-alone"])
def test_a_table_without_lower_elements_fails_at_run_time(plant, fresh_recursion,
                                                          algorithm, name, old, new):
    """Both faults keep P_{w,w} = 1 and the degree bound; P_{e,w} is what they lose."""
    hecke._bott_samelson.cache_clear()
    plant(hecke, name, old, new)
    try:
        for w in (Permutation((2, 1, 3)), Permutation((3, 4, 1, 2))):
            with pytest.raises(InternalConsistencyError, match=re.escape("no P_{e,w}")):
                cprime(w, algorithm)
    finally:
        hecke._bott_samelson.cache_clear()


def test_a_bott_samelson_coefficient_off_z_q_fails_at_run_time(plant):
    """v^(1-l) in place of v^(-l) leaves C'_w times v^l(w) off Z[v^2]: reading
    P_{u,w} off in q refuses the odd power of v."""
    hecke._bott_samelson.cache_clear()
    plant(hecke, "_extract_bott_samelson", "LaurentPoly({-len(word): 1})",
          "LaurentPoly({1 - len(word): 1})")
    try:
        # w0 meets it first at C'_e, which its corrections are built on
        for w in (identity(3), longest_element(3)):
            with pytest.raises(InternalConsistencyError, match=re.escape(
                    "C'_123: exponent 1: element does not lie in Z[q]")):
                cprime(w, "bott_samelson")
    finally:
        hecke._bott_samelson.cache_clear()


def test_an_internal_consistency_error_is_exit_3_and_one_line(plant, fresh_recursion, capsys):
    """The recursion fault above, met through the command line: exit 3, nothing
    on stdout and one line on stderr."""
    plant(hecke, "_kl_polys", "out[y] = out[_swap(y, i)] = p", "out[y] = p")
    assert main(["kl", "--rank", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal consistency error:") and err.count("\n") == 1, err


REFUSED_PRODUCT = "the product walks more than 10800 elements, the limit for one Hecke product"


def test_a_product_past_the_work_bound_is_refused_before_any_product():
    """The walk of T_w from the support of the left factor holds the support of
    every partial product; past MAX_PRODUCT_WORK walked elements in all,
    summed over the terms of the right factor, t_mul refuses at once."""
    assert hecke.MAX_PRODUCT_WORK == 10800
    cp6 = cprime(longest_element(6)).cprime   # 720 terms; 3,888,000 elements to walk
    for a, b in [(T(longest_element(n)),) * 2 for n in (10, 100)] + [(cp6, cp6)]:
        start = time.perf_counter()
        with pytest.raises(ComputationError, match=re.escape(REFUSED_PRODUCT)):
            t_mul(a, b)
        assert time.perf_counter() - start < 1
    # T at w0 of S_6 walked from all of S_6 is the most work let through
    assert len(t_mul(cp6, T(longest_element(6))).terms) == 720
    # within the bound, and anywhere in S_n for n <= 6, the product is made
    s1 = T(simple(1, 8))
    assert t_mul(s1, s1) == s1.scale(LaurentPoly({2: 1, 0: -1})) + HeckeElement.unit(8).scale(
        LaurentPoly({2: 1}))
    w6 = T(longest_element(6))
    assert len(t_mul(w6, w6).terms) == 720


@pytest.mark.parametrize("call, message", [
    (lambda: T(identity(2)) + T(identity(3)), "rank mismatch"),
    (lambda: t_mul(T(identity(2)), T(identity(3))), "rank mismatch"),
    (lambda: LaurentPoly({1: 1}).subs_q(2), "odd exponent 1: element does not lie in Z[v^2]"),
    (lambda: LaurentPoly({1: 1}).to_q(), "exponent 1: element does not lie in Z[q]"),
    (lambda: LaurentPoly({-2: 1}).to_q(), "exponent -2: element does not lie in Z[q]"),
], ids=["sum-rank-mismatch", "product-rank-mismatch", "subs-q-odd", "to-q-odd", "to-q-negative"])
def test_bad_hecke_arguments_are_refused(call, message):
    with pytest.raises(ComputationError, match="^%s$" % re.escape(message)):
        call()
