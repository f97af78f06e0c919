"""Hecke algebra over Z[v, v^-1], canonical basis, KL polynomials."""

import random
import re
import time
from functools import reduce

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ihkl import complexes, coxeter, flagfq, hecke
from ihkl.coxeter import (Permutation, all_elements, bruhat_leq, from_word,
                          identity, longest_element, reduced_words, simple)
from ihkl.errors import ComputationError, InternalConsistencyError
from ihkl.hecke import (HeckeElement, LaurentPoly, cprime, ic_stalk_dims,
                        iota, kl_bott_samelson, kl_recursion, kl_table,
                        t_inverse, t_mul)


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


def test_every_cache_clears_and_recomputes_the_same_table():
    before = kl_table(4, algorithm="both")
    caches = (hecke._bott_samelson, hecke._kl_polys,
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
    bad = ic_stalk_dims(longest_element(3), simple(1, 3))
    assert bad == {} and not bad.comparable


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


def test_a_recursion_that_drops_e_v_s_fails_at_run_time(monkeypatch):
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
