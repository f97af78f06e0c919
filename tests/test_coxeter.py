"""Symmetric group combinatorics: lengths, words, Bruhat order."""

import itertools
import time

import pytest

from ihkl.coxeter import (MAX_ENUMERATE, Permutation, all_elements, bruhat_interval,
                          bruhat_leq, bruhat_leq_subword, from_word, identity,
                          longest_element, parse_element, reduced_words, simple)
from ihkl.errors import ComputationError, UsageError


def inversions_oracle(w):
    word = w.word
    return sum(1 for i, j in itertools.combinations(range(len(word)), 2)
               if word[i] > word[j])


def test_basic_arithmetic():
    e = identity(3)
    s1, s2 = simple(1, 3), simple(2, 3)
    assert s1 * s1 == e
    assert (s1 * s2).word == (2, 3, 1)
    assert (s2 * s1).word == (3, 1, 2)
    assert (s1 * s2 * s1).word == (3, 2, 1)
    assert (s1 * s2).inverse() == s2 * s1


def test_lengths_match_inversion_count():
    for n in (2, 3, 4):
        for w in all_elements(n):
            assert w.length() == inversions_oracle(w)


def test_longest_element():
    w0 = longest_element(4)
    assert w0.word == (4, 3, 2, 1)
    assert w0.length() == 6
    assert all(w.length() <= 6 for w in all_elements(4))


def test_descents():
    w = from_word((1, 2, 1), 3)
    assert w.word == (3, 2, 1)
    assert w.right_descents() == [1, 2]
    assert identity(4).right_descents() == []


def test_reduced_words():
    w0 = longest_element(3)
    assert reduced_words(w0) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_words(identity(3)) == [()]
    for word in reduced_words(Permutation((3, 4, 1, 2))):
        assert from_word(word, 4).word == (3, 4, 1, 2)
        assert len(word) == 4


def test_word_round_trip():
    for w in all_elements(4):
        assert from_word(w.reduced_word(), 4) == w
        assert len(w.reduced_word()) == w.length()


def test_bruhat_small_chains():
    e = identity(3)
    s1 = simple(1, 3)
    w0 = longest_element(3)
    assert bruhat_leq(e, s1) and bruhat_leq(s1, w0) and bruhat_leq(e, w0)
    assert not bruhat_leq(w0, s1)
    assert not bruhat_leq(simple(1, 3), simple(2, 3))


def test_bruhat_incomparable_pair_in_s4():
    u = Permutation((3, 4, 1, 2))
    w = Permutation((4, 2, 1, 3))
    assert u.length() == 4 and w.length() == 4
    assert not bruhat_leq(u, w) and not bruhat_leq(w, u)


def test_bruhat_lifting_agrees_with_subword_oracle():
    count = 0
    for n in (2, 3, 4):
        for u in all_elements(n):
            for w in all_elements(n):
                got = bruhat_leq(u, w)
                assert got == bruhat_leq_subword(u, w), (u, w)
                if n == 4 and got:
                    count += 1
    assert count == 213  # comparable pairs in S4, including equalities


def test_bruhat_interval():
    assert len(bruhat_interval(longest_element(3))) == 6
    below = bruhat_interval(Permutation((3, 1, 2)))
    assert sorted(x.word for x in below) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)]


def test_all_elements_refuses_large_ranks_before_enumerating():
    start = time.perf_counter()
    for n in (MAX_ENUMERATE + 1, 12):
        with pytest.raises(ComputationError, match="limited to n <= 8") as info:
            all_elements(n)
        assert "\n" not in str(info.value)
    with pytest.raises(ComputationError):
        bruhat_interval(identity(MAX_ENUMERATE + 1))
    assert time.perf_counter() - start < 1
    # single elements stay usable at any rank
    w = from_word((1, 2, 1, 4, 11), 12)
    assert w.length() == 5
    assert bruhat_leq(simple(4, 12), w) and not bruhat_leq(w, simple(4, 12))
    assert bruhat_leq_subword(simple(4, 12), w)
    assert not bruhat_leq(simple(3, 12), w)
    assert not bruhat_leq_subword(simple(3, 12), w)


def test_bruhat_walks_a_long_word_without_recursing():
    # l(w0) = 1,225 lifting steps in S_50, once one Python frame each
    n = 50
    w0 = from_word([i for k in range(1, n) for i in range(k, 0, -1)], n)
    assert w0 == longest_element(n)
    assert bruhat_leq(simple(1, n), w0) and bruhat_leq_subword(simple(1, n), w0)
    assert not bruhat_leq(w0, simple(1, n)) and not bruhat_leq_subword(w0, simple(1, n))
    assert bruhat_leq(w0, w0) and bruhat_leq(identity(n), w0)


def test_parse_element_forms():
    assert parse_element("3412", 4).word == (3, 4, 1, 2)
    assert parse_element("[3,4,1,2]", 4).word == (3, 4, 1, 2)
    assert parse_element("s1*s2*s1", 3).word == (3, 2, 1)
    assert parse_element("e", 4) == identity(4)
    with pytest.raises(UsageError):
        parse_element("3413", 4)
    with pytest.raises(UsageError):
        parse_element("s9", 3)
    with pytest.raises(UsageError):
        parse_element("12", 3)


@pytest.mark.parametrize("text", ["[[1,2,3]]", "[1,2,3", "1,2,3]", "[[1,2,3]", "[", "[]"])
def test_the_bracket_form_takes_exactly_one_bracket_at_each_end(text):
    with pytest.raises(UsageError, match="cannot parse element"):
        parse_element(text, 3)
