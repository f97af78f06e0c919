"""Perversity construction, validation, and the standard families."""

import re

import pytest

from ihkl.errors import UsageError
from ihkl.perversity import (Perversity, PerversityError, custom,
                             is_complementary, make_standard, parse)


def test_standard_families_small_dims():
    assert make_standard("zero", 5).values == (0, 0, 0, 0)
    assert make_standard("top", 5).values == (0, 1, 2, 3)
    assert make_standard("lower_middle", 6).values == (0, 0, 1, 1, 2)
    assert make_standard("upper_middle", 6).values == (0, 1, 1, 2, 2)


def test_values_indexing():
    p = make_standard("lower_middle", 6)
    assert p(2) == 0 and p(4) == 1 and p(6) == 2
    assert p.dimension == 6
    with pytest.raises(PerversityError):
        p(1)
    with pytest.raises(PerversityError):
        p(7)


def test_growth_condition_enforced():
    with pytest.raises(PerversityError):
        custom([0, 2])
    with pytest.raises(PerversityError):
        custom([0, 1, 0])
    with pytest.raises(PerversityError):
        custom([1])
    # legal staircase
    assert custom([0, 0, 1, 2, 2]).values == (0, 0, 1, 2, 2)


def test_error_message_names_offending_index():
    with pytest.raises(PerversityError) as err:
        custom([0, 0, 2])
    assert "4" in str(err.value)


def test_restrict():
    p = make_standard("top", 6)
    assert p.restrict(3).values == (0, 1)
    with pytest.raises(PerversityError):
        p.restrict(7)


def test_pointwise_order():
    n = 6
    zero = make_standard("zero", n)
    lo = make_standard("lower_middle", n)
    hi = make_standard("upper_middle", n)
    top = make_standard("top", n)
    assert zero <= lo <= hi <= top


def test_complementarity():
    for n in (2, 3, 4, 5, 6, 7):
        assert is_complementary(make_standard("zero", n), make_standard("top", n))
        assert is_complementary(make_standard("lower_middle", n),
                                make_standard("upper_middle", n))
    # lower middle is self-complementary only when every codim entry matches
    assert is_complementary(make_standard("lower_middle", 2),
                            make_standard("lower_middle", 2))
    assert not is_complementary(make_standard("lower_middle", 3),
                                make_standard("lower_middle", 3))


def test_parse_forms():
    assert parse("zero", 4).values == (0, 0, 0)
    assert parse("middle", 4).values == make_standard("lower_middle", 4).values
    assert parse("upper-middle", 4).values == make_standard("upper_middle", 4).values
    assert parse("top", 4).values == (0, 1, 2)
    assert parse("custom:0,1,1", 4).values == (0, 1, 1)
    with pytest.raises(UsageError):
        parse("custom:0,1", 4)
    with pytest.raises(UsageError):
        parse("nonsense", 4)
    with pytest.raises(UsageError, match="p\\(2\\) must be 0"):
        parse("custom:1,0", 3)


@pytest.mark.parametrize("call, message", [
    (lambda: Perversity(()), "a perversity needs dimension >= 2"),
    (lambda: make_standard("zero", 1), "invalid dimension 1: need n >= 2"),
    (lambda: make_standard("middle", 3), "unknown standard perversity 'middle'"),
    (lambda: make_standard("zero", 3) <= make_standard("zero", 4), "dimension mismatch"),
    (lambda: is_complementary(make_standard("zero", 3), make_standard("top", 4)),
     "dimension mismatch: 3 vs 4"),
], ids=["empty", "dimension-1", "unknown-kind", "order-on-unequal-dimensions",
        "complement-on-unequal-dimensions"])
def test_bad_perversity_arguments_are_refused(call, message):
    with pytest.raises(PerversityError, match="^%s$" % re.escape(message)):
        call()
