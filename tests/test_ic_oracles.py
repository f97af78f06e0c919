"""KL polynomials against the geometry of Schubert varieties.

P_{u,w}(q) gives the stalks of the IC sheaf of the Schubert variety X_w
along the cell of u, so the tables must satisfy what the geometry says:
Poincaré duality for intersection homology, the smoothness criteria of
Lakshmibai-Sandhya (pattern avoidance) and Carrell-Peterson (a
palindromic Poincaré polynomial of [e, w]), and the symmetries of the
flag variety. None of these oracles is a KL route: each property reads
one route's table on its own, so a fault in either route shows here and
not only in the cross-check of ``kl_table(n, "both")``.
"""

import itertools

import pytest

from ihkl.coxeter import all_elements, bruhat_interval, identity, longest_element
from ihkl.hecke import LaurentPoly, kl_table

CASES = [(n, alg) for n in (4, 5) for alg in ("bott_samelson", "recursion")]


def q_power_sum(lengths_and_polys):
    """The sum of q^l P(q) over pairs (l, P)."""
    total = LaurentPoly()
    for ell, p in lengths_and_polys:
        total = total + p.shift(ell)
    return total


def is_palindromic_of_degree(f, d):
    return f.min_degree() == 0 and f.coeffs == {d - e: c for e, c in f.coeffs.items()}


def contains_pattern(x, pattern):
    """Whether some entries of the one-line tuple x stand in the order of pattern."""
    return any(tuple(sorted(vals).index(a) + 1 for a in vals) == pattern
               for vals in itertools.combinations(x, len(pattern)))


@pytest.mark.parametrize("n, alg", CASES)
def test_intersection_homology_of_every_schubert_variety_satisfies_poincare_duality(n, alg):
    """The sum over u <= w of q^l(u) P_{u,w}(q) is palindromic of degree l(w)."""
    table = kl_table(n, alg)
    for w in all_elements(n):
        f = q_power_sum((u.length(), table[(u, w)]) for u in bruhat_interval(w))
        assert is_palindromic_of_degree(f, w.length()), (w, f.format("q"))


@pytest.mark.parametrize("n, alg", CASES)
def test_p_e_w_is_one_exactly_for_the_smooth_schubert_varieties(n, alg):
    """P_{e,w} = 1 iff w avoids 3412 and 4231, iff the Poincaré polynomial
    of [e, w] is palindromic."""
    table = kl_table(n, alg)
    e = identity(n)
    smooth = 0
    for w in all_elements(n):
        avoids = not contains_pattern(w.word, (3, 4, 1, 2)) and \
            not contains_pattern(w.word, (4, 2, 3, 1))
        poincare = q_power_sum((u.length(), LaurentPoly({0: 1}))
                               for u in bruhat_interval(w))
        palindromic = is_palindromic_of_degree(poincare, w.length())
        assert (table[(e, w)] == 1) == avoids == palindromic, w
        smooth += avoids
    assert smooth == {4: 22, 5: 88}[n]


@pytest.mark.parametrize("n, alg", CASES)
def test_p_u_w_is_invariant_under_inversion_and_conjugation_by_w0(n, alg):
    """P_{u,w} = P_{u^-1,w^-1} = P_{w0 u w0, w0 w w0}."""
    table = kl_table(n, alg)
    w0 = longest_element(n)
    for (u, w), p in table.items():
        assert table.get((u.inverse(), w.inverse())) == p, (u, w)
        assert table.get((w0 * u * w0, w0 * w * w0)) == p, (u, w)
