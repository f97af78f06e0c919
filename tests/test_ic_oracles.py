"""KL polynomials against the geometry of Schubert varieties.

P_{u,w}(q) gives the stalks of the IC sheaf of the Schubert variety X_w
along the cell of u, so the tables must satisfy what the geometry says:
Poincaré duality for intersection homology, the smoothness criteria of
Lakshmibai-Sandhya (pattern avoidance) and Carrell-Peterson (a
palindromic Poincaré polynomial of [e, w]), the symmetries of the flag
variety, KL inversion, and the count of the F_q-points of X_w. None of
these oracles is a KL route: each property reads one route's table on
its own, so a fault in either route shows here and not only in the
cross-check of ``kl_table(n, "both")``.
"""

import itertools
from functools import lru_cache

import pytest

from ihkl.coxeter import all_elements, bruhat_interval, identity, longest_element
from ihkl.flagfq import enumerate_flags, rref
from ihkl.hecke import LaurentPoly, kl_table

ROUTES = ("bott_samelson", "recursion")

CASES = [(n, alg) for n in (4, 5) for alg in ROUTES]


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


@pytest.mark.parametrize("alg", ROUTES)
def test_kl_inversion_on_s4(alg):
    """Kazhdan & Lusztig 1979, (3.1): for x <= w, the sum over z in [x, w] of
    (-1)^(l(x)+l(z)) P_{x,z} P_{w0 w, w0 z} is 1 if x = w and 0 otherwise."""
    table = kl_table(4, alg)
    w0 = longest_element(4)
    for x, w in table:
        total = LaurentPoly()
        for z in all_elements(4):
            if (x, z) in table and (w0 * w, w0 * z) in table:
                sign = (-1) ** (x.length() + z.length())
                total = total + table[(x, z)] * table[(w0 * w, w0 * z)] * sign
        assert total == (1 if x == w else 0), (x, w, total.format("q"))


@lru_cache(maxsize=None)
def flag_rank_arrays(n, q):
    """dim(E_i ∩ F_j) for 1 <= i, j < n, one tuple per flag F of F_q^n,
    with E the standard flag: i + j - rank(E_i + F_j)."""
    unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    return [tuple(i + j - len(rref(tuple(unit[:i]) + f.steps[j - 1], q))
                  for i in range(1, n) for j in range(1, n))
            for f in enumerate_flags(n, q)]


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("alg", ROUTES)
def test_f_q_points_of_each_schubert_variety_match_the_table_interval(n, q, alg):
    """#{F : dim(E_i ∩ F_j) >= #{k <= j : w(k) <= i} for all i, j}, counted
    by ranks alone, is the sum of q^l(u) over the u <= w of the table."""
    table = kl_table(n, alg)
    arrays = flag_rank_arrays(n, q)
    for w in all_elements(n):
        least = [sum(w(k) <= i for k in range(1, j + 1))
                 for i in range(1, n) for j in range(1, n)]
        points = sum(all(map(int.__ge__, r, least)) for r in arrays)
        assert points == sum(q ** u.length() for u, v in table if v == w), w
