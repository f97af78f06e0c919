"""End-to-end acceptance suite.

Each criterion prints exactly one line, CRITERION n: PASS or FAIL, and
enforces both exact integer results and a wall-clock budget.
"""

import functools
import time

from ihkl import builders
from ihkl.complexes import barycentric_subdivide, cone, homology_dims, suspend
from ihkl.coxeter import all_elements, reduced_words
from ihkl.hecke import LaurentPoly, cprime, iota, kl_bott_samelson, kl_table
from ihkl.flagfq import schubert_cell_sizes, verify_hecke_specialization
from ihkl.ih import (duality_report, extremal_comparison, ih_dims, is_normal,
                     local_stalk_table, normalize_isolated)
from ihkl.perversity import make_standard


def criterion(number, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - start
                assert elapsed < budget, \
                    "budget exceeded: %.1fs >= %ds" % (elapsed, budget)
            except BaseException:
                print("CRITERION %d: FAIL" % number)
                raise
            print("CRITERION %d: PASS" % number)
        return wrapper
    return deco


@criterion(1, 1)
def test_criterion_1_pinched_cylinder_tables():
    pc = builders.pinched_cylinder()
    zero = make_standard("zero", 2)
    assert homology_dims(pc, "borel_moore") == {0: 0, 1: 1, 2: 2}
    assert homology_dims(pc, "compact") == {0: 1, 1: 0, 2: 0}
    assert ih_dims(pc, zero, "borel_moore") == {0: 0, 1: 0, 2: 2}
    assert ih_dims(pc, zero, "compact") == {0: 2, 1: 0, 2: 0}


@criterion(2, 1)
def test_criterion_2_cylinder_column():
    cyl = suspend(builders.circle())
    assert homology_dims(cyl, "borel_moore") == {0: 0, 1: 1, 2: 1}
    assert homology_dims(cyl, "compact") == {0: 1, 1: 1, 2: 0}


@criterion(3, 60)
def test_criterion_3_hecke_vs_fq():
    for n in (2, 3):
        for q in (2, 3, 5):
            rep = verify_hecke_specialization(n, q)
            assert rep.passed, rep.render_text()
            assert rep.checked == len(all_elements(n)) ** 2


@criterion(4, 30)
def test_criterion_4_kl_two_algorithm_agreement():
    table = kl_table(4, algorithm="both")  # raises on any discrepancy
    assert len(table) == 213
    multi_word = 0
    for w in all_elements(4):
        if w.length() < 2:
            continue
        words = reduced_words(w)
        if len(words) >= 2:
            multi_word += 1
        base = kl_bott_samelson(words[0], 4).cprime
        for word in words[1:]:
            assert kl_bott_samelson(word, 4).cprime == base, (w, word)
    assert multi_word >= 2


@criterion(5, 30)
def test_criterion_5_kl_structural_properties():
    for w in all_elements(4):
        res = cprime(w)
        assert iota(res.cprime) == res.cprime, w
        for u, p in res.kl_polys.items():
            if u != w:
                assert 2 * (p.max_degree() or 0) <= w.length() - u.length() - 1
            assert all(c > 0 for c in p.coeffs.values()), (u, w)
            assert p.coefficient(0) == 1, (u, w)
        assert res.kl_polys[w] == LaurentPoly({0: 1})


@criterion(6, 30)
def test_criterion_6_cone_formula():
    # the apex stalk, from the link's IH, is the Borel-Moore IH of the open cone
    links = (builders.circle(), builders.two_circles(), builders.torus())
    for link in links:
        c = cone(link)
        for kind in ("zero", "lower_middle", "top"):
            p = make_standard(kind, c.dimension)
            bm = ih_dims(c, p, "borel_moore")
            assert local_stalk_table(c, "apex", p) == {-i: d for i, d in bm.items() if d}


@criterion(7, 30)
def test_criterion_7_suspension():
    # Kunneth with the open interval: R x X has the Borel-Moore IH of X one degree up
    for x, p in ((builders.pinched_cylinder(), make_standard("lower_middle", 3)),
                 (builders.cone_torus(), make_standard("lower_middle", 4))):
        shifted = {0: 0, **{i + 1: d for i, d in ih_dims(x, p, "borel_moore").items()}}
        assert ih_dims(suspend(x), p, "borel_moore") == shifted


@criterion(8, 30)
def test_criterion_8_extremal_perversities():
    ct = builders.cone_torus()
    assert is_normal(ct)
    assert extremal_comparison(ct).passed
    top = make_standard("top", 3)
    zero = make_standard("zero", 3)
    assert ih_dims(ct, top, "borel_moore") == homology_dims(ct, "borel_moore")
    i0 = ih_dims(ct, zero, "borel_moore")
    hc = homology_dims(ct, "compact")
    assert i0 == {0: 0, 1: 0, 2: 0, 3: 1}
    assert all(i0[i] == hc[3 - i] for i in range(4))


@criterion(9, 5)
def test_criterion_9_normalization():
    pc = builders.pinched_cylinder()
    norm = normalize_isolated(pc)
    assert len(norm.ambient.connected_components()) == 2
    assert homology_dims(norm, "borel_moore") != homology_dims(pc, "borel_moore")
    assert homology_dims(norm, "compact") != homology_dims(pc, "compact")
    for kind in ("zero", "lower_middle", "top"):
        p = make_standard(kind, 2)
        for sup in ("borel_moore", "compact"):
            assert ih_dims(norm, p, sup) == ih_dims(pc, p, sup), (kind, sup)


@criterion(10, 60)
def test_criterion_10_duality():
    assert duality_report(builders.pinched_cylinder(),
                          make_standard("zero", 2),
                          make_standard("zero", 2)).passed
    for name in sorted(builders.BUILDERS):
        s = builders.build(name)
        n = s.dimension
        if any(s.stratum_nonempty(k) and k % 2 for k in range(2, n + 1)):
            continue  # odd-codimension strata: middle self-duality not asserted
        mid = make_standard("lower_middle", n) if n >= 2 else None
        bm = ih_dims(s, mid, "borel_moore")
        co = ih_dims(s, mid, "compact")
        assert all(bm[i] == co[n - i] for i in range(n + 1)), name


@criterion(11, 120)
def test_criterion_11_subdivision_invariance():
    for name in sorted(builders.BUILDERS):
        s = builders.build(name)
        sd = barycentric_subdivide(s)
        n = s.dimension
        p = make_standard("lower_middle", n) if n >= 2 else None
        for sup in ("borel_moore", "compact"):
            assert homology_dims(sd, sup) == homology_dims(s, sup), (name, sup)
            assert ih_dims(sd, p, sup) == ih_dims(s, p, sup), (name, sup)


@criterion(12, 10)
def test_criterion_12_schubert_cell_counts():
    for q in (2, 3):
        sizes = schubert_cell_sizes(3, q)
        assert len(sizes) == 6
        for w, size in sizes.items():
            assert size == q ** w.length(), (q, w)
