"""Property tests: invariants of intersection homology on random complexes.

Complexes are drawn from triangulated circles, two circles, the
octahedral sphere, the 7-vertex torus, the pinched cylinder and the cone
over two circles, with up to two cones or suspensions on top, up to
dimension 3; the last two bases are genuinely singular. The first four,
the compact bases with empty ends, are also drawn alone as the links of
the cone formula. The integer rank engine behind them, unchecked and
through its checked edge, is checked against the Fraction oracle on
random sparse integer matrices, with a random split of their rows, the
clearing in ``chain_dims`` against a reduction of every column, and the
structural gate against its checks read straight off their definitions,
on the drawn complexes and on broken copies of them; a subdivision, which
takes a passing verdict from its source, against its own gate on the
same. The canonical
order, read off integer vertex ranks, is checked against the nested vkey
tuples it replaced on complexes whose vertex ids mix strings, integers
and nested tuples, raw, subdivided and off their ends; a subdivision is
read back through its label table, ``barycenters``, and checked against
the copy named in the simplices of its source. Both order complexes, the
subdivision and the ``interior_order_complex``, are also checked against
their chains grown by brute force, on drawn complexes and on every builder
but susp2-cone-circle. The JSON load, which closes each complex
from its largest listed simplices and cuts the ends and strata from the
ambient, is checked against the full closure sorted by vkey, on built
complexes listed in shuffled, repeated or maximal-only form, and against
the per-entry ``simplex()`` loader it replaced, messages for bad lists
included; and plain tuple order against the vkey order for all-string
and all-integer ids.
On a subdivision and an ``interior_order_complex``, the two conditions that
``compact_model`` takes as proved for an order complex, full ends and a
stratum-faithful push off them, are checked, and that model's dimensions
against those of the order complex off the ends.
Kunneth with a manifold factor, the circle or the cylinder, and with the
open interval, whose product is ``suspend``, is checked on the drawn
complexes, and ``suspend`` against the prism it was built as before, each
path sorted by ``simplex`` and closed under faces.
Every test pins its draws with ``@seed`` (see conftest.py).
"""

import itertools
import json
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ihkl import builders
from ihkl.complexes import (_INTERVAL, SUPPORTS, SimplicialComplex, StratifiedComplex,
                            _allowability, _failed_checks, _fit_perversity, _model, _plain,
                            _structure_report, _vertex_ids, barycenters, barycentric_subdivide,
                            boundary_columns, chain_basis, chain_dims, compact_model,
                            complex_from_dict, complex_to_dict, cone, faces_with_signs,
                            homology_dims, interior_order_complex, product, simplex, suspend,
                            vkey)
from ihkl.ih import (allowable_complex, allowable_simplices, duality_report, ih_dims,
                     local_stalk_table, normalize_isolated)
from ihkl.errors import ComputationError, UsageError
from ihkl.linalg import (RationalMatrix, column_pivots, int_column_pivots, rank_kernel,
                         sparse_rank)
from ihkl.perversity import STANDARD_KINDS, Perversity, make_standard

BASES = st.one_of(
    st.integers(3, 7).map(builders.circle),
    st.sampled_from((builders.two_circles, builders.sphere, builders.torus)).map(
        lambda build: build()))
# most cones and suspensions of the bases are manifolds with marked strata (a
# cone on a circle is a disk), where IH is homology for every perversity and a
# wrong stratum would not show; these two are not
SINGULAR = st.sampled_from((builders.pinched_cylinder, builders.cone_two_circles)).map(
    lambda build: build())


@st.composite
def complexes(draw):
    s = draw(BASES | SINGULAR)
    for op in draw(st.lists(st.sampled_from((cone, suspend)), max_size=2)):
        if s.dimension >= 3 or (op is cone and len(s.ends)):
            break
        s = op(s)
    return s


def perversities(n):
    """Every perversity of dimension max(n, 2)."""
    n = max(n, 2)
    for steps in itertools.product((0, 1), repeat=n - 2):
        yield Perversity((0,) + tuple(itertools.accumulate(steps)))


@st.composite
def integer_matrices(draw):
    """Sparse matrices with entries in -3..3: non-unit pivots and content."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return RationalMatrix(rows, cols, draw(st.dictionaries(
        cells, st.integers(-3, 3), max_size=rows * cols)))


def euler(counts):
    return sum((-1) ** i * c for i, c in counts.items())


@seed(2)
@given(complexes())
def test_interior_order_complex_is_the_subdivision_off_the_ends(s):
    # each is read in the simplices of s, as their int labels differ
    sd = named_copy(barycentric_subdivide(s))
    off = sd.ambient.full_subcomplex(sd.ambient.vertices - sd.ends.vertices)
    inner = named_copy(interior_order_complex(s))
    assert inner.ambient == off
    assert len(inner.ends) == 0
    for k in range(2, s.dimension + 1):
        assert inner.F(k) == sd.F(k).restrict_to(off.simplices)


def interior_retract_ok(s):
    """Pushing off the ends is stratum-faithful: each simplex off the ends keeps
    its interior face, its vertices off the ends, in exactly its own F(k)."""
    ev = s.ends.vertices
    fs = [s.F(k).simplices for k in range(2, s.dimension + 1) if len(s.F(k))]
    for x in s.ambient.simplices - s.ends.simplices:
        tau = tuple(itertools.filterfalse(ev.__contains__, x))
        if any(tau in fk and x not in fk for fk in fs):
            return False
    return True


@seed(23)
@settings(max_examples=30)
@given(complexes())
def test_an_order_complex_passes_the_checks_its_compact_model_skips(s):
    # compact_model takes an order complex's interior unchecked; the checks
    # hold, and the model has the dimensions of the order complex off the ends,
    # compared where m has under 600 simplices (sd of a subdivided 3-complex
    # off its ends runs to 72,688, and its five rank loops to 0.45 s)
    for m in (barycentric_subdivide(s), interior_order_complex(s)):
        assert m.ends.is_full_in(m.ambient)
        assert interior_retract_ok(m)
        if len(m.ambient) >= 600:
            continue
        model, inner = compact_model(m), interior_order_complex(m)
        for p in (None, *(make_standard(kind, max(s.dimension, 2)) for kind in STANDARD_KINDS)):
            p = _fit_perversity(p, s.dimension)
            assert chain_dims(model, _allowability(model, p)) == chain_dims(
                inner, _allowability(inner, p))


@seed(3)
@settings(max_examples=12)
@given(complexes())
def test_subdivision_leaves_homology_and_ih_unchanged(s):
    sd = barycentric_subdivide(s)
    n = max(s.dimension, 2)
    for sup in SUPPORTS:
        assert homology_dims(sd, sup) == homology_dims(s, sup)
        for kind in STANDARD_KINDS:
            p = make_standard(kind, n)
            assert ih_dims(sd, p, sup) == ih_dims(s, p, sup)


def check_stalks_survive_subdivision(s):
    """The stalk at x in s is the stalk at the vertex of sd s labelled (x,), at every
    vertex off the ends, for the four standard perversities (None below dimension 2)."""
    sd = barycentric_subdivide(s)
    rank = {x: r for r, x in enumerate(barycenters(sd))}
    ps = [make_standard(kind, s.dimension) for kind in STANDARD_KINDS] \
        if s.dimension >= 2 else [None]
    for x in sorted(s.ambient.vertices - s.ends.vertices, key=vkey):
        for p in ps:
            assert local_stalk_table(sd, rank[(x,)], p) == local_stalk_table(s, x, p), (x, str(p))


@pytest.mark.parametrize("name", [n for n in builders.BUILDERS if n != "susp2-cone-circle"])
def test_a_stalk_survives_subdivision_on_every_builder(name):
    check_stalks_survive_subdivision(builders.build(name))


def with_an_edge_in_every_stratum(s):
    """s with both ends of an edge off the ends and off F(2) added to every F(k):
    F(k) then holds the two vertices but not the edge, so it is not full."""
    a, b = next(x for x in s.ambient.of_dim(1)
                if not any((v,) in s.ends or (v,) in s.F(2) for v in x))
    return StratifiedComplex(s.ambient, s.dimension, ends=s.ends, filtration={
        k: SimplicialComplex([*s.F(k).simplices, (a,), (b,)], closed=True)
        for k in range(2, s.dimension + 1)})


def test_a_stalk_survives_subdivision_where_the_strata_are_not_full():
    sphere = StratifiedComplex(builders.sphere().ambient, 2, filtration={
        2: SimplicialComplex([("x+",), ("y+",)], closed=True)})
    cone_torus = with_an_edge_in_every_stratum(barycentric_subdivide(builders.cone_torus()))
    for s in (sphere, cone_torus):
        assert not s.strata_full()
        check_stalks_survive_subdivision(s)


@seed(22)
@settings(max_examples=20)
@given(complexes())
def test_a_stalk_survives_subdivision_on_drawn_complexes(s):
    check_stalks_survive_subdivision(s)


@seed(4)
@given(complexes())
def test_euler_characteristic_of_borel_moore_homology(s):
    cells = {i: len(chain_basis(s, i)) for i in range(s.dimension + 1)}
    assert euler(homology_dims(s, "borel_moore")) == euler(cells)


@seed(5)
@settings(max_examples=30)
@given(complexes())
def test_duality_for_every_complementary_pair(s):
    for p in perversities(s.dimension):
        q = Perversity(tuple(k - 2 - p(k) for k in range(2, p.dimension + 1)))
        assert duality_report(s, p, q).passed


@seed(6)
@settings(max_examples=10)
@given(complexes())
def test_allowable_chain_oracle_matches_the_rank_shortcut(s):
    # no perversity: ordinary homology, which is IH with every chain allowable
    for p in (*perversities(s.dimension), None):
        for sup in SUPPORTS:
            assert allowable_complex(s, p, sup).dims() == ih_dims(s, p, sup)
    for sup in SUPPORTS:
        assert ih_dims(s, None, sup) == homology_dims(s, sup)


@seed(7)
@settings(max_examples=10)
@given(complexes())
def test_allowable_chains_lie_on_the_allowable_simplices(s):
    for p in perversities(s.dimension):
        for sup in SUPPORTS:
            for i, chains in allowable_complex(s, p, sup).basis.items():
                allowed = set(allowable_simplices(s, p, i, sup))
                assert all(set(c) <= allowed for c in chains)


@seed(8)
@given(BASES)
def test_cone_formula_on_every_compact_link(link):
    # the apex stalk, the link's IH truncated, is the Borel-Moore IH of the
    # open cone read in degree -i
    c = cone(link)
    for p in perversities(c.dimension):
        bm = ih_dims(c, p, "borel_moore")
        assert local_stalk_table(c, "apex", p) == {-i: d for i, d in bm.items() if d}, str(p)


def tensor(a, b, n):
    """The degrees 0..n of the tensor product of two graded dimension tables."""
    return {i: sum(a.get(j, 0) * b.get(i - j, 0) for j in range(i + 1)) for i in range(n + 1)}


@seed(19)
@settings(max_examples=12)
@given(complexes(), st.sampled_from(("circle", "cylinder")))
def test_kunneth_with_a_manifold_factor(x, factor):
    # IH(X x M) = IH(X) (x) H(M), with the same supports on both sides
    # (King 1985); a cylinder factor only up to dim X = 2, which stays fast.
    # Every X also takes the open interval I: suspend(X) is X x I, and H(I) is
    # one class, in degree 1 with closed supports and in degree 0 with compact
    name = "circle" if x.dimension > 2 else factor
    m = builders.build(name)
    for name, m, xm in ((name, m, product(x, m)), ("interval", _INTERVAL, suspend(x))):
        n = xm.dimension
        for sup in SUPPORTS:
            hm = homology_dims(m, sup)
            for p in (None, *perversities(n)):
                assert ih_dims(xm, p, sup) == tensor(ih_dims(x, p, sup), hm, n), (name, p, sup)


def test_allowable_chain_oracle_subdivides_non_full_strata():
    # F(2) is two vertices joined by an edge, so it is not full
    sphere = builders.sphere()
    s = StratifiedComplex(sphere.ambient, 2, filtration={
        2: SimplicialComplex([("x+",), ("y+",)], closed=True)})
    assert not s.strata_full()
    p = make_standard("zero", 2)
    for sup in SUPPORTS:
        assert ih_dims(s, p, sup) == {0: 1, 1: 0, 2: 1}
        assert allowable_complex(s, p, sup).dims() == ih_dims(s, p, sup)


@seed(1)
@settings(max_examples=300)
@given(integer_matrices(), st.data())
def test_integer_rank_engine_matches_the_fraction_oracle(m, data):
    # the lemma behind chain_dims: the pivots in rows at or past any split
    # number the rank of those rows
    cols = [{} for _ in range(m.cols)]
    for (i, j), v in m.entries.items():
        cols[j][i] = int(v)
    before = [dict(c) for c in cols]
    pivots = column_pivots(cols)
    assert cols == before  # the checked edge copies
    # the unchecked reducer on the same ints, entries -3..3, so the gcd branch runs
    assert int_column_pivots([dict(c) for c in cols]) == pivots
    assert len(pivots) == sparse_rank(cols) == rank_kernel(m)[0]
    split = data.draw(st.integers(0, m.rows), label="split")
    tail = RationalMatrix(m.rows - split, m.cols, {
        (i - split, j): v for (i, j), v in m.entries.items() if i >= split})
    assert sum(1 for r in pivots if r >= split) == rank_kernel(tail)[0]


def test_integer_rank_engine_on_every_bundled_boundary_matrix():
    for name in builders.BUILDERS:
        s = builders.build(name)
        for i in range(1, s.dimension + 1):
            rows, cells = chain_basis(s, i - 1), chain_basis(s, i)
            cols = boundary_columns(cells, rows)
            m = RationalMatrix(len(rows), len(cells), {
                (r, j): v for j, col in enumerate(cols) for r, v in col.items()})
            assert sparse_rank(cols) == rank_kernel(m)[0], (name, i)


def check_clearing(s):
    """chain_dims on every model of s, for None and every perversity in both
    supports, against each d_i rebuilt with all its columns and reduced whole.

    The columns that d_{i+1}'s pivots in allowable rows clear must leave the
    pivots of d_i as they are, and each must reduce to zero against the others.
    """
    for p in (None, *perversities(s.dimension)):
        for sup in SUPPORTS:
            model, q = _model(s, p, sup)
            allow = _allowability(model, q)
            want, above = {}, []  # above: the pivots of d_{i+1}
            for i in range(model.dimension, -1, -1):
                inside = [x for x in chain_basis(model, i) if allow is None or allow(x, i)]
                cleared = {r for r in above if r < len(inside)}
                want[i] = len(inside) - len(cleared)
                if i:
                    rows = sorted(chain_basis(model, i - 1),
                                  key=lambda x: not (allow is None or allow(x, i - 1)))
                    cols = boundary_columns(inside, rows)
                    above = column_pivots(cols)
                    want[i] -= len(above)
                    kept = [c for j, c in enumerate(cols) if j not in cleared]
                    assert set(column_pivots(kept)) == set(above), (p, sup, i)
                    # cleared columns after the kept ones: as long as none adds
                    # a pivot, each is reduced against the kept columns alone
                    tail = [cols[j] for j in sorted(cleared)]
                    assert set(column_pivots(kept + tail)) == set(above), (p, sup, i)
            assert chain_dims(model, allow) == want, (p, sup)


@seed(10)
@settings(max_examples=30)
@given(complexes())
def test_clearing_skips_only_columns_that_reduce_to_zero(s):
    check_clearing(s)


@pytest.mark.parametrize("name", builders.BUILDERS)
def test_clearing_on_every_builder_subdivided(name):
    check_clearing(barycentric_subdivide(builders.build(name)))


def reference_gate(s):
    """The gate's four pass flags, each read off its definition."""
    n, K = s.dimension, s.ambient
    has_coface = {f for y in K.simplices for f, _ in faces_with_signs(y)}
    cofaces = Counter(f for t in K.of_dim(n) for f, _ in faces_with_signs(t))
    return {
        # impure: a simplex of dimension other than n with no coface one up
        "purity": all(len(x) - 1 == n or x in has_coface for x in K.simplices),
        "pseudomanifold": all(cofaces[x] == 2 for x in K.of_dim(n - 1)
                              if x not in s.ends),
        "filtration": all(s.F(k).dim <= n - k for k in range(2, n + 1)),
        "no_codim_1": not any(len(x) == n for x in s.F(2).simplices),
    }


def broken_copies(s, pick=0):
    """s with a stray vertex, with a simplex one above dimension n, with one
    n-simplex removed, and with an (n-1)-simplex added to F(2)."""
    n, K = s.dimension, s.ambient

    def with_ambient(amb, filtration=None):
        return StratifiedComplex(
            amb, n, ends=s.ends.restrict_to(amb.simplices),
            filtration=filtration or {k: s.F(k).restrict_to(amb.simplices)
                                      for k in range(2, n + 1)})

    top = K.of_dim(n)[pick % len(K.of_dim(n))]
    yield with_ambient(SimplicialComplex(K.simplices | {("stray",)}, closed=True))
    yield with_ambient(SimplicialComplex([*K.simplices, simplex(top + ("over",))]))
    yield with_ambient(K.restrict_to(K.simplices - {top}))
    if n >= 2:
        low = K.of_dim(n - 1)[pick % len(K.of_dim(n - 1))]
        f2 = SimplicialComplex([*s.F(2).simplices, low])
        yield with_ambient(K, {**s.filtration, 2: f2})


def check_gate(s, pick=0):
    for c in (s, *broken_copies(s, pick)):
        got = {name: passed for name, (passed, _) in _structure_report(c).checks.items()}
        assert got == reference_gate(c)


@pytest.mark.parametrize("subdivided", [False, True], ids=["raw", "subdivided"])
def test_gate_matches_its_definitions_on_every_builder(subdivided):
    for name in builders.BUILDERS:
        if subdivided and name == "susp2-cone-circle":
            continue  # 30,309 simplices once subdivided
        s = builders.build(name)
        check_gate(barycentric_subdivide(s) if subdivided else s)


@seed(11)
@given(complexes(), st.integers(0, 1000))
def test_gate_matches_its_definitions_on_drawn_complexes(s, pick):
    check_gate(s, pick)


def check_inherited_verdict(s):
    """sd s keeps the verdict the slow gate gives it, and that passes exactly
    when s does: a verdict taken from s is never a failing one."""
    sd = barycentric_subdivide(s)
    failed = _failed_checks(sd)
    assert sd._memo["gate"] == failed
    assert (not failed) == (not _failed_checks(s))


SPHERE = builders.sphere().ambient
INHERITANCE_CASES = {
    "book": StratifiedComplex(
        SimplicialComplex([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")]), 2),
    "dangling edge": StratifiedComplex(
        SimplicialComplex([*SPHERE.simplices, ("x+", "out")]), 2),
    "stray vertex": StratifiedComplex(SimplicialComplex([*SPHERE.simplices, ("out",)]), 2),
    "tetrahedron as dimension 2": StratifiedComplex(SimplicialComplex([("a", "b", "c", "d")]), 2),
    "codimension-1 stratum": StratifiedComplex(
        SPHERE, 2, filtration={2: SimplicialComplex([("x+", "y+")])}),
    "subdivided cone-torus": barycentric_subdivide(builders.cone_torus()),
    "subdivided book": barycentric_subdivide(StratifiedComplex(
        SimplicialComplex([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")]), 2)),
}


@pytest.mark.parametrize("name", INHERITANCE_CASES)
def test_a_subdivision_inherits_only_a_passing_verdict(name):
    check_inherited_verdict(INHERITANCE_CASES[name])


@seed(21)
@settings(max_examples=40)
@given(complexes(), st.integers(0, 1000))
def test_a_drawn_subdivision_inherits_only_a_passing_verdict(s, pick):
    for c in (s, *broken_copies(s, pick)):
        check_inherited_verdict(c)


LEAVES = st.integers(-3, 3) | st.text("ab1", max_size=2)
VERTEX_IDS = LEAVES | st.recursive(
    LEAVES, lambda kids: st.tuples(kids) | st.tuples(kids, kids), max_leaves=4)


@st.composite
def mixed_complexes(draw):
    """Complexes on drawn vertex ids, with ends and an F(2) closed from
    drawn simplices of theirs."""
    vs = draw(st.lists(VERTEX_IDS, min_size=3, max_size=8, unique=True))
    tops = draw(st.lists(st.lists(st.sampled_from(vs), min_size=2, max_size=4, unique=True),
                         min_size=1, max_size=6))
    amb = SimplicialComplex(map(simplex, tops))
    some = st.lists(st.sampled_from(sorted(amb.simplices, key=repr)), max_size=3)
    n = amb.dim
    return StratifiedComplex(amb, n, ends=SimplicialComplex(draw(some)),
                             filtration={2: SimplicialComplex(draw(some))} if n >= 2 else {})


def chains_of(members):
    """Every chain of proper face inclusions among members, as a simplex,
    grown upwards from each member and sorted by ``simplex``."""
    members = set(members)
    up = {x: [y for y in members if len(y) > len(x) and set(x) < set(y)] for x in members}
    out, stack = set(), [(x,) for x in members]
    while stack:
        ch = stack.pop()
        out.add(simplex(ch))
        stack.extend(ch + (y,) for y in up[ch[-1]])
    return out


def assert_in_vkey_order(c):
    for d in range(-1, c.dim + 2):
        want = tuple(sorted((x for x in c.simplices if len(x) == d + 1),
                            key=lambda x: tuple(vkey(v) for v in x)))
        assert c.of_dim(d) == want, d


def assert_order_complex(model, s, members):
    """model is the order complex of members, each chain read back through its
    label table, and the table is in vkey order."""
    labels = barycenters(model)
    assert list(labels) == sorted(members, key=vkey)

    def named(c):
        return {tuple(map(labels.__getitem__, ch)) for ch in c.simplices}

    amb = chains_of(members)
    assert named(model.ambient) == amb
    assert named(model.ends) == {ch for ch in amb if max(ch, key=len) in s.ends}
    for k in range(2, s.dimension + 1):
        assert named(model.F(k)) == {ch for ch in amb if max(ch, key=len) in s.F(k)}
    for c in (model.ambient, model.ends, *model.filtration.values()):
        assert_in_vkey_order(c)


@seed(14)
@given(mixed_complexes())
def test_rank_order_is_the_vkey_order(s):
    for c in (s.ambient, s.ends, *s.filtration.values()):
        assert_in_vkey_order(c)
    assert_order_complex(barycentric_subdivide(s), s, s.ambient.simplices)
    assert_order_complex(interior_order_complex(s), s, s.ambient.simplices - s.ends.simplices)


@pytest.mark.parametrize("name", [n for n in builders.BUILDERS if n != "susp2-cone-circle"])
def test_order_complexes_of_every_builder_against_their_chains(name):
    s = builders.build(name)
    assert_order_complex(barycentric_subdivide(s), s, s.ambient.simplices)
    assert_order_complex(interior_order_complex(s), s, s.ambient.simplices - s.ends.simplices)


def test_no_construction_makes_a_boolean_vertex():
    """True == 1, so a rank keyed on the vertex would give both one place;
    the vkey order stays exact because no vertex id holds a boolean. JSON
    refuses them, and builders, cones, suspensions and subdivisions make
    ids from strings, integers and tuples of the ids they are given."""
    def booleans(v):
        return isinstance(v, bool) or isinstance(v, tuple) and any(map(booleans, v))

    for name in builders.BUILDERS:
        s = builders.build(name)
        models = [s, barycentric_subdivide(s), suspend(s)] if s.dimension < 3 else [s]
        if 1 <= s.dimension < 3 and not len(s.ends):
            models.append(cone(s))
        for m in models:
            assert not any(map(booleans, m.ambient.vertices)), name


def test_vkey_agrees_with_equality_whichever_is_asked_first():
    """True == 1, so (True,) and (1,) are one lru_cache entry; with no
    boolean branch the key is the same whichever of them fills it."""
    for first, second in (((True,), (1,)), ((1,), (True,))):
        vkey.cache_clear()
        assert vkey(first) == vkey(second) == ("t", (("i", 1),))


def subcomplexes(s):
    return (s.ambient, s.ends, *(s.F(k) for k in range(2, s.dimension + 1)))


def named_copy(s):
    """The order complex s with vertex r named ``barycenters(s)[r]``, built and
    sorted by the constructor: the subdivision with the simplices of its source as
    vertex ids, an oracle for the order and the dumps of the int-labelled one."""
    labels = barycenters(s)

    def named(c):
        return SimplicialComplex([tuple(map(labels.__getitem__, x)) for x in c.simplices],
                                 closed=True)

    return StratifiedComplex(named(s.ambient), s.dimension, ends=named(s.ends),
                             filtration={k: named(c) for k, c in s.filtration.items()})


@seed(15)
@settings(max_examples=40)
@given(complexes() | mixed_complexes())
def test_each_int_model_read_back_through_its_labels_is_the_labelled_construction(s):
    for public in (barycentric_subdivide(s), interior_order_complex(s)):
        labels = barycenters(public)
        assert list(labels) == sorted(labels, key=vkey)
        assert sorted(public.ambient.vertices) == list(range(len(labels)))
        for c, named in zip(subcomplexes(public), subcomplexes(named_copy(public))):
            for d in range(-1, c.dim + 2):
                back = tuple(tuple(labels[v] for v in x) for x in c.of_dim(d))
                assert back == named.of_dim(d), d
                assert back == tuple(sorted(back, key=lambda x: tuple(map(vkey, x)))), d


@seed(16)
@settings(max_examples=30)
@given(complexes())
def test_chain_dims_on_a_subdivision_are_those_of_its_named_copy(s):
    sd = barycentric_subdivide(s)
    copy = named_copy(sd)
    assert complex_to_dict(sd) == complex_to_dict(copy)
    kinds = STANDARD_KINDS if s.dimension >= 2 else ()

    def model_dims(s, p, sup):
        model, q = _model(s, p, sup)
        return chain_dims(model, _allowability(model, q))

    for p in (None, *(make_standard(kind, s.dimension) for kind in kinds)):
        for sup in SUPPORTS:
            want = model_dims(copy, p, sup)
            assert model_dims(sd, p, sup) == want, (p, sup)
            assert ih_dims(sd, p, sup) == want, (p, sup)
    check_clearing(sd)


def reference_load(data):
    """``complex_from_dict`` as it was built before: each listed simplex sorted
    by vkey, every proper face added by ``itertools.combinations``, and each
    complex sorted by vkey tuples on its own, F(k) from the lists at keys >= k."""
    def closed(lists):
        simps = {tuple(sorted(x, key=vkey)) for x in lists}
        simps.update([f for x in simps for m in range(1, len(x))
                      for f in itertools.combinations(x, m)])
        return simps

    def in_order(simps):
        return simps, {d: tuple(sorted((x for x in simps if len(x) == d + 1),
                                       key=lambda x: tuple(map(vkey, x))))
                       for d in range(-1, max(map(len, simps), default=0) + 1)}

    n, filt = data["dimension"], data.get("filtration", {})
    return [in_order(closed(data["simplices"])), in_order(closed(data.get("ends", [])))] + [
        in_order(closed([x for key, xs in filt.items() if int(key) >= k for x in xs]))
        for k in range(2, n + 1)]


def maximal(lists):
    sets = [set(x) for x in lists]
    return [x for x, a in zip(lists, sets) if not any(a < b for b in sets)]


@st.composite
def listed_complexes(draw):
    """The JSON form of a built complex, its vertices renamed to strings, to
    ints or to both, each list shuffled, with repeats or only its maximal
    simplices, and F(k) listed whole or only off F(k + 1)."""
    s = draw(BASES | st.sampled_from((builders.cylinder, builders.cone_circle,
                                      builders.cone_torus, builders.pinched_cylinder)).map(
        lambda build: build()))
    for op in draw(st.lists(st.sampled_from((cone, suspend, normalize_isolated)),
                            max_size=2)):
        if s.dimension >= 3 or (op is cone and len(s.ends)) or (
                op is normalize_isolated and s.F(2).dim > 0):
            break
        s = op(s)
    data = complex_to_dict(s)
    ids = draw(st.sampled_from(("str", "int", "mixed")))
    names = {v: v if ids == "str" or ids == "mixed" and j % 2 else j - 7
             for j, v in enumerate(data["vertices"])}
    rng = draw(st.randoms(use_true_random=False))

    def relisted(lists):
        lists = [[names[v] for v in x] for x in lists]
        if draw(st.booleans()):
            lists = maximal(lists)
        lists += rng.sample(lists, min(len(lists), draw(st.integers(0, 3))))
        rng.shuffle(lists)
        for x in lists:
            rng.shuffle(x)
        return lists

    filt = data["filtration"]
    if draw(st.booleans()):  # each F(k) list without what a deeper one lists
        filt = {k: [x for x in xs if not any(x in filt[j] for j in filt if int(j) > int(k))]
                for k, xs in filt.items()}
    return dict(data, vertices=list(names.values()), simplices=relisted(data["simplices"]),
                ends=relisted(data["ends"]),
                filtration={k: relisted(xs) for k, xs in filt.items()})


@seed(17)
@given(listed_complexes())
def test_the_load_gives_the_complexes_the_full_closure_and_sort_gave(data):
    s = complex_from_dict(data)
    for c, (simps, by_dim) in zip(subcomplexes(s), reference_load(data), strict=True):
        assert c.simplices == simps
        assert {d: c.of_dim(d) for d in by_dim} == by_dim


def per_entry_simplex_list(value, what):
    """``complexes._simplex_list`` as it was: one ``simplex()`` call per listed simplex."""
    if not isinstance(value, list) or not all(isinstance(x, list) for x in value):
        raise UsageError("%s must be a list of lists of vertex ids" % what)
    try:
        if set(map(type, itertools.chain.from_iterable(value))) <= {str, int}:
            return list(map(simplex, value))
        return [simplex(_vertex_ids(x, what)) for x in value]
    except ComputationError:  # a repeated vertex
        x = next(x for x in value if len(set(x)) < len(x))
        raise UsageError("%s: simplex %s repeats a vertex" % (what, json.dumps(x)))


def per_entry_load(data):
    with mock.patch("ihkl.complexes._simplex_list", per_entry_simplex_list):
        return complex_from_dict(data)


def assert_loads_as_per_entry(data):
    """The same of_dim tuples, vertex types included, in the ambient, the ends and each F(k)."""
    got, want = complex_from_dict(data), per_entry_load(data)
    for a, b in zip(subcomplexes(got), subcomplexes(want), strict=True):
        assert repr([a.of_dim(d) for d in range(-1, a.dim + 2)]) == repr(
            [b.of_dim(d) for d in range(-1, b.dim + 2)])


DATA = Path(__file__).resolve().parents[1] / "src" / "ihkl" / "data"


@pytest.mark.parametrize("name", sorted(builders.BUILDERS))
def test_each_bundled_file_loads_as_a_simplex_call_per_entry_loaded_it(name):
    assert_loads_as_per_entry(json.loads((DATA / (name + ".json")).read_text()))


@seed(20)
@given(listed_complexes())
def test_a_listed_complex_loads_as_a_simplex_call_per_entry_loaded_it(data):
    assert_loads_as_per_entry(data)


TRIANGLE = {"dimension": 2, "vertices": ["a", "b", "c", 1, 2], "simplices": [["a", "b", "c"]]}
BAD_DOCUMENTS = [dict(TRIANGLE, **change) for change in (
    {"simplices": [["a", "a", "b"]]},
    {"ends": [["b", "a", "b"]]},
    {"filtration": {"2": [["c", "a", "c"]]}},
    {"simplices": [["a", "b", "c"], [1, "a", 1]]},
    {"simplices": [["a", "b", "c"], ["a", "a"], ["b", 1.5]]},  # two bad: the first is named
    {"simplices": [["a", "b", "c"], ["b", 1.5], ["a", "a"]]},
    {"simplices": [["a", "b", "c"], ["a", True]]},
    {"simplices": [["a", "b", "c"], ["a", ["b"]]]},
    {"ends": [["a", None]]},
    {"filtration": {"2": [[{"v": "a"}]]}},
    {"simplices": "ab"},
    {"simplices": ["abc"]},
    {"simplices": [["a", "b", "c"], ["a", "z"], ["y", "b"]]},
    {"vertices": [1, True, "c"], "simplices": [[1, True], [True, "c"], ["c", 1]]},
)] + [json.loads(path.read_text()) for path in sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "bad").glob("*.json"))
    if path.name != "not-json.json"]


@pytest.mark.parametrize("data", BAD_DOCUMENTS, ids=range(len(BAD_DOCUMENTS)))
def test_a_bad_list_gets_the_message_a_simplex_call_per_entry_gave(data):
    messages = []
    for load in (complex_from_dict, per_entry_load):
        try:
            load(data)
        except (UsageError, ComputationError) as e:
            messages.append((type(e), str(e)))
        else:
            messages.append(None)
    assert messages[0] == messages[1]
    if data == dict(TRIANGLE, simplices=[["a", "b", "c"], ["a", "a"], ["b", 1.5]]):
        assert messages[0][1] == 'simplices: simplex ["a", "a"] repeats a vertex'


@seed(18)
@given(st.lists(st.text(max_size=3), unique=True) | st.lists(st.integers(), unique=True))
def test_plain_order_is_taken_only_where_it_is_the_vkey_order(ids):
    assert _plain(ids)
    assert sorted(ids) == sorted(ids, key=vkey)
    faces = [tuple(ids[j:k]) for j in range(len(ids)) for k in range(j, len(ids) + 1)]
    assert sorted(faces) == sorted(faces, key=vkey)
    assert simplex(ids) == tuple(sorted(ids, key=vkey))


@pytest.mark.parametrize("ids, order", [
    ([2, "a", 1, "B"], (1, 2, "B", "a")),
    ([("b",), "a", 3, (1, 0)], (3, "a", (1, 0), ("b",))),
    ([(True,), (0, 5), 2], (2, (0, 5), (True,))),
    ([True, "x"], (True, "x")),
])
def test_mixed_nested_and_boolean_ids_keep_the_vkey_order(ids, order):
    assert not _plain(ids)
    assert simplex(ids) == order
    assert_in_vkey_order(SimplicialComplex([simplex(ids)]))


def reference_suspend(s):
    """``suspend`` as it was built before ``product``: each path of the
    prism over a simplex sorted by ``simplex``, every face added, and the
    ends both caps and the prism over L."""
    def prism(sub):
        simps = set()
        for x in sub.simplices:
            bottom, top = [(v, 0) for v in x], [(v, 1) for v in x]
            simps.update(simplex(bottom[:j + 1] + top[j:]) for j in range(len(x)))
        return {f for y in simps for m in range(1, len(y) + 1)
                for f in itertools.combinations(y, m)}

    caps = {tuple((v, e) for v in x) for x in s.ambient.simplices for e in (0, 1)}
    return [prism(s.ambient), prism(s.ends) | caps,
            *(prism(s.F(k)) for k in range(2, s.dimension + 2))]


def check_suspend(s):
    sus = suspend(s)
    assert sus.dimension == s.dimension + 1
    for c, want in zip(subcomplexes(sus), reference_suspend(s), strict=True):
        assert c.simplices == want
        assert_in_vkey_order(c)


@seed(20)
@settings(max_examples=25)
@given(complexes() | mixed_complexes())
def test_suspend_is_the_prism_with_each_path_sorted(s):
    check_suspend(s)


@pytest.mark.parametrize("name", builders.BUILDERS)
def test_suspend_of_every_builder_is_the_prism_with_each_path_sorted(name):
    check_suspend(builders.build(name))
