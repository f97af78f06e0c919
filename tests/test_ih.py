"""Intersection homology: allowability, dimension tables, and the
structural checks (cone formula, suspension shift, stalks, duality,
extremal perversities, normalization)."""

import json
import re
from collections import Counter
from importlib import resources
from itertools import chain, combinations

import pytest

from ihkl import builders, complexes, ih
from ihkl.complexes import (SUPPORTS, SimplicialComplex, StratifiedComplex, _allowability,
                            _model, barycentric_subdivide, barycenters, compact_model,
                            complex_from_dict, cone, homology_dims, product, simplex, suspend,
                            validate, vkey)
from ihkl.errors import (ComputationError, InternalConsistencyError, UsageError,
                         ValidationError)
from ihkl.ih import (allowable_complex, allowable_simplices, duality_report,
                     extremal_comparison, ih_dims, is_normal, is_orientable,
                     local_stalk_table, normalize_isolated)
from ihkl.perversity import STANDARD_KINDS, custom, make_standard

ZERO2 = make_standard("zero", 2)
MID3 = make_standard("lower_middle", 3)

# three triangles on the edge ab: not a pseudomanifold
BOOK = StratifiedComplex(
    SimplicialComplex([("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")]), 2)


def test_pinched_cylinder_ih_tables():
    pc = builders.pinched_cylinder()
    assert ih_dims(pc, ZERO2, "borel_moore") == {0: 0, 1: 0, 2: 2}
    assert ih_dims(pc, ZERO2, "compact") == {0: 2, 1: 0, 2: 0}


def test_manifold_ih_equals_homology():
    for name in ("circle", "sphere", "torus", "cylinder", "two-circles"):
        s = builders.build(name)
        n = max(s.dimension, 2)
        for kind in ("zero", "lower_middle", "top"):
            p = make_standard(kind, n)
            for sup in ("borel_moore", "compact"):
                assert ih_dims(s, p if s.dimension >= 2 else None, sup) == \
                    homology_dims(s, sup), (name, kind, sup)


def test_allowable_simplices_cone_over_circle():
    c = builders.cone_circle()
    # with zero perversity a 0-chain may not touch the apex
    verts = allowable_simplices(c, ZERO2, 0)
    assert ("apex",) not in verts
    assert len(verts) == 0  # every other vertex sits in the ends
    # 2-simplices are unconstrained at i = 2: 2 - 2 + 0 >= 1 - 1
    assert len(allowable_simplices(c, ZERO2, 2)) == 3


def test_allowable_simplices_compact_lie_on_the_compact_model():
    # the open cone's compact model is the order complex of the simplices
    # off the boundary circle; with zero perversity every 2-simplex of it
    # is allowable, and every vertex but the apex
    c = builders.cone_circle()
    model = compact_model(c)
    assert allowable_complex(c, ZERO2, "compact").context.ambient == model.ambient
    assert allowable_simplices(c, ZERO2, 2, "compact") == list(model.ambient.of_dim(2))
    verts = allowable_simplices(c, ZERO2, 0, "compact")
    apex = barycenters(model).index(("apex",))
    assert verts == [v for v in model.ambient.of_dim(0) if v != (apex,)]


def test_allowable_complex_matches_rank_shortcut():
    for name in ("pinched-cylinder", "cone-torus", "cone-two-circles"):
        s = builders.build(name)
        n = s.dimension
        for kind in ("zero", "lower_middle", "top"):
            p = make_standard(kind, n)
            ac = allowable_complex(s, p)
            assert ac.dims() == ih_dims(s, p, "borel_moore"), (name, kind)


def cone_over_two_spheres():
    """The cone over two octahedral spheres glued at x+: F(2) is the edge from
    the apex to x+ and F(3) the apex, so the first non-empty F(k) is not the last."""
    sphere = builders.sphere().ambient.simplices
    glued = [simplex(v if v == "x+" else v + "'" for v in x) for x in sphere]
    return cone(StratifiedComplex(SimplicialComplex([*sphere, *glued]), 2,
                                  filtration={2: SimplicialComplex([("x+",)])}))


@pytest.mark.parametrize("subdivided", [False, True], ids=["raw", "subdivided"])
def test_allowability_counts_the_vertices_of_each_simplex_in_each_stratum(subdivided):
    # independent of _allowability, which allowable_complex reads too
    inputs = {name: builders.build(name) for name in builders.BUILDERS}
    inputs["cone over two spheres"] = two = cone_over_two_spheres()
    assert two.F(2).vertices > two.F(3).vertices
    for name, s in inputs.items():
        if s.dimension < 2:
            continue
        s = barycentric_subdivide(s) if subdivided else s
        ps = [make_standard(kind, s.dimension) for kind in STANDARD_KINDS]
        for p, sup in ((p, sup) for p in ps + [custom([0, 1, 1, 1])] for sup in SUPPORTS):
            model, q = _model(s, p, sup)
            allowed = _allowability(model, q)
            strata = [(k, {v for x in model.F(k).simplices for v in x}, q(k))
                      for k in range(2, model.dimension + 1)]
            for i in range(model.dimension + 1):
                for x in model.ambient.of_dim(i):
                    counts = [(k, len(vs.intersection(x)), qk) for k, vs, qk in strata]
                    want = all(c == 0 or c - 1 <= i - k + qk for k, c, qk in counts)
                    assert (allowed is None or allowed(x, i)) == want, (name, str(p), sup, x)


@pytest.mark.parametrize("call", [
    lambda s: ih_dims(s, ZERO2, "borel_moore"),
    lambda s: ih_dims(s, ZERO2, "compact"),
    lambda s: allowable_complex(s, ZERO2),
    lambda s: allowable_simplices(s, ZERO2, 0),
    lambda s: local_stalk_table(s, "a", ZERO2),
    lambda s: homology_dims(s, "borel_moore"),
    lambda s: homology_dims(s, "compact"),
], ids=["ih_dims-bm", "ih_dims-compact", "allowable_complex",
        "allowable_simplices", "local_stalk_table", "homology_dims-bm",
        "homology_dims-compact"])
def test_every_ih_entry_point_gates_its_input(call):
    # a fresh complex each case, refused on every call
    book = StratifiedComplex(BOOK.ambient, BOOK.dimension)
    for _ in range(2):
        with pytest.raises(ValidationError, match="pseudomanifold"):
            call(book)


def test_a_complex_is_gated_every_call_and_keeps_one_model_per_mode(monkeypatch):
    gated = []
    monkeypatch.setattr(complexes, "require_structure", gated.append)
    s = builders.cone_torus()
    ps = [make_standard(kind, 3) for kind in STANDARD_KINDS]
    for sup in SUPPORTS:
        models = {allowable_complex(s, p, sup).context for p in ps}
        assert len(models) == 1, sup
        # homology reads the IH model of its supports mode
        assert allowable_complex(s, None, sup).context in models
        assert homology_dims(s, sup) == ih_dims(s, None, sup)
    assert gated == [s] * (len(SUPPORTS) * (len(ps) + 3))
    # a strata-full complex is its own Borel-Moore model under a perversity
    assert allowable_complex(s, ps[0]).context is s


def count_rank_loops(monkeypatch):
    loops = []
    chain_dims = complexes.chain_dims
    monkeypatch.setattr(complexes, "chain_dims",
                        lambda *args: loops.append(args) or chain_dims(*args))
    return loops


def whole_table(s):
    """Homology and IH for every standard perversity, in both supports."""
    ps = [make_standard(kind, s.dimension) for kind in STANDARD_KINDS]
    return [(homology_dims(s, sup), [ih_dims(s, p, sup) for p in ps]) for sup in SUPPORTS]


def test_one_rank_loop_per_model_and_effective_perversity(monkeypatch):
    # F(2) = F(3) = the apex: the four perversities read only p(3), 0 or 1;
    # per supports that is one loop for homology and two for IH
    s = barycentric_subdivide(builders.cone_torus())
    loops = count_rank_loops(monkeypatch)
    first = whole_table(s)
    assert len(loops) == 6
    assert whole_table(s) == first and len(loops) == 6
    # each supports mode first on a fresh complex: a memo shared across the
    # modes would hand the first table the other mode's answers
    for sup, (hom, ihs) in zip(SUPPORTS, first):
        fresh = barycentric_subdivide(builders.cone_torus())
        assert homology_dims(fresh, sup) == hom
        assert [ih_dims(fresh, make_standard(kind, 3), sup)
                for kind in STANDARD_KINDS] == ihs, sup
    # no F(k) is non-empty, so homology and every perversity share a model's loop;
    # the torus has no ends, so both supports share its one model too
    for name, want in (("torus", 1), ("cylinder", 2)):
        s = barycentric_subdivide(builders.build(name))
        del loops[:]
        first = whole_table(s)
        assert len(loops) == want, name
        assert whole_table(s) == first and len(loops) == want, name


def count_gate_runs(monkeypatch):
    runs = []
    report = complexes._structure_report
    monkeypatch.setattr(complexes, "_structure_report",
                        lambda s: runs.append(s) or report(s))
    return runs


def test_a_subdivision_is_gated_once_when_it_is_made(monkeypatch):
    runs = count_gate_runs(monkeypatch)
    source = builders.cone_torus()
    s = barycentric_subdivide(source)
    # the source passes, so the subdivision takes its verdict
    assert runs == [source] and s._memo["gate"] == ()
    first = whole_table(s)
    assert len(runs) == 1
    assert whole_table(s) == first and len(runs) == 1


def test_a_subdivision_of_a_subdivision_reads_the_verdict_kept_on_the_subdivision(monkeypatch):
    sd = barycentric_subdivide(builders.cone_torus())
    runs = count_gate_runs(monkeypatch)
    sd2 = barycentric_subdivide(sd)
    assert runs == [] and sd2._memo["gate"] == ()
    assert whole_table(sd2) == whole_table(sd) and runs == []


def test_a_loaded_complex_is_gated_once_over_a_whole_table(monkeypatch):
    data = json.loads((resources.files("ihkl") / "data" / "cone-torus.json").read_text())
    s = complex_from_dict(data)
    runs = count_gate_runs(monkeypatch)
    first = whole_table(s)
    assert runs == [s]
    assert whole_table(s) == first and runs == [s]


def test_a_failing_complex_is_refused_every_call_with_one_message(monkeypatch):
    book = StratifiedComplex(BOOK.ambient, BOOK.dimension)
    runs = count_gate_runs(monkeypatch)
    msgs = []
    for call in (lambda: ih_dims(book, ZERO2), lambda: homology_dims(book, "compact"),
                 lambda: allowable_complex(book, None)):
        with pytest.raises(ValidationError) as err:
            call()
        msgs.append(str(err.value))
    assert msgs == ["complex failed validation: pseudomanifold "
                    "(7 interior (n-1)-simplices without exactly two cofaces)"] * 3
    assert runs == [book]


def test_a_subdivision_that_fails_is_made_and_refused_at_its_first_query(monkeypatch):
    book = StratifiedComplex(BOOK.ambient, BOOK.dimension)
    runs = count_gate_runs(monkeypatch)
    sd = barycentric_subdivide(book)
    # the source fails, so the subdivision is gated itself, for its own message
    assert runs == [book, sd]
    for _ in range(2):
        with pytest.raises(ValidationError, match="pseudomanifold"):
            homology_dims(sd, "borel_moore")
    assert len(runs) == 2


def test_validate_reports_afresh_after_queries(monkeypatch):
    for s, ok in ((barycentric_subdivide(builders.cone_torus()), True),
                  (StratifiedComplex(BOOK.ambient, BOOK.dimension), False)):
        try:
            whole_table(s)
        except ValidationError:
            assert not ok
        runs = count_gate_runs(monkeypatch)
        rep = validate(s)
        assert list(rep.checks) == ["purity", "pseudomanifold", "filtration", "no_codim_1",
                                    "ends_full", "strata_full"]
        assert rep.ok == ok and rep.checks["pseudomanifold"][0] == ok
        assert validate(s) is not rep and runs == [s, s]


def test_a_perversity_read_only_at_an_empty_stratum_shares_the_loop(monkeypatch):
    # R x the pinched cylinder: F(2) is R x the pinch, F(3) is empty, so
    # (0, 1) differs from the zero perversity only where nothing is read
    s = builders.build("susp-pinched-cylinder")
    assert len(s.F(2)) and not len(s.F(3))
    loops = count_rank_loops(monkeypatch)
    for sup in SUPPORTS:
        want = ih_dims(s, make_standard("zero", 3), sup)
        before = len(loops)
        assert ih_dims(s, custom([0, 1]), sup) == want, sup
        assert len(loops) == before, sup


def test_a_returned_table_is_the_callers_own():
    s = builders.cone_torus()
    for sup in SUPPORTS:
        for call in (lambda: homology_dims(s, sup), lambda: ih_dims(s, None, sup),
                     lambda: ih_dims(s, MID3, sup)):
            want = dict(call())
            got = call()
            got[0] = -1
            got[99] = 1
            assert call() == want, sup


def reference_structure_report(s):
    """The gate as it was: one count of every face of every n-simplex."""
    rep = complexes.ValidationReport()
    n, K = s.dimension, s.ambient
    faces = Counter(chain.from_iterable(
        combinations(t, m) for t in K.of_dim(n) for m in range(1, n + 2)))
    rep.add("purity", len(faces) == len(K),
            "%d simplices not contained in an %d-simplex" % (len(K) - len(faces), n))
    bad = [x for x in K.of_dim(n - 1) if faces[x] != 2 and x not in s.ends]
    rep.add("pseudomanifold", not bad,
            "%d interior (n-1)-simplices without exactly two cofaces" % len(bad))
    msgs = ["dim F(%d) = %d > %d" % (k, s.F(k).dim, n - k)
            for k in range(2, n + 1) if s.F(k).dim > n - k]
    rep.add("filtration", not msgs, "; ".join(msgs))
    rep.add("no_codim_1", not s.F(2).of_dim(n - 1), "F(2) has (n-1)-simplices")
    return rep


def gate_inputs():
    for name in builders.BUILDERS:
        s = builders.build(name)
        yield name, s
        if name != "susp2-cone-circle":  # 30,309 simplices once subdivided
            yield name + " subdivided", barycentric_subdivide(s)
    yield "book", BOOK
    yield "dangling edge", StratifiedComplex(
        SimplicialComplex([*builders.sphere().ambient.simplices, ("x+", "out")]), 2)
    yield "stray vertex", StratifiedComplex(
        SimplicialComplex([*builders.sphere().ambient.simplices, ("out",)]), 2)
    yield "tetrahedron as dimension 2", StratifiedComplex(
        SimplicialComplex([("a", "b", "c", "d")]), 2)
    yield "point", builders.point()
    yield "two points", StratifiedComplex(SimplicialComplex([("a",), ("b",)]), 0)


def test_the_gate_reports_what_the_face_count_reported():
    failed = set()
    for name, s in gate_inputs():
        rep = complexes._structure_report(s)
        assert rep.to_json() == reference_structure_report(s).to_json(), name
        failed.update(name for check, (passed, _) in rep.checks.items() if not passed)
    assert failed == {"book", "dangling edge", "stray vertex", "tetrahedron as dimension 2"}


def test_homology_gates_the_filtration_before_dropping_it():
    # the octahedral sphere with an edge in F(2): a codimension-1 stratum
    s = StratifiedComplex(builders.sphere().ambient, 2, filtration={
        2: SimplicialComplex([("x+", "y+")])})
    for sup in SUPPORTS:
        for call in (lambda: homology_dims(s, sup), lambda: ih_dims(s, None, sup)):
            with pytest.raises(ValidationError, match="filtration"):
                call()


def test_duality_needs_two_perversities_in_dimension_two_and_up():
    # None is no allowability condition, complementary to no perversity
    pc = builders.pinched_cylinder()
    for p, q in ((None, ZERO2), (ZERO2, None), (None, None)):
        with pytest.raises(ComputationError, match="not complementary"):
            duality_report(pc, p, q)


def test_a_perversity_below_the_complex_dimension_is_refused():
    with pytest.raises(ComputationError, match="cannot restrict"):
        ih_dims(builders.cone_torus(), ZERO2, "borel_moore")


def test_stalks_need_a_perversity_in_dimension_two_and_up():
    with pytest.raises(ComputationError,
                       match="a perversity is required in dimension >= 2"):
        local_stalk_table(builders.sphere(), "x+", None)


def test_non_full_strata_are_subdivided_not_refused():
    # the octahedral sphere with F(2) = {x+, y+}: the edge x+y+ is not in F(2)
    s = StratifiedComplex(builders.sphere().ambient, 2, filtration={
        2: SimplicialComplex([("x+",), ("y+",)], closed=True)})
    assert not s.strata_full()
    assert local_stalk_table(s, "x+", ZERO2) == {-2: 1}
    # the stalk subdivides only the link: s keeps its verdict and no model
    assert set(s._memo) == {"gate"}
    for sup in SUPPORTS:
        model = allowable_complex(s, ZERO2, sup).context.ambient
        for i in range(3):
            simps = allowable_simplices(s, ZERO2, i, sup)
            assert simps and all(x in model for x in simps), (sup, i)


def test_unknown_supports_mode_is_one_usage_error():
    pc = builders.pinched_cylinder()
    for call in (lambda: homology_dims(pc, "bogus"),
                 lambda: ih_dims(pc, ZERO2, "bogus"),
                 lambda: allowable_simplices(pc, ZERO2, 0, "bogus"),
                 lambda: allowable_complex(pc, ZERO2, "bogus")):
        with pytest.raises(UsageError, match="unknown supports mode"):
            call()


def test_allowable_complex_boundary_composites_vanish():
    # construction itself asserts d o d = 0; reach the assertion path
    ac = allowable_complex(builders.cone_torus(), make_standard("top", 3))
    assert set(ac.boundary) <= {1, 2, 3}


def test_a_free_column_read_at_the_wrong_end_fails_at_run_time(plant):
    """The first non-zero kernel entry in place of the last: the boundary
    coordinates read there no longer recombine to the boundary."""
    plant(ih, "allowable_complex", "next(reversed(coeffs))", "next(iter(coeffs))")
    with pytest.raises(InternalConsistencyError, match=re.escape(
            "boundary of an allowable chain left the allowable complex in degree 3")):
        ih.allowable_complex(builders.cone_torus(), make_standard("top", 3))


def test_a_boundary_matrix_with_its_rows_permuted_fails_at_run_time(plant):
    """d_2 with its rows reversed: every boundary still recombines, and the
    ranks are the same, but d_1 d_2 is no longer zero."""
    plant(ih, "allowable_complex", "RationalMatrix(len(prev_free), len(chains), entries)",
          "RationalMatrix(len(prev_free), len(chains), entries if i != 2 else "
          "{(len(prev_free) - 1 - k, j): c for (k, j), c in entries.items()})")
    with pytest.raises(InternalConsistencyError, match="^composite boundary is non-zero$"):
        ih.allowable_complex(builders.sphere(), None)


def test_cone_formula_all_links_and_perversities():
    # the stalk at the apex, read off the link's IH, is the Borel-Moore IH of
    # the open cone, which is the apex's open star, in degree -i
    links = {"circle": builders.circle(), "two-circles": builders.two_circles(),
             "torus": builders.torus()}
    for lname, link in links.items():
        c = cone(link)
        for kind in ("zero", "lower_middle", "top"):
            p = make_standard(kind, c.dimension)
            bm = ih_dims(c, p, "borel_moore")
            assert local_stalk_table(c, "apex", p) == {-i: d for i, d in bm.items() if d}, \
                (lname, kind)


def test_cone_formula_edge_degree():
    # k = 3, top perversity: the cutoff degree k - p(k) = 2 keeps H_1(torus)
    c, top = cone(builders.torus()), make_standard("top", 3)
    assert ih_dims(c, top, "borel_moore") == {0: 0, 1: 0, 2: 2, 3: 1}
    assert local_stalk_table(c, "apex", top) == {-3: 1, -2: 2}


def test_suspension_shift():
    # Kunneth with the open interval: Borel-Moore IH of R x X is that of X one
    # degree up, and compact IH that of X in the same degree
    for x, p in ((builders.pinched_cylinder(), MID3),
                 (builders.cone_torus(), make_standard("lower_middle", 4))):
        bm, cp = ih_dims(x, p, "borel_moore"), ih_dims(x, p, "compact")
        assert ih_dims(suspend(x), p, "borel_moore") == {0: 0, **{i + 1: d for i, d in bm.items()}}
        assert ih_dims(suspend(x), p, "compact") == {**cp, x.dimension + 1: 0}


def test_suspension_values_pinched_cylinder():
    sus = suspend(builders.pinched_cylinder())
    assert ih_dims(sus, MID3, "borel_moore") == {0: 0, 1: 0, 2: 0, 3: 2}


def test_local_stalk_tables():
    ct = builders.cone_torus()
    assert local_stalk_table(ct, "apex", MID3) == {-3: 1}
    assert local_stalk_table(ct, "apex", make_standard("top", 3)) == {-3: 1, -2: 2}
    # a smooth vertex sees only the fundamental class of its link
    assert local_stalk_table(builders.torus(), "t0", ZERO2) == {-2: 1}
    assert local_stalk_table(builders.pinched_cylinder(), "p0", ZERO2) == {-2: 2}


def test_local_stalk_tables_in_dimension_one_and_zero():
    # the cone formula reads the link's reduced homology: a point of a curve
    # has two points as its link and the constant stalk, and so does a point
    assert local_stalk_table(builders.circle(), "c0", None) == {-1: 1}
    assert local_stalk_table(builders.circle(5), "c3", ZERO2) == {-1: 1}
    assert local_stalk_table(builders.two_circles(), "b1", None) == {-1: 1}
    assert local_stalk_table(builders.point(), "p", None) == {0: 1}
    # the same at the barycenter of a vertex of a subdivided curve, not {-1: -1}
    sd = barycentric_subdivide(builders.circle())
    assert local_stalk_table(sd, barycenters(sd).index(("c0",)), None) == {-1: 1}


@pytest.mark.parametrize("name, vertex, kind", [
    ("point", "p", "zero"), ("circle", "c0", "zero"), ("sphere", "x+", "zero"),
    ("torus", "t0", "zero"), ("cone-circle", "apex", "zero"),
    ("pinched-cylinder", "p0", "zero"), ("cone-torus", "apex", "lower_middle"),
    ("cone-torus", "apex", "top")])
def test_a_product_with_a_circle_shifts_the_stalk_down_one_degree(name, vertex, kind):
    s = builders.build(name)
    p = make_standard(kind, max(s.dimension + 1, 2))
    want = {d - 1: c for d, c in local_stalk_table(s, vertex, p).items()}
    assert want
    assert local_stalk_table(product(s, builders.circle()), (vertex, "c0"), p) == want


def test_local_stalk_tables_next_to_a_stratum():
    # once subdivided, the suspended pinched cylinder has 49 vertices off the
    # ends: the barycenter of the singular line's edge, whose normal link is
    # two circles, and 48 smooth vertices, many of them next to that line
    s = barycentric_subdivide(builders.susp_pinched_cylinder())
    tables = {v: local_stalk_table(s, v, MID3)
              for v in s.ambient.vertices if (v,) not in s.ends}
    assert len(tables) == 49
    assert tables.pop(barycenters(s).index((("p0", 0), ("p0", 1)))) == {-3: 2}
    assert all(t == {-3: 1} for t in tables.values())


def star_stalk(s, x, p):
    """The stalk at x by a second route, with no truncation read: the open star of
    x is a conical neighbourhood, so its Borel-Moore IH in degree i is the stalk in
    degree -i (the cone formula). It is the closed star of x with the link of x as
    its ends and each F(k) restricted to it."""
    star = SimplicialComplex([y for y in s.ambient.simplices if x in y])
    nbhd = StratifiedComplex(star, s.dimension, ends=s.ambient.link(x), filtration={
        k: s.F(k).restrict_to(star.simplices) for k in range(2, s.dimension + 1)})
    return {-i: c for i, c in ih_dims(nbhd, p).items() if c}


@pytest.mark.parametrize("name", [name for name in builders.BUILDERS
                                  if name != "susp2-cone-circle"
                                  and builders.build(name).dimension >= 2])
@pytest.mark.parametrize("subdivided", [False, True], ids=["raw", "subdivided"])
def test_a_stalk_is_the_borel_moore_ih_of_the_open_star(name, subdivided):
    s = builders.build(name)
    s = barycentric_subdivide(s) if subdivided else s
    ps = [make_standard(kind, s.dimension) for kind in STANDARD_KINDS]
    for x in sorted(s.ambient.vertices - s.ends.vertices, key=vkey):
        for p in ps:
            assert star_stalk(s, x, p) == local_stalk_table(s, x, p), (x, str(p))


def test_a_stalk_on_a_curve_is_the_borel_moore_homology_of_the_open_star():
    # the link's reduced homology: two points give one class, not two
    s = builders.circle()
    assert star_stalk(s, "c0", None) == local_stalk_table(s, "c0", None) == {-1: 1}


def test_local_stalk_table_rejects_ends_vertex():
    with pytest.raises(ComputationError):
        local_stalk_table(builders.cone_torus(), "t0", MID3)


def test_normalize_pinched_cylinder():
    pc = builders.pinched_cylinder()
    assert not is_normal(pc)
    norm = normalize_isolated(pc)
    assert is_normal(norm)
    # two disjoint open disks
    assert len(norm.ambient.connected_components()) == 2
    assert homology_dims(norm, "compact") == {0: 2, 1: 0, 2: 0}
    assert homology_dims(norm, "borel_moore") == {0: 0, 1: 0, 2: 2}
    # intersection homology is untouched in both support modes
    for sup in ("borel_moore", "compact"):
        assert ih_dims(norm, ZERO2, sup) == ih_dims(pc, ZERO2, sup)


def two_copies(base):
    """The disjoint union of two copies of a compact manifold, told apart by tag."""
    simps = [tuple((tag, v) for v in x) for tag in ("a", "b")
             for x in base.ambient.of_dim(base.dimension)]
    return StratifiedComplex(SimplicialComplex(simps), base.dimension)


@pytest.mark.parametrize("name", ["sphere", "torus", "circle"])
def test_normalization_keeps_ih_and_every_copy_keeps_its_stratum(name):
    # the cone over two spheres or two tori (n = 3) or two circles (n = 2):
    # the apex splits into two copies, each the apex of the cone over one copy
    base = builders.build(name)
    s = cone(two_copies(base))
    norm = normalize_isolated(s)
    n = s.dimension
    copies = sorted(norm.F(2).vertices)
    assert copies == [("apex", 0), ("apex", 1)]
    assert all((c,) in norm.F(n) for c in copies)
    for kind in STANDARD_KINDS:
        p = make_standard(kind, n)
        for sup in SUPPORTS:
            assert ih_dims(norm, p, sup) == ih_dims(s, p, sup), (kind, sup)
        apex = local_stalk_table(cone(base), "apex", p)
        for c in copies:
            assert local_stalk_table(norm, c, p) == apex, (kind, c)


def test_normalize_noop_on_normal_input():
    ct = builders.cone_torus()
    out = normalize_isolated(ct)
    assert out.ambient.f_vector() == ct.ambient.f_vector()


def test_duality_pinched_cylinder():
    rep = duality_report(builders.pinched_cylinder(), ZERO2, ZERO2)
    assert rep.passed


def test_duality_rejects_non_complementary():
    with pytest.raises(ComputationError):
        duality_report(builders.cone_torus(), make_standard("zero", 3),
                       make_standard("zero", 3))


def test_duality_even_strata_middle():
    for name in ("pinched-cylinder", "susp-pinched-cylinder",
                 "susp-cone-circle", "cone-two-circles"):
        s = builders.build(name)
        n = s.dimension
        rep = duality_report(s, make_standard("lower_middle", n),
                             make_standard("upper_middle", n))
        assert rep.passed, (name, rep.render_text())
        assert any("middle" in label for label, _, _ in rep.rows), name


def test_orientability_and_normality_flags():
    assert is_orientable(builders.torus())
    assert is_normal(builders.cone_torus())
    assert not is_normal(builders.pinched_cylinder())


def test_extremal_comparison_cone_torus():
    rep = extremal_comparison(builders.cone_torus())
    assert rep.passed


def test_extremal_comparison_rejects_non_normal():
    with pytest.raises(ComputationError):
        extremal_comparison(builders.pinched_cylinder())


# the 6-vertex real projective plane: every edge lies in exactly two triangles
RP2 = StratifiedComplex(SimplicialComplex(
    [tuple(int(c) for c in t) for t in
     "124 126 135 136 145 234 235 256 346 456".split()]), 2)


def test_the_projective_plane_is_normal_and_not_orientable():
    assert validate(RP2).ok
    assert is_normal(RP2) and not is_orientable(RP2)
    for sup in SUPPORTS:
        assert homology_dims(RP2, sup) == {0: 1, 1: 0, 2: 0}, sup
    with pytest.raises(ComputationError, match="not orientable"):
        extremal_comparison(RP2)


def test_subdivision_invariance_spot():
    pc = builders.pinched_cylinder()
    sd = barycentric_subdivide(pc)
    for sup in ("borel_moore", "compact"):
        assert ih_dims(sd, ZERO2, sup) == ih_dims(pc, ZERO2, sup)
    assert ih_dims(sd, ZERO2, "borel_moore") == {0: 0, 1: 0, 2: 2}


def test_perversity_monotonicity_interleaving():
    # larger perversities can only let more cycles through in top degree
    ct = builders.cone_torus()
    dims = {kind: ih_dims(ct, make_standard(kind, 3), "borel_moore")
            for kind in ("zero", "lower_middle", "upper_middle", "top")}
    assert dims["zero"] == {0: 0, 1: 0, 2: 0, 3: 1}
    assert dims["lower_middle"] == dims["zero"]
    assert dims["upper_middle"] == {0: 0, 1: 0, 2: 2, 3: 1}
    assert dims["top"] == dims["upper_middle"]


def test_custom_perversity():
    ct = builders.cone_torus()
    assert ih_dims(ct, custom([0, 1]), "borel_moore") == {0: 0, 1: 0, 2: 2, 3: 1}


@pytest.mark.parametrize("call, message", [
    (lambda: local_stalk_table(builders.cone_torus(), "nowhere", make_standard("zero", 3)),
     "'nowhere' is not a vertex of the complex"),
    (lambda: normalize_isolated(suspend(builders.cone_circle())),
     "normalization implemented for isolated singular points only"),
], ids=["stalk-at-an-unknown-vertex", "normalize-a-singular-line"])
def test_bad_report_arguments_are_refused(call, message):
    with pytest.raises(ComputationError, match="^%s$" % re.escape(message)):
        call()
