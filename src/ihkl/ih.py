"""Intersection homology of stratified simplicial complexes.

An i-chain is allowable for a perversity p when its support meets each
filtration step F(k) in dimension at most i - k + p(k), and its boundary
satisfies the same bound one degree down. On a triangulation whose
filtration subcomplexes are full, the support condition can be checked
simplex by simplex: the dimension of a union is the maximum of the
dimensions, and fullness makes the intersection of a closed simplex with
F(k) a single face. The boundary condition is imposed on the chain's
boundary after cancellation, which turns the allowable chain groups into
kernels of finite rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (SimplicialComplex, StratifiedComplex, _allowability, _dims,
                        _fit_perversity, _model, boundary_columns, chain_basis, cone,
                        faces_with_signs, homology_dims, require_structure, simplex, suspend,
                        vkey)
from .errors import ComputationError, InternalConsistencyError
from .linalg import RationalMatrix, rank_kernel
from .perversity import Perversity, is_complementary, make_standard


def ih_dims(s: StratifiedComplex, p: Perversity | None,
            supports: str = "borel_moore") -> dict:
    """Intersection homology dimensions by degree; ``homology_dims`` when p is None.

    The input must pass ``require_structure`` (ValidationError
    otherwise). Compact supports are computed on ``compact_model``, whose
    strata are full when it is not s; a raw s whose filtration
    subcomplexes are not full is subdivided once. Every p, None included,
    runs on the one model of the supports mode.
    """
    return _dims(s, p, supports)


def allowable_simplices(s: StratifiedComplex, p: Perversity | None, i: int,
                        supports: str = "borel_moore"):
    """The i-simplices that may appear in an allowable i-chain.

    They are simplices of the model ``ih_dims`` computes on, which is
    ``allowable_complex(s, p, supports).context``: the input is gated,
    compact supports use ``compact_model``, and a raw s whose filtration
    subcomplexes are not full is subdivided once.
    """
    s, p = _model(s, p, supports)
    allowed = _allowability(s, p)
    return [x for x in chain_basis(s, i) if allowed is None or allowed(x, i)]


# ---------------------------------------------------------------------------
# explicit allowable chain complexes

@dataclass
class AllowableComplex:
    """Bases of the allowable chain groups and their boundary matrices.

    ``basis[i]`` is a list of chains spanning the degree-i allowable
    group, each a dict from i-simplex to its non-zero ``Fraction``
    coefficient; ``boundary[i]`` expresses their boundaries in the
    degree-(i-1) basis. The chains live on the model stored in
    ``context``: the input, or its compact model in compact mode; a raw
    input whose strata are not full is subdivided once.
    """

    context: StratifiedComplex
    basis: dict = field(default_factory=dict)       # i -> list of {simplex: Fraction}
    boundary: dict = field(default_factory=dict)    # i -> RationalMatrix

    def dims(self):
        rank = {i: rank_kernel(m)[0] for i, m in self.boundary.items()}
        return {i: len(self.basis.get(i, [])) - rank.get(i, 0) - rank.get(i + 1, 0)
                for i in range(0, self.context.dimension + 1)}


def allowable_complex(s: StratifiedComplex, p: Perversity | None,
                      supports: str = "borel_moore") -> AllowableComplex:
    """Explicit bases for the allowable chain groups (small complexes).

    An independent oracle for ``ih_dims`` on the same model: the
    allowable i-chains are the kernel of the boundary projected off the
    allowable (i-1)-simplices, with a basis from ``rank_kernel``. Each
    basis vector is 1 at its free column and 0 past it, so the
    coordinates of an allowable chain are its entries at the free
    columns; every boundary is recombined from them and checked exactly.
    The tests check ``dims()`` against the rank shortcut; with ``p=None``
    every chain is allowable and it is the oracle for ``homology_dims``.
    """
    s, p = _model(s, p, supports)
    allowed, n = _allowability(s, p), s.dimension
    out = AllowableComplex(s)
    prev_basis, prev_inside, prev_free, prev_cols = [], set(), [], []
    for i in range(0, n + 1):
        basis = chain_basis(s, i)
        allow = [x for x in basis if allowed is None or allowed(x, i)]
        cols = boundary_columns(allow, prev_basis)
        proj = RationalMatrix(
            len(prev_basis), len(allow),
            {(r, j): v for j, col in enumerate(cols)
             for r, v in col.items() if r not in prev_inside})
        index = {x: r for r, x in enumerate(basis)}
        chains, free, chain_cols, bounds = [], [], [], []
        for vec in rank_kernel(proj)[1]:
            coeffs = {allow[j]: c for j, c in enumerate(vec) if c}
            chains.append(coeffs)
            free.append(index[next(reversed(coeffs))])  # last non-zero entry
            chain_cols.append({index[x]: c for x, c in coeffs.items()})
            bounds.append(_combine(zip(cols, vec)))
        out.basis[i] = chains
        if i and chains:
            entries = {}
            for j, b in enumerate(bounds):
                coords = [b.get(r, 0) for r in prev_free]
                if _combine(zip(prev_cols, coords)) != b:
                    raise InternalConsistencyError(
                        "boundary of an allowable chain left the allowable "
                        "complex in degree %d" % i)
                entries.update(((k, j), c) for k, c in enumerate(coords) if c)
            out.boundary[i] = RationalMatrix(len(prev_free), len(chains), entries)
        prev_basis, prev_free, prev_cols = basis, free, chain_cols
        prev_inside = {index[x] for x in allow}

    for i in range(2, n + 1):
        a, b = out.boundary.get(i - 1), out.boundary.get(i)
        if a is not None and b is not None and not _product_is_zero(a, b):
            raise InternalConsistencyError("composite boundary is non-zero")
    return out


def _combine(pairs) -> dict:
    """The sum of c * col over (col, c) pairs, without zero entries."""
    out = {}
    for col, c in pairs:
        if c:
            for r, v in col.items():
                out[r] = out.get(r, 0) + c * v
    return {r: v for r, v in out.items() if v}


def _product_is_zero(a: RationalMatrix, b: RationalMatrix) -> bool:
    """Row by row: row i of ab is the sum of a_ik times row k of b."""
    brows = b.row_dicts()
    return not any(_combine((brows[k], v) for k, v in arow.items()) for arow in a.row_dicts())


# ---------------------------------------------------------------------------
# reports

@dataclass
class ComparisonReport:
    title: str
    rows: list = field(default_factory=list)  # (label, left, right)
    notes: list = field(default_factory=list)

    def add(self, label, left, right):
        self.rows.append((str(label), left, right))

    @property
    def passed(self):
        return all(l == r for _, l, r in self.rows)

    def render_text(self):
        lines = ["%s: %s" % (self.title, "PASS" if self.passed else "FAIL")]
        lines += ["  %-24s %-8s %s vs %s" % (label, "ok" if l == r else "MISMATCH", l, r)
                  for label, l, r in self.rows]
        return "\n".join(lines + ["  note: %s" % m for m in self.notes])

    def to_json(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "rows": [{"label": a, "left": l, "right": r, "equal": l == r}
                     for a, l, r in self.rows],
            "notes": list(self.notes),
        }


def cone_formula_check(link: StratifiedComplex, p: Perversity) -> ComparisonReport:
    """Compare IH of the open cone with the truncation prediction.

    The prediction: degree j of the cone carries IH_{j-1} of the link
    when j >= k - p(k), and nothing below that cutoff (k = cone dimension).
    """
    if len(link.ends) != 0:
        raise ComputationError("cone formula needs a compact link")
    k = link.dimension + 1
    if k < 2 or p.dimension < k:
        raise ComputationError("need a perversity of dimension >= %d" % k)
    pk = p(k)
    c = cone(link)
    direct = ih_dims(c, p, "borel_moore")
    link_ih = ih_dims(link, p, "borel_moore")
    rep = ComparisonReport("cone formula (dim %d, p(%d)=%d)" % (k, k, pk))
    cutoff = k - pk
    for j in range(0, k + 1):
        predicted = link_ih.get(j - 1, 0) if j >= cutoff else 0
        rep.add("degree %d" % j, direct.get(j, 0), predicted)
    rep.notes.append("truncation cutoff at degree %d" % cutoff)
    return rep


def suspension_check(s: StratifiedComplex, p: Perversity) -> ComparisonReport:
    """IH of R x X, Kunneth for ``product(s, I)``, should be IH of X shifted up one degree."""
    n = s.dimension
    if p.dimension < n + 1:
        raise ComputationError("need a perversity of dimension >= %d" % (n + 1))
    base = ih_dims(s, p, "borel_moore")
    sus = ih_dims(suspend(s), p, "borel_moore")
    rep = ComparisonReport("suspension shift (dim %d -> %d)" % (n, n + 1))
    rep.add("degree 0", sus.get(0, 0), 0)
    for i in range(0, n + 1):
        rep.add("degree %d" % (i + 1), sus.get(i + 1, 0), base.get(i, 0))
    return rep


def local_stalk_table(s: StratifiedComplex, x, p: Perversity) -> dict:
    """Stalk cohomology table at a vertex, from the IH of its link.

    Entries sit in degrees -n + j for 0 <= j <= p(k) where k is the
    codimension of the stratum of x; the entry at -n + j is the link's
    reduced IH in degree (n - 1) - j. The link of x is the join of S^(n-k-1)
    with its normal link, so this is the normal link's IH in degree
    (k - 1) - j. Reduced IH, one less in degree 0 and 1 in degree -1 for
    an empty link, differs only for n <= 1. Only non-zero entries are returned.

    The input is gated like ``ih_dims``. The stalk is a local invariant, read on
    the link of x in s itself, with the links of x in the F(k) as its strata: a
    small sphere about x meets F(k) in lk_{F(k)}(x) whether or not F(k) is full.
    When those strata are not full, ``ih_dims`` subdivides the link once, and the
    link in sd K of the vertex labelled (x,) is sd(lk_K x), so the stalk is the one
    at that vertex of sd K.
    """
    n = s.dimension
    if (x,) not in s.ambient:
        raise ComputationError("%r is not a vertex of the complex" % (x,))
    if (x,) in s.ends:
        raise ComputationError("%r lies in the ends; it has no stalk in X" % (x,))
    require_structure(s)
    p = _fit_perversity(p, n)
    if p is None and n >= 2:
        raise ComputationError("a perversity is required in dimension >= 2")
    # F(k) of the link is the link of x in F(k), so a stratum of codimension
    # k in s stays one in the link
    linkst = StratifiedComplex(
        s.ambient.link(x), n - 1,
        filtration={k: s.F(k).link(x) for k in range(2, n) if (x,) in s.F(k)})
    link_ih = ih_dims(linkst, p)
    link_ih[0], link_ih[-1] = link_ih.get(0, 0) - 1, int(n == 0)  # reduced
    k = next((j for j in range(n, 1, -1) if (x,) in s.F(j)), None)
    jmax = 0 if k is None else p(k)  # a smooth point: the link's top IH only
    return {-n + j: link_ih[n - 1 - j] for j in range(jmax + 1) if link_ih.get(n - 1 - j)}


def normalize_isolated(s: StratifiedComplex) -> StratifiedComplex:
    """Split isolated singular vertices into one copy per link component.

    Incident simplices reattach to the copy carrying their link
    component, and the bare vertex becomes all of its copies, so each
    copy stays in every stratum the vertex was in, as a (now normal)
    marker. Below dimension 2 there is no singular stratum, and s is
    returned as it is.
    """
    if s.dimension < 2:
        return s
    sing = s.F(2)
    if sing.dim > 0:
        raise ComputationError(
            "normalization implemented for isolated singular points only")
    split = {}
    for v in sorted(sing.vertices, key=vkey):
        comps = s.ambient.link(v).connected_components()
        if len(comps) > 1:
            split[v] = comps

    def images(x):
        """The simplices x maps to: a bare split vertex to all of its copies."""
        if len(x) == 1 and x[0] in split:
            return [((x[0], i),) for i in range(len(split[x[0]]))]

        def copy(v):
            u = next(u for u in x if u != v)
            return v, next(i for i, c in enumerate(split[v]) if u in c)
        return [simplex([copy(v) if v in split else v for v in x])]

    def mapped(sub: SimplicialComplex):
        return SimplicialComplex([y for x in sub.simplices for y in images(x)])

    return StratifiedComplex(mapped(s.ambient), s.dimension, ends=mapped(s.ends),
                             filtration={k: mapped(s.F(k)) for k in range(2, s.dimension + 1)})


def duality_report(s: StratifiedComplex, p: Perversity, q: Perversity) -> ComparisonReport:
    """Dimension form of Poincare duality for complementary perversities."""
    n = s.dimension
    pf, qf = _fit_perversity(p, n), _fit_perversity(q, n)
    if n >= 2 and (pf is None or qf is None or not is_complementary(pf, qf)):
        raise ComputationError("perversities %s and %s are not complementary" % (p, q))
    rep = ComparisonReport("duality: I_pH_i vs I_qH^c_{n-i}")
    bm = ih_dims(s, pf, "borel_moore")
    cp = ih_dims(s, qf, "compact")
    for i in range(0, n + 1):
        rep.add("degree %d" % i, bm.get(i, 0), cp.get(n - i, 0))
    even = [k for k in range(2, n + 1) if s.stratum_nonempty(k)]
    if even and all(k % 2 == 0 for k in even) and n >= 2:
        m = make_standard("lower_middle", n)
        mb = ih_dims(s, m, "borel_moore")
        mc = ih_dims(s, m, "compact")
        for i in range(0, n + 1):
            rep.add("middle degree %d" % i, mb.get(i, 0), mc.get(n - i, 0))
        rep.notes.append("even-codimension strata: middle self-duality checked")
    return rep


def is_normal(s: StratifiedComplex) -> bool:
    """Link-connectivity normality at every singular vertex."""
    sing_v = s.F(2).vertices
    for v in sorted(sing_v, key=vkey):
        link = s.ambient.link(v)
        inner = link.full_subcomplex(link.vertices - sing_v)
        if len(inner.connected_components()) > 1:
            return False
    return True


def is_orientable(s: StratifiedComplex) -> bool:
    """Greedy orientation propagation over the top-dimensional simplices."""
    n = s.dimension
    top = s.ambient.of_dim(n)
    by_face = {}
    for t in top:
        for f, sign in faces_with_signs(t):
            by_face.setdefault(f, []).append((t, sign))
    orient = {}
    for start in top:
        if start in orient:
            continue
        orient[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for f, sign in faces_with_signs(t):
                if f in s.ends or f in s.F(2):
                    continue
                for t2, sign2 in by_face.get(f, []):
                    if t2 == t:
                        continue
                    want = -sign * orient[t] * sign2
                    if t2 not in orient:
                        orient[t2] = want
                        stack.append(t2)
                    elif orient[t2] != want:
                        return False
    return True


def extremal_comparison(s: StratifiedComplex) -> ComparisonReport:
    """Top perversity against Borel-Moore homology; zero against cohomology.

    Cohomology dimensions over the rationals equal compact homology
    dimensions in the matching degree, which is how the right-hand side
    is computed.
    """
    if not is_normal(s):
        raise ComputationError("complex is not normal; comparison does not apply")
    if not is_orientable(s):
        raise ComputationError("complex is not orientable; comparison does not apply")
    n = s.dimension
    rep = ComparisonReport("extremal perversities")
    top_ih = ih_dims(s, make_standard("top", max(n, 2)), "borel_moore")
    hbm = homology_dims(s, "borel_moore")
    for i in range(0, n + 1):
        rep.add("I_t degree %d" % i, top_ih.get(i, 0), hbm.get(i, 0))
    zero_ih = ih_dims(s, make_standard("zero", max(n, 2)), "borel_moore")
    hc = homology_dims(s, "compact")
    for i in range(0, n + 1):
        rep.add("I_0 deg %d vs H^%d" % (i, n - i), zero_ih.get(i, 0), hc.get(n - i, 0))
    return rep

