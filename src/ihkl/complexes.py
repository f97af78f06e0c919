"""Finite simplicial complexes with stratification data.

A stratified complex is a pair (K, L) plus a filtration by subcomplexes:
K is a finite simplicial complex, L ("ends") a subcomplex modeling the
boundary at infinity, and the represented space is X = |K| - |L|.
Borel-Moore chains are relative chains mod L; compactly supported chains
live on the part of K disjoint from L.

Simplices are tuples of vertex identifiers, strictly sorted under a fixed
total order; the alternating-sign boundary of the sorted tuple is the
orientation convention. All coefficients are exact rationals. An order
complex (a subdivision) has int vertex ids, the ranks of its barycenters in
vkey order, and keeps its label table: ``barycenters(s)[r]`` is the simplex
whose barycenter is vertex r.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import ComputationError, UsageError, ValidationError
from .linalg import int_column_pivots
from .perversity import Perversity

@lru_cache(maxsize=None)
def vkey(v):
    """A canonical sort key giving a strict total order on vertex ids.

    Vertex identifiers may be strings, integers, or (after products and
    normalization) nested tuples of these; the key is injective
    up to ``==`` and consistent across mixed types. A boolean is the
    integer it equals, as it is in every set and dict of simplices.
    """
    if isinstance(v, tuple):
        return ("t", tuple(vkey(x) for x in v))
    if isinstance(v, int):
        return ("i", v)
    return ("s", str(v))


def _plain(ids) -> bool:
    """Whether tuples of these ids sort as their vkey tuples: all str, or all int."""
    types = set(map(type, ids))
    return types <= {str} or types <= {int}


def simplex(vertices) -> tuple:
    """Normalize an iterable of vertex ids into a sorted simplex tuple."""
    t = tuple(vertices)
    t = tuple(sorted(t, key=None if _plain(t) else vkey))
    for a, b in zip(t, t[1:]):
        if a == b:
            raise ComputationError("degenerate simplex %r" % (vertices,))
    return t


def faces_with_signs(s: tuple):
    """The codimension-1 faces of a sorted simplex with boundary signs."""
    for j in range(len(s)):
        yield (s[:j] + s[j + 1:], -1 if j % 2 else 1)


def _close(simplices, out: set) -> set:
    """Add every face of ``simplices`` to the face-closed set ``out``, largest
    first: one already in ``out`` is skipped, as its faces are there."""
    for s in sorted(simplices, key=len, reverse=True):
        if s not in out:
            out.update(*(itertools.combinations(s, m) for m in range(1, len(s) + 1)))
    return out


class SimplicialComplex:
    """A finite set of simplices closed under taking faces."""

    def __init__(self, simplices, closed=False):
        simps = set(map(tuple, simplices)) if closed else _close(map(tuple, simplices), set())
        self._simplices = frozenset(simps)
        by_dim = {}
        for s in simps:
            by_dim.setdefault(len(s) - 1, []).append(s)
        # plain tuple order where it is the vkey order, else ranks in vkey order
        vs = set().union(*simps)
        rank = None if _plain(vs) else {v: r for r, v in enumerate(sorted(vs, key=vkey))}
        key = None if rank is None else lambda s: tuple(map(rank.__getitem__, s))
        self._by_dim = {d: tuple(sorted(v, key=key)) for d, v in by_dim.items()}

    @classmethod
    def empty(cls):
        return cls([], closed=True)

    @property
    def simplices(self):
        return self._simplices

    def of_dim(self, d):
        """The d-simplices in canonical order, as the complex's own tuple."""
        return self._by_dim.get(d, ())

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    @property
    def vertices(self):
        return frozenset(s[0] for s in self.of_dim(0))

    def __contains__(self, s):
        return tuple(s) in self._simplices

    def __len__(self):
        return len(self._simplices)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __hash__(self):
        return hash(self._simplices)

    def f_vector(self):
        return tuple(len(self.of_dim(d)) for d in range(self.dim + 1))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._simplices <= other._simplices

    def is_full_in(self, ambient: "SimplicialComplex") -> bool:
        """Full: any ambient simplex with all vertices here lies here."""
        return not any(map(self.vertices.issuperset, ambient.simplices - self._simplices))

    def full_subcomplex(self, vertices) -> "SimplicialComplex":
        return self._subcomplex(filter(frozenset(vertices).issuperset, self._simplices))

    def restrict_to(self, simplices) -> "SimplicialComplex":
        return self._subcomplex(self._simplices.intersection(simplices))

    @staticmethod
    def _in_order(by_dim) -> "SimplicialComplex":
        """The complex whose d-simplices are ``by_dim[d]``, in that order, unchecked."""
        out = object.__new__(SimplicialComplex)
        out._by_dim = {d: xs for d, xs in by_dim.items() if xs}
        # made from a dict, a frozenset is sized to fit; grown one item at a time, up to twice that
        out._simplices = frozenset(dict.fromkeys(itertools.chain.from_iterable(by_dim.values())))
        return out

    def _subcomplex(self, keep) -> "SimplicialComplex":
        """The subcomplex on ``keep``, face-closed simplices of self, in self's order
        (no re-sort). ``keep`` must lie in self, or the caller's check catches it."""
        sub = object.__new__(SimplicialComplex)
        sub._simplices = frozenset(keep)
        sub._by_dim = {}
        for d, xs in self._by_dim.items():
            kept = tuple(filter(sub._simplices.__contains__, xs))
            if kept:
                sub._by_dim[d] = kept
        return sub

    def link(self, x) -> "SimplicialComplex":
        """x deleted from every simplex that contains it, save (x,) itself.

        Cut in self's order, which is the link's: its vertices are some of self's,
        and deleting x from sorted s < t keeps s < t. Say they first differ at j.
        s[j] is not x, or t would not hold x. If t[j] is x, x lies after j in s, so
        at j s less x keeps s[j] and t less x has t[j + 1] > x > s[j]. Else x lies
        at one place before j in both, or after j in both, and s[j] < t[j] decides.
        """
        return SimplicialComplex._in_order({
            d - 1: tuple(tuple(v for v in s if v != x) for s in xs if x in s)
            for d, xs in self._by_dim.items() if d})

    def connected_components(self):
        """Partition of the vertex set by edge connectivity."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.of_dim(1):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for v in self.vertices:
            comps.setdefault(find(v), set()).add(v)
        return sorted(comps.values(), key=lambda c: min(vkey(v) for v in c))


_EMPTY = SimplicialComplex.empty()  # complexes are immutable, so one serves every default


class StratifiedComplex:
    """Ambient complex K, formal dimension n, ends L, filtration F(2..n).

    Immutable once built, so it can keep what every homology and IH
    entry point derives from it alone: its gate verdict and one model for
    each supports mode, which homology and IH share (see ``_model``).
    """

    __slots__ = ("ambient", "dimension", "ends", "filtration", "_memo")

    def __init__(self, ambient: SimplicialComplex, dimension: int,
                 ends: SimplicialComplex | None = None,
                 filtration: dict | None = None):
        ends = ends if ends is not None else _EMPTY
        filt = dict(filtration or {})
        if not ends.is_subcomplex_of(ambient):
            raise ComputationError("ends is not a subcomplex of the ambient complex")
        steps = {}
        for k in range(2, dimension + 1):
            fk = filt.pop(k, None) or _EMPTY
            if not fk.is_subcomplex_of(ambient):
                raise ComputationError("filtration F(%d) is not a subcomplex" % k)
            steps[k] = fk
        if filt:
            raise ComputationError("filtration keys out of range: %r" % sorted(filt))
        ks = sorted(steps)
        for a, b in zip(ks, ks[1:]):
            if not steps[b].is_subcomplex_of(steps[a]):
                raise ComputationError("filtration not nested at codimension %d" % b)
        for name, value in (("ambient", ambient), ("dimension", dimension),
                            ("ends", ends), ("filtration", MappingProxyType(steps)),
                            ("_memo", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a StratifiedComplex is immutable")

    def F(self, k) -> SimplicialComplex:
        if k < 2:
            return self.ambient
        return self.filtration.get(k, _EMPTY)

    def stratum_nonempty(self, k) -> bool:
        nxt = self.F(k + 1) if k + 1 <= self.dimension else _EMPTY
        return len(self.F(k)) > len(nxt)

    def strata_full(self) -> bool:
        return all(self.F(k).is_full_in(self.ambient)
                   for k in range(2, self.dimension + 1))

    def interior(self) -> SimplicialComplex:
        """Full subcomplex on the vertices not in the ends."""
        keep = self.ambient.vertices - self.ends.vertices
        return self.ambient.full_subcomplex(keep)


@dataclass(frozen=True)
class Chain:
    """A degree-graded sparse rational chain."""

    degree: int
    coefficients: dict  # simplex -> non-zero Fraction

    def __post_init__(self):
        clean = {}
        for s, c in self.coefficients.items():
            if len(s) - 1 != self.degree:
                raise ComputationError(
                    "simplex %r has dimension %d, chain degree is %d"
                    % (s, len(s) - 1, self.degree))
            c = Fraction(c)
            if c:
                clean[tuple(s)] = c
        object.__setattr__(self, "coefficients", clean)


# ---------------------------------------------------------------------------
# boundary matrices and homology

def chain_basis(s: StratifiedComplex, i: int):
    """The i-simplices of K not in L, in canonical order."""
    return list(itertools.filterfalse(s.ends.simplices.__contains__, s.ambient.of_dim(i)))


def boundary_columns(basis_i, basis_prev):
    """Columns of the boundary matrix from basis_i to basis_prev."""
    row = {x: r for r, x in enumerate(basis_prev)}.get
    cuts = [(slice(j), slice(j + 1, None), -1 if j % 2 else 1)  # x without x[j]
            for j in range(len(basis_i[0]) if basis_i else 0)]
    cols = []
    for x in basis_i:
        col = {}
        for head, tail, sign in cuts:
            r = row(x[head] + x[tail])
            if r is not None:
                col[r] = sign
        cols.append(col)
    return cols


def chain_dims(s: StratifiedComplex, allow=None) -> dict:
    """Homology dimensions of the relative chains of (K, L), by degree.

    ``allow(x, i)`` says whether the i-simplex x may carry an allowable
    chain (None: every simplex may, which gives ordinary homology). The
    allowable i-chains lie on allow_i with boundary on allow_{i-1}, so
    degree i has dimension |allow_i| - rank d_i - b_{i+1}, where d_i acts
    on the chains on allow_i and b_i = dim(im d_i meeting allow_{i-1}).

    One reduction of d_i, rows in allow_{i-1} first, gives both ranks: its
    fresh +-1 int columns from ``boundary_columns`` go unchecked (input checks
    live at the ``column_pivots`` edge) to ``int_column_pivots``, which reduces
    them in place to R = d_i V, V invertible, each non-zero column pivoting on
    its largest non-zero row. A column pivoting in allow_{i-1} is zero on every
    later row, and columns with distinct pivots are independent, so rank d_i is
    the pivot count, b_i the count in allow_{i-1}.

    Clearing: the degrees are reduced from n down, and d_i skips the
    column of every j in allow_i that is a pivot of d_{i+1}. Let z be the
    reduced column of d_{i+1} pivoting at j. Every later row is outside
    allow_i, so z is an allowable i-chain whose last entry is at j, and
    d_i z = 0. So d_i e_j lies in the span of the allowable columns before
    j, and the reduction takes column j to zero: a non-zero vector in the
    span of reduced columns with distinct pivots always meets one of those
    pivots at its largest row. A zero column adds no pivot and changes no
    later column, so rank d_i and b_i stay the same. This needs allow_i in
    the order of the columns of d_i. With every simplex allowed it is the
    usual twist (Chen & Kerber 2011).
    """
    dims, bases = {}, []  # bases[i]: the i-simplices, allow_i first, and |allow_i|
    for i in range(0, s.dimension + 1):
        inside, outside = [], []
        for x in chain_basis(s, i):
            (inside if allow is None or allow(x, i) else outside).append(x)
        dims[i] = len(inside)
        bases.append((inside + outside, len(inside)))
    cleared = ()  # the positions in allow_i whose column of d_i reduces to zero
    for i in range(s.dimension, 0, -1):
        cells, n = bases[i]
        rows, split = bases[i - 1]
        pivots = int_column_pivots(boundary_columns(
            [x for j, x in enumerate(cells[:n]) if j not in cleared], rows))
        dims[i] -= len(pivots)
        cleared = {r for r in pivots if r < split}
        dims[i - 1] -= len(cleared)
    return dims


def _fit_perversity(p: Perversity | None, n: int) -> Perversity | None:
    """Restrict p to dimension n; None when there is no allowability condition."""
    return None if p is None or n < 2 else p.restrict(n)


def _effective(s: StratifiedComplex, p: Perversity | None):
    """All ``_allowability`` reads of p: (k, p(k)) where F(k) is non-empty; None
    when it reads none, which is ordinary homology's key too."""
    return None if p is None else tuple((k, p(k)) for k, fk in s.filtration.items() if fk) or None


def _allowability(s: StratifiedComplex, p: Perversity | None):
    """The test (simplex, degree) -> allowable for p; None when all are.

    With full filtration subcomplexes a closed i-simplex meets F(k) in
    the face spanned by its vertices in F(k), of dimension cnt - 1. A simplex
    off the first non-empty F(k), which holds all the nested others, passes at once.
    """
    steps = [(k, s.F(k).vertices, pk) for k, pk in _effective(s, p) or ()]
    if not steps:
        return None
    strata = steps[0][1]

    def allowed(x, i):
        if strata.isdisjoint(x):
            return True
        for k, vs, pk in steps:
            cnt = sum(map(vs.__contains__, x))
            if cnt and cnt - 1 > i - k + pk:
                return False
        return True

    return allowed


def interior_order_complex(s: StratifiedComplex) -> StratifiedComplex:
    """The full subcomplex of the barycentric subdivision away from the ends.

    The order complex of the simplices of K not in L, so its ends are
    empty. This is the standard deformation retract of |K| - |L| and
    needs no fullness hypothesis on L.
    """
    return _order_complex(s, s.ambient.simplices - s.ends.simplices)


def _order_complex(s: StratifiedComplex, simplices) -> StratifiedComplex:
    """The complex of chains of proper face inclusions among ``simplices``,
    int-labelled: vertex r is the barycenter of ``barycenters(out)[r]``, the
    simplex of K of rank r in vkey order. The rank keeps the order, so every
    chain basis and boundary matrix is the one the simplices of K would give as
    vertex ids. Each chain is a sorted rank tuple: a chain ending at x is one
    ending at a proper face of x with r, the rank of x, put in at its bisection
    point. The ends and each F(k) carry over as the chains whose members all lie
    in them, which for a subcomplex means the chains whose largest member does.
    """
    labels = tuple(sorted(simplices, key=None if _plain(s.ambient.vertices) else vkey))
    rank = {x: r for r, x in enumerate(labels)}
    chains, by_dim = {}, {}  # largest member -> the chains ending there, on ranks
    for x in sorted(labels, key=len):  # faces before cofaces
        r = rank[x]
        chains[x] = cs = [(r,)] + [ch[:j] + (r,) + ch[j:]
                                   for m in range(1, len(x))
                                   for f in itertools.combinations(x, m) if f in rank
                                   for ch in chains[f] for j in (bisect(ch, r),)]
        for ch in cs:
            by_dim.setdefault(len(ch) - 1, []).append(ch)
    # on int ranks plain order is the vkey order
    amb = SimplicialComplex._in_order({d: tuple(sorted(xs)) for d, xs in by_dim.items()})

    def carried(sub):
        return amb._subcomplex(ch for x, cs in chains.items() if x in sub for ch in cs)

    out = StratifiedComplex(
        amb, s.dimension, ends=carried(s.ends),
        filtration={k: carried(s.F(k)) for k in range(2, s.dimension + 1)})
    out._memo["labels"] = labels
    return out


def barycenters(s: StratifiedComplex):
    """The label table of an order complex (a subdivision, ``interior_order_complex``
    or an order-complex ``compact_model``): vertex r is the barycenter of the r-th
    simplex, and the table is in vkey order. None when s is not an order complex.
    The labels of sd(sd K) are simplices of sd K, whose vertices are ints."""
    return s._memo.get("labels")


def compact_model(s: StratifiedComplex) -> StratifiedComplex:
    """A compact-supports model of X with empty ends: s when its ends are empty,
    the full subcomplex off the ends when s is an order complex (``barycenters(s)``
    not None), else ``interior_order_complex(s)``.

    The full subcomplex off the ends models X when pushing off them is a
    stratum-faithful retraction: the ends are full, so every simplex off them keeps
    an interior face, and that face lies in exactly the F(k) the simplex does. In an
    order complex the ends and each F(k) are carried from subcomplexes of K: a chain
    lies in one when its largest member does. So each is full (a chain whose members
    all lie in L is a chain of sd L), and stays full off the ends. The members of a
    chain x that lie in L are faces of every later member, so they form an initial
    segment, and the interior face tau of x, x without them, keeps the largest member
    of x. That member alone decides membership in each sd F(k), so tau lies in
    exactly the steps x does.
    """
    if len(s.ends) == 0:
        return s
    if barycenters(s) is None:
        return interior_order_complex(s)
    inner = s.interior()
    return StratifiedComplex(inner, s.dimension, filtration={
        k: s.F(k).restrict_to(inner.simplices) for k in range(2, s.dimension + 1)})


SUPPORTS = ("borel_moore", "compact")


def _model(s: StratifiedComplex, p: Perversity | None, supports: str):
    """The model and fitted p behind every homology and IH entry point:
    checks the supports mode, gates s, takes s itself in Borel-Moore supports
    and ``compact_model`` in compact. Homology runs on the same model with no
    allowability test. A model other than s, and s when it is an order complex,
    has full strata (see ``compact_model``), so only a raw s is checked, and
    subdivided once when its strata are not full.

    s keeps the model for each supports mode, and None for itself, which kept
    in its own memo would be a reference cycle. The gate runs every call and
    reads the verdict kept on s; the fitted p is made per call.
    """
    if supports not in SUPPORTS:
        raise UsageError("unknown supports mode %r" % (supports,))
    require_structure(s)
    p = _fit_perversity(p, s.dimension)
    if supports not in s._memo:
        m = s if supports == "borel_moore" else compact_model(s)
        if m is s and barycenters(s) is None and not s.strata_full():
            m = _order_complex(s, s.ambient.simplices)
        s._memo[supports] = None if m is s else m
    return s._memo[supports] or s, p


def _dims(s: StratifiedComplex, p: Perversity | None, supports: str) -> dict:
    """``chain_dims`` on ``_model``'s model, behind ``ih_dims`` and ``homology_dims``:
    kept in the model's memo per ``_effective`` perversity, a fresh dict each call."""
    model, p = _model(s, p, supports)
    memo, key = model._memo.setdefault("dims", {}), _effective(model, p)
    if key not in memo:
        memo[key] = chain_dims(model, _allowability(model, p))
    return dict(memo[key])


def homology_dims(s: StratifiedComplex, supports: str) -> dict:
    """Rational homology dimensions by degree: IH with no allowability
    condition, ``ih.ih_dims(s, None, supports)``, on the same model. ``borel_moore``
    is the homology of C(K)/C(L), ``compact`` that of ``compact_model`` of (K, L);
    a raw s whose strata are not full is subdivided once, as ``_model`` says."""
    return _dims(s, None, supports)


# ---------------------------------------------------------------------------
# constructions

def barycentric_subdivide(s: StratifiedComplex) -> StratifiedComplex:
    """Barycentric subdivision of (K, L) and the whole filtration.

    The order complex of the simplices of K, int-labelled: vertex r is the
    barycenter of ``barycenters(sd)[r]``. After one application every
    filtration subcomplex and the ends are full subcomplexes.

    sd K takes the verdict of s if s passes: sd K is pure if K is, an (n-1)-chain
    off sd L lacks one dimension and has two cofaces (if the top, as many as its
    last member, off L, has), and dim sd F(k) = dim F(k). Else it is gated itself,
    now, so a construction pays for it, not whichever query comes first.
    """
    m = _order_complex(s, s.ambient.simplices)
    m._memo["gate"] = _failed_checks(m) if _verdict(s) else ()
    return m


def cone(base: StratifiedComplex) -> StratifiedComplex:
    """The closed cone over a compact base, with the open cone as X.

    The apex is a new vertex joined to every simplex of the base; the
    ends are a copy of the base, so the represented space is the open
    cone. The apex alone is the deepest filtration step, in dimension >= 2.
    """
    if len(base.ends) != 0:
        raise ComputationError("cone requires a compact base (empty ends)")
    apex = "apex"
    if apex in base.ambient.vertices:
        raise ComputationError("apex vertex %r already present" % (apex,))
    k = base.dimension + 1

    def coned(sub: SimplicialComplex) -> set:
        return {(apex,), *sub.simplices, *(simplex(x + (apex,)) for x in sub.simplices)}

    amb = SimplicialComplex(coned(base.ambient), closed=True)
    filt = {j: amb._subcomplex(coned(base.F(j)) if j < k else [(apex,)])
            for j in range(2, k + 1)}
    return StratifiedComplex(amb, k, ends=base.ambient, filtration=filt)


@lru_cache(maxsize=None)
def _chains(i, j):
    """The lattice paths from (0, 0) to (i, j) with steps (1, 0), (0, 1) and (1, 1), each
    as its i and its j steps: the chains of pairs that are onto both factors' indices."""
    if i == j == 0:
        return [((0,), (0,))]
    return [(xs + (i,), ys + (j,)) for di, dj in ((1, 0), (0, 1), (1, 1)) if di <= i and dj <= j
            for xs, ys in _chains(i - di, j - dj)]


def product(s: StratifiedComplex, m: StratifiedComplex) -> StratifiedComplex:
    """X x M for a factor M with an empty filtration, such as a manifold.

    K x M is the staircase triangulation. Its simplices over a simplex x of K
    and y of M are the chains of pairs (x[i], y[j]) that meet every vertex of x
    and of y, so each is built once, and sorted, as vkey compares pairs
    lexicographically. The ends are L x M and K x L_M; F(k) is F(k) x M, of
    codimension k in dimension n + dim M."""
    if any(map(len, m.filtration.values())):
        raise ComputationError("a product factor must have an empty filtration")

    def cells(a: SimplicialComplex, b: SimplicialComplex) -> list:  # |a| x |b|
        return [tuple(zip(map(x.__getitem__, xs), map(y.__getitem__, ys)))
                for x in a.simplices for y in b.simplices
                for xs, ys in _chains(len(x) - 1, len(y) - 1)]

    amb = SimplicialComplex(cells(s.ambient, m.ambient), closed=True)
    ends = amb._subcomplex(cells(s.ends, m.ambient) + cells(s.ambient, m.ends))
    filt = {k: amb._subcomplex(cells(s.F(k), m.ambient)) for k in range(2, s.dimension + 1)}
    return StratifiedComplex(amb, s.dimension + m.dimension, ends=ends, filtration=filt)


_INTERVAL = StratifiedComplex(SimplicialComplex([(0, 1)]), 1, ends=SimplicialComplex([(0,), (1,)]))


def suspend(s: StratifiedComplex) -> StratifiedComplex:
    """The model of R x X: ``product(s, I)``, with I the edge (0, 1) and both
    endpoints its ends, so the ends are both caps and the prism over L."""
    return product(s, _INTERVAL)


# ---------------------------------------------------------------------------
# validation

class ValidationReport:
    """Pass/fail per structural check; reports rather than throws."""

    def __init__(self):
        self.checks = {}

    def add(self, name, passed, message=""):
        self.checks[name] = (bool(passed), "" if passed else message)

    @property
    def ok(self):
        return all(p for p, _ in self.checks.values())

    def render_text(self):
        return "\n".join("%-16s %s%s" % (name, "pass" if passed else "FAIL",
                                        "  (%s)" % msg if msg else "")
                         for name, (passed, msg) in self.checks.items())

    def to_json(self):
        return {name: {"passed": p, "detail": m}
                for name, (p, m) in self.checks.items()}


def _structure_report(s: StratifiedComplex) -> ValidationReport:
    """Purity, pseudomanifold, filtration and no_codim_1: what homology needs.

    Linear in the simplices: K is pure iff dim K <= n and each d-simplex,
    d < n, has a coface one up; only an impure K is closed from its n-simplices."""
    rep, n, K = ValidationReport(), s.dimension, s.ambient

    def facets(d):  # the (d-1)-faces of the d-simplices, once per d-simplex
        return itertools.chain.from_iterable(itertools.combinations(t, d) for t in K.of_dim(d))

    cofaces = Counter(facets(n)) if n else Counter()
    pure = K.dim <= n and len(cofaces) == len(K.of_dim(n - 1)) and all(
        len(set(facets(d))) == len(K.of_dim(d - 1)) for d in range(1, n))
    rep.add("purity", pure, "" if pure else "%d simplices not contained in an %d-simplex"
            % (len(K) - len(SimplicialComplex(K.of_dim(n))), n))

    bad = [x for x in K.of_dim(n - 1) if cofaces[x] != 2 and x not in s.ends]
    rep.add("pseudomanifold", not bad,
            "%d interior (n-1)-simplices without exactly two cofaces" % len(bad))

    msgs = ["dim F(%d) = %d > %d" % (k, s.F(k).dim, n - k)
            for k in range(2, n + 1) if s.F(k).dim > n - k]
    rep.add("filtration", not msgs, "; ".join(msgs))

    rep.add("no_codim_1", not s.F(2).of_dim(n - 1), "F(2) has (n-1)-simplices")
    return rep


def validate(s: StratifiedComplex) -> ValidationReport:
    """Every structural check, fullness of the ends and strata included."""
    rep = _structure_report(s)
    K = s.ambient
    rep.add("ends_full", s.ends.is_full_in(K), "ends subcomplex is not full")

    not_full = [k for k in range(2, s.dimension + 1) if not s.F(k).is_full_in(K)]
    rep.add("strata_full", not not_full,
            "F(%s) not full; IH is computed after one barycentric subdivision" %
            ",".join(map(str, not_full)))
    return rep


def _failed_checks(s: StratifiedComplex) -> tuple:
    return tuple("%s (%s)" % (name, msg)
                 for name, (passed, msg) in _structure_report(s).checks.items() if not passed)


def _verdict(s: StratifiedComplex) -> tuple:
    """``_failed_checks`` of s, kept in its memo once computed: s is immutable."""
    if "gate" not in s._memo:
        s._memo["gate"] = _failed_checks(s)
    return s._memo["gate"]


def require_structure(s: StratifiedComplex):
    """The checks homology needs; ValidationError names each one failed, on every
    call, from the ``_verdict`` of s."""
    failed = _verdict(s)
    if failed:
        raise ValidationError("complex failed validation: " + "; ".join(failed))


# ---------------------------------------------------------------------------
# JSON interface

_JSON_KEYS = {"dimension", "vertices", "simplices", "ends", "filtration"}

# Closing a listed simplex with k vertices under faces builds up to 2^k - 1
# simplices, once for each complex it enters; a file whose listed simplices
# would build more in all is refused before any complex is built. The
# largest bundled file builds 5,914.
MAX_FACES = 1_000_000


def _vertex_ids(value, what):
    """A JSON list of vertex ids, each a string or a (non-boolean) integer."""
    if not isinstance(value, list):
        raise UsageError("%s must be a list of vertex ids" % what)
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise UsageError("%s: vertex id %s is not a string or an integer"
                             % (what, json.dumps(v)))
    return value


def _simplex_list(value, what):
    """A JSON list of non-empty lists of distinct vertex ids, as simplex tuples: one
    type check of all ids, one sort of each list (by vkey if ids mix int and str),
    one count of repeats; a bad list is walked in order, naming its first bad one."""
    if not isinstance(value, list) or not all(isinstance(x, list) for x in value):
        raise UsageError("%s must be a list of lists of vertex ids" % what)
    types = set(map(type, itertools.chain.from_iterable(value)))
    if not types <= {str, int} or [] in value or sum(map(len, value)) != sum(
            map(len, map(set, value))):
        for x in value:
            if len(set(_vertex_ids(x, what))) < len(x) or not x:
                raise UsageError("%s: simplex %s %s" % (
                    what, json.dumps(x), "repeats a vertex" if x else "has no vertices"))
    if types <= {str} or types <= {int}:
        return list(map(tuple, map(sorted, value)))
    return [tuple(sorted(x, key=vkey)) for x in value]


def complex_from_dict(data: dict) -> StratifiedComplex:
    """Build a complex from its JSON object, checking the input first.

    ``dimension`` is an integer between 0 and the largest listed simplex
    dimension; vertex ids are strings or integers, never booleans, and all
    listed; filtration keys are codimensions 2..dimension; the listed
    simplices have at most ``MAX_FACES`` faces in all, a filtration list at
    key j counted j - 1 times, once for each F(k) it enters.
    """
    if not isinstance(data, dict):
        raise UsageError("complex file must contain a JSON object")
    unknown = set(data) - _JSON_KEYS
    if unknown:
        raise UsageError("unknown keys in complex file: %s" % ", ".join(sorted(unknown)))
    missing = [k for k in ("dimension", "vertices", "simplices") if k not in data]
    if missing:
        raise UsageError("complex file lacks %s" % ", ".join(missing))
    n = data["dimension"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise UsageError("dimension must be a non-negative integer, got %s"
                         % json.dumps(n))
    vs = set(_vertex_ids(data["vertices"], "vertices"))
    top = _simplex_list(data["simplices"], "simplices")
    top_dim = max(map(len, top), default=0) - 1
    if n > top_dim:
        raise UsageError("dimension %d exceeds the largest simplex dimension %d"
                         % (n, top_dim))
    ends = _simplex_list(data.get("ends", []), "ends")
    filt_in = data.get("filtration", {})
    if not isinstance(filt_in, dict):
        raise UsageError("filtration must map codimensions to simplex lists")
    listed = {}
    for key, arr in filt_in.items():
        try:
            k = int(key)
        except ValueError:
            raise UsageError("filtration key %r is not a codimension" % key)
        if key != str(k) or not 2 <= k <= n:  # "02", " 2" and "+2" are not keys
            raise UsageError("filtration key %r is not a codimension in 2..%d" % (key, n))
        listed.setdefault(k, []).extend(_simplex_list(arr, "filtration %s" % key))
    for x in itertools.filterfalse(vs.issuperset, itertools.chain(top, ends, *listed.values())):
        raise UsageError("simplex %r uses unknown vertex %r"
                         % (x, next(v for v in x if v not in vs)))
    # a list at key j is closed into F(2), ..., F(j)
    faces = sum((1 << len(x)) - 1 for x in itertools.chain(top, ends))
    faces += sum((j - 1) * ((1 << len(x)) - 1) for j, arr in listed.items() for x in arr)
    if faces > MAX_FACES:
        raise UsageError("the listed simplices have %d faces in all, more than %d"
                         % (faces, MAX_FACES))
    amb = SimplicialComplex(top)
    filtration, closure = {}, set()  # closure: the lists at keys k..n, closed
    for k in range(n, 1, -1):
        filtration[k] = amb._subcomplex(_close(listed.get(k, ()), closure))
    return StratifiedComplex(amb, n, ends=amb._subcomplex(_close(ends, set())),
                             filtration=filtration)


def load_complex(path) -> StratifiedComplex:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad UTF-8 too; deep nesting recurses
            raise UsageError("invalid JSON in %s: %s" % (path, e))
    return complex_from_dict(data)


def complex_to_dict(s: StratifiedComplex) -> dict:
    names = {}
    used = set()
    for v in sorted(s.ambient.vertices, key=vkey):
        name = v if isinstance(v, str) else "v%d" % len(names)
        while name in used:
            name += "_"
        names[v] = name
        used.add(name)

    def render(sub: SimplicialComplex):
        out = []
        for d in range(sub.dim + 1):
            out.extend([names[v] for v in x] for x in sub.of_dim(d))
        return out

    return {
        "dimension": s.dimension,
        "vertices": [names[v] for v in sorted(s.ambient.vertices, key=vkey)],
        "simplices": render(s.ambient),
        "ends": render(s.ends),
        "filtration": {str(k): render(s.F(k)) for k in range(2, s.dimension + 1)
                       if len(s.F(k))},
    }


def dump_complex(s: StratifiedComplex, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_dict(s), fh, indent=1)
        fh.write("\n")
