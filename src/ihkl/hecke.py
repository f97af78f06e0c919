"""Hecke algebra of S_n over integer Laurent polynomials in v.

The T-basis satisfies T_s^2 = (v^2 - 1) T_s + v^2 T_1 and T_u T_w =
T_{uw} when lengths add. Kazhdan-Lusztig polynomials come from two
independent routes, cross-checked by ``kl_table``: Bott-Samelson
extraction multiplies out v^{-l(w)} (T_{s_1} + 1) ... (T_{s_k} + 1),
removes the lower canonical terms and reads P_{u,w} off in q; the
classical recursion (Kazhdan & Lusztig 1979, (2.2.c)) computes P_{u,w}
with no Hecke product and writes C'_w from it. Each route keeps one memo
(``_bott_samelson``, ``_kl_polys``) and ends in ``_check_kl`` on its table
of P_{u,w}; a single element with more than 720 elements below it, and a
product whose walks pass ``MAX_PRODUCT_WORK`` elements, are refused first
(``_check_work``, ``t_mul``). The involution iota is a test oracle.
Everything is keyed by one-line tuples (``Permutation.word``); a
``Permutation`` appears only at the public boundary
(``HeckeElement.terms``, ``KLResult``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

from .coxeter import (Permutation, _first_descent, _inversions, _swap, all_elements,
                      bruhat_leq, from_word, identity)
from .errors import ComputationError, InternalConsistencyError

MAX_KL_TABLE = 6   # kl_table refuses S_n past this rank (98,407 Bruhat pairs at n = 6)
# The most work one t_mul may do, counted as the walked support sizes: T at
# w0 of S_6 walked from all of S_6 takes 720 elements through 15 letters.
MAX_PRODUCT_WORK = math.factorial(MAX_KL_TABLE) * math.comb(MAX_KL_TABLE, 2)   # 10,800


class LaurentPoly:
    """Sparse integer Laurent polynomial; the variable is v by default."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): c for e, c0 in (coeffs or {}).items()
                       for c in (int(c0),) if c}

    @classmethod
    def _of(cls, coeffs):
        """The polynomial on ``coeffs``, int exponents to non-zero ints, as it is."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._of({e: c for e, c in out.items() if c})

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._of({e: c * other for e, c in self.coeffs.items()} if other else {})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by v^k."""
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def bar(self):
        """Substitute v -> v^{-1}."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    def is_palindromic(self):
        return self.coeffs == {-e: c for e, c in self.coeffs.items()}

    def coefficient(self, e):
        return self.coeffs.get(e, 0)

    def max_degree(self):
        return max(self.coeffs) if self.coeffs else None

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def subs_q(self, q):
        """Evaluate at v^2 = q; only even exponents may be present."""
        total = 0
        for e, c in self.coeffs.items():
            if e % 2:
                raise ComputationError(
                    "odd exponent %d: element does not lie in Z[v^2]" % e)
            total += c * q ** (e // 2)
        return total

    def to_q(self):
        """Rewrite an element of Z[v^2] as a polynomial in q = v^2."""
        out = {}
        for e, c in self.coeffs.items():
            if e % 2 or e < 0:
                raise ComputationError(
                    "exponent %d: element does not lie in Z[q]" % e)
            out[e // 2] = c
        return LaurentPoly(out)

    def format(self, var="v"):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                head = var if e == 1 else "%s^%d" % (var, e)
                if c == 1:
                    term = head
                elif c == -1:
                    term = "-" + head
                else:
                    term = "%d*%s" % (c, head)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    __str__ = format

    def __repr__(self):
        return "LaurentPoly(%r)" % (self.coeffs,)


class HeckeElement:
    """Finite Z[v, v^{-1}]-combination of T-basis elements of rank n.

    The coefficients live in ``_coeffs``, keyed by one-line tuples;
    ``terms`` is a read-only view of them keyed by ``Permutation``.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for w, c in (terms or {}).items():
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly({0: c})
            if w.n != n:
                raise ComputationError("term %s has wrong rank" % w)
            if c:
                clean[w.word] = c
        self._coeffs = clean

    @classmethod
    def _of(cls, n, coeffs):
        """The element with tuple-keyed LaurentPoly coefficients; zeros dropped."""
        out = cls.__new__(cls)
        out.n = n
        out._coeffs = {x: c for x, c in coeffs.items() if c}
        return out

    @classmethod
    def unit(cls, n):
        return cls._of(n, {identity(n).word: ONE})

    @classmethod
    def t(cls, w: Permutation):
        return cls._of(w.n, {w.word: ONE})

    @property
    def terms(self):
        return MappingProxyType({Permutation(x): c for x, c in self._coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, HeckeElement) and self.n == other.n
                and self._coeffs == other._coeffs)

    def __add__(self, other):
        return _combine(self.n, ((self, ONE), (other, ONE)))

    def __sub__(self, other):
        return _combine(self.n, ((self, ONE), (other, -1)))

    def scale(self, c) -> "HeckeElement":
        """Multiply every coefficient by c, an int or a LaurentPoly."""
        return _combine(self.n, ((self, c),))

    def format(self):
        if not self._coeffs:
            return "0"
        parts = []
        for x in sorted(self._coeffs, key=lambda x: (-_inversions(x), x)):
            c, w = self._coeffs[x], Permutation(x)
            if c == 1:
                parts.append("T:%s" % w)
            elif len(c.coeffs) == 1:
                parts.append("%s*T:%s" % (c.format(), w))
            else:
                parts.append("(%s)*T:%s" % (c.format(), w))
        return " + ".join(parts)

    __str__ = format

    def __repr__(self):
        return "HeckeElement(%d, %s)" % (self.n, self.format())


ONE = LaurentPoly({0: 1})
ZERO = LaurentPoly()
V2M1 = LaurentPoly({2: 1, 0: -1})      # v^2 - 1
V2 = LaurentPoly({2: 1})
VM2 = LaurentPoly({-2: 1})
VM2M1 = LaurentPoly({-2: 1, 0: -1})    # v^{-2} - 1


def _combine(n, terms) -> HeckeElement:
    """The sum of c * a over pairs (a, c), a of rank n, c an int or a LaurentPoly."""
    out = {}
    for a, c in terms:
        if a.n != n:
            raise ComputationError("rank mismatch")
        for x, p in a._coeffs.items():
            p = p if c is ONE else p * c
            out[x] = out[x] + p if x in out else p
    return HeckeElement._of(n, out)


def _mul_right_simple(a: HeckeElement, i: int) -> HeckeElement:
    """a * T_{s_i} by the quadratic relation; x s_i < x iff x[i-1] > x[i]."""
    out = {}

    def acc(x, c):
        out[x] = out[x] + c if x in out else c

    for x, c in a._coeffs.items():
        xs = _swap(x, i)
        if x[i - 1] < x[i]:
            acc(xs, c)
        else:
            acc(x, c * V2M1)
            acc(xs, c * V2)
    return HeckeElement._of(a.n, out)


def t_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The algebra product, expanding b along reduced words. Its work is
    counted first: each term T_x of b walks the subwords of x's reduced word
    from the support of a, a set that holds every partial product's support,
    and the set's sizes, summed over every letter of every term, may not
    pass MAX_PRODUCT_WORK; the count stops as soon as they do."""
    if a.n != b.n:
        raise ComputationError("rank mismatch")
    words = [(Permutation(x).reduced_word(), c) for x, c in b._coeffs.items()]
    walks = itertools.chain.from_iterable(_walk(word, a._coeffs) for word, _ in words)
    if any(work > MAX_PRODUCT_WORK for work in itertools.accumulate(walks)):
        raise ComputationError("the product walks more than %d elements, the limit for "
                               "one Hecke product" % MAX_PRODUCT_WORK)
    return _combine(a.n, ((reduce(_mul_right_simple, word, a), c) for word, c in words))


@lru_cache(maxsize=None)
def _iota_t(x: tuple) -> HeckeElement:
    """iota(T_x) for a one-line tuple x: iota(T_{xs}) T_s^{-1} at the first
    right descent s, with T_s^{-1} = v^{-2} T_s + (v^{-2} - 1)."""
    i = _first_descent(x)
    if i is None:
        return HeckeElement._of(len(x), {x: ONE})
    prev = _iota_t(_swap(x, i))
    return _combine(len(x), ((_mul_right_simple(prev, i), VM2), (prev, VM2M1)))


def t_inverse(w: Permutation) -> HeckeElement:
    """(T_w)^{-1}, which is iota(T at w^{-1})."""
    return _iota_t(w.inverse().word)


def iota(a: HeckeElement) -> HeckeElement:
    """The self-duality involution: v -> v^{-1} on coefficients and
    T_w -> (T at w^{-1})^{-1} on the basis.

    On the generators this is T_s -> T_s^{-1}; reversing a reduced word
    while inverting each factor lands on the inverse of the basis
    element at w^{-1}, which is what makes the canonical basis fixed.
    """
    return _combine(a.n, ((_iota_t(x), c.bar()) for x, c in a._coeffs.items()))


@dataclass(frozen=True)
class KLResult:
    """Canonical basis element C'_w with its polynomial data.

    kl_polys maps u to P_{u,w} as a polynomial in q; corrections maps u
    to the palindromic multiple p_u removed during Bott-Samelson
    extraction (that route only). Both are read-only views, since the
    routes' memos keep the result.
    """

    w: Permutation
    cprime: HeckeElement
    kl_polys: MappingProxyType      # Permutation -> LaurentPoly in q
    corrections: MappingProxyType   # Permutation -> LaurentPoly in v


def _check_kl(w: Permutation, table: dict) -> MappingProxyType:
    """One route's P_{u,w}(q), keyed by u's one-line tuple, checked and
    viewed read-only by Permutation: P_{w,w} = 1 and P_{e,w} are present, and
    every other entry has constant term 1 and degree at most (l(w) - l(u) - 1) / 2."""
    if table.get(w.word) != 1 or tuple(range(1, w.n + 1)) not in table:
        raise InternalConsistencyError("P_{w,w} != 1 or no P_{e,w} at w = %s" % w)
    lw = w.length()
    for x, p in table.items():
        if x != w.word and (p.coefficient(0) != 1 or 2 * p.max_degree() > lw - _inversions(x) - 1):
            raise InternalConsistencyError("P(0) != 1 or degree bound violated at (%s, %s): %s"
                                           % (Permutation(x), w, p.format("q")))
    return MappingProxyType({Permutation(x): p for x, p in table.items()})


def _walk(word, start):
    """The sizes of I along a subword walk: I starts as the set start, and
    each letter s of word adds I s to I."""
    below = set(start)
    for i in word:
        below |= {_swap(x, i) for x in below}
        yield len(below)


def _check_work(w: Permutation):
    """Refuse w when [e, w] passes factorial(MAX_KL_TABLE) = 720 elements, the
    largest interval a kl_table holds. The walk along w's reduced word from
    {e} ends at [e, w] and stops as soon as it passes 720; in S_n with
    n <= 6 no interval can, so nothing is walked."""
    limit = math.factorial(MAX_KL_TABLE)
    if w.n > MAX_KL_TABLE and any(size > limit for size in
                                  _walk(w.reduced_word(), [identity(w.n).word])):
        raise ComputationError("the Bruhat interval [e, %s] has more than %d elements, "
                               "the limit for one KL element" % (w, limit))


def kl_bott_samelson(word, n: int) -> KLResult:
    """C'_w from the Bott-Samelson product over a reduced word.

    E = v^{-k} (T_{s_1} + 1) ... (T_{s_k} + 1) equals C'_w plus smaller
    canonical terms; for u < w in decreasing length order the palindromic
    part of v^{l(u)} * (coefficient of T_u) determines the multiple p_u
    of C'_u to subtract. What remains is C'_w. The canonical reduced
    word's result is memoised; any other reduced word is computed anew.
    """
    word = tuple(word)
    w = from_word(word, n)
    if len(word) != w.length():
        raise ComputationError("word %r is not reduced" % (word,))
    _check_work(w)
    if word == w.reduced_word():
        return _bott_samelson(w.word)
    return _extract_bott_samelson(w, word)


@lru_cache(maxsize=None)
def _bott_samelson(x: tuple) -> KLResult:
    """C'_w over the canonical reduced word of w, keyed by its one-line tuple x."""
    w = Permutation(x)
    return _extract_bott_samelson(w, w.reduced_word())


def _extract_bott_samelson(w: Permutation, word: tuple) -> KLResult:
    e = HeckeElement.unit(w.n)
    for i in word:
        e = _mul_right_simple(e, i) + e   # e * (T_s + 1)
    e = e.scale(LaurentPoly({-len(word): 1}))

    # Removing p_u C'_u changes only T_u and terms shorter than u, so one
    # pass in decreasing length sees each coefficient in its final state.
    corrections = {}
    for lu, x in sorted(((_inversions(x), x) for x in e._coeffs if x != w.word),
                        reverse=True):
        g = e._coeffs[x].shift(lu)
        p_u = LaurentPoly({s * d: c for d, c in g.coeffs.items() if d >= 0
                           for s in (1, -1)})
        if p_u:
            corrections[Permutation(x)] = p_u
            e = e - _bott_samelson(x).cprime.scale(p_u)

    try:   # P_{u,w}(q) is v^{l(w)} times the coefficient of T_u
        table = {x: c.shift(len(word)).to_q() for x, c in e._coeffs.items()}
    except ComputationError as err:
        raise InternalConsistencyError("C'_%s: %s" % (w, err)) from None
    return KLResult(w, e, _check_kl(w, table), MappingProxyType(corrections))


def kl_recursion(w: Permutation) -> KLResult:
    """C'_w written once from the checked polynomials of the descent
    recursion: its T_u coefficient is v^{-l(w)} P_{u,w}(v^2)."""
    _check_work(w)
    table, lw = _kl_polys(w.word), w.length()
    e = HeckeElement._of(w.n, {y: LaurentPoly({2 * j - lw: c for j, c in p.coeffs.items()})
                               for y, p in table.items()})
    return KLResult(w, e, _check_kl(w, table), MappingProxyType({}))


@lru_cache(maxsize=None)
def _kl_polys(x: tuple) -> dict:
    """P_{y,w} for every y <= w, keyed by one-line tuples; x is w's tuple.

    At the first right descent s of w, with v = ws and c = 1 if ys < y,
    else 0 (Kazhdan & Lusztig 1979, (2.2.c)):
    P_{y,w} = q^(1-c) P_{ys,v} + q^c P_{y,v} - sum, over z with zs < z,
    of mu(z, v) q^((l(w)-l(z))/2) P_{y,z}. [e, w] is [e, v] with [e, v]s.
    mu(z, v) is the coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}, so it
    is nonzero only when l(w) - l(z) is even.
    """
    i = _first_descent(x)
    if i is None:
        return {x: ONE}
    pv, lw = _kl_polys(_swap(x, i)), _inversions(x)
    mus = [(_kl_polys(z), m, d // 2) for z, p in pv.items() if z[i - 1] > z[i]
           for d in (lw - _inversions(z),) if d % 2 == 0
           for m in (p.coefficient(d // 2 - 1),) if m]
    out = {}
    for y in dict.fromkeys([*pv, *(_swap(y, i) for y in pv)]):
        c = y[i - 1] > y[i]
        p = pv.get(_swap(y, i), ZERO).shift(1 - c) + pv.get(y, ZERO).shift(c)
        for pz, m, k in mus:
            if y in pz:
                p = p - pz[y].shift(k) * m
        out[y] = p
    return out


def cprime(w: Permutation, algorithm: str = "bott_samelson") -> KLResult:
    """C'_w by one route; [e, w] may hold at most 720 elements (``_check_work``)."""
    if algorithm == "bott_samelson":
        _check_work(w)
        return _bott_samelson(w.word)
    if algorithm == "recursion":
        return kl_recursion(w)
    raise ComputationError("unknown algorithm %r" % algorithm)


def kl_table(n: int, algorithm: str = "both"):
    """All P_{u,w} for u <= w in S_n, as polynomials in q; n <= MAX_KL_TABLE.

    In both mode the Bott-Samelson and recursion tables are computed
    independently and compared entry by entry; any discrepancy is a hard
    error listing the offending pairs.
    """
    if n > MAX_KL_TABLE:
        raise ComputationError("KL tables are limited to n <= %d, got n = %d"
                               % (MAX_KL_TABLE, n))
    algos = ("bott_samelson", "recursion") if algorithm == "both" else (algorithm,)
    tables = [{(u, w): p for w in all_elements(n)
               for u, p in cprime(w, alg).kl_polys.items()} for alg in algos]
    if len(tables) == 2:
        bad = [k for k in set(tables[0]) | set(tables[1])
               if tables[0].get(k) != tables[1].get(k)]
        if bad:
            raise InternalConsistencyError(
                "KL algorithm disagreement at: %s"
                % ", ".join("(%s,%s)" % k for k in sorted(
                    bad, key=lambda k: (k[1].word, k[0].word))))
    return tables[0]


class StalkTable(dict):
    """Degree -> dimension; ``comparable`` is False when u is not below w."""

    comparable = True


def ic_stalk_dims(u: Permutation, w: Permutation) -> StalkTable:
    """Stalk dimension table over the u-cell of the w-variety's IC object.

    The q^j coefficient of P_{u,w} sits in degree -l(w) + 2j; all odd
    offsets vanish.
    """
    out = StalkTable()
    if not bruhat_leq(u, w):
        out.comparable = False
        return out
    p = cprime(w).kl_polys[u]
    for j, c in p.coeffs.items():
        out[-w.length() + 2 * j] = c
    return out
