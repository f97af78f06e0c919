"""Hecke algebra of S_n over integer Laurent polynomials in v.

The T-basis satisfies T_s^2 = (v^2 - 1) T_s + v^2 T_1 and T_u T_w =
T_{uw} when lengths add. Kazhdan-Lusztig polynomials come from two
independent routes, compared pair by pair on a Bruhat interval [u, w] by
``kl_interval`` (``kl_table`` is [e, w0]): Bott-Samelson extraction
multiplies out v^{-l(w)} (T_{s_1} + 1) ... (T_{s_k} + 1),
removes the lower canonical terms and reads P_{u,w} off in q; the
classical recursion (Kazhdan & Lusztig 1979, (2.2.c)) computes P_{u,w}
with no Hecke product, one value per coset {y, ys}, and writes C'_w from
it. ``cprime`` reaches each route through its entry (``kl_bott_samelson``,
``kl_recursion``), and each route keeps one checked ``KLResult`` per element
(``_bott_samelson``, ``_recursion``), made once through ``_check_kl``; a single
element with more than 720 elements below it, and a product whose walks pass
``MAX_PRODUCT_WORK`` elements, are refused first (``_check_work`` in each entry,
``t_mul``). The involution iota is a test oracle. Everything is keyed by one-line
tuples (``Permutation.word``); a ``Permutation``, one per tuple (``_perm``),
appears only at the public boundary (``HeckeElement.terms``, ``KLResult``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

from .coxeter import (Permutation, _first_descent, _inversions, _swap, all_elements,
                      bruhat_leq, from_word, identity, longest_element)
from .errors import ComputationError, InternalConsistencyError

MAX_KL_TABLE = 6   # KL tables refuse S_n past this rank (98,407 Bruhat pairs at n = 6)
# The most work one t_mul may do, counted as the walked support sizes: T at
# w0 of S_6 walked from all of S_6 takes 720 elements through 15 letters.
MAX_PRODUCT_WORK = math.factorial(MAX_KL_TABLE) * math.comb(MAX_KL_TABLE, 2)   # 10,800
_perm = lru_cache(maxsize=None)(Permutation)   # one Permutation per one-line tuple


class LaurentPoly:
    """Sparse integer Laurent polynomial; the variable is v by default.

    Immutable, as the memoised KL tables hand the same polynomials to every
    caller: the exponent -> coefficient dict is set once, and ``coeffs`` is
    a read-only view of it. Exponents and coefficients must be integers; an
    integral value such as Fraction(4, 2) is read as its int.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        out = {}
        for e, c in (coeffs or {}).items():
            if int(e) != e or int(c) != c:
                raise ComputationError("LaurentPoly entry %r: %r is not an integer" % (e, c))
            if c:
                out[int(e)] = int(c)
        _set_c(self, out)

    def __setattr__(self, name, value):
        raise AttributeError("a LaurentPoly is immutable")

    @property
    def coeffs(self):
        return MappingProxyType(self._c)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        if self._c.keys() <= {0}:   # a constant equals its int, so it hashes as that int
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return _poly({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _poly({e: c * other for e, c in self._c.items()} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _poly({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by v^k."""
        return _poly({e + k: c for e, c in self._c.items()})

    def bar(self):
        """Substitute v -> v^{-1}."""
        return _poly({-e: c for e, c in self._c.items()})

    def is_palindromic(self):
        return self._c == {-e: c for e, c in self._c.items()}

    def coefficient(self, e):
        return self._c.get(e, 0)

    def max_degree(self):
        return max(self._c) if self._c else None

    def min_degree(self):
        return min(self._c) if self._c else None

    def subs_q(self, q):
        """Evaluate at v^2 = q; only even exponents may be present."""
        total = 0
        for e, c in self._c.items():
            if e % 2:
                raise ComputationError(
                    "odd exponent %d: element does not lie in Z[v^2]" % e)
            total += c * q ** (e // 2)
        return total

    def to_q(self):
        """Rewrite an element of Z[v^2] as a polynomial in q = v^2."""
        out = {}
        for e, c in self._c.items():
            if e % 2 or e < 0:
                raise ComputationError(
                    "exponent %d: element does not lie in Z[q]" % e)
            out[e // 2] = c
        return _poly(out)

    def format(self, var="v"):
        """Terms by rising exponent, such as ``-v^-2+3+2*v``; "0" for zero."""
        terms = []
        for e in sorted(self._c):
            c, head = self._c[e], var if e == 1 else "%s^%d" % (var, e)
            if e == 0:
                terms.append(str(c))
            elif c in (1, -1):
                terms.append(head if c == 1 else "-" + head)
            else:
                terms.append("%d*%s" % (c, head))
        return "+".join(terms).replace("+-", "-") or "0"

    __str__ = format

    def __repr__(self):
        return "LaurentPoly(%r)" % (self._c,)


_set_c = LaurentPoly._c.__set__  # the one write, past __setattr__


def _poly(coeffs):
    """The polynomial on ``coeffs``, int exponents to non-zero ints, as it is."""
    out = object.__new__(LaurentPoly)
    _set_c(out, coeffs)
    return out


class HeckeElement:
    """Finite Z[v, v^{-1}]-combination of T-basis elements of rank n.

    Immutable, as the memos hand the same C'_w to every caller: the
    coefficients live in ``_coeffs``, keyed by one-line tuples, and
    ``terms`` is a read-only view of them keyed by ``Permutation``.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            if w.n != n:
                raise ComputationError("term %s has wrong rank" % w)
            clean[w.word] = c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})
        _set_n(self, n)
        _set_coeffs(self, {x: c for x, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("a HeckeElement is immutable")

    @classmethod
    def _of(cls, n, coeffs):
        """The element with tuple-keyed LaurentPoly coefficients; zeros dropped."""
        out = cls.__new__(cls)
        _set_n(out, n)
        _set_coeffs(out, {x: c for x, c in coeffs.items() if c})
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
            elif len(c._c) == 1:
                parts.append("%s*T:%s" % (c.format(), w))
            else:
                parts.append("(%s)*T:%s" % (c.format(), w))
        return " + ".join(parts)

    __str__ = format

    def __repr__(self):
        return "HeckeElement(%d, %s)" % (self.n, self.format())


_set_n, _set_coeffs = HeckeElement.n.__set__, HeckeElement._coeffs.__set__  # past __setattr__
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
    """C'_w in the T basis, for the w the caller named, with its polynomial data.

    kl_polys maps u to P_{u,w} as a polynomial in q; corrections maps u
    to the palindromic multiple p_u removed during Bott-Samelson
    extraction (that route only). Both are read-only views, since the
    routes' memos keep the result.
    """

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
    return MappingProxyType({_perm(x): p for x, p in table.items()})


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
    w = _perm(x)
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
        p_u = _poly({s * d: c for d, c in g._c.items() if d >= 0 for s in (1, -1)})
        if p_u:
            corrections[_perm(x)] = p_u
            e = e - _bott_samelson(x).cprime.scale(p_u)

    try:   # P_{u,w}(q) is v^{l(w)} times the coefficient of T_u
        table = {x: c.shift(len(word)).to_q() for x, c in e._coeffs.items()}
    except ComputationError as err:
        raise InternalConsistencyError("C'_%s: %s" % (w, err)) from None
    return KLResult(e, _check_kl(w, table), MappingProxyType(corrections))


def kl_recursion(w: Permutation) -> KLResult:
    """C'_w by the descent recursion (``_recursion``); [e, w] may hold at most 720 elements."""
    _check_work(w)
    return _recursion(w.word)


@lru_cache(maxsize=None)
def _recursion(x: tuple) -> KLResult:
    """C'_w written once from the checked polynomials of ``_kl_polys``, keyed
    by w's one-line tuple x: its T_u coefficient is v^{-l(w)} P_{u,w}(v^2),
    one coefficient per distinct P."""
    w, table, lw = _perm(x), _kl_polys(x), _inversions(x)
    shifted = {p: _poly({2 * j - lw: c for j, c in p._c.items()}) for p in table.values()}
    e = HeckeElement._of(w.n, {y: shifted[p] for y, p in table.items()})
    return KLResult(e, _check_kl(w, table), MappingProxyType({}))


@lru_cache(maxsize=None)
def _kl_polys(x: tuple) -> dict:
    """P_{y,w} for every y <= w, keyed by one-line tuples; x is w's tuple.

    At the first right descent s of w, with v = ws, [e, w] is [e, v] with
    [e, v]s, and P_{y,w} = P_{ys,w} (Kazhdan & Lusztig 1979, §2): each coset
    {y, ys} gets one value, at its member y with ys < y, by (2.2.c):
    P_{y,w} = P_{ys,v} + q P_{y,v} - sum, over z with zs < z, of mu(z, v)
    q^((l(w)-l(z))/2) P_{y,z}. mu(z, v) is the coefficient of
    q^((l(v)-l(z)-1)/2) in P_{z,v}, so it is nonzero only when l(w) - l(z) is even.
    """
    i = _first_descent(x)
    if i is None:
        return {x: ONE}
    pv, lw = _kl_polys(_swap(x, i)), _inversions(x)
    mus = [(_kl_polys(z), m, d // 2) for z, p in pv.items() if z[i - 1] > z[i]
           for d in (lw - _inversions(z),) if d % 2 == 0
           for m in (p.coefficient(d // 2 - 1),) if m]
    out = {}
    for y in (_swap(z, i) for z in pv if z[i - 1] < z[i]):
        p = pv[_swap(y, i)] + pv.get(y, ZERO).shift(1)
        for pz, m, k in mus:
            if y in pz:
                p = p - pz[y].shift(k) * m
        out[y] = out[_swap(y, i)] = p
    return out


def cprime(w: Permutation, algorithm: str = "bott_samelson") -> KLResult:
    """C'_w through one route's entry, ``kl_bott_samelson`` over w's canonical
    reduced word or ``kl_recursion``; each makes the one work check (``_check_work``)."""
    # by their public names, which perfbench's kl trace wraps
    if algorithm == "bott_samelson":
        return kl_bott_samelson(w.reduced_word(), w.n)
    if algorithm == "recursion":
        return kl_recursion(w)
    raise ComputationError("unknown algorithm %r" % algorithm)


def kl_table(n: int, algorithm: str = "both"):
    """``kl_interval`` on [e, w0]: every P_{u,w} with u <= w in S_n; n <= MAX_KL_TABLE."""
    return kl_interval(identity(n), longest_element(n), algorithm)


def kl_interval(u: Permutation, w: Permutation, algorithm: str = "both"):
    """P_{x,y}(q) for every pair u <= x <= y <= w, keyed by (x, y); n <= MAX_KL_TABLE.
    ``cprime(y, algorithm).kl_polys`` holds every x <= y, of which the x in
    [u, w] are kept; in both mode the two routes must agree on exactly these pairs."""
    if w.n > MAX_KL_TABLE:
        raise ComputationError("KL tables are limited to n <= %d, got n = %d" % (MAX_KL_TABLE, w.n))
    if not bruhat_leq(u, w):
        raise ComputationError("%s is not below %s in Bruhat order" % (u, w))
    ys = {y.word: y for y in all_elements(w.n) if bruhat_leq(u, y) and bruhat_leq(y, w)}
    tables = [{(x, y): p for y in ys.values() for x, p in cprime(y, alg).kl_polys.items()
               if x.word in ys}
              for alg in (("bott_samelson", "recursion") if algorithm == "both" else (algorithm,))]
    bad = len(tables) == 2 and {k for k, _ in tables[0].items() ^ tables[1].items()}
    if bad:
        raise InternalConsistencyError("KL algorithm disagreement at: %s" % ", ".join(
            "(%s,%s)" % k for k in sorted(bad, key=lambda k: (k[1].word, k[0].word))))
    return tables[0]


def ic_stalk_dims(u: Permutation, w: Permutation) -> dict:
    """Stalk dimension table, degree -> dimension, over the u-cell of the
    w-variety's IC object: the q^j coefficient of P_{u,w} sits in degree
    -l(w) + 2j, and odd offsets vanish. It is {} exactly when u is not below
    w, since P_{u,w}(0) = 1 puts every pair u <= w in degree -l(w)."""
    if not bruhat_leq(u, w):
        return {}
    return {-w.length() + 2 * j: c for j, c in cprime(w).kl_polys[u]._c.items()}
