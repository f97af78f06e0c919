"""The symmetric group S_n as a Coxeter group of type A.

Elements are permutations in one-line notation; the simple generator
s_i swaps i and i+1 (1-based). Length is the inversion count, reduced
words come from a greedy descent scan, and the Bruhat order is decided
by the standard lifting steps. The one-line tuples themselves
(``Permutation.word``) are what the Hecke algebra and the Bruhat cache
key on; ``_swap``, ``_inversions`` and ``_first_descent`` act on them
directly, so no walk along a word builds a ``Permutation`` per letter.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ComputationError, UsageError

MAX_ENUMERATE = 8   # all_elements refuses S_n past this rank (8! = 40,320)


def _swap(x: tuple, i: int) -> tuple:
    """x s_i for a one-line tuple x: positions i and i+1 exchanged."""
    return x[:i - 1] + (x[i], x[i - 1]) + x[i + 1:]


def _inversions(x: tuple) -> int:
    """Inversion count of a one-line tuple, i.e. its length."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(x, 2)))


def _first_descent(x: tuple, start: int = 1):
    """The smallest right descent i >= start of a one-line tuple x (x[i-1] > x[i]),
    or None. Swapping x at its first descent i leaves none before i - 1."""
    return next((i for i in range(start, len(x)) if x[i - 1] > x[i]), None)


@dataclass(frozen=True)
class Permutation:
    """One-line notation: word[j] is the image of j+1."""

    word: tuple

    def __post_init__(self):
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ComputationError("%r is not a permutation of 1..%d" % (self.word, n))

    @property
    def n(self):
        return len(self.word)

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ComputationError("argument %d out of range" % j)
        return self.word[j - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (u * w)(j) = u(w(j))."""
        if self.n != other.n:
            raise ComputationError("rank mismatch")
        return Permutation(tuple(self.word[v - 1] for v in other.word))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for j, v in enumerate(self.word, start=1):
            out[v - 1] = j
        return Permutation(tuple(out))

    def length(self) -> int:
        """Number of inversions."""
        return _inversions(self.word)

    def right_descents(self):
        """Simple indices i with l(w s_i) < l(w), i.e. w(i) > w(i+1)."""
        return [i for i in range(1, self.n) if self.word[i - 1] > self.word[i]]

    def apply_right(self, i: int) -> "Permutation":
        """w s_i: swap the values in positions i, i+1."""
        if not 1 <= i < self.n:
            raise ComputationError("simple index %d out of range" % i)
        return Permutation(_swap(self.word, i))

    def reduced_word(self) -> tuple:
        """The lexicographically smallest reduced word, greedily.

        Repeatedly strip the smallest right descent; the letters are
        collected in reverse so the product of the returned word (left
        to right) is w.
        """
        x, out, i = self.word, [], _first_descent(self.word)
        while i is not None:
            out.append(i)
            x = _swap(x, i)
            i = _first_descent(x, max(i - 1, 1))
        return tuple(reversed(out))

    def __str__(self):
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return "[" + ",".join(str(v) for v in self.word) + "]"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def simple(i: int, n: int) -> Permutation:
    return identity(n).apply_right(i)


def from_word(letters, n: int) -> Permutation:
    """Product s_{i1} s_{i2} ... applied left to right."""
    x = tuple(range(1, n + 1))
    for i in letters:
        if not 1 <= i < n:
            raise ComputationError("simple index %d out of range" % i)
        x = _swap(x, i)
    return Permutation(x)


def longest_element(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


@lru_cache(maxsize=None)
def all_elements(n: int):
    """All of S_n, sorted by (length, one-line notation); n <= MAX_ENUMERATE."""
    if n > MAX_ENUMERATE:
        raise ComputationError("S_%d has %d elements; enumerating S_n is limited to "
                               "n <= %d" % (n, math.factorial(n), MAX_ENUMERATE))
    words = sorted(itertools.permutations(range(1, n + 1)),
                   key=lambda x: (_inversions(x), x))
    return tuple(Permutation(x) for x in words)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order by the lifting property.

    If i is a right descent of w: u <= w iff min(u, u s_i) <= w s_i,
    where the minimum is u s_i when i is a descent of u, else u.
    """
    if u.n != w.n:
        raise ComputationError("rank mismatch")
    return _bruhat_leq(u.word, w.word)


@lru_cache(maxsize=None)
def _bruhat_leq(u, w):
    """bruhat_leq on one-line tuples, in a loop: w has a descent while l(u) < l(w),
    and the first descent of w s_i is at i - 1 or later (w ascends before i)."""
    lu, lw, i = _inversions(u), _inversions(w), 1
    while lu < lw:  # u == w forces lu == lw, so the loop stops there too
        i = _first_descent(w, max(i - 1, 1))
        if u[i - 1] > u[i]:
            u, lu = _swap(u, i), lu - 1
        w, lw = _swap(w, i), lw - 1
    return u == w


def bruhat_interval(w: Permutation):
    """All u <= w, sorted by (length, one-line notation)."""
    return [u for u in all_elements(w.n) if bruhat_leq(u, w)]


def bruhat_leq_subword(u: Permutation, w: Permutation) -> bool:
    """Subword characterization, as an independent cross-check.

    u <= w iff some reduced word of w contains a reduced word of u as a
    (not necessarily contiguous) subword; it suffices to scan one fixed
    reduced word of w for any subword multiplying to u.
    """
    lu = u.length()
    hits = {identity(u.n).word}
    for letter in w.reduced_word():
        hits |= {p for p in (_swap(h, letter) for h in hits) if _inversions(p) <= lu}
    return u.word in hits


def reduced_words(w: Permutation):
    """All reduced words of w, in lexicographic order."""
    if w.length() == 0:
        return [()]
    out = []
    for i in w.right_descents():
        for prefix in reduced_words(w.apply_right(i)):
            out.append(prefix + (i,))
    return sorted(out)


def parse_element(text: str, n: int) -> Permutation:
    """Parse "3412" / "[3,4,1,2]" one-line forms or "s1*s2*s1" words; text
    that names no element of S_n raises UsageError."""
    text = text.strip()
    if text.startswith("s") or "*" in text:
        letters = []
        for part in text.split("*"):
            part = part.strip()
            if not part.startswith("s"):
                raise UsageError("cannot parse generator %r" % part)
            try:
                letters.append(int(part[1:]))
            except ValueError:
                raise UsageError("cannot parse generator %r" % part)
        for i in letters:
            if not 1 <= i < n:
                raise UsageError("generator s%d out of range for S_%d" % (i, n))
        return from_word(letters, n)
    if text in ("e", "id"):
        return identity(n)
    try:
        if text.startswith("[") and text.endswith("]"):
            vals = [int(x) for x in text[1:-1].split(",")]
        else:
            vals = [int(c) for c in text]
    except ValueError:
        raise UsageError("cannot parse element %r" % text)
    if len(vals) != n:
        raise UsageError("one-line notation %r has wrong rank for S_%d" % (text, n))
    if sorted(vals) != list(range(1, n + 1)):
        raise UsageError("%r is not a permutation of 1..%d" % (tuple(vals), n))
    return Permutation(tuple(vals))
