"""Exact linear algebra: sparse matrices, rank, kernel.

No floating point anywhere. Two engines:

* ``rank_kernel`` -- row-major Gaussian elimination over Fraction with
  the fixed "first non-zero entry in row-major scan" pivot rule, so
  kernel bases are deterministic and can be frozen in golden tests.
  Each kernel vector is 1 at its free column and 0 past it, so a vector
  in the kernel has its free-column entries as coordinates. It is the
  independent oracle engine behind ``ih.allowable_complex``, which the
  tests check the fast path against.
* ``int_column_pivots`` -- fraction-free, in-place column reduction of int
  matrices in the style of boundary-matrix reduction (pivot = lowest
  non-zero row), much faster on the large, very sparse +-1 boundary
  matrices that dominate homology computations. ``column_pivots`` checks
  and copies its input first; ``sparse_rank`` counts its pivots.
  Ranks over Q agree with the row-major engine, only the order differs.
  It reduces every column it is given: clearing, which leaves out the
  columns known to reduce to zero, is the caller's job (see
  ``complexes.chain_dims``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (i, j) -> Fraction, no zeros

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError("entry (%d,%d) out of range" % (i, j))
            v = Fraction(v)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_rows(cls, data) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def rank_kernel(m: RationalMatrix):
    """Exact rank and a right-kernel basis (the oracle engine).

    Deterministic: rows are processed top to bottom and each surviving
    row pivots on its first (leftmost) non-zero entry. Kernel vectors
    are returned ordered by ascending free column, each normalized to
    have coordinate 1 at its free column.
    """
    pivots = {}  # pivot column -> reduced row (dict col -> Fraction, pivot = 1)
    order = []  # pivot columns in elimination order
    for row in m.row_dicts():
        r = dict(row)
        while True:
            hit = min((c for c in r if c in pivots), default=None)
            if hit is None:
                break
            _axpy(r, pivots[hit], -r[hit])
        if r:
            c0 = min(r)
            inv = Fraction(1) / r[c0]
            pivots[c0] = {c: v * inv for c, v in r.items()}
            order.append(c0)
    rank = len(pivots)

    kernel = []
    free = [j for j in range(m.cols) if j not in pivots]
    for f in free:
        x = {f: Fraction(1)}
        for c in sorted(pivots, reverse=True):
            s = sum((pivots[c][j] * x[j] for j in pivots[c] if j != c and j in x),
                    Fraction(0))
            if s:
                x[c] = -s
        kernel.append(tuple(x.get(j, Fraction(0)) for j in range(m.cols)))
    return rank, kernel


def _axpy(target: dict, source: dict, factor):
    """target += factor * source, in place, dropping zeros; factor != 0."""
    for c, v in source.items():
        nv = target.get(c, 0) + factor * v
        if nv:
            target[c] = nv
        else:
            del target[c]


def column_pivots(columns) -> list:
    """``int_column_pivots`` on checked copies of the given dicts row->entry:
    entries must be integers (ints or integral Fractions; anything else raises
    ValueError), and the input is not changed. The one checked edge."""
    def checked(col):
        for r, v in col.items():
            if getattr(v, "denominator", None) != 1:
                raise ValueError("entry %r in row %r is not an integer" % (v, r))
        return {r: int(v) for r, v in col.items() if v}

    return int_column_pivots(map(checked, columns))


def int_column_pivots(columns) -> list:
    """Pivot rows of the column reduction of dicts row->entry, in place.

    Every entry must be a non-zero Python int: nothing is checked, and the
    columns are changed (``column_pivots`` is the checked edge). A column's
    pivot is its largest non-zero row; a column meeting an earlier pivot is
    reduced against that column, and one reduced to zero has none. Entries
    stay ints: against a pivot that divides it, a column subtracts an integer
    multiple of the pivot column, otherwise it becomes a*d - b*other with a, b
    coprime and is divided by its content. So the reduced matrix is the input
    times an invertible rational matrix (cf. Bareiss 1968).
    """
    low = {}  # pivot row -> reduced column
    for d in columns:
        while d:
            r = max(d)
            other = low.get(r)
            if other is None:
                low[r] = d
                break
            a, b = other[r], d[r]
            if b % a == 0:
                _axpy(d, other, -(b // a))
            else:
                g = gcd(a, b)
                d = {c: a // g * v for c, v in d.items()}
                _axpy(d, other, -(b // g))
                g = gcd(*d.values())
                if g > 1:
                    d = {c: v // g for c, v in d.items()}
    return list(low)


def sparse_rank(columns) -> int:
    """Rank over Q of the matrix whose columns are the given dicts row->entry."""
    return len(column_pivots(columns))
