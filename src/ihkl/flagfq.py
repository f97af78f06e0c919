"""Brute-force flag variety of GL_n over a prime field F_q.

Full flags are chains of subspaces stored as reduced row-echelon bases,
which makes equality of subspaces literal tuple equality. Relative
position of two flags is the permutation read off the rank array
r_{ij} = dim(F1_i intersect F2_j) by its unit jumps; convolution of
G-invariant functions on flag pairs gives the specialization of the
Hecke algebra at v^2 = q. Its structure constants are counted once per
(n, q) over all flags, and every product T_u T_w is verified against
them pair by pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .coxeter import Permutation, all_elements, identity
from .errors import ComputationError, UsageError

# Relative positions one call may compute: [n]_q! (one per flag) to sort the
# flags into cells, 2 * n! * [n]_q! for the structure constants; (4, 2)'s sweep.
MAX_POSITIONS = 15_120
MAX_Q = 7  # bounds the q^n vector scan and the trial division at every n


def _flag_count(n, q):
    """[n]_q!, the number of full flags in F_q^n, until it passes MAX_POSITIONS."""
    count, qint = 1, 0
    for _ in range(n):
        qint = qint * q + 1  # [i]_q = 1 + q + ... + q^(i-1)
        count *= qint
        if count > MAX_POSITIONS:
            break
    return count


def _check_bounds(n, q):
    """Refuse n and q outside the brute-force limits: q <= MAX_Q and at
    most MAX_POSITIONS flags. Checked before any enumeration and before
    primality, whose trial division grows as sqrt(q); q < 2 is no prime,
    and a q that is not prime raises UsageError.
    """
    if n < 1:
        raise ComputationError("need n >= 1")
    if q > MAX_Q or q >= 2 and _flag_count(n, q) > MAX_POSITIONS:
        raise ComputationError(
            "n=%d, q=%d exceeds the brute-force bounds: q<=%d and at most %d "
            "relative positions" % (n, q, MAX_Q, MAX_POSITIONS))
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise UsageError("%d is not prime" % q)


def rref(rows, q):
    """Reduced row-echelon form mod q; zero rows dropped; canonical."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % q), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], q - 2, q)
        mat[r] = [(x * inv) % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % q:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r])


@dataclass(frozen=True)
class FullFlag:
    """Proper subspaces V_1 through V_{n-1} in echelon form."""

    n: int
    q: int
    steps: tuple  # steps[i] = echelon basis of V_{i+1}, dims 1..n-1


@lru_cache(maxsize=None)
def enumerate_flags(n: int, q: int):
    """All full flags in F_q^n, canonically deduplicated."""
    _check_bounds(n, q)
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    partial = [()]
    for dim in range(1, n):
        nxt = set()
        for chain in partial:
            current = chain[-1] if chain else ()
            seen = set()
            for v in vectors:
                cand = rref(current + (v,), q)
                if len(cand) != dim or cand in seen:
                    continue
                seen.add(cand)
                nxt.add(chain + (cand,))
        partial = sorted(nxt)
    return tuple(FullFlag(n, q, chain) for chain in partial)


def standard_flag(n: int, q: int) -> FullFlag:
    return permuted_flag(identity(n), q)


def permuted_flag(w: Permutation, q: int) -> FullFlag:
    """The coordinate flag spanned by e_{w(1)}, ..., e_{w(i)} at step i."""
    n = w.n
    steps = []
    for i in range(1, n):
        rows = tuple(tuple(1 if j == w(k) - 1 else 0 for j in range(n))
                     for k in range(1, i + 1))
        steps.append(rref(rows, q))
    return FullFlag(n, q, tuple(steps))


def relative_position(f1: FullFlag, f2: FullFlag) -> Permutation:
    """The permutation with w(j) = i at the unit jump of the rank array.

    Calibrated so relative_position(standard flag, permuted_flag(w)) = w.
    """
    if (f1.n, f1.q) != (f2.n, f2.q):
        raise ComputationError("flags live in different spaces")
    n, q = f1.n, f1.q
    # against V_0 = 0 or V_n = F_q^n the intersection has dimension min(i, j)
    r = [[min(i, j) for j in range(n + 1)] for i in range(n + 1)]
    for i, a in enumerate(f1.steps, 1):
        for j, b in enumerate(f2.steps, 1):
            r[i][j] = i + j - len(rref(a + b, q))
    word = [0] * n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] == 1:
                word[j - 1] = i
                break
    return Permutation(tuple(word))


@lru_cache(maxsize=None)
def _cells(n, q):
    """Flags grouped by relative position to the standard flag."""
    base = standard_flag(n, q)
    cells = {}
    for f in enumerate_flags(n, q):
        w = relative_position(base, f)
        cells.setdefault(w, []).append(f)
    return cells


def schubert_cell_sizes(n: int, q: int):
    """Number of flags at each relative position from the standard flag."""
    return {w: len(fs) for w, fs in _cells(n, q).items()}


@lru_cache(maxsize=None)
def _structure_constants(n, q):
    """c[x][(u, w)] = #{F : pos(B, F) = u, pos(F, F_x) = w}, B the base flag.

    Counted over every flag F against the first two flags F_x in the cell
    of x. The count is G-invariant, so it must not depend on which F_x.
    """
    if 2 * math.factorial(n) * _flag_count(n, q) > MAX_POSITIONS:
        raise ComputationError(
            "n=%d, q=%d: the structure constants need more than %d relative "
            "positions" % (n, q, MAX_POSITIONS))
    cells = _cells(n, q)
    table = {}
    for x in all_elements(n):
        counts = [Counter((u, relative_position(f, fx))
                          for u, flags in cells.items() for f in flags)
                  for fx in cells[x][:2]]
        if any(c != counts[0] for c in counts[1:]):
            raise ComputationError(
                "convolution value at %s depends on the representative flag" % x)
        table[x] = counts[0]
    return table


@dataclass(frozen=True)
class WFunction:
    """G-invariant integer function on flag pairs, stored on W."""

    n: int
    values: tuple  # sorted ((one-line word, value), ...)

    @classmethod
    def from_dict(cls, n, table):
        items = tuple(sorted((w.word, int(c)) for w, c in table.items() if c))
        return cls(n, items)

    @classmethod
    def t(cls, w: Permutation):
        return cls.from_dict(w.n, {w: 1})

    def as_dict(self):
        return {Permutation(word): c for word, c in self.values}


def convolve(f: WFunction, g: WFunction, n: int, q: int) -> WFunction:
    """(f * g)(x) = sum over flags F of f(pos(base, F)) g(pos(F, F_x)).

    Read off the structure constants: the sum of f(u) g(w) c[x][(u, w)]
    over the supports of f and g.
    """
    _check_bounds(n, q)
    if f.n != n or g.n != n:
        raise ComputationError("rank mismatch")
    pairs = [(u, w, a * b) for u, a in f.as_dict().items()
             for w, b in g.as_dict().items()]
    return WFunction.from_dict(n, {
        x: sum(ab * c[(u, w)] for u, w, ab in pairs)
        for x, c in _structure_constants(n, q).items()})


@dataclass
class SpecializationReport:
    """Per-pair comparison of Hecke products against F_q convolution."""

    n: int
    q: int
    checked: int = 0
    mismatches: list = field(default_factory=list)  # (u, w, hecke, convolution)

    @property
    def passed(self):
        return not self.mismatches

    def render_text(self):
        head = "hecke vs F_q convolution (n=%d, q=%d): %d/%d pairs match" % (
            self.n, self.q, self.checked - len(self.mismatches), self.checked)
        return "\n".join([head] + ["  MISMATCH T_%s * T_%s: hecke %s, convolution %s" % m
                                    for m in self.mismatches])

    def to_json(self):
        return {
            "n": self.n, "q": self.q, "checked": self.checked,
            "passed": self.passed,
            "mismatches": [{"u": str(u), "w": str(w),
                            "hecke": hv, "convolution": cv}
                           for u, w, hv, cv in self.mismatches],
        }


def verify_hecke_specialization(n: int, q: int) -> SpecializationReport:
    """Compare every T_u T_w at v^2 = q with brute-force convolution."""
    from .hecke import HeckeElement, t_mul
    _check_bounds(n, q)
    report = SpecializationReport(n, q)
    els = all_elements(n)
    for u in els:
        for w in els:
            prod = t_mul(HeckeElement.t(u), HeckeElement.t(w))
            hecke_vals = {x: c.subs_q(q) for x, c in prod.terms.items()}
            hecke_vals = {x: c for x, c in hecke_vals.items() if c}
            conv = convolve(WFunction.t(u), WFunction.t(w), n, q)
            conv_vals = conv.as_dict()
            report.checked += 1
            if hecke_vals != conv_vals:
                report.mismatches.append(
                    (u, w,
                     {str(x): c for x, c in hecke_vals.items()},
                     {str(x): c for x, c in conv_vals.items()}))
    return report
