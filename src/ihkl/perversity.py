"""Perversity functions: p(2)=0 and p(k) - p(k-1) in {0, 1}.

A perversity of dimension n assigns a non-negative integer to each
codimension k = 2, ..., n and controls how deeply allowable chains may
meet the singular strata of that codimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComputationError, UsageError

_STANDARD = {"zero": lambda k: 0, "lower_middle": lambda k: (k - 2) // 2,
             "upper_middle": lambda k: (k - 1) // 2, "top": lambda k: k - 2}  # k -> p(k)
STANDARD_KINDS = tuple(_STANDARD)


class PerversityError(ComputationError):
    pass


@dataclass(frozen=True)
class Perversity:
    """Values p(2), ..., p(n) stored densely, indexed from k=2.

    Asking for p(k) outside [2, n] is a contract violation, not silently
    clamped: silent extension would mask dimension mismatches between a
    perversity and a filtration.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise PerversityError("a perversity needs dimension >= 2")
        if self.values[0] != 0:
            raise PerversityError("p(2) must be 0, got %d at index 2" % self.values[0])
        for j in range(1, len(self.values)):
            step = self.values[j] - self.values[j - 1]
            if step not in (0, 1):
                raise PerversityError(
                    "p(%d) - p(%d) must be 0 or 1, got %d at index %d"
                    % (j + 2, j + 1, step, j + 2)
                )

    @property
    def dimension(self) -> int:
        return len(self.values) + 1

    def __call__(self, k: int) -> int:
        if not 2 <= k <= self.dimension:
            raise PerversityError(
                "p(%d) undefined for a dimension-%d perversity" % (k, self.dimension)
            )
        return self.values[k - 2]

    def restrict(self, n: int) -> "Perversity":
        """The same perversity truncated to dimension n <= self.dimension."""
        if n > self.dimension or n < 2:
            raise PerversityError("cannot restrict dimension-%d perversity to %d"
                                  % (self.dimension, n))
        return Perversity(self.values[: n - 1])

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + ")"


def make_standard(kind: str, n: int) -> Perversity:
    """One of the named perversity families in dimension n."""
    if n < 2:
        raise PerversityError("invalid dimension %d: need n >= 2" % n)
    if kind not in _STANDARD:
        raise PerversityError("unknown standard perversity %r" % kind)
    return Perversity(tuple(map(_STANDARD[kind], range(2, n + 1))))


def custom(values) -> Perversity:
    """Validate an explicit value sequence (for k = 2, ..., n)."""
    return Perversity(tuple(int(v) for v in values))


def is_complementary(p: Perversity, q: Perversity) -> bool:
    """True iff p + q is the top perversity (p(k) + q(k) = k - 2)."""
    if p.dimension != q.dimension:
        raise PerversityError(
            "dimension mismatch: %d vs %d" % (p.dimension, q.dimension)
        )
    return all(p(k) + q(k) == k - 2 for k in range(2, p.dimension + 1))


def parse(text: str, n: int) -> Perversity:
    """Parse the CLI string form of a perversity.

    Accepted: "zero", "middle" (= lower middle), "upper-middle", "top",
    and "custom:0,0,1,1" listing values for k = 2..n. Any other text, a
    custom list with an entry that is not an integer (an empty one
    included), and one that breaks the perversity rules or has the wrong
    length, raise UsageError.
    """
    names = {
        "zero": "zero",
        "middle": "lower_middle",
        "lower-middle": "lower_middle",
        "upper-middle": "upper_middle",
        "top": "top",
    }
    if text in names:
        return make_standard(names[text], n)
    if text.startswith("custom:"):
        try:
            pv = custom(text[len("custom:"):].split(","))
        except ValueError:
            raise UsageError("cannot parse perversity %r" % text) from None
        except PerversityError as e:
            raise UsageError(str(e)) from None
        if pv.dimension != n:
            raise UsageError(
                "custom perversity has dimension %d, expected %d" % (pv.dimension, n)
            )
        return pv
    raise UsageError("cannot parse perversity %r" % text)
