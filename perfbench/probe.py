"""A fixed reference computation that tells how fast the machine runs now.

The benchmark runs on shared machines whose speed changes by up to 1.6x
for tens of seconds at a time, and CPU time moves with wall time, so no
clock sees past it. A worker therefore times this probe every
``EVERY_S`` seconds between requests and scales each request's latency
by ``REF_S`` over the median of the probes timed nearest to it: the
result is the request's time on a machine where the probe takes
``REF_S`` seconds. The probe is pure Python of the same kind as the
program's hot paths (Fraction elimination over sparse dict columns,
tuple, set and dict churn with sorting, a JSON round trip, small-integer
arithmetic), it imports
nothing from ihkl, and it never changes, so a change to the program
moves the scaled times and a change of machine speed does not.
"""

import bisect
import gc
import json
import random
import statistics
import time
from fractions import Fraction

REF_S = 0.008     # scaled times are seconds on a machine where one probe takes this
EVERY_S = 0.2     # probe at least this often between requests
NEAREST = 5       # probes whose median scales one request

_rng = random.Random(2003)
_N = 45
_COLUMNS = [{_rng.randrange(_N): Fraction(_rng.choice((-1, 1))) for _ in range(3)}
            for _ in range(_N)]
_DOC = {"simplices": [[_rng.randrange(40) for _ in range(4)] for _ in range(150)],
        "dimension": 3, "strata": {"s%d" % i: list(range(i)) for i in range(12)}}


def _work():
    low = {}
    for column in _COLUMNS:
        c = dict(column)
        while c:
            p = max(c)
            other = low.get(p)
            if other is None:
                low[p] = c
                break
            f = c[p] / other[p]
            for r, v in other.items():
                nv = c.get(r, 0) - f * v
                if nv:
                    c[r] = nv
                else:
                    c.pop(r, None)
    faces = {}
    for i in range(1000):
        t = tuple(sorted((i % 97, i % 13, i % 7)))
        faces.setdefault(t, set()).add(i)
    order = sorted(faces, key=lambda t: (len(faces[t]), t))
    doc = json.loads(json.dumps(_DOC))
    h = 0
    for i in range(25000):
        h = (h * 31 + i) & 0xFFFFFFFF
    return len(low), len(order), len(doc["simplices"]), h


def measure():
    """Seconds one probe takes, with the collector off so that the
    program's heap does not enter the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Probe timings of one interpreter, and the scale factors they give."""

    def __init__(self):
        measure()           # the first call warms the adaptive interpreter
        self.mids = []      # perf_counter midpoint of each probe, ascending
        self.durations = []
        self.last = 0.0
        self.probe()

    def probe(self):
        t0 = time.perf_counter()
        d = measure()
        self.mids.append(t0 + d / 2)
        self.durations.append(d)
        self.last = time.perf_counter()

    def maybe_probe(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def factor(self, at):
        """REF_S over the median of the NEAREST probes timed closest to ``at``."""
        i = bisect.bisect_left(self.mids, at)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.mids)):
            if hi >= len(self.mids) or (lo > 0 and at - self.mids[lo - 1] <= self.mids[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.durations[lo:hi])
