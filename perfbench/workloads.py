"""The benchmark's workloads: seeded request lists, execution and checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned. ``prepare`` builds a batch's inputs
from the seed alone; ``run`` sends them, times each call into the program
and checks each result against a reference that does not come from the
code path under test. A request ends in one of three states:

* ``ok``: the result or the rejection matched its reference;
* ``fail``: a malformed request was not rejected as specified (wrong exit
  code, a traceback, or more than one line on stderr);
* ``wrong``: a well-formed request gave a wrong result or raised.

A batch is correct when no request is ``wrong``; ``fail`` and ``wrong``
both count as failed requests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
import traceback

DATA = os.path.join("src", "ihkl", "data")
BAD = os.path.join("perfbench", "bad")
SUPPORTS = ("borel_moore", "compact")
KINDS = ("zero", "lower_middle", "upper_middle", "top")
CLI_PERVERSITY = {"zero": "zero", "lower_middle": "middle",
                  "upper_middle": "upper-middle", "top": "top"}
COMPLEMENT = {"zero": "top", "top": "zero",
              "lower_middle": "upper_middle", "upper_middle": "lower_middle"}
CONES = {"cone-circle": "circle", "cone-torus": "torus",
         "cone-two-circles": "two-circles"}


def bundled_names():
    return sorted(f[:-5] for f in os.listdir(DATA)
                  if f.endswith(".json") and not f.endswith(".expected.json"))


def load_expected(names):
    out = {}
    for name in names:
        with open(os.path.join(DATA, name + ".expected.json"), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def str_dims(dims):
    return {str(k): v for k, v in dims.items()}


# ---------------------------------------------------------------------------
# independent references for the S_n side

def length(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def bruhat_leq(u, w):
    """Tableau criterion: u <= w iff every sorted prefix of u is below w's."""
    return all(a <= b
               for i in range(1, len(u))
               for a, b in zip(sorted(u[:i]), sorted(w[:i])))


def compose(u, w):
    """(u w)(j) = u(w(j)) in one-line notation."""
    return tuple(u[v - 1] for v in w)


def kl_poly_problems(u, w, coeffs):
    """Check P_{u,w} (exponent -> coefficient) against the KL axioms."""
    if u == w:
        return [] if coeffs == {0: 1} else ["P_{w,w} != 1 at %s" % (w,)]
    bad = []
    if coeffs.get(0) != 1:
        bad.append("P(0) != 1 at (%s, %s)" % (u, w))
    if any(c <= 0 for c in coeffs.values()):
        bad.append("non-positive coefficient at (%s, %s)" % (u, w))
    if coeffs and 2 * max(coeffs) > length(w) - length(u) - 1:
        bad.append("degree bound violated at (%s, %s)" % (u, w))
    return bad


def perms_by_length(n, max_length):
    out = {}
    for p in itertools.permutations(range(1, n + 1)):
        if length(p) <= max_length:
            out.setdefault(length(p), []).append(p)
    return out


def word(p):
    return "".join(map(str, p))


# ---------------------------------------------------------------------------
# ih-subdivided: every bundled complex, subdivided once, every table entry

# susp2-cone-circle (30k simplices once subdivided) alone takes 11 to 17 s
# a pass, too long to repeat within one run; a single pass spread by 30 to
# 50 % from run to run on a shared 2-core machine, so it is left out.
IH_LEFT_OUT = ("susp2-cone-circle",)


class IhSubdivided:
    """Load and subdivide each bundled complex, then query its whole table."""

    def prepare(self, rng, smoke):
        names = [n for n in bundled_names() if n not in IH_LEFT_OUT]
        if smoke:
            names = [n for n in names if not n.startswith("susp")]
        expected = load_expected(names)
        reqs = []
        rng.shuffle(names)
        for name in names:
            reqs.append(("subdivide", name, None, None))
            queries = [("homology", name, None, sup) for sup in SUPPORTS]
            queries += [("ih", name, kind, sup)
                        for kind in KINDS if kind in expected[name]["ih"]
                        for sup in SUPPORTS]
            rng.shuffle(queries)
            reqs.extend(queries)
        from ihkl import complexes, ih, perversity
        return {"requests": reqs, "expected": expected,
                "mods": (complexes, ih, perversity)}

    def run(self, inputs, record):
        complexes, ih, perversity = inputs["mods"]
        expected = inputs["expected"]
        subdivided = {}
        for i, (op, name, kind, sup) in enumerate(inputs["requests"]):
            t0 = time.perf_counter()
            try:
                if op == "subdivide":
                    s = complexes.load_complex(os.path.join(DATA, name + ".json"))
                    got = complexes.barycentric_subdivide(s)
                elif op == "homology":
                    got = complexes.homology_dims(subdivided[name], sup)
                else:
                    s = subdivided[name]
                    p = (perversity.make_standard(kind, s.dimension)
                         if s.dimension >= 2 else None)
                    got = ih.ih_dims(s, p, sup)
            except Exception:
                record(i, time.perf_counter() - t0, "wrong", traceback.format_exc(limit=3))
                continue
            dt = time.perf_counter() - t0
            if op == "subdivide":
                subdivided[name] = got
                ok = got.dimension == s.dimension and len(got.ambient) >= len(s.ambient)
                want = "a subdivision of %s" % name
            elif op == "homology":
                want = expected[name]["homology"][sup]
                ok = str_dims(got) == want
            else:
                want = expected[name]["ih"][kind][sup]
                ok = str_dims(got) == want
            record(i, dt, "ok" if ok else "wrong",
                   None if ok else "%s %s %s %s: got %r, want %r"
                   % (op, name, kind, sup, got, want))


# ---------------------------------------------------------------------------
# kl: kl_table(4|5, "both") and single S_6 elements by both algorithms

# Every S_6 element of length 1 to 5, shortest first; the seed sets the
# order within each length. Sampling them instead made the work of a seed
# depend on how far its elements' Bruhat intervals overlap in the caches,
# which moved req_p50_ms by a third from seed to seed. Longer elements make
# a batch too long to repeat enough within a run.
S6_MAX_LENGTH = 5
TABLE_PAIRS = {4: 213, 5: 3781}


class Kl:
    """Cold-cache KL tables, then S_6 element queries sharing the caches."""

    def prepare(self, rng, smoke):
        ranks = (4,) if smoke else (4, 5)
        by_length = perms_by_length(6, 2 if smoke else S6_MAX_LENGTH)
        elements = []
        for ell in range(1, max(by_length) + 1):
            rng.shuffle(by_length[ell])
            elements.extend(by_length[ell])
        from ihkl import coxeter, hecke
        reqs = [("table", n) for n in ranks] + [("element", w) for w in elements]
        return {"requests": reqs, "mods": (coxeter, hecke)}

    def run(self, inputs, record):
        coxeter, hecke = inputs["mods"]
        short = [(u, length(u)) for u in itertools.permutations(range(1, 7))
                 if length(u) <= S6_MAX_LENGTH]
        for i, (op, arg) in enumerate(inputs["requests"]):
            t0 = time.perf_counter()
            try:
                if op == "table":
                    table = hecke.kl_table(arg, "both")
                    got = {(u.word, w.word): p.coeffs for (u, w), p in table.items()}
                else:
                    w = coxeter.Permutation(arg)
                    bs = hecke.cprime(w, algorithm="bott_samelson")
                    rec = hecke.cprime(w, algorithm="recursion")
                    got = ({u.word: p.coeffs for u, p in bs.kl_polys.items()},
                           {u.word: p.coeffs for u, p in rec.kl_polys.items()})
            except Exception:
                record(i, time.perf_counter() - t0, "wrong", traceback.format_exc(limit=3))
                continue
            dt = time.perf_counter() - t0
            problems = []
            if op == "table":
                if len(got) != TABLE_PAIRS[arg]:
                    problems.append("S_%d table has %d pairs, want %d"
                                    % (arg, len(got), TABLE_PAIRS[arg]))
                for (u, w), coeffs in got.items():
                    problems += kl_poly_problems(u, w, coeffs)
            else:
                bs_polys, rec_polys = got
                if bs_polys != rec_polys:
                    problems.append("algorithms disagree at %s" % (arg,))
                below = {u for u, lu in short if lu <= length(arg) and bruhat_leq(u, arg)}
                if set(bs_polys) != below:
                    problems.append("support of C'_%s is not [e, w]" % (arg,))
                for u, coeffs in bs_polys.items():
                    problems += kl_poly_problems(u, arg, coeffs)
            record(i, dt, "wrong" if problems else "ok", "; ".join(problems[:3]) or None)


# ---------------------------------------------------------------------------
# flag: the F_q flag oracle

S4_LENGTHS = (0, 2, 4, 6)   # l(u) of the S_4 pairs at q = 2; cost grows as 2^l(u)
# S_3 pairs at q = 2 per l(u): a convolution costs about 21 + 12 * 2^l(u)
# relative positions, so these counts put req_p50_ms inside the l(u) = 1
# group and req_p90_ms inside the l(u) = 2 group.
S3_PAIRS_BY_LENGTH = {1: 70, 2: 24}


class Flag:
    """Specialization check, cell sizes and single convolutions over F_q."""

    def prepare(self, rng, smoke):
        by_len4 = perms_by_length(4, 6)
        by_len3 = perms_by_length(3, 3)
        s4 = list(itertools.permutations(range(1, 5)))
        s3 = list(itertools.permutations(range(1, 4)))
        reqs = []
        if not smoke:
            reqs += [("verify", 3, 5), ("cells", 4, 3)]
            for ell in S4_LENGTHS:
                reqs.append(("pair", 2, (rng.choice(by_len4[ell]), rng.choice(s4))))
        for ell, count in ({1: 2, 2: 2} if smoke else S3_PAIRS_BY_LENGTH).items():
            for _ in range(count):
                reqs.append(("pair", 2, (rng.choice(by_len3[ell]), rng.choice(s3))))
        # fixed order: the first call at each (n, q) enumerates the flags and
        # fills the lru caches, so that cost lands on the same request every seed
        from ihkl import coxeter, flagfq, hecke
        return {"requests": reqs, "mods": (coxeter, flagfq, hecke)}

    def run(self, inputs, record):
        coxeter, flagfq, hecke = inputs["mods"]
        for i, (op, a, b) in enumerate(inputs["requests"]):
            t0 = time.perf_counter()
            try:
                if op == "verify":
                    rep = flagfq.verify_hecke_specialization(a, b)
                    got = (rep.passed, rep.checked)
                elif op == "cells":
                    got = {w.word: c for w, c in flagfq.schubert_cell_sizes(a, b).items()}
                else:
                    u, w = (coxeter.Permutation(x) for x in b)
                    conv = flagfq.convolve(flagfq.WFunction.t(u), flagfq.WFunction.t(w),
                                           len(b[0]), a)
                    prod = hecke.t_mul(hecke.HeckeElement.t(u), hecke.HeckeElement.t(w))
                    got = ({x.word: c for x, c in conv.as_dict().items()},
                           {x.word: c.subs_q(a) for x, c in prod.terms.items()})
            except Exception:
                record(i, time.perf_counter() - t0, "wrong", traceback.format_exc(limit=3))
                continue
            dt = time.perf_counter() - t0
            if op == "verify":
                ok = got == (True, 36)
                why = "specialization report %r" % (got,)
            elif op == "cells":
                q = b
                ok = (len(got) == 24
                      and all(c == q ** length(w) for w, c in got.items()))
                why = "cell sizes %r" % (got,)
            else:
                conv_vals, hecke_vals = got
                ok = conv_vals == {x: c for x, c in hecke_vals.items() if c}
                why = "T_u T_w at q=%d: convolution %r, hecke %r" % (a, conv_vals, hecke_vals)
            record(i, dt, "ok" if ok else "wrong", None if ok else why)


# ---------------------------------------------------------------------------
# cli-mix: in-process ihkl.cli.main calls, with bad requests

# (argv, expected exit code). "dimension": 2000000 is left out: the seed
# loops over codimensions before any size check and does not terminate
# in bounded time.
BAD_REQUESTS = [
    (["kl", "--rank", "3", "--element", "3x1"], 2),
    (["kl", "--rank", "-1"], 2),
    (["ih", "--input", os.path.join(BAD, "dimension-negative.json")], 2),
    (["ih", "--input", os.path.join(BAD, "simplices-string.json")], 2),
    (["ih", "--input", os.path.join(BAD, "vertex-collision.json")], 2),
    (["ih", "--input", os.path.join(BAD, "not-json.json")], 2),
    (["ih", "--input", os.path.join(BAD, "not-object.json")], 2),
    (["ih", "--input", os.path.join(BAD, "unknown-key.json")], 2),
    (["ih", "--input", os.path.join(BAD, "missing-simplices.json")], 2),
    (["ih", "--input", os.path.join(BAD, "unknown-vertex.json")], 2),
    (["ih", "--input", os.path.join(BAD, "filtration-key.json")], 2),
    (["validate", "--input", os.path.join(BAD, "no-such-file.json")], 2),
    (["ih", "--example", "no-such-example"], 2),
    (["ih", "--example", "cone-torus", "--perversity", "bogus"], 2),
    (["ih", "--example", "cone-torus", "--supports", "bogus"], 2),
    (["ih", "--example", "cone-torus", "--perversity", "custom:0,0,0"], 2),
    (["stalks", "--example", "cone-torus", "--vertex", "zz"], 2),
    (["kl", "--rank", "x"], 2),
    (["frobnicate"], 2),
    (["bruhat", "--rank", "4", "--leq", "1234"], 2),
    (["hecke-mul", "--rank", "3", "--left", "X:213", "--right", "T:213"], 2),
    (["flagcheck", "--n", "3", "--q", "4"], 2),
    (["ih", "--input", os.path.join(BAD, "not-pseudomanifold.json")], 1),
    (["validate", "--input", os.path.join(BAD, "not-pseudomanifold.json")], 1),
    (["duality", "--example", "cone-torus", "--p", "zero", "--q", "zero"], 1),
    (["kl", "--rank", "3", "--interval", "321,123"], 1),
]

CLI_ROUNDS = 6
# The perversities a document meets in one role over the six rounds, in
# seeded order. An IH request's cost depends on the perversity, which sets
# the allowable chains, so a fixed multiset keeps every seed's work alike.
ROUND_KINDS = ("zero", "lower_middle", "upper_middle", "top", "lower_middle", "upper_middle")
CLI_SMALL = ((4, 1, 4), (5, 2, 7))   # (rank, min length, max length) for kl --element


def cli_requests(rng, names, rounds):
    """Each round: every bundled document in every IH-side role, plus S_n calls."""
    per_round = [[] for _ in range(rounds)]

    def kinds():
        ks = list(ROUND_KINDS[:rounds])
        rng.shuffle(ks)
        return ks

    for name in names:
        path = os.path.join(DATA, name + ".json")
        role = {r: kinds() for r in ("bm", "compact", "example", "stalks", "duality")}
        for r, reqs in enumerate(per_round):
            for sup in ("bm", "compact"):
                reqs.append(("ih", name, ["ih", "--input", path, "--perversity",
                                          CLI_PERVERSITY[role[sup][r]],
                                          "--supports", sup, "--format", "json"]))
            reqs.append(("ih", name, ["ih", "--example", name, "--perversity",
                                      CLI_PERVERSITY[role["example"][r]],
                                      "--supports", ("bm", "compact")[r % 2],
                                      "--format", "json"]))
            reqs.append(("validate", name, ["validate", "--input", path, "--format", "json"]))
            if name in CONES:
                reqs.append(("stalks", name, ["stalks", "--input", path, "--vertex", "apex",
                                              "--perversity", CLI_PERVERSITY[role["stalks"][r]],
                                              "--format", "json"]))
            if name not in ("point", "circle", "two-circles"):
                p = role["duality"][r]
                reqs.append(("duality", name, ["duality", "--input", path,
                                               "--p", CLI_PERVERSITY[p],
                                               "--q", CLI_PERVERSITY[COMPLEMENT[p]],
                                               "--format", "json"]))
    for n, lo, hi in CLI_SMALL:
        by_len = perms_by_length(n, hi)
        for ell in range(lo, hi + 1):
            # a fixed multiset of elements per length, in seeded order
            pool = sorted(by_len[ell])
            picks = [pool[r % len(pool)] for r in range(rounds)]
            rng.shuffle(picks)
            for w, reqs in zip(picks, per_round):
                reqs.append(("kl", w, ["kl", "--rank", str(n), "--element", word(w),
                                       "--format", "json"]))
    for r, reqs in enumerate(per_round):
        if r % 3 == 0:
            reqs.append(("flagcheck", None, ["flagcheck", "--n", "3", "--q", "2",
                                             "--format", "json"]))
        for n in (4, 5, 4, 5, 4, 5):
            u, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            reqs.append(("bruhat", (u, w), ["bruhat", "--rank", str(n), "--leq",
                                            "%s,%s" % (word(u), word(w)),
                                            "--format", "json"]))
        for n in (3, 4, 3, 4):
            u, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            reqs.append(("hecke-mul", (u, w), ["hecke-mul", "--rank", str(n),
                                               "--left", "T:" + word(u), "--right",
                                               "T:" + word(w), "--format", "json"]))
    return [req for reqs in per_round for req in reqs]


class CliMix:
    """A seeded stream of ihkl.cli.main(argv) calls with stdout/stderr captured."""

    def prepare(self, rng, smoke):
        names = bundled_names()
        if smoke:
            names = [n for n in names if not n.startswith("susp")]
        reqs = cli_requests(rng, names, 1 if smoke else CLI_ROUNDS)
        reqs.extend(("bad", code, argv) for argv, code in BAD_REQUESTS)
        rng.shuffle(reqs)
        from ihkl import cli
        return {"requests": reqs, "expected": load_expected(names), "cli": cli}

    def run(self, inputs, record):
        cli = inputs["cli"]
        for i, (kind, what, argv) in enumerate(inputs["requests"]):
            out, err = io.StringIO(), io.StringIO()
            raised = None
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception:
                    code, raised = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if kind == "bad":
                problem = check_rejection(code, raised, err.getvalue(), what)
                status = "fail" if problem else "ok"
            else:
                problem = raised or check_cli(kind, what, argv, code, out.getvalue(),
                                              err.getvalue(), inputs["expected"])
                status = "wrong" if problem else "ok"
            record(i, dt, status, problem and "%s: %s" % (" ".join(argv), problem))


def check_rejection(code, raised, stderr, want):
    if raised:
        return "uncaught exception: " + raised.strip().splitlines()[-1]
    if code != want:
        return "exit code %r, want %d" % (code, want)
    if "Traceback" in stderr:
        return "traceback on stderr"
    if len([ln for ln in stderr.splitlines() if ln.strip()]) > 1:
        return "stderr has %d lines, want one" % len(stderr.splitlines())
    return None


def check_cli(kind, what, argv, code, stdout, stderr, expected):
    want_code = 0
    if kind == "validate":
        data = json.loads(stdout)
        structural = ("purity", "pseudomanifold", "filtration", "no_codim_1")
        if not all(data[c]["passed"] for c in structural):
            return "a bundled complex failed a structural check"
        want_code = 0 if all(v["passed"] for v in data.values()) else 1
    if code != want_code:
        return "exit code %r, want %d; stderr %r" % (code, want_code, stderr[:200])
    if kind == "validate":
        return None
    data = json.loads(stdout)
    if kind == "ih":
        ex = expected[what]
        sup = "borel_moore" if argv[argv.index("--supports") + 1] == "bm" else "compact"
        pname = argv[argv.index("--perversity") + 1]
        kind_ = next(k for k, v in CLI_PERVERSITY.items() if v == pname)
        want = ex["ih"][kind_][sup]
        return None if data["dims"] == want else "dims %r, want %r" % (data["dims"], want)
    if kind == "stalks":
        # cone formula: the apex stalk is the truncated homology of the base
        base = expected[CONES[what]]["homology"]["borel_moore"]
        n = len(base)
        pname = argv[argv.index("--perversity") + 1]
        kind_ = next(k for k, v in CLI_PERVERSITY.items() if v == pname)
        top = {"zero": 0, "lower_middle": (n - 2) // 2,
               "upper_middle": (n - 1) // 2, "top": n - 2}[kind_]
        want = {str(-n + j): base[str(n - 1 - j)] for j in range(top + 1)
                if base.get(str(n - 1 - j))}
        return None if data["stalks"] == want else "stalks %r, want %r" % (data["stalks"], want)
    if kind == "duality":
        ex = expected[what]
        n = len(ex["homology"]["borel_moore"]) - 1
        p = next(k for k, v in CLI_PERVERSITY.items() if v == argv[argv.index("--p") + 1])
        q = COMPLEMENT[p]
        if not data["passed"]:
            return "duality report failed"
        for row in data["rows"]:
            label = row["label"]
            i = int(label.split()[-1])
            pl, ql = ("lower_middle", "lower_middle") if label.startswith("middle") else (p, q)
            want = (ex["ih"][pl]["borel_moore"][str(i)], ex["ih"][ql]["compact"][str(n - i)])
            if (row["left"], row["right"]) != want:
                return "row %r, want %r" % (row, want)
        return None
    if kind == "kl":
        w = what
        polys = {tuple(int(c) for c in u): {int(e): c for e, c in cs.items()}
                 for u, cs in data["kl"].items()}
        below = {u for u in itertools.permutations(range(1, len(w) + 1)) if bruhat_leq(u, w)}
        if set(polys) != below:
            return "support is not the Bruhat interval below %s" % word(w)
        problems = [p for u, cs in polys.items() for p in kl_poly_problems(u, w, cs)]
        return "; ".join(problems[:3]) or None
    if kind == "bruhat":
        want = bruhat_leq(*what)
        return None if data["leq"] == want else "leq %r, want %r" % (data["leq"], want)
    if kind == "flagcheck":
        ok = data["passed"] and data["checked"] == 36
        return None if ok else "specialization report %r" % (data,)
    if kind == "hecke-mul":
        # at v = 1 the Hecke algebra is the group algebra: T_u T_w = T_{uw}
        at_one = {x: sum(cs.values()) for x, cs in data["product"].items()}
        at_one = {x: c for x, c in at_one.items() if c}
        want = {word(compose(*what)): 1}
        return None if at_one == want else "product at v=1 %r, want %r" % (at_one, want)
    return "unknown request kind %r" % kind


WORKLOADS = {
    "ih-subdivided": IhSubdivided,
    "cli-mix": CliMix,
    "kl": Kl,
    "flag": Flag,
}


def seeded_rng(seed):
    """The request stream depends on the seed only."""
    return random.Random(seed)
