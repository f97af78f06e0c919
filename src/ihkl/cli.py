"""Command-line interface.

Exit codes: 0 success, 1 computation or validation failure, 2 usage
error, 3 internal consistency failure (an invariant the code itself
guarantees was observed broken).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from functools import lru_cache

from . import builders, flagfq, hecke, ih
from .complexes import dump_complex, load_complex, validate
from .coxeter import bruhat_leq, parse_element
from .errors import (ComputationError, InternalConsistencyError, UsageError)
from .perversity import parse as parse_perversity


def _load(args):
    """The complex named by --input or --example, exactly one of which is given."""
    return builders.build(args.example) if args.input is None else load_complex(args.input)


def _perversity_for(s, text):
    return parse_perversity(text, max(s.dimension, 2))


def _element_pair(text, n, flag):
    """U,W split at the comma outside brackets: either may read [3,4,1,2]."""
    parts = re.split(r",(?![^\[]*\])", text)
    if len(parts) != 2:
        raise UsageError("%s wants U,W" % flag)
    return tuple(parse_element(t, n) for t in parts)


def _emit(args, text, obj, rows=None):
    """Print the output --format asks for. Each of text, obj (JSON) and rows
    (CSV) is a function that builds its output, so only one is built."""
    if args.format == "json":
        print(json.dumps(obj(), indent=1, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(rows())
    else:
        print(text())


def run_ih(args):
    s = _load(args)
    supports = "borel_moore" if args.supports == "bm" else args.supports
    dims = ih.ih_dims(s, _perversity_for(s, args.perversity), supports)
    _emit(args,
          lambda: " ".join("%d:%d" % (i, dims.get(i, 0)) for i in range(s.dimension + 1)),
          lambda: {"supports": supports, "perversity": args.perversity,
                   "dims": {str(i): dims.get(i, 0) for i in range(s.dimension + 1)}},
          lambda: [("degree", "dim")] + [(i, dims.get(i, 0)) for i in range(s.dimension + 1)])
    return 0


def run_stalks(args):
    s = _load(args)
    named = [v for v in s.ambient.vertices if str(v) == args.vertex]
    if len(named) != 1:
        raise UsageError("%s vertex %r"
                         % ("ambiguous" if named else "unknown", args.vertex))
    p = _perversity_for(s, args.perversity)
    table = ih.local_stalk_table(s, named[0], p)
    _emit(args,
          lambda: " ".join("%d:%d" % (d, table[d]) for d in sorted(table)) or "(zero)",
          lambda: {"vertex": args.vertex, "perversity": args.perversity,
                   "stalks": {str(d): c for d, c in sorted(table.items())}},
          lambda: [("degree", "dim")] + [(d, table[d]) for d in sorted(table)])
    return 0


def run_duality(args):
    s = _load(args)
    p = _perversity_for(s, args.p)
    q = _perversity_for(s, args.q)
    rep = ih.duality_report(s, p, q)
    _emit(args, rep.render_text, rep.to_json)
    return 0 if rep.passed else 1


def run_normalize(args):
    s = _load(args)
    out = ih.normalize_isolated(s)
    dump_complex(out, args.output)
    print("wrote %s" % args.output)
    return 0


def run_validate(args):
    s = _load(args)
    rep = validate(s)
    _emit(args, rep.render_text, rep.to_json)
    return 0 if rep.ok else 1


def run_kl(args):
    n, algorithm = args.rank, "bott_samelson" if args.algorithm == "bs" else args.algorithm
    if args.element is not None:
        w = parse_element(args.element, n)
        # one element is computed by one route; both reports the Bott-Samelson result
        res = hecke.cprime(w, "recursion" if algorithm == "recursion" else "bott_samelson")
        table = {(u, w): p for u, p in res.kl_polys.items()}

        def head():
            return {"w": str(w), "cprime": res.cprime.format()}
        tail = ["C' = %(cprime)s"]
    else:
        table = (hecke.kl_table(n, algorithm) if args.interval is None else
                 hecke.kl_interval(*_element_pair(args.interval, n, "--interval"), algorithm))

        def head():
            return {"rank": n, "algorithm": algorithm, "pairs": len(table)}
        tail = ["AGREE (%(pairs)d pairs)"] if algorithm == "both" else []
    items = sorted(table.items(), key=lambda item: (item[0][1].length(), item[0][1].word,
                                                    item[0][0].length(), item[0][0].word))

    def rows():
        return [(str(u), str(w), p.format("q")) for (u, w), p in items]

    _emit(args, lambda: "\n".join(["P[%s,%s] = %s" % row for row in rows()]
                                  + [line % head() for line in tail]),
          lambda: {**head(), "kl": {(str(u) if args.element is not None else "%s,%s" % (u, w)):
                                    {str(e): c for e, c in p.coeffs.items()}
                                    for (u, w), p in items}},
          lambda: [("u", "w", "P")] + rows())
    return 0


def run_flagcheck(args):
    rep = flagfq.verify_hecke_specialization(args.n, args.q)
    _emit(args, rep.render_text, rep.to_json)
    return 0 if rep.passed else 1


def run_bruhat(args):
    u, w = _element_pair(args.leq, args.rank, "--leq")
    ans = bruhat_leq(u, w)
    _emit(args, lambda: "true" if ans else "false",
          lambda: {"u": str(u), "w": str(w), "leq": ans})
    return 0


def _parse_hecke_expr(text, n):
    total = None
    for part in text.split("+"):
        part = part.strip()
        if ":" not in part:
            raise UsageError("cannot parse Hecke term %r (want T:W or Cp:W)" % part)
        kind, elt = part.split(":", 1)
        w = parse_element(elt, n)
        if kind == "T":
            term = hecke.HeckeElement.t(w)
        elif kind == "Cp":
            term = hecke.cprime(w).cprime
        else:
            raise UsageError("unknown Hecke term kind %r" % kind)
        total = term if total is None else total + term
    return total


def run_hecke_mul(args):
    a = _parse_hecke_expr(args.left, args.rank)
    b = _parse_hecke_expr(args.right, args.rank)
    prod = hecke.t_mul(a, b)
    _emit(args, prod.format,
          lambda: {"left": args.left, "right": args.right,
                   "product": {str(w): {str(e): c for e, c in p.coeffs.items()}
                               for w, p in prod.terms.items()}})
    return 0


def run_example_export(args):
    dump_complex(builders.build(args.name), args.output)
    print("wrote %s" % args.output)
    return 0


def run_examples(args):
    for name in sorted(builders.BUILDERS):
        print(name)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors raise UsageError: one stderr line and exit 2."""

    def error(self, message):
        raise UsageError(message)


# The largest --rank: an element of S_100 has 100 entries, a Bruhat walk
# at most 4,950 steps. flagcheck --n has none: flagfq._check_bounds bounds its work.
MAX_RANK = 100


def _rank(text, most=MAX_RANK):
    """A --rank value, 1 <= n <= most; flagcheck --n passes most=None, no bound.
    The pattern is the decimal form int() reads."""
    if not re.fullmatch(r"[+-]?\d+(_\d+)*", text.strip()):
        raise argparse.ArgumentTypeError("invalid rank %r" % text)
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("rank must be at least 1, got %d" % n)
    if most is not None and n > most:
        raise argparse.ArgumentTypeError("rank must be at most %d, got %d" % (most, n))
    return n


def _add_complex_source(sp):
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="complex JSON file")
    source.add_argument("--example", help="built-in example name")


def _add_format(sp, *extra):
    """--format with text, json and the subcommand's other choices."""
    sp.add_argument("--format", default="text", choices=("text", "json") + extra)


@lru_cache(maxsize=None)
def build_parser():
    """The ihkl argument parser, built once per process on first use."""
    ap = _Parser(
        prog="ihkl",
        description="intersection homology and Kazhdan-Lusztig toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ih", help="intersection homology dimensions")
    _add_complex_source(sp)
    sp.add_argument("--perversity", default="middle")
    sp.add_argument("--supports", default="bm", choices=("bm", "compact"))
    _add_format(sp, "csv")
    sp.set_defaults(func=run_ih)

    sp = sub.add_parser("stalks", help="local stalk table at a vertex")
    _add_complex_source(sp)
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--perversity", default="middle")
    _add_format(sp, "csv")
    sp.set_defaults(func=run_stalks)

    sp = sub.add_parser("duality", help="duality dimension report")
    _add_complex_source(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    _add_format(sp)
    sp.set_defaults(func=run_duality)

    sp = sub.add_parser("normalize", help="split isolated singular points")
    _add_complex_source(sp)
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=run_normalize)

    sp = sub.add_parser("validate", help="structural checks on a complex")
    _add_complex_source(sp)
    _add_format(sp)
    sp.set_defaults(func=run_validate)

    sp = sub.add_parser("kl", help="Kazhdan-Lusztig polynomials")
    sp.add_argument("--rank", type=_rank, required=True)
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--element")
    which.add_argument("--interval")
    sp.add_argument("--algorithm", default="both",
                    choices=("bs", "recursion", "both"))
    _add_format(sp, "csv")
    sp.set_defaults(func=run_kl)

    sp = sub.add_parser("flagcheck", help="Hecke vs finite-field convolution")
    sp.add_argument("--n", type=lambda text: _rank(text, None), required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_format(sp)
    sp.set_defaults(func=run_flagcheck)

    sp = sub.add_parser("bruhat", help="Bruhat order comparison")
    sp.add_argument("--rank", type=_rank, required=True)
    sp.add_argument("--leq", required=True)
    _add_format(sp)
    sp.set_defaults(func=run_bruhat)

    sp = sub.add_parser("hecke-mul", help="multiply Hecke elements")
    sp.add_argument("--rank", type=_rank, required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    _add_format(sp)
    sp.set_defaults(func=run_hecke_mul)

    sp = sub.add_parser("example-export", help="write a built-in example to JSON")
    sp.add_argument("--name", required=True)
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=run_example_export)

    sp = sub.add_parser("examples", help="list built-in example names")
    sp.set_defaults(func=run_examples)

    return ap


def main(argv=None) -> int:
    """Run one command. Every error is raised where the input is read; here
    each exception class only maps to its exit code and one stderr line."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at shutdown
        return code
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except BrokenPipeError:  # the reader went away: stop writing, say nothing
        # the remaining output goes to devnull, so the flush at shutdown cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except InternalConsistencyError as e:
        print("internal consistency error: %s" % e, file=sys.stderr)
        return 3
    except ComputationError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except OSError as e:  # an --input or --output path that cannot be used
        print("usage error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
