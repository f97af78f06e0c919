"""Span tracing from outside the program, and per-layer metrics.

Each traced public function is replaced, at the module attribute its
callers look it up from, by a wrapper that records a span (name, start,
end, parent, request id) and passes arguments and return value through
unchanged. Spans live in flat in-memory arrays and are written out only
after the timed batch. A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

# span name -> the (module, attribute) pairs callers look it up from.
# A name whose every target is missing is reported as unmeasured.
TARGETS = {
    "sparse_rank": [("ihkl.linalg", "sparse_rank"), ("ihkl.complexes", "sparse_rank"),
                    ("ihkl.ih", "sparse_rank")],
    "barycentric_subdivide": [("ihkl.complexes", "barycentric_subdivide"),
                              ("ihkl.ih", "barycentric_subdivide")],
    "interior_order_complex": [("ihkl.complexes", "interior_order_complex"),
                               ("ihkl.ih", "interior_order_complex")],
    "chain_basis": [("ihkl.complexes", "chain_basis"), ("ihkl.ih", "chain_basis")],
    "boundary_columns": [("ihkl.complexes", "boundary_columns"),
                         ("ihkl.ih", "boundary_columns")],
    "homology_dims": [("ihkl.complexes", "homology_dims")],
    "validate": [("ihkl.complexes", "validate"), ("ihkl.cli", "validate")],
    "load_complex": [("ihkl.complexes", "load_complex"), ("ihkl.cli", "load_complex")],
    "ih_dims": [("ihkl.ih", "ih_dims")],
    "local_stalk_table": [("ihkl.ih", "local_stalk_table")],
    "duality_report": [("ihkl.ih", "duality_report")],
    "cli.main": [("ihkl.cli", "main")],
    "perversity": [("ihkl.perversity", "make_standard"), ("ihkl.ih", "make_standard"),
                   ("ihkl.perversity", "parse"), ("ihkl.cli", "parse_perversity")],
    "builders.build": [("ihkl.builders", "build")],
    # coxeter: calls that cross a module boundary only
    "coxeter": [(mod, name) for mod, names in (
        ("ihkl.hecke", ("all_elements", "bruhat_leq", "from_word", "identity")),
        ("ihkl.flagfq", ("all_elements", "identity")),
        ("ihkl.cli", ("all_elements", "bruhat_leq", "parse_element")))
        for name in names],
    "kl_bott_samelson": [("ihkl.hecke", "kl_bott_samelson")],
    "kl_recursion": [("ihkl.hecke", "kl_recursion")],
    "iota": [("ihkl.hecke", "iota")],
    "kl_table": [("ihkl.hecke", "kl_table")],
    "t_mul": [("ihkl.hecke", "t_mul")],
    "enumerate_flags": [("ihkl.flagfq", "enumerate_flags")],
    "relative_position": [("ihkl.flagfq", "relative_position")],
    "convolve": [("ihkl.flagfq", "convolve")],
    "verify_hecke_specialization": [("ihkl.flagfq", "verify_hecke_specialization")],
}

IH_SPANS = ("ih_dims", "local_stalk_table", "duality_report")

# per-layer metric -> (unit, better, span names it needs)
LAYER_METRICS = {
    "linalg.rank_s": ("s", "lower", ("sparse_rank",)),
    "linalg.rank_calls": ("count", "lower", ("sparse_rank",)),
    "linalg.rank_cols": ("count", "lower", ("sparse_rank",)),
    "linalg.rank_nnz": ("count", "lower", ("sparse_rank",)),
    "linalg.rank_sum": ("count", "lower", ("sparse_rank",)),
    "linalg.rank_share": ("%", "lower", ("sparse_rank",)),
    "complexes.subdivide_s": ("s", "lower", ("barycentric_subdivide",)),
    "complexes.subdivide_out_simplices": ("count", "lower", ("barycentric_subdivide",)),
    "complexes.interior_model_s": ("s", "lower", ("interior_order_complex",)),
    "complexes.basis_s": ("s", "lower", ("chain_basis",)),
    "complexes.boundary_s": ("s", "lower", ("boundary_columns",)),
    "complexes.boundary_cols": ("count", "lower", ("boundary_columns",)),
    "complexes.homology_self_s": ("s", "lower", ("homology_dims",)),
    "complexes.validate_s": ("s", "lower", ("validate",)),
    "complexes.validate_calls": ("count", "lower", ("validate",)),
    "complexes.load_s": ("s", "lower", ("load_complex",)),
    "ih.self_s": ("s", "lower", IH_SPANS),
    "ih.calls": ("count", "lower", ("ih_dims",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
    "cli.requests": ("count", "higher", ("cli.main",)),
    "perversity.s": ("s", "lower", ("perversity",)),
    "builders.build_s": ("s", "lower", ("builders.build",)),
    "coxeter.s": ("s", "lower", ("coxeter",)),
    "coxeter.calls": ("count", "lower", ("coxeter",)),
    "hecke.bs_self_s": ("s", "lower", ("kl_bott_samelson",)),
    "hecke.bs_elements": ("count", "lower", ("kl_bott_samelson",)),
    "hecke.rec_self_s": ("s", "lower", ("kl_recursion",)),
    "hecke.rec_calls": ("count", "lower", ("kl_recursion",)),
    "hecke.rec_elements": ("count", "lower", ("kl_recursion",)),
    "hecke.iota_s": ("s", "lower", ("iota",)),
    "hecke.iota_calls": ("count", "lower", ("iota",)),
    "hecke.table_self_s": ("s", "lower", ("kl_table",)),
    "hecke.t_mul_s": ("s", "lower", ("t_mul",)),
    "hecke.t_mul_calls": ("count", "lower", ("t_mul",)),
    "flagfq.enumerate_s": ("s", "lower", ("enumerate_flags",)),
    "flagfq.flags": ("count", "lower", ("enumerate_flags",)),
    "flagfq.relpos_s": ("s", "lower", ("relative_position",)),
    "flagfq.relpos_calls": ("count", "lower", ("relative_position",)),
    "flagfq.convolve_self_s": ("s", "lower", ("convolve",)),
    "flagfq.convolve_calls": ("count", "lower", ("convolve",)),
    "flagfq.verify_self_s": ("s", "lower", ("verify_hecke_specialization",)),
    "trace.overhead_s": ("s", "lower", ()),
}


class SpanLog:
    """Spans in parallel flat arrays; parent -1 marks a root span."""

    def __init__(self):
        self.names = []            # span name id -> name
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.nested = array("b")   # 1 when an enclosing span has the same name
        self.active = []           # name id -> number of open spans
        self.stack = []
        self.current_request = -1
        # per-name extra counts gathered from arguments and results
        self.counts = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.nested.append(self.active[nid] > 0)
        self.active[nid] += 1
        self.stack.append(i)
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.active[self.name[i]] -= 1
        self.stack.pop()

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def __len__(self):
        return len(self.name)

    def self_times(self):
        """Per span: its duration minus its children's durations.

        Calls nest in one thread, so the children of a span never overlap
        and their durations add up to the part of the span they cover.
        """
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path):
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,request\n")
            for i in range(len(self)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.request[i]))


def _counting(name, log, result, args):
    """Work counts taken from a traced call's arguments and result."""
    if name == "sparse_rank":
        cols = args[0]
        log.add("rank_cols", len(cols))
        log.add("rank_nnz", sum(len(c) for c in cols))
        log.add("rank_sum", result)
    elif name == "barycentric_subdivide":
        log.add("subdivide_out_simplices", len(result.ambient))
    elif name == "boundary_columns":
        log.add("boundary_cols", len(result))
    elif name == "kl_recursion":
        w = args[0]
        log.counts.setdefault("rec_keys", set()).add((w.n, w.word))
    elif name == "enumerate_flags":
        seen = log.counts.setdefault("flag_keys", {})
        seen[tuple(args)] = len(result)


def _wrap(fn, name, log):
    nid = log.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "sparse_rank" and args and not isinstance(args[0], list):
            args = (list(args[0]),) + args[1:]   # counted below, so read it once
        i = log.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(i)
        if args:
            _counting(name, log, result, args)
        return result

    return traced


def install(log, targets=TARGETS):
    """Wrap every target that exists; return the span names left unmeasured."""
    missing = []
    for name, pairs in targets.items():
        found = False
        for modname, attr in pairs:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                continue
            setattr(mod, attr, _wrap(fn, name, log))
            found = True
        if not found:
            missing.append(name)
    return missing


def layer_metrics(log, unmeasured_spans, wall_s):
    """Aggregate spans of one traced batch into the per-layer metrics."""
    selfs = log.self_times()
    tot = {}
    self_tot = {}
    calls = {}
    for i in range(len(log)):
        name = log.names[log.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_tot[name] = self_tot.get(name, 0.0) + selfs[i]
        # inclusive time counts only the outermost span of a name, so
        # recursion is not counted twice
        if not log.nested[i]:
            tot[name] = tot.get(name, 0.0) + (log.end[i] - log.start[i])
    c = log.counts
    values = {
        "linalg.rank_s": tot.get("sparse_rank", 0.0),
        "linalg.rank_calls": calls.get("sparse_rank", 0),
        "linalg.rank_cols": c.get("rank_cols", 0),
        "linalg.rank_nnz": c.get("rank_nnz", 0),
        "linalg.rank_sum": c.get("rank_sum", 0),
        "linalg.rank_share": 100.0 * tot.get("sparse_rank", 0.0) / wall_s,
        "complexes.subdivide_s": tot.get("barycentric_subdivide", 0.0),
        "complexes.subdivide_out_simplices": c.get("subdivide_out_simplices", 0),
        "complexes.interior_model_s": tot.get("interior_order_complex", 0.0),
        "complexes.basis_s": tot.get("chain_basis", 0.0),
        "complexes.boundary_s": tot.get("boundary_columns", 0.0),
        "complexes.boundary_cols": c.get("boundary_cols", 0),
        "complexes.homology_self_s": self_tot.get("homology_dims", 0.0),
        "complexes.validate_s": tot.get("validate", 0.0),
        "complexes.validate_calls": calls.get("validate", 0),
        "complexes.load_s": tot.get("load_complex", 0.0),
        "ih.self_s": sum(self_tot.get(n, 0.0) for n in IH_SPANS),
        "ih.calls": calls.get("ih_dims", 0),
        "cli.self_s": self_tot.get("cli.main", 0.0),
        "cli.requests": calls.get("cli.main", 0),
        "perversity.s": tot.get("perversity", 0.0),
        "builders.build_s": tot.get("builders.build", 0.0),
        "coxeter.s": tot.get("coxeter", 0.0),
        "coxeter.calls": calls.get("coxeter", 0),
        "hecke.bs_self_s": self_tot.get("kl_bott_samelson", 0.0),
        "hecke.bs_elements": calls.get("kl_bott_samelson", 0),
        "hecke.rec_self_s": self_tot.get("kl_recursion", 0.0),
        "hecke.rec_calls": calls.get("kl_recursion", 0),
        "hecke.rec_elements": len(c.get("rec_keys", ())),
        "hecke.iota_s": tot.get("iota", 0.0),
        "hecke.iota_calls": calls.get("iota", 0),
        "hecke.table_self_s": self_tot.get("kl_table", 0.0),
        "hecke.t_mul_s": tot.get("t_mul", 0.0),
        "hecke.t_mul_calls": calls.get("t_mul", 0),
        "flagfq.enumerate_s": tot.get("enumerate_flags", 0.0),
        "flagfq.flags": sum(c.get("flag_keys", {}).values()),
        "flagfq.relpos_s": tot.get("relative_position", 0.0),
        "flagfq.relpos_calls": calls.get("relative_position", 0),
        "flagfq.convolve_self_s": self_tot.get("convolve", 0.0),
        "flagfq.convolve_calls": calls.get("convolve", 0),
        "flagfq.verify_self_s": self_tot.get("verify_hecke_specialization", 0.0),
    }
    gone = set(unmeasured_spans)
    return {k: v for k, v in values.items()
            if not gone.intersection(LAYER_METRICS[k][2])}
