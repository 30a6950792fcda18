"""Per-module tracing of braidalg from outside the package.

The package has no instrumentation of its own, so the tracer rebinds each
traced public function to a wrapper.  A name bound by import in several
modules (``bialg.reduce_mod_ideal``, ``presents.invert``,
``cli.orient_relations``, ``rmat.dense_inverse``, ...) is a separate
binding, so every module and class attribute that holds the original
object is rebound.

Three kinds of wrapper:

  SPAN   coarse public boundaries.  Each call appends a span record
         (id, parent span id, metric, start, end, time covered by traced
         callees); self time is derived from the records.
  TIMED  functions called too often for span records (RatFunc arithmetic,
         rewriting, echelon inserts).  Each call adds to summed calls and
         self time.
  COUNT  hot leaves such as ``DegLexOrder.key`` (up to ~2M calls a job):
         calls only; their time stays in the caller's self time.

Self time is a frame's duration minus the durations of the traced calls
made directly inside it, so the self times of all SPAN and TIMED frames
sum to the duration of ``cli.main``; what ``cli.main`` keeps for itself is
the part no module accounts for.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"


def targets():
    """(calls metric, time metric or None, owner, attribute, kind) for every
    traced function; several entries may share one time metric."""
    from braidalg import (bialg, cli, ideals, linalg, ncalg, presents, qscalar,
                          rewrite, rmat)

    return [
        ("cli.main.calls", "cli.main.s", cli, "main", SPAN),
        ("rewrite.completions", "rewrite.completion.s", rewrite.TruncatedGB, "__init__", SPAN),
        ("rewrite.reduce.calls", "rewrite.reduce.s", rewrite.RewriteSystem, "reduce", TIMED),
        ("rewrite.find_redex.calls", None, rewrite.RewriteSystem, "find_redex", COUNT),
        ("rewrite.orient_relations.calls", "rewrite.orient_relations.s", rewrite,
         "orient_relations", SPAN),
        ("ideals.reduce_mod_ideal.calls", "ideals.reduce_mod_ideal.s", ideals,
         "reduce_mod_ideal", SPAN),
        ("ideals.substitute_generators.calls", "ideals.substitute_generators.s", ideals,
         "substitute_generators", SPAN),
        ("ideals.hilbert_dims.calls", "ideals.hilbert_dims.s", ideals, "hilbert_dims", SPAN),
        ("bialg.verify_bialgebra.calls", "bialg.verify_bialgebra.s", bialg,
         "verify_bialgebra", SPAN),
        ("bialg.verify_homomorphism.calls", "bialg.verify_homomorphism.s", bialg,
         "verify_homomorphism", SPAN),
        ("bialg.verify_counit.calls", "bialg.verify_counit.s", bialg, "verify_counit", SPAN),
        ("bialg.verify_coassoc.calls", "bialg.verify_coassoc.s", bialg, "verify_coassoc", SPAN),
        ("bialg.sample_points.calls", "bialg.sample_points.s", bialg, "sample_points", SPAN),
        ("bialg.to_document.calls", "bialg.to_document.s", bialg.VerificationReport,
         "to_document", SPAN),
        ("presents.build_preset.calls", "presents.build_preset.s", presents, "build_preset", SPAN),
        ("presents.braided_tensor_square.calls", "presents.braided_tensor_square.s", presents,
         "braided_tensor_square", SPAN),
        ("presents.braided_chain.calls", "presents.braided_chain.s", presents,
         "braided_chain", SPAN),
        ("presents.self_block.calls", "presents.blocks.s", presents, "self_block", SPAN),
        ("presents.cross_block.calls", "presents.blocks.s", presents, "cross_block", SPAN),
        ("rmat.invert.calls", "rmat.invert.s", rmat, "invert", SPAN),
        ("rmat.second_inverse.calls", "rmat.second_inverse.s", rmat, "second_inverse", SPAN),
        ("rmat.ybe_check.calls", "rmat.ybe_check.s", rmat, "ybe_check", SPAN),
        ("rmat.load_rmatrix.calls", "rmat.load_rmatrix.s", rmat, "load_rmatrix", SPAN),
        ("linalg.dense_inverse.calls", "linalg.dense_inverse.s", linalg, "dense_inverse", SPAN),
        ("linalg.echelon_insert.calls", "linalg.echelon_insert.s", linalg.SparseEchelon,
         "insert", TIMED),
        ("linalg.echelon_reduce.calls", None, linalg.SparseEchelon, "reduce", COUNT),
        ("ncalg.presentation.calls", "ncalg.presentation.s", ncalg.Presentation,
         "__init__", TIMED),
        ("ncalg.order_key.calls", None, ncalg.DegLexOrder, "key", COUNT),
        ("ncalg.format_poly.calls", "ncalg.format_poly.s", ncalg, "format_poly", TIMED),
        ("qscalar.ratfunc_mul.calls", "qscalar.ratfunc.s", qscalar.RatFunc, "__mul__", TIMED),
        ("qscalar.ratfunc_add.calls", "qscalar.ratfunc.s", qscalar.RatFunc, "__add__", TIMED),
        ("qscalar.ratfunc_div.calls", "qscalar.ratfunc.s", qscalar.RatFunc, "__truediv__", TIMED),
        ("qscalar.evaluate.calls", None, qscalar.RatFunc, "evaluate", COUNT),
    ]


def rebind(owner, attr, wrapper) -> int:
    """Replace every binding of ``owner.attr`` inside braidalg by wrapper.

    Covers the defining module or class, every module that imported the
    name, and aliases inside the class (``__radd__ = __add__``).  Returns
    the number of bindings replaced.
    """
    original = vars(owner)[attr]
    holders = [owner] + [m for name, m in list(sys.modules.items())
                         if name == "braidalg" or name.startswith("braidalg.")]
    count = 0
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, name, wrapper)
                count += 1
    return count


class Tracer:
    """Counters, summed self times and span records for one process."""

    def __init__(self):
        self.calls = {}
        self.times = {}
        self.counters = {"rewrite.rules_adjoined": 0, "rewrite.overlap_reductions": 0,
                         "rewrite.reduce_steps": 0, "ideals.cert_terms": 0,
                         "bialg.points": 0}
        self.spans = []
        # frames: [time metric, time covered by traced callees, span id]
        self.stack = [[None, 0.0, None]]
        self.bindings = {}
        self.missing = []

    # -- wrappers ---------------------------------------------------------

    def _counting(self, fn, calls_name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[calls_name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, fn, calls_name, time_name, span):
        calls, times, stack, spans = self.calls, self.times, self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [time_name, 0.0, len(spans) if span else parent[2]]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                calls[calls_name] += 1
                if span:
                    spans[frame[2]] = (frame[2], parent[2], time_name, t0, t1, frame[1])
                else:
                    times[time_name] += t1 - t0 - frame[1]
        return wrapper

    def install(self):
        for calls_name, time_name, owner, attr, kind in targets():
            self.calls.setdefault(calls_name, 0)
            if kind == TIMED:
                self.times.setdefault(time_name, 0.0)
            fn = vars(owner).get(attr)
            if fn is None:  # renamed or removed since the benchmark was written
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if kind == COUNT:
                wrapper = self._counting(fn, calls_name)
            else:
                wrapper = self._timed(fn, calls_name, time_name, kind == SPAN)
            wrapper = self._with_counters(calls_name, wrapper)
            self.bindings[f"{owner.__name__}.{attr}"] = rebind(owner, attr, wrapper)

    def _with_counters(self, calls_name, wrapper):
        """Add the work counters that need a call's arguments or result."""
        counters, stack = self.counters, self.stack
        if calls_name == "rewrite.completions":
            def completion(gb, *args, **kwargs):
                wrapper(gb, *args, **kwargs)
                counters["rewrite.rules_adjoined"] += len(gb.added_rules)
            return completion
        if calls_name == "rewrite.reduce.calls":
            # steps are counted where the caller collects them; the call
            # itself is left as the caller made it
            def reduce(rs, p, collect=False):
                if stack[-1][0] == "rewrite.completion.s":
                    counters["rewrite.overlap_reductions"] += 1
                residue, steps = wrapper(rs, p, collect=collect)
                if steps is not None:
                    counters["rewrite.reduce_steps"] += len(steps)
                return residue, steps
            return reduce
        if calls_name == "ideals.reduce_mod_ideal.calls":
            def reduce_mod_ideal(*args, **kwargs):
                out = wrapper(*args, **kwargs)
                if out[1] is not None:
                    counters["ideals.cert_terms"] += len(out[1].terms)
                return out
            return reduce_mod_ideal
        if calls_name == "bialg.sample_points.calls":
            def sample_points(*args, **kwargs):
                points = wrapper(*args, **kwargs)
                counters["bialg.points"] += len(points)
                return points
            return sample_points
        return wrapper

    def report(self) -> dict:
        return {"calls": self.calls, "times": self.times, "counters": self.counters,
                "spans": self.spans, "bindings": self.bindings, "missing": self.missing}


def self_times(trace) -> dict:
    """Self time per time metric: summed for TIMED functions, derived from
    the span records for SPAN functions (duration minus the part covered
    by traced callees)."""
    out = dict(trace["times"])
    for _, _, name, t0, t1, covered in trace["spans"]:
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out
