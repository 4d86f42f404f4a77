"""Span tracer that wraps pptlab's public functions from outside the package.

Each wrapped function records a span ``(name, start, end, parent)`` in
memory; size counters are read from the call's arguments or its return
value.  Nothing inside ``src/`` is edited: the tracer replaces module and
class attributes, so calls made through ``module.function`` (the only way
pptlab's modules call each other) land in the wrapper.

Gaussian-rational scalar operations are deliberately not wrapped: there are
millions of them and a wrapper per call would swamp the trace.  Their cost
shows up as the self time of the ``exactmat`` functions that perform them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layers the benchmark reports, as (module, attribute path).  A dotted path
# names a class attribute.
WRAPPED = (
    ("exactmat", "psd_check"),
    ("exactmat", "rank_and_kernel"),
    ("exactmat", "orth_projector"),
    ("exactmat", "column_space"),
    ("exactmat", "Subspace.__init__"),
    ("exactmat", "solve_on_range_matrix"),
    ("exactmat", "ExactMatrix.outer"),
    ("exactmat", "ExactMatrix.__add__"),
    ("exactmat", "ExactMatrix.matmul"),
    ("qstates", "BipartiteState.__init__"),
    ("qstates", "partial_transpose_matrix"),
    ("qstates", "schmidt_rank"),
    ("qstates", "swap_subsystems"),
    ("extender", "ppt_extension_space"),
    ("extender", "slocc_extension"),
    ("extender", "flat_extension"),
    ("extender", "lift_decomposition"),
    ("extender", "extremality_check_psd"),
    ("algcert", "buchberger"),
    ("algcert", "normal_form"),
    ("algcert", "in_ideal"),
    ("algcert", "minor_ideal"),
    ("algcert", "linear_membership_cofactors"),
    ("algcert", "range_coordinate_matrix"),
    ("algcert", "sn_upper_from_decomposition"),
    ("algcert", "certify_sn_lower"),
    ("numlab", "gauss_newton_birank"),
    ("numlab", "numeric_extension_dimension"),
    ("numlab", "rationalize_to_birank"),
    ("serialize", "state_from_json"),
    ("serialize", "ppt_certificate"),
    ("serialize", "verify_ppt_certificate"),
    ("serialize", "verify_sn_lower_certificate"),
    ("serialize", "verify_sn_upper_certificate"),
    ("serialize", "load"),
    ("cli", "run"),
)


def fraction_bits(x) -> int:
    """Size of a rational: numerator plus denominator bit length."""
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


def _psd_sizes(c, args, kwargs, out, exc):
    c.maximum("exactmat.psd_check.max_n", args[0].rows)
    if out is not None and out.pivots:
        c.maximum("exactmat.psd_check.pivot_bits_max",
                  max(fraction_bits(d) for _, d in out.pivots))


def _rank_sizes(c, args, kwargs, out, exc):
    c.maximum("exactmat.rank_and_kernel.max_cols", args[0].cols)


def _space_sizes(c, args, kwargs, out, exc):
    core = args[0]
    c.maximum("extender.ppt_extension_space.max_N", core.dim_a * core.dim_b ** 2)
    if out is not None:
        c.add("extender.ppt_extension_space.dimension_sum", out.dimension)


def _buchberger_sizes(c, args, kwargs, out, exc):
    if out is not None:
        c.maximum("algcert.buchberger.basis_size", len(out))


def _in_ideal_hits(c, args, kwargs, out, exc):
    c.add("algcert.in_ideal.hits", bool(out))


def _minor_sizes(c, args, kwargs, out, exc):
    if out is not None:
        c.maximum("algcert.minor_ideal.generators", len(out))


def _cofactor_hits(c, args, kwargs, out, exc):
    c.add("algcert.linear_membership_cofactors.hits", out is not None)


def _gn_sizes(c, args, kwargs, out, exc):
    if out is not None:
        c.add("numlab.gauss_newton_birank.converged", 1)
        c.add("numlab.gauss_newton_birank.iterations", out.iterations)


def _numeric_dim_sizes(c, args, kwargs, out, exc):
    if exc is not None and type(exc).__name__ == "RankAmbiguity":
        c.add("numlab.numeric_extension_dimension.ambiguous", 1)


SIZES = {
    "exactmat.psd_check": _psd_sizes,
    "exactmat.rank_and_kernel": _rank_sizes,
    "extender.ppt_extension_space": _space_sizes,
    "algcert.buchberger": _buchberger_sizes,
    "algcert.in_ideal": _in_ideal_hits,
    "algcert.minor_ideal": _minor_sizes,
    "algcert.linear_membership_cofactors": _cofactor_hits,
    "numlab.gauss_newton_birank": _gn_sizes,
    "numlab.numeric_extension_dimension": _numeric_dim_sizes,
}


class Counters:
    """Size counters: sums and maxima keyed by metric name."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)

    def add(self, key, value):
        self.sums[key] += value

    def maximum(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def merge(self, data):
        for k, v in data.get("sums", {}).items():
            self.add(k, v)
        for k, v in data.get("maxima", {}).items():
            self.maximum(k, v)

    def to_json(self):
        return {"sums": dict(self.sums), "maxima": dict(self.maxima)}


class Tracer:
    """Records nested spans of the wrapped functions in one process."""

    def __init__(self, request=""):
        self.request = request
        self.spans = []            # [name, start, end, parent index, request]
        self.stack = []
        self.counters = Counters()
        self._undo = []

    def span_start(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.request]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def span_end(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _wrapper(self, name, fn):
        sizes = SIZES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.span_start(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.span_end(rec)
                if sizes is not None:
                    sizes(tracer.counters, args, kwargs, out, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every function in :data:`WRAPPED`; :meth:`uninstall` undoes it."""
        import importlib

        for module_name, path in WRAPPED:
            module = importlib.import_module(f"pptlab.{module_name}")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(name, raw.__func__))
            else:
                new = self._wrapper(name, raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        # verify_certificate dispatches through a table bound at import time.
        serialize = importlib.import_module("pptlab.serialize")
        table = serialize.VERIFIERS
        for kind, fn in list(table.items()):
            current = getattr(serialize, fn.__name__, fn)
            if current is not fn:
                table[kind] = current
                self._undo.append((table, kind, fn))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self, path, pid):
        """Write spans as JSON lines, then one line of counters."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"pid": pid, "request": request, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"pid": pid, "counters": self.counters.to_json()}) + "\n")


def read_spans(path):
    """Spans and counters written by :meth:`Tracer.dump`."""
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return spans, counters
