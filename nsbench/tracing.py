"""Boundary tracing of the nseries layers, installed from outside the package.

`Tracer.install()` rebinds every public function and method of the layer
modules (and every alias of them in any nseries namespace) to a wrapper.  A
wrapper counts the call and, when the call enters a different layer than the
caller's or is one of the `MARKED` functions, records a span (name, start,
end, parent, job id) in memory.  Nothing under `src/` is edited: the wrappers
live only in the traced process and `uninstall()` restores the originals.

The per-element order primitives of `support_order` (vector add/sub, weight,
check_vec, cmp/lt/leq) run inside every series operation; they are not
spanned, so their time stays in the caller's self time.  The cmp family is
still counted: `support_order.cmp_calls` is the number of MonoidCtx.cmp calls.
"""

from __future__ import annotations

import enum
import functools
import sys
from array import array
from time import perf_counter

PACKAGE = "nseries"
LAYERS = (
    "cli",
    "textio",
    "correspondence",
    "vaut_factors",
    "operators",
    "hahn_series",
    "series_calculus",
    "free_algebra",
    "support_order",
    "verify",
)

# Wrapped dunders: construction and arithmetic.  Generated plumbing
# (__eq__, __hash__, __repr__, __init__) is left alone.
_DUNDERS = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__call__")

# Per-element primitives that are counted (cmp family) or left unwrapped.
_COUNT_ONLY = {
    "support_order.MonoidCtx.cmp",
    "support_order.MonoidCtx.lt",
    "support_order.MonoidCtx.leq",
    "support_order.cmp",
}
_UNWRAPPED = {
    "support_order.vec_add",
    "support_order.vec_sub",
    "support_order.MonoidCtx.check_vec",
    "support_order.MonoidCtx.weight",
}

# Functions that always get a span, because an inclusive-time metric sums them.
INCLUSIVE = {
    "series_calculus.bch_s": ("series_calculus.bch_product",),
    "operators.evaluate_s": ("operators.op_evaluate",),
    "operators.predicate_s": (
        "operators.op_is_contracting",
        "operators.op_is_derivation",
        "operators.op_is_unital_endomorphism",
    ),
    "correspondence.star_s": ("correspondence.star",),
    "correspondence.exp_log_s": ("correspondence.op_exp", "correspondence.op_log"),
    "vaut_factors.exponent_aut_s": ("vaut_factors.ExponentAut.__post_init__",),
    "textio.parse_s": (
        "textio.parse_op_table",
        "textio.parse_hahn",
        "textio.parse_free",
        "textio.parse_ctx",
        "textio.parse_rational",
    ),
    "textio.format_s": (
        "textio.format_op_table",
        "textio.format_hahn",
        "textio.format_free",
        "textio.format_ctx",
        "textio.format_rational",
    ),
}
MARKED = {name for names in INCLUSIVE.values() for name in names}

PREDICATES = INCLUSIVE["operators.predicate_s"]

# Plain call counters: metric name -> wrapped function names it sums.
CALL_COUNTERS = {
    "hahn_series.constructs": ("hahn_series.HahnPoly.__post_init__",),
    "operators.compose_calls": ("operators.op_compose",),
    "operators.apply_calls": ("operators.op_apply",),
    "operators.table_constructs": ("operators.OpTable.__post_init__",),
    "vaut_factors.exponent_aut_calls": ("vaut_factors.ExponentAut.__post_init__",),
    # Every order comparison (lt, leq, module-level cmp) goes through this one.
    "support_order.cmp_calls": ("support_order.MonoidCtx.cmp",),
}


def _grade_pairs(left: dict, right: dict, grade_of, bound: int) -> tuple[int, int]:
    """(pairs visited, pairs within the bound) of a sparse product."""
    la: dict[int, int] = {}
    for key in left:
        g = grade_of(key)
        la[g] = la.get(g, 0) + 1
    lb: dict[int, int] = {}
    for key in right:
        g = grade_of(key)
        lb[g] = lb.get(g, 0) + 1
    useful = sum(ca * cb for ga, ca in la.items() for gb, cb in lb.items() if ga + gb <= bound)
    return len(left) * len(right), useful


def _free_mul_probe(tracer: "Tracer", args) -> None:
    a, b = args[0], args[1]
    if type(b) is not type(a):
        return
    pairs, useful = _grade_pairs(a.terms, b.terms, len, a.grade)
    tracer.counts["free_algebra.mul_pairs"] += pairs
    tracer.counts["free_algebra.mul_useful_pairs"] += useful


def _hahn_mul_probe(tracer: "Tracer", args) -> None:
    a, b = args[0], args[1]
    if type(b) is not type(a):
        return
    pairs, useful = _grade_pairs(a.terms, b.terms, a.ctx.weight, a.bound)
    tracer.counts["hahn_series.mul_pairs"] += pairs
    tracer.counts["hahn_series.mul_useful_pairs"] += useful


def _apply_probe(tracer: "Tracer", args) -> None:
    if tracer._predicate_depth:
        tracer.counts["operators.predicate_apply_calls"] += 1


_PROBES = {
    "free_algebra.FreeSeries.__mul__": _free_mul_probe,
    "hahn_series.HahnPoly.__mul__": _hahn_mul_probe,
    "operators.op_apply": _apply_probe,
}


SPAN_HEADER = "span\tname\tstart_s\tend_s\tparent\tjob\n"


class SpanLog:
    """Spans in parallel typed arrays; index i is one span, parent -1 a root.

    Names are stored as indices into `names`, shared by every log of a run.
    """

    def __init__(self, names: list[str] | None = None):
        self.names = [] if names is None else names
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")

    def __len__(self) -> int:
        return len(self.name_ids)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def name(self, i: int) -> str:
        return self.names[self.name_ids[i]]

    def add(self, name: str, start: float, end: float, parent: int, job: int) -> int:
        self.name_ids.append(self.name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.jobs.append(job)
        return len(self.name_ids) - 1

    def write_rows(self, fh) -> None:
        """One SPAN_HEADER row per span; indices are local to this log."""
        for i, name_id in enumerate(self.name_ids):
            fh.write(
                f"{i}\t{self.names[name_id]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                f"{self.parents[i]}\t{self.jobs[i]}\n"
            )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(log: SpanLog) -> list[float]:
    """Per span: its duration minus the part of it covered by its child spans.

    Children of one parent never overlap (one thread, strict nesting), so the
    covered part is the sum of the children's durations, clipped to the
    parent's interval.
    """
    out = [log.ends[i] - log.starts[i] for i in range(len(log))]
    for i, parent in enumerate(log.parents):
        if parent >= 0:
            lo = max(log.starts[i], log.starts[parent])
            hi = min(log.ends[i], log.ends[parent])
            if hi > lo:
                out[parent] -= hi - lo
    return out


def inclusive_time(log: SpanLog, names) -> float:
    """Total duration of spans named in `names` with no ancestor also named."""
    wanted = {log.name_id(name) for name in names}
    inside = [False] * len(log)
    total = 0.0
    # Parents are appended before their children, so one forward pass works.
    for i, name_id in enumerate(log.name_ids):
        parent = log.parents[i]
        covered = parent >= 0 and inside[parent]
        hit = name_id in wanted
        inside[i] = covered or hit
        if hit and not covered:
            total += log.ends[i] - log.starts[i]
    return total


class Tracer:
    """Installs boundary wrappers on the loaded nseries modules."""

    def __init__(self):
        self.spans = SpanLog()
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {
            "free_algebra.mul_pairs": 0,
            "free_algebra.mul_useful_pairs": 0,
            "hahn_series.mul_pairs": 0,
            "hahn_series.mul_useful_pairs": 0,
            "operators.predicate_apply_calls": 0,
            "textio.bytes_in": 0,
            "textio.bytes_out": 0,
        }
        self.job = -1
        self.enabled = False
        self._current = -1  # index of the open span, -1 outside any span
        self._layer = ""  # layer of the innermost open wrapped call
        self._predicate_depth = 0
        self._textio_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        calls = self.calls
        counts = self.counts
        calls.setdefault(name, 0)
        layer = layer_of(name)
        probe = _PROBES.get(name)
        if name in _COUNT_ONLY:

            def counted(*args, **kwargs):
                if tracer.enabled:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        marked = name in MARKED
        predicate = name in PREDICATES
        textio_kind = ""
        if layer == "textio":
            textio_kind = "in" if ".parse_" in name else "out" if ".format_" in name else ""

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[name] += 1
            if probe is not None:
                probe(tracer, args)
            outer_layer = tracer._layer
            if outer_layer == layer and not marked:
                return fn(*args, **kwargs)
            parent = tracer._current
            if predicate:
                tracer._predicate_depth += 1
            textio_outer = textio_kind and not tracer._textio_depth
            if textio_kind:
                tracer._textio_depth += 1
                if textio_outer and textio_kind == "in" and args and isinstance(args[0], str):
                    counts["textio.bytes_in"] += len(args[0].encode("utf-8"))
            index = tracer.spans.add(name, 0.0, 0.0, parent, tracer.job)
            tracer._current = index
            tracer._layer = layer
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.spans.starts[index] = start
                tracer.spans.ends[index] = end
                tracer._current = parent
                tracer._layer = outer_layer
                if predicate:
                    tracer._predicate_depth -= 1
                if textio_kind:
                    tracer._textio_depth -= 1
            if textio_outer and textio_kind == "out" and isinstance(result, str):
                counts["textio.bytes_out"] += len(result.encode("utf-8"))
            return result

        return functools.wraps(fn)(wrapper)

    # -- install / uninstall ---------------------------------------------

    def _targets(self):
        """Yield (owner, attribute, raw value, traced name) for each callable."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    if issubclass(value, (BaseException, enum.Enum)):
                        continue
                    for cattr, cvalue in list(vars(value).items()):
                        if cattr.startswith("_") and cattr not in _DUNDERS:
                            continue
                        fn = cvalue.__func__ if isinstance(cvalue, (classmethod, staticmethod)) else cvalue
                        if callable(fn) and not isinstance(fn, type):
                            yield value, cattr, cvalue, f"{layer}.{attr}.{cattr}"
                elif callable(value) and not attr.startswith("_"):
                    yield module, attr, value, f"{layer}.{attr}"

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for owner, attr, raw, name in list(self._targets()):
            if name in _UNWRAPPED:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
                replaced[id(raw)] = (raw, new)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
        # Aliases: `from .x import f` copies, module-level dicts of callables.
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._restore.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._restore.clear()
