"""Spans around every public function of the library, installed from outside.

The tracer walks the package's modules at run time, so functions added or
removed later are picked up without editing this file. Each public
function defined in a ``semitensor`` module is replaced by one timing
wrapper in every module namespace that binds it (its own module, the
package namespace, and modules that imported it, such as ``metric.kron``
or ``quotient.lplus``), so calls between layers are seen. Per-entry
scalar helpers are left alone: wrapping them would swamp the timings.

A span is ``(call_id, parent_id, name, start_ns, end_ns, raised, size,
lift)``: ``size`` is the entry count of a returned matrix, the term count
of returned coordinates, 0 for ``None`` and -1 otherwise; ``lift`` is
``(t, lifted_entries)`` computed from operand shapes for the raw
semi-tensor operations, else ``None``. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from math import lcm

EXCLUDED = frozenset({"scalar_eq", "as_scalar", "ratio_of", "format_entry", "parse_entry"})

PRODUCTS = frozenset({"ltimes", "rtimes"})
SUMS = frozenset({"lplus", "lminus", "rplus", "rminus"})


def package_modules(package):
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def public_functions(package):
    """{function: span name} for every wrapped function of the package."""
    prefix = package.__name__ + "."
    found = {}
    for mod in package_modules(package):
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith(prefix)
                and not name.startswith("_")
                and not obj.__name__.startswith("_")
                and obj.__name__ not in EXCLUDED
            ):
                found[obj] = f"{layer_of(obj)}.{obj.__name__}"
    return found


def _lift_probe(short):
    """Shape-only (t, lifted entries) of a raw semi-tensor op, or None."""
    if short in PRODUCTS:
        def probe(args):
            A, B = args[0], args[1]
            t = lcm(A.cols, B.rows)
            return t, A.rows * (t // A.cols) * t + t * B.cols * (t // B.rows)
        return probe
    if short in SUMS:
        def probe(args):
            A, B = args[0], args[1]
            t = lcm(A.rows, B.rows)
            return t, t * (A.cols * t // A.rows) + t * (B.cols * t // B.rows)
        return probe
    return None


class Tracer:
    """Installs and removes span-recording wrappers on a package."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.matrix_type = getattr(package, "Matrix", None)
        self.spans = []
        self._stack = [0]
        self._ids = iter(range(1, 1 << 62))
        self._wrappers = {
            fn: self._wrap(fn, name) for fn, name in public_functions(package).items()
        }
        self._saved = []

    def _size(self, result):
        if result is None:
            return 0
        if self.matrix_type is not None and type(result) is self.matrix_type:
            return result.rows * result.cols
        terms = getattr(result, "terms", None)
        if isinstance(terms, dict):
            return len(terms)
        return -1

    def _wrap(self, fn, name):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        size = self._size
        probe = _lift_probe(fn.__name__) if name.startswith("stp.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cid = next(ids)
            parent = stack[-1]
            stack.append(cid)
            lift = probe(args) if probe is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((cid, parent, name, t0, t1, 1, -1, lift))
                raise
            t1 = clock()
            stack.pop()
            spans.append((cid, parent, name, t0, t1, 0, size(result), lift))
            return result

        return traced

    def install(self):
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()


def self_times(spans):
    """{call_id: self ns}: duration minus the time its child spans cover.

    Calls are nested on one thread, so children never overlap and their
    covered time is the sum of their durations.
    """
    child = {}
    for cid, parent, _, t0, t1, *_ in spans:
        child[parent] = child.get(parent, 0) + (t1 - t0)
    return {cid: (t1 - t0) - child.get(cid, 0) for cid, _, _, t0, t1, *_ in spans}


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("call_id\tparent_id\tname\tstart_ns\tend_ns\traised\tsize\tlift_t\n")
        for cid, parent, name, t0, t1, raised, size, lift in spans:
            t = lift[0] if lift else ""
            fh.write(f"{cid}\t{parent}\t{name}\t{t0}\t{t1}\t{raised}\t{size}\t{t}\n")


# Layers are the package's modules; the names are fixed here so that the
# reported metric set stays the same when a module is added or removed.
LAYERS = ("matrix", "stp", "kernels", "quotient", "basis", "metric", "io", "cli")
FUNCTIONS = (
    "matrix.kron",
    "matrix.matmul",
    "matrix.frobenius_inner",
    "matrix.add",
    "basis.independent",
    "basis.in_span",
    "basis.decompose_class",
    "basis.reconstruct",
    "quotient.canonicalize",
    "metric.inner",
    "cli.build_parser",
    "cli.main",
)


def layer_metrics(spans, rounds):
    """Per-layer metrics per round of the workload from recorded spans.

    ``basis.coord_terms`` and the ``stp.lift_*`` figures count only the
    outermost span of their layer, so a call that delegates within its
    layer (``lminus`` to ``lplus``) is not counted twice.
    """
    selfs = self_times(spans)
    total = sum(selfs.values()) or 1
    layer_of_id = {s[0]: s[2].split(".", 1)[0] for s in spans}
    calls = dict.fromkeys(LAYERS, 0)
    raised = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    fn_ns = dict.fromkeys(FUNCTIONS, 0)
    out_entries = coord_terms = attempts = hits = lift_t_max = lift_entries = 0
    for cid, parent, name, _, _, was_raised, size, lift in spans:
        layer = name.split(".", 1)[0]
        outermost = layer_of_id.get(parent) != layer
        if layer in calls:
            calls[layer] += 1
            raised[layer] += was_raised
            self_ns[layer] += selfs[cid]
        if name in fn_ns:
            fn_ns[name] += selfs[cid]
        if layer == "matrix" and size > 0:
            out_entries += size
        elif layer == "basis" and outermost and size >= 0:
            coord_terms += size
        elif name == "quotient.try_unkron":
            attempts += 1
            hits += size > 0
        elif lift is not None and outermost:
            lift_t_max = max(lift_t_max, lift[0])
            lift_entries += lift[1]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / rounds, "calls/round")
        m[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / rounds, "s/round")
        m[f"{layer}.self_share"] = (self_ns[layer] / total, "share")
        m[f"{layer}.raised"] = (raised[layer] / rounds, "calls/round")
    for name in FUNCTIONS:
        m[f"{name}.self_s"] = (fn_ns[name] / 1e9 / rounds, "s/round")
    m["matrix.out_entries"] = (out_entries / rounds, "entries/round")
    m["basis.coord_terms"] = (coord_terms / rounds, "terms/round")
    m["quotient.peel_attempts"] = (attempts / rounds, "calls/round")
    m["quotient.peel_hits"] = (hits / rounds, "calls/round")
    m["quotient.peel_hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
    m["stp.lift_t_max"] = (lift_t_max, "t_computed")
    m["stp.lift_entries"] = (lift_entries / rounds, "computed/round")
    return m
