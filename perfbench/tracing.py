"""Spans around swcalc's layers, installed from outside the package.

``install`` wraps every public module-level function of each swcalc module,
plus the methods and constructors named in ``METHODS``, and rebinds every
module attribute that refers to a wrapped function, so that names imported
into other modules (``expressions.connected_sum``, ``cli.dissolve``) are
traced too.  The hot tiny constructors (``GroupElement``,
``FgAbelianGroup.element``) are left unwrapped on purpose: a span around a
sub-microsecond call would cost more than the call.

A span is a name, a start, an end and the index of its parent span; spans
stay in lists in memory and are written out once, at the end of the run.
Counters that need a call's result (terms produced, verdicts decided) are
kept by hooks that run after the span has ended.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

MODULES = ("groupring", "knot", "manifold", "surgery", "lattice", "fixedpoint",
           "equivariant", "expressions", "cli")

# (module, class, attribute) -> span name
METHODS = {
    ("groupring", "GroupRingElement", "__init__"): "groupring.init",
    ("groupring", "GroupRingElement", "__mul__"): "groupring.mul",
    ("groupring", "GroupRingElement", "mod2"): "groupring.mod2",
    ("groupring", "GroupRingElement", "embed"): "groupring.embed",
    ("groupring", "GroupRingElement", "render"): "groupring.render",
    ("manifold", "ManifoldDescriptor", "__post_init__"): "manifold.descriptor",
    ("manifold", "IntersectionData", "__post_init__"): "manifold.intersection_init",
    ("manifold", "ManifoldDescriptor", "to_json_dict"): "manifold.to_json_dict",
    ("lattice", "QuadraticForm", "__post_init__"): "lattice.form_init",
}


def _box_points(counters, call, result):
    form, bound = list(call().values())[:2]
    counters["lattice.box_points"] += (2 * bound + 1) ** form.rank


def _hook_mul(counters, call, result):
    if hasattr(result, "monomial_count"):
        counters["groupring.mul.terms_out"] += result.monomial_count()


def _hook_transfer(counters, call, result):
    counters["equivariant.transfer_monomials"] += result.monomial_count()


def _hook_dissolve(counters, call, result):
    counters["surgery.dissolve.decided"] += result.status == "dissolved"


def _hook_max_square(counters, call, result):
    _box_points(counters, call, result)
    counters["lattice.max_square.certified"] += not result.bound_limited


def _hook_diagonalize(counters, call, result):
    _box_points(counters, call, result)
    counters["lattice.diagonalize.found"] += result is not None


# span name -> hook(counters, call, result), run when the call returns;
# call() gives the bound arguments by parameter name
HOOKS = {
    "groupring.mul": _hook_mul,
    "equivariant.gmonopole_polynomial": _hook_transfer,
    "surgery.dissolve": _hook_dissolve,
    "lattice.characteristic_vectors": _box_points,
    "lattice.max_characteristic_square": _hook_max_square,
    "lattice.diagonalize": _hook_diagonalize,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counters = self.parents, self._stack, self.counters
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters,
                     lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def layer_totals(self, lo: int, hi: int) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name over spans lo..hi-1.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so that is the uncovered part.
        """
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = self.parents[i]
            if parent >= lo:
                child[parent - lo] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = {}
        for i in range(lo, hi):
            name = self.names[i]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (
                self.ends[i] - self.starts[i] - child[i - lo])
        return calls, self_s

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                out.write(json.dumps(row) + "\n")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap swcalc's layers in place.

    Returns the patches as (owner, attribute, original) for ``uninstall``.
    """
    modules = {name: importlib.import_module(f"swcalc.{name}") for name in MODULES}
    wrapped = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(obj, f"{modname}.{attr}")
    patches = []
    for (modname, cls_name, attr), name in METHODS.items():
        cls = getattr(modules[modname], cls_name)
        original = cls.__dict__[attr]
        wrapper = tracer.wrap(original, name)
        for alias, value in list(vars(cls).items()):
            if value is original:  # e.g. __rmul__ = __mul__
                patches.append((cls, alias, original))
                setattr(cls, alias, wrapper)
    for mod in [importlib.import_module("swcalc"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in patches:
        setattr(owner, attr, original)
