"""Outside-in tracer for the spinpair layers.

The layers are the modules of the package.  Modules import each other's
functions by name (``from .kernels import xi_half``), so a function has one
binding per module that imports it.  ``Tracer`` replaces every binding of
every public function, in every spinpair module namespace, with a timing
wrapper, and wraps ``__post_init__`` of the dataclasses that validate on
construction (``Direction`` among them).  Leaving the ``with`` block puts
every original back.

Each wrapper keeps a call count and the call's self time: its wall time
minus the wall time of the traced calls made inside it.  A layer's self time
is the sum over its functions, so over one traced call tree the self times
of all layers add up to the wall time of the root call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

LAYERS = ("directions", "kernels", "states", "operators", "expectation", "verify", "cli")
PACKAGE = "spinpair"


def _modules():
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
    ]


def _defined(keep):
    """(layer, name, object) for each object a layer defines and ``keep`` accepts."""
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) == mod.__name__ and keep(name, obj):
                yield layer, name, obj


def public_functions():
    """(layer, name, function) for every public function a layer defines."""
    return list(_defined(lambda name, obj: inspect.isfunction(obj) and not name.startswith("_")))


def validating_classes():
    """(layer, name, class) for every class a layer defines with its own __post_init__."""
    return list(_defined(lambda name, obj: inspect.isclass(obj) and "__post_init__" in vars(obj)))


@contextmanager
def rebound(original, replacement):
    """Bind ``replacement`` wherever a spinpair module namespace holds ``original``."""
    undo = []
    try:
        for mod in _modules():
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, name, replacement)
                    undo.append((mod, name))
        yield
    finally:
        for mod, name in undo:
            setattr(mod, name, original)


class Tracer:
    """Counts calls and self time per public function while installed.

    ``record`` names functions (as ``layer.name``) whose arguments and
    results are also kept in ``recorded``, for checks made after the op.
    """

    def __init__(self, record=()):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.recorded = defaultdict(list)
        self._record = frozenset(record)
        self._child_s = []  # one accumulator per active traced call

    def clear_recorded(self) -> None:
        for kept in self.recorded.values():  # the wrappers hold these lists
            kept.clear()

    def _wrap(self, key, fn):
        record = self.recorded[key] if key in self._record else None
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - inner
            if record is not None:
                record.append((args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for layer, name, cls in validating_classes():
                original = vars(cls)["__post_init__"]
                setattr(cls, "__post_init__", self._wrap(f"{layer}.{name}", original))
                undo.append((cls, original))
            with ExitStack() as stack:
                for layer, name, fn in public_functions():
                    stack.enter_context(rebound(fn, self._wrap(f"{layer}.{name}", fn)))
                yield self
        finally:
            for cls, original in undo:
                setattr(cls, "__post_init__", original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_s.items():
            out[key.partition(".")[0]] += value
        return out

