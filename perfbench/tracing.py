"""Per-function call tracing for the benchmark's traced run.

The tracer wraps the public functions of each demkit module, and the
public methods of its public classes, from outside the program.  Every
module attribute that still refers to an original function is rebound to
its wrapper, so names imported with ``from .x import f`` are traced as
well as calls made through the module.

For each traced name it keeps the call count, the inclusive time and the
self time: inclusive time minus the time of the traced calls made
directly inside it.  It also counts calls made while another traced
function is open, for the ``(ancestor, name)`` pairs it is asked to watch.
A function that calls itself would count its inner time twice in its
inclusive time; no demkit function does.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Call counts, inclusive and self time per traced name."""

    def __init__(self, clock=time.perf_counter, watch=()):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.nested = {pair: 0 for pair in watch}
        self._ancestors = defaultdict(list)
        for ancestor, name in watch:
            self._ancestors[name].append(ancestor)
        self._open = defaultdict(int)
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call is recorded under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        ancestors = tuple(self._ancestors.get(name, ()))
        clock, child_time, open_, nested = self.clock, self._child_time, self._open, self.nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for ancestor in ancestors:
                if open_[ancestor]:
                    nested[(ancestor, name)] += 1
            open_[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                open_[name] -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if child_time:
                    child_time[-1] += elapsed

        return traced


def _public_functions(module):
    """``(qualified name, owner, attribute, function)`` for everything to wrap."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, module, attr, obj
        elif inspect.isclass(obj):
            for meth_name, meth in list(vars(obj).items()):
                if not meth_name.startswith("_") and inspect.isfunction(meth):
                    yield f"{attr}.{meth_name}", obj, meth_name, meth


def install(tracer: Tracer, modules: dict, package: str = "demkit") -> None:
    """Wrap the public functions of ``modules`` ({short name: module}).

    After wrapping, every loaded module of ``package`` whose attribute
    still refers to an original is rebound to the wrapper.
    """
    wrappers = {}
    for short, module in modules.items():
        for qualname, owner, attr, fn in _public_functions(module):
            wrapper = tracer.wrap(f"{short}.{qualname}", fn)
            setattr(owner, attr, wrapper)
            wrappers[id(fn)] = (fn, wrapper)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
