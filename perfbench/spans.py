"""Per-layer spans recorded from outside the ambc package.

A layer is a public function named ``<module>.<function>`` after the module
that defines it. Tracing replaces that function, in every ambc module that
holds it, with a wrapper that times each call. The wrapper keeps a stack of
open spans, so each layer gets its inclusive (busy) time, its self time
(busy minus the time of the spans it caused) and its call count. Spans are
aggregated in memory per context label (a scheme or an experiment) and read
once the traced passes end.

A layer whose function no longer exists is recorded as absent rather than
raising, so the benchmark keeps running while the package is pruned.
Spans taken inside forked pool workers never reach the parent, so traced
runs must be serial.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span aggregates keyed by (context, layer), plus hook counters."""

    def __init__(self):
        self.context = ""
        self.stats: dict[tuple[str, str], LayerStat] = defaultdict(LayerStat)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.covered_s = 0.0      # time inside outermost spans
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[(self.context, name)] += value

    def _wrap(self, layer: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat = self.stats[(self.context, layer)]
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered_s += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str, layers: dict):
        """Wrap every layer in ``layers`` ({name: hook or None}) for the
        duration of the block, then restore the original functions."""
        modules = _submodules(package)
        patches = []
        try:
            for layer, hook in layers.items():
                module_name, func_name = layer.rsplit(".", 1)
                home = modules.get(module_name)
                fn = getattr(home, func_name, None) if home else None
                if not callable(fn):
                    self.absent.add(layer)
                    continue
                wrapped = self._wrap(layer, fn, hook)
                for module in modules.values():
                    if getattr(module, func_name, None) is fn:
                        patches.append((module, func_name, fn))
                        setattr(module, func_name, wrapped)
            yield self
        finally:
            for module, func_name, fn in reversed(patches):
                setattr(module, func_name, fn)

    def layer(self, layer: str, context: str | None = None) -> LayerStat:
        """Totals for one layer, over one context or all of them."""
        total = LayerStat()
        for (ctx, name), stat in self.stats.items():
            if name == layer and context in (None, ctx):
                total.calls += stat.calls
                total.busy_s += stat.busy_s
                total.self_s += stat.self_s
        return total

    def counter(self, name: str, context: str | None = None) -> float:
        return sum(v for (ctx, n), v in self.counters.items()
                   if n == name and context in (None, ctx))


def _submodules(package: str) -> dict:
    """The package and its direct submodules, keyed by short name."""
    root = importlib.import_module(package)
    modules = {package: root}
    for info in pkgutil.iter_modules(root.__path__):
        modules[info.name] = importlib.import_module(
            f"{package}.{info.name}")
    return modules
