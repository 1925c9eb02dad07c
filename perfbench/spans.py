"""Per-layer spans for the gfenum benchmark, installed from outside the package.

A `Tracer` wraps the public functions of each gfenum module (and the
arithmetic methods of the two series classes) in spans.  Each span adds
its duration to the calls, total and self time of its name; self time is
the duration minus the time of the spans it encloses.  Spans live in
memory and are summarised when the traced phase ends.

Wrapping replaces every binding of the original object in every gfenum
module, so a name that one module imports from another by ``from``-import
is traced at each call site.  `find_caches` locates every per-size cache
by walking the package, so a cache added later is cleared as well.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = ("series", "generators", "transforms", "mzv", "asymptotics", "verify", "cli")

# Series methods worth a span: the products, inverses and conversions that
# kernels are built from.  Element access and constructors stay untraced,
# since they run millions of times and would swamp the measurement.
SERIES_METHODS = ("__mul__", "__add__", "__sub__", "__truediv__", "inverse", "substitute_x")


def gfenum_modules() -> list:
    """Every module of the gfenum package, imported."""
    import gfenum

    names = [info.name for info in pkgutil.iter_modules(gfenum.__path__)]
    return [gfenum] + [importlib.import_module(f"gfenum.{name}") for name in sorted(names)]


def find_caches() -> list:
    """Every callable with ``cache_clear`` bound in a gfenum module or class."""
    seen: dict[int, object] = {}
    for module in gfenum_modules():
        for value in vars(module).values():
            candidates = [value]
            if inspect.isclass(value):
                candidates += list(vars(value).values())
            for obj in candidates:
                if callable(obj) and hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    seen[id(obj)] = obj
    return sorted(seen.values(), key=lambda f: (f.__module__, f.__qualname__))


def clear_caches(caches: list) -> None:
    """Empty every cache and check that each one really is empty."""
    for cache in caches:
        cache.cache_clear()
    for cache in caches:
        size = cache.cache_info().currsize
        if size != 0:
            raise RuntimeError(f"{cache.__module__}.{cache.__qualname__} holds {size} entries")


class CacheTally:
    """Cache hits and calls per gfenum module, summed across cache clears."""

    def __init__(self, caches: list) -> None:
        self.caches = caches
        self.hits: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def collect(self) -> None:
        """Add the current counters; call before every clear."""
        for cache in self.caches:
            layer = cache.__module__.rsplit(".", 1)[-1]
            info = cache.cache_info()
            self.hits[layer] = self.hits.get(layer, 0) + info.hits
            self.calls[layer] = self.calls.get(layer, 0) + info.hits + info.misses

    def merge(self, hits: dict, calls: dict) -> None:
        for layer, n in hits.items():
            self.hits[layer] = self.hits.get(layer, 0) + n
        for layer, n in calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + n

    def ratio(self, layer: str) -> float:
        calls = self.calls.get(layer, 0)
        return self.hits.get(layer, 0) / calls if calls else 0.0


def _nonzeros(series) -> int:
    return sum(len(row) - row.count(0) for row in series.coeffs)


def _count_bi_mul(tracer: Tracer, args: tuple, result) -> None:
    left, right = args[0], args[1]
    if hasattr(right, "coeffs"):
        tracer.add("series.BiSeries.__mul__.term_pairs", _nonzeros(left) * _nonzeros(right))


def _count_peel(tracer: Tracer, args: tuple, result) -> None:
    tracer.add("transforms.peel_bi.exponents", len(result))


def _count_claims(tracer: Tracer, args: tuple, result) -> None:
    tracer.add("verify.run_all.claims", len(result.results))
    tracer.add("verify.run_all.claims_failed", result.failed)


COUNTERS = {
    "series.BiSeries.__mul__": _count_bi_mul,
    "transforms.peel_bi": _count_peel,
    "verify.run_all": _count_claims,
}


class Tracer:
    """Spans around gfenum's public functions; `install` patches, `remove` restores."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        stack = self._stack
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if count is not None:
                count(self, args, result)
            return result

        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = gfenum_modules()
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_clear"):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and layer == "series":
                    for method in SERIES_METHODS:
                        if method in vars(value):
                            name = f"series.{value.__name__}.{method}"
                            self._patch(value, method, self.wrap(name, vars(value)[method]))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_ms(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0.0, 0.0])[2] for n in names) * 1e3

    def total_ms(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0.0, 0.0])[1] for n in names) * 1e3

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, [0, 0.0, 0.0])[0])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, dumped: dict) -> None:
        for name, (calls, total, own) in dumped["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, n in dumped["counts"].items():
            self.add(name, n)
