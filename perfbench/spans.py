"""Spans around calls into hexafield's public functions, recorded from outside.

`Tracer.install()` replaces each public function of each hexafield module
(and each public `Kernels` method) with a wrapper that records a span: name,
start, end and the span that caused it.  The wrapper is put wherever the
function is referenced, so calls that go through another module's import of
the name are seen too.  Spans are kept in memory and reduced to per-name self
time when the run ends.

Threads: each thread keeps its own stack of open spans.  Work submitted to a
`ThreadPoolExecutor` in `hexafield.lottery` starts with the submitting span
as its parent, so chunk work done by pool threads is charged to the call that
submitted it.  The span list and the id counter are guarded by one lock.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

MODULES = ("batch", "cli", "galois", "groups", "hexagons", "lottery",
           "morphisms", "pastures", "products", "serialize", "skew")


def _rows(args) -> int:
    # Kernels methods take (self, ns); ns has one row per nullset
    return len(args[1]) if len(args) > 1 else 0


def _samples(args) -> int:
    # sample_bits(seed, start, stop, width)
    return args[2] - args[1]


def _n(args) -> int:
    return args[0].group.order


# name -> (counter, function of the call's arguments) recorded per call
ARG_COUNTS = {
    "batch.is_hyperfield": (("rows", _rows), ("n", _n)),
    "batch.axiom_oracle": (("rows", _rows),),
    "lottery.sample_bits": (("samples", _samples),),
}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        # (id, parent id or 0, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.span_rows: dict[int, int] = {}  # span id -> nullset rows it took
        # batch.is_hyperfield: largest rows x n^4 float32 cross tensor seen
        self.tensor_bytes = 0
        self.pool_threads = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def _wrap(self, name: str, fn):
        tracer = self
        arg_counts = ARG_COUNTS.get(name, ())

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, parent, name, start, end))
            tracer._count(sid, name, args, arg_counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, sid, name, args, arg_counts, result) -> None:
        if not arg_counts and name != "galois.is_quotient_of_finite_field":
            return
        values = {key: f(args) for key, f in arg_counts}
        with self._lock:
            for key in ("rows", "samples"):
                if key in values:
                    self.counts[f"{name}.{key}"] += values[key]
            if "rows" in values:
                self.span_rows[sid] = values["rows"]
            if name == "batch.is_hyperfield":
                self.tensor_bytes = max(self.tensor_bytes,
                                        values["rows"] * values["n"] ** 4 * 4)
            if name == "galois.is_quotient_of_finite_field":
                self.counts["galois.quotient_verdicts"] += result.status == "quotient"

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                with tracer._lock:
                    tracer.pool_threads = max(tracer.pool_threads, self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    stack = tracer._stack()
                    base = list(stack)
                    stack[:] = [parent] if parent else []
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack[:] = base

                with tracer._lock:
                    tracer.counts["lottery.chunks"] += 1
                return super().submit(task)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package's modules, everywhere."""
        modules = [getattr(package, m) for m in MODULES if hasattr(package, m)]
        replace: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                # plain functions, and functions behind functools.lru_cache
                if (attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__
                        or not (inspect.isfunction(obj) or hasattr(obj, "cache_info"))):
                    continue
                replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        kernels = getattr(getattr(package, "batch", None), "Kernels", None)
        if kernels is not None:
            for attr, obj in vars(kernels).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and attr != "event":
                    wrapped = self._wrap(f"batch.{attr}", obj)
                    replace[id(obj)] = wrapped
                    self._set(kernels, attr, wrapped)
        for mod in [package] + modules:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    # dispatch tables such as batch._EVENTS
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            self._restore.append((obj, key, value))
                            obj[key] = replace[id(value)]
        lottery = getattr(package, "lottery", None)
        if lottery is not None and hasattr(lottery, "ThreadPoolExecutor"):
            self._set(lottery, "ThreadPoolExecutor", self._pool_class())

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------

    def layers(self, under: str | None = None):
        """Per span name: calls, and self time (duration minus the union of
        the intervals its children cover), summed over every span of that
        name.  With pool threads, self time is thread-seconds.

        With `under`, a list of such tables instead: one per span named
        `under`, in start order, each covering that span and its descendants.
        """
        with self._lock:
            spans = list(self.spans)
        children = defaultdict(list)
        parent_of, name_of, start_of = {}, {}, {}
        for sid, parent, name, start, end in spans:
            parent_of[sid], name_of[sid], start_of[sid] = parent, name, start
            if parent:
                children[parent].append((start, end))

        def group(sid: int) -> int:
            while sid and name_of.get(sid) != under:
                sid = parent_of.get(sid, 0)
            return sid

        tables = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
        for sid, _, name, start, end in spans:
            key = group(sid) if under else 0
            if under and not key:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = tables[key][name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        if under is None:
            return dict(tables[0])
        return [dict(tables[k]) for k in sorted(tables, key=start_of.get)]

    def under(self, name: str, ancestor: str) -> list[int]:
        """Ids of the spans called `name` that a span called `ancestor` caused,
        directly or through other spans."""
        with self._lock:
            spans = list(self.spans)
        parent_of = {sid: parent for sid, parent, _, _, _ in spans}
        name_of = {sid: n for sid, _, n, _, _ in spans}
        out = []
        for sid, parent, n, _, _ in spans:
            while n == name and parent and name_of.get(parent) != ancestor:
                parent = parent_of.get(parent, 0)
            if n == name and parent:
                out.append(sid)
        return out

