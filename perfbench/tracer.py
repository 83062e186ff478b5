"""Span tracer that wraps heartnet's public functions from outside the package.

The package itself has no timers, so the traced run replaces each public
function of the layer modules with a wrapper that records calls, total
time and self time (total minus the time spent in traced children).
``trainer``, ``evaluation`` and ``cli`` import ``forward`` and friends by
name, so a function is replaced in every heartnet module that binds it,
not only where it is defined.  Spans are aggregated per name in memory;
a traced run of a few seconds makes millions of them, too many to keep
one by one.

A layer function that no longer exists (say ``NeuronPool`` after the
thread pool is deleted) is simply not in :attr:`Tracer.found`; its
metrics read 0 and the run does not fail.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("data", "network", "trainer", "parallel", "evaluation", "cli")

# Dunder methods are private by name but carry layer work worth a span.
EXTRA_METHODS = ("parallel.NeuronPool.__init__",)

# Called once per neuron: a timed span would cost as much as the work,
# so these only count calls and their time stays with the caller.
COUNT_ONLY = frozenset({"network.sigmoid"})

def _after_train(counts, args, kwargs, history):
    for record in getattr(history, "records", ()):
        key = "trainer.epochs_accepted" if record.accepted else "trainer.epochs_rejected"
        counts[key] += 1


def _after_evaluate(counts, args, kwargs, metrics):
    counts["evaluation.evaluate.rows"] += int(getattr(metrics, "n_test", 0))


def _after_run_experiment(counts, args, kwargs, report):
    counts["evaluation.run_experiment.cells"] += len(getattr(report, "cells", ()))


def _after_pool_run(counts, args, kwargs, result):
    # Mirrors NeuronPool.run's own test: work leaves the calling thread
    # only when the pool has an executor and the layer is wide enough.
    pool, n_items = args[0], args[1] if len(args) > 1 else kwargs.get("n_items", 0)
    if getattr(pool, "_executor", None) is not None and n_items >= getattr(pool, "min_items", 0):
        counts["parallel.NeuronPool.run.fanned_out_calls"] += 1


HOOKS = {
    "trainer.train": _after_train,
    "evaluation.evaluate": _after_evaluate,
    "evaluation.run_experiment": _after_run_experiment,
    "parallel.NeuronPool.run": _after_pool_run,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _public_methods(module):
    for cls_name, cls in vars(module).items():
        if cls_name.startswith("_") or not inspect.isclass(cls):
            continue
        if cls.__module__ != module.__name__:
            continue
        for name, obj in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(obj):
                yield cls, f"{cls_name}.{name}", name


class Tracer:
    """Install with :meth:`install`, run the traced code, then
    :meth:`uninstall`; statistics accumulate across installs."""

    def __init__(self):
        # span name -> [calls, total seconds, self seconds]; ``pending``
        # holds what the wrappers recorded since the last :meth:`settle`
        self.pending: dict[str, list] = {}
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.found: set[str] = set()  # spans wrapped by the last install
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        cell = self.pending.setdefault(name, [0, 0.0, 0.0])
        lock = self._lock

        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with lock:
                    cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        hook = HOOKS.get(name)
        stack_of = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]  # time spent in traced children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[0]
            if hook is not None:
                with lock:
                    hook(counts, args, kwargs, result)
            return result

        return timed

    def install(self, package: str = "heartnet") -> None:
        """Wrap every public function and method of the loaded layer
        modules, wherever a heartnet module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        found = self.found = set()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for name, fn in _public_functions(module):
                span = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(span, fn))
                found.add(span)
            methods = list(_public_methods(module))
            for extra in EXTRA_METHODS:
                extra_layer, cls_name, attr = extra.split(".")
                cls = getattr(module, cls_name, None) if extra_layer == layer else None
                if cls is not None and attr in vars(cls):
                    methods.append((cls, f"{cls_name}.{attr}", attr))
            for cls, qualified, attr in methods:
                span = f"{layer}.{qualified}"
                self._patch(cls, attr, self._wrap(span, vars(cls)[attr]))
                found.add(span)

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def settle(self, factor: float) -> None:
        """Add the pending spans to the totals, times multiplied by
        ``factor``, and clear them."""
        with self._lock:
            for name, cell in self.pending.items():
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += cell[0]
                total[1] += cell[1] * factor
                total[2] += cell[2] * factor
                cell[:] = [0, 0.0, 0.0]

    def calls(self, span: str) -> int:
        return self.totals.get(span, [0, 0.0, 0.0])[0]

    def self_s(self, span: str) -> float:
        return self.totals.get(span, [0, 0.0, 0.0])[2]
