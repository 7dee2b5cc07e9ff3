"""Spans around the public functions of each layer, installed from outside.

A target is named by module and attribute path and wrapped in place. Modules
import each other's functions by name (``from .plant import stage_values``),
so every binding of the function in a loaded ``ocorobust`` module is replaced,
not only the one in its home module. A target that no longer exists is
recorded as absent instead of failing the run.

Each span has a name, a start, an end and a parent (the span open when it
started). Spans are folded into per-(name, parent) totals as they close, so
memory stays flat over long runs: calls, total time, and self time, which is
the span's time minus the time of its child spans. Durations of every call are
kept only for the names asked for, to give percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter


def _resolve(path):
    """(owner, attribute) for 'module:Class.attr' or 'module:function'."""
    modname, _, attr_path = path.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


class Tracer:
    def __init__(self, sample_names=()):
        self.spans = {}          # (name, parent name or None) -> [calls, total_s, self_s]
        self.samples = {name: [] for name in sample_names}
        self.counters = Counter()
        self.absent = []
        self._stack = []
        self._installed = []     # (owner, attribute, original) to undo

    def install(self, targets, hooks=None):
        """Wrap every target; ``targets`` maps span name -> 'module:attr.path'.

        ``hooks`` maps a span name to ``fn(tracer, arguments, result, parent)``,
        called after the span closes with the bound call arguments; hooks read
        counters from returned values.
        """
        hooks = hooks or {}
        for name, path in targets.items():
            try:
                owner, attr = _resolve(path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if inspect.ismodule(owner):
                bindings = [(module, key) for module in list(sys.modules.values())
                            if getattr(module, "__name__", "").startswith("ocorobust")
                            for key, value in list(vars(module).items()) if value is original]
            else:
                bindings = [(owner, attr)]
            for where, key in bindings:
                setattr(where, key, wrapper)
                self._installed.append((where, key, original))

    def uninstall(self):
        while self._installed:
            where, key, original = self._installed.pop()
            setattr(where, key, original)

    def _wrap(self, name, fn, hook):
        stack, spans = self._stack, self.spans
        samples = self.samples.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result, key[1])
            return result

        return wrapper

    def add_span(self, name, elapsed):
        """Record a top-level span timed by the caller (e.g. an import)."""
        rec = self.spans.setdefault((name, None), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed

    def to_json(self):
        return {
            "spans": [[n, p, *rec] for (n, p), rec in self.spans.items()],
            "samples": self.samples,
            "counters": dict(self.counters),
            "absent": self.absent,
        }


def merge(parts):
    """Fold several ``Tracer.to_json`` dicts (e.g. one per process) into one."""
    out = {"spans": {}, "samples": {}, "counters": Counter(), "absent": set()}
    for part in parts:
        for name, parent, calls, total, self_s in part["spans"]:
            rec = out["spans"].setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, values in part["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        out["counters"].update(part["counters"])
        out["absent"].update(part["absent"])
    return out
