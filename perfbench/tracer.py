"""Per-layer spans recorded from outside the program.

The tracer rebinds selected wedgedyn functions and methods at run time to
wrappers that record one span (function, start, end, parent) per call.
Names that other modules bound with `from .x import y` are rebound too,
by scanning every loaded wedgedyn module for the original object, so a
call through any alias is seen. `uninstall()` restores every binding.

Self time is a span's duration minus the durations of its wrapped
children; busy time counts only the outermost span of a function, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, qualified name): the layer boundaries the benchmark reports.
TARGETS = (
    ("graphmap", "TightMap.periodic_points"),
    ("graphmap", "TightMap.lift_iter"),
    ("graphmap", "TightMap.eval_iter"),
    ("graphmap", "TightMap.shadowing_classes"),
    ("graphmap", "TightMap.sigma_report"),
    ("bf", "enumerate_fixed"),
    ("bf", "psi"),
    ("bf", "BFGroup.reduce"),
    ("bf", "BFGroup.__init__"),
    ("intmat", "snf"),
    ("intmat", "rat_inverse"),
    ("intmat", "IntMatrix.det"),
    ("intmat", "IntMatrix.__pow__"),
    ("polys", "char_poly"),
    ("polys", "has_root_of_unity_factor"),
    ("polys", "isolate_real_roots"),
    ("polys", "all_roots_outside_closed_disk"),
    ("spectra", "spectral"),
    ("words", "Endomorphism.power"),
    ("words", "Endomorphism.apply"),
    ("words", "Endomorphism.uniform_expansion"),
    ("semiconj", "beta_breakpoints"),
    ("semiconj", "shadow_pairs"),
    ("semiconj", "tail_bound"),
    ("semiconj", "holder_bound"),
    ("rotation", "rotation_set"),
    ("svg", "beta_figure"),
    ("svg", "rotset_figure"),
    ("dsl", "parse"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)


class Tracer:
    def __init__(self, observers=None):
        """observers maps a target name to fn(args, result), called after each
        call of that target returns normally."""
        self.observers = observers or {}
        self.spans = []
        self._stack = []
        self._active = [0] * len(TARGETS)
        self._bindings = []

    def install(self):
        for fid, (mod_name, qual) in enumerate(TARGETS):
            owner = importlib.import_module(f"wedgedyn.{mod_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapper = self._wrap(fid, original, self.observers.get(NAMES[fid]))
            self._rebind(owner, attr, original, wrapper)
            if not path:
                for name, mod in list(sys.modules.items()):
                    if name == "wedgedyn" or name.startswith("wedgedyn."):
                        for alias, value in list(vars(mod).items()):
                            if value is original and mod is not owner:
                                self._rebind(mod, alias, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def _wrap(self, fid, fn, observer):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = active[fid] == 0
            active[fid] += 1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, start, clock(), parent, outer)
                stack.pop()
                active[fid] -= 1
            if observer is not None:
                observer(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def settle(self):
        """Forget open frames after an operation ended, even by a deadline
        signal that arrived between a wrapper's bookkeeping steps."""
        self._stack.clear()
        self._active[:] = [0] * len(TARGETS)

    def take(self):
        """Return the spans recorded so far and start a fresh list. A slot is
        None if a deadline signal cut its wrapper short."""
        done = list(self.spans)
        self.spans.clear()
        return done


def summarize(spans):
    """{name: (calls, busy_s, self_s)} for every target, from one pass."""
    n = len(TARGETS)
    calls, busy, own = [0] * n, [0] * n, [0] * n
    child = [0] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for i, s in enumerate(spans):
        if s is None:
            continue
        fid, start, end, _, outer = s
        calls[fid] += 1
        if outer:
            busy[fid] += end - start
        own[fid] += end - start - child[i]
    return {NAMES[f]: (calls[f], busy[f] / 1e9, own[f] / 1e9) for f in range(n)}


def write_spans(path, spans):
    """Dump one pass of spans as JSON: names plus [fid, start_ns, end_ns, parent]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": NAMES,
                   "spans": [s and list(s[:4]) for s in spans]},
                  fh, separators=(",", ":"))
