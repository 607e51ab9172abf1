"""In-memory span tracer that instruments the package from outside.

The tracer replaces public callables with timing wrappers: a function is
rebound in every ``inhernet`` module that holds it (so ``inhernet.train``'s
own reference to ``sgd_step`` is timed too), a method is replaced on its
class, and a single object's method on that object. Each call records a
span ``[name, start_ns, end_ns, parent_index, work]``; ``work`` is an
optional FLOP count computed from the call's shapes. ``restore`` puts
every patched attribute back, and the tracer is a context manager that
always restores on exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, work=None):
        """A wrapper that records one span per call of ``fn``.

        ``work(*args, **kwargs)``, if given, returns the call's FLOP count.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if work is not None:
                    self.spans[idx][4] = work(*args, **kwargs)
        return traced

    # --- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` (a class, module or object) with a traced wrapper."""
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), work))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Trace a module-level function and every ``inhernet`` rebinding of it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "inhernet" or mod_name.startswith("inhernet.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def _set(self, owner, attr: str, value) -> None:
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover (ns)."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_phase(self) -> dict[str, dict[str, list[int]]]:
        """Group span indices by the nearest enclosing ``phase.*`` span.

        Returns ``{phase: {span_name: [indices]}}``; spans outside every
        phase are grouped under ``""``.
        """
        phase_of: list[str] = []
        groups: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
        for idx, (name, _, _, parent, _) in enumerate(self.spans):
            if name.startswith("phase."):
                phase = name[len("phase."):]
            else:
                phase = phase_of[parent] if parent >= 0 else ""
            phase_of.append(phase)
            groups[phase][name].append(idx)
        return groups

    def write_jsonl(self, f, origin_ns: int, extra: dict | None = None) -> None:
        """Write one JSON object per span, times in ns since ``origin_ns``."""
        for name, start, end, parent, work in self.spans:
            rec = dict(extra or {}, name=name, start=start - origin_ns,
                       end=end - origin_ns, parent=parent)
            if work:
                rec["work"] = work
            f.write(json.dumps(rec) + "\n")
