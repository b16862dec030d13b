"""Layer timing from outside the program: wrap public functions, keep spans.

:class:`LayerTracer` replaces a function or method with a wrapper that
counts calls and times them, and restores every original on exit.  Spans
nest on a stack, so each layer also gets its *self* time: its duration
minus the part covered by the wrapped layers it called.  Only the
benchmark's traced runs install it; end-to-end numbers come from runs
without it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

__all__ = ["LayerTracer"]


class LayerTracer:
    """Per-layer calls, total time and self time, keyed by layer name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attribute: str, name: str,
             count: Callable | None = None) -> None:
        """Time every call of ``owner.attribute`` under layer ``name``.

        ``count(args, result)``, when given, returns an amount added to
        ``counts[name]`` per call (rows through a forward pass, say).
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - children
            if count is not None:
                tracer.counts[name] += count(args, result)
            return result

        # Keep the raw class attribute (not the bound lookup) to restore.
        raw = vars(owner).get(attribute, original) if isinstance(owner, type) \
            else original
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, traced)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)
        return False
