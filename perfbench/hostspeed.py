"""Host speed: a fixed reference computation, timed between rounds.

The shared 2-core virtual machine the benchmark was built on switches
between a fast and a slow state that each last minutes, and the program
runs about 1.4 times slower in the slow one.  A 25-second run lands
wholly in one state, so a CPU-bound time taken in one run cannot be
compared with one taken in another without knowing how fast the host
was at the time.  :class:`HostSpeed` measures that: before every round
and after the last it times one pass of a computation that never calls
the program and is the same on every commit; a round's factor
(:meth:`HostSpeed.factors`) is the mean of the passes just before and
just after it, over :data:`REFERENCE_S`.  Dividing a round's CPU-bound times by its
factor gives the times on a host where the computation takes exactly
:data:`REFERENCE_S`.

The computation mixes the kinds of work the serving path does, in
roughly its proportions: regular-expression substitution over log-like
lines (the parser's masking), tuple, dict and string work (template
lookup and gating), and small float32 matrix products (the model's
forward pass).  Over ten minutes of interleaved replay rounds and passes,
the replay round time spread 19% between 20-second blocks, and its ratio
to this computation 5%.  A pure integer loop tracked the program less
well (8%) because the slow state slows different kinds of work by
different amounts.
"""

from __future__ import annotations

import random
import re
import time

import numpy as np

__all__ = ["REFERENCE_S", "HostSpeed"]

# A nominal time for one pass, near its standalone time in the fast state
# of the host the bounds were set on; scaled times read as if on a host
# where one pass takes exactly this long.  Changing it rescales every
# scaled metric, so it is fixed.
REFERENCE_S = 0.12

_WORDS = ("kernel", "error", "node", "link", "down", "up", "failed",
          "session", "opened", "closed", "user", "root", "packet", "drop",
          "timeout", "retry", "disk", "write", "read", "instruction")
_PATTERNS = tuple(re.compile(pattern) for pattern in (
    r"\b\d{1,3}(?:\.\d{1,3}){3}\b", r"0x[0-9a-fA-F]+", r"/[\w/.-]+",
    r"\b[0-9a-f]{8,}\b", r"\b\d+\b"))


def _lines(count: int) -> list[str]:
    """Fixed log-like lines: words, numbers, addresses, paths, hex."""
    rng = random.Random(0)
    lines = []
    for _ in range(count):
        parts = [rng.choice(_WORDS) for _ in range(rng.randint(4, 10))]
        parts.insert(rng.randrange(len(parts)), str(rng.randrange(100_000)))
        parts.append(f"10.{rng.randrange(256)}.{rng.randrange(256)}."
                     f"{rng.randrange(256)}")
        parts.append(f"0x{rng.getrandbits(32):08x}")
        parts.append(f"/var/log/{rng.choice(_WORDS)}/{rng.randrange(99)}")
        lines.append(" ".join(parts))
    return lines


class HostSpeed:
    """Times of the reference computation over a run."""

    def __init__(self):
        self._lines = _lines(9_000)
        rng = np.random.default_rng(0)
        self._matrix = (rng.standard_normal((48, 48)) / 7).astype(np.float32)
        self.samples: list[float] = []

    def _compute(self) -> int:
        counts: dict[tuple, int] = {}
        for line in self._lines:
            for pattern in _PATTERNS:
                line = pattern.sub("<*>", line)
            tokens = line.split()
            key = tuple(tokens[:4])
            counts[key] = counts.get(key, 0) + len(tokens)
            " ".join(sorted(tokens))
        vector = self._matrix
        for _ in range(10_000):
            vector = np.tanh(self._matrix @ vector)
        return len(counts) + int(vector[0, 0] > 0)

    def sample(self) -> None:
        """Time one pass of the reference computation."""
        begin = time.perf_counter()
        self._compute()
        self.samples.append(time.perf_counter() - begin)

    def factors(self) -> list[float]:
        """Per round, how much slower than the reference host the host
        was: the mean of the passes timed just before and just after the
        round, over :data:`REFERENCE_S`."""
        return [(before + after) / 2 / REFERENCE_S
                for before, after in zip(self.samples, self.samples[1:])]
