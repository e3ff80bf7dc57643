"""Per-layer spans recorded from outside the package.

Nothing in ``sepdist`` is edited: the traced run swaps a module attribute
for a timing wrapper for the duration of a ``with`` block and passes a
sampler subclass to ``sepdist.run``.  Spans are kept in memory as
per-key totals (seconds, calls, counts) and read out when the run ends.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from sepdist.states import StateSampler


class Spans:
    """Per-key totals of wall seconds and calls, plus free-standing counts."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def add(self, key: str, seconds: float) -> None:
        self.seconds[key] += seconds
        self.calls[key] += 1

    def timed(self, key: str, fn, reads_path: bool = False):
        """``fn`` wrapped so each call adds its wall time to ``key``.

        With ``reads_path`` the size of the file named by the first
        argument is added to the ``fileio.bytes_read`` count.
        """

        def wrapper(*args, **kwargs):
            begin = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, perf_counter() - begin)
                if reads_path:
                    self.counts["fileio.bytes_read"] += os.path.getsize(args[0])

        return wrapper


@contextmanager
def patched(spans: Spans, targets):
    """Replace ``module.attr`` by a timed wrapper for each target, then restore.

    ``targets`` holds ``(module, attr, key, reads_path)`` tuples.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, key, reads_path in targets:
            setattr(module, attr, spans.timed(key, getattr(module, attr), reads_path))
        yield spans
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class TracedSampler(StateSampler):
    """A sampler that times ``product_kets`` and counts the kets it draws.

    It draws exactly what the plain sampler with the same config draws, so
    a traced solve follows the untraced trajectory bit for bit.
    """

    def __init__(self, config, spans: Spans):
        super().__init__(config)
        self.spans = spans

    def product_kets(self, dims, count: int):
        begin = perf_counter()
        kets = super().product_kets(dims, count)
        self.spans.add("states.product_kets", perf_counter() - begin)
        self.spans.counts["states.kets_drawn"] += count
        return kets
