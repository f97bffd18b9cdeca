"""Direct-mapped cache simulator for read-only kernel operands.

Addresses are byte offsets into a single flat region registered at
construction time.  The mapping is ``(offset // LINE_BYTES) % lines`` with
no prefetch and no associativity; ``lines`` stops at the smallest power of
two that covers the region, past which no two region lines share a slot.
``access_trace`` consumes a whole offset array with the counts of touching
each offset in turn, and ``access_repeated`` exploits the fact that the tag
state after any trace depends only on the trace itself, so a per-pixel
trace repeated P times needs only two simulated passes.
"""

from __future__ import annotations

import numpy as np

LINE_BYTES = 64


class CacheAccessError(ValueError):
    """Access outside the registered read-only region."""


class ConstCacheSim:
    def __init__(self, size_bytes: int, region_bytes: int):
        if size_bytes < LINE_BYTES or size_bytes & (size_bytes - 1):
            raise ValueError(
                f"cache size must be a power of two >= {LINE_BYTES}, got {size_bytes}"
            )
        if region_bytes < 1:
            raise ValueError("registered region must be non-empty")
        self.region_bytes = region_bytes
        region_lines = -(-region_bytes // LINE_BYTES)
        self.lines = min(size_bytes // LINE_BYTES, 1 << (region_lines - 1).bit_length())
        self.tags = np.full(self.lines, -1, dtype=np.int64)
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def access_trace(self, offsets: np.ndarray) -> int:
        """Simulate a whole offset trace; returns the number of misses.

        Equivalent to touching each offset in turn, in order.  Accesses are
        grouped by cache slot (stable, so time order is preserved within a
        slot); within a slot every change of line is a miss, and the first
        access misses unless the resident tag already matches.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0
        if offsets.min() < 0 or offsets.max() >= self.region_bytes:
            bad = offsets[(offsets < 0) | (offsets >= self.region_bytes)][0]
            raise CacheAccessError(
                f"offset {bad} outside registered region [0, {self.region_bytes})"
            )
        lines = offsets // LINE_BYTES
        slots = lines % self.lines
        order = np.argsort(slots, kind="stable")
        sl = slots[order]
        ln = lines[order]
        first = np.empty(sl.shape, dtype=bool)
        first[0] = True
        np.not_equal(sl[1:], sl[:-1], out=first[1:])
        changed = np.empty(sl.shape, dtype=bool)
        changed[0] = True
        np.not_equal(ln[1:], ln[:-1], out=changed[1:])
        miss = np.where(first, self.tags[sl] != ln, changed)
        last = np.empty(sl.shape, dtype=bool)
        last[-1] = True
        np.not_equal(sl[1:], sl[:-1], out=last[:-1])
        self.tags[sl[last]] = ln[last]
        n_miss = int(miss.sum())
        self.misses += n_miss
        self.hits += offsets.size - n_miss
        return n_miss

    def access_repeated(self, offsets: np.ndarray, repeats: int) -> int:
        """Simulate ``offsets`` replayed ``repeats`` times; returns total misses.

        After one pass the tag of every touched slot equals the last line of
        the pass that mapped to it, independent of the prior state, so the
        second and all later passes miss identically.
        """
        if repeats < 1:
            return 0
        m1 = self.access_trace(offsets)
        if repeats == 1:
            return m1
        m2 = self.access_trace(offsets)
        extra = (repeats - 2) * m2
        self.misses += extra
        self.hits += (repeats - 2) * len(offsets) - extra
        return m1 + m2 + extra
