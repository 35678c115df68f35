"""Cooperative wall-clock deadlines.

Budgets are enforced cooperatively: long-running fits check a shared
:class:`Deadline` between coarse work units (per tree, per epoch, per
fold). Hard preemption is deliberately not attempted, so a budget can be
overshot by at most one work unit.
"""

from __future__ import annotations

import math
import time


class DeadlineExceeded(RuntimeError):
    """Raised by cooperative checks when a wall-clock budget has lapsed."""


class Deadline:
    """Absolute point on the monotonic clock; ``None`` means unlimited."""

    __slots__ = ("_at",)

    def __init__(self, seconds: float | None = None, *, at: float | None = None) -> None:
        if at is not None:
            self._at = at
        elif seconds is None:
            self._at = None
        else:
            self._at = time.monotonic() + max(0.0, seconds)

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    @property
    def remaining(self) -> float:
        if self._at is None:
            return math.inf
        return self._at - time.monotonic()

    def expired(self) -> bool:
        return self._at is not None and time.monotonic() >= self._at

    def check(self) -> None:
        if self.expired():
            raise DeadlineExceeded("wall-clock budget exhausted")

    def clipped(self, seconds: float | None) -> "Deadline":
        """The earlier of this deadline and ``now + seconds``."""
        if seconds is None:
            return self
        other = time.monotonic() + max(0.0, seconds)
        if self._at is None or other < self._at:
            return Deadline(at=other)
        return self

    @staticmethod
    def earliest(*deadlines: "Deadline | None") -> "Deadline":
        best: float | None = None
        for d in deadlines:
            if d is None or d._at is None:
                continue
            if best is None or d._at < best:
                best = d._at
        return Deadline(at=best) if best is not None else Deadline.unlimited()


class Budget:
    """``seconds`` of wall-clock time within ``deadline``, counted from the
    first ``start``: a budget that begins when its first piece of work
    does, not when it is made."""

    __slots__ = ("_within", "_seconds", "_started")

    def __init__(self, deadline: Deadline | None, seconds: float | None) -> None:
        self._within = deadline if deadline is not None else Deadline.unlimited()
        self._seconds = seconds
        self._started: Deadline | None = None

    def start(self) -> Deadline:
        """The budget's deadline; the first call fixes it."""
        if self._started is None:
            self._started = self._within.clipped(self._seconds)
        return self._started
