"""Cooperative wall-clock deadlines.

Budgets are enforced cooperatively: long-running work checks a shared
:class:`Deadline` between coarse work units (a grower step, every 8th
logistic-regression epoch, a prediction chunk, a fold, a bagging chunk,
a boosting round). Hard preemption is deliberately not attempted, so a
budget can be overshot by at most one work unit.
"""

from __future__ import annotations

import math
import time


class DeadlineExceeded(RuntimeError):
    """Raised by cooperative checks when a wall-clock budget has lapsed."""


class Deadline:
    """Absolute point on the monotonic clock; ``Deadline()`` lies at
    infinity and never lapses. No method changes a deadline."""

    __slots__ = ("_at",)

    def __init__(self, seconds: float = math.inf, *, at: float | None = None) -> None:
        self._at = at if at is not None else time.monotonic() + max(0.0, seconds)

    def expired(self) -> bool:
        return time.monotonic() >= self._at

    def check(self) -> None:
        if self.expired():
            raise DeadlineExceeded("wall-clock budget exhausted")

    def clipped(self, seconds: float | None) -> "Deadline":
        """The earlier of this deadline and ``now + seconds``; ``None``
        clips nothing."""
        if seconds is None:
            return self
        return Deadline(at=min(self._at, time.monotonic() + max(0.0, seconds)))

    @staticmethod
    def earliest(*deadlines: "Deadline") -> "Deadline":
        return Deadline(at=min((d._at for d in deadlines), default=math.inf))


NO_DEADLINE = Deadline()  # the default of every ``deadline=`` parameter


class Budget:
    """``seconds`` of wall-clock time within ``deadline``, counted from the
    first ``start``: a budget that begins when its first piece of work
    does, not when it is made."""

    __slots__ = ("_within", "_seconds", "_started")

    def __init__(self, deadline: Deadline, seconds: float | None) -> None:
        self._within = deadline
        self._seconds = seconds
        self._started: Deadline | None = None

    def start(self) -> Deadline:
        """The budget's deadline; the first call fixes it."""
        if self._started is None:
            self._started = self._within.clipped(self._seconds)
        return self._started
