"""The cluster router's per-replica circuit breaker.

:class:`~repro.cluster.ClusterRouter` gives every replica one breaker, the
serving tier's only one.  The classic three-state machine (closed → open →
half-open):

* **closed** — everything flows; per-lookup outcomes feed a bounded sliding
  window.  When the window holds at least ``min_requests`` outcomes and the
  error rate reaches ``error_threshold``, the breaker trips **open**.
* **open** — the router's cover-picker routes around the replica instead of
  sending it lookups that would fail.  After ``cooldown_seconds`` the next
  lookup is admitted as a **half-open** probe.
* **half-open** — exactly one probe is in flight; its outcome decides: clean
  (error rate below threshold) closes the breaker and resets the window,
  errors re-open it for another cooldown.

The breaker never *resolves* anything itself — it only gates admission — so a
wrongly-tripped breaker costs availability, never correctness.  All state is
lock-guarded; the clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Error-rate circuit breaker: closed → open → half-open probe → closed."""

    def __init__(
        self,
        *,
        error_threshold: float = 0.5,
        min_requests: int = 10,
        cooldown_seconds: float = 1.0,
        window: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < error_threshold <= 1.0:
            raise ValueError(
                "error_threshold is a rate and must be in (0, 1], "
                f"got {error_threshold}"
            )
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        if cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        if window < min_requests:
            raise ValueError(
                f"window ({window}) must be >= min_requests ({min_requests})"
            )
        self.error_threshold = error_threshold
        self.min_requests = min_requests
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        #: Sliding window of per-request outcomes (True = error).
        self._errors: deque[bool] = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Times the breaker transitioned closed/half-open -> open.
        self.opened_count = 0
        #: Requests rejected while open (or while a probe was in flight).
        self.rejections = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Lock held.  An open breaker whose cooldown elapsed reads as
        # half-open: the transition is realized by the next allow().
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            return "half-open"
        return self._state

    def _error_rate(self) -> float:
        # Lock held.
        if not self._errors:
            return 0.0
        return sum(self._errors) / len(self._errors)

    def allow(self) -> bool:
        """Admission decision for one batch (False = fail fast).

        The transition from open to half-open happens here: the first batch
        admitted after the cooldown becomes the probe, and further batches are
        rejected until :meth:`record` resolves it.
        """
        with self._lock:
            state = self._effective_state()
            if state == "closed":
                return True
            if state == "half-open":
                if self._state == "open":
                    self._state = "half-open"
                    self._probe_in_flight = False
                if self._probe_in_flight:
                    self.rejections += 1
                    return False
                self._probe_in_flight = True
                return True
            self.rejections += 1
            return False

    def record(self, ok: int, errors: int) -> bool:
        """Fold one batch's per-request outcomes in; True if the breaker tripped.

        In half-open state this resolves the probe: a clean batch closes the
        breaker (and resets the window), an errored one re-opens it.
        """
        if ok <= 0 and errors <= 0:
            return False
        with self._lock:
            if self._state == "half-open":
                self._probe_in_flight = False
                total = ok + errors
                if errors / total < self.error_threshold:
                    self._state = "closed"
                    self._errors.clear()
                    return False
                self._trip()
                return True
            self._errors.extend([False] * ok)
            self._errors.extend([True] * errors)
            if (
                self._state == "closed"
                and len(self._errors) >= self.min_requests
                and self._error_rate() >= self.error_threshold
            ):
                self._trip()
                return True
            return False

    def _trip(self) -> None:
        # Lock held.
        self._state = "open"
        self._opened_at = self._clock()
        self.opened_count += 1
        self._probe_in_flight = False

    def snapshot(self) -> dict[str, object]:
        """A consistent, JSON-able view for ``ClusterRouter.health()``."""
        with self._lock:
            state = self._effective_state()
            return {
                "state": state,
                "error_rate": self._error_rate(),
                "window_size": len(self._errors),
                "error_threshold": self.error_threshold,
                "min_requests": self.min_requests,
                "cooldown_seconds": self.cooldown_seconds,
                "opened_count": self.opened_count,
                "rejections": self.rejections,
                "seconds_since_opened": (
                    self._clock() - self._opened_at if self.opened_count else None
                ),
            }
