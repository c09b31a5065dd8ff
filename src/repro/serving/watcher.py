"""Watch a persisted artifact path and hand new versions to a callback.

The serving daemon stays up while :func:`repro.store.incremental.refresh_artifact`
(in this process or another) publishes new artifact versions.  The watcher
combines two signals:

* **In-process publish hooks** — :func:`repro.store.artifact.save_artifact`
  notifies subscribers after its atomic rename, so same-process saves are
  checked immediately instead of on the next poll.
* **Polling** — a background thread compares the file's
  ``(st_ino, mtime_ns, size)`` signature every ``poll_seconds``, which covers
  artifacts published by other processes.

An atomic rename always gives the path a new inode (the replacement is
written while the served file still exists), so every publish changes the
signature, even one too fast to advance the mtime or one that re-saves
identical bytes.  Each version is therefore loaded exactly once, however
many checks — hook, poll, :meth:`SynthesisDaemon.await_generation` — see it.

Either way the artifact is re-read through :func:`load_artifact` and
checksum-validated **before** the callback sees it, so a damaged or
half-published file (impossible with ``save_artifact``'s atomic rename, but
possible with foreign writers) is skipped and retried on the next tick instead
of ever being swapped in.  For sectioned (v2) artifacts the validation walks
the table of contents and hashes each section's stored bytes — no section is
decoded — so a reload candidate is vetted at hashing speed and the swap
itself only ever decodes the mappings + curation sections it serves.

Failed swaps **degrade gracefully** instead of looping hot or wedging: each
failure (damaged bytes, load error, callback exception) schedules the next
unforced retry on the :class:`~repro.faults.RetryPolicy`'s backoff, and once
the budget is exhausted the watcher *pins* the current on-disk version as
poisoned — the daemon keeps serving the last good generation, the condition
is reported through :meth:`ArtifactWatcher.health` (and the daemon's
``health()``), and the next *new* publish is still tried, so recovery is
automatic the moment a good artifact lands.  The in-process publish hook
clears the backoff, so a publisher we just heard from gets an immediate
look; ``check_now(force=True)`` goes further and reloads even an unchanged
signature.  When a :class:`~repro.faults.FaultInjector` is active, the
watcher is also a chaos hook point: reload candidates can be deterministically
treated as failed publishes or fed corrupted bytes.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

from repro.faults.plan import active_injector
from repro.faults.retry import RetryPolicy
from repro.store.artifact import (
    ArtifactError,
    SynthesisArtifact,
    load_artifact,
    subscribe_artifact,
)
from repro.store.format import ArtifactReader

__all__ = ["ArtifactWatcher"]

#: Default hot-swap retry schedule: three backed-off retries, then pin.
_DEFAULT_WATCH_RETRY = RetryPolicy(attempts=3, base_seconds=0.05, max_seconds=2.0)


class ArtifactWatcher:
    """Invokes ``on_artifact(artifact, path)`` for each new version of ``path``.

    The callback runs on the watcher (or publisher) thread *after* the new
    version is fully on disk and has passed its checksum; with
    :class:`~repro.serving.daemon.SynthesisDaemon` it builds the next
    :class:`MappingService` and performs the atomic generation swap.
    """

    def __init__(
        self,
        path: str | Path,
        on_artifact: Callable[[SynthesisArtifact, Path], None],
        *,
        poll_seconds: float = 0.25,
        subscribe: bool = True,
        baseline: tuple[int, int, int] | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if poll_seconds <= 0:
            raise ValueError(f"poll_seconds must be > 0, got {poll_seconds}")
        self.path = Path(path)
        self.poll_seconds = poll_seconds
        self.retry_policy = (
            retry_policy if retry_policy is not None else _DEFAULT_WATCH_RETRY
        )
        self.reloads = 0
        self.skipped = 0
        self.callback_errors = 0
        #: Wall-clock cost of the most recent successful artifact load, for the
        #: consumer to fold into its serving stats (load_seconds).
        self.last_load_seconds = 0.0
        # -- Degradation state (all surfaced through health()) ------------------
        #: Swap failures since the last successful swap (any cause).
        self.consecutive_failures = 0
        #: Whether the most recent swap attempt succeeded (True before any).
        self.last_swap_ok = True
        #: Human-readable cause of the most recent swap failure, or ``None``.
        self.last_error: str | None = None
        #: The on-disk signature pinned as poisoned after the retry budget was
        #: exhausted — that exact file state is never retried, but any *new*
        #: publish (different signature) is, so recovery is automatic.
        self._pinned_signature: tuple[int, int, int] | None = None
        #: Monotonic instant before which unforced checks skip (backoff).
        self._retry_at = 0.0
        self._on_artifact = on_artifact
        # The baseline is the signature of the version the caller has already
        # loaded and is serving.  Callers that load before constructing the
        # watcher should capture it with signature_of() *before* their load —
        # a version published in between then differs from the baseline and is
        # picked up on the first poll instead of silently becoming the baseline.
        self._signature = (
            baseline if baseline is not None else self._current_signature()
        )
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._check_lock = threading.Lock()
        self._poller: threading.Thread | None = None
        self._unsubscribe = (
            subscribe_artifact(self.path, self._on_published) if subscribe else None
        )

    # -- Lifecycle ----------------------------------------------------------------------
    def start(self) -> "ArtifactWatcher":
        """Start the polling thread (idempotent)."""
        if self._poller is None:
            self._poller = threading.Thread(
                target=self._run, name=f"artifact-watcher:{self.path.name}", daemon=True
            )
            self._poller.start()
        return self

    def stop(self) -> None:
        """Stop polling and unsubscribe from publish notifications (idempotent)."""
        self._stop.set()
        self._wake.set()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._poller is not None:
            self._poller.join()
            self._poller = None

    def __enter__(self) -> "ArtifactWatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- Change detection ---------------------------------------------------------------
    def check_now(self, *, force: bool = False) -> bool:
        """Check the path once; reload + callback on a new version.

        Returns True when a new version was handed to the callback.  ``force``
        reloads even if the file signature looks unchanged and bypasses the
        failure backoff.  Failures never propagate: they are counted,
        backed off, eventually pinned, and reported via :meth:`health`.
        """
        with self._check_lock:
            signature = self._current_signature()
            if signature is None:
                return False
            if signature == self._signature and not force:
                return False
            if signature == self._pinned_signature:
                # This exact file state exhausted its retry budget; only a new
                # publish (which changes the signature) is worth another try.
                return False
            if not force and time.monotonic() < self._retry_at:
                return False
            injector = active_injector()
            load_started = time.perf_counter()
            try:
                if injector is not None and injector.publish_failure():
                    raise OSError("injected publish failure")
                if injector is not None and injector.corrupt_publish():
                    # Read the published bytes, flip one deterministic byte,
                    # and vet the damage exactly as a real torn file would be
                    # vetted — every byte region is checksummed, so this
                    # always raises and never reaches the callback.
                    ArtifactReader(
                        injector.corrupt(self.path.read_bytes()),
                        source=str(self.path),
                    ).verify()
                artifact = load_artifact(self.path)
                # v2 artifacts load lazily (TOC only); verify() checksums every
                # section without decoding any, so damaged bytes are rejected
                # here — not mid-swap when the consumer first touches them.
                artifact.verify()
            except (ArtifactError, OSError) as exc:
                # Damaged or foreign bytes at the path: never swap them in;
                # keep the old signature so a later check retries.
                self.skipped += 1
                self._record_failure(signature, f"{type(exc).__name__}: {exc}")
                return False
            load_seconds = time.perf_counter() - load_started
            try:
                self.last_load_seconds = load_seconds
                self._on_artifact(artifact, self.path)
            except Exception as exc:
                # A failing consumer (e.g. service build out of memory) must
                # not kill the watcher thread; keep the old signature so a
                # later check retries the swap.
                self.callback_errors += 1
                self._record_failure(signature, f"{type(exc).__name__}: {exc}")
                return False
            self._signature = signature
            self.reloads += 1
            self._record_success()
            return True

    def _record_failure(self, signature: tuple[int, int, int], message: str) -> None:
        # Check lock held.
        self.last_error = message
        self.last_swap_ok = False
        self.consecutive_failures += 1
        if self.consecutive_failures > self.retry_policy.attempts:
            # Budget exhausted: pin this exact file state as poisoned.  The
            # daemon keeps serving the last good generation; any new publish
            # has a different signature and is tried (once, while the storm
            # lasts) the moment it lands.
            self._pinned_signature = signature
        self._retry_at = time.monotonic() + self.retry_policy.delay(
            min(self.consecutive_failures, self.retry_policy.attempts + 1)
        )

    def _record_success(self) -> None:
        # Check lock held.
        self.consecutive_failures = 0
        self.last_swap_ok = True
        self.last_error = None
        self._pinned_signature = None
        self._retry_at = 0.0

    @property
    def pinned(self) -> bool:
        """True while a poisoned on-disk version is pinned out of service."""
        return self._pinned_signature is not None

    def health(self) -> dict[str, object]:
        """JSON-able degradation snapshot (folded into the daemon's health)."""
        return {
            "path": str(self.path),
            "reloads": self.reloads,
            "skipped": self.skipped,
            "callback_errors": self.callback_errors,
            "consecutive_failures": self.consecutive_failures,
            "last_swap_ok": self.last_swap_ok,
            "last_error": self.last_error,
            "pinned": self.pinned,
            "retry_in_seconds": max(0.0, self._retry_at - time.monotonic()),
        }

    @staticmethod
    def signature_of(path: str | Path) -> tuple[int, int, int] | None:
        """The ``(st_ino, mtime_ns, size)`` change signature of ``path`` now."""
        try:
            stat = Path(path).stat()
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _current_signature(self) -> tuple[int, int, int] | None:
        return self.signature_of(self.path)

    def _on_published(self, _path: Path) -> None:
        # Runs on the publishing thread; defer the check to the watcher thread
        # so a slow service build never blocks the writer.
        self._wake.set()

    def _run(self) -> None:
        while True:
            published = self._wake.wait(self.poll_seconds)
            self._wake.clear()
            if self._stop.is_set():
                return
            if published:
                # The new file has a new signature, so an ordinary check loads
                # it; only the backoff left by an earlier failed version goes.
                with self._check_lock:
                    self._retry_at = 0.0
            self.check_now()
