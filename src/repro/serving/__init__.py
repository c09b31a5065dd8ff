"""Long-lived concurrent serving over synthesized mappings.

This package turns the synchronous batched :class:`~repro.applications.service.
MappingService` into a serving *process*:

* :mod:`repro.serving.daemon` — :class:`SynthesisDaemon`: a bounded request
  queue drained by the daemon's own dispatcher threads, with backpressure,
  per-batch deadlines, generation-tagged results, and atomic hot-swap of the
  served service.  Tickets wrap plain futures, so event-loop code awaits a
  batch with ``await asyncio.wrap_future(ticket.future)``;
* :mod:`repro.serving.watcher` — :class:`ArtifactWatcher`: picks up new
  artifact versions published by :func:`repro.store.save_artifact` (in-process
  notify hooks) or by other processes (polling) and drives the hot-swap.

The invariant the whole package is built around: **a batch is served entirely
by one generation** — answers are byte-identical to synchronous
:class:`MappingService` calls against that generation's artifact, before,
during, and after a hot reload.

The serving tier also **degrades gracefully** (see :mod:`repro.faults`):
failed or corrupt hot-swaps retry with backoff and then pin the last good
generation rather than crash the watcher, and :meth:`SynthesisDaemon.health`
snapshots queue depth, shed-load counters, and watcher degradation in one
JSON-able dict for operators to poll.  A daemon has no circuit breaker or
submit-side retry of its own; across replicas both are the
:class:`~repro.cluster.ClusterRouter`'s.
"""

from repro.serving.daemon import (
    DaemonError,
    DaemonResult,
    DaemonStoppedError,
    DaemonTicket,
    DeadlineExpiredError,
    INPROC_TRANSPORT_SNAPSHOT,
    QueueFullError,
    ServiceGeneration,
    SynthesisDaemon,
)
from repro.serving.watcher import ArtifactWatcher

__all__ = [
    "SynthesisDaemon",
    "ServiceGeneration",
    "DaemonResult",
    "DaemonTicket",
    "DaemonError",
    "QueueFullError",
    "DeadlineExpiredError",
    "DaemonStoppedError",
    "ArtifactWatcher",
    "INPROC_TRANSPORT_SNAPSHOT",
]
