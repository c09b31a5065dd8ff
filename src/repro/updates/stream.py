"""Live update stream: delta log -> incremental engine -> serving tier, in order.

:class:`UpdateStream` is the one writer that keeps the four update-path pieces
consistent for a served corpus:

1. **Durability first.**  Every delta is appended to the fsync'd
   :class:`~repro.updates.deltalog.DeltaLog` *before* any state changes.  If
   the append fails (crash, injected ``delta_append_failure``), nothing else
   moves — the engine, artifact, and serving tier still agree with the log.
2. **Exact repair.**  The :class:`~repro.updates.engine.IncrementalEngine`
   applies the delta and returns the :class:`~repro.updates.engine.PoolPatch`
   (mapping upserts/removals) that makes the served pool byte-identical to a
   cold rebuild over the updated corpus.
3. **Restart story.**  When an artifact path is attached, the patch is
   appended to the artifact's journal as one checksummed record
   (:func:`~repro.updates.journal.append_delta_section`), so a restarted
   server can load base + journal without replaying extraction.  The stream
   hands each append the :class:`~repro.updates.journal.JournalTail` the
   previous one returned, so in steady state an append writes one record
   and reads nothing back.
4. **Live serving.**  The patch fans out to an attached
   :class:`~repro.serving.SynthesisDaemon` and/or
   :class:`~repro.cluster.ClusterRouter` via their ``apply_delta``, which
   splices it into the served index in place: the generation number and
   stats stay, because a generation is one artifact version and a streamed
   patch repairs it.  The fan-out happens even when the journal
   write fails: the engine has already moved on and later patches are diffs
   against its state, so a serving tier that missed one patch would stay
   wrong.

Once the log holds ``compact_threshold`` entries (default 64),
:meth:`UpdateStream.apply` folds them back:
:meth:`UpdateStream.compact` re-saves the engine's current artifact (dropping
the journal — :func:`~repro.store.artifact.save_artifact` publishes a whole
new container) and truncates the log, preserving sequence numbers.

Daemons fed through this stream must run with ``watch=False``: a file watcher
would observe each journal append and swap in the *base* artifact, discarding
the live patches it already carries.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.config import SynthesisConfig
from repro.corpus.corpus import TableCorpus
from repro.store.artifact import save_artifact
from repro.updates.deltalog import DeltaLog, TableDelta
from repro.updates.engine import IncrementalEngine, PoolPatch
from repro.updates.journal import JournalTail, append_delta_section

__all__ = ["UpdateStream"]


class UpdateStream:
    """Sequences deltas through log, engine, artifact journal, and serving tier.

    ``compact_threshold`` is how many log entries accumulate before
    :meth:`apply` compacts.
    """

    def __init__(
        self,
        engine: IncrementalEngine,
        log: DeltaLog,
        *,
        artifact_path: str | Path | None = None,
        daemon=None,
        router=None,
        compact_threshold: int = 64,
    ) -> None:
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self.engine = engine
        self.log = log
        self.artifact_path = Path(artifact_path) if artifact_path else None
        self.daemon = daemon
        self.router = router
        self.compact_threshold = compact_threshold
        self.compactions = 0
        #: Where this stream's last journal append left the artifact; ``None``
        #: before the first append, after compaction and after a failed write,
        #: so the next append re-reads the journal instead of trusting it.
        self.journal_tail: JournalTail | None = None

    # -- Construction -------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        corpus: TableCorpus,
        log_path: str | Path,
        config: SynthesisConfig | None = None,
        synonyms=None,
        **kwargs,
    ) -> "UpdateStream":
        """Rebuild a stream from the base corpus plus the durable delta log.

        Opening the log truncates any torn tail from a crashed append, then the
        surviving records replay through a fresh engine — the recovered state
        is exactly the state after the last *durable* delta.  ``corpus`` must
        be the corpus as of the log's base sequence (the last compaction).
        """
        log = DeltaLog(Path(log_path))
        engine = IncrementalEngine(corpus, config, synonyms)
        for _, delta in log.records():
            engine.apply(delta)
        return cls(engine, log, **kwargs)

    # -- Properties ----------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable delta."""
        return self.log.last_seq

    # -- The write path -----------------------------------------------------------------
    def apply(self, delta: TableDelta) -> PoolPatch:
        """Durably log ``delta``, repair the pool, journal + serve the patch.

        The log append happens first and is the commit point: a
        :class:`~repro.updates.deltalog.DeltaLogError` (real or injected)
        propagates before the engine or any serving surface is touched.  A
        failed journal write still fans the patch out before it propagates
        (skipping compaction).  Compacts afterwards when the log reaches
        ``compact_threshold``.
        """
        seq = self.log.append(delta)
        patch = self.engine.apply(delta)
        try:
            if self.artifact_path is not None:
                tail, self.journal_tail = self.journal_tail, None
                self.journal_tail = append_delta_section(
                    self.artifact_path,
                    seq=seq,
                    delta=delta,
                    patch=patch,
                    tail=tail,
                )
        finally:
            self._fan_out(patch, seq)
        if len(self.log) >= self.compact_threshold:
            self.compact()
        return patch

    def _fan_out(self, patch: PoolPatch, seq: int) -> None:
        if self.daemon is not None:
            self.daemon.apply_delta(patch.upserts, patch.removed, seq=seq)
        if self.router is not None:
            self.router.apply_delta(
                patch.upserts, patch.removed, seq=seq, pool_size=patch.pool_size
            )

    # -- Compaction ----------------------------------------------------------------------
    def compact(self) -> Path | None:
        """Fold the journal into the base artifact and truncate the log.

        Re-saves the engine's current artifact over the journaled file —
        :func:`~repro.store.artifact.save_artifact` publishes a whole new
        container, so the journal is dropped and every section except
        ``stats`` (whose timings record how the artifact was produced) is
        byte-identical to one written by a cold rebuild over the updated
        corpus.  The log restarts empty with its base sequence advanced,
        keeping sequence numbers monotonic across compactions.
        """
        path = None
        if self.artifact_path is not None:
            path = save_artifact(self.engine.artifact(), self.artifact_path)
            self.journal_tail = None
        self.log.truncate()
        self.compactions += 1
        return path
