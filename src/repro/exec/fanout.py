"""Shared fan-out skeleton for the pipeline's blocked parallel call sites.

Two stages fan work across a :class:`~repro.exec.backend.ProcessBackend` —
blocked-pair scoring (:mod:`repro.graph.build`) and candidate-extraction
sharding (:mod:`repro.extraction.candidates`).  Both need the same three
steps:

1. **gate** — don't spin up a pool unless the spec asks for one *and* there
   is enough work to amortize it (``"serial"`` never does);
2. **chunk** — split the items into contiguous blocks sized to the worker
   count (contiguity is what lets callers recover the exact sequential
   output by concatenating block results in block order);
3. **serial fallback** — any pool failure (an exhausted retry budget,
   pickling, sandboxed ``/dev/shm``) hands the stage back to its own
   sequential path, with a flag so the fallback stays observable in stats
   and tests.

:class:`FanOut` is that skeleton.  The call sites stay in charge of *what*
runs — a module-level task plus a spawn-safe initializer that builds the
per-worker state — and a stage opens one :meth:`FanOut.session` per run, so
one pool serves every :meth:`~FanOut.run_blocks` call of that run (scoring
runs two rounds).  The worker state lives only in the pool's workers, never
in the calling process.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.exec.backend import ProcessBackend, chunk_evenly, parse_executor_spec
from repro.faults.retry import RetryPolicy

if TYPE_CHECKING:  # repro.core.config imports this package
    from repro.core.config import SynthesisConfig

__all__ = ["FanOut"]


#: Chunks each worker sees.  Oversplitting smooths skewed chunk costs.
CHUNKS_PER_WORKER = 4


class FanOut:
    """Gate + chunk + run-with-serial-fallback for one executor spec.

    Parameters
    ----------
    spec:
        The executor spec (``"serial"``, ``"process:4"``, ...) — validated
        here, so a typo fails at the call site's entry, not mid-build.
    retry_policy:
        The process pool's recovery budget (pool rebuilds and per-task
        retries); ``None`` keeps :data:`~repro.exec.DEFAULT_RETRY_POLICY`.
        Pipeline stages build theirs with :meth:`from_config`.

    Attributes
    ----------
    fallback:
        True once a :meth:`run_blocks` call failed and the caller must compute
        sequentially; :meth:`should_fan_out` is False from then on.  Callers
        surface it in their own stats (``BuildStats.parallel_fallback``,
        ``last_parallel_fallback``).
    fallback_reason:
        The exception that ended the pool, as ``"Type: message"`` (for an
        exhausted retry budget, the backend's recorded reason).
    """

    def __init__(self, spec: str, *, retry_policy: RetryPolicy | None = None) -> None:
        self.spec = spec
        _, self.workers = parse_executor_spec(spec)
        self.retry_policy = retry_policy
        self.fallback = False
        self.fallback_reason: str | None = None
        self._worker_setup: tuple[Callable[..., None] | None, tuple] | None = None
        self._backend: ProcessBackend | None = None

    @classmethod
    def from_config(cls, config: SynthesisConfig) -> FanOut:
        """The fan-out a pipeline stage runs under ``config``.

        The config's executor spec, with its
        :meth:`~repro.core.config.SynthesisConfig.retry_policy` as the
        recovery budget.
        """
        return cls(config.effective_executor(), retry_policy=config.retry_policy())

    def should_fan_out(self, num_items: int) -> bool:
        """True when the spec asks for a pool and the workload clears the gate.

        ``"serial"`` parses to one worker, so it never fans out.  The gate —
        at least two items per worker — keeps tiny workloads on the
        sequential path where pool startup would dominate, and a fan-out whose
        pool has failed stays sequential.
        """
        return not self.fallback and self.workers > 1 and num_items >= 2 * self.workers

    def chunk(self, items: Sequence[Any]) -> list[list[Any]]:
        """Split ``items`` into contiguous blocks sized for this fan-out."""
        return chunk_evenly(items, self.workers * CHUNKS_PER_WORKER)

    @contextmanager
    def session(
        self,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> Iterator[FanOut]:
        """The one pool lifetime: every :meth:`run_blocks` call inside shares it.

        Each worker runs ``initializer(*initargs)`` once, whatever the number
        of calls.  The backend is built at the first :meth:`run_blocks` call,
        so a block whose calls all stay under the gate builds no backend and
        starts no pool; the pool shuts down when the block exits.
        """
        self._worker_setup = (initializer, initargs)
        try:
            yield self
        finally:
            backend, self._backend, self._worker_setup = self._backend, None, None
            if backend is not None:
                backend.close()

    def run_blocks(
        self, task: Callable[[Any], Any], blocks: Sequence[Any]
    ) -> list[Any] | None:
        """``map_blocks`` across the session's pool; results in block order.

        Returns ``None`` — with :attr:`fallback` set — when the pool fails for
        any reason; the caller then runs its sequential path, which computes
        the identical result.
        """
        if self._worker_setup is None:
            raise RuntimeError("FanOut.run_blocks runs only inside FanOut.session()")
        try:
            if self._backend is None:
                initializer, initargs = self._worker_setup
                self._backend = ProcessBackend(
                    self.workers,
                    initializer=initializer,
                    initargs=initargs,
                    retry_policy=self.retry_policy,
                )
            return self._backend.map_blocks(task, blocks)
        except Exception as exc:
            self.fallback = True
            self.fallback_reason = f"{type(exc).__name__}: {exc}"
            return None
