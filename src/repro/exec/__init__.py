"""The build pool for every parallel stage of the pipeline.

``repro.exec`` runs the pipeline's two parallel stages — blocked-pair scoring
in the graph builder and candidate-extraction sharding — on a
:class:`ProcessBackend`, selected by spec string
(:attr:`repro.core.config.SynthesisConfig.executor`, the only way to ask for
parallelism): ``"serial"`` or ``"process:4"``.  ``"serial"`` builds no pool:
each stage runs its own sequential path, the reference every pooled run is
byte-identical to; only the wall-clock differs.  Pure-Python scoring holds
the GIL, so threads cannot speed these stages up and there is no thread
kind.  Request serving does not run on this pool: the
:class:`~repro.serving.SynthesisDaemon` serves on its own dispatcher threads,
sized by its own ``workers`` keyword, never by the spec.

:class:`FanOut` (:mod:`repro.exec.fanout`) is the shared gate + chunk +
serial-fallback skeleton both call sites run their pools through, one
:meth:`FanOut.session` (one pool) per stage run.

The pool is **fault-tolerant**: a broken pool is rebuilt and only the lost
work re-dispatched, and transient task failures retry under a
:class:`~repro.faults.RetryPolicy` (the pipeline passes
:meth:`SynthesisConfig.retry_policy`; :data:`DEFAULT_RETRY_POLICY`
otherwise).  Past the retry budget the backend raises with a recorded
``fallback_reason`` and the stage runs its own sequential path — so results
stay byte-identical whatever the pool does, and worker state never exists in
the calling process.
"""

from repro.exec.backend import (
    DEFAULT_RETRY_POLICY,
    ExecutorSpecError,
    ProcessBackend,
    chunk_evenly,
    parse_executor_spec,
)
from repro.exec.fanout import FanOut
from repro.faults.retry import RetryPolicy

__all__ = [
    "ExecutorSpecError",
    "ProcessBackend",
    "FanOut",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "parse_executor_spec",
    "chunk_evenly",
]
