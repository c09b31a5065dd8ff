"""Configuration for the synthesis pipeline.

Every threshold and switch from the paper is collected in one
:class:`SynthesisConfig` dataclass so experiments (sensitivity analysis, ablations)
can vary a single parameter while holding the rest fixed.
"""

from __future__ import annotations

import os
from dataclasses import Field, dataclass, field, replace
from types import MappingProxyType
from typing import Any

from repro.exec.backend import parse_executor_spec
from repro.faults.retry import RetryPolicy

__all__ = [
    "SynthesisConfig",
    "EXECUTOR_ENV_VAR",
    "RETRY_ATTEMPTS_ENV_VAR",
    "RESULT_NEUTRAL",
    "is_result_neutral",
]

#: Environment variable overriding :attr:`SynthesisConfig.executor` when the
#: field is left unset — the hook CI uses to run the whole suite under
#: ``process:2`` without touching any test's config.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment variable supplying :attr:`SynthesisConfig.retry_attempts` when
#: the field is left at its default — the hook the CI chaos leg uses to widen
#: the recovery budget without touching any test's config.
RETRY_ATTEMPTS_ENV_VAR = "REPRO_RETRY_ATTEMPTS"

#: Field metadata marking a :class:`SynthesisConfig` field that cannot change
#: any extraction, scoring or synthesis outcome (every backend and every rung
#: of its retry ladder computes identical results).
#: :func:`~repro.store.incremental.refresh_artifact` ignores marked fields
#: when deciding whether a previous run's scores may be reused; an unmarked
#: field is result-affecting.
RESULT_NEUTRAL = MappingProxyType({"result_neutral": True})


def is_result_neutral(spec: Field) -> bool:
    """True when a config field's declaration carries :data:`RESULT_NEUTRAL`."""
    return bool(spec.metadata.get("result_neutral"))


def _default_retry_attempts() -> int:
    raw = os.environ.get(RETRY_ATTEMPTS_ENV_VAR, "").strip()
    try:
        return int(raw) if raw else 2
    except ValueError:
        return 2


@dataclass(frozen=True)
class SynthesisConfig:
    """Parameters controlling candidate extraction, synthesis, and post-processing.

    Attributes
    ----------
    fd_theta:
        ``θ`` — minimum fraction of rows that must respect the functional dependency
        for a column pair to count as an approximate mapping (paper §2.1, default 0.95).
    min_rows:
        Minimum number of distinct value pairs for a candidate binary table.
    coherence_threshold:
        Minimum average NPMI coherence ``S(C)`` for a column to survive the PMI
        filter (paper §3.1).
    edge_threshold:
        ``θ_edge`` — minimum positive compatibility ``w+`` for an edge to be added to
        the synthesis graph.  The paper tunes this to 0.85 on the 100M-table web
        corpus; on the smaller synthetic corpus the default is 0.5 (the sensitivity
        bench sweeps the full range, including 0.85).
    conflict_threshold:
        ``τ`` — negative-compatibility threshold below which two tables are treated
        as hard-incompatible (paper §4.2 uses −0.2 and §5.4 reports the quality peak
        near −0.05; the default here, −0.1, sits at the same peak on the synthetic
        corpus — the sensitivity bench sweeps the full range).
    overlap_threshold:
        ``θ_overlap`` — minimum number of shared value pairs (for ``w+``) or shared
        left values (for ``w−``) before a pair of tables is even scored (paper §4.1).
    edit_fraction:
        ``f_ed`` — fractional edit-distance threshold for approximate value matching.
    edit_cap:
        ``k_ed`` — absolute cap on the edit-distance threshold.
    use_approximate_matching:
        Whether to use approximate string matching when computing compatibility.
    executor:
        The one way to ask for parallelism: the execution-backend spec for
        every parallel stage of the pipeline — blocked-pair scoring,
        candidate-extraction sharding, and incremental refresh rescoring (see
        :mod:`repro.exec`).  It sizes build pools only; a serving daemon's
        dispatcher-thread count is its own ``workers`` keyword.
        ``"serial"`` builds no pool: every stage runs its own sequential path,
        the deterministic reference.  ``"process:4"`` (or bare ``"process"``
        for one worker per CPU) fans CPU-bound work out across a process pool
        with picklable task envelopes, byte-identical to serial.  Any other
        kind raises :class:`~repro.exec.ExecutorSpecError`.  When left empty,
        the ``REPRO_EXECUTOR`` environment variable supplies the spec;
        failing that, everything runs serially.
    use_negative_edges:
        Whether FD-conflict (negative) edges constrain the partitioning.  Setting
        this to ``False`` yields the ``SynthesisPos`` ablation from the paper.
    use_pmi_filter / use_fd_filter:
        Toggles for the two candidate-extraction filters (§3.1, §3.2).
    resolve_conflicts:
        Whether to run the conflict-resolution post-processing step (§4.2, Alg. 4).
    conflict_strategy:
        ``"greedy"`` (Algorithm 4) or ``"majority"`` (majority-voting alternative
        evaluated in §5.6).
    expand_tables:
        Whether to run the optional table-expansion step (Appendix I).
    min_domains:
        Minimum number of distinct source domains contributing to a synthesized
        mapping for it to be retained during curation (§4.3 uses 8 for the Web).
    min_mapping_size:
        Minimum number of value pairs in a synthesized mapping for curation.
    artifact_path:
        When non-empty, :meth:`SynthesisPipeline.run` automatically persists the
        run as a synthesis artifact at this path (see :mod:`repro.store`), which
        serving layers load with :meth:`MappingService.from_artifact` instead of
        re-running the pipeline.
    retry_attempts:
        Budget of the fault-tolerance :class:`~repro.faults.RetryPolicy` built
        by :meth:`retry_policy` — how many times a broken process pool is
        rebuilt (past it, the stage runs its own sequential path), how many
        times a transient task failure is re-dispatched, and how many times
        the daemon's watcher re-attempts a failed hot-swap before pinning the
        last good generation.  Defaults to ``REPRO_RETRY_ATTEMPTS`` when set,
        else 2; ``0`` disables retries (the first failure falls back at once).
    retry_backoff_seconds / retry_backoff_cap_seconds:
        Base and cap of the policy's exponential backoff schedule.

    Fields marked :data:`RESULT_NEUTRAL` in their declaration (``executor``,
    ``artifact_path``, the ``retry_*`` budget and ``extra``) cannot change
    what a pipeline run computes, so changing one does not invalidate
    :func:`~repro.store.incremental.refresh_artifact` reuse.  Every other
    field is result-affecting.  Serving, cluster, transport, streaming and
    artifact-encoding settings are not config fields: each is a keyword of
    the one component that reads it (:meth:`SynthesisDaemon.from_artifact
    <repro.serving.SynthesisDaemon.from_artifact>`,
    :meth:`ClusterRouter.from_artifact <repro.cluster.ClusterRouter.from_artifact>`,
    :class:`~repro.updates.UpdateStream`, :func:`~repro.store.save_artifact`).
    """

    # --- Candidate extraction (§3) -------------------------------------------------
    fd_theta: float = 0.95
    min_rows: int = 4
    coherence_threshold: float = 0.05
    use_pmi_filter: bool = True
    use_fd_filter: bool = True

    # --- Compatibility and synthesis (§4.1, §4.2) ----------------------------------
    edge_threshold: float = 0.3
    conflict_threshold: float = -0.1
    overlap_threshold: int = 2
    edit_fraction: float = 0.2
    edit_cap: int = 10
    use_approximate_matching: bool = True
    use_negative_edges: bool = True
    executor: str = field(default="", metadata=RESULT_NEUTRAL)

    # --- Post-processing (§4.2 conflict resolution, Appendix I) --------------------
    resolve_conflicts: bool = True
    conflict_strategy: str = "greedy"
    expand_tables: bool = False

    # --- Curation (§4.3) ------------------------------------------------------------
    min_domains: int = 2
    min_mapping_size: int = 5

    # --- Artifact store (repro.store) -----------------------------------------------
    artifact_path: str = field(default="", metadata=RESULT_NEUTRAL)

    # --- Fault tolerance (repro.faults) -----------------------------------------------
    retry_attempts: int = field(
        default_factory=_default_retry_attempts, metadata=RESULT_NEUTRAL
    )
    retry_backoff_seconds: float = field(default=0.05, metadata=RESULT_NEUTRAL)
    retry_backoff_cap_seconds: float = field(default=2.0, metadata=RESULT_NEUTRAL)

    # --- Extra knobs for experiments -------------------------------------------------
    # hash=False: a dict-valued field would make the generated __hash__ of this
    # frozen dataclass raise TypeError on every call.
    extra: dict[str, Any] = field(
        default_factory=dict, hash=False, metadata=RESULT_NEUTRAL
    )

    def __post_init__(self) -> None:
        if not isinstance(self.executor, str):
            raise ValueError(
                f"executor must be a spec string like 'process:4', got {self.executor!r}"
            )
        if not self.executor:
            env_spec = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
            if env_spec:
                object.__setattr__(self, "executor", env_spec)
        if self.executor:
            parse_executor_spec(self.executor)  # fail at config time, not mid-build
        if not 0.0 < self.fd_theta <= 1.0:
            raise ValueError(f"fd_theta must be in (0, 1], got {self.fd_theta}")
        if self.min_rows < 1:
            raise ValueError(f"min_rows must be >= 1, got {self.min_rows}")
        if not 0.0 <= self.edge_threshold <= 1.0:
            raise ValueError(
                f"edge_threshold must be in [0, 1], got {self.edge_threshold}"
            )
        if self.conflict_threshold > 0.0:
            raise ValueError(
                "conflict_threshold is a negative-weight threshold and must be <= 0, "
                f"got {self.conflict_threshold}"
            )
        if self.overlap_threshold < 1:
            raise ValueError(
                f"overlap_threshold must be >= 1, got {self.overlap_threshold}"
            )
        if self.conflict_strategy not in {"greedy", "majority"}:
            raise ValueError(
                "conflict_strategy must be 'greedy' or 'majority', "
                f"got {self.conflict_strategy!r}"
            )
        if self.edit_fraction < 0:
            raise ValueError(
                f"edit_fraction must be non-negative, got {self.edit_fraction}"
            )
        if self.edit_cap < 0:
            raise ValueError(f"edit_cap must be non-negative, got {self.edit_cap}")
        if self.min_domains < 1:
            raise ValueError(f"min_domains must be >= 1, got {self.min_domains}")
        if not isinstance(self.artifact_path, str):
            raise ValueError(
                f"artifact_path must be a string path (or empty to disable), "
                f"got {self.artifact_path!r}"
            )
        if self.retry_attempts < 0:
            raise ValueError(
                f"retry_attempts must be >= 0, got {self.retry_attempts}"
            )
        if self.retry_backoff_seconds < 0:
            raise ValueError(
                f"retry_backoff_seconds must be >= 0, got {self.retry_backoff_seconds}"
            )
        if self.retry_backoff_cap_seconds < self.retry_backoff_seconds:
            raise ValueError(
                f"retry_backoff_cap_seconds ({self.retry_backoff_cap_seconds}) must "
                f"be >= retry_backoff_seconds ({self.retry_backoff_seconds})"
            )

    def effective_executor(self) -> str:
        """The executor spec every parallel stage runs on.

        :attr:`executor` (which includes a ``REPRO_EXECUTOR`` environment
        override applied at construction), or ``"serial"`` when unset.
        """
        return self.executor or "serial"

    def retry_policy(
        self,
        *,
        retry_on: tuple[type[BaseException], ...] | None = None,
    ) -> RetryPolicy:
        """The :class:`~repro.faults.RetryPolicy` this config's knobs select.

        One policy shape feeds every resilience site — exec-backend pool
        rebuilds, per-task transient retries, and the watcher's hot-swap
        retries — so operators tune a single budget.  ``retry_on`` overrides
        the covered exception types; the default defers to
        :data:`repro.exec.DEFAULT_RETRY_POLICY`'s transient set.
        """
        from repro.exec.backend import DEFAULT_RETRY_POLICY

        return RetryPolicy(
            attempts=self.retry_attempts,
            base_seconds=self.retry_backoff_seconds,
            max_seconds=self.retry_backoff_cap_seconds,
            retry_on=(
                retry_on if retry_on is not None else DEFAULT_RETRY_POLICY.retry_on
            ),
        )

    def with_overrides(self, **kwargs: Any) -> "SynthesisConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls) -> "SynthesisConfig":
        """Configuration matching the parameter values reported in the paper."""
        return cls()

    @classmethod
    def positive_only(cls) -> "SynthesisConfig":
        """The ``SynthesisPos`` ablation: ignore FD-induced negative signals."""
        return cls(use_negative_edges=False)
