"""Candidate two-column table extraction (paper §3, Algorithm 1).

For every table in the corpus the extractor:

1. drops columns whose NPMI coherence is below a threshold (PMI filter, §3.1);
2. enumerates every ordered pair of the surviving columns;
3. keeps a pair only if the approximate FD ``left → right`` holds (§3.2) and the
   pair has enough distinct rows to be useful.

The paper reports that roughly 78% of raw column pairs are filtered out by these
two steps; :class:`ExtractionStats` records the same accounting for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.binary_table import BinaryTable
from repro.core.config import SynthesisConfig
from repro.corpus.corpus import TableCorpus
from repro.corpus.table import Table
from repro.exec.fanout import FanOut
from repro.extraction.cooccurrence import CooccurrenceIndex
from repro.extraction.fd import column_pair_fd_ratio
from repro.extraction.pmi import column_coherence

__all__ = ["CandidateExtractor", "ExtractionStats"]


@dataclass
class ExtractionStats:
    """Accounting of how many columns / column pairs each filter removed."""

    num_tables: int = 0
    num_columns: int = 0
    columns_removed_by_pmi: int = 0
    raw_pairs: int = 0
    pairs_removed_by_fd: int = 0
    pairs_removed_by_size: int = 0
    candidates: int = 0
    coherence_by_column: dict[str, float] = field(default_factory=dict)

    @property
    def filtered_fraction(self) -> float:
        """Fraction of raw ordered pairs that did NOT survive extraction."""
        if self.raw_pairs == 0:
            return 0.0
        return 1.0 - self.candidates / self.raw_pairs

    def merge(self, other: "ExtractionStats") -> None:
        """Fold another shard's accounting into this one.

        Extraction is per-table, so summing per-shard counters (and merging the
        disjoint per-column coherence maps) reproduces the exact stats a
        sequential pass over the concatenated shards would have produced.
        """
        self.num_tables += other.num_tables
        self.num_columns += other.num_columns
        self.columns_removed_by_pmi += other.columns_removed_by_pmi
        self.raw_pairs += other.raw_pairs
        self.pairs_removed_by_fd += other.pairs_removed_by_fd
        self.pairs_removed_by_size += other.pairs_removed_by_size
        self.candidates += other.candidates
        self.coherence_by_column.update(other.coherence_by_column)

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a flat dictionary (for reports)."""
        return {
            "num_tables": self.num_tables,
            "num_columns": self.num_columns,
            "columns_removed_by_pmi": self.columns_removed_by_pmi,
            "raw_pairs": self.raw_pairs,
            "pairs_removed_by_fd": self.pairs_removed_by_fd,
            "pairs_removed_by_size": self.pairs_removed_by_size,
            "candidates": self.candidates,
            "filtered_fraction": self.filtered_fraction,
        }


# Per-worker extraction state, installed by the spawn-safe pool initializer.
# It is set only in worker processes, which are private to one pool (one
# extract_tables call), so concurrent extractions never share it.
_EXTRACT_CONFIG: SynthesisConfig | None = None
_EXTRACT_INDEX: CooccurrenceIndex | None = None


def _init_extract_worker(
    config: SynthesisConfig, index: CooccurrenceIndex | None
) -> None:
    global _EXTRACT_CONFIG, _EXTRACT_INDEX
    _EXTRACT_CONFIG = config
    _EXTRACT_INDEX = index


def _extract_shard_in_worker(
    shard: list[Table],
) -> tuple[list[BinaryTable], ExtractionStats]:
    """Extract one shard of tables (module-level so process workers can run it).

    Extraction is a pure per-table function (the corpus-global PMI index is
    built once and shipped read-only), so sharding cannot change any candidate.
    """
    assert _EXTRACT_CONFIG is not None
    extractor = CandidateExtractor(_EXTRACT_CONFIG)
    stats = ExtractionStats()
    candidates: list[BinaryTable] = []
    for table in shard:
        candidates.extend(
            extractor.extract_from_table(table, index=_EXTRACT_INDEX, stats=stats)
        )
    return candidates, stats


class CandidateExtractor:
    """Extracts candidate binary tables from a corpus (Algorithm 1)."""

    def __init__(self, config: SynthesisConfig | None = None) -> None:
        self.config = config or SynthesisConfig()
        #: True when the most recent extract() fanned shards across a process
        #: pool but had to fall back to the sequential path (pool failure).
        self.last_parallel_fallback = False

    # -- Column-level filtering -----------------------------------------------------
    def _coherent_column_indices(
        self,
        table: Table,
        index: CooccurrenceIndex | None,
        stats: ExtractionStats,
    ) -> list[int]:
        if not self.config.use_pmi_filter or index is None:
            return list(range(table.num_columns))
        keep: list[int] = []
        for position, column in enumerate(table.columns):
            coherence = column_coherence(index, column.values)
            stats.coherence_by_column[f"{table.table_id}:{position}"] = coherence
            if coherence >= self.config.coherence_threshold:
                keep.append(position)
            else:
                stats.columns_removed_by_pmi += 1
        return keep

    # -- Pair-level filtering ----------------------------------------------------------
    def _candidate_from_pair(
        self,
        table: Table,
        left_index: int,
        right_index: int,
        stats: ExtractionStats,
    ) -> BinaryTable | None:
        rows = [
            (left.strip(), right.strip())
            for left, right in table.column_pair_rows(left_index, right_index)
            if left.strip() and right.strip()
        ]
        distinct_rows = list(dict.fromkeys(rows))
        if len(distinct_rows) < self.config.min_rows:
            stats.pairs_removed_by_size += 1
            return None
        if self.config.use_fd_filter:
            if column_pair_fd_ratio(distinct_rows) < self.config.fd_theta:
                stats.pairs_removed_by_fd += 1
                return None
        left_column = table.columns[left_index]
        right_column = table.columns[right_index]
        candidate = BinaryTable.from_rows(
            table_id=f"{table.table_id}#{left_index}->{right_index}",
            rows=distinct_rows,
            left_name=left_column.name,
            right_name=right_column.name,
            source_table_id=table.table_id,
            domain=table.domain,
        )
        candidate.metadata.update(table.metadata)
        return candidate

    # -- Public API ---------------------------------------------------------------------
    def extract_from_table(
        self,
        table: Table,
        index: CooccurrenceIndex | None = None,
        stats: ExtractionStats | None = None,
    ) -> list[BinaryTable]:
        """Extract candidate binary tables from one table."""
        stats = stats if stats is not None else ExtractionStats()
        stats.num_tables += 1
        stats.num_columns += table.num_columns
        keep = self._coherent_column_indices(table, index, stats)
        candidates: list[BinaryTable] = []
        for left_index in keep:
            for right_index in keep:
                if left_index == right_index:
                    continue
                stats.raw_pairs += 1
                candidate = self._candidate_from_pair(table, left_index, right_index, stats)
                if candidate is not None:
                    candidates.append(candidate)
                    stats.candidates += 1
        return candidates

    def extract(
        self, corpus: TableCorpus, index: CooccurrenceIndex | None = None
    ) -> tuple[list[BinaryTable], ExtractionStats]:
        """Extract candidates from every table in the corpus.

        If no co-occurrence index is supplied and the PMI filter is enabled, one is
        built from the corpus first.  When :attr:`SynthesisConfig.executor`
        selects ``process:N``, tables are sharded across a pool — mirroring how
        blocked-pair scoring fans out — with candidates concatenated in corpus
        order, so the output is byte-identical to the sequential pass.
        """
        if index is None and self.config.use_pmi_filter:
            index = CooccurrenceIndex.from_corpus(corpus)
        return self.extract_tables(list(corpus), index=index)

    def extract_tables(
        self, tables: list[Table], index: CooccurrenceIndex | None = None
    ) -> tuple[list[BinaryTable], ExtractionStats]:
        """Extract candidates from an explicit table list (corpus order).

        This is the shard-aware entry point :meth:`extract` and the incremental
        refresh path (:mod:`repro.store.incremental`) both go through; refresh
        passes only the changed tables.
        """
        fan = FanOut.from_config(self.config)
        shard_results = None
        if fan.should_fan_out(len(tables)):
            # Config + PMI index cross the process boundary once per worker
            # through the initializer, not once per shard task.  Shards come
            # back in shard order, so concatenation recovers the exact
            # sequential candidate ordering.  A pool failure (unpicklable
            # tables/index, a broken pool past its retry budget) returns None
            # and extraction runs in-process instead.
            with fan.session(
                initializer=_init_extract_worker, initargs=(self.config, index)
            ):
                shard_results = fan.run_blocks(
                    _extract_shard_in_worker, fan.chunk(tables)
                )
        self.last_parallel_fallback = fan.fallback
        if shard_results is not None:
            stats = ExtractionStats()
            candidates: list[BinaryTable] = []
            for shard_candidates, shard_stats in shard_results:
                candidates.extend(shard_candidates)
                stats.merge(shard_stats)
            return candidates, stats
        stats = ExtractionStats()
        candidates = []
        for table in tables:
            candidates.extend(self.extract_from_table(table, index=index, stats=stats))
        return candidates, stats
