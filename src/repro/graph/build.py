"""Sparse compatibility-graph construction (paper §4.1 "Efficiency").

Scoring all ``O(N²)`` table pairs is infeasible, but most pairs share no values at
all and would score zero.  The builder therefore blocks candidate pairs with an
inverted index: pairs of tables are scored for ``w+`` only if they share at least
``θ_overlap`` exact (normalized) value pairs, and for ``w−`` only if they share at
least ``θ_overlap`` left-hand-side values.

**Contract: a negative edge exists only between two candidates of the same
positive component.**  The partitioner groups each component connected by
positive edges on its own (Appendix F), so a negative edge between two
components can never change a group; ``w−`` is scored only where it is read.
The build therefore runs in two rounds:

1. every positive-blocked pair is scored for ``w+`` (fused with ``w−`` in one
   pass when the pair is blocked both ways);
2. the positive edges define the components, and only the ``w−``-only pairs
   whose two candidates share a component are scored.  A fused ``w−`` of a
   pair that crosses components is dropped.

The build itself is engineered as a fast path:

* every table is profiled exactly once (:mod:`repro.graph.profile`) and both
  blocking passes read the profile key sets instead of re-normalizing values;
* when :attr:`SynthesisConfig.executor` selects ``process:N``, both rounds'
  blocked pairs fan out through one :meth:`~repro.exec.fanout.FanOut.session`
  (one pool) under the config's :meth:`~SynthesisConfig.retry_policy`; each
  worker rebuilds its own scorer and profiles once, through a spawn-safe
  initializer.  Scoring is a pure function of the pair, so a pooled build is
  deterministic and bit-identical to the serial path.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.binary_table import BinaryTable
from repro.core.config import SynthesisConfig
from repro.exec.fanout import FanOut
from repro.graph.compatibility import CompatibilityScorer
from repro.graph.connected import connected_components
from repro.graph.profile import TableProfile
from repro.text.synonyms import SynonymDictionary

__all__ = ["CompatibilityGraph", "GraphBuilder", "BuildStats"]


@dataclass
class CompatibilityGraph:
    """A weighted graph over candidate binary tables.

    Vertices are table indices into :attr:`tables`; edges are stored as dictionaries
    keyed by the ordered index pair ``(i, j)`` with ``i < j``.  An adjacency map is
    maintained alongside the edge dictionaries so neighborhood queries do not scan
    every edge.

    A graph from :meth:`GraphBuilder.build` (and the incremental engine and the
    artifact store, which reproduce it) holds negative edges only between two
    vertices of the same positive component: :meth:`negative` of a pair in
    different components reads 0 whatever the pair's ``w−`` is.  That is
    complete for the greedy partitioner, which reads negatives only inside a
    component.  A reader that looks at ``negative`` across components — the LP
    and exact solvers do — must be handed a single component
    (:meth:`positive_components` + :meth:`subgraph`).
    """

    tables: list[BinaryTable]
    positive_edges: dict[tuple[int, int], float] = field(default_factory=dict)
    negative_edges: dict[tuple[int, int], float] = field(default_factory=dict)
    _adjacency: dict[int, set[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for first, second in self.positive_edges:
            self._link(first, second)
        for first, second in self.negative_edges:
            self._link(first, second)

    @staticmethod
    def _key(first: int, second: int) -> tuple[int, int]:
        return (first, second) if first < second else (second, first)

    def _link(self, first: int, second: int) -> None:
        self._adjacency.setdefault(first, set()).add(second)
        self._adjacency.setdefault(second, set()).add(first)

    # -- Accessors --------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (candidate tables)."""
        return len(self.tables)

    @property
    def num_positive_edges(self) -> int:
        """Number of positive edges."""
        return len(self.positive_edges)

    @property
    def num_negative_edges(self) -> int:
        """Number of negative edges."""
        return len(self.negative_edges)

    def positive(self, first: int, second: int) -> float:
        """Positive weight between two vertices (0 if absent)."""
        return self.positive_edges.get(self._key(first, second), 0.0)

    def negative(self, first: int, second: int) -> float:
        """Negative weight between two vertices (0 if absent)."""
        return self.negative_edges.get(self._key(first, second), 0.0)

    def add_positive(self, first: int, second: int, weight: float) -> None:
        """Add (or overwrite) a positive edge."""
        if first == second:
            raise ValueError("self-loops are not allowed")
        if weight < 0:
            raise ValueError(f"positive weight must be >= 0, got {weight}")
        self.positive_edges[self._key(first, second)] = weight
        self._link(first, second)

    def add_negative(self, first: int, second: int, weight: float) -> None:
        """Add (or overwrite) a negative edge."""
        if first == second:
            raise ValueError("self-loops are not allowed")
        if weight > 0:
            raise ValueError(f"negative weight must be <= 0, got {weight}")
        self.negative_edges[self._key(first, second)] = weight
        self._link(first, second)

    def neighbors(self, vertex: int) -> set[int]:
        """Vertices connected to ``vertex`` by either kind of edge."""
        return set(self._adjacency.get(vertex, ()))

    def positive_components(self) -> list[list[int]]:
        """Connected components induced by positive edges only (Appendix F)."""
        return connected_components(range(self.num_vertices), self.positive_edges.keys())

    def component_labels(self) -> list[int]:
        """Each vertex's index into :meth:`positive_components`."""
        labels = [0] * self.num_vertices
        for label, component in enumerate(self.positive_components()):
            for vertex in component:
                labels[vertex] = label
        return labels

    def subgraph(self, vertices: list[int]) -> "CompatibilityGraph":
        """Return the induced subgraph on ``vertices`` (indices are re-numbered)."""
        index_of = {vertex: position for position, vertex in enumerate(vertices)}
        sub = CompatibilityGraph(tables=[self.tables[vertex] for vertex in vertices])
        for (a, b), weight in self.positive_edges.items():
            if a in index_of and b in index_of:
                sub.add_positive(index_of[a], index_of[b], weight)
        for (a, b), weight in self.negative_edges.items():
            if a in index_of and b in index_of:
                sub.add_negative(index_of[a], index_of[b], weight)
        return sub


@dataclass
class BuildStats:
    """Counters describing the most recent :meth:`GraphBuilder.build` call."""

    num_tables: int = 0
    pairs_blocked_positive: int = 0
    pairs_blocked_negative: int = 0
    #: Scoring calls, both rounds (see the module docstring).
    pairs_scored: int = 0
    #: The second round's calls: ``w−`` alone, for pairs blocked on left
    #: values only whose candidates share a positive component.
    pairs_scored_negative_only: int = 0
    #: Pairs whose scores were taken from ``reusable_scores`` instead.
    pairs_reused: int = 0
    match_cache_hits: int = 0
    match_cache_misses: int = 0
    num_workers: int = 1
    executor: str = "serial"
    parallel_fallback: bool = False

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of memoized ``matches()`` lookups answered from cache."""
        total = self.match_cache_hits + self.match_cache_misses
        return self.match_cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reporting artifacts."""
        return {
            "num_tables": self.num_tables,
            "pairs_blocked_positive": self.pairs_blocked_positive,
            "pairs_blocked_negative": self.pairs_blocked_negative,
            "pairs_scored": self.pairs_scored,
            "pairs_scored_negative_only": self.pairs_scored_negative_only,
            "pairs_reused": self.pairs_reused,
            "match_cache_hits": self.match_cache_hits,
            "match_cache_misses": self.match_cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "num_workers": self.num_workers,
            "executor": self.executor,
            "parallel_fallback": self.parallel_fallback,
        }


# -- Process-pool scoring workers -------------------------------------------------------
# Each worker builds its own scorer and profiles once (via the pool initializer) and
# then scores chunks of blocked pairs.  Scoring is deterministic, so fan-out cannot
# change the resulting graph.
_WORKER_SCORER: CompatibilityScorer | None = None
_WORKER_PROFILES: list[TableProfile] = []


def _init_scoring_worker(
    tables: list[BinaryTable],
    config: SynthesisConfig,
    synonyms: SynonymDictionary | None,
) -> None:
    global _WORKER_SCORER, _WORKER_PROFILES
    _WORKER_SCORER = CompatibilityScorer(config, synonyms)
    _WORKER_PROFILES = [_WORKER_SCORER.profile(table) for table in tables]


def _score_pair_chunk(
    chunk: list[tuple[int, int, bool, bool, int, int]],
) -> tuple[list[tuple[int, int, float, float]], int, int]:
    assert _WORKER_SCORER is not None
    # Workers process several chunks; report per-chunk deltas, not the worker's
    # running totals, so summing chunk results doesn't over-count.
    hits_before = _WORKER_SCORER.match_cache_hits
    misses_before = _WORKER_SCORER.match_cache_misses
    results = [
        task[:2] + _score_one(_WORKER_SCORER, _WORKER_PROFILES, task) for task in chunk
    ]
    return (
        results,
        _WORKER_SCORER.match_cache_hits - hits_before,
        _WORKER_SCORER.match_cache_misses - misses_before,
    )


def _score_one(
    scorer: CompatibilityScorer,
    profiles: list[TableProfile],
    task: tuple[int, int, bool, bool, int, int],
) -> tuple[float, float]:
    """Score one blocked pair, computing only the sides the blocking asked for."""
    first, second, need_positive, need_negative, shared_pairs, shared_lefts = task
    first_profile, second_profile = profiles[first], profiles[second]
    if need_positive and need_negative:
        scores = scorer.score_profiles(
            first_profile,
            second_profile,
            shared_pairs=shared_pairs,
            shared_lefts=shared_lefts,
        )
        return scores.positive, scores.negative
    if need_positive:
        return scorer.positive_profiles(first_profile, second_profile), 0.0
    return 0.0, scorer.negative_profiles(first_profile, second_profile)


class GraphBuilder:
    """Builds the sparse compatibility graph from candidate tables."""

    def __init__(
        self,
        config: SynthesisConfig | None = None,
        synonyms: SynonymDictionary | None = None,
    ) -> None:
        self.config = config or SynthesisConfig()
        self.scorer = CompatibilityScorer(self.config, synonyms)
        self.last_build_stats = BuildStats()

    # -- Blocking --------------------------------------------------------------------
    @staticmethod
    def _pair_counts_from_postings(
        postings: Iterable[Iterable[int]],
    ) -> dict[tuple[int, int], int]:
        """Count co-occurrences of table indices across inverted-index postings.

        ``postings`` yields, for each indexed key, the sorted table indices whose
        key set contains it; the result maps each index pair to the number of keys
        they share.
        """
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for indices in postings:
            indices = list(indices)
            if len(indices) < 2:
                continue
            for i in range(len(indices)):
                first = indices[i]
                for j in range(i + 1, len(indices)):
                    counts[(first, indices[j])] += 1
        return counts

    def _candidate_pairs_by_value_pair(
        self, tables: list[BinaryTable]
    ) -> dict[tuple[int, int], int]:
        """Block on exact normalized value pairs; returns shared-pair counts."""
        posting: dict[tuple[str, str], list[int]] = defaultdict(list)
        for index, table in enumerate(tables):
            for key in self.scorer.profile(table).pair_keys:
                posting[key].append(index)
        return self._pair_counts_from_postings(posting.values())

    def _candidate_pairs_by_left_value(
        self, tables: list[BinaryTable]
    ) -> dict[tuple[int, int], int]:
        """Block on exact normalized left values; returns shared-left counts."""
        posting: dict[str, list[int]] = defaultdict(list)
        for index, table in enumerate(tables):
            for key in self.scorer.profile(table).left_key_set:
                posting[key].append(index)
        return self._pair_counts_from_postings(posting.values())

    # -- Scoring ---------------------------------------------------------------------
    def _score_blocked_pairs(
        self,
        fan: FanOut,
        tables: list[BinaryTable],
        tasks: list[tuple[int, int, bool, bool, int, int]],
    ) -> dict[tuple[int, int], tuple[float, float]]:
        """Score blocked pairs, fanning chunks out across the build's pool.

        Called once per round of a build with the build's one ``fan``, inside
        its :meth:`FanOut.session`, whose workers build their own scorer and
        profiles once via the spawn-safe initializer.  Results are keyed by
        the ``(first, second)`` pair each chunk entry carries.  Once a pool
        has failed, the rest of the build stays sequential.
        """
        stats = self.last_build_stats
        results: dict[tuple[int, int], tuple[float, float]] = {}
        if fan.should_fan_out(len(tasks)):
            chunk_outputs = fan.run_blocks(_score_pair_chunk, fan.chunk(tasks))
            # None: the pool failed (pickling, sandboxing, missing /dev/shm,
            # an exhausted retry budget) and the sequential path below
            # computes the same result.
            if chunk_outputs is not None:
                for chunk_results, chunk_hits, chunk_misses in chunk_outputs:
                    stats.match_cache_hits += chunk_hits
                    stats.match_cache_misses += chunk_misses
                    for first, second, positive, negative in chunk_results:
                        results[(first, second)] = (positive, negative)
                stats.num_workers = fan.workers
                stats.executor = fan.spec
                return results
        hits_before = self.scorer.match_cache_hits
        misses_before = self.scorer.match_cache_misses
        profiles = [self.scorer.profile(table) for table in tables]
        for task in tasks:
            results[task[:2]] = _score_one(self.scorer, profiles, task)
        stats.match_cache_hits += self.scorer.match_cache_hits - hits_before
        stats.match_cache_misses += self.scorer.match_cache_misses - misses_before
        return results

    # -- Public API --------------------------------------------------------------------
    def build(
        self,
        tables: list[BinaryTable],
        *,
        reusable_scores: dict[tuple[str, str], tuple[float, float]] | None = None,
        reusable_ids: set[str] | None = None,
        reusable_components: dict[str, int] | None = None,
    ) -> CompatibilityGraph:
        """Score blocked table pairs and assemble the compatibility graph.

        Positive edges below ``θ_edge`` are dropped; negative edges are kept with
        their raw weight (the partitioner applies the τ threshold), and only
        inside a positive component (see the module docstring).  The blocking
        overlap counts double as the pairs' ``shared_pairs`` / ``shared_lefts``
        values, so nothing is recomputed during scoring.

        ``reusable_scores`` / ``reusable_ids`` / ``reusable_components`` support
        incremental maintenance (:mod:`repro.store.incremental`): they are the
        id-keyed ``(w+, w−)`` of a previous build, the ids of candidates that
        are unchanged since, and those candidates' positive-component labels
        in that build (a candidate that was alone in its component may be
        absent).  Blocking overlap between two tables depends only on those
        two tables' key sets, so a pair of unchanged tables was blocked
        identically before.  Its ``w+`` was therefore scored, and a missing
        key means it fell below ``θ_edge``.  Its ``w−`` was scored only if the
        pair lay inside one previous component, so only then does a missing
        key mean "no conflict"; any other pair that the new components join is
        scored again.  Without ``reusable_components`` no ``w−`` is reused.
        """
        graph = CompatibilityGraph(tables=list(tables))
        self.last_build_stats = BuildStats(num_tables=len(graph.tables))
        fan = FanOut.from_config(self.config)
        # One pool for both rounds: its workers profile the tables once.
        with fan.session(
            initializer=_init_scoring_worker,
            initargs=(graph.tables, self.config, self.scorer.synonyms),
        ):
            self._score_into(
                graph, fan, reusable_scores, reusable_ids, reusable_components
            )
        # The flag keeps a fallback to the sequential path observable.
        self.last_build_stats.parallel_fallback = fan.fallback
        return graph

    def _score_into(
        self,
        graph: CompatibilityGraph,
        fan: FanOut,
        reusable_scores: dict[tuple[str, str], tuple[float, float]] | None,
        reusable_ids: set[str] | None,
        reusable_components: dict[str, int] | None,
    ) -> None:
        """Block, score both rounds and add the edges to ``graph`` (see :meth:`build`)."""
        stats = self.last_build_stats
        pair_counts = self._candidate_pairs_by_value_pair(graph.tables)
        left_counts = self._candidate_pairs_by_left_value(graph.tables)

        overlap = self.config.overlap_threshold
        positive_candidates = sorted(
            pair for pair, count in pair_counts.items() if count >= overlap
        )
        negative_candidates = (
            {pair for pair, count in left_counts.items() if count >= overlap}
            if self.config.use_negative_edges
            else set()
        )
        stats.pairs_blocked_positive = len(positive_candidates)
        stats.pairs_blocked_negative = len(negative_candidates)

        stable_ids = reusable_ids if reusable_ids is not None else set()
        cached_scores = reusable_scores if reusable_scores is not None else {}
        base_component = reusable_components if reusable_components is not None else {}

        def cached(first: int, second: int) -> tuple[tuple[float, float], bool] | None:
            """The previous ``(w+, w−)`` of a pair of unchanged candidates, and
            whether its ``w−`` is known; ``None`` for any other pair."""
            first_id = graph.tables[first].table_id
            second_id = graph.tables[second].table_id
            if first_id not in stable_ids or second_id not in stable_ids:
                return None
            key = (first_id, second_id) if first_id <= second_id else (second_id, first_id)
            label = base_component.get(first_id)
            known = label is not None and label == base_component.get(second_id)
            return cached_scores.get(key, (0.0, 0.0)), known

        # Round 1: w+ of every positive-blocked pair (fused with w− when the
        # pair is blocked both ways).
        negative_scores: dict[tuple[int, int], float] = {}
        positive_scores: dict[tuple[int, int], float] = {}
        tasks = []
        for pair in positive_candidates:
            first, second = pair
            negative_blocked = pair in negative_candidates
            reuse = cached(first, second)
            if reuse is not None:
                (positive_scores[pair], negative), known = reuse
                if negative_blocked and known:
                    negative_scores[pair] = negative
                stats.pairs_reused += 1
                continue
            tasks.append(
                (first, second, True, negative_blocked,
                 pair_counts[pair], left_counts.get(pair, 0))
            )
        for pair, (positive, negative) in self._score_blocked_pairs(
            fan, graph.tables, tasks
        ).items():
            positive_scores[pair] = positive
            if pair in negative_candidates:
                negative_scores[pair] = negative
        stats.pairs_scored = len(tasks)

        for pair in positive_candidates:
            weight = positive_scores[pair]
            if weight >= self.config.edge_threshold:
                graph.add_positive(pair[0], pair[1], weight)

        # Round 2: w− only for pairs inside one positive component.
        component_of = graph.component_labels()
        inside = sorted(
            pair
            for pair in negative_candidates
            if component_of[pair[0]] == component_of[pair[1]]
        )
        tasks = []
        for pair in inside:
            if pair in negative_scores:
                continue
            reuse = cached(*pair)
            if reuse is not None and reuse[1]:
                negative_scores[pair] = reuse[0][1]
                stats.pairs_reused += 1
                continue
            tasks.append((pair[0], pair[1], False, True, 0, left_counts[pair]))
        for pair, (_, negative) in self._score_blocked_pairs(
            fan, graph.tables, tasks
        ).items():
            negative_scores[pair] = negative
        stats.pairs_scored += len(tasks)
        stats.pairs_scored_negative_only = len(tasks)

        for pair in inside:
            weight = negative_scores[pair]
            if weight < 0.0:
                graph.add_negative(pair[0], pair[1], weight)
