"""Executor equivalence: serial and process executors are byte-identical.

The whole point of :mod:`repro.exec` is that the executor spec is a pure
performance knob.  These tests pin that down at every level the pool is
wired into:

* full :class:`PipelineResult`s (extraction sharding + blocked-pair scoring),
* incremental refresh results (:func:`repro.store.incremental.refresh_artifact`),
* daemon-served responses for every executor spec (the daemon takes only the
  spec's worker count, as dispatcher threads), via a hypothesis property over
  arbitrary request programs.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    MappingService,
)
from repro.core.config import SynthesisConfig
from repro.core.pipeline import PipelineResult, SynthesisPipeline
from repro.corpus.corpus import TableCorpus
from repro.corpus.seeds import get_seed_relation
from repro.corpus.table import Table
from repro.serving import SynthesisDaemon

BACKENDS = ("serial", "process:2")


def canonical_result(result: PipelineResult, *, with_stats: bool = True) -> str:
    """Byte-comparable form of a pipeline run (everything except timings).

    ``with_stats=False`` drops the extraction accounting: an incremental
    refresh only *extracts* the changed tables (reusing the rest), so its
    stats legitimately cover fewer tables than a cold run's while the
    mappings, curation, and candidates are identical.
    """
    def mapping_repr(mapping):
        return (
            mapping.mapping_id,
            sorted((pair.left, pair.right) for pair in mapping.pairs),
            sorted(mapping.source_tables),
            sorted(mapping.domains),
        )

    return repr(
        (
            [mapping_repr(m) for m in result.mappings],
            [mapping_repr(m) for m in result.curated],
            [
                (c.table_id, c.source_table_id, [(p.left, p.right) for p in c.pairs])
                for c in result.candidates
            ],
            sorted(result.extraction_stats.items()) if with_stats else (),
        )
    )


def canonical_responses(responses) -> str:
    """Byte-comparable form of a served batch: everything except timing."""
    return repr([(r.kind, r.request_index, r.result, r.error) for r in responses])


def _config(executor: str, **overrides) -> SynthesisConfig:
    # PMI off keeps refresh exactly equal to a cold run (its filter is
    # corpus-global); small thresholds keep the fragment corpus productive.
    return SynthesisConfig(
        executor=executor,
        use_pmi_filter=False,
        min_domains=1,
        min_mapping_size=2,
        min_rows=4,
        **overrides,
    )


def _grown(corpus: TableCorpus, rows: list[tuple[str, str]]) -> TableCorpus:
    extra = Table.from_rows(
        table_id="delta-0-growth",
        header=["name", "code"],
        rows=[list(row) for row in rows],
        domain="delta.example",
    )
    return TableCorpus(corpus.tables() + [extra], name=f"{corpus.name}+delta")


# ---------------------------------------------------------------------------------------
# Pipeline and refresh equivalence
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_reference(store_corpus):
    pipeline = SynthesisPipeline(_config("serial"))
    result = pipeline.run(store_corpus)
    return pipeline, canonical_result(result)


@pytest.mark.parametrize("executor", BACKENDS[1:])
def test_pipeline_result_identical_across_backends(
    executor, store_corpus, serial_reference
):
    _, expected = serial_reference
    result = SynthesisPipeline(_config(executor)).run(store_corpus)
    assert canonical_result(result) == expected


@pytest.mark.parametrize("executor", BACKENDS[1:])
def test_pipeline_with_pmi_filter_identical_across_backends(
    executor, small_web_corpus
):
    # The PMI index is shipped read-only to extraction shards; results must
    # not depend on which worker computed which shard.
    serial = SynthesisPipeline(SynthesisConfig(executor="serial")).run(small_web_corpus)
    parallel = SynthesisPipeline(SynthesisConfig(executor=executor)).run(small_web_corpus)
    assert canonical_result(parallel) == canonical_result(serial)


@pytest.mark.parametrize("executor", BACKENDS[1:])
def test_sharded_extraction_really_ran_on_its_backend(executor, small_web_corpus):
    """The fallback flag must stay False — a silent serial fallback would make
    every sharding equivalence test vacuous."""
    from repro.extraction.candidates import CandidateExtractor

    reference = CandidateExtractor(SynthesisConfig(executor="serial"))
    expected, expected_stats = reference.extract(small_web_corpus)
    sharded = CandidateExtractor(SynthesisConfig(executor=executor))
    candidates, stats = sharded.extract(small_web_corpus)
    assert not sharded.last_parallel_fallback
    assert [c.table_id for c in candidates] == [c.table_id for c in expected]
    assert stats.as_dict() == expected_stats.as_dict()


grown_rows = st.lists(
    st.sampled_from(list(get_seed_relation("state_abbrev").pairs)),
    min_size=4,
    max_size=10,
    unique=True,
)


@pytest.fixture(scope="module")
def base_runs(store_corpus):
    """One persisted base run per backend, refreshed repeatedly by the property."""
    runs = {}
    for executor in BACKENDS:
        pipeline = SynthesisPipeline(_config(executor))
        pipeline.run(store_corpus)
        runs[executor] = (pipeline, pipeline.last_artifact)
    return runs


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=grown_rows)
def test_refresh_identical_across_backends(rows, store_corpus, base_runs):
    """Refreshing under any backend equals a cold serial run on the new corpus."""
    grown = _grown(store_corpus, [list(row) for row in rows])
    cold = canonical_result(
        SynthesisPipeline(_config("serial")).run(grown), with_stats=False
    )
    for executor, (pipeline, base_artifact) in base_runs.items():
        refreshed, stats = pipeline.refresh(grown, base_artifact)
        assert canonical_result(refreshed, with_stats=False) == cold, executor
        assert stats.tables_added == 1
        assert not stats.full_rebuild


def test_refresh_reuses_scores_under_process_backend(store_corpus):
    pipeline = SynthesisPipeline(_config("process:2"))
    pipeline.run(store_corpus)
    grown = _grown(store_corpus, list(get_seed_relation("state_abbrev").pairs)[:6])
    _, stats = pipeline.refresh(grown)
    assert stats.pairs_reused > 0  # the backend change must not disable reuse


# ---------------------------------------------------------------------------------------
# Daemon equivalence (serial-spec and process-spec serving)
# ---------------------------------------------------------------------------------------
_SEED_VALUES = tuple(
    value
    for relation in ("state_abbrev", "country_iso3")
    for left, right in get_seed_relation(relation).pairs
    for value in (left, right)
)

values = st.one_of(
    st.sampled_from(_SEED_VALUES),
    st.text(alphabet=string.ascii_letters + " -.", min_size=0, max_size=8),
)
fill_requests = st.builds(
    FillRequest,
    keys=st.lists(values, max_size=5).map(tuple),
    examples=st.none() | st.dictionaries(st.integers(-1, 6), values, max_size=2),
)
join_requests = st.builds(
    JoinRequest,
    left_keys=st.lists(values, max_size=4).map(tuple),
    right_keys=st.lists(values, max_size=4).map(tuple),
)
correct_requests = st.builds(
    CorrectRequest, values=st.lists(values, max_size=6).map(tuple)
)
envelopes = st.one_of(
    st.tuples(st.just("autofill"), st.lists(fill_requests, max_size=2)),
    st.tuples(st.just("autojoin"), st.lists(join_requests, max_size=2)),
    st.tuples(st.just("autocorrect"), st.lists(correct_requests, max_size=2)),
)
programs = st.lists(envelopes, min_size=1, max_size=5)


@pytest.fixture(scope="module")
def served_artifact(store_corpus, tmp_path_factory):
    pipeline = SynthesisPipeline(_config("serial"))
    pipeline.run(store_corpus)
    return pipeline.save_artifact(
        tmp_path_factory.mktemp("exec-equivalence") / "served.gz"
    )


@pytest.fixture(scope="module")
def sync_service(served_artifact) -> MappingService:
    return MappingService.from_artifact(served_artifact)


@pytest.fixture(scope="module")
def backend_daemons(served_artifact):
    # The spec no longer sizes a daemon; each one is given the dispatcher
    # count its spec names, so the suite still covers one and two workers.
    daemons = {
        spec: SynthesisDaemon.from_artifact(
            served_artifact,
            config=SynthesisConfig(executor=spec),
            watch=False,
            workers=workers,
            queue_size=64,
        )
        for spec, workers in (("serial", 1), ("process:2", 2))
    }
    yield daemons
    for daemon in daemons.values():
        daemon.close()


@pytest.mark.daemon
def test_backend_daemons_run_one_and_two_dispatchers(backend_daemons):
    assert backend_daemons["serial"].workers == 1
    assert backend_daemons["process:2"].workers == 2


@pytest.mark.daemon
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(program=programs)
def test_daemon_responses_identical_across_backends(
    program, backend_daemons, sync_service
):
    """Every backend's daemon answers exactly like the synchronous service."""
    tickets = {
        spec: [daemon.submit(kind, batch, block=True) for kind, batch in program]
        for spec, daemon in backend_daemons.items()
    }
    for (kind, batch), *per_backend in zip(program, *tickets.values()):
        expected = canonical_responses(getattr(sync_service, kind)(batch))
        for spec, ticket in zip(tickets, per_backend):
            result = ticket.result(timeout=60)
            assert canonical_responses(result.responses) == expected, spec


@pytest.mark.daemon
def test_process_spec_daemon_serves_on_threads_and_patches_in_place(
    served_artifact, sync_service
):
    """Under a ``process:N`` config a daemon serves on threads; deltas patch in place."""
    with SynthesisDaemon.from_artifact(
        served_artifact,
        config=SynthesisConfig(executor="process:2"),
        watch=False,
        workers=2,
    ) as daemon:
        assert daemon.workers == 2
        pool = daemon.generation.service.mapping_pool
        assert len(pool) >= 4
        dropped = pool[0]
        pairs = sorted((pair.left, pair.right) for pair in dropped.pairs)[:3]
        lefts = tuple(left for left, _ in pairs)
        rights = tuple(right for _, right in pairs)
        probes = [
            ("autofill", [FillRequest(keys=lefts), FillRequest(keys=("Texas",))]),
            ("autojoin", [JoinRequest(left_keys=lefts, right_keys=rights)]),
            ("autocorrect", [CorrectRequest(values=lefts + rights)]),
        ]

        def assert_serves_like(oracle: MappingService) -> None:
            for kind, batch in probes:
                served = daemon.submit(kind, batch, block=True).result(timeout=60)
                expected = canonical_responses(getattr(oracle, kind)(batch))
                assert canonical_responses(served.responses) == expected

        assert_serves_like(sync_service)
        patched = daemon.apply_delta([], [dropped.mapping_id], seq=1)
        assert patched.number == 1
        assert daemon.generation.number == 1
        assert dropped.mapping_id not in {
            mapping.mapping_id for mapping in patched.service.mapping_pool
        }
        assert_serves_like(
            MappingService(
                [m for m in pool if m.mapping_id != dropped.mapping_id],
                **sync_service.serving_kwargs,
            )
        )
