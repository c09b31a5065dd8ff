"""Live delta serving suite: daemon and cluster answers track the update stream.

Locks the serving half of the update path's exactness promise: after any
interleaving of streamed deltas, a live :class:`SynthesisDaemon` (patched in
place, no generation swap) and a sharded :class:`ClusterRouter` (scatter
patches routed by the same hash ring as the artifact cutter) serve responses
byte-identical to a synchronous :class:`MappingService` built from a **cold
pipeline rebuild** over the updated corpus — including with one replica killed
mid-stream (replication 2 keeps every shard covered).

Also covers the in-place splice (a patch of any size keeps the generation
number, stats and breaker) and delta rejection on a closed daemon.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    MappingIndex,
    MappingService,
)
from repro.cluster import ClusterRouter
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.corpus.seeds import get_seed_relation
from repro.serving import DaemonStoppedError, SynthesisDaemon
from repro.store.artifact import save_artifact
from repro.updates import DeltaLog, IncrementalEngine, TableDelta, UpdateStream
from repro.updates import stream as stream_module

from store_helpers import make_fragment_corpus, seed_fragments
from test_updates_engine import CONFIG, DELTA_CATALOG

pytestmark = pytest.mark.updates

#: Probe batches touching both seed values and values only deltas introduce,
#: plus malformed shapes that must error identically through every tier.
PROBES = [
    ("autofill", [FillRequest(keys=("Alabama", "Zorblat", "Arcadia", "nope"))]),
    (
        "autojoin",
        [
            JoinRequest(
                left_keys=("Alabama", "Albania", "Quux"),
                right_keys=("AL", "ZB", "DZZ"),
            )
        ],
    ),
    (
        "autocorrect",
        [CorrectRequest(values=("AL", "ZB", "ARC", "DZZ", "junk"))],
    ),
    ("autofill", [FillRequest(keys=(), examples={-3: "bad"})]),
]


def canonical(responses) -> str:
    """Byte-comparable form of a batch: everything except timing."""
    return repr([(r.kind, r.request_index, r.result, r.error) for r in responses])


def make_corpus():
    fragments = {}
    fragments.update(seed_fragments("state_abbrev", "sa"))
    fragments.update(seed_fragments("country_iso3", "ci"))
    return make_fragment_corpus(fragments, name="updates-serving-corpus")


@pytest.fixture(scope="module")
def base_corpus():
    return make_corpus()


def cold_oracle(corpus) -> MappingService:
    pipeline = SynthesisPipeline(CONFIG)
    pipeline.run(corpus)
    return MappingService.from_artifact_object(pipeline.last_artifact)


def daemon_for(engine: IncrementalEngine) -> SynthesisDaemon:
    service = MappingService.from_artifact_object(engine.artifact())
    return SynthesisDaemon(service, workers=1, source="updates-test")


def assert_serves_like(daemon: SynthesisDaemon, oracle: MappingService) -> None:
    for kind, batch in PROBES:
        got = daemon.submit(kind, batch).result(30).responses
        assert canonical(got) == canonical(getattr(oracle, kind)(batch))


# ---------------------------------------------------------------------------------------
# Daemon: patches splice in place
# ---------------------------------------------------------------------------------------
def test_small_patch_applies_in_place(base_corpus, tmp_path):
    # The test pool is a handful of mappings, so the patch touches a large
    # share of it; it still splices into the same generation.
    config = SynthesisConfig(
        use_pmi_filter=False,
        min_domains=1,
        min_mapping_size=2,
        min_rows=4,
    )
    engine = IncrementalEngine(base_corpus, config)
    daemon = daemon_for(engine)
    try:
        stream = UpdateStream(engine, DeltaLog(tmp_path / "d.log"), daemon=daemon)
        generation_before = daemon.generation
        patch = stream.apply(DELTA_CATALOG[0])
        assert not patch.is_empty

        # In-place: same generation number, stats and breaker, patched pool,
        # counted in health.
        assert daemon.generation.number == generation_before.number
        assert daemon.generation.stats is generation_before.stats
        assert daemon.generation.breaker is generation_before.breaker
        health = daemon.health()
        assert health["deltas_applied"] == 1
        assert health["last_delta_seq"] == 1
        assert health["update_lag"] >= 0.0
        pool = daemon.generation.service.mapping_pool
        assert {m.mapping_id: m for m in pool} == {
            m.mapping_id: m for m in engine.pool
        }
        assert_serves_like(daemon, cold_oracle(engine.corpus))
    finally:
        daemon.close()


def test_oversized_patch_splices_in_place(base_corpus, tmp_path):
    """A patch that touches every served mapping still keeps the generation."""
    engine = IncrementalEngine(base_corpus, CONFIG)
    daemon = daemon_for(engine)
    try:
        stream = UpdateStream(engine, DeltaLog(tmp_path / "d.log"), daemon=daemon)
        generation_before = daemon.generation
        served = len(generation_before.service.mapping_pool)
        # Dropping the table that anchors the served state mappings replaces
        # both of them and removes their old ids: as many changes as mappings.
        patch = stream.apply(TableDelta(table_id="sa0-state_abbrev", drop=True))
        assert patch.removed and patch.upserts
        assert patch.change_count >= served

        assert daemon.generation.number == generation_before.number
        assert daemon.generation.stats is generation_before.stats
        assert daemon.generation.breaker is generation_before.breaker
        assert daemon.health()["deltas_applied"] == 1
        assert_serves_like(daemon, cold_oracle(engine.corpus))
    finally:
        daemon.close()


def count_index_entries(monkeypatch) -> list[str]:
    """Record the id of every mapping whose index entry gets computed."""
    computed: list[str] = []
    entry = MappingIndex._entry

    def counting(mapping, bloom_false_positive_rate):
        computed.append(mapping.mapping_id)
        return entry(mapping, bloom_false_positive_rate)

    monkeypatch.setattr(MappingIndex, "_entry", staticmethod(counting))
    return computed


#: Served mappings need two domains (the domain is a table id's prefix).
#: ``u-0`` and ``u-1`` form unserved groups of two (one domain) that sort
#: before the served groups of ``s1-x`` and ``s2-x``; RANK_SHIFT splits them,
#: so the served groups move up two ranks and nothing served changes.
RANK_CONFIG = SynthesisConfig(
    use_pmi_filter=False, min_domains=2, min_mapping_size=2, min_rows=4
)
RANK_STATES = list(get_seed_relation("state_abbrev").pairs)
RANK_COUNTRIES = list(get_seed_relation("country_iso3").pairs)
RANK_SHIFT = TableDelta(
    table_id="u-1",
    deletes=tuple(key for key, _ in RANK_COUNTRIES[0:6]),
    upserts=tuple(RANK_COUNTRIES[20:26]),
)


def test_a_rank_shift_yields_an_empty_patch(monkeypatch, tmp_path):
    """Served mappings that only move in the order are not patched at all."""
    corpus = make_fragment_corpus(
        {
            "u-0": RANK_COUNTRIES[0:6],
            "u-1": RANK_COUNTRIES[0:6],
            "s1-x": RANK_STATES[20:26],
            "s2-x": RANK_STATES[20:26],
        },
        name="rank-shift-corpus",
    )
    engine = IncrementalEngine(corpus, RANK_CONFIG)
    served = engine.pool
    assert len(served) == 2
    ranks = [engine.mappings.index(mapping) for mapping in served]
    daemon = SynthesisDaemon(MappingService(served), workers=1, source="updates-test")
    try:
        computed = count_index_entries(monkeypatch)
        generation = daemon.generation.number
        stream = UpdateStream(engine, DeltaLog(tmp_path / "d.log"), daemon=daemon)

        patch = stream.apply(RANK_SHIFT)

        # Under rank-derived ids both served mappings would have been renamed.
        assert [engine.mappings.index(mapping) for mapping in served] != ranks
        assert engine.pool == served
        assert patch.is_empty
        assert computed == []
        assert daemon.generation.number == generation
        monkeypatch.undo()
        oracle = SynthesisPipeline(RANK_CONFIG)
        oracle.run(engine.corpus)
        assert_serves_like(
            daemon, MappingService.from_artifact_object(oracle.last_artifact)
        )
    finally:
        daemon.close()


def seeded_edits(corpus, seed: int, count: int):
    """``count`` seeded single-row edits, each followed by its restore."""
    rng = random.Random(seed)
    tables = list(corpus)
    for step in range(count // 2):
        table = rng.choice(tables)
        row = tuple(rng.choice(list(table.rows())))
        edited = row[:-1] + (f"{row[-1]}-e{step}",)
        yield TableDelta(table_id=table.table_id, upserts=(edited,))
        yield TableDelta(table_id=table.table_id, upserts=(row,))


#: Enough relations that an edit changes two or three of the ~17 mappings:
#: some patches change more than 15% of the served pool and some less.
CONTENT_RELATIONS = (
    "state_abbrev",
    "country_iso3",
    "state_capital",
    "country_capital",
    "element_symbol",
    "month_abbrev",
    "currency_code",
    "airport_iata",
)


def test_streamed_patches_carry_content_changes_only(monkeypatch, tmp_path):
    """A daemon started from the artifact re-indexes real changes only.

    Every upsert differs from the mapping the daemon served under its id, each
    costs exactly one index entry, and the generation never moves, also for
    the patches that change more than 15% of the served pool.
    """
    fragments = {}
    for number, relation in enumerate(CONTENT_RELATIONS):
        fragments.update(seed_fragments(relation, f"r{number}"))
    corpus = make_fragment_corpus(fragments, name="content-change-corpus")
    engine = IncrementalEngine(corpus, CONFIG)
    path = save_artifact(engine.artifact(), tmp_path / "served.bin")
    daemon = SynthesisDaemon.from_artifact(path, config=CONFIG, watch=False, workers=1)
    try:
        stream = UpdateStream(engine, DeltaLog(tmp_path / "d.log"), daemon=daemon)
        computed = count_index_entries(monkeypatch)
        generation = daemon.generation.number
        upserted = large = 0
        for delta in seeded_edits(corpus, seed=11, count=40):
            served = {m.mapping_id: m for m in daemon.generation.service.mapping_pool}
            computed.clear()

            patch = stream.apply(delta)

            for mapping in patch.upserts:
                assert served.get(mapping.mapping_id) != mapping
            assert sorted(computed) == sorted(m.mapping_id for m in patch.upserts)
            assert daemon.generation.number == generation
            upserted += len(patch.upserts)
            large += patch.change_count / len(served) > 0.15
        assert upserted > 0 and 0 < large < 40
        monkeypatch.undo()
        assert_serves_like(daemon, cold_oracle(engine.corpus))
    finally:
        daemon.close()


def test_closed_daemon_rejects_deltas(base_corpus):
    engine = IncrementalEngine(base_corpus, CONFIG)
    daemon = daemon_for(engine)
    daemon.close()
    with pytest.raises(DaemonStoppedError):
        daemon.apply_delta([], ["mapping-00000"], seq=1)


def test_failed_journal_write_still_reaches_the_daemon(
    base_corpus, tmp_path, monkeypatch
):
    """A journal write that raises must not leave the daemon one patch behind.

    The engine has already applied the delta, and every later patch is a diff
    against its state, so a daemon that missed this one would stay wrong.
    """
    engine = IncrementalEngine(base_corpus, CONFIG)
    path = save_artifact(engine.artifact(), tmp_path / "served.bin")
    daemon = daemon_for(engine)
    real_append = stream_module.append_delta_section
    failures = []

    def append_failing_once(*args, **kwargs):
        if not failures:
            failures.append(kwargs["seq"])
            raise OSError("injected journal write failure")
        return real_append(*args, **kwargs)

    monkeypatch.setattr(stream_module, "append_delta_section", append_failing_once)
    try:
        stream = UpdateStream(
            engine,
            DeltaLog(tmp_path / "d.log"),
            artifact_path=path,
            daemon=daemon,
        )
        with pytest.raises(OSError, match="injected"):
            stream.apply(DELTA_CATALOG[0])
        stream.apply(DELTA_CATALOG[1])
        assert failures == [1]
        assert daemon.health()["deltas_applied"] == 2

        cold = SynthesisPipeline(CONFIG).run(engine.corpus)
        assert_serves_like(daemon, MappingService.from_result(cold))
    finally:
        daemon.close()


# ---------------------------------------------------------------------------------------
# Property: delta interleavings serve byte-identically to a cold rebuild
# ---------------------------------------------------------------------------------------
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(
        st.sampled_from(range(len(DELTA_CATALOG))),
        unique=True,
        min_size=1,
        max_size=len(DELTA_CATALOG),
    )
)
def test_daemon_delta_stream_equals_cold_rebuild(picks, base_corpus, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("daemon-stream")
    engine = IncrementalEngine(base_corpus, CONFIG)
    daemon = daemon_for(engine)
    try:
        stream = UpdateStream(
            engine, DeltaLog(tmp_path / "d.log"), daemon=daemon
        )
        for pick in picks:
            stream.apply(DELTA_CATALOG[pick])
        assert daemon.health()["deltas_applied"] == len(picks)
        assert daemon.health()["last_delta_seq"] == len(picks)
        assert_serves_like(daemon, cold_oracle(engine.corpus))
    finally:
        daemon.close()


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(
        st.sampled_from(range(len(DELTA_CATALOG))),
        unique=True,
        min_size=2,
        max_size=len(DELTA_CATALOG),
    ),
    kill_at=st.integers(0, len(DELTA_CATALOG)),
)
def test_cluster_delta_stream_with_kill_equals_cold_rebuild(
    picks, kill_at, tmp_path_factory, transport
):
    """Scatter-patched cluster == cold oracle, even losing a replica mid-stream.

    Over tcp the kill takes the replica's server process down with it.
    """
    tmp_path = tmp_path_factory.mktemp("cluster-stream")
    corpus = make_corpus()
    engine = IncrementalEngine(corpus, CONFIG)
    path = save_artifact(engine.artifact(), tmp_path / "served.bin")
    router = ClusterRouter.from_artifact(
        path,
        num_shards=3,
        replication=2,
        config=CONFIG,
        shard_dir=tmp_path / "shards",
        watch=False,
        workers=1,
        transport=transport,
    )
    try:
        stream = UpdateStream(
            engine, DeltaLog(tmp_path / "c.log"), router=router
        )
        kill_index = kill_at % (len(picks) + 1)
        for position, pick in enumerate(picks):
            if position == kill_index:
                router.kill(0)
            stream.apply(DELTA_CATALOG[pick])
        if kill_index == len(picks):
            router.kill(0)

        health = router.health()
        assert health["deltas_applied"] == len(picks)
        assert health["last_delta_seq"] == len(picks)
        oracle = cold_oracle(engine.corpus)
        for kind, batch in PROBES:
            got = router.serve(kind, batch)
            assert canonical(got) == canonical(getattr(oracle, kind)(batch))
    finally:
        router.close()
