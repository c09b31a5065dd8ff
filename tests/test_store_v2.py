"""Sectioned (v2) artifact format: laziness, corruption, versioning, reuse.

Complements test_store_roundtrip.py (which owns the v1 document format and the
format-agnostic payload round trips):

* property tests that a lazily loaded v2 artifact is semantically identical to
  the eager artifact that produced it (and to the same artifact through the v1
  compat path);
* section-level corruption → :class:`ArtifactCorruptionError` **naming the
  damaged section**, without the undamaged sections being affected;
* version gating: future-version files (both container flavors) surface
  :class:`ArtifactVersionError` carrying the supported-version set;
* laziness accounting: serving consumers decode only mappings + curation
  (asserted via the reader's section decode counters), incremental refresh
  decodes only the sections whose inputs changed, and saving rewrites only the
  sections a refresh touched (the rest are copied verbatim).
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_store_roundtrip import (
    artifacts,
    assert_artifacts_identical,
    make_sample_artifact,
)
from store_helpers import write_v1_copy

from repro.applications.service import MappingService
from repro.core.mapping import MappingRelationship
from repro.core.pipeline import SynthesisPipeline
from repro.serving.watcher import ArtifactWatcher
from repro.store import (
    SUPPORTED_VERSIONS,
    ArtifactCorruptionError,
    ArtifactVersionError,
    SynthesisArtifact,
    load_artifact,
    refresh_artifact,
    save_artifact,
)
from repro.store.format import CONTAINER_MAGIC, ArtifactReader
from repro.store.sections import SECTION_ORDER


def save_and_load_v2(artifact, tmp_path, name="run.v2", **kwargs):
    path = save_artifact(artifact, tmp_path / name, **kwargs)
    loaded = load_artifact(path)
    assert loaded.reader is not None, "v2 artifacts must load lazily"
    return path, loaded


# ---------------------------------------------------------------------------------------
# Lazy == eager
# ---------------------------------------------------------------------------------------
class TestLazyEagerEquivalence:
    @given(artifact=artifacts(), compress=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_lazy_v2_matches_eager_original(self, artifact, compress, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("v2")
        _, lazy = save_and_load_v2(artifact, tmp, compress=compress)
        assert_artifacts_identical(lazy, artifact)

    @given(artifact=artifacts())
    @settings(max_examples=10, deadline=None)
    def test_v1_compat_path_matches_lazy_v2(self, artifact, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("x")
        v1 = write_v1_copy(tmp / "run.v1", artifact.to_payload(), compress=True)
        _, lazy = save_and_load_v2(artifact, tmp)
        eager = load_artifact(v1)
        assert eager.reader is None, "v1 artifacts decode eagerly"
        assert_artifacts_identical(eager, artifact)
        assert_artifacts_identical(lazy, artifact)

    def test_v2_save_is_deterministic_and_reload_roundtrips(self, tmp_path):
        artifact = make_sample_artifact()
        first = save_artifact(artifact, tmp_path / "a1").read_bytes()
        second = save_artifact(artifact, tmp_path / "a2").read_bytes()
        assert first == second
        # Re-saving a lazy artifact copies every clean section verbatim, so the
        # output is byte-identical to its source file.
        lazy = load_artifact(tmp_path / "a1")
        resaved = save_artifact(lazy, tmp_path / "a3")
        assert resaved.read_bytes() == first

    def test_field_assignment_on_lazy_artifact_persists(self, tmp_path):
        """v1 artifacts were plain mutable dataclasses; assigning a field on a
        lazy v2 artifact must dirty its section so save persists the change
        instead of silently copying the old stored bytes."""
        _, lazy = save_and_load_v2(make_sample_artifact(), tmp_path)
        lazy.curated_ids = []
        mutated = save_artifact(lazy, tmp_path / "mutated.artifact")
        assert load_artifact(mutated).curated == []

    def test_evolve_requires_known_fields(self):
        with pytest.raises(TypeError, match="unknown artifact fields"):
            make_sample_artifact().evolve(nonsense=1)

    def test_evolve_never_aliases_containers(self, tmp_path):
        """Mutating one artifact's top-level containers must not leak into the
        other — including for sections materialized *before* the evolve and for
        untouched siblings of a dirty section."""
        _, lazy = save_and_load_v2(make_sample_artifact(), tmp_path)
        _ = lazy.mappings  # materialize a clean section before evolving
        evolved = lazy.evolve(curated_ids=[], positive_edges={})
        assert evolved.mappings is not lazy.mappings
        assert evolved.mappings == lazy.mappings
        # negative_edges rides along with its dirty section (edges) untouched.
        assert evolved.negative_edges is not lazy.negative_edges
        evolved.mappings.clear()
        evolved.negative_edges.clear()
        assert lazy.mappings and lazy.negative_edges


# ---------------------------------------------------------------------------------------
# Section-level corruption
# ---------------------------------------------------------------------------------------
def _flip_byte_in_section(path, name: str) -> None:
    data = bytearray(path.read_bytes())
    start, end = ArtifactReader(bytes(data)).section_span(name)
    middle = (start + end) // 2
    data[middle] ^= 0xFF
    path.write_bytes(bytes(data))


class TestSectionCorruption:
    @pytest.mark.parametrize("section", SECTION_ORDER)
    def test_damaged_section_is_named(self, section, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        _flip_byte_in_section(path, section)
        # The TOC is intact, so the file still *opens* lazily ...
        damaged = load_artifact(path)
        # ... but full validation pinpoints the damaged section,
        with pytest.raises(ArtifactCorruptionError, match=section) as excinfo:
            damaged.verify()
        assert excinfo.value.section == section
        # ... as does the first decode that touches it.
        field = {
            "config": "config",
            "fingerprints": "corpus_name",
            "candidates": "candidates",
            "profiles": "profiles",
            "edges": "positive_edges",
            "mappings": "mappings",
            "curation": "curated_ids",
            "stats": "timings",
        }[section]
        with pytest.raises(ArtifactCorruptionError):
            getattr(load_artifact(path), field)

    def test_undamaged_sections_still_decode(self, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        _flip_byte_in_section(path, "profiles")
        damaged = load_artifact(path)
        # The serving payload is unaffected by profile damage.
        assert [m.mapping_id for m in damaged.curated] == ["mapping-00000"]
        with pytest.raises(ArtifactCorruptionError, match="profiles"):
            _ = damaged.profiles

    def test_truncated_container_fails_at_load(self, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactCorruptionError):
            load_artifact(path)

    def test_damaged_toc_fails_at_load(self, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        data = bytearray(path.read_bytes())
        # Flip a byte inside the TOC JSON (right after the fixed header).
        data[len(CONTAINER_MAGIC) + 4 + 32 + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactCorruptionError, match="table-of-contents"):
            load_artifact(path)

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("codec", 5),
            ("length", -5),
            ("offset", "0"),
            ("name", None),
            ("checksum", 7),
            ("items", "3"),
        ],
    )
    def test_mistyped_toc_entry_fails_at_open(self, tmp_path, key, value):
        # The TOC checksum is recomputed, so only the entry's types are wrong.
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)

        def mistype(toc):
            toc["sections"][0][key] = value

        _rewrite_toc(path, mistype)
        with pytest.raises(ArtifactCorruptionError, match="malformed table of contents"):
            ArtifactReader.from_path(path)

    def test_watcher_rejects_section_corruption_without_decoding(self, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        _flip_byte_in_section(path, "mappings")
        swapped = []
        watcher = ArtifactWatcher(
            path, lambda artifact, _path: swapped.append(artifact), subscribe=False
        )
        # Force a check against a fresh signature so the damaged file is "new".
        watcher._signature = None
        assert watcher.check_now() is False
        assert watcher.skipped == 1
        assert swapped == []


# ---------------------------------------------------------------------------------------
# Version gating
# ---------------------------------------------------------------------------------------
def _rewrite_toc(path, edit) -> None:
    """Apply ``edit`` to the container's TOC and re-seal it with a valid checksum."""
    data = path.read_bytes()
    header = len(CONTAINER_MAGIC)
    toc_length = struct.unpack_from(">I", data, header)[0]
    toc_start = header + 4 + 32
    toc = json.loads(data[toc_start : toc_start + toc_length].decode("utf-8"))
    edit(toc)
    toc_bytes = json.dumps(toc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(
        CONTAINER_MAGIC
        + struct.pack(">I", len(toc_bytes))
        + hashlib.sha256(toc_bytes).digest()
        + toc_bytes
        + data[toc_start + toc_length :]
    )


def _rewrite_toc_version(path, version: int) -> None:
    _rewrite_toc(path, lambda toc: toc.update(format_version=version))


class TestVersionGating:
    def test_future_container_version_names_supported_set(self, tmp_path):
        path, _ = save_and_load_v2(make_sample_artifact(), tmp_path)
        _rewrite_toc_version(path, 3)
        with pytest.raises(ArtifactVersionError, match="version 3") as excinfo:
            load_artifact(path)
        assert excinfo.value.found == 3
        assert excinfo.value.supported == SUPPORTED_VERSIONS

    def test_future_v1_document_version_names_supported_set(self, tmp_path):
        """Regression: the error must carry the supported set, not hard-code 1."""
        path = write_v1_copy(tmp_path / "doc")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactVersionError) as excinfo:
            load_artifact(path)
        assert excinfo.value.found == 99
        assert excinfo.value.supported == SUPPORTED_VERSIONS
        assert "1, 2" in str(excinfo.value)


# ---------------------------------------------------------------------------------------
# Laziness accounting: serving decodes only what it serves
# ---------------------------------------------------------------------------------------
#: The served sample: N stored mappings, of which the C curated ids are served.
SERVED_N, SERVED_CURATED = 6, ["mapping-00004", "mapping-00001", "mapping-00003"]


def _served_sample(tmp_path):
    """A saved artifact with more mappings than curated ids."""
    mappings = [
        MappingRelationship(
            mapping_id=f"mapping-{index:05d}",
            pairs=[(f"left-{index}-{row}", f"right-{index}-{row}") for row in range(3)],
            source_tables=[f"cand-{index:03d}"],
            domains={f"d{index}.example"},
        )
        for index in range(SERVED_N)
    ]
    artifact = make_sample_artifact().evolve(
        mappings=mappings, curated_ids=SERVED_CURATED
    )
    path, _ = save_and_load_v2(artifact, tmp_path)
    return path


def _capture_loads(monkeypatch, module):
    """Record every artifact ``module.load_artifact`` returns."""
    captured = []
    real_load = module.load_artifact

    def capturing_load(target):
        artifact = real_load(target)
        captured.append(artifact)
        return artifact

    monkeypatch.setattr(module, "load_artifact", capturing_load)
    return captured


def _assert_built_only_the_served(artifact):
    reader = artifact.reader
    assert reader.item_count("mappings") == SERVED_N
    assert reader.decode_counts["mappings"] == 1
    assert reader.mappings_built == len(SERVED_CURATED)
    assert [m.mapping_id for m in artifact.curated] == SERVED_CURATED
    assert reader.decode_counts["mappings"] == 1  # the subset is kept


class TestSectionAccessCounters:
    def test_service_from_artifact_decodes_only_serving_sections(
        self, tmp_path, monkeypatch
    ):
        import repro.store.artifact as artifact_module

        path = _served_sample(tmp_path)
        captured = _capture_loads(monkeypatch, artifact_module)
        service = MappingService.from_artifact(path)
        assert len(service) == len(SERVED_CURATED)
        (artifact,) = captured
        decoded = set(artifact.reader.decode_counts)
        assert decoded == {"mappings", "curation"}
        assert all(count == 1 for count in artifact.reader.decode_counts.values())
        _assert_built_only_the_served(artifact)

    def test_daemon_from_artifact_decodes_no_cold_sections(self, tmp_path, monkeypatch):
        from repro.serving.daemon import SynthesisDaemon
        import repro.store.artifact as artifact_module

        path = _served_sample(tmp_path)
        captured = _capture_loads(monkeypatch, artifact_module)
        daemon = SynthesisDaemon.from_artifact(path, watch=False, workers=1)
        try:
            (artifact,) = captured
            decoded = set(artifact.reader.decode_counts)
            # The daemon additionally reads the corpus fingerprint for its
            # generation tag; the cold sections stay encoded.
            assert decoded <= {"mappings", "curation", "fingerprints"}
            assert decoded & {"candidates", "profiles", "edges"} == set()
            _assert_built_only_the_served(artifact)
        finally:
            daemon.close()

    def test_hot_reload_builds_only_the_served_mappings(self, tmp_path, monkeypatch):
        from repro.serving import watcher as watcher_module
        from repro.serving.daemon import SynthesisDaemon

        path = _served_sample(tmp_path)
        captured = _capture_loads(monkeypatch, watcher_module)
        daemon = SynthesisDaemon.from_artifact(path, watch=True, workers=1)
        try:
            save_artifact(load_artifact(path), path)
            assert daemon.await_generation(2, timeout=30) >= 2
        finally:
            daemon.close()  # joins the watcher: no reload is still running
        swapped = [artifact for artifact in captured if artifact.reader.decode_counts]
        assert len(swapped) == 1
        assert swapped[0].reader.decode_counts.keys() <= {
            "mappings",
            "curation",
            "fingerprints",
        }
        _assert_built_only_the_served(swapped[0])

    def test_curated_of_a_materialized_or_dirty_artifact_filters_mappings(
        self, tmp_path
    ):
        path = _served_sample(tmp_path)
        lazy = load_artifact(path)
        assert len(lazy.mappings) == SERVED_N
        assert [m.mapping_id for m in lazy.curated] == SERVED_CURATED
        assert lazy.reader.decode_counts["mappings"] == 1
        assert lazy.reader.mappings_built == SERVED_N

        dirty = load_artifact(path)
        dirty.curated_ids = ["mapping-00002"]
        assert [m.mapping_id for m in dirty.curated] == ["mapping-00002"]
        dirty.mappings = dirty.mappings[:1]
        assert dirty.curated == []


# ---------------------------------------------------------------------------------------
# Incremental refresh: reads + rewrites only what changed
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def store_run(tmp_path_factory):
    """One pipeline run over the store corpus, saved as a v2 artifact."""
    from repro.core.config import SynthesisConfig
    from store_helpers import make_fragment_corpus, seed_fragments

    fragments = {}
    fragments.update(seed_fragments("state_abbrev", "sa"))
    fragments.update(seed_fragments("country_iso3", "ci"))
    corpus = make_fragment_corpus(fragments, name="store-corpus")
    config = SynthesisConfig(
        use_pmi_filter=False, min_domains=1, min_mapping_size=2, min_rows=4
    )
    pipeline = SynthesisPipeline(config)
    pipeline.run(corpus)
    path = pipeline.save_artifact(
        tmp_path_factory.mktemp("store-run") / "run.artifact"
    )
    return path, corpus, config


class TestRefreshLaziness:
    def test_noop_refresh_decodes_only_diff_inputs(self, store_run):
        path, corpus, config = store_run
        lazy = load_artifact(path)
        refreshed, stats = refresh_artifact(lazy, corpus, config=config)
        assert stats.noop
        assert refreshed is lazy
        assert set(lazy.reader.decode_counts) <= {"config", "fingerprints"}
        assert stats.candidates_total == lazy.reader.item_count("candidates")

    def test_changed_corpus_refresh_never_decodes_serving_sections(self, store_run):
        from repro.corpus.corpus import TableCorpus
        from repro.corpus.table import Table

        path, corpus, config = store_run
        tables = corpus.tables()
        # Drop one table: its candidates disappear, everything else is reused.
        grown = TableCorpus(tables[:-1], name=corpus.name)
        lazy = load_artifact(path)
        refreshed, stats = refresh_artifact(lazy, grown, config=config)
        assert not stats.full_rebuild and stats.pairs_reused > 0
        decoded = set(lazy.reader.decode_counts)
        assert decoded & {"mappings", "curation", "stats"} == set()
        # The refreshed artifact equals a cold run on the new corpus (the
        # existing incremental tests prove that); here we only need it usable.
        assert refreshed.mappings

    def test_full_rebuild_refresh_decodes_only_config_and_fingerprints(
        self, store_run
    ):
        path, corpus, config = store_run
        lazy = load_artifact(path)
        changed = config.with_overrides(edge_threshold=0.9)
        refreshed, stats = refresh_artifact(lazy, corpus, config=changed)
        assert stats.full_rebuild
        assert set(lazy.reader.decode_counts) <= {"config", "fingerprints"}

    def test_refresh_save_rewrites_only_touched_sections(self, store_run, tmp_path):
        from repro.corpus.corpus import TableCorpus

        path, corpus, config = store_run
        lazy = load_artifact(path)
        grown = TableCorpus(corpus.tables()[:-1], name=corpus.name)
        refreshed, stats = refresh_artifact(lazy, grown, config=config)
        assert not stats.noop
        # The refreshed artifact carries only the clean sections' stored bytes,
        # not the whole old container (a long-lived refresher must not pin
        # every superseded artifact file in memory).
        assert refreshed.reader is None
        target = save_artifact(refreshed, tmp_path / "refreshed.artifact")
        before = ArtifactReader(path.read_bytes())
        after = ArtifactReader(target.read_bytes())
        # Config was untouched by the refresh: its stored bytes were copied
        # verbatim (same checksum), not re-encoded.
        assert (
            after.sections["config"].checksum == before.sections["config"].checksum
        )
        # The sections the refresh recomputed were rewritten.
        assert (
            after.sections["fingerprints"].checksum
            != before.sections["fingerprints"].checksum
        )

    def test_evolve_marks_only_named_sections_dirty(self, tmp_path):
        path, lazy = save_and_load_v2(make_sample_artifact(), tmp_path)
        evolved = lazy.evolve(mappings=list(lazy.mappings), curated_ids=[])
        target = save_artifact(evolved, tmp_path / "evolved.artifact")
        before = ArtifactReader(path.read_bytes())
        after = ArtifactReader(target.read_bytes())
        for name in SECTION_ORDER:
            if name in ("mappings", "curation"):
                continue
            assert after.sections[name].checksum == before.sections[name].checksum, name
        assert after.sections["curation"].checksum != before.sections["curation"].checksum
        # And the evolved artifact reads back consistently.
        reloaded = load_artifact(target)
        assert reloaded.curated == []
        assert [m.mapping_id for m in reloaded.mappings] == [
            m.mapping_id for m in lazy.mappings
        ]
