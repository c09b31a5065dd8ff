"""Versioned on-disk snapshots of one synthesis pipeline run.

A :class:`SynthesisArtifact` captures everything downstream consumers need:

* the corpus fingerprint and per-table fingerprints (provenance + refresh diffing);
* the :class:`~repro.core.config.SynthesisConfig` the run used;
* the candidate binary tables and their precomputed scoring profiles
  (normalized keys and compact forms — the expensive part of
  :func:`repro.graph.profile.build_profile`);
* the compatibility graph's positive/negative edges, keyed by candidate table
  ids so they survive re-indexing;
* the synthesized and curated :class:`~repro.core.mapping.MappingRelationship`s
  plus the run's extraction stats, timings, and metadata.

Two on-disk formats are supported:

* **v2 (default)** — a sectioned binary container
  (:mod:`repro.store.format`): header + table of contents + independently
  checksummed, individually gzip'd sections, with a compact interned-string
  binary encoding for the value-pair and edge sections that dominate artifact
  size.  :func:`load_artifact` returns a **lazy** artifact: each section is
  decoded on first attribute access, so a consumer that only serves mappings
  never pays for profiles or edges.
* **v1 (read only)** — the original single JSON document
  ``{"magic", "version", "checksum", "payload"}``, optionally
  gzip-compressed, decoded eagerly.  :func:`load_artifact` detects it
  transparently; nothing writes it any more (the committed fixture
  ``tests/fixtures/v1_sample.artifact.json`` locks the reader).

Corruption surfaces as :class:`ArtifactCorruptionError` (naming the damaged
section for v2) instead of silently wrong mappings, and an unsupported format
version surfaces as :class:`ArtifactVersionError` carrying the supported set.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import threading
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.core.binary_table import BinaryTable
from repro.core.config import SynthesisConfig
from repro.core.mapping import MappingRelationship
from repro.graph.build import CompatibilityGraph
from repro.graph.connected import UnionFind
from repro.graph.profile import TableProfile
from repro.store.errors import (
    ArtifactCorruptionError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.store.format import (
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    ArtifactReader,
    ArtifactWriter,
)
from repro.store.sections import (
    FIELD_SECTION,
    SECTION_FIELDS,
    SECTION_ORDER,
    canonical_json,
    decode_binary_table,
    decode_config,
    decode_mapping,
    encode_binary_table,
    encode_config,
    encode_mapping,
    encode_section,
    jsonable,
    section_item_count,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.pipeline import PipelineResult

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "SUPPORTED_VERSIONS",
    "ArtifactError",
    "ArtifactVersionError",
    "ArtifactCorruptionError",
    "SynthesisArtifact",
    "save_artifact",
    "load_artifact",
    "subscribe_artifact",
]

ARTIFACT_MAGIC = "repro-synthesis-artifact"

#: The format version :func:`save_artifact` writes by default.
ARTIFACT_VERSION = CONTAINER_VERSION

#: Every format version :func:`load_artifact` can read.
SUPPORTED_VERSIONS = frozenset({1, CONTAINER_VERSION})

#: Sections stored with the compact binary pair encoding (the rest are JSON).
_BINARY_SECTIONS = frozenset({"candidates", "profiles", "edges", "mappings"})

#: gzip member header magic; used to sniff compressed v1 artifacts on load.
_GZIP_MAGIC = b"\x1f\x8b"


# ---------------------------------------------------------------------------------------
# Profile reconstruction (model-level; the stored form is a plain dict)
# ---------------------------------------------------------------------------------------
def _encode_profile(profile: TableProfile) -> dict:
    # lefts/rights are recoverable from the candidate's pairs; only the
    # matcher-derived strings (the expensive part) need to be stored.
    return {
        "left_keys": list(profile.left_keys),
        "right_keys": list(profile.right_keys),
        "compact_lefts": list(profile.compact_lefts),
        "edit_cap": profile.edit_cap,
    }


def _decode_profile(table: BinaryTable, data: Mapping) -> TableProfile:
    left_keys = list(data["left_keys"])
    right_keys = list(data["right_keys"])
    compact_lefts = list(data["compact_lefts"])
    if not len(table.pairs) == len(left_keys) == len(right_keys) == len(compact_lefts):
        raise ArtifactCorruptionError(
            f"profile for {table.table_id!r} does not align with its pairs"
        )
    by_left_key: dict[str, list[int]] = {}
    buckets: dict[int, list[int]] = {}
    for index, (left_key, compact) in enumerate(zip(left_keys, compact_lefts)):
        by_left_key.setdefault(left_key, []).append(index)
        buckets.setdefault(len(compact), []).append(index)
    return TableProfile(
        table=table,
        lefts=tuple(pair.left for pair in table.pairs),
        rights=tuple(pair.right for pair in table.pairs),
        left_keys=tuple(left_keys),
        right_keys=tuple(right_keys),
        compact_lefts=tuple(compact_lefts),
        pair_keys=frozenset(zip(left_keys, right_keys)),
        left_key_set=frozenset(left_keys),
        by_left_key={key: tuple(rows) for key, rows in by_left_key.items()},
        left_length_buckets={length: tuple(rows) for length, rows in buckets.items()},
        edit_cap=int(data["edit_cap"]),
    )


def _edge_key(first_id: str, second_id: str) -> tuple[str, str]:
    return (first_id, second_id) if first_id <= second_id else (second_id, first_id)


def edges_from_graph(
    graph: CompatibilityGraph,
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
    """Convert a graph's index-keyed edges to sorted table-id-pair keys."""
    ids = [table.table_id for table in graph.tables]
    positive = {_edge_key(ids[a], ids[b]): w for (a, b), w in graph.positive_edges.items()}
    negative = {_edge_key(ids[a], ids[b]): w for (a, b), w in graph.negative_edges.items()}
    return positive, negative


def _own_copy(value):
    """Shallow-copy a list or dict field, so artifacts never alias each other's
    top-level containers (whether they share a reader or evolve from a base)."""
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


# ---------------------------------------------------------------------------------------
# The artifact model: a lazy facade over the sectioned store
# ---------------------------------------------------------------------------------------
class SynthesisArtifact:
    """Everything persisted from one pipeline run.

    Constructed eagerly (all fields in memory — :meth:`from_run`,
    :meth:`from_payload`, or the keyword constructor) or lazily over an
    :class:`~repro.store.format.ArtifactReader` (:meth:`from_reader`, the
    :func:`load_artifact` path for v2 files).  A lazy artifact materializes a
    section's field group on first attribute access and never touches the
    rest: serving consumers that read only :attr:`curated` (or
    :attr:`mappings`) + ``curated_ids`` leave candidates, profiles, and edges
    encoded on the reader, and :attr:`curated` builds only the curated
    mappings.  First access
    is not synchronized — share a lazy artifact across threads only after the
    sections you need have been touched once.

    Edges are keyed by **candidate table ids** (sorted pairs), not vertex
    indices, so they remain meaningful when the candidate list is reordered or
    partially reused by the incremental refresh path.
    """

    # Materialized lazily from the reader; listed for documentation.
    config: SynthesisConfig
    corpus_name: str
    corpus_fingerprint: str
    #: Hash of the synonym dictionary the run used ("" = none); profiles and
    #: scores embed synonym canonicalization, so refresh must compare it.
    synonyms_fingerprint: str
    table_fingerprints: dict[str, str]
    candidates: list[BinaryTable]
    profiles: dict[str, dict]
    positive_edges: dict[tuple[str, str], float]
    negative_edges: dict[tuple[str, str], float]
    mappings: list[MappingRelationship]
    curated_ids: list[str]
    extraction_stats: dict[str, float]
    timings: dict[str, float]
    metadata: dict[str, float]

    def __init__(
        self,
        config: SynthesisConfig,
        corpus_name: str,
        corpus_fingerprint: str,
        table_fingerprints: Mapping[str, str],
        candidates: list[BinaryTable],
        synonyms_fingerprint: str = "",
        profiles: Mapping[str, dict] | None = None,
        positive_edges: Mapping[tuple[str, str], float] | None = None,
        negative_edges: Mapping[tuple[str, str], float] | None = None,
        mappings: list[MappingRelationship] | None = None,
        curated_ids: list[str] | None = None,
        extraction_stats: Mapping[str, float] | None = None,
        timings: Mapping[str, float] | None = None,
        metadata: Mapping[str, float] | None = None,
    ) -> None:
        self._reader: ArtifactReader | None = None
        self._dirty: set[str] = set(SECTION_ORDER)
        #: Pre-encoded stored sections carried over from a detached reader
        #: (section name -> (stored bytes, codec, item count, checksum));
        #: consulted by :meth:`stored_section_for_reuse` so save-side verbatim
        #: copying survives :meth:`evolve` dropping the reader.
        self._raw_sections: dict[str, tuple[bytes, str, int | None, str]] = {}
        self.config = config
        self.corpus_name = corpus_name
        self.corpus_fingerprint = corpus_fingerprint
        self.synonyms_fingerprint = synonyms_fingerprint
        self.table_fingerprints = dict(table_fingerprints)
        self.candidates = list(candidates)
        self.profiles = dict(profiles or {})
        self.positive_edges = dict(positive_edges or {})
        self.negative_edges = dict(negative_edges or {})
        self.mappings = list(mappings or [])
        self.curated_ids = list(curated_ids or [])
        self.extraction_stats = dict(extraction_stats or {})
        self.timings = dict(timings or {})
        self.metadata = dict(metadata or {})

    @classmethod
    def from_reader(cls, reader: ArtifactReader) -> "SynthesisArtifact":
        """Wrap a sectioned container; every field group decodes on first use."""
        artifact = cls.__new__(cls)
        artifact._reader = reader
        artifact._dirty = set()
        artifact._raw_sections = {}
        return artifact

    # -- Laziness machinery -------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        # Assigning a model field dirties its section, so a mutate-then-save on
        # a lazy artifact persists the change instead of silently re-copying
        # the old stored bytes (the v1 dataclass was freely mutable; direct
        # assignment must keep working).  In-place *container* mutation on a
        # clean lazy section is still invisible to save-side reuse — reassign
        # the field or go through evolve() for that.
        section = FIELD_SECTION.get(name)
        if section is not None:
            dirty = self.__dict__.get("_dirty")
            if dirty is not None:
                dirty.add(section)
                self.__dict__.get("_raw_sections", {}).pop(section, None)
        object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only reached when the attribute is not in __dict__: materialize the
        # owning section's whole field group from the reader.
        if name.startswith("_"):
            raise AttributeError(name)
        section = FIELD_SECTION.get(name)
        reader = self.__dict__.get("_reader")
        if section is None or reader is None:
            raise AttributeError(name)
        for field_name, value in reader.decode(section).items():
            self.__dict__.setdefault(field_name, _own_copy(value))
        return self.__dict__[name]

    @property
    def reader(self) -> ArtifactReader | None:
        """The backing section reader (``None`` for eager/v1 artifacts)."""
        return self._reader

    def verify(self) -> None:
        """Checksum the backing container without decoding (no-op when eager).

        v1 artifacts were fully checksummed at load; for v2 this validates
        every section's stored bytes against the table of contents, raising
        :class:`ArtifactCorruptionError` naming the damaged section.
        """
        if self._reader is not None:
            self._reader.verify()

    def candidate_count(self) -> int:
        """Number of stored candidates, without decoding them when lazy."""
        if "candidates" not in self.__dict__ and self._reader is not None:
            count = self._reader.item_count("candidates")
            if count is not None:
                return count
        return len(self.candidates)

    def evolve(self, **changes) -> "SynthesisArtifact":
        """A copy with ``changes`` applied, sharing unchanged lazy sections.

        Only the sections owning a changed field are marked dirty; on the next
        :func:`save_artifact` every clean section is copied verbatim from the
        backing reader (no decode, no re-encode).  This is how
        :func:`repro.store.incremental.refresh_artifact` rewrites only the
        sections it actually touched.
        """
        unknown = set(changes) - set(FIELD_SECTION)
        if unknown:
            raise TypeError(f"unknown artifact fields: {sorted(unknown)}")
        clone = type(self).__new__(type(self))
        clone._reader = self._reader
        clone._dirty = set(self._dirty)
        clone._raw_sections = dict(self._raw_sections)
        touched = {FIELD_SECTION[field_name] for field_name in changes}
        clone._dirty |= touched
        # object.__setattr__ throughout: evolve manages _dirty explicitly and
        # must not let the assignment hook dirty the clean copied sections.
        for section, group in SECTION_FIELDS.items():
            if section in touched:
                for field_name in group:
                    if field_name in changes:
                        object.__setattr__(
                            clone, field_name, _own_copy(changes[field_name])
                        )
                    else:
                        # Group-level copy-on-write: an untouched field of a
                        # dirty section must come along (possibly decoding it).
                        object.__setattr__(
                            clone, field_name, _own_copy(getattr(self, field_name))
                        )
            else:
                for field_name in group:
                    if field_name in self.__dict__:
                        object.__setattr__(
                            clone, field_name, _own_copy(self.__dict__[field_name])
                        )
        if clone._reader is not None:
            clean = [name for name in SECTION_ORDER if name not in clone._dirty]
            if all(
                field_name in clone.__dict__
                for name in clean
                for field_name in SECTION_FIELDS[name]
            ):
                # Every clean section is materialized on the clone, so the
                # reader is only needed for save-side verbatim copying.  Carry
                # just those sections' stored bytes and drop the reader — an
                # incremental refresh must not pin the entire old container in
                # memory for the lifetime of the refreshed artifact.
                for name in clean:
                    info = clone._reader.sections.get(name)
                    if info is not None:
                        clone._raw_sections[name] = (
                            clone._reader.stored_bytes(name),
                            info.codec,
                            info.items,
                            info.checksum,
                        )
                clone._reader = None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "lazy" if self._reader is not None else "eager"
        loaded = sorted(
            section
            for section, group in SECTION_FIELDS.items()
            if group[0] in self.__dict__
        )
        return f"SynthesisArtifact({state}, loaded={loaded})"

    # -- Views ------------------------------------------------------------------------
    @property
    def curated(self) -> list[MappingRelationship]:
        """The curated subset of :attr:`mappings`, in curation (popularity) order.

        A lazy artifact whose :attr:`mappings` are not materialized builds
        only the curated mappings: one
        :meth:`~repro.store.format.ArtifactReader.decode` of the
        mappings section with the curated ids as ``wanted`` (every record is
        still checked), kept here so a second read pays nothing.  Eager or
        dirty artifacts, and an empty curated list, filter :attr:`mappings`.
        """
        pool = self.__dict__.get("mappings")
        if pool is None and self._reader is not None and self.curated_ids:
            key = tuple(self.curated_ids)
            cached = self.__dict__.get("_curated_decode")
            if cached is None or cached[0] != key:
                decoded = self._reader.decode("mappings", wanted=frozenset(key))
                cached = self.__dict__["_curated_decode"] = (key, decoded["mappings"])
            pool = cached[1]
        if pool is None:
            pool = self.mappings
        by_id = {mapping.mapping_id: mapping for mapping in pool}
        return [
            by_id[mapping_id] for mapping_id in self.curated_ids if mapping_id in by_id
        ]

    def candidates_by_source(self) -> dict[str, list[BinaryTable]]:
        """Group candidates by their source table id, preserving stored order."""
        grouped: dict[str, list[BinaryTable]] = {}
        for candidate in self.candidates:
            grouped.setdefault(candidate.source_table_id, []).append(candidate)
        return grouped

    def edge_scores(self) -> dict[tuple[str, str], tuple[float, float]]:
        """Merge the two edge maps into ``id pair -> (w+, w−)`` for reuse."""
        scores: dict[tuple[str, str], tuple[float, float]] = {}
        for key, weight in self.positive_edges.items():
            scores[key] = (weight, 0.0)
        for key, weight in self.negative_edges.items():
            positive = scores.get(key, (0.0, 0.0))[0]
            scores[key] = (positive, weight)
        return scores

    def component_labels(self) -> dict[str, int]:
        """Candidate id -> label of its positive component in the stored graph.

        Candidates alone in their component are absent.  Two candidates share
        a label exactly when the stored graph could hold a negative edge
        between them (the builder's contract, :mod:`repro.graph.build`).
        """
        finder = UnionFind()
        for first_id, second_id in self.positive_edges:
            finder.union(first_id, second_id)
        return {
            candidate_id: label
            for label, group in enumerate(finder.groups())
            for candidate_id in group
        }

    def profile_for(self, candidate: BinaryTable) -> TableProfile | None:
        """Reconstruct the stored scoring profile of one candidate, if present."""
        data = self.profiles.get(candidate.table_id)
        if data is None:
            return None
        return _decode_profile(candidate, data)

    def build_graph(self) -> CompatibilityGraph:
        """Materialize the stored edges as a :class:`CompatibilityGraph`."""
        graph = CompatibilityGraph(tables=list(self.candidates))
        index_of = {
            candidate.table_id: position
            for position, candidate in enumerate(self.candidates)
        }
        try:
            for (first_id, second_id), weight in self.positive_edges.items():
                graph.add_positive(index_of[first_id], index_of[second_id], weight)
            for (first_id, second_id), weight in self.negative_edges.items():
                graph.add_negative(index_of[first_id], index_of[second_id], weight)
        except KeyError as exc:
            raise ArtifactCorruptionError(
                f"edge references unknown candidate table {exc.args[0]!r}"
            ) from exc
        return graph

    def to_result(self) -> "PipelineResult":
        """Rebuild the :class:`~repro.core.pipeline.PipelineResult` view."""
        from repro.core.pipeline import PipelineResult

        return PipelineResult(
            mappings=list(self.mappings),
            curated=self.curated,
            candidates=list(self.candidates),
            extraction_stats=dict(self.extraction_stats),
            timings=dict(self.timings),
            metadata=dict(self.metadata),
        )

    # -- Construction -----------------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        *,
        config: SynthesisConfig,
        corpus_name: str,
        corpus_fingerprint: str,
        table_fingerprints: Mapping[str, str],
        candidates: Iterable[BinaryTable],
        graph: CompatibilityGraph,
        synonyms_fingerprint: str = "",
        profiles: Mapping[str, TableProfile] | None = None,
        mappings: Iterable[MappingRelationship],
        curated: Iterable[MappingRelationship],
        extraction_stats: Mapping[str, float] | None = None,
        timings: Mapping[str, float] | None = None,
        metadata: Mapping[str, float] | None = None,
    ) -> "SynthesisArtifact":
        """Assemble an artifact from live pipeline objects (no serialization)."""
        positive, negative = edges_from_graph(graph)
        return cls(
            config=config,
            corpus_name=corpus_name,
            corpus_fingerprint=corpus_fingerprint,
            table_fingerprints=dict(table_fingerprints),
            candidates=list(candidates),
            synonyms_fingerprint=synonyms_fingerprint,
            profiles={
                table_id: _encode_profile(profile)
                for table_id, profile in (profiles or {}).items()
            },
            positive_edges=positive,
            negative_edges=negative,
            mappings=list(mappings),
            curated_ids=[mapping.mapping_id for mapping in curated],
            extraction_stats=dict(extraction_stats or {}),
            timings=dict(timings or {}),
            metadata=dict(metadata or {}),
        )

    # -- v1 payload (de)serialization ---------------------------------------------------
    def to_payload(self) -> dict:
        """Encode the artifact as the v1 plain JSON-encodable payload dict.

        Materializes every lazy section — the v1 blob is eager by definition.
        """
        return {
            "config": encode_config(self.config),
            "corpus_name": self.corpus_name,
            "corpus_fingerprint": self.corpus_fingerprint,
            "table_fingerprints": dict(self.table_fingerprints),
            "synonyms_fingerprint": self.synonyms_fingerprint,
            "candidates": [encode_binary_table(c) for c in self.candidates],
            "profiles": {table_id: dict(data) for table_id, data in self.profiles.items()},
            "positive_edges": [
                [first, second, weight]
                for (first, second), weight in sorted(self.positive_edges.items())
            ],
            "negative_edges": [
                [first, second, weight]
                for (first, second), weight in sorted(self.negative_edges.items())
            ],
            "mappings": [encode_mapping(m) for m in self.mappings],
            "curated_ids": list(self.curated_ids),
            "extraction_stats": jsonable(self.extraction_stats),
            "timings": jsonable(self.timings),
            "metadata": jsonable(self.metadata),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SynthesisArtifact":
        """Decode a payload dict produced by :meth:`to_payload` (eagerly)."""
        try:
            return cls(
                config=decode_config(payload["config"]),
                corpus_name=payload["corpus_name"],
                corpus_fingerprint=payload["corpus_fingerprint"],
                table_fingerprints=dict(payload["table_fingerprints"]),
                candidates=[decode_binary_table(c) for c in payload["candidates"]],
                synonyms_fingerprint=payload.get("synonyms_fingerprint", ""),
                profiles={
                    table_id: dict(data)
                    for table_id, data in payload.get("profiles", {}).items()
                },
                positive_edges={
                    (first, second): weight
                    for first, second, weight in payload["positive_edges"]
                },
                negative_edges={
                    (first, second): weight
                    for first, second, weight in payload["negative_edges"]
                },
                mappings=[decode_mapping(m) for m in payload["mappings"]],
                curated_ids=list(payload["curated_ids"]),
                extraction_stats=dict(payload.get("extraction_stats", {})),
                timings=dict(payload.get("timings", {})),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactCorruptionError(f"malformed artifact payload: {exc}") from exc

    # -- Save-side section reuse --------------------------------------------------------
    def stored_section_for_reuse(
        self, name: str, compress: bool
    ) -> tuple[bytes, str, int | None, str] | None:
        """The section's raw stored bytes when they can be copied verbatim.

        Available when the section is clean (not overridden via
        :meth:`evolve` or field assignment), its stored bytes are at hand —
        on the backing reader or carried over from one by :meth:`evolve` —
        and the stored compression matches the requested one.  Returns
        ``(stored bytes, codec, item count, checksum)``; the checksum is the
        already-verified digest, so the writer need not rehash the bytes.
        """
        if name in self._dirty:
            return None
        carried = self._raw_sections.get(name)
        if carried is not None:
            if carried[1].endswith("+gz") == compress:
                return carried
            return None
        if self._reader is None:
            return None
        info = self._reader.sections.get(name)
        if info is None or info.codec.endswith("+gz") != compress:
            return None
        return self._reader.stored_bytes(name), info.codec, info.items, info.checksum


# ---------------------------------------------------------------------------------------
# Publish / notify hooks
# ---------------------------------------------------------------------------------------
# Registry of in-process listeners per resolved artifact path.  save_artifact
# notifies them after its atomic rename, so a serving daemon watching the same
# path in the same process hot-swaps immediately instead of waiting for its
# next poll tick.  Cross-process consumers still rely on polling.
_publish_lock = threading.Lock()
_publish_subscribers: dict[Path, list[Callable[[Path], None]]] = {}


def subscribe_artifact(
    path: str | Path, callback: Callable[[Path], None]
) -> Callable[[], None]:
    """Call ``callback(path)`` after every :func:`save_artifact` to ``path``.

    The callback fires on the saving thread *after* the new version is fully
    (atomically) in place, so a reload triggered by it always reads a complete
    artifact.  Returns an idempotent unsubscribe callable.
    """
    key = Path(path).resolve()
    with _publish_lock:
        _publish_subscribers.setdefault(key, []).append(callback)

    def unsubscribe() -> None:
        with _publish_lock:
            listeners = _publish_subscribers.get(key)
            if listeners is None:
                return
            try:
                listeners.remove(callback)
            except ValueError:
                return
            if not listeners:
                del _publish_subscribers[key]

    return unsubscribe


def _notify_artifact_published(path: Path) -> None:
    with _publish_lock:
        listeners = list(_publish_subscribers.get(path.resolve(), ()))
    for callback in listeners:
        try:
            callback(path)
        except Exception:
            # A broken subscriber must not be able to fail the writer; the
            # polling fallback will still pick the new version up.
            pass


# ---------------------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------------------
def save_artifact(
    artifact: SynthesisArtifact,
    path: str | Path,
    *,
    compress: bool = True,
) -> Path:
    """Write ``artifact`` to ``path`` as a v2 sectioned container.

    The parent directory is created if needed, and the write goes through an
    fsynced temporary sibling, an atomic rename, and a directory fsync
    (:func:`repro.store.format.atomic_write_bytes`), so neither a crash
    mid-write nor power loss right after the rename leaves a torn artifact
    at the target path.

    When the artifact is backed by a v2 reader (loaded from disk, or an
    :meth:`SynthesisArtifact.evolve` of one), sections it never overrode are
    copied to the new file verbatim — no decode, no re-encode.
    """
    path = Path(path)
    writer = ArtifactWriter(path, compress=compress)
    for name in SECTION_ORDER:
        reusable = artifact.stored_section_for_reuse(name, compress)
        if reusable is not None:
            stored, codec, items, checksum = reusable
            writer.add_stored(name, stored, codec, items=items, checksum=checksum)
            continue
        fields = {
            field_name: getattr(artifact, field_name)
            for field_name in SECTION_FIELDS[name]
        }
        writer.add(
            name,
            encode_section(name, fields),
            codec="bin" if name in _BINARY_SECTIONS else "json",
            items=section_item_count(name, fields),
        )
    writer.commit()
    _notify_artifact_published(path)
    return path


def _load_v1(raw: bytes, path: str | Path) -> SynthesisArtifact:
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptionError(f"artifact {path} is not valid JSON") from exc
    if not isinstance(document, dict) or document.get("magic") != ARTIFACT_MAGIC:
        raise ArtifactError(f"{path} is not a synthesis artifact")
    version = document.get("version")
    if version != 1:
        # JSON-document artifacts only ever carried version 1; anything else
        # is a future (or mislabeled) format this build cannot decode.
        raise ArtifactVersionError(
            f"artifact {path} has format version {version!r}; this build reads "
            f"versions {sorted(SUPPORTED_VERSIONS)}",
            found=version if isinstance(version, int) else None,
            supported=SUPPORTED_VERSIONS,
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise ArtifactCorruptionError(f"artifact {path} has no payload")
    checksum = hashlib.sha256(canonical_json(payload)).hexdigest()
    if checksum != document.get("checksum"):
        raise ArtifactCorruptionError(f"artifact {path} failed its checksum")
    return SynthesisArtifact.from_payload(payload)


def load_artifact(path: str | Path) -> SynthesisArtifact:
    """Load an artifact written by :func:`save_artifact` (either version).

    v2 containers come back **lazy**: only the table of contents is parsed
    here; each section decodes on first attribute access.  v1 documents are
    decoded eagerly (their single checksum requires it).

    Raises
    ------
    ArtifactError
        If the file is not an artifact at all (wrong magic).
    ArtifactVersionError
        If the artifact was written by an unsupported format version
        (``.supported`` carries the versions this build reads).
    ArtifactCorruptionError
        If the bytes are damaged or a checksum does not match (``.section``
        names the damaged section for v2 files).
    """
    raw = Path(path).read_bytes()
    if raw.startswith(CONTAINER_MAGIC):
        return SynthesisArtifact.from_reader(ArtifactReader(raw, source=str(path)))
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise ArtifactCorruptionError(f"damaged gzip stream in {path}") from exc
        if raw.startswith(CONTAINER_MAGIC):  # a gzip-wrapped v2 container
            return SynthesisArtifact.from_reader(ArtifactReader(raw, source=str(path)))
    return _load_v1(raw, path)
