"""Per-section codecs for the sectioned (v2) artifact container.

An artifact's contents are split into independently encoded sections so
consumers decode only what they use (see :mod:`repro.store.format` for the
container layout).  Each section has a symbolic name, owns a fixed group of
:class:`~repro.store.artifact.SynthesisArtifact` fields, and encodes to bytes
via one of two codecs:

* **canonical JSON** for the small metadata sections (config, fingerprints,
  curation, stats) — human-debuggable, order-stable;
* the **compact binary pair encoding** (:mod:`repro.store.codec`) for the
  sections that dominate artifact size — candidates, profiles, mappings (all
  value-string heavy) and the edge lists (struct-packed ids + scores).

The model-object ↔ JSON converters that the v1 single-blob format uses live
here too, so both format versions share one definition of what a candidate,
profile, mapping, or config looks like on disk.
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.binary_table import BinaryTable, ValuePair
from repro.core.config import SynthesisConfig
from repro.core.mapping import MappingRelationship
from repro.exec.backend import ExecutorSpecError, parse_executor_spec
from repro.store.codec import ByteReader, ByteWriter, CodecError, StringPool

__all__ = [
    "SECTION_ORDER",
    "SECTION_FIELDS",
    "FIELD_SECTION",
    "canonical_json",
    "encode_section",
    "decode_section",
    "section_item_count",
    "write_patch",
    "read_patch",
]

#: Section names in their on-disk order.  The hot serving sections (mappings,
#: curation) sit next to each other; cold sections (profiles, edges) follow.
SECTION_ORDER = (
    "config",
    "fingerprints",
    "candidates",
    "profiles",
    "edges",
    "mappings",
    "curation",
    "stats",
)

#: Which artifact fields each section owns (decoding a section yields exactly
#: these fields; overriding any of them dirties the whole section).
SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    "config": ("config",),
    "fingerprints": (
        "corpus_name",
        "corpus_fingerprint",
        "synonyms_fingerprint",
        "table_fingerprints",
    ),
    "candidates": ("candidates",),
    "profiles": ("profiles",),
    "edges": ("positive_edges", "negative_edges"),
    "mappings": ("mappings",),
    "curation": ("curated_ids",),
    "stats": ("extraction_stats", "timings", "metadata"),
}

FIELD_SECTION: dict[str, str] = {
    field: section for section, group in SECTION_FIELDS.items() for field in group
}


# ---------------------------------------------------------------------------------------
# Model object <-> JSON converters (shared by the v1 blob and the v2 JSON sections)
# ---------------------------------------------------------------------------------------
def jsonable(value: object) -> object:
    """Best-effort conversion of metadata values to JSON-encodable forms."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return str(value)


def encode_binary_table(table: BinaryTable) -> dict:
    return {
        "table_id": table.table_id,
        "pairs": [[pair.left, pair.right] for pair in table.pairs],
        "left_name": table.left_name,
        "right_name": table.right_name,
        "source_table_id": table.source_table_id,
        "domain": table.domain,
        "metadata": jsonable(table.metadata),
    }


def decode_binary_table(data: Mapping) -> BinaryTable:
    return BinaryTable(
        table_id=data["table_id"],
        pairs=[ValuePair(left, right) for left, right in data["pairs"]],
        left_name=data.get("left_name", ""),
        right_name=data.get("right_name", ""),
        source_table_id=data.get("source_table_id", ""),
        domain=data.get("domain", ""),
        metadata=dict(data.get("metadata", {})),
    )


def encode_mapping(mapping: MappingRelationship) -> dict:
    return {
        "mapping_id": mapping.mapping_id,
        "pairs": [[pair.left, pair.right] for pair in mapping.pairs],
        "source_tables": list(mapping.source_tables),
        "domains": sorted(mapping.domains),
        "column_names": list(mapping.column_names),
        "metadata": jsonable(mapping.metadata),
    }


def decode_mapping(data: Mapping) -> MappingRelationship:
    column_names = data.get("column_names", ["", ""])
    return MappingRelationship(
        mapping_id=data["mapping_id"],
        pairs=[ValuePair(left, right) for left, right in data["pairs"]],
        source_tables=list(data.get("source_tables", [])),
        domains=set(data.get("domains", [])),
        column_names=(column_names[0], column_names[1]),
        metadata=dict(data.get("metadata", {})),
    )


def encode_config(config: SynthesisConfig) -> dict:
    return {
        spec.name: jsonable(getattr(config, spec.name))
        for spec in dataclass_fields(config)
    }


def decode_config(data: Mapping) -> SynthesisConfig:
    known = {spec.name for spec in dataclass_fields(SynthesisConfig)}
    kwargs = {key: value for key, value in data.items() if key in known}
    try:
        parse_executor_spec(kwargs.get("executor") or "serial")
    except ExecutorSpecError:
        # `executor` is result-neutral: a spec this build no longer runs (a
        # retired thread kind) loads as unset instead of rejecting the artifact.
        kwargs["executor"] = ""
    return SynthesisConfig(**kwargs)


# ---------------------------------------------------------------------------------------
# JSON sections
# ---------------------------------------------------------------------------------------
def canonical_json(payload: object) -> bytes:
    """Sorted-key, compact JSON bytes: identical input, identical bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_load(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"section is not valid JSON: {exc}") from exc


def _json_object(data: bytes, what: str = "section") -> dict[str, Any]:
    """JSON that must be an object: a JSON section's payload, or metadata."""
    payload = _json_load(data)
    if not isinstance(payload, dict):
        raise CodecError(f"{what} is not a JSON object: {data[:40]!r}")
    return payload


def _encode_config_section(fields: Mapping[str, Any]) -> bytes:
    return canonical_json(encode_config(fields["config"]))


def _decode_config_section(data: bytes) -> dict[str, Any]:
    return {"config": decode_config(_json_object(data))}


def _encode_fingerprints(fields: Mapping[str, Any]) -> bytes:
    return canonical_json(
        {
            "corpus_name": fields["corpus_name"],
            "corpus_fingerprint": fields["corpus_fingerprint"],
            "synonyms_fingerprint": fields["synonyms_fingerprint"],
            "table_fingerprints": dict(fields["table_fingerprints"]),
        }
    )


def _decode_fingerprints(data: bytes) -> dict[str, Any]:
    payload = _json_object(data)
    return {
        "corpus_name": payload["corpus_name"],
        "corpus_fingerprint": payload["corpus_fingerprint"],
        "synonyms_fingerprint": payload.get("synonyms_fingerprint", ""),
        "table_fingerprints": dict(payload["table_fingerprints"]),
    }


def _encode_curation(fields: Mapping[str, Any]) -> bytes:
    return canonical_json({"curated_ids": list(fields["curated_ids"])})


def _decode_curation(data: bytes) -> dict[str, Any]:
    return {"curated_ids": list(_json_object(data)["curated_ids"])}


def _encode_stats(fields: Mapping[str, Any]) -> bytes:
    return canonical_json(
        {
            "extraction_stats": jsonable(fields["extraction_stats"]),
            "timings": jsonable(fields["timings"]),
            "metadata": jsonable(fields["metadata"]),
        }
    )


def _decode_stats(data: bytes) -> dict[str, Any]:
    payload = _json_object(data)
    return {
        "extraction_stats": dict(payload.get("extraction_stats", {})),
        "timings": dict(payload.get("timings", {})),
        "metadata": dict(payload.get("metadata", {})),
    }


# ---------------------------------------------------------------------------------------
# Binary sections (compact pair encoding)
# ---------------------------------------------------------------------------------------
def _encode_candidates(fields: Mapping[str, Any]) -> bytes:
    candidates: list[BinaryTable] = fields["candidates"]
    pool = StringPool()
    records: list[tuple] = []
    for table in candidates:
        records.append(
            (
                pool.ref(table.table_id),
                pool.ref(table.left_name),
                pool.ref(table.right_name),
                pool.ref(table.source_table_id),
                pool.ref(table.domain),
                pool.ref(canonical_json(jsonable(table.metadata)).decode("utf-8")),
                [(pool.ref(pair.left), pool.ref(pair.right)) for pair in table.pairs],
            )
        )
    writer = ByteWriter()
    pool.write_to(writer)
    writer.write_uvarint(len(records))
    for table_id, left_name, right_name, source, domain, metadata, pairs in records:
        for reference in (table_id, left_name, right_name, source, domain, metadata):
            writer.write_uvarint(reference)
        writer.write_uvarint(len(pairs))
        for left, right in pairs:
            writer.write_uvarint(left)
            writer.write_uvarint(right)
    return writer.getvalue()


def _decode_candidates(data: bytes) -> dict[str, Any]:
    reader = ByteReader(data)
    pool = StringPool.read(reader)
    lookup = StringPool.lookup
    candidates: list[BinaryTable] = []
    for _ in range(reader.read_uvarint()):
        table_id = lookup(pool, reader.read_uvarint())
        left_name = lookup(pool, reader.read_uvarint())
        right_name = lookup(pool, reader.read_uvarint())
        source = lookup(pool, reader.read_uvarint())
        domain = lookup(pool, reader.read_uvarint())
        metadata = _json_object(
            lookup(pool, reader.read_uvarint()).encode("utf-8"), "metadata"
        )
        pairs = [
            ValuePair(
                lookup(pool, reader.read_uvarint()), lookup(pool, reader.read_uvarint())
            )
            for _ in range(reader.read_uvarint())
        ]
        candidates.append(
            BinaryTable(
                table_id=table_id,
                pairs=pairs,
                left_name=left_name,
                right_name=right_name,
                source_table_id=source,
                domain=domain,
                metadata=metadata,
            )
        )
    reader.expect_eof()
    return {"candidates": candidates}


def _encode_profiles(fields: Mapping[str, Any]) -> bytes:
    profiles: Mapping[str, Mapping] = fields["profiles"]
    pool = StringPool()
    records: list[tuple] = []
    for table_id, data in profiles.items():
        left_keys = list(data["left_keys"])
        right_keys = list(data["right_keys"])
        compact_lefts = list(data["compact_lefts"])
        records.append(
            (
                pool.ref(table_id),
                int(data["edit_cap"]),
                [pool.ref(key) for key in left_keys],
                [pool.ref(key) for key in right_keys],
                [pool.ref(key) for key in compact_lefts],
            )
        )
    writer = ByteWriter()
    pool.write_to(writer)
    writer.write_uvarint(len(records))
    for table_id, edit_cap, left_keys, right_keys, compact_lefts in records:
        writer.write_uvarint(table_id)
        writer.write_uvarint(edit_cap)
        writer.write_uvarint(len(left_keys))
        for row_lists in (left_keys, right_keys, compact_lefts):
            for reference in row_lists:
                writer.write_uvarint(reference)
    return writer.getvalue()


def _decode_profiles(data: bytes) -> dict[str, Any]:
    reader = ByteReader(data)
    pool = StringPool.read(reader)
    lookup = StringPool.lookup
    profiles: dict[str, dict] = {}
    for _ in range(reader.read_uvarint()):
        table_id = lookup(pool, reader.read_uvarint())
        edit_cap = reader.read_uvarint()
        rows = reader.read_uvarint()
        left_keys = [lookup(pool, reader.read_uvarint()) for _ in range(rows)]
        right_keys = [lookup(pool, reader.read_uvarint()) for _ in range(rows)]
        compact_lefts = [lookup(pool, reader.read_uvarint()) for _ in range(rows)]
        profiles[table_id] = {
            "left_keys": left_keys,
            "right_keys": right_keys,
            "compact_lefts": compact_lefts,
            "edit_cap": edit_cap,
        }
    reader.expect_eof()
    return {"profiles": profiles}


def _encode_edges(fields: Mapping[str, Any]) -> bytes:
    # One sorted pass per map: intern while buffering the records, then emit
    # pool + records (the pool must precede everything that references it).
    pool = StringPool()
    edge_maps: list[list[tuple[int, int, float]]] = []
    for key in ("positive_edges", "negative_edges"):
        edge_maps.append(
            [
                (pool.ref(first), pool.ref(second), weight)
                for (first, second), weight in sorted(fields[key].items())
            ]
        )
    writer = ByteWriter()
    pool.write_to(writer)
    for records in edge_maps:
        writer.write_uvarint(len(records))
        for first_ref, second_ref, weight in records:
            writer.write_uvarint(first_ref)
            writer.write_uvarint(second_ref)
            writer.write_float(weight)
    return writer.getvalue()


def _read_edge_map(reader: ByteReader, pool: list[str]) -> dict[tuple[str, str], float]:
    lookup = StringPool.lookup
    edges: dict[tuple[str, str], float] = {}
    for _ in range(reader.read_uvarint()):
        first = lookup(pool, reader.read_uvarint())
        second = lookup(pool, reader.read_uvarint())
        edges[(first, second)] = reader.read_float()
    return edges


def _decode_edges(data: bytes) -> dict[str, Any]:
    reader = ByteReader(data)
    pool = StringPool.read(reader)
    positive = _read_edge_map(reader, pool)
    negative = _read_edge_map(reader, pool)
    reader.expect_eof()
    return {"positive_edges": positive, "negative_edges": negative}


def _encode_mappings(fields: Mapping[str, Any]) -> bytes:
    mappings: list[MappingRelationship] = fields["mappings"]
    pool = StringPool()
    records: list[tuple] = []
    for mapping in mappings:
        records.append(
            (
                pool.ref(mapping.mapping_id),
                pool.ref(mapping.column_names[0]),
                pool.ref(mapping.column_names[1]),
                pool.ref(canonical_json(jsonable(mapping.metadata)).decode("utf-8")),
                [(pool.ref(pair.left), pool.ref(pair.right)) for pair in mapping.pairs],
                [pool.ref(source) for source in mapping.source_tables],
                [pool.ref(domain) for domain in sorted(mapping.domains)],
            )
        )
    writer = ByteWriter()
    pool.write_to(writer)
    writer.write_uvarint(len(records))
    for mapping_id, left_col, right_col, metadata, pairs, sources, domains in records:
        for reference in (mapping_id, left_col, right_col, metadata):
            writer.write_uvarint(reference)
        writer.write_uvarint(len(pairs))
        for left, right in pairs:
            writer.write_uvarint(left)
            writer.write_uvarint(right)
        for reference_list in (sources, domains):
            writer.write_uvarint(len(reference_list))
            for reference in reference_list:
                writer.write_uvarint(reference)
    return writer.getvalue()


def _decode_mappings(data: bytes) -> dict[str, Any]:
    reader = ByteReader(data)
    pool = StringPool.read(reader)
    lookup = StringPool.lookup
    mappings: list[MappingRelationship] = []
    for _ in range(reader.read_uvarint()):
        mapping_id = lookup(pool, reader.read_uvarint())
        left_col = lookup(pool, reader.read_uvarint())
        right_col = lookup(pool, reader.read_uvarint())
        metadata = _json_object(
            lookup(pool, reader.read_uvarint()).encode("utf-8"), "metadata"
        )
        pairs = [
            ValuePair(
                lookup(pool, reader.read_uvarint()), lookup(pool, reader.read_uvarint())
            )
            for _ in range(reader.read_uvarint())
        ]
        sources = [lookup(pool, reader.read_uvarint()) for _ in range(reader.read_uvarint())]
        domains = [lookup(pool, reader.read_uvarint()) for _ in range(reader.read_uvarint())]
        mappings.append(
            MappingRelationship(
                mapping_id=mapping_id,
                pairs=pairs,
                source_tables=sources,
                domains=set(domains),
                column_names=(left_col, right_col),
                metadata=metadata,
            )
        )
    reader.expect_eof()
    return {"mappings": mappings}


# ---------------------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------------------
_ENCODERS: dict[str, Callable[[Mapping[str, Any]], bytes]] = {
    "config": _encode_config_section,
    "fingerprints": _encode_fingerprints,
    "candidates": _encode_candidates,
    "profiles": _encode_profiles,
    "edges": _encode_edges,
    "mappings": _encode_mappings,
    "curation": _encode_curation,
    "stats": _encode_stats,
}

_DECODERS: dict[str, Callable[[bytes], dict[str, Any]]] = {
    "config": _decode_config_section,
    "fingerprints": _decode_fingerprints,
    "candidates": _decode_candidates,
    "profiles": _decode_profiles,
    "edges": _decode_edges,
    "mappings": _decode_mappings,
    "curation": _decode_curation,
    "stats": _decode_stats,
}


def encode_section(name: str, fields: Mapping[str, Any]) -> bytes:
    """Encode one section's field group to its (uncompressed) payload bytes."""
    return _ENCODERS[name](fields)


def decode_section(name: str, data: bytes) -> dict[str, Any]:
    """Decode one section's payload bytes back into its field group.

    Raises :class:`~repro.store.codec.CodecError` (or ``KeyError``/
    ``TypeError``/``ValueError`` from malformed JSON structures) on damaged
    input; the container layer converts those into
    :class:`~repro.store.errors.ArtifactCorruptionError` naming the section.
    """
    return _DECODERS[name](data)


def write_patch(
    writer: ByteWriter, upserts: Iterable[MappingRelationship], removed: Sequence[str]
) -> None:
    """Write a served-pool patch: the removed ids, then the upserts as a
    length-prefixed ``"mappings"`` section (the wire and the journal share it)."""
    writer.write_uvarint(len(removed))
    for mapping_id in removed:
        writer.write_str(mapping_id)
    section = encode_section("mappings", {"mappings": list(upserts)})
    writer.write_uvarint(len(section))
    writer.write_bytes(section)


def read_patch(reader: ByteReader) -> tuple[list[MappingRelationship], list[str]]:
    """Read one :func:`write_patch` encoding; returns ``(upserts, removed)``."""
    removed = [reader.read_str() for _ in range(reader.read_uvarint())]
    section = reader.read_bytes(reader.read_uvarint())
    return decode_section("mappings", section)["mappings"], removed


def section_item_count(name: str, fields: Mapping[str, Any]) -> int | None:
    """Number of top-level items the section stores (``None`` when unsized).

    Recorded in the table of contents so consumers can answer "how many
    candidates/mappings does this artifact hold?" without decoding the section
    (the incremental-refresh no-op path relies on this).
    """
    sized = {
        "candidates": "candidates",
        "profiles": "profiles",
        "mappings": "mappings",
        "curation": "curated_ids",
        "fingerprints": "table_fingerprints",
    }
    field = sized.get(name)
    if field is None:
        return None
    return len(fields[field])
