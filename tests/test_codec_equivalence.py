"""The section decoders against a verbatim copy of the per-varint ones.

``repro.store.sections`` reads the mappings section's record stream (the
part after its string pool) in one pass as one list of ints, with
``ByteReader.read_uvarints``.  The reference below is the decoder before that
change, copied verbatim with the reader primitives it used: one
``read_uvarint`` method call per varint and one checked ``StringPool.lookup``
per reference.  The other three binary sections (candidates, profiles, edges)
still walk a ``ByteReader``; they stay in the suite, so a change to their
reader is held to the same reference.

* Encoder output for arbitrary candidates, profiles, edges, mappings and
  patches decodes to equal objects under both.
* Arbitrary, bit-flipped, cut, inserted-into and spliced payloads give equal
  objects from both or a :class:`CodecError` from both, never another error.
* The wanted-ids mappings decode equals the full decode filtered to those
  ids, and raises exactly when the full decode raises.
* Every value :meth:`ByteWriter.write_uvarint` accepts decodes back to
  itself, and it refuses every value a reader would refuse.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.binary_table import BinaryTable, ValuePair
from repro.core.mapping import MappingRelationship
from repro.store.codec import ByteReader as CurrentByteReader
from repro.store.codec import ByteWriter, CodecError
from repro.store.sections import (
    decode_mappings,
    decode_section,
    encode_section,
    read_patch,
    write_patch,
)

EQUIVALENCE = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------------------
# The reference: the per-varint decoders, verbatim
# ---------------------------------------------------------------------------------------
_FLOAT64 = struct.Struct("<d")
_MAX_COUNT = 1 << 30


class ByteReader:
    """Bounds-checked reader over one section's decoded byte string."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_uvarint(self) -> int:
        value = 0
        shift = 0
        data, pos = self._data, self._pos
        while True:
            if pos >= len(data):
                raise CodecError("truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise CodecError("varint too long")
        self._pos = pos
        if value > _MAX_COUNT and shift > 0:
            # Counts and pool references share this bound; a stray huge value
            # means the stream lost framing.
            raise CodecError(f"implausible varint value {value}")
        return value

    def read_str(self) -> str:
        length = self.read_uvarint()
        end = self._pos + length
        if end > len(self._data):
            raise CodecError("truncated string")
        try:
            text = self._data[self._pos : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string: {exc}") from exc
        self._pos = end
        return text

    def read_float(self) -> float:
        end = self._pos + _FLOAT64.size
        if end > len(self._data):
            raise CodecError("truncated float64")
        value = _FLOAT64.unpack_from(self._data, self._pos)[0]
        self._pos = end
        return value

    def read_bytes(self, count: int) -> bytes:
        """Read exactly ``count`` raw bytes (caller decoded the length)."""
        end = self._pos + count
        if end > len(self._data):
            raise CodecError(
                f"truncated bytes: {len(self._data) - self._pos} of {count}"
            )
        data = self._data[self._pos : end]
        self._pos = end
        return data

    def expect_eof(self) -> None:
        """Require the stream to be fully consumed (framing check)."""
        if self._pos != len(self._data):
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after section payload"
            )


class StringPool:
    @staticmethod
    def read(reader: ByteReader) -> list[str]:
        count = reader.read_uvarint()
        return [reader.read_str() for _ in range(count)]

    @staticmethod
    def lookup(pool: list[str], reference: int) -> str:
        try:
            return pool[reference]
        except IndexError:
            raise CodecError(
                f"string reference {reference} outside pool of {len(pool)}"
            ) from None


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


def read_patch_reference(reader: ByteReader) -> tuple[list[MappingRelationship], list[str]]:
    """Read one :func:`write_patch` encoding; returns ``(upserts, removed)``."""
    removed = [reader.read_str() for _ in range(reader.read_uvarint())]
    section = reader.read_bytes(reader.read_uvarint())
    return _decode_mappings(section)["mappings"], removed


REFERENCE = {
    "candidates": _decode_candidates,
    "profiles": _decode_profiles,
    "edges": _decode_edges,
    "mappings": _decode_mappings,
}


# ---------------------------------------------------------------------------------------
# Canonical forms and outcomes
# ---------------------------------------------------------------------------------------
def _canonical(name: str, fields: dict[str, Any]) -> object:
    """A comparable form of a decoded field group (every attribute, exact floats)."""
    if name == "candidates":
        return [vars(table) for table in fields["candidates"]]
    if name == "mappings":
        return [vars(mapping) for mapping in fields["mappings"]]
    if name == "edges":
        return {
            key: sorted((ends, _FLOAT64.pack(weight)) for ends, weight in fields[key].items())
            for key in ("positive_edges", "negative_edges")
        }
    return fields


def _outcome(decode, payload: bytes) -> tuple:
    """``("ok", value)`` or ``("error",)`` for a CodecError; anything else escapes."""
    try:
        return ("ok", decode(payload))
    except CodecError:
        return ("error",)


def _section_outcome(decoders: dict, name: str, payload: bytes) -> tuple:
    result = _outcome(decoders[name], payload)
    return result if result[0] == "error" else ("ok", _canonical(name, result[1]))


def _patch_outcome(reader_cls, read, payload: bytes) -> tuple:
    reader = reader_cls(payload)
    try:
        upserts, removed = read(reader)
    except CodecError:
        return ("error",)
    try:
        reader.expect_eof()
        consumed = True
    except CodecError:
        consumed = False
    return ("ok", [vars(mapping) for mapping in upserts], removed, consumed)


CURRENT = {name: lambda data, name=name: decode_section(name, data) for name in REFERENCE}


# ---------------------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------------------
TEXT = st.text(alphabet=st.sampled_from("abcXYZ é-漢\x00"), max_size=6)
PAIRS = st.lists(st.tuples(TEXT, TEXT), max_size=6)
METADATA = st.dictionaries(
    st.text(alphabet="kv", max_size=3),
    st.one_of(st.integers(-5, 5), st.booleans(), TEXT),
    max_size=2,
)

candidate_lists = st.lists(
    st.builds(
        BinaryTable,
        table_id=TEXT,
        pairs=PAIRS,
        left_name=TEXT,
        right_name=TEXT,
        source_table_id=TEXT,
        domain=TEXT,
        metadata=METADATA,
    ),
    max_size=4,
)

mapping_lists = st.lists(
    st.builds(
        MappingRelationship,
        mapping_id=st.sampled_from(["m-0", "m-1", "m-2", "m-3"]) | TEXT,
        pairs=PAIRS,
        source_tables=st.lists(TEXT, max_size=3),
        domains=st.sets(TEXT, max_size=3),
        column_names=st.tuples(TEXT, TEXT),
        metadata=METADATA,
    ),
    max_size=4,
)


@st.composite
def profile_maps(draw):
    profiles = {}
    for table_id in draw(st.lists(TEXT, max_size=3)):
        rows = draw(st.integers(0, 4))
        keys = st.lists(TEXT, min_size=rows, max_size=rows)
        profiles[table_id] = {
            "left_keys": draw(keys),
            "right_keys": draw(keys),
            "compact_lefts": draw(keys),
            "edit_cap": draw(st.integers(0, 1 << 30)),
        }
    return profiles


edge_maps = st.dictionaries(
    st.tuples(TEXT, TEXT),
    st.floats(allow_nan=False, width=64),
    max_size=4,
)


@st.composite
def section_payloads(draw):
    """One section kind and its encoder output for arbitrary objects."""
    name = draw(st.sampled_from(sorted(REFERENCE)))
    if name == "candidates":
        fields = {"candidates": draw(candidate_lists)}
    elif name == "profiles":
        fields = {"profiles": draw(profile_maps())}
    elif name == "edges":
        fields = {"positive_edges": draw(edge_maps), "negative_edges": draw(edge_maps)}
    else:
        fields = {"mappings": draw(mapping_lists)}
    return name, encode_section(name, fields)


def _patch_bytes(upserts, removed) -> bytes:
    writer = ByteWriter()
    write_patch(writer, upserts, removed)
    return writer.getvalue()


def _mutated(data, base: bytes) -> bytes:
    """Arbitrary bytes, or a flip, cut, insertion or splice of ``base``."""
    kind = data.draw(st.sampled_from(["arbitrary", "flip", "cut", "insert", "splice"]))
    if kind == "arbitrary" or not base:
        return data.draw(st.binary(max_size=128))
    position = data.draw(st.integers(0, len(base) - 1))
    if kind == "flip":
        mask = data.draw(st.integers(1, 255))
        return base[:position] + bytes([base[position] ^ mask]) + base[position + 1 :]
    if kind == "cut":
        return base[:position]
    if kind == "insert":
        return base[:position] + data.draw(st.binary(min_size=1, max_size=8)) + base[position:]
    return base[:position] + data.draw(st.binary(max_size=32))


# ---------------------------------------------------------------------------------------
# Encoder output decodes alike
# ---------------------------------------------------------------------------------------
@EQUIVALENCE
@given(section=section_payloads())
def test_encoder_output_decodes_to_equal_objects(section):
    name, payload = section
    expected = _section_outcome(REFERENCE, name, payload)
    assert expected[0] == "ok"
    assert _section_outcome(CURRENT, name, payload) == expected


@EQUIVALENCE
@given(upserts=mapping_lists, removed=st.lists(TEXT, max_size=3))
def test_encoded_patch_decodes_to_equal_objects(upserts, removed):
    payload = _patch_bytes(upserts, removed)
    expected = _patch_outcome(ByteReader, read_patch_reference, payload)
    assert expected[0] == "ok" and expected[-1]
    assert _patch_outcome(CurrentByteReader, read_patch, payload) == expected


# ---------------------------------------------------------------------------------------
# Damaged payloads: equal objects or a CodecError from both
# ---------------------------------------------------------------------------------------
@EQUIVALENCE
@given(section=section_payloads(), data=st.data())
def test_damaged_section_payload_decodes_alike(section, data):
    name, payload = section
    damaged = _mutated(data, payload)
    assert _section_outcome(CURRENT, name, damaged) == _section_outcome(
        REFERENCE, name, damaged
    )


@EQUIVALENCE
@given(upserts=mapping_lists, removed=st.lists(TEXT, max_size=3), data=st.data())
def test_damaged_patch_decodes_alike(upserts, removed, data):
    damaged = _mutated(data, _patch_bytes(upserts, removed))
    assert _patch_outcome(CurrentByteReader, read_patch, damaged) == _patch_outcome(
        ByteReader, read_patch_reference, damaged
    )


def _pool_section(pool: list[str], records: list[int]) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(len(pool))
    for text in pool:
        writer.write_str(text)
    for value in records:
        writer.write_uvarint(value)
    return writer.getvalue()


def test_pairs_equal_only_through_a_duplicated_pool_string_are_deduped():
    # The writer interns every string once; a hand-made pool holding "a"
    # twice stores two distinct references for one pair, which the decoder
    # must dedupe like the constructor does.
    payload = _pool_section(
        ["m", "a", "a", "b", "{}", ""],
        [1, 0, 5, 5, 4, 3, 1, 3, 2, 3, 1, 3, 0, 0],
    )
    (mapping,) = decode_section("mappings", payload)["mappings"]
    assert mapping.pairs == [ValuePair("a", "b")]
    assert vars(mapping) == vars(_decode_mappings(payload)["mappings"][0])


# ---------------------------------------------------------------------------------------
# Wanted ids: the full decode, filtered
# ---------------------------------------------------------------------------------------
def _filtered_outcome(payload: bytes, wanted: frozenset[str]) -> tuple:
    full = _outcome(decode_mappings, payload)
    if full[0] == "error":
        return full
    return ("ok", [vars(m) for m in full[1]["mappings"] if m.mapping_id in wanted])


def _wanted_outcome(payload: bytes, wanted: frozenset[str]) -> tuple:
    result = _outcome(lambda data: decode_mappings(data, wanted), payload)
    return result if result[0] == "error" else ("ok", [vars(m) for m in result[1]["mappings"]])


WANTED = st.frozensets(st.sampled_from(["m-0", "m-1", "m-2", "m-3", "", "a"]), max_size=4)


@EQUIVALENCE
@given(mappings=mapping_lists, wanted=WANTED, data=st.data())
def test_wanted_ids_decode_is_the_filtered_full_decode(mappings, wanted, data):
    payload = encode_section("mappings", {"mappings": mappings})
    if data.draw(st.booleans()):
        payload = _mutated(data, payload)
    assert _wanted_outcome(payload, wanted) == _filtered_outcome(payload, wanted)


def test_unwanted_records_are_still_checked():
    odd = MappingRelationship(mapping_id="m-odd", pairs=[("a", "b")], metadata=[1])
    fine = MappingRelationship(mapping_id="m-fine", pairs=[("c", "d")])
    payload = encode_section("mappings", {"mappings": [fine, odd]})
    with pytest.raises(CodecError, match="not a JSON object"):
        decode_mappings(payload, frozenset({"m-fine"}))
    payload = encode_section("mappings", {"mappings": [fine]})
    with pytest.raises(CodecError):
        decode_mappings(payload + b"\x00", frozenset())
    # One pair's right value points past the three-string pool.
    outside = _pool_section(["m-0", "{}", ""], [1, 0, 2, 2, 1, 1, 0, 7, 0, 0])
    for wanted in (None, frozenset(), frozenset({"m-0"})):
        with pytest.raises(CodecError, match="outside pool"):
            decode_mappings(outside, wanted)
    with pytest.raises(CodecError):
        _decode_mappings(outside)


# ---------------------------------------------------------------------------------------
# Varints: what the writer accepts, every reader takes back
# ---------------------------------------------------------------------------------------
@EQUIVALENCE
@given(
    value=st.integers(-(1 << 70), 1 << 70)
    | st.sampled_from([0, 127, 128, (1 << 30) - 1, 1 << 30, (1 << 30) + 1, 1 << 31])
)
def test_every_value_the_writer_accepts_decodes_back_to_itself(value):
    writer = ByteWriter()
    try:
        writer.write_uvarint(value)
    except ValueError:
        assert not 0 <= value <= 1 << 30
        return
    encoded = writer.getvalue()
    reader = CurrentByteReader(encoded)
    assert reader.read_uvarint() == value
    reader.expect_eof()
    assert CurrentByteReader(encoded).read_uvarints() == [value]
    assert ByteReader(encoded).read_uvarint() == value


def _every_uvarint(reader) -> list[int]:
    """The reference loop: ``read_uvarint`` until the payload is used up."""
    values = []
    while True:
        try:
            reader.expect_eof()
            return values
        except CodecError:
            values.append(reader.read_uvarint())


VARINT_BYTES = st.binary(max_size=64) | st.lists(
    st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81, 0xC0, 0xFF]), max_size=64
).map(bytes)


@EQUIVALENCE
@given(payload=VARINT_BYTES, skip=st.integers(0, 4))
@example(payload=b"\x80", skip=0)  # ends inside a varint
@example(payload=b"\x80\x80\x80\x80\x08", skip=0)  # 2**31, past the bound
@example(payload=b"\x80" * 10 + b"\x00", skip=0)  # zero, but eleven bytes long
@example(payload=b"\x05\x80", skip=1)
def test_read_uvarints_matches_read_uvarint_to_the_end(payload, skip):
    skip = min(skip, len(payload))
    expected = _outcome(lambda data: _every_uvarint(ByteReader(data[skip:])), payload)

    def one_pass(data: bytes) -> list[int]:
        reader = CurrentByteReader(data)
        reader.read_bytes(skip)
        values = reader.read_uvarints()
        reader.expect_eof()
        return values

    assert _outcome(one_pass, payload) == expected

