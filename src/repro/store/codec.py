"""Low-level binary primitives for the v2 artifact's compact sections.

The value-pair sections of an artifact (candidates, profiles, mappings) and the
edge section are dominated by strings that repeat heavily — the same value
appears in several candidates, its normalized form appears again in the
profiles, table ids appear in every edge.  The v2 encoding therefore writes
each section as:

* an **interned string pool** — every distinct string stored once;
* **struct-packed records** — string *references* (LEB128 varints into the
  pool), varint counts, and raw little-endian float64 scores.

Varints keep references to the (overwhelmingly small) pool indices at 1–2
bytes, and float64 keeps scores bit-exact across a round trip.  Everything here
is deliberately order-preserving and deterministic: identical inputs encode to
identical bytes, which the artifact writer relies on for reproducible files.
A varint holds at most ``2**30``: the writer refuses a larger value at the
sender (``ValueError``), because every reader refuses to decode one.

:class:`ByteReader` walks a payload one field at a time.  Where a load pays
for every varint — the mappings section, which every daemon start decodes —
:meth:`ByteReader.read_uvarints` reads the record stream after the string
pool in one pass into a list of ints, with the same checks.

All read-side failures raise :class:`CodecError` (a ``ValueError``); the
container layer wraps them into
:class:`~repro.store.errors.ArtifactCorruptionError` naming the section.

The one **checksummed record** every persisted or transmitted stream is built
from lives here too: a big-endian uint32 payload length, the payload's SHA-256
and the payload.  The artifact header is ``CONTAINER_MAGIC`` plus one record
holding the TOC, the delta log and the artifact journal are chains of records,
and a wire frame is a fixed prefix plus one record.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator

__all__ = [
    "CodecError",
    "ByteWriter",
    "ByteReader",
    "StringPool",
    "RECORD_PREFIX_SIZE",
    "TornRecordError",
    "RecordChecksumError",
    "frame_record",
    "record_length",
    "split_record",
    "iter_framed_records",
]

_FLOAT64 = struct.Struct("<d")

#: Sanity bound on decoded counts/lengths: no section legitimately contains a
#: single collection with more than a billion entries, so a larger decoded
#: varint is corruption — fail fast instead of attempting a huge allocation.
_MAX_COUNT = 1 << 30


class CodecError(ValueError):
    """The binary stream is truncated or structurally invalid."""


class TornRecordError(CodecError):
    """A checksummed record runs past the end of its data."""


class RecordChecksumError(CodecError):
    """A checksummed record's payload does not match its SHA-256 digest."""


class ByteWriter:
    """Append-only little binary builder (varints, strings, float64)."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def write_uvarint(self, value: int) -> None:
        """LEB128-encode one unsigned integer of at most ``2**30``."""
        if not 0 <= value <= _MAX_COUNT:
            raise ValueError(f"uvarint encodes 0..{_MAX_COUNT}, not {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._buffer.append(byte | 0x80)
            else:
                self._buffer.append(byte)
                return

    def write_str(self, text: str) -> None:
        """Write one raw string: uvarint byte length + UTF-8 bytes."""
        data = text.encode("utf-8")
        self.write_uvarint(len(data))
        self._buffer += data

    def write_float(self, value: float) -> None:
        """Write one little-endian IEEE-754 float64 (bit-exact round trip)."""
        self._buffer += _FLOAT64.pack(value)

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes verbatim (caller owns any length prefix)."""
        self._buffer += data

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


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

    def read_uvarints(self) -> list[int]:
        """Every varint left in the payload, decoded in one pass.

        Makes :meth:`read_uvarint`'s checks on each value; the payload must
        end where a varint ends.
        """
        values: list[int] = []
        append = values.append
        value = shift = 0
        for byte in self._data[self._pos :]:
            if byte < 0x80:
                if shift:
                    value |= byte << shift
                    if value > _MAX_COUNT:
                        raise CodecError(f"implausible varint value {value}")
                    append(value)
                    value = shift = 0
                else:
                    append(byte)
            else:
                value |= (byte & 0x7F) << shift
                shift += 7
                if shift > 63:
                    raise CodecError("varint too long")
        if shift:
            raise CodecError("truncated varint")
        self._pos = len(self._data)
        return values

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
    """Write-side string interner: every distinct string is stored once.

    ``ref()`` returns the stable pool index for a string; ``write_to()`` emits
    the pool itself (count + raw strings, in first-interned order) — call it
    *after* interning everything, *before* the records that reference it.
    Read-side, :meth:`read` reconstructs the pool as a plain list and
    :meth:`lookup` resolves references with bounds checking.
    """

    __slots__ = ("_indexes", "_strings")

    def __init__(self) -> None:
        self._indexes: dict[str, int] = {}
        self._strings: list[str] = []

    def ref(self, text: str) -> int:
        index = self._indexes.get(text)
        if index is None:
            index = len(self._strings)
            self._indexes[text] = index
            self._strings.append(text)
        return index

    def __len__(self) -> int:
        return len(self._strings)

    def write_to(self, writer: ByteWriter) -> None:
        writer.write_uvarint(len(self._strings))
        for text in self._strings:
            writer.write_str(text)

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


# ---------------------------------------------------------------------------------------
# Checksummed records: length, SHA-256, payload
# ---------------------------------------------------------------------------------------
_RECORD_LENGTH = struct.Struct(">I")

#: Bytes in front of a record's payload: its length and its digest.
RECORD_PREFIX_SIZE = _RECORD_LENGTH.size + hashlib.sha256().digest_size

#: Bound on one chained record's payload; anything larger is corruption.
_MAX_CHAINED_RECORD = 1 << 30


def frame_record(payload: bytes) -> bytes:
    """Frame ``payload`` as one self-checking record."""
    return (
        _RECORD_LENGTH.pack(len(payload)) + hashlib.sha256(payload).digest() + payload
    )


def record_length(data: bytes, offset: int = 0, *, cap: int) -> int:
    """The payload length the record at ``offset`` declares, if at most ``cap``.

    Raises :class:`TornRecordError` when ``data`` ends inside the length and
    :class:`CodecError` when it exceeds ``cap`` (the stream lost framing).
    """
    if offset + _RECORD_LENGTH.size > len(data):
        raise TornRecordError("record truncated inside its length")
    (length,) = _RECORD_LENGTH.unpack_from(data, offset)
    if length > cap:
        raise CodecError(f"declared record length {length} exceeds cap {cap}")
    return length


def split_record(data: bytes, offset: int = 0, *, cap: int) -> tuple[bytes, int]:
    """Verify the record at ``offset``; returns ``(payload, end offset)``.

    Raises :class:`TornRecordError` when it runs past the end of ``data``,
    :class:`RecordChecksumError` when the payload fails its digest, and
    :class:`CodecError` when the declared length exceeds ``cap``.
    """
    start = offset + RECORD_PREFIX_SIZE
    end = start + record_length(data, offset, cap=cap)
    if end > len(data):
        raise TornRecordError(
            f"record truncated: {len(data) - offset} of {end - offset} bytes"
        )
    payload = data[start:end]
    if hashlib.sha256(payload).digest() != data[offset + _RECORD_LENGTH.size : start]:
        raise RecordChecksumError(
            f"record payload of {end - start} bytes does not match its SHA-256"
        )
    return payload, end


def iter_framed_records(data: bytes, offset: int = 0) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, end offset)`` of each record chained from ``offset`` on.

    Stops at the first record that is torn or fails its checksum, so a crash
    mid-append or a damaged byte never yields a record; the last ``end``
    yielded is where the intact chain stops.
    """
    while True:
        try:
            payload, offset = split_record(data, offset, cap=_MAX_CHAINED_RECORD)
        except CodecError:
            return
        yield payload, offset
