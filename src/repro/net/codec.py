"""Framed binary wire protocol for the cluster's cross-host transport.

Every message between a :class:`~repro.net.client.RemoteReplica` and a
:class:`~repro.net.server.ReplicaServer` is one **frame**:

.. code-block:: text

    magic+version  4 bytes   b"RNE1" (bump the digit on incompatible change)
    frame type     1 byte    request/response kind (see the T_* constants)
    request id     8 bytes   big-endian; responses echo their request's id
    payload length 4 bytes   big-endian, sanity-capped   } one checksummed record
    checksum      32 bytes   sha256(payload)             } (repro.store.codec),
    payload        N bytes   type-specific body          } as in the artifact

Payload bodies reuse the v2 artifact store's binary primitives
(:class:`~repro.store.codec.ByteWriter` varints / strings / bit-exact float64,
plus the interned :class:`~repro.store.codec.StringPool`), and mapping records
travel as a verbatim ``"mappings"`` artifact section
(:func:`repro.store.sections.encode_section`), so a mapping decoded off the
wire is constructed by **exactly** the same code path as one decoded from a
shard artifact — which is what keeps remote answers byte-identical
(``repr``-identical) to in-process ones, set/dict iteration order included.

Read-side failures are typed: a stream that ends mid-frame raises
:class:`TornFrameError`, a checksum mismatch raises :class:`ChecksumError`,
anything else structurally invalid — a damaged payload included — raises
:class:`ProtocolError` (all three are :class:`~repro.store.codec.CodecError`
subclasses, so existing corruption handling composes).
"""

from __future__ import annotations

import functools
import json
import struct
import threading
from collections import deque
from dataclasses import dataclass

from repro.applications.index import MappingMatch
from repro.applications.service import LookupRequest, ServedResponse
from repro.serving.daemon import INPROC_TRANSPORT_SNAPSHOT
from repro.store.codec import (
    RECORD_PREFIX_SIZE,
    ByteReader,
    ByteWriter,
    CodecError,
    RecordChecksumError,
    TornRecordError,
    frame_record,
    record_length,
    split_record,
)
from repro.store.sections import decode_section, encode_section, read_patch, write_patch

__all__ = [
    "PROTOCOL_MAGIC",
    "MAX_FRAME_PAYLOAD",
    "ProtocolError",
    "TornFrameError",
    "ChecksumError",
    "Frame",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "TransportStats",
    "TRANSPORT_HEALTH_KEYS",
]

#: Magic + protocol version, first bytes of every frame.  An incompatible
#: protocol change bumps the trailing digit so mixed-version peers fail fast
#: with a clear error instead of misparsing each other.
PROTOCOL_MAGIC = b"RNE1"

#: Sanity cap on one frame's payload: a single lookup batch or delta slice is
#: at most a few MB; a larger declared length means the stream lost framing.
MAX_FRAME_PAYLOAD = 1 << 28

_PREFIX = struct.Struct(">4sBQ")  # magic, frame type, request id
HEADER_SIZE = _PREFIX.size + RECORD_PREFIX_SIZE

# -- Frame types (requests odd concerns, responses paired) ------------------------------
T_PING = 1
T_PONG = 2
T_LOOKUP = 3
T_LOOKUP_OK = 4
T_APPLY_DELTA = 5
T_DELTA_OK = 6
T_HEALTH = 7
T_HEALTH_OK = 8
T_NOTIFY = 9  # rollout notification: report / await a generation number
T_NOTIFY_OK = 10
T_DRAIN = 11
T_DRAIN_OK = 12
T_ERROR = 13  # response-only: remote exception envelope

_FRAME_TYPES = frozenset(range(T_PING, T_ERROR + 1))


class ProtocolError(CodecError):
    """The byte stream violates the framed protocol (bad magic, type, length)."""


class TornFrameError(ProtocolError):
    """The connection ended (or was cut) in the middle of a frame."""


class ChecksumError(ProtocolError):
    """A frame's payload does not match its sha256 checksum."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw payload bytes."""

    frame_type: int
    request_id: int
    payload: bytes

    def __len__(self) -> int:
        return HEADER_SIZE + len(self.payload)


def encode_frame(frame_type: int, request_id: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + checksum + payload) to wire bytes."""
    if frame_type not in _FRAME_TYPES:
        raise ValueError(f"unknown frame type {frame_type}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds cap {MAX_FRAME_PAYLOAD}"
        )
    return _PREFIX.pack(PROTOCOL_MAGIC, frame_type, request_id) + frame_record(payload)


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from ``data`` (must contain exactly one)."""
    frame_type, request_id, _ = _read_header(data)
    payload, consumed = _split_payload(data)
    if consumed != len(data):
        raise ProtocolError(
            f"{len(data) - consumed} trailing bytes after frame payload"
        )
    return Frame(frame_type, request_id, payload)


def _read_header(header: bytes) -> tuple[int, int, int]:
    """Validate a frame's header; returns ``(frame type, request id, payload length)``."""
    if len(header) < HEADER_SIZE:
        raise TornFrameError(
            f"frame header truncated: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, frame_type, request_id = _PREFIX.unpack_from(header)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {PROTOCOL_MAGIC!r}); "
            "peer speaks a different protocol or the stream lost framing"
        )
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type}")
    try:
        length = record_length(header, _PREFIX.size, cap=MAX_FRAME_PAYLOAD)
    except CodecError as exc:
        raise ProtocolError(f"bad frame payload length: {exc}") from exc
    return frame_type, request_id, length


def _split_payload(data: bytes) -> tuple[bytes, int]:
    """Split and verify the record after a validated header, as wire errors."""
    try:
        return split_record(data, _PREFIX.size, cap=MAX_FRAME_PAYLOAD)
    except TornRecordError as exc:
        raise TornFrameError(f"frame payload truncated: {exc}") from exc
    except RecordChecksumError as exc:
        raise ChecksumError(
            "frame payload does not match its sha256 checksum "
            "(damaged in transit)"
        ) from exc


def read_frame(sock) -> Frame | None:
    """Read exactly one frame from a socket.

    Returns ``None`` on a clean end-of-stream at a frame boundary (the peer
    closed the connection between frames); raises :class:`TornFrameError` when
    the stream ends mid-frame, :class:`ChecksumError` on payload damage, and
    :class:`ProtocolError` on anything structurally invalid.
    """
    header = _recv_exactly(sock, HEADER_SIZE, allow_eof=True)
    if header is None:
        return None
    frame_type, request_id, length = _read_header(header)
    payload = _recv_exactly(sock, length) if length else b""
    payload, _ = _split_payload(header + payload)
    return Frame(frame_type, request_id, payload)


def _recv_exactly(sock, count: int, *, allow_eof: bool = False) -> bytes | None:
    """Read exactly ``count`` bytes; EOF mid-read is a torn frame."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TornFrameError(
                f"connection closed mid-frame ({count - remaining} of {count} "
                "bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------------------
_LOOKUP_OPS = ("values", "pairs")


def _payload_decoder(decode):
    """Raise a damaged payload's error as :class:`ProtocolError`.

    Payload bodies are read with the store's :class:`ByteReader` and section
    codec, whose typed error is the bare :class:`CodecError`; on the wire a
    malformed payload is a protocol violation like any other.
    """

    @functools.wraps(decode)
    def typed(payload: bytes):
        try:
            return decode(payload)
        except ProtocolError:
            raise
        except CodecError as exc:
            kind = decode.__name__.removeprefix("decode_")
            raise ProtocolError(f"malformed {kind} payload: {exc}") from exc

    return typed


def encode_lookup_request(
    requests: tuple[LookupRequest, ...] | list[LookupRequest],
    *,
    deadline_remaining: float | None = None,
) -> bytes:
    """Encode one ``cluster_lookup`` batch plus its remaining deadline budget.

    ``deadline_remaining`` is the router's remaining per-scatter budget in
    seconds at send time (``None`` = no deadline) — the single source of truth
    the replica enforces at serve time, so a slow network can only *shrink*
    the budget a batch is served under, never extend it.
    """
    writer = ByteWriter()
    writer.write_float(-1.0 if deadline_remaining is None else deadline_remaining)
    writer.write_uvarint(len(requests))
    for request in requests:
        writer.write_uvarint(_LOOKUP_OPS.index(request.op))
        writer.write_float(request.min_containment)
        writer.write_uvarint(request.top_k)
        writer.write_uvarint(len(request.values))
        if request.op == "values":
            for value in request.values:
                writer.write_str(value)
        else:
            for left, right in request.values:
                writer.write_str(left)
                writer.write_str(right)
    return writer.getvalue()


@_payload_decoder
def decode_lookup_request(
    payload: bytes,
) -> tuple[tuple[LookupRequest, ...], float | None]:
    reader = ByteReader(payload)
    deadline_remaining: float | None = reader.read_float()
    if deadline_remaining < 0:
        deadline_remaining = None
    requests: list[LookupRequest] = []
    for _ in range(reader.read_uvarint()):
        op_index = reader.read_uvarint()
        if op_index >= len(_LOOKUP_OPS):
            raise ProtocolError(f"unknown lookup op index {op_index}")
        op = _LOOKUP_OPS[op_index]
        min_containment = reader.read_float()
        top_k = reader.read_uvarint()
        count = reader.read_uvarint()
        if op == "values":
            values: tuple = tuple(reader.read_str() for _ in range(count))
        else:
            values = tuple(
                (reader.read_str(), reader.read_str()) for _ in range(count)
            )
        requests.append(
            LookupRequest(
                op=op, values=values, min_containment=min_containment, top_k=top_k
            )
        )
    reader.expect_eof()
    return tuple(requests), deadline_remaining


_DIRECTIONS = ("forward", "reverse")


def encode_lookup_response(
    responses: list[ServedResponse], *, generation: int, fingerprint: str
) -> bytes:
    """Encode one served batch: envelopes + the distinct mappings they cite.

    The mappings travel as a verbatim ``"mappings"`` artifact section (each
    distinct mapping once, matches reference it by index), so the client-side
    decode constructs them through the exact artifact code path — canonical
    JSON metadata, sorted-then-set domains — and the reconstructed
    :class:`MappingMatch` lists ``repr`` byte-identically to in-process ones.
    """
    distinct: dict[int, int] = {}
    mappings: list = []
    for response in responses:
        for match in response.result or ():
            if id(match.mapping) not in distinct:
                distinct[id(match.mapping)] = len(mappings)
                mappings.append(match.mapping)
    section = encode_section("mappings", {"mappings": mappings})
    writer = ByteWriter()
    writer.write_uvarint(generation)
    writer.write_str(fingerprint)
    writer.write_uvarint(len(section))
    writer.write_bytes(section)
    writer.write_uvarint(len(responses))
    for response in responses:
        writer.write_str(response.kind)
        writer.write_uvarint(response.request_index)
        writer.write_float(response.elapsed_seconds)
        writer.write_uvarint(0 if response.error is None else 1)
        if response.error is not None:
            writer.write_str(response.error)
        writer.write_uvarint(0 if response.result is None else 1)
        if response.result is not None:
            writer.write_uvarint(len(response.result))
            for match in response.result:
                writer.write_uvarint(distinct[id(match.mapping)])
                writer.write_float(match.left_containment)
                writer.write_float(match.right_containment)
                writer.write_uvarint(_DIRECTIONS.index(match.direction))
    return writer.getvalue()


@_payload_decoder
def decode_lookup_response(
    payload: bytes,
) -> tuple[list[ServedResponse], int, str]:
    """Decode a served batch; returns ``(responses, generation, fingerprint)``."""
    reader = ByteReader(payload)
    generation = reader.read_uvarint()
    fingerprint = reader.read_str()
    section_len = reader.read_uvarint()
    mappings = decode_section("mappings", reader.read_bytes(section_len))["mappings"]
    responses: list[ServedResponse] = []
    for _ in range(reader.read_uvarint()):
        kind = reader.read_str()
        request_index = reader.read_uvarint()
        elapsed = reader.read_float()
        error = reader.read_str() if reader.read_uvarint() else None
        result = None
        if reader.read_uvarint():
            matches: list[MappingMatch] = []
            for _ in range(reader.read_uvarint()):
                ref = reader.read_uvarint()
                if ref >= len(mappings):
                    raise ProtocolError(
                        f"mapping reference {ref} outside section of {len(mappings)}"
                    )
                left = reader.read_float()
                right = reader.read_float()
                direction_index = reader.read_uvarint()
                if direction_index >= len(_DIRECTIONS):
                    raise ProtocolError(
                        f"unknown match direction index {direction_index}"
                    )
                matches.append(
                    MappingMatch(
                        mapping=mappings[ref],
                        left_containment=left,
                        right_containment=right,
                        direction=_DIRECTIONS[direction_index],
                    )
                )
            result = matches
        responses.append(
            ServedResponse(
                kind=kind,
                request_index=request_index,
                elapsed_seconds=elapsed,
                result=result,
                error=error,
            )
        )
    reader.expect_eof()
    return responses, generation, fingerprint


def encode_delta_request(upserts: list, removed: list[str], *, seq: int) -> bytes:
    """Encode one shard-local delta slice: ``seq``, then the patch as
    :func:`write_patch` writes it."""
    writer = ByteWriter()
    writer.write_uvarint(seq)
    write_patch(writer, upserts, removed)
    return writer.getvalue()


@_payload_decoder
def decode_delta_request(payload: bytes) -> dict[str, object]:
    reader = ByteReader(payload)
    seq = reader.read_uvarint()
    upserts, removed = read_patch(reader)
    reader.expect_eof()
    return {"upserts": upserts, "removed": removed, "seq": seq}


def encode_generation(number: int) -> bytes:
    writer = ByteWriter()
    writer.write_uvarint(number)
    return writer.getvalue()


@_payload_decoder
def decode_generation(payload: bytes) -> int:
    reader = ByteReader(payload)
    number = reader.read_uvarint()
    reader.expect_eof()
    return number


def encode_notify_request(target: int, timeout: float) -> bytes:
    """Target generation to await (0 = just report the current one)."""
    writer = ByteWriter()
    writer.write_uvarint(target)
    writer.write_float(timeout)
    return writer.getvalue()


@_payload_decoder
def decode_notify_request(payload: bytes) -> tuple[int, float]:
    reader = ByteReader(payload)
    target = reader.read_uvarint()
    timeout = reader.read_float()
    reader.expect_eof()
    return target, timeout


def encode_json(obj: object) -> bytes:
    """Canonical JSON payload (health snapshots, error envelopes).

    ``default=str`` keeps the envelope best-effort: a health snapshot must
    never fail to serialize just because some diagnostic value is exotic.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def decode_json(payload: bytes) -> object:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON payload: {exc}") from exc


def encode_error(exc: BaseException) -> bytes:
    """Encode a remote failure as ``(exception type name, message)``."""
    return encode_json({"type": type(exc).__name__, "message": str(exc)})


def decode_error(payload: bytes) -> tuple[str, str]:
    obj = decode_json(payload)
    if not isinstance(obj, dict) or "type" not in obj or "message" not in obj:
        raise ProtocolError(f"malformed error envelope: {obj!r}")
    return str(obj["type"]), str(obj["message"])


# ---------------------------------------------------------------------------------------
# Transport counters
# ---------------------------------------------------------------------------------------
#: The key-set every ``health()["transport"]`` section carries — daemon
#: (inproc zeros or the replica server's provider), replica server, remote
#: client, and the router's per-replica / aggregate views all agree on it, and
#: ``tests/test_health_schema.py`` locks it.  Defined once, by the in-process
#: zero snapshot in :mod:`repro.serving`.
TRANSPORT_HEALTH_KEYS = frozenset(INPROC_TRANSPORT_SNAPSHOT)

#: Recent round-trip samples retained per client for percentile reporting.
_RTT_WINDOW = 512


class TransportStats:
    """Thread-safe frame/byte/reconnect counters plus an rtt window."""

    def __init__(self, kind: str = "tcp") -> None:
        self.kind = kind
        self._lock = threading.Lock()
        self._frames_sent = 0
        self._frames_received = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._reconnects = 0
        self._connections = 0
        self._rtt_seconds: deque[float] = deque(maxlen=_RTT_WINDOW)

    def note_sent(self, nbytes: int) -> None:
        with self._lock:
            self._frames_sent += 1
            self._bytes_sent += nbytes

    def note_received(self, nbytes: int) -> None:
        with self._lock:
            self._frames_received += 1
            self._bytes_received += nbytes

    def note_reconnect(self) -> None:
        with self._lock:
            self._reconnects += 1

    def note_connection(self, delta: int) -> None:
        with self._lock:
            self._connections += delta

    def note_rtt(self, seconds: float) -> None:
        with self._lock:
            self._rtt_seconds.append(seconds)

    def rtt_percentile(self, quantile: float) -> float:
        """Round-trip percentile over the recent window, in milliseconds."""
        with self._lock:
            window = sorted(self._rtt_seconds)
        if not window:
            return 0.0
        position = min(len(window) - 1, int(quantile * len(window)))
        return window[position] * 1000.0

    def snapshot(self) -> dict[str, object]:
        """One JSON-able view matching :data:`TRANSPORT_HEALTH_KEYS`."""
        p50 = self.rtt_percentile(0.5)
        p90 = self.rtt_percentile(0.9)
        with self._lock:
            return {
                "kind": self.kind,
                "connections": self._connections,
                "frames_sent": self._frames_sent,
                "frames_received": self._frames_received,
                "bytes_sent": self._bytes_sent,
                "bytes_received": self._bytes_received,
                "reconnects": self._reconnects,
                "rtt_ms_p50": p50,
                "rtt_ms_p90": p90,
            }
