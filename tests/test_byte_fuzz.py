"""Byte fuzz of the artifact container, the delta log, the journal and the wire.

Arbitrary bytes, single-byte flips, truncations and splices of a valid
container, every section kind's payload (re-checksummed, so only the
section decoder sees the damage), delta-log file, journal region, wire frame
and every wire payload (lookup request and response, delta request,
generation, notify request) go through every reader of those formats.  Each must return or raise its format's typed error —
never ``struct.error``, ``IndexError``, ``TypeError``, ``UnicodeDecodeError``
or a JSON error — and :func:`~repro.store.codec.iter_framed_records` must
never yield a payload that does not match its digest.  The byte layouts themselves are pinned by
``tests/test_byte_format.py``, whose fixed inputs this module reuses.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.index import MappingMatch
from repro.applications.service import LookupRequest, ServedResponse
from repro.core.mapping import MappingRelationship
from repro.net import codec as net_codec
from repro.net.codec import ProtocolError, decode_frame, encode_frame, read_frame
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.store.artifact import load_artifact, save_artifact
from repro.store.codec import frame_record
from repro.store.errors import ArtifactCorruptionError, ArtifactError
from repro.store.format import ArtifactReader, ArtifactWriter, container_end
from repro.store.sections import SECTION_ORDER, encode_section
from repro.updates import PoolPatch, append_delta_section, read_delta_sections
from repro.updates import journal as journal_module
from repro.updates.deltalog import LOG_MAGIC, DeltaLog, DeltaLogError

from test_byte_format import DELTAS, MAPPINGS

FUZZ = settings(max_examples=150, deadline=None)


def _container(path):
    writer = ArtifactWriter(path, compress=False)
    writer.add("mappings", encode_section("mappings", {"mappings": MAPPINGS}), items=2)
    writer.add("config", b'{"min_rows":4}', codec="json")
    return writer.commit().read_bytes()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid container, journal region, delta-log file and wire frame."""
    home = tmp_path_factory.mktemp("fuzz")
    container = _container(home / "base.bin")
    _container(home / "journaled.bin")
    for seq, delta in enumerate(DELTAS[:3], start=1):
        patch = PoolPatch(upserts=(MAPPINGS[seq % 2],), removed=("gone",), pool_size=seq)
        append_delta_section(home / "journaled.bin", seq=seq, delta=delta, patch=patch)
    log = DeltaLog(home / "valid.log")
    for delta in DELTAS:
        log.append(delta)
    request = net_codec.encode_delta_request(
        MAPPINGS, ["gone"], seq=3, escalation_ratio=0.5, source=None
    )
    return {
        "home": home,
        "container": container,
        "journal": (home / "journaled.bin").read_bytes()[len(container) :],
        "log": (home / "valid.log").read_bytes(),
        "frame": encode_frame(net_codec.T_APPLY_DELTA, 7, request),
        "delta_request": request,
        "lookup_request": net_codec.encode_lookup_request(
            (
                LookupRequest(op="values", values=("Peru", "Chile"), top_k=3),
                LookupRequest(op="pairs", values=(("Peru", "PER"),)),
            ),
            deadline_remaining=1.5,
        ),
        "generation": net_codec.encode_generation(300),
        "notify_request": net_codec.encode_notify_request(7, 2.5),
        "lookup_response": net_codec.encode_lookup_response(
            [
                ServedResponse(
                    kind="cluster_lookup",
                    request_index=0,
                    elapsed_seconds=0.5,
                    result=[MappingMatch(MAPPINGS[0], 1.0, 0.5, "forward")],
                ),
                ServedResponse(
                    kind="cluster_lookup",
                    request_index=1,
                    elapsed_seconds=0.0,
                    result=None,
                    error="ValueError: bad",
                ),
            ],
            generation=3,
            fingerprint="fp",
        ),
    }


def _mutated(data, base: bytes) -> bytes:
    """Draw arbitrary bytes or a flip, truncation, insertion or splice of ``base``."""
    kind = data.draw(st.sampled_from(["arbitrary", "flip", "cut", "insert", "splice"]))
    if kind == "arbitrary":
        return data.draw(st.binary(max_size=256))
    position = data.draw(st.integers(0, len(base) - 1))
    if kind == "flip":
        mask = data.draw(st.integers(1, 255))
        return base[:position] + bytes([base[position] ^ mask]) + base[position + 1 :]
    if kind == "cut":
        return base[:position]
    if kind == "insert":
        return base[:position] + data.draw(st.binary(min_size=1, max_size=16)) + base[position:]
    return base[:position] + data.draw(st.binary(max_size=64))


def _typed_only(call, allowed):
    """Run ``call``; it may return or raise ``allowed``, nothing else."""
    try:
        call()
    except allowed:
        pass


def _read_artifact(blob: bytes) -> None:
    ArtifactReader(blob).verify()


@FUZZ
@given(data=st.data())
def test_fuzzed_container_raises_only_artifact_errors(data, valid):
    blob = _mutated(data, valid["container"])
    _typed_only(lambda: _read_artifact(blob), ArtifactError)
    path = valid["home"] / "fuzzed.bin"
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        _typed_only(lambda: container_end(handle), ArtifactError)


@FUZZ
@given(data=st.data(), entries=st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "offset", "length", "checksum",
                                       "codec", "items"]), inner, max_size=6),
    max_leaves=12,
))
def test_checksummed_but_malformed_toc_raises_only_artifact_errors(data, entries, valid):
    toc = {"format": "repro-synthesis-artifact", "format_version": 2, "sections": entries}
    body = data.draw(st.binary(max_size=32))
    blob = b"reproartifact\x00" + frame_record(json.dumps(toc).encode()) + body
    _typed_only(lambda: _read_artifact(blob), ArtifactError)


@pytest.fixture(scope="module")
def section_payloads(store_corpus, tmp_path_factory):
    """The decoded payload of every section kind, from a small pipeline run."""
    pipeline = SynthesisPipeline(
        SynthesisConfig(
            executor="serial", use_pmi_filter=False,
            min_domains=1, min_mapping_size=2, min_rows=4,
        )
    )
    pipeline.run(store_corpus)
    path = tmp_path_factory.mktemp("sections") / "full.bin"
    reader = ArtifactReader(save_artifact(pipeline.last_artifact, path).read_bytes())
    assert tuple(reader.sections) == SECTION_ORDER
    return {name: reader.payload_bytes(name) for name in SECTION_ORDER}


@pytest.mark.parametrize("name", SECTION_ORDER)
@FUZZ
@given(data=st.data())
def test_fuzzed_section_payload_under_a_valid_checksum_is_typed(
    name, data, section_payloads, valid
):
    # The section checksum is computed over the damaged payload, so only the
    # section decoder can object, and it must do so as corruption.
    writer = ArtifactWriter(valid["home"] / f"section-{name}.bin", compress=False)
    writer.add(name, _mutated(data, section_payloads[name]))
    reader = ArtifactReader(writer.commit().read_bytes())
    _typed_only(lambda: reader.decode(name), ArtifactCorruptionError)


def test_damaged_deflate_stream_under_a_valid_checksum_is_typed(tmp_path):
    stored = bytearray(gzip.compress(b"x" * 1000, mtime=0))
    stored[10] ^= 0xFF  # inside the deflate stream, past the gzip header
    writer = ArtifactWriter(tmp_path / "deflate.bin", compress=False)
    writer.add_stored("mappings", bytes(stored), "bin+gz")
    reader = ArtifactReader(writer.commit().read_bytes())
    reader.verify()
    with pytest.raises(ArtifactCorruptionError, match="gzip"):
        reader.decode("mappings")
    path = tmp_path / "wrapped.gz"
    path.write_bytes(bytes(stored))
    with pytest.raises(ArtifactCorruptionError, match="gzip"):
        load_artifact(path)


@FUZZ
@given(data=st.data())
def test_fuzzed_journal_raises_only_artifact_errors(data, valid):
    region = _mutated(data, valid["journal"])
    if data.draw(st.booleans()):
        # A record that verifies but whose payload is arbitrary bytes.
        region = frame_record(data.draw(st.binary(max_size=128))) + region
    blob = valid["container"] + region
    _typed_only(lambda: read_delta_sections(ArtifactReader(blob)), ArtifactError)


@FUZZ
@given(data=st.data())
def test_fuzzed_delta_log_raises_only_delta_log_errors(data, valid):
    blob = _mutated(data, valid["log"])
    if data.draw(st.booleans()):
        blob = valid["log"][: len(LOG_MAGIC) + 8] + frame_record(
            data.draw(st.binary(max_size=128))
        )
    path = valid["home"] / "fuzzed.log"
    path.write_bytes(blob)
    _typed_only(lambda: DeltaLog(path), DeltaLogError)


class _Stream:
    """The ``recv`` half of a socket over fixed bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def recv(self, count: int) -> bytes:
        return self._data.read(count)


@FUZZ
@given(data=st.data())
def test_fuzzed_wire_frame_raises_only_protocol_errors(data, valid):
    blob = _mutated(data, valid["frame"])
    _typed_only(lambda: decode_frame(blob), ProtocolError)
    _typed_only(lambda: read_frame(_Stream(blob)), ProtocolError)


@FUZZ
@given(data=st.data())
def test_record_chain_yields_only_verified_payloads(data, valid):
    base = valid["log"][len(LOG_MAGIC) + 8 :] + valid["journal"]
    blob = _mutated(data, base)
    start = 0
    for payload, end in journal_module.iter_framed_records(blob):
        assert end == start + 36 + len(payload)
        assert int.from_bytes(blob[start : start + 4], "big") == len(payload)
        assert blob[start + 4 : start + 36] == hashlib.sha256(payload).digest()
        start = end


@pytest.mark.parametrize(
    "kind",
    ["lookup_request", "lookup_response", "delta_request", "generation", "notify_request"],
)
@FUZZ
@given(data=st.data())
def test_fuzzed_wire_payloads_raise_only_protocol_errors(kind, data, valid):
    # A payload that passed its frame checksum is decoded by the codec's
    # payload readers; on the wire a damaged one is a ProtocolError.
    payload = _mutated(data, valid[kind])
    decode = getattr(net_codec, f"decode_{kind}")
    _typed_only(lambda: decode(payload), ProtocolError)


def test_mapping_metadata_that_is_not_an_object_is_a_typed_error(tmp_path):
    odd = MappingRelationship(
        mapping_id="mapping-odd",
        pairs=[("Peru", "PER")],
        source_tables=["t9"],
        domains={"d.example"},
        column_names=("country", "iso3"),
        metadata=[1],
    )
    request = net_codec.encode_delta_request(
        [odd], [], seq=1, escalation_ratio=0.5, source=None
    )
    with pytest.raises(ProtocolError, match="not a JSON object"):
        net_codec.decode_delta_request(request)
    response = net_codec.encode_lookup_response(
        [
            ServedResponse(
                kind="cluster_lookup",
                request_index=0,
                elapsed_seconds=0.0,
                result=[MappingMatch(odd, 1.0, 1.0, "forward")],
            )
        ],
        generation=1,
        fingerprint="fp",
    )
    with pytest.raises(ProtocolError, match="not a JSON object"):
        net_codec.decode_lookup_response(response)

    writer = ArtifactWriter(tmp_path / "odd.bin", compress=False)
    writer.add("mappings", encode_section("mappings", {"mappings": [odd]}), items=1)
    reader = ArtifactReader(writer.commit().read_bytes())
    with pytest.raises(ArtifactCorruptionError, match="not a JSON object"):
        reader.decode("mappings")

    append_delta_section(
        tmp_path / "odd.bin",
        seq=1,
        delta=DELTAS[0],
        patch=PoolPatch(upserts=(odd,), removed=(), pool_size=1),
    )
    with pytest.raises(ArtifactCorruptionError, match="not a JSON object"):
        read_delta_sections(ArtifactReader((tmp_path / "odd.bin").read_bytes()))
