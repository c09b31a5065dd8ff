"""Byte-format locks for the artifact container, the delta log and the wire.

**Golden digests.**  Fixed inputs go through the writers of the three on-disk
and on-the-wire formats, and the sha256 of the bytes they produce is pinned:
a saved container, a :class:`DeltaLog` file after three appends and a
truncate, and :func:`encode_frame` output for every frame type (an
``APPLY_DELTA`` frame carrying a real delta request).  Any change to record
framing, header layout, TOC encoding, the delta record codec or the wire
header fails here, so a refactor of the framing code can prove that every file
and frame it writes is byte-identical to what the previous build wrote.
"""

from __future__ import annotations

import hashlib

from repro.core.mapping import MappingRelationship
from repro.net import codec as net_codec
from repro.net.codec import encode_frame
from repro.store.format import ArtifactReader, ArtifactWriter
from repro.store.sections import encode_section
from repro.updates.deltalog import DeltaLog, TableDelta

MAPPINGS = [
    MappingRelationship(
        mapping_id="mapping-c1",
        pairs=[("California", "CA"), ("Texas", "TX"), ("Ohio", "OH")],
        source_tables=["t1", "t2"],
        domains={"b.example", "a.example"},
        column_names=("state", "abbr"),
        metadata={"score": 0.75, "rank": 1},
    ),
    MappingRelationship(
        mapping_id="mapping-c9",
        pairs=[("Germany", "DEU"), ("Japan", "JPN")],
        source_tables=["t7"],
        domains={"c.example"},
        column_names=("country", "iso3"),
    ),
]

DELTAS = [
    TableDelta(
        table_id="fresh",
        header=("name", "code"),
        upserts=(("Arcadia", "ARC"), ("Borduria", "BOR")),
        domain="fresh.example",
        title="a new table",
    ),
    TableDelta(table_id="t1", deletes=("Ohio",), upserts=(("Utah", "UT"),)),
    TableDelta(table_id="t2", drop=True),
    TableDelta(table_id="t7", upserts=(("Peru", "PER"),)),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_saved_container_bytes_are_pinned(tmp_path):
    writer = ArtifactWriter(tmp_path / "golden.bin", compress=False)
    writer.add(
        "mappings",
        encode_section("mappings", {"mappings": MAPPINGS}),
        items=len(MAPPINGS),
    )
    writer.add("config", b'{"min_rows":4}', codec="json")
    writer.add_stored("extra", b"stored verbatim", "bin", items=None)
    data = writer.commit().read_bytes()

    assert _sha(data) == (
        "c329078227e0184f979c4d6e1667f365d9b16f9da6be4ad6abd60abaafae2d0f"
    )
    reader = ArtifactReader(data)
    reader.verify()
    assert reader.container_end == len(data)
    assert reader.decode("mappings")["mappings"] == MAPPINGS


def test_delta_log_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.log"
    log = DeltaLog(path)
    for delta in DELTAS[:3]:
        log.append(delta)
    appended = path.read_bytes()
    log.truncate()
    truncated = path.read_bytes()
    log.append(DELTAS[3])
    continued = path.read_bytes()

    assert [_sha(appended), _sha(truncated), _sha(continued)] == [
        "b5178fa34150645c3a3631bd42088d958db853b21cfcf7b918e6e359e1fca0e5",
        "3cdb4ec58c8df93be800aa2ffd67f7b56db446c8b710cc5dca2a0e573ab76ad7",
        "e2a0e780ac356aa70068f081411245cb7d1141dbc95d6486bde71e8e03424df3",
    ]
    assert DeltaLog(path).records() == [(4, DELTAS[3])]


def test_wire_frame_bytes_are_pinned():
    delta_request = net_codec.encode_delta_request(
        MAPPINGS, ["mapping-c4", "mapping-c5"], seq=12
    )
    frames = [
        encode_frame(frame_type, frame_type * 1_000_003, bytes([frame_type]) * frame_type)
        for frame_type in range(net_codec.T_PING, net_codec.T_ERROR + 1)
    ]
    frames.append(encode_frame(net_codec.T_APPLY_DELTA, 2**64 - 1, delta_request))
    frames.append(encode_frame(net_codec.T_PONG, 0))

    assert _sha(delta_request) == (
        "49da833178cad87e15946fd9d62885343bf10dccc03c2487d14d080bd1020c3b"
    )
    assert [_sha(frame) for frame in frames[-2:]] + [_sha(b"".join(frames))] == [
        "57b2385c34a311cba31dae5422798d11cc9f12484cc7f85e8101d82ef0b821c3",
        "04c0febf2cb62d67313edbd98ca18e21e743a6aa786a22223f6abafc6a58711b",
        "e21b60a073b45544360a34e0dd733c6e4809cf553b7504e82a6d862d3292e928",
    ]
