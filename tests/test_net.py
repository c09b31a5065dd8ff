"""Wire-transport suite: frame codec units + live server/client equivalence.

Three layers, mirroring :mod:`repro.net`'s structure:

1. **Codec units** — frame and payload round trips (hypothesis-driven over
   arbitrary payload bytes), plus every way a stream can be damaged: bad
   magic, checksum corruption, torn frames, clean EOF.
2. **Server/client pairs** — an in-process :class:`ReplicaServer` over the
   test artifact, checked byte-identical against a synchronous
   :class:`MappingService` oracle (results *and* error envelopes), with
   deadline enforcement on both sides of the socket, delta application over
   the wire, garbage-robustness, drain, and idempotent close.
3. **Chaos** — the transport fault sites (``conn_reset`` / ``torn_frame`` /
   ``slow_network``) injected under the pinned ``REPRO_FAULT_SEED``: every
   batch either fails with a transport/deadline error the router knows how
   to fail over, or returns exactly the oracle's answer.  Nothing in between.

The subprocess path (READY handshake, ``python -m repro.net.server``) gets
one directed test; the full cluster-over-subprocesses equivalence lives in
``tests/test_cluster_properties.py`` under ``transport="tcp"``.
"""

from __future__ import annotations

import errno
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications import MappingService
from repro.applications.service import LookupRequest
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.faults import FaultPlan, injected_faults
from repro.net import codec
from repro.net.client import RemoteReplica
from repro.net.codec import (
    ChecksumError,
    HEADER_SIZE,
    ProtocolError,
    TornFrameError,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.net.server import serve_shard, spawn_replica_process
from repro.serving import DaemonStoppedError, DeadlineExpiredError

pytestmark = pytest.mark.net

#: Pinned by the chaos CI leg (REPRO_FAULT_SEED) for reproducible socket chaos.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20260808"))

LOOKUP = LookupRequest(
    op="values",
    values=("California", "Texas"),
    min_containment=0.5,
    top_k=5,
)
PAIR_LOOKUP = LookupRequest(
    op="pairs",
    values=(("California", "CA"), ("Texas", "junk")),
    min_containment=0.4,
    top_k=3,
)
#: min_containment out of range: must come back as the oracle's exact error
#: envelope, not a transport failure.
BAD_LOOKUP = LookupRequest(
    op="values", values=("California",), min_containment=7.5, top_k=5
)


def canonical(responses) -> str:
    """Byte-comparable form of a batch: everything except timing."""
    return repr([(r.kind, r.request_index, r.result, r.error) for r in responses])


# ---------------------------------------------------------------------------------------
# Fixtures: one artifact, one in-process server, one sync oracle
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact_path(store_corpus, tmp_path_factory):
    config = SynthesisConfig(
        use_pmi_filter=False, min_domains=1, min_mapping_size=2, min_rows=4
    )
    pipeline = SynthesisPipeline(config)
    pipeline.run(store_corpus)
    return pipeline.save_artifact(tmp_path_factory.mktemp("net") / "a.gz")


@pytest.fixture(scope="module")
def oracle(artifact_path) -> MappingService:
    return MappingService.from_artifact(artifact_path)


@pytest.fixture(scope="module")
def server(artifact_path):
    server = serve_shard(artifact_path, watch=False, workers=2)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    client = RemoteReplica("127.0.0.1", server.port, request_timeout=15.0)
    yield client
    # drain=False: a DRAIN frame would shut the shared module-scoped server
    # down for every later test — this is a client disconnect, not a stop.
    client.close(drain=False)


def raw_connection(server) -> socket.socket:
    conn = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    conn.settimeout(10.0)
    return conn


# ---------------------------------------------------------------------------------------
# 1. Codec units
# ---------------------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    frame_type=st.integers(min_value=1, max_value=13),
    request_id=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=2048),
)
def test_frame_round_trip(frame_type, request_id, payload):
    data = encode_frame(frame_type, request_id, payload)
    assert len(data) == HEADER_SIZE + len(payload)
    frame = decode_frame(data)
    assert (frame.frame_type, frame.request_id, frame.payload) == (
        frame_type,
        request_id,
        payload,
    )


def test_frame_rejects_bad_magic():
    data = bytearray(encode_frame(codec.T_PING, 1, b"x"))
    data[0] ^= 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(data))


def test_frame_rejects_checksum_corruption():
    data = bytearray(encode_frame(codec.T_LOOKUP, 7, b"payload-bytes"))
    data[-1] ^= 0xFF  # damage the payload, keep the stored checksum
    with pytest.raises(ChecksumError):
        decode_frame(bytes(data))


def test_read_frame_torn_stream_and_clean_eof():
    # Torn mid-frame: half a valid frame then EOF.
    left, right = socket.socketpair()
    try:
        data = encode_frame(codec.T_PING, 3, b"abcdef")
        left.sendall(data[: len(data) - 4])
        left.close()
        with pytest.raises(TornFrameError):
            read_frame(right)
    finally:
        right.close()
    # Clean EOF at a frame boundary is a graceful close, not an error.
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame(codec.T_PING, 4, b"ok"))
        left.close()
        frame = read_frame(right)
        assert frame is not None and frame.payload == b"ok"
        assert read_frame(right) is None
    finally:
        right.close()


def test_lookup_request_payload_round_trip():
    for deadline in (None, 2.5):
        payload = codec.encode_lookup_request(
            (LOOKUP, PAIR_LOOKUP), deadline_remaining=deadline
        )
        requests, remaining = codec.decode_lookup_request(payload)
        assert requests == (LOOKUP, PAIR_LOOKUP)
        assert remaining == deadline


def test_delta_generation_and_error_payload_round_trips(oracle):
    mapping = oracle.mapping_pool[0]
    payload = codec.encode_delta_request(
        [mapping], ["gone-1", "gone-2"], seq=41, escalation_ratio=0.5, source="s"
    )
    delta = codec.decode_delta_request(payload)
    assert [m.mapping_id for m in delta["upserts"]] == [mapping.mapping_id]
    assert delta["removed"] == ["gone-1", "gone-2"]
    assert (delta["seq"], delta["escalation_ratio"], delta["source"]) == (41, 0.5, "s")

    assert codec.decode_generation(codec.encode_generation(9)) == 9

    kind, message = codec.decode_error(codec.encode_error(ValueError("bad input")))
    assert (kind, message) == ("ValueError", "bad input")


# ---------------------------------------------------------------------------------------
# 2. Server / client pairs
# ---------------------------------------------------------------------------------------
def test_remote_lookup_batches_match_oracle(client, server, oracle):
    batch = (LOOKUP, PAIR_LOOKUP, BAD_LOOKUP)
    ticket = client.submit("cluster_lookup", batch, deadline=10.0, block=True)
    result = ticket.result(timeout=15.0)
    assert canonical(result.responses) == canonical(oracle.cluster_lookup(batch))
    assert result.generation >= 1
    assert result.fingerprint == server.daemon.health()["fingerprint"]


def test_submit_surface_matches_daemon_contract(client):
    with pytest.raises(ValueError):
        client.submit("autofill", ())
    assert client.ping() >= 0.0


def test_server_side_socket_disables_nagle(server):
    # The client sets TCP_NODELAY on its end; the accepted socket must too, or
    # every small reply frame waits on the peer's delayed ACK.
    with server._lock:
        before = set(server._connections)
    client = RemoteReplica("127.0.0.1", server.port, request_timeout=15.0)
    try:
        client.ping()
        local = client._sock.getsockname()
        with server._lock:
            accepted = [
                conn
                for conn in server._connections - before
                if conn.getpeername() == local
            ]
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        client.close(drain=False)


def test_closed_client_fails_fast(server):
    client = RemoteReplica("127.0.0.1", server.port)
    client.close(drain=False)
    client.close(drain=False)  # idempotent
    assert client.closed
    with pytest.raises(DaemonStoppedError):
        client.submit("cluster_lookup", (LOOKUP,))


def test_deadline_fails_fast_client_side_without_daemon_work(client, server):
    served_before = server.daemon.stats.total_requests
    with pytest.raises(DeadlineExpiredError):
        client.submit("cluster_lookup", (LOOKUP,), deadline=0.0)
    assert server.daemon.stats.total_requests == served_before


def test_injected_network_stall_consumes_the_budget(client, server):
    served_before = server.daemon.stats.total_requests
    plan = FaultPlan(
        seed=FAULT_SEED,
        slow_network_rate=1.0,
        slow_network_seconds=0.05,
        max_faults=1,
    )
    with injected_faults(plan) as injector:
        with pytest.raises(DeadlineExpiredError):
            client.submit("cluster_lookup", (LOOKUP,), deadline=0.02)
        assert injector.injected.get("slow_network") == 1
    # The stall ate the whole budget before the frame went out.
    assert server.daemon.stats.total_requests == served_before


def test_server_enforces_the_frame_deadline(server, oracle):
    # A frame that arrives with its budget already spent (encoded remaining
    # 0.0 — only a slow wire can produce this; the client fails such sends
    # fast) must be refused before daemon submit, and counted as expired.
    expired_before = server.daemon.stats.expired
    payload = codec.encode_lookup_request((LOOKUP,), deadline_remaining=0.0)
    conn = raw_connection(server)
    try:
        conn.sendall(encode_frame(codec.T_LOOKUP, 1, payload))
        frame = read_frame(conn)
        assert frame is not None and frame.frame_type == codec.T_ERROR
        kind, _message = codec.decode_error(frame.payload)
        assert kind == "DeadlineExpiredError"
    finally:
        conn.close()
    assert server.daemon.stats.expired == expired_before + 1


def test_damaged_payload_comes_back_as_a_typed_protocol_error(server):
    # The frame itself is intact (its checksum covers the damaged payload), so
    # only the payload decoder can object: the reply is a T_ERROR envelope
    # typed ProtocolError, and the connection keeps serving.
    payload = codec.encode_lookup_request((LOOKUP,), deadline_remaining=5.0)[:-2]
    conn = raw_connection(server)
    try:
        conn.sendall(encode_frame(codec.T_LOOKUP, 41, payload))
        frame = read_frame(conn)
        assert frame is not None and frame.frame_type == codec.T_ERROR
        assert frame.request_id == 41
        kind, message = codec.decode_error(frame.payload)
        assert kind == "ProtocolError"
        assert "lookup_request" in message
        conn.sendall(encode_frame(codec.T_PING, 42, b"still here"))
        pong = read_frame(conn)
        assert pong is not None and pong.frame_type == codec.T_PONG
        assert pong.payload == b"still here"
    finally:
        conn.close()


def test_garbage_bytes_kill_only_their_connection(server, client, oracle):
    conn = raw_connection(server)
    try:
        conn.sendall(b"this is definitely not a frame" * 4)
        frame = read_frame(conn)
        # The server answers with a protocol error envelope, then hangs up.
        assert frame is not None and frame.frame_type == codec.T_ERROR
        kind, _message = codec.decode_error(frame.payload)
        assert kind == "ProtocolError"
        # The server hangs up: clean FIN, or RST when our garbage is still
        # sitting unread in its kernel buffer.  Either way — cut off.
        try:
            assert conn.recv(1) == b""
        except ConnectionResetError:
            pass
    finally:
        conn.close()
    # The accept loop and other connections are unharmed.
    batch = (LOOKUP,)
    result = client.submit("cluster_lookup", batch, deadline=10.0).result(15.0)
    assert canonical(result.responses) == canonical(oracle.cluster_lookup(batch))


def test_client_reconnects_after_injected_reset(client, oracle):
    client.ping()  # establish the first connection
    plan = FaultPlan(seed=FAULT_SEED, conn_reset_rate=1.0, max_faults=1)
    with injected_faults(plan):
        with pytest.raises(ConnectionResetError):
            client.submit("cluster_lookup", (LOOKUP,), deadline=10.0)
    result = client.submit("cluster_lookup", (LOOKUP,), deadline=10.0).result(15.0)
    assert canonical(result.responses) == canonical(oracle.cluster_lookup((LOOKUP,)))
    assert client.stats.snapshot()["reconnects"] >= 1


def test_stale_reader_teardown_leaves_the_new_connection_alone(client, oracle):
    # After a reset, the old socket's reader thread can wake late (EBADF from
    # the closed descriptor) and tear down *its* socket.  A request in flight
    # on the new connection must not fail with it.
    client.ping()
    stale = client._sock
    client._teardown(stale, ConnectionResetError("reset"))

    # Hold the response in the reader thread until the stale teardown ran, so
    # the request is still pending when it does.
    release = threading.Event()
    note_received = client.stats.note_received

    def held(nbytes):
        release.wait(15.0)
        note_received(nbytes)

    client.stats.note_received = held
    ticket = client.submit("cluster_lookup", (LOOKUP,), deadline=10.0)
    current = client._sock
    assert current is not None and current is not stale

    client._teardown(stale, OSError(errno.EBADF, "Bad file descriptor"))
    release.set()
    result = ticket.result(15.0)
    assert canonical(result.responses) == canonical(oracle.cluster_lookup((LOOKUP,)))
    assert client._sock is current


def test_apply_delta_over_the_wire(artifact_path, oracle):
    # A dedicated server: this test mutates the served pool.
    server = serve_shard(artifact_path, watch=False, workers=1)
    try:
        with RemoteReplica("127.0.0.1", server.port) as client:
            batch = (LOOKUP, PAIR_LOOKUP)
            baseline = client.submit("cluster_lookup", batch, deadline=10.0)
            assert canonical(baseline.result(15.0).responses) == canonical(
                oracle.cluster_lookup(batch)
            )
            victim = oracle.cluster_lookup((LOOKUP,))[0].result[0].mapping
            # Remove one mapping over the wire: it must vanish from answers.
            client.apply_delta(
                [], [victim.mapping_id], seq=1, escalation_ratio=1.0
            )
            result = client.submit("cluster_lookup", batch, deadline=10.0)
            hit_ids = {
                match.mapping.mapping_id
                for response in result.result(15.0).responses
                for match in response.result or ()
            }
            assert victim.mapping_id not in hit_ids
            # Upsert it back (the mapping crosses the wire as a codec
            # section): answers return to the oracle byte-for-byte.
            client.apply_delta([victim], [], seq=2, escalation_ratio=1.0)
            result = client.submit("cluster_lookup", batch, deadline=10.0)
            assert canonical(result.result(15.0).responses) == canonical(
                oracle.cluster_lookup(batch)
            )
            health = client.health()
            assert health["deltas_applied"] == 2
            assert health["last_delta_seq"] == 2
    finally:
        server.close()


def test_close_stops_the_accept_thread(artifact_path):
    server = serve_shard(artifact_path, watch=False, workers=1)
    acceptor = server._acceptor
    assert acceptor.is_alive()
    server.close()
    assert not acceptor.is_alive()


def test_drain_closes_the_server_and_close_is_idempotent(artifact_path):
    server = serve_shard(artifact_path, watch=False, workers=1)
    client = RemoteReplica("127.0.0.1", server.port)
    client.ping()
    client.close(drain=True)  # DRAIN frame: server drains then shuts down
    deadline = time.monotonic() + 10.0
    while not server.closed and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.closed
    server.close()  # double close (after the drain already closed it)
    client.close()  # and the client double close


# ---------------------------------------------------------------------------------------
# 3. Subprocess handshake + chaos
# ---------------------------------------------------------------------------------------
def test_spawned_replica_process_serves_the_artifact(artifact_path, oracle):
    client = spawn_replica_process(
        artifact_path, watch=False, workers=1, request_timeout=15.0
    )
    process = client.process
    try:
        batch = (LOOKUP, BAD_LOOKUP)
        result = client.submit("cluster_lookup", batch, deadline=15.0)
        assert canonical(result.result(20.0).responses) == canonical(
            oracle.cluster_lookup(batch)
        )
        health = client.server_health()
        assert health["status"] == "ok"
        # CLI defaults match serve_shard's keyword defaults.
        assert health["daemon"]["queue_size"] == 64
    finally:
        client.close()  # the client owns the process: drain, then reap it
    assert process.returncode == 0


def test_chaos_every_batch_fails_over_or_matches_oracle(server, oracle):
    plan = FaultPlan(
        seed=FAULT_SEED,
        conn_reset_rate=0.2,
        torn_frame_rate=0.2,
        slow_network_rate=0.3,
        slow_network_seconds=0.005,
        max_faults=8,
    )
    want = canonical(oracle.cluster_lookup((LOOKUP,)))
    transport_errors = 0
    client = RemoteReplica("127.0.0.1", server.port, request_timeout=15.0)
    try:
        with injected_faults(plan) as injector:
            for _ in range(30):
                try:
                    result = client.submit(
                        "cluster_lookup", (LOOKUP,), deadline=10.0
                    ).result(15.0)
                except (ConnectionError, TornFrameError, DeadlineExpiredError):
                    transport_errors += 1  # the router's failover classes
                    continue
                assert canonical(result.responses) == want
            assert injector.total_injected > 0
            assert transport_errors >= injector.injected.get(
                "conn_reset", 0
            ) + injector.injected.get("torn_frame", 0)
        # Chaos off: the same client serves cleanly again (reconnected).
        result = client.submit("cluster_lookup", (LOOKUP,), deadline=10.0)
        assert canonical(result.result(15.0).responses) == want
    finally:
        client.close(drain=False)
