"""Socket client for a replica server: the tcp :class:`~repro.cluster.Replica`.

:class:`RemoteReplica` implements the :class:`~repro.cluster.Replica` protocol
— ``submit`` / ``apply_delta`` / ``await_generation`` / ``health`` / ``closed``
/ ``close`` — as an in-process :class:`~repro.serving.SynthesisDaemon` does, so
:class:`~repro.cluster.ClusterRouter` swaps transports without a single change
to its scatter, merge, failover, rollout, or delta logic.  A replica returned
by :func:`~repro.net.server.spawn_replica_process` owns its server process:
``close(drain=True)`` drains and reaps it, ``close(drain=False)`` kills it.

One persistent connection per replica; a background reader thread demultiplexes
response frames to their waiting futures by request id, so any number of router
threads can have lookups in flight concurrently.  A dead connection fails every
pending future with :class:`ConnectionError` (the router's retry schedule
recomputes the cover and the replica's breaker opens), and the next submission
reconnects lazily under the client's :class:`~repro.faults.RetryPolicy`.

Remote failures arrive as typed error envelopes and are re-raised as the *same*
exception classes the in-process daemon raises (``DeadlineExpiredError``,
``QueueFullError``, ...), so every caller-side failure policy — router retries,
breaker filters, test assertions — behaves identically across transports.

Deadlines fail fast on this side too: the remaining budget is measured *after*
any injected/real send-side stall, encoded into the frame, and re-enforced by
the replica — a slow network can only shrink the budget, never let an expired
ticket consume daemon work.
"""

from __future__ import annotations

import socket
import subprocess
import threading
import time
from concurrent.futures import Future
from contextlib import suppress
from dataclasses import dataclass

from repro.applications.service import LookupRequest, ServedResponse
from repro.faults.plan import active_injector
from repro.faults.retry import RetryPolicy
from repro.net import codec
from repro.net.codec import Frame, TornFrameError, TransportStats
from repro.serving.daemon import (
    CircuitOpenError,
    DaemonError,
    DaemonStoppedError,
    DeadlineExpiredError,
    QueueFullError,
    UNREACHABLE_DAEMON_HEALTH,
)

__all__ = ["RemoteReplica", "RemoteReplicaError", "RemoteResult"]

#: Reconnect schedule for a lazily re-established replica connection.
DEFAULT_RECONNECT_POLICY = RetryPolicy(
    attempts=2, base_seconds=0.05, max_seconds=0.5, retry_on=(OSError,)
)


class RemoteReplicaError(RuntimeError):
    """A remote failure with no local exception class to map onto."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


#: Remote error-envelope types re-raised as their local classes, so failure
#: handling (router retries, breaker policy, tests) is transport-agnostic.
_ERROR_CLASSES: dict[str, type[Exception]] = {
    "DaemonError": DaemonError,
    "QueueFullError": QueueFullError,
    "DeadlineExpiredError": DeadlineExpiredError,
    "DaemonStoppedError": DaemonStoppedError,
    "CircuitOpenError": CircuitOpenError,
    "ValueError": ValueError,
    "TimeoutError": TimeoutError,
}


def _raise_remote(payload: bytes) -> None:
    remote_type, message = codec.decode_error(payload)
    raise _ERROR_CLASSES.get(remote_type, RemoteReplicaError)(
        *((message,) if remote_type in _ERROR_CLASSES else (remote_type, message))
    )


@dataclass
class RemoteResult:
    """A decoded lookup batch: the wire twin of ``DaemonResult``."""

    kind: str
    responses: list[ServedResponse]
    generation: int
    fingerprint: str


class _RemoteTicket:
    """Future handle for one in-flight remote lookup (mirrors ``DaemonTicket``)."""

    __slots__ = ("_client", "future", "kind")

    def __init__(self, client: "RemoteReplica", kind: str, future: Future) -> None:
        self._client = client
        self.kind = kind
        self.future = future

    def result(self, timeout: float | None = None) -> RemoteResult:
        frame: Frame = self.future.result(
            timeout if timeout is not None else self._client.request_timeout
        )
        if frame.frame_type == codec.T_ERROR:
            _raise_remote(frame.payload)
        responses, generation, fingerprint = codec.decode_lookup_response(
            frame.payload
        )
        self._client._note_generation(generation)
        return RemoteResult(
            kind=self.kind,
            responses=responses,
            generation=generation,
            fingerprint=fingerprint,
        )


class RemoteReplica:
    """One replica server's client half (see the module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str = "replica",
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        reconnect_policy: RetryPolicy | None = None,
    ) -> None:
        if connect_timeout <= 0:
            raise ValueError(f"connect_timeout must be > 0, got {connect_timeout}")
        self.host = host
        self.port = port
        self.name = name
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.reconnect_policy = (
            reconnect_policy if reconnect_policy is not None else DEFAULT_RECONNECT_POLICY
        )
        self.stats = TransportStats(kind="tcp")
        self._conn_lock = threading.Lock()  # connect / teardown transitions
        self._send_lock = threading.Lock()  # frame writes are atomic
        self._pending_lock = threading.Lock()
        self._pending: dict[int, tuple[Future, float]] = {}
        self._sock: socket.socket | None = None
        self._next_id = 0
        self._closed = False
        self._ever_connected = False
        self._last_generation = 0
        #: The server process this client owns (set by
        #: :func:`~repro.net.server.spawn_replica_process`).
        self.process: subprocess.Popen | None = None

    # -- Connection management ----------------------------------------------------------
    def _ensure_connected(self) -> socket.socket:
        with self._conn_lock:
            if self._closed:
                raise DaemonStoppedError(
                    f"remote replica client {self.name} is closed"
                )
            if self._sock is not None:
                return self._sock

            def connect() -> socket.socket:
                return socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )

            sock = self.reconnect_policy.call(connect)
            sock.settimeout(None)  # reader thread blocks; futures carry timeouts
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            if self._ever_connected:
                self.stats.note_reconnect()
            self._ever_connected = True
            self.stats.note_connection(1)
            threading.Thread(
                target=self._read_loop,
                args=(sock,),
                name=f"remote-replica-reader-{self.name}",
                daemon=True,
            ).start()
            return sock

    def _read_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                frame = codec.read_frame(sock)
                if frame is None:
                    raise ConnectionError(
                        f"replica server {self.host}:{self.port} closed the "
                        "connection"
                    )
                self.stats.note_received(len(frame))
                with self._pending_lock:
                    entry = self._pending.pop(frame.request_id, None)
                if entry is None:
                    continue  # response to a request whose waiter gave up
                future, sent_at = entry
                self.stats.note_rtt(time.monotonic() - sent_at)
                future.set_result(frame)
        except Exception as exc:
            self._teardown(sock, exc)

    def _teardown(self, sock: socket.socket | None, exc: BaseException) -> None:
        """Drop the connection and fail every pending future (never raises).

        For a socket that is no longer current (its reader woke after a
        reconnect) only close it: the pending futures are the new one's.
        """
        with self._conn_lock:
            current = self._sock
            if sock is not None and sock is not current:
                with suppress(OSError):
                    sock.close()
                return
            self._sock = None
            if current is not None:
                self.stats.note_connection(-1)
                with suppress(OSError):
                    current.close()
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        error = (
            exc
            if isinstance(exc, (ConnectionError, TornFrameError))
            else ConnectionError(str(exc))
        )
        for future, _sent_at in pending:
            if not future.done():
                future.set_exception(error)

    def _send_frame(self, frame_type: int, payload: bytes) -> tuple[int, Future]:
        sock = self._ensure_connected()
        with self._send_lock:
            self._next_id += 1
            request_id = self._next_id
            future: Future = Future()
            with self._pending_lock:
                self._pending[request_id] = (future, time.monotonic())
            data = codec.encode_frame(frame_type, request_id, payload)
            try:
                sock.sendall(data)
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                self._teardown(sock, exc)
                raise ConnectionError(
                    f"send to replica server {self.host}:{self.port} failed: {exc}"
                ) from exc
        self.stats.note_sent(len(data))
        return request_id, future

    def _call(self, frame_type: int, payload: bytes, *, timeout: float) -> Frame:
        """One synchronous request/response round trip."""
        _request_id, future = self._send_frame(frame_type, payload)
        frame: Frame = future.result(timeout)
        if frame.frame_type == codec.T_ERROR:
            _raise_remote(frame.payload)
        return frame

    def _inject_faults(self, deadline: float | None) -> float | None:
        """Consult the active fault plan at this transport's three sites.

        Returns the deadline budget *after* any injected stall — the stall
        consumes budget exactly like a real slow network would.
        """
        injector = active_injector()
        if injector is None:
            return deadline
        stalled = injector.slow_network()
        if stalled:
            time.sleep(stalled)
        if injector.conn_reset():
            self._teardown(self._sock, ConnectionResetError("injected conn_reset"))
            raise ConnectionResetError(
                f"injected conn_reset fault on replica {self.name}"
            )
        if injector.torn_frame():
            self._teardown(
                self._sock, TornFrameError("injected torn response frame")
            )
            raise TornFrameError(
                f"injected torn_frame fault on replica {self.name}"
            )
        return deadline - stalled if deadline is not None else None

    # -- Daemon surface -----------------------------------------------------------------
    def submit(
        self,
        kind: str,
        requests,
        *,
        deadline: float | None = None,
        block: bool = False,
        timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> _RemoteTicket:
        """Send one ``cluster_lookup`` batch; returns a future-backed ticket.

        Mirrors :meth:`SynthesisDaemon.submit`'s signature (``block`` /
        ``timeout`` govern local admission there; here the replica server's
        own daemon applies them, so they only bound the ticket wait).
        ``deadline`` is the remaining budget in seconds — measured after any
        send-side stall and enforced again replica-side.
        """
        if kind != "cluster_lookup":
            raise ValueError(
                f"remote replicas serve 'cluster_lookup' batches, not {kind!r}"
            )
        if self._closed:
            raise DaemonStoppedError(f"remote replica client {self.name} is closed")
        deadline = self._inject_faults(deadline)
        if deadline is not None and deadline <= 0:
            raise DeadlineExpiredError(
                f"lookup budget exhausted before send ({deadline:.3f}s remaining)"
            )
        payload = codec.encode_lookup_request(
            tuple(requests), deadline_remaining=deadline
        )
        _request_id, future = self._send_frame(codec.T_LOOKUP, payload)
        return _RemoteTicket(self, kind, future)

    def apply_delta(
        self,
        upserts,
        removed,
        *,
        seq: int,
    ) -> None:
        """Ship one shard-local delta slice over the wire and apply it."""
        if self._closed:
            raise DaemonStoppedError(f"remote replica client {self.name} is closed")
        payload = codec.encode_delta_request(list(upserts), list(removed), seq=seq)
        try:
            frame = self._call(
                codec.T_APPLY_DELTA, payload, timeout=self.request_timeout
            )
        except ConnectionError as exc:
            # The router treats a closed in-process replica as skippable; a
            # dead server is morally identical (it catches up from the
            # compacted artifact on restart).
            raise DaemonStoppedError(
                f"replica server {self.host}:{self.port} unreachable for delta: "
                f"{exc}"
            ) from exc
        self._note_generation(codec.decode_generation(frame.payload))

    def health(self) -> dict[str, object]:
        """The remote daemon's health, with *this side's* transport counters.

        The router reads replica health through this method, so the
        ``transport`` section reports the router→replica link as the router
        experiences it (frames, bytes, reconnects, rtt percentiles).  An
        unreachable server yields :data:`UNREACHABLE_DAEMON_HEALTH` (the same
        keys, zero or ``None``) instead of an exception — health reporting must
        never take the router down.
        """
        try:
            view = dict(self.server_health()["daemon"])  # type: ignore[arg-type]
        except Exception as exc:
            view = dict(UNREACHABLE_DAEMON_HEALTH)
            view["degraded_reasons"] = [
                f"replica server {self.host}:{self.port} unreachable: {exc}"
            ]
            view["generation"] = self._last_generation
        view["transport"] = self.stats.snapshot()
        return view

    def server_health(self) -> dict[str, object]:
        """The raw :meth:`ReplicaServer.health` snapshot (server-side view)."""
        frame = self._call(codec.T_HEALTH, b"", timeout=self.request_timeout)
        health = codec.decode_json(frame.payload)
        if not isinstance(health, dict):
            raise codec.ProtocolError(f"malformed health payload: {health!r}")
        return health

    def ping(self) -> float:
        """One round trip; returns its latency in seconds."""
        started = time.monotonic()
        self._call(codec.T_PING, b"", timeout=self.request_timeout)
        return time.monotonic() - started

    def await_generation(self, target: int, *, timeout: float = 30.0) -> int:
        """Block until the replica reaches generation ``target`` (0 = report).

        One NOTIFY frame covers the whole wait, which the server runs as
        :meth:`SynthesisDaemon.await_generation`.  Returns the generation
        actually reached (compare to ``target``).
        """
        frame = self._call(
            codec.T_NOTIFY,
            codec.encode_notify_request(target, timeout),
            timeout=timeout + self.request_timeout,
        )
        number = codec.decode_generation(frame.payload)
        self._note_generation(number)
        return number

    def _note_generation(self, number: int) -> None:
        if number > self._last_generation:
            self._last_generation = number

    @property
    def closed(self) -> bool:
        """True once *this client* is closed (a dead server is failover's job)."""
        return self._closed

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Close the client; with ``drain`` ask the server to drain-then-exit.

        An owned server process (see :attr:`process`) goes with it: with
        ``drain`` it is given ``timeout`` seconds (default 10) to exit after
        the drain, then killed; without, it is killed at once.  Idempotent
        and never raises: close must be safe from ``finally`` blocks, double
        closes, and half-dead connections alike.
        """
        with self._conn_lock:
            if self._closed:
                return
            connected = self._sock is not None
        timeout = timeout if timeout else 10.0
        # Send the DRAIN while the client is still open: flipping _closed
        # first would make _ensure_connected refuse our own drain frame.
        if drain and (connected or self.process is not None):
            with suppress(Exception):
                self._call(codec.T_DRAIN, b"", timeout=timeout)
        with self._conn_lock:
            if self._closed:
                return  # lost a race against a concurrent close
            self._closed = True
        self._teardown(None, DaemonStoppedError("remote replica client closed"))
        if self.process is not None:
            _reap(self.process, timeout if drain else 0.0)

    def __enter__(self) -> "RemoteReplica":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"RemoteReplica({self.host}:{self.port}, {state})"


def _reap(process: subprocess.Popen, grace: float) -> None:
    """Wait up to ``grace`` seconds for ``process`` to exit, then kill it."""
    try:
        process.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        process.kill()
        with suppress(subprocess.TimeoutExpired):
            process.wait(timeout=10)
    if process.stdout is not None:
        process.stdout.close()
