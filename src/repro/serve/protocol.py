"""Wire protocol for the specialization daemon (Section III, Figure 2).

The paper's runtime system and CAD flow live on different machines (the
host PC runs the tool flow, the FPGA runs the application), so the
serving plane speaks a deliberately tiny socket protocol: each message is
a 4-byte big-endian length prefix followed by a UTF-8 JSON object. One
connection carries one request/response exchange.

Request ops:

- ``specialize`` — ``{"op": "specialize", "tenant": ..., "app": ...,
  "pruning": {"time_share_pct": ..., "max_blocks": ...}, "slots": ...}``;
- ``stats`` — server summary;
- ``ping`` — liveness probe;
- ``shutdown`` — ask the daemon to drain and exit.

Responses always carry a ``status`` field: ``ok``, ``rejected`` (with
``retry_after_ms`` when the admission queue is full — the backpressure
contract), or ``error``.

A ``specialize`` request may carry a ``request_id``. The client's
``serve.client`` span and the daemon's ``serve.request`` span both
record it, so the two sides of one exchange pair by ``request_id`` in a
traced run; the daemon's worker threads parent every ``serve.request``
under its ``serve.run`` span.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass

from repro.util.rng import DeterministicRng, stable_hash

#: Protocol schema identifier, echoed in every response.
PROTOCOL_SCHEMA = "repro-serve/1"

#: Upper bound on one frame; anything larger is a protocol error.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed frame (bad length prefix, oversized frame, bad JSON)."""


def send_message(sock: socket.socket, message: dict) -> None:
    """Send one length-prefixed JSON frame."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({len(payload)} bytes)")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes; None on clean EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({length} bytes)")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


@dataclass
class ServeClient:
    """One-shot request client for the specialization daemon.

    Opens a fresh connection per exchange (the protocol is one
    request/response per connection), so a client instance is cheap and
    thread-safe to share.
    """

    host: str = "127.0.0.1"
    port: int = 0
    timeout: float = 120.0

    def request(self, message: dict) -> dict:
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            send_message(sock, message)
            response = recv_message(sock)
        if response is None:
            raise ProtocolError("server closed the connection without replying")
        return response

    # -- convenience ops -----------------------------------------------------
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self, drain: bool = True) -> dict:
        return self.request({"op": "shutdown", "drain": bool(drain)})

    def specialize(
        self,
        tenant: str,
        app: str,
        time_share_pct: float = 50.0,
        max_blocks: int = 3,
        slots: int | None = None,
        request_id: str | None = None,
    ) -> dict:
        from repro.obs import get_tracer

        message: dict = {
            "op": "specialize",
            "tenant": tenant,
            "app": app,
            "pruning": {
                "time_share_pct": float(time_share_pct),
                "max_blocks": int(max_blocks),
            },
        }
        if slots is not None:
            message["slots"] = int(slots)
        if request_id is not None:
            message["request_id"] = request_id
        with get_tracer().span(
            "serve.client", tenant=tenant, app=app, request_id=request_id
        ) as span:
            response = self.request(message)
            span.set_attr("status", response.get("status"))
        return response

    def specialize_retry(
        self,
        tenant: str,
        app: str,
        max_attempts: int = 64,
        backoff_cap_ms: float = 2000.0,
        backoff_seed: str | None = None,
        **kwargs,
    ) -> tuple[dict, int]:
        """Specialize, honouring queue-full backpressure.

        Retries a ``rejected`` response after the advertised
        ``retry_after_ms``; returns ``(response, retries)``. The load
        generator uses this so every scheduled request eventually
        completes and rejections surface as a retry count instead of
        lost work.

        The server's ``retry_after_ms`` hint is the same for every client
        it rejects on a given tick, so sleeping exactly that long would
        re-stampede the admission queue in lockstep. Each retry therefore
        sleeps ``hint * 2^attempt`` (capped at *backoff_cap_ms*) scaled by
        a jitter factor in [0.5, 1.5) drawn from a PRNG seeded on the
        request identity — concurrent clients decorrelate, but a replayed
        schedule backs off identically (the serve regression leg gates
        deterministic request counts).
        """
        seed_key = backoff_seed or kwargs.get("request_id") or f"{tenant}/{app}"
        rng = DeterministicRng("serve/backoff", stable_hash(seed_key))
        retries = 0
        for attempt in range(max_attempts):
            response = self.specialize(tenant, app, **kwargs)
            if response.get("status") != "rejected":
                return response, retries
            retries += 1
            hint_ms = float(response.get("retry_after_ms", 50))
            delay_ms = min(backoff_cap_ms, hint_ms * (2.0 ** min(attempt, 6)))
            jitter = 0.5 + float(rng.random())
            time.sleep(max(0.005, delay_ms * jitter / 1000.0))
        return response, retries
