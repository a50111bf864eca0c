"""Wire protocol for the specialization daemon (Section III, Figure 2).

The paper's runtime system and CAD flow live on different machines (the
host PC runs the tool flow, the FPGA runs the application), so the
serving plane speaks a deliberately tiny socket protocol: each message is
a 4-byte big-endian length prefix followed by a UTF-8 JSON object. One
connection carries one request/response exchange.

Request ops:

- ``specialize`` — ``{"op": "specialize", "tenant": ..., "app": ...,
  "pruning": {"time_share_pct": ..., "max_blocks": ...}, "slots": ...}``;
- ``stats`` — server summary + live metrics snapshot;
- ``ping`` — liveness probe;
- ``shutdown`` — ask the daemon to drain and exit.

Responses always carry a ``status`` field: ``ok``, ``rejected`` (with
``retry_after_ms`` when the admission queue is full — the backpressure
contract), or ``error``.

Every ``specialize`` request additionally carries a W3C-style
``traceparent`` header (``00-<trace_id>-<parent_span_id>-01``) minted by
:meth:`ServeClient.specialize`: the daemon continues the context across
the admission queue, the worker pool (thread or forked process), and the
shared store's single-flight waits, so one request yields one stitched
cross-process span tree in the ledger run.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import uuid
from dataclasses import dataclass

from repro.util.rng import DeterministicRng, stable_hash

#: Protocol schema identifier, echoed in every response.
PROTOCOL_SCHEMA = "repro-serve/1"

#: Upper bound on one frame; anything larger is a protocol error.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed frame (bad length prefix, oversized frame, bad JSON)."""


# -- distributed trace context ------------------------------------------------
#: traceparent version field (W3C Trace Context layout).
TRACEPARENT_VERSION = "00"


def mint_trace_id(request_id: str | None = None) -> str:
    """A 128-bit hex trace id.

    Derived deterministically from *request_id* when one is supplied (the
    load generator names every request, so replayed schedules mint
    replayable trace ids); random otherwise.
    """
    if request_id:
        hi = stable_hash("serve/trace/hi", request_id)
        lo = stable_hash("serve/trace/lo", request_id)
        return f"{hi:016x}{lo:016x}"
    return uuid.uuid4().hex


def mint_traceparent(trace_id: str, span_id: int) -> str:
    """Format a traceparent header from a trace id and a local span id."""
    return f"{TRACEPARENT_VERSION}-{trace_id}-{int(span_id) & ((1 << 64) - 1):016x}-01"


def parse_traceparent(header) -> dict | None:
    """Parse a traceparent header into ``{"trace_id", "parent_span_id"}``.

    Returns None for a missing or malformed header (trace context is
    best-effort: a bad header never fails the request). A zero parent span
    id (client had tracing disabled) maps to ``parent_span_id = None``.
    """
    if not isinstance(header, str):
        return None
    parts = header.split("-")
    if len(parts) != 4:
        return None
    _, trace_id, parent_hex, _ = parts
    if not trace_id or any(c not in "0123456789abcdef" for c in trace_id.lower()):
        return None
    try:
        parent_span_id = int(parent_hex, 16)
    except ValueError:
        return None
    return {
        "trace_id": trace_id.lower(),
        "parent_span_id": parent_span_id or None,
    }


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
        trace_id: str | None = None,
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
        if trace_id is None:
            trace_id = mint_trace_id(request_id)
        tracer = get_tracer()
        with tracer.span(
            "serve.client",
            tenant=tenant,
            app=app,
            request_id=request_id,
            trace_id=trace_id,
        ) as span:
            message["traceparent"] = mint_traceparent(trace_id, span.span_id)
            response = self.request(message)
            span.set_attr("status", response.get("status"))
            trace = response.get("trace")
            if isinstance(trace, dict) and trace.get("span_id"):
                span.set_attr("server_span_id", trace["span_id"])
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
        # A shared trace id across retries: every attempt (including the
        # rejected ones) lands in the same stitched trace.
        kwargs.setdefault("trace_id", mint_trace_id(kwargs.get("request_id")))
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
