"""Specialization-as-a-service plane for the JIT-ISE reproduction.

The paper's premise (Section III, Figure 2) is that ASIP specialization
runs *online*, concurrently with the application; this package makes that
premise literal as a long-running daemon. A :class:`SpecializationServer`
accepts (tenant, app, machine config, pruning) requests over a
length-prefixed JSON socket protocol, admits them through a bounded queue
(backpressure as reject-with-retry-after), executes candidate search +
the modelled CAD flow on a worker pool, and deduplicates concurrent CAD
work through a shared multi-tenant bitstream store with single-flight
semantics — the serving-time generalization of the Section VI-A bitstream
cache. Request-level telemetry (queue-wait / service latency, and
p50/p95/p99 *break-even* quantiles as the headline) feeds the existing
span tracer and run ledger.
"""

from repro.serve.protocol import ServeClient, recv_message, send_message
from repro.serve.server import ServerConfig, SpecializationServer
from repro.serve.store import SharedBitstreamStore, TenantCache

__all__ = [
    "ServeClient",
    "ServerConfig",
    "SharedBitstreamStore",
    "SpecializationServer",
    "TenantCache",
    "recv_message",
    "send_message",
]
