"""Shared multi-tenant bitstream store with single-flight dedup.

Section VI-A's bitstream cache assumes one application re-running; a
serving deployment (per "Instruction-set Selection for Multi-application
based ASIP Design", PAPERS.md) sees *many* tenants whose concurrent
specialization requests race for the CAD flow and share structurally
equal candidates. Two mechanisms generalize the
:class:`repro.core.cache.PersistentBitstreamCache` for that setting:

- **per-tenant namespaces** — every tenant gets its own cache directory
  and eviction budget under the store root; tenants can never read each
  other's entries (a tenant's candidate signatures leak its code
  structure, so isolation is a correctness property, not just hygiene);
- **single-flight dedup** — when N concurrent requests of one tenant
  need the same candidate signature, exactly one (the *builder*) runs
  the CAD flow while the rest subscribe to its completion and then read
  the stored result as an ordinary cache hit. Hit/miss accounting is
  exactly what a serial arrival order would produce (1 miss + N-1 hits);
  the deduplicated CAD runs are counted separately as ``dedup_saved``.

Within a tenant namespace, entry keys are already **canonical**:
:meth:`repro.core.cache.PersistentBitstreamCache.key_for` hashes the
candidate's structural signature (opcodes, types, wiring — nothing
application-specific), so structurally-equal subgraphs from *different
applications of the same tenant* map to one entry. The store proves the
sharing happens: :meth:`tenant` accepts the requesting application's
name, the first application to store a key is recorded as its owner, and
every hit served to a different application increments
``cross_app_hits`` (and the ``store.cross_app_hits`` metric) — the
fleet-mix simulator's evidence that one CAD run serves many apps.
Cross-*tenant* sharing stays off by design: a tenant's candidate
signatures leak its code structure, so isolation is a correctness
property.

A :class:`TenantCache` implements the ``key_for / contains / get / put``
protocol that :class:`repro.core.asip_sp.AsipSpecializationProcess`
expects of its ``bitstream_cache``, so the specialization pipeline plugs
in unchanged.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import PersistentBitstreamCache
from repro.obs import get_tracer

#: Tenant names become directory names: constrain them hard.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: How long a subscriber waits for the builder before assuming the
#: builder died and retrying as a builder itself. Real (not virtual)
#: seconds; one modelled CAD run takes well under a second of real time.
FLIGHT_TIMEOUT_SECONDS = 60.0


def validate_tenant(name: str) -> str:
    """Return *name* if it is a safe tenant namespace, else raise."""
    if not isinstance(name, str) or not _TENANT_RE.match(name) or ".." in name:
        raise ValueError(f"invalid tenant name {name!r}")
    return name


@dataclass
class _Flight:
    """One in-progress CAD build of a (tenant, key) pair."""

    owner: int  # builder's thread ident
    event: threading.Event = field(default_factory=threading.Event)
    waiters: int = 0
    #: Span id of the builder's innermost open span at flight creation, so
    #: follower requests' dedup-wait spans can link to the leader's trace.
    leader_span_id: int | None = None


class SharedBitstreamStore:
    """Multi-tenant persistent bitstream store.

    One store-wide lock serializes cache metadata I/O and the flight
    table; CAD work itself (and flight *waits*) happen outside it.
    """

    def __init__(
        self,
        root,
        tenant_budget: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.tenant_budget = tenant_budget
        self._lock = threading.RLock()
        self._tenants: dict[str, PersistentBitstreamCache] = {}
        self._flights: dict[tuple[str, str], _Flight] = {}
        self.dedup_saved = 0
        #: First application to store each (tenant, key) — in-memory, like
        #: ``dedup_saved``: attribution is per store lifetime.
        self._key_owners: dict[tuple[str, str], str] = {}
        self.cross_app_hits = 0

    # -- tenants -------------------------------------------------------------
    def tenant(self, name: str, app: str | None = None) -> "TenantCache":
        """The (created-on-first-use) namespace view for one tenant.

        *app* attributes this view's lookups to an application, enabling
        the cross-application sharing counter.
        """
        name = validate_tenant(name)
        with self._lock:
            cache = self._tenants.get(name)
            if cache is None:
                cache = PersistentBitstreamCache(
                    root=self.root / "tenants" / name,
                    max_entries=self.tenant_budget,
                )
                self._tenants[name] = cache
            return TenantCache(store=self, name=name, cache=cache, app=app)

    def tenant_names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    # -- single-flight plumbing ----------------------------------------------
    def _acquire_or_wait(self, tenant: str, key: str):
        """Become the builder (returns None) or the flight to wait on."""
        fkey = (tenant, key)
        leader = get_tracer().current_span()
        with self._lock:
            flight = self._flights.get(fkey)
            if flight is None:
                self._flights[fkey] = _Flight(
                    owner=threading.get_ident(),
                    leader_span_id=leader.span_id if leader is not None else None,
                )
                return None
            flight.waiters += 1
            return flight

    def _resolve(self, tenant: str, key: str) -> None:
        """Builder finished (stored or failed): wake the subscribers."""
        with self._lock:
            flight = self._flights.pop((tenant, key), None)
        if flight is not None:
            flight.event.set()

    def _expire(self, tenant: str, key: str, flight: _Flight) -> None:
        """Drop a flight whose builder never resolved it (timeout path)."""
        with self._lock:
            if self._flights.get((tenant, key)) is flight:
                del self._flights[(tenant, key)]
        flight.event.set()

    def release_thread_flights(self) -> int:
        """Resolve every flight owned by the calling thread.

        A builder that stores its result resolves its flight in
        :meth:`TenantCache.put`; a builder whose CAD run *failed* never
        calls put, so the server's request worker calls this in a
        ``finally`` — subscribers wake, miss, and retry as builders,
        which matches the serial failure semantics (every occurrence of
        a failing candidate re-runs the flow).
        """
        me = threading.get_ident()
        with self._lock:
            mine = [
                (fkey, flight)
                for fkey, flight in self._flights.items()
                if flight.owner == me
            ]
            for fkey, _ in mine:
                del self._flights[fkey]
        for _, flight in mine:
            flight.event.set()
        return len(mine)

    def _count_dedup(self) -> None:
        with self._lock:
            self.dedup_saved += 1
        from repro.obs import get_metrics

        registry = get_metrics()
        if registry.enabled:
            registry.counter("serve.dedup.saved", measured=True).inc()

    # -- cross-application attribution ---------------------------------------
    def _note_store(self, tenant: str, key: str, app: str | None) -> None:
        """Record the first application to store a (tenant, key) entry."""
        if app is None:
            return
        with self._lock:
            self._key_owners.setdefault((tenant, key), app)

    def _note_hit(self, tenant: str, key: str, app: str | None) -> None:
        """Count a hit served to a different application than the owner."""
        if app is None:
            return
        with self._lock:
            owner = self._key_owners.get((tenant, key))
            if owner is None or owner == app:
                return
            self.cross_app_hits += 1
        from repro.obs import get_metrics

        registry = get_metrics()
        if registry.enabled:
            registry.counter("store.cross_app_hits", measured=True).inc()

    # -- accounting ----------------------------------------------------------
    def stats(self) -> dict:
        """Per-tenant and combined statistics (JSON-safe)."""
        with self._lock:
            tenants = {
                name: cache.stats() for name, cache in sorted(self._tenants.items())
            }
            dedup = self.dedup_saved
            inflight = len(self._flights)
            cross_app = self.cross_app_hits
        return {
            "root": str(self.root),
            "tenant_budget": self.tenant_budget,
            "dedup_saved": dedup,
            "cross_app_hits": cross_app,
            "flights_inflight": inflight,
            "tenants": tenants,
        }

    def combined_stats(self) -> dict:
        """Flat cache-stats dict summed over tenants.

        Shape-compatible with
        :meth:`repro.core.cache.PersistentBitstreamCache.stats`, so a
        serve run's manifest ``cache`` block feeds the regression
        sentinel's cache-demotion logic unchanged.
        """
        with self._lock:
            caches = list(self._tenants.values())
        totals = {
            "root": str(self.root),
            "entries": 0,
            "bytes": 0,
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
        }
        for cache in caches:
            stats = cache.stats()
            for key in ("entries", "bytes", "hits", "misses", "stores", "evictions"):
                totals[key] += stats.get(key, 0)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = round(totals["hits"] / lookups, 6) if lookups else 0.0
        with self._lock:
            totals["cross_app_hits"] = self.cross_app_hits
        return totals


@dataclass
class TenantCache:
    """One tenant's namespace view, pluggable into the ASIP-SP pipeline.

    Implements the ``bitstream_cache`` protocol of
    :class:`repro.core.asip_sp.AsipSpecializationProcess` with
    single-flight semantics layered over the tenant's persistent cache.
    """

    store: SharedBitstreamStore
    name: str
    cache: PersistentBitstreamCache
    #: Requesting application, for cross-app sharing attribution (None =
    #: unattributed, e.g. the batch pipeline).
    app: str | None = None

    def key_for(self, candidate, device, **kwargs) -> str:
        return PersistentBitstreamCache.key_for(candidate, device, **kwargs)

    def contains(self, key: str) -> bool:
        with self.store._lock:
            return self.cache.contains(key)

    def get(self, key: str, candidate=None):
        """Counting lookup with single-flight miss coalescing.

        Returns the cached implementation, or None when the caller has
        become the *builder* for this (tenant, key) and must run the CAD
        flow and :meth:`put` (or fail, releasing its flights).
        """
        waited = False
        while True:
            with self.store._lock:
                if self.cache.contains(key):
                    impl = self.cache.get(key, candidate)
                    if impl is not None:
                        if waited:
                            self.store._count_dedup()
                        self.store._note_hit(self.name, key, self.app)
                        return impl
                    # contains() raced a corrupt entry: fall through and
                    # compete to build.
                flight = self.store._acquire_or_wait(self.name, key)
                if flight is None:
                    # Builder: count the miss exactly once, like a serial
                    # lookup would, and let the caller run the CAD flow.
                    return self.cache.get(key, candidate)
            # Follower: the wait is part of this request's latency, so it
            # gets its own span in the request's trace, linked to the
            # leader (builder) span whose CAD run we are subscribing to.
            # How many requests wait depends on thread interleaving, so
            # the span is measured: its count is not a reproducible cell.
            with get_tracer().span(
                "store.dedup.wait",
                tenant=self.name,
                key=key[:16],
                leader_span_id=flight.leader_span_id,
                measured=True,
            ) as wait_span:
                resolved = flight.event.wait(FLIGHT_TIMEOUT_SECONDS)
                wait_span.set_attr("timed_out", not resolved)
            if not resolved:
                self.store._expire(self.name, key, flight)
            waited = True

    def put(self, key: str, impl) -> None:
        with self.store._lock:
            self.cache.put(key, impl)
        self.store._note_store(self.name, key, self.app)
        self.store._resolve(self.name, key)

    def stats(self) -> dict:
        with self.store._lock:
            return self.cache.stats()
