"""Partial-bitstream caching (Section VI-A).

"Much like virtual machines cache the binary code that was generated
on-the-fly ... we can cache the generated partial bitstreams for each
custom instruction. To this end, each candidate needs to have a unique
identifier that is used as a key for reading and writing the cache. We can,
for example, compute a signature of the LLVM bitcode that describes the
candidate."

Three layers model that idea at increasing levels of realism:

- :class:`BitstreamCache` — the in-memory cache (keyed by
  :attr:`repro.ise.Candidate.signature`) with hit/miss accounting;
- :class:`CacheSimulation` — the paper's evaluation protocol: "for
  simulating a cache with 20 % hit rate, we have populated the cache with
  20 % of the required bitstreams for a particular application, whereas
  the selection which bitstreams are stored in the cache is random.
  Whenever there is a hit ... the whole runtime associated with the
  generation of the candidate is subtracted from the total runtime.";
- :class:`PersistentBitstreamCache` — a durable, content-addressed store
  under ``.repro-cache/`` that the experiment runner consults *before*
  invoking the CAD flow, so repeat runs genuinely skip implemented
  candidates and Table IV's hypothetical hit rates become measured ones.
  Keys combine the candidate's structural signature, the target device,
  and the timing-model version
  (:data:`repro.fpga.timingmodel.TIMING_MODEL_VERSION`); payloads are
  slim :class:`CachedImplementation` records (entity name, bitstream,
  stage times and placement statistics; the candidate is reattached on a
  hit),
  written atomically next to a JSON index.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.asip_sp import SpecializationReport
from repro.fpga.bitgen import PartialBitstream
from repro.fpga.timingmodel import TIMING_MODEL_VERSION
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - import cycle (fpga -> obs -> core)
    from repro.fpga.device import FpgaDevice
    from repro.fpga.timingmodel import StageTimes
    from repro.fpga.toolflow import ImplementationResult
    from repro.ise.candidate import Candidate


@dataclass
class BitstreamCache:
    """Signature-keyed bitstream store with hit/miss accounting."""

    _store: dict[int, PartialBitstream] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, signature: int) -> PartialBitstream | None:
        bs = self._store.get(signature)
        if bs is None:
            self.misses += 1
        else:
            self.hits += 1
        return bs

    def put(self, signature: int, bitstream: PartialBitstream) -> None:
        self._store[signature] = bitstream

    def __contains__(self, signature: int) -> bool:
        return signature in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class CacheSimulation:
    """Monte-Carlo-free cache-hit simulation per the paper's protocol."""

    seed: int = 0

    def effective_toolflow_seconds(
        self,
        report: SpecializationReport,
        hit_rate_pct: float,
        trial: int = 0,
    ) -> float:
        """Tool-flow overhead with a ``hit_rate_pct``-populated cache.

        The populated subset is chosen deterministically from (seed, trial);
        averaging over trials reproduces the paper's random-selection
        protocol without nondeterminism.
        """
        if not 0.0 <= hit_rate_pct <= 100.0:
            raise ValueError("hit rate must be within [0, 100] percent")
        impls = report.implementations
        n = len(impls)
        if n == 0:
            return 0.0
        n_cached = int(round(n * hit_rate_pct / 100.0))
        rng = DeterministicRng(f"cache-sim/{self.seed}/{trial}/{n}")
        order = list(range(n))
        rng.shuffle(order)
        cached = set(order[:n_cached])
        total = 0.0
        for i, ci in enumerate(impls):
            if i in cached:
                continue  # hit: whole generation time subtracted
            total += ci.times.total
        return total

    def average_effective_seconds(
        self, report: SpecializationReport, hit_rate_pct: float, trials: int = 16
    ) -> float:
        return sum(
            self.effective_toolflow_seconds(report, hit_rate_pct, t)
            for t in range(trials)
        ) / max(1, trials)


# -- persistent cross-run store ------------------------------------------------

#: Schema tag baked into every cache key: bumping it orphans all prior
#: entries, which is the correct behaviour whenever the pickled payload
#: layout changes incompatibly.
CACHE_SCHEMA = "repro-bitstream-cache/3"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class PlacementStats:
    """A placement's quality figures without its cell locations."""

    initial_wirelength: float
    final_wirelength: float
    moves_attempted: int
    moves_accepted: int


@dataclass(frozen=True)
class CachedImplementation:
    """What a cache hit returns: the parts of an implementation a caller reads.

    Callers of a hit read the stage times, the bitstream, the entity name
    and the placement statistics; the VHDL text, the mapped netlist, the
    routing and the cell locations are dropped, so a hit unpickles only a
    few kilobytes.
    """

    candidate: "Candidate | None"
    entity_name: str
    bitstream: PartialBitstream
    times: "StageTimes"
    placement: PlacementStats


@dataclass
class PersistentBitstreamCache:
    """Durable content-addressed store of CAD tool-flow results.

    Layout under :attr:`root`::

        .repro-cache/
          index.json            # key -> {entity, size_bytes, seconds, stored_at}
          objects/<key>.pkl     # pickled CachedImplementation, candidate=None

    Keys are sha256 hex digests over ``(schema, device, timing-model
    version, candidate signature)`` — see :meth:`key_for` — so a cached
    entry is only ever returned for the identical candidate structure
    implemented for the identical device under the identical timing
    calibration (Section VI-A's "unique identifier ... used as a key").

    Writes are atomic (a temp file unique to the writer, then
    :func:`os.replace`), so processes sharing one root never clobber each
    other's half-written files, and any corrupted index entry or object
    file is treated as a miss and dropped, so a killed run can never
    poison later ones. The index update is a read-modify-write without a
    cross-process lock: two concurrent writers can lose one index entry,
    which costs only a later miss (the object is rebuilt and re-stored).
    Hit/miss/store/eviction counts feed :meth:`stats`.

    The instance keeps the index it last parsed or wrote, with the
    ``(inode, size, mtime_ns)`` of that file. A lookup costs one
    :func:`os.stat` of ``index.json`` and reparses it only when another
    writer (instance or process) has replaced it since; the instance's
    own writes refresh the kept copy. A write by another writer that
    leaves all three unchanged would go unseen, but keys are content
    addressed, so a stale copy can never produce a wrong hit: it costs at
    most a miss, the same lost-entry race as above.
    """

    root: Path = Path(DEFAULT_CACHE_DIR)
    max_entries: int | None = None
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: ``(stamp, entries)`` of the index this instance last parsed or wrote.
    _kept: tuple[tuple[int, int, int], dict[str, dict]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``root/index.json`` and ``root/objects``, composed once.
    index_path: Path = field(init=False, repr=False, compare=False)
    _objects: Path = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.index_path = self.root / "index.json"
        self._objects = self.root / "objects"

    # -- key composition -------------------------------------------------------

    @staticmethod
    def key_for(
        candidate: "Candidate",
        device: "FpgaDevice",
        timing_version: int = TIMING_MODEL_VERSION,
    ) -> str:
        """Content-addressed key for one (candidate, device, model) triple."""
        material = (
            f"{CACHE_SCHEMA}/{device.name}/tm{timing_version}"
            f"/{candidate.signature:016x}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- paths -----------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self._objects / f"{key}.pkl"

    # -- index I/O (tolerant reads, atomic writes) -----------------------------

    def _load_index(self) -> dict[str, dict]:
        """The index entries, reparsed only when the file has changed.

        Returns the kept copy itself: a caller that changes entries works
        on its own ``dict()`` of it and hands that to :meth:`_write_index`.
        """
        # Stat before reading: the stamp is never newer than what is
        # parsed, so a writer racing this read costs a reparse, not a
        # stale copy.
        try:
            stamp = _stamp(os.stat(self.index_path))
        except OSError:
            return {}
        if self._kept is not None and self._kept[0] == stamp:
            return self._kept[1]
        entries = _read_entries(self.index_path)
        self._kept = (stamp, entries)
        return entries

    def _write_index(self, entries: dict[str, dict]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"schema": CACHE_SCHEMA, "entries": entries},
            indent=2,
            sort_keys=True,
        )
        written = _replace_atomically(
            self.index_path, (payload + "\n").encode("utf-8")
        )
        self._kept = (_stamp(written), dict(entries))

    # -- core operations -------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Non-counting presence probe (two stats), for inspecting a
        store without touching its hit/miss counts."""
        return key in self._load_index() and self._object_path(key).exists()

    def get(
        self, key: str, candidate: "Candidate | None" = None
    ) -> CachedImplementation | None:
        """Counting lookup: one index stat and one small unpickle;
        reattaches *candidate* to the stored record."""
        entries = self._load_index()
        entry = entries.get(key)
        record = None
        if entry is not None:
            try:
                with self._object_path(key).open("rb") as fh:
                    record = pickle.load(fh)
            except (OSError, pickle.PickleError, ValueError, EOFError,
                    AttributeError, ImportError):
                # Corrupted or unreadable object: demote to a miss and
                # drop the index entry so we stop retrying it.
                record = None
                entries = dict(entries)
                entries.pop(key, None)
                try:
                    self._write_index(entries)
                    self._object_path(key).unlink(missing_ok=True)
                except OSError:
                    pass
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        if candidate is not None:
            record = replace(record, candidate=candidate)
        return record

    def put(
        self, key: str, impl: "ImplementationResult | CachedImplementation"
    ) -> None:
        """Store one implementation's slim record atomically, evicting if
        needed."""
        self._objects.mkdir(parents=True, exist_ok=True)
        # The candidate is reattached on get(); detaching it keeps the
        # payload independent of analysis-session object graphs.
        placement = impl.placement
        record = CachedImplementation(
            candidate=None,
            entity_name=impl.entity_name,
            bitstream=impl.bitstream,
            times=impl.times,
            placement=PlacementStats(
                initial_wirelength=placement.initial_wirelength,
                final_wirelength=placement.final_wirelength,
                moves_attempted=placement.moves_attempted,
                moves_accepted=placement.moves_accepted,
            ),
        )
        _replace_atomically(self._object_path(key), pickle.dumps(record))

        entries = dict(self._load_index())
        entries[key] = {
            "entity": impl.entity_name,
            "size_bytes": impl.bitstream.size_bytes,
            "toolflow_seconds": round(impl.times.total, 6),
            "stored_at": time.time(),
        }
        if self.max_entries is not None and self.max_entries > 0:
            while len(entries) > self.max_entries:
                oldest = min(
                    entries, key=lambda k: entries[k].get("stored_at", 0.0)
                )
                entries.pop(oldest)
                self._object_path(oldest).unlink(missing_ok=True)
                self.evictions += 1
        self._write_index(entries)
        self.stores += 1

    def clear(self) -> int:
        """Remove every entry and any temp file a killed writer left;
        returns how many entries were dropped."""
        entries = self._load_index()
        dropped = len(entries)
        for key in entries:
            self._object_path(key).unlink(missing_ok=True)
        for tmp in (*self.root.glob("*.tmp"), *self.root.glob("objects/*.tmp")):
            tmp.unlink(missing_ok=True)
        if self.index_path.exists():
            self._write_index({})
        return dropped

    # -- accounting ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._load_index())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-safe summary for ledgers and ``repro cache stats``."""
        entries = self._load_index()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(int(v.get("size_bytes", 0)) for v in entries.values()),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
        }

    def counters(self) -> dict[str, int]:
        """Session counters, for merging from worker processes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def absorb_counters(self, counts: dict[str, int]) -> None:
        """Fold a worker's :meth:`counters` into this instance."""
        self.hits += int(counts.get("hits", 0))
        self.misses += int(counts.get("misses", 0))
        self.stores += int(counts.get("stores", 0))
        self.evictions += int(counts.get("evictions", 0))


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    """What tells one version of the index file from another."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _read_entries(path: Path) -> dict[str, dict]:
    """Parse an index file; anything unreadable reads as empty."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    entries = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(entries, dict):
        return {}
    # Drop structurally corrupt entries rather than failing the run.
    return {
        k: v
        for k, v in entries.items()
        if isinstance(k, str) and isinstance(v, dict)
    }


def _replace_atomically(path: Path, data: bytes) -> os.stat_result:
    """Write *data* to *path* through a temp file unique to this writer.

    Returns the stat of what was written: the rename keeps the temp
    file's inode, size and mtime, so it is also the stat of *path*
    without a race against the next writer.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            written = os.fstat(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return written
