"""The two-level (hot RAM / warm disk) materialization cache.

:class:`SpillingMaterializationCache` extends the serving layer's in-memory
:class:`~repro.service.matcache.MaterializationCache` with a disk tier
under the **same** keys and invalidation rules:

* the hot tier is the unchanged memory cache — byte accounting,
  policy-driven eviction, token invalidation;
* a victim the hot tier evicts is **spilled** to a per-entry file in
  ``spill_dir`` (atomically: temp file + ``os.replace``), named by a stable
  hash of its ``cache_key(signature, order)`` and stamped with the
  data-version token it was filled under and the byte size it is accounted
  at.  There is one layout: the codec's columnar format 3, written from the
  entry's ``ColumnBatch``, followed by the entry's non-unique key indexes
  as index sections; a file in any other format is dropped at recovery
  like a corrupt one;
* a ``get`` / ``get_batch`` that misses the hot tier **faults** the entry
  back in from disk — verifying the file's checksum, key and token first —
  and promotes it *as the decoded batch*, at the size in its header, so hot
  working sets migrate back to RAM on their own without a row round trip
  or a second walk over every value; the batch's key index holder adopts
  the file's intact index sections, so the joins that indexed the entry
  before it left RAM do not build those indexes again.  Re-evicting a
  faulted entry keeps its file and appends the sections of indexes built
  since (the only write to a file after its rename);
* a token change (data changed) or :meth:`invalidate` drops **both** tiers;
  a spill file whose stored token no longer matches the cache's is deleted
  on contact and served as a clean miss — exactly how the memory tier
  rejects stale fills today;
* a corrupt, truncated or mis-keyed spill file (a crash mid-write, a
  damaged disk) is likewise deleted and served as a miss: recovery can
  degrade to recomputation but can never return wrong rows or crash.

Because entries are keyed by semantic fingerprint (never memo group id) and
the token is content-derived (:meth:`~repro.execution.data.Database.fingerprint`),
a spill directory outlives the process: a restarted session pointed at the
same directory re-indexes the files (:attr:`SpillStatistics.recovered`) and
serves them without re-materializing anything — the restart differential
tests prove rows and plan costs are bit-identical.

All disk operations happen under the cache's lock; files are written
complete-then-renamed, so readers never observe a partial payload — an
append cut short leaves at most a torn index section, which is skipped.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple, Union

from ..obs import Observability, metric_field
from ..service.matcache import (
    CacheKey,
    CacheStatistics,
    MaterializationCache,
    _Entry,
    estimate_batch_bytes,
)
from .codec import (
    SpillError,
    encode_index_sections,
    read_spill_batch,
    read_spill_header,
    wire_token,
    write_spill_file,
)

__all__ = ["SpillConfig", "SpillStatistics", "SpillingMaterializationCache"]

#: Suffix of every spill file the cache manages.
SPILL_SUFFIX = ".spill"


class SpillStatistics(CacheStatistics):
    """Memory-tier counters plus the disk tier's spill/fault/recovery story.

    Like the base class, a live registry view: the inherited fields *are*
    the same ``matcache_*`` counter series (constructed over the same
    registry the hot tier's view uses), the disk-tier fields add their own.
    """

    spills = metric_field()
    spill_bytes_written = metric_field()
    spill_errors = metric_field()
    faults = metric_field()
    recovered = metric_field()
    stale_files_dropped = metric_field()
    corrupt_files_dropped = metric_field()
    disk_evictions = metric_field()


@dataclass(frozen=True)
class SpillConfig:
    """Sizing knobs for a two-level cache (RAM budget and disk budget)."""

    max_bytes: int = 64 * 1024 * 1024
    max_entries: int = 256
    max_disk_bytes: int = 1024 * 1024 * 1024
    max_disk_entries: int = 8192


@dataclass
class _DiskEntry:
    path: Path
    file_bytes: int
    token: object
    #: SHA-256 (hex) of the file's payload, which an appended index section names.
    checksum: str
    #: The spilled batch's rent-or-buy history (``KeyIndex.scans``),
    #: handed to the batch a fault decodes.
    scans: Optional[Dict[str, int]] = None
    #: The columns whose key index the file holds intact (as last written
    #: or read); re-evicting the entry appends the sections of the others.
    indexed: FrozenSet[str] = frozenset()


def _spill_filename(key: CacheKey) -> str:
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:40]
    return digest + SPILL_SUFFIX


class SpillingMaterializationCache(MaterializationCache):
    """A :class:`~repro.service.matcache.MaterializationCache` that spills
    evictions to disk and faults them back in on demand.

    Args:
        spill_dir: directory holding the per-entry spill files (created if
            missing).  Pointing a fresh cache at a previous run's directory
            recovers its entries.
        max_bytes / max_entries / policy: the hot (RAM) tier, exactly as in
            the base class.
        max_disk_bytes / max_disk_entries: budget of the warm (disk) tier;
            the least recently spilled-or-faulted file is deleted first.

    The public behaviour contract of the base class holds: a ``get`` is
    either the exact rows most recently validly ``put`` for that key, or a
    miss — the disk tier widens how long an entry can be served, never what
    is served.

    This class knowingly performs disk I/O inside the cache lock: the
    recovery scan, spill writes and index appends on evict, and fault-in
    reads on get.  It is the simple-but-stalling critical section the
    ROADMAP calls out; a concurrent caller waits for that I/O.
    """

    def __init__(
        self,
        spill_dir: Union[str, Path],
        *,
        max_bytes: int = SpillConfig.max_bytes,
        max_entries: int = SpillConfig.max_entries,
        policy=None,
        max_disk_bytes: int = SpillConfig.max_disk_bytes,
        max_disk_entries: int = SpillConfig.max_disk_entries,
        obs: Optional[Observability] = None,
    ):
        super().__init__(
            max_bytes=max_bytes, max_entries=max_entries, policy=policy, obs=obs
        )
        if max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be positive")
        if max_disk_entries < 1:
            raise ValueError("max_disk_entries must be positive")
        # Widen the view over the same registry/labels: the inherited fields
        # stay the very counters the base view created.
        self.statistics: SpillStatistics = SpillStatistics(
            self.obs.registry, labels=self.obs.labels
        )
        #: Key indexes a fault took back from a spill file's index sections
        #: instead of leaving them to be rebuilt (next to the executor's
        #: ``execution_key_index_builds``).  A registry counter, not a
        #: ``statistics`` field: the cache's traffic counts stay what they were.
        self.key_indexes_restored = self.obs.counter("matcache_key_indexes_restored")
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.max_disk_bytes = max_disk_bytes
        self.max_disk_entries = max_disk_entries
        # Least recently spilled/faulted first; keyed like the hot tier.
        self._disk: "OrderedDict[CacheKey, _DiskEntry]" = OrderedDict()
        self._disk_bytes = 0
        with self._lock:
            self._recover_locked()

    @classmethod
    def from_config(
        cls,
        spill_dir: Union[str, Path],
        config: Optional[SpillConfig] = None,
        *,
        policy=None,
        obs: Optional[Observability] = None,
    ) -> "SpillingMaterializationCache":
        config = config if config is not None else SpillConfig()
        return cls(
            spill_dir,
            max_bytes=config.max_bytes,
            max_entries=config.max_entries,
            policy=policy,
            max_disk_bytes=config.max_disk_bytes,
            max_disk_entries=config.max_disk_entries,
            obs=obs,
        )

    # ----------------------------------------------------------------- state

    @property
    def disk_entries(self) -> int:
        """How many entries currently live in the disk tier."""
        with self._lock:
            return len(self._disk)

    @property
    def disk_bytes(self) -> int:
        """Total size of the spill files currently indexed."""
        with self._lock:
            return self._disk_bytes

    def disk_keys(self) -> Tuple[CacheKey, ...]:
        with self._lock:
            return tuple(self._disk)

    # -------------------------------------------------------------- recovery

    def _recover_locked(self) -> None:
        """Index the spill files a previous process left in ``spill_dir``.

        Headers only (cheap); payload checksums are verified lazily on
        fault-in.  Unreadable files are deleted on the spot — a crash
        mid-rename can leave at most a stale temp file, which is also swept.
        """
        for path in sorted(self.spill_dir.glob("*" + SPILL_SUFFIX)):
            try:
                with open(path, "rb") as handle:
                    header = read_spill_header(handle)
                file_bytes = path.stat().st_size
            except (OSError, SpillError):
                self.statistics.corrupt_files_dropped += 1
                _unlink_quietly(path)
                continue
            self._disk[header.key] = _DiskEntry(
                path=path, file_bytes=file_bytes, token=header.token,
                checksum=header.checksum,
            )
            self._disk_bytes += file_bytes
            self.statistics.recovered += 1
        for leftover in self.spill_dir.glob(".spill-tmp-*"):
            _unlink_quietly(leftover)
        self._evict_disk_locked()

    # ------------------------------------------------------------ invalidation

    def invalidate(self) -> int:
        """Drop both tiers (memory entries and spill files); returns count."""
        with self._lock:
            dropped = super().invalidate()
            disk_dropped = len(self._disk)
            for entry in self._disk.values():
                _unlink_quietly(entry.path)
            self._disk.clear()
            self._disk_bytes = 0
            if disk_dropped and not dropped:
                # super() only counts an invalidation when the memory tier
                # held something; a disk-only flush is one too.
                self.statistics.invalidations += 1
            return dropped + disk_dropped

    # ---------------------------------------------------------------------- put

    def _on_put_locked(self, key: CacheKey) -> None:
        # Any disk copy predates this fill and is now outdated; it must
        # never be faulted back in after the hot entry is evicted (a failed
        # re-spill would otherwise resurrect it).  Running inside the fill's
        # critical section keeps the fill and the drop atomic while the
        # expensive freeze and sizing stay outside the lock, as in the base
        # class.
        self._drop_disk_locked(key)

    # --------------------------------------------------------------- spilling

    def _on_evict_locked(self, key: CacheKey, entry: _Entry) -> None:
        holder = entry.batch.key_index
        scans = holder.scans if holder is not None else None
        indexes = holder.storable() if holder is not None else {}
        existing = self._disk.get(key)
        if existing is not None:
            # A fill drops the disk copy it outdates, so an existing file
            # holds exactly these rows (it was the fault-in source): keeping
            # it makes hot/warm exchange of a larger-than-RAM working set
            # cheap.  Indexes built since it was written are appended.
            existing.scans = scans
            self._disk.move_to_end(key)
            missing = {
                name: table for name, table in indexes.items()
                if name not in existing.indexed
            }
            if missing:
                self._append_indexes_locked(key, existing, missing)
            return
        path = self.spill_dir / _spill_filename(key)
        handle = None
        tmp_path: Optional[Path] = None
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=".spill-tmp-", dir=str(self.spill_dir)
            )
            tmp_path = Path(tmp_name)
            handle = os.fdopen(fd, "wb")
            written, checksum = write_spill_file(
                handle,
                key=key,
                batch=entry.batch,
                token=wire_token(self._token),
                cost=entry.cost,
                accounted_bytes=entry.bytes,
                indexes=indexes,
            )
            handle.flush()
            handle.close()
            handle = None
            os.replace(tmp_path, path)
            tmp_path = None
        except (OSError, SpillError):
            # A failed spill degrades to a plain eviction: count it, leave
            # no partial file behind, and make sure no *older* file for the
            # key survives to masquerade as these rows later.
            self.statistics.spill_errors += 1
            if self._tracer.enabled:
                self._tracer.event("matcache.spill_error", key=key[0][:16])
            if handle is not None:
                try:
                    handle.close()
                # Close failure on an already-failed spill; spill_errors was counted above
                except OSError:
                    pass
            if tmp_path is not None:
                _unlink_quietly(tmp_path)
            self._drop_disk_locked(key)
            return
        self._disk[key] = _DiskEntry(
            path=path, file_bytes=written, token=wire_token(self._token),
            checksum=checksum, scans=scans, indexed=frozenset(indexes),
        )
        self._disk.move_to_end(key)
        self._disk_bytes += written
        self.statistics.spills += 1
        self.statistics.spill_bytes_written += written
        if self._tracer.enabled:
            self._tracer.event("matcache.spill", key=key[0][:16], bytes=written)
        self._evict_disk_locked()

    def _append_indexes_locked(self, key: CacheKey, disk: _DiskEntry, indexes) -> None:
        """Append index sections to ``disk``'s file in place.  Not atomic,
        and it need not be: a torn section fails its checksum at the next
        fault, which rebuilds that column.  A failed write is cut back off."""
        data = encode_index_sections(disk.checksum, indexes)
        try:
            with open(disk.path, "ab") as handle:
                try:
                    handle.write(data)
                    handle.flush()
                except OSError:
                    handle.truncate(disk.file_bytes)
                    raise
        except OSError:
            self.statistics.spill_errors += 1
            return
        disk.file_bytes += len(data)
        disk.indexed |= frozenset(indexes)
        self._disk_bytes += len(data)
        self.statistics.spill_bytes_written += len(data)
        self._evict_disk_locked()

    def checkpoint(self) -> int:
        """Spill every hot entry to disk without evicting it; returns files written.

        Durability for planned shutdowns: eviction only persists what fell
        out of RAM, so a clean restart would lose the hottest entries —
        exactly the ones worth keeping.  ``checkpoint()`` (called by the
        serving layer's ``snapshot()``) makes the disk tier a complete copy
        of the cache, key indexes included: an entry whose file exists
        gets the sections it lacks appended.  Crash-safe in itself: each
        file is written temp-then-rename, and a torn checkpoint just
        recovers fewer entries (or rebuilds a torn section's index).
        """
        with self._lock:
            written_before = self.statistics.spills
            for key, entry in list(self._entries.items()):
                self._on_evict_locked(key, entry)
            return self.statistics.spills - written_before

    def _evict_disk_locked(self) -> None:
        while self._disk and (
            len(self._disk) > self.max_disk_entries
            or self._disk_bytes > self.max_disk_bytes
        ):
            key, entry = self._disk.popitem(last=False)
            self._disk_bytes -= entry.file_bytes
            _unlink_quietly(entry.path)
            self.statistics.disk_evictions += 1

    # --------------------------------------------------------------- faulting

    def _fault_locked(self, key: CacheKey) -> Optional[_Entry]:
        disk = self._disk.get(key)
        if disk is None:
            return None
        if self._token is None:
            # The cache is not bound to a data-version token yet, so a
            # recovered file's validity cannot be judged — it may be
            # exactly the state the caller is about to attach a database
            # for.  Miss without destroying it.
            return None
        if disk.token != wire_token(self._token):
            # The data changed since this file was written (e.g. the file
            # survived a restart into a world with different data): same
            # treatment as the memory tier's stale-token fills.  The index
            # already knows the token, so the stale file is dropped without
            # paying its full read + checksum + decode.
            self.statistics.stale_files_dropped += 1
            self._drop_disk_locked(key)
            return None
        try:
            with open(disk.path, "rb") as handle:
                header, batch, sections = read_spill_batch(handle)
        except (OSError, SpillError):
            self.statistics.corrupt_files_dropped += 1
            self._drop_disk_locked(key)
            return None
        if header.key != key:
            # Filename hash collision or a tampered file: either way these
            # rows do not belong to the requested key.
            self.statistics.corrupt_files_dropped += 1
            self._drop_disk_locked(key)
            return None
        if header.token != wire_token(self._token):
            # Defense in depth: the header is authoritative if the file was
            # swapped underneath the index.
            self.statistics.stale_files_dropped += 1
            self._drop_disk_locked(key)
            return None
        self._disk.move_to_end(key)
        self.statistics.faults += 1
        if self._tracer.enabled:
            self._tracer.event("matcache.fault", key=key[0][:16], order=key[1])
        size = header.accounted_bytes
        if size is None:  # written without it
            size = estimate_batch_bytes(batch)
        batch = batch.indexed(disk.scans)
        disk.checksum = header.checksum
        disk.indexed = frozenset(
            name
            for name, offsets, positions in sections
            if batch.key_index.adopt(name, offsets, positions)
        )
        if disk.indexed:
            self.key_indexes_restored.inc(len(disk.indexed))
        return _Entry(batch, size, max(header.cost, 0.0))

    def _drop_disk_locked(self, key: CacheKey) -> None:
        entry = self._disk.pop(key, None)
        if entry is not None:
            self._disk_bytes -= entry.file_bytes
            _unlink_quietly(entry.path)


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    # Best-effort unlink; a leaked file is ignored (wrong token) and swept by the next recovery scan
    except OSError:
        pass
