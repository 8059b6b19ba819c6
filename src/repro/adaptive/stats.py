"""The runtime-feedback statistics store.

Every execution through the serving layer observes real row counts, byte
sizes and wall-clock timings for the plan nodes it runs (materialized
shared subexpressions and query roots).  The :class:`FeedbackStatsStore`
keeps those observations keyed by the **semantic fingerprint** of the node
(:func:`~repro.dag.fingerprint.canonical_key`), never by memo group id, so
one store serves every batch of a session and survives memo rebuilds —
exactly like the :class:`~repro.service.matcache.MaterializationCache`.

Observations are folded with an exponentially weighted moving average, and
the store is bound to the database's data-version token the same way the
materialization cache is: a token change bumps the store's *epoch*, which
decays the confidence of every earlier observation (the data they were
measured against is gone).  An observation recorded *after* an epoch bump
resets the moving averages — numbers measured against old data must not
bleed into estimates for the new data.

All operations are thread-safe.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Hashable, Optional, Tuple, Union

from ..obs import MetricsRegistry, StatisticsView, metric_field
from ..obs.metrics import LabelsLike

__all__ = [
    "FeedbackStatistics",
    "FeedbackStatsStore",
    "ObservedStats",
    "SnapshotError",
]

#: Bump when the snapshot layout changes; ``restore`` rejects unknown versions.
SNAPSHOT_FORMAT = 1


class SnapshotError(ValueError):
    """A feedback snapshot file is corrupt, truncated or mis-versioned."""


def wire_token(token: object) -> object:
    """A token in canonical comparable form (lists/tuples collapse to tuples).

    Spill files and feedback snapshots go through JSON, which turns tuples
    into lists; normalizing both the stored and the live token makes the
    comparison representation-independent.  Anything but a scalar compares
    by ``repr``, so an identity-derived token never survives a restart.
    """
    if isinstance(token, (tuple, list)):
        return tuple(wire_token(item) for item in token)
    if token is None or isinstance(token, (bool, int, float, str)):
        return token
    return repr(token)


def json_token(token: object) -> object:
    """The JSON-serializable form of a (normalized) token."""
    normalized = wire_token(token)
    if isinstance(normalized, tuple):
        return [json_token(item) for item in normalized]
    return normalized


@dataclass(frozen=True)
class ObservedStats:
    """The folded runtime observations for one semantic fingerprint.

    Attributes:
        key: the canonical fingerprint the observations belong to.
        observations: how many times this node was observed (since the last
            epoch reset).
        rows / bytes: EWMA of observed output cardinality and byte size.
        elapsed: EWMA of observed wall seconds spent computing the node
            (children included — the executor is an interpreter, so this is
            the measured recomputation time the cache policy trades against
            stored bytes).
        last_rows: the most recent raw row-count observation.
        epoch: the store epoch the last observation was recorded in.
    """

    key: str
    observations: int = 0
    rows: float = 0.0
    bytes: float = 0.0
    elapsed: float = 0.0
    last_rows: float = 0.0
    epoch: int = 0

    @property
    def row_width(self) -> Optional[float]:
        """Observed bytes per row, when both quantities were observed."""
        if self.rows <= 0 or self.bytes <= 0:
            return None
        return self.bytes / self.rows


class FeedbackStatistics(StatisticsView):
    """Counters describing how the store collected its observations.

    A live view over a :class:`~repro.obs.MetricsRegistry` (series
    ``feedback_records``, ``feedback_evictions``, ...); the public fields
    are unchanged from the former dataclass.
    """

    _prefix = "feedback_"

    records = metric_field()
    epoch_resets = metric_field()
    token_changes = metric_field()
    evictions = metric_field()
    snapshots_written = metric_field()
    entries_restored = metric_field()


class FeedbackStatsStore:
    """Observed-cardinality statistics keyed by semantic fingerprint.

    Args:
        ewma_alpha: weight of the newest observation in the moving averages
            (1.0 = keep only the latest measurement).
        epoch_decay: confidence multiplier applied per epoch an observation
            lags behind the store (the data-version analogue of the
            materialization cache's hard invalidation — soft, because a
            stale cardinality is still a better prior than none).
        max_entries: bound on tracked fingerprints; the least recently
            *updated* entry is dropped first.
    """

    def __init__(
        self,
        *,
        ewma_alpha: float = 0.5,
        epoch_decay: float = 0.5,
        max_entries: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        labels: LabelsLike = None,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= epoch_decay <= 1.0:
            raise ValueError("epoch_decay must be in [0, 1]")
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.ewma_alpha = ewma_alpha
        self.epoch_decay = epoch_decay
        self.max_entries = max_entries
        self.statistics = FeedbackStatistics(registry, labels=labels)
        self._lock = threading.RLock()
        # Least recently updated first; record() moves keys to the end.
        self._entries: "OrderedDict[str, ObservedStats]" = OrderedDict()
        self._token: Optional[Hashable] = None
        self._epoch = 0

    # ----------------------------------------------------------------- state

    @property
    def epoch(self) -> int:
        """Monotone counter bumped whenever the data-version token changes."""
        with self._lock:
            return self._epoch

    def statistics_snapshot(self) -> Dict[str, int]:
        """A *consistent* copy of the feedback counters, under the lock.

        :attr:`statistics` is a live view over the shared registry; reading
        several of its fields bare can observe a torn multi-counter state
        (an observation counted whose refinement is not).  The experiment
        reporting tables read from these snapshots.
        """
        with self._lock:
            return self.statistics.as_dict()

    @property
    def token(self) -> Optional[Hashable]:
        with self._lock:
            return self._token

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ---------------------------------------------------------------- tokens

    def ensure_token(self, token: Hashable) -> bool:
        """Bind the store to a data-version token; bump the epoch on change.

        Mirrors :meth:`~repro.service.matcache.MaterializationCache.ensure_token`,
        except that observations are *decayed* (via the epoch) instead of
        dropped: a cardinality measured against the old data is still a
        useful prior until fresh observations replace it.  Returns True when
        the token changed.
        """
        with self._lock:
            if self._token is None:
                self._token = token
                return False
            if self._token == token:
                return False
            self._token = token
            self._epoch += 1
            self.statistics.token_changes += 1
            return True

    # --------------------------------------------------------------- get/put

    def record(
        self,
        key: str,
        *,
        rows: float,
        bytes: float = 0.0,
        elapsed: Optional[float] = None,
    ) -> ObservedStats:
        """Fold one observation into the store and return the updated entry.

        An observation recorded after an epoch bump (the data changed since
        the entry's last observation) resets the moving averages to the new
        measurement — old-data numbers never average into new-data ones.

        ``elapsed=None`` means *no timing was measured* for this
        observation: the row/byte averages update but the elapsed EWMA is
        left untouched.  The serving layer uses this for plans that merely
        re-read a cached materialization — their near-zero wall time says
        nothing about what recomputing the node would cost, and folding it
        in would erode the measured benefit the cache policy scores with.
        """
        rows = max(float(rows), 0.0)
        bytes = max(float(bytes), 0.0)
        if elapsed is not None:
            elapsed = max(float(elapsed), 0.0)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.epoch != self._epoch:
                if entry is not None:
                    self.statistics.epoch_resets += 1
                entry = ObservedStats(
                    key=key,
                    observations=1,
                    rows=rows,
                    bytes=bytes,
                    elapsed=elapsed if elapsed is not None else 0.0,
                    last_rows=rows,
                    epoch=self._epoch,
                )
            else:
                a = self.ewma_alpha
                entry = replace(
                    entry,
                    observations=entry.observations + 1,
                    rows=a * rows + (1.0 - a) * entry.rows,
                    bytes=a * bytes + (1.0 - a) * entry.bytes,
                    elapsed=(
                        a * elapsed + (1.0 - a) * entry.elapsed
                        if elapsed is not None
                        else entry.elapsed
                    ),
                    last_rows=rows,
                )
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.statistics.records += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1
            return entry

    def get(self, key: str) -> Optional[ObservedStats]:
        """The observations for a fingerprint (immutable), or None."""
        with self._lock:
            return self._entries.get(key)

    # ------------------------------------------------------------ persistence

    def snapshot(self, path: Union[str, Path]) -> int:
        """Persist every observation (plus token and epoch) as JSON.

        Written atomically (temp file + ``os.replace``), so a crash
        mid-snapshot leaves the previous snapshot intact.  Returns how many
        entries were written.  Tokens are stored in a JSON-normalized form
        (tuples become lists); :meth:`restore` re-normalizes both sides
        before comparing, so any JSON-representable token round-trips.
        """
        path = Path(path)
        with self._lock:
            payload = {
                "kind": "repro-feedback-snapshot",
                "format": SNAPSHOT_FORMAT,
                "token": json_token(self._token),
                "epoch": self._epoch,
                "ewma_alpha": self.ewma_alpha,
                "epoch_decay": self.epoch_decay,
                "entries": [
                    {
                        "key": entry.key,
                        "observations": entry.observations,
                        "rows": entry.rows,
                        "bytes": entry.bytes,
                        "elapsed": entry.elapsed,
                        "last_rows": entry.last_rows,
                        "epoch": entry.epoch,
                    }
                    for entry in self._entries.values()
                ],
            }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".feedback-tmp-", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            # Best-effort temp-file cleanup; the original snapshot error re-raises below
            except OSError:
                pass
            raise
        with self._lock:
            # Counted only once the file is durably in place: a failed
            # write must not report a snapshot that does not exist.
            self.statistics.snapshots_written += 1
        return len(payload["entries"])

    def restore(self, path: Union[str, Path]) -> int:
        """Re-seed the store from a :meth:`snapshot`; returns entries loaded.

        Token- and epoch-checked, mirroring :meth:`ensure_token`'s soft
        invalidation:

        * an **unbound** store adopts the snapshot's token, so entries
          arrive at full confidence — and a later ``ensure_token`` against
          the live data either confirms it (same data as the snapshotting
          process: nothing decays) or bumps the epoch (the data changed:
          everything restored decays into a prior),
        * a store already bound to a **different** token loads the entries
          one extra epoch behind — observations of other data are stale
          priors, never fresh measurements,
        * per-entry epoch *lags* are preserved, so an entry that was
          already stale when snapshotted stays exactly as stale.

        Keys already present in the store are kept (live observations beat
        snapshotted ones).  Raises :class:`SnapshotError` on a corrupt,
        truncated or mis-versioned file; callers doing best-effort recovery
        should treat that as "start empty", never as fatal.
        """
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable feedback snapshot {path}: {exc}") from None
        if not isinstance(raw, dict) or raw.get("kind") != "repro-feedback-snapshot":
            raise SnapshotError(f"{path} is not a feedback snapshot")
        if raw.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported feedback snapshot format {raw.get('format')!r}"
            )
        try:
            snap_token = wire_token(raw.get("token"))
            snap_epoch = int(raw["epoch"])
            entries = [
                ObservedStats(
                    key=str(item["key"]),
                    observations=int(item["observations"]),
                    rows=float(item["rows"]),
                    bytes=float(item["bytes"]),
                    elapsed=float(item["elapsed"]),
                    last_rows=float(item["last_rows"]),
                    epoch=int(item["epoch"]),
                )
                for item in raw["entries"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed feedback snapshot {path}: {exc}") from None
        with self._lock:
            extra_lag = 0
            if self._token is None:
                if snap_token is not None:
                    self._token = snap_token
            elif wire_token(self._token) != snap_token:
                extra_lag = 1
            restored = 0
            # Walk the snapshot newest-first and insert at the LRU end:
            # restored priors must never be fresher than *live* entries
            # (capacity pressure has to evict a snapshot entry before a
            # measurement this process actually took), while preserving the
            # snapshot's own recency order among themselves.
            for entry in reversed(entries):
                if entry.key in self._entries:
                    continue
                lag = max(snap_epoch - entry.epoch, 0) + extra_lag
                self._entries[entry.key] = replace(entry, epoch=self._epoch - lag)
                self._entries.move_to_end(entry.key, last=False)
                restored += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1
            self.statistics.entries_restored += restored
            return restored

    def confidence(self, key: str) -> float:
        """How much to trust the observations for ``key``, in [0, 1].

        Confidence grows with the number of observations —
        ``1 - (1 - alpha)^n`` — and decays geometrically with every epoch
        (data-version change) the entry lags behind the store.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.observations <= 0:
                return 0.0
            grown = 1.0 - (1.0 - self.ewma_alpha) ** entry.observations
            lag = self._epoch - entry.epoch
            if lag <= 0:
                return grown
            return grown * (self.epoch_decay ** lag)
