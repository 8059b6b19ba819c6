"""The durable cache tier: disk spill under the serving layer's caches.

Everything the serving layer keeps hot —
:class:`~repro.service.matcache.MaterializationCache` row sets and
:class:`~repro.adaptive.stats.FeedbackStatsStore` observations — dies with
the process by default.  This package adds the disk tier that makes those
caches survive restarts and working sets larger than RAM:

* :mod:`repro.storage.codec` — an exact, checksummed spill-file format for
  materialized row sets (type-tagged binary payloads; truncation and
  corruption are always detected, never served),
* :class:`~repro.storage.spill.SpillingMaterializationCache` — the
  two-level (hot RAM / warm disk) cache: evictions spill, gets fault back
  in, stale or damaged files degrade to clean misses.

Feedback-store durability lives on the store itself
(:meth:`~repro.adaptive.stats.FeedbackStatsStore.snapshot` /
:meth:`~repro.adaptive.stats.FeedbackStatsStore.restore`); the serving
layer wires both through ``OptimizerSession(spill_dir=...)`` and
``SessionPool(spill_dir=...)`` — per-shard spill subdirectories, one shared
feedback snapshot — with ``snapshot()`` persisting everything still hot.
"""

from .codec import (
    SPILL_FORMAT,
    SPILL_FORMAT_COLUMNAR,
    SpillCodecError,
    SpillError,
    SpillFormatError,
    SpillHeader,
    decode_batch,
    decode_rows,
    decode_value,
    encode_batch,
    encode_rows,
    encode_value,
    read_spill_batch,
    read_spill_header,
    wire_token,
    write_spill_file,
)
from .spill import SpillConfig, SpillStatistics, SpillingMaterializationCache

__all__ = [
    "SPILL_FORMAT",
    "SPILL_FORMAT_COLUMNAR",
    "SpillCodecError",
    "SpillConfig",
    "SpillError",
    "SpillFormatError",
    "SpillHeader",
    "SpillStatistics",
    "SpillingMaterializationCache",
    "decode_batch",
    "decode_rows",
    "decode_value",
    "encode_batch",
    "encode_rows",
    "encode_value",
    "read_spill_batch",
    "read_spill_header",
    "wire_token",
    "write_spill_file",
]
