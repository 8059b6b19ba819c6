"""The spill codec: exact, self-describing serialization of cached row sets.

The disk tier of the serving layer
(:class:`~repro.storage.spill.SpillingMaterializationCache`) persists
materialized row sets in per-entry **spill files**.  Durability only counts
if recovery is *bit-identical*, so the codec here is deliberately not JSON:
it is a small type-tagged binary format that round-trips every value the
executor produces exactly —

* ``None``, ``bool``, arbitrary-precision ``int``, ``float`` (IEEE-754
  binary64, so ``-0.0`` and the full precision survive), ``str`` (UTF-8,
  non-ASCII included), ``bytes``,
* ``tuple`` and ``list`` (kept distinct — JSON would collapse tuples into
  lists), nested to any depth, and
* ``dict`` rows with string keys.

There is **one on-disk layout**: :func:`write_spill_file` always writes
**format 2**, the columnar payload of :func:`encode_batch` — per-column
vectors, bulk-packed when a column is all int64, all float or all ``str``
(one ``struct`` call or one UTF-8 blob per column), tagged value by value
otherwise, with an explicit presence bitmap for heterogeneous rows — and
:func:`read_spill_batch` decodes it straight into the
:class:`~repro.execution.columnar.batch.ColumnBatch` the cache keeps; rows
are converted at the edge.  **Format 1** (one tagged list of dict rows, what
releases before the columnar layout wrote) is still *read*, through the
value codec that generic columns and feedback snapshots use anyway, so an
old spill directory keeps being served.  Either way a decoded row set
compares ``==`` to what was encoded and has the identical
:func:`~repro.service.matcache.estimate_rows_bytes` accounting — the
property tests assert both.

A spill **file** wraps one encoded payload with everything needed to trust
it after a crash: a magic line, a JSON header (format, cache key,
data-version token, recompute cost, row count, payload length, and the
byte size the cache accounted the entry at, so a fault adopts it instead of
re-walking every value) and a SHA-256 checksum of the payload.
:func:`read_spill_batch` verifies all of it; truncated, bit-flipped or
mis-keyed files raise :class:`SpillFormatError`, which the cache layer
turns into a clean miss (never a crash, never stale rows).

The module uses only the standard library and imports nothing from
:mod:`repro.service` (the ``ColumnBatch`` container is pulled from
:mod:`repro.execution` lazily), so the feedback store and the cache tier
can both build on it without import cycles.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "SPILL_FORMAT",
    "SPILL_FORMAT_COLUMNAR",
    "SpillCodecError",
    "SpillError",
    "SpillFormatError",
    "SpillHeader",
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

Row = Dict[str, object]

#: Format 1: the original row layout (one encoded list of dict rows).
#: Read, never written.
SPILL_FORMAT = 1
#: Format 2: the columnar layout (per-column type-tagged vectors, see
#: :func:`encode_batch`) — what every spill file is written as.
SPILL_FORMAT_COLUMNAR = 2

_KNOWN_FORMATS = (SPILL_FORMAT, SPILL_FORMAT_COLUMNAR)

MAGIC = b"REPRO-SPILL\n"


class SpillError(Exception):
    """Base class for everything the spill tier can raise."""


class SpillCodecError(SpillError):
    """A value the codec cannot represent was passed to ``encode``."""


class SpillFormatError(SpillError):
    """A spill file or payload is truncated, corrupt or mis-versioned."""


# ---------------------------------------------------------------------------
# Value codec: type-tagged binary encoding with exact round trips.
# ---------------------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TUPLE = b"t"
_TAG_LIST = b"l"
_TAG_DICT = b"d"

_DOUBLE = struct.Struct(">d")


def _write_uvarint(out: io.BytesIO, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_uvarint(buf: memoryview, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise SpillFormatError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63 + 7:  # > 2**70: nothing the codec writes is this long
            raise SpillFormatError("varint out of range")


def _encode_value(out: io.BytesIO, value: object) -> None:
    if value is None:
        out.write(_TAG_NONE)
    elif value is True:
        out.write(_TAG_TRUE)
    elif value is False:
        out.write(_TAG_FALSE)
    elif isinstance(value, int):
        # bool is handled above; arbitrary-precision two's complement.
        length = max(1, (value.bit_length() + 8) // 8)
        out.write(_TAG_INT)
        _write_uvarint(out, length)
        out.write(value.to_bytes(length, "big", signed=True))
    elif isinstance(value, float):
        out.write(_TAG_FLOAT)
        out.write(_DOUBLE.pack(value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.write(_TAG_STR)
        _write_uvarint(out, len(encoded))
        out.write(encoded)
    elif isinstance(value, bytes):
        out.write(_TAG_BYTES)
        _write_uvarint(out, len(value))
        out.write(value)
    elif isinstance(value, tuple):
        out.write(_TAG_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, list):
        out.write(_TAG_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.write(_TAG_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpillCodecError(
                    f"dict keys must be strings, got {type(key).__name__}"
                )
            encoded = key.encode("utf-8")
            _write_uvarint(out, len(encoded))
            out.write(encoded)
            _encode_value(out, item)
    else:
        raise SpillCodecError(f"cannot encode a value of type {type(value).__name__}")


def _decode_value(buf: memoryview, pos: int) -> Tuple[object, int]:
    if pos >= len(buf):
        raise SpillFormatError("truncated value")
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        length, pos = _read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise SpillFormatError("truncated int")
        return int.from_bytes(buf[pos : pos + length], "big", signed=True), pos + length
    if tag == _TAG_FLOAT:
        if pos + 8 > len(buf):
            raise SpillFormatError("truncated float")
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        length, pos = _read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise SpillFormatError("truncated string")
        try:
            return str(buf[pos : pos + length], "utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise SpillFormatError(f"corrupt UTF-8 payload: {exc}") from None
    if tag == _TAG_BYTES:
        length, pos = _read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise SpillFormatError("truncated bytes")
        return bytes(buf[pos : pos + length]), pos + length
    if tag in (_TAG_TUPLE, _TAG_LIST):
        count, pos = _read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_DICT:
        count, pos = _read_uvarint(buf, pos)
        row: Dict[str, object] = {}
        for _ in range(count):
            length, pos = _read_uvarint(buf, pos)
            if pos + length > len(buf):
                raise SpillFormatError("truncated dict key")
            try:
                key = str(buf[pos : pos + length], "utf-8")
            except UnicodeDecodeError as exc:
                raise SpillFormatError(f"corrupt UTF-8 dict key: {exc}") from None
            pos += length
            row[key], pos = _decode_value(buf, pos)
        return row, pos
    raise SpillFormatError(f"unknown type tag {tag!r}")


def encode_value(value: object) -> bytes:
    """Encode one value; ``decode_value(encode_value(v)) == v`` exactly."""
    out = io.BytesIO()
    _encode_value(out, value)
    return out.getvalue()


def decode_value(payload: bytes) -> object:
    """Decode one value, rejecting trailing garbage and truncation."""
    value, pos = _decode_value(memoryview(payload), 0)
    if pos != len(payload):
        raise SpillFormatError(f"{len(payload) - pos} trailing bytes after value")
    return value


def encode_rows(rows: Sequence[Row]) -> bytes:
    """Encode a materialized row set (a list of string-keyed dict rows)."""
    return encode_value(list(rows))


def decode_rows(payload: bytes) -> List[Row]:
    """Decode a row set, verifying the expected list-of-dicts shape."""
    value = decode_value(payload)
    if not isinstance(value, list) or any(not isinstance(row, dict) for row in value):
        raise SpillFormatError("payload is not a row set (list of dict rows)")
    return value


# ---------------------------------------------------------------------------
# Columnar payload (format 2): per-column type-tagged vectors.
# ---------------------------------------------------------------------------
#
# Layout (all integers uvarint unless stated):
#
#   row_count  column_count
#   per column:
#     name_len  name_utf8
#     presence: 0x00 (every row has the key) or 0x01 + bitmap of
#               ceil(row_count/8) bytes, LSB-first (bit set = key present)
#     vector tag:
#       b"q"  packed int64, row_count × 8 bytes big-endian signed — used
#             when every value is a plain int (bool is NOT an int here:
#             True must never come back as 1) in int64 range;
#       b"d"  packed float64, row_count × 8 bytes IEEE-754 big-endian —
#             used when every value is a plain float;
#       b"u"  packed strings: row_count × 4 bytes big-endian unsigned, each
#             string's length in *code points*, then blob_len and the UTF-8
#             encoding of the concatenated strings — used when every value
#             is a plain str (decoded once, then sliced);
#       b"g"  generic: row_count recursively tagged values (the format-1
#             value codec), which covers None, bool, big ints, strings,
#             bytes, containers — everything, exactly.
#
# Absent cells (presence bit clear) hold None in the value vector, matching
# the in-memory ColumnBatch invariant (so a masked column is never packed).

_COL_PACKED_INT = b"q"
_COL_PACKED_FLOAT = b"d"  # column-tag namespace, distinct from the value tags
_COL_PACKED_STR = b"u"
_COL_GENERIC = b"g"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_UINT32_MAX = (1 << 32) - 1


def _column_batch_cls():
    # Imported lazily: the storage layer must stay importable without
    # pulling the execution package in at import time.
    from ..execution.columnar.batch import ColumnBatch

    return ColumnBatch


def _pack_bitmap(bits: Sequence[bool]) -> bytes:
    packed = bytearray((len(bits) + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            packed[index >> 3] |= 1 << (index & 7)
    return bytes(packed)


def _unpack_bitmap(buf: memoryview, pos: int, count: int) -> Tuple[List[bool], int]:
    length = (count + 7) // 8
    if pos + length > len(buf):
        raise SpillFormatError("truncated presence bitmap")
    bits = [bool(buf[pos + (i >> 3)] & (1 << (i & 7))) for i in range(count)]
    return bits, pos + length


def _encode_vector(out: io.BytesIO, values: Sequence[object]) -> None:
    """One column's values: a bulk-packed vector when they share a plain
    type the packing is exact for, else one tagged value each."""
    kinds = set(map(type, values))
    if kinds == {int} and _INT64_MIN <= min(values) and max(values) <= _INT64_MAX:
        out.write(_COL_PACKED_INT)
        out.write(struct.pack(f">{len(values)}q", *values))
    elif kinds == {float}:
        out.write(_COL_PACKED_FLOAT)
        out.write(struct.pack(f">{len(values)}d", *values))
    elif kinds == {str} and max(map(len, values)) <= _UINT32_MAX:
        blob = "".join(values).encode("utf-8")
        out.write(_COL_PACKED_STR)
        out.write(struct.pack(f">{len(values)}I", *map(len, values)))
        _write_uvarint(out, len(blob))
        out.write(blob)
    else:
        out.write(_COL_GENERIC)
        for value in values:
            _encode_value(out, value)


def _decode_vector(buf: memoryview, pos: int, n: int) -> Tuple[List[object], int]:
    if pos >= len(buf):
        raise SpillFormatError("truncated column vector")
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag in (_COL_PACKED_INT, _COL_PACKED_FLOAT):
        # Bounds first: a forged row count must fail here, not inside struct.
        end = pos + 8 * n
        if end > len(buf):
            raise SpillFormatError("truncated packed column")
        code = "q" if tag == _COL_PACKED_INT else "d"
        return list(struct.unpack_from(f">{n}{code}", buf, pos)), end
    if tag == _COL_PACKED_STR:
        end = pos + 4 * n
        if end > len(buf):
            raise SpillFormatError("truncated packed string lengths")
        lengths = struct.unpack_from(f">{n}I", buf, pos)
        blob_bytes, pos = _read_uvarint(buf, end)
        end = pos + blob_bytes
        if end > len(buf):
            raise SpillFormatError("truncated packed string blob")
        try:
            text = str(buf[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise SpillFormatError(f"corrupt UTF-8 string blob: {exc}") from None
        offsets = list(accumulate(lengths, initial=0))
        if offsets[-1] != len(text):
            raise SpillFormatError("packed string lengths disagree with their blob")
        return [text[a:b] for a, b in zip(offsets, offsets[1:])], end
    if tag == _COL_GENERIC:
        values = []
        for _ in range(n):
            value, pos = _decode_value(buf, pos)
            values.append(value)
        return values, pos
    raise SpillFormatError(f"unknown column vector tag {tag!r}")


def encode_batch(batch) -> bytes:
    """Encode a :class:`~repro.execution.columnar.batch.ColumnBatch` (format 2).

    ``decode_batch(encode_batch(b))`` reproduces columns, masks and row
    count exactly, so ``.to_rows()`` of the decoded batch equals the rows
    that were spilled, bit for bit.
    """
    out = io.BytesIO()
    n = batch.length
    _write_uvarint(out, n)
    _write_uvarint(out, len(batch.columns))
    for name, values in batch.columns.items():
        encoded_name = name.encode("utf-8")
        _write_uvarint(out, len(encoded_name))
        out.write(encoded_name)
        mask = batch.masks.get(name)
        if mask is None or all(mask):
            out.write(b"\x00")
        else:
            out.write(b"\x01")
            out.write(_pack_bitmap(mask))
        _encode_vector(out, values)
    return out.getvalue()


def decode_batch(payload: bytes):
    """Decode a format-2 payload back into a ``ColumnBatch`` (exact)."""
    ColumnBatch = _column_batch_cls()
    buf = memoryview(payload)
    pos = 0
    n, pos = _read_uvarint(buf, pos)
    column_count, pos = _read_uvarint(buf, pos)
    columns: Dict[str, List[object]] = {}
    masks: Dict[str, Optional[List[bool]]] = {}
    for _ in range(column_count):
        length, pos = _read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise SpillFormatError("truncated column name")
        try:
            name = str(buf[pos : pos + length], "utf-8")
        except UnicodeDecodeError as exc:
            raise SpillFormatError(f"corrupt UTF-8 column name: {exc}") from None
        pos += length
        if name in columns:
            raise SpillFormatError(f"duplicate column {name!r}")
        if pos >= len(buf):
            raise SpillFormatError("truncated presence marker")
        presence = buf[pos]
        pos += 1
        if presence == 1:
            masks[name], pos = _unpack_bitmap(buf, pos, n)
        elif presence != 0:
            raise SpillFormatError(f"unknown presence marker {presence!r}")
        columns[name], pos = _decode_vector(buf, pos, n)
    if pos != len(buf):
        raise SpillFormatError(f"{len(buf) - pos} trailing bytes after columns")
    return ColumnBatch(columns, n, masks)


# ---------------------------------------------------------------------------
# Data-version tokens on the wire.
# ---------------------------------------------------------------------------


def wire_token(token: object) -> object:
    """A token in its canonical comparable/JSON-safe form.

    Spill files and feedback snapshots carry the data-version token they
    were written under; after a JSON round trip tuples come back as lists,
    so both the stored and the live token are normalized through this
    function before comparison (tuples and lists collapse to tuples,
    scalars pass through, anything else compares by ``repr`` — which can
    never accidentally equal a *different* process's token for
    content-derived tokens, and intentionally never survives a restart for
    identity-derived ones).
    """
    if isinstance(token, (tuple, list)):
        return tuple(wire_token(item) for item in token)
    if token is None or isinstance(token, (bool, int, float, str)):
        return token
    return repr(token)


def _json_token(token: object) -> object:
    """The JSON-serializable form of a (normalized) token."""
    normalized = wire_token(token)
    if isinstance(normalized, tuple):
        return [_json_token(item) for item in normalized]
    return normalized


# ---------------------------------------------------------------------------
# Spill files: magic + JSON header + checksummed payload.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpillHeader:
    """Everything a spill file asserts about its payload."""

    key: Tuple[str, str]
    token: object
    cost: float
    row_count: int
    payload_bytes: int
    checksum: str
    #: Payload layout: :data:`SPILL_FORMAT` (rows, old files only) or
    #: :data:`SPILL_FORMAT_COLUMNAR` (per-column vectors).
    format: int = SPILL_FORMAT
    #: The byte size the cache accounted the entry at when it was filled
    #: (``None``: the writer did not record one).
    accounted_bytes: Optional[int] = None


def write_spill_file(
    target: BinaryIO,
    *,
    key: Tuple[str, str],
    rows,
    token: object,
    cost: float,
    accounted_bytes: Optional[int] = None,
) -> int:
    """Write one complete (format-2) spill file to ``target``; returns bytes written.

    ``rows`` is the entry's ``ColumnBatch``, or a sequence of dict rows
    that is transposed into one here.  ``accounted_bytes`` is the size the
    cache keeps the entry's books at; a reader adopts it on fault-in.  The
    caller owns atomicity (write to a temp file, then ``os.replace``): this
    function only defines the layout.
    """
    batch = rows if hasattr(rows, "to_rows") else _column_batch_cls().from_rows(rows)
    payload = encode_batch(batch)
    header = {
        "format": SPILL_FORMAT_COLUMNAR,
        "key": list(key),
        "token": _json_token(token),
        "cost": float(cost),
        "rows": batch.length,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    if accounted_bytes is not None:
        header["accounted_bytes"] = int(accounted_bytes)
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    target.write(MAGIC)
    target.write(header_line)
    target.write(payload)
    return len(MAGIC) + len(header_line) + len(payload)


def _parse_header(line: bytes) -> SpillHeader:
    try:
        raw = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpillFormatError(f"corrupt spill header: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") not in _KNOWN_FORMATS:
        raise SpillFormatError(f"unsupported spill format {raw.get('format')!r}")
    key = raw.get("key")
    if (
        not isinstance(key, list)
        or len(key) != 2
        or not all(isinstance(part, str) for part in key)
    ):
        raise SpillFormatError(f"malformed spill key {key!r}")
    accounted = raw.get("accounted_bytes")
    if accounted is not None and (type(accounted) is not int or accounted < 0):
        raise SpillFormatError(f"malformed accounted_bytes {accounted!r}")
    try:
        return SpillHeader(
            key=(key[0], key[1]),
            token=wire_token(raw.get("token")),
            cost=float(raw["cost"]),
            row_count=int(raw["rows"]),
            payload_bytes=int(raw["payload_bytes"]),
            checksum=str(raw["sha256"]),
            format=int(raw["format"]),
            accounted_bytes=accounted,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpillFormatError(f"malformed spill header: {exc}") from None


def read_spill_header(source: BinaryIO) -> SpillHeader:
    """Read and validate the magic and header of a spill file.

    Cheap (no payload read, no checksum): the cache tier uses it to index a
    spill directory at recovery without touching row data.
    """
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise SpillFormatError("not a spill file (bad magic)")
    line = source.readline(1 << 20)
    if not line.endswith(b"\n"):
        raise SpillFormatError("truncated spill header")
    return _parse_header(line[:-1])


def _read_verified_payload(source: BinaryIO) -> Tuple[SpillHeader, bytes]:
    """Read one file's header + payload, verifying length and checksum."""
    header = read_spill_header(source)
    payload = source.read(header.payload_bytes + 1)
    if len(payload) < header.payload_bytes:
        raise SpillFormatError(
            f"truncated payload: expected {header.payload_bytes} bytes, "
            f"got {len(payload)}"
        )
    if len(payload) > header.payload_bytes:
        raise SpillFormatError("trailing bytes after payload")
    if hashlib.sha256(payload).hexdigest() != header.checksum:
        raise SpillFormatError("payload checksum mismatch")
    return header, payload


def read_spill_batch(source: BinaryIO):
    """Read, verify and decode one spill file into a ``ColumnBatch``.

    Raises :class:`SpillFormatError` on any inconsistency: bad magic,
    truncated header or payload, checksum mismatch, undecodable payload, or
    a row count that disagrees with the header.  Format-2 payloads decode
    straight into their batch; a format-1 file (an older release's) is
    decoded as rows and transposed.  Returns ``(header, batch)``.
    """
    header, payload = _read_verified_payload(source)
    if header.format == SPILL_FORMAT_COLUMNAR:
        batch = decode_batch(payload)
    else:
        batch = _column_batch_cls().from_rows(decode_rows(payload))
    if batch.length != header.row_count:
        raise SpillFormatError(
            f"row count mismatch: header says {header.row_count}, "
            f"payload has {batch.length}"
        )
    return header, batch

