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
**format 3**.  Its checksummed payload is the columnar one of
:func:`encode_batch` — per-column vectors, bulk-packed when a column is all
int64 or all float (one ``array`` per column, big-endian) or all ``str``
with no NUL in any value (one NUL-joined UTF-8 blob, split on decode: the
one string layout), tagged value by value otherwise, with an
explicit presence bitmap for heterogeneous rows — and
:func:`read_spill_batch` decodes it straight into the
:class:`~repro.execution.columnar.batch.ColumnBatch` the cache keeps; rows
are converted at the edge.  A file of any other format (the row layout of
format 1, the index-less format 2) fails header validation like any corrupt
file, so recovery drops it and the entry is a clean miss.  A decoded row
set compares ``==`` to what was encoded and has the identical
:func:`~repro.service.matcache.estimate_batch_bytes` accounting — the
property tests assert both.

A spill **file** wraps one encoded payload with everything needed to trust
it after a crash: a magic line, a JSON header (format, cache key,
data-version token, recompute cost, row count, payload length, and the
byte size the cache accounted the entry at, so a fault adopts it instead of
re-walking every value) and a SHA-256 checksum of the payload.
:func:`read_spill_batch` verifies all of it; truncated, bit-flipped or
mis-keyed files raise :class:`SpillFormatError`, which the cache layer
turns into a clean miss (never a crash, never stale rows).

After the payload come zero or more **index sections**
(:func:`encode_index_sections`), each one non-unique key index of one
column as bucket offsets and positions — keys are not stored, a bucket's
key is the column's value at its first position.  The first spill writes
the sections of the indexes the entry has; re-evicting an entry whose file
exists appends the ones the file lacks.  Each section carries its own
SHA-256 and the payload checksum it indexes: a torn, flipped or spliced
section is skipped and its column's index rebuilt, never an error.

Besides the standard library the module imports only the data-version
token helpers it shares with the feedback store
(:func:`~repro.adaptive.stats.wire_token`) and nothing from
:mod:`repro.service` (the ``ColumnBatch`` container is pulled from
:mod:`repro.execution` lazily), so the cache tier can build on it without
import cycles.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, BinaryIO, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..adaptive.stats import json_token, wire_token

__all__ = [
    "SPILL_FORMAT_COLUMNAR",
    "SpillCodecError",
    "SpillError",
    "SpillFormatError",
    "SpillHeader",
    "decode_batch",
    "decode_value",
    "encode_batch",
    "encode_index_sections",
    "encode_value",
    "read_spill_batch",
    "read_spill_header",
    "wire_token",
    "write_spill_file",
]

Row = Dict[str, object]

#: The one format spill files are written and read in: the columnar payload
#: of :func:`encode_batch`, then zero or more index sections
#: (:func:`encode_index_sections`).
SPILL_FORMAT_COLUMNAR = 3

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


# ---------------------------------------------------------------------------
# Columnar payload: per-column type-tagged vectors.
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
#       b"z"  packed strings: blob_len and the UTF-8 encoding of the values
#             joined by "\0" — used when every value is a plain str and
#             none holds a "\0" (decoded once, split, and the pieces counted
#             against row_count);
#       b"g"  generic: row_count recursively tagged values (the value
#             codec of encode_value), which covers None, bool, big ints, strings,
#             bytes, containers — everything, exactly.
#
# Absent cells (presence bit clear) hold None in the value vector, matching
# the in-memory ColumnBatch invariant (so a masked column is never packed).

_COL_PACKED_INT = b"q"
_COL_PACKED_FLOAT = b"d"  # column-tag namespace, distinct from the value tags
_COL_PACKED_STR = b"z"
_COL_GENERIC = b"g"
_INT_KIND, _FLOAT_KIND, _STR_KIND = frozenset({int}), frozenset({float}), frozenset({str})

#: The packed vectors are big-endian (``struct``'s ``>q`` / ``>d`` bytes);
#: ``array`` packs natively, so a little-endian host swaps.
_SWAP = sys.byteorder == "little"


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


def _encode_vector(out: io.BytesIO, values: Sequence[object], kinds: FrozenSet[type]) -> None:
    """One column's values: a bulk-packed vector when they share a plain
    type the packing is exact for, else one tagged value each.  ``kinds``
    is the column's kind, ``set(map(type, values))``."""
    if kinds == {int} or kinds == {float}:
        try:
            packed: Optional[array] = array("q" if int in kinds else "d", values)
        except OverflowError:  # an int beyond int64: tagged one by one
            packed = None
        if packed is not None:
            if _SWAP:
                packed.byteswap()
            out.write(_COL_PACKED_INT if int in kinds else _COL_PACKED_FLOAT)
            out.write(packed.tobytes())
            return
    elif kinds == {str}:
        text = "\0".join(values)
        if text.count("\0") == len(values) - 1:  # no value holds a "\0"
            blob = text.encode("utf-8")
            out.write(_COL_PACKED_STR)
            _write_uvarint(out, len(blob))
            out.write(blob)
            return
    out.write(_COL_GENERIC)
    for value in values:
        _encode_value(out, value)


def _decode_vector(buf: memoryview, pos: int, n: int) -> Tuple[list, FrozenSet[type], int]:
    """One column's values, their kind and the position after them."""
    if pos >= len(buf):
        raise SpillFormatError("truncated column vector")
    tag = bytes(buf[pos : pos + 1])
    pos += 1
    if tag in (_COL_PACKED_INT, _COL_PACKED_FLOAT):
        # Bounds first: a forged row count must fail here, not allocate.
        end = pos + 8 * n
        if end > len(buf):
            raise SpillFormatError("truncated packed column")
        packed = array("q" if tag == _COL_PACKED_INT else "d")
        packed.frombytes(buf[pos:end])
        if _SWAP:
            packed.byteswap()
        kind = _INT_KIND if tag == _COL_PACKED_INT else _FLOAT_KIND
        return packed.tolist(), kind if n else frozenset(), end
    if tag == _COL_PACKED_STR:
        blob_bytes, pos = _read_uvarint(buf, pos)
        end = pos + blob_bytes
        if end > len(buf):
            raise SpillFormatError("truncated packed string blob")
        try:
            values = str(buf[pos:end], "utf-8").split("\0")
        except UnicodeDecodeError as exc:
            raise SpillFormatError(f"corrupt UTF-8 string blob: {exc}") from None
        if len(values) != n:
            raise SpillFormatError("packed strings disagree with the row count")
        return values, _STR_KIND, end
    if tag == _COL_GENERIC:
        values = []
        for _ in range(n):
            value, pos = _decode_value(buf, pos)
            values.append(value)
        return values, frozenset(map(type, values)), pos
    raise SpillFormatError(f"unknown column vector tag {tag!r}")


def encode_batch(batch) -> bytes:
    """Encode a :class:`~repro.execution.columnar.batch.ColumnBatch`: the
    checksummed payload of a (format-3) spill file.

    ``decode_batch(encode_batch(b))`` reproduces columns, masks and row
    count exactly, so ``.to_rows()`` of the decoded batch equals the rows
    that were spilled, bit for bit.  The batch's key indexes are not part
    of the payload; they follow it as index sections
    (:func:`encode_index_sections`).
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
        _encode_vector(out, values, batch.kind(name))
    return out.getvalue()


def decode_batch(payload: bytes):
    """Decode an :func:`encode_batch` payload back into a ``ColumnBatch`` (exact)."""
    # Imported here: the codec stays importable without the execution package.
    from ..execution.columnar.batch import ColumnBatch

    buf = memoryview(payload)
    pos = 0
    n, pos = _read_uvarint(buf, pos)
    column_count, pos = _read_uvarint(buf, pos)
    columns: Dict[str, List[object]] = {}
    masks: Dict[str, Optional[List[bool]]] = {}
    kinds: Dict[str, FrozenSet[type]] = {}
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
        columns[name], kinds[name], pos = _decode_vector(buf, pos, n)
    if pos != len(buf):
        raise SpillFormatError(f"{len(buf) - pos} trailing bytes after columns")
    return ColumnBatch(columns, n, masks, kinds=kinds)


# ---------------------------------------------------------------------------
# Index sections: a column's non-unique key index, after the payload.
# ---------------------------------------------------------------------------
#
#   section := body_len (uvarint)  SHA-256 of body (32 bytes)  body
#   body    := SHA-256 of the file's payload (32 bytes)
#              name_len  name_utf8  bucket_count
#              layout: one byte, array("l") item size | 0x80 on big-endian
#              offsets: bucket_count + 1 native array("l") items, 0 first
#              positions: offsets[-1] native array("l") items, bucket by bucket
#
# Keys are not stored: a bucket's key is the column's value at its first
# position (KeyIndex.adopt).  A section names the payload it indexes, so one
# spliced in from another file is skipped like a flipped or torn one.

_POSITIONS_LAYOUT = array("l").itemsize | (0x80 if sys.byteorder == "big" else 0)
_DIGEST_BYTES = 32

#: One restored section: ``(column name, bucket offsets, positions)``.
IndexSection = Tuple[str, array, array]


def encode_index_sections(
    checksum: str, indexes: Dict[str, Dict[object, array]]
) -> bytes:
    """One section per ``{name: {key: positions}}`` table (see
    :meth:`~repro.execution.columnar.batch.KeyIndex.storable`), bound to the
    payload whose SHA-256 (hex) is ``checksum``."""
    out = io.BytesIO()
    payload_digest = bytes.fromhex(checksum)
    for name, table in indexes.items():
        positions = array("l")
        for bucket in table.values():
            positions.extend(bucket)
        offsets = array("l", accumulate(map(len, table.values()), initial=0))
        encoded_name = name.encode("utf-8")
        body = io.BytesIO()
        body.write(payload_digest)
        _write_uvarint(body, len(encoded_name))
        body.write(encoded_name)
        _write_uvarint(body, len(table))
        body.write(bytes((_POSITIONS_LAYOUT,)))
        body.write(offsets.tobytes())
        body.write(positions.tobytes())
        data = body.getvalue()
        _write_uvarint(out, len(data))
        out.write(hashlib.sha256(data).digest())
        out.write(data)
    return out.getvalue()


def _decode_index_body(body: memoryview) -> IndexSection:
    length, pos = _read_uvarint(body, _DIGEST_BYTES)
    name = str(body[pos : pos + length], "utf-8")
    count, pos = _read_uvarint(body, pos + length)
    if pos >= len(body) or body[pos] != _POSITIONS_LAYOUT:
        raise SpillFormatError("index section in another layout")
    width = array("l").itemsize
    split = pos + 1 + (count + 1) * width
    if split > len(body) or (len(body) - split) % width:
        raise SpillFormatError("malformed index section")
    offsets, positions = array("l"), array("l")
    offsets.frombytes(body[pos + 1 : split])
    positions.frombytes(body[split:])
    return name, offsets, positions


def _decode_index_sections(data: bytes, checksum: str) -> List[IndexSection]:
    """The intact sections in ``data`` that index the payload whose SHA-256
    (hex) is ``checksum``.  A flipped, spliced or malformed section is
    skipped; a torn one (an append cut short) ends the list."""
    buf = memoryview(data)
    payload_digest = bytes.fromhex(checksum)
    sections: List[IndexSection] = []
    pos = 0
    while pos < len(buf):
        try:
            length, digest_at = _read_uvarint(buf, pos)
        except SpillFormatError:
            break
        body_at = digest_at + _DIGEST_BYTES
        pos = body_at + length
        if pos > len(buf):
            break
        body = buf[body_at:pos]
        if (
            hashlib.sha256(body).digest() != buf[digest_at:body_at]
            or body[:_DIGEST_BYTES] != payload_digest
        ):
            continue
        try:
            sections.append(_decode_index_body(body))
        except (SpillFormatError, ValueError):  # UnicodeDecodeError included
            continue
    return sections


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
    #: Payload layout; always :data:`SPILL_FORMAT_COLUMNAR`.
    format: int = SPILL_FORMAT_COLUMNAR
    #: The byte size the cache accounted the entry at when it was filled
    #: (``None``: the writer did not record one).
    accounted_bytes: Optional[int] = None


def write_spill_file(
    target: BinaryIO,
    *,
    key: Tuple[str, str],
    batch,
    token: object,
    cost: float,
    accounted_bytes: Optional[int] = None,
    indexes: Optional[Dict[str, Dict[object, array]]] = None,
) -> Tuple[int, str]:
    """Write one complete (format-3) spill file to ``target``.

    ``batch`` is the entry's ``ColumnBatch``.  ``accounted_bytes`` is the
    size the cache keeps the entry's books at; a reader adopts it on
    fault-in.
    ``indexes`` (``{name: {key: positions}}``) become index sections after
    the payload.  Returns the bytes written and the payload's SHA-256 (hex),
    which sections appended later must name.  The caller owns atomicity
    (write to a temp file, then ``os.replace``): this function only defines
    the layout.
    """
    payload = encode_batch(batch)
    checksum = hashlib.sha256(payload).hexdigest()
    header = {
        "format": SPILL_FORMAT_COLUMNAR,
        "key": list(key),
        "token": json_token(token),
        "cost": float(cost),
        "rows": batch.length,
        "payload_bytes": len(payload),
        "sha256": checksum,
    }
    if accounted_bytes is not None:
        header["accounted_bytes"] = int(accounted_bytes)
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    sections = encode_index_sections(checksum, indexes) if indexes else b""
    target.write(MAGIC)
    target.write(header_line)
    target.write(payload)
    target.write(sections)
    return len(MAGIC) + len(header_line) + len(payload) + len(sections), checksum


def _parse_header(line: bytes) -> SpillHeader:
    try:
        raw = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpillFormatError(f"corrupt spill header: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != SPILL_FORMAT_COLUMNAR:
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


def read_spill_batch(source: BinaryIO) -> Tuple[SpillHeader, Any, List[IndexSection]]:
    """Read, verify and decode one spill file into a ``ColumnBatch``.

    Raises :class:`SpillFormatError` on any inconsistency of header or
    payload: bad magic, truncated header or payload, checksum mismatch,
    undecodable payload, or a row count that disagrees with the header.
    Returns ``(header, batch, sections)``: ``sections`` are the intact index
    sections after the payload, ``(name, offsets, positions)`` each, for
    :meth:`~repro.execution.columnar.batch.KeyIndex.adopt` — a damaged one
    is left out, never an error.
    """
    header = read_spill_header(source)
    payload = source.read(header.payload_bytes)
    if len(payload) < header.payload_bytes:
        raise SpillFormatError(
            f"truncated payload: expected {header.payload_bytes} bytes, "
            f"got {len(payload)}"
        )
    if hashlib.sha256(payload).hexdigest() != header.checksum:
        raise SpillFormatError("payload checksum mismatch")
    batch = decode_batch(payload)
    if batch.length != header.row_count:
        raise SpillFormatError(
            f"row count mismatch: header says {header.row_count}, "
            f"payload has {batch.length}"
        )
    return header, batch, _decode_index_sections(source.read(), header.checksum)
