"""Property/fuzz tests for the columnar (format 3) spill layout.

Same contract as the value codec one file over, plus the columnar-specific
invariants:

* **exact round trip** — ``decode_batch(encode_batch(batch))`` reproduces
  the batch's columns, masks and rows bit-for-bit: non-ASCII column names
  and strings (the packed-string blob is split on NUL, so a string holding
  one must take the generic vector), arbitrary-precision ints (the
  packed-int64 path must reject them), bools (never silently packed as
  ints), ``-0.0`` / ``nan``, None-heavy columns, and masked (absent-key)
  cells,
* **corruption is always detected** — truncating the payload at every
  byte boundary, flipping any single payload byte and forging the row
  count in front of a packed vector raise
  :class:`~repro.storage.codec.SpillFormatError`, never ``struct.error``,
  ``MemoryError`` or wrong rows,
* **old files are a clean miss** — a format-1 file (built here the way an
  old release wrote it) fails header validation, and
* **index sections restore exactly** — the key index a section brings
  back is the one ``build_index`` makes over the decoded column.
"""

import hashlib
import io
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.columnar import ColumnBatch
from repro.execution.columnar.batch import build_index
from repro.service.matcache import estimate_batch_bytes, estimate_rows_bytes
from repro.storage.codec import (
    MAGIC,
    SPILL_FORMAT_COLUMNAR,
    SpillFormatError,
    decode_batch,
    encode_batch,
    encode_value,
    read_spill_batch,
    read_spill_header,
    write_spill_file,
)


def read_spill_rows(source):
    """The file's rows: the one reader decodes to a batch, rows at the edge."""
    header, batch, _sections = read_spill_batch(source)
    return header, batch.to_rows()


KEY = ("fp-столбцы", "any")


def random_rows(rng: random.Random, n_rows=None):
    """Heterogeneous rows: absent keys, None, big ints, non-ASCII."""
    keys = ["t.k", "π-col", "payload", "日本語", "v"]
    values = [
        None,
        True,
        False,
        0,
        -1,
        2**77,
        -(2**63),
        2**63 - 1,
        0.0,
        -0.0,
        1e300,
        "plain",
        "日本語π€",
        b"\x00\xffbytes",
        (1, "two"),
        ["nested", None],
    ]
    count = rng.randrange(0, 6) if n_rows is None else n_rows
    return [
        {
            key: rng.choice(values)
            for key in rng.sample(keys, rng.randrange(1, len(keys) + 1))
        }
        for _ in range(count)
    ]


def fuzz_rows(seed, n_rows=None):
    """``random_rows`` for an int seed (mostly generic vectors); for
    ``"packed"`` rows whose columns all take a bulk-packed vector."""
    if seed == "packed":
        return [{"t.i": i - 2, "t.f": i / 3, "t.s": "日本π"[: i % 4] + "x" * i} for i in range(5)]
    return random_rows(random.Random(seed), n_rows) or [{"k": 1}]


def columnar_spill_bytes(rows, *, token="tok", cost=3.5):
    buffer = io.BytesIO()
    write_spill_file(buffer, key=KEY, batch=ColumnBatch.from_rows(rows), token=token, cost=cost)
    return buffer.getvalue()


def spill_file_bytes(payload: bytes, *, spill_format, row_count, key=KEY, token="tok", cost=1.0):
    """A spill file around an arbitrary payload, checksum and all — how a
    previous release's (format 1) or a forged file is built."""
    header = {
        "format": spill_format,
        "key": list(key),
        "token": token,
        "cost": cost,
        "rows": row_count,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return MAGIC + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def same_rows(left, right) -> bool:
    """Row equality that also tells ``-0.0`` from ``0.0``, ``True`` from
    ``1`` and treats ``nan`` as equal to itself (``==`` does none of it)."""

    def canon(value):
        if isinstance(value, float):
            return ("f", math.copysign(1.0, value), "nan" if value != value else value)
        if isinstance(value, (tuple, list)):
            return (type(value).__name__, [canon(item) for item in value])
        return (type(value).__name__, value)

    return [{k: canon(v) for k, v in row.items()} for row in left] == [
        {k: canon(v) for k, v in row.items()} for row in right
    ]


#: Heterogeneous cells: None, bool vs int, ints beyond int64, signed zero
#: and nan, non-ASCII / empty strings, bytes, nested tuples.
CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan")]),
    st.text(max_size=6),
    st.sampled_from(["", "π", "日本語", "\U0001f600x"]),
    st.binary(max_size=4),
    st.tuples(st.integers(-3, 3), st.one_of(st.none(), st.text(max_size=2))),
)
KEYS = st.sampled_from(["t.k", "π-col", "s", "日本語", "v"])
#: Rows whose columns tend to be type-homogeneous (so the packed int /
#: float / string vectors and the sizing fast paths are what runs) ...
HOMOGENEOUS_ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "t.i": st.integers(min_value=-(2**63), max_value=2**63 - 1),
            "t.f": st.floats(allow_nan=True),
            "t.s": st.text(max_size=8),
            "t.b": st.booleans(),
            "t.n": st.none(),
        }
    ),
    max_size=12,
)
#: ... and rows where anything goes, missing keys (→ masks) included.
HETEROGENEOUS_ROWS = st.lists(st.dictionaries(KEYS, CELLS, max_size=5), max_size=8)
ROWS = st.one_of(HOMOGENEOUS_ROWS, HETEROGENEOUS_ROWS)


def payload_offset(data: bytes) -> int:
    """First byte after the magic and JSON header lines (the checksummed
    region)."""
    return data.index(b"\n", data.index(b"\n") + 1) + 1


class TestBatchRoundTrip:
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [{}, {}],
            [{"t.a": 1, "t.b": 2.5}, {"t.a": 2, "t.b": -0.0}],
            [{"π": "日本語"}, {"π": None}, {}],  # None vs absent
            [{"n": 2**100}, {"n": -(2**64)}, {"n": 7}],  # giants defeat packing
            [{"b": True}, {"b": False}, {"b": 1}],  # bools must stay bools
            [{"v": (1, [None, "x"])}, {"v": b"\x00"}],
        ],
    )
    def test_exact_round_trip(self, rows):
        decoded = decode_batch(encode_batch(ColumnBatch.from_rows(rows)))
        assert decoded.to_rows() == rows

    def test_packed_paths_preserve_types(self):
        # Homogeneous int64 / float64 columns take the packed paths; the
        # round trip must not launder ints into floats or bools into ints.
        rows = [{"i": i, "f": float(i)} for i in range(50)]
        decoded = decode_batch(encode_batch(ColumnBatch.from_rows(rows)))
        out = decoded.to_rows()
        assert out == rows
        assert all(type(r["i"]) is int and type(r["f"]) is float for r in out)

    def test_none_heavy_column(self):
        rows = [{"t.v": None} for _ in range(100)] + [{"t.v": 1}]
        decoded = decode_batch(encode_batch(ColumnBatch.from_rows(rows)))
        assert decoded.to_rows() == rows

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_round_trip(self, seed):
        rows = random_rows(random.Random(seed))
        decoded = decode_batch(encode_batch(ColumnBatch.from_rows(rows)))
        assert decoded.to_rows() == rows

    @settings(max_examples=200, deadline=None)
    @given(ROWS)
    def test_property_round_trip_is_exact(self, rows):
        batch = ColumnBatch.from_rows(rows)
        # The row executor's edge, with no codec in between: what it
        # materializes is transposed in and read back out as fresh dicts.
        assert same_rows(batch.to_rows(), rows)
        decoded = decode_batch(encode_batch(batch))
        assert decoded.length == batch.length
        assert list(decoded.columns) == list(batch.columns)
        assert {k: v for k, v in decoded.masks.items() if v is not None} == {
            k: v for k, v in batch.masks.items() if v is not None and not all(v)
        }
        assert same_rows(decoded.to_rows(), rows)
        for name, values in batch.columns.items():
            assert list(map(type, decoded.columns[name])) == list(map(type, values))

    @settings(max_examples=200, deadline=None)
    @given(ROWS)
    def test_property_batch_sizing_equals_row_sizing(self, rows):
        batch = ColumnBatch.from_rows(rows)
        assert estimate_batch_bytes(batch) == estimate_rows_bytes(rows)
        assert estimate_batch_bytes(decode_batch(encode_batch(batch))) == (
            estimate_rows_bytes(rows)
        )

    def test_packed_vectors_are_what_homogeneous_columns_use(self):
        """One array / one NUL-joined blob per column: the tag bytes prove
        the bulk paths ran (and that bools, giants, strings holding a NUL
        and mixed columns did not)."""
        rows = [
            {
                "i": i, "f": i / 2, "s": "π" * i, "b": i % 2 == 0, "big": 2**64 + i,
                "m": i, "nul": f"a{i}",
            }
            for i in range(5)
        ]
        rows[2]["m"] = "two"
        rows[3]["nul"] = "a\0b"
        payload = encode_batch(ColumnBatch.from_rows(rows))
        tags = {}
        for name in rows[0]:
            marker = name.encode("utf-8") + b"\x00"
            tags[name] = payload[payload.index(marker) + len(marker) :][:1]
        assert tags == {
            "i": b"q", "f": b"d", "s": b"z", "b": b"g", "big": b"g", "m": b"g", "nul": b"g"
        }
        # The packed numbers are struct's big-endian bytes.
        at = payload.index(b"i\x00q") + 3
        assert payload[at : at + 40] == struct.pack(">5q", *range(5))
        at = payload.index(b"f\x00d") + 3
        assert payload[at : at + 40] == struct.pack(">5d", *(i / 2 for i in range(5)))

    def test_strings_holding_a_nul_round_trip(self):
        rows = [{"s": "a\0b"}, {"s": "\0"}, {"s": ""}, {"s": "日本\0"}]
        decoded = decode_batch(encode_batch(ColumnBatch.from_rows(rows)))
        assert decoded.to_rows() == rows

    def test_trailing_garbage_rejected(self):
        payload = encode_batch(ColumnBatch.from_rows([{"a": 1}]))
        with pytest.raises(SpillFormatError):
            decode_batch(payload + b"\x00")

    def test_empty_payload_rejected(self):
        with pytest.raises(SpillFormatError):
            decode_batch(b"")


class TestColumnarSpillFiles:
    def test_full_file_round_trip(self):
        rows = [{"t.k": 1, "π": "pâyløad", "v": (1.5, None)}, {"t.k": 2}]
        data = columnar_spill_bytes(rows)
        header, decoded = read_spill_rows(io.BytesIO(data))
        assert decoded == rows
        assert header.format == SPILL_FORMAT_COLUMNAR
        assert header.key == KEY
        assert header.row_count == 2

    def test_read_spill_batch_from_columnar_file(self):
        rows = [{"t.a": i, "t.s": f"ρ{i}"} for i in range(5)]
        header, batch, _sections = read_spill_batch(io.BytesIO(columnar_spill_bytes(rows)))
        assert isinstance(batch, ColumnBatch)
        assert batch.to_rows() == rows
        assert header.format == SPILL_FORMAT_COLUMNAR

    def test_v1_files_are_an_unsupported_format(self):
        """Old row-layout files fail header validation like any corrupt file."""
        rows = [{"t.a": 1, "t.b": None}, {"t.a": 2}]
        data = spill_file_bytes(encode_value(rows), spill_format=1, row_count=len(rows))
        with pytest.raises(SpillFormatError, match="unsupported spill format 1"):
            read_spill_header(io.BytesIO(data))
        with pytest.raises(SpillFormatError, match="unsupported spill format 1"):
            read_spill_batch(io.BytesIO(data))

    def test_every_file_is_written_columnar_from_rows_or_a_batch(self):
        rows = [{"t.a": i, "t.s": f"ρ{i}"} for i in range(3)]
        from_rows = columnar_spill_bytes(rows)
        buffer = io.BytesIO()
        write_spill_file(
            buffer, key=KEY, batch=ColumnBatch.from_rows(rows), token="tok", cost=3.5
        )
        assert buffer.getvalue() == from_rows
        assert read_spill_header(io.BytesIO(from_rows)).format == SPILL_FORMAT_COLUMNAR

    def test_accounted_bytes_round_trips_through_the_header(self):
        buffer = io.BytesIO()
        write_spill_file(
            buffer,
            key=KEY,
            batch=ColumnBatch.from_rows([{"a": 1}]),
            token="t",
            cost=0.0,
            accounted_bytes=73,
        )
        assert read_spill_header(io.BytesIO(buffer.getvalue())).accounted_bytes == 73
        assert read_spill_header(io.BytesIO(columnar_spill_bytes([]))).accounted_bytes is None

    @pytest.mark.parametrize("forged", [-1, 1.5, "73", True, [73]])
    def test_malformed_accounted_bytes_is_a_format_error(self, forged):
        data = columnar_spill_bytes([{"a": 1}])
        start = payload_offset(data)
        header = json.loads(data[len(MAGIC) : start])
        header["accounted_bytes"] = forged
        forged_file = MAGIC + json.dumps(header).encode("utf-8") + b"\n" + data[start:]
        with pytest.raises(SpillFormatError):
            read_spill_header(io.BytesIO(forged_file))

    @pytest.mark.parametrize("column", ["i", "f", "s"])
    @pytest.mark.parametrize("forged_rows", [4, 2**31, 2**62])
    def test_forged_row_count_before_a_packed_vector_is_a_format_error(
        self, column, forged_rows
    ):
        """A row count that promises more than the payload holds must fail
        the explicit bounds checks — not reach ``struct`` (``struct.error``)
        or an allocation sized by it (``MemoryError``).  The file is
        re-checksummed, so only the decoder stands in the way."""
        cell = {"i": 7, "f": 0.5, "s": "日本"}[column]
        payload = encode_batch(ColumnBatch.from_rows([{column: cell}] * 3))
        assert payload[0] == 3  # the row-count uvarint
        forged = bytearray()
        remaining = forged_rows
        while True:  # uvarint
            forged.append((remaining & 0x7F) | (0x80 if remaining >> 7 else 0))
            remaining >>= 7
            if not remaining:
                break
        data = spill_file_bytes(
            bytes(forged) + payload[1:],
            spill_format=SPILL_FORMAT_COLUMNAR,
            row_count=forged_rows,
        )
        with pytest.raises(SpillFormatError):
            read_spill_batch(io.BytesIO(data))

    def test_packed_string_lengths_must_agree_with_the_blob(self):
        """The blob's NUL-separated pieces are counted against the row
        count: one separator too many is a format error, not a third row."""
        payload = bytearray(encode_batch(ColumnBatch.from_rows([{"s": "ab"}, {"s": "c"}])))
        blob_at = payload.index(b"z") + 2
        assert bytes(payload[blob_at - 1 : blob_at + 4]) == b"\x04ab\0c"
        payload[blob_at + 1] = 0  # "a", "", "c": three pieces for two rows
        data = spill_file_bytes(
            bytes(payload), spill_format=SPILL_FORMAT_COLUMNAR, row_count=2
        )
        with pytest.raises(SpillFormatError):
            read_spill_batch(io.BytesIO(data))

    @pytest.mark.parametrize("seed", [*range(4), "packed"])
    def test_truncation_at_every_boundary_is_detected(self, seed):
        data = columnar_spill_bytes(fuzz_rows(seed))
        for cut in range(len(data)):
            with pytest.raises(SpillFormatError):
                read_spill_batch(io.BytesIO(data[:cut]))

    @pytest.mark.parametrize("seed", [*range(4), "packed"])
    def test_every_payload_byte_flip_is_detected(self, seed):
        """The payload is checksummed: a flip of any single payload byte
        must raise, never decode to different rows.  (Header bytes live
        outside the checksum — their integrity is enforced one layer up by
        the cache's key/token checks.)"""
        rng = random.Random(100 if seed == "packed" else 100 + seed)
        data = columnar_spill_bytes(fuzz_rows(seed, n_rows=3))
        start = payload_offset(data)
        for position in range(start, len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 1 + rng.randrange(255)
            with pytest.raises(SpillFormatError):
                read_spill_rows(io.BytesIO(bytes(corrupted)))


NAN = float("nan")
#: Join keys as dict equality sees them: NULLs, ``1 == 1.0 == True``,
#: ``-0.0 == 0.0``, one NaN object repeated and fresh NaN objects.
INDEX_CELLS = st.one_of(
    st.sampled_from([None, 0, 0.0, -0.0, 1, 1.0, True, False, 2, "a", "b", NAN]),
    st.builds(float, st.just("nan")),
    st.integers(-3, 3),
    st.text(max_size=2),
)


class TestIndexSections:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(INDEX_CELLS, max_size=30), st.data())
    def test_restored_index_is_the_one_a_build_makes(self, cells, data):
        """A column's non-unique index, written as a section and adopted by
        the decoded batch's holder, equals ``build_index`` over the decoded
        column — same buckets, same key order, and every key the very object
        at its first occurrence.  Only a NaN object at two positions keeps a
        column out of the file: decoded, those cells are two keys."""
        n = len(cells)
        mask = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
        values = cells if mask is None else [c if p else None for c, p in zip(cells, mask)]
        batch = ColumnBatch({"c": values}, n, {"c": mask} if mask else None).indexed()
        (unique, _), _ = batch.key_index.lookup(values, buy=True)
        stored = batch.key_index.storable()
        shared_nan = any(v != v and sum(w is v for w in values) > 1 for v in values)
        assert ("c" in stored) == (not unique and not shared_nan)

        buffer = io.BytesIO()
        write_spill_file(buffer, key=KEY, batch=batch, token="t", cost=0.0, indexes=stored)
        _, decoded, sections = read_spill_batch(io.BytesIO(buffer.getvalue()))
        holder = decoded.indexed().key_index
        assert [holder.adopt(*section) for section in sections] == [True] * len(stored)
        if stored:
            column = decoded.columns["c"]
            restored, expected = holder._built["c"], build_index(column)
            assert restored == expected
            assert all(a is b for a, b in zip(restored[1], expected[1]))
            assert all(key is column[at[0]] for key, at in restored[1].items())

    def test_unique_indexes_are_not_stored(self):
        batch = ColumnBatch({"u": [3, 1, 2], "d": [1, 1, 2]}, 3).indexed()
        for values in batch.columns.values():
            batch.key_index.lookup(values, buy=True)
        assert set(batch.key_index.storable()) == {"d"}
