"""Property/fuzz tests for the spill codec.

The invariants (mirroring the PR 4 UTF-8 matcache tests one level down):

* **exact round trip** — ``decode(encode(rows)) == rows`` for arbitrary row
  payloads: non-ASCII strings, arbitrary-precision ints, floats (signed
  zero, inf, huge magnitudes), None, bools, bytes, and nested
  tuples/lists, with types preserved (a tuple never comes back a list),
* **byte-accounting identity** — the decoded rows produce the identical
  :func:`~repro.service.matcache.estimate_rows_bytes` number, so the hot
  tier accounts a faulted entry exactly like the original fill, and
* **corruption is always detected** — truncation at *every* byte boundary
  and any single-byte flip in the payload raise
  :class:`~repro.storage.codec.SpillFormatError`, never return wrong rows.
"""

import io
import math
import random

import pytest

from repro.service.matcache import estimate_rows_bytes
from repro.storage.codec import (
    SpillCodecError,
    SpillFormatError,
    decode_rows,
    decode_value,
    encode_rows,
    encode_value,
    read_spill_batch,
    read_spill_header,
    write_spill_file,
)


def read_spill_rows(source):
    """The file's rows: the one reader decodes to a batch, rows at the edge."""
    header, batch = read_spill_batch(source)
    return header, batch.to_rows()


KEY = ("fingerprint-π", "any")


def random_scalar(rng: random.Random):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.25:
        return rng.choice([True, False])
    if roll < 0.45:
        # Arbitrary precision, both signs, including giants.
        return rng.choice(
            [0, -1, 1, rng.randrange(-(10**6), 10**6), rng.randrange(10**30), -(2**77)]
        )
    if roll < 0.6:
        return rng.choice(
            [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, math.inf, -math.inf]
        )
    if roll < 0.9:
        alphabet = "aZ9 _π€日本語ß√n\n\t\"'\\"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
    return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 8)))


def random_value(rng: random.Random, depth: int = 0):
    if depth < 3 and rng.random() < 0.25:
        count = rng.randrange(0, 4)
        items = [random_value(rng, depth + 1) for _ in range(count)]
        return tuple(items) if rng.random() < 0.5 else items
    return random_scalar(rng)


def random_rows(rng: random.Random):
    keys = ["t.k", "π-col", "payload", "日本語"]
    return [
        {key: random_value(rng) for key in rng.sample(keys, rng.randrange(1, len(keys) + 1))}
        for _ in range(rng.randrange(0, 6))
    ]


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**100,
            -(2**100),
            0.0,
            -0.0,
            1.5,
            math.inf,
            "",
            "héllo-π-日本語",
            b"",
            b"\x00\xff\x80",
            (),
            (1, (2, (3, "x"))),
            [],
            [1, [2.5, None]],
            {"k": (1, [2, b"3"])},
            ("mixed", [1, (2.0, None)], {"π": b"bytes"}),
        ],
    )
    def test_exact_round_trip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuple_and_list_stay_distinct(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)
        nested = decode_value(encode_value({"v": [(1, [2]), (3, [4])]}))
        assert isinstance(nested["v"], list)
        assert all(isinstance(item, tuple) for item in nested["v"])
        assert all(isinstance(item[1], list) for item in nested["v"])

    def test_signed_zero_and_int_float_identity_survive(self):
        decoded = decode_value(encode_value([-0.0, 0, 0.0, 1, 1.0]))
        assert math.copysign(1.0, decoded[0]) == -1.0
        assert type(decoded[1]) is int and type(decoded[2]) is float
        assert type(decoded[3]) is int and type(decoded[4]) is float

    def test_nan_round_trips(self):
        decoded = decode_value(encode_value(float("nan")))
        assert isinstance(decoded, float) and math.isnan(decoded)

    def test_bool_is_not_int(self):
        decoded = decode_value(encode_value([True, 1, False, 0]))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_unencodable_values_raise_codec_error(self):
        with pytest.raises(SpillCodecError):
            encode_value({"k": object()})
        with pytest.raises(SpillCodecError):
            encode_value({1: "non-string key"})  # type: ignore[dict-item]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SpillFormatError):
            decode_value(encode_value(1) + b"x")


class TestRowsRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_fuzz_rows_round_trip_byte_accounting_identically(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng)
        decoded = decode_rows(encode_rows(rows))
        assert decoded == rows
        assert estimate_rows_bytes(decoded) == estimate_rows_bytes(rows)

    def test_rows_must_be_dicts(self):
        with pytest.raises(SpillFormatError):
            decode_rows(encode_value([1, 2, 3]))
        with pytest.raises(SpillFormatError):
            decode_rows(encode_value({"not": "a list"}))


def spill_bytes(rows, *, token="tok", cost=12.5):
    buffer = io.BytesIO()
    write_spill_file(buffer, key=KEY, rows=rows, token=token, cost=cost)
    return buffer.getvalue()


class TestSpillFiles:
    def test_full_file_round_trip(self):
        rows = [{"t.k": 1, "π": "pâyløad", "v": (1.5, None)}]
        header, decoded = read_spill_rows(io.BytesIO(spill_bytes(rows)))
        assert decoded == rows
        assert header.key == KEY
        assert header.token == "tok"
        assert header.cost == 12.5
        assert header.row_count == 1

    def test_header_alone_is_cheap_and_complete(self):
        data = spill_bytes([{"a": 1}] * 3)
        header = read_spill_header(io.BytesIO(data))
        assert header.row_count == 3
        assert header.payload_bytes > 0

    def test_tuple_tokens_survive_the_json_header(self):
        data = spill_bytes([{"a": 1}], token=("db", 0))
        header = read_spill_header(io.BytesIO(data))
        # JSON turns tuples into lists; the reader normalizes back.
        assert header.token == ("db", 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_truncation_at_every_boundary_is_detected(self, seed):
        rng = random.Random(seed)
        data = spill_bytes(random_rows(rng) or [{"k": 1}])
        for cut in range(len(data)):
            with pytest.raises(SpillFormatError):
                read_spill_rows(io.BytesIO(data[:cut]))

    @pytest.mark.parametrize("seed", range(4))
    def test_any_single_byte_flip_is_detected(self, seed):
        """Flip one byte anywhere — magic, header or payload — and the read
        must fail (header flips break the JSON/fields, payload flips break
        the checksum); it must never silently return different rows."""
        rng = random.Random(100 + seed)
        rows = random_rows(rng) or [{"k": 1}]
        data = spill_bytes(rows)
        for _ in range(40):
            position = rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 1 + rng.randrange(255)
            try:
                header, decoded = read_spill_rows(io.BytesIO(bytes(corrupted)))
            except SpillFormatError:
                continue
            # A flip that survived verification must not have changed
            # anything that matters (e.g. a JSON-insignificant byte can't
            # exist here; be explicit rather than assume).
            assert decoded == rows and header.key == KEY

    def test_trailing_bytes_after_payload_rejected(self):
        data = spill_bytes([{"k": 1}])
        with pytest.raises(SpillFormatError):
            read_spill_rows(io.BytesIO(data + b"junk"))

    def test_not_a_spill_file(self):
        with pytest.raises(SpillFormatError):
            read_spill_header(io.BytesIO(b"definitely not a spill file"))
        with pytest.raises(SpillFormatError):
            read_spill_header(io.BytesIO(b""))
