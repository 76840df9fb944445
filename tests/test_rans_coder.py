"""Round-trip, efficiency, and wire-level behavior of the range coder.

The efficiency bound compares payload bits (ANS section plus bypass;
the u32 symbol-count framing is container overhead) against the
table-implied cross-entropy summed over the actual symbols.
"""

import hashlib
import resource
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swpc.rans_coder as rc
from swpc.cdf_tables import (
    CdfTableSet,
    QuantizedCdfTable,
    allocate_frequencies,
    build_lut_gm,
    build_lut_ggm,
    lut_search_gm,
    lut_search_ggm,
    quantize_pmf,
)
from swpc.prob_models import ProbModel
from swpc.synth_source import SourceSpec, gen_block
from swpc.rans_coder import (
    Bitstream,
    StreamError,
    decode,
    decode_elementwise,
    encode,
    implied_bits,
)

# Frozen from the first verified implementation run; guards payload drift.
FROZEN_SMALL_HEX = "03000000040000003d622c00"
# sha256 of the escape-heavy single-state stream in test_single_state_bytes_unchanged,
# re-recorded when the bypass section moved to two runs: its ANS section and
# length are those frozen before interleaved lanes were added.
FROZEN_ESCAPE_SHA256 = "ff460da01fd8d3cf189a4d0d18327d02964713f098f4b50cd1f0e14f9c9b8697"


def _set_of(models_radii):
    return CdfTableSet(
        [quantize_pmf(m, r) for m, r in models_radii], {"family": "learned"}
    )


def _random_set(rng, n_tables):
    tables = []
    for _ in range(n_tables):
        n_int = int(rng.integers(2, 30))
        freqs = allocate_frequencies(rng.gamma(0.5, 1.0, n_int))
        cum = np.concatenate([[0], np.cumsum(freqs)])
        tables.append(QuantizedCdfTable(int(rng.integers(-40, 40)), cum))
    return CdfTableSet(tables)


# ---------------------------------------------------------------------------
# Bypass codes


def _exp_golomb(value: int) -> str:
    """Exp-Golomb order-0 code of a nonnegative integer, the reference the
    bypass section is checked against: k zeros, then the k + 1 bits of n = value + 1."""
    body = bin(value + 1)[2:]
    return "0" * (len(body) - 1) + body


# one table coding 0 and 1: symbol 2 + d escapes above with distance d,
# symbol -1 - d below with distance d
_TWO_SYMBOL_SET = CdfTableSet([QuantizedCdfTable(0, np.array([0, 30000, 60000, 1 << 16]))])


@pytest.mark.parametrize("dist, code", [(0, "1"), (1, "010"), (2, "011"), (3, "00100")])
def test_exp_golomb_patterns(dist, code):
    """A lone escape's section is its prefix (k zeros and the leading 1),
    its sign bit, then the k low bits of n = distance + 1, zero-padded."""
    assert _exp_golomb(dist) == code
    k = len(code) // 2
    stream = encode([2 + dist], [0], _TWO_SYMBOL_SET)
    assert stream.payload.endswith(_pad(code[: k + 1] + "0" + code[k + 1 :]))
    tail = -np.log2(_TWO_SYMBOL_SET.tables[0].freq(_TWO_SYMBOL_SET.tables[0].tail_slot) / 65536)
    assert implied_bits([2 + dist], [0], _TWO_SYMBOL_SET)[0] == pytest.approx(tail + 1 + len(code))


def test_exp_golomb_roundtrip():
    rng = np.random.default_rng(1)
    dists = [0, 1, 2, 3, 100, 2**24 - 1, *rng.integers(0, 2**24, 200).tolist()]
    below = rng.integers(0, 2, len(dists)).astype(bool)
    syms = np.where(below, -1 - np.array(dists), 2 + np.array(dists))
    idx = np.zeros(len(syms), np.int64)
    stream = encode(syms, idx, _TWO_SYMBOL_SET)
    records = list(zip(below.tolist(), dists))
    section = _reference_pack(records)
    assert stream.payload.endswith(section)
    assert _reference_read(section, len(records)) == records
    assert np.array_equal(decode(stream, idx, _TWO_SYMBOL_SET), syms)


def test_exp_golomb_rejects():
    with pytest.raises(StreamError, match="exhausted"):
        _read(_pad("0000001"), [1])  # k = 6: a field of 7 bits, 1 bit left
    with pytest.raises(StreamError, match="past its last record"):
        _read(_pad("11001"), [1])  # one record, then a 1 where padding belongs


# ---------------------------------------------------------------------------
# Streams


def test_empty_stream_is_fixed_footer():
    set_ = _set_of([(ProbModel.gaussian(1.0), 5)])
    stream = encode([], [], set_)
    assert stream.symbol_count == 0
    assert len(stream.payload) == 8
    assert len(stream.to_bytes()) == 12
    assert decode(stream, [], set_).tolist() == []


def test_frozen_payload_bytes():
    set_ = _set_of([(ProbModel.gaussian(1.0), 5)])
    stream = encode([0, 1, -1], [0, 0, 0], set_)
    assert stream.to_bytes().hex() == FROZEN_SMALL_HEX


def test_determinism():
    rng = np.random.default_rng(2)
    set_ = _random_set(rng, 4)
    syms = rng.integers(-50, 50, 300)
    idx = rng.integers(0, 4, 300)
    a = encode(syms, idx, set_)
    b = encode(syms, idx, set_)
    assert a.to_bytes() == b.to_bytes()


def test_bitstream_bytes_roundtrip():
    set_ = _set_of([(ProbModel.gaussian(1.0), 5)])
    stream = encode([3, -2], [0, 0], set_)
    back = Bitstream.from_bytes(stream.to_bytes())
    assert back == stream
    assert back.bit_length == 8 * len(stream.to_bytes())
    with pytest.raises(StreamError):
        Bitstream.from_bytes(b"ab")


def test_escape_far_outside_support():
    set_ = _set_of([(ProbModel.gaussian(2.0), 127)])
    syms = [300, -300, 128, -128, 127, -127, 0]
    idx = [0] * len(syms)
    assert decode(encode(syms, idx, set_), idx, set_).tolist() == syms


def test_indexes_consumed_in_encoder_order():
    set_ = _set_of([(ProbModel.gaussian(0.3), 2), (ProbModel.gaussian(40.0), 127)])
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 2, 400)
    syms = np.where(idx == 0, rng.integers(-2, 3, 400), rng.integers(-120, 121, 400))
    assert np.array_equal(decode(encode(syms, idx, set_), idx, set_), syms)


def test_thousand_randomized_roundtrips():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        set_ = _random_set(rng, int(rng.integers(1, 5)))
        n = int(rng.integers(0, 120))
        idx = rng.integers(0, len(set_), n)
        lo = np.array([set_[i].lo for i in idx], dtype=np.int64) if n else np.zeros(0, np.int64)
        hi = np.array([set_[i].hi for i in idx], dtype=np.int64) if n else np.zeros(0, np.int64)
        syms = rng.integers(lo - 30, hi + 31) if n else np.zeros(0, np.int64)
        assert np.array_equal(decode(encode(syms, idx, set_), idx, set_), syms)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-400, max_value=400), min_size=0, max_size=60),
    st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(symbols, seed):
    rng = np.random.default_rng(seed)
    set_ = _random_set(rng, 3)
    idx = rng.integers(0, 3, len(symbols))
    got = decode(encode(symbols, idx, set_), idx, set_)
    assert got.tolist() == symbols


def test_wrong_indexes_do_not_silently_match():
    set_ = _set_of([(ProbModel.gaussian(1.0), 20), (ProbModel.gaussian(30.0), 20)])
    rng = np.random.default_rng(5)
    syms = rng.integers(-15, 16, 500)
    idx = rng.integers(0, 2, 500)
    stream = encode(syms, idx, set_)
    with pytest.raises(StreamError):
        decode(stream, 1 - idx, set_)


def test_flipped_ans_bytes_are_rejected_unless_valid():
    # A decoder step is a bijection on the state range, so a flipped word can
    # turn the stream into the exact encoding of other symbols; the end checks
    # must reject every other corruption of the length field and ANS section.
    set_ = _set_of([(ProbModel.gaussian(1.0), 20), (ProbModel.gaussian(30.0), 20)])
    rng = np.random.default_rng(12)
    syms = rng.integers(-15, 16, 1000)
    idx = rng.integers(0, 2, 1000)
    payload = encode(syms, idx, set_).payload
    ans_end = 4 + int.from_bytes(payload[:4], "little")
    for k in range(ans_end):
        for flip in (0xFF, 0x01):
            bad = bytearray(payload)
            bad[k] ^= flip
            try:
                out = decode(Bitstream(bytes(bad), 1000), idx, set_)
            except StreamError:
                continue
            assert encode(out, idx, set_).payload == bytes(bad)


def test_bypass_tail_must_be_zero_padding():
    set_ = _set_of([(ProbModel.gaussian(1.0), 3)])
    syms = [0, 500, -2, -700]  # two records of 18 and 20 bits: 2 padding bits
    idx = [0] * 4
    payload = encode(syms, idx, set_).payload
    assert decode(Bitstream(payload, 4), idx, set_).tolist() == syms
    padded = bytearray(payload)
    padded[-1] |= 1
    for bad in (payload + b"\x00", payload + b"\x80", bytes(padded)):
        with pytest.raises(StreamError):
            decode(Bitstream(bad, 4), idx, set_)


# ---------------------------------------------------------------------------
# Argument and stream errors


def test_argument_errors():
    set_ = _set_of([(ProbModel.gaussian(1.0), 5)])
    with pytest.raises(ValueError):
        encode([1, 2], [0], set_)
    with pytest.raises(ValueError):
        encode([1], [1], set_)
    with pytest.raises(ValueError):
        encode([1], [-1], set_)
    stream = encode([1, 2], [0, 0], set_)
    with pytest.raises(ValueError):
        decode(stream, [0], set_)
    with pytest.raises(ValueError):
        decode(stream, [0, 9], set_)


def test_truncated_streams():
    set_ = _set_of([(ProbModel.gaussian(1.0), 3)])
    syms = list(range(-3, 4)) * 40 + [500] * 5  # escapes force a bypass section
    idx = [0] * len(syms)
    stream = encode(syms, idx, set_)
    whole = stream.payload
    with pytest.raises(StreamError):
        decode(Bitstream(whole[:6], stream.symbol_count), idx, set_)
    with pytest.raises(StreamError):  # ANS words cut
        decode(Bitstream(whole[: len(whole) // 2], stream.symbol_count), idx, set_)
    with pytest.raises(StreamError):  # bypass section cut
        decode(Bitstream(whole[:-1], stream.symbol_count), idx, set_)


def test_escape_beyond_int64_is_a_stream_error():
    set_ = build_lut_gm(4)[0]
    payload = encode([1000], [0], set_).payload
    ans_end = 4 + int.from_bytes(payload[:4], "little")
    # run A: 62 zeros and the leading 1; run B: sign 0 and 62 ones, so
    # n = 2^63 - 1 above the span; then 2 bits of padding
    bypass = bytes(7) + b"\x02" + b"\xff" * 7 + b"\xfc"
    assert _reference_read(bypass, 1) == [(False, 2**63 - 2)]
    with pytest.raises(StreamError, match="int64"):
        decode(Bitstream(payload[:ans_end] + bypass, 1), [0], set_)


@pytest.mark.parametrize("offset", [-127, 0, 5, -(2**62)])
def test_escape_one_past_int64_is_a_stream_error(offset):
    set_ = CdfTableSet([QuantizedCdfTable(offset, np.array([0, 30000, 60000, 1 << 16]))])
    for sym in (2**63 - 1, -(2**63)):  # the farthest escapes on each side
        if not -(2**63) <= sym - offset < 2**63:
            continue
        payload = encode([sym], [0], set_).payload
        assert decode(Bitstream(payload, 1), [0], set_).tolist() == [sym]
        ans_end = 4 + int.from_bytes(payload[:4], "little")
        dist = sym - (offset + 2) if sym > offset else offset - 1 - sym
        past = _reference_pack([(sym < offset, dist + 1)])
        with pytest.raises(StreamError, match="int64"):
            decode(Bitstream(payload[:ans_end] + past, 1), [0], set_)


# ---------------------------------------------------------------------------
# Rate accounting


def test_implied_bits_values():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    set_ = CdfTableSet([table])
    bits = implied_bits([0, 5, 7], [0, 0, 0], set_)
    assert bits[0] == pytest.approx(-np.log2(table.freq(5) / 65536))
    assert bits[1] == pytest.approx(-np.log2(table.freq(10) / 65536))
    tail_bits = -np.log2(table.freq(table.tail_slot) / 65536)
    assert bits[2] == pytest.approx(tail_bits + 1 + len(_exp_golomb(1)))


def test_efficiency_within_one_percent():
    rng = np.random.default_rng(6)
    table = quantize_pmf(ProbModel.gaussian(5.0), 40)
    set_ = CdfTableSet([table])
    p = np.diff(table.cumulative)[:-1] / (65536 - table.freq(table.tail_slot))
    syms = rng.choice(np.arange(-40, 41), size=100_000, p=p / p.sum())
    idx = np.zeros(len(syms), np.int64)
    stream = encode(syms, idx, set_)
    assert np.array_equal(decode(stream, idx, set_), syms)
    ce = implied_bits(syms, idx, set_).sum()
    assert 8 * len(stream.payload) <= ce * 1.01 + 64


def test_efficiency_near_deterministic_table():
    table = quantize_pmf(ProbModel.gaussian(0.01), 1)
    set_ = CdfTableSet([table])
    syms = np.zeros(100_000, np.int64)
    idx = np.zeros(100_000, np.int64)
    stream = encode(syms, idx, set_)
    ce = implied_bits(syms, idx, set_).sum()
    assert 8 * len(stream.payload) <= ce * 1.01 + 64


# ---------------------------------------------------------------------------
# Interleaved lanes


def _lane_reference(syms, idx, set_, lanes):
    """The interleaved payload of the module docstring, built one lane at a
    time with scalar rANS."""
    n = len(syms)
    states, words = [], []
    for lane in range(lanes):
        x = 1 << 16
        for e in reversed(range(lane, n, lanes)):
            table = set_[int(idx[e])]
            slot = table.slot_for(int(syms[e]))
            f, start = table.freq(slot), table.start(slot)
            if x >= f << 16:
                words.append((e // lanes, lane, x & 0xFFFF))
                x >>= 16
            x = ((x // f) << 16) + x % f + start
        states.append(x)
    records = []
    for s, i in zip(syms.tolist(), idx.tolist()):
        if s > set_[i].hi:
            records.append((False, s - set_[i].hi - 1))
        elif s < set_[i].lo:
            records.append((True, set_[i].lo - s - 1))
    bypass = _reference_pack(records)
    ans = struct.pack(f"<{lanes + 1}I", lanes, *states)
    ans += b"".join(struct.pack("<H", w) for _, _, w in sorted(words))
    return struct.pack("<I", len(ans)) + ans + bypass


@pytest.mark.parametrize("lanes", [2, 3, 5])
def test_lanes_match_reference_and_roundtrip(lanes, monkeypatch):
    monkeypatch.setattr(rc, "_lane_count", lambda freqs, bypass_bits: lanes)
    rng = np.random.default_rng(10 + lanes)
    set_ = _random_set(rng, 3)
    for n in (lanes, lanes + 1, 7 * lanes - 1, 200):  # whole and partial last steps
        idx = rng.integers(0, 3, n)
        lo = np.array([set_[i].lo for i in idx])
        hi = np.array([set_[i].hi for i in idx])
        syms = rng.integers(lo - 25, hi + 26)
        syms[0], syms[-1] = hi[0] + 1000, lo[-1] - 1000
        stream = encode(syms, idx, set_)
        assert stream.payload == _lane_reference(syms, idx, set_, lanes)
        assert np.array_equal(decode(stream, idx, set_), syms)
    escaped = np.flatnonzero((syms < lo) | (syms > hi))
    assert len(np.unique(escaped % lanes)) == lanes
    with pytest.raises(StreamError):  # the chunked decoder takes single-state streams only
        decode_elementwise(stream, lambda lo, hi: None)


def _lanes_for(freqs, bypass_bits):
    """The lane count of a block whose elements code in slots of these
    frequencies, by the module's rule: elements counted per slot, the counts
    dotted with the slots' bit costs."""
    values, counts = np.unique(np.asarray(freqs, np.int64), return_counts=True)
    flat = np.concatenate([[0], np.cumsum(values)])  # slot p has frequency values[p]
    return rc._lane_count(rc._interval_bits(counts, flat), bypass_bits)


def test_lane_count_follows_interval_bits():
    def ones(n):  # slot frequency 1 costs 16 interval bits
        return np.ones(n, np.int64)

    assert _lanes_for(ones(0), 0) == 1
    assert _lanes_for(ones(25_599), 0) == 1  # below 64 lanes of 6400 bits
    assert _lanes_for(ones(25_600), 0) == 64
    assert _lanes_for(ones(51_199), 0) == 127
    assert _lanes_for(ones(51_200), 0) == 128
    assert _lanes_for(ones(2_000_000), 0) == 4096


def test_lane_count_spends_the_whole_budget():
    # 32 state bits per lane are at most 0.5% of the coded bits B: L is the
    # largest count with 32 * L <= B / 200, not rounded down any further
    rng = np.random.default_rng(19)
    for n in (0, 1, 1_000, 25_600, 30_000, 51_199, 100_000, 1_700_000):
        freqs = rng.integers(1, 1 << 16, n) if n < 100_000 else np.ones(n, np.int64)
        interval = 16 * n - float(np.log2(freqs).sum())
        for bypass in (0, 1, 6_399, 409_600, 1_000_003, 27_000_000):
            budget = int(interval + bypass)
            lanes = _lanes_for(freqs, bypass)
            if 64 <= lanes < 4096:
                assert 32 * lanes <= budget / 200 < 32 * (lanes + 1), (n, bypass, lanes)
            else:
                assert lanes == (1 if budget < 64 * 6400 else 4096), (n, bypass, lanes)


def test_lane_count_counts_bypass_bits():
    # 1,000 symbols of 16 interval bits alone give one state; bypass bits
    # lift the total to exactly 64 lanes of 6400 bits, or to one bit short
    interval = 16 * 1_000
    half = np.full(1_000, 1 << 15, np.int64)  # frequency 2^15 costs 1 interval bit
    assert _lanes_for(np.ones(1_000, np.int64), 0) == 1
    assert _lanes_for(np.ones(1_000, np.int64), 64 * 6400 - interval) == 64
    assert _lanes_for(np.ones(1_000, np.int64), 64 * 6400 - interval - 1) == 1
    assert _lanes_for(half, 64 * 6400 - 1_000) == 64
    assert _lanes_for(half, 64 * 6400 - 1_001) == 1
    assert _lanes_for(np.zeros(0, np.int64), 4096 * 6400) == 4096


def test_large_block_uses_86_lanes_within_half_a_percent():
    rng = np.random.default_rng(11)
    table = quantize_pmf(ProbModel.gaussian(1.0), 20)
    set_ = CdfTableSet([table])
    p = np.diff(table.cumulative)[:-1]
    syms = rng.choice(np.arange(-20, 21), size=262_144, p=p / p.sum())
    idx = np.zeros(len(syms), np.int64)
    stream = encode(syms, idx, set_)
    lanes = struct.unpack_from("<I", stream.payload, 4)[0]
    assert lanes == 86
    assert np.array_equal(decode(stream, idx, set_), syms)
    ce = implied_bits(syms, idx, set_).sum()
    header = 8 * 4 * (2 + lanes)  # ANS length, lane count, lane states
    assert 8 * len(stream.payload) <= ce * 1.005 + header


def _frozen_escape_input():
    rng = np.random.default_rng(7)
    set_ = _random_set(rng, 4)
    syms = rng.integers(-300, 300, 20000)
    idx = rng.integers(0, 4, 20000)
    return syms, idx, set_


def test_single_state_bytes_unchanged(monkeypatch):
    # its bypass bits now buy this input 64 lanes; one state keeps the old bytes
    monkeypatch.setattr(rc, "_lane_count", lambda freqs, bypass_bits: 1)
    syms, idx, set_ = _frozen_escape_input()
    stream = encode(syms, idx, set_)
    assert struct.unpack_from("<I", stream.payload, 4)[0] >= 1 << 16  # one final state
    assert hashlib.sha256(stream.to_bytes()).hexdigest() == FROZEN_ESCAPE_SHA256
    assert np.array_equal(decode(stream, idx, set_), syms)


def test_escape_heavy_block_interleaves_within_half_a_percent():
    syms, idx, set_ = _frozen_escape_input()
    stream = encode(syms, idx, set_)
    lanes = struct.unpack_from("<I", stream.payload, 4)[0]
    assert 64 <= lanes < 1 << 16
    assert np.array_equal(decode(stream, idx, set_), syms)
    bits = implied_bits(syms, idx, set_)
    assert (bits > 16).mean() > 0.5  # escape-heavy: most symbols carry a bypass record
    header = 8 * 4 * (2 + lanes)  # ANS length, lane count, lane states
    assert 8 * len(stream.payload) <= 1.005 * bits.sum() + header


def test_lane_header_is_validated(monkeypatch):
    monkeypatch.setattr(rc, "_lane_count", lambda freqs, bypass_bits: 4)
    set_ = _set_of([(ProbModel.gaussian(3.0), 10)])
    syms = np.arange(-5, 5)
    idx = np.zeros(10, np.int64)
    payload = encode(syms, idx, set_).payload
    assert decode(Bitstream(payload, 10), idx, set_).tolist() == syms.tolist()

    def patched(offset, value):
        out = bytearray(payload)
        struct.pack_into("<I", out, offset, value)
        return Bitstream(bytes(out), 10)

    for bad in (patched(4, 0), patched(4, 1), patched(4, 11),  # lanes outside [2, n]
                patched(0, 4 + 4 * 4 - 2),  # ANS section shorter than its lane states
                patched(8, (1 << 16) - 1)):  # a lane state below 2^16
        with pytest.raises(StreamError):
            decode(bad, idx, set_)


@st.composite
def _payloads(draw):
    """(symbol count, serialized stream) with random sections; half carry a
    lane header, and the ANS length usually points inside the payload."""
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        lanes = draw(st.integers(0, 70))
        states = draw(st.lists(st.integers(0, 2**32 - 1), min_size=lanes, max_size=lanes))
        head = struct.pack(f"<{lanes + 1}I", lanes, *states)
    else:
        head = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    body = draw(st.binary(max_size=300))
    ans_len = len(head) + draw(st.integers(0, len(body)))
    if draw(st.integers(0, 9)) == 0:
        ans_len = draw(st.integers(0, 2**32 - 1))
    return n, struct.pack("<II", n, ans_len) + head + body


@settings(max_examples=300, deadline=None)
@given(_payloads(), st.integers(min_value=0, max_value=2**31))
def test_random_payloads_raise_only_stream_errors(case, seed):
    n, data = case
    rng = np.random.default_rng(seed)
    set_ = _random_set(rng, 3)
    idx = rng.integers(0, 3, n)
    t0 = time.perf_counter()
    try:
        out = decode(Bitstream.from_bytes(data), idx, set_)
        assert len(out) == n
    except (StreamError, ValueError):
        pass
    assert time.perf_counter() - t0 < 5.0


def test_symbols_whose_slot_distance_overflows_int64_are_rejected():
    set_ = build_lut_gm(4)[0]  # every table has offset -127
    chunk = rc._shared_chunks(np.zeros(1, np.int64), set_)
    for sym in (2**63 - 1, 2**63 - 127):  # symbol + 127 does not fit int64
        with pytest.raises(ValueError, match="overflows int64"):
            encode([sym], [0], set_)
        with pytest.raises(ValueError, match="overflows int64"):
            rc.encode_elementwise([sym], chunk)
        with pytest.raises(ValueError, match="overflows int64"):
            implied_bits([sym], [0], set_)
    for sym in (2**63 - 128, -(2**63), -(2**63) + 1):  # the largest accepted, and the low end
        stream = encode([sym], [0], set_)
        assert decode(stream, [0], set_).tolist() == [sym]
        assert decode_elementwise(rc.encode_elementwise([sym], chunk), chunk).tolist() == [sym]
        assert np.isfinite(implied_bits([sym], [0], set_)).all()
    # offset 0 puts -2^63 at distance 2^63 - 1 below the span, the farthest there is
    zero = CdfTableSet([QuantizedCdfTable(0, np.array([0, 30000, 1 << 16]))])
    assert decode(encode([-(2**63)], [0], zero), [0], zero).tolist() == [-(2**63)]
    assert np.isfinite(implied_bits([-(2**63)], [0], zero)).all()
    # offsets beyond +-2^62 make small symbols wrap: the check opens from the table side
    # too, and at 2^62 itself, where symbol - offset = 2^62 + 2^62 wraps
    for offset, wrap, fits in (
        (2**63 - 200, [-201, -(2**62), -(2**63)], [-200, 0, 2**63 - 200, 2**63 - 1]),
        (-(2**63) + 200, [200, 2**62, 2**63 - 1], [199, 0, -(2**63) + 201, -(2**63)]),
        (-(2**62), [2**62, 2**63 - 1], [2**62 - 1, -(2**63)]),
    ):
        far = CdfTableSet.from_rows(offset, np.array([[0, 30000, 60000, 1 << 16]]))
        far_chunk = rc._shared_chunks(np.zeros(1, np.int64), far)
        for sym in wrap:
            with pytest.raises(ValueError, match="overflows int64"):
                encode([sym], [0], far)
            with pytest.raises(ValueError, match="overflows int64"):
                rc.encode_elementwise([sym], far_chunk)
            with pytest.raises(ValueError, match="overflows int64"):
                implied_bits([sym], [0], far)
        for sym in fits:
            assert decode(encode([sym], [0], far), [0], far).tolist() == [sym]
            stream = rc.encode_elementwise([sym], far_chunk)
            assert decode_elementwise(stream, far_chunk).tolist() == [sym]
            assert np.isfinite(implied_bits([sym], [0], far)).all()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1),
                       st.integers(-(2**63), -(2**63) + 300),
                       st.integers(2**63 - 300, 2**63 - 1)), min_size=1, max_size=8),
    st.integers(-(2**31), 2**31 - 1),
)
def test_symbols_encode_accepts_roundtrip(symbols, offset):
    table = QuantizedCdfTable(offset, np.array([0, 30000, 60000, 1 << 16]))
    set_ = CdfTableSet([table])
    idx = np.zeros(len(symbols), np.int64)
    try:
        stream = encode(symbols, idx, set_)
    except ValueError:
        # rejected exactly when some symbol - offset leaves int64
        assert any(not -(2**63) <= s - offset < 2**63 for s in symbols)
        return
    assert decode(stream, idx, set_).tolist() == symbols


# ---------------------------------------------------------------------------
# Bypass section against the string references


def _reference_records(j, n_coded) -> list[tuple[bool, int]]:
    """(below the coded span, distance beyond it) of the escaped elements,
    those with j outside [0, n_coded), in element order."""
    return [
        (False, d - edge) if d >= edge else (True, -d - 1)
        for d, edge in zip(j.tolist(), n_coded.tolist()) if not 0 <= d < edge
    ]


def _two_runs(records) -> str:
    """Bits of the bypass section of (below, distance) records: run A holds
    each record's Exp-Golomb prefix, the k zeros and the leading 1 of
    n = distance + 1; run B each sign bit, then the k bits of n below the 1."""
    codes = [_exp_golomb(d) for _, d in records]
    run_a = "".join(c[: len(c) // 2 + 1] for c in codes)
    run_b = "".join("01"[below] + c[len(c) // 2 + 1 :] for (below, _), c in zip(records, codes))
    return run_a + run_b


def _pad(bits: str) -> bytes:
    """The bit string, MSB-first, zero-padded to a byte."""
    if not bits:
        return b""
    n_bytes = (len(bits) + 7) // 8
    return (int(bits, 2) << (8 * n_bytes - len(bits))).to_bytes(n_bytes, "big")


def _reference_pack(records) -> bytes:
    return _pad(_two_runs(records))


def _reference_read(data: bytes, count: int) -> list[tuple[bool, int]]:
    """(below the coded span, distance beyond its edge) of `count` records,
    read one bit string search at a time: every prefix of run A, then every
    field of run B, then the padding."""
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
    pos = 0
    zeros = []
    for _ in range(count):
        one = bits.find("1", pos, pos + 64)  # the leading 1, after at most 63 zeros
        if one < 0:
            if pos + 64 > len(bits):
                raise StreamError("bypass section exhausted")
            raise StreamError("bypass run length out of range")
        zeros.append(one - pos)
        pos = one + 1
    records = []
    for k in zeros:
        if pos + 1 + k > len(bits):
            raise StreamError("bypass section exhausted")
        records.append((bits[pos] == "1", int("1" + bits[pos + 1 : pos + 1 + k], 2) - 1))
        pos += 1 + k
    rest = bits[pos:]
    if len(rest) >= 8 or "1" in rest:
        raise StreamError("bypass section runs past its last record")
    return records


def _outcome(fn):
    try:
        return fn()
    except StreamError as exc:
        return ("StreamError", str(exc))


def _read(section: bytes, counts):
    """(below, n) of the section's records, read by _read_bypass in pieces
    of these counts and joined."""
    pieces = list(rc._read_bypass(section, counts))
    assert [len(n) for _, n in pieces] == list(counts)
    assert all(b.dtype == bool and n.dtype == np.uint64 for b, n in pieces)
    return (np.concatenate([np.zeros(0, bool)] + [b for b, _ in pieces]),
            np.concatenate([np.zeros(0, np.uint64)] + [n for _, n in pieces]))


def _in_pieces(count: int, piece: int) -> list[int]:
    return [piece] * (count // piece) + [count % piece]


def _packed(below, n, piece: int = 0) -> bytes:
    """The bypass section of these records, packed by _pack_escapes in
    pieces of `piece` records (all at once for 0), last piece first as the
    encoder packs them."""
    width = rc._record_bits(n)
    run_a = int(width.sum()) >> 1
    words = rc._section_words(run_a)
    piece = piece or max(1, len(n))
    for lo in reversed(range(0, len(n), piece)):
        hi = lo + piece
        rc._pack_escapes(words, below[lo:hi], n[lo:hi], width[lo:hi], int(width[:lo].sum()) >> 1, run_a)
    return bytes(rc._section_bytes(words, run_a))


def _assert_readers_agree(section: bytes, count: int):
    """The reader, in one piece and in pieces of 1 and of 3 records, and the
    reference read `count` records from the section: the records, or the
    error, must agree."""
    expect = _outcome(lambda: _reference_read(section, count))
    for counts in ([count], _in_pieces(count, 1), _in_pieces(count, 3)):
        def new():
            below, n = _read(section, counts)
            return [(b, d - 1) for b, d in zip(below.tolist(), n.tolist())]

        assert _outcome(new) == expect, counts


_DISTANCES = sorted({0, 2**63 - 1, *(2**k - 1 for k in range(1, 64)), *(2**k for k in range(63))})
_OFFSETS = (-127, 0, -(2**31), 2**31 - 1)  # the LUT's offset, zero, and the int32 extremes


@pytest.mark.parametrize("offset", _OFFSETS)
def test_packed_escapes_match_reference(offset):
    table = QuantizedCdfTable(offset, np.array([0, 30000, 60000, 1 << 16]))
    set_ = CdfTableSet([table])
    syms = [-(2**63), 2**63 - 1, offset, offset + 1]
    for d in _DISTANCES:
        syms += [s for s in (table.hi + 1 + d, table.lo - 1 - d) if -(2**63) <= s < 2**63]
    syms = [s for s in syms if -(2**63) <= s - offset < 2**63]  # what encode accepts
    rng = np.random.default_rng(offset & 0xFFFF)
    for order in (np.arange(len(syms)), rng.permutation(len(syms))):  # records at every bit offset
        sym = np.array(syms, dtype=np.int64)[order]
        idx = np.zeros(len(sym), np.int64)
        _, _, rows, offs, nc = rc._shared_chunks(idx, set_)(0, len(sym))
        j, esc, _ = rc._slots(sym, rows, offs, nc, True)
        records = _reference_records(j, nc)
        assert esc.tolist() == [e for e, (d, edge) in enumerate(zip(j.tolist(), nc.tolist()))
                                if not 0 <= d < edge]
        section = _reference_pack(records)
        below, n = rc._escapes(j, esc, nc)
        assert _packed(below, n) == _packed(below, n, 3) == _packed(below, n, 1) == section
        payload = encode(sym, idx, set_).payload
        assert payload.endswith(section)
        assert np.array_equal(decode(Bitstream(payload, len(sym)), idx, set_), sym)
        assert _reference_read(section, len(records)) == records
        for count in (0, 1, len(records) - 1, len(records), len(records) + 1):
            _assert_readers_agree(section, count)


def test_hand_checked_two_run_section():
    # one table coding 0 and 1; four of the six symbols escape, in element order:
    #   2: above, distance 0, n = 1 = 1b:   k = 0, prefix "1",   field "0"
    #  -1: below, distance 0, n = 1 = 1b:   k = 0, prefix "1",   field "1"
    #   5: above, distance 3, n = 4 = 100b: k = 2, prefix "001", field "0" + "00"
    #  -3: below, distance 2, n = 3 = 11b:  k = 1, prefix "01",  field "1" + "1"
    # run A "1" "1" "001" "01" and run B "0" "1" "000" "11", then 2 bits of padding:
    # 1100 1010 1000 1100 = ca 8c.  Before it: the symbol count 6, the ANS
    # length 6, the final state and one 16-bit word.
    set_ = CdfTableSet([QuantizedCdfTable(0, np.array([0, 30000, 60000, 1 << 16]))])
    syms = [0, 2, -1, 5, -3, 1]
    stream = encode(syms, [0] * 6, set_)
    assert stream.payload.endswith(bytes.fromhex("ca8c"))
    assert stream.to_bytes().hex() == "06000000" "06000000" "b0530100" "70f7" "ca8c"
    assert decode(stream, [0] * 6, set_).tolist() == syms
    assert _two_runs([(False, 0), (True, 0), (False, 3), (True, 2)]) == "1100101" + "0100011"


def _random_records(rng, count, max_bits=64) -> list[tuple[bool, int]]:
    """`count` (below, distance) records whose n = distance + 1 has a random
    bit length of 1 to max_bits and random bits below its leading 1."""
    out = []
    for _ in range(count):
        length = int(rng.integers(1, max_bits + 1))
        n = 1 << (length - 1) | int(rng.integers(0, 2**62)) % (1 << (length - 1) | 1)
        out.append((bool(rng.integers(0, 2)), n - 1))
    return out


def test_reader_runs_of_63_and_64_zeros():
    longest = "0" * 63 + "1" + "1" + "0" * 62 + "1"  # 63 zeros: n = 2^63 + 1, the longest record
    too_long = "0" * 64 + "1" + "0" * 65  # 64 zeros: a run out of range
    below, n = _read(_pad(longest), [1])
    assert below.tolist() == [True] and n.tolist() == [2**63 + 1]
    with pytest.raises(StreamError, match="run length"):
        _read(_pad(too_long), [1])
    with pytest.raises(StreamError, match="run length"):  # the second prefix is too long
        _read(_pad("1" + "0" * 64 + "1" + "0" * 66), [2])
    both = _two_runs([(True, 2**63), (False, 2**63 - 1)])
    for bits in (longest, too_long, both, "1" + "0" * 64, "0" * 200, "1" * 130,
                 "1" + "0" * 63 + "1" + "1" * 63 + longest):
        for count in (0, 1, 2, 3):
            _assert_readers_agree(_pad(bits), count)


def test_reader_truncated_at_every_bit():
    rng = np.random.default_rng(13)
    records = _random_records(rng, 12) + [(False, 2**63)]  # ends on a 63-zero prefix and field
    bits = _two_runs(records)
    assert bits[: len(bits) // 2].endswith("0" * 63 + "1")
    for cut in range(len(bits) + 1):
        for count in (12, 13):
            _assert_readers_agree(_pad(bits[:cut]), count)


def test_reader_fields_at_every_bit_offset_of_a_word():
    # run-B fields of 63 and 64 bits alternate, so each pair moves the next
    # field's start back one bit in its 64-bit word: over 64 pairs fields of
    # both sizes start at every offset, and all but those at offset 0 cross
    # into the next word; short fields then fill the words between
    rng = np.random.default_rng(17)
    records = [(bool(rng.integers(0, 2)),
                (1 << (size - 1) | int.from_bytes(rng.bytes(8), "big") >> (65 - size)) - 1)
               for size in [64, 63] * 64]
    records += _random_records(rng, 200, max_bits=5)
    section = _reference_pack(records)
    sizes = np.array([len(_exp_golomb(d)) // 2 + 1 for _, d in records])
    assert sizes[:128].tolist() == [64, 63] * 64
    starts = sizes.sum() + np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for size in (63, 64):
        assert set((starts[sizes == size] % 64).tolist()) == set(range(64))
    below = np.array([b for b, _ in records])
    n = np.array([d + 1 for _, d in records], dtype=np.uint64)
    assert _packed(below, n) == _packed(below, n, 7) == section
    for counts in ([len(records)], _in_pieces(len(records), 7)):
        got_below, got_n = _read(section, counts)
        assert np.array_equal(got_below, below) and np.array_equal(got_n, n)
    for count in (len(records) - 1, len(records), len(records) + 1):
        _assert_readers_agree(section, count)
        _assert_readers_agree(section[:-3], count)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40), st.integers(0, 72))
def test_reader_matches_reference_on_random_sections(section, count):
    _assert_readers_agree(section, count)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**64 - 2)), max_size=30),
       st.integers(-1, 1), st.sampled_from(["none", "flip", "cut", "extend"]), st.data())
def test_reader_matches_reference_on_damaged_sections(records, miscount, how, data):
    section = _reference_pack(records)
    if how == "flip" and section:
        k = data.draw(st.integers(0, len(section) - 1))
        section = section[:k] + bytes([section[k] ^ data.draw(st.integers(1, 255))]) + section[k + 1 :]
    elif how == "cut":
        section = section[: data.draw(st.integers(0, len(section)))]
    elif how == "extend":
        section += data.draw(st.binary(min_size=1, max_size=3))
    count = max(0, len(records) + miscount)
    _assert_readers_agree(section, count)
    if how == "none" and not miscount:
        assert _reference_read(section, count) == records


def test_reader_working_set_stays_under_21_bytes_per_escape():
    # gm sources of sigma 100 to 1000 against the widest table of the gm LUT
    # (sigma 60): most symbols escape, as in the escape-gm benchmark workload.
    # Read as the decoder reads it, one work chunk's escapes per piece, the
    # peak is the records read (9 bytes each) and one piece's working set
    rng = np.random.default_rng(23)
    set_, _ = build_lut_gm(40)
    syms = np.round(rng.normal(0, np.exp(rng.uniform(np.log(100), np.log(1000), 50_000))))
    syms = syms.astype(np.int64)
    idx = np.full(len(syms), len(set_) - 1)
    payload = encode(syms, idx, set_).payload
    section = payload[4 + struct.unpack_from("<I", payload)[0] :]
    _, _, rows, offs, nc = rc._shared_chunks(idx, set_)(0, len(syms))
    j, esc, _ = rc._slots(syms, rows, offs, nc, True)
    expect_below, expect_n = rc._escapes(j, esc, nc)
    count = len(expect_n)
    assert count > len(syms) // 2
    counts = np.bincount(esc // rc._WORK).tolist()
    tracemalloc.start()
    try:
        pieces = list(rc._read_bypass(section, counts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.concatenate([b for b, _ in pieces]), expect_below)
    assert np.array_equal(np.concatenate([n for _, n in pieces]), expect_n)
    assert peak <= 21 * count, peak / count


@pytest.mark.parametrize("dist", [2**53 - 2, 2**54 - 2, 2**62 - 2])
def test_implied_bits_sizes_large_escapes_exactly(dist):
    set_ = CdfTableSet([QuantizedCdfTable(0, np.array([0, 30000, 1 << 16]))])  # codes only 0
    record = 1 + len(_exp_golomb(dist))  # sign bit, then Exp-Golomb
    tail = -np.log2((65536 - 30000) / 65536)
    assert implied_bits([dist + 1], [0], set_)[0] == pytest.approx(tail + record)
    payload = encode([dist + 1], [0], set_).payload
    ans_end = 4 + int.from_bytes(payload[:4], "little")
    assert len(payload) - ans_end == (record + 7) // 8


def test_chunked_decode_reads_the_bypass_section_once(monkeypatch):
    set_ = _set_of([(ProbModel.gaussian(1.0), 3)])  # codes -3..3
    # chunks of 3: escapes in chunks 0, 1, 3, 4 and 5 (both sides, several
    # record sizes), none in chunk 2, and a short last chunk
    syms = np.array([0, 9, -1,  -40, 1, 2,  0, 1, -2,  3, 700, -5,  -10**6, 4, 0,  2**40, -3])
    idx = np.zeros(len(syms), np.int64)
    chunk = rc._shared_chunks(idx, set_)
    monkeypatch.setattr(rc, "_CHUNK", 3)
    calls = []
    read = rc._read_bypass

    def counting(data, counts):
        calls.append(list(counts))
        return read(data, calls[-1])

    monkeypatch.setattr(rc, "_read_bypass", counting)
    stream = rc.encode_elementwise(syms, chunk)
    assert np.array_equal(decode_elementwise(stream, chunk), syms)
    escaped = np.abs(syms) > 3
    per_chunk = [int(escaped[lo : lo + 3].sum()) for lo in range(0, len(syms), 3)]
    assert per_chunk == [1, 1, 0, 2, 2, 1]
    # one read of every escape, in element order: one piece per chunk with escapes
    assert calls == [[1, 1, 2, 2, 1]] and sum(calls[0]) == escaped.sum() == 7


# ---------------------------------------------------------------------------
# Corrupted bypass tails


def _escape_heavy(seed, n):
    """(symbols, indexes, set) where most symbols escape a narrow table."""
    rng = np.random.default_rng(seed)
    set_ = _random_set(rng, 2)
    idx = rng.integers(0, 2, n)
    scale = rng.choice([3.0, 300.0, 3e6], n)  # records of a few to about 50 bits
    syms = np.round(rng.standard_normal(n) * scale).astype(np.int64)
    return syms, idx, set_


@st.composite
def _bad_tails(draw, payload: bytes):
    """The payload with its bypass tail replaced, flipped or truncated."""
    tail_at = 4 + int.from_bytes(payload[:4], "little")
    tail = payload[tail_at:]
    how = draw(st.sampled_from(["random", "flip", "truncate"]))
    if how == "random":
        tail = draw(st.binary(max_size=len(tail) + 8))
    elif how == "flip" and tail:
        k = draw(st.integers(0, len(tail) - 1))
        tail = tail[:k] + bytes([tail[k] ^ draw(st.integers(1, 255))]) + tail[k + 1 :]
    else:
        tail = tail[: draw(st.integers(0, len(tail)))]
    return payload[:tail_at] + tail


def _decodes_exactly_or_raises(bad, n, decoder, encoder):
    try:
        out = decoder(Bitstream(bad, n))
    except StreamError:
        return
    assert encoder(out).payload == bad


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["single", "lanes", "chunked"]), st.data())
def test_corrupted_bypass_tails_decode_exactly_or_raise(seed, route, data):
    syms, idx, set_ = _escape_heavy(seed, 160)  # 160 >= 64 symbols per table: the lookup route
    with pytest.MonkeyPatch.context() as mp:
        if route == "lanes":
            mp.setattr(rc, "_lane_count", lambda freqs, bypass_bits: 3)
        if route == "chunked":
            mp.setattr(rc, "_CHUNK", data.draw(st.integers(1, 7)))
            chunk = rc._shared_chunks(idx, set_)

            def encoder(s):
                return rc.encode_elementwise(s, chunk)

            def decoder(stream):
                return decode_elementwise(stream, chunk)
        else:
            def encoder(s):
                return encode(s, idx, set_)

            def decoder(stream):
                return decode(stream, idx, set_)

        payload = encoder(syms).payload
        assert np.array_equal(decoder(Bitstream(payload, len(syms))), syms)
        lanes = struct.unpack_from("<I", payload, 4)[0]
        assert (lanes == 3) == (route == "lanes")
        _decodes_exactly_or_raises(data.draw(_bad_tails(payload)), len(syms), decoder, encoder)


# ---------------------------------------------------------------------------
# Single-state decode through the slot lookup


def _no_bisect(*args):
    raise AssertionError("shared-set single-state decode must use the slot lookup")


def _no_lookup(self):
    raise AssertionError("a set of more than 256 tables must not build its slot lookup")


def test_single_state_lookup_at_slot_255(monkeypatch):
    set_, _ = build_lut_gm(40)
    widest = max(range(len(set_)), key=lambda t: set_[t].n_intervals)
    table = set_[widest]
    assert table.n_intervals == 256 and table.tail_slot == 255
    rng = np.random.default_rng(14)
    syms = np.concatenate([[table.lo, table.hi, table.hi + 1, table.lo - 1, 10**9, -(10**9)],
                           rng.integers(table.lo - 400, table.hi + 400, 4000)])
    idx = np.full(len(syms), widest)
    stream = encode(syms, idx, set_)
    assert struct.unpack_from("<I", stream.payload, 4)[0] >= 1 << 16  # one final state
    monkeypatch.setattr(rc, "bisect_right", _no_bisect)
    assert np.array_equal(decode(stream, idx, set_), syms)
    assert set_.slot_lookup()[widest, -1] == 255


def test_single_state_lookup_single_coded_symbol(monkeypatch):
    set_ = CdfTableSet([QuantizedCdfTable(5, np.array([0, 40000, 1 << 16]))])
    rng = np.random.default_rng(15)
    syms = np.where(rng.random(500) < 0.6, 5, rng.integers(-300, 300, 500))
    idx = np.zeros(500, np.int64)
    stream = encode(syms, idx, set_)
    monkeypatch.setattr(rc, "bisect_right", _no_bisect)
    assert np.array_equal(decode(stream, idx, set_), syms)
    assert np.array_equal(decode(encode([5] * 64, [0] * 64, set_), [0] * 64, set_), [5] * 64)


def test_shared_single_state_lookup_stops_at_256_tables(monkeypatch):
    # per-element tables: beyond 256 tables the 2^16-byte rows are not built
    rng = np.random.default_rng(16)
    tables = [QuantizedCdfTable(int(o), np.array([0, int(c), 1 << 16]))
              for o, c in zip(rng.integers(-3, 3, 257), rng.integers(1, 1 << 16, 257))]
    syms = rng.integers(-6, 6, 257)
    for count, forbid in ((256, (rc, "bisect_right", _no_bisect)),
                          (257, (CdfTableSet, "slot_lookup", _no_lookup))):
        set_, idx = CdfTableSet(tables[:count]), np.arange(count)
        stream = encode(syms[:count], idx, set_)
        with monkeypatch.context() as m:
            m.setattr(*forbid)
            assert np.array_equal(decode(stream, idx, set_), syms[:count])


@pytest.mark.parametrize("route", ["lanes", "lookup", "bisect", "elementwise"])
def test_ans_word_count_is_checked_on_every_route(route, monkeypatch):
    rng = np.random.default_rng(18)
    set_ = _random_set(rng, 257 if route == "bisect" else 4)
    idx = rng.integers(0, len(set_), 2000)
    lo = np.array([set_[i].lo for i in idx])
    hi = np.array([set_[i].hi for i in idx])
    syms = rng.integers(lo - 3, hi + 4)
    if route == "lanes":
        monkeypatch.setattr(rc, "_lane_count", lambda freqs, bypass_bits: 3)
    if route == "elementwise":
        chunk = rc._shared_chunks(idx, set_)
        payload = rc.encode_elementwise(syms, chunk).payload

        def decoder(stream):
            return decode_elementwise(stream, chunk)
    else:
        payload = encode(syms, idx, set_).payload

        def decoder(stream):
            return decode(stream, idx, set_)
    # each route decodes the way its name says
    if route == "bisect":
        monkeypatch.setattr(CdfTableSet, "slot_lookup", _no_lookup)
    elif route != "elementwise":
        monkeypatch.setattr(rc, "bisect_right", _no_bisect)
    ans_len = int.from_bytes(payload[:4], "little")
    ans, tail = payload[4 : 4 + ans_len], payload[4 + ans_len :]
    assert (struct.unpack_from("<I", ans)[0] == 3) == (route == "lanes")
    assert ans_len > (16 if route == "lanes" else 4)  # at least one word
    assert np.array_equal(decoder(Bitstream(payload, len(syms))), syms)
    for bad, message in ((ans[:-2], "ANS words exhausted"), (ans + b"\x01\x00", "1 ANS words left unread")):
        with pytest.raises(StreamError, match=message):
            decoder(Bitstream(struct.pack("<I", len(bad)) + bad + tail, len(syms)))


# ---------------------------------------------------------------------------
# Work chunks


def _escapes_at_chunk_edges(rng, set_, idx, step, lanes):
    """Symbols for these tables that escape on both sides of every chunk
    edge (every `step` elements) and of every tenth lane edge, below and
    above the coded span with records of several sizes, and at random in
    between."""
    n = len(idx)
    lo = np.array([set_[i].lo for i in idx])
    hi = np.array([set_[i].hi for i in idx])
    syms = rng.integers(lo, hi + 1)
    edge = np.arange(n)
    at = ((edge % step == 0) | (edge % step == step - 1)
          | (edge // lanes % 10 == 0) | (rng.random(n) < 0.3))
    far = rng.choice([0, 1, 200, 2**40], n)
    syms = np.where(at, np.where(edge % 2 == 0, hi + 1 + far, lo - 1 - far), syms)
    return syms, at


@pytest.mark.parametrize("chunk", [7, 13])
@pytest.mark.parametrize("lanes", [2, 3, 5])
def test_small_chunks_match_the_lane_reference(chunk, lanes, monkeypatch):
    monkeypatch.setattr(rc, "_WORK", chunk)
    monkeypatch.setattr(rc, "_lane_count", lambda interval_bits, bypass_bits: lanes)
    rng = np.random.default_rng(100 * chunk + lanes)
    set_ = _random_set(rng, 3)
    step = max(1, chunk // lanes) * lanes  # elements per lane-aligned chunk
    for n in (lanes, lanes + 1, step + 1, 2 * step - 1, 3 * step + lanes - 1, 200):
        idx = rng.integers(0, 3, n)
        syms, escaped = _escapes_at_chunk_edges(rng, set_, idx, step, lanes)
        if n > step:
            assert escaped[step - 1] and escaped[step]  # both sides of a chunk edge
        stream = encode(syms, idx, set_)
        assert stream.payload == _lane_reference(syms, idx, set_, lanes)
        assert np.array_equal(decode(stream, idx, set_), syms)


def test_lane_count_and_bytes_do_not_depend_on_the_chunk(monkeypatch):
    rng = np.random.default_rng(20)
    small = _random_set(rng, 4)
    small_idx = rng.integers(0, 4, 3000)
    cases = [(_frozen_escape_input(), 64), ((rng.integers(-60, 60, 3000), small_idx, small), 1)]
    default = rc._WORK
    lane_count = rc._lane_count
    seen = []

    def spy(interval_bits, bypass_bits):
        seen.append((interval_bits, bypass_bits))
        return lane_count(interval_bits, bypass_bits)

    monkeypatch.setattr(rc, "_lane_count", spy)
    for (syms, idx, set_), min_lanes in cases:
        seen.clear()
        payloads = set()
        for chunk in (7, 13, default):
            monkeypatch.setattr(rc, "_WORK", chunk)
            stream = encode(syms, idx, set_)
            payloads.add(stream.payload)
            assert np.array_equal(decode(stream, idx, set_), syms)
        lanes = struct.unpack_from("<I", stream.payload, 4)[0]
        assert (lanes >= 1 << 16) == (min_lanes == 1) and lanes >= min_lanes
        assert len(payloads) == 1
        assert len(seen) == 3 and len(set(seen)) == 1  # the same bits, to the last float bit


def _coders(route, idx, set_):
    """(encoder, decoder) of symbols with these indexes, by route."""
    if route == "elementwise":
        chunk = rc._shared_chunks(idx, set_)
        return (lambda s: rc.encode_elementwise(s, chunk),
                lambda stream: decode_elementwise(stream, chunk))
    return lambda s: encode(s, idx, set_), lambda stream: decode(stream, idx, set_)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["single", "lanes", "elementwise"]),
       st.sampled_from([7, 13]), st.data())
def test_damaged_streams_in_small_chunks_decode_exactly_or_raise(seed, route, chunk, data):
    syms, idx, set_ = _escape_heavy(seed, 160)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_WORK", chunk)
        mp.setattr(rc, "_CHUNK", chunk)  # the chunks of encode_elementwise
        if route == "lanes":
            mp.setattr(rc, "_lane_count", lambda interval_bits, bypass_bits: 3)
        encoder, decoder = _coders(route, idx, set_)
        payload = encoder(syms).payload
        assert np.array_equal(decoder(Bitstream(payload, len(syms))), syms)
        if data.draw(st.booleans()):
            bad = data.draw(_bad_tails(payload))
        else:  # a flipped byte anywhere, the ANS section included
            k = data.draw(st.integers(0, len(payload) - 1))
            bad = payload[:k] + bytes([payload[k] ^ data.draw(st.integers(1, 255))]) + payload[k + 1 :]
        _decodes_exactly_or_raises(bad, len(syms), decoder, encoder)


@settings(max_examples=150, deadline=None)
@given(_payloads(), st.integers(min_value=0, max_value=2**31), st.sampled_from([7, 13]))
def test_random_payloads_in_small_chunks_raise_only_stream_errors(case, seed, chunk):
    n, data = case
    rng = np.random.default_rng(seed)
    set_ = _random_set(rng, 3)
    idx = rng.integers(0, 3, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_WORK", chunk)
        try:
            out = decode(Bitstream.from_bytes(data), idx, set_)
            assert len(out) == n
        except StreamError:
            pass


# ---------------------------------------------------------------------------
# Memory faults per call


class TestCallFaults:
    """After two warm-up calls in one process, an encode or a decode maps no
    fresh memory beyond what it returns: its minor page faults are at most
    64 plus 1.1 times the pages of the payload or of the decoded symbols."""

    @staticmethod
    def _faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    @staticmethod
    def _block(case):
        """(symbols, LUT indexes, table set): most symbols escape in gm."""
        if case == "gm":
            block = gen_block(SourceSpec(family="gm", shape=(4, 128, 128), seed=1,
                                         sigma_range=(100.0, 1000.0)))
            set_, grid = build_lut_gm(40)
            return block.residuals.ravel(), lut_search_gm(grid, block.truth_params["sigma"].ravel()), set_
        block = gen_block(SourceSpec(family="ggm", shape=(4, 256, 256), seed=1,
                                     beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0)))
        set_, grid = build_lut_ggm(5, 10)
        truth = block.truth_params
        return block.residuals.ravel(), lut_search_ggm(grid, truth["beta"].ravel(), truth["alpha"].ravel()), set_

    @pytest.mark.parametrize("case", ["gm", "ggm"])
    def test_warm_calls_fault_in_only_what_they_return(self, case):
        syms, idx, set_ = self._block(case)
        for _ in range(2):
            decode(encode(syms, idx, set_), idx, set_)
        page = resource.getpagesize()
        before = self._faults()
        stream = encode(syms, idx, set_)
        encoded = self._faults()
        out = decode(stream, idx, set_)
        decoded = self._faults()
        assert np.array_equal(out, syms)
        payload_pages = -(-len(stream.payload) // page)
        out_pages = -(-out.nbytes // page)
        assert encoded - before <= 64 + 1.1 * payload_pages, (encoded - before, payload_pages)
        assert decoded - encoded <= 64 + 1.1 * out_pages, (decoded - encoded, out_pages)
