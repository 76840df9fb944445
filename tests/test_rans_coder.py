"""Round-trip, efficiency, and wire-level behavior of the range coder.

The efficiency bound compares payload bits (ANS section plus bypass;
the u32 symbol-count framing is container overhead) against the
table-implied cross-entropy summed over the actual symbols.
"""

import hashlib
import struct
import time

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
    quantize_pmf,
)
from swpc.prob_models import ProbModel
from swpc.rans_coder import (
    Bitstream,
    StreamError,
    bypass_decode,
    bypass_encode,
    decode,
    decode_elementwise,
    encode,
    implied_bits,
)

# Frozen from the first verified implementation run; guards payload drift.
FROZEN_SMALL_HEX = "03000000040000003d622c00"
# sha256 of the escape-heavy single-state stream in test_single_state_bytes_unchanged,
# frozen before interleaved lanes were added.
FROZEN_ESCAPE_SHA256 = "d953245e73f0e4dbf3688d82498157c0d3bca8ad82c8aa1258e6b558c872d073"


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


def test_exp_golomb_patterns():
    assert bypass_encode(0) == "1"
    assert bypass_encode(1) == "010"
    assert bypass_encode(2) == "011"
    assert bypass_encode(3) == "00100"


def test_exp_golomb_roundtrip():
    rng = np.random.default_rng(1)
    for v in [0, 1, 2, 3, 100, 2**24 - 1, *rng.integers(0, 2**24, 200).tolist()]:
        assert bypass_decode(bypass_encode(int(v))) == v


def test_exp_golomb_rejects():
    with pytest.raises(ValueError):
        bypass_encode(-1)
    with pytest.raises(StreamError):
        bypass_decode("01")
    with pytest.raises(StreamError):
        bypass_decode("11")


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
    bypass = bytes(7) + b"\x01" + b"\xff" * 10  # sign 0, 62 zeros, 1, 62 ones
    with pytest.raises(StreamError):
        decode(Bitstream(payload[:ans_end] + bypass, 1), [0], set_)


# ---------------------------------------------------------------------------
# Rate accounting


def test_implied_bits_values():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    set_ = CdfTableSet([table])
    bits = implied_bits([0, 5, 7], [0, 0, 0], set_)
    assert bits[0] == pytest.approx(-np.log2(table.freq(5) / 65536))
    assert bits[1] == pytest.approx(-np.log2(table.freq(10) / 65536))
    tail_bits = -np.log2(table.freq(table.tail_slot) / 65536)
    assert bits[2] == pytest.approx(tail_bits + 1 + len(bypass_encode(1)))


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
    bits = ""
    for s, i in zip(syms.tolist(), idx.tolist()):
        if s > set_[i].hi:
            bits += "0" + bypass_encode(s - set_[i].hi - 1)
        elif s < set_[i].lo:
            bits += "1" + bypass_encode(set_[i].lo - s - 1)
    bits += "0" * (-len(bits) % 8)
    bypass = bytes(int(bits[k : k + 8], 2) for k in range(0, len(bits), 8))
    ans = struct.pack(f"<{lanes + 1}I", lanes, *states)
    ans += b"".join(struct.pack("<H", w) for _, _, w in sorted(words))
    return struct.pack("<I", len(ans)) + ans + bypass


@pytest.mark.parametrize("lanes", [2, 3, 5])
def test_lanes_match_reference_and_roundtrip(lanes, monkeypatch):
    monkeypatch.setattr(rc, "_lane_count", lambda freqs: lanes)
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


def test_lane_count_follows_interval_bits():
    def ones(n):  # slot frequency 1 costs 16 interval bits
        return np.ones(n, np.int64)

    assert rc._lane_count(ones(0)) == 1
    assert rc._lane_count(ones(25_599)) == 1  # below 64 lanes of 6400 bits
    assert rc._lane_count(ones(25_600)) == 64
    assert rc._lane_count(ones(51_199)) == 64
    assert rc._lane_count(ones(51_200)) == 128
    assert rc._lane_count(ones(2_000_000)) == 4096


def test_large_block_uses_64_lanes_within_one_percent():
    rng = np.random.default_rng(11)
    table = quantize_pmf(ProbModel.gaussian(1.0), 20)
    set_ = CdfTableSet([table])
    p = np.diff(table.cumulative)[:-1]
    syms = rng.choice(np.arange(-20, 21), size=262_144, p=p / p.sum())
    idx = np.zeros(len(syms), np.int64)
    stream = encode(syms, idx, set_)
    assert struct.unpack_from("<I", stream.payload, 4)[0] == 64
    assert np.array_equal(decode(stream, idx, set_), syms)
    ce = implied_bits(syms, idx, set_).sum()
    assert 8 * len(stream.payload) <= ce * 1.01 + 64


def test_single_state_bytes_unchanged():
    rng = np.random.default_rng(7)
    set_ = _random_set(rng, 4)
    syms = rng.integers(-300, 300, 20000)
    idx = rng.integers(0, 4, 20000)
    stream = encode(syms, idx, set_)
    assert struct.unpack_from("<I", stream.payload, 4)[0] >= 1 << 16  # one final state
    assert hashlib.sha256(stream.to_bytes()).hexdigest() == FROZEN_ESCAPE_SHA256
    assert np.array_equal(decode(stream, idx, set_), syms)


def test_lane_header_is_validated(monkeypatch):
    monkeypatch.setattr(rc, "_lane_count", lambda freqs: 4)
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
