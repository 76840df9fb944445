"""Range-variant ANS coding of integer symbols against shared CDF tables.

State is 32-bit with 16-bit renormalization, matching the 2^16 frequency
precision of the tables, so each coding step moves at most one 16-bit word.
Symbols outside a table's coded span are sent as the tail interval plus a
bypass record (sign bit, then the distance beyond the edge in Exp-Golomb
order 0).  The caller-facing order is the encoder's symbol order; the LIFO
pass inside the encoder is not observable.

A block coded against a shared table set that carries enough interval bits
is split over L interleaved states (lanes, after Giesen, arXiv:1402.3392):
element e goes to lane e % L at step e // L, and one numpy step advances
every lane.  L follows from the symbols: with B = sum(16 - log2 f) over the
coded interval frequencies, L is the largest power of two <= B / 6400,
capped at 4096, so the lane states cost about 0.5% of the ANS bits or less.
Below 64 lanes (about where a numpy step over the lanes stops beating the
scalar loop) L = 1.  Per-element dynamic coding (encode_elementwise) always
uses L = 1.

Payload layout (little-endian), preceded by a u32 symbol count in the
serialized form: u32 ANS byte length, the ANS section, then the bypass
records in element order, packed MSB-first and zero-padded to a byte.  A
coder state always lies in [2^16, 2^32), so the first u32 of the ANS section
tells its two forms apart:

- at least 2^16: it is the single final state (L = 1), and the 16-bit ANS
  words follow in decode order;
- in [2, 2^16): it is the lane count L, followed by the L final states (lane
  ascending) and the 16-bit words in decode order: step-major, lanes
  ascending within a step.

A decoder accepts a stream only when every lane ends at the encoder's
initial state 2^16, every ANS word was consumed, and the bypass tail is zero
padding of fewer than 8 bits.  So an accepted ANS section is always the exact
encoding of the symbols it decodes to.  A decoder step is a bijection on the
state range, though, so a corrupted word can turn the section into a valid
encoding of other symbols, and a corrupted bypass record can decode to a
wrong symbol; only a checksum would catch those.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from swpc.cdf_tables import TOTAL_FREQ, CdfTableSet

__all__ = [
    "StreamError",
    "Bitstream",
    "encode",
    "decode",
    "encode_elementwise",
    "decode_elementwise",
    "bypass_encode",
    "bypass_decode",
    "implied_bits",
]

_LOW = 1 << 16
_MASK = _LOW - 1
_LANE_BITS = 6400  # interval bits per lane: 32 state bits are 0.5% of them
_MIN_LANES = 64
_MAX_LANES = 4096


class StreamError(ValueError):
    """Payload is truncated or structurally invalid."""


@dataclass(frozen=True)
class Bitstream:
    payload: bytes
    symbol_count: int

    def to_bytes(self) -> bytes:
        return struct.pack("<I", self.symbol_count) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < 4:
            raise StreamError("missing symbol count")
        (count,) = struct.unpack_from("<I", data)
        return cls(payload=bytes(data[4:]), symbol_count=count)

    @property
    def bit_length(self) -> int:
        return 8 * (4 + len(self.payload))


# ---------------------------------------------------------------------------
# Bypass records (sign bit, then Exp-Golomb order 0)


def bypass_encode(value: int) -> str:
    """Exp-Golomb order-0 pattern for a nonnegative integer."""
    if value < 0:
        raise ValueError("bypass values are nonnegative")
    n = value + 1
    body = bin(n)[2:]
    return "0" * (len(body) - 1) + body


def bypass_decode(bits: str) -> int:
    """Inverse of bypass_encode; the string must be exactly one code."""
    zeros = 0
    while zeros < len(bits) and bits[zeros] == "0":
        zeros += 1
    if len(bits) != 2 * zeros + 1:
        raise StreamError("not a single Exp-Golomb code")
    return int(bits[zeros:], 2) - 1


def _escape_records(j, in_range, n_coded) -> list[str]:
    """Bypass records of the escaped elements, in element order: sign 0 for
    a symbol above the coded span, 1 below, then the distance beyond it."""
    esc = np.flatnonzero(~in_range)
    return [
        "0" + bypass_encode(d - edge) if d >= edge else "1" + bypass_encode(-d - 1)
        for d, edge in zip(j[esc].tolist(), n_coded[esc].tolist())
    ]


def _pack_bits(records: list[str]) -> bytes:
    bits = "".join(records)
    if not bits:
        return b""
    n_bytes = (len(bits) + 7) // 8
    return (int(bits, 2) << (8 * n_bytes - len(bits))).to_bytes(n_bytes, "big")


class _BypassReader:
    """Reads bypass records one Exp-Golomb code at a time."""

    def __init__(self, data: bytes):
        self.bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""
        self.pos = 0

    def read(self) -> tuple[bool, int]:
        """(below the coded span, distance beyond its edge) of the next record."""
        bits, p = self.bits, self.pos
        one = bits.find("1", p + 1, p + 65)  # the code's leading 1, after at most 63 zeros
        if one < 0:
            if p + 65 > len(bits):
                raise StreamError("bypass section exhausted")
            raise StreamError("bypass run length out of range")
        end = 2 * one - p  # as many body bits after the leading 1 as zeros before it
        if end > len(bits):
            raise StreamError("bypass section exhausted")
        self.pos = end
        return bits[p] == "1", int(bits[one:end], 2) - 1

    def finish(self):
        rest = self.bits[self.pos :]
        if len(rest) >= 8 or "1" in rest:
            raise StreamError("bypass section runs past its last record")


def _symbols(j, offsets, n_coded, bypass: _BypassReader) -> np.ndarray:
    """Symbols from decoded slot positions j; tail slots read their record."""
    out = offsets + j
    esc = np.flatnonzero(j >= n_coded)
    if len(esc):
        values = []
        for off, edge in zip(offsets[esc].tolist(), (offsets + n_coded)[esc].tolist()):
            below, dist = bypass.read()
            values.append(off - 1 - dist if below else edge + dist)
        try:
            out[esc] = values
        except OverflowError as exc:
            raise StreamError("escaped symbol does not fit int64") from exc
    return out


# ---------------------------------------------------------------------------
# Table gather


def _slots(sym, flat, rows, offsets, n_coded):
    """(j = symbol - offset, in coded span, slot start, slot frequency);
    symbols outside the coded span take the tail slot.  ValueError when
    symbol - offset does not fit int64 (it would wrap)."""
    j = sym - offsets
    if np.any((sym ^ offsets) & (sym ^ j) < 0):  # operand signs differ, result sign flipped
        raise ValueError("symbol too far from its table's offset: symbol - offset overflows int64")
    in_range = (j >= 0) & (j < n_coded)
    base = rows + np.where(in_range, j, n_coded)
    starts = flat[base]
    return j, in_range, starts, flat[base + 1] - starts


def _lane_count(freqs) -> int:
    """Number of interleaved states for a block with these slot frequencies."""
    bits = 16 * len(freqs) - float(np.log2(freqs).sum())
    affordable = int(bits) // _LANE_BITS
    if affordable < _MIN_LANES:
        return 1
    return min(_MAX_LANES, 1 << (affordable.bit_length() - 1))


# ---------------------------------------------------------------------------
# Payload sections


def _stream(ans: bytes, records: list[str], n: int) -> Bitstream:
    payload = struct.pack("<I", len(ans)) + ans + _pack_bits(records)
    return Bitstream(payload=payload, symbol_count=n)


def _parse(stream: Bitstream):
    """(final states, ANS words in decode order, bypass reader), header checked."""
    payload = stream.payload
    if len(payload) < 8:
        raise StreamError("payload too short for the ANS section")
    ans_len, head = struct.unpack_from("<II", payload)
    if ans_len < 4 or 4 + ans_len > len(payload):
        raise StreamError("bad ANS section length")
    if head >= _LOW:
        states = [head]
        head_len = 4
    else:
        if not 2 <= head <= stream.symbol_count:
            raise StreamError(f"lane count {head} outside [2, {stream.symbol_count}]")
        head_len = 4 + 4 * head
        if ans_len < head_len:
            raise StreamError("ANS section shorter than its lane states")
        states = list(struct.unpack_from(f"<{head}I", payload, 8))
        if min(states) < _LOW:
            raise StreamError("lane state below 2^16")
    if (ans_len - head_len) % 2:
        raise StreamError("bad ANS section length")
    words = np.frombuffer(payload, dtype="<u2", count=(ans_len - head_len) // 2, offset=4 + head_len)
    return states, words, _BypassReader(payload[4 + ans_len :])


def _check_end(states, words_read: int, words, bypass: _BypassReader):
    if np.any(np.asarray(states) != _LOW):
        raise StreamError("ANS state does not end where the encoder started")
    if words_read != len(words):
        raise StreamError(f"{len(words) - words_read} ANS words left unread")
    bypass.finish()


# ---------------------------------------------------------------------------
# Encode / decode

# A chunk-table callback maps an element range [lo, hi) to the tables of
# those elements: (flat cumulative array, optional flat list for bisect,
# per-element row starts into flat, per-element offsets, per-element coded
# counts).  Shared-set coding passes one chunk covering everything; the
# per-element dynamic path builds tables chunk by chunk so the whole block's
# tables never live in memory at once.


def _encode_single(starts, freqs, state: int, words: list) -> int:
    """Push symbols onto one state, last first; emitted words are appended."""
    emit = words.append
    for f, start in zip(reversed(freqs.tolist()), reversed(starts.tolist())):
        if state >= (f << 16):
            emit(state & _MASK)
            state >>= 16
        q, r = divmod(state, f)
        state = (q << 16) + r + start
    return state


def _encode_lanes(starts, freqs, lanes: int) -> bytes:
    """ANS section of `lanes` interleaved states, one numpy step per group."""
    n = len(freqs)
    state = np.full(lanes, _LOW, dtype=np.int64)
    limits = freqs << 16
    spare = _LOW - freqs  # (x // f << 16) + x % f == x + (x // f) * (2^16 - f)
    steps = []
    for lo in range(((n - 1) // lanes) * lanes, -1, -lanes):
        hi = lo + lanes
        x = state[: n - lo]
        flush = x >= limits[lo:hi]
        steps.append(x[flush] & _MASK)
        np.right_shift(x, 16, out=x, where=flush)
        q = x // freqs[lo:hi]
        q *= spare[lo:hi]
        x += q
        x += starts[lo:hi]
    words = np.concatenate(steps[::-1]).astype("<u2")
    return struct.pack(f"<{lanes + 1}I", lanes, *state.tolist()) + words.tobytes()


def encode_elementwise(symbols, chunk_tables, chunk_size: int = 16384) -> Bitstream:
    """Code symbols whose tables arrive lazily per chunk of elements."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    state = _LOW
    words = []
    records = []  # per chunk, last chunk first
    for lo in range(((n - 1) // chunk_size) * chunk_size, -1, -chunk_size) if n else []:
        hi = min(lo + chunk_size, n)
        flat, _, rows, offs, nc = chunk_tables(lo, hi)
        j, in_range, starts, freqs = _slots(sym[lo:hi], flat, rows, offs, nc)
        records.append(_escape_records(j, in_range, nc))
        state = _encode_single(starts, freqs, state, words)
    ans = struct.pack("<I", state) + np.asarray(words[::-1], dtype="<u2").tobytes()
    return _stream(ans, [r for chunk in reversed(records) for r in chunk], n)


def decode_elementwise(stream: Bitstream, chunk_tables, chunk_size: int = 16384) -> np.ndarray:
    """Inverse of encode_elementwise for the same chunk-table callback."""
    states, words, bypass = _parse(stream)
    if len(states) != 1:
        raise StreamError("an interleaved stream needs decode() with its shared table set")
    return _decode_single(stream.symbol_count, states[0], words, bypass, chunk_tables, chunk_size)


def _decode_single(n, state, words, bypass, chunk_tables, chunk_size) -> np.ndarray:
    """Symbols of a single-state stream, one bisect per symbol."""
    word_list = words.tolist()
    n_words = len(word_list)
    wp = 0
    parts = []
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        flat, flat_list, rows, offs, nc = chunk_tables(lo, hi)
        fl = flat_list if flat_list is not None else flat.tolist()
        found = []
        push = found.append
        for ri, nci in zip(rows.tolist(), nc.tolist()):
            v = state & _MASK
            p = bisect_right(fl, v, ri, ri + nci + 2) - 1
            f = fl[p + 1] - fl[p]
            state = f * (state >> 16) + v - fl[p]
            if state < _LOW:
                if wp >= n_words:
                    raise StreamError("ANS words exhausted")
                state = (state << 16) | word_list[wp]
                wp += 1
            push(p)
        parts.append(_symbols(np.array(found, dtype=np.int64) - rows, offs, nc, bypass))
    _check_end([state], wp, words, bypass)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _decode_lanes(states, words, idx, table_set: CdfTableSet):
    """(final states, words read, slot position j per element) of an
    interleaved ANS section; slots come from the set's slot lookup."""
    flat, _, rows, _, _ = table_set.flat_view()
    freq = np.diff(flat)
    lookup = table_set.slot_lookup().ravel()
    words = words.astype(np.int64)
    lanes = len(states)
    n = len(idx)
    state = np.array(states, dtype=np.int64)
    base = idx << 16
    row = rows[idx]
    j = np.empty(n, dtype=np.int64)
    wp = 0
    for lo in range(0, n, lanes):
        hi = lo + lanes
        x = state[: n - lo]
        v = x & _MASK
        s = lookup[base[lo:hi] + v]
        j[lo:hi] = s
        p = row[lo:hi] + s
        x >>= 16
        x *= freq[p]
        x += v
        x -= flat[p]
        low = (x < _LOW).nonzero()[0]
        if len(low):
            end = wp + len(low)
            if end > len(words):
                raise StreamError("ANS words exhausted")
            x[low] = (x[low] << 16) | words[wp:end]
            wp = end
    return state, wp, j


def encode(symbols, table_indexes, table_set: CdfTableSet) -> Bitstream:
    """Code symbols against per-symbol tables; deterministic payload."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    chunk = _shared_chunks(_checked_indexes(table_indexes, n, table_set), table_set)
    flat, _, rows, offsets, nc = chunk(0, n)
    j, in_range, starts, freqs = _slots(sym, flat, rows, offsets, nc)
    lanes = _lane_count(freqs)
    if lanes == 1:
        return encode_elementwise(sym, chunk, chunk_size=max(n, 1))
    return _stream(_encode_lanes(starts, freqs, lanes), _escape_records(j, in_range, nc), n)


def decode(stream: Bitstream, table_indexes, table_set: CdfTableSet) -> np.ndarray:
    """Exact inverse of encode given the same indexes and table set."""
    n = stream.symbol_count
    idx = _checked_indexes(table_indexes, n, table_set)
    chunk = _shared_chunks(idx, table_set)
    states, words, bypass = _parse(stream)
    if len(states) == 1:
        return _decode_single(n, states[0], words, bypass, chunk, max(n, 1))
    final, words_read, j = _decode_lanes(states, words, idx, table_set)
    _, _, _, offsets, nc = chunk(0, n)
    out = _symbols(j, offsets, nc, bypass)
    _check_end(final, words_read, words, bypass)
    return out


def _checked_indexes(table_indexes, expect_len, table_set) -> np.ndarray:
    idx = np.asarray(table_indexes, dtype=np.int64).ravel()
    if len(idx) != expect_len:
        raise ValueError("symbols and table_indexes must have equal length")
    if len(idx) and (idx.min() < 0 or idx.max() >= len(table_set)):
        raise ValueError("table index out of range")
    return idx


def _shared_chunks(idx, table_set: CdfTableSet):
    """Chunk-table callback giving element e table idx[e] of a set."""
    flat, flat_list, rows, offsets, n_coded = table_set.flat_view()

    def chunk(lo, hi):
        s = idx[lo:hi]
        return flat, flat_list, rows[s], offsets[s], n_coded[s]

    return chunk


def implied_bits(symbols, table_indexes, table_set: CdfTableSet) -> np.ndarray:
    """Per-symbol cost the tables imply: interval bits plus bypass bits.

    The coder itself approaches this total to within its renormalization
    and flush overhead; use it for rate accounting and histograms.
    """
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    idx = _checked_indexes(table_indexes, len(sym), table_set)
    flat, _, rows, offsets, nc = _shared_chunks(idx, table_set)(0, len(sym))
    j, in_range, _, freqs = _slots(sym, flat, rows, offsets, nc)
    bits = -np.log2(freqs / TOTAL_FREQ)
    if not in_range.all():
        esc = ~in_range
        dist = np.where(j >= nc, j - nc, -j - 1)[esc]
        extra = 2 * np.floor(np.log2(dist + 1.0)).astype(np.int64) + 1  # Exp-Golomb length
        bits[esc] += 1 + extra
    return bits
