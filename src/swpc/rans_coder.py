"""Range-variant ANS coding of integer symbols against shared CDF tables.

State is 32-bit with 16-bit renormalization, matching the 2^16 frequency
precision of the tables, so each coding step moves at most one 16-bit word.
Symbols outside a table's coded span are sent as the tail interval plus a
bypass record (sign bit, then the distance beyond the edge in Exp-Golomb
order 0).  The caller-facing order is the encoder's symbol order; the LIFO
pass inside the encoder is not observable.

A block coded against a shared table set that carries enough bits is split
over L interleaved states (lanes, after Giesen, arXiv:1402.3392): element e
goes to lane e % L at step e // L, and one numpy step advances every lane.
L follows from every bit the stream carries: with B the interval bits
sum(16 - log2 f) plus the bypass record bits (the sum of implied_bits), L is
the largest power of two <= B / 6400, capped at 4096, so the lane states cost
about 0.5% of the coded bits or less.  Below 64 lanes (about where a numpy
step over the lanes stops beating the scalar loop) L = 1.  Per-element
dynamic coding (encode_elementwise) always uses L = 1.

Decoding finds each symbol's slot in the set's cached uint8 slot lookup
(entry [t, v] is the interval of table t holding v): the lane decoder
gathers a step of lanes at once, and a single-state stream against a shared
set reads it through a memoryview, one symbol at a time.  The lookup is
built once per set and costs 2^16 bytes per table, so a single-state stream
against a set of more than 256 tables (16 MiB of lookup), such as
per-element tables, bisects each table's cumulative row instead, as
decode_elementwise always does.

The bypass section is packed and parsed in numpy, not record by record.
Each record is a sign bit, then Exp-Golomb order 0 of n = distance + 1,
2 * bit_length(n) bits in all (an exact uint64 count).  The packer places
the records by a cumsum of their widths and ORs the sign bits and bodies
into big-endian 64-bit words, splitting a body that crosses a word.  The
reader follows the chain of record starts, end(p) = 2 * next1(p + 1) - p,
through a "next 1" map of the section's bits, built lazily one window of
2^16 record starts at a time; it then checks every record of the chain at
once and reads each body from the 9 bytes at its leading 1.  Its position
carries over from one call to the next, as decode_elementwise reads chunk by
chunk.

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
_LANE_BITS = 6400  # coded bits per lane: its 32 state bits are 0.5% of them
_MIN_LANES = 64
_MAX_LANES = 4096
_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_SIGN = _POWERS[63]
_LOOKUP_TABLES = 256  # largest set whose 2^16-byte-per-table slot lookup decode() builds
_CHUNK = 16384  # elements per chunk of lazily built tables: bounds memory, not the bytes


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


def _escapes(j, in_range, n_coded):
    """(below the coded span, n = distance beyond its edge + 1 as uint64) of
    the escaped elements, in element order."""
    esc = ~in_range
    je = j[esc]
    below = je < 0
    dist = np.where(below, ~je, je - n_coded[esc])  # ~j = -j - 1; both fit int64
    return below, dist.view(np.uint64) + np.uint64(1)


def _record_bits(n) -> np.ndarray:
    """Bits of each bypass record: the sign bit, then Exp-Golomb order 0 of
    n - 1, that is 2 * bit_length(n) in all.  bit_length(n) counts the
    powers of two <= n, compared exactly in uint64."""
    return 2 * np.searchsorted(_POWERS, n, side="right")


def _pack_escapes(below, n, width) -> bytes:
    """The bypass section: per record of `width` bits its sign bit,
    bit_length(n) - 1 zeros and the bits of n, MSB-first, zero-padded to a
    byte.  Bodies are OR-ed into big-endian 64-bit words; one that crosses a
    word boundary is split."""
    if not len(n):
        return b""
    end = np.cumsum(width)
    words = np.zeros((int(end[-1]) + 63) >> 6, dtype=np.uint64)
    one = np.uint64(1)
    sign = (end - width)[below]
    _or_into(words, sign >> 6, one << (63 - (sign & 63)).astype(np.uint64))
    last = end - 1  # a body ends at its record's end: shift its low bit there
    shift = (63 - (last & 63)).astype(np.uint64)
    _or_into(words, last >> 6, n << shift)
    cross = shift > np.uint64(64) - (width >> 1).astype(np.uint64)
    _or_into(words, (last >> 6)[cross] - 1, n[cross] >> (np.uint64(64) - shift[cross]))
    return words.astype(">u8").tobytes()[: (int(end[-1]) + 7) >> 3]


def _or_into(words, at, values):
    """words[at] |= values for non-decreasing word indexes `at`."""
    if len(at):
        first = np.flatnonzero(np.diff(at, prepend=-1))
        words[at[first]] |= np.bitwise_or.reduceat(values, first)


_WINDOW = 1 << 16  # record starts per next-1 map, so its temporaries stay bounded


class _BypassReader:
    """Parses the bypass section k records at a time, in element order: a
    record starting at bit p has its leading 1 at q = next1(p + 1) and ends
    at 2q - p (see the module docstring)."""

    def __init__(self, data: bytes):
        self.data = data
        self.n_bits = 8 * len(data)
        self.pos = 0
        self._base = 0  # bit of the window's first start
        self._ends = memoryview(np.zeros(0, dtype=np.int32))
        self._bytes = np.frombuffer(data + bytes(9), dtype=np.uint8)  # every body has 9 bytes

    def _window(self, base: int):
        """ends[r]: end of a record starting at bit base + r, relative to base;
        a start with no 1 in the next 64 bits points past the window."""
        span = min(self.n_bits - base, _WINDOW + 64)  # a start's leading 1 is <= 64 bits on
        lo = base >> 3
        raw = self._bytes[lo : (base + span + 7) >> 3]
        ones = np.unpackbits(raw)[base - 8 * lo :][:span].view(bool).nonzero()[0].astype(np.int32)
        nxt = np.full(span + 1, span + 64, dtype=np.int32)
        if len(ones):
            nxt[: ones[-1] + 1] = np.repeat(ones, np.diff(ones, prepend=-1))
        starts = min(span, _WINDOW)
        self._base = base
        self._ends = memoryview(2 * nxt[1 : starts + 1] - np.arange(starts, dtype=np.int32))

    def _chain(self, k: int) -> np.ndarray:
        """Starts of the next k records and the end of the last; shorter when
        the chain leaves the section."""
        parts = [np.array([self.pos], dtype=np.int64)]
        got = 0
        p = self.pos
        while got < k and p < self.n_bits:
            r = p - self._base
            if not 0 <= r < len(self._ends):
                self._window(p)
                r = 0
            ends = self._ends
            found = []
            push = found.append
            try:
                for _ in range(k - got):
                    r = ends[r]  # IndexError once the chain leaves the window
                    push(r)
            except IndexError:
                pass
            parts.append(np.array(found, dtype=np.int64) + self._base)
            got += len(found)
            p = self._base + r
        return np.concatenate(parts)

    def read(self, k: int):
        """(below the coded span, n = distance beyond its edge + 1 as uint64)
        of the next k records."""
        chain = self._chain(k)
        start, end = chain[:-1], chain[1:]
        width = (end - start) >> 1  # body bits: from the leading 1 to the end
        bad = (width > 64) | (end > self.n_bits)
        if bad.any() or len(start) < k:
            i = int(np.argmax(bad)) if bad.any() else len(start)
            if i < len(start) and width[i] > 64 and start[i] + 65 <= self.n_bits:
                raise StreamError("bypass run length out of range")
            raise StreamError("bypass section exhausted")
        self.pos = int(chain[-1])
        data = self._bytes
        below = (data[start >> 3] >> (7 - (start & 7)).astype(np.uint8)) & 1 == 1
        lead = end - width
        at = lead >> 3
        head = np.lib.stride_tricks.sliding_window_view(data, 8)[at].view(">u8")[:, 0]
        skip = (lead & 7).astype(np.uint64)
        bits = head.astype(np.uint64) << skip | data[at + 8].astype(np.uint64) >> (8 - skip)
        return below, bits >> (64 - width).astype(np.uint64)

    def finish(self):
        rest = self.n_bits - self.pos
        if rest >= 8 or (rest and self.data[-1] & ((1 << rest) - 1)):
            raise StreamError("bypass section runs past its last record")


def _symbols(j, offsets, n_coded, bypass: _BypassReader) -> np.ndarray:
    """Symbols from decoded slot positions j; tail slots read their record."""
    out = offsets + j
    esc = np.flatnonzero(j >= n_coded)
    if len(esc):
        below, n = bypass.read(len(esc))
        off = offsets[esc].view(np.uint64)
        edge = off + n_coded[esc].view(np.uint64)
        # exact in uint64: offset - n >= -2^63 and edge + n - 1 < 2^63
        if np.any(n > np.where(below, off ^ _SIGN, _SIGN - edge)):
            raise StreamError("escaped symbol does not fit int64")
        out[esc] = np.where(below, off - n, edge + (n - np.uint64(1))).view(np.int64)
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


def _lane_count(freqs, bypass_bits: int) -> int:
    """Number of interleaved states for a block with these slot frequencies
    and this many bypass record bits."""
    bits = 16 * len(freqs) - float(np.log2(freqs).sum()) + bypass_bits
    affordable = int(bits) // _LANE_BITS
    if affordable < _MIN_LANES:
        return 1
    return min(_MAX_LANES, 1 << (affordable.bit_length() - 1))


# ---------------------------------------------------------------------------
# Payload sections


def _stream(ans: bytes, bypass: bytes, n: int) -> Bitstream:
    payload = struct.pack("<I", len(ans)) + ans + bypass
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
# counts).  For a shared set a chunk is a slice of the set's flat view; the
# per-element dynamic path builds tables _CHUNK elements at a time so the
# whole block's tables never live in memory at once.


def _single_ans(state: int, words: list) -> bytes:
    """ANS section of one state, from the words in emission order."""
    return struct.pack("<I", state) + np.asarray(words[::-1], dtype="<u2").tobytes()


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


def encode_elementwise(symbols, chunk_tables) -> Bitstream:
    """Code symbols whose tables arrive lazily per chunk of _CHUNK elements."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    state = _LOW
    words = []
    # (below, n) per chunk, last chunk first; the empty pair makes n = 0 concatenate
    escapes = [(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64))]
    for lo in range(((n - 1) // _CHUNK) * _CHUNK, -1, -_CHUNK) if n else []:
        hi = min(lo + _CHUNK, n)
        flat, _, rows, offs, nc = chunk_tables(lo, hi)
        j, in_range, starts, freqs = _slots(sym[lo:hi], flat, rows, offs, nc)
        escapes.append(_escapes(j, in_range, nc))
        state = _encode_single(starts, freqs, state, words)
    below, n_escape = (np.concatenate(part[::-1]) for part in zip(*escapes))
    bypass = _pack_escapes(below, n_escape, _record_bits(n_escape))
    return _stream(_single_ans(state, words), bypass, n)


def decode_elementwise(stream: Bitstream, chunk_tables) -> np.ndarray:
    """Inverse of encode_elementwise for the same chunk-table callback."""
    states, words, bypass = _parse(stream)
    if len(states) != 1:
        raise StreamError("an interleaved stream needs decode() with its shared table set")
    return _decode_single(stream.symbol_count, states[0], words, bypass, chunk_tables)


def _decode_single(n, state, words, bypass, chunk_tables) -> np.ndarray:
    """Symbols of a single-state stream, one bisect per symbol."""
    word_list = words.tolist()
    n_words = len(word_list)
    wp = 0
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        flat, flat_list, rows, offs, nc = chunk_tables(lo, hi)
        fl = flat_list if flat_list is not None else memoryview(flat)
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


def _decode_slots(states, words, idx, table_set: CdfTableSet):
    """(final state, words read, slot position j per element) of a
    single-state ANS section; slots come from the set's slot lookup."""
    flat, flat_list, rows, _, _ = table_set.flat_view()
    freq = np.diff(flat).tolist()
    lookup = memoryview(table_set.slot_lookup()).cast("B")
    word_list = words.tolist()
    n_words = len(word_list)
    state = states[0]
    wp = 0
    found = []
    push = found.append
    for b, r in zip((idx << 16).tolist(), rows[idx].tolist()):
        v = state & _MASK
        s = lookup[b + v]
        p = r + s
        state = freq[p] * (state >> 16) + v - flat_list[p]
        if state < _LOW:
            if wp >= n_words:
                raise StreamError("ANS words exhausted")
            state = (state << 16) | word_list[wp]
            wp += 1
        push(s)
    return [state], wp, np.array(found, dtype=np.int64)


def encode(symbols, table_indexes, table_set: CdfTableSet) -> Bitstream:
    """Code symbols against per-symbol tables; deterministic payload."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    chunk = _shared_chunks(_checked_indexes(table_indexes, n, table_set), table_set)
    flat, _, rows, offsets, nc = chunk(0, n)
    j, in_range, starts, freqs = _slots(sym, flat, rows, offsets, nc)
    below, n_escape = _escapes(j, in_range, nc)
    width = _record_bits(n_escape)
    lanes = _lane_count(freqs, int(width.sum()))
    if lanes == 1:
        words = []
        ans = _single_ans(_encode_single(starts, freqs, _LOW, words), words)
    else:
        ans = _encode_lanes(starts, freqs, lanes)
    return _stream(ans, _pack_escapes(below, n_escape, width), n)


def decode(stream: Bitstream, table_indexes, table_set: CdfTableSet) -> np.ndarray:
    """Exact inverse of encode given the same indexes and table set."""
    n = stream.symbol_count
    idx = _checked_indexes(table_indexes, n, table_set)
    chunk = _shared_chunks(idx, table_set)
    states, words, bypass = _parse(stream)
    if len(states) > 1:
        final, words_read, j = _decode_lanes(states, words, idx, table_set)
    elif len(table_set) <= _LOOKUP_TABLES:
        final, words_read, j = _decode_slots(states, words, idx, table_set)
    else:
        return _decode_single(n, states[0], words, bypass, chunk)
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
        bits[~in_range] += _record_bits(_escapes(j, in_range, nc)[1])
    return bits
