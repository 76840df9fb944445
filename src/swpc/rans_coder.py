"""Range-variant ANS coding of integer symbols against shared CDF tables.

State is 32-bit with 16-bit renormalization, matching the 2^16 frequency
precision of the tables, so each coding step moves at most one 16-bit word.
Symbols outside a table's coded span are sent as the tail interval plus a
bypass record (sign bit, then the distance beyond the edge in Exp-Golomb
order 0), stored in the bypass section described below.  The caller-facing
order is the encoder's symbol order; the LIFO pass inside the encoder is not
observable.

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

The bypass section holds the records in two runs, as HEVC groups its
bypass bins (Sze and Budagavi, IEEE TCSVT 22(12), 2012).  With
n = distance + 1 and k = bit_length(n) - 1, a record is 2k + 2 bits (an
exact uint64 count) in two fields of k + 1 bits:

- run A holds, for every escape in element order, k zeros and the leading
  1 of n;
- run B then holds, in the same order, the sign bit (1 below the coded
  span, 0 above) and the k bits of n below the leading 1.

The packer places the fields by a cumsum of their sizes and ORs them into
big-endian 64-bit words, splitting a field that crosses a word.  The
decoder knows the escape count E once the ANS decode is done and reads the
section once, with no loop over records: the first E 1s of run A (one
nonzero over the section's first half, where a valid run A ends) give
every field size, and each run-B field is read from the two words that
hold its start.  decode_elementwise keeps each chunk's escaped positions
and tables and reads the section after its ANS loop.

Format break: this layout replaced records written one after another
(sign bit, then the Exp-Golomb code).  Streams without escapes kept their
bytes.  A stream with escapes written in the older layout is unreadable: it
raises StreamError or decodes to other symbols, as the payload carries no
version to tell the two layouts apart.

Payload layout (little-endian), preceded by a u32 symbol count in the
serialized form: u32 ANS byte length, the ANS section, then the bypass
section (run A, then run B), packed MSB-first and zero-padded to a byte.  A
coder state always lies in [2^16, 2^32), so the first u32 of the ANS section
tells its two forms apart:

- at least 2^16: it is the single final state (L = 1), and the 16-bit ANS
  words follow in decode order;
- in [2, 2^16): it is the lane count L, followed by the L final states (lane
  ascending) and the 16-bit words in decode order: step-major, lanes
  ascending within a step.

A decoder accepts a stream only when every lane ends at the encoder's
initial state 2^16, every ANS word was consumed, run A holds E prefixes of at
most 63 zeros each, and the bypass tail after run B is zero padding of fewer
than 8 bits.  So an accepted ANS section is always the exact encoding of the
symbols it decodes to.  A decoder step is a bijection on the
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
    """The bypass section of records `width` bits wide: run A, then run B,
    each with a field of width / 2 = bit_length(n) bits per record (see the
    module docstring), zero-padded to a byte.  Run A is packed from its
    bits; run B's fields are OR-ed into big-endian 64-bit words, split where
    one crosses a word."""
    if not len(n):
        return b""
    end = np.cumsum(width >> 1)
    total = int(end[-1])
    run_a = np.zeros(total, dtype=bool)
    run_a[end - 1] = True  # each prefix ends on its leading 1
    run_a = np.packbits(run_a)
    k = (width >> 1).astype(np.uint64) - np.uint64(1)
    fields = n ^ (~below).astype(np.uint64) << k  # sign bit 0 above the span: clear the 1
    end += total - 1  # the last bit of each field of run B
    shift = (63 - (end & 63)).astype(np.uint64)
    cross = shift > np.uint64(63) - k
    high = fields[cross] >> (np.uint64(64) - shift[cross])  # the part in the word before
    fields <<= shift
    words = np.zeros((2 * total + 63) >> 6, dtype=np.uint64)
    _or_into(words, end >> 6, fields)
    _or_into(words, (end >> 6)[cross] - 1, high)
    section = words.astype(">u8").view(np.uint8)[: (2 * total + 7) >> 3]
    section[: len(run_a)] |= run_a
    return section.tobytes()


def _or_into(words, at, values):
    """words[at] |= values for non-decreasing word indexes `at`."""
    if len(at):
        first = np.flatnonzero(np.diff(at, prepend=-1))
        words[at[first]] |= np.bitwise_or.reduceat(values, first)


def _leading_ones(data: np.ndarray, count: int) -> np.ndarray:
    """Bit positions of the first `count` 1s of the section, fewer if it has
    fewer.  Run A of a valid section ends within its first half, so only
    that half is unpacked unless it holds too few 1s."""
    for stop in ((len(data) + 1) // 2, len(data)):
        ones = np.flatnonzero(np.unpackbits(data[:stop]).view(bool))
        if len(ones) >= count:
            break
    return ones[:count]


def _read_bypass(data: bytes, count: int):
    """(below the coded span, n = distance beyond its edge + 1 as uint64) of
    the section's `count` records; StreamError unless the section holds
    exactly those records and zero padding of fewer than 8 bits."""
    n_bits = 8 * len(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    edge = np.concatenate([[0], _leading_ones(raw, count) + 1])  # prefix starts, then run A's end
    size = np.diff(edge)  # zeros before each leading 1, plus the 1
    long = size > 64
    if len(size) < count or long.any():
        i = int(np.argmax(np.append(long, True)))  # the first prefix that breaks
        if edge[i] + 64 <= n_bits:
            raise StreamError("bypass run length out of range")
        raise StreamError("bypass section exhausted")
    run_a = int(edge[-1])
    rest = n_bits - 2 * run_a
    if rest < 0:
        raise StreamError("bypass section exhausted")
    if rest >= 8 or (rest and data[-1] & ((1 << rest) - 1)):
        raise StreamError("bypass section runs past its last record")
    words = np.zeros(((len(data) + 7) >> 3) + 1, dtype=">u8")  # and a zero word after
    words.view(np.uint8)[: len(data)] = raw
    words = words.astype(np.uint64)
    at = run_a + edge[:-1]  # run B's fields have run A's sizes, in the same order
    w, o = at >> 6, (at & 63).astype(np.uint64)
    bits = words[w] << o | words[w + 1] >> np.uint64(1) >> (np.uint64(63) - o)  # from each start
    below = bits >= _SIGN  # the field's first bit is its sign
    k = (size - 1).astype(np.uint64)
    return below, bits >> (np.uint64(63) - k) | np.uint64(1) << k


def _escaped_symbols(below, n, offsets, n_coded) -> np.ndarray:
    """Symbols of escaped elements from their records, as _read_bypass gives
    them, and their tables' offsets and coded counts."""
    off = offsets.view(np.uint64)
    edge = off + n_coded.view(np.uint64)
    # exact in uint64: offset - n >= -2^63 and edge + n - 1 < 2^63
    if np.any(n > np.where(below, off ^ _SIGN, _SIGN - edge)):
        raise StreamError("escaped symbol does not fit int64")
    return np.where(below, off - n, edge + (n - np.uint64(1))).view(np.int64)


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
    """(final states, ANS words in decode order, bypass section), header checked."""
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
    return states, words, payload[4 + ans_len :]


def _check_end(states, words_read: int, words):
    if np.any(np.asarray(states) != _LOW):
        raise StreamError("ANS state does not end where the encoder started")
    if words_read != len(words):
        raise StreamError(f"{len(words) - words_read} ANS words left unread")


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
    """Symbols of a single-state stream, one bisect per symbol.  Each chunk
    keeps only its escaped elements' positions and tables; their records are
    read in one pass after the ANS loop."""
    word_list = words.tolist()
    n_words = len(word_list)
    wp = 0
    # per chunk: symbols (escapes still unread), and the escapes' positions,
    # offsets and coded counts; the empty first entries let n = 0 concatenate
    empty = np.zeros(0, dtype=np.int64)
    parts, escapes = [empty], [(empty, empty, empty)]
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
        j = np.array(found, dtype=np.int64) - rows
        parts.append(offs + j)
        esc = np.flatnonzero(j >= nc)
        escapes.append((lo + esc, offs[esc], nc[esc]))
    out = np.concatenate(parts)
    at, offs, nc = (np.concatenate(part) for part in zip(*escapes))
    out[at] = _escaped_symbols(*_read_bypass(bypass, len(at)), offs, nc)
    _check_end([state], wp, words)
    return out


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
    esc = np.flatnonzero(j >= nc)  # tail slots: their symbols come from the bypass section
    below, n_escape = _read_bypass(bypass, len(esc))  # before out, so their temporaries never meet
    out = offsets + j
    out[esc] = _escaped_symbols(below, n_escape, offsets[esc], nc[esc])
    _check_end(final, words_read, words)
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
