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
sum(16 - log2 f) plus the bypass record bits (the sum of implied_bits),
L = floor(B / 6400), any integer, capped at 4096.  Each lane's 32 state bits
are then 0.5% of its 6400 coded bits or less; in payload a lane costs less,
since its state also holds coded bits: 20 to 32 bits each, about 25 on
average, measured on the benchmark's shared-ggm and escape-gm codings.
Below 24 lanes L = 1, where the scalar single-state loop is the faster.
Milliseconds per call on one core of a 2-vCPU Xeon, at a fixed L, coding
ggm blocks against a trained 40-table set, encode / decode:

    elements   L = 1          L = 20         L = 24         L = 30
    16,384     3.90 / 6.14    4.16 / 5.68    3.52 / 4.93    2.94 / 3.88
    32,768     7.57 / 13.36   8.07 / 11.37   6.98 / 9.68    5.86 / 8.24
    65,536     15.51 / 28.44  16.77 / 22.74  13.97 / 20.34  12.18 / 16.65

Lanes break even at 20-22 and win on both ends from 24 on.  So every block
of 153,600 coded bits or more interleaves, such as one image's latent of
65,536 to 163,840 ggm elements at 2-3 bits each: the benchmark's train-ggm
codes its two 65,536-element calibration blocks (about 196,000 bits) in 30
lanes.  Per-element dynamic coding (encode_elementwise) always uses L = 1.

The interval bits are counted per slot: np.add.at counts the elements
each slot of the set codes (a slot is a table's interval, at its position
in the set's flat cumulative array), and B = 16 n - sum over the used slots
of count * log2 f, in one dot product, plus the record bits.  The counts
are integers and add up exactly, so B, and with it L, is the same whatever
the chunks the counts were taken in; and a chunk's count costs its own
length, not the set's, as a per-element set can be large.

The shared-set coder works in chunks of at most _WORK = 8192 elements,
each a whole number of lane steps.  The encoder walks the block twice:
once to gather each chunk's slots for the slot counts and the record bits,
then from the last chunk to the first, gathering the slots again (cheaper
than keeping them), packing the chunk's records into the bypass section and
running the lanes over it.  The decoders write each chunk's slots into the
array they return and turn them into symbols at once; the escapes are
filled from the bypass section after the ANS decode, read one chunk's
records at a time.  So what grows with the block is only what a call
returns (the payload, or the decoded symbols) and, in a decode, the
positions and tables of the escapes, 24 bytes each, until the section is
read.  A chunk's int64 arrays are 64 KiB, under glibc's default mmap
threshold of 128 KiB, so they come from the heap, whose pages stay mapped
from call to call; block-sized temporaries were mapped afresh, and faulted
in page by page, on every call.  The per-element dynamic path
(encode_elementwise, decode_elementwise) asks its callback for the tables
of _CHUNK = 16384 elements at a time, so one chunk's flat array is all the
tables that live at once: 4.3 MB at the mean radius of 15 of the
benchmark's dynamic-ggm block.  The coder reads a table only through its
element's row start, so the callback may lay the chunk's tables out in any
order: the dynamic backend sorts them by radius, and builds them in batches
of bounded size.

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

The writer sizes a record from the exponent np.frexp gives float(n),
corrected by one exact uint64 comparison where the float rounds n up to a
power of two.  Once the first pass has summed the sizes, run A's length is
known, so each chunk's fields are placed where they belong: by a cumsum of
their sizes, added into 64-bit words with np.add.at (no two fields share a
bit, so the sum is their OR), and the words are stored big-endian at the
end.

The decoder knows the escape count E once the ANS decode is done.  It finds
the E-th 1 of the section by counting bits; in a valid section it ends run
A, so this gives run B's start and lets the padding be checked.  Each
chunk's records are then read with no loop over records: the 1s of its
stretch of run A give the field sizes, and each run-B field is read from
the two words that hold its start.  Every decoder ends in one tail: its ANS
loop gives each element's slot and table, tail slots mark the escapes, the
section is read once, in order.

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
    "implied_bits",
]

_LOW = 1 << 16
_MASK = _LOW - 1
_LANE_BITS = 6400  # coded bits per lane, L = B // 6400: its 32 state bits are 0.5% of them
_MIN_LANES = 24  # below it one state codes faster than a numpy step over the lanes
_MAX_LANES = 4096
_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)
_SIGN = _POWERS[63]
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
_FAR = 1 << 62  # two int64 values in [-2^62, 2^62) differ by less than 2^63
_LOOKUP_TABLES = 256  # largest set whose 2^16-byte-per-table slot lookup decode() builds
_WORK = 8192  # elements per work chunk of the shared-set coder: 64 KiB per int64 array
_CHUNK = 16384  # elements per chunk of lazily built tables: bounds memory, not the bytes


def _constant(value) -> np.ndarray:
    """A read-only 0-d int64 array: as the operand of a ufunc on a lane step
    it costs less than a Python int, which numpy converts on every call."""
    out = np.array(value, dtype=np.int64)
    out.flags.writeable = False
    return out


_C16, _CLOW, _CMASK = _constant(16), _constant(_LOW), _constant(_MASK)


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


def _escapes(j, esc, n_coded):
    """(below the coded span, n = distance beyond its edge + 1 as uint64) of
    the escaped elements, at indexes `esc`, in element order."""
    j = j[esc]
    below = j < 0
    sign = j >> 63  # all ones below the span, else zero
    j ^= sign  # ~j = -j - 1 below the span, j above it
    np.invert(sign, out=sign)
    sign &= n_coded[esc]
    j -= sign  # and above it, j - n_coded; both fit int64
    n = j.view(np.uint64)
    n += np.uint64(1)
    return below, n


def _record_bits(n) -> np.ndarray:
    """Bits of each bypass record: the sign bit, then Exp-Golomb order 0 of
    n - 1, that is 2 * bit_length(n) in all.  bit_length(n) is the exponent
    np.frexp gives float(n), one too high where the float rounds n up to the
    next power of two (2^53 <= n); one exact uint64 comparison takes it back."""
    e = np.frexp(n)[1]
    e -= n < _POWERS[e - 1]
    e <<= 1
    return e


def _section_words(run_a: int) -> np.ndarray:
    """Zeroed 64-bit words for a bypass section whose run A is `run_a` bits:
    one zero word, then the section's words."""
    return np.zeros(((2 * run_a + 63) >> 6) + 1, dtype=np.uint64)


def _pack_escapes(words, below, n, width, start: int, run_a: int) -> None:
    """Add records `width` bits wide into the section words: their run-A
    prefixes start at bit `start` of the section, and run A is `run_a` bits
    long.  A prefix is its leading 1, at its last bit.  A run-B field goes
    into the words in two parts: the bits in the word holding its last bit,
    and the bits before that word's start, zero unless the field crosses
    into it.  No two fields share a bit, so np.add.at places the parts as an
    OR would, in numpy's indexed fast loop."""
    size = width >> 1
    end = np.cumsum(size, dtype=np.int64)
    end += start - 1  # each prefix's leading 1
    at = end >> 6
    at += 1  # its word, past the zero word
    np.add.at(words, at, _POWERS[63 - (end & 63)])
    fields = (~below).astype(np.uint64)
    fields <<= size.astype(np.uint64) - np.uint64(1)
    fields ^= n  # sign bit 0 above the span: clear the leading 1 of n
    end += run_a  # the last bit of each field of run B
    shift = (63 - (end & 63)).astype(np.uint64)
    np.right_shift(end, 6, out=at)
    at += 1
    np.add.at(words, at, fields << shift)
    at -= 1
    fields >>= np.uint64(1)
    shift ^= np.uint64(63)
    fields >>= shift  # the bits `<< shift` pushed out, for the word before
    np.add.at(words, at, fields)


def _section_bytes(words, run_a: int):
    """The section the words hold, MSB-first and zero-padded to a byte, as
    a view into them: they are stored big-endian in place."""
    if words.dtype != np.dtype(">u8"):
        words.byteswap(inplace=True)
    return words.view(np.uint8)[8 : 8 + ((2 * run_a + 7) >> 3)]


def _run_a_bits(raw: np.ndarray, count: int) -> int:
    """Length of run A in a section of `count` records: the bit after its
    count-th 1, found by counting 1s per byte, _WORK bytes at a time.
    StreamError unless that 1 exists and run B then ends in zero padding of
    fewer than 8 bits."""
    run_a = 0
    if count:
        seen = 0
        for lo in range(0, len(raw), _WORK):
            ones = _POP8[raw[lo : lo + _WORK]]
            here = int(ones.sum())
            if seen + here >= count:
                total = np.cumsum(ones)
                at = int(np.searchsorted(total, count - seen))  # the byte holding it
                rank = count - seen - int(total[at] - ones[at])  # its rank in that byte
                bits = np.flatnonzero(np.unpackbits(raw[lo + at : lo + at + 1]).view(bool))
                run_a = 8 * (lo + at) + int(bits[rank - 1]) + 1
                break
            seen += here
        else:
            _bypass_error(raw, count)
    rest = 8 * len(raw) - 2 * run_a
    if not 0 <= rest < 8 or (rest and int(raw[-1]) & ((1 << rest) - 1)):
        _bypass_error(raw, count)
    return run_a


def _bypass_error(raw: np.ndarray, count: int):
    """Raise the StreamError of the section's first fault, as a
    record-by-record read meets it: a prefix with no 1 in the 64 bits from
    its start, then run B running past the end, then bits after run B."""
    n_bits = 8 * len(raw)
    ends = np.flatnonzero(np.unpackbits(raw).view(bool))[:count]
    size = np.diff(ends, prepend=-1)
    bad = np.flatnonzero(size > 64)
    first = int(bad[0]) if len(bad) else len(ends)  # the first prefix that breaks, if any
    if first < count:
        start = int(ends[first - 1]) + 1 if first else 0
        if start + 64 <= n_bits:
            raise StreamError("bypass run length out of range")
        raise StreamError("bypass section exhausted")
    if count and 2 * (int(ends[-1]) + 1) > n_bits:
        raise StreamError("bypass section exhausted")
    raise StreamError("bypass section runs past its last record")


def _read_bypass(data, counts):
    """Iterator over the records of the section, in pieces of counts[0],
    counts[1], ... records: per piece (below the coded span, n = distance
    beyond its edge + 1 as uint64).  StreamError unless the section holds
    exactly sum(counts) records and zero padding of fewer than 8 bits; run
    A's length and the padding are checked before it returns, each prefix
    as its piece is read.

    A piece unpacks only the bytes of run A that hold its prefixes, about
    its share of run A at a time and at most _WORK 1s per unpack, and
    converts to words only the bytes of run B that hold its fields, so the
    working set follows the largest piece, not the section."""
    counts = list(counts)
    raw = np.frombuffer(data, dtype=np.uint8)
    total = sum(counts)
    run_a = _run_a_bits(raw, total)
    return _bypass_pieces(raw, counts, total, run_a)


def _bypass_pieces(raw, counts, total: int, run_a: int):
    found = np.zeros(0, dtype=np.int64)  # 1s of run A unpacked and not yet used
    scanned = 0  # bytes of run A unpacked
    last = -1  # the previous prefix's leading 1
    for count in counts:
        if not count:
            yield np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint64)
            continue
        parts = [found]
        have = len(found)
        while have < count:  # run A holds `total` 1s, so this stops within it
            size = min(max(1, _WORK >> 3), (count - have) * run_a // (8 * total) + 1)
            ones = np.flatnonzero(np.unpackbits(raw[scanned : scanned + size]).view(bool))
            ones += 8 * scanned
            parts.append(ones)
            have += len(ones)
            scanned += size
        found = np.concatenate(parts) if len(parts) > 1 else found
        ends, found = found[:count], found[count:]
        size = np.empty(count, dtype=np.int64)  # zeros before each leading 1, plus the 1
        size[0] = ends[0] - last
        np.subtract(ends[1:], ends[:-1], out=size[1:])
        last = int(ends[-1])
        if size.max() > 64:
            _bypass_error(raw, total)
        yield _fields(raw, ends, size.astype(np.uint8), run_a)


def _fields(raw, ends, size, run_a: int):
    """(below, n) of the records whose prefixes end at `ends`, with these
    sizes, from their run-B fields: each field has its prefix's size and
    starts run_a bits after it, and is read from the two 64-bit words that
    hold its start.  `ends` is overwritten."""
    stop = ((run_a + int(ends[-1])) >> 3) + 1  # past the byte of the last field's last bit
    at = ends
    at -= size
    at += run_a + 1  # each field's start
    first = int(at[0]) >> 3
    words = np.zeros(((stop - first + 7) >> 3) + 1, dtype=">u8")  # and a zero word after
    words.view(np.uint8)[: stop - first] = raw[first:stop]
    words = words.astype(np.uint64)
    at -= 8 * first
    shift = at.astype(np.uint8)
    shift &= 63  # the start's offset in its word
    at >>= 6
    bits = words[at]  # from each start, the field's word and the next
    bits <<= shift
    at += 1
    low = words[at]
    shift ^= 63
    low >>= 1
    low >>= shift
    bits |= low
    del low
    below = bits >= _SIGN  # the field's first bit is its sign
    bits |= _SIGN  # and its place becomes n's leading 1
    np.subtract(64, size, out=shift)  # 63 - k for the k bits of n below that 1
    bits >>= shift
    return below, bits


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


def _slots(sym, rows, offsets, n_coded, far: bool):
    """(j = symbol - offset, indexes of the escaped elements, position of
    each element's slot in the flat cumulative array).  One unsigned
    min(j, n_coded) is j inside the coded span and n_coded, the tail slot,
    outside it (a negative j wraps above 2^63), so one comparison finds the
    escapes.  ValueError when symbol - offset does not fit int64 (it would
    wrap); only a symbol or an offset outside [-2^62, 2^62) can make it so,
    and it is checked only when `far` says the caller saw one (_far)."""
    j = sym - offsets
    if far and np.any((sym ^ offsets) & (sym ^ j) < 0):
        # operand signs differ, result sign flipped
        raise ValueError("symbol too far from its table's offset: symbol - offset overflows int64")
    slot = np.minimum(j.view(np.uint64), n_coded.view(np.uint64))
    esc = np.flatnonzero(slot == n_coded.view(np.uint64))
    pos = slot.view(np.int64)
    pos += rows
    return j, esc, pos


def _interval(flat, pos):
    """(start, frequency) of the slots at these flat positions; pos is
    overwritten."""
    starts = flat[pos]
    pos += 1
    return starts, flat[pos] - starts


def _far(a) -> bool:
    """Whether an int64 array holds a value outside [-2^62, 2^62)."""
    return bool(len(a)) and not (-_FAR <= a.min() and a.max() < _FAR)


def _interval_bits(counts, flat) -> float:
    """Interval bits sum(16 - log2 f) of the elements coded in each slot:
    counts[p] elements in the slot that starts at flat[p]."""
    used = np.flatnonzero(counts > 0)
    count = counts[used]
    return 16 * int(count.sum()) - float(count @ np.log2(flat[used + 1] - flat[used]))


def _lane_count(interval_bits: float, bypass_bits: int) -> int:
    """Number of interleaved states for a block that carries these interval
    and bypass record bits."""
    lanes = min(_MAX_LANES, int(interval_bits + bypass_bits) // _LANE_BITS)
    return lanes if lanes >= _MIN_LANES else 1


# ---------------------------------------------------------------------------
# Payload sections


def _stream(head: bytes, words, bypass, n: int) -> Bitstream:
    """The payload of an ANS section of these states and 16-bit word arrays
    (in decode order), then the bypass section."""
    ans_len = len(head) + 2 * sum(len(w) for w in words)
    payload = b"".join([struct.pack("<I", ans_len), head, *words, bypass])
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
    return states, words, memoryview(payload)[4 + ans_len :]


# ---------------------------------------------------------------------------
# Encode / decode

# A chunk-table callback maps an element range [lo, hi) to the tables of
# those elements: (flat cumulative array, optional flat list for bisect,
# per-element row starts into flat, per-element offsets, per-element coded
# counts).  For a shared set a chunk is a slice of the set's flat view; the
# per-element dynamic path builds tables _CHUNK elements at a time so the
# whole block's tables never live in memory at once.


def _encode_single(starts, freqs, state: int):
    """Push a chunk onto one state, last symbol first: (the state, the
    words it emitted, in decode order)."""
    words = []
    emit = words.append
    for f, start in zip(reversed(freqs.tolist()), reversed(starts.tolist())):
        if state >= (f << 16):
            emit(state & _MASK)
            state >>= 16
        state += (state // f) * (_LOW - f) + start  # (q << 16) + r + start
    return state, np.array(words[::-1], dtype="<u2")


def _encode_lanes(starts, freqs, state):
    """Push a lane-aligned chunk onto the lane states, in place, one numpy
    step per group, last first: (the states, the words they emitted, in
    decode order).  The words are the states flushed whole; the cast to
    uint16 keeps their low 16 bits."""
    lanes = len(state)
    n = len(freqs)
    limits = freqs << _C16
    spare = _LOW - freqs  # (x // f << 16) + x % f == x + (x // f) * (2^16 - f)
    steps = []
    for lo in range(((n - 1) // lanes) * lanes, -1, -lanes):
        hi = lo + lanes
        x = state if hi <= n else state[: n - lo]
        flush = x >= limits[lo:hi]
        w = x[flush]
        steps.append(w)
        x[flush] = w >> _C16
        q = x // freqs[lo:hi]
        q *= spare[lo:hi]
        x += q
        x += starts[lo:hi]
    return state, np.concatenate(steps[::-1], dtype=np.uint16, casting="unsafe")


def _encode_chunks(sym, chunk_tables, step: int, state, records, checked: bool):
    """Code the chunks of `step` elements, last first, onto the state (an
    int for one state, else the lane states), handing each chunk's escape
    records to records(below, n, width): (the final state, the words of
    each chunk in decode order).  Unless the caller `checked` that no
    symbol - offset wraps, each chunk is checked."""
    coder = _encode_lanes if isinstance(state, np.ndarray) else _encode_single
    n = len(sym)
    ans = []  # words per chunk, last chunk first
    for lo in range(((n - 1) // step) * step, -1, -step) if n else []:
        flat, _, rows, offs, nc = chunk_tables(lo, min(lo + step, n))
        s = sym[lo : lo + step]
        j, esc, pos = _slots(s, rows, offs, nc, not checked and (_far(s) or _far(offs)))
        if len(esc):
            below, n_escape = _escapes(j, esc, nc)
            records(below, n_escape, _record_bits(n_escape))
        state, words = coder(*_interval(flat, pos), state)
        ans.append(words)
    return state, ans[::-1]


def encode_elementwise(symbols, chunk_tables) -> Bitstream:
    """Code symbols whose tables arrive lazily per chunk of _CHUNK elements."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    records = []  # (below, n, width) per chunk with escapes, last chunk first
    state, words = _encode_chunks(sym, chunk_tables, _CHUNK, _LOW, lambda *r: records.append(r), False)
    run_a = sum(int(width.sum()) for _, _, width in records) >> 1
    section = _section_words(run_a)
    start = 0
    for below, n_escape, width in reversed(records):
        _pack_escapes(section, below, n_escape, width, start, run_a)
        start += int(width.sum()) >> 1
    return _stream(struct.pack("<I", state), words, _section_bytes(section, run_a), len(sym))


def decode_elementwise(stream: Bitstream, chunk_tables) -> np.ndarray:
    """Inverse of encode_elementwise for the same chunk-table callback."""
    states, words, bypass = _parse(stream)
    if len(states) != 1:
        raise StreamError("an interleaved stream needs decode() with its shared table set")
    out = np.empty(stream.symbol_count, dtype=np.int64)
    return _decoded_symbols(out, _decode_single(states, words, chunk_tables, out, _CHUNK), bypass)


def _decoded_symbols(out, chunks, bypass) -> np.ndarray:
    """Symbols from a decoder's chunks: `chunks` yields, in element order,
    each chunk's start and its tables' offsets and coded counts once out
    holds the chunk's slot positions j, and checks the ANS section's end
    after the last.  The offsets are added chunk by chunk; tail slots mark
    the escapes, whose symbols come from the bypass section, read once, in
    order."""
    escapes = []  # per chunk with escapes: (their positions, offsets, coded counts)
    for lo, offs, nc in chunks:
        j = out[lo : lo + len(offs)]
        esc = np.flatnonzero(j >= nc)
        j += offs
        if len(esc):
            escapes.append((esc + lo, offs[esc], nc[esc]))
    records = _read_bypass(bypass, [len(esc) for esc, _, _ in escapes])
    for (esc, offs, nc), (below, n_escape) in zip(escapes, records):
        out[esc] = _escaped_symbols(below, n_escape, offs, nc)
    return out


def _ans_end(final, words_read: int, words) -> None:
    """StreamError unless every state ends at the encoder's initial 2^16
    and every ANS word was read."""
    if np.any(np.asarray(final) != _LOW):
        raise StreamError("ANS state does not end where the encoder started")
    if words_read != len(words):
        raise StreamError(f"{len(words) - words_read} ANS words left unread")


def _decode_single(states, words, chunk_tables, out, chunk: int):
    """_decode_lanes for a single-state stream, one bisect per symbol, with
    tables that arrive per chunk of `chunk` elements."""
    word_list = words.tolist()
    n_words = len(word_list)
    state = states[0]
    wp = 0
    for lo in range(0, len(out), chunk):
        hi = min(lo + chunk, len(out))
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
        j = out[lo:hi]
        j[:] = found
        j -= rows
        yield lo, offs, nc
    _ans_end([state], wp, words)


def _decode_lanes(states, words, idx, table_set: CdfTableSet, out):
    """Decode an interleaved ANS section in lane-aligned chunks: write each
    element's slot position j into out, and yield each chunk's start and its
    tables' offsets and coded counts; slots come from the set's slot lookup."""
    flat, _, rows, offsets, n_coded = table_set.flat_view()
    freq = np.diff(flat)
    lookup = table_set.slot_lookup().ravel()
    lanes = len(states)
    n = len(idx)
    state = np.array(states, dtype=np.int64)
    wp = 0
    step = max(1, _WORK // lanes) * lanes
    for lo in range(0, n, step):
        s = idx[lo : lo + step]
        m = len(s)
        base = s << _C16
        row = rows[s]
        j = out[lo : lo + m]
        chunk_words = words[wp : wp + m].astype(np.int64)  # a lane step reads at most one word a lane
        first = wp
        for a in range(0, m, lanes):
            b = a + lanes
            x = state if b <= m else state[: m - a]
            v = x & _CMASK
            slot = j[a:b]
            slot[...] = lookup[base[a:b] + v]
            p = row[a:b] + slot
            x >>= _C16
            x *= freq[p]
            x += v
            x -= flat[p]
            low = (x < _CLOW).nonzero()[0]
            if len(low):
                end = wp + len(low)
                if end > len(words):
                    raise StreamError("ANS words exhausted")
                x[low] = (x[low] << _C16) | chunk_words[wp - first : end - first]
                wp = end
        yield lo, offsets[s], n_coded[s]
    _ans_end(state, wp, words)


def _decode_slots(states, words, idx, table_set: CdfTableSet, out):
    """_decode_lanes for a single-state ANS section."""
    flat, flat_list, rows, offsets, n_coded = table_set.flat_view()
    freq = np.diff(flat).tolist()
    lookup = memoryview(table_set.slot_lookup()).cast("B")
    word_list = words.tolist()
    n_words = len(word_list)
    state = states[0]
    wp = 0
    for lo in range(0, len(idx), _WORK):
        s = idx[lo : lo + _WORK]
        found = []
        push = found.append
        for b, r in zip((s << 16).tolist(), rows[s].tolist()):
            v = state & _MASK
            slot = lookup[b + v]
            p = r + slot
            state = freq[p] * (state >> 16) + v - flat_list[p]
            if state < _LOW:
                if wp >= n_words:
                    raise StreamError("ANS words exhausted")
                state = (state << 16) | word_list[wp]
                wp += 1
            push(slot)
        out[lo : lo + len(s)] = found
        yield lo, offsets[s], n_coded[s]
    _ans_end([state], wp, words)


def encode(symbols, table_indexes, table_set: CdfTableSet) -> Bitstream:
    """Code symbols against per-symbol tables; deterministic payload."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    tables = _shared_chunks(_checked_indexes(table_indexes, n, table_set), table_set)
    flat, _, _, offsets, _ = table_set.flat_view()
    far = _far(sym) or _far(offsets)  # checked in this pass; the second gathers the same slots
    counts = np.zeros(len(flat), dtype=np.int64)  # elements coded per slot
    run_a = 0
    for lo in range(0, n, _WORK):
        _, _, rows, offs, nc = tables(lo, lo + _WORK)
        j, esc, pos = _slots(sym[lo : lo + _WORK], rows, offs, nc, far)
        np.add.at(counts, pos, 1)
        if len(esc):
            run_a += int(_record_bits(_escapes(j, esc, nc)[1]).sum()) >> 1
    lanes = _lane_count(_interval_bits(counts, flat), 2 * run_a)
    section = _section_words(run_a)
    start = run_a  # run-A bit where the records of the chunks coded so far begin

    def place(below, n_escape, width):
        nonlocal start
        start -= int(width.sum()) >> 1
        _pack_escapes(section, below, n_escape, width, start, run_a)

    if lanes == 1:
        state, words = _encode_chunks(sym, tables, _WORK, _LOW, place, True)
        head = struct.pack("<I", state)
    else:
        state = np.full(lanes, _LOW, dtype=np.int64)
        state, words = _encode_chunks(sym, tables, max(1, _WORK // lanes) * lanes, state, place, True)
        head = struct.pack(f"<{lanes + 1}I", lanes, *state.tolist())
    return _stream(head, words, _section_bytes(section, run_a), n)


def decode(stream: Bitstream, table_indexes, table_set: CdfTableSet) -> np.ndarray:
    """Exact inverse of encode given the same indexes and table set."""
    n = stream.symbol_count
    if np.size(table_indexes) != n:  # a damaged count: rejected before anything of its size is made
        raise StreamError(f"stream holds {n} symbols, the indexes {np.size(table_indexes)}")
    idx = _checked_indexes(table_indexes, n, table_set)
    states, words, bypass = _parse(stream)
    out = np.empty(n, dtype=np.int64)
    if len(states) > 1:
        chunks = _decode_lanes(states, words, idx, table_set, out)
    elif len(table_set) <= _LOOKUP_TABLES:
        chunks = _decode_slots(states, words, idx, table_set, out)
    else:
        chunks = _decode_single(states, words, _shared_chunks(idx, table_set), out, _WORK)
    return _decoded_symbols(out, chunks, bypass)


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
    j, esc, pos = _slots(sym, rows, offsets, nc, _far(sym) or _far(offsets))
    bits = -np.log2(_interval(flat, pos)[1] / TOTAL_FREQ)
    bits[esc] += _record_bits(_escapes(j, esc, nc)[1])
    return bits
