"""Range-variant ANS coding of integer symbols against shared CDF tables.

State is 32-bit with 16-bit renormalization, matching the 2^16 frequency
precision of the tables, so each coding step moves at most one 16-bit word.
Symbols outside a table's coded span are sent as the tail interval plus a
bypass record (sign bit, then the distance beyond the edge in Exp-Golomb
order 0).  The caller-facing order is the encoder's symbol order; the LIFO
pass inside the encoder is not observable.

Payload layout (little-endian), preceded by a u32 symbol count in the
serialized form: u32 ANS byte length, u32 final state, the 16-bit ANS words
in decode order, then the bypass bits packed MSB-first.
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
# Bypass bits (Exp-Golomb order 0)


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


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.cur = 0
        self.n = 0

    def write(self, value: int, width: int):
        for k in range(width - 1, -1, -1):
            self.cur = (self.cur << 1) | ((value >> k) & 1)
            self.n += 1
            if self.n == 8:
                self.buf.append(self.cur)
                self.cur = 0
                self.n = 0

    def getvalue(self) -> bytes:
        if self.n:
            return bytes(self.buf) + bytes([self.cur << (8 - self.n)])
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read_bit(self) -> int:
        byte = self.pos >> 3
        if byte >= len(self.data):
            raise StreamError("bypass section exhausted")
        bit = (self.data[byte] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit

    def read_eg0(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 63:
                raise StreamError("bypass run length out of range")
        n = 1
        for _ in range(zeros):
            n = (n << 1) | self.read_bit()
        return n - 1


# ---------------------------------------------------------------------------
# Table gather


def _slots(sym, flat, rows, offsets, n_coded):
    """(j = symbol - offset, in coded span, slot start, slot frequency);
    symbols outside the coded span take the tail slot."""
    j = sym - offsets
    in_range = (j >= 0) & (j < n_coded)
    base = rows + np.where(in_range, j, n_coded)
    starts = flat[base]
    return j, in_range, starts, flat[base + 1] - starts


# ---------------------------------------------------------------------------
# Encode / decode

# A chunk-table callback maps an element range [lo, hi) to the tables of
# those elements: (flat cumulative array, optional flat list for bisect,
# per-element row starts into flat, per-element offsets, per-element coded
# counts).  Shared-set coding passes one chunk covering everything; the
# per-element dynamic path builds tables chunk by chunk so the whole block's
# tables never live in memory at once.


def encode_elementwise(symbols, chunk_tables, chunk_size: int = 16384) -> Bitstream:
    """Code symbols whose tables arrive lazily per chunk of elements."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    n = len(sym)
    state = _LOW
    words = []
    emit = words.append
    frag_stack = []
    for lo in range(((n - 1) // chunk_size) * chunk_size, -1, -chunk_size) if n else []:
        hi = min(lo + chunk_size, n)
        flat, _, rows, offs, nc = chunk_tables(lo, hi)
        j, in_range, starts, freqs = _slots(sym[lo:hi], flat, rows, offs, nc)
        frag = []
        if not in_range.all():
            for i in np.nonzero(~in_range)[0]:
                d = int(j[i])
                edge = int(nc[i])
                if d >= edge:
                    frag.append((0, 1))
                    value = d - edge
                else:
                    frag.append((1, 1))
                    value = -d - 1
                vn = value + 1
                frag.append((vn, 2 * vn.bit_length() - 1))
        frag_stack.append(frag)
        for f, start in zip(reversed(freqs.tolist()), reversed(starts.tolist())):
            if state >= (f << 16):
                emit(state & _MASK)
                state >>= 16
            q, r = divmod(state, f)
            state = (q << 16) + r + start
    writer = _BitWriter()
    for frag in reversed(frag_stack):
        for value, width in frag:
            writer.write(value, width)
    ans = struct.pack("<I", state) + np.asarray(words[::-1], dtype="<u2").tobytes()
    payload = struct.pack("<I", len(ans)) + ans + writer.getvalue()
    return Bitstream(payload=payload, symbol_count=n)


def decode_elementwise(stream: Bitstream, chunk_tables, chunk_size: int = 16384) -> np.ndarray:
    """Inverse of encode_elementwise for the same chunk-table callback."""
    n = stream.symbol_count
    payload = stream.payload
    if len(payload) < 8:
        raise StreamError("payload too short for the ANS section")
    (ans_len,) = struct.unpack_from("<I", payload)
    if ans_len < 4 or (ans_len - 4) % 2 or 4 + ans_len > len(payload):
        raise StreamError("bad ANS section length")
    (state,) = struct.unpack_from("<I", payload, 4)
    words = np.frombuffer(payload, dtype="<u2", count=(ans_len - 4) // 2, offset=8).tolist()
    n_words = len(words)
    bypass = _BitReader(payload[4 + ans_len :])

    out = []
    push = out.append
    wp = 0
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        flat, flat_list, rows, offs, nc = chunk_tables(lo, hi)
        fl = flat_list if flat_list is not None else flat.tolist()
        for ri, off, nci in zip(rows.tolist(), offs.tolist(), nc.tolist()):
            v = state & _MASK
            p = bisect_right(fl, v, ri, ri + nci + 2) - 1
            f = fl[p + 1] - fl[p]
            state = f * (state >> 16) + v - fl[p]
            if state < _LOW:
                if wp >= n_words:
                    raise StreamError("ANS words exhausted")
                state = (state << 16) | words[wp]
                wp += 1
            j = p - ri
            if j < nci:
                push(off + j)
            elif bypass.read_bit():
                push(off - 1 - bypass.read_eg0())
            else:
                push(off + nci + bypass.read_eg0())
    try:
        return np.asarray(out, dtype=np.int64)
    except OverflowError as exc:
        raise StreamError("escaped symbol does not fit int64") from exc


def encode(symbols, table_indexes, table_set: CdfTableSet) -> Bitstream:
    """Code symbols against per-symbol tables; deterministic payload."""
    sym = np.asarray(symbols, dtype=np.int64).ravel()
    chunk = _shared_chunks(table_indexes, len(sym), table_set)
    return encode_elementwise(sym, chunk, chunk_size=max(len(sym), 1))


def decode(stream: Bitstream, table_indexes, table_set: CdfTableSet) -> np.ndarray:
    """Exact inverse of encode given the same indexes and table set."""
    chunk = _shared_chunks(table_indexes, stream.symbol_count, table_set)
    return decode_elementwise(stream, chunk, chunk_size=max(stream.symbol_count, 1))


def _checked_indexes(table_indexes, expect_len, table_set) -> np.ndarray:
    idx = np.asarray(table_indexes, dtype=np.int64).ravel()
    if len(idx) != expect_len:
        raise ValueError("symbols and table_indexes must have equal length")
    if len(idx) and (idx.min() < 0 or idx.max() >= len(table_set)):
        raise ValueError("table index out of range")
    return idx


def _shared_chunks(table_indexes, expect_len, table_set: CdfTableSet):
    """Chunk-table callback giving element e table table_indexes[e] of a set."""
    idx = _checked_indexes(table_indexes, expect_len, table_set)
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
    flat, _, rows, offsets, nc = _shared_chunks(table_indexes, len(sym), table_set)(0, len(sym))
    j, in_range, _, freqs = _slots(sym, flat, rows, offsets, nc)
    bits = -np.log2(freqs / TOTAL_FREQ)
    if not in_range.all():
        esc = ~in_range
        dist = np.where(j >= nc, j - nc, -j - 1)[esc]
        extra = 2 * np.floor(np.log2(dist + 1)).astype(np.int64) + 1  # Exp-Golomb length
        bits[esc] += 1 + extra
    return bits
