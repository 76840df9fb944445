"""Quantized CDF tables, parameter-grid LUTs, and their wire format.

A table covers the integer symbols [offset, offset + n_coded - 1] plus one
tail interval used as an escape for anything outside.  Frequencies are
integers summing to 2^16, assigned by largest remainder with a floor of one
count per interval (ties to the smaller symbol, tail last), so the table's
distribution tracks the model's bin masses as closely as the integer grid
allows.

A table set holds its tables as arrays: one flat int64 array of every
cumulative row (leading 0 through 2^16), the row starts, the offsets and the
coded counts, validated together.  QuantizedCdfTable objects are made on
demand, as views of the flat array.

The serialized form (version 2) is little-endian: magic "SWPC", version u16,
family tag u8 (0=gm, 1=ggm, 2=gmm, 3=learned), table count u32, then every
table's offset as i32, every table's inner-entry count (its coded count,
1..255) as u8, and one block of every table's inner cumulative entries
cumulative[1:-1] as u16, table after table; the leading 0 and the final 2^16
of each row are implicit.  A length-prefixed UTF-8 JSON blob with grid axes
or training provenance may follow.  A CRC32 (zlib) of all the bytes before
it closes the payload, so a changed byte, or any burst of changed bits no
longer than 32, fails the check (a ParseError).  Version 1 (32-bit entries,
no checksum) is no longer read: it raises a VersionError.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from swpc.prob_models import FAMILY_PARAMS, INTEGER_PMF, MAX_RADIUS, ProbModel, pmf_integer

__all__ = [
    "TOTAL_FREQ",
    "MAX_RADIUS",
    "CapacityError",
    "ParseError",
    "MagicError",
    "VersionError",
    "TruncatedError",
    "TableInvariantError",
    "QuantizedCdfTable",
    "CdfTableSet",
    "LutGrid",
    "quantize_pmf",
    "allocate_frequencies",
    "cumulative_rows",
    "tables_from_masses",
    "build_lut",
    "build_lut_gm",
    "build_lut_ggm",
    "lut_search",
    "lut_search_gm",
    "lut_search_ggm",
    "serialize_table_set",
    "deserialize_table_set",
    "serialized_size",
    "table_set_16bit_bytes",
    "GM_SIGMA_RANGE",
    "GGM_BETA_RANGE",
    "GGM_ALPHA_RANGE",
]

TOTAL_FREQ = 1 << 16

_MAGIC = b"SWPC"
_VERSION = 2  # the one version read and written
_FAMILY_TAGS = {"gm": 0, "ggm": 1, "gmm": 2, "learned": 3}
_TAG_FAMILIES = {v: k for k, v in _FAMILY_TAGS.items()}

# Grid endpoints for the LUT builders.
GM_SIGMA_RANGE = (0.11, 60.0)
GGM_BETA_RANGE = (0.5, 3.0)
GGM_ALPHA_RANGE = (0.01, 60.0)


# LUT axis per model parameter: (LutGrid field holding its samples, sample
# range, log-spaced); nearness on a log-spaced axis is measured in log space.
# A family has a LUT when each of its parameters has an axis.
_LUT_AXES = {
    "sigma": ("sigmas", GM_SIGMA_RANGE, True),
    "beta": ("betas", GGM_BETA_RANGE, False),
    "alpha": ("alphas", GGM_ALPHA_RANGE, True),
}

# Longest axis, in midpoints, whose cells lut_search counts; longer axes
# binary-search.  On 262,144 values a count costs about 0.1 ms per midpoint
# and the binary search 10-15 ms: they meet near 128 midpoints (2-vCPU Xeon,
# numpy 2.4).  A count of at most 255 fits the uint8 cells.
_COUNTED_MIDPOINTS = 96


class CapacityError(ValueError):
    """Requested support does not fit the 256-interval table cap."""


class ParseError(ValueError):
    """Serialized table set is malformed."""


class MagicError(ParseError):
    pass


class VersionError(ParseError):
    pass


class TruncatedError(ParseError):
    pass


class TableInvariantError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True, eq=False)
class QuantizedCdfTable:
    """Integer CDF over [offset, offset + n_coded - 1] plus a tail escape.

    ``cumulative`` starts at 0, is strictly increasing, and ends at exactly
    2^16; interval j has frequency cumulative[j+1] - cumulative[j].  The last
    interval is the tail.
    """

    offset: int
    cumulative: np.ndarray

    def __post_init__(self):
        cum = np.array(self.cumulative, dtype=np.int64)
        cum.flags.writeable = False
        object.__setattr__(self, "cumulative", cum)
        object.__setattr__(self, "offset", int(self.offset))
        if cum.ndim != 1:
            raise TableInvariantError("cumulative must be one row")
        _check_rows(cum, np.array([len(cum) - 2]))

    @property
    def n_coded(self) -> int:
        return len(self.cumulative) - 2

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.n_coded - 1

    def __eq__(self, other):
        if not isinstance(other, QuantizedCdfTable):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.cumulative, other.cumulative)

    @classmethod
    def _view(cls, offset: int, cumulative: np.ndarray) -> "QuantizedCdfTable":
        """A table over a read-only row that has already been validated."""
        table = object.__new__(cls)
        object.__setattr__(table, "offset", offset)
        object.__setattr__(table, "cumulative", cumulative)
        return table


def _frozen(a) -> np.ndarray:
    """a as a read-only int64 array; an int64 array passed in is frozen in place."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


def _check_rows(flat: np.ndarray, n_coded: np.ndarray) -> np.ndarray:
    """Row starts of flat, read as rows of n_coded + 2 entries each;
    TableInvariantError unless every row runs from 0 to 2^16, strictly
    increasing."""
    if np.any(n_coded < 1):
        raise TableInvariantError("cumulative needs at least a coded interval and a tail")
    if np.any(n_coded > 255):
        raise TableInvariantError(f"{int(n_coded.max()) + 2} cumulative entries exceed the 257 cap")
    ends = np.cumsum(n_coded + 2)
    if len(flat) != int(ends[-1] if len(ends) else 0):
        raise TableInvariantError(f"{len(flat)} cumulative entries do not fill the rows")
    rows = ends - n_coded - 2
    if np.any(flat[rows] != 0) or np.any(flat[ends - 1] != TOTAL_FREQ):
        raise TableInvariantError("cumulative must run from 0 to 2^16")
    falls = flat[1:] <= flat[:-1]
    falls[ends[:-1] - 1] = False  # from one row's 2^16 to the next row's 0
    if falls.any():
        raise TableInvariantError("cumulative must be strictly increasing")
    return rows


class CdfTableSet:
    """An ordered collection of tables plus JSON-able metadata.

    The tables are held as arrays: `flat` concatenates every cumulative row,
    with its offset and coded count per table; table t's row starts at
    flat[rows[t]].  Indexing and iteration hand out QuantizedCdfTable views
    of those rows.  meta["family"] is one of gm/ggm/gmm/learned; grid axes
    or training provenance ride along in the remaining keys.
    """

    def __init__(self, tables, meta: dict | None = None):
        tables = tuple(tables)
        flat = np.concatenate([t.cumulative for t in tables]) if tables else []
        self._set_arrays([t.offset for t in tables], [t.n_coded for t in tables], flat, meta)
        self._tables = tables

    @classmethod
    def from_rows(cls, offsets, cumulative: np.ndarray, meta: dict | None = None) -> "CdfTableSet":
        """A set from a 2-D array of equal-length cumulative rows, as
        cumulative_rows returns them, and their offsets (one, or one per row)."""
        cumulative = np.array(cumulative, dtype=np.int64, ndmin=2)
        set_ = cls.__new__(cls)
        set_._set_arrays(np.array(np.broadcast_to(offsets, len(cumulative))),
                         np.full(len(cumulative), cumulative.shape[-1] - 2), cumulative.ravel(), meta)
        return set_

    def _set_arrays(self, offsets, n_coded, flat, meta):
        """Take the arrays (int64 arrays are frozen in place, not copied) and
        validate them."""
        self.meta = dict(meta or {})
        self.meta.setdefault("family", "learned")
        if not isinstance(self.meta["family"], str) or self.meta["family"] not in _FAMILY_TAGS:
            raise ValueError(f"unknown family {self.meta['family']!r}")
        self._offsets = _frozen(offsets)
        self._n_coded = _frozen(n_coded)
        self._flat = _frozen(flat)
        self._rows = _frozen(_check_rows(self._flat, self._n_coded))
        self._tables = None
        self._flat_view = None
        self._lookup = None
        self._size_without_meta = None

    @property
    def tables(self) -> tuple:
        """The tables, as QuantizedCdfTable views of the flat rows; cached."""
        if self._tables is None:
            ends = (self._rows + self._n_coded + 2).tolist()
            self._tables = tuple(
                QuantizedCdfTable._view(offset, self._flat[start:end])
                for offset, start, end in zip(self._offsets.tolist(), self._rows.tolist(), ends)
            )
        return self._tables

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, i: int) -> QuantizedCdfTable:
        return self.tables[i]

    def __iter__(self):
        return iter(self.tables)

    def __eq__(self, other):
        if not isinstance(other, CdfTableSet):
            return NotImplemented
        return (self.meta == other.meta and np.array_equal(self._offsets, other._offsets)
                and np.array_equal(self._n_coded, other._n_coded)
                and np.array_equal(self._flat, other._flat))

    def flat_view(self):
        """Cached (flat, flat_list, rows, offsets, n_coded) over all tables.

        flat (and the list flat_list) concatenates the cumulative rows, which
        may differ in length; table t's row starts at flat[rows[t]].
        """
        if self._flat_view is None:
            self._flat_view = (self._flat, self._flat.tolist(), self._rows, self._offsets, self._n_coded)
        return self._flat_view

    def slot_lookup(self) -> np.ndarray:
        """Cached uint8 array of shape (tables, 2^16) for rANS decoding:
        entry [t, v] is the interval of table t whose frequency range holds v."""
        if self._lookup is None:
            opens = np.ones(len(self._flat), dtype=bool)
            opens[self._rows + self._n_coded + 1] = False  # a row's 2^16 opens no interval
            starts = np.nonzero(opens)[0]
            slots = starts - np.repeat(self._rows, self._n_coded + 1)
            freqs = self._flat[starts + 1] - self._flat[starts]
            self._lookup = np.repeat(slots.astype(np.uint8), freqs).reshape(len(self), TOTAL_FREQ)
        return self._lookup


def table_set_16bit_bytes(table_set: CdfTableSet) -> int:
    """Storage at 16 bits per stored cumulative entry (leading zero implicit)."""
    return 2 * int((table_set._n_coded + 1).sum())


# ---------------------------------------------------------------------------
# Quantization


def _ranks_of(keys: np.ndarray, descending: bool) -> np.ndarray:
    order = np.argsort(-keys if descending else keys, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(keys.shape[-1]), order.shape).copy(), axis=-1
    )
    return ranks


def allocate_frequencies(masses: np.ndarray) -> np.ndarray:
    """Round rows of nonnegative masses to integer frequencies summing 2^16.

    Each interval gets the floor of its proportional share of 2^16, raised
    to 1 where that floor is zero.  Any counts still owed go to the largest
    fractional remainders (ties toward the earlier position); counts
    over-committed by the raise-to-1 step are taken back from the smallest
    remainders among intervals that can spare them.  Rows are independent;
    a zero row falls back to uniform.
    """
    masses = np.asarray(masses, dtype=np.float64)
    squeeze = masses.ndim == 1
    if squeeze:
        masses = masses[None, :]
    n_int = masses.shape[-1]
    if n_int > 256:
        raise CapacityError(f"{n_int} intervals exceed the 256 cap")
    total = masses.sum(axis=-1, keepdims=True)
    norm = np.where(total > 0, masses / np.where(total > 0, total, 1.0), 1.0 / n_int)
    raw = TOTAL_FREQ * norm
    base = np.floor(raw).astype(np.int64)
    frac = raw - base
    bumped = base < 1
    freqs = np.maximum(base, 1)
    deficit = TOTAL_FREQ - freqs.sum(axis=-1)
    # only rows with counts left to give, or to take back, are ranked
    rows = np.nonzero(deficit > 0)[0]
    if rows.size:
        # bumped intervals are already over target; they sort last
        ranks = _ranks_of(np.where(bumped[rows], -1.0, frac[rows]), descending=True)
        freqs[rows] += (ranks < deficit[rows, None]) & ~bumped[rows]
    rows = np.nonzero(deficit < 0)[0]
    if rows.size:
        # take back round-robin from smallest remainders, 1 per interval per
        # round, never below 1 count: rounds solved in closed form.  The
        # spare capacity 2^16 + owe - n exceeds owe, so owe + 1 rounds
        # would take more than owe: the round count is at most owe.
        owe = -deficit[rows]
        cap = freqs[rows] - 1
        lo = np.zeros(len(owe), np.int64)
        hi = owe.copy()
        while np.any(lo < hi):
            mid = (lo + hi + 1) >> 1
            fits = np.minimum(cap, mid[:, None]).sum(axis=-1) <= owe
            lo = np.where(fits, mid, lo)
            hi = np.where(fits, hi, mid - 1)
        take = np.minimum(cap, lo[:, None])
        rem = owe - take.sum(axis=-1)
        part = cap > lo[:, None]
        ranks = _ranks_of(np.where(part, frac[rows], np.inf), descending=False)
        take += (ranks < rem[:, None]) & part
        freqs[rows] -= take
    return freqs[0] if squeeze else freqs


def cumulative_rows(masses: np.ndarray) -> np.ndarray:
    """Cumulative rows (leading 0, coded bins, tail) for rows of bin masses;
    the tail takes the mass left over, then allocate_frequencies rounds."""
    masses = np.asarray(masses, dtype=np.float64)
    tail = np.maximum(0.0, 1.0 - masses.sum(axis=-1, keepdims=True))
    freqs = allocate_frequencies(np.concatenate([masses, tail], axis=-1))
    return np.concatenate([np.zeros((len(freqs), 1), np.int64), np.cumsum(freqs, axis=-1)], axis=-1)


def quantize_pmf(model: ProbModel, support_radius: int = MAX_RADIUS) -> QuantizedCdfTable:
    """Build the integer table for a model over [-radius, radius] plus tail."""
    radius = int(support_radius)
    if radius > MAX_RADIUS:
        raise CapacityError(f"radius {radius} needs {2 * radius + 1} coded symbols; cap is 255")
    if radius < 1:
        raise ValueError("support_radius must be >= 1")
    masses = pmf_integer(model, np.arange(-radius, radius + 1))
    return tables_from_masses(masses[None, :], radius)[0]


def tables_from_masses(masses: np.ndarray, radius: int) -> list[QuantizedCdfTable]:
    """Vectorized quantize_pmf: one table per row of coded-bin masses."""
    return [QuantizedCdfTable(offset=-radius, cumulative=c) for c in cumulative_rows(masses)]


# ---------------------------------------------------------------------------
# Parameter-grid LUTs


def _lut_axes(family: str) -> list[tuple]:
    """(parameter, field, range, log-spaced) per LUT axis, in FAMILY_PARAMS order."""
    names = FAMILY_PARAMS.get(family, ())
    if not names or any(name not in _LUT_AXES for name in names):
        raise ValueError(f"no LUT grid for family {family!r}")
    return [(name, *_LUT_AXES[name]) for name in names]


@dataclass(frozen=True)
class LutGrid:
    """Sample axes of a LUT set, one per family parameter as `_LUT_AXES`
    names them; table order is row-major over the axes in FAMILY_PARAMS order.

    gm: a log-spaced `sigmas` axis.  ggm: a linear `betas` axis (major) and a
    log-spaced `alphas` axis (minor), index = beta_idx * len(alphas) + alpha_idx.
    """

    family: str
    sigmas: np.ndarray | None = None
    betas: np.ndarray | None = None
    alphas: np.ndarray | None = None

    def __post_init__(self):
        for name, field, _, _ in _lut_axes(self.family):
            samples = getattr(self, field)
            if samples is None or np.ndim(samples) != 1 or len(samples) < 2:
                raise ValueError(f"{self.family} grid needs >= 2 {name} samples")
            if np.any(np.diff(samples) <= 0):
                raise ValueError(f"{name} samples must be sorted strictly ascending")

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Samples per axis, in FAMILY_PARAMS order."""
        return tuple(getattr(self, field) for _, field, _, _ in _lut_axes(self.family))

    @property
    def n_tables(self) -> int:
        return math.prod(len(samples) for samples in self.axes)

    def to_meta(self) -> dict:
        return {"kind": "lut", **{field: [float(s) for s in getattr(self, field)]
                                  for _, field, _, _ in _lut_axes(self.family)}}

    @classmethod
    def from_meta(cls, family: str, meta: dict) -> "LutGrid":
        """The grid a table set's metadata describes; ParseError when the
        family has no LUT or its axes are missing or malformed."""
        try:
            return cls(family, **{field: np.asarray(meta[field], np.float64)
                                  for _, field, _, _ in _lut_axes(family)})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad LUT grid metadata: {exc!r}") from exc


def _log_samples(lo: float, hi: float, count: int) -> np.ndarray:
    s = np.exp(np.linspace(np.log(lo), np.log(hi), count))
    s[0] = lo
    s[-1] = hi
    return s


def build_lut(family: str, *counts: int) -> tuple[CdfTableSet, LutGrid]:
    """counts[i] samples over the range of the family's i-th LUT axis; one
    full-width table per grid cell, row-major."""
    if min(counts) < 2:
        raise ValueError("counts must be >= 2")
    grid = LutGrid(family, **{
        field: (_log_samples if log else np.linspace)(*span, count)
        for (_, field, span, log), count in zip(_lut_axes(family), counts, strict=True)
    })
    ks = np.arange(-MAX_RADIUS, MAX_RADIUS + 1)
    cells = np.meshgrid(*grid.axes, indexing="ij")
    masses = INTEGER_PMF[family](ks[None, :], *(c.reshape(-1, 1) for c in cells))
    return CdfTableSet.from_rows(-MAX_RADIUS, cumulative_rows(masses),
                                 {"family": family, **grid.to_meta()}), grid


def build_lut_gm(count: int) -> tuple[CdfTableSet, LutGrid]:
    """Log-spaced sigma grid over [0.11, 60]; one full-width table each."""
    return build_lut("gm", count)


def build_lut_ggm(beta_count: int, alpha_count: int) -> tuple[CdfTableSet, LutGrid]:
    """Linear beta grid on [0.5, 3] x log alpha grid on [0.01, 60], row-major."""
    return build_lut("ggm", beta_count, alpha_count)


def _axis_cells(name: str, samples: np.ndarray, values, log: bool) -> np.ndarray:
    """Per value, the number of midpoints between neighbouring samples strictly
    below it, as searchsorted(..., side="left") counts them; see lut_search."""
    if log and not np.all(np.greater(values, 0)):
        raise ValueError(f"LUT search needs every {name} > 0")
    metric = np.log if log else np.asarray
    x = np.asarray(metric(values), np.float64)
    if not log and np.isnan(x).any():
        raise ValueError(f"LUT search needs every {name} to be a number, not NaN")
    edges = metric(samples)
    mids = 0.5 * (edges[:-1] + edges[1:])
    if len(mids) > _COUNTED_MIDPOINTS:
        return np.searchsorted(mids, x, side="left")
    cells = np.zeros(x.shape, np.uint8)
    below = np.empty(x.shape, bool)
    for mid in mids.tolist():
        cells += np.less(mid, x, out=below)
    return cells


def lut_search(grid: LutGrid, params):
    """Table index whose grid sample is nearest to the given parameters.

    params is a tuple or list of one entry per grid axis, in FAMILY_PARAMS
    order ((sigma,) for gm, (beta, alpha) for ggm); scalar entries give an
    int, arrays an int64 index array.

    On each axis the cell is the number of midpoints strictly below the
    value (in log space on the sigma and alpha axes): the nearest sample,
    ties to the smaller index, values beyond either end clamped to it.  An
    axis of at most _COUNTED_MIDPOINTS midpoints counts them, one compare
    per midpoint over all values; a longer axis binary-searches them.
    ValueError for params in any other form, a NaN parameter, or a sigma or
    alpha <= 0.
    """
    if not isinstance(params, (tuple, list)):
        raise ValueError(f"LUT search takes a tuple or list of one parameter per {grid.family} grid axis "
                         f"({', '.join(FAMILY_PARAMS[grid.family])}), not a {type(params).__name__}")
    index = None
    for (name, field, _, log), values in zip(_lut_axes(grid.family), params, strict=True):
        samples = getattr(grid, field)
        cells = _axis_cells(name, samples, values, log)
        if index is None:
            index = np.asarray(cells, np.int64)
        else:
            index *= len(samples)
            index += cells
    return int(index) if np.ndim(index) == 0 else index


def lut_search_gm(grid: LutGrid, sigmas) -> np.ndarray:
    """Nearest sigma sample in log space; out-of-range clamps to the edge."""
    return lut_search(grid, (sigmas,))


def lut_search_ggm(grid: LutGrid, betas, alphas) -> np.ndarray:
    """Per-dimension nearest sample: beta linear, alpha in log space."""
    return lut_search(grid, (betas, alphas))


# ---------------------------------------------------------------------------
# Wire format


def _meta_blob(table_set: CdfTableSet) -> bytes:
    """The JSON metadata blob, length prefix included; empty when the set's
    meta holds only the family."""
    extra = {k: v for k, v in table_set.meta.items() if k != "family"}
    if not extra:
        return b""
    blob = json.dumps(extra, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def _inner(n_coded: np.ndarray) -> np.ndarray:
    """Mask over flat rows of n_coded + 2 entries: every entry but each row's
    leading 0 and final 2^16."""
    ends = np.cumsum(n_coded + 2)
    mask = np.ones(int(ends[-1]) if len(ends) else 0, dtype=bool)
    mask[ends - n_coded - 2] = False
    mask[ends - 1] = False
    return mask


def serialize_table_set(table_set: CdfTableSet) -> bytes:
    """The version-2 wire form of a set; see the module docstring."""
    offsets, n_coded = table_set._offsets, table_set._n_coded
    if len(offsets) and (offsets.min() < -(1 << 31) or offsets.max() >= 1 << 31):
        raise ValueError("table offsets must fit in int32")
    body = b"".join([
        _MAGIC,
        struct.pack("<HBI", _VERSION, _FAMILY_TAGS[table_set.meta["family"]], len(offsets)),
        offsets.astype("<i4").tobytes(),
        n_coded.astype("u1").tobytes(),
        table_set._flat[_inner(n_coded)].astype("<u2").tobytes(),
        _meta_blob(table_set),
    ])
    return body + struct.pack("<I", zlib.crc32(body))


def serialized_size(table_set: CdfTableSet) -> int:
    """len(serialize_table_set(table_set)).  The length of everything but the
    metadata blob is cached on the set; the blob is measured on every call,
    because `meta` is a plain dict that a caller may edit."""
    if table_set._size_without_meta is None:
        table_set._size_without_meta = len(serialize_table_set(table_set)) - len(_meta_blob(table_set))
    return table_set._size_without_meta + len(_meta_blob(table_set))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(f"wanted {n} bytes at {self.pos}, have {len(self.data) - self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next count values of a little-endian dtype, read in place."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype)

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos


def _read_rows(r: _Reader, count: int):
    """(offsets, n_coded, flat) of the tables: all i32 offsets, all u8
    inner counts, then every row's cumulative[1:-1] as u16."""
    offsets = r.array("<i4", count)
    n_coded = r.array("u1", count).astype(np.int64)
    inner = r.array("<u2", int(n_coded.sum()))
    is_inner = _inner(n_coded)
    flat = np.zeros(len(is_inner), dtype=np.int64)
    flat[is_inner] = inner
    flat[np.cumsum(n_coded + 2) - 1] = TOTAL_FREQ
    return offsets, n_coded, flat


def _read_meta(blob: bytes) -> dict:
    try:
        extra = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad metadata blob: {exc}") from exc
    if not isinstance(extra, dict):
        raise ParseError(f"metadata blob holds a {type(extra).__name__}, not an object")
    return extra


def deserialize_table_set(data: bytes) -> CdfTableSet:
    """The set a version-2 payload holds; ParseError (or a subclass) for
    anything else."""
    data = bytes(data)
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise MagicError("bad magic; not a table-set payload")
    version, family_tag, count = struct.unpack("<HBI", r.take(7))
    if version != _VERSION:
        why = "is no longer read" if version == 1 else "is not supported"
        raise VersionError(f"table-set version {version} {why}; rebuild the tables with "
                           "build-tables or train")
    if family_tag not in _TAG_FAMILIES:
        raise ParseError(f"unknown family tag {family_tag}")
    offsets, n_coded, flat = _read_rows(r, count)
    blob = None
    if r.remaining > 4:
        (blob_len,) = struct.unpack("<I", r.take(4))
        blob = r.take(blob_len)
    if r.remaining < 4:
        raise TruncatedError(f"{r.remaining} bytes left for the 4-byte checksum")
    if r.remaining > 4:
        raise TruncatedError(f"{r.remaining - 4} trailing bytes after metadata")
    if zlib.crc32(memoryview(data)[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise ParseError("checksum mismatch: the table set is corrupted")
    meta = {"family": _TAG_FAMILIES[family_tag]}
    if blob is not None:
        meta.update(_read_meta(blob))
    set_ = CdfTableSet.__new__(CdfTableSet)
    try:
        set_._set_arrays(offsets, n_coded, flat, meta)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return set_
