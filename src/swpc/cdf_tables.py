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

from swpc.prob_models import (FAMILY_PARAMS, MAX_RADIUS, WINDOW_PMF, ProbModel, check_family_params,
                              pmf_integer)

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
    "window_tables",
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
        """A set from a 2-D array of equal-length cumulative rows and their
        offsets (one, or one per row)."""
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


def _first_in_order(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mask of each row's counts[i] smallest keys.  Every count is at least
    1 and below the row length, and a row's counts[i]-th smallest key equals
    none of its other keys.  A sort of the int64 keys beats a partition and
    a sort of the partition's head (numpy 2.4's SIMD sort)."""
    cut = np.sort(keys, axis=-1)[np.arange(len(keys)), counts - 1]
    return keys <= cut[:, None]


# A remainder of an interval not raised to 1 is a multiple of 2^-52 below 1
# (its share is at least 1), so remainder * 2^62 is an exact multiple of 2^10
# below 2^62.  With the interval's position (at most 256) added, one int64
# key orders a row by remainder and its ties by position, and no two of a
# row's keys are equal.  A raised interval's remainder, its share less 1,
# is at most -2^-53: scaled, at most -2^9.
_REM_SCALE = 2.0 ** 62
_NEVER = 1 << 62  # above every key of an interval that may be picked


def allocate_frequencies(masses: np.ndarray) -> np.ndarray:
    """Round rows of nonnegative masses to integer frequencies summing 2^16.

    Each interval gets the floor of its proportional share of 2^16, raised
    to 1 where that floor is zero.  Any counts still owed go to the largest
    fractional remainders (ties toward the earlier position); counts
    over-committed by the raise-to-1 step are taken back from the smallest
    remainders among intervals that can spare them.  Rows are independent;
    a zero row falls back to uniform.  ValueError on a NaN or negative mass,
    or on a row whose total is not finite.
    """
    masses = np.asarray(masses, dtype=np.float64)
    squeeze = masses.ndim == 1
    if squeeze:
        masses = masses[None, :]
    n_int = masses.shape[-1]
    if n_int > 256:
        raise CapacityError(f"{n_int} intervals exceed the 256 cap")
    with np.errstate(over="ignore"):  # a total past float range is refused, not warned about
        total = masses.sum(axis=-1, keepdims=True)
    freqs = _allocate(masses, total)
    return freqs[0] if squeeze else freqs


def _check_masses(masses, total):
    """ValueError naming the fault unless every mass is a nonnegative number
    and every row total (a column) is finite: one min and one total check."""
    low = masses.min(initial=0.0)
    if low >= 0 and np.isfinite(total).all():
        return
    if np.isnan(low):
        raise ValueError("masses must be numbers, not NaN")
    if low < 0:
        raise ValueError(f"masses must be nonnegative, got {low}")
    raise ValueError("a row of masses has no finite total: an infinite mass, or a sum past float range")


def _allocate(masses, total, outside=0):
    """allocate_frequencies of rows of masses that sum to `total` (a column).
    With `outside` (one count per row), row i's intervals are all but
    outside[i] zero entries, which keep a count of 1 that is no part of the
    row's 2^16 and that the caller does not read; such a row's total may
    not be 0.

    One pass takes each share's floor, raised to 1, and its remainder; only
    the rows with counts to give or to take back go on.  Giving picks each
    row's largest remainders with one sort of unique int64 keys.  Taking
    back settles most rows in closed form, owe // spare full rounds, and
    bisects only where an interval runs dry first; the last, partial round
    picks the smallest remainders as giving does."""
    _check_masses(masses, total)
    zero = np.flatnonzero(total <= 0)
    raw = masses / np.where(total > 0, total, 1.0)
    if zero.size:
        raw[zero] = 1.0 / masses.shape[-1]
    raw *= TOTAL_FREQ
    freqs = raw.astype(np.int64)  # the floor of a nonnegative share
    np.maximum(freqs, 1, out=freqs)
    # each interval's remainder: its fraction unless it was raised to 1, when
    # it is negative, below every fraction
    rem = np.subtract(raw, freqs, out=raw)
    pos = np.arange(masses.shape[-1])  # the tie-break of the keys
    sums = freqs.sum(axis=-1)
    deficit = TOTAL_FREQ - sums + np.ravel(outside)
    # only the rows with counts left to give, or to take back, are looked at
    rows = np.flatnonzero(deficit > 0)
    if rows.size:
        # largest remainders first; raised intervals (and those outside the
        # window) are never taken, as a row owes fewer counts than it has
        # other intervals
        keys = np.subtract(pos, (rem[rows] * _REM_SCALE).astype(np.int64))
        freqs[rows] += _first_in_order(keys, deficit[rows])
    rows = np.flatnonzero(deficit < 0)
    if rows.size:
        # take back round-robin from smallest remainders, 1 per interval per
        # round, never below 1 count: rounds solved in closed form.  After L
        # full rounds a row keeps sum(max(f - L, 1)) of its counts f, and the
        # rounds fit while that is at least what it must keep.  The spare
        # capacity 2^16 + owe - n exceeds owe, so some interval can spare a
        # count, and owe + 1 rounds would take more than owe.
        f = freqs[rows]
        owe = -deficit[rows]
        need = sums[rows] - owe
        # while no interval runs dry, a round takes one count from each of
        # the `spare` intervals: owe // spare rounds fit, and one more fits
        # only past an interval that runs dry, so most rows settle here
        lo = owe // (f > 1).sum(axis=-1)
        kept = np.maximum(f - lo[:, None], 1)
        more = np.flatnonzero(np.maximum(kept - 1, 1).sum(axis=-1) >= need)
        if more.size:
            # the rest bisect over [lo + 1, owe] for the most rounds that fit
            c, o = f[more], need[more]
            a, b = lo[more] + 1, owe[more]
            while np.any(a < b):
                mid = (a + b + 1) >> 1
                fits = np.maximum(c - mid[:, None], 1).sum(axis=-1) >= o
                a = np.where(fits, mid, a)
                b = np.where(fits, b, mid - 1)
            kept[more] = np.maximum(c - a[:, None], 1)
        left = kept.sum(axis=-1) - need
        # the last, partial round: fewer than the intervals it could take from
        last = np.flatnonzero(left)
        if last.size:
            keys = np.where(kept[last] > 1, (rem[rows[last]] * _REM_SCALE).astype(np.int64) + pos, _NEVER)
            kept[last] -= _first_in_order(keys, left[last])
        freqs[rows] = kept
    return freqs


def cumulative_rows(masses: np.ndarray, radii, out=None) -> np.ndarray:
    """Cumulative rows (leading 0, coded bins, tail) for rows of bin masses;
    the tail takes the mass left over, then allocate_frequencies rounds.

    The rows are windows over k = [-R..R] (2R + 1 columns), with one radius
    per row: row i's bins are [-radii[i], radii[i]] only, so its table has
    2 radii[i] + 3 entries.  The tables come back to back in one flat array,
    in row order, or are written into the flat array `out`.  A row's columns
    outside its window are never read.  Each row's sums run over its own
    bins in order, so a row gets the same table whatever the other rows
    are.  ValueError unless the width is odd and radii holds one integer in
    [0, R] per row, and on a NaN or negative bin or a row whose total is not
    finite.

    The rows are copied left-aligned into one array, a lead cell before
    each: every run of rows with one radius takes its sums, and its
    cumulative rows are one running sum from the lead cell on.
    """
    masses = np.asarray(masses, dtype=np.float64)
    n, width = masses.shape
    if width + 1 > 256:
        raise CapacityError(f"{width + 1} intervals exceed the 256 cap")
    radii = np.asarray(radii)
    if (radii.shape != (n,) or (n and radii.dtype.kind not in "iu") or width % 2 == 0
            or np.any(radii < 0) or np.any(radii > width // 2)):
        raise ValueError(f"radii must be integers in [0, {width // 2}], one per row of odd width {width}")
    count = 2 * radii.astype(np.int64) + 1
    bounds = [0, *(np.flatnonzero(np.diff(count)) + 1).tolist(), n]
    runs = [(i, j, int(count[i])) for i, j in zip(bounds[:-1], bounds[1:]) if i < j]
    # row i, left-aligned: a lead cell, its bins, its tail, then zeros
    padded = np.zeros((n, width + 2))
    total = np.empty((n, 1))
    with np.errstate(over="ignore"):  # a total past float range is refused, not warned about
        for i, j, c in runs:  # rows with one window
            bins = padded[i:j, 1 : c + 1]
            bins[:] = masses[i:j, (width - c) // 2 : (width + c) // 2]
            bins.sum(axis=-1, out=total[i:j, 0])
        # each row's tail, then its total over bins and tail
        padded[np.arange(n), count + 1] = np.maximum(0.0, 1.0 - total[:, 0])
        for i, j, c in runs:
            padded[i:j, 1 : c + 2].sum(axis=-1, out=total[i:j, 0])
    freqs = _allocate(padded, total, width - count + 1)
    freqs[:, 0] = 0  # each row's leading 0
    if out is None:
        out = np.empty(int(np.sum(count + 2)), np.int64)
    start = 0
    for i, j, c in runs:
        block = out[start : start + (j - i) * (c + 2)].reshape(j - i, c + 2)
        np.cumsum(freqs[i:j, : c + 2], axis=-1, out=block)
        start += block.size
    return out


# Cells (rows times the widest row's 2r + 2) per batch of window_tables: a
# batch's float64 temporaries are 256 KiB each (a mixture's masses, one per
# component), whatever the radii.  On the seed-1 (4,64,64) ggm block, 2^14,
# 2^15 and 2^16 cells built the dynamic tables in 68, 65 and 65 ms on one
# core of a 2-vCPU Xeon (numpy 2.4, scipy 1.17; 40 ms of each is the
# incomplete gamma), at tracemalloc peaks of 6.3, 7.0 and 8.7 MiB per
# dynamic encode.
_BATCH_CELLS = 1 << 15


def window_tables(family: str, radii, params) -> tuple[np.ndarray, np.ndarray]:
    """(flat, rows): table i over the bins [-radii[i], radii[i]] plus tail,
    for the parameters params[.][i] (one array per FAMILY_PARAMS name),
    starts at flat[rows[i]].  The tables lie in a stable sort by radius and
    are built in batches of at most _BATCH_CELLS cells, one WINDOW_PMF and
    one cumulative_rows call each; a table's bytes depend on its row only.
    ParameterDomainError unless the parameters pass check_family_params;
    ValueError on a negative radius, CapacityError on one past MAX_RADIUS."""
    radii = np.asarray(radii, np.int64)
    params = [np.asarray(p, np.float64) for p in params]
    check_family_params(family, params)
    window = WINDOW_PMF[family]
    if radii.size and radii.min() < 0:
        raise ValueError("radii must be >= 0")
    if radii.size and radii.max() > MAX_RADIUS:
        raise CapacityError(f"radius {radii.max()} needs {2 * radii.max() + 1} coded symbols; cap is 255")
    order = np.argsort(radii.astype(np.uint8), kind="stable")  # a radix sort
    sorted_r = radii[order]
    lengths = 2 * sorted_r + 3  # cumulative entries per table
    ends = np.cumsum(lengths)
    flat = np.empty(int(lengths.sum()), np.int64)
    rows = np.empty_like(ends)
    rows[order] = ends - lengths
    b = 0
    while b < len(order):
        # the most rows whose count times the last one's 2r + 2 fits (a
        # single row has at most 256 cells)
        cells = np.arange(1, len(order) - b + 1) * (lengths[b:] - 1)
        e = b + int(np.searchsorted(cells, _BATCH_CELLS, side="right"))
        masses = window(sorted_r[b:e], *(p[order[b:e]][:, None] for p in params))
        cumulative_rows(masses, sorted_r[b:e], flat[ends[b] - lengths[b] : ends[e - 1]])
        b = e
    return flat, rows


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
    """Vectorized quantize_pmf: one table per row of the 2 radius + 1
    coded-bin masses over [-radius, radius]; ValueError at another width,
    and on the masses cumulative_rows refuses."""
    n, width = np.shape(masses)
    if width != 2 * radius + 1:
        raise ValueError(f"rows of {width} masses are not the {2 * radius + 1} bins of radius {radius}")
    rows = cumulative_rows(masses, np.full(n, radius)).reshape(n, width + 2)
    return [QuantizedCdfTable(offset=-radius, cumulative=c) for c in rows]


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
    cells = np.meshgrid(*grid.axes, indexing="ij")
    flat, _ = window_tables(family, np.full(grid.n_tables, MAX_RADIUS), [c.ravel() for c in cells])
    return CdfTableSet.from_rows(-MAX_RADIUS, flat.reshape(grid.n_tables, -1),
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
