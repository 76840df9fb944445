"""End-to-end coding strategies over shared entropy-coder plumbing.

Three backends cover the trade-off between rate and table cost: dynamic
builds one quantized table per element from its predicted parameters, lut
snaps parameters to a pre-built grid, and switch codes against a small
trained table set through a per-element index grid, optionally dropping
the elements whose index selects a skipped member of the set.

Conventions fixed here and used everywhere: rounding is half away from
zero; coding order is channel-major then row-major; the index grid and
skip mask are never transmitted (both ends derive the grid from shared
side information, and the mask from the grid and the skipped tables);
skipped positions reconstruct as residual 0.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

import numpy as np

from swpc.cdf_tables import CdfTableSet, LutGrid, lut_search, serialized_size, window_tables
from swpc.prob_models import FAMILY_PARAMS, MAX_RADIUS, SUPPORT_RADIUS, check_family_params
from swpc.rans_coder import Bitstream, StreamError, decode_elementwise, encode, encode_elementwise
from swpc.rans_coder import decode as rans_decode

__all__ = [
    "LatentBlock",
    "IndexGrid",
    "SkipMask",
    "CodingReport",
    "round_half_away",
    "harden_index",
    "log_features",
    "backend_dynamic",
    "backend_dynamic_decode",
    "backend_lut",
    "backend_lut_decode",
    "backend_switch",
    "backend_switch_decode",
    "prune_hyper_channels",
    "restore_pruned_channels",
]


def round_half_away(x):
    """Nearest integer with halves going away from zero, as float."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def harden_index(i, m: int):
    """Integer prior index in [1, m]: round(clip(i, 1, m)); NaN has none.
    The work is done in the memory of the int64 result, viewed as float64,
    so no temporary of the input's size is made."""
    if m < 1:
        raise ValueError("m must be >= 1")
    i = np.asarray(i, np.float64)
    if i.size and np.isnan(i.min()):
        raise ValueError("a NaN prior index has no table")
    out = np.empty(i.shape, np.int64)
    x = out.view(np.float64)
    np.clip(i, 1.0, float(m), out=x)
    # on [1, m], round_half_away(x) is floor(x + 0.5), which the cast to int gives;
    # a 1-D cast onto the same memory runs element by element, with no copy
    x += 0.5
    np.copyto(out.reshape(-1), x.reshape(-1), casting="unsafe")
    return int(out) if out.ndim == 0 else out


def log_features(features) -> np.ndarray:
    """The calibration curve's input: the log of each side feature raised to
    at least 1e-12, so that the index a * log_features(f) + c is finite for
    every feature, in training and in coding alike."""
    return np.log(np.maximum(features, 1e-12))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class LatentBlock:
    """A (channels, height, width) grid of quantized residuals.

    means holds the per-element centers (zero in nonzero-center mode, where
    the offsets live inside the element distributions instead);
    side_features is the scalar per-element input to index prediction;
    truth_params optionally carries the exact per-element model parameters
    as arrays keyed by family.
    """

    residuals: np.ndarray
    means: np.ndarray
    side_features: np.ndarray
    truth_params: dict | None = None

    def __post_init__(self):
        res = _frozen(np.array(self.residuals, dtype=np.int64))
        means = _frozen(np.array(self.means, dtype=np.float64))
        feats = _frozen(np.array(self.side_features, dtype=np.float64))
        object.__setattr__(self, "residuals", res)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "side_features", feats)
        if res.ndim != 3:
            raise ValueError("blocks are (channels, height, width)")
        if means.shape != res.shape or feats.shape != res.shape:
            raise ValueError("means and side_features must match the residual shape")
        if not (np.isfinite(means).all() and np.isfinite(feats).all()):
            raise ValueError("means and side_features must be finite")
        if self.truth_params is not None:
            _check_truth(self.truth_params, res.shape)

    @property
    def shape(self) -> tuple:
        return self.residuals.shape

    @property
    def channels(self) -> int:
        return self.residuals.shape[0]

    @property
    def n_elements(self) -> int:
        return self.residuals.size


def _check_truth(params: dict, shape: tuple):
    """The block shape, and per element the rules check_family_params
    states for one model."""
    family = params.get("family")
    names = FAMILY_PARAMS.get(family) if isinstance(family, str) else None
    if names is None:
        raise ValueError(f"unknown truth family {family!r}")
    ndim = len(shape) + ("weights" in names)  # a mixture adds a component axis
    values = [np.asarray(params.get(key)) for key in names]
    for key, arr in zip(names, values):
        if arr.ndim != ndim or arr.shape[:len(shape)] != shape:
            raise ValueError(f"truth_params[{key!r}] does not match the block shape")
    check_family_params(family, values, "truth_params")


@dataclass(frozen=True)
class IndexGrid:
    """Per-element prior indexes: the continuous predictions over a set of
    m tables, hardened once into the zero-based table index coding reads.

    A 2-D M x N set is m = M * N tables with one flat index per element;
    the row-major layout (i-1) * N + (j-1) lives with the prior trainer.
    """

    continuous: np.ndarray
    m: int
    _flat: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cont = _frozen(np.array(self.continuous, dtype=np.float64))
        flat = np.reshape(harden_index(cont, self.m), -1)
        flat -= 1
        object.__setattr__(self, "continuous", cont)
        object.__setattr__(self, "_flat", _frozen(flat))

    @classmethod
    def from_continuous(cls, continuous, m: int) -> "IndexGrid":
        """The grid of continuous indexes, hardened once."""
        return cls(continuous, m)

    @classmethod
    def from_curve(cls, a, c, features, m: int) -> "IndexGrid":
        """The grid of the calibration curve a * log_features(features) + c;
        ValueError when the curve is not finite at some feature."""
        curve = log_features(features)
        with np.errstate(over="ignore", invalid="ignore"):
            curve *= a
            curve += c
        if not np.isfinite(curve).all():
            raise ValueError(f"the calibration curve {a} * log f + {c} is not finite on this block")
        return cls(curve, m)

    @classmethod
    def from_tables(cls, tables, m: int, shape) -> "IndexGrid":
        """The grid whose elements select the given zero-based tables of a
        set of m, laid out in the block shape."""
        tables = np.asarray(tables, dtype=np.int64).reshape(shape)
        if tables.size and not 0 <= tables.min() <= tables.max() < m:
            raise ValueError(f"flat tables must lie in [0, {m})")
        return cls(tables + 1.0, m)

    @property
    def hardened(self) -> np.ndarray:
        """One-based index in [1, m] per element."""
        return _frozen((self._flat + 1).reshape(self.continuous.shape))

    def flat_table_indexes(self) -> np.ndarray:
        """Zero-based table index per element, in coding order (read-only)."""
        return self._flat


@dataclass(frozen=True)
class SkipMask:
    """Per-element decision: 1 codes the element, 0 skips it."""

    hard: np.ndarray

    def __post_init__(self):
        hard = np.asarray(self.hard)
        if not ((hard == 0) | (hard == 1)).all():
            raise ValueError("a skip mask holds only 0 (skip) and 1 (keep)")
        object.__setattr__(self, "hard", _frozen(hard.astype(np.int64)))

    @classmethod
    def from_soft(cls, soft) -> "SkipMask":
        return cls(round_half_away(np.clip(soft, 0.0, 1.0)))

    @classmethod
    def for_tables(cls, indexes: IndexGrid, tables) -> "SkipMask":
        """Skip each element whose hardened index selects one of the given
        zero-based flat tables: the mask a decoder derives from its grid."""
        skipped, count = list(tables), indexes.m
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                   and 0 <= t < count for t in skipped):
            raise ValueError(f"skipped tables must be integers in [0, {count})")
        if len(set(skipped)) != len(skipped):
            raise ValueError("skipped tables must be distinct")
        keep = np.ones(count, dtype=np.int64)
        keep[skipped] = 0
        return cls(keep[indexes.flat_table_indexes()].reshape(indexes.continuous.shape))

    @classmethod
    def keep_all(cls, shape) -> "SkipMask":
        return cls(np.ones(shape, dtype=np.int64))

    @property
    def skip_ratio(self) -> float:
        return float((self.hard == 0).mean()) if self.hard.size else 0.0


@dataclass(frozen=True)
class CodingReport:
    """What one encode (plus optionally one decode) cost.

    bits_per_symbol is total_bits over all block elements, coded or
    skipped, so skip savings show up in it.
    """

    total_bits: int
    bits_per_symbol: float
    table_count: int
    table_bytes: int
    encode_nanos: int
    decode_nanos: int
    skip_ratio: float
    symbols_coded: int
    symbols_skipped: int

    def __post_init__(self):
        total = self.symbols_coded + self.symbols_skipped
        if total:
            expect = self.symbols_skipped / total
            if abs(self.skip_ratio - expect) > 1e-12:
                raise ValueError("skip_ratio must equal skipped / total")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _report(stream: Bitstream, n_total: int, n_coded: int, table_count: int,
            table_bytes: int, encode_nanos: int) -> CodingReport:
    skipped = n_total - n_coded
    return CodingReport(
        total_bits=stream.bit_length,
        bits_per_symbol=stream.bit_length / n_total if n_total else 0.0,
        table_count=table_count,
        table_bytes=int(table_bytes),
        encode_nanos=int(encode_nanos),
        decode_nanos=0,
        skip_ratio=skipped / n_total if n_total else 0.0,
        symbols_coded=n_coded,
        symbols_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Dynamic backend: one table per element


def _flat_truth(truth: dict, shape) -> dict:
    """Truth arrays with the block axes flattened to one element axis."""
    if truth is None:
        raise ValueError("the block carries no truth parameters")
    family = truth["family"]
    out = {"family": family}
    for key in FAMILY_PARAMS[family]:
        arr = np.asarray(truth[key], dtype=np.float64)
        out[key] = arr.reshape((-1,) + arr.shape[len(shape):])
    return out


def _params(truth: dict) -> list:
    return [truth[key] for key in FAMILY_PARAMS[truth["family"]]]


def _dynamic_radii(truth: dict, radius: int | None) -> np.ndarray:
    params = _params(truth)
    if radius is not None:
        if not 1 <= radius <= MAX_RADIUS:
            raise ValueError(f"radius override must be in [1, {MAX_RADIUS}]")
        return np.full(len(params[0]), radius, dtype=np.int64)
    return np.atleast_1d(SUPPORT_RADIUS[truth["family"]](*params))


def _dynamic_chunk_builder(truth: dict, radii: np.ndarray):
    """Chunk-table callback building each element's table at its own radius
    through window_tables; the coder reads a table only through its
    element's row start, so their order in the flat array is free."""
    family, params = truth["family"], _params(truth)

    def chunk(lo, hi):
        r = radii[lo:hi]
        flat, rows = window_tables(family, r, [p[lo:hi] for p in params])
        return flat, None, rows, -r, 2 * r + 1

    return chunk


def backend_dynamic(block: LatentBlock, *, radius: int | None = None):
    """Build a fresh table per element from its true parameters and code.

    Plays the role of an entropy model whose predictions are exact; the
    per-element table construction is the cost being measured.
    """
    t0 = time.perf_counter_ns()
    truth = _flat_truth(block.truth_params, block.shape)
    radii = _dynamic_radii(truth, radius)
    stream = encode_elementwise(block.residuals.ravel(), _dynamic_chunk_builder(truth, radii))
    encode_nanos = time.perf_counter_ns() - t0
    n = block.n_elements
    table_bytes = int(np.sum(2 * radii + 2) * 2)  # 16 bits per stored entry
    return stream, _report(stream, n, n, table_count=n, table_bytes=table_bytes,
                           encode_nanos=encode_nanos)


def backend_dynamic_decode(stream: Bitstream, truth_params: dict, shape, *,
                           radius: int | None = None):
    """Rebuild the same per-element tables and invert the stream."""
    t0 = time.perf_counter_ns()
    truth = _flat_truth(truth_params, shape)
    radii = _dynamic_radii(truth, radius)
    if stream.symbol_count != len(radii):
        raise StreamError(f"stream holds {stream.symbol_count} symbols, the block {len(radii)}")
    flat = decode_elementwise(stream, _dynamic_chunk_builder(truth, radii))
    return flat.reshape(shape), time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# LUT backend: nearest grid sample per element


def _lut_indexes(truth: dict, grid: LutGrid) -> np.ndarray:
    if truth["family"] != grid.family:
        raise ValueError(f"truth family {truth['family']!r} does not match grid family {grid.family!r}")
    return lut_search(grid, _params(truth))


def backend_lut(block: LatentBlock, grid: LutGrid, table_set: CdfTableSet):
    """Snap each element's parameters to the nearest grid table and code."""
    if len(table_set) != grid.n_tables:
        raise ValueError("table set size does not match the grid")
    t0 = time.perf_counter_ns()
    idx = _lut_indexes(_flat_truth(block.truth_params, block.shape), grid)
    stream = encode(block.residuals.ravel(), idx, table_set)
    encode_nanos = time.perf_counter_ns() - t0
    n = block.n_elements
    return stream, _report(stream, n, n, table_count=len(table_set),
                           table_bytes=serialized_size(table_set),
                           encode_nanos=encode_nanos)


def backend_lut_decode(stream: Bitstream, truth_params: dict, grid: LutGrid,
                       table_set: CdfTableSet, shape):
    t0 = time.perf_counter_ns()
    idx = _lut_indexes(_flat_truth(truth_params, shape), grid)
    flat = rans_decode(stream, idx, table_set)
    return flat.reshape(shape), time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Switch backend: trained table set through an index grid, optional skip


def _switch_check(indexes: IndexGrid, shape, table_set: CdfTableSet):
    if indexes.continuous.shape != shape:
        raise ValueError("index grid shape must match the block")
    if indexes.m != len(table_set):
        raise ValueError("index grid table count does not match the table set")


def backend_switch(block: LatentBlock, indexes: IndexGrid,
                   mask: SkipMask | None, table_set: CdfTableSet):
    """Code against a small trained set; skip elements the mask zeroes."""
    _switch_check(indexes, block.shape, table_set)
    if mask is not None and mask.hard.shape != block.shape:
        raise ValueError("mask shape must match the block")
    t0 = time.perf_counter_ns()
    idx = indexes.flat_table_indexes()
    symbols = block.residuals.ravel()
    if mask is not None:
        kept = mask.hard.ravel() == 1
        symbols = symbols[kept]
        idx = idx[kept]
    stream = encode(symbols, idx, table_set)
    encode_nanos = time.perf_counter_ns() - t0
    return stream, _report(stream, block.n_elements, len(symbols),
                           table_count=len(table_set),
                           table_bytes=serialized_size(table_set),
                           encode_nanos=encode_nanos)


def backend_switch_decode(stream: Bitstream, indexes: IndexGrid,
                          mask: SkipMask | None, table_set: CdfTableSet, shape):
    """Invert backend_switch; skipped positions come back as residual 0."""
    _switch_check(indexes, tuple(shape), table_set)
    t0 = time.perf_counter_ns()
    idx = indexes.flat_table_indexes()
    if mask is None:
        return rans_decode(stream, idx, table_set).reshape(shape), time.perf_counter_ns() - t0
    kept = mask.hard.ravel() == 1
    out = np.zeros(int(np.prod(shape)), dtype=np.int64)
    out[kept] = rans_decode(stream, idx[kept], table_set)
    return out.reshape(shape), time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Hyperlatent channel pruning


def _sliced_truth(truth: dict | None, keep: np.ndarray) -> dict | None:
    if truth is None:
        return None
    out = {"family": truth["family"]}
    for key, value in truth.items():
        if key != "family":
            out[key] = np.asarray(value)[keep]
    return out


def prune_hyper_channels(block: LatentBlock, channel_mask) -> LatentBlock:
    """Drop channels whose mask entry is 0, preserving order."""
    mask = np.asarray(channel_mask).astype(bool)
    if mask.shape != (block.channels,):
        raise ValueError("channel_mask length must equal the channel count")
    keep = np.nonzero(mask)[0]
    return LatentBlock(
        residuals=block.residuals[keep],
        means=block.means[keep],
        side_features=block.side_features[keep],
        truth_params=_sliced_truth(block.truth_params, keep),
    )


def restore_pruned_channels(block: LatentBlock, channel_mask) -> LatentBlock:
    """Undo pruning: pruned channels come back all-zero."""
    mask = np.asarray(channel_mask).astype(bool)
    if int(mask.sum()) != block.channels:
        raise ValueError("channel_mask keep-count must equal the pruned channel count")
    shape = (len(mask),) + block.shape[1:]
    residuals = np.zeros(shape, dtype=np.int64)
    means = np.zeros(shape, dtype=np.float64)
    feats = np.zeros(shape, dtype=np.float64)
    keep = np.nonzero(mask)[0]
    residuals[keep] = block.residuals
    means[keep] = block.means
    feats[keep] = block.side_features
    return LatentBlock(residuals=residuals, means=means, side_features=feats)
