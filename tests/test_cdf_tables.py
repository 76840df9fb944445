"""Tables, LUT grids, search, and the wire format.

The allocator is checked against an independent pure-Python largest-remainder
implementation written here from the documented rule, and against frozen
tables computed once from the bin-mass oracles in test_prob_models.
"""

import hashlib
import json
import math
import struct
import time
import warnings
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swpc.cdf_tables as ct
from swpc.cdf_tables import (
    GGM_ALPHA_RANGE,
    GGM_BETA_RANGE,
    GM_SIGMA_RANGE,
    CapacityError,
    CdfTableSet,
    LutGrid,
    MagicError,
    ParseError,
    QuantizedCdfTable,
    TableInvariantError,
    TruncatedError,
    VersionError,
    allocate_frequencies,
    build_lut_ggm,
    build_lut_gm,
    deserialize_table_set,
    lut_search,
    lut_search_ggm,
    lut_search_gm,
    quantize_pmf,
    serialize_table_set,
    serialized_size,
    table_set_16bit_bytes,
    tables_from_masses,
)
from swpc.prob_models import ProbModel, gaussian_integer_pmf, ggm_integer_pmf
from wire_v1 import serialize_v1

TOTAL = 1 << 16

# Frozen once from this module's own builders after verifying them against the
# independent allocator below and the bin-mass oracles; guards regressions.
SIGMA1_R5_FREQS = [1, 15, 391, 3971, 15842, 25095, 15842, 3971, 391, 15, 1, 1]
GM_M3_MIDDLE = 2.569046515733026  # exp((log 0.11 + log 60) / 2) = sqrt(6.6)
# 11 header + 4 offset + 1 count + 3 inner entries * 2 bytes + 4 checksum
SINGLE_R1_PAYLOAD_LEN = 26


def lr_allocate(masses):
    """Independent largest-remainder oracle with a floor of 1 per interval.

    Floors of the 2^16-proportional targets, raised to 1; leftover counts to
    the largest remainders (ties to the earlier position); counts
    over-committed by the raise repaid from the smallest remainders,
    round-robin, never below 1.
    """
    n = len(masses)
    total = sum(masses)
    p = [m / total for m in masses] if total > 0 else [1.0 / n] * n
    raw = [TOTAL * q for q in p]
    base = [math.floor(r) for r in raw]
    frac = [r - b for r, b in zip(raw, base)]
    f = [max(1, b) for b in base]
    deficit = TOTAL - sum(f)
    if deficit > 0:
        eligible = sorted((i for i in range(n) if base[i] >= 1), key=lambda i: (-frac[i], i))
        for i in eligible[:deficit]:
            f[i] += 1
    owe = -min(deficit, 0)
    while owe > 0:
        eligible = sorted((i for i in range(n) if f[i] >= 2), key=lambda i: (frac[i], i))
        for i in eligible[: min(owe, len(eligible))]:
            f[i] -= 1
        owe -= min(owe, len(eligible))
    return f


# ---------------------------------------------------------------------------
# Allocation and quantization


def test_point_mass_gets_everything_but_floors():
    table = quantize_pmf(ProbModel.gaussian(0.01), 1)
    assert np.diff(table.cumulative).tolist() == [1, 65533, 1, 1]
    assert table.offset == -1
    assert table.n_coded == 3


def test_gaussian_r5_frozen_table():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    assert np.diff(table.cumulative).tolist() == SIGMA1_R5_FREQS


def test_gaussian_r5_tracks_bin_masses_within_2_counts():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    masses = gaussian_integer_pmf(np.arange(-5, 6), 1.0)
    widths = np.diff(table.cumulative)[:-1] / TOTAL
    assert np.max(np.abs(widths - masses)) <= 2 / TOTAL


def test_symmetric_model_symmetric_intervals():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    coded = np.diff(table.cumulative)[:-1]
    assert coded.tolist() == coded[::-1].tolist()


def test_symmetric_model_pair_gap_at_most_one():
    # equal masses can still be split by one count when the leftover budget
    # lands on exactly one member of a tied pair
    for sigma in (0.3, 0.5, 1.0, 2.0, 3.3, 7.0, 19.0, 44.0):
        table = quantize_pmf(ProbModel.gaussian(sigma), 40)
        coded = np.diff(table.cumulative)[:-1]
        assert np.max(np.abs(coded - coded[::-1])) <= 1


def test_total_variation_bound():
    for model, radius in [
        (ProbModel.gaussian(0.7), 5),
        (ProbModel.generalized_gaussian(1.2, 3.0), 20),
        (ProbModel.mixture((0.4, 0.6), (-2.0, 3.0), (0.8, 2.5)), 30),
    ]:
        table = quantize_pmf(model, radius)
        ks = np.arange(-radius, radius + 1)
        if model.family == "gm":
            masses = gaussian_integer_pmf(ks, model.params.sigma)
        elif model.family == "ggm":
            masses = ggm_integer_pmf(ks, model.params.beta, model.params.alpha)
        else:
            from swpc.prob_models import gmm_integer_pmf

            masses = gmm_integer_pmf(ks, model.params.weights, model.params.means, model.params.sigmas)
        tail = max(0.0, 1.0 - masses.sum())
        target = np.concatenate([masses, [tail]])
        tv = 0.5 * np.sum(np.abs(np.diff(table.cumulative) / TOTAL - target))
        assert tv <= (len(table.cumulative) - 1) / TOTAL


def test_allocate_matches_independent_oracle():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(3, 257))
        style = trial % 4
        if style == 0:
            m = rng.gamma(0.4, 1.0, n) * (rng.random(n) < 0.8)
        elif style == 1:
            m = np.full(n, 1e-12)
            m[rng.integers(n)] = 1.0
        elif style == 2:
            m = np.full(n, 1e-9)
            m[rng.integers(n, size=3)] = rng.random(3) + 0.1
        else:
            m = rng.random(n)
        assert allocate_frequencies(m).tolist() == lr_allocate(list(m))


def test_allocate_batch_rows_independent():
    rng = np.random.default_rng(3)
    rows = rng.random((17, 41))
    batch = allocate_frequencies(rows)
    for i in range(len(rows)):
        assert batch[i].tolist() == allocate_frequencies(rows[i]).tolist()


def test_allocate_mixed_batch_matches_oracle():
    # one batch of rows that owe counts back (many bumped tiny masses), rows
    # that are given counts, and balanced rows: each equals its own oracle
    rng = np.random.default_rng(12)
    n = 64
    rows = [np.full(n, 1.0 / n), np.zeros(n), np.repeat([3.0, 1.0], n // 2)]
    for tiny in range(0, n, 2):
        m = rng.random(n)
        m[rng.choice(n, tiny, replace=False)] = 1e-9
        rows.append(m)
        one_big = np.full(n, 1e-9)
        one_big[rng.choice(n, n - tiny, replace=False)[:max(1, n - tiny) // 8 + 1]] = 1.0
        rows.append(one_big)
    rows = np.array(rows)
    total = rows.sum(axis=1, keepdims=True)
    norm = np.where(total > 0, rows / np.where(total > 0, total, 1.0), 1.0 / n)
    deficit = TOTAL - np.maximum(np.floor(TOTAL * norm), 1).sum(axis=1)
    assert (deficit > 0).any() and (deficit == 0).sum() == 3 and -deficit.min() >= 50
    batch = allocate_frequencies(rows)
    for row, freqs in zip(rows, batch):
        assert freqs.tolist() == lr_allocate(list(row))


def test_allocate_uniform_and_zero_rows():
    assert allocate_frequencies(np.full(256, 1 / 256)).tolist() == [256] * 256
    assert allocate_frequencies(np.zeros(8)).tolist() == [8192] * 8


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=256)
)
def test_allocate_invariants(masses):
    freqs = allocate_frequencies(np.array(masses))
    assert freqs.sum() == TOTAL
    assert freqs.min() >= 1


def test_allocate_capacity_error():
    with pytest.raises(CapacityError):
        allocate_frequencies(np.ones(257))


def test_quantize_radius_errors():
    with pytest.raises(CapacityError):
        quantize_pmf(ProbModel.gaussian(1.0), 128)
    with pytest.raises(ValueError):
        quantize_pmf(ProbModel.gaussian(1.0), 0)


def test_tables_from_masses_matches_scalar_path():
    sigmas = np.array([0.4, 1.0, 9.0])
    ks = np.arange(-16, 17)
    masses = gaussian_integer_pmf(ks[None, :], sigmas[:, None])
    batch = tables_from_masses(masses, 16)
    for sigma, table in zip(sigmas, batch):
        assert table == quantize_pmf(ProbModel.gaussian(float(sigma)), 16)


def test_quantize_deterministic():
    a = quantize_pmf(ProbModel.generalized_gaussian(1.3, 2.0), 25)
    b = quantize_pmf(ProbModel.generalized_gaussian(1.3, 2.0), 25)
    assert a == b
    assert serialize_table_set(CdfTableSet([a], {"family": "ggm"})) == serialize_table_set(
        CdfTableSet([b], {"family": "ggm"})
    )


# ---------------------------------------------------------------------------
# Table object invariants


def test_table_validation_errors():
    with pytest.raises(TableInvariantError):
        QuantizedCdfTable(0, np.array([0, TOTAL]))  # no tail possible
    with pytest.raises(TableInvariantError):
        QuantizedCdfTable(0, np.concatenate([[0], np.arange(1, 258), [TOTAL]]))
    with pytest.raises(TableInvariantError):
        QuantizedCdfTable(0, np.array([1, 5, TOTAL]))
    with pytest.raises(TableInvariantError):
        QuantizedCdfTable(0, np.array([0, 5, TOTAL - 1]))
    with pytest.raises(TableInvariantError):
        QuantizedCdfTable(0, np.array([0, 5, 5, TOTAL]))


def test_table_accessors():
    table = quantize_pmf(ProbModel.gaussian(1.0), 5)
    assert (table.lo, table.hi) == (-5, 5)
    assert table.n_coded == 11
    assert not table.cumulative.flags.writeable


def test_flat_view_lut_and_ragged_sets():
    set_ = build_lut_gm(4)[0]
    flat, flat_list, rows, offsets, n_coded = set_.flat_view()
    assert offsets.tolist() == [-127] * 4
    assert n_coded.tolist() == [255] * 4
    assert rows.tolist() == [0, 257, 514, 771]
    assert flat_list == flat.tolist()
    for t, table in enumerate(set_):
        assert np.array_equal(flat[rows[t]:rows[t] + 257], table.cumulative)
    assert set_.flat_view() is set_.flat_view()

    ragged = CdfTableSet(
        [quantize_pmf(ProbModel.gaussian(1.0), 5), quantize_pmf(ProbModel.gaussian(1.0), 6)]
    )
    flat, _, rows, offsets, n_coded = ragged.flat_view()
    assert offsets.tolist() == [-5, -6]
    assert n_coded.tolist() == [11, 13]
    assert rows.tolist() == [0, 13]
    assert len(flat) == 13 + 15
    assert np.array_equal(flat[13:], ragged[1].cumulative)


def test_slot_lookup_matches_a_search():
    set_ = CdfTableSet(
        [quantize_pmf(ProbModel.gaussian(1.0), 5), build_lut_gm(3)[0][2]]  # 12 and 256 slots
    )
    lookup = set_.slot_lookup()
    assert lookup.shape == (2, TOTAL) and lookup.dtype == np.uint8
    v = np.arange(TOTAL)
    for t, table in enumerate(set_):
        assert np.array_equal(lookup[t], np.searchsorted(table.cumulative, v, side="right") - 1)
    assert set_.slot_lookup() is lookup


# ---------------------------------------------------------------------------
# LUT grids


def test_gm_grid_m2_is_exactly_the_range():
    set_, grid = build_lut_gm(2)
    assert grid.sigmas.tolist() == [GM_SIGMA_RANGE[0], GM_SIGMA_RANGE[1]]
    assert len(set_) == 2


def _grid_model(grid: LutGrid, index: int) -> ProbModel:
    """The model at a flat table index: row-major over the grid's axes."""
    cell = np.unravel_index(index, [len(samples) for samples in grid.axes])
    return ProbModel.from_values(grid.family, [samples[i] for samples, i in zip(grid.axes, cell)])


def test_gm_grid_m3_middle_sample():
    _, grid = build_lut_gm(3)
    assert grid.sigmas[1] == pytest.approx(GM_M3_MIDDLE, rel=0, abs=1e-15)
    assert grid.sigmas[0] == GM_SIGMA_RANGE[0]
    assert grid.sigmas[2] == GM_SIGMA_RANGE[1]


def test_gm_grid_sorted_and_tables_match_quantize():
    set_, grid = build_lut_gm(6)
    assert np.all(np.diff(grid.sigmas) > 0)
    for i in (0, 3, 5):
        assert set_[i] == quantize_pmf(_grid_model(grid, i), 127)


def test_ggm_grid_corners_row_major():
    set_, grid = build_lut_ggm(2, 2)
    assert len(set_) == 4
    pairs = [(_grid_model(grid, i).params.beta, _grid_model(grid, i).params.alpha) for i in range(4)]
    assert pairs == [
        (GGM_BETA_RANGE[0], GGM_ALPHA_RANGE[0]),
        (GGM_BETA_RANGE[0], GGM_ALPHA_RANGE[1]),
        (GGM_BETA_RANGE[1], GGM_ALPHA_RANGE[0]),
        (GGM_BETA_RANGE[1], GGM_ALPHA_RANGE[1]),
    ]
    assert set_[2] == quantize_pmf(_grid_model(grid, 2), 127)


def test_grid_count_and_shape_errors():
    with pytest.raises(ValueError):
        build_lut_gm(1)
    with pytest.raises(ValueError):
        build_lut_ggm(1, 4)
    with pytest.raises(ValueError):
        build_lut_ggm(4, 1)
    with pytest.raises(ValueError):
        LutGrid("gm", sigmas=np.array([1.0]))
    with pytest.raises(ValueError):
        LutGrid("gm", sigmas=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        LutGrid("gmm")


def test_grid_meta_roundtrip():
    _, grid = build_lut_ggm(3, 4)
    back = LutGrid.from_meta("ggm", grid.to_meta())
    assert back.betas.tolist() == grid.betas.tolist()
    assert back.alphas.tolist() == grid.alphas.tolist()
    _, gm = build_lut_gm(5)
    assert LutGrid.from_meta("gm", gm.to_meta()).sigmas.tolist() == gm.sigmas.tolist()


# ---------------------------------------------------------------------------
# LUT search


def test_search_log_nearest_and_clamp():
    grid = LutGrid("gm", sigmas=np.array(GM_SIGMA_RANGE))
    assert lut_search(grid, (0.2,)) == 0
    assert lut_search(grid, (1000.0,)) == 1
    assert lut_search(grid, (0.001,)) == 0
    assert lut_search(grid, (60.0,)) == 1
    assert lut_search(grid, (0.11,)) == 0


def test_search_tie_breaks_to_smaller_index():
    grid = LutGrid("gm", sigmas=np.array([1.0, 4.0]))
    # 2.0 is the exact log-midpoint of 1 and 4
    assert lut_search(grid, [2.0]) == 0


@pytest.mark.parametrize("params", [
    ProbModel.gaussian(5.0), np.array([5.0]), np.array([1.0, 5.0, 30.0]), np.array([[1.0, 5.0, 30.0]]),
    5.0,
], ids=["model", "one-element-array", "bare-array", "row-per-axis-array", "scalar"])
def test_search_takes_only_a_tuple_or_list_per_axis(params):
    # a bare array was read as one parameter per element: [5.0] gave a table
    # silently and three sigmas a zip() error
    with pytest.raises(ValueError, match="tuple or list of one parameter per gm grid axis"):
        lut_search(build_lut_gm(40)[1], params)


@pytest.mark.parametrize("family, params", [("gm", (1.0, 2.0)), ("ggm", (1.0,)), ("ggm", (1.0, 2.0, 3.0))])
def test_search_parameter_count_must_match_axes(family, params):
    # one parameter per grid axis: none may be dropped or ignored
    grid = build_lut_gm(2)[1] if family == "gm" else build_lut_ggm(2, 2)[1]
    with pytest.raises(ValueError):
        lut_search(grid, params)


def test_gm_search_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    grid = LutGrid("gm", sigmas=np.exp(np.linspace(np.log(0.11), np.log(60.0), 23)))
    sigmas = np.exp(rng.uniform(np.log(0.05), np.log(120.0), 10_000))
    got = lut_search_gm(grid, sigmas)
    dist = np.abs(np.log(sigmas)[:, None] - np.log(grid.sigmas)[None, :])
    want = np.argmin(dist, axis=1)  # first minimum: the smaller index on ties
    assert np.array_equal(got, want)
    assert np.array_equal(lut_search(grid, (sigmas,)), want)


def test_ggm_search_matches_exhaustive_scan():
    rng = np.random.default_rng(6)
    grid = LutGrid(
        "ggm",
        betas=np.linspace(0.5, 3.0, 7),
        alphas=np.exp(np.linspace(np.log(0.01), np.log(60.0), 11)),
    )
    betas = rng.uniform(0.3, 3.5, 10_000)
    alphas = np.exp(rng.uniform(np.log(0.005), np.log(100.0), 10_000))
    got = lut_search_ggm(grid, betas, alphas)
    bi = np.argmin(np.abs(betas[:, None] - grid.betas[None, :]), axis=1)
    ai = np.argmin(np.abs(np.log(alphas)[:, None] - np.log(grid.alphas)[None, :]), axis=1)
    assert np.array_equal(got, bi * len(grid.alphas) + ai)
    assert np.array_equal(lut_search(grid, (betas, alphas)), got)


def _probes(samples: np.ndarray, log: bool) -> np.ndarray:
    """Values around every midpoint of an axis, and beyond both ends.

    On a linear axis: each midpoint exactly and one ulp either side.  On a
    log axis a float rarely has its log exactly on a midpoint, so: every
    float from the last whose log lies below the midpoint to the first whose
    log lies above it, stepping an ulp at a time from exp(midpoint)."""
    edges = np.log(samples) if log else samples
    values = []
    for mid in (0.5 * (edges[:-1] + edges[1:])).tolist():
        if not log:
            values += [np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf)]
            continue
        lo = hi = math.exp(mid)
        while math.log(lo) >= mid:
            lo = np.nextafter(lo, 0.0)
        while math.log(hi) <= mid:
            hi = np.nextafter(hi, np.inf)
        while lo <= hi:
            values.append(lo)
            lo = np.nextafter(lo, np.inf)
    below = [samples[0] / 3, 5e-324] if log else [samples[0] - 1.0, -np.inf]
    values += below + [samples[-1] * 3, 1.7e308, np.inf]
    return np.array(values, np.float64)


def _nearest(samples: np.ndarray, values: np.ndarray, log: bool) -> list[int]:
    """Brute force over every sample: the one nearest each value in exact
    arithmetic (in log space on a log axis), ties to the smaller index.  The
    boundary the search uses is the rounded midpoint 0.5 * (e[i] + e[i+1]),
    which can sit an ulp off the exact one: a value between the two goes by
    the rounded midpoint, and one on it to the smaller index."""
    edges = (np.log(samples) if log else samples).tolist()
    mids = (0.5 * (np.array(edges[:-1]) + np.array(edges[1:]))).tolist()
    exact = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(edges, edges[1:])]
    out = []
    for x in (np.log(values) if log else values).tolist():
        if math.isinf(x):
            out.append(0 if x < 0 else len(edges) - 1)
            continue
        dist = [abs(Fraction(x) - Fraction(e)) for e in edges]
        want = dist.index(min(dist))
        for i in (want - 1, want):  # the midpoints either side of the nearest sample
            if 0 <= i < len(mids) and min(Fraction(mids[i]), exact[i]) <= x <= max(Fraction(mids[i]), exact[i]):
                want = i if x <= mids[i] else i + 1
        out.append(want)
    return out


def _geometric(lo: float, hi: float, count: int) -> np.ndarray:
    return np.exp(np.linspace(np.log(lo), np.log(hi), count))


SEARCH_GRIDS = {
    "ggm-5x10": lambda: build_lut_ggm(5, 10)[1],
    "gm-40": lambda: build_lut_gm(40)[1],
    "gm-2": lambda: build_lut_gm(2)[1],
    "gm-longest-counted": lambda: LutGrid("gm", sigmas=_geometric(0.11, 60.0, ct._COUNTED_MIDPOINTS + 1)),
    "gm-300": lambda: build_lut_gm(300)[1],
    "ggm-300x2": lambda: LutGrid("ggm", betas=np.linspace(0.5, 3.0, 300), alphas=np.array([0.01, 60.0])),
}


@pytest.mark.parametrize("name", SEARCH_GRIDS)
def test_search_is_the_nearest_sample_at_every_midpoint(name):
    # both routes: axes of at most _COUNTED_MIDPOINTS midpoints count them,
    # longer ones binary-search
    grid = SEARCH_GRIDS[name]()
    fields = ["sigmas"] if grid.family == "gm" else ["betas", "alphas"]
    axes = [(getattr(grid, field), field != "betas") for field in fields]  # (samples, log-spaced)
    probes = [_probes(samples, log) for samples, log in axes]
    nearest = [np.array(_nearest(samples, values, log)) for (samples, log), values in zip(axes, probes)]
    # every probe of each axis against every probe of the other
    values = [v.ravel() for v in np.meshgrid(*probes, indexing="ij")]
    want = np.ravel_multi_index(np.meshgrid(*nearest, indexing="ij"), [len(s) for s, _ in axes]).ravel()
    got = lut_search(grid, tuple(values))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(lut_search(grid, list(values)), want)
    # scalars give the same index, one call each
    for i in range(0, len(want), max(1, len(want) // 200)):
        assert lut_search(grid, tuple(float(v[i]) for v in values)) == want[i]


@pytest.mark.parametrize("params", [
    (np.nan,), (0.0,), (-1.0,), (-np.inf,),
    (np.nan, 1.0), (1.0, np.nan), (1.0, 0.0), (1.0, -1.0), (1.0, -np.inf),
], ids=["sigma-nan", "sigma-zero", "sigma-negative", "sigma-minus-inf", "beta-nan", "alpha-nan",
        "alpha-zero", "alpha-negative", "alpha-minus-inf"])
def test_search_rejects_nan_and_nonpositive_log_parameters(params):
    # NaN compares false with every midpoint, so it would pick a table silently
    grid = build_lut_gm(40)[1] if len(params) == 1 else build_lut_ggm(5, 10)[1]
    arrays = tuple(np.array([1.0, p, 2.0]) for p in params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (params, arrays):
            with pytest.raises(ValueError, match="LUT search needs"):
                lut_search(grid, query)


# ---------------------------------------------------------------------------
# Wire format


def _single_table_set():
    return CdfTableSet([quantize_pmf(ProbModel.gaussian(0.4), 1)], {"family": "gm"})


def test_roundtrip_single_table_payload_length():
    data = serialize_table_set(_single_table_set())
    assert len(data) == SINGLE_R1_PAYLOAD_LEN
    assert data[:4] == b"SWPC"
    assert deserialize_table_set(data) == _single_table_set()


def test_roundtrip_preserves_meta_and_family():
    set_, grid = build_lut_ggm(2, 3)
    data = serialize_table_set(set_)
    back = deserialize_table_set(data)
    assert back == set_
    assert back.meta["family"] == "ggm"
    assert back.meta["betas"] == [float(b) for b in grid.betas]
    assert back.meta["alphas"] == [float(a) for a in grid.alphas]


def test_roundtrip_randomized_sets():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n_tables = int(rng.integers(1, 6))
        tables = []
        for _ in range(n_tables):
            n_int = int(rng.integers(2, 40))
            masses = rng.gamma(0.5, 1.0, n_int)
            freqs = allocate_frequencies(masses)
            cum = np.concatenate([[0], np.cumsum(freqs)])
            tables.append(QuantizedCdfTable(int(rng.integers(-200, 200)), cum))
        family = ["gm", "ggm", "gmm", "learned"][int(rng.integers(4))]
        meta = {"family": family}
        if rng.random() < 0.5:
            meta["note"] = f"case-{rng.integers(1000)}"
        set_ = CdfTableSet(tables, meta)
        assert deserialize_table_set(serialize_table_set(set_)) == set_


def test_corrupt_magic():
    data = bytearray(serialize_table_set(_single_table_set()))
    data[0] ^= 0xFF
    with pytest.raises(MagicError):
        deserialize_table_set(bytes(data))


def test_unsupported_version():
    data = bytearray(serialize_table_set(_single_table_set()))
    data[4:6] = struct.pack("<H", 9)
    with pytest.raises(VersionError):
        deserialize_table_set(bytes(data))


def test_unknown_family_tag():
    data = bytearray(serialize_table_set(_single_table_set()))
    data[6] = 200
    with pytest.raises(ParseError):
        deserialize_table_set(bytes(data))


def test_truncated_payload():
    data = serialize_table_set(_single_table_set())
    with pytest.raises(TruncatedError):
        deserialize_table_set(data[:-2])
    with pytest.raises(TruncatedError):
        deserialize_table_set(data[:9])


def test_trailing_garbage():
    data = serialize_table_set(_single_table_set())
    with pytest.raises(TruncatedError):
        deserialize_table_set(data + b"xx")


def _resealed(body: bytes) -> bytes:
    """A version-2 body closed with its own checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_invariant_violation_in_payload():
    data = bytearray(serialize_table_set(_single_table_set())[:-4])
    # inner entries start after the 11-byte header, the i32 offset and the
    # u8 count; forcing entry 1 equal to entry 0 breaks strict monotonicity,
    # and a fresh checksum lets the payload reach the table checks
    entry0 = struct.unpack_from("<H", data, 16)[0]
    struct.pack_into("<H", data, 18, entry0)
    with pytest.raises(TableInvariantError):
        deserialize_table_set(_resealed(bytes(data)))


def test_bad_metadata_blob():
    set_ = CdfTableSet([quantize_pmf(ProbModel.gaussian(0.4), 1)], {"family": "gm", "k": 1})
    data = bytearray(serialize_table_set(set_))
    data[-1] ^= 0xFF  # breaks the JSON
    with pytest.raises(ParseError):
        deserialize_table_set(bytes(data))


def test_16bit_equivalent_size():
    table = quantize_pmf(ProbModel.gaussian(3.0), 127)
    set_ = CdfTableSet([table] * 5, {"family": "gm"})
    assert table_set_16bit_bytes(set_) == 5 * 256 * 2


def _with_blob(set_, blob: bytes) -> bytes:
    """Serialized set (meta holding only its family) with a raw metadata
    blob, inside the checksum."""
    return _resealed(serialize_table_set(set_)[:-4] + struct.pack("<I", len(blob)) + blob)


@pytest.mark.parametrize("blob", [b"5", b"null", b"[1, 2]", b'"lut"', b"true"])
def test_non_object_metadata_blob_is_a_parse_error(blob):
    with pytest.raises(ParseError, match="not an object"):
        deserialize_table_set(_with_blob(_single_table_set(), blob))


@pytest.mark.parametrize("blob", [b'{"family": [1]}', b'{"family": "bogus"}', b"[" * 100_000],
                         ids=["unhashable-family", "unknown-family", "deep-nesting"])
def test_bad_metadata_values_are_parse_errors(blob):
    with pytest.raises(ParseError):
        deserialize_table_set(_with_blob(_single_table_set(), blob))


@pytest.mark.parametrize("family, meta", [
    ("gm", {"kind": "lut"}),
    ("ggm", {"kind": "lut", "betas": [0.5, 1.0]}),
    ("gm", {"kind": "lut", "sigmas": 5}),
    ("gm", {"kind": "lut", "sigmas": [[0.5, 1.0], [2.0, 3.0]]}),
    ("gm", {"kind": "lut", "sigmas": ["a", "b"]}),
    ("gm", {"kind": "lut", "sigmas": [{"a": 1}, 2.0]}),
    ("gm", {"kind": "lut", "sigmas": [10**400, 1.0]}),
    # families without a LUT, carrying valid ggm axes
    ("gmm", build_lut_ggm(2, 3)[1].to_meta()),
    ("learned", build_lut_ggm(2, 3)[1].to_meta()),
])
def test_lut_meta_without_usable_axes_is_a_parse_error(family, meta):
    with pytest.raises(ParseError, match="bad LUT grid metadata"):
        LutGrid.from_meta(family, meta)


def test_frozen_ggm_lut_bytes():
    # sha256 of the version-2 bytes of the 5 x 10 ggm LUT set
    digest = hashlib.sha256(serialize_table_set(build_lut_ggm(5, 10)[0])).hexdigest()
    assert digest == "d82646e82211a81809caf70366085ad0a2f0e40da6261093c906cf3bc1244752"


def test_frozen_ggm_lut_version_1_bytes_are_refused():
    # sha256 of the version-1 bytes of the same set, recorded before the bin
    # masses moved from the in-house incomplete gamma to scipy; version 1 has
    # no checksum, so it is refused rather than read
    set_ = build_lut_ggm(5, 10)[0]
    v1 = serialize_v1(set_)
    assert hashlib.sha256(v1).hexdigest() == \
        "925c977645c25ad59ff6c4f49248323878282778d2f67ec5e02e57ec11268a89"
    with pytest.raises(VersionError, match="version 1 is no longer read.*build-tables or train"):
        deserialize_table_set(v1)
    assert len(serialize_table_set(set_)) < 0.51 * len(v1)


def test_version_1_payloads_are_refused():
    rng = np.random.default_rng(23)
    for _ in range(50):
        tables = [QuantizedCdfTable(int(rng.integers(-200, 200)),
                                    np.concatenate([[0], np.cumsum(allocate_frequencies(
                                        rng.gamma(0.5, 1.0, int(rng.integers(2, 40)))))]))
                  for _ in range(int(rng.integers(0, 6)))]
        set_ = CdfTableSet(tables, {"family": "gmm", "note": [1, 2]} if rng.random() < 0.5 else None)
        with pytest.raises(VersionError):
            deserialize_table_set(serialize_v1(set_))


def test_serialized_size_is_the_wire_length():
    sets = [_single_table_set(), build_lut_ggm(2, 3)[0], build_lut_gm(4)[0],
            CdfTableSet([], {"family": "ggm"}),
            CdfTableSet([quantize_pmf(ProbModel.gaussian(1.0), r) for r in (1, 5, 127)],
                        {"family": "gm", "note": "ragged"})]
    for set_ in sets:
        assert serialized_size(set_) == len(serialize_table_set(set_))
        assert serialized_size(set_) == serialized_size(set_)


def test_serialized_size_follows_a_meta_edit():
    # `meta` is a plain dict, so an edit after the first call must show
    set_ = build_lut_gm(4)[0]
    before = serialized_size(set_)
    set_.meta["note"] = "x" * 100
    assert serialized_size(set_) == len(serialize_table_set(set_)) > before
    del set_.meta["note"]
    assert serialized_size(set_) == len(serialize_table_set(set_)) == before


def test_any_single_byte_change_of_a_v2_payload_is_a_parse_error():
    set_ = CdfTableSet([quantize_pmf(ProbModel.gaussian(0.4), 1),
                        quantize_pmf(ProbModel.gaussian(2.0), 6)], {"family": "gm", "k": [1, 2]})
    data = serialize_table_set(set_)
    for pos in range(len(data)):
        for flip in range(1, 256):
            bad = bytearray(data)
            bad[pos] ^= flip
            with pytest.raises(ParseError):
                deserialize_table_set(bytes(bad))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_AXIS = _JSON | st.lists(st.floats(-5.0, 100.0), max_size=5)
_LUT_META = st.fixed_dictionaries(
    {"kind": st.just("lut")},
    optional={"family": st.sampled_from(["gm", "ggm", "gmm", "learned"]) | _JSON,
              "sigmas": _AXIS, "betas": _AXIS, "alphas": _AXIS},
)


@st.composite
def _table_set_payloads(draw):
    """A valid version-2 serialized set, or the version-1 bytes of one
    (refused whole), with a random metadata blob (JSON or raw bytes; inside
    the checksum in version 2), then truncated, byte-flipped, extended, or
    left whole."""
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        masses = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12))
        cum = np.concatenate([[0], np.cumsum(allocate_frequencies(np.array(masses)))])
        tables.append(QuantizedCdfTable(draw(st.integers(-300, 300)), cum))
    family = draw(st.sampled_from(["gm", "ggm", "gmm", "learned"]))
    set_ = CdfTableSet(tables, {"family": family})
    version = draw(st.sampled_from([1, 2]))
    data = serialize_table_set(set_)[:-4] if version == 2 else serialize_v1(set_)
    kind = draw(st.sampled_from(["none", "json", "lut", "raw"]))
    if kind != "none":
        blob = (draw(st.binary(max_size=40)) if kind == "raw" else
                json.dumps(draw(_JSON if kind == "json" else _LUT_META)).encode())
        data += struct.pack("<I", len(blob)) + blob
    data = bytearray(_resealed(data) if version == 2 else data)
    mutation = draw(st.sampled_from(["whole", "truncate", "flip", "extend"]))
    if mutation == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif mutation == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif mutation == "extend":
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(_table_set_payloads())
def test_deserialize_fuzz_raises_only_parse_errors(data):
    t0 = time.perf_counter()
    try:
        set_ = deserialize_table_set(data)
        if set_.meta.get("kind") == "lut":
            LutGrid.from_meta(set_.meta["family"], set_.meta)
    except (ParseError, ValueError):
        pass
    assert time.perf_counter() - t0 < 5.0
