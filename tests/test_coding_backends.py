"""Tests for hardening, index grids, skip masks, and the coding backends."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import swpc.coding_backends as cb
import swpc.rans_coder as rc
from swpc.cdf_tables import (
    CdfTableSet,
    build_lut_gm,
    build_lut_ggm,
    lut_search_gm,
    quantize_pmf,
    serialize_table_set,
    tables_from_masses,
)
from swpc.coding_backends import (
    CodingReport,
    IndexGrid,
    LatentBlock,
    SkipMask,
    backend_dynamic,
    backend_dynamic_decode,
    backend_lut,
    backend_lut_decode,
    backend_switch,
    backend_switch_decode,
    harden_index,
    log_features,
    prune_hyper_channels,
    restore_pruned_channels,
    round_half_away,
)
from swpc.prob_models import (
    FAMILY_PARAMS,
    GaussianParams,
    ParameterDomainError,
    ProbModel,
    gaussian_integer_pmf,
)
from swpc.rans_coder import Bitstream, StreamError, encode
from swpc.synth_source import SourceSpec, gen_block, oracle_rate

REPORT_FIELDS = {
    "total_bits",
    "bits_per_symbol",
    "table_count",
    "table_bytes",
    "encode_nanos",
    "decode_nanos",
    "skip_ratio",
    "symbols_coded",
    "symbols_skipped",
}


def _gm_block(residuals, sigma):
    res = np.asarray(residuals, dtype=np.int64)
    return LatentBlock(
        residuals=res,
        means=np.zeros(res.shape),
        side_features=np.broadcast_to(np.asarray(sigma, float), res.shape).copy(),
        truth_params={
            "family": "gm",
            "sigma": np.broadcast_to(np.asarray(sigma, float), res.shape).copy(),
        },
    )


def _small_set(sigmas=(0.5, 2.0, 8.0), radius=30):
    tables = tuple(
        quantize_pmf(ProbModel(family="gm", params=GaussianParams(sigma=s)), support_radius=radius)
        for s in sigmas
    )
    return CdfTableSet(tables)


# ---------------------------------------------------------------------------
# Rounding and hardening


class TestRounding:
    def test_half_away_from_zero(self):
        xs = np.array([2.4, 2.5, -2.5, -0.5, 0.49, -0.49, 0.0])
        assert round_half_away(xs).tolist() == [2.0, 3.0, -3.0, -1.0, 0.0, 0.0, 0.0]

    def test_scalar_harden_examples(self):
        assert harden_index(2.4, 5) == 2
        assert harden_index(2.5, 5) == 3
        assert harden_index(0.2, 5) == 1
        assert harden_index(-7.0, 5) == 1
        assert harden_index(99.0, 40) == 40

    def test_harden_rejects_bad_m(self):
        with pytest.raises(ValueError):
            harden_index(1.0, 0)

    def test_harden_rejects_nan(self):
        for i in (np.nan, np.array([2.0, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                harden_index(i, 5)

    def test_log_features_follows_the_trainer_guard(self):
        feats = np.array([-1.0, 0.0, 1e-12, 1.0, 7.5])
        logs = log_features(feats)
        assert logs.tolist() == np.log([1e-12, 1e-12, 1e-12, 1.0, 7.5]).tolist()

    @pytest.mark.parametrize("m", [2, 5, 10, 40])
    def test_harden_matches_weight_argmax(self, m):
        """round(clip(i,1,m)) is the argmax of exp(-|i-m'|/tau) off ties."""
        grid = np.arange(-1.0, m + 2.0, 0.01)
        grid = grid[np.abs((grid - np.floor(grid)) - 0.5) > 1e-9]
        hard = harden_index(grid, m)
        ms = np.arange(1, m + 1)
        weights = np.exp(-np.abs(grid[:, None] - ms[None, :]) / 0.3)
        assert np.array_equal(hard, ms[np.argmax(weights, axis=1)])


# ---------------------------------------------------------------------------
# LatentBlock


class TestLatentBlock:
    def test_requires_three_axes(self):
        with pytest.raises(ValueError):
            LatentBlock(np.zeros((2, 2), np.int64), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            LatentBlock(np.zeros((1, 2, 2), np.int64), np.zeros((1, 2, 3)), np.zeros((1, 2, 2)))

    def test_requires_finite_floats(self):
        feats = np.ones((1, 2, 2))
        feats[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            LatentBlock(np.zeros((1, 2, 2), np.int64), np.zeros((1, 2, 2)), feats)

    def test_truth_shape_validated(self):
        with pytest.raises(ValueError):
            _gm_block(np.zeros((1, 2, 2), np.int64), np.ones((1, 2, 3)))
        with pytest.raises(ValueError):
            LatentBlock(
                np.zeros((1, 2, 2), np.int64),
                np.zeros((1, 2, 2)),
                np.ones((1, 2, 2)),
                truth_params={"family": "other"},
            )

    def test_arrays_are_frozen(self):
        block = _gm_block(np.zeros((1, 2, 2), np.int64), 1.0)
        with pytest.raises(ValueError):
            block.residuals[0, 0, 0] = 5


# ---------------------------------------------------------------------------
# IndexGrid and SkipMask


class TestIndexGrid:
    def test_from_continuous_1d(self):
        cont = np.array([[[0.1, 2.6], [5.0, 9.9]]])
        grid = IndexGrid.from_continuous(cont, 5)
        assert grid.hardened.tolist() == [[[1, 3], [5, 5]]]
        assert grid.m == 5
        assert grid.flat_table_indexes().tolist() == [0, 2, 4, 4]

    def test_rejects_inconsistent_hardened(self):
        # the hardened indexes derive from the stored flat tables, so they
        # can be neither passed in nor changed
        grid = IndexGrid(np.array([[[2.6, 0.2]]]), 5)
        assert grid.hardened.tolist() == [[[3, 1]]]
        assert grid.flat_table_indexes().tolist() == [2, 0]
        with pytest.raises(TypeError):
            IndexGrid(np.array([2.6]), 5, np.array([2]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.hardened = np.array([[[2, 1]]])
        for view in (grid.hardened, grid.flat_table_indexes()):
            with pytest.raises(ValueError):
                view[..., 0] = 1

    def test_rejects_nan_and_empty_axis(self):
        with pytest.raises(ValueError):
            IndexGrid(np.array([1.0, np.nan]), 3)
        with pytest.raises(ValueError):
            IndexGrid(np.array([1.0]), 0)

    def test_hardens_each_axis_once(self, monkeypatch):
        calls = []

        def counted(i, m):
            calls.append(m)
            return harden_index(i, m)

        monkeypatch.setattr(cb, "harden_index", counted)
        grid = IndexGrid(np.array([[[1.2, 2.7]]]), 3)
        assert calls == [3]
        assert grid.flat_table_indexes() is grid.flat_table_indexes()
        assert grid.flat_table_indexes().tolist() == [0, 2]
        assert calls == [3]

    def test_from_tables_inverts_flat_table_indexes(self):
        rng = np.random.default_rng(5)
        for m in (7, 12):
            tables = rng.integers(0, m, size=24)
            grid = IndexGrid.from_tables(tables, m, (2, 3, 4))
            assert grid.m == m
            assert grid.continuous.shape == (2, 3, 4)
            assert grid.flat_table_indexes().tolist() == tables.tolist()

    @pytest.mark.parametrize("tables", [[-1, 0], [0, 12]], ids=["negative", "past-end"])
    def test_from_tables_rejects_tables_outside_the_set(self, tables):
        with pytest.raises(ValueError):
            IndexGrid.from_tables(tables, 12, (1, 1, 2))


class TestSkipMask:
    def test_from_soft_rounds_into_binary(self):
        mask = SkipMask.from_soft(np.array([[[0.2, 0.5], [0.9, -3.0]]]))
        assert mask.hard.tolist() == [[[0, 1], [1, 0]]]
        assert mask.skip_ratio == 0.5

    def test_keep_all(self):
        mask = SkipMask.keep_all((1, 2, 2))
        assert mask.hard.sum() == 4
        assert mask.skip_ratio == 0.0

    def test_rejects_inconsistent_hard(self):
        # hard holds only 0 (skip) and 1 (keep)
        assert SkipMask(np.array([True, False])).hard.tolist() == [1, 0]
        for bad in ([0.2], [2], [-1], [np.nan]):
            with pytest.raises(ValueError):
                SkipMask(np.array(bad))
        with pytest.raises(ValueError):
            SkipMask.from_soft(np.array([np.nan]))

    def test_for_tables_follows_the_hardened_grid(self):
        grid = IndexGrid.from_continuous(np.array([[[0.1, 2.6], [5.0, 4.4]]]), 5)
        mask = SkipMask.for_tables(grid, [2, 4])
        assert mask.hard.tolist() == [[[1, 0], [0, 1]]]
        assert SkipMask.for_tables(grid, []).hard.tolist() == [[[1, 1], [1, 1]]]

    def test_for_tables_on_a_2d_grid(self):
        # a 3 x 4 set is 12 flat tables: one-based index 7 selects table 6,
        # row-major (2 - 1) * 4 + (3 - 1)
        grid = IndexGrid.from_continuous(np.array([[[7.0, 8.0]]]), 12)
        assert SkipMask.for_tables(grid, [6]).hard.tolist() == [[[0, 1]]]

    @pytest.mark.parametrize("tables", [[-1], [5], [1, 1], [1.0], [True]],
                             ids=["negative", "past-end", "repeated", "float", "bool"])
    def test_for_tables_rejects_bad_tables(self, tables):
        grid = IndexGrid.from_continuous(np.array([[[1.0, 5.0]]]), 5)
        with pytest.raises(ValueError):
            SkipMask.for_tables(grid, tables)


# ---------------------------------------------------------------------------
# CodingReport


class TestCodingReport:
    def _report(self, **overrides):
        base = dict(
            total_bits=100,
            bits_per_symbol=1.0,
            table_count=3,
            table_bytes=64,
            encode_nanos=10,
            decode_nanos=0,
            skip_ratio=0.25,
            symbols_coded=75,
            symbols_skipped=25,
        )
        base.update(overrides)
        return CodingReport(**base)

    def test_json_field_names_exact(self):
        plain = json.loads(self._report().to_json())
        assert set(plain) == REPORT_FIELDS

    def test_json_roundtrip(self):
        report = self._report()
        assert CodingReport(**json.loads(report.to_json())) == report

    def test_skip_ratio_must_match_counts(self):
        with pytest.raises(ValueError):
            self._report(skip_ratio=0.5)


# ---------------------------------------------------------------------------
# Dynamic backend


class TestBackendDynamic:
    def test_roundtrip_each_family(self):
        for family in ("gm", "ggm", "gmm"):
            spec = SourceSpec(family=family, shape=(2, 9, 11), seed=31)
            block = gen_block(spec)
            stream, report = backend_dynamic(block)
            decoded, _ = backend_dynamic_decode(stream, block.truth_params, block.shape)
            assert np.array_equal(decoded, block.residuals), family
            assert report.table_count == block.n_elements
            assert report.symbols_coded == block.n_elements
            assert report.skip_ratio == 0.0

    def test_frozen_ggm_stream_bytes(self):
        # sha256 of the serialized stream, recorded before the bin masses moved
        # from the in-house incomplete gamma to scipy
        block = gen_block(SourceSpec("ggm", (4, 64, 64), seed=1, beta_range=(0.7, 2.5),
                                     alpha_range=(0.05, 10.0)))
        stream, _ = backend_dynamic(block)
        digest = hashlib.sha256(stream.to_bytes()).hexdigest()
        assert digest == "3dadf6d954ee953accac66024c3beda131423f12a2b4193b280efcb3ba56d522"

    @pytest.mark.parametrize("mode, family, digest", [
        ("zero-center", "gm", "bbc289450537bdafe40215ff287274a306f21257243394e57fc1b49f31cd27e8"),
        ("zero-center", "gmm", "40a47057ba068e5721768cb6b42df531a3330274d55a2c1df99abf83c5867ea0"),
        ("nonzero-center", "gmm", "356d4217eb6886a8e4bf673bddebb6dffa1956972c8d457866e0b7709af63e58"),
    ])
    def test_frozen_mixed_radius_stream_bytes(self, mode, family, digest):
        # 18,432 elements over more than one table chunk, with each element's
        # own support radius: 127 distinct radii (gm), 38 and 34 (gmm)
        block = gen_block(SourceSpec(family, (2, 96, 96), mode=mode, seed=1))
        stream, _ = backend_dynamic(block)
        assert hashlib.sha256(stream.to_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("family", ["gm", "ggm", "gmm"])
    def test_chunk_rows_are_per_element_quantize_pmf(self, family, monkeypatch):
        """Every table the chunk builder serves is the element's own
        quantize_pmf table at its support radius, over chunks that split
        radius runs."""
        block = gen_block(SourceSpec(family, (1, 9, 11), seed=5))
        truth = cb._flat_truth(block.truth_params, block.shape)
        radii = cb._dynamic_radii(truth, None)
        served = []
        build = cb._dynamic_chunk_builder

        def recording(truth, radii):
            chunk = build(truth, radii)

            def tables(lo, hi):
                served.append((lo, chunk(lo, hi)))
                return served[-1][1]
            return tables

        monkeypatch.setattr(rc, "_CHUNK", 40)
        monkeypatch.setattr(cb, "_dynamic_chunk_builder", recording)
        backend_dynamic(block)
        assert sorted(lo for lo, _ in served) == [0, 40, 80]
        assert len(np.unique(radii)) >= 10
        for lo, (flat, _, rows, offs, nc) in served:
            for i, (row, off, n_coded) in enumerate(zip(rows, offs, nc)):
                r = int(radii[lo + i])
                model = ProbModel.from_values(family, [truth[key][lo + i] for key in FAMILY_PARAMS[family]])
                assert (off, n_coded) == (-r, 2 * r + 1)
                assert flat[row : row + 2 * r + 3].tolist() == quantize_pmf(model, r).cumulative.tolist()

    @pytest.mark.parametrize("family, narrow, wide", [
        ("gm", {"sigma": 1e-307}, {"sigma": 30.0}),
        ("ggm", {"beta": 200.0, "alpha": 1.0}, {"beta": 1.0, "alpha": 30.0}),
    ])
    def test_narrow_tables_beside_wide_ones(self, family, narrow, wide):
        # beyond a radius-1 element's own window its bin edges overflow
        # float64; built beside radius-127 elements, its table never reads them
        truth = {"family": family,
                 **{key: np.array([[[narrow[key], wide[key], wide[key], narrow[key]]]]) for key in narrow}}
        block = LatentBlock(np.array([[[0, 40, -3, 1]]]), np.zeros((1, 1, 4)), np.ones((1, 1, 4)), truth)
        radii = cb._dynamic_radii(cb._flat_truth(truth, block.shape), None)
        assert radii.tolist() == [1, 127, 127, 1]
        stream, _ = backend_dynamic(block)
        models = [ProbModel.from_values(family, [truth[key].ravel()[i] for key in narrow]) for i in range(4)]
        tables = CdfTableSet(quantize_pmf(model, r) for model, r in zip(models, radii.tolist()))
        assert stream.to_bytes() == encode(block.residuals.ravel(), np.arange(4), tables).to_bytes()
        decoded, _ = backend_dynamic_decode(stream, truth, block.shape)
        assert np.array_equal(decoded, block.residuals)

    def test_table_building_memory_is_bounded(self):
        # tracemalloc peaks of 11.4 (encode) and 11.6 MiB (decode) with tables
        # built per radius group, 22-29 MiB with a whole chunk's masses at once
        block = gen_block(SourceSpec("ggm", (4, 64, 64), seed=1, beta_range=(0.7, 2.5),
                                     alpha_range=(0.05, 10.0)))
        tracemalloc.start()
        try:
            stream, _ = backend_dynamic(block)
            encode_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            decoded, _ = backend_dynamic_decode(stream, block.truth_params, block.shape)
            decode_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded, block.residuals)
        assert encode_peak <= 12 << 20, encode_peak / 2**20
        assert decode_peak <= 12 << 20, decode_peak / 2**20

    def test_matches_manual_tables_byte_for_byte(self):
        """With a fixed radius the backend is exactly per-element quantize+code."""
        block = gen_block(SourceSpec(family="gm", shape=(2, 7, 9), seed=21, sigma_range=(0.3, 5.0)))
        stream, report = backend_dynamic(block, radius=6)
        sigma = block.truth_params["sigma"].ravel()
        masses = gaussian_integer_pmf(np.arange(-6, 7)[None, :], sigma[:, None])
        tables = CdfTableSet(tuple(tables_from_masses(masses, radius=6)))
        manual = encode(block.residuals.ravel(), np.arange(block.n_elements), tables)
        assert stream.to_bytes() == manual.to_bytes()
        assert report.table_bytes == (2 * 6 + 2) * 2 * block.n_elements

    def test_chunking_is_invisible(self, monkeypatch):
        block = gen_block(SourceSpec(family="gm", shape=(1, 20, 20), seed=8))
        full, _ = backend_dynamic(block)
        monkeypatch.setattr(rc, "_CHUNK", 7)
        tiny, _ = backend_dynamic(block)
        assert full.to_bytes() == tiny.to_bytes()
        monkeypatch.setattr(rc, "_CHUNK", 13)
        decoded, _ = backend_dynamic_decode(tiny, block.truth_params, block.shape)
        assert np.array_equal(decoded, block.residuals)

    def test_single_element_is_pure_framing(self):
        block = _gm_block(np.array([[[3]]], np.int64), 2.0)
        stream, report = backend_dynamic(block)
        decoded, _ = backend_dynamic_decode(stream, block.truth_params, block.shape)
        assert decoded[0, 0, 0] == 3
        # count + payload-length + state words only; symbol lives in the state
        assert report.total_bits == 96

    def test_symbol_count_must_match_the_block(self):
        block = _gm_block(np.array([[[1, -2], [0, 3]]], np.int64), 2.0)
        stream, _ = backend_dynamic(block)
        for count in (3, 9):
            with pytest.raises(StreamError):
                backend_dynamic_decode(Bitstream(stream.payload, count), block.truth_params,
                                       block.shape)

    def test_outliers_escape_and_roundtrip(self):
        block = _gm_block(np.array([[[900, 0], [0, -4000]]], np.int64), 1.0)
        stream, _ = backend_dynamic(block)
        decoded, _ = backend_dynamic_decode(stream, block.truth_params, block.shape)
        assert np.array_equal(decoded, block.residuals)

    def test_tight_priors_code_almost_free(self):
        block = _gm_block(np.zeros((1, 40, 40), np.int64), 0.11)
        _, report = backend_dynamic(block)
        assert report.bits_per_symbol < 0.1

    def test_rate_tracks_oracle(self):
        block = gen_block(SourceSpec(family="gm", shape=(4, 50, 50), seed=13, sigma_range=(0.3, 20.0)))
        _, report = backend_dynamic(block)
        assert report.total_bits <= 1.015 * oracle_rate(block) + 64

    def test_radius_override_validated(self):
        block = _gm_block(np.zeros((1, 2, 2), np.int64), 1.0)
        with pytest.raises(ValueError):
            backend_dynamic(block, radius=0)
        with pytest.raises(ValueError):
            backend_dynamic(block, radius=128)

    def test_requires_truth(self):
        block = LatentBlock(np.zeros((1, 2, 2), np.int64), np.zeros((1, 2, 2)), np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            backend_dynamic(block)

    @pytest.mark.parametrize("family, name, value", [
        ("ggm", "beta", np.nan), ("ggm", "alpha", np.nan), ("gm", "sigma", np.nan), ("gm", "sigma", -1.0),
        ("gmm", "sigmas", np.nan), ("gmm", "weights", 0.0),
    ])
    def test_decode_refuses_truth_outside_the_model_domain(self, family, name, value):
        # the decoder reads truth arrays that no LatentBlock has checked: a
        # NaN beta raised an IndexError from the window kernel, a NaN sigma
        # "radii must be integers", and a sigma of -1 put the table on its tail
        block = gen_block(SourceSpec(family=family, shape=(1, 4, 4), seed=2))
        stream, _ = backend_dynamic(block)
        truth = {key: np.array(block.truth_params[key]) for key in FAMILY_PARAMS[family]}
        truth["family"] = family
        truth[name][0, 1, 2] = value
        with pytest.raises(ParameterDomainError):
            backend_dynamic_decode(stream, truth, block.shape)


# ---------------------------------------------------------------------------
# LUT backend


class TestBackendLut:
    def test_roundtrip_gm_and_ggm(self):
        gm_set, gm_grid = build_lut_gm(16)
        block = gen_block(SourceSpec(family="gm", shape=(2, 12, 12), seed=5))
        stream, report = backend_lut(block, gm_grid, gm_set)
        decoded, _ = backend_lut_decode(stream, block.truth_params, gm_grid, gm_set, block.shape)
        assert np.array_equal(decoded, block.residuals)
        assert report.table_count == 16
        assert report.table_bytes == len(serialize_table_set(gm_set))

        ggm_set, ggm_grid = build_lut_ggm(4, 8)
        block = gen_block(SourceSpec(family="ggm", shape=(2, 12, 12), seed=6))
        stream, report = backend_lut(block, ggm_grid, ggm_set)
        decoded, _ = backend_lut_decode(stream, block.truth_params, ggm_grid, ggm_set, block.shape)
        assert np.array_equal(decoded, block.residuals)
        assert report.table_count == 32

    def test_matches_plain_encode_on_searched_indexes(self):
        table_set, grid = build_lut_gm(16)
        block = gen_block(SourceSpec(family="gm", shape=(1, 15, 15), seed=9))
        stream, _ = backend_lut(block, grid, table_set)
        idx = lut_search_gm(grid, block.truth_params["sigma"].ravel())
        manual = encode(block.residuals.ravel(), idx, table_set)
        assert stream.to_bytes() == manual.to_bytes()

    def test_denser_grid_codes_tighter(self):
        block = gen_block(SourceSpec(family="gm", shape=(4, 40, 40), seed=17))
        coarse_set, coarse_grid = build_lut_gm(5)
        dense_set, dense_grid = build_lut_gm(160)
        _, coarse = backend_lut(block, coarse_grid, coarse_set)
        _, dense = backend_lut(block, dense_grid, dense_set)
        assert dense.total_bits <= coarse.total_bits

    def test_outliers_escape_and_roundtrip(self):
        table_set, grid = build_lut_gm(8)
        block = _gm_block(np.array([[[900, 0], [0, -4000]]], np.int64), 1.0)
        stream, _ = backend_lut(block, grid, table_set)
        decoded, _ = backend_lut_decode(stream, block.truth_params, grid, table_set, block.shape)
        assert np.array_equal(decoded, block.residuals)

    def test_family_mismatch_rejected(self):
        table_set, grid = build_lut_gm(8)
        block = gen_block(SourceSpec(family="ggm", shape=(1, 4, 4), seed=0))
        with pytest.raises(ValueError):
            backend_lut(block, grid, table_set)

    def test_set_size_mismatch_rejected(self):
        table_set, _ = build_lut_gm(8)
        _, grid = build_lut_gm(16)
        block = gen_block(SourceSpec(family="gm", shape=(1, 4, 4), seed=0))
        with pytest.raises(ValueError):
            backend_lut(block, grid, table_set)


# ---------------------------------------------------------------------------
# Switch backend


def _switch_fixture(seed=2):
    table_set = _small_set()
    block = gen_block(SourceSpec(family="gm", shape=(1, 10, 10), seed=seed, sigma_range=(0.4, 9.0)))
    continuous = np.clip(np.log2(block.side_features) + 2.0, 0.5, 3.4)
    return block, IndexGrid.from_continuous(continuous, 3), table_set


class TestBackendSwitch:
    def test_roundtrip_without_mask(self):
        block, grid, table_set = _switch_fixture()
        stream, report = backend_switch(block, grid, None, table_set)
        decoded, _ = backend_switch_decode(stream, grid, None, table_set, block.shape)
        assert np.array_equal(decoded, block.residuals)
        assert report.table_count == 3
        assert report.symbols_coded == block.n_elements

    def test_keep_all_mask_is_byte_identical(self):
        block, grid, table_set = _switch_fixture()
        bare, _ = backend_switch(block, grid, None, table_set)
        masked, report = backend_switch(block, grid, SkipMask.keep_all(block.shape), table_set)
        assert bare.to_bytes() == masked.to_bytes()
        assert report.skip_ratio == 0.0

    def test_skip_all_sends_nothing_and_decodes_zeros(self):
        block, grid, table_set = _switch_fixture()
        mask = SkipMask.from_soft(np.zeros(block.shape))
        stream, report = backend_switch(block, grid, mask, table_set)
        assert stream.symbol_count == 0
        assert report.symbols_coded == 0
        assert report.skip_ratio == 1.0
        decoded, _ = backend_switch_decode(stream, grid, mask, table_set, block.shape)
        assert not decoded.any()

    def test_skipping_zeros_preserves_data_and_saves_bits(self):
        block, grid, table_set = _switch_fixture()
        mask = SkipMask.from_soft((block.residuals != 0).astype(float))
        assert mask.skip_ratio > 0
        skipped, report_skip = backend_switch(block, grid, mask, table_set)
        _, report_full = backend_switch(block, grid, None, table_set)
        decoded, _ = backend_switch_decode(skipped, grid, mask, table_set, block.shape)
        assert np.array_equal(decoded, block.residuals)
        assert report_skip.total_bits < report_full.total_bits
        assert report_skip.symbols_skipped == int((block.residuals == 0).sum())

    def test_random_mask_scatters_correctly(self):
        block, grid, table_set = _switch_fixture(seed=14)
        rng = np.random.default_rng(0)
        mask = SkipMask.from_soft(rng.random(block.shape))
        stream, _ = backend_switch(block, grid, mask, table_set)
        decoded, _ = backend_switch_decode(stream, grid, mask, table_set, block.shape)
        kept = mask.hard == 1
        assert np.array_equal(decoded[kept], block.residuals[kept])
        assert not decoded[~kept].any()

    def test_2d_grid_roundtrip(self):
        # a 2x2 table grid codes as its 4 flat tables
        table_set = _small_set(sigmas=(0.5, 1.0, 2.0, 4.0))
        block = gen_block(SourceSpec(family="gm", shape=(1, 8, 8), seed=3, sigma_range=(0.4, 4.0)))
        rng = np.random.default_rng(1)
        grid = IndexGrid.from_continuous(rng.uniform(0.5, 4.5, block.shape), 4)
        stream, report = backend_switch(block, grid, None, table_set)
        decoded, _ = backend_switch_decode(stream, grid, None, table_set, block.shape)
        assert np.array_equal(decoded, block.residuals)
        assert report.table_count == 4

    def test_shape_and_size_mismatches_rejected(self):
        block, grid, table_set = _switch_fixture()
        with pytest.raises(ValueError):
            backend_switch(block, IndexGrid.from_continuous(np.ones((1, 2, 2)), 3), None, table_set)
        with pytest.raises(ValueError):
            backend_switch(block, IndexGrid.from_continuous(np.ones(block.shape), 2), None, table_set)
        with pytest.raises(ValueError):
            backend_switch(block, grid, SkipMask.keep_all((1, 2, 2)), table_set)


def _coded(route):
    """(stream, decoder of a stream) for one small block on a backend route."""
    if route == "dynamic":
        block = _gm_block(np.array([[[1, -2], [0, 3]]], np.int64), 2.0)
        stream, _ = backend_dynamic(block)
        return stream, lambda s: backend_dynamic_decode(s, block.truth_params, block.shape)
    if route == "lut":
        table_set, grid = build_lut_gm(8)
        block = gen_block(SourceSpec(family="gm", shape=(1, 6, 6), seed=4))
        stream, _ = backend_lut(block, grid, table_set)
        return stream, lambda s: backend_lut_decode(s, block.truth_params, grid, table_set, block.shape)
    block, grid, table_set = _switch_fixture()
    mask = SkipMask.from_soft((block.residuals != 0).astype(float)) if route == "masked switch" else None
    stream, _ = backend_switch(block, grid, mask, table_set)
    return stream, lambda s: backend_switch_decode(s, grid, mask, table_set, block.shape)


@pytest.mark.parametrize("miscount", [1, -1, 2**20])
@pytest.mark.parametrize("route", ["dynamic", "lut", "switch", "masked switch"])
def test_wrong_symbol_count_is_a_stream_error(route, miscount):
    """The count word is part of the stream: a wrong one is damage, not a
    caller's mistake, on every backend."""
    stream, decode = _coded(route)
    decode(stream)
    with pytest.raises(StreamError, match="stream holds"):
        decode(Bitstream(stream.payload, stream.symbol_count + miscount))


# ---------------------------------------------------------------------------
# Channel pruning


class TestChannelPruning:
    def test_prune_then_restore_zero_fills(self):
        block = gen_block(SourceSpec(family="gm", shape=(3, 4, 4), seed=1))
        mask = np.array([1, 0, 1])
        pruned = prune_hyper_channels(block, mask)
        assert pruned.shape == (2, 4, 4)
        assert np.array_equal(pruned.residuals[0], block.residuals[0])
        assert np.array_equal(pruned.residuals[1], block.residuals[2])
        assert np.array_equal(pruned.truth_params["sigma"][1], block.truth_params["sigma"][2])
        restored = restore_pruned_channels(pruned, mask)
        assert restored.shape == block.shape
        assert np.array_equal(restored.residuals[0], block.residuals[0])
        assert not restored.residuals[1].any()
        assert np.array_equal(restored.residuals[2], block.residuals[2])

    def test_keep_all_is_identity_on_arrays(self):
        block = gen_block(SourceSpec(family="gmm", shape=(2, 3, 3), seed=2))
        pruned = prune_hyper_channels(block, np.ones(2, int))
        assert np.array_equal(pruned.residuals, block.residuals)
        assert np.array_equal(pruned.truth_params["weights"], block.truth_params["weights"])

    def test_mask_length_checked(self):
        block = gen_block(SourceSpec(family="gm", shape=(3, 4, 4), seed=1))
        with pytest.raises(ValueError):
            prune_hyper_channels(block, np.ones(4, int))
        with pytest.raises(ValueError):
            restore_pruned_channels(block, np.array([1, 0, 1, 0]))

    def test_pruned_block_still_codes(self):
        block = gen_block(SourceSpec(family="gm", shape=(3, 6, 6), seed=4))
        pruned = prune_hyper_channels(block, np.array([0, 1, 1]))
        stream, _ = backend_dynamic(pruned)
        decoded, _ = backend_dynamic_decode(stream, pruned.truth_params, pruned.shape)
        assert np.array_equal(decoded, pruned.residuals)
