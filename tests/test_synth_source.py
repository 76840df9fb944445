"""Tests for the synthetic latent source and its rate oracles."""

import hashlib
import json
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swpc.coding_backends import LatentBlock, SkipMask
from swpc.synth_source import (
    RateHistogram,
    SourceSpec,
    block_from_bytes,
    block_to_bytes,
    gen_block,
    oracle_bits_per_element,
    oracle_rate,
    rate_histogram,
)

# Frozen oracles, computed independently with scipy.stats / scipy.special:
#   -log2(norm.cdf(.5) - norm.cdf(-.5))            for sigma = 1
#   0.5 / norm.ppf(0.75)                           sigma giving P(0) = 1/2
#   alpha * sqrt(gamma(3/b) / gamma(1/b))          ggm std, b=1.3 a=2.0
BITS_ZERO_SIGMA1 = 1.3848665342909896
SIGMA_HALF_MASS = 0.741301109252801
GGM_STD_13_20 = 1.9761022406770006

# sha256 of the serialized block for fixed specs; locks generator determinism
DIGEST_GM = "6177e9e95c2a8caf"
DIGEST_GGM = "4f0ba7198ad5f8c7"
DIGEST_GMM = "d76f266e08024eaf"


def _digest(block):
    return hashlib.sha256(block_to_bytes(block)).hexdigest()[:16]


# ---------------------------------------------------------------------------
# SourceSpec


class TestSourceSpec:
    def test_json_roundtrip(self):
        spec = SourceSpec(
            family="gmm",
            shape=(2, 4, 4),
            mode="nonzero-center",
            seed=11,
            components=3,
            feature_noise=0.25,
        )
        again = SourceSpec.from_json(spec.to_json())
        assert again == spec
        assert isinstance(again.shape, tuple)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            SourceSpec(family="laplace", shape=(1, 2, 2), seed=0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 2), seed=0)
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 0, 2), seed=0)

    def test_nonzero_center_requires_gmm(self):
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 2, 2), seed=0, mode="nonzero-center")
        SourceSpec(family="gmm", shape=(1, 2, 2), seed=0, mode="nonzero-center")

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 2, 2), seed=0, sigma_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 2, 2), seed=0, sigma_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SourceSpec(family="gm", shape=(1, 2, 2), seed=0, feature_noise=-0.1)


# ---------------------------------------------------------------------------
# Generation


class TestGenBlock:
    def test_deterministic_per_seed(self):
        for family, mode, digest in [
            ("gm", "zero-center", DIGEST_GM),
            ("ggm", "zero-center", DIGEST_GGM),
            ("gmm", "nonzero-center", DIGEST_GMM),
        ]:
            spec = SourceSpec(family=family, shape=(2, 8, 9), seed=7, mode=mode)
            assert _digest(gen_block(spec)) == digest
            assert _digest(gen_block(spec)) == digest

    def test_seeds_differ(self):
        spec_a = SourceSpec(family="gm", shape=(2, 8, 9), seed=7)
        spec_b = SourceSpec(family="gm", shape=(2, 8, 9), seed=8)
        assert _digest(gen_block(spec_a)) != _digest(gen_block(spec_b))

    def test_tiny_sigma_gives_zero_residuals(self):
        spec = SourceSpec(family="gm", shape=(2, 10, 10), seed=1, sigma_range=(1e-6, 1e-6))
        assert not gen_block(spec).residuals.any()

    def test_zero_center_residual_mean_small(self):
        spec = SourceSpec(
            family="gm", shape=(10, 100, 100), seed=3,
            sigma_range=(0.5, 4.0), mean_range=(-3.0, 3.0),
        )
        block = gen_block(spec)
        assert abs(block.residuals.mean()) < 0.05
        # means live in their own tensor and never shift the residuals
        assert block.means.min() >= -3.0 and block.means.max() <= 3.0

    def test_ggm_sampler_matches_analytic_std(self):
        spec = SourceSpec(
            family="ggm", shape=(10, 100, 100), seed=5,
            beta_range=(1.3, 1.3), alpha_range=(2.0, 2.0),
        )
        block = gen_block(spec)
        # rounding to integers adds about 1/12 of variance
        expected = np.sqrt(GGM_STD_13_20**2 + 1.0 / 12.0)
        assert abs(block.residuals.std() / expected - 1.0) < 0.02

    def test_gmm_zero_center_shrinks_energy(self):
        zero = gen_block(SourceSpec(family="gmm", shape=(4, 50, 50), seed=11))
        nonzero = gen_block(
            SourceSpec(family="gmm", shape=(4, 50, 50), seed=11, mode="nonzero-center")
        )
        em_zero = (zero.residuals.astype(float) ** 2).mean()
        em_nonzero = (nonzero.residuals.astype(float) ** 2).mean()
        assert em_zero < em_nonzero
        # nonzero-center keeps the offsets inside the mixtures, not in means
        assert not nonzero.means.any()

    def test_gmm_truth_arrays_have_component_axis(self):
        spec = SourceSpec(family="gmm", shape=(2, 4, 4), seed=0, components=3)
        truth = gen_block(spec).truth_params
        assert truth["weights"].shape == (2, 4, 4, 3)
        assert np.allclose(truth["weights"].sum(axis=-1), 1.0)

    def test_feature_noise_only_touches_features(self):
        clean = gen_block(SourceSpec(family="gm", shape=(2, 10, 10), seed=9))
        noisy = gen_block(SourceSpec(family="gm", shape=(2, 10, 10), seed=9, feature_noise=0.3))
        assert np.array_equal(clean.residuals, noisy.residuals)
        assert not np.array_equal(clean.side_features, noisy.side_features)
        assert np.array_equal(clean.side_features, clean.truth_params["sigma"])

    def test_features_track_model_std(self):
        spec = SourceSpec(
            family="ggm", shape=(1, 4, 4), seed=2,
            beta_range=(1.3, 1.3), alpha_range=(2.0, 2.0),
        )
        feats = gen_block(spec).side_features
        assert np.allclose(feats, GGM_STD_13_20, rtol=1e-12)


# ---------------------------------------------------------------------------
# Oracle rates


def _block_with_sigma(residuals, sigma):
    res = np.asarray(residuals, dtype=np.int64)
    return LatentBlock(
        residuals=res,
        means=np.zeros(res.shape),
        side_features=np.full(res.shape, float(np.mean(sigma))),
        truth_params={"family": "gm", "sigma": np.broadcast_to(np.asarray(sigma, float), res.shape).copy()},
    )


class TestOracleRate:
    def test_unit_sigma_zero_symbol(self):
        block = _block_with_sigma(np.zeros((1, 2, 2), np.int64), 1.0)
        bits = oracle_bits_per_element(block)
        assert np.allclose(bits, BITS_ZERO_SIGMA1, rtol=1e-12)
        assert oracle_rate(block) == pytest.approx(4 * BITS_ZERO_SIGMA1, rel=1e-12)

    def test_half_mass_sigma_costs_one_bit(self):
        block = _block_with_sigma(np.zeros((1, 3, 3), np.int64), SIGMA_HALF_MASS)
        assert oracle_rate(block) == pytest.approx(9.0, rel=1e-9)

    def test_floor_caps_impossible_symbols(self):
        block = _block_with_sigma(np.full((1, 1, 1), 10_000, np.int64), 0.11)
        assert oracle_bits_per_element(block)[0, 0, 0] == pytest.approx(32.0)

    def test_requires_truth(self):
        block = LatentBlock(
            residuals=np.zeros((1, 2, 2), np.int64),
            means=np.zeros((1, 2, 2)),
            side_features=np.ones((1, 2, 2)),
        )
        with pytest.raises(ValueError):
            oracle_bits_per_element(block)

    def test_matches_rate_sum_on_generated_block(self):
        block = gen_block(SourceSpec(family="ggm", shape=(2, 10, 10), seed=4))
        bits = oracle_bits_per_element(block)
        assert bits.shape == block.shape
        assert oracle_rate(block) == pytest.approx(bits.sum())


# ---------------------------------------------------------------------------
# Rate histograms


class TestRateHistogram:
    def test_counts_cover_every_element(self):
        block = gen_block(SourceSpec(family="gm", shape=(2, 20, 20), seed=6))
        hist = rate_histogram(block)
        assert hist.counts.sum() == block.n_elements
        assert len(hist.edges) == len(hist.counts) + 1
        assert hist.kept_counts is None

    def test_constant_rates_collapse_to_one_bin(self):
        block = _block_with_sigma(np.zeros((1, 4, 4), np.int64), 1.0)
        hist = rate_histogram(block, n_bins=8)
        assert hist.counts.sum() == 16
        assert hist.counts[0] == 16

    def test_two_scale_block_fills_two_bins(self):
        sigma = np.concatenate([np.full(8, 0.3), np.full(8, 30.0)]).reshape(1, 4, 4)
        block = _block_with_sigma(np.zeros((1, 4, 4), np.int64), sigma)
        hist = rate_histogram(block, n_bins=4)
        assert hist.counts.sum() == 16
        assert hist.counts[0] == 8 and hist.counts[-1] == 8
        assert hist.counts[1] == 0

    def test_mask_splits_counts(self):
        block = gen_block(SourceSpec(family="gm", shape=(1, 8, 8), seed=10))
        soft = np.zeros(block.shape)
        soft[:, :4, :] = 1.0
        mask = SkipMask.from_soft(soft)
        hist = rate_histogram(block, mask=mask)
        assert hist.kept_counts.sum() == 32
        assert hist.skipped_counts.sum() == 32
        assert np.array_equal(hist.kept_counts + hist.skipped_counts, hist.counts)

    def test_explicit_bits_override_oracle(self):
        block = gen_block(SourceSpec(family="gm", shape=(1, 4, 4), seed=1))
        hist = rate_histogram(block, per_element_bits=np.full(16, 3.0))
        assert hist.counts[0] == 16

    def test_rejects_mismatched_lengths(self):
        block = gen_block(SourceSpec(family="gm", shape=(1, 4, 4), seed=1))
        with pytest.raises(ValueError):
            rate_histogram(block, per_element_bits=np.ones(5))
        with pytest.raises(ValueError):
            rate_histogram(block, mask=np.ones((1, 2, 2)))

    def test_json_shape(self):
        block = gen_block(SourceSpec(family="gm", shape=(1, 4, 4), seed=1))
        plain = json.loads(rate_histogram(block).to_json())
        assert set(plain) == {"edges", "counts"}
        masked = rate_histogram(block, mask=np.ones((1, 4, 4), np.int64))
        split = json.loads(masked.to_json())
        assert set(split) == {"edges", "counts", "kept_counts", "skipped_counts"}

    def test_histogram_type(self):
        block = gen_block(SourceSpec(family="gm", shape=(1, 4, 4), seed=1))
        assert isinstance(rate_histogram(block), RateHistogram)


# ---------------------------------------------------------------------------
# Block container


class TestBlockContainer:
    @pytest.mark.parametrize("family,mode", [
        ("gm", "zero-center"),
        ("ggm", "zero-center"),
        ("gmm", "zero-center"),
        ("gmm", "nonzero-center"),
    ])
    def test_roundtrip(self, family, mode):
        spec = SourceSpec(family=family, shape=(2, 5, 6), seed=13, mode=mode)
        block = gen_block(spec)
        again = block_from_bytes(block_to_bytes(block))
        assert np.array_equal(again.residuals, block.residuals)
        assert np.array_equal(again.means, block.means)
        assert np.array_equal(again.side_features, block.side_features)
        for key, value in block.truth_params.items():
            if key == "family":
                assert again.truth_params["family"] == value
            else:
                assert np.array_equal(again.truth_params[key], value)

    def test_roundtrip_without_truth(self):
        block = LatentBlock(
            residuals=np.arange(8).reshape(2, 2, 2),
            means=np.zeros((2, 2, 2)),
            side_features=np.ones((2, 2, 2)),
        )
        again = block_from_bytes(block_to_bytes(block))
        assert again.truth_params is None
        assert np.array_equal(again.residuals, block.residuals)

    def test_rejects_bad_magic(self):
        data = block_to_bytes(gen_block(SourceSpec(family="gm", shape=(1, 2, 2), seed=0)))
        with pytest.raises(ValueError):
            block_from_bytes(b"XXXX" + data[4:])

    def test_rejects_bad_version(self):
        data = bytearray(block_to_bytes(gen_block(SourceSpec(family="gm", shape=(1, 2, 2), seed=0))))
        data[4] = 99
        with pytest.raises(ValueError):
            block_from_bytes(bytes(data))

    def test_rejects_unknown_family_tag(self):
        data = bytearray(block_to_bytes(gen_block(SourceSpec(family="gm", shape=(1, 2, 2), seed=0))))
        data[6] = 9
        with pytest.raises(ValueError):
            block_from_bytes(bytes(data))

    def test_rejects_truncation_at_every_boundary(self):
        data = block_to_bytes(gen_block(SourceSpec(family="ggm", shape=(1, 2, 2), seed=0)))
        for cut in (8, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                block_from_bytes(data[:cut])

    def test_rejects_residuals_outside_int32(self):
        for value in (2 ** 31 + 5, -(2 ** 31) - 1):
            block = LatentBlock(np.full((1, 1, 2), value, np.int64), np.zeros((1, 1, 2)),
                                np.ones((1, 1, 2)))
            with pytest.raises(ValueError):
                block_to_bytes(block)
        edge = LatentBlock(np.array([[[2 ** 31 - 1, -(2 ** 31)]]]), np.zeros((1, 1, 2)),
                           np.ones((1, 1, 2)))
        assert np.array_equal(block_from_bytes(block_to_bytes(edge)).residuals, edge.residuals)

    def test_rejects_trailing_bytes(self):
        data = block_to_bytes(gen_block(SourceSpec(family="gm", shape=(1, 2, 2), seed=0)))
        with pytest.raises(ValueError):
            block_from_bytes(data + b"\x00")

    def test_component_count_must_fit_the_family(self):
        gmm = bytearray(block_to_bytes(gen_block(SourceSpec(family="gmm", shape=(1, 2, 2), seed=0))))
        ggm = bytearray(block_to_bytes(gen_block(SourceSpec(family="ggm", shape=(1, 2, 2), seed=0))))
        assert gmm[7] == 2 and ggm[7] == 0
        gmm[7] = 0  # a mixture without its component axis
        ggm[7] = 1  # a ggm parameter with one
        for data in (gmm, ggm):
            with pytest.raises(ValueError):
                block_from_bytes(bytes(data))

    def test_rejects_more_components_than_the_header_holds(self):
        shape = (1, 1, 1)
        weights = np.full(shape + (256,), 1.0 / 256)
        block = LatentBlock(np.zeros(shape, np.int64), np.zeros(shape), np.ones(shape),
                            truth_params={"family": "gmm", "weights": weights,
                                          "means": np.zeros(shape + (256,)),
                                          "sigmas": np.ones(shape + (256,))})
        with pytest.raises(ValueError, match="255 mixture components"):
            block_to_bytes(block)


@st.composite
def _block_payloads(draw):
    """A valid serialized block (any family tag, or none), then truncated,
    byte-flipped, extended, or left whole."""
    family = draw(st.sampled_from([None, "gm", "ggm", "gmm"]))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
    if family is None:
        block = LatentBlock(np.zeros(shape, np.int64), np.zeros(shape), np.ones(shape))
    else:
        block = gen_block(SourceSpec(family=family, shape=shape, seed=draw(st.integers(0, 99)),
                                     components=draw(st.integers(1, 3))))
    data = bytearray(block_to_bytes(block))
    mutation = draw(st.sampled_from(["whole", "truncate", "flip", "header", "extend"]))
    if mutation == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif mutation == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif mutation == "header":  # rewrite version, tag, components and shape outright
        struct.pack_into("<HBBIII", data, 4, draw(st.integers(0, 2)), draw(st.integers(0, 5)),
                         draw(st.integers(0, 255)),
                         *draw(st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3)))
    elif mutation == "extend":
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(_block_payloads())
def test_block_from_bytes_fuzz_raises_only_value_errors(data):
    t0 = time.perf_counter()
    try:
        block = block_from_bytes(data)
        assert block_from_bytes(block_to_bytes(block)).shape == block.shape
    except ValueError:
        pass
    assert time.perf_counter() - t0 < 5.0
