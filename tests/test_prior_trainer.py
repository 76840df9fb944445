"""Trainer contracts: soft assignment, rate objectives, annealing, training.

Numeric oracles are computed in place from first principles (direct softmax
evaluation, brute-force sorts and summations, central finite differences,
scipy bounded MLE) so every assertion is independent of the implementation
under test.  The Top-2-vs-full mean-gap bound (0.08 bits) was measured once
with the exact Philox draw protocol used below (mean 0.0547) and frozen.
"""

import hashlib
import itertools
import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import swpc.cdf_tables as ct
import swpc.coding_backends as cb
import swpc.prior_trainer as pt
import swpc.prob_models as pm
import swpc.synth_source as ss
from wire_v1 import serialize_v1

TOPK2_MEAN_GAP_BITS = 0.08


def gm_set(*sigmas):
    return pt.PriorSet1D(family="gm", params=np.log(np.asarray(sigmas))[:, None])


def ggm_set(pairs):
    coords = np.log(np.asarray(pairs, dtype=np.float64))
    return pt.PriorSet1D(family="ggm", params=coords)


def floored_nll_bits(symbols, sigma):
    uniq, counts = np.unique(np.asarray(symbols, np.int64), return_counts=True)
    pmf, _ = pm.gaussian_pmf_grads(uniq, sigma)
    return float(np.dot(counts, pm.floored_rate_bits(pmf)))


def mle_sigma(symbols):
    res = minimize_scalar(lambda s: floored_nll_bits(symbols, s),
                          bounds=(0.05, 64.0), method="bounded",
                          options={"xatol": 1e-8})
    return float(res.x)


def rate_of(prior_set, index, symbol):
    return pm.rate_bits(prior_set.models()[index - 1], symbol)


def block_of(residuals, sigma=1.0):
    res = np.asarray(residuals, dtype=np.int64)
    return cb.LatentBlock(res, np.zeros(res.shape),
                          np.full(res.shape, float(sigma)),
                          truth_params={"family": "gm",
                                        "sigma": np.full(res.shape, float(sigma))})


def random_valid_set(rng, m, family="gm"):
    if family == "gm":
        return gm_set(*np.exp(rng.uniform(np.log(0.8), np.log(20.0), size=m)))
    pairs = np.stack([rng.uniform(0.8, 2.5, size=m),
                      np.exp(rng.uniform(np.log(1.0), np.log(12.0), size=m))], axis=1)
    return ggm_set(pairs)


class TestSoftWeights:
    def test_symmetric_midpoint(self):
        w = pt.soft_weights(1.5, 2, 0.37)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_one_hot_limit(self):
        w = pt.soft_weights(3.0, 5, 1e-4)
        assert w[2] > 1.0 - 1e-8
        assert np.all(np.delete(w, 2) < 1e-8)

    def test_direct_formula(self):
        w = pt.soft_weights(1.7, 3, 0.5)
        logits = np.array([-1.4, -0.6, -2.6])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(w, expected, rtol=0, atol=1e-12)

    @given(i=st.floats(-3.0, 43.0), m=st.integers(1, 40),
           tau=st.floats(1e-3, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_sum_one_and_argmax_matches_harden(self, i, m, tau):
        w = pt.soft_weights(i, m, tau)
        assert abs(w.sum() - 1.0) <= 1e-12
        clipped = min(max(i, 1.0), float(m))
        if abs(clipped - math.floor(clipped) - 0.5) > 1e-6:
            hardened = int(cb.harden_index(np.array(i), m))
            assert int(np.argmax(w)) + 1 == hardened

    def test_validation(self):
        with pytest.raises(ValueError):
            pt.soft_weights(1.0, 3, 0.0)
        with pytest.raises(ValueError):
            pt.soft_weights(1.0, 0, 0.5)


def _window_priors(i, m, k, tau=0.5):
    """(one-based priors, weights) of the rate window at a single index."""
    sel, _, weights = pt._window(np.array([float(i)]), m, k, tau)
    return (sel[0] + 1).tolist(), weights[0]


class TestWindowGrid2D:
    """A grid's window is the Kronecker product of one assignment matrix per
    axis, as train_priors builds it: each row the outer product of the
    per-axis soft weights of a grid cell."""

    def test_product_structure(self):
        rng = np.random.default_rng(np.random.Philox(5))
        for _ in range(20):
            m, n = (int(d) for d in rng.integers(1, 9, size=2))
            tau = rng.uniform(0.05, 2.0)
            rows = np.kron(pt._assignment_matrix(m, m, tau), pt._assignment_matrix(n, n, tau))
            for a, b in itertools.product(range(m), range(n)):
                outer = np.outer(pt.soft_weights(a + 1, m, tau), pt.soft_weights(b + 1, n, tau))
                np.testing.assert_allclose(rows[a * n + b], outer.ravel(), rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_symmetric_quarter(self):
        w = pt.soft_weights(1.5, 2, 0.9)
        assert np.allclose(np.outer(w, w), 0.25, atol=1e-12)

    def test_marginals_are_1d_weights(self):
        first, second = pt._assignment_matrix(4, 2, 0.6), pt._assignment_matrix(3, 2, 0.6)
        rows = np.kron(first, second).reshape(4, 3, 4, 3)
        for a, b in itertools.product(range(4), range(3)):
            assert np.allclose(rows[a, b].sum(axis=1), first[a], atol=1e-12)
            assert np.allclose(rows[a, b].sum(axis=0), second[b], atol=1e-12)

    def test_top2_window_at_most_four_cells(self):
        rows = np.kron(pt._assignment_matrix(5, 2, 0.5), pt._assignment_matrix(6, 2, 0.5))
        live = (rows > 0).sum(axis=1)
        assert live.max() == 4 and live.min() >= 1
        # cell (a, b) = (3, 4) weighs its two nearest rows times its two nearest columns
        assert np.flatnonzero(rows[(3 - 1) * 6 + (4 - 1)]).tolist() == [
            (a - 1) * 6 + (b - 1) for a in (2, 3) for b in (3, 4)]


class TestTopKSelection:
    def test_nearest_pair(self):
        assert _window_priors(3.7, 10, 2)[0] == [3, 4]

    def test_boundary(self):
        assert _window_priors(0.2, 10, 2)[0] == [1, 2]
        assert _window_priors(12.0, 10, 3)[0] == [8, 9, 10]

    def test_four_nearest_order(self):
        priors, weights = _window_priors(5.5, 10, 4)
        by_weight = np.array(priors)[np.argsort(-weights, kind="stable")]
        assert by_weight.tolist() == [5, 6, 4, 7]

    def test_top2_floor_ceil(self):
        priors, weights = _window_priors(3.7, 10, 2)
        assert priors == [3, 4] and weights[1] > weights[0]
        priors, weights = _window_priors(5.0, 10, 2)
        assert 5 in priors and priors[int(np.argmax(weights))] == 5
        priors, weights = _window_priors(-2.0, 10, 2)
        assert priors == [1, 2] and weights[0] > weights[1]

    def test_k_validation(self):
        ps = gm_set(1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            pt.topk_rate(1, ps, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            pt.topk_rate(1, ps, 1.0, 0.5, 4)

    @given(i=st.floats(-2.0, 14.0), m=st.integers(1, 12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rate_window_selects_top_k(self, i, m, data):
        k = data.draw(st.integers(1, m))
        i = data.draw(st.sampled_from([i, round(i * 2) / 2]))  # half-integer ties
        sel, _, weights = pt._window(np.array([i]), m, k, 0.5)
        expected = sorted(range(1, m + 1), key=lambda c: (abs(i - c), c))[:k]
        assert (sel[0] + 1).tolist() == sorted(expected)
        assert abs(weights.sum() - 1.0) <= 1e-12


class TestWeightedRate:
    def test_equal_probability_degenerate(self):
        ps = gm_set(2.0, 2.0)
        expected = pm.rate_bits(ps.models()[0], 1)
        assert abs(pt.weighted_rate(1, ps, 1.5, 0.3) - expected) < 1e-12

    def test_one_hot_collapse(self):
        ps = gm_set(0.9, 3.0, 11.0)
        got = pt.weighted_rate(2, ps, 2.2, 1e-4)
        assert abs(got - pm.rate_bits(ps.models()[1], 2)) < 1e-6

    def test_brute_force_summation(self):
        ps = gm_set(1.1, 4.2, 9.7)
        i, tau = 2.2, 0.7
        w = np.exp(-np.abs(i - np.arange(1, 4)) / tau)
        w /= w.sum()
        expected = sum(w[m] * pm.rate_bits(ps.models()[m], -2) for m in range(3))
        assert abs(pt.weighted_rate(-2, ps, i, tau) - expected) < 1e-9

    def test_floored_prior_with_nonzero_weight_costs_32_bits(self):
        # prior 1 floors symbol 3 but keeps weight: it costs 32 bits, no gradient
        ps = gm_set(0.05, 5.0)
        assert pm.pmf_integer(ps.models()[0], 3) < pm.PROB_FLOOR
        w = np.exp(-np.abs(1.5 - np.arange(1, 3)) / 0.5)
        w /= w.sum()
        rates = [pm.floored_rate_bits(pm.pmf_integer(ps.models()[m - 1], 3)) for m in (1, 2)]
        assert rates[0] == 32.0
        rate, dtheta, _ = pt.weighted_rate_grads(3, ps, 1.5, 0.5)
        assert rate == pytest.approx(float(np.dot(w, rates)), rel=1e-12)
        assert (dtheta[0] == 0.0).all()
        np.testing.assert_allclose(dtheta[1], w[1] * pm.grad_rate_params(ps.models()[1], 3), rtol=1e-12)

    def test_underflowed_weight_skips_floored_prior(self):
        ps = gm_set(5.0, 0.05)
        assert pt.weighted_rate(3, ps, 1.0, 1e-4) > 0.0

    def test_one_floor_policy_across_rate_functions(self):
        # prior 2 floors symbol 3, but its weight underflows to exactly 0
        ps = gm_set(5.0, 0.05)
        full = pt.weighted_rate(3, ps, 1.0, 1e-4)
        assert full == pytest.approx(pm.rate_bits(ps.models()[0], 3), abs=1e-12)
        assert pt.topk_rate(3, ps, 1.0, 1e-4, k=2) == full
        assert pt.topk_rate_grads(3, ps, 1.0, 1e-4, k=2)[0] == full


class TestFullWindowPass:
    """The geometric-series pass behind k == M against the gathered window."""

    @staticmethod
    def case(rng, m, n, weighted):
        ps = random_valid_set(rng, m, family="ggm")
        symbols = rng.integers(-6, 7, size=n)
        uniques, inverse = np.unique(symbols, return_inverse=True)
        rates, grads = pt._family_tables("ggm", ps.params, uniques)
        ivals = rng.uniform(-20.0, m + 20.0, size=n)
        kind = rng.integers(0, 3, size=n)  # exact integers and half-integers too
        ivals = np.where(kind == 1, np.round(ivals), np.where(kind == 2, np.floor(ivals) + 0.5, ivals))
        weights = rng.uniform(0.0, 2.0, size=n) if weighted else None
        return rates, grads, inverse, ivals, weights

    def test_matches_gathered_window(self):
        rng = np.random.default_rng(np.random.Philox(2504))
        for trial in range(400):
            m = int(rng.integers(1, 61))
            tau = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e2))))
            rates, grads, inverse, ivals, weights = self.case(rng, m, 64, trial % 2 == 1)
            got = pt._window_pass(rates, grads, inverse, ivals, m, tau, weights)
            ref = pt._gathered_pass(rates, inverse, ivals, m, tau, weights)
            ref += (np.einsum("mu,mud->md", ref[2], grads),)
            for name, g, r in zip(("rates", "di", "touched", "dtheta"), got, ref):
                scale = rates.max() / tau if name == "di" else np.abs(r).max()
                assert np.abs(g - r).max() <= 1e-12 * scale, (name, m, tau)

    def test_index_on_a_prior_has_sign_zero_there(self):
        # at i = 2 the middle prior has no pull; the outer two pull evenly
        ps = gm_set(1.0, 1.0, 1.0)
        assert pt.weighted_rate_grads(0, ps, 2.0, 0.5)[2] == pytest.approx(0.0, abs=1e-15)
        ps = gm_set(0.9, 3.0, 11.0)
        rates, _ = pt._family_tables("gm", ps.params, np.array([2]))
        for tau in (1e-4, 0.05, 0.7, 30.0):
            w = pt.soft_weights(2.0, 3, tau)
            signs = np.array([1.0, 0.0, -1.0])  # sign(i - m') at i = 2
            expected = float(np.sum(w * rates[:, 0] * (np.dot(w, signs) - signs))) / tau
            got = pt.weighted_rate_grads(2, ps, 2.0, tau)[2]
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * rates.max() / tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_index_gives_nan_loss(self, bad):
        rng = np.random.default_rng(np.random.Philox(5))
        rates, grads, inverse, ivals, _ = self.case(rng, 7, 16, False)
        ivals[3] = bad
        loss, _, _, _ = pt._calibration_pass(rates, grads, inverse, ivals, np.zeros(16), 7, 0.3)
        assert math.isnan(loss)

    @pytest.mark.parametrize("lr", [1e6, 1e300])
    def test_calibration_divergence_raises_with_trace(self, lr):
        # 1e300 throws the curve itself, and so the indexes, out of range
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 8, 8), seed=3))
        cfg = pt.TrainConfig(family="gm", dims=(6,), epochs=30, lr=lr,
                             predictor_mode="calibration-curve")
        with pytest.raises(pt.TrainingDivergedError) as err:
            pt.train_priors([blk], cfg)
        assert len(err.value.loss_trace) >= 1


def gathered_pass_reference(rates, inverse, ivals, k, tau, element_weights=None):
    """The Top-K pass as it was written over an (n, k) window: gathered
    priors, softmax and sums along the window axis."""
    m, u = rates.shape
    sel, offset, weights = pt._window(ivals, m, k, tau)
    sel_rates = rates[sel, inverse[:, None]]
    element_rates = (weights * sel_rates).sum(axis=1)
    signs = np.sign(offset)
    mean_sign = (weights * signs).sum(axis=1, keepdims=True)
    di = (weights * sel_rates * (mean_sign - signs)).sum(axis=1) / tau
    if element_weights is not None:
        weights = weights * element_weights[:, None]
    touched = np.bincount((sel * u + inverse[:, None]).ravel(), weights=weights.ravel(),
                          minlength=m * u).reshape(m, u)
    return element_rates, di, touched


class TestGatheredPass:
    """The column-wise Top-K pass against the (n, k) window it replaced."""

    def test_matches_window_reference(self):
        rng = np.random.default_rng(np.random.Philox(2508))
        exact_ks = set()
        for trial in range(480):
            m = int(rng.integers(1, 41))
            k = int(rng.integers(1, m + 1)) if trial % 4 else min(m, 1 + trial % 5)
            tau = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e2))))
            rates, grads, inverse, ivals, weights = TestFullWindowPass.case(rng, m, 96, trial % 2 == 1)
            ivals[rng.random(96) < 0.05] = np.nan
            with np.errstate(invalid="ignore"):
                got = pt._gathered_pass(rates, inverse, ivals, k, tau, weights)
                ref = gathered_pass_reference(rates, inverse, ivals, k, tau, weights)
            for name, g, r in zip(("rates", "di", "touched"), got, ref):
                if k <= 5:
                    assert np.array_equal(g, r, equal_nan=True), (name, m, k, tau)
                    exact_ks.add(k)
                assert np.array_equal(np.isnan(g), np.isnan(r)), (name, m, k, tau)
                finite = ~np.isnan(r)
                scale = np.abs(r[finite]).max(initial=0.0)
                assert np.abs(g[finite] - r[finite]).max(initial=0.0) <= 1e-12 * scale, (name, m, k, tau)
        assert exact_ks == {1, 2, 3, 4, 5}


class TestTopkRate:
    def test_full_selection_equals_weighted(self):
        rng = np.random.default_rng(np.random.Philox(7))
        for _ in range(2000):
            m = int(rng.integers(1, 13))
            ps = random_valid_set(rng, m)
            sym = int(rng.integers(-2, 3))
            i = float(rng.uniform(0.0, m + 1.0))
            tau = float(rng.uniform(0.02, 3.0))
            full = pt.weighted_rate(sym, ps, i, tau)
            assert abs(pt.topk_rate(sym, ps, i, tau, m) - full) <= 1e-12

    def test_small_tau_nearest_prior(self):
        ps = gm_set(0.9, 3.0, 11.0, 20.0)
        got = pt.topk_rate(1, ps, 3.3, 1e-4, 2)
        assert abs(got - pm.rate_bits(ps.models()[2], 1)) < 1e-6

    def test_renormalized_pair(self):
        ps = gm_set(1.0, 4.0, 9.0)
        i, tau = 1.6, 0.4
        d = np.abs(i - np.array([2.0, 1.0]))
        w = np.exp(-d / tau)
        w /= w.sum()
        expected = w[0] * pm.rate_bits(ps.models()[1], 1) + w[1] * pm.rate_bits(ps.models()[0], 1)
        assert abs(pt.topk_rate(1, ps, i, tau, 2) - expected) < 1e-12

    def test_top2_vs_full_mean_gap_frozen(self):
        rng = np.random.default_rng(np.random.Philox(1234))
        diffs = []
        for _ in range(1000):
            m = int(rng.integers(3, 13))
            tau = 0.05 * m
            sig = np.exp(rng.uniform(np.log(0.8), np.log(20.0), size=m))
            ps = gm_set(*sig)
            sym = int(rng.integers(-2, 3))
            i = float(rng.uniform(0.5, m + 0.5))
            diffs.append(abs(pt.topk_rate(sym, ps, i, tau, 2)
                             - pt.weighted_rate(sym, ps, i, tau)))
        assert float(np.mean(diffs)) < TOPK2_MEAN_GAP_BITS


def fd_check(f, x0, analytic, eps=1e-5, rtol=1e-4, atol=1e-7):
    got = []
    for idx in range(len(x0)):
        up = np.array(x0, dtype=np.float64)
        dn = up.copy()
        up[idx] += eps
        dn[idx] -= eps
        got.append((f(up) - f(dn)) / (2 * eps))
    got = np.asarray(got)
    assert np.allclose(analytic, got, rtol=rtol, atol=atol), (analytic, got)


class TestRateGradients:
    def rate_args(self, rng, family):
        m = int(rng.integers(2, 7))
        ps = random_valid_set(rng, m, family)
        sym = int(rng.integers(-2, 3))
        i = float(rng.uniform(1.0, float(m)))
        if abs(i - round(i)) < 0.05:
            i += 0.11
        tau = float(rng.uniform(0.1, 1.5))
        return ps, sym, i, tau

    def test_weighted_rate_grads_fd(self):
        rng = np.random.default_rng(np.random.Philox(8))
        for family in ("gm", "ggm"):
            for _ in range(25):
                ps, sym, i, tau = self.rate_args(rng, family)
                _, dtheta, di = pt.weighted_rate_grads(sym, ps, i, tau)
                flat = ps.params.ravel()

                def at_coords(x, ps=ps, sym=sym, i=i, tau=tau):
                    moved = pt.PriorSet1D(family=ps.family,
                                          params=x.reshape(ps.params.shape))
                    return pt.weighted_rate(sym, moved, i, tau)

                fd_check(at_coords, flat, dtheta.ravel())
                fd_check(lambda x, ps=ps, sym=sym, tau=tau:
                         pt.weighted_rate(sym, ps, float(x[0]), tau),
                         np.array([i]), np.array([di]))

    def test_topk_rate_grads_fd(self):
        rng = np.random.default_rng(np.random.Philox(9))
        for _ in range(25):
            ps, sym, i, tau = self.rate_args(rng, "gm")
            k = int(rng.integers(1, ps.m + 1))
            _, dtheta, di = pt.topk_rate_grads(sym, ps, i, tau, k)
            flat = ps.params.ravel()

            def at_coords(x, ps=ps, sym=sym, i=i, tau=tau, k=k):
                moved = pt.PriorSet1D(family=ps.family,
                                      params=x.reshape(ps.params.shape))
                return pt.topk_rate(sym, moved, i, tau, k)

            fd_check(at_coords, flat, dtheta.ravel())
            fd_check(lambda x, ps=ps, sym=sym, tau=tau, k=k:
                     pt.topk_rate(sym, ps, float(x[0]), tau, k),
                     np.array([i]), np.array([di]))

    def test_gmm_coord_grads_fd(self):
        rng = np.random.default_rng(np.random.Philox(10))
        for _ in range(10):
            m = int(rng.integers(2, 5))
            coords = np.concatenate([
                rng.normal(0, 0.5, size=(m, 2)),
                rng.uniform(-1.0, 1.0, size=(m, 2)),
                rng.uniform(np.log(0.8), np.log(6.0), size=(m, 2)),
            ], axis=1)
            ps = pt.PriorSet1D(family="gmm", params=coords)
            sym = int(rng.integers(-2, 3))
            i = float(rng.uniform(1.2, m - 0.2)) if m > 1 else 1.3
            if abs(i - round(i)) < 0.05:
                i += 0.11
            _, dtheta, _ = pt.weighted_rate_grads(sym, ps, i, 0.6)

            def at_coords(x, ps=ps, sym=sym, i=i):
                moved = pt.PriorSet1D(family="gmm",
                                      params=x.reshape(ps.params.shape))
                return pt.weighted_rate(sym, moved, i, 0.6)

            fd_check(at_coords, ps.params.ravel(), dtheta.ravel())


class TestGumbelMask:
    def test_balanced_mean(self):
        b = np.full(100_000, 0.5)
        mask = pt.gumbel_mask(b, 0.4, noise_seed=3)
        assert abs(float(mask.mean()) - 0.5) < 0.01

    def test_saturated_limit(self):
        for seed in range(5):
            assert pt.gumbel_mask(1.0, 1e-3, noise_seed=seed) > 1.0 - 1e-9

    def test_gradient_matches_fd(self):
        for seed in (0, 7, 19):
            _, db = pt.gumbel_mask_grad(0.7, 0.4, noise_seed=seed)
            eps = 1e-6
            fd = (pt.gumbel_mask(0.7 + eps, 0.4, noise_seed=seed)
                  - pt.gumbel_mask(0.7 - eps, 0.4, noise_seed=seed)) / (2 * eps)
            assert abs(db - fd) <= 1e-4 * abs(fd) + 1e-8

    def test_seeded_determinism(self):
        b = np.linspace(0.1, 0.9, 50)
        a1 = pt.gumbel_mask(b, 0.3, noise_seed=11)
        a2 = pt.gumbel_mask(b, 0.3, noise_seed=11)
        b2 = pt.gumbel_mask(b, 0.3, noise_seed=12)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b2)

    def test_scalar_and_array_shapes(self):
        out = pt.gumbel_mask(0.5, 0.4)
        assert isinstance(out, float) and 0.0 <= out <= 1.0
        arr = pt.gumbel_mask(np.full((3, 4), 0.5), 0.4)
        assert arr.shape == (3, 4)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            pt.gumbel_mask(0.5, 0.0)


class TestHyperRate:
    def z_block(self):
        rng = np.random.default_rng(np.random.Philox(21))
        res = rng.integers(-3, 4, size=(2, 6, 6))
        return block_of(res)

    def test_dominant_logit_single_prior(self):
        ps = gm_set(1.0, 4.0, 9.0)
        z = self.z_block()
        logits = pt.HyperLogits(np.tile([20.0, -20.0, -20.0], (2, 1)))
        expected = sum(pm.rate_bits(ps.models()[0], int(s))
                       for s in z.residuals.ravel())
        assert abs(pt.hyper_rate_grads(z, ps, logits)[0] - expected) < 1e-6

    def test_uniform_logits_average(self):
        ps = gm_set(1.5, 6.0)
        z = self.z_block()
        logits = pt.HyperLogits(np.zeros((2, 2)))
        totals = [sum(pm.rate_bits(ps.models()[m - 1], int(s))
                      for s in z.residuals.ravel()) for m in (1, 2)]
        expected = 0.5 * totals[0] + 0.5 * totals[1]
        assert abs(pt.hyper_rate_grads(z, ps, logits)[0] - expected) < 1e-9

    def test_random_logits_brute_force(self):
        rng = np.random.default_rng(np.random.Philox(22))
        ps = gm_set(0.9, 2.5, 7.0)
        z = self.z_block()
        raw = rng.normal(0, 2.0, size=(2, 3))
        logits = pt.HyperLogits(raw)
        w = np.exp(raw - raw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        per_channel = z.residuals.reshape(2, -1)
        expected = 0.0
        for c in range(2):
            for m in range(3):
                expected += w[c, m] * sum(pm.rate_bits(ps.models()[m], int(s))
                                          for s in per_channel[c])
        assert abs(pt.hyper_rate_grads(z, ps, logits)[0] - expected) < 1e-7

    def test_gradients_match_fd(self):
        ps = gm_set(1.2, 3.5, 8.0)
        z = self.z_block()
        raw = np.array([[0.4, -0.2, 0.9], [-1.0, 0.3, 0.1]])
        _, dlogits, dtheta = pt.hyper_rate_grads(z, ps, pt.HyperLogits(raw))

        def at_logits(x):
            return pt.hyper_rate_grads(z, ps, pt.HyperLogits(x.reshape(2, 3)))[0]

        def at_coords(x):
            moved = pt.PriorSet1D(family="gm", params=x.reshape(3, 1))
            return pt.hyper_rate_grads(z, moved, pt.HyperLogits(raw))[0]

        fd_check(at_logits, raw.ravel(), dlogits.ravel())
        fd_check(at_coords, ps.params.ravel(), dtheta.ravel())

    def test_floored_prior_with_live_weight_costs_32_bits(self):
        ps = gm_set(0.05, 5.0)
        z = self.z_block()
        symbols = [int(s) for s in z.residuals.ravel()]
        floored = {(m, s) for m in (1, 2) for s in symbols
                   if pm.pmf_integer(ps.models()[m - 1], s) < pm.PROB_FLOOR}
        assert (1, 3) in floored
        expected = 0.5 * sum(pm.floored_rate_bits(pm.pmf_integer(ps.models()[m - 1], s))
                             for m in (1, 2) for s in symbols)
        # a floored pair adds 32 bits and nothing to the gradient
        expected_grad = [0.5 * sum(pm.grad_rate_params(ps.models()[m - 1], s) for s in symbols
                                   if (m, s) not in floored) for m in (1, 2)]
        rate, _, dtheta = pt.hyper_rate_grads(z, ps, pt.HyperLogits(np.zeros((2, 2))))
        assert rate == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(dtheta, np.array(expected_grad), rtol=1e-9)

    def test_floored_prior_with_dead_weight_passes(self):
        ps = gm_set(0.05, 5.0)
        z = self.z_block()
        logits = pt.HyperLogits(np.tile([-800.0, 800.0], (2, 1)))
        assert pt.hyper_rate_grads(z, ps, logits)[0] > 0.0

    def test_shape_validation(self):
        ps = gm_set(1.0, 2.0)
        z = self.z_block()
        with pytest.raises(ValueError):
            pt.hyper_rate_grads(z, ps, pt.HyperLogits(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            pt.hyper_rate_grads(z, ps, pt.HyperLogits(np.zeros((1, 2))))


def skip_fixture():
    rng = np.random.default_rng(np.random.Philox(31))
    sig = np.where(rng.random((1, 8, 8)) < 0.5, 1.0, 5.0)
    res = np.rint(rng.normal(0.0, sig)).astype(np.int64)
    block = block_of(res)
    ps = gm_set(2.0, 5.0, 12.0)
    cont = np.full(block.residuals.shape, 2.0)
    cont += rng.uniform(-0.3, 0.3, size=cont.shape)
    indexes = cb.IndexGrid.from_continuous(cont, ps.m)
    return block, ps, indexes


class TestSkipLoss:
    def test_all_ones_mask_is_full_rate(self):
        block, ps, indexes = skip_fixture()
        mask = np.ones(block.residuals.shape)
        loss = pt.skip_loss(block, ps, indexes, mask, 0.7, 0.4, 0.3)
        expected = sum(
            pt.weighted_rate(int(s), ps, float(i), 0.4)
            for s, i in zip(block.residuals.ravel(), indexes.continuous.ravel())
        )
        assert abs(loss - expected) < 1e-9

    def test_all_zeros_mask_is_energy_only(self):
        block, ps, indexes = skip_fixture()
        mask = np.zeros(block.residuals.shape)
        lam = 0.7
        loss = pt.skip_loss(block, ps, indexes, mask, lam, 0.4, 0.3)
        assert abs(loss - lam * float(np.sum(block.residuals ** 2))) < 1e-9

    def test_hyper_term_added(self):
        block, ps, indexes = skip_fixture()
        z = block_of(np.arange(-2, 2)[None, None, :].repeat(2, axis=0))
        logits = pt.HyperLogits(np.zeros((2, ps.m)))
        mask = np.zeros(block.residuals.shape)
        with_z = pt.skip_loss(block, ps, indexes, mask, 0.7, 0.4, 0.3,
                              z_block=z, z_logits=logits)
        without = pt.skip_loss(block, ps, indexes, mask, 0.7, 0.4, 0.3)
        assert abs(with_z - without - pt.hyper_rate_grads(z, ps, logits)[0]) < 1e-9

    def test_zero_lambda_minimized_by_full_skip(self):
        block, ps, indexes = skip_fixture()
        rng = np.random.default_rng(np.random.Philox(32))
        mask = rng.uniform(0.2, 1.0, size=block.residuals.shape)
        losses = [pt.skip_loss(block, ps, indexes, c * mask, 0.0, 0.4, 0.3)
                  for c in (1.0, 0.5, 0.25, 0.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradients_match_fd(self):
        block, ps, indexes = skip_fixture()
        rng = np.random.default_rng(np.random.Philox(33))
        mask = rng.uniform(0.1, 0.9, size=block.residuals.shape)
        lam = 0.6
        _, dtheta, di, dmask, _ = pt.skip_loss_grads(
            block, ps, indexes, mask, lam, 0.4, 0.3)

        def at_coords(x):
            moved = pt.PriorSet1D(family="gm", params=x.reshape(ps.params.shape))
            return pt.skip_loss(block, moved, indexes, mask, lam, 0.4, 0.3)

        fd_check(at_coords, ps.params.ravel(), dtheta.ravel(), rtol=2e-4)

        flat_mask = mask.ravel()
        picks = rng.choice(flat_mask.size, size=6, replace=False)

        def at_mask(x):
            return pt.skip_loss(block, ps, indexes, x.reshape(mask.shape),
                                lam, 0.4, 0.3)

        eps = 1e-6
        for p in picks:
            up, dn = flat_mask.copy(), flat_mask.copy()
            up[p] += eps
            dn[p] -= eps
            fd = (at_mask(up) - at_mask(dn)) / (2 * eps)
            assert abs(dmask.ravel()[p] - fd) <= 1e-4 * abs(fd) + 1e-7

        flat_i = indexes.continuous.ravel()
        for p in picks:
            up, dn = flat_i.copy(), flat_i.copy()
            up[p] += eps
            dn[p] -= eps
            fd = (pt.skip_loss(block, ps,
                               cb.IndexGrid.from_continuous(
                                   up.reshape(mask.shape), ps.m),
                               mask, lam, 0.4, 0.3)
                  - pt.skip_loss(block, ps,
                                 cb.IndexGrid.from_continuous(
                                     dn.reshape(mask.shape), ps.m),
                                 mask, lam, 0.4, 0.3)) / (2 * eps)
            assert abs(di.ravel()[p] - fd) <= 1e-4 * abs(fd) + 1e-7

    def test_gumbel_chained_gradient(self):
        block, ps, indexes = skip_fixture()
        rng = np.random.default_rng(np.random.Philox(34))
        raw = rng.uniform(0.2, 0.8, size=block.residuals.shape)
        lam, seed = 0.6, 9
        _, _, _, draw, _ = pt.skip_loss_grads(
            block, ps, indexes, raw, lam, 0.4, 0.3, noise_seed=seed)
        eps = 1e-6
        picks = rng.choice(raw.size, size=4, replace=False)
        for p in picks:
            up, dn = raw.ravel().copy(), raw.ravel().copy()
            up[p] += eps
            dn[p] -= eps
            fd = (pt.skip_loss(block, ps, indexes, up.reshape(raw.shape),
                               lam, 0.4, 0.3, noise_seed=seed)
                  - pt.skip_loss(block, ps, indexes, dn.reshape(raw.shape),
                                 lam, 0.4, 0.3, noise_seed=seed)) / (2 * eps)
            assert abs(draw.ravel()[p] - fd) <= 1e-4 * abs(fd) + 1e-7

    def test_validation(self):
        block, ps, indexes = skip_fixture()
        mask = np.ones(block.residuals.shape)
        with pytest.raises(ValueError):
            pt.skip_loss(block, ps, indexes, mask, -0.1, 0.4, 0.3)
        with pytest.raises(ValueError):
            pt.skip_loss(block, ps, indexes, mask[:, :4], 0.5, 0.4, 0.3)
        grid2 = cb.IndexGrid.from_continuous(
            indexes.continuous, ps.m, second=indexes.continuous, n=3)
        with pytest.raises(ValueError):
            pt.skip_loss(block, ps, grid2, mask, 0.5, 0.4, 0.3)

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("lambda_", [float("nan"), float("inf"), -0.1])
    def test_lambda_must_be_finite_and_non_negative(self, seed, lambda_):
        block = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 8, 8), seed=seed))
        ps = gm_set(1.0, 2.0, 3.0, 4.0)
        indexes = cb.IndexGrid.from_continuous(np.full(block.shape, 3.0), ps.m)
        mask = np.full(block.shape, 0.5)
        for objective in (pt.skip_loss, pt.skip_loss_grads):
            with pytest.raises(ValueError, match="lambda_ must be finite and >= 0"):
                objective(block, ps, indexes, mask, lambda_, 0.4, 0.3, k=2)

    @staticmethod
    def own_block_case():
        # the full window gives the narrowest prior a tiny nonzero weight on
        # every element, and it floors symbol -115
        block = ss.gen_block(ss.SourceSpec("gm", (1, 32, 32), seed=4))
        result = pt.train_priors(block, pt.TrainConfig("gm", (12,), 20, predictor_mode="free-index"))
        return block, result

    @pytest.mark.parametrize("objective", [pt.skip_loss, pt.skip_loss_grads])
    def test_full_window_scores_a_set_on_its_own_training_block(self, objective):
        block, result = self.own_block_case()
        out = objective(block, result.prior_set, result.indexes, np.ones(block.shape), 0.01, 0.3,
                        0.3, k=None)
        for value in (out if isinstance(out, tuple) else (out,)):
            if value is not None:
                assert np.isfinite(value).all()

    def test_full_window_loss_is_the_floored_brute_force_sum(self):
        block, result = self.own_block_case()
        models = result.prior_set.models()
        m = len(models)
        floored_pairs = 0
        expected = 0.0
        for s, i in zip(block.residuals.ravel(), result.indexes.continuous.ravel()):
            w = np.exp(-np.abs(i - np.arange(1, m + 1)) / 0.3)
            w /= w.sum()
            pmf = np.array([pm.pmf_integer(model, int(s)) for model in models])
            floored_pairs += int((pmf < pm.PROB_FLOOR).sum())
            expected += float(np.dot(w, pm.floored_rate_bits(pmf)))
        assert floored_pairs > 0
        got = pt.skip_loss(block, result.prior_set, result.indexes, np.ones(block.shape), 0.0,
                           0.3, 0.3, k=None)
        assert got == pytest.approx(expected, rel=1e-9)


class TestInitPriorSet:
    def test_gm_scales_strictly_increase(self):
        ps = pt.init_prior_set("gm", 3, 14.0)
        sig = np.exp(ps.params[:, 0])
        assert np.all(np.diff(sig) > 0)

    def test_spread_reaches_third_of_max(self):
        ps = pt.init_prior_set("gm", 5, 10.0)
        assert np.exp(ps.params[-1, 0]) >= 10.0 / 3.0

    def test_ggm_starts_gaussian_with_increasing_alpha(self):
        ps = pt.init_prior_set("ggm", 4, 12.0)
        beta = np.exp(ps.params[:, 0])
        alpha = np.exp(ps.params[:, 1])
        assert np.allclose(beta, 2.0, atol=1e-12)
        assert np.all(np.diff(alpha) > 0)

    def test_gmm_scale_ladder_increases(self):
        ps = pt.init_prior_set("gmm", 4, 9.0)
        sig = np.exp(ps.params[:, 4:])
        assert np.all(np.diff(sig.mean(axis=1)) > 0)

    def test_all_zero_data_uses_tiny_floor(self):
        ps = pt.init_prior_set("gm", 3, 0.0)
        sig = np.exp(ps.params[:, 0])
        assert sig[0] == pytest.approx(0.05)
        assert np.all(np.diff(sig) > 0)

    def test_2d_distinct_means_and_scales(self):
        ps = pt.init_prior_set_2d(3, 4, 8.0)
        kk = ps.params.shape[2] // 3  # [K logits, K means, K log sigmas]
        means = ps.params[:, 0, kk:2 * kk]
        assert len(np.unique(np.round(np.abs(means).max(axis=1), 9))) == 3
        sig = np.exp(ps.params[0, :, 2 * kk:]).mean(axis=1)
        assert np.all(np.diff(sig) > 0)


class TestAnnealSchedule:
    def test_for_set_size(self):
        sch = pt.AnnealSchedule.for_set_size(40)
        assert sch.tau0 == pytest.approx(2.0)

    def test_exponential_decay_values(self):
        sch = pt.AnnealSchedule(tau0=1.5)
        assert sch.tau(0) == pytest.approx(1.5)
        assert sch.tau(100) == pytest.approx(1.5 * math.exp(-1.0), rel=1e-12)

    def test_strictly_decreasing(self):
        sch = pt.AnnealSchedule.for_set_size(10)
        taus = [sch.tau(e) for e in range(120)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            pt.AnnealSchedule(tau0=0.0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            pt.TrainConfig(family="gm", dims=(2,), epochs=0)
        with pytest.raises(ValueError):
            pt.TrainConfig(family="gm", dims=(2,), epochs=5, k=0)
        with pytest.raises(ValueError):
            pt.TrainConfig(family="gm", dims=(2,), epochs=5, lambda_=-1.0)
        for lr in (-1.0, 0.0, float("nan"), float("inf")):  # a step that climbs the loss, or none
            with pytest.raises(ValueError, match="lr"):
                pt.TrainConfig(family="gm", dims=(2,), epochs=5, lr=lr)
        for lambda_ in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda_"):
                pt.TrainConfig(family="gm", dims=(2,), epochs=5, lambda_=lambda_)
        with pytest.raises(ValueError):
            pt.TrainConfig(family="gm", dims=(2,), epochs=5,
                           predictor_mode="nope")
        with pytest.raises(ValueError):
            pt.TrainConfig(family="gm", dims=(2, 3), epochs=5)

    def test_flat_count(self):
        assert pt.TrainConfig(family="gmm", dims=(4, 3), epochs=1).flat_count == 12


class TestTrainPriors:
    def test_single_prior_reaches_mle(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 40, 40),
                                         seed=5, sigma_range=(3.0, 3.0)))
        target = mle_sigma(blk.residuals.ravel())
        cfg = pt.TrainConfig(family="gm", dims=(1,), epochs=600, seed=0)
        res = pt.train_priors([blk], cfg)
        learned = float(np.exp(res.prior_set.params[0, 0]))
        assert abs(learned - target) / target <= 0.05
        assert res.loss_trace[-1] <= res.loss_trace[0]
        assert len(res.loss_trace) == 600

    def two_scale_result(self):
        ba = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 40, 40),
                                        seed=9, sigma_range=(0.5, 0.5)))
        bb = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 40, 40),
                                        seed=10, sigma_range=(8.0, 8.0)))
        cfg = pt.TrainConfig(family="gm", dims=(2,), epochs=600, seed=1)
        res = pt.train_priors([ba, bb], cfg)
        sig = np.exp(res.prior_set.params[:, 0])
        mles = (mle_sigma(ba.residuals.ravel()), mle_sigma(bb.residuals.ravel()))
        n = ba.residuals.size
        truth = np.concatenate([np.ones(n, int), 2 * np.ones(n, int)])
        labels = np.where(truth == 1,
                          1 + int(np.argmin(np.abs(sig - mles[0]))),
                          1 + int(np.argmin(np.abs(sig - mles[1]))))
        purity = float(np.mean(res.indexes.hardened.ravel() == labels))
        return sig, mles, purity

    def test_two_scale_clusters_recover_mles(self):
        sig, mles, purity = self.two_scale_result()
        assert abs(sig[0] - mles[0]) / mles[0] <= 0.10
        assert abs(sig[1] - mles[1]) / mles[1] <= 0.10
        assert purity >= 0.92

    @pytest.mark.xfail(
        strict=True,
        reason="rate-optimal assignment sends the broad cluster's near-zero "
               "symbols (~7.5% of elements) to the narrow prior, capping "
               "cluster purity near 92%, and the rate objective has no term "
               "that would trade those bits for purity")
    def test_two_scale_purity_95(self):
        _, _, purity = self.two_scale_result()
        assert purity >= 0.95

    def test_seeded_runs_export_identical_tables(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 24, 24),
                                         seed=13, sigma_range=(0.4, 6.0)))
        cfg = pt.TrainConfig(family="gm", dims=(4,), epochs=120, seed=2)
        blobs = []
        for _ in range(2):
            res = pt.train_priors([blk], cfg)
            blobs.append(ct.serialize_table_set(pt.export_tables(res.prior_set)))
        assert blobs[0] == blobs[1]

    def test_divergence_raises_with_trace(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 16, 16),
                                         seed=14, sigma_range=(0.3, 0.6)))
        cfg = pt.TrainConfig(family="gm", dims=(2,), epochs=30, lr=1e6, seed=7)
        with pytest.raises(pt.TrainingDivergedError) as err:
            pt.train_priors([blk], cfg)
        assert len(err.value.loss_trace) >= 1

    def test_ggm_step_out_of_the_gamma_domain_is_divergence(self):
        # the step throws alpha to where the incomplete gamma's argument is
        # not finite: a ParameterDomainError inside the kernels
        blk = ss.gen_block(ss.SourceSpec(family="ggm", shape=(1, 16, 16), seed=1))
        cfg = pt.TrainConfig(family="ggm", dims=(4,), epochs=5, lr=1e6)
        with pytest.raises(pt.TrainingDivergedError, match="model domain") as err:
            pt.train_priors([blk], cfg)
        assert isinstance(err.value.__cause__, pm.ParameterDomainError)
        assert len(err.value.loss_trace) >= 1

    def test_last_step_out_of_the_gamma_domain_is_divergence(self):
        # one epoch: only the check after the last step sees the bad priors,
        # and calibration mode without skip reads no final rates
        blk = ss.gen_block(ss.SourceSpec(family="ggm", shape=(1, 16, 16), seed=1))
        cfg = pt.TrainConfig(family="ggm", dims=(4,), epochs=1, lr=1e6,
                             predictor_mode="calibration-curve")
        with pytest.raises(pt.TrainingDivergedError, match="model domain at epoch 1") as err:
            pt.train_priors([blk], cfg)
        assert len(err.value.loss_trace) == 1

    def test_widest_symbol_fails_whenever_its_table_does(self):
        # (|k| / alpha)^beta overflows at the widest symbol first, which is
        # why that symbol alone checks the final priors
        coords = np.log([[6.0, 1e-50]])  # beta 6, alpha 1e-50
        pt._epoch_tables("ggm", coords, np.array([-1, 0, 1]), 0, [])
        for uniques in (np.arange(-200, 2), np.array([-200])):
            with pytest.raises(pt.TrainingDivergedError, match="model domain"):
                pt._epoch_tables("ggm", coords, uniques, 0, [])

    def test_calibration_curve_predictor(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 40, 40),
                                         seed=21, sigma_range=(0.5, 8.0)))
        cfg = pt.TrainConfig(family="gm", dims=(10,), epochs=300, seed=3,
                             predictor_mode="calibration-curve")
        res = pt.train_priors([blk], cfg)
        assert res.predictor["mode"] == "calibration-curve"
        assert res.loss_trace[-1] <= res.loss_trace[0]
        sig = np.exp(res.prior_set.params[:, 0])
        assert np.all(np.diff(sig) > 0)
        hold = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 20, 20),
                                          seed=22, sigma_range=(0.5, 8.0)))
        i_cont = (res.predictor["a"] * np.log(hold.side_features.ravel())
                  + res.predictor["c"])
        hardened = cb.harden_index(i_cont, res.prior_set.m)
        arg = np.array([1 + int(np.argmax(pt.soft_weights(i, res.prior_set.m,
                                                          res.final_tau)))
                        for i in i_cont])
        assert float(np.mean(hardened != arg)) <= 0.01

    def test_free_index_hardening_consistent_with_weights(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(1, 24, 24),
                                         seed=23, sigma_range=(0.4, 6.0)))
        cfg = pt.TrainConfig(family="gm", dims=(5,), epochs=150, seed=8)
        res = pt.train_priors([blk], cfg)
        cont = res.indexes.continuous.ravel()
        hard = res.indexes.hardened.ravel()
        arg = np.array([1 + int(np.argmax(pt.soft_weights(i, 5, res.final_tau)))
                        for i in cont])
        assert float(np.mean(hard != arg)) <= 0.01

    def test_2d_gmm_training(self):
        blk = ss.gen_block(ss.SourceSpec(family="gmm", shape=(2, 30, 30),
                                         seed=31, mode="nonzero-center",
                                         comp_mean_range=(-5.0, 5.0),
                                         comp_sigma_range=(0.5, 4.0)))
        cfg = pt.TrainConfig(family="gmm", dims=(4, 3), epochs=150, seed=4)
        res = pt.train_priors([blk], cfg)
        assert isinstance(res.prior_set, pt.PriorSet2D)
        assert res.loss_trace[-1] <= res.loss_trace[0]
        g = res.indexes
        assert g.n == 3
        assert g.hardened.min() >= 1 and g.hardened.max() <= 4
        second = g.flat_table_indexes() % g.n + 1
        assert second.min() >= 1 and second.max() <= 3
        tabs = pt.export_tables(res.prior_set)
        assert len(tabs.tables) == 12
        q = ct.quantize_pmf(pt.model_from_coords("gmm", res.prior_set.params[1, 2]), support_radius=127)
        pos = (2 - 1) * 3 + (3 - 1)
        assert np.array_equal(q.cumulative, tabs.tables[pos].cumulative)
        assert q.offset == tabs.tables[pos].offset

    def test_skip_phase_keeps_information(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 30, 30),
                                         seed=61, sigma_range=(0.11, 4.0)))
        cfg = pt.TrainConfig(family="gm", dims=(4,), epochs=200, seed=5,
                             skip_epochs=150, lambda_=4.0)
        res = pt.train_priors([blk], cfg)
        assert res.skip_head is not None
        mask = res.skip_head.hard_mask()
        ratio = 1.0 - float(np.mean(mask.hard))
        assert 0.0 < ratio < 1.0
        skipped = blk.residuals[mask.hard == 0]
        total = float(np.sum(blk.residuals ** 2))
        assert float(np.sum(skipped ** 2)) <= 0.01 * total

    def test_skipped_tables_minimize_the_skip_objective(self):
        # skipping whole tables: no subset of the set's tables gives a lower
        # model rate plus lambda * skipped energy than the trained choice
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 30, 30),
                                         seed=61, sigma_range=(0.11, 4.0)))
        lam = 1.0  # the third table then sits near the margin: 1,168 bits coded, 1,041 skipped
        cfg = pt.TrainConfig(family="gm", dims=(4,), epochs=60, seed=5, skip_epochs=1,
                             lambda_=lam, predictor_mode="calibration-curve")
        res = pt.train_priors([blk], cfg)
        idx = res.indexes.flat_table_indexes()
        symbols = blk.residuals.ravel()
        # each element's floored model rate under the prior its index selects
        sigmas = np.exp(res.prior_set.params[idx, 0])
        rates = -np.log2(np.maximum(pm.gaussian_pmf_grads(symbols, sigmas)[0], pm.PROB_FLOOR))

        def objective(skipped):
            gone = np.isin(idx, list(skipped))
            return rates[~gone].sum() + lam * float((symbols[gone] ** 2).sum())

        best = min(objective(s) for s in itertools.chain.from_iterable(
            itertools.combinations(range(4), r) for r in range(5)))
        assert objective(res.skip_head.tables) == pytest.approx(best, rel=1e-12)
        mask = res.skip_head.hard_mask()
        assert mask.hard.ravel().tolist() == (~np.isin(idx, res.skip_head.tables)).astype(int).tolist()

    def test_skip_mask_carries_over_to_another_grid(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 30, 30),
                                         seed=61, sigma_range=(0.11, 4.0)))
        cfg = pt.TrainConfig(family="gm", dims=(4,), epochs=40, seed=5, skip_epochs=1,
                             lambda_=4.0, predictor_mode="calibration-curve")
        head = pt.train_priors([blk], cfg).skip_head
        other = cb.IndexGrid.from_continuous(np.array([[[1.0, 2.0, 3.0, 4.0, 2.4]]]), 4)
        keep = [int(t not in head.tables) for t in (0, 1, 2, 3, 1)]
        assert head.hard_mask(other).hard.ravel().tolist() == keep

    def test_hyper_logits_pick_good_priors(self):
        blk = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 40, 40),
                                         seed=21, sigma_range=(0.5, 8.0)))
        zblk = ss.gen_block(ss.SourceSpec(family="gm", shape=(3, 16, 16),
                                          seed=51, sigma_range=(0.5, 4.0)))
        cfg = pt.TrainConfig(family="gm", dims=(6,), epochs=150, seed=6)
        res = pt.train_priors([blk], cfg, z_block=zblk)
        hl = res.hyper_logits
        assert hl is not None and hl.logits.shape == (3, 6)
        sel = hl.selected()
        assert np.all((sel >= 1) & (sel <= 6))
        sig = np.exp(res.prior_set.params[:, 0])
        z = zblk.residuals.reshape(3, -1)
        for c in range(3):
            totals = []
            for m in range(6):
                pmf, _ = pm.gaussian_pmf_grads(z[c], sig[m])
                totals.append(float(np.sum(pm.floored_rate_bits(pmf))))
            assert totals[sel[c] - 1] <= 1.25 * min(totals)

    def test_empty_stream_rejected(self):
        cfg = pt.TrainConfig(family="gm", dims=(2,), epochs=5)
        with pytest.raises(ValueError):
            pt.train_priors([], cfg)


class TestExportTables:
    def test_m40_sixteen_bit_size(self):
        ps = pt.init_prior_set("gm", 40, 24.0)
        tabs = pt.export_tables(ps)
        assert len(tabs.tables) == 40
        entries = sum(len(t.cumulative) for t in tabs.tables)
        assert entries * 2 <= 0.02 * 2 ** 20

    def test_tables_match_quantize_pmf(self):
        ps = pt.init_prior_set("ggm", 5, 11.0)
        tabs = pt.export_tables(ps)
        for m in range(1, 6):
            q = ct.quantize_pmf(ps.models()[m - 1], support_radius=127)
            assert np.array_equal(q.cumulative, tabs.tables[m - 1].cumulative)

    def test_scale_outside_model_domain_raises(self):
        for log_sigma in (800.0, -800.0):  # exp overflows to inf, underflows to 0
            with np.errstate(over="ignore"), pytest.raises(pm.ParameterDomainError):
                pt.export_tables(pt.PriorSet1D(family="gm", params=[[0.0], [log_sigma]]))

    def test_meta_records_layout(self):
        ps2 = pt.init_prior_set_2d(10, 4, 9.0)
        tabs = pt.export_tables(ps2)
        assert len(tabs.tables) == 40
        assert tabs.meta["dims"] == [10, 4]
        assert tabs.meta["family"] == "gmm"


class TestFrozenTraining:
    """Trained bytes of a short ggm M=40 run, recorded before the full-window
    pass was rewritten (k = 3 and 8: before the Top-K pass went column-wise
    and the ggm gradients shared their bin edges): any change to the rate
    kernel shows up here.  The digests are of the tables' version-1 wire
    bytes, the form they were recorded in."""

    FROZEN = {
        ("calibration-curve", None): (
            "e5d7dc111190d22fa96360f6d328f0948bc7ccaca54b794c0191d60af24ce92d",
            5.896601318586503, 20.955664098571965),
        ("calibration-curve", 2): (
            "9aeffabcc7e21435bc95bf42697db3de0a44bfd3e8dbaf0dfad22e81ff4698a6",
            5.896627826820198, 20.955623180737668),
        ("calibration-curve", 3): (
            "35ea554035d20c5eeb13aaffe1964e267653442aae0c1f6cc3501db6b7f26d4b",
            5.8966240339794656, 20.95562588971531),
        ("calibration-curve", 8): (
            "63131b251c29f1669593a3e301515a917b9b0fdc13c872ca7d6ba2106fca8e0f",
            5.896617529414522, 20.95563993945519),
        ("free-index", None): (
            "aede1d829e5f7fc93e5f63b0ae81bd59709101f305dd6ca0eedc240e6783d445",
            None, None),
    }

    @pytest.mark.parametrize("mode,k", list(FROZEN))
    def test_trained_tables_and_curve(self, mode, k):
        digest, a, c = self.FROZEN[(mode, k)]
        blk = ss.gen_block(ss.SourceSpec(family="ggm", shape=(1, 64, 64), seed=1,
                                         beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0)))
        cfg = pt.TrainConfig(family="ggm", dims=(40,), epochs=5, seed=1, k=k,
                             predictor_mode=mode)
        res = pt.train_priors([blk], cfg)
        tables = pt.export_tables(res.prior_set)
        assert hashlib.sha256(serialize_v1(tables)).hexdigest() == digest
        assert ct.deserialize_table_set(ct.serialize_table_set(tables)) == tables
        if a is not None:
            # the curve may move in the last bits when the kernel sums in another order
            assert res.predictor["a"] == pytest.approx(a, rel=1e-12)
            assert res.predictor["c"] == pytest.approx(c, rel=1e-12)


class TestFrozenPriorSets:
    """Trained bytes that TestFrozenTraining's ggm 1-D sets do not reach: a
    2-D gmm grid (Kronecker weight rows) and a gm set trained with hyper
    reuse and skip.  Recorded before the free-index epoch and the hyper pass
    shared one counts kernel; the digests are of serialize_table_set."""

    GRID = {
        None: "1229374b4b29e7b7986feca76c59896279b61a4d350e9d88325a0d55339291e8",
        1: "008a0856ef1f14ebb3036a13383b35385387488939177a2d1168c418b2884c93",
    }

    HYPER = {
        "free-index": (
            "957a330534024449f81877a017dc0df69743b0ddf97ef57807cde106c2601060", [2, 2, 2], None),
        "calibration-curve": (
            "25ad1c553ceeb569eb409ccf96aeb8a55b50f686db1eb44d75c7b4261037d115", [4, 4, 4],
            (0.9407866313029427, 2.4675291998927853)),
    }

    @pytest.mark.parametrize("k", list(GRID))
    def test_gmm_grid(self, k):
        blk = ss.gen_block(ss.SourceSpec("gmm", (2, 30, 30), seed=31, mode="nonzero-center",
                                         comp_mean_range=(-5, 5), comp_sigma_range=(0.5, 4)))
        res = pt.train_priors([blk], pt.TrainConfig(family="gmm", dims=(4, 3), epochs=40, seed=4, k=k))
        tables = pt.export_tables(res.prior_set)
        assert hashlib.sha256(ct.serialize_table_set(tables)).hexdigest() == self.GRID[k]
        assert tables.meta["dims"] == [4, 3]

    @pytest.mark.parametrize("mode", list(HYPER))
    def test_hyper_reuse_with_skip(self, mode):
        digest, selected, curve = self.HYPER[mode]
        blk = ss.gen_block(ss.SourceSpec("gm", (2, 32, 32), seed=5))
        z = ss.gen_block(ss.SourceSpec("gm", (3, 8, 8), seed=6, sigma_range=(0.5, 6)))
        cfg = pt.TrainConfig(family="gm", dims=(6,), epochs=30, skip_epochs=1, lambda_=0.05,
                             predictor_mode=mode)
        res = pt.train_priors([blk], cfg, z_block=z)
        tables = pt.export_tables(res.prior_set)
        assert hashlib.sha256(ct.serialize_table_set(tables)).hexdigest() == digest
        assert res.hyper_logits.selected().tolist() == selected
        assert res.skip_head.tables == (0, 1, 2, 3)
        if curve is not None:
            assert (res.predictor["a"], res.predictor["c"]) == pytest.approx(curve, rel=1e-12)


class TestEpochFaults:
    """Epochs after the first map no fresh memory: the passes' element-sized
    work arrays live for the whole train_priors call, so ten more epochs
    add almost no minor page faults."""

    MAX_FAULTS_PER_EPOCH = 64

    @pytest.fixture(scope="class")
    def block(self):
        return ss.gen_block(ss.SourceSpec(family="ggm", shape=(4, 128, 128), seed=1,
                                          beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0)))

    @pytest.mark.parametrize("mode,k", [("calibration-curve", None), ("calibration-curve", 2),
                                        ("free-index", None)])
    def test_ten_more_epochs_add_no_faults(self, block, mode, k):
        def faults(epochs):
            config = pt.TrainConfig(family="ggm", dims=(40,), epochs=epochs, k=k,
                                    predictor_mode=mode)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            pt.train_priors([block], config)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(3)  # warm-up: imports, kernel caches and the allocator's heap
        short, long = faults(3), faults(13)
        assert long - short <= 10 * self.MAX_FAULTS_PER_EPOCH, \
            f"13 epochs took {long} minor faults, 3 epochs {short}"
