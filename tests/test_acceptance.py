"""Acceptance suite: the library's headline guarantees, one test each.

Every test prints a single PASS/FAIL line (visible under pytest -s; pytest -v
shows the same verdicts through the test names). Expensive artifacts — the
million-element generalized-Gaussian field and the trained prior-set sweep —
are session fixtures shared by the criteria that need them, and the stated
runtime budgets are asserted inside the tests that carry them.

Run:  pytest tests/test_acceptance.py -v
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import swpc.cdf_tables as ct
import swpc.coding_backends as cb
import swpc.prior_trainer as pt
import swpc.prob_models as pm
import swpc.rans_coder as rc
import swpc.synth_source as ss


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def fd_ok(analytic, numeric, rtol=1e-4, atol=1e-7) -> bool:
    return abs(analytic - numeric) <= rtol * max(abs(analytic),
                                                 abs(numeric)) + atol


def central_fd(f, x, eps):
    return (f(x + eps) - f(x - eps)) / (2 * eps)


# ---------------------------------------------------------------------------
# Shared artifacts

FIELD_SEED = 2026
FIELD_SHAPE = (1, 1000, 1000)
TRAIN_ELEMENTS = 100_000
SWEEP_EPOCHS = {5: 300, 10: 300, 20: 450, 40: 600}


@pytest.fixture(scope="session")
def ggm_field():
    """Million-element field: sigma log-uniform [0.05, 8], shape mixing."""
    rng = np.random.Generator(np.random.Philox(FIELD_SEED))
    sigma = np.exp(rng.uniform(np.log(0.05), np.log(8.0), FIELD_SHAPE))
    beta = rng.uniform(0.7, 2.5, FIELD_SHAPE)
    alpha = pm.ggm_alpha_for_std(beta, sigma)
    g = rng.gamma(1.0 / beta)
    sign = rng.integers(0, 2, FIELD_SHAPE) * 2 - 1
    y = sign * alpha * g ** (1.0 / beta)
    residuals = cb.round_half_away(y).astype(np.int64)
    block = cb.LatentBlock(
        residuals, np.zeros(FIELD_SHAPE), sigma,
        truth_params={"family": "ggm", "beta": beta, "alpha": alpha})
    sub_shape = (1, 100, TRAIN_ELEMENTS // 100)
    sub = cb.LatentBlock(residuals.ravel()[:TRAIN_ELEMENTS].reshape(sub_shape),
                         np.zeros(sub_shape),
                         sigma.ravel()[:TRAIN_ELEMENTS].reshape(sub_shape))
    return {"block": block, "train_block": sub}


@pytest.fixture(scope="session")
def trained_sweep(ggm_field):
    """Prior sets of growing size trained on the field's i.i.d. subsample."""
    out = {"seconds": 0.0}
    t0 = time.time()
    for m, epochs in SWEEP_EPOCHS.items():
        config = pt.TrainConfig(family="ggm", dims=(m,), epochs=epochs,
                                seed=3, predictor_mode="calibration-curve")
        result = pt.train_priors([ggm_field["train_block"]], config)
        out[m] = {"result": result,
                  "tables": pt.export_tables(result.prior_set)}
    out["seconds"] = time.time() - t0
    return out


def field_index_grid(block: cb.LatentBlock, result, m: int) -> cb.IndexGrid:
    a, c = result.predictor["a"], result.predictor["c"]
    return cb.IndexGrid.from_continuous(
        a * np.log(block.side_features) + c, m)


def paired_median_ns(fn_a, fn_b, reps: int) -> tuple[float, float]:
    """Median wall times of fn_a and fn_b over reps calls each, called in
    turn (a, b, a, b, ...) after one warm-up call each, so that a burst of
    load on the machine falls on both sides alike."""
    fns = (fn_a, fn_b)
    samples = ([], [])
    for fn in fns:
        fn()
    for _ in range(reps):
        for fn, side in zip(fns, samples):
            t0 = time.perf_counter_ns()
            fn()
            side.append(time.perf_counter_ns() - t0)
    return statistics.median(samples[0]), statistics.median(samples[1])


# ---------------------------------------------------------------------------


def test_01_round_trip_exactness():
    """1000 randomized (source, backend, mask) configs decode exactly."""
    t_start = time.time()
    rng = np.random.Generator(np.random.Philox(424242))
    lut_gm = [ct.build_lut_gm(c) for c in (4, 16, 64)]
    lut_ggm = [ct.build_lut_ggm(3, 5), ct.build_lut_ggm(6, 12)]
    switch_sets = [pt.export_tables(pt.init_prior_set(fam, m, 12.0))
                   for fam, m in (("gm", 3), ("gm", 8), ("ggm", 5),
                                  ("gmm", 6))]
    n_escape_configs = 0
    with verdict(1, "round-trip exactness"):
        for trial in range(1000):
            family = ("gm", "ggm", "gmm")[rng.integers(3)]
            shape = (int(rng.integers(1, 3)), int(rng.integers(4, 13)),
                     int(rng.integers(4, 13)))
            seed = int(rng.integers(2 ** 31))
            wide = rng.random() < 0.25  # push tails past table support
            if family == "gm":
                spec = ss.SourceSpec(family="gm", shape=shape, seed=seed,
                                     sigma_range=(0.2, 90.0 if wide else 8.0))
            elif family == "ggm":
                spec = ss.SourceSpec(family="ggm", shape=shape, seed=seed,
                                     beta_range=(0.6, 2.6),
                                     alpha_range=(0.05, 80.0 if wide else 6.0))
            else:
                spec = ss.SourceSpec(
                    family="gmm", shape=shape, seed=seed,
                    mode=("zero-center", "nonzero-center")[rng.integers(2)],
                    comp_mean_range=(-30.0, 30.0) if wide else (-5.0, 5.0),
                    comp_sigma_range=(0.3, 6.0))
            block = ss.gen_block(spec)
            if np.abs(block.residuals).max() > ct.MAX_RADIUS:
                n_escape_configs += 1
            backends = ["dynamic", "switch"]
            if family != "gmm":
                backends.append("lut")
            backend = backends[rng.integers(len(backends))]
            if backend == "dynamic":
                radius = (int(rng.integers(4, 32))
                          if rng.random() < 0.5 else None)
                stream, _ = cb.backend_dynamic(block, radius=radius)
                decoded, _ = cb.backend_dynamic_decode(
                    stream, block.truth_params, block.shape, radius=radius)
            elif backend == "lut":
                table_set, grid = (lut_gm[rng.integers(3)] if family == "gm"
                                   else lut_ggm[rng.integers(2)])
                stream, _ = cb.backend_lut(block, grid, table_set)
                decoded, _ = cb.backend_lut_decode(
                    stream, block.truth_params, grid, table_set, block.shape)
            else:
                table_set = switch_sets[rng.integers(len(switch_sets))]
                m = len(table_set)
                indexes = cb.IndexGrid.from_continuous(
                    rng.uniform(0.5, m + 0.5, block.shape), m)
                mask = None
                if rng.random() < 0.5:
                    mask = cb.SkipMask.from_soft(rng.random(block.shape))
                stream, _ = cb.backend_switch(block, indexes, mask, table_set)
                decoded, _ = cb.backend_switch_decode(
                    stream, indexes, mask, table_set, block.shape)
                if mask is not None:
                    kept = mask.hard == 1
                    assert (decoded[kept] == block.residuals[kept]).all(), \
                        f"trial {trial}: kept symbols differ"
                    assert (decoded[~kept] == 0).all(), \
                        f"trial {trial}: skipped symbols not zero"
                    continue
            assert (decoded == block.residuals).all(), \
                f"trial {trial}: {backend} round trip differs"
        assert n_escape_configs > 0, "no config exercised tail escapes"
        assert time.time() - t_start < 120.0


def test_02_rate_fidelity():
    """Coded bits track the tables' cross-entropy; dynamic tracks oracle."""
    t_start = time.time()
    n = 1_000_000
    rng = np.random.Generator(np.random.Philox(77))
    shape = (1, 1000, 1000)
    cases = []

    sigma = 2.5
    res = cb.round_half_away(sigma * rng.standard_normal(n)).astype(np.int64)
    cases.append(("gm", res, pm.ProbModel.gaussian(sigma),
                  {"family": "gm", "sigma": np.full(shape, sigma)}))

    beta, alpha = 1.3, 3.0
    g = rng.gamma(1.0 / beta, size=n)
    sign = rng.integers(0, 2, n) * 2 - 1
    res = cb.round_half_away(sign * alpha * g ** (1.0 / beta)).astype(np.int64)
    cases.append(("ggm", res, pm.ProbModel.generalized_gaussian(beta, alpha),
                  {"family": "ggm", "beta": np.full(shape, beta),
                   "alpha": np.full(shape, alpha)}))

    weights = np.array([0.35, 0.65])
    means = np.array([-4.0, 2.0])
    sigmas = np.array([1.2, 2.8])
    pick = rng.random(n) < weights[0]
    y = np.where(pick, means[0] + sigmas[0] * rng.standard_normal(n),
                 means[1] + sigmas[1] * rng.standard_normal(n))
    res = cb.round_half_away(y).astype(np.int64)
    cases.append(("gmm", res, pm.ProbModel.mixture(weights, means, sigmas),
                  {"family": "gmm",
                   "weights": np.broadcast_to(weights, shape + (2,)).copy(),
                   "means": np.broadcast_to(means, shape + (2,)).copy(),
                   "sigmas": np.broadcast_to(sigmas, shape + (2,)).copy()}))

    with verdict(2, "rate fidelity"):
        for family, res, model, truth in cases:
            table_set = ct.CdfTableSet([ct.quantize_pmf(model)])
            table_indexes = np.zeros(res.size, np.int64)
            stream = rc.encode(res, table_indexes, table_set)
            implied = float(rc.implied_bits(res, table_indexes,
                                            table_set).sum())
            coded_err = abs(stream.bit_length - implied) / implied
            assert coded_err <= 0.01, \
                f"{family}: coded bits off cross-entropy by {coded_err:.2%}"

            block = cb.LatentBlock(res.reshape(shape), np.zeros(shape),
                                   np.ones(shape), truth_params=truth)
            _, report = cb.backend_dynamic(block)
            oracle_ps = ss.oracle_rate(block) / block.n_elements
            dyn_err = (report.bits_per_symbol - oracle_ps) / oracle_ps
            assert dyn_err <= 0.015, \
                f"{family}: dynamic {dyn_err:.2%} above oracle"
        assert time.time() - t_start < 300.0


def test_03_generalized_gaussian_degeneracy():
    """beta=2 with alpha = sqrt(2)*sigma reproduces the Gaussian."""
    with verdict(3, "shape-2 collapses to Gaussian"):
        for sigma in (0.37, 1.0, 2.5, 7.3):
            ggm = pm.ProbModel.generalized_gaussian(2.0, np.sqrt(2.0) * sigma)
            gauss = pm.ProbModel.gaussian(sigma)
            xs = np.linspace(-6.0 * sigma, 6.0 * sigma, 50)
            cdf_gap = np.abs(pm.cdf_eval(ggm, xs) - pm.cdf_eval(gauss, xs))
            assert cdf_gap.max() <= 1e-9, f"sigma {sigma}: CDF gap {cdf_gap.max():.2e}"
            ks = np.arange(-25, 25)
            pmf_gap = np.abs(pm.pmf_integer(ggm, ks) - pm.pmf_integer(gauss, ks))
            assert pmf_gap.max() <= 1e-9, f"sigma {sigma}: PMF gap {pmf_gap.max():.2e}"


def test_04_hardening_equals_weight_argmax():
    """Rounding the index matches brute-force argmax of the soft weights."""
    with verdict(4, "hardening equals weight argmax"):
        for m in (2, 5, 10, 40):
            grid = 1.0 + 0.01 * np.arange(100 * (m - 1) + 1)
            mismatches = 0
            for i in grid:
                frac = i % 1.0
                if abs(frac - 0.5) < 1e-9:
                    continue  # exact midpoints tie two weights
                weights = pt.soft_weights(float(i), m, 0.3)
                if int(np.argmax(weights)) + 1 != cb.harden_index(float(i), m):
                    mismatches += 1
            assert mismatches == 0, f"M={m}: {mismatches} mismatches"


def test_05_top_k_soundness():
    """K=M windowing is exact; Top-2 training lands within 0.5% of full-M."""
    with verdict(5, "top-k soundness"):
        rng = np.random.Generator(np.random.Philox(1001))
        for _ in range(10_000):
            m = int(rng.integers(2, 9))
            # scale floors keep every prior's mass at the drawn symbol
            # above the probability floor, so the full mix stays finite
            if rng.random() < 0.5:
                scales = np.exp(rng.uniform(np.log(1.0), np.log(20.0), m))
                prior_set = pt.PriorSet1D(family="gm",
                                          params=np.log(scales)[:, None])
            else:
                betas = rng.uniform(0.8, 2.5, m)
                alphas = np.exp(rng.uniform(np.log(1.5), np.log(12.0), m))
                prior_set = pt.PriorSet1D(
                    family="ggm",
                    params=np.stack([np.log(betas), np.log(alphas)], axis=1))
            symbol = int(rng.integers(-4, 5))
            i = float(rng.uniform(1.0, m))
            tau = float(rng.uniform(0.05, 1.5))
            full = pt.weighted_rate(symbol, prior_set, i, tau)
            windowed = pt.topk_rate(symbol, prior_set, i, tau, m)
            assert abs(full - windowed) <= 1e-12

        spec = ss.SourceSpec(family="ggm", shape=(4, 64, 64), seed=15,
                             beta_range=(0.7, 2.5), alpha_range=(0.05, 8.0))
        block = ss.gen_block(spec)
        rates = {}
        for label, k in (("full", None), ("top2", 2)):
            config = pt.TrainConfig(family="ggm", dims=(10,), epochs=300,
                                    seed=5, k=k,
                                    predictor_mode="calibration-curve")
            result = pt.train_priors([block], config)
            tables = pt.export_tables(result.prior_set)
            indexes = field_index_grid(block, result, 10)
            _, report = cb.backend_switch(block, indexes, None, tables)
            rates[label] = report.bits_per_symbol
        gap = abs(rates["top2"] - rates["full"]) / rates["full"]
        assert gap <= 0.005, f"Top-2 vs full-M rate gap {gap:.3%}"


def test_06_gradient_suite():
    """Analytic gradients match central finite differences, 10^3 configs."""
    with verdict(6, "gradient suite"):
        rng = np.random.Generator(np.random.Philox(606))

        def random_set(m):
            # floors chosen so symbols within +-5 never underflow any prior
            if rng.random() < 0.5:
                scales = np.exp(rng.uniform(np.log(1.0), np.log(20.0), m))
                return pt.PriorSet1D(family="gm",
                                     params=np.log(scales)[:, None])
            betas = rng.uniform(0.8, 2.5, m)
            alphas = np.exp(rng.uniform(np.log(1.5), np.log(12.0), m))
            return pt.PriorSet1D(
                family="ggm",
                params=np.stack([np.log(betas), np.log(alphas)], axis=1))

        eps = 1e-5
        for _ in range(300):  # weighted rate: every coordinate plus d/di
            m = int(rng.integers(2, 7))
            prior_set = random_set(m)
            symbol = int(rng.integers(-4, 5))
            i = float(rng.uniform(1.0, m))
            tau = float(rng.uniform(0.1, 1.2))
            _, dtheta, di = pt.weighted_rate_grads(symbol, prior_set, i, tau)
            flat = prior_set.params.ravel()
            coord = int(rng.integers(flat.size))

            def f_theta(v):
                p = flat.copy()
                p[coord] = v
                moved = pt.PriorSet1D(family=prior_set.family,
                                      params=p.reshape(prior_set.params.shape))
                return pt.weighted_rate(symbol, moved, i, tau)

            assert fd_ok(dtheta.ravel()[coord],
                         central_fd(f_theta, flat[coord], eps))
            assert fd_ok(di, central_fd(
                lambda v: pt.weighted_rate(symbol, prior_set, v, tau), i, eps))

        for _ in range(200):  # windowed rate
            m = int(rng.integers(3, 7))
            k = int(rng.integers(2, m + 1))
            prior_set = random_set(m)
            symbol = int(rng.integers(-4, 5))
            # keep the window membership stable across the FD probe
            i = float(rng.uniform(1.0, m))
            if min(i % 1.0, 1.0 - i % 1.0) < 0.05:
                i = float(np.clip(round(i) + 0.25, 1.0, m))
            tau = float(rng.uniform(0.1, 1.2))
            _, dtheta, di = pt.topk_rate_grads(symbol, prior_set, i, tau, k)
            flat = prior_set.params.ravel()
            coord = int(rng.integers(flat.size))

            def f_theta(v):
                p = flat.copy()
                p[coord] = v
                moved = pt.PriorSet1D(family=prior_set.family,
                                      params=p.reshape(prior_set.params.shape))
                return pt.topk_rate(symbol, moved, i, tau, k)

            assert fd_ok(dtheta.ravel()[coord],
                         central_fd(f_theta, flat[coord], eps))
            assert fd_ok(di, central_fd(
                lambda v: pt.topk_rate(symbol, prior_set, v, tau, k), i, eps))

        for trial in range(200):  # soft mask noise path
            b = float(rng.uniform(-2.0, 2.0))
            t = float(rng.uniform(0.2, 1.5))
            seed = int(rng.integers(1000))
            _, grad = pt.gumbel_mask_grad(b, t, noise_seed=seed)
            fd = central_fd(
                lambda v: pt.gumbel_mask(v, t, noise_seed=seed), b, eps)
            assert fd_ok(float(grad), float(fd)), f"mask config {trial}"

        rng_blocks = np.random.Generator(np.random.Philox(607))
        for trial in range(300):  # full objective
            m = 3
            prior_set = random_set(m)
            shape = (1, 3, 4)
            res = rng_blocks.integers(-5, 6, shape)
            block = cb.LatentBlock(res, np.zeros(shape), np.ones(shape))
            cont = rng_blocks.uniform(1.0, m, shape)
            indexes = cb.IndexGrid.from_continuous(cont, m)
            # even trials probe the relaxed mask directly, odd ones push the
            # raw parameters through the noise reparameterization
            chained = trial % 2 == 1
            noise_seed = trial if chained else None
            mask_soft = (rng_blocks.uniform(0.2, 0.8, shape) if chained
                         else rng_blocks.uniform(0.05, 0.95, shape))
            lam = float(rng_blocks.uniform(0.01, 2.0))
            tau = float(rng_blocks.uniform(0.2, 1.0))
            t = float(rng_blocks.uniform(0.3, 1.2))
            _, dtheta, _, dmask, _ = pt.skip_loss_grads(
                block, prior_set, indexes, mask_soft, lam, tau, t,
                noise_seed=noise_seed)
            flat = prior_set.params.ravel()
            coord = int(rng_blocks.integers(flat.size))

            def f_theta(v):
                p = flat.copy()
                p[coord] = v
                moved = pt.PriorSet1D(family=prior_set.family,
                                      params=p.reshape(prior_set.params.shape))
                return pt.skip_loss(block, moved, indexes, mask_soft,
                                    lam, tau, t, noise_seed=noise_seed)

            assert fd_ok(dtheta.ravel()[coord],
                         central_fd(f_theta, flat[coord], eps),
                         rtol=2e-4), f"skip theta config {trial}"
            pos = tuple(int(rng_blocks.integers(s)) for s in shape)

            def f_mask(v):
                moved = mask_soft.copy()
                moved[pos] = v
                return pt.skip_loss(block, prior_set, indexes, moved,
                                    lam, tau, t, noise_seed=noise_seed)

            assert fd_ok(dmask[pos],
                         central_fd(f_mask, mask_soft[pos], 1e-6)), \
                f"skip mask config {trial}"


def test_07_switchable_prior_efficiency(ggm_field, trained_sweep):
    """40 learned tables beat a 50-table LUT and stay near the oracle."""
    t_start = time.time()
    block = ggm_field["block"]
    with verdict(7, "switchable-prior efficiency"):
        rates = {}
        for m in SWEEP_EPOCHS:
            entry = trained_sweep[m]
            indexes = field_index_grid(block, entry["result"], m)
            _, report = cb.backend_switch(block, indexes, None,
                                          entry["tables"])
            rates[m] = report.bits_per_symbol

        lut_set, lut_grid = ct.build_lut_ggm(5, 10)
        _, lut_report = cb.backend_lut(block, lut_grid, lut_set)
        _, dyn_report = cb.backend_dynamic(block)

        assert rates[40] <= lut_report.bits_per_symbol, \
            f"M=40 {rates[40]:.4f} vs 50-table LUT {lut_report.bits_per_symbol:.4f}"
        gap = (rates[40] - dyn_report.bits_per_symbol) / dyn_report.bits_per_symbol
        assert gap <= 0.02, f"M=40 sits {gap:.2%} above dynamic"
        for small, large in ((5, 10), (10, 20), (20, 40)):
            assert rates[small] >= rates[large], \
                f"rate increased from M={small} to M={large}"
        elapsed = time.time() - t_start + trained_sweep["seconds"]
        assert elapsed < 900.0


def test_08_skip_mode_behavior():
    """All-ones mask is a no-op; trained skipping is cheaper and no worse."""
    with verdict(8, "skip-mode behavior"):
        spec = ss.SourceSpec(family="gm", shape=(4, 96, 96), seed=41,
                             sigma_range=(0.11, 4.0))
        block = ss.gen_block(spec)
        lam = 4.0
        config = pt.TrainConfig(family="gm", dims=(4,), epochs=200, seed=41,
                                lambda_=lam, skip_epochs=150,
                                predictor_mode="calibration-curve")
        result = pt.train_priors([block], config)
        tables = pt.export_tables(result.prior_set)
        indexes = field_index_grid(block, result, 4)

        ones = cb.SkipMask.keep_all(block.shape)
        stream_plain, report_plain = cb.backend_switch(block, indexes, None,
                                                       tables)
        stream_ones, _ = cb.backend_switch(block, indexes, ones, tables)
        assert stream_ones.to_bytes() == stream_plain.to_bytes()

        mask = result.skip_head.hard_mask()
        skip_ratio = float((mask.hard == 0).mean())
        assert skip_ratio > 0.0
        stream_masked, report_masked = cb.backend_switch(block, indexes,
                                                         mask, tables)
        assert report_masked.symbols_coded < report_plain.symbols_coded

        t_plain, t_masked = paired_median_ns(
            lambda: cb.backend_switch(block, indexes, None, tables),
            lambda: cb.backend_switch(block, indexes, mask, tables), 9)
        assert t_masked < t_plain, \
            f"masked encode {t_masked:.0f} ns vs plain {t_plain:.0f} ns"

        n = block.n_elements
        skipped = mask.hard == 0
        objective_skip = (report_masked.total_bits / n
                          + lam * float((block.residuals[skipped] ** 2).sum()) / n)
        objective_plain = report_plain.total_bits / n
        assert objective_skip <= objective_plain * 1.001, \
            f"skip objective {objective_skip:.4f} vs {objective_plain:.4f}"


def test_09_two_dim_necessity():
    """Off-center mixtures need the mean axis a 1-D index cannot offer."""
    with verdict(9, "2-D prior necessity"):
        spec = ss.SourceSpec(family="gmm", shape=(4, 64, 64), seed=29,
                             mode="nonzero-center",
                             comp_mean_range=(-12.0, 12.0),
                             comp_sigma_range=(0.4, 3.0))
        block = ss.gen_block(spec)
        rates = {}
        for label, dims in (("1d", (40,)), ("2d", (10, 10))):
            config = pt.TrainConfig(family="gmm", dims=dims, epochs=300,
                                    seed=6, predictor_mode="free-index")
            result = pt.train_priors([block], config)
            tables = pt.export_tables(result.prior_set)
            _, report = cb.backend_switch(block, result.indexes, None, tables)
            rates[label] = report.bits_per_symbol
        assert rates["2d"] < rates["1d"], \
            f"2-D {rates['2d']:.4f} not below 1-D {rates['1d']:.4f}"


def test_10_index_build_cost(ggm_field, trained_sweep):
    """Hardening a predicted index undercuts LUT nearest-sample search."""
    block = ggm_field["block"]
    result = trained_sweep[40]["result"]
    a, c = result.predictor["a"], result.predictor["c"]
    _, lut_grid = ct.build_lut_ggm(5, 10)
    betas = np.asarray(block.truth_params["beta"], np.float64).ravel()
    alphas = np.asarray(block.truth_params["alpha"], np.float64).ravel()
    with verdict(10, "index-build cost ordering"):
        t_switch, t_lut = paired_median_ns(
            lambda: cb.IndexGrid.from_continuous(
                a * np.log(block.side_features) + c, 40),
            lambda: ct.lut_search_ggm(lut_grid, betas, alphas), 7)
        assert t_switch < t_lut, \
            f"hardening {t_switch:.0f} ns vs LUT search {t_lut:.0f} ns"


def test_11_hyper_reuse():
    """Side-information blocks ride on the main tables: zero extras."""
    with verdict(11, "hyperlatent prior reuse"):
        main_spec = ss.SourceSpec(family="gm", shape=(2, 32, 32), seed=21,
                                  sigma_range=(0.3, 10.0))
        z_spec = ss.SourceSpec(family="gm", shape=(4, 16, 16), seed=51,
                               sigma_range=(0.5, 6.0))
        main_block = ss.gen_block(main_spec)
        z_block = ss.gen_block(z_spec)
        config = pt.TrainConfig(family="gm", dims=(6,), epochs=200, seed=21,
                                predictor_mode="calibration-curve")
        result = pt.train_priors([main_block], config, z_block=z_block)
        tables = pt.export_tables(result.prior_set)
        assert len(tables) == 6  # the z block adds nothing

        selected = result.hyper_logits.selected()
        continuous = np.broadcast_to(
            selected.astype(np.float64)[:, None, None], z_block.shape).copy()
        indexes = cb.IndexGrid.from_continuous(continuous, 6)
        stream, _ = cb.backend_switch(z_block, indexes, None, tables)
        decoded, _ = cb.backend_switch_decode(stream, indexes, None, tables,
                                              z_block.shape)
        assert (decoded == z_block.residuals).all()


def test_12_storage_accounting(trained_sweep):
    """40 learned tables fit in 0.02 MB; the dense LUT needs megabytes."""
    with verdict(12, "storage accounting"):
        learned_bytes = ct.table_set_16bit_bytes(trained_sweep[40]["tables"])
        assert learned_bytes <= 0.02 * 2 ** 20, \
            f"M=40 set occupies {learned_bytes} bytes"
        wire_bytes = len(ct.serialize_table_set(trained_sweep[40]["tables"]))
        assert wire_bytes <= 0.02 * 2 ** 20, \
            f"M=40 set serializes to {wire_bytes} bytes"
        lut_set, _ = ct.build_lut_ggm(80, 160)
        lut_bytes = ct.table_set_16bit_bytes(lut_set)
        assert 5 * 2 ** 20 <= lut_bytes <= 8 * 2 ** 20, \
            f"dense LUT occupies {lut_bytes} bytes"
