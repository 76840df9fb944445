"""Probability-model kernels against independent oracles.

Frozen expected values below were produced by scipy.integrate.quad (bin-mass
quadrature) and mpmath (order derivative of the incomplete gamma) before the
implementation was written; the oracle code is kept next to each assertion.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, gammainc

import swpc.prob_models as pm
from swpc.prob_models import (
    InfiniteRateError,
    ParameterDomainError,
    ProbModel,
    cdf_eval,
    grad_rate_params,
    pmf_integer,
    rate_bits,
    regularized_lower_gamma,
    regularized_lower_gamma_with_da,
)

# sigma such that the central unit bin holds exactly half the mass:
# 0.5 / (sqrt(2) * erfinv(0.5))
SIGMA_HALF_MASS = 0.7413011092528009


def random_model(rng, family=None):
    family = family or rng.choice(["gm", "ggm", "gmm"])
    if family == "gm":
        return ProbModel.gaussian(np.exp(rng.uniform(np.log(0.1), np.log(10))))
    if family == "ggm":
        return ProbModel.generalized_gaussian(rng.uniform(0.4, 4.0), np.exp(rng.uniform(np.log(0.1), np.log(10))))
    k = 3
    w = rng.dirichlet(np.ones(k) * 3)
    w = w / w.sum()
    return ProbModel.mixture(w, rng.uniform(-4, 4, k), np.exp(rng.uniform(np.log(0.3), np.log(4), k)))


# ---------------------------------------------------------------------------
# CDFs


def test_gaussian_cdf_center_is_half():
    assert cdf_eval(ProbModel.gaussian(1.0), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_ggm_beta2_matches_gaussian_cdf():
    # beta=2, alpha=sqrt(2)*sigma degenerates to Gaussian(sigma)
    for sigma in (0.2, 1.0, 5.0):
        g = ProbModel.gaussian(sigma)
        gg = ProbModel.generalized_gaussian(2.0, math.sqrt(2.0) * sigma)
        grid = np.linspace(-6 * sigma, 6 * sigma, 50)
        assert np.max(np.abs(cdf_eval(gg, grid) - cdf_eval(g, grid))) <= 1e-9


def test_ggm_beta1_is_laplace():
    # Laplace(b=1): F(x) = 1 - exp(-x)/2 for x >= 0
    val = cdf_eval(ProbModel.generalized_gaussian(1.0, 1.0), 0.7)
    assert val == pytest.approx(1.0 - 0.5 * math.exp(-0.7), abs=1e-12)


def test_cdf_monotone_no_inversions():
    rng = np.random.default_rng(7)
    for _ in range(30):
        model = random_model(rng)
        xs = np.sort(rng.uniform(-30, 30, 1000))
        vals = np.asarray(cdf_eval(model, xs))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0) & (vals <= 1))


# ---------------------------------------------------------------------------
# Integer-bin masses


def test_gaussian_pmf_matches_quadrature():
    # oracle: quad(phi_sigma, k-1/2, k+1/2); frozen values above tolerance 1e-12
    frozen = {
        (1.0, 0): 0.3829249225480263,
        (1.0, 1): 0.24173033745712882,
        (1.0, 3): 0.005977036246740612,
        (0.42, 2): 0.00017751836902669786,
        (7.5, 4): 0.046116073151196806,
    }
    for (sigma, k), expect in frozen.items():
        assert pmf_integer(ProbModel.gaussian(sigma), k) == pytest.approx(expect, abs=1e-12)


def test_ggm_pmf_matches_quadrature():
    frozen = {
        (1.4, 2.2, 3): 0.05419446870853909,
        (0.7, 0.9, 0): 0.30192317455478507,
        (3.0, 1.1, 1): 0.24471861684081697,
        (2.0, math.sqrt(2.0), 2): 0.06059753594308194,
    }
    for (beta, alpha, k), expect in frozen.items():
        assert pmf_integer(ProbModel.generalized_gaussian(beta, alpha), k) == pytest.approx(expect, abs=1e-12)


def test_gmm_pmf_matches_quadrature():
    model = ProbModel.mixture((0.3, 0.5, 0.2), (-1.0, 0.5, 2.0), (0.8, 1.5, 0.6))
    frozen = {-1: 0.2210524317973749, 0: 0.19566932361734907, 2: 0.19997419262762944}
    for k, expect in frozen.items():
        assert pmf_integer(model, k) == pytest.approx(expect, abs=1e-12)


def test_pmf_symmetry_exact():
    # symmetric families evaluate through |k|, so +/-k are bit-identical
    for model in (ProbModel.gaussian(1.0), ProbModel.generalized_gaussian(1.3, 0.8)):
        for k in (1, 2, 3, 17):
            assert pmf_integer(model, k) == pmf_integer(model, -k)


def _ggm_window_rows(rng):
    """(r, beta, alpha) for a batch of rows: random rows, and rows whose
    window crosses u = a+1 at a random edge, so that body and tail bins meet."""
    n = int(rng.integers(1, 9))
    r = int(rng.integers(1, 128))
    beta = np.exp(rng.uniform(np.log(0.06), np.log(6.0), (n, 1)))
    alpha = np.exp(rng.uniform(np.log(0.01), np.log(200.0), (n, 1)))
    crossing = rng.random((n, 1)) < 0.5
    edge = rng.uniform(0.5, r + 0.5, (n, 1))
    alpha = np.where(crossing, edge / (1.0 / beta + 1.0) ** (1.0 / beta), alpha)
    return r, beta, alpha


def test_ggm_window_route_matches_general_path():
    # k of shape (1, 1, 2r+1) is not the route's (1, 2r+1) row, so it takes
    # the general path; both must give the same bits
    rng = np.random.default_rng(20)
    crossed = 0
    for case in range(400):
        r, beta, alpha = _ggm_window_rows(rng)
        if case % 10 == 0:
            beta = float(beta[0, 0])  # one shared shape over the rows
        ks = np.arange(-r, r + 1)
        window = pm.ggm_integer_pmf(ks[None, :], beta, alpha)
        general = pm.ggm_integer_pmf(ks[None, None, :], beta, alpha)[0]
        assert window.shape == general.shape
        assert np.array_equal(window, general)
        a = 1.0 / np.broadcast_to(beta, alpha.shape)
        u = (np.array([0.5, r + 0.5]) / alpha) ** (1.0 / a)
        crossed += int(np.sum((u[:, 0] < a[:, 0] + 1.0) & (u[:, 1] >= a[:, 0] + 1.0)))
    assert crossed >= 400


def test_window_kernels_give_each_row_its_own_window():
    # one radius per row: each row, inside its own window, is bit for bit the
    # family kernel over that window alone
    rng = np.random.default_rng(22)
    for case in range(60):
        _, beta, alpha = _ggm_window_rows(rng)
        n = len(alpha)
        radii = rng.integers(1, 128, n)
        weights = rng.dirichlet(np.ones(3), n)
        params = {"gm": (alpha,), "ggm": (beta, alpha),
                  "gmm": (weights[:, None], rng.uniform(-20, 20, (n, 1, 3)), alpha[..., None] + 0.1)}
        for family, columns in params.items():
            masses = pm.WINDOW_PMF[family](radii, *columns)
            widest = int(radii.max())
            assert masses.shape == (n, 2 * widest + 1)
            for i, r in enumerate(radii.tolist()):
                alone = pm.INTEGER_PMF[family](np.arange(-r, r + 1)[None, :], *(c[i : i + 1] for c in columns))
                assert np.array_equal(masses[i, widest - r : widest + r + 1], alone[0]), (family, case, i)


def test_gm_and_gmm_edge_routes_match_the_general_kernels():
    # each edge evaluated once gives the bits of the kernels that evaluate
    # it for both bins beside it, at every radius and for sigmas from 1e-3 to
    # 1e3, zero and nonzero component means; the first row's sigma of 1e-307
    # overflows its outer edges to infinity
    rng = np.random.default_rng(23)
    for r in range(1, 128):
        n = 6
        ks = np.arange(-r, r + 1)[None, :]
        sigma = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (n, 1)))
        weights = rng.dirichlet(np.ones(3), n)[:, None, :]
        sigmas = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (n, 1, 3)))
        sigma[0], sigmas[0, 0, 0] = 1e-307, 1e-307
        radii = np.full(n, r)
        with np.errstate(over="ignore"):
            assert np.array_equal(pm.WINDOW_PMF["gm"](radii, sigma), pm.gaussian_integer_pmf(ks, sigma)), r
            for means in (np.zeros((n, 1, 3)), rng.uniform(-1.5 * r, 1.5 * r, (n, 1, 3))):
                assert np.array_equal(pm.WINDOW_PMF["gmm"](radii, weights, means, sigmas),
                                      pm.gmm_integer_pmf(ks, weights, means, sigmas)), r


def test_ggm_window_route_rejects_overflowing_edges():
    ks = np.arange(-5, 6)
    beta, alpha = np.array([[2.0], [6.0]]), np.array([[1.0], [1e-60]])
    for k in (ks[None, :], ks[None, None, :]):
        with np.errstate(over="ignore"), pytest.raises(ParameterDomainError):
            pm.ggm_integer_pmf(k, beta, alpha)


def test_ggm_pmf_grads_edge_route_matches_general_path():
    # a (1, U) row of symbols takes the edge route and k of shape (1, 1, U)
    # the general path; both must give the same bits
    rng = np.random.default_rng(21)
    crossed = 0
    for case in range(300):
        r, beta, alpha = _ggm_window_rows(rng)
        ks = np.unique(rng.integers(-r, r + 1, size=int(rng.integers(1, 2 * r + 2))))
        ks = np.union1d(ks, [0]) if case % 2 else ks[ks != 0]
        if ks.size == 0:
            ks = np.array([-r, r])
        if case % 3 == 0:
            ks = rng.permutation(ks)  # the route does not need sorted symbols
        if case % 10 == 0:
            beta = float(beta[0, 0])  # one shared shape over the rows
        pmf, grads = pm.ggm_pmf_grads(ks[None, :], beta, alpha)
        pmf_ref, grads_ref = pm.ggm_pmf_grads(ks[None, None, :], beta, alpha)
        assert pmf.shape == pmf_ref.shape[1:] and grads.shape == grads_ref.shape[1:]
        assert np.array_equal(pmf, pmf_ref[0])
        assert np.array_equal(grads, grads_ref[0])
        a = 1.0 / np.broadcast_to(beta, alpha.shape)
        u = (np.array([0.5, np.abs(ks).max() + 0.5]) / alpha) ** (1.0 / a)
        crossed += int(np.sum((u[:, 0] < a[:, 0] + 1.0) & (u[:, 1] >= a[:, 0] + 1.0)))
    assert crossed >= 300


@pytest.mark.parametrize("ks, alpha", [
    ([-7, -2, 0, 3, 5], 1e-60),  # (5.5 / 1e-60)^6 overflows
    ([-7, -2, 0, 3, 5], np.nan),
    ([-np.inf, 0, 3], 1.0),
], ids=["overflow", "nan-alpha", "infinite-symbol"])
def test_ggm_pmf_grads_edge_route_rejects_bad_edges(ks, alpha):
    ks = np.asarray(ks, np.float64)
    beta, alpha = np.array([[2.0], [6.0]]), np.array([[1.0], [alpha]])
    for k in (ks[None, :], ks[None, None, :]):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ParameterDomainError):
            pm.ggm_pmf_grads(k, beta, alpha)


def test_pmf_wide_sigma_approximates_density():
    sigma = 1e6
    val = pmf_integer(ProbModel.gaussian(sigma), 0)
    assert val == pytest.approx(1.0 / (sigma * math.sqrt(2 * math.pi)), rel=0.01)


@pytest.mark.parametrize(
    "model",
    [
        ProbModel.gaussian(0.3),
        ProbModel.gaussian(12.0),
        ProbModel.generalized_gaussian(0.6, 1.8),
        ProbModel.generalized_gaussian(4.0, 9.0),
        ProbModel.mixture((0.25, 0.25, 0.5), (-6.0, 0.0, 7.5), (0.5, 2.0, 1.0)),
    ],
)
def test_pmf_sums_to_one(model):
    ks = np.arange(-400, 401)
    assert np.sum(pmf_integer(model, ks)) == pytest.approx(1.0, abs=1e-9)


@given(sigma=st.floats(0.05, 50), x=st.floats(-40, 40))
@settings(max_examples=200, deadline=None)
def test_gaussian_cdf_pmf_bounds(sigma, x):
    model = ProbModel.gaussian(sigma)
    c = cdf_eval(model, x)
    p = pmf_integer(model, int(round(x)))
    assert 0.0 <= c <= 1.0
    assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# Rates


def test_rate_one_bit_at_half_mass():
    assert rate_bits(ProbModel.gaussian(SIGMA_HALF_MASS), 0) == pytest.approx(1.0, abs=1e-10)


def test_rate_zero_bits_at_full_mass():
    # sigma tiny: the whole mass sits in the central bin
    assert rate_bits(ProbModel.gaussian(1e-8), 0) == 0.0


def test_rate_frozen_value():
    assert rate_bits(ProbModel.gaussian(1.0), 0) == pytest.approx(1.3848665342909894, abs=1e-12)


def test_rate_raises_below_floor():
    with pytest.raises(InfiniteRateError):
        rate_bits(ProbModel.gaussian(0.05), 40)


def test_floored_rate_matches_rate_in_support():
    model = ProbModel.gaussian(2.0)
    ks = np.arange(-8, 9)
    floored = pm.floored_rate_bits(pmf_integer(model, ks))
    exact = np.array([rate_bits(model, int(k)) for k in ks])
    np.testing.assert_allclose(floored, exact, atol=1e-12)


# ---------------------------------------------------------------------------
# Mixture helpers


def test_model_std_mixture():
    # Var = sum w (sigma^2 + mu^2) - mean^2
    params = pm.GmmParams((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
    model = ProbModel("gmm", params)
    assert pm.model_std(model) == pytest.approx(math.sqrt(5.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Gradients vs central finite differences


def _fd_rate(model_builder, coords, k, idx, h=1e-5):
    up = coords.copy()
    dn = coords.copy()
    up[idx] += h
    dn[idx] -= h
    return (rate_bits(model_builder(up), k) - rate_bits(model_builder(dn), k)) / (2 * h)


def _coords_and_builder(model):
    if model.family == "gm":
        return np.array([math.log(model.params.sigma)]), lambda c: ProbModel.gaussian(math.exp(c[0]))
    if model.family == "ggm":
        p = model.params
        return (
            np.array([math.log(p.beta), math.log(p.alpha)]),
            lambda c: ProbModel.generalized_gaussian(math.exp(c[0]), math.exp(c[1])),
        )
    p = model.params
    kc = len(p.weights)
    coords = np.concatenate([np.log(p.weights), p.means, np.log(p.sigmas)])

    def build(c):
        w = np.exp(c[:kc])
        w = w / w.sum()
        return ProbModel.mixture(w, c[kc : 2 * kc], np.exp(c[2 * kc :]))

    return coords, build


def test_grad_rate_params_matches_fd():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(120):
        model = random_model(rng)
        spread = max(1.0, pm.model_std(model))
        k = int(rng.integers(-2 * spread, 2 * spread + 1))
        try:
            grads = grad_rate_params(model, k)
        except InfiniteRateError:
            continue
        coords, build = _coords_and_builder(model)
        for idx in range(len(coords)):
            fd = _fd_rate(build, coords, k, idx)
            # negligible gradients are compared absolutely (FD noise floor),
            # resolvable ones relatively at 1e-4
            err = abs(grads[idx] - fd)
            assert err <= 1e-8 or err / max(abs(fd), abs(grads[idx])) <= 1e-4, (model, k, idx, grads[idx], fd)
        checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma


def test_gamma_against_scipy_grid():
    a = np.exp(np.linspace(np.log(0.3), np.log(20), 60))
    x = np.linspace(0.0, 200.0, 101)
    aa, xx = np.meshgrid(a, x)
    mine = regularized_lower_gamma(aa, xx)
    ref = gammainc(aa, xx)
    assert np.max(np.abs(mine - ref)) <= 1e-12


def test_gamma_identities():
    xs = np.linspace(0.01, 40, 300)
    np.testing.assert_allclose(regularized_lower_gamma(1.0, xs), 1 - np.exp(-xs), atol=1e-13)
    np.testing.assert_allclose(regularized_lower_gamma(0.5, xs), erf(np.sqrt(xs)), atol=1e-13)
    assert regularized_lower_gamma(2.7, 0.0) == 0.0


def test_gamma_monotone_in_x():
    xs = np.linspace(0, 60, 2000)
    vals = regularized_lower_gamma(1.7, xs)
    assert np.all(np.diff(vals) >= -1e-15)


def test_gamma_domain_errors():
    for a, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(ParameterDomainError):
            regularized_lower_gamma(a, x)


def test_gamma_order_derivative_vs_mpmath():
    # oracle: mpmath.diff(lambda a: gammainc(a, 0, x, regularized=True), a), dps=40
    frozen = {
        (0.35, 0.2): -0.97430602445689610257,
        (0.9, 1.7): -0.26228712586233781123,
        (1.6, 0.4): -0.2193803450673077999,
        (2.5, 6.0): -0.04392923998836796951,
        (5.0, 3.0): -0.13305676070192275156,
        (12.0, 30.0): -6.428643488001914913e-5,
        (19.5, 150.0): -1.1068575368126581243e-41,
        (0.31, 60.0): -1.3313773822150577558e-27,
    }
    for (a, x), expect in frozen.items():
        p, dp = regularized_lower_gamma_with_da(a, x)
        assert dp == pytest.approx(expect, rel=1e-8, abs=1e-45)
        assert p == pytest.approx(float(gammainc(a, x)), abs=1e-12)


def test_gamma_order_derivative_across_the_route_switch():
    # x on both sides of a + 1 and of 3.5, where the series hands over to the
    # continued fraction; same oracle as above, one row per a, x in the order
    # a + 0.5, a + 1, a + 2, 3.4, 3.6, a + 5
    frozen = {
        0.4: (-0.41092278488496354934, -0.23084017843729109097, -0.075261112351551505023,
              -0.025226615469421660886, -0.020319242388539540512, -0.002967507149354650867),
        0.5: (-0.38983726432851057751, -0.23019434201736077171, -0.079975877305173841908,
              -0.031041023714153925101, -0.025172179671049893672, -0.0034768004896314049238),
        1.0: (-0.31928530066306921823, -0.22082542621185950585, -0.09648294199134635264,
              -0.0679959355659932544, -0.056931975818544805976, -0.0062321847223548529714),
        1.43: (-0.28230101632795763341, -0.21049568790682728895, -0.10452919329598654331,
               -0.10690616601471036017, -0.091902231945155945399, -0.0087564534720862212907),
        2.5: (-0.2275485512782608162, -0.18723544734078909924, -0.11274911902573893832,
              -0.19542391525092932223, -0.17908863104220501801, -0.015031077737381760683),
        10.0: (-0.12264418627727564124, -0.11569395739153052931, -0.097177972037179651258,
               -0.0031532635722092633847, -0.0044656835464900237867, -0.040080778467116257749),
    }
    for a, row in frozen.items():
        for x, expect in zip((a + 0.5, a + 1.0, a + 2.0, 3.4, 3.6, a + 5.0), row):
            p, dp = regularized_lower_gamma_with_da(a, x)
            assert dp == pytest.approx(expect, rel=1e-8), (a, x)
            assert p == pytest.approx(float(gammainc(a, x)), abs=1e-12), (a, x)


def test_gamma_order_derivative_is_never_a_partial_sum():
    # the series needs about 1,100 terms here, past the kernel's 500; a
    # truncated sum gave dP/da = -0.00220028 and P = 0.2401043
    expect = -0.002200634855248509387  # same oracle as above
    try:
        p, dp = regularized_lower_gamma_with_da(20000.0, 19900.0)
    except ParameterDomainError:
        return
    assert dp == pytest.approx(expect, rel=1e-8)
    assert p == pytest.approx(float(gammainc(20000.0, 19900.0)), abs=1e-12)


def test_gamma_order_derivative_converges_at_large_orders():
    # near x = a the evaluation needs about 7.5 sqrt(a) iterations, 1,093 at
    # a = 20,000; oracle mpmath, dps=40, for P and for dP/da as above
    frozen = {
        (600.0, 590.0): (0.34571660947421316811, -0.015098744748411840476),
        (5000.0, 4900.0): (0.077944956226513913903, -0.0020684190598600765045),
        (20000.0, 19900.0): (0.24011560718543098931, -0.002200634855248509387),
        (20000.0, 20000.0): (0.50094031623374932319, -0.0028209596717325132924),
        (20000.0, 20150.0): (0.85551312499442200836, -0.0016058216811905798423),
        (100000.0, 99700.0): (0.1714173145145029228, -0.0008048935028877497197),
        (1000000.0, 1000000.0): (0.50013298076087259124, -0.00039894231364662520478),
    }
    for (a, x), (p_expect, dp_expect) in frozen.items():
        p, dp = regularized_lower_gamma_with_da(a, x)
        assert p == pytest.approx(p_expect, rel=1e-8), (a, x)
        assert dp == pytest.approx(dp_expect, rel=1e-8), (a, x)
    # one call: the largest order sets the budget of every element
    a, x = np.array(list(frozen)).T
    p, dp = regularized_lower_gamma_with_da(np.append(a, 0.5), np.append(x, 1.5))
    assert p[:-1] == pytest.approx([v for v, _ in frozen.values()], rel=1e-8)
    assert dp[:-1] == pytest.approx([v for _, v in frozen.values()], rel=1e-8)
    assert (p[-1], dp[-1]) == regularized_lower_gamma_with_da(0.5, 1.5)
    # the budget is bounded: an order no float evaluation resolves still raises
    with pytest.raises(ParameterDomainError, match="20000 iterations"):
        regularized_lower_gamma_with_da(1e12, 1e12)


# ---------------------------------------------------------------------------
# Validation and support sizing


def test_parameter_validation():
    with pytest.raises(ParameterDomainError):
        ProbModel.gaussian(0.0)
    with pytest.raises(ParameterDomainError):
        ProbModel.gaussian(math.nan)
    with pytest.raises(ParameterDomainError):
        ProbModel.generalized_gaussian(-1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        ProbModel.generalized_gaussian(2.0, 0.0)
    with pytest.raises(ParameterDomainError):
        ProbModel.mixture((0.6, 0.6), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ParameterDomainError):
        ProbModel.mixture((0.5, 0.5), (0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ParameterDomainError):
        ProbModel("gm", pm.GeneralizedGaussianParams(2.0, 1.0))


def test_support_radius_covers_mass():
    rng = np.random.default_rng(3)
    for _ in range(25):
        model = random_model(rng)
        r = pm.support_radius(model)
        ks = np.arange(-r, r + 1)
        covered = float(np.sum(pmf_integer(model, ks)))
        if r < 127:
            assert covered >= 1.0 - 2.0 ** -18
        assert 1 <= r <= 127


def test_support_radius_monotone_in_sigma():
    radii = [pm.support_radius(ProbModel.gaussian(s)) for s in (0.1, 0.5, 1.0, 4.0, 16.0)]
    assert radii == sorted(radii)


def test_support_edge_beyond_int64_reaches_the_cap():
    # the ggm edge alpha * u^(1/beta) is ~1e24 here, past the int64 range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pm.support_radius(ProbModel.generalized_gaussian(0.06, 0.01)) == 127
        assert pm.support_radius(ProbModel.gaussian(1e300)) == 127
        # beta = 0.005 overflows the edge itself to inf
        assert pm.support_radius(ProbModel.generalized_gaussian(0.005, 1.0)) == 127
        assert pm.ggm_support_radius(np.array([0.06, 0.12]), 0.01).tolist() == [127, 127]


@pytest.mark.parametrize("alpha", [0.01, 0.3, 5.0])
def test_support_radius_never_grows_with_beta(alpha):
    # a larger shape gives a lighter tail at fixed alpha
    betas = np.concatenate([np.linspace(0.05, 0.5, 91), np.linspace(0.5, 6.0, 56)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = [pm.support_radius(ProbModel.generalized_gaussian(b, alpha)) for b in betas]
    assert all(1 <= r <= 127 for r in radii)
    assert all(later <= earlier for earlier, later in zip(radii, radii[1:]))


def test_ggm_std_roundtrip():
    beta, std = 1.3, 2.4
    alpha = pm.ggm_alpha_for_std(beta, std)
    assert pm.ggm_std(beta, alpha) == pytest.approx(std, rel=1e-12)
    # beta=2: alpha = sqrt(2) sigma
    assert pm.ggm_alpha_for_std(2.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
