"""Probability models for integer-quantized latent symbols.

Three families share one interface: Gaussian ("gm"), generalized Gaussian
("ggm", density beta/(2*alpha*Gamma(1/beta)) * exp(-(|x|/alpha)**beta)), and
a K-component Gaussian mixture ("gmm").  A symbol k carries the probability
mass of the unit bin [k-1/2, k+1/2], and its code length is -log2 of that
mass.

Scalar operations (`cdf_eval`, `pmf_integer`, `rate_bits`, `grad_rate_params`,
`model_std`) work on a single `ProbModel`; the per-family kernels are their
vectorized equivalents.  `FAMILY_PARAMS` maps a family name to its parameter
names, and `INTEGER_PMF`, `PMF_GRADS`, `STD` and `SUPPORT_RADIUS` to its
kernels, so callers never branch on the family.

The generalized-Gaussian CDF and bin masses take the regularized incomplete
gamma P(a, x) and its complement from `scipy.special.gammainc`/`gammaincc`.
scipy has no derivative in the order a, so an in-house series (x <
max(a+1, 3.5)) and continued fraction (otherwise), differentiated in forward
mode, serve only `regularized_lower_gamma_with_da` and the ggm gradients
built on it.  The switch point sends each element to whichever of the two
converges in fewer iterations; an element that has not converged in 16
sqrt(a) iterations (500 at least, 20,000 at most) raises
`ParameterDomainError` rather than return a partial sum.

Per-element dynamic tables ask `WINDOW_PMF` for a batch of rows, each with
its own radius r and window k = [-r..r]; LUTs and exported prior sets ask
`ggm_integer_pmf` for the symmetric row k = [-r..r] of shape (1, 2r+1), with
one parameter pair per table row, which is the same with every radius r.
ggm takes one window route for both: u = (x/alpha)^beta at the half-axis
edges 0.5 .. r+0.5 of each row, each edge through P(a, u) only where a body
bin or the center needs it and Q(a, u) only where a tail bin does, then
neighbouring edges differenced, halved and mirrored.  These are the general
path's operations on the same inputs, so the masses are bit-identical to it
at about a quarter of the incomplete-gamma calls.  `ggm_pmf_grads` does the
same for the trainer's (1, U) row of unique symbols: its forward-mode d/da
runs once per row on the unique half-axis edges, not twice per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, erf, erfc, gammainc, gammaincc, gammainccinv, gammaln, ndtr, ndtri

__all__ = [
    "PROB_FLOOR",
    "ParameterDomainError",
    "InfiniteRateError",
    "GaussianParams",
    "GeneralizedGaussianParams",
    "GmmParams",
    "ProbModel",
    "cdf_eval",
    "pmf_integer",
    "rate_bits",
    "floored_rate_bits",
    "grad_rate_params",
    "regularized_lower_gamma",
    "regularized_lower_gamma_with_da",
    "gaussian_integer_pmf",
    "ggm_integer_pmf",
    "gmm_integer_pmf",
    "gaussian_pmf_grads",
    "ggm_pmf_grads",
    "gmm_pmf_grads",
    "gaussian_cdf",
    "ggm_cdf",
    "gmm_cdf",
    "ggm_std",
    "gmm_std",
    "ggm_alpha_for_std",
    "model_std",
    "support_radius",
    "FAMILY_PARAMS",
    "INTEGER_PMF",
    "WINDOW_PMF",
    "PMF_GRADS",
    "STD",
    "SUPPORT_RADIUS",
]

# Bin masses below this are treated as zero for rate purposes.
PROB_FLOOR = 2.0 ** -32

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)


class ParameterDomainError(ValueError):
    """A distribution parameter is outside its valid domain."""


class InfiniteRateError(ValueError):
    """The symbol has (numerically) zero probability under the model.

    Callers that must code such a symbol anyway should route it through the
    tail/bypass escape of the quantized tables.
    """


# ---------------------------------------------------------------------------
# Parameter containers


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterDomainError(msg)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


@dataclass(frozen=True)
class GaussianParams:
    """Zero-mean Gaussian with scale ``sigma``."""

    sigma: float

    def __post_init__(self):
        _require(_finite(self.sigma) and self.sigma > 0, f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class GeneralizedGaussianParams:
    """Zero-mean generalized Gaussian with shape ``beta`` and scale ``alpha``.

    beta = 2 recovers a Gaussian with sigma = alpha / sqrt(2); beta = 1 is
    Laplacian with diversity alpha.
    """

    beta: float
    alpha: float

    def __post_init__(self):
        _require(_finite(self.beta) and self.beta > 0, f"beta must be finite and > 0, got {self.beta}")
        _require(_finite(self.alpha) and self.alpha > 0, f"alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class GmmParams:
    """Gaussian mixture: per-component (weight, mean, sigma), weights sum to 1."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        k = len(self.weights)
        _require(k >= 1, "mixture needs at least one component")
        _require(len(self.means) == k and len(self.sigmas) == k, "weights/means/sigmas lengths differ")
        _require(_finite(self.weights) and _finite(self.means) and _finite(self.sigmas), "non-finite mixture parameter")
        _require(all(w > 0 for w in self.weights), "weights must be > 0")
        _require(all(s > 0 for s in self.sigmas), "sigmas must be > 0")
        _require(abs(sum(self.weights) - 1.0) <= 1e-9, f"weights sum to {sum(self.weights)}, expected 1")


_PARAM_TYPES = {"gm": GaussianParams, "ggm": GeneralizedGaussianParams, "gmm": GmmParams}


@dataclass(frozen=True)
class ProbModel:
    """Tagged union over the three supported families."""

    family: str
    params: GaussianParams | GeneralizedGaussianParams | GmmParams

    def __post_init__(self):
        _require(self.family in _PARAM_TYPES, f"unknown family {self.family!r}")
        expected = _PARAM_TYPES[self.family]
        _require(isinstance(self.params, expected), f"family {self.family!r} expects {expected.__name__}")

    @classmethod
    def from_values(cls, family: str, values) -> "ProbModel":
        """Model from its parameter values in FAMILY_PARAMS order."""
        values = (float(v) if np.ndim(v) == 0 else tuple(map(float, v)) for v in values)
        return cls(family, _PARAM_TYPES[family](*values))

    @classmethod
    def gaussian(cls, sigma: float) -> "ProbModel":
        return cls("gm", GaussianParams(float(sigma)))

    @classmethod
    def generalized_gaussian(cls, beta: float, alpha: float) -> "ProbModel":
        return cls("ggm", GeneralizedGaussianParams(float(beta), float(alpha)))

    @classmethod
    def mixture(cls, weights, means, sigmas) -> "ProbModel":
        return cls("gmm", GmmParams(tuple(map(float, weights)), tuple(map(float, means)), tuple(map(float, sigmas))))


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma P(a, x)


def _validate_gamma_args(a, x):
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ParameterDomainError("order a must be finite and > 0")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ParameterDomainError("argument x must be finite and >= 0")
    return np.broadcast_arrays(a, x)


def regularized_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Accepts scalars or broadcastable arrays; a > 0, x >= 0.
    """
    a, x = _validate_gamma_args(a, x)
    p = gammainc(a, x)
    return float(p) if np.ndim(p) == 0 else p


# scipy has no order derivative dP/da, so the trainer's gradients come from a
# series for P or a Lentz continued fraction for Q = 1 - P, differentiated in
# forward mode; P in these gradients comes from the same evaluation.  Each
# element takes the one that converges in fewer iterations: the continued
# fraction from x = max(a + 1, 3.5) on.  Below a = 2.5 the series is the
# faster one up to x = 3.3-3.6 (20 against 55 iterations at a = 0.5,
# x = a + 1); above it, the continued fraction is from x = a + 1 on.  Either
# needs at most about 30 iterations for a < 2.5 and O(sqrt(a)) near x = a:
# 7.4-10 sqrt(a) at the worst x for a from 20 to 10^6, 1,093 at a = 20,000.
# The continued fraction stops an element only once its d/da has converged
# too.  An element that has not converged within _GAMMA_ITER_PER_SQRT_A
# sqrt(a) iterations, a the largest order of its call, raises
# ParameterDomainError; the budget is at least _GAMMA_MIN_ITER, and at most
# _GAMMA_MAX_ITER, which serves every a up to 1.5 million twice over.
_GAMMA_EPS = 1e-15
_GAMMA_DA_EPS = 1e-12
_GAMMA_TINY = 1e-300
_GAMMA_ITER_PER_SQRT_A = 16  # about twice what large orders need
_GAMMA_MIN_ITER = 500
_GAMMA_MAX_ITER = 20_000
_GAMMA_OWN_VALUE_MAX_A = 20.0  # the trainer's largest order, 1 / beta at beta = 0.05
_GAMMA_CF_MIN_X = 3.5


def _converge(step, state, a, x):
    """Iterate `step(i, state) -> (state, done, value, dvalue)` over the
    elements of a and x, recording each element's value and d/da at the
    iteration where it converges.  The state arrays are compacted to the
    live elements only once their count has halved; a converged element
    left in them is never recorded again."""
    out = np.empty_like(a)
    dout = np.empty_like(a)
    index = np.arange(a.size)
    live = np.ones(a.size, dtype=bool)
    n_live = a.size
    budget = math.ceil(_GAMMA_ITER_PER_SQRT_A * math.sqrt(a.max()))
    budget = min(_GAMMA_MAX_ITER, max(_GAMMA_MIN_ITER, budget))
    for i in range(1, budget + 1):
        state, done, value, dvalue = step(i, state)
        done &= live
        hit = done.nonzero()[0]
        if hit.size:
            at = index[hit]
            out[at] = value[hit]
            dout[at] = dvalue[hit]
            live[hit] = False
            n_live -= hit.size
            if n_live == 0:
                return out, dout
            if 2 * n_live <= live.size:
                index = index[live]
                state = tuple(s[live] for s in state)
                live = np.ones(n_live, dtype=bool)
    k = index[np.argmax(live)]
    raise ParameterDomainError(
        f"incomplete gamma P(a={float(a[k])}, x={float(x[k])}) did not converge in {budget} iterations"
    )


def _series_step(i, state):
    # term_n = x^n / (a...(a+n)), with its dual d/da.
    ap, xs, term, dterm, total, dtotal = state
    ap += 1.0
    dterm = (xs / ap) * (dterm - term / ap)
    term = term * xs / ap
    total += term
    dtotal += dterm
    done = np.abs(term) <= np.abs(total) * _GAMMA_EPS
    return (ap, xs, term, dterm, total, dtotal), done, total, dtotal


def _series_start(a, x):
    term = 1.0 / a
    dterm = -1.0 / (a * a)
    return _series_step, (a.copy(), x, term, dterm, term.copy(), dterm.copy())


def _cf_step(i, state):
    # Derivatives of b and a_n in the Lentz recurrence are -1 and +i.
    aa, b, c, dc, d, dd, h, dh = state
    an = -i * (i - aa)
    dan = float(i)
    b = b + 2.0
    v = an * d + b
    dv = dan * d + an * dd - 1.0
    np.copyto(v, _GAMMA_TINY, where=np.abs(v) < _GAMMA_TINY)
    d = 1.0 / v
    dd = -dv * d * d
    cv = b + an / c
    dcv = (dan - an * (dc / c)) / c - 1.0
    np.copyto(cv, _GAMMA_TINY, where=np.abs(cv) < _GAMMA_TINY)
    c, dc = cv, dcv
    delta = c * d
    ddelta = dc * d + c * dd
    dh = dh * delta + h * ddelta
    h = h * delta
    # at an integer a, a_n = 0 ends the fraction: delta is 1 from there on,
    # but its d/da is not 0 until the derivative has converged as well
    done = (np.abs(delta - 1.0) < _GAMMA_EPS) & (np.abs(ddelta) < _GAMMA_DA_EPS)
    return (aa, b, c, dc, d, dd, h, dh), done, h, dh


def _cf_start(a, x):
    b = x + 1.0 - a
    v = np.where(np.abs(b) < _GAMMA_TINY, _GAMMA_TINY, b)
    d = 1.0 / v
    dd = 1.0 / (v * v)  # = -db / v^2 with db = -1
    return _cf_step, (a, b, np.full_like(x, 1.0 / _GAMMA_TINY), np.zeros_like(x), d, dd, d.copy(), dd.copy())


def regularized_lower_gamma_with_da(a, x):
    """P(a, x) together with its order derivative dP/da.

    The derivative is the exact forward-mode differential of the same
    series/continued-fraction evaluation, not a finite difference; up to
    a = 20, P comes from that evaluation too, and above it from scipy.
    Raises ParameterDomainError where that evaluation does not converge.
    """
    a, x = _validate_gamma_args(a, x)
    p = np.zeros(a.shape, dtype=np.float64)
    dp = np.zeros(a.shape, dtype=np.float64)
    cf = x >= np.maximum(a + 1.0, _GAMMA_CF_MIN_X)
    for route, start, scipy_value in (((x > 0) & ~cf, _series_start, gammainc),
                                      (cf, _cf_start, gammaincc)):
        if np.any(route):
            ar, xr = a[route], x[route]
            s, ds = _converge(*start(ar, xr), ar, xr)
            pref = np.exp(-xr + ar * np.log(xr) - gammaln(ar))
            dpref = pref * (np.log(xr) - digamma(ar))
            value, dvalue = pref * s, dpref * s + pref * ds
            # the prefactor's exponent sums terms of size a log x, so its
            # relative error grows with a (4e-12 at a = 20,000); above the
            # trainer's orders scipy gives the value, and the derivative is
            # value * (log x - digamma(a) + ds / s), s the series or fraction
            big = ar > _GAMMA_OWN_VALUE_MAX_A
            if big.any():
                value[big] = scipy_value(ar[big], xr[big])
                dvalue[big] = value[big] * (np.log(xr[big]) - digamma(ar[big]) + ds[big] / s[big])
            p[route], dp[route] = value, dvalue
    p[cf] = 1.0 - p[cf]  # the fraction's rows hold Q = 1 - P
    dp[cf] = -dp[cf]
    np.clip(p, 0.0, 1.0, out=p)
    if p.ndim == 0:
        return float(p), float(dp)
    return p, dp


# ---------------------------------------------------------------------------
# Vectorized family kernels: CDFs and unit-bin masses


def gaussian_cdf(x, sigma):
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return ndtr(x / sigma)


def _ggm_u(x, beta, alpha):
    # u = (x / alpha)^beta evaluated in log space; x >= 0.
    with np.errstate(divide="ignore"):
        logr = np.log(x) - np.log(alpha)
    u = np.exp(beta * logr)
    return np.where(x > 0, u, 0.0)


def ggm_cdf(x, beta, alpha):
    x, beta, alpha = np.broadcast_arrays(
        np.asarray(x, np.float64), np.asarray(beta, np.float64), np.asarray(alpha, np.float64)
    )
    p = regularized_lower_gamma(1.0 / beta, _ggm_u(np.abs(x), beta, alpha))
    return 0.5 + 0.5 * np.sign(x) * p


def gmm_cdf(x, weights, means, sigmas):
    """Mixture CDF; component axis is the trailing axis of the parameters."""
    x = np.asarray(x, dtype=np.float64)[..., None]
    z = (x - np.asarray(means, np.float64)) / np.asarray(sigmas, np.float64)
    return np.sum(np.asarray(weights, np.float64) * ndtr(z), axis=-1)


def gaussian_integer_pmf(k, sigma):
    """Mass of the unit bin around integer k under Gaussian(sigma).

    Evaluated on the positive half-axis with erf/erfc so that the result is
    exactly symmetric in k and stable in the far tail.
    """
    k = np.asarray(k, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    m = np.abs(k)
    denom = sigma * _SQRT2
    lo = (m - 0.5) / denom
    hi = (m + 0.5) / denom
    center = erf(hi)
    off = 0.5 * (erfc(lo) - erfc(hi))
    return np.where(m == 0, center, off)


def _ggm_window_pmf(radii, beta, alpha):
    """Masses over k = [-R..R], R the largest radius, for one parameter pair
    (columns of shape (n, 1)) and one radius per row; row i is exact on its
    own window [-radii[i], radii[i]], and its columns outside it are not
    defined.

    Each half-axis edge 0.5 .. r+0.5 of a row is evaluated once: bin j >= 1
    lies between edges j-1 and j, and the center bin between 0 and edge 0.
    The operations and their inputs are those of the general path in
    ggm_integer_pmf, so the masses are bit-identical to it.
    """
    beta, alpha = (np.asarray(v, np.float64) for v in (beta, alpha))
    radii = np.asarray(radii).reshape(-1, 1)
    r = int(radii.max())
    a = 1.0 / beta
    edges = np.arange(r + 1)
    # an edge beyond a row's window may overflow; it is never read.  u rises
    # along a row, so its last edge inside the window is its largest
    with np.errstate(over="ignore"):
        u = _ggm_u(edges + 0.5, beta, alpha)
    _validate_gamma_args(a, np.take_along_axis(u, radii, axis=1))
    # bin j >= 1 takes Q(a, u_{j-1}) - Q(a, u_j) when both edges sit at
    # u >= a+1, P(a, u_j) - P(a, u_{j-1}) otherwise; the center is P(a, u_0).
    # Only the edges of bins inside a row's window are evaluated.
    far = u >= a + 1.0
    a = np.broadcast_to(a, u.shape)
    tail = far[:, :-1] & far[:, 1:]
    inside = edges[1:] <= radii
    body = ~tail & inside
    tail_in = tail & inside
    need_p = np.zeros(u.shape, dtype=bool)
    need_p[:, 0] = True
    need_p[:, 1:] |= body
    need_p[:, :-1] |= body
    need_q = np.zeros(u.shape, dtype=bool)
    need_q[:, 1:] = tail_in
    need_q[:, :-1] |= tail_in
    p = np.zeros(u.shape)
    q = np.zeros(u.shape)
    p[need_p] = gammainc(a[need_p], u[need_p])
    q[need_q] = gammaincc(a[need_q], u[need_q])
    half = np.empty(u.shape)
    half[:, 0] = p[:, 0]
    half[:, 1:] = 0.5 * np.where(tail, q[:, :-1] - q[:, 1:], p[:, 1:] - p[:, :-1])
    np.clip(half, 0.0, 1.0, out=half)
    return np.concatenate([half[:, :0:-1], half], axis=1)


def ggm_integer_pmf(k, beta, alpha):
    """Unit-bin mass under the generalized Gaussian, symmetric in k.

    When k is the symmetric row [-r..r] of shape (1, 2r+1) and the
    parameters hold one value per row, as for LUTs and exported tables, the
    rows go through _ggm_window_pmf, each with radius r: every half-axis
    edge 0.5 .. r+0.5 goes through the incomplete gamma once (P where a body
    bin needs it, Q where a tail bin does) and the bins are neighbouring
    differences, mirrored.  The result is bit-identical to the general
    path, which serves every other k.
    """
    k, beta, alpha = (np.asarray(v, np.float64) for v in (k, beta, alpha))
    rows = np.broadcast_shapes(beta.shape, alpha.shape, (1, 1))
    r = k.size // 2
    if k.shape == (1, 2 * r + 1) and rows[1:] == (1,) and np.array_equal(k[0], np.arange(-r, r + 1)):
        return _ggm_window_pmf(np.full(rows[0], r), np.broadcast_to(beta, rows), np.broadcast_to(alpha, rows))
    k, beta, alpha = np.broadcast_arrays(k, beta, alpha)
    a = 1.0 / beta
    m = np.abs(k)
    u_hi = _ggm_u(m + 0.5, beta, alpha)
    u_lo = _ggm_u(np.maximum(m - 0.5, 0.0), beta, alpha)
    _validate_gamma_args(a, u_hi)
    _validate_gamma_args(a, u_lo)
    # P(a, u_hi) - P(a, u_lo); in the far tail, where both edges sit at
    # u >= a+1, Q(a, u_lo) - Q(a, u_hi) avoids cancelling two values near 1
    tail = (u_lo >= a + 1.0) & (u_hi >= a + 1.0)
    body = ~tail
    mass = np.empty(a.shape)
    mass[body] = gammainc(a[body], u_hi[body]) - gammainc(a[body], u_lo[body])
    mass[tail] = gammaincc(a[tail], u_lo[tail]) - gammaincc(a[tail], u_hi[tail])
    # the center bin spans both sides of zero; every other bin is one of two
    return np.clip(np.where(m == 0, mass, 0.5 * mass), 0.0, 1.0)


def gmm_integer_pmf(k, weights, means, sigmas):
    """Unit-bin mass under a Gaussian mixture (component axis trailing)."""
    k = np.asarray(k, dtype=np.float64)[..., None]
    means = np.asarray(means, np.float64)
    sigmas = np.asarray(sigmas, np.float64)
    weights = np.asarray(weights, np.float64)
    a = (k - 0.5 - means) / sigmas
    b = (k + 0.5 - means) / sigmas
    comp = ndtr(b) - ndtr(a)
    return np.sum(weights * comp, axis=-1)


# ---------------------------------------------------------------------------
# Gradients of the bin mass w.r.t. the trainable coordinates


def _phi(t):
    return np.exp(-0.5 * t * t) * _INV_SQRT_2PI


def gaussian_pmf_grads(k, sigma):
    """Return (pmf, grads); the last axis of grads holds d pmf / d log sigma."""
    k = np.asarray(k, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    pmf = gaussian_integer_pmf(k, sigma)
    a = (k - 0.5) / sigma
    b = (k + 0.5) / sigma
    dlogsigma = a * _phi(a) - b * _phi(b)
    return pmf, dlogsigma[..., None]


def _q1(a, u):
    # u^a e^-u / Gamma(a) == u * pdf_gamma(a, u); stays finite as u -> 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(a * np.log(u) - u - gammaln(a))
    return np.where(u > 0, out, 0.0)


def _ggm_endpoint_grads(a, beta, u):
    """d/dlogbeta and d/dlogalpha of P(a(beta), u(x; alpha, beta)) at fixed x."""
    p, dpda = regularized_lower_gamma_with_da(a, np.asarray(u, np.float64))
    p = np.asarray(p, np.float64)
    dpda = np.asarray(dpda, np.float64)
    q1 = _q1(a, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        qlog = q1 * np.log(u)
    qlog = np.where(q1 > 0, qlog, 0.0)
    dlogbeta = -dpda / beta + qlog
    dlogalpha = -beta * q1
    return p, dlogbeta, dlogalpha


def ggm_pmf_grads(k, beta, alpha):
    """Return (pmf, grads); the last axis of grads holds (d pmf/d log beta, d pmf/d log alpha).

    When k is one row of shape (1, U) and the parameters hold one value per
    row, as for the trainer's rate tables, the endpoint gradients are
    evaluated once per row on the sorted unique half-axis edges
    |k| +- 0.5 (clipped at 0) and gathered for each bin's two edges.  The
    result is bit-identical to the general path, which serves every other k.
    """
    k, beta, alpha = (np.asarray(v, np.float64) for v in (k, beta, alpha))
    a = 1.0 / beta
    m = np.abs(k)
    hi, lo = m + 0.5, np.maximum(m - 0.5, 0.0)
    one_per_row = np.broadcast_shapes(beta.shape, alpha.shape, (1, 1))[1:] == (1,)
    if k.ndim == 2 and k.shape[0] == 1 and one_per_row:
        edges, at = np.unique(np.concatenate([hi[0], lo[0]]), return_inverse=True)
        ends = _ggm_endpoint_grads(a, beta, _ggm_u(edges, beta, alpha))
        p_hi, db_hi, da_hi = (e[..., at[:k.size]] for e in ends)
        p_lo, db_lo, da_lo = (e[..., at[k.size:]] for e in ends)
    else:
        p_hi, db_hi, da_hi = _ggm_endpoint_grads(a, beta, _ggm_u(hi, beta, alpha))
        p_lo, db_lo, da_lo = _ggm_endpoint_grads(a, beta, _ggm_u(lo, beta, alpha))
    center = m == 0
    pmf = np.where(center, p_hi, 0.5 * (p_hi - p_lo))
    dlogbeta = np.where(center, db_hi, 0.5 * (db_hi - db_lo))
    dlogalpha = np.where(center, da_hi, 0.5 * (da_hi - da_lo))
    return np.clip(pmf, 0.0, 1.0), np.stack([dlogbeta, dlogalpha], axis=-1)


def gmm_pmf_grads(k, weights, means, sigmas):
    """Return (pmf, grads); the last axis of grads holds (d/d weight-logits
    (K), d/d means (K), d/d log sigmas (K)).

    The weight gradient is taken in the normalized soft parameterization
    (weights = softmax(logits)), evaluated at the current weights.
    """
    k = np.asarray(k, dtype=np.float64)[..., None]
    weights = np.asarray(weights, np.float64)
    means = np.asarray(means, np.float64)
    sigmas = np.asarray(sigmas, np.float64)
    a = (k - 0.5 - means) / sigmas
    b = (k + 0.5 - means) / sigmas
    comp = ndtr(b) - ndtr(a)
    pmf = np.sum(weights * comp, axis=-1)
    phi_a = _phi(a)
    phi_b = _phi(b)
    dmeans = weights * (phi_a - phi_b) / sigmas
    dlogsigmas = weights * (a * phi_a - b * phi_b)
    dlogits = weights * (comp - pmf[..., None])
    return pmf, np.concatenate([dlogits, dmeans, dlogsigmas], axis=-1)


# ---------------------------------------------------------------------------
# Family tables: the one place a family name selects parameters and kernels

# Parameter names per family, in kernel argument order; they are also the
# keys of a block's truth arrays.  The mixture family (the one with weights)
# carries a trailing component axis on every parameter.
FAMILY_PARAMS = {"gm": ("sigma",), "ggm": ("beta", "alpha"), "gmm": ("weights", "means", "sigmas")}

# Unit-bin mass kernel per family: kernel(k, *parameters).
INTEGER_PMF = {"gm": gaussian_integer_pmf, "ggm": ggm_integer_pmf, "gmm": gmm_integer_pmf}


def _gaussian_window_pmf(radii, sigma):
    """Masses over k = [-R..R], R the largest radius, one sigma per row
    (a column of shape (n, 1)).

    erfc runs once per half-axis edge 0.5 .. R+0.5 and erf once per row for
    the center bin; bin j >= 1 is half the difference of edges j-1 and j,
    mirrored.  j - 0.5 and (j - 1) + 0.5 are the same double, so the masses
    are bit-identical to gaussian_integer_pmf over the row."""
    denom = np.asarray(sigma, np.float64) * _SQRT2
    r = int(np.max(radii))
    # an edge beyond a row's window may overflow to infinity: erfc gives it
    # 0, and the row never reads its bins
    with np.errstate(over="ignore"):
        tail = erfc((np.arange(r + 1) + 0.5) / denom)
        center = erf(0.5 / denom)
    half = np.empty(tail.shape)
    half[:, :1] = center
    half[:, 1:] = 0.5 * (tail[:, :-1] - tail[:, 1:])
    return np.concatenate([half[:, :0:-1], half], axis=1)


def _gmm_window_pmf(radii, weights, means, sigmas):
    """Masses over k = [-R..R], R the largest radius, one mixture per row
    (parameters of shape (n, 1, K)).

    ndtr runs once per edge -R-0.5 .. R+0.5 and component; bin k is the
    difference of edges k and k+1.  k + 0.5 and (k + 1) - 0.5 are the same
    double, so the masses are bit-identical to gmm_integer_pmf over the row."""
    r = int(np.max(radii))
    edges = (np.arange(-r, r + 2) - 0.5)[:, None]
    with np.errstate(over="ignore"):  # as in _gaussian_window_pmf
        cdf = ndtr((edges - np.asarray(means, np.float64)) / np.asarray(sigmas, np.float64))
    return np.sum(np.asarray(weights, np.float64) * (cdf[:, 1:] - cdf[:, :-1]), axis=-1)


# Window mass kernel per family: kernel(radii, *parameters), with one radius
# and one parameter set per row (parameters as columns, as INTEGER_PMF takes
# them for a row of k): the masses over k = [-R..R], R the largest radius,
# row i exact on [-radii[i], radii[i]].  Each evaluates a bin edge once per
# row (and component), not once for each bin beside it; ggm only the edges
# inside each row's window, gm and gmm every edge of [-R..R].
WINDOW_PMF = {
    "gm": _gaussian_window_pmf,
    "ggm": _ggm_window_pmf,
    "gmm": _gmm_window_pmf,
}

# Bin mass and coordinate gradients per family: kernel(k, *parameters).
PMF_GRADS = {"gm": gaussian_pmf_grads, "ggm": ggm_pmf_grads, "gmm": gmm_pmf_grads}

_CDF = {"gm": gaussian_cdf, "ggm": ggm_cdf, "gmm": gmm_cdf}


# ---------------------------------------------------------------------------
# Scalar operations on ProbModel


def _model_args(model: ProbModel) -> tuple:
    return tuple(getattr(model.params, name) for name in FAMILY_PARAMS[model.family])


def cdf_eval(model: ProbModel, x):
    """CDF of the model at x (scalar or array)."""
    out = _CDF[model.family](x, *_model_args(model))
    return float(out) if np.ndim(out) == 0 else out


def pmf_integer(model: ProbModel, k):
    """Probability mass of the unit bin [k-1/2, k+1/2]."""
    out = INTEGER_PMF[model.family](k, *_model_args(model))
    return float(out) if np.ndim(out) == 0 else out


def rate_bits(model: ProbModel, k) -> float:
    """Ideal code length -log2 pmf_integer(model, k), in bits.

    The exact rate of one model: raises InfiniteRateError when the mass
    falls below the 2^-32 floor (the floor policy is at floored_rate_bits).
    """
    p = pmf_integer(model, k)
    if np.ndim(p) != 0:
        raise TypeError("rate_bits takes a scalar symbol; use floored_rate_bits for arrays")
    if p < PROB_FLOOR:
        raise InfiniteRateError(f"symbol {k} has probability {p:.3e} < 2^-32 under {model.family}")
    return -math.log2(p)


def floored_rate_bits(pmf):
    """-log2(max(pmf, 2^-32)) elementwise: the one floor policy for rates.

    Three layers meet the 2^-32 floor:
    - rate_bits and grad_rate_params, the exact rate of one model, raise
      InfiniteRateError below it;
    - every soft or aggregate rate (the prior trainer's loss and its public
      rate functions) and the oracle cap a floored mass here at 32 bits,
      with zero gradient;
    - the coder never fails: each coded slot has at least 2^-16, and
      symbols out of a table's span escape at a finite cost.
    """
    return -np.log2(np.maximum(np.asarray(pmf, np.float64), PROB_FLOOR))


def grad_rate_params(model: ProbModel, k) -> np.ndarray:
    """Gradient of rate_bits(model, k) w.r.t. the trainable coordinates.

    Raises InfiniteRateError below the 2^-32 floor, as rate_bits does.
    Coordinate order: gm -> [log sigma]; ggm -> [log beta, log alpha];
    gmm -> [weight logits (K), means (K), log sigmas (K)].
    """
    pmf, grads = PMF_GRADS[model.family](k, *_model_args(model))
    pmf = float(pmf)
    if pmf < PROB_FLOOR:
        raise InfiniteRateError(f"symbol {k} has probability {pmf:.3e} < 2^-32 under {model.family}")
    return -grads / (pmf * _LN2)


# ---------------------------------------------------------------------------
# Spread summaries and support sizing


def ggm_std(beta, alpha):
    """Standard deviation of the generalized Gaussian."""
    beta = np.asarray(beta, np.float64)
    alpha = np.asarray(alpha, np.float64)
    a = 1.0 / beta
    out = alpha * np.exp(0.5 * (gammaln(3.0 * a) - gammaln(a)))
    return float(out) if np.ndim(out) == 0 else out


def ggm_alpha_for_std(beta, std):
    """Scale alpha that gives the generalized Gaussian the requested std."""
    beta = np.asarray(beta, np.float64)
    std = np.asarray(std, np.float64)
    a = 1.0 / beta
    out = std * np.exp(-0.5 * (gammaln(3.0 * a) - gammaln(a)))
    return float(out) if np.ndim(out) == 0 else out


def gmm_std(weights, means, sigmas):
    """Standard deviation of a mixture around its mean (component axis trailing)."""
    weights, means, sigmas = (np.asarray(v, np.float64) for v in (weights, means, sigmas))
    mean = np.sum(weights * means, axis=-1)
    var = np.sum(weights * (sigmas**2 + means**2), axis=-1) - mean**2
    return np.sqrt(np.maximum(var, 0.0))


# Standard deviation per family: std(*parameters).
STD = {"gm": lambda sigma: sigma, "ggm": ggm_std, "gmm": gmm_std}


def model_std(model: ProbModel) -> float:
    """Standard deviation of the model (mixture: around its overall mean)."""
    return float(STD[model.family](*_model_args(model)))


# Support radii leave at most about TAIL_MASS of a model outside
# [-r - 1/2, r + 1/2], clamped to [1, MAX_RADIUS]: 255 coded symbols plus
# the tail fill the 256-interval cap of a quantized table.
TAIL_MASS = 2.0 ** -20
MAX_RADIUS = 127
_TAIL_Z = float(ndtri(1.0 - 0.5 * TAIL_MASS))  # Gaussian edge per sigma


def gaussian_support_radius(sigma):
    return _edge_to_radius(np.asarray(sigma, np.float64) * _TAIL_Z)


def ggm_support_radius(beta, alpha):
    a = 1.0 / np.asarray(beta, np.float64)
    u = gammainccinv(a, TAIL_MASS)
    # a very heavy tail can push the edge past float range: that is the cap
    with np.errstate(over="ignore"):
        return _edge_to_radius(np.asarray(alpha, np.float64) * u ** a)


def gmm_support_radius(means, sigmas):
    """Radius covering every component (component axis trailing)."""
    edge = np.max(np.abs(np.asarray(means, np.float64)) + np.asarray(sigmas, np.float64) * _TAIL_Z, axis=-1)
    return _edge_to_radius(edge)


def _edge_to_radius(edge):
    # clip in floats first: an edge beyond int64 must reach the cap, not wrap
    r = np.clip(np.ceil(np.asarray(edge, np.float64) - 0.5), 1, MAX_RADIUS).astype(np.int64)
    return int(r) if r.ndim == 0 else r


# Support radius kernel per family: kernel(*parameters).
SUPPORT_RADIUS = {
    "gm": gaussian_support_radius,
    "ggm": ggm_support_radius,
    "gmm": lambda weights, means, sigmas: gmm_support_radius(means, sigmas),
}


def support_radius(model: ProbModel) -> int:
    """Smallest radius r such that P(|X| > r + 1/2) stays below ~TAIL_MASS.

    Used to size per-element dynamic tables; clamped to [1, MAX_RADIUS].
    """
    return int(SUPPORT_RADIUS[model.family](*_model_args(model)))
