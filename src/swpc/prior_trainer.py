"""Trainable switchable prior sets.

A prior set is a small family of distributions {theta_m} shared by every
element of a latent block.  Each element carries a continuous index i that
softly selects priors during training (softmax over the distances |i - m|)
and hardens to round(clip(i, 1, M)) for coding.  This module owns the
training side: soft weights, weighted and Top-K rate estimates, 2-D sets,
skip mode as a member of the set, hyperlatent prior reuse, annealing,
entropy-increasing initialization, and the final export to quantized CDF
tables.  Skip is decided per table: a table is skipped when its elements
cost more coded than skipped, so the hardened index alone decides whether
an element is coded.  The Gumbel relaxation of a per-element mask and the
skip_loss objective remain as differentiable surrogates of that choice.

Two kernels compute every soft-assigned rate and gradient.

_window_pass runs wherever each element carries its own continuous index:
calibration-curve epochs, skip_loss and the public rate functions.  When
the window covers all M priors (k = None), the softmax over
e^(-|i - m|/tau) is two geometric series in e^(-1/tau), summed once per
epoch as (M + 1, U) recurrence rows and looked up per element: O(n + M U)
work and no (n, M) array.  A Top-K window with k < M is gathered per
element instead, as k columns of length n, since a bounded window would
need differences of the recurrences, and those cancel at small tau.

_counts_pass runs where the weights depend only on a row of elements:
free-index epochs, whose rows are the priors the elements are assigned to,
and hyperlatent reuse, whose rows are the channels.  It codes each row's
symbol counts with that row's weights over the priors, in O(R M U) for R
rows.  A free-index set's weight rows are the Kronecker product of one
window per axis, so a 1-D set is the one-axis case of a 2-D grid.

Both kernels floor as _family_tables does (prob_models.floored_rate_bits):
a probability under 2^-32 costs 32 bits with zero gradient, so the training
loss and every soft rate here are finite for any weights.  Only the exact
rate of one model, prob_models.rate_bits, raises below the floor.

An epoch's element-sized work arrays live for one train_priors call.  The
call keeps one _Work, from which _window_pass takes every per-element array
it writes with out=, so only the first epoch allocates them and later epochs
map no fresh memory; a pass given no _Work, as the public rate functions
call it, allocates its own.  A free-index epoch reads no per-element array:
it puts each symbol's count, taken once per call, on the symbol's cheapest
prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cdf_tables import CdfTableSet, window_tables
from .coding_backends import IndexGrid, LatentBlock, SkipMask, log_features
from .prob_models import (
    FAMILY_PARAMS,
    MAX_RADIUS,
    PMF_GRADS,
    PROB_FLOOR,
    ParameterDomainError,
    ProbModel,
    floored_rate_bits,
    ggm_alpha_for_std,
)

__all__ = [
    "TrainingDivergedError",
    "PriorSet1D",
    "PriorSet2D",
    "AnnealSchedule",
    "SkipHead",
    "HyperLogits",
    "TrainConfig",
    "TrainResult",
    "model_from_coords",
    "soft_weights",
    "weighted_rate",
    "topk_rate",
    "weighted_rate_grads",
    "topk_rate_grads",
    "gumbel_mask",
    "gumbel_mask_grad",
    "hyper_rate_grads",
    "skip_loss",
    "skip_loss_grads",
    "init_prior_set",
    "init_prior_set_2d",
    "train_priors",
    "export_tables",
]

_LN2 = math.log(2.0)

# per-epoch decay rate of the soft-assignment temperature
_TAU_DECAY_PER_EPOCH = 0.01

# mixture components per gmm prior
_COMPONENTS = 2

# scale of the Gumbel noise gap in the relaxed skip mask
_GUMBEL_COEFFICIENT = 0.5

# beta projection bounds: keeps the gamma kernels numerically healthy while
# leaving plenty of room around the tabulated [0.5, 3] shape range
_BETA_MIN, _BETA_MAX = 0.05, 6.0


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the trace up to the failure."""

    def __init__(self, message: str, loss_trace: list[float]):
        super().__init__(message)
        self.loss_trace = loss_trace


# ---------------------------------------------------------------------------
# Unconstrained coordinates
#
# gm  -> [log sigma]
# ggm -> [log beta, log alpha]
# gmm -> [K weight logits, K means, K log sigmas]
# matching the gradient order of prob_models.PMF_GRADS.


def _softmax(x, axis=-1, out=None, row=None):
    """Softmax along axis, written into out when given (out may be x); row,
    when given, holds the reduced max and then the sum, with keepdims."""
    x = np.asarray(x, dtype=np.float64)
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True, out=row), out=out)
    e = np.exp(shifted, out=shifted)
    return np.divide(e, e.sum(axis=axis, keepdims=True, out=row), out=e)


# Per parameter, the map from its coordinates to its values; a mixture (the
# family with weights) takes K coordinates per parameter, the others one.
_COORD_MAP = {
    "sigma": np.exp,
    "beta": lambda c: np.clip(np.exp(c), _BETA_MIN, _BETA_MAX),
    "alpha": np.exp,
    "weights": _softmax,
    "means": lambda c: c,
    "sigmas": np.exp,
}


def _coord_dim(family: str) -> int:
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    names = FAMILY_PARAMS[family]
    return len(names) * (_COMPONENTS if "weights" in names else 1)


def _coord_params(family: str, coords_rows: np.ndarray) -> tuple:
    """Model parameters for each row of coordinates, ready to broadcast
    against a trailing symbol axis: gm (sigma,) and ggm (beta, alpha) as
    (rows, 1) arrays, gmm (weights, means, sigmas) as (rows, 1, K)."""
    names = FAMILY_PARAMS[family]
    width = coords_rows.shape[1] // len(names)
    rows = coords_rows[:, None, :] if "weights" in names else coords_rows
    return tuple(_COORD_MAP[name](rows[..., i * width:(i + 1) * width]) for i, name in enumerate(names))


def model_from_coords(family: str, coords: np.ndarray) -> ProbModel:
    """Project one unconstrained coordinate vector to a validated model."""
    params = _coord_params(family, np.asarray(coords, dtype=np.float64)[None, :])
    return ProbModel.from_values(family, [p[0, 0] for p in params])


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class _PriorSet:
    """Priors of one family on one or more axes, stored as an (*axes, D)
    array of unconstrained coordinates; flat table order is row-major."""

    family: str
    params: np.ndarray

    _AXES = 1

    def __post_init__(self):
        params = np.array(self.params, dtype=np.float64)
        params.flags.writeable = False
        object.__setattr__(self, "params", params)
        if params.ndim != self._AXES + 1 or min(params.shape[:-1]) < 1:
            raise ValueError(f"params must be a {self._AXES + 1}-D array: the prior axes, "
                             "each >= 1, then the coordinates")
        if params.shape[-1] != _coord_dim(self.family):
            raise ValueError(f"{self.family} priors need {_coord_dim(self.family)} coordinates")
        if not np.isfinite(params).all():
            raise ValueError("prior coordinates must be finite")

    @property
    def m(self) -> int:
        return self.params.shape[0]

    def models(self) -> list[ProbModel]:
        """One model per prior, in flat table order."""
        return [model_from_coords(self.family, row)
                for row in self.params.reshape(-1, self.params.shape[-1])]


@dataclass(frozen=True)
class PriorSet1D(_PriorSet):
    """M priors of one family, as an (M, D) array of coordinate rows."""


@dataclass(frozen=True)
class PriorSet2D(_PriorSet):
    """An M x N grid of priors; flat layout is row-major (i-1)*N + (j-1)."""

    _AXES = 2


@dataclass(frozen=True)
class AnnealSchedule:
    """Exponential decay of the soft-assignment temperature."""

    tau0: float

    def __post_init__(self):
        if not (np.isfinite(self.tau0) and self.tau0 > 0):
            raise ValueError("tau0 must be positive and finite")

    @classmethod
    def for_set_size(cls, m: int) -> "AnnealSchedule":
        return cls(tau0=0.05 * m)

    def tau(self, epoch: int) -> float:
        return self.tau0 * math.exp(-_TAU_DECAY_PER_EPOCH * epoch)


@dataclass(frozen=True)
class SkipHead:
    """The skipped members of a prior set, as zero-based flat table indexes,
    with the training block's index grid."""

    tables: tuple
    indexes: IndexGrid

    def hard_mask(self, indexes: IndexGrid | None = None) -> SkipMask:
        """The mask over a grid, by default the training block's."""
        return SkipMask.for_tables(self.indexes if indexes is None else indexes, self.tables)


@dataclass(frozen=True)
class HyperLogits:
    """Per-channel logits over the M priors reused for hyperlatents."""

    logits: np.ndarray

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64)
        logits.flags.writeable = False
        object.__setattr__(self, "logits", logits)
        if logits.ndim != 2:
            raise ValueError("logits must be (channels, M)")
        if not np.isfinite(logits).all():
            raise ValueError("logits must be finite")

    @property
    def m(self) -> int:
        return self.logits.shape[1]

    @property
    def channels(self) -> int:
        return self.logits.shape[0]

    def selected(self) -> np.ndarray:
        """One-based prior index per channel: the post-training argmax."""
        return self.logits.argmax(axis=1) + 1


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    dims is (M,) for a 1-D set or (M, N) for a 2-D grid (gmm only);
    k = None means full-M weighting (no Top-K truncation); skip = True adds
    skip mode: after training, each table whose elements cost more coded
    than skipped joins the skipped members of the set.

    seed changes nothing: training draws no random numbers, so two configs
    that differ only in seed train byte-identical sets.  It is kept so that
    callers that pass it keep working.
    """

    family: str
    dims: tuple
    epochs: int
    lr: float = 1e-2
    k: int | None = None
    lambda_: float = 0.01
    seed: int = 0
    predictor_mode: str = "free-index"
    skip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.dims) not in (1, 2) or any(d < 1 for d in self.dims):
            raise ValueError("dims must be (M,) or (M, N) with positive sizes")
        if len(self.dims) == 2 and self.family != "gmm":
            raise ValueError("2-D prior grids are defined for the gmm family")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError("lambda_ must be finite and >= 0")
        if self.predictor_mode not in ("free-index", "calibration-curve"):
            raise ValueError(f"unknown predictor mode {self.predictor_mode!r}")
        if not isinstance(self.skip, bool):
            raise ValueError("skip must be True or False")

    @property
    def flat_count(self) -> int:
        return int(np.prod(self.dims))


# ---------------------------------------------------------------------------
# Soft assignment and rate estimates


def soft_weights(i: float, m: int, tau: float) -> np.ndarray:
    """Softmax of -|i - m'|/tau over the prior indexes m' = 1..m."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    return _window(np.array([float(i)]), m, m, tau)[2][0]


def _window(ivals: np.ndarray, m: int, k: int, tau: float):
    """(zero-based priors (n, k), i - prior, softmax of -|i - prior| / tau).

    The k integers in [1, m] nearest to i, ties to the smaller, form the
    window starting at clip(ceil(i - k/2), 1, m - k + 1); fmax/fmin send a
    NaN index to the first window, whose NaN weights surface in the loss.
    """
    sel = _window_start(ivals, m, k).astype(np.int64)[:, None] - 1 + np.arange(k)
    offset = ivals[:, None] - (sel + 1.0)
    return sel, offset, _softmax(-np.abs(offset) / tau, axis=1)


def _window_start(ivals: np.ndarray, m: int, k: int, out=None) -> np.ndarray:
    """First prior (one-based, as floats) of each element's k-wide window."""
    out = np.ceil(np.subtract(ivals, k / 2.0, out=out), out=out)
    return np.fmin(np.fmax(out, 1.0, out=out), m - k + 1.0, out=out)


class _Work:
    """Element-sized work arrays that outlive one pass.  The first request
    for a name allocates it and later requests get the same memory, so a
    train_priors call that keeps one _Work allocates in its first epoch
    only.  A pass given no _Work makes its own."""

    def __init__(self):
        self._arrays = {}

    def arrays(self, shape, names: str, dtype=np.float64) -> list:
        """One uninitialized array of shape and dtype per space-separated name."""
        out = []
        for name in names.split():
            key = (name, shape, dtype)
            if key not in self._arrays:
                self._arrays[key] = np.empty(shape, dtype)
            out.append(self._arrays[key])
        return out


def _window_pass(rates, grads, inverse, ivals, k, tau, element_weights=None, work=None):
    """Top-K rates over _family_tables output for the symbols inverse indexes.

    Returns per-element rates and d rate / d i, the (M, U) prior weight on
    each symbol scaled by the optional per-element weights, and the
    gradient of the weighted rate sum in the prior coordinates.  The
    per-element results live in work's arrays when work is given.

    Two strategies give the same numbers: a window over every prior
    (k == M) is summed by _geometric_pass in O(n + M U), and a narrower one
    is gathered per element by _gathered_pass in O(n k).  The recurrences
    cannot serve k < M: a bounded window is a difference of two geometric
    sums, and at small tau that difference cancels.
    """
    # divergent coordinates give inf and NaN rates on purpose; the NaN loss
    # they produce is caught by the trainer, so the numpy warnings are noise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if k == rates.shape[0]:
            element_rates, di, touched = _geometric_pass(rates, inverse, ivals, tau, element_weights, work)
        else:
            element_rates, di, touched = _gathered_pass(rates, inverse, ivals, k, tau, element_weights, work)
        return element_rates, di, touched, np.einsum("mu,mud->md", touched, grads)


def _gathered_pass(rates, inverse, ivals, k, tau, element_weights=None, work=None):
    """_window_pass over each element's k-prior window, held as k contiguous
    columns of length n.  The window sums run over the leading axis, so
    they add the columns in order, as numpy reduces a trailing axis of
    fewer than 8 entries.  The cells and the gathered rates are held
    (element, column) instead, the order in which bincount must sum each
    cell's weights."""
    m, u = rates.shape
    n = len(ivals)
    work = _Work() if work is None else work
    start, element_rates, di = work.arrays(n, "start element_rates di")
    offsets, weights, weighted, spare = work.arrays((k, n), "offsets weights weighted spare")
    cells, = work.arrays((n, k), "cells", np.int64)
    spare_rows = spare.reshape(n, k)  # the same memory, one row per element
    steps = np.arange(k)[:, None]
    start = _window_start(ivals, m, k, out=start)
    np.copyto(cells, start[:, None], casting="unsafe")
    cells += steps.T - 1
    cells *= u
    cells += inverse[:, None]
    offsets = np.subtract(ivals, np.add(start, steps, out=offsets), out=offsets)
    weights = np.divide(np.negative(np.abs(offsets, out=weights), out=weights), tau, out=weights)
    # start is spent: it holds the softmax's reduced rows, then mean_sign
    weights = _softmax(weights, axis=0, out=weights, row=start[None, :])
    weighted = np.multiply(weights, np.take(rates.ravel(), cells, out=spare_rows, mode="clip").T,
                           out=weighted)
    signs = np.sign(offsets, out=offsets)
    element_rates = weighted.sum(axis=0, out=element_rates)
    mean_sign = np.multiply(weights, signs, out=spare).sum(axis=0, out=start)
    # d pi_m / d i = pi_m (mean_l pi_l s_l - s_m) / tau under the softmax
    di = np.multiply(weighted, np.subtract(mean_sign, signs, out=spare), out=spare).sum(axis=0, out=di)
    di /= tau
    if element_weights is not None:
        weights *= element_weights
    np.copyto(spare_rows, weights.T)
    touched = np.bincount(cells.ravel(), weights=spare.ravel(), minlength=m * u).reshape(m, u)
    return element_rates, di, touched


def _left_sums(x, d):
    """Rows t = 0..M of sum_{j < t} d^(t-1-j) x_j over the leading axis."""
    out = np.zeros((len(x) + 1,) + x.shape[1:])
    for j in range(len(x)):
        out[j + 1] = x[j] + d * out[j]
    return out


def _right_sums(x, d):
    """Rows t = 0..M of sum_{j >= t} d^(j-t) x_j over the leading axis."""
    out = np.zeros((len(x) + 1,) + x.shape[1:])
    for j in range(len(x) - 1, -1, -1):
        out[j] = x[j] + d * out[j + 1]
    return out


def _geometric_pass(rates, inverse, ivals, tau, element_weights=None, work=None):
    """_window_pass over all M priors, as two geometric series in d = e^(-1/tau).

    Priors 1..t lie at or left of i and t+1..M right of it, so the weight
    of prior j is e^(-left/tau) d^(t-j) or e^(-right/tau) d^(j-t-1), with
    left and right the distances to priors t and t+1.  The rate-weighted
    and plain sums of each side are per-split rows of a recurrence, looked
    up per element; the exponents are shifted by the nearest prior, as
    _softmax shifts by the max, and an absent side weighs exactly 0.

    Each per-element value is written into one of work's arrays, named by
    the value that first fills it; a spent array takes a later value, named
    after it, with the np.where of the formula as a masked copy.
    """
    m, u = rates.shape
    n = len(ivals)
    work = _Work() if work is None else work
    (t, left, right, nearest, inv_z, r_left, r_right, element_rates, w_c, r_c, w_l, di,
     spare) = work.arrays(n, "t left right nearest inv_z r_left r_right element_rates w_c r_c w_l di spare")
    split, cell, below = work.arrays(n, "split cell below", np.int64)
    center, absent = work.arrays(n, "center absent", np.bool_)
    d = math.exp(-1.0 / tau)
    # fmax/fmin send a NaN index to t = 0, whose NaN distance surfaces in the loss
    t = np.fmin(np.fmax(np.floor(ivals, out=t), 0.0, out=t), float(m), out=t)
    left = np.subtract(ivals, t, out=left)
    np.copyto(left, np.inf, where=np.less(t, 1.0, out=absent))
    right = np.subtract(np.add(t, 1.0, out=right), ivals, out=right)
    np.copyto(right, np.inf, where=np.greater_equal(t, float(m), out=absent))
    center = np.equal(left, 0.0, out=center)
    nearest = np.minimum(left, right, out=nearest)
    e_left = np.exp(np.divide(np.subtract(nearest, left, out=left), tau, out=left), out=left)
    e_right = np.exp(np.divide(np.subtract(nearest, right, out=right), tau, out=right), out=right)
    np.copyto(split, t, casting="unsafe")
    cell = np.add(np.multiply(split, u, out=cell), inverse, out=cell)
    rate_left, rate_right = _left_sums(rates, d).ravel(), _right_sums(rates, d).ravel()
    norms_left, norms_right = _left_sums(np.ones(m), d), _right_sums(np.ones(m), d)
    norm_left = np.take(norms_left, split, out=t, mode="clip")
    norm_right = np.take(norms_right, split, out=nearest, mode="clip")
    inv_z = np.add(np.multiply(e_left, norm_left, out=inv_z),
                   np.multiply(e_right, norm_right, out=spare), out=inv_z)
    inv_z = np.divide(1.0, inv_z, out=inv_z)
    w_left = np.multiply(e_left, inv_z, out=e_left)
    w_right = np.multiply(e_right, inv_z, out=e_right)
    r_left = np.multiply(w_left, np.take(rate_left, cell, out=r_left, mode="clip"), out=r_left)
    r_right = np.multiply(w_right, np.take(rate_right, cell, out=r_right, mode="clip"), out=r_right)
    element_rates = np.add(r_left, r_right, out=element_rates)

    # d rate / d i, with W and R the weight and rate-weighted sums of the
    # priors strictly left of, right of and exactly at i (sign +1, -1, 0):
    # -(2 W_R + W_c) R_L + (2 W_L + W_c) R_R + (W_L - W_R) R_c, over tau.
    # An index on prior t takes it out of the left side, which then starts
    # at prior t - 1 with weight d.  Unlike rate * mean_sign - sum w r sign,
    # this form does not cancel at small tau.
    below = np.maximum(np.subtract(cell, u, out=below), 0, out=below)
    w_c.fill(0.0)
    np.copyto(w_c, inv_z, where=center)
    r_c.fill(0.0)
    np.copyto(r_c, np.multiply(inv_z, np.take(rates.ravel(), below, out=spare, mode="clip"), out=spare),
              where=center)
    w_l = np.multiply(w_left, norm_left, out=w_l)
    d_inv_z = np.multiply(d, inv_z, out=norm_left)
    previous = np.maximum(np.subtract(split, 1, out=split), 0, out=split)
    np.copyto(w_l, np.multiply(d_inv_z, np.take(norms_left, previous, out=spare, mode="clip"), out=spare),
              where=center)
    r_l = r_left
    np.copyto(r_l, np.multiply(d_inv_z, np.take(rate_left, below, out=spare, mode="clip"), out=spare),
              where=center)
    w_r = np.multiply(w_right, norm_right, out=norm_right)
    di = np.add(np.multiply(2.0, w_r, out=di), w_c, out=di)
    di = np.multiply(np.negative(di, out=di), r_l, out=di)
    di += np.multiply(np.add(np.multiply(2.0, w_l, out=spare), w_c, out=spare), r_right, out=spare)
    di += np.multiply(np.subtract(w_l, w_r, out=spare), r_c, out=spare)
    di /= tau

    # touched: bin each element's side weights by split, then spread them
    # over the priors with the recurrences run the other way
    if element_weights is not None:
        w_left *= element_weights
        w_right *= element_weights
    from_left = np.bincount(cell, weights=w_left, minlength=(m + 1) * u).reshape(m + 1, u)
    from_right = np.bincount(cell, weights=w_right, minlength=(m + 1) * u).reshape(m + 1, u)
    touched = _right_sums(from_left[1:], d)[:m] + _left_sums(from_right[:m], d)[1:]
    return element_rates, di, touched


def _rate_pass(symbols, prior_set: PriorSet1D, ivals, tau: float, k: int, element_weights=None):
    """(rates, d/d prior coords, d/d i) for raw symbols, floored as in training."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 1 <= k <= prior_set.m:
        raise ValueError("k must satisfy 1 <= k <= m")
    uniques, inverse = np.unique(symbols, return_inverse=True)
    rates, grads = _family_tables(prior_set.family, prior_set.params, uniques)
    element_rates, di, _, dtheta = _window_pass(
        rates, grads, inverse.ravel(), ivals, k, tau, element_weights)
    return element_rates, dtheta, di


def weighted_rate(symbol: int, prior_set: PriorSet1D, i: float, tau: float) -> float:
    """Rate estimate sum_m pi_m * rate(theta_m, symbol) over the full set."""
    return weighted_rate_grads(symbol, prior_set, i, tau)[0]


def topk_rate(symbol: int, prior_set: PriorSet1D, i: float, tau: float, k: int) -> float:
    """weighted_rate restricted to the k nearest priors, renormalized."""
    return topk_rate_grads(symbol, prior_set, i, tau, k)[0]


def weighted_rate_grads(symbol: int, prior_set: PriorSet1D, i: float, tau: float):
    """(rate, d rate / d prior coords (M, D), d rate / d i)."""
    return topk_rate_grads(symbol, prior_set, i, tau, prior_set.m)


def topk_rate_grads(symbol: int, prior_set: PriorSet1D, i: float, tau: float, k: int):
    rates, dtheta, di = _rate_pass(np.array([symbol], dtype=np.int64), prior_set,
                                   np.array([float(i)]), tau, k)
    return float(rates[0]), dtheta, float(di[0])


# ---------------------------------------------------------------------------
# Gumbel-relaxed skip mask


def _gumbel_pair(shape, noise_seed: int):
    rng = np.random.Generator(np.random.Philox(noise_seed))
    g = rng.gumbel(size=(2,) + tuple(shape))
    return _GUMBEL_COEFFICIENT * (g[1] - g[0])


def gumbel_mask(b, t: float, noise_seed: int = 0):
    """Soft keep probability from the two-class Gumbel relaxation.

    Class logits are -|b - 0|/t and -|b - 1|/t; the class-1 softmax
    component is sigmoid of their noisy difference, with the noise gap
    scaled by 0.5.
    """
    mask, _ = gumbel_mask_grad(b, t, noise_seed)
    return mask


def gumbel_mask_grad(b, t: float, noise_seed: int = 0):
    """(mask, d mask / d b) at a fixed noise realization per seed."""
    if t <= 0:
        raise ValueError("t must be positive")
    b = np.asarray(b, dtype=np.float64)
    noise = _gumbel_pair(b.shape, noise_seed)
    logit_gap = (np.abs(b) - np.abs(b - 1.0)) / t
    mask = 1.0 / (1.0 + np.exp(-(logit_gap + noise)))
    dmask = mask * (1.0 - mask) * (np.sign(b) - np.sign(b - 1.0)) / t
    if mask.ndim == 0:
        return float(mask), float(dmask)
    return mask, dmask


# ---------------------------------------------------------------------------
# Losses


def hyper_rate_grads(z_block: LatentBlock, prior_set: PriorSet1D, logits: HyperLogits):
    """(rate, d rate / d logits, d rate / d prior coords)."""
    if logits.m != prior_set.m:
        raise ValueError("logits width must match the prior count")
    if logits.channels != z_block.channels:
        raise ValueError("logits must have one row per hyperlatent channel")
    uniques, counts = _channel_counts(z_block)
    rates, grads = _family_tables(prior_set.family, prior_set.params, uniques)
    return _hyper_pass(rates, grads, counts, logits.logits)


def skip_loss(block: LatentBlock, prior_set: PriorSet1D, indexes: IndexGrid,
              mask_soft, lambda_: float, tau: float, t: float, *,
              k: int | None = None, noise_seed: int | None = None,
              z_block: LatentBlock | None = None,
              z_logits: HyperLogits | None = None) -> float:
    """Rate-distortion objective with a soft skip mask.

    mask_soft is taken as the relaxed mask itself; pass noise_seed to
    treat it as raw parameters and draw the Gumbel relaxation here (t is
    the relaxation temperature).  The distortion surrogate is the energy
    the mask removes: sum((1 - mask) * residual)^2 elementwise.
    """
    loss, _, _, _, _ = skip_loss_grads(
        block, prior_set, indexes, mask_soft, lambda_, tau, t,
        k=k, noise_seed=noise_seed, z_block=z_block, z_logits=z_logits,
    )
    return loss


def skip_loss_grads(block: LatentBlock, prior_set: PriorSet1D, indexes: IndexGrid,
                    mask_soft, lambda_: float, tau: float, t: float, *,
                    k: int | None = None, noise_seed: int | None = None,
                    z_block: LatentBlock | None = None,
                    z_logits: HyperLogits | None = None):
    """(loss, d/d prior coords, d/d i, d/d mask entries, d/d hyper logits).

    The mask gradient is with respect to the entries actually passed in:
    the soft mask itself, or the raw parameters when noise_seed is given.
    """
    if indexes.continuous.shape != block.shape:
        raise ValueError("index grid shape must match the block")
    if indexes.m != prior_set.m:
        raise ValueError("index grid table count does not match the prior set")
    if not (math.isfinite(lambda_) and lambda_ >= 0):
        raise ValueError("lambda_ must be finite and >= 0")
    mask_soft = np.asarray(mask_soft, dtype=np.float64)
    if mask_soft.shape != block.shape:
        raise ValueError("mask shape must match the block")
    if noise_seed is None:
        mask = mask_soft
        dmask_dparam = np.ones_like(mask)
    else:
        mask, dmask_dparam = gumbel_mask_grad(mask_soft, t, noise_seed=noise_seed)

    symbols = block.residuals.ravel()
    flat_mask = mask.ravel()
    rates, dtheta, di = _rate_pass(symbols, prior_set, indexes.continuous.ravel(), tau,
                                   prior_set.m if k is None else k, flat_mask)
    residual_sq = symbols.astype(np.float64) ** 2
    distortion = float(np.sum((1.0 - flat_mask) ** 2 * residual_sq))
    loss = float(np.dot(flat_mask, rates)) + lambda_ * distortion
    dmask = rates - 2.0 * lambda_ * (1.0 - flat_mask) * residual_sq

    dlogits = None
    if z_block is not None:
        if z_logits is None:
            raise ValueError("hyperlatent blocks need logits")
        z_rate, dlogits, z_dtheta = hyper_rate_grads(z_block, prior_set, z_logits)
        loss += z_rate
        dtheta += z_dtheta
    return loss, dtheta, (flat_mask * di).reshape(block.shape), (dmask * dmask_dparam.ravel()).reshape(block.shape), dlogits


# ---------------------------------------------------------------------------
# Initialization


def _scale_ladder(m: int, max_abs_residual: float) -> np.ndarray:
    # below sigma ~ 0.3 the mass at +-1 sits under the 2^-32 floor where
    # gradients vanish, so only all-zero data starts the ladder at 0.05
    lo = 0.05 if max_abs_residual == 0 else 0.3
    hi = max(float(max_abs_residual) / 2.0, lo * 1.2)
    if m == 1:
        return np.array([math.sqrt(lo * hi)])
    return np.geomspace(lo, hi, m)


def init_prior_set(family: str, m: int, max_abs_residual: float) -> PriorSet1D:
    """Entropy-increasing start: scales climb log-spaced with the index."""
    if m < 1:
        raise ValueError("m must be >= 1")
    scales = _scale_ladder(m, max_abs_residual)
    if family == "gm":
        params = np.log(scales)[:, None]
    elif family == "ggm":
        alphas = ggm_alpha_for_std(2.0, scales)
        params = np.stack([np.full(m, math.log(2.0)), np.log(alphas)], axis=1)
    elif family == "gmm":
        k = _COMPONENTS
        spread = np.geomspace(0.7, 1.4, k)
        logits = np.zeros((m, k))
        means = np.zeros((m, k))
        sigmas = np.log(scales[:, None] * spread[None, :])
        params = np.concatenate([logits, means, sigmas], axis=1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return PriorSet1D(family=family, params=params)


def init_prior_set_2d(m: int, n: int, max_abs_residual: float) -> PriorSet2D:
    """2-D mixture grid: axis 1 varies the means, axis 2 the scales."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be >= 1")
    k = _COMPONENTS
    offsets = np.linspace(0.0, max(float(max_abs_residual) / 2.0, 0.5), m)
    scales = _scale_ladder(n, max_abs_residual)
    spread = np.geomspace(0.7, 1.4, k)
    signs = np.array([1.0 if j % 2 else -1.0 for j in range(k)])
    params = np.zeros((m, n, 3 * k))
    params[:, :, k:2 * k] = (offsets[:, None] * signs)[:, None, :]
    params[:, :, 2 * k:] = np.log(scales[:, None] * spread)
    return PriorSet2D(family="gmm", params=params)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainResult:
    prior_set: PriorSet1D | PriorSet2D
    predictor: dict
    indexes: IndexGrid
    skip_head: SkipHead | None
    hyper_logits: HyperLogits | None
    loss_trace: list[float]
    final_tau: float


class _Adam:
    def __init__(self, shape, lr: float):
        self.lr = lr
        self.mean = np.zeros(shape)
        self.var = np.zeros(shape)
        self.steps = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.steps += 1
        self.mean = 0.9 * self.mean + 0.1 * grad
        self.var = 0.999 * self.var + 0.001 * grad * grad
        mhat = self.mean / (1.0 - 0.9 ** self.steps)
        vhat = self.var / (1.0 - 0.999 ** self.steps)
        return -self.lr * mhat / (np.sqrt(vhat) + 1e-8)


def _as_blocks(blocks) -> list[LatentBlock]:
    if isinstance(blocks, LatentBlock):
        return [blocks]
    out = list(blocks)
    if not out or not all(isinstance(b, LatentBlock) for b in out):
        raise ValueError("training needs one or more latent blocks")
    return out


def _family_tables(family: str, coords_rows: np.ndarray, uniques: np.ndarray):
    """Per-prior floored rates (A, U) and rate gradients (A, U, D) over
    uniques; gradients are zero wherever the probability sits on the 2^-32
    floor, like the rate itself."""
    k = uniques.astype(np.float64)[None, :]
    # divergent coordinate values overflow exp on purpose; the NaN loss they
    # produce is caught by the trainer, so the numpy warnings are noise
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pmf, grads = PMF_GRADS[family](k, *_coord_params(family, coords_rows))
        floored = pmf < PROB_FLOOR
        rates = floored_rate_bits(pmf)
        scale = np.where(floored, 0.0, -1.0 / (np.maximum(pmf, PROB_FLOOR) * _LN2))
        return rates, grads * scale[:, :, None]


def _epoch_tables(family: str, coords_rows: np.ndarray, uniques: np.ndarray, epoch: int, trace):
    """_family_tables for the priors at the start of an epoch; priors thrown
    out of their model's domain (such as an incomplete gamma argument that
    is not finite) mean training diverged, as a non-finite loss does."""
    try:
        return _family_tables(family, coords_rows, uniques)
    except ParameterDomainError as exc:
        raise TrainingDivergedError(f"priors left the model domain at epoch {epoch}: {exc}", trace) from exc


def _assignment_matrix(count: int, k: int, tau: float) -> np.ndarray:
    """Row a: weights over all priors when the index sits exactly at a+1."""
    sel, _, weights = _window(np.arange(1.0, count + 1.0), count, k, tau)
    full = np.zeros((count, count))
    np.put_along_axis(full, sel, weights, axis=1)
    return full


def _channel_counts(z_block: LatentBlock):
    """A hyperlatent block's symbol table and its (channels, U) counts."""
    per_channel = z_block.residuals.reshape(z_block.channels, -1)
    uniques, inverse = np.unique(per_channel, return_inverse=True)
    cells = np.arange(z_block.channels)[:, None] * len(uniques) + inverse.reshape(per_channel.shape)
    counts = np.bincount(cells.ravel(), minlength=z_block.channels * len(uniques))
    return uniques, counts.reshape(z_block.channels, -1).astype(np.float64)


def train_priors(blocks, config: TrainConfig, *, z_block: LatentBlock | None = None) -> TrainResult:
    """Fit a prior set (and optionally skipped tables and hyper logits).

    Training alternates exact index reassignment (free-index mode) or a
    trainable log-linear index curve (calibration mode) with Adam steps on
    the prior coordinates, annealed by AnnealSchedule.for_set_size of the
    largest dimension.  With config.skip, the final priors and indexes
    then decide which tables to skip (_train_skip).
    """
    block_list = _as_blocks(blocks)
    primary = block_list[0]
    symbols = np.concatenate([b.residuals.ravel() for b in block_list])
    features = np.concatenate([b.side_features.ravel() for b in block_list])
    if symbols.size == 0:
        raise ValueError("training stream is empty")
    if z_block is not None and z_block.channels < 1:
        raise ValueError("hyperlatent block needs at least one channel")

    flat = config.flat_count
    if config.k is not None and config.k > max(config.dims):
        raise ValueError("k cannot exceed the per-dimension prior count")
    schedule = AnnealSchedule.for_set_size(max(config.dims))

    max_abs = float(np.abs(symbols).max())
    base = (init_prior_set_2d(*config.dims, max_abs) if len(config.dims) == 2
            else init_prior_set(config.family, config.dims[0], max_abs))
    coords = base.params.reshape(flat, -1).copy()

    uniques, inverse = np.unique(symbols, return_inverse=True)
    n = symbols.size
    calibration = config.predictor_mode == "calibration-curve"
    if calibration:
        if len(config.dims) == 2:
            raise ValueError("the calibration-curve predictor drives 1-D sets")
        log_f = log_features(features)
        span = log_f.max() - log_f.min()
        slope = (config.dims[0] - 1) / span if span > 0 else 0.0
        intercept = 1.0 - slope * log_f.min() if span > 0 else (config.dims[0] + 1) / 2.0
        curve_opt = _Adam(2, config.lr)
        # the epochs' element-sized arrays; the passes fill work's in the first epoch
        ivals, work = np.empty(n), _Work()
    else:
        symbol_counts = np.bincount(inverse, minlength=len(uniques))

    z_uniques = z_counts = None
    logits = None
    if z_block is not None:
        z_uniques, z_counts = _channel_counts(z_block)
        logits = np.zeros((z_block.channels, flat))
        logits_opt = _Adam(logits.shape, config.lr)

    opt = _Adam(coords.shape, config.lr)
    trace: list[float] = []
    # the prior window on each axis: every prior of a 1-D set, the two
    # nearest on each axis of a grid, narrowed further by config.k
    window = min(config.k or (flat if len(config.dims) == 1 else 2), *config.dims)

    for epoch in range(config.epochs):
        tau = schedule.tau(epoch)
        lr_scale = 0.01 if epoch >= 0.8 * config.epochs else (0.1 if epoch >= 0.5 * config.epochs else 1.0)
        opt.lr = config.lr * lr_scale
        rates, grads = _epoch_tables(config.family, coords, uniques, epoch, trace)

        if calibration:
            np.add(np.multiply(slope, log_f, out=ivals), intercept, out=ivals)
            loss, dtheta, dslope, dintercept = _calibration_pass(
                rates, grads, inverse, ivals, log_f, window, tau, work)
        else:
            # each symbol's elements all go to the prior that codes it cheapest
            weight_rows = reduce(np.kron, [_assignment_matrix(d, window, tau) for d in config.dims])
            counts = np.zeros((flat, len(uniques)), dtype=symbol_counts.dtype)
            counts[rates.argmin(axis=0), np.arange(len(uniques))] = symbol_counts
            loss, _, dtheta = _counts_pass(weight_rows, counts, rates, grads)

        if z_block is not None:
            # z has its own symbol table; the main-block rates don't apply
            z_rates, z_grads = _epoch_tables(config.family, coords, z_uniques, epoch, trace)
            z_loss, dlogits, z_dtheta = _hyper_pass(z_rates, z_grads, z_counts, logits)
            loss += z_loss
            dtheta += z_dtheta
            logits += logits_opt.step(dlogits)

        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss diverged at epoch {epoch}", trace)
        trace.append(loss / n)
        coords += opt.step(dtheta)
        if calibration:
            delta = curve_opt.step(np.array([dslope, dintercept]))
            slope += delta[0]
            intercept += delta[1]

    final_tau = schedule.tau(config.epochs - 1)
    # the rates under the final coordinates: free-index indexes and skip mode
    # read them.  Otherwise the widest symbol's alone show a last step out of
    # the model domain, as the gamma argument grows with |k|.
    final = uniques if not calibration or config.skip else uniques[[np.abs(uniques).argmax()]]
    rates, _ = _epoch_tables(config.family, coords, final, config.epochs, trace)
    shaped = primary.shape if n == primary.n_elements else (1, 1, n)
    if calibration:
        predictor = {"mode": "calibration-curve", "a": float(slope), "c": float(intercept)}
        indexes = IndexGrid.from_curve(slope, intercept, features.reshape(shaped), config.dims[0])
    else:
        predictor = {"mode": "free-index"}
        indexes = IndexGrid.from_tables(rates.argmin(axis=0)[inverse], flat, shaped)
    prior_set = type(base)(family=config.family, params=coords.reshape(base.params.shape))

    hyper = HyperLogits(logits) if logits is not None else None

    skip_head = None
    if config.skip:
        skip_head = _train_skip(symbols, rates, inverse, indexes, config.lambda_)

    return TrainResult(
        prior_set=prior_set,
        predictor=predictor,
        indexes=indexes,
        skip_head=skip_head,
        hyper_logits=hyper,
        loss_trace=trace,
        final_tau=final_tau,
    )


def _calibration_pass(rates, grads, inverse, ivals, log_f, k, tau, work=None):
    """Loss and gradients when indexes come from the log-linear curve."""
    element_rates, di, _, dtheta = _window_pass(rates, grads, inverse, ivals, k, tau, work=work)
    return float(element_rates.sum()), dtheta, float(np.dot(di, log_f)), float(di.sum())


def _counts_pass(weights, counts, rates, grads):
    """Rate of symbol counts under weight rows over the priors: row r codes
    counts[r] (U,) with prior weights weights[r] (M,).  Returns the loss,
    d loss / d weights (row r's rate under each prior) and the gradient in
    the prior coordinates."""
    rate_sums = counts @ rates.T
    loss = float((weights * rate_sums).sum(axis=1).sum())
    return loss, rate_sums, np.einsum("mu,mud->md", weights.T @ counts, grads)


def _hyper_pass(rates, grads, counts, logits):
    """Hyperlatent rate over tabulated symbols: loss plus both gradients."""
    weights = _softmax(logits, axis=1)
    loss, rate_sums, dtheta = _counts_pass(weights, counts, rates, grads)
    dlogits = weights * (rate_sums - (weights * rate_sums).sum(axis=1)[:, None])
    return loss, dlogits, dtheta


def _train_skip(symbols, rates, inverse, indexes, lambda_):
    """Skip each table whose elements cost more coded (their floored model
    rates) than skipped (lambda_ times their squared residuals).  The
    objective sums over tables, so deciding each table alone is exact."""
    idx = indexes.flat_table_indexes()
    count = indexes.m
    coded = np.bincount(idx, weights=rates[idx, inverse], minlength=count)
    skipped = lambda_ * np.bincount(idx, weights=symbols.astype(np.float64) ** 2, minlength=count)
    return SkipHead(tables=tuple(np.flatnonzero(skipped < coded).tolist()), indexes=indexes)


# ---------------------------------------------------------------------------
# Export


def export_tables(prior_set: PriorSet1D | PriorSet2D) -> CdfTableSet:
    """One quantized table per prior, row-major for grids; deterministic."""
    params = _coord_params(prior_set.family, prior_set.params.reshape(-1, prior_set.params.shape[-1]))
    n = len(params[0])
    flat, _ = window_tables(prior_set.family, np.full(n, MAX_RADIUS), [p[:, 0] for p in params])
    meta = {"family": prior_set.family, "dims": list(prior_set.params.shape[:-1])}
    return CdfTableSet.from_rows(-MAX_RADIUS, flat.reshape(n, -1), meta=meta)
