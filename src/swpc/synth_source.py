"""Synthetic latent blocks with known ground-truth distributions.

Each element gets its own parameters drawn from a meta-distribution, a
sample drawn from the resulting model, and the rounded sample stored as
its residual, so every block carries the exact distribution a perfect
entropy model would predict.  Generation runs on a counter-based
generator; identical specs yield byte-identical blocks on any platform.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import prod

import numpy as np

from swpc.coding_backends import LatentBlock, round_half_away
from swpc.prob_models import FAMILY_PARAMS, INTEGER_PMF, STD, floored_rate_bits

__all__ = [
    "SourceSpec",
    "gen_block",
    "oracle_rate",
    "oracle_bits_per_element",
    "RateHistogram",
    "rate_histogram",
    "block_to_bytes",
    "block_from_bytes",
]


@dataclass(frozen=True)
class SourceSpec:
    """How to draw per-element parameters and samples.

    Scale-like ranges (sigma, alpha, component sigmas) are sampled
    log-uniformly; beta, component means, and centers uniformly.  The
    nonzero-center mode keeps the offsets inside the element distributions
    (mixture component means) and stores a zero means tensor, so it is
    only defined for the gmm family.
    """

    family: str
    shape: tuple
    mode: str = "zero-center"
    seed: int = 0
    sigma_range: tuple = (0.11, 60.0)
    beta_range: tuple = (0.5, 3.0)
    alpha_range: tuple = (0.01, 60.0)
    components: int = 2
    comp_mean_range: tuple = (-6.0, 6.0)
    comp_sigma_range: tuple = (0.3, 6.0)
    mean_range: tuple = (0.0, 0.0)
    feature_noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in ("zero-center", "nonzero-center"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "nonzero-center" and self.family != "gmm":
            raise ValueError("nonzero-center sources need per-element means: gmm only")
        if len(self.shape) != 3 or any(s < 1 for s in self.shape):
            raise ValueError("shape must be (channels, height, width), all positive")
        if not all(isinstance(v, (int, np.integer)) for v in (self.seed, self.components)):
            raise ValueError("seed and components must be integers")
        for name in ("sigma", "beta", "alpha", "comp_mean", "comp_sigma", "mean"):
            value = getattr(self, f"{name}_range")
            if not (isinstance(value, (tuple, list)) and len(value) == 2):
                raise ValueError(f"{name}_range must be a (lo, hi) pair")
        for name, (lo, hi) in (
            ("sigma_range", self.sigma_range),
            ("alpha_range", self.alpha_range),
            ("comp_sigma_range", self.comp_sigma_range),
        ):
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi")
        if not 0 < self.beta_range[0] <= self.beta_range[1]:
            raise ValueError("beta_range must satisfy 0 < lo <= hi")
        if self.mean_range[0] > self.mean_range[1] or self.comp_mean_range[0] > self.comp_mean_range[1]:
            raise ValueError("mean ranges must be ordered")
        if self.components < 1:
            raise ValueError("components must be >= 1")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be >= 0")

    def to_json(self) -> str:
        return json.dumps(
            {k: list(v) if isinstance(v, tuple) else v for k, v in self.__dict__.items()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SourceSpec":
        """ValueError unless the text is a JSON object of known, well-formed fields."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a source spec must be a JSON object")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        except TypeError as exc:  # an unknown or missing field, or a value of the wrong type
            raise ValueError(f"bad source spec: {exc}") from exc


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _log_uniform(rng, lo, hi, shape):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), shape))


def _ggm_sample(rng, beta, alpha):
    """sign * alpha * G**(1/beta) with G ~ Gamma(1/beta) has the ggm density."""
    g = rng.gamma(1.0 / beta)
    sign = rng.integers(0, 2, beta.shape) * 2 - 1
    return sign * alpha * g ** (1.0 / beta)


def gen_block(spec: SourceSpec) -> LatentBlock:
    """Draw parameters, then samples, then round; deterministic per seed."""
    rng = _rng(spec.seed)
    shape = spec.shape
    if spec.family == "gm":
        sigma = _log_uniform(rng, *spec.sigma_range, shape)
        y = sigma * rng.standard_normal(shape)
        truth = {"family": "gm", "sigma": sigma}
    elif spec.family == "ggm":
        beta = rng.uniform(*spec.beta_range, shape)
        alpha = _log_uniform(rng, *spec.alpha_range, shape)
        y = _ggm_sample(rng, beta, alpha)
        truth = {"family": "ggm", "beta": beta, "alpha": alpha}
    else:
        k = spec.components
        weights = rng.dirichlet(np.ones(k), size=shape)
        comp_means = rng.uniform(*spec.comp_mean_range, shape + (k,))
        if spec.mode == "zero-center":
            # keep each element's mixture centered so residuals stay symmetric
            comp_means -= np.sum(weights * comp_means, axis=-1, keepdims=True)
        comp_sigmas = _log_uniform(rng, *spec.comp_sigma_range, shape + (k,))
        pick = (rng.random(shape + (1,)) < np.cumsum(weights, axis=-1)).argmax(axis=-1)
        pick = pick[..., None]
        mean_picked = np.take_along_axis(comp_means, pick, axis=-1)[..., 0]
        sigma_picked = np.take_along_axis(comp_sigmas, pick, axis=-1)[..., 0]
        y = mean_picked + sigma_picked * rng.standard_normal(shape)
        truth = {"family": "gmm", "weights": weights, "means": comp_means, "sigmas": comp_sigmas}
    residuals = round_half_away(y).astype(np.int64)
    means = (
        rng.uniform(*spec.mean_range, shape)
        if spec.mode == "zero-center"
        else np.zeros(shape)
    )
    features = np.array(STD[spec.family](*(truth[key] for key in FAMILY_PARAMS[spec.family])))
    if spec.feature_noise > 0:
        features = features * np.exp(spec.feature_noise * rng.standard_normal(shape))
    return LatentBlock(residuals=residuals, means=means, side_features=features, truth_params=truth)


# ---------------------------------------------------------------------------
# Oracle rates


def oracle_bits_per_element(block: LatentBlock) -> np.ndarray:
    """Ideal per-element bits under the true parameters, floored at 2^-32."""
    if block.truth_params is None:
        raise ValueError("oracle rates need truth_params")
    family = block.truth_params["family"]
    pmf = INTEGER_PMF[family](block.residuals, *(block.truth_params[key] for key in FAMILY_PARAMS[family]))
    return floored_rate_bits(pmf)


def oracle_rate(block: LatentBlock) -> float:
    """Total bits a perfect dynamic coder approaches: sum of true rates."""
    if block.n_elements == 0:
        return 0.0
    return float(oracle_bits_per_element(block).sum())


# ---------------------------------------------------------------------------
# Rate histograms


@dataclass(frozen=True)
class RateHistogram:
    """Log-binned per-element rate frequencies, optionally split by mask."""

    edges: np.ndarray
    counts: np.ndarray
    kept_counts: np.ndarray | None = None
    skipped_counts: np.ndarray | None = None

    def to_json(self) -> str:
        out = {"edges": self.edges.tolist(), "counts": self.counts.tolist()}
        if self.kept_counts is not None:
            out["kept_counts"] = self.kept_counts.tolist()
            out["skipped_counts"] = self.skipped_counts.tolist()
        return json.dumps(out)


def rate_histogram(block: LatentBlock, per_element_bits=None, mask=None,
                   n_bins: int = 64) -> RateHistogram:
    """Histogram per-element rates on log-spaced bins.

    Rates default to the truth-model oracle; pass a backend's estimated
    bits to summarize what was actually coded.  A skip mask adds split
    counts (kept vs skipped elements).
    """
    bits = (
        np.asarray(per_element_bits, dtype=np.float64).ravel()
        if per_element_bits is not None
        else oracle_bits_per_element(block).ravel()
    )
    if bits.size != block.n_elements:
        raise ValueError("per_element_bits must have one entry per element")
    floor = 2.0 ** -16
    clipped = np.maximum(bits, floor)
    lo, hi = float(clipped.min()), float(clipped.max())
    if lo == hi:
        hi = lo * 2.0
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_bins + 1))
    edges[0], edges[-1] = lo, hi  # exp(log(x)) may round past x at either end
    counts, _ = np.histogram(clipped, bins=edges)
    kept = skipped = None
    if mask is not None:
        hard = np.asarray(mask.hard if hasattr(mask, "hard") else mask).ravel()
        if hard.shape != clipped.shape:
            raise ValueError("mask must have one entry per element")
        kept, _ = np.histogram(clipped[hard == 1], bins=edges)
        skipped, _ = np.histogram(clipped[hard == 0], bins=edges)
    return RateHistogram(edges=edges, counts=counts, kept_counts=kept, skipped_counts=skipped)


# ---------------------------------------------------------------------------
# Block container (fixture reuse)

_BLOCK_MAGIC = b"SWBK"
_BLOCK_VERSION = 1
_FAMILY_TAGS = {None: 0, "gm": 1, "ggm": 2, "gmm": 3}
_TAG_FAMILIES = {v: k for k, v in _FAMILY_TAGS.items()}


def block_to_bytes(block: LatentBlock) -> bytes:
    """Little-endian container: header, residuals i32, means f64, features f64,
    then the truth arrays of the tagged family in FAMILY_PARAMS order; the
    header's component count is 0 unless those arrays carry a component axis."""
    truth = block.truth_params
    family = truth["family"] if truth else None
    arrays = [np.asarray(truth[key]) for key in FAMILY_PARAMS[family]] if truth else []
    k = arrays[0].shape[-1] if arrays and arrays[0].ndim > block.residuals.ndim else 0
    if k > 255:
        raise ValueError("the block container holds at most 255 mixture components")
    i32 = np.iinfo(np.int32)
    if block.residuals.size and (block.residuals.min() < i32.min or block.residuals.max() > i32.max):
        raise ValueError("residuals must fit int32 in the block container")
    c, h, w = block.shape
    out = [
        _BLOCK_MAGIC,
        struct.pack("<HBBIII", _BLOCK_VERSION, _FAMILY_TAGS[family], k, c, h, w),
        block.residuals.astype("<i4").tobytes(),
        block.means.astype("<f8").tobytes(),
        block.side_features.astype("<f8").tobytes(),
    ]
    out.extend(arr.astype("<f8").tobytes() for arr in arrays)
    return b"".join(out)


def block_from_bytes(data: bytes) -> LatentBlock:
    if data[:4] != _BLOCK_MAGIC:
        raise ValueError("not a block container")
    if len(data) < 4 + struct.calcsize("<HBBIII"):
        raise ValueError("block container truncated")
    version, tag, k, c, h, w = struct.unpack_from("<HBBIII", data, 4)
    if version != _BLOCK_VERSION:
        raise ValueError(f"unsupported block version {version}")
    if tag not in _TAG_FAMILIES:
        raise ValueError(f"unknown family tag {tag}")
    shape = (c, h, w)
    pos = 4 + struct.calcsize("<HBBIII")

    def take(dtype, arr_shape):
        nonlocal pos
        count = prod(arr_shape)
        width = np.dtype(dtype).itemsize * count
        if pos + width > len(data):
            raise ValueError("block container truncated")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        pos += width
        return arr.reshape(arr_shape)

    residuals = take("<i4", shape).astype(np.int64)
    means = take("<f8", shape)
    features = take("<f8", shape)
    family = _TAG_FAMILIES[tag]
    truth = None
    if family is not None:
        param_shape = shape + ((k,) if k else ())
        truth = {"family": family, **{key: take("<f8", param_shape) for key in FAMILY_PARAMS[family]}}
    if pos != len(data):
        raise ValueError("trailing bytes after block container")
    return LatentBlock(residuals=residuals, means=means, side_features=features, truth_params=truth)
