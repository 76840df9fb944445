"""Measurement plumbing for the swpc benchmark: spans, the output gate, stats.

Nothing here knows a workload.  `Tracer` records spans around calls into the
library's layers and keeps them in memory until the run ends; `Gate` counts
attempted and failed operations and never lets one failure stop the run;
`round_trip` is the one path every coded stream takes, so every stream is
serialized, measured against its report and decoded element by element;
`SpeedReference` rescales timings to one fixed machine speed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

from swpc.rans_coder import Bitstream

# The reference kernel's typical time on the machine it was tuned on: a
# 2-vCPU Xeon (Sapphire Rapids) KVM guest, Python 3.11, numpy 2.4, scipy 1.17.
REFERENCE_NS = 18_000_000


class SpeedReference:
    """A fixed kernel, timed next to every measured interval.

    On a shared host the same code runs up to 1.8x slower for tens of
    seconds at a time, far more than the changes the benchmark must resolve.
    Each interval is multiplied by REFERENCE_NS over the kernel's time around
    it, so timings read as seconds at one fixed machine speed.  The kernel
    mixes the kinds of work swpc does: an interpreted integer loop, scipy's
    incomplete gamma, and chains of numpy ufuncs on cache-resident arrays.
    It leaves out passes over large arrays: their speed follows the host's
    memory traffic, which tracked none of the workloads.  It calls no swpc
    code, so no change to the library moves it.
    """

    def __init__(self):
        self.data = np.random.default_rng(0).random(16384) + 0.5
        self.samples: list[int] = []

    def measure(self) -> int:
        t0 = time.perf_counter_ns()
        state = 1
        for i in range(40000):
            state = (state * 48271 + i) & 0xFFFFFFFF
        gammainc(0.7, self.data[:8192]).sum()
        y = self.data
        for _ in range(40):
            y = np.exp(-0.5 * y) / (y + 1.0) + self.data
        ns = time.perf_counter_ns() - t0
        self.samples.append(ns)
        return ns

    def run_scale(self) -> float:
        """Scale for figures that span the whole run."""
        return REFERENCE_NS / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """Spans of one workload's run, plus per-layer counts and rates.

    A span records its name, start, end, parent span, round and work units.
    A disabled tracer records nothing; its `span` still returns a context
    manager so the measured code is the same with tracing on and off.  Every
    span belongs to the top-level span ("round") it runs under; per-layer
    figures are medians over rounds, so they do not grow with run length.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, round, units]
        self.values: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def span(self, name: str, units: float = 1.0):
        return _Span(self, name, units) if self.enabled else _NO_SPAN

    def record(self, name: str, value: float):
        """Keep a per-layer count or rate measured at a layer boundary."""
        if self.enabled:
            self.values.setdefault(name, []).append(float(value))

    def self_times(self) -> dict[str, float]:
        """Per span name: median over rounds of (self seconds / units).

        A span's self time is its duration minus the time covered by its
        child spans.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        per_round: dict[tuple[str, int], list[float]] = {}
        for i, (name, start, end, _, rnd, units) in enumerate(self.spans):
            acc = per_round.setdefault((name, rnd), [0.0, 0.0])
            acc[0] += (end - start - child_ns[i]) / 1e9
            acc[1] += units
        by_name: dict[str, list[float]] = {}
        for (name, _), (secs, units) in per_round.items():
            by_name.setdefault(name, []).append(secs / units)
        return {name: statistics.median(v) for name, v in by_name.items()}


class _Span:
    __slots__ = ("tracer", "name", "units", "index")

    def __init__(self, tracer: Tracer, name: str, units: float):
        self.tracer, self.name, self.units = tracer, name, units

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        rnd = tr.spans[parent][4] if parent is not None else len(tr.spans)
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), None, parent, rnd, self.units])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


# ---------------------------------------------------------------------------
# Output gate


class Gate:
    """Attempted and failed operations; failures are kept, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self):
        self.attempted += 1

    def fail(self, label: str, why: str):
        self.failures.append(f"{label}: {why}")

    def fail_exc(self, label: str, exc: BaseException):
        last = traceback.extract_tb(exc.__traceback__)[-1:]
        where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
        self.fail(label, f"{type(exc).__name__}: {exc}{where}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def deliver(data: bytes) -> bytes:
    """Hands encoder bytes to the decoder; tests replace it to corrupt them."""
    return data


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassSample:
    """What one pass of a workload's schedule coded and how long it took."""

    encode_ns: int = 0
    encode_symbols: int = 0
    decode_ns: int = 0
    decode_symbols: int = 0
    bits: int = 0
    symbols: int = 0
    oracle_bits: float = 0.0
    table_bytes: int = 0
    pass_ns: int = 0
    scale: float = 1.0  # REFERENCE_NS over the reference kernel's time around the pass
    fingerprints: dict = field(default_factory=dict)


def round_trip(gate: Gate, tr: Tracer, sample: PassSample, label: str, backend: str,
               encode, decode, expected: np.ndarray, oracle_bits: float):
    """Encode, serialize, deliver, parse, decode and compare one stream.

    `encode()` returns (Bitstream, CodingReport); `decode(stream)` returns the
    residuals.  Both are timed with their wire conversion.  A wrong decode, a
    report that disagrees with the serialized length, or any exception counts
    as a failure and the pass goes on; only successful round trips add to
    the sample.
    """
    gate.attempt()
    try:
        with tr.span(f"coding_backends.{backend}_encode"):
            t0 = time.perf_counter_ns()
            stream, report = encode()
            data = stream.to_bytes()
            enc_ns = time.perf_counter_ns() - t0
    except Exception as exc:  # the run keeps going and counts the failure
        gate.fail_exc(f"{label} encode", exc)
        return
    if report.total_bits != 8 * len(data):
        gate.fail(f"{label} encode", f"report says {report.total_bits} bits, "
                                     f"serialized stream has {8 * len(data)}")
    sample.fingerprints[f"{label}.payload"] = sha256(data)
    received = deliver(data)

    gate.attempt()
    try:
        with tr.span(f"coding_backends.{backend}_decode"):
            t0 = time.perf_counter_ns()
            decoded = decode(Bitstream.from_bytes(received))
            dec_ns = time.perf_counter_ns() - t0
    except Exception as exc:  # the run keeps going and counts the failure
        gate.fail_exc(f"{label} decode", exc)
        return
    decoded = np.asarray(decoded)
    if not np.array_equal(decoded, expected):
        what = (f"{int(np.sum(decoded != expected))} residuals"
                if decoded.shape == expected.shape else "the shape")
        gate.fail(f"{label} decode", f"{what} of the decode differ from the input")
        return
    sample.encode_ns += enc_ns
    sample.encode_symbols += report.symbols_coded
    sample.decode_ns += dec_ns
    sample.decode_symbols += report.symbols_coded
    sample.bits += 8 * len(data)
    sample.symbols += report.symbols_coded
    sample.oracle_bits += oracle_bits
    sample.table_bytes += report.table_bytes
    tr.record(f"coding_backends.{backend}_bits_per_symbol", 8 * len(data) / report.symbols_coded)


# ---------------------------------------------------------------------------
# Statistics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else None."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None
