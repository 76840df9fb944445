"""swpc benchmark: one workload, one closed loop, one process, no worker threads.

    python3 perfbench/run.py --workload shared-ggm --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout this
file sits in, never from an installed copy.  `--trace 0` measures the
end-to-end metrics with tracing off; `--trace 1` records spans around every
call into a layer and reports the per-layer metrics instead, including the
tracing overhead against untraced passes of the same run.  The metric names
and units come from BENCHMARK.json.  Human-readable lines start with "# ";
the last line of standard output is the JSON result.
"""

import os

# BLAS and OpenMP pools are pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much was measured
SETUP_MAX_REPEATS = 15
PROBE_ROUNDS = 3


def import_swpc():
    """Import swpc from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import swpc
    except ImportError as exc:
        sys.exit(f"error: cannot import swpc from {ROOT / 'src'}: {exc}")
    if not Path(swpc.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: swpc was imported from {swpc.__file__}, not from this checkout")


import_swpc()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from harness import (  # noqa: E402
    REFERENCE_NS, Gate, PassSample, SpeedReference, Tracer, median, tail_percentile)
from workloads import WORKLOADS  # noqa: E402


def git_commit() -> str:
    """HEAD of the checkout without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read BENCHMARK.json: {exc}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny inputs for the smoke test")
    p.add_argument("--record-fingerprints", action="store_true",
                   help="store this run's payload and table digests as the reference")
    return p.parse_args(argv)


def set_up(w, tr, ref, traced):
    """Run set-up once when traced, else several times.

    Returns (raw seconds, seconds at reference speed) per repetition.
    """
    if traced:
        with tr.span("bench.setup"):
            w.setup(tr)
        return [], []
    raw, scaled = [], []
    before = ref.measure()
    while (len(raw) < SETUP_MIN_REPEATS
           or (sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS)):
        t0 = time.perf_counter()
        w.setup(tr)
        raw.append(time.perf_counter() - t0)
        after = ref.measure()
        scaled.append(raw[-1] * 2 * REFERENCE_NS / (before + after))
        before = after
    return raw, scaled


def measure(w, tr, gate, ref, seconds, traced):
    """Closed loop of schedule passes; traced runs alternate tracing on and off.

    One untimed warm-up pass comes first and fixes the fingerprints every
    later pass must reproduce.  The reference kernel runs between passes.
    Returns (reference fingerprints, untraced samples, traced samples).
    """
    tr.enabled = False
    warm = PassSample()
    w.run_pass(tr, gate, warm)
    reference = warm.fingerprints
    untraced, traced_samples = [], []
    min_passes = 4 if traced else 3
    start = time.perf_counter()
    before = ref.measure()
    i = 0
    while i < min_passes or time.perf_counter() - start < seconds:
        tr.enabled = traced and i % 2 == 1
        sample = PassSample()
        with tr.span("bench.pass"):
            t0 = time.perf_counter_ns()
            w.run_pass(tr, gate, sample)
            sample.pass_ns = time.perf_counter_ns() - t0
        after = ref.measure()
        sample.scale = 2 * REFERENCE_NS / (before + after)
        before = after
        gate.attempt()
        changed = differing(reference, sample.fingerprints)
        if changed:
            gate.fail(f"pass {i}", f"bytes differ from the warm-up pass: {', '.join(changed)}")
        (traced_samples if tr.enabled else untraced).append(sample)
        i += 1
    tr.enabled = traced
    return reference, untraced, traced_samples


def timings(samples, scaled: bool) -> dict:
    """Per-pass throughputs and pass times, at reference speed or as clocked."""
    def ns(s, value):
        return value * (s.scale if scaled else 1.0)

    return {
        "encode_msym_s": [1e3 * s.encode_symbols / ns(s, s.encode_ns) for s in samples if s.symbols],
        "decode_msym_s": [1e3 * s.decode_symbols / ns(s, s.decode_ns) for s in samples if s.symbols],
        "pass_s": [ns(s, s.pass_ns) / 1e9 for s in samples],
    }


def end_to_end(samples, setup_times) -> dict:
    """Timings at reference speed, medians over passes; rates per pass."""
    def per_pass(fn):
        return median(fn(s) for s in samples if s.symbols)

    out = {name: median(values) for name, values in timings(samples, True).items()}
    out.update({
        "bits_per_symbol": per_pass(lambda s: s.bits / s.symbols),
        "oracle_ratio": per_pass(lambda s: s.bits / s.oracle_bits),
        "table_bytes": per_pass(lambda s: s.table_bytes),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def per_layer(tr, specs, scale, untraced, traced) -> dict:
    """Self times at reference speed, recorded values, and the tracing overhead."""
    self_times = tr.self_times()
    out = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace_overhead_pct":
            # each traced pass against the untraced pass just before it
            value = 100.0 * median(t.pass_ns * t.scale / (u.pass_ns * u.scale) - 1.0
                                   for u, t in zip(untraced, traced))
        elif spec["unit"] == "s":
            value = self_times.get(name[:-2])
            value = None if value is None else value * scale
        else:
            values = tr.values.get(name)
            value = median(values) if values else None
        if value is None:
            print(f"# not measured: {name}")
            value = 0.0
        out[name] = value
    return out


def print_samples(samples, raw_setup, setup):
    """Sample counts and spread, at reference speed and as the clock read them."""
    groups = timings(samples, True)
    groups.update({f"raw {name}": values for name, values in timings(samples, False).items()})
    groups["setup_s"] = setup
    groups["raw setup_s"] = raw_setup
    for name, values in groups.items():
        if not values:
            continue
        q = np.percentile(values, [25, 50, 75])
        tail = tail_percentile(values)
        extra = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no tail percentile"
        print(f"# {name}: median {q[1]:.6g} (quartiles {q[0]:.6g}..{q[2]:.6g}, "
              f"n={len(values)}{extra})")


def differing(a: dict, b: dict) -> list:
    """Labels whose digest differs between two fingerprint sets, or is missing from one."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def compare_fingerprints(workload, seed, fingerprints, record):
    try:
        stored = json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        stored = {}
    for label in sorted(fingerprints):
        print(f"# sha256 {label} {fingerprints[label]}")
    known = stored.get(workload, {}).get(str(seed))
    if record:
        stored.setdefault(workload, {})[str(seed)] = fingerprints
        FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"# fingerprints recorded for {workload} seed {seed}")
    elif known is None:
        print(f"# fingerprints: no reference for {workload} seed {seed}")
    else:
        changed = differing(known, fingerprints)
        print("# fingerprints: " + (f"CHANGED {', '.join(changed)}" if changed
                                    else "identical to the reference"))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    traced = args.trace == 1
    print(f"# swpc benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} commit={git_commit()}")
    print("# " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print("# closed loop: one caller in one process, each call after the previous returns")

    w = WORKLOADS[args.workload](args.seed, args.size)
    tr = Tracer(enabled=traced)
    gate = Gate()
    ref = SpeedReference()
    raw_setup, setup_times = set_up(w, tr, ref, traced)
    reference, untraced, traced_samples = measure(w, tr, gate, ref, args.seconds, traced)
    if traced:
        for _ in range(PROBE_ROUNDS):
            with tr.span("bench.probe"):
                w.probe_round(tr, gate)
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            with tr.span("bench.cli"):
                w.cli_round_trip(tr, gate, Path(tmp))
        metrics = per_layer(tr, spec["per_layer"], ref.run_scale(), untraced, traced_samples)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"# spans kept in memory: {len(tr.spans)}")
    else:
        computed = end_to_end(untraced, setup_times)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: computed[name] for name in units}
        print_samples(untraced, raw_setup, setup_times)
        oracle = median(s.bits / s.oracle_bits for s in untraced if s.symbols)
        print(f"# oracle_gap_pct: {100.0 * (oracle - 1.0):.4f}")

    print(f"# reference kernel: median {median(ref.samples) / 1e6:.3f} ms over "
          f"{len(ref.samples)} runs; times below are at {REFERENCE_NS / 1e6:g} ms")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_ratio = {gate.failed}/{gate.attempted}")
    for failure in gate.failures[:20]:
        print(f"# FAILED {failure}")
    compare_fingerprints(args.workload, args.seed, reference, args.record_fingerprints)

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
