"""Command-line bench tying the library together.

Subcommands: build-tables, train, encode, decode, verify, bench, report.
Flags override values from an optional --config JSON file, which overrides
built-in defaults.  SWPC_SEED provides the default seed when no --seed flag
or config entry is given.

Exit codes, decided once in main by the class of the error:
  0  success
  2  a bad flag, config value or SWPC_SEED, or a path that cannot be read
     or written
  3  training diverged
  4  a damaged table file or stream, or a decode that does not verify
A malformed input file (a block container, trained sidecar, index file,
source spec or bench results) exits 4 under decode and verify, and 2 under
every other command.
"""

import argparse
import csv
import io
import json
import os
import statistics
import sys
import time
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from . import cdf_tables as ct
from . import coding_backends as cb
from . import prior_trainer as pt
from . import prob_models as pm
from . import rans_coder as rc
from . import synth_source as ss

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRAIN = 3
EXIT_STREAM = 4


class UsageError(ValueError):
    """Inconsistent or invalid command inputs."""


class VerifyError(ValueError):
    """Decoded residuals disagree with the reference block."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _resolve(ns, cfg: dict, name: str, default, kind=None):
    """Flag beats config file beats default; flags parse with default None.

    With `kind`, the value is converted by it, and a value that does not
    convert is a UsageError.
    """
    flag = getattr(ns, name, None)
    value = flag if flag is not None else cfg.get(name, default)
    if kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"bad value for {name}: {value!r}") from exc


def _seed(ns, cfg: dict) -> int:
    """--seed beats the config's seed beats SWPC_SEED beats 0; the variable
    is read only when neither of the first two is given."""
    if getattr(ns, "seed", None) is not None or "seed" in cfg:
        return _resolve(ns, cfg, "seed", None, int)
    raw = os.environ.get("SWPC_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError as exc:
        raise UsageError(f"SWPC_SEED must be an integer, got {raw!r}") from exc


def _strict_bool(value) -> bool:
    """A `_resolve` kind for switches: JSON true/false only, so that a
    string such as "false" is refused rather than read as set."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _grid_dims(value) -> tuple:
    """A `_resolve` kind for --two-dim: a list of exactly two sizes, M and N."""
    m, n = value if isinstance(value, list) else ()
    return int(m), int(n)


def _optional(kind):
    """A `_resolve` kind that passes an unset value (None) through."""
    return lambda value: None if value is None else kind(value)


def _read_block(path: str) -> cb.LatentBlock:
    return ss.block_from_bytes(Path(path).read_bytes())


def _read_tables(path: str) -> ct.CdfTableSet:
    return ct.deserialize_table_set(Path(path).read_bytes())


def _grid_of(table_set: ct.CdfTableSet) -> ct.LutGrid:
    if table_set.meta.get("kind") != "lut":
        raise UsageError("table set carries no LUT grid metadata")
    return ct.LutGrid.from_meta(table_set.meta["family"], table_set.meta)


def default_source(seed: int) -> ss.SourceSpec:
    """Mixed-shape generalized-Gaussian field; the stock training source."""
    return ss.SourceSpec(family="ggm", shape=(8, 64, 64), seed=seed,
                         beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0))


def _read_source(path: str | None, seed: int) -> ss.SourceSpec:
    if not path:
        return default_source(seed)
    return ss.SourceSpec.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# build-tables


def cmd_build_tables(ns) -> int:
    cfg = _load_config(ns.config)
    family = _resolve(ns, cfg, "family", None)
    if family not in ("gm", "ggm"):
        raise UsageError("build-tables needs --family gm or ggm")
    if family == "gm":
        counts = [_resolve(ns, cfg, "count", 160, int)]
    else:
        counts = [_resolve(ns, cfg, "beta", 5, int), _resolve(ns, cfg, "alpha", 10, int)]
    if min(counts) < 2:
        raise UsageError("--count, --beta and --alpha must each be >= 2")
    table_set, _ = ct.build_lut(family, *counts)
    blob = ct.serialize_table_set(table_set)
    Path(ns.out).write_bytes(blob)
    print(f"tables: {len(table_set)}")
    print(f"serialized bytes: {len(blob)}")
    print(f"16-bit-equivalent bytes: {ct.table_set_16bit_bytes(table_set)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(ns) -> int:
    cfg = _load_config(ns.config)
    seed = _seed(ns, cfg)
    family = _resolve(ns, cfg, "family", "ggm")
    epochs = _resolve(ns, cfg, "epochs", 300, int)
    mode = _resolve(ns, cfg, "mode", "calibration-curve")
    if _resolve(ns, cfg, "two_dim", None) is not None:
        dims = _resolve(ns, cfg, "two_dim", None, _grid_dims)
        if mode == "calibration-curve" and ns.mode is None and "mode" not in cfg:
            mode = "free-index"
    else:
        dims = (_resolve(ns, cfg, "m", 40, int),)
    topk = _resolve(ns, cfg, "topk", None, _optional(int))
    skip = _resolve(ns, cfg, "skip", False, _strict_bool)
    lambda_ = _resolve(ns, cfg, "rd_lambda", 0.01, float)
    lr = _resolve(ns, cfg, "lr", 1e-2, float)
    spec = _read_source(_resolve(ns, cfg, "source", None), seed)
    block = ss.gen_block(spec)
    z_block = None
    if _resolve(ns, cfg, "reuse_hyper", False, _strict_bool):
        z_block = ss.gen_block(ss.SourceSpec(family="gm", shape=(4, 16, 16), seed=seed + 1000,
                                             sigma_range=(0.5, 6.0)))

    config = pt.TrainConfig(
        family=family, dims=dims, epochs=epochs, seed=seed, lr=lr,
        k=topk,
        lambda_=lambda_, predictor_mode=mode, skip_epochs=int(skip),
    )
    result = pt.train_priors([block], config, z_block=z_block)

    table_set = pt.export_tables(result.prior_set)
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{out}.tables").write_bytes(ct.serialize_table_set(table_set))
    sidecar = {
        "family": family,
        "dims": list(dims),
        "predictor": result.predictor,
        "seed": seed,
        "epochs": epochs,
        "final_loss": result.loss_trace[-1],
        "loss_trace_tail": result.loss_trace[-10:],
        "final_tau": result.final_tau,
        "skip": None,
        "hyper": None,
    }
    if result.skip_head is not None:
        sidecar["skip"] = {
            "ratio": result.skip_head.hard_mask().skip_ratio,
            "tables": list(result.skip_head.tables),
        }
    if result.hyper_logits is not None:
        sidecar["hyper"] = {"selected": [int(s) for s in result.hyper_logits.selected()]}
        Path(f"{out}.z.bin").write_bytes(ss.block_to_bytes(z_block))
    Path(f"{out}.json").write_text(json.dumps(sidecar, sort_keys=True, indent=1))
    save_block = _resolve(ns, cfg, "save_block", None)
    if save_block:
        Path(save_block).write_bytes(ss.block_to_bytes(block))

    trace = result.loss_trace
    shown = trace if len(trace) <= 8 else trace[:4] + trace[-4:]
    print(f"trained {family} dims={list(dims)} mode={mode} seed={seed}")
    print("loss trace:", " ".join(f"{v:.4f}" for v in shown))
    print(f"final loss: {trace[-1]:.6f}")
    print(f"tables: {len(table_set)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# encode / decode


def _trained_sidecar(prefix: str) -> dict:
    """The trained sidecar; ValueError when it lacks the fields coding reads."""
    path = f"{prefix}.json"
    sidecar = json.loads(Path(path).read_text())
    dims = sidecar.get("dims") if isinstance(sidecar, dict) else None
    predictor = sidecar.get("predictor") if isinstance(sidecar, dict) else None
    if not (isinstance(dims, list) and len(dims) in (1, 2) and all(isinstance(d, int) for d in dims)):
        raise ValueError(f"trained sidecar {path} holds no prior-set dims")
    if not (isinstance(predictor, dict)
            and predictor.get("mode") in ("calibration-curve", "free-index")):
        raise ValueError(f"trained sidecar {path} holds no predictor mode")
    if predictor["mode"] == "calibration-curve" and not all(  # a finite number, not a bool
            type(predictor.get(key)) in (int, float) and abs(predictor[key]) <= sys.float_info.max
            for key in ("a", "c")):
        raise ValueError(f"trained sidecar {path} holds no finite calibration curve")
    return sidecar


def _argmin_index_grid(block: cb.LatentBlock, table_set: ct.CdfTableSet,
                       dims: list[int]) -> cb.IndexGrid:
    """Cheapest-table assignment per element; encoder-side free indexing."""
    uniques, inverse = np.unique(block.residuals, return_inverse=True)
    count = len(table_set)
    bits = rc.implied_bits(np.tile(uniques, count),
                           np.repeat(np.arange(count), uniques.size), table_set)
    flat = bits.reshape(count, -1).argmin(axis=0)[inverse.ravel()]
    return cb.IndexGrid.from_tables(flat, dims, block.shape)


def _read_index_grid(path: str, dims: list[int]) -> cb.IndexGrid:
    blob = io.BytesIO(Path(path).read_bytes())  # an unreadable path stays an OSError
    try:
        data = dict(np.load(blob))  # reads every array, so a damaged member fails here
    except (EOFError, NotImplementedError, TypeError, ValueError, tokenize.TokenError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot read index file {path}: {exc}") from exc
    if "continuous" not in data:
        raise ValueError(f"index file {path} holds no continuous indexes")
    if "continuous2" not in data:
        return cb.IndexGrid(data["continuous"], dims[0])
    if len(dims) != 2:
        raise ValueError(f"index file {path} holds 2-D indexes for a 1-D prior set")
    return cb.IndexGrid(data["continuous"], dims[0], data["continuous2"], dims[1])


def _switch_side_info(block: cb.LatentBlock, prefix: str, use_skip: bool,
                      hyper: bool, indexes_path: str | None, encoding: bool):
    """Tables, index grid and skip mask for a switch encode or decode.  A
    free-index grid comes from the block's symbols, so the encoder saves it
    to indexes_path and the decoder reads it back, never the residuals."""
    sidecar = _trained_sidecar(prefix)
    table_set = _read_tables(f"{prefix}.tables")
    dims = sidecar["dims"]
    if hyper:
        entry = sidecar.get("hyper")
        if not entry:
            raise UsageError("--hyper needs a trained artifact with hyper logits")
        chosen = entry.get("selected") if isinstance(entry, dict) else None
        count = len(table_set)
        if not (isinstance(chosen, list)  # one-based flat tables, not bools
                and all(type(s) is int and 1 <= s <= count for s in chosen)):
            raise ValueError(f"trained sidecar {prefix}.json holds no list of hyper selections "
                             f"in [1, {count}]")
        if len(chosen) != block.channels:
            raise UsageError("hyper selection does not match the block's channels")
        tables = np.broadcast_to(np.array(chosen)[:, None, None] - 1, block.shape)
        indexes = cb.IndexGrid.from_tables(tables, dims, block.shape)
    elif indexes_path and not encoding:
        indexes = _read_index_grid(indexes_path, dims)
    elif sidecar["predictor"]["mode"] == "calibration-curve":
        indexes = cb.IndexGrid.from_curve(sidecar["predictor"]["a"], sidecar["predictor"]["c"],
                                          block.side_features, dims[0])
    elif not indexes_path:
        raise UsageError("a free-index set codes only with --indexes at both ends")
    else:
        indexes = _argmin_index_grid(block, table_set, dims)
    mask = None
    if use_skip:
        entry = sidecar.get("skip")
        if not entry:
            raise UsageError("--use-skip-mask needs a trained artifact with a skip head")
        tables = entry.get("tables") if isinstance(entry, dict) else None
        if not isinstance(tables, list):
            old = isinstance(entry, dict) and "mask" in entry
            raise ValueError(f"trained sidecar {prefix}.json holds no list of skipped tables"
                             + ("; its packed mask is an older format, retrain with --skip"
                                if old else ""))
        mask = cb.SkipMask.for_tables(indexes, tables)
    return table_set, indexes, mask


def _coder(ns, cfg: dict, block: cb.LatentBlock, encoding: bool):
    """The chosen backend for a block, or for its side block when decoding:
    (encode() -> (stream, report), decode(stream) -> (residuals, report),
    the switch index grid or None)."""
    backend = _resolve(ns, cfg, "backend", None)
    action = "encode" if encoding else "decode"
    if backend == "dynamic":
        radius = _resolve(ns, cfg, "radius", None, _optional(int))
        return (lambda: cb.backend_dynamic(block, radius=radius),
                lambda s: cb.backend_dynamic_decode(s, block.truth_params, block.shape, radius=radius), None)
    if backend == "lut":
        if not ns.tables:
            raise UsageError(f"lut {action} needs --tables")
        table_set = _read_tables(ns.tables)
        grid = _grid_of(table_set)
        return (lambda: cb.backend_lut(block, grid, table_set),
                lambda s: cb.backend_lut_decode(s, block.truth_params, grid, table_set, block.shape), None)
    if backend == "switch":
        if not ns.trained:
            raise UsageError(f"switch {action} needs --trained PREFIX")
        table_set, indexes, mask = _switch_side_info(
            block, ns.trained, ns.use_skip_mask, ns.hyper, ns.indexes, encoding)
        return (lambda: cb.backend_switch(block, indexes, mask, table_set),
                lambda s: cb.backend_switch_decode(s, indexes, mask, table_set, block.shape), indexes)
    raise UsageError("--backend must be dynamic, lut, or switch")


def cmd_encode(ns) -> int:
    cfg = _load_config(ns.config)
    block = _read_block(ns.block)
    encode, _, indexes = _coder(ns, cfg, block, encoding=True)
    stream, report = encode()
    if ns.indexes and indexes is not None:
        payload = {"continuous": indexes.continuous}
        if indexes.continuous2 is not None:
            payload["continuous2"] = indexes.continuous2
        np.savez(ns.indexes, **payload)
    Path(ns.out).write_bytes(stream.to_bytes())
    if ns.report:
        Path(ns.report).write_text(report.to_json())
    print(f"encoded {block.n_elements} elements: {report.total_bits} bits "
          f"({report.bits_per_symbol:.4f} bits/symbol)")
    return EXIT_OK


def cmd_decode(ns) -> int:
    cfg = _load_config(ns.config)
    side = _read_block(ns.side)
    stream = rc.Bitstream.from_bytes(Path(ns.stream).read_bytes())
    _, decode, _ = _coder(ns, cfg, side, encoding=False)
    residuals, _ = decode(stream)
    decoded = cb.LatentBlock(residuals, side.means, side.side_features,
                             truth_params=side.truth_params)
    Path(ns.out).write_bytes(ss.block_to_bytes(decoded))
    print(f"decoded {decoded.n_elements} elements")
    return EXIT_OK


def cmd_verify(ns) -> int:
    reference = _read_block(ns.block)
    decoded = _read_block(ns.decoded)
    if reference.shape != decoded.shape:
        raise VerifyError(
            f"shape mismatch: {reference.shape} vs {decoded.shape}")
    bad = int(np.sum(reference.residuals != decoded.residuals))
    if bad:
        raise VerifyError(f"{bad} of {reference.n_elements} residuals differ")
    print(f"verify: OK ({reference.n_elements} residuals match)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench / report

BENCH_COLUMNS = [
    "backend", "family", "table_count", "bits_per_symbol", "oracle_gap_pct",
    "table_bytes", "index_build_ns", "entropy_encode_ns", "decode_ns",
    "skip_ratio",
]


def _median_ns(fn, trials: int) -> int:
    """Median time of `trials` calls of fn, after one untimed warm-up call."""
    fn()  # warm-up
    samples = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples))


def _bench_row(backend, family, report, oracle_bits_ps, index_ns, encode_ns,
               decode_ns) -> dict:
    gap = 100.0 * (report.bits_per_symbol - oracle_bits_ps) / oracle_bits_ps
    return {
        "backend": backend,
        "family": family,
        "table_count": report.table_count,
        "bits_per_symbol": round(report.bits_per_symbol, 6),
        "oracle_gap_pct": round(gap, 4),
        "table_bytes": report.table_bytes,
        "index_build_ns": int(index_ns),
        "entropy_encode_ns": int(max(encode_ns - index_ns, 0)),
        "decode_ns": int(decode_ns),
        "skip_ratio": round(report.skip_ratio, 6),
    }


def _lut_sizes(axes: int):
    """A `_resolve` kind for comma-separated LUT sizes: each one `axes`
    sample counts joined by "x", every count at least 2."""
    def parse(raw) -> list[tuple]:
        sizes = [tuple(int(v) for v in item.split("x")) for item in str(raw).split(",")]
        if any(len(size) != axes or min(size) < 2 for size in sizes):
            raise ValueError(f"each LUT size needs {axes} sample counts of at least 2")
        return sizes
    return parse


def _bench_lut(block, family, counts, trials, oracle_ps):
    rows = []
    params = [np.ravel(block.truth_params[name]) for name in pm.FAMILY_PARAMS[family]]
    for count in counts:
        table_set, grid = ct.build_lut(family, *count)
        index_ns = _median_ns(lambda g=grid: ct.lut_search(g, params), trials)
        stream, report = cb.backend_lut(block, grid, table_set)
        encode_ns = _median_ns(
            lambda b=block, g=grid, t=table_set: cb.backend_lut(b, g, t), trials)
        decode_ns = _median_ns(
            lambda s=stream, b=block, g=grid, t=table_set:
            cb.backend_lut_decode(s, b.truth_params, g, t, b.shape), trials)
        rows.append(_bench_row("lut", family, report, oracle_ps,
                               index_ns, encode_ns, decode_ns))
    return rows


def cmd_bench(ns) -> int:
    cfg = _load_config(ns.config)
    seed = _seed(ns, cfg)
    trials = _resolve(ns, cfg, "trials", 5, int)
    if trials < 1:
        raise UsageError(f"--trials must be at least 1, got {trials}")
    backends = [b.strip() for b in
                str(_resolve(ns, cfg, "backends", "dynamic,lut,switch")).split(",")
                if b.strip()]
    if ns.block:
        block = _read_block(ns.block)
        family = (block.truth_params or {}).get("family")
    else:
        spec = _read_source(_resolve(ns, cfg, "source", None), seed)
        block = ss.gen_block(spec)
        family = spec.family
    if block.truth_params is None:
        raise UsageError("bench needs a block with truth parameters")
    oracle_ps = ss.oracle_rate(block) / block.n_elements

    rows = []
    for backend in backends:
        if backend == "dynamic":
            stream, report = cb.backend_dynamic(block)
            encode_ns = _median_ns(lambda: cb.backend_dynamic(block), trials)
            decode_ns = _median_ns(
                lambda s=stream: cb.backend_dynamic_decode(
                    s, block.truth_params, block.shape), trials)
            rows.append(_bench_row("dynamic", family, report, oracle_ps,
                                   0, encode_ns, decode_ns))
        elif backend == "lut":
            if family == "gm":
                counts = _resolve(ns, cfg, "lut_counts", "5,40,160", _lut_sizes(1))
            elif family == "ggm":
                counts = _resolve(ns, cfg, "lut_grids", "5x10,20x40", _lut_sizes(2))
            else:
                raise UsageError(f"no LUT backend for family {family!r}")
            rows.extend(_bench_lut(block, family, counts, trials, oracle_ps))
        elif backend == "switch":
            m = _resolve(ns, cfg, "m", 10, int)
            epochs = _resolve(ns, cfg, "epochs", 150, int)
            skip = _resolve(ns, cfg, "skip", False, _strict_bool)
            config = pt.TrainConfig(
                family=family, dims=(m,), epochs=epochs, seed=seed,
                predictor_mode="calibration-curve",
                skip_epochs=int(skip),
                lambda_=_resolve(ns, cfg, "rd_lambda", 1.0, float))
            result = pt.train_priors([block], config)
            table_set = pt.export_tables(result.prior_set)
            def build_indexes():
                curve = result.predictor["a"], result.predictor["c"]
                return cb.IndexGrid.from_curve(*curve, block.side_features, m)

            indexes = build_indexes()
            index_ns = _median_ns(build_indexes, trials)
            mask = result.skip_head.hard_mask(indexes) if result.skip_head else None
            stream, report = cb.backend_switch(block, indexes, mask, table_set)
            encode_ns = _median_ns(
                lambda: cb.backend_switch(block, indexes, mask, table_set),
                trials) + index_ns
            decode_ns = _median_ns(
                lambda s=stream: cb.backend_switch_decode(
                    s, indexes, mask, table_set, block.shape), trials)
            rows.append(_bench_row("switch", family, report, oracle_ps,
                                   index_ns, encode_ns, decode_ns))
        else:
            raise UsageError(f"unknown backend {backend!r}")

    out = Path(ns.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    if ns.json:
        Path(ns.json).write_text(json.dumps(rows, indent=1, sort_keys=True))
    print(f"bench: {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_report(ns) -> int:
    rows = json.loads(Path(ns.bench).read_text())
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, dict) and isinstance(r.get("table_count", 0), int)
            and isinstance(r.get("bits_per_symbol", np.inf), (int, float)) for r in rows)):
        raise ValueError(f"{ns.bench} holds no nonempty JSON list of bench rows")
    rows = sorted(rows, key=lambda r: (str(r.get("family")), str(r.get("backend")),
                                       r.get("table_count", 0)))
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows))
              for c in BENCH_COLUMNS}
    lines = [
        "  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS),
        "  ".join("-" * widths[c] for c in BENCH_COLUMNS),
    ]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c])
                               for c in BENCH_COLUMNS))
    best = min(rows, key=lambda r: r.get("bits_per_symbol", np.inf))
    lines.append("")
    lines.append(f"lowest rate: {best.get('backend')} at {best.get('bits_per_symbol')} "
                 f"bits/symbol with {best.get('table_count')} tables")
    text = "\n".join(lines)
    if ns.out:
        Path(ns.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swpc-bench",
        description="Build, train, code, and benchmark switchable-prior entropy coding.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")

    def backend(p):
        """The flags that choose a backend and its side information, the same
        for encode and decode."""
        p.add_argument("--backend", choices=["dynamic", "lut", "switch"])
        p.add_argument("--tables", help="table-set file (lut)")
        p.add_argument("--trained", help="trained artifact prefix (switch)")
        p.add_argument("--use-skip-mask", dest="use_skip_mask", action="store_true")
        p.add_argument("--hyper", action="store_true",
                       help="code with the trained per-channel hyper selection")
        p.add_argument("--radius", type=int, help="fixed table radius (dynamic)")
        p.add_argument("--indexes", help="index grid, saved by encode and read by decode "
                       "(switch; free-index sets need it)")

    p = sub.add_parser("build-tables", help="precompute a LUT table set")
    common(p)
    p.add_argument("--family", choices=["gm", "ggm"])
    p.add_argument("--count", type=int, help="gm sigma sample count")
    p.add_argument("--beta", type=int, help="ggm beta sample count")
    p.add_argument("--alpha", type=int, help="ggm alpha sample count")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_tables)

    p = sub.add_parser("train", help="train a switchable prior set")
    common(p)
    p.add_argument("--family", choices=["gm", "ggm", "gmm"])
    p.add_argument("--m", type=int, help="prior count for 1-D sets")
    p.add_argument("--two-dim", dest="two_dim", nargs=2, type=int,
                   metavar=("M", "N"), help="train an MxN grid (gmm)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float, help="optimizer step size")
    p.add_argument("--topk", type=int, help="rate window size during training")
    p.add_argument("--skip", action="store_const", const=True, default=None,
                   help="skip the tables whose elements cost more coded than skipped")
    p.add_argument("--lambda", dest="rd_lambda", type=float,
                   help="rate-distortion tradeoff for skip training")
    p.add_argument("--reuse-hyper", dest="reuse_hyper", action="store_const",
                   const=True, default=None,
                   help="jointly select priors for a hyperlatent block")
    p.add_argument("--mode", choices=["free-index", "calibration-curve"])
    p.add_argument("--source", help="source spec JSON; omit for the default field")
    p.add_argument("--save-block", dest="save_block",
                   help="also write the generated training block")
    p.add_argument("--out", required=True, help="artifact prefix")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("encode", help="entropy-code a block fixture")
    common(p)
    p.add_argument("--block", required=True)
    backend(p)
    p.add_argument("--report", help="CodingReport JSON path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="invert an encode")
    common(p)
    p.add_argument("--stream", required=True)
    p.add_argument("--side", required=True,
                   help="block file providing shape and side information")
    backend(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("verify", help="compare two block files' residuals")
    common(p)
    p.add_argument("--block", required=True)
    p.add_argument("--decoded", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="backend comparison matrix")
    common(p)
    p.add_argument("--source", help="source spec JSON")
    p.add_argument("--block", help="block fixture instead of a source spec")
    p.add_argument("--backends", help="comma list: dynamic,lut,switch")
    p.add_argument("--lut-counts", dest="lut_counts")
    p.add_argument("--lut-grids", dest="lut_grids")
    p.add_argument("--m", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--skip", action="store_const", const=True, default=None)
    p.add_argument("--lambda", dest="rd_lambda", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", help="also write rows as JSON")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report", help="format bench JSON as a comparison table")
    common(p)
    p.add_argument("--bench", required=True, help="bench --json output")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except pt.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        trace = " ".join(f"{v:.4f}" for v in exc.loss_trace)
        print(f"loss trace: {trace}", file=sys.stderr)
        return EXIT_TRAIN
    except (UsageError, OSError) as exc:
        error, code = exc, EXIT_USAGE
    except (VerifyError, ct.ParseError, rc.StreamError) as exc:
        error, code = exc, EXIT_STREAM
    except ValueError as exc:  # a malformed input file, damaged data when decoding
        error, code = exc, EXIT_STREAM if ns.command in ("decode", "verify") else EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
