"""The benchmark's workloads: inputs from a seed, one schedule per pass, probes.

Each workload stresses different layers of swpc (see README.md for the map
from metric to layer to workload).  `setup` makes every input from the seed
and is timed as set-up; `run_pass` is one pass of the fixed schedule, timed
end to end; `probe_round` (traced runs only) calls each layer's public
functions directly on the workload's data, so that every per-layer metric
is measured on every workload.  Layers a workload's schedule does not use
are probed on a small head of its block.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import PassSample, round_trip, sha256
from swpc import cdf_tables as ct
from swpc import cli_bench
from swpc import coding_backends as cb
from swpc import prior_trainer as pt
from swpc import prob_models as pm
from swpc import rans_coder as rc
from swpc import synth_source as ss

M = 40  # switchable prior count, as in the paper's headline comparison
LUT_GGM = (5, 10)  # beta x alpha samples of the LUT baseline
LUT_GM = 40  # sigma samples of the escape LUT; its widest sigma is 60
GGM_RANGES = {"beta_range": (0.7, 2.5), "alpha_range": (0.05, 10.0)}  # the CLI's default source
ESCAPE_SIGMAS = (100.0, 1000.0)  # far wider than the LUT, so most symbols escape
# shared-ggm trains its switch set on one fixed draw, as a deployed prior set
# would be trained once; --seed picks only the block it codes
TRAIN_SEED = 0

MODES = {
    "calib_full": {"k": None, "predictor_mode": "calibration-curve"},
    "calib_top2": {"k": 2, "predictor_mode": "calibration-curve"},
    "free_index": {"k": None, "predictor_mode": "free-index"},
}

# Element counts.  "full" is the benchmark; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "shared": (4, 256, 256), "shared_train": (4, 128, 128), "shared_epochs": 40,
        "dynamic": (4, 64, 64), "train": (4, 128, 128), "train_epochs": 5,
        "escape": (4, 128, 128),
        "probe_pmf": 16384, "probe_train": 4096, "probe_dynamic": 1024, "probe_epochs": 2,
    },
    "tiny": {
        "shared": (1, 16, 16), "shared_train": (1, 16, 16), "shared_epochs": 3,
        "dynamic": (1, 8, 8), "train": (1, 16, 16), "train_epochs": 2,
        "escape": (1, 16, 16),
        "probe_pmf": 128, "probe_train": 128, "probe_dynamic": 32, "probe_epochs": 2,
    },
}


@dataclass
class Coding:
    """One shared-table coding of the schedule, for the direct rANS probe."""

    label: str
    table_set: ct.CdfTableSet
    indexes: np.ndarray
    symbols: np.ndarray


def head(block: cb.LatentBlock, count: int) -> cb.LatentBlock:
    """The first `count` elements in coding order, as a (1, 1, count) block."""
    count = min(count, block.n_elements)

    def cut(a):
        return np.asarray(a).ravel()[:count].reshape(1, 1, count)

    truth = {k: (v if k == "family" else cut(v)) for k, v in block.truth_params.items()}
    return cb.LatentBlock(cut(block.residuals), cut(block.means), cut(block.side_features), truth)


def curve_indexes(tr, curve, features) -> cb.IndexGrid:
    """Calibration-curve index build: harden a * log(feature) + c."""
    a, c = curve
    with tr.span("coding_backends.index_build"):
        return cb.IndexGrid.from_continuous(a * np.log(features) + c, M)


def spread_curve(features) -> tuple[float, float]:
    """A curve mapping the block's log-feature range linearly onto [1, M]."""
    log_f = np.log(np.asarray(features).ravel())
    span = float(log_f.max() - log_f.min()) or 1.0
    slope = (M - 1) / span
    return slope, 1.0 - slope * float(log_f.min())


def train(tr, mode: str, block, epochs: int, seed: int):
    """Train one predictor mode, export its tables, record loss and dead priors."""
    config = pt.TrainConfig(family=block.truth_params["family"], dims=(M,), epochs=epochs,
                            seed=seed, **MODES[mode])
    with tr.span(f"prior_trainer.{mode}_epoch", units=epochs):
        result = pt.train_priors([block], config)
    with tr.span("prior_trainer.export_tables"):
        tables = pt.export_tables(result.prior_set)
    tr.record(f"prior_trainer.{mode}_final_loss", result.loss_trace[-1])
    tr.record(f"prior_trainer.{mode}_dead_priors", M - len(np.unique(result.indexes.hardened)))
    return result, tables


def gated_train(tr, gate, mode: str, block, epochs: int, seed: int):
    """`train`, with a divergence or any error counted as a failure: None."""
    gate.attempt()
    try:
        return train(tr, mode, block, epochs, seed)
    except Exception as exc:  # the run keeps going and counts the failure
        gate.fail_exc(f"train {mode}", exc)
        return None


def lut_round_trip(gate, tr, sample, label, block, grid, table_set, oracle_bits):
    round_trip(
        gate, tr, sample, label, "lut",
        lambda: cb.backend_lut(block, grid, table_set),
        lambda s: cb.backend_lut_decode(s, block.truth_params, grid, table_set, block.shape)[0],
        block.residuals, oracle_bits)


def switch_round_trip(gate, tr, sample, label, block, table_set, make_indexes, oracle_bits):
    """Both ends derive the index grid from side information, so both pay for it."""
    round_trip(
        gate, tr, sample, label, "switch",
        lambda: cb.backend_switch(block, make_indexes(), None, table_set),
        lambda s: cb.backend_switch_decode(s, make_indexes(), None, table_set, block.shape)[0],
        block.residuals, oracle_bits)


def dynamic_round_trip(gate, tr, sample, label, block, oracle_bits):
    round_trip(
        gate, tr, sample, label, "dynamic",
        lambda: cb.backend_dynamic(block),
        lambda s: cb.backend_dynamic_decode(s, block.truth_params, block.shape)[0],
        block.residuals, oracle_bits)


def lut_indexes(grid, truth) -> np.ndarray:
    if grid.family == "gm":
        return ct.lut_search_gm(grid, truth["sigma"].ravel())
    return ct.lut_search_ggm(grid, truth["beta"].ravel(), truth["alpha"].ravel())


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Common set-up state and the probes every workload runs when traced."""

    name = ""
    family = "ggm"
    backends: tuple = ()  # backends the schedule runs
    schedule_modes: tuple = ()  # trainer modes the schedule or set-up runs

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        self.lut = None  # (table set, grid)
        self.switch = None  # (table set, curve)
        self.trained: dict = {}  # mode -> (TrainResult, table set)
        self.windows = None  # (radii, frequency rows) of the probed elements

    def spec(self, shape, seed) -> ss.SourceSpec:
        if self.family == "gm":
            return ss.SourceSpec(family="gm", shape=shape, seed=seed, sigma_range=ESCAPE_SIGMAS)
        return ss.SourceSpec(family="ggm", shape=shape, seed=seed, **GGM_RANGES)

    def make_block(self, tr, shape, seed):
        with tr.span("synth_source.gen_block"):
            block = ss.gen_block(self.spec(shape, seed))
        with tr.span("synth_source.oracle_rate"):
            oracle = ss.oracle_rate(block)
        return block, oracle

    def setup(self, tr):
        raise NotImplementedError

    def run_pass(self, tr, gate, sample: PassSample):
        raise NotImplementedError

    def codings(self) -> list[Coding]:
        """The schedule's shared-table codings, coded again directly by rANS."""
        raise NotImplementedError

    # -- probes ------------------------------------------------------------

    def probe_lut(self, tr):
        if self.lut is None:
            with tr.span("cdf_tables.build_lut"):
                self.lut = (ct.build_lut_gm(LUT_GM) if self.family == "gm"
                            else ct.build_lut_ggm(*LUT_GGM))
        return self.lut

    def probe_switch(self, tr):
        """An untrained switch set for workloads whose schedule has none."""
        if self.switch is None:
            prior_set = pt.init_prior_set(self.family, M, float(np.abs(self.block.residuals).max()))
            with tr.span("prior_trainer.export_tables"):
                tables = pt.export_tables(prior_set)
            self.switch = (tables, spread_curve(self.block.side_features))
        return self.switch

    def element_tables(self, tr, block):
        """Per-element windows, grouped by radius: (radii, rows of frequencies)."""
        truth = block.truth_params
        with tr.span("prob_models.support_radius"):
            if self.family == "gm":
                radii = np.atleast_1d(pm.gaussian_support_radius(truth["sigma"].ravel()))
            else:
                radii = np.atleast_1d(pm.ggm_support_radius(truth["beta"].ravel(),
                                                            truth["alpha"].ravel()))
        groups = [(r, np.nonzero(radii == r)[0]) for r in np.unique(radii)]
        masses = []
        with tr.span("prob_models.pmf"):
            for r, ids in groups:
                ks = np.arange(-r, r + 1)[None, :]
                if self.family == "gm":
                    masses.append(pm.gaussian_integer_pmf(ks, truth["sigma"].ravel()[ids][:, None]))
                else:
                    masses.append(pm.ggm_integer_pmf(ks, truth["beta"].ravel()[ids][:, None],
                                                     truth["alpha"].ravel()[ids][:, None]))
        freqs = [None] * len(radii)
        with tr.span("cdf_tables.allocate"):
            for (r, ids), mass in zip(groups, masses):
                tail = np.maximum(0.0, 1.0 - mass.sum(axis=-1, keepdims=True))
                rows = ct.allocate_frequencies(np.concatenate([mass, tail], axis=-1))
                for i, row in zip(ids, rows):
                    freqs[i] = row
        return radii, freqs

    def probe_round(self, tr, gate):
        size = self.size
        self.windows = self.element_tables(tr, head(self.block, size["probe_pmf"]))

        # trainer modes the schedule does not run, on a small head of the block
        small = head(self.block, size["probe_train"])
        trained = dict(self.trained)
        for mode in MODES:
            if mode not in self.schedule_modes:
                out = gated_train(tr, gate, mode, small, size["probe_epochs"], self.seed)
                if out is not None:
                    trained[mode] = out
        self.probe_pmf_grads(tr, trained)

        grid = self.probe_lut(tr)[1]
        with tr.span("cdf_tables.lut_search"):
            lut_indexes(grid, self.block.truth_params)
        switch_set, curve = self.probe_switch(tr)
        curve_indexes(tr, curve, self.block.side_features)

        self.probe_rans(tr, gate)

        # backends the schedule does not run; results are thrown away
        sample = PassSample()
        if "lut" not in self.backends:
            table_set, grid = self.probe_lut(tr)
            lut_round_trip(gate, tr, sample, "probe.lut", self.block, grid, table_set, 0.0)
        if "switch" not in self.backends:
            switch_round_trip(gate, tr, sample, "probe.switch", self.block, switch_set,
                              lambda: curve_indexes(tr, curve, self.block.side_features), 0.0)
        if "dynamic" not in self.backends:
            dynamic_round_trip(gate, tr, sample, "probe.dynamic",
                               head(self.block, size["probe_dynamic"]), 0.0)

    def probe_pmf_grads(self, tr, trained):
        """Rate-gradient kernel over the M priors x the unique training symbols."""
        result = trained.get("calib_top2")
        if result is None:  # its training failed, which the gate has counted
            return
        models = result[0].prior_set.models()
        uniques = np.unique(self.training_symbols()).astype(np.float64)[None, :]
        with tr.span("prob_models.pmf_grads"):
            if self.family == "gm":
                sigma = np.array([m.params.sigma for m in models])[:, None]
                pm.gaussian_pmf_grads(uniques, sigma)
            else:
                beta = np.array([m.params.beta for m in models])[:, None]
                alpha = np.array([m.params.alpha for m in models])[:, None]
                pm.ggm_pmf_grads(uniques, beta, alpha)

    def training_symbols(self) -> np.ndarray:
        return head(self.block, self.size["probe_train"]).residuals

    def probe_rans(self, tr, gate):
        """Direct rANS coding of the schedule's streams, plus their byte split."""
        ans = bypass = framing = escapes = 0
        stream_bits = implied = 0.0
        table_16bit = 0
        for coding in self.codings():
            gate.attempt()
            try:
                with tr.span("rans_coder.encode"):
                    stream = rc.encode(coding.symbols, coding.indexes, coding.table_set)
                with tr.span("rans_coder.decode"):
                    decoded = rc.decode(stream, coding.indexes, coding.table_set)
                with tr.span("cdf_tables.serialize"):
                    blob = ct.serialize_table_set(coding.table_set)
                with tr.span("cdf_tables.deserialize"):
                    back = ct.deserialize_table_set(blob)
            except Exception as exc:  # the run keeps going and counts the failure
                gate.fail_exc(f"probe rans {coding.label}", exc)
                continue
            if not np.array_equal(decoded, coding.symbols.ravel()):
                gate.fail(f"probe rans {coding.label}", "direct decode differs from the input")
            if back != coding.table_set:
                gate.fail(f"probe tables {coding.label}", "table set changed through the wire form")
            # payload: u32 ANS length, u32 final state, 16-bit words, bypass bits
            ans_len = int.from_bytes(stream.payload[:4], "little")
            ans += ans_len - 4
            bypass += len(stream.payload) - 4 - ans_len
            framing += 4 + 4 + 4  # symbol count, ANS length, final state
            lo = np.array([t.lo for t in coding.table_set])[coding.indexes]
            hi = np.array([t.hi for t in coding.table_set])[coding.indexes]
            sym = coding.symbols.ravel()
            escapes += int(np.sum((sym < lo) | (sym > hi)))
            stream_bits += stream.bit_length
            implied += float(rc.implied_bits(sym, coding.indexes, coding.table_set).sum())
            table_16bit += ct.table_set_16bit_bytes(coding.table_set)
        tr.record("rans_coder.ans_bytes", ans)
        tr.record("rans_coder.bypass_bytes", bypass)
        tr.record("rans_coder.framing_bytes", framing)
        tr.record("rans_coder.escape_count", escapes)
        tr.record("rans_coder.overhead_pct", 100.0 * (stream_bits - implied) / implied)
        tr.record("cdf_tables.table_16bit_bytes", table_16bit)

    def cli_round_trip(self, tr, gate, workdir: Path):
        """build-tables, encode, decode and verify through the CLI, LUT backend."""
        paths = {k: str(workdir / f"{k}.bin") for k in ("block", "tables", "stream", "decoded")}
        Path(paths["block"]).write_bytes(ss.block_to_bytes(self.block))
        lut = (["--family", "gm", "--count", str(LUT_GM)] if self.family == "gm" else
               ["--family", "ggm", "--beta", str(LUT_GGM[0]), "--alpha", str(LUT_GGM[1])])
        steps = [
            ("build_tables", ["build-tables", *lut, "--out", paths["tables"]]),
            ("encode", ["encode", "--block", paths["block"], "--backend", "lut",
                        "--tables", paths["tables"], "--out", paths["stream"]]),
            ("decode", ["decode", "--stream", paths["stream"], "--side", paths["block"],
                        "--backend", "lut", "--tables", paths["tables"], "--out", paths["decoded"]]),
            ("verify", ["verify", "--block", paths["block"], "--decoded", paths["decoded"]]),
        ]
        for step, argv in steps:
            gate.attempt()
            out = io.StringIO()
            try:
                with tr.span(f"cli_bench.{step}"), redirect_stdout(out), redirect_stderr(out):
                    code = cli_bench.main(argv)
            except Exception as exc:  # the run keeps going and counts the failure
                gate.fail_exc(f"cli {step}", exc)
                return
            if code != 0:
                gate.fail(f"cli {step}", f"exit {code}: {out.getvalue().strip()}")
                return


class SharedGgm(Workload):
    """The paper's comparison: one block, LUT 5x10 against a trained M=40 set."""

    name = "shared-ggm"
    backends = ("lut", "switch")
    schedule_modes = ("calib_top2",)

    def setup(self, tr):
        size = self.size
        self.block, self.oracle = self.make_block(tr, size["shared"], self.seed)
        with tr.span("synth_source.gen_block"):
            self.train_block = ss.gen_block(self.spec(size["shared_train"], TRAIN_SEED))
        with tr.span("cdf_tables.build_lut"):
            self.lut = ct.build_lut_ggm(*LUT_GGM)
        result, tables = train(tr, "calib_top2", self.train_block, size["shared_epochs"],
                               TRAIN_SEED)
        self.trained = {"calib_top2": (result, tables)}
        self.switch = (tables, (result.predictor["a"], result.predictor["c"]))

    def run_pass(self, tr, gate, sample):
        table_set, grid = self.lut
        lut_round_trip(gate, tr, sample, "lut", self.block, grid, table_set, self.oracle)
        switch_set, curve = self.switch
        switch_round_trip(gate, tr, sample, "switch", self.block, switch_set,
                          lambda: curve_indexes(tr, curve, self.block.side_features), self.oracle)
        sample.fingerprints["lut.tables"] = sha256(ct.serialize_table_set(table_set))
        sample.fingerprints["switch.tables"] = sha256(ct.serialize_table_set(switch_set))

    def codings(self):
        table_set, grid = self.lut
        switch_set, curve = self.switch
        a, c = curve
        idx = cb.IndexGrid.from_continuous(a * np.log(self.block.side_features) + c, M)
        symbols = self.block.residuals.ravel()
        return [Coding("lut", table_set, lut_indexes(grid, self.block.truth_params), symbols),
                Coding("switch", switch_set, idx.flat_table_indexes(), symbols)]

    def training_symbols(self):
        return self.train_block.residuals


class DynamicGgm(Workload):
    """Per-element tables: model evaluation and table construction dominate."""

    name = "dynamic-ggm"
    backends = ("dynamic",)
    element_set = None  # the probe's per-element tables as one table set

    def setup(self, tr):
        self.block, self.oracle = self.make_block(tr, self.size["dynamic"], self.seed)

    def run_pass(self, tr, gate, sample):
        dynamic_round_trip(gate, tr, sample, "dynamic", self.block, self.oracle)

    def codings(self):
        """The per-element tables of the probe, as one table set indexed 0..n-1."""
        if self.element_set is None:
            radii, freqs = self.windows
            tables = [ct.QuantizedCdfTable(offset=-int(r), cumulative=np.concatenate([[0], np.cumsum(f)]))
                      for r, f in zip(radii, freqs)]
            self.element_set = ct.CdfTableSet(tables, {"family": "ggm"})
        table_set = self.element_set
        symbols = self.block.residuals.ravel()[:len(table_set)]
        return [Coding("dynamic", table_set, np.arange(len(table_set)), symbols)]


class TrainGgm(Workload):
    """A fixed training schedule for three predictor modes, then one coding each."""

    name = "train-ggm"
    backends = ("switch",)
    schedule_modes = tuple(MODES)

    def setup(self, tr):
        self.block, self.oracle = self.make_block(tr, self.size["train"], self.seed)

    def run_pass(self, tr, gate, sample):
        for mode in MODES:
            out = gated_train(tr, gate, mode, self.block, self.size["train_epochs"], self.seed)
            if out is None:
                continue
            result, tables = out
            self.trained[mode] = out
            if MODES[mode]["predictor_mode"] == "calibration-curve":
                curve = (result.predictor["a"], result.predictor["c"])

                def make_indexes(curve=curve):
                    return curve_indexes(tr, curve, self.block.side_features)
            else:
                def make_indexes(grid=result.indexes):
                    return grid
            switch_round_trip(gate, tr, sample, mode, self.block, tables, make_indexes, self.oracle)
            sample.fingerprints[f"{mode}.tables"] = sha256(ct.serialize_table_set(tables))

    def codings(self):
        symbols = self.block.residuals.ravel()
        return [Coding(mode, tables, result.indexes.flat_table_indexes(), symbols)
                for mode, (result, tables) in self.trained.items()]

    def training_symbols(self):
        return self.block.residuals


class EscapeGm(Workload):
    """Sources far wider than the LUT: the Exp-Golomb bypass path dominates."""

    name = "escape-gm"
    family = "gm"
    backends = ("lut",)

    def setup(self, tr):
        self.block, self.oracle = self.make_block(tr, self.size["escape"], self.seed)
        with tr.span("cdf_tables.build_lut"):
            self.lut = ct.build_lut_gm(LUT_GM)

    def run_pass(self, tr, gate, sample):
        table_set, grid = self.lut
        lut_round_trip(gate, tr, sample, "lut", self.block, grid, table_set, self.oracle)
        sample.fingerprints["lut.tables"] = sha256(ct.serialize_table_set(table_set))

    def codings(self):
        table_set, grid = self.lut
        return [Coding("lut", table_set, lut_indexes(grid, self.block.truth_params),
                       self.block.residuals.ravel())]


WORKLOADS = {w.name: w for w in (SharedGgm, DynamicGgm, TrainGgm, EscapeGm)}
