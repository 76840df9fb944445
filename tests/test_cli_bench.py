"""End-to-end tests for the command-line bench.

Every subcommand is driven the way a shell would: build -> train -> encode
-> decode -> verify -> bench -> report, all inside fresh temp directories.
Commands run in-process through main(argv) so the suite stays fast; one
test goes through a real subprocess to cover the module entry point.
"""

import argparse
import ast
import csv
import io
import json
import struct
import subprocess
import sys
import time
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import swpc.cdf_tables as ct
import swpc.cli_bench as cli
import swpc.coding_backends as cb
import swpc.rans_coder as rc
import swpc.synth_source as ss
from swpc.prob_models import FAMILY_PARAMS
from wire_v1 import serialize_v1


def run_cli(*argv) -> int:
    """Invoke main; argparse bails via SystemExit, our paths return."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code or 0)


def write_source(path: Path, **kwargs) -> Path:
    path.write_text(ss.SourceSpec(**kwargs).to_json())
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def trained(workdir):
    """Shared switch artifact: ggm priors plus its training block."""
    prefix = workdir / "main" / "p8"
    block = workdir / "main_block.bin"
    code = run_cli("train", "--family", "ggm", "--m", 8, "--epochs", 120,
                   "--seed", 7, "--out", prefix, "--save-block", block)
    assert code == 0
    return {"prefix": prefix, "block": block}


@pytest.fixture(scope="module")
def skip_trained(workdir):
    """Switch artifact trained with the skip head on a peaky source."""
    src = write_source(workdir / "skip_src.json", family="gm",
                       shape=(4, 32, 32), seed=41, sigma_range=(0.11, 4.0))
    prefix = workdir / "skip" / "sk"
    block = workdir / "skip_block.bin"
    code = run_cli("train", "--family", "gm", "--m", 3, "--epochs", 160,
                   "--seed", 41, "--skip", "--lambda", 4.0, "--source", src,
                   "--out", prefix, "--save-block", block)
    assert code == 0
    return {"prefix": prefix, "block": block}


@pytest.fixture(scope="module")
def free_trained(workdir):
    """Free-index switch artifact: each element's table comes from its symbol."""
    src = write_source(workdir / "free_src.json", family="gm", shape=(2, 16, 16), seed=17,
                       sigma_range=(0.3, 8.0))
    prefix = workdir / "free" / "fi"
    block = workdir / "free_block.bin"
    code = run_cli("train", "--family", "gm", "--m", 4, "--epochs", 30, "--seed", 17,
                   "--mode", "free-index", "--source", src, "--out", prefix,
                   "--save-block", block)
    assert code == 0
    return {"prefix": prefix, "block": block}


@pytest.fixture(scope="module")
def hyper_trained(workdir):
    """Switch artifact of M=4 gm priors whose sidecar selects a prior per
    hyperlatent channel, with its z block."""
    prefix = workdir / "hyper" / "hy"
    assert run_cli("train", "--family", "gm", "--m", 4, "--epochs", 40, "--seed", 33,
                   "--reuse-hyper", "--out", prefix) == 0
    return {"prefix": prefix, "block": Path(f"{prefix}.z.bin")}


@pytest.fixture(scope="module")
def two_dim_free(workdir):
    """A 2 x 3 gmm free-index artifact and its block, encoded once with the
    index file the decoder reads."""
    src = write_source(workdir / "g23_src.json", family="gmm", shape=(2, 16, 16), seed=23,
                       mode="nonzero-center", comp_mean_range=(-6.0, 6.0),
                       comp_sigma_range=(0.2, 3.0))
    prefix, block = workdir / "g23" / "g23", workdir / "g23_block.bin"
    assert run_cli("train", "--family", "gmm", "--two-dim", 2, 3, "--epochs", 20, "--seed", 23,
                   "--source", src, "--out", prefix, "--save-block", block) == 0
    stream, indexes = workdir / "g23.bits", workdir / "g23_i.npz"
    args = ["--backend", "switch", "--trained", prefix, "--indexes", indexes]
    assert run_cli("encode", "--block", block, *args, "--out", stream) == 0
    return {"prefix": prefix, "block": block, "stream": stream, "indexes": indexes}


def patched_truth(data: bytes, name: str, index: tuple, value: float) -> bytes:
    """A block container with one f64 of a truth array replaced.  The truth
    arrays end the container, in FAMILY_PARAMS order (see block_to_bytes)."""
    truth = ss.block_from_bytes(data).truth_params
    names = FAMILY_PARAMS[truth["family"]]
    pos = len(data) - 8 * sum(truth[key].size for key in names[names.index(name):])
    pos += 8 * int(np.ravel_multi_index(index, truth[name].shape))
    return data[:pos] + struct.pack("<d", value) + data[pos + 8:]


def derived_skip_mask(prefix, block: cb.LatentBlock) -> cb.SkipMask:
    """The mask a calibration-curve skip artifact gives a block: its curve's
    index grid with the sidecar's skipped tables."""
    sidecar = json.loads(Path(f"{prefix}.json").read_text())
    a, c = sidecar["predictor"]["a"], sidecar["predictor"]["c"]
    grid = cb.IndexGrid.from_continuous(a * cb.log_features(block.side_features) + c,
                                        sidecar["dims"][0])
    return cb.SkipMask.for_tables(grid, sidecar["skip"]["tables"])


class TestBuildTables:
    def test_gm_count(self, tmp_path, capsys):
        out = tmp_path / "gm.tables"
        assert run_cli("build-tables", "--family", "gm", "--count", 24,
                       "--out", out) == 0
        table_set = ct.deserialize_table_set(out.read_bytes())
        assert len(table_set) == 24
        assert table_set.meta["kind"] == "lut"
        assert "24" in capsys.readouterr().out

    def test_ggm_grid(self, tmp_path):
        out = tmp_path / "ggm.tables"
        assert run_cli("build-tables", "--family", "ggm", "--beta", 4,
                       "--alpha", 6, "--out", out) == 0
        assert len(ct.deserialize_table_set(out.read_bytes())) == 24

    def test_count_one_is_usage_error(self, tmp_path):
        assert run_cli("build-tables", "--family", "gm", "--count", 1,
                       "--out", tmp_path / "x") == 2

    def test_grid_axis_one_is_usage_error(self, tmp_path):
        assert run_cli("build-tables", "--family", "ggm", "--beta", 1,
                       "--alpha", 6, "--out", tmp_path / "x") == 2

    def test_missing_family_is_usage_error(self, tmp_path):
        assert run_cli("build-tables", "--out", tmp_path / "x") == 2


class TestTrain:
    def test_writes_tables_and_sidecar(self, trained):
        prefix = trained["prefix"]
        table_set = ct.deserialize_table_set(
            Path(f"{prefix}.tables").read_bytes())
        assert len(table_set) == 8
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        assert sidecar["dims"] == [8]
        assert sidecar["predictor"]["mode"] == "calibration-curve"
        assert len(sidecar["loss_trace_tail"]) == 10
        assert sidecar["final_loss"] == sidecar["loss_trace_tail"][-1]

    def test_prints_loss_and_trace(self, tmp_path, capsys):
        assert run_cli("train", "--family", "gm", "--m", 2, "--epochs", 40,
                       "--seed", 5, "--out", tmp_path / "t") == 0
        out = capsys.readouterr().out
        assert "loss trace:" in out
        assert "final loss:" in out

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("train", "--family", "gm", "--m", 3,
                           "--epochs", 60, "--seed", 9,
                           "--out", tmp_path / name) == 0
        assert (tmp_path / "a.tables").read_bytes() == \
               (tmp_path / "b.tables").read_bytes()
        assert (tmp_path / "a.json").read_text() == \
               (tmp_path / "b.json").read_text()

    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch):
        assert run_cli("train", "--family", "gm", "--m", 2, "--epochs", 40,
                       "--seed", 17, "--out", tmp_path / "flag") == 0
        monkeypatch.setenv("SWPC_SEED", "17")
        assert run_cli("train", "--family", "gm", "--m", 2, "--epochs", 40,
                       "--out", tmp_path / "env") == 0
        assert (tmp_path / "flag.tables").read_bytes() == \
               (tmp_path / "env.tables").read_bytes()

    def test_env_seed_ignored_when_seed_given(self, tmp_path, monkeypatch):
        # SWPC_SEED is read only when neither --seed nor a config seed is given
        monkeypatch.setenv("SWPC_SEED", "not-a-number")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        for name, seed in [("flag", ("--seed", 4)), ("config", ("--config", cfg))]:
            assert run_cli("train", "--family", "gm", "--m", 2, "--epochs", 20, *seed,
                           "--out", tmp_path / name) == 0
            assert json.loads((tmp_path / f"{name}.json").read_text())["seed"] == 4

    def test_divergence_exits_3_with_trace(self, tmp_path, capsys):
        code = run_cli("train", "--family", "gm", "--m", 4, "--epochs", 30,
                       "--lr", 1e6, "--seed", 2, "--out", tmp_path / "boom")
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "loss trace:" in err

    def test_ggm_divergence_exits_3_with_trace(self, tmp_path, capsys):
        code = run_cli("train", "--family", "ggm", "--m", 4, "--epochs", 5,
                       "--lr", 1e6, "--out", tmp_path / "boom")
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "loss trace:" in err and "error:" not in err, err

    @pytest.mark.parametrize("flag, value", [
        ("--lr", -1), ("--lr", 0), ("--lr", "nan"), ("--lambda", "nan")])
    def test_step_size_and_lambda_are_checked(self, tmp_path, capsys, flag, value):
        code = run_cli("train", "--family", "ggm", "--m", 4, "--epochs", 5,
                       flag, value, "--out", tmp_path / "bad")
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: ") == 1, err
        assert f"error: {flag[2:]}" in err, err  # named before any training step
        assert not (tmp_path / "bad.tables").exists()

    def test_topk_flag_trains_as_the_config_key_does(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topk": 2}))
        base = ["train", "--family", "gm", "--m", 4, "--epochs", 20, "--seed", 6]
        assert run_cli(*base, "--topk", 2, "--out", tmp_path / "flag") == 0
        assert run_cli(*base, "--config", cfg, "--out", tmp_path / "config") == 0
        assert run_cli(*base, "--out", tmp_path / "full") == 0
        tables = {name: (tmp_path / f"{name}.tables").read_bytes()
                  for name in ("flag", "config", "full")}
        assert tables["flag"] == tables["config"] != tables["full"]

    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 5, "epochs": 40, "seed": 3}))
        assert run_cli("train", "--family", "gm", "--config", cfg,
                       "--out", tmp_path / "c") == 0
        sidecar = json.loads((tmp_path / "c.json").read_text())
        assert sidecar["dims"] == [5] and sidecar["epochs"] == 40
        assert run_cli("train", "--family", "gm", "--config", cfg, "--m", 2,
                       "--out", tmp_path / "d") == 0
        sidecar = json.loads((tmp_path / "d.json").read_text())
        assert sidecar["dims"] == [2] and sidecar["epochs"] == 40

    def test_two_dim_with_calibration_is_usage_error(self, tmp_path):
        assert run_cli("train", "--family", "gmm", "--two-dim", 3, 2,
                       "--mode", "calibration-curve", "--epochs", 20,
                       "--out", tmp_path / "x") == 2

    def test_skip_sidecar_records_mask(self, skip_trained):
        sidecar = json.loads(
            Path(f"{skip_trained['prefix']}.json").read_text())
        entry = sidecar["skip"]
        assert 0.0 < entry["ratio"] < 1.0
        assert all(isinstance(t, int) and 0 <= t < 3 for t in entry["tables"])
        block = ss.block_from_bytes(skip_trained["block"].read_bytes())
        assert derived_skip_mask(skip_trained["prefix"], block).skip_ratio == entry["ratio"]

    def test_skip_at_one_epoch_writes_skip_entry(self, tmp_path):
        # skip is on whatever the epoch count; it once ran epochs // 2 = 0 rounds
        src = write_source(tmp_path / "src.json", family="gm", shape=(1, 16, 16), seed=41,
                           sigma_range=(0.11, 4.0))
        assert run_cli("train", "--family", "gm", "--m", 3, "--epochs", 1, "--seed", 41,
                       "--skip", "--lambda", 4.0, "--source", src,
                       "--out", tmp_path / "one") == 0
        entry = json.loads((tmp_path / "one.json").read_text())["skip"]
        assert entry is not None and isinstance(entry["tables"], list)

    def test_hyper_sidecar_and_z_block(self, tmp_path):
        prefix = tmp_path / "hy"
        assert run_cli("train", "--family", "gm", "--m", 5, "--epochs", 80,
                       "--seed", 33, "--reuse-hyper", "--out", prefix) == 0
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        z = ss.block_from_bytes(Path(f"{prefix}.z.bin").read_bytes())
        selected = sidecar["hyper"]["selected"]
        assert len(selected) == z.channels
        assert all(1 <= s <= 5 for s in selected)


class TestCodeRoundTrips:
    def test_dynamic(self, trained, tmp_path):
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "dynamic", "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side",
                       trained["block"], "--backend", "dynamic",
                       "--out", dec) == 0
        assert run_cli("verify", "--block", trained["block"],
                       "--decoded", dec) == 0

    def test_dynamic_with_a_fixed_radius(self, tmp_path):
        block = tmp_path / "block.bin"
        spec = ss.SourceSpec(family="ggm", shape=(2, 16, 16), seed=8)
        block.write_bytes(ss.block_to_bytes(ss.gen_block(spec)))
        default = tmp_path / "default.bits"
        assert run_cli("encode", "--block", block, "--backend", "dynamic", "--out", default) == 0
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        assert run_cli("encode", "--block", block, "--backend", "dynamic", "--radius", 20,
                       "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", block, "--backend", "dynamic",
                       "--radius", 20, "--out", dec) == 0
        assert run_cli("verify", "--block", block, "--decoded", dec) == 0
        assert stream.read_bytes() != default.read_bytes()

    def test_lut(self, trained, tmp_path):
        tables = tmp_path / "ggm.tables"
        assert run_cli("build-tables", "--family", "ggm", "--beta", 4,
                       "--alpha", 8, "--out", tables) == 0
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "lut", "--tables", tables, "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side",
                       trained["block"], "--backend", "lut", "--tables",
                       tables, "--out", dec) == 0
        assert run_cli("verify", "--block", trained["block"],
                       "--decoded", dec) == 0

    def test_mid_size_lut_block_interleaves_and_reads_single_state_streams(self, tmp_path,
                                                                          monkeypatch):
        tables, block = tmp_path / "ggm.tables", tmp_path / "b.bin"
        assert run_cli("build-tables", "--family", "ggm", "--beta", 5, "--alpha", 10,
                       "--out", tables) == 0
        # 98,304 elements of the default source's ranges: 30 lanes' worth of
        # bits, between the floor of 24 lanes and the old floor of 64
        spec = ss.SourceSpec(family="ggm", shape=(6, 128, 128), seed=3,
                             beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0))
        block.write_bytes(ss.block_to_bytes(ss.gen_block(spec)))
        lut = ("--backend", "lut", "--tables", tables)
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        assert run_cli("encode", "--block", block, *lut, "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", block, *lut, "--out", dec) == 0
        assert run_cli("verify", "--block", block, "--decoded", dec) == 0
        # symbol count, ANS length, then the lane count
        assert 24 <= int.from_bytes(stream.read_bytes()[8:12], "little") < 64
        # the same block coded on one state, as a floor of 64 lanes wrote it
        with monkeypatch.context() as patch:
            patch.setattr(rc, "_lane_count", lambda interval_bits, bypass_bits: 1)
            single = tmp_path / "single.bits"
            assert run_cli("encode", "--block", block, *lut, "--out", single) == 0
        assert int.from_bytes(single.read_bytes()[8:12], "little") >= 1 << 16  # a final state
        old_dec = tmp_path / "old.bin"
        assert run_cli("decode", "--stream", single, "--side", block, *lut,
                       "--out", old_dec) == 0
        assert run_cli("verify", "--block", block, "--decoded", old_dec) == 0
        assert np.array_equal(ss.block_from_bytes(old_dec.read_bytes()).residuals,
                              ss.block_from_bytes(dec.read_bytes()).residuals)

    def test_switch_with_report(self, trained, tmp_path):
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        report, idx = tmp_path / "r.json", tmp_path / "i.npz"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", trained["prefix"],
                       "--out", stream, "--report", report,
                       "--indexes", idx) == 0
        entry = json.loads(report.read_text())
        block = ss.block_from_bytes(trained["block"].read_bytes())
        assert entry["table_count"] == 8
        assert entry["symbols_coded"] == block.n_elements
        assert entry["total_bits"] == stream.stat().st_size * 8
        assert run_cli("decode", "--stream", stream, "--side",
                       trained["block"], "--backend", "switch", "--trained",
                       trained["prefix"], "--indexes", idx,
                       "--out", dec) == 0
        assert run_cli("verify", "--block", trained["block"],
                       "--decoded", dec) == 0

    def test_switch_skip_mask(self, skip_trained, tmp_path):
        stream, dec = tmp_path / "s.bits", tmp_path / "d.bin"
        report = tmp_path / "r.json"
        assert run_cli("encode", "--block", skip_trained["block"],
                       "--backend", "switch", "--trained",
                       skip_trained["prefix"], "--use-skip-mask",
                       "--out", stream, "--report", report) == 0
        entry = json.loads(report.read_text())
        assert 0.0 < entry["skip_ratio"] < 1.0
        assert entry["symbols_coded"] < entry["symbols_coded"] + entry["symbols_skipped"]
        assert run_cli("decode", "--stream", stream, "--side",
                       skip_trained["block"], "--backend", "switch",
                       "--trained", skip_trained["prefix"],
                       "--use-skip-mask", "--out", dec) == 0
        ref = ss.block_from_bytes(skip_trained["block"].read_bytes())
        out = ss.block_from_bytes(dec.read_bytes())
        kept = derived_skip_mask(skip_trained["prefix"], ref).hard == 1
        assert entry["symbols_coded"] == int(kept.sum())
        assert (ref.residuals[kept] == out.residuals[kept]).all()
        assert (out.residuals[~kept] == 0).all()

    def test_skip_artifact_codes_a_block_of_another_shape(self, skip_trained, tmp_path):
        # the mask follows the index grid, so it needs no block of the training shape
        other = ss.gen_block(ss.SourceSpec(family="gm", shape=(3, 20, 24), seed=42,
                                           sigma_range=(0.11, 4.0)))
        kept = derived_skip_mask(skip_trained["prefix"], other).hard == 1
        assert 0 < kept.sum() < other.n_elements
        # zero the skipped residuals, so that decode gives back the whole block
        zeroed = cb.LatentBlock(np.where(kept, other.residuals, 0), other.means,
                                other.side_features, truth_params=other.truth_params)
        block, stream, dec = tmp_path / "b.bin", tmp_path / "s.bits", tmp_path / "d.bin"
        block.write_bytes(ss.block_to_bytes(zeroed))
        args = ["--backend", "switch", "--trained", skip_trained["prefix"], "--use-skip-mask"]
        assert run_cli("encode", "--block", block, *args, "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", block, *args,
                       "--out", dec) == 0
        assert run_cli("verify", "--block", block, "--decoded", dec) == 0

    def test_two_dim_skip_set_round_trips_with_mask(self, tmp_path):
        src = write_source(tmp_path / "src.json", family="gmm", shape=(2, 16, 16), seed=29,
                           mode="nonzero-center", comp_mean_range=(-6.0, 6.0),
                           comp_sigma_range=(0.2, 3.0))
        prefix, block = tmp_path / "g2", tmp_path / "b.bin"
        assert run_cli("train", "--family", "gmm", "--two-dim", 3, 3, "--epochs", 40,
                       "--seed", 29, "--skip", "--lambda", 0.5, "--source", src,
                       "--out", prefix, "--save-block", block) == 0
        entry = json.loads(Path(f"{prefix}.json").read_text())["skip"]
        assert all(0 <= t < 9 for t in entry["tables"])
        stream, dec, report = tmp_path / "s.bits", tmp_path / "d.bin", tmp_path / "r.json"
        args = ["--backend", "switch", "--trained", prefix, "--use-skip-mask",
                "--indexes", tmp_path / "i.npz"]
        assert run_cli("encode", "--block", block, *args, "--out", stream,
                       "--report", report) == 0
        assert json.loads(report.read_text())["skip_ratio"] == entry["ratio"]
        assert run_cli("decode", "--stream", stream, "--side", block, *args,
                       "--out", dec) == 0
        ref = ss.block_from_bytes(block.read_bytes())
        out = ss.block_from_bytes(dec.read_bytes())
        # the encoder assigns each element its cheapest table; the decoder
        # reads that grid from --indexes
        table_set = ct.deserialize_table_set(Path(f"{prefix}.tables").read_bytes())
        grid = cli._argmin_index_grid(ref, table_set)
        kept = cb.SkipMask.for_tables(grid, entry["tables"]).hard == 1
        assert 0 < kept.sum() < ref.n_elements
        assert (ref.residuals[kept] == out.residuals[kept]).all()
        assert (out.residuals[~kept] == 0).all()

    def test_two_dim_index_file_holds_one_flat_axis(self, two_dim_free, tmp_path):
        # one one-based index per element over all 2 x 3 tables, the encoder's
        # cheapest table plus 1
        data = np.load(two_dim_free["indexes"])
        assert list(data) == ["continuous"]
        ref = ss.block_from_bytes(two_dim_free["block"].read_bytes())
        table_set = ct.deserialize_table_set(Path(f"{two_dim_free['prefix']}.tables").read_bytes())
        flat = cli._argmin_index_grid(ref, table_set).flat_table_indexes()
        assert data["continuous"].shape == ref.shape
        assert data["continuous"].ravel().tolist() == (flat + 1).tolist()
        assert flat.min() >= 0 and flat.max() < 6
        dec = tmp_path / "d.bin"
        assert run_cli("decode", "--stream", two_dim_free["stream"], "--side", two_dim_free["block"],
                       "--backend", "switch", "--trained", two_dim_free["prefix"],
                       "--indexes", two_dim_free["indexes"], "--out", dec) == 0
        assert run_cli("verify", "--block", two_dim_free["block"], "--decoded", dec) == 0

    def test_free_index_decode_reads_only_the_index_file(self, free_trained, tmp_path):
        # the side block's residuals are zeroed: a decoder that rebuilt the
        # grid from them would pick other tables and fail to verify
        ref = ss.block_from_bytes(free_trained["block"].read_bytes())
        side = tmp_path / "side.bin"
        side.write_bytes(ss.block_to_bytes(cb.LatentBlock(
            np.zeros(ref.shape, np.int64), ref.means, ref.side_features, ref.truth_params)))
        stream, idx, dec = tmp_path / "s.bits", tmp_path / "i.npz", tmp_path / "d.bin"
        args = ["--backend", "switch", "--trained", free_trained["prefix"], "--indexes", idx]
        assert run_cli("encode", "--block", free_trained["block"], *args, "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", side, *args, "--out", dec) == 0
        assert run_cli("verify", "--block", free_trained["block"], "--decoded", dec) == 0

    def test_all_ones_mask_payload_identical_to_no_mask(self, trained,
                                                        tmp_path):
        prefix = trained["prefix"]
        clone = tmp_path / "ones"
        clone_tables = Path(f"{clone}.tables")
        clone_tables.write_bytes(Path(f"{prefix}.tables").read_bytes())
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        sidecar["skip"] = {"ratio": 0.0, "tables": []}
        Path(f"{clone}.json").write_text(json.dumps(sidecar))
        plain, masked = tmp_path / "plain.bits", tmp_path / "ones.bits"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", prefix, "--out", plain) == 0
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", clone, "--use-skip-mask",
                       "--out", masked) == 0
        assert plain.read_bytes() == masked.read_bytes()

    def test_hyper_on_a_two_dim_set_codes_its_flat_tables(self, tmp_path):
        # a 2-D set's hyper selections are one-based flat tables over all M x N
        prefix = tmp_path / "g23"
        assert run_cli("train", "--family", "gmm", "--two-dim", 2, 3, "--epochs", 10,
                       "--seed", 3, "--reuse-hyper", "--out", prefix) == 0
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        selected = [6, 1, 4, 3]
        Path(f"{prefix}.json").write_text(json.dumps({**sidecar, "hyper": {"selected": selected}}))
        z_path, stream, dec = Path(f"{prefix}.z.bin"), tmp_path / "z.bits", tmp_path / "z.bin"
        args = ["--backend", "switch", "--trained", prefix, "--hyper"]
        assert run_cli("encode", "--block", z_path, *args, "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", z_path, *args, "--out", dec) == 0
        assert run_cli("verify", "--block", z_path, "--decoded", dec) == 0
        z = ss.block_from_bytes(z_path.read_bytes())
        tables = np.broadcast_to(np.array(selected)[:, None, None] - 1, z.shape)
        grid = cb.IndexGrid.from_tables(tables, 6, z.shape)
        table_set = ct.deserialize_table_set(Path(f"{prefix}.tables").read_bytes())
        assert stream.read_bytes() == cb.backend_switch(z, grid, None, table_set)[0].to_bytes()

    def test_hyper_reuses_main_tables(self, tmp_path):
        prefix = tmp_path / "hy"
        assert run_cli("train", "--family", "gm", "--m", 5, "--epochs", 80,
                       "--seed", 33, "--reuse-hyper", "--out", prefix) == 0
        z_path = Path(f"{prefix}.z.bin")
        stream, dec = tmp_path / "z.bits", tmp_path / "z.bin"
        assert run_cli("encode", "--block", z_path, "--backend", "switch",
                       "--trained", prefix, "--hyper", "--out", stream) == 0
        assert run_cli("decode", "--stream", stream, "--side", z_path,
                       "--backend", "switch", "--trained", prefix,
                       "--hyper", "--out", dec) == 0
        assert run_cli("verify", "--block", z_path, "--decoded", dec) == 0
        table_set = ct.deserialize_table_set(
            Path(f"{prefix}.tables").read_bytes())
        assert len(table_set) == 5  # no extra tables for the z block

    def test_coarse_lut_never_beats_fine_lut(self, trained, tmp_path):
        sizes = {}
        for count in (5, 160):
            tables = tmp_path / f"gm{count}.tables"
            assert run_cli("build-tables", "--family", "ggm", "--beta", 2,
                           "--alpha", count, "--out", tables) == 0
            stream = tmp_path / f"{count}.bits"
            assert run_cli("encode", "--block", trained["block"],
                           "--backend", "lut", "--tables", tables,
                           "--out", stream) == 0
            sizes[count] = stream.stat().st_size
        assert sizes[5] >= sizes[160]


class TestFailureExits:
    def test_corrupt_stream_exits_4(self, trained, tmp_path):
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "dynamic", "--out", stream) == 0
        (tmp_path / "cut.bits").write_bytes(stream.read_bytes()[:24])
        assert run_cli("decode", "--stream", tmp_path / "cut.bits",
                       "--side", trained["block"], "--backend", "dynamic",
                       "--out", tmp_path / "d.bin") == 4

    def test_dynamic_symbol_count_mismatch_exits_4(self, tmp_path):
        shape = (1, 2, 2)
        block = cb.LatentBlock(np.array([[[1, -2], [0, 3]]], np.int64), np.zeros(shape),
                               np.ones(shape), truth_params={"family": "gm",
                                                             "sigma": np.full(shape, 2.0)})
        (tmp_path / "b.bin").write_bytes(ss.block_to_bytes(block))
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", tmp_path / "b.bin", "--backend", "dynamic",
                       "--out", stream) == 0
        patched = rc.Bitstream.from_bytes(stream.read_bytes()).payload
        (tmp_path / "nine.bits").write_bytes(rc.Bitstream(patched, 9).to_bytes())
        assert run_cli("decode", "--stream", tmp_path / "nine.bits", "--side",
                       tmp_path / "b.bin", "--backend", "dynamic",
                       "--out", tmp_path / "d.bin") == 4

    def test_escape_beyond_int64_exits_4(self, tmp_path):
        tables = tmp_path / "gm4.tables"
        assert run_cli("build-tables", "--family", "gm", "--count", 4,
                       "--out", tables) == 0
        # sigma 0.11 is the first grid sample, so the element codes with table 0
        shape = (1, 1, 1)
        side = cb.LatentBlock(np.zeros(shape, np.int64), np.zeros(shape), np.ones(shape),
                              truth_params={"family": "gm", "sigma": np.full(shape, 0.11)})
        (tmp_path / "side.bin").write_bytes(ss.block_to_bytes(side))
        payload = rc.encode([1000], [0], ct.build_lut_gm(4)[0]).payload
        ans_end = 4 + int.from_bytes(payload[:4], "little")
        crafted = payload[:ans_end] + bytes(7) + b"\x01" + b"\xff" * 10
        (tmp_path / "s.bits").write_bytes(rc.Bitstream(crafted, 1).to_bytes())
        assert run_cli("decode", "--stream", tmp_path / "s.bits", "--side",
                       tmp_path / "side.bin", "--backend", "lut", "--tables",
                       tables, "--out", tmp_path / "d.bin") == 4

    @pytest.mark.parametrize("blob", [b"5", b"null", b'{"kind": "lut"}'],
                             ids=["number-blob", "null-blob", "lut-without-axes"])
    def test_bad_table_metadata_exits_4_both_ways(self, blob, tmp_path, capsys):
        shape = (1, 1, 2)
        side = cb.LatentBlock(np.array([[[0, 3]]], np.int64), np.zeros(shape), np.ones(shape),
                              truth_params={"family": "gm", "sigma": np.full(shape, 0.11)})
        (tmp_path / "side.bin").write_bytes(ss.block_to_bytes(side))
        good = ct.build_lut_gm(4)[0]
        stream = rc.encode([0, 3], [0, 0], good)
        (tmp_path / "s.bits").write_bytes(stream.to_bytes())
        # the blob goes inside the checksum, so the metadata itself is what fails
        body = ct.serialize_table_set(ct.CdfTableSet(good.tables, {"family": "gm"}))[:-4]
        body += len(blob).to_bytes(4, "little") + blob
        tables = tmp_path / "bad.tables"
        tables.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        assert run_cli("encode", "--block", tmp_path / "side.bin", "--backend", "lut",
                       "--tables", tables, "--out", tmp_path / "e.bits") == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "e.bits").exists()
        assert run_cli("decode", "--stream", tmp_path / "s.bits", "--side",
                       tmp_path / "side.bin", "--backend", "lut", "--tables",
                       tables, "--out", tmp_path / "d.bin") == 4

    def test_corrupted_bypass_tail_exits_0_or_4(self, tmp_path):
        tables, block = tmp_path / "gm.tables", tmp_path / "b.bin"
        assert run_cli("build-tables", "--family", "gm", "--count", 40, "--out", tables) == 0
        # sigma far beyond the LUT's widest (60): most symbols escape
        spec = ss.SourceSpec(family="gm", shape=(1, 64, 64), seed=9, sigma_range=(100.0, 1000.0))
        block.write_bytes(ss.block_to_bytes(ss.gen_block(spec)))
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", block, "--backend", "lut", "--tables", tables,
                       "--out", stream) == 0
        data = stream.read_bytes()
        tail_at = 8 + int.from_bytes(data[4:8], "little")  # symbol count, ANS length, ANS
        assert len(data) - tail_at > 4096
        rng = np.random.default_rng(9)
        cuts = sorted({*rng.integers(tail_at, len(data), 24).tolist(),
                       *range(len(data) - 12, len(data))})
        cases = [data[:k] for k in cuts]
        for k in [tail_at, len(data) - 1, *rng.integers(tail_at, len(data), 30).tolist()]:
            for flip in (0xFF, int(rng.integers(1, 256))):
                cases.append(data[:k] + bytes([data[k] ^ flip]) + data[k + 1:])
        codes = []
        t0 = time.perf_counter()
        for bad in cases:
            (tmp_path / "bad.bits").write_bytes(bad)
            codes.append(run_cli("decode", "--stream", tmp_path / "bad.bits", "--side", block,
                                 "--backend", "lut", "--tables", tables,
                                 "--out", tmp_path / "d.bin"))
        assert time.perf_counter() - t0 < 60.0  # all cases together; about 1.5 s on 2 vCPUs
        assert set(codes) <= {0, 4}
        assert codes[: len(cuts)] == [4] * len(cuts)  # every cut loses part of a record

    def test_corrupted_interleaved_escape_stream_exits_0_or_4(self, tmp_path, capsys):
        tables, block = tmp_path / "gm.tables", tmp_path / "b.bin"
        assert run_cli("build-tables", "--family", "gm", "--count", 40, "--out", tables) == 0
        # sigma far beyond the LUT's widest: the bypass bits buy the block lanes
        spec = ss.SourceSpec(family="gm", shape=(2, 128, 128), seed=12,
                             sigma_range=(100.0, 1000.0))
        block.write_bytes(ss.block_to_bytes(ss.gen_block(spec)))
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", block, "--backend", "lut", "--tables", tables,
                       "--out", stream) == 0
        data = stream.read_bytes()
        # symbol count, ANS length, then the lane count, lane states and ANS words
        lanes = int.from_bytes(data[8:12], "little")
        assert 64 <= lanes < 1 << 16
        words_at, tail_at = 12 + 4 * lanes, 8 + int.from_bytes(data[4:8], "little")
        assert tail_at - words_at > 4096 and len(data) - tail_at > 4096
        rng = np.random.default_rng(12)
        sections = [range(8, 12), range(12, words_at), range(words_at, tail_at),
                    range(tail_at, len(data))]
        flips = [8, 9, 10, 11, 12, words_at - 1, words_at, tail_at - 1, tail_at, len(data) - 1]
        for section in sections:
            flips += rng.integers(section.start, section.stop, 12).tolist()
        cases = [data[:k] + bytes([data[k] ^ int(rng.integers(1, 256))]) + data[k + 1:]
                 for k in flips]
        cuts = [12, words_at, tail_at, len(data) - 1,
                *rng.integers(8, len(data), 8).tolist()]
        cases += [data[:k] for k in cuts]
        capsys.readouterr()
        codes = []
        for bad in cases:
            (tmp_path / "bad.bits").write_bytes(bad)
            codes.append(run_cli("decode", "--stream", tmp_path / "bad.bits", "--side", block,
                                 "--backend", "lut", "--tables", tables,
                                 "--out", tmp_path / "d.bin"))
            err = capsys.readouterr().err
            assert "Traceback" not in err, err
            assert codes[-1] == 0 or err.startswith("error: "), err
        assert set(codes) <= {0, 4}
        assert codes[-len(cuts):] == [4] * len(cuts)  # a cut loses words or records
        assert codes[:4].count(4) >= 3  # a changed lane count rarely still decodes

    @pytest.mark.parametrize("backend", ["dynamic", "switch", "switch-skip"])
    def test_corrupted_dynamic_and_switch_streams_exit_0_or_4(self, backend, skip_trained,
                                                             tmp_path, capsys):
        if backend == "dynamic":
            block = tmp_path / "b.bin"
            block.write_bytes(ss.block_to_bytes(ss.gen_block(ss.SourceSpec(
                family="gm", shape=(1, 16, 16), seed=13, sigma_range=(0.3, 40.0)))))
            args = ["--backend", "dynamic"]
        else:
            block = skip_trained["block"]
            args = ["--backend", "switch", "--trained", skip_trained["prefix"]]
            args += ["--use-skip-mask"] if backend == "switch-skip" else []
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", block, *args, "--out", stream) == 0
        data = stream.read_bytes()
        rng = np.random.default_rng(13)
        flips = [0, 3, 4, 8, len(data) - 1, *rng.integers(0, len(data), 40).tolist()]
        cases = [data[:k] + bytes([data[k] ^ (1 << int(rng.integers(8)))]) + data[k + 1:]
                 for k in flips]
        cuts = [0, 3, 4, 8, len(data) - 1, *rng.integers(0, len(data), 15).tolist()]
        cases += [data[:k] for k in cuts]
        capsys.readouterr()
        codes = []
        for bad in cases:
            (tmp_path / "bad.bits").write_bytes(bad)
            codes.append(run_cli("decode", "--stream", tmp_path / "bad.bits", "--side", block,
                                 *args, "--out", tmp_path / "d.bin"))
            err = capsys.readouterr().err
            assert "Traceback" not in err, err
            assert codes[-1] == 0 or err.startswith("error: "), err
        assert set(codes) <= {0, 4}
        assert codes[-len(cuts):] == [4] * len(cuts)  # a cut loses words or records

    def test_version_1_table_file_exits_4(self, tmp_path, capsys):
        # version 1 has no checksum, so a damaged file could load as a
        # different set: both ends refuse it rather than code with it
        table_set, grid = ct.build_lut_ggm(5, 10)
        block = ss.gen_block(ss.SourceSpec(family="ggm", shape=(1, 8, 8), seed=3))
        side, stream, tables = tmp_path / "b.bin", tmp_path / "s.bits", tmp_path / "v1.tables"
        side.write_bytes(ss.block_to_bytes(block))
        stream.write_bytes(cb.backend_lut(block, grid, table_set)[0].to_bytes())
        tables.write_bytes(serialize_v1(table_set))
        lut = ["--backend", "lut", "--tables", tables]
        capsys.readouterr()
        assert run_cli("encode", "--block", side, *lut, "--out", tmp_path / "e.bits") == 4
        assert run_cli("decode", "--stream", stream, "--side", side, *lut,
                       "--out", tmp_path / "d.bin") == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2, lines
        assert all(line.startswith("error: ") and "version 1 is no longer read" in line
                   for line in lines), lines
        assert not (tmp_path / "e.bits").exists() and not (tmp_path / "d.bin").exists()

    def test_corrupted_table_files_exit_4(self, trained, tmp_path, capsys):
        # a .tables file from build-tables and one from train, each with
        # seeded single bytes changed: decode reports the damage, exit 4
        lut_tables, block = tmp_path / "gm.tables", tmp_path / "b.bin"
        assert run_cli("build-tables", "--family", "gm", "--count", 8, "--out", lut_tables) == 0
        block.write_bytes(ss.block_to_bytes(ss.gen_block(
            ss.SourceSpec(family="gm", shape=(1, 16, 16), seed=3))))
        assert run_cli("encode", "--block", block, "--backend", "lut", "--tables", lut_tables,
                       "--out", tmp_path / "lut.bits") == 0
        assert run_cli("encode", "--block", trained["block"], "--backend", "switch",
                       "--trained", trained["prefix"], "--out", tmp_path / "switch.bits") == 0
        prefix = tmp_path / "bad"
        Path(f"{prefix}.json").write_bytes(Path(f"{trained['prefix']}.json").read_bytes())
        targets = [
            (lut_tables.read_bytes(), tmp_path / "bad.tables",
             ["--stream", tmp_path / "lut.bits", "--side", block, "--backend", "lut",
              "--tables", tmp_path / "bad.tables"]),
            (Path(f"{trained['prefix']}.tables").read_bytes(), Path(f"{prefix}.tables"),
             ["--stream", tmp_path / "switch.bits", "--side", trained["block"],
              "--backend", "switch", "--trained", prefix]),
        ]
        rng = np.random.default_rng(11)
        capsys.readouterr()
        for data, path, args in targets:
            positions = {0, 4, 6, 7, 11, len(data) - 5, len(data) - 1,
                         *rng.integers(0, len(data), 40).tolist()}
            for pos in sorted(positions):
                bad = bytearray(data)
                bad[pos] ^= int(rng.integers(1, 256))
                path.write_bytes(bytes(bad))
                code = run_cli("decode", *args, "--out", tmp_path / "d.bin")
                err = capsys.readouterr().err
                assert code == 4, (path.name, pos, err)
                assert err.startswith("error: ") and "Traceback" not in err, err

    def test_mismatched_table_set_exits_4(self, trained, tmp_path):
        idx = tmp_path / "i.npz"
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", trained["prefix"],
                       "--out", stream, "--indexes", idx) == 0
        other = tmp_path / "other"
        assert run_cli("train", "--family", "gm", "--m", 4, "--epochs", 40,
                       "--seed", 99, "--out", other) == 0
        assert run_cli("decode", "--stream", stream, "--side",
                       trained["block"], "--backend", "switch", "--trained",
                       other, "--indexes", idx,
                       "--out", tmp_path / "d.bin") == 4

    def test_verify_mismatch_exits_4(self, trained, tmp_path):
        block = ss.block_from_bytes(trained["block"].read_bytes())
        residuals = block.residuals.copy()
        residuals[0, 0, 0] += 1
        import swpc.coding_backends as cb
        tweaked = cb.LatentBlock(residuals, block.means, block.side_features,
                                 truth_params=block.truth_params)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(ss.block_to_bytes(tweaked))
        assert run_cli("verify", "--block", trained["block"],
                       "--decoded", bad) == 4

    @pytest.mark.parametrize("name, value", [("beta", np.nan), ("alpha", np.nan), ("alpha", 0.0),
                                             ("alpha", -1.0)],
                             ids=["beta-nan", "alpha-nan", "alpha-zero", "alpha-negative"])
    def test_invalid_lut_parameters_exit_2_on_encode_and_4_on_decode(self, name, value, trained,
                                                                      tmp_path, capsys):
        # a block container holds any f64 truth; NaN would snap to a table silently
        tables, stream = tmp_path / "ggm.tables", tmp_path / "s.bits"
        assert run_cli("build-tables", "--family", "ggm", "--beta", 5, "--alpha", 10,
                       "--out", tables) == 0
        assert run_cli("encode", "--block", trained["block"], "--backend", "lut",
                       "--tables", tables, "--out", stream) == 0
        bad = tmp_path / "bad.bin"
        bad.write_bytes(patched_truth(trained["block"].read_bytes(), name, (1, 2, 3), value))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("encode", "--block", bad, "--backend", "lut", "--tables", tables,
                           "--out", tmp_path / "e.bits") == 2
            assert run_cli("decode", "--stream", stream, "--side", bad, "--backend", "lut",
                           "--tables", tables, "--out", tmp_path / "d.bin") == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count(f"error: truth_params[{name!r}] must be") == 2, err

    @pytest.mark.parametrize("family, name, index, value, rule", [
        ("gm", "sigma", (0, 1, 2), -1.0, "be > 0"),
        ("gm", "sigma", (0, 1, 2), np.nan, "be finite"),
        ("ggm", "beta", (1, 0, 3), 0.0, "be > 0"),
        ("ggm", "alpha", (1, 0, 3), np.inf, "be finite"),
        ("gmm", "sigmas", (0, 2, 1, 1), -1.0, "be > 0"),
        ("gmm", "weights", (0, 2, 1, 0), -0.5, "be > 0"),
        ("gmm", "weights", (0, 2, 1, 0), 2.0, "sum to 1"),
        ("gmm", "means", (0, 2, 1, 1), np.nan, "be finite"),
    ], ids=["gm-sigma-negative", "gm-sigma-nan", "ggm-beta-zero", "ggm-alpha-inf",
            "gmm-sigma-negative", "gmm-weight-negative", "gmm-weights-sum", "gmm-mean-nan"])
    def test_invalid_truth_exits_2_on_encode_and_bench_and_4_on_decode(self, family, name, index,
                                                                        value, rule, tmp_path, capsys):
        # a negative sigma or weight coded silently, and a NaN only after
        # RuntimeWarnings; the container is refused where it is read
        good, bad, stream = tmp_path / "good.bin", tmp_path / "bad.bin", tmp_path / "s.bits"
        good.write_bytes(ss.block_to_bytes(ss.gen_block(ss.SourceSpec(family=family, shape=(2, 4, 8),
                                                                      seed=3))))
        bad.write_bytes(patched_truth(good.read_bytes(), name, index, value))
        assert run_cli("encode", "--block", good, "--backend", "dynamic", "--out", stream) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("encode", "--block", bad, "--backend", "dynamic",
                           "--out", tmp_path / "e.bits") == 2
            assert run_cli("bench", "--block", bad, "--backends", "dynamic", "--trials", 1,
                           "--out", tmp_path / "b.csv") == 2
            assert run_cli("decode", "--stream", stream, "--side", bad, "--backend", "dynamic",
                           "--out", tmp_path / "d.bin") == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count(f"error: truth_params[{name!r}] must {rule}") == 3, err

    def test_lut_encode_without_tables_exits_2(self, trained, tmp_path):
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "lut", "--out", tmp_path / "s.bits") == 2

    def test_skip_mask_without_skip_artifact_exits_2(self, trained,
                                                     tmp_path):
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", trained["prefix"],
                       "--use-skip-mask", "--out", tmp_path / "s.bits") == 2

    def test_free_index_without_indexes_exits_2(self, free_trained, tmp_path, capsys):
        prefix, block = free_trained["prefix"], free_trained["block"]
        stream, idx = tmp_path / "s.bits", tmp_path / "i.npz"
        args = ["--backend", "switch", "--trained", prefix]
        assert run_cli("encode", "--block", block, *args, "--out", stream) == 2
        assert run_cli("encode", "--block", block, *args, "--indexes", idx, "--out", stream) == 0
        decode = ["decode", "--stream", stream, "--side", block, *args, "--out", tmp_path / "d"]
        assert run_cli(*decode) == 2
        assert run_cli(*decode, "--indexes", tmp_path / "missing.npz") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: ") == 3, err

    @pytest.mark.parametrize("dims", [[2, 3], [5]], ids=["two-dim", "one-dim"])
    def test_sidecar_dims_that_disagree_with_the_tables_exit_2_on_encode(self, dims, free_trained,
                                                                         tmp_path, capsys):
        # the encoder's cheapest-table grid spans the table set it reads, so
        # only the sidecar's dims show that a 4-table artifact contradicts itself
        prefix = tmp_path / "bad"
        Path(f"{prefix}.tables").write_bytes(Path(f"{free_trained['prefix']}.tables").read_bytes())
        sidecar = json.loads(Path(f"{free_trained['prefix']}.json").read_text())
        Path(f"{prefix}.json").write_text(json.dumps({**sidecar, "dims": dims}))
        capsys.readouterr()
        assert run_cli("encode", "--block", free_trained["block"], "--backend", "switch",
                       "--trained", prefix, "--indexes", tmp_path / "i.npz",
                       "--out", tmp_path / "s.bits") == 2
        assert f"has dims {dims}, its table set 4 tables" in capsys.readouterr().err
        assert not (tmp_path / "i.npz").exists()

    def test_hyper_without_hyper_artifact_exits_2(self, trained, tmp_path):
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "switch", "--trained", trained["prefix"],
                       "--hyper", "--out", tmp_path / "s.bits") == 2

    def test_unknown_backend_exits_2(self, trained, tmp_path):
        assert run_cli("encode", "--block", trained["block"], "--backend",
                       "zstd", "--out", tmp_path / "s.bits") == 2

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWPC_SEED", "not-a-number")
        assert run_cli("train", "--family", "gm", "--m", 2, "--epochs", 20,
                       "--out", tmp_path / "t") == 2

    @pytest.mark.parametrize("command, data, code, needle", [
        (["encode", "--block", "{input}", "--backend", "dynamic", "--out", "{out}"],
         b"garbage", 2, "not a block container"),
        (["decode", "--stream", "{stream}", "--side", "{input}", "--backend", "dynamic",
          "--out", "{out}"], b"garbage", 4, "not a block container"),
        (["verify", "--block", "{input}", "--decoded", "{block}"],
         b"garbage", 4, "not a block container"),
        (["bench", "--block", "{input}", "--backends", "dynamic", "--out", "{out}"],
         b"garbage", 2, "not a block container"),
        (["encode", "--block", "{block}", "--backend", "dynamic", "--out", "{absent}"],
         None, 2, "absent"),
        (["encode", "--block", "{block}", "--backend", "dynamic", "--out", "{out}",
          "--report", "{absent}"], None, 2, "absent"),
        (["encode", "--block", "{trained_block}", "--backend", "switch", "--trained",
          "{trained}", "--indexes", "{absent}", "--out", "{out}"], None, 2, "absent"),
        (["decode", "--stream", "{stream}", "--side", "{block}", "--backend", "dynamic",
          "--out", "{absent}"], None, 2, "absent"),
        (["build-tables", "--family", "gm", "--count", 4, "--out", "{absent}"],
         None, 2, "absent"),
        (["bench", "--source", "{source}", "--backends", "dynamic", "--trials", 1,
          "--out", "{absent}"], None, 2, "absent"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{source}",
          "--out", "{out}", "--save-block", "{absent}"], None, 2, "absent"),
        (["report", "--bench", "{input}"], b"\xff\xfe[]", 2, "utf-8"),
        (["report", "--bench", "{input}"], b"[1]", 2, "bench rows"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{input}",
          "--out", "{out}"], b'{"bogus": 1}', 2, "bogus"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{input}",
          "--out", "{out}"], b"[1]", 2, "JSON object"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{input}",
          "--out", "{out}"], b'{"family": "gm", "shape": [1, 8, 8], "sigma_range": 5}',
         2, "sigma_range"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{input}",
          "--out", "{out}"], b'{"family": "gm", "shape": [1, 8, 8], "mean_range": [0, Infinity]}',
         2, "mean_range bounds must be finite"),
        (["train", "--family", "gm", "--m", 2, "--epochs", 4, "--source", "{input}",
          "--out", "{out}"], b'{"family": "gm", "shape": [1, 8, 8], "sigma_range": [1e19, 1e19]}',
         2, "do not fit int64"),
        (["decode", "--stream", "{lut_stream}", "--side", "{input}", "--backend", "lut",
          "--tables", "{tables}", "--out", "{out}"], "truthless", 4, "truth"),
        (["encode", "--block", "{trained_block}", "--backend", "switch", "--trained",
          "{hyper}", "--hyper", "--out", "{out}"], None, 2, "hyper"),
        (["decode", "--stream", "{stream}", "--side", "{trained_block}", "--backend", "switch",
          "--trained", "{hyper}", "--hyper", "--out", "{out}"], None, 4, "hyper"),
        (["decode", "--stream", "{stream}", "--side", "{trained_block}", "--backend", "switch",
          "--trained", "{trained}", "--indexes", "{input}", "--out", "{out}"],
         "broken-header", 4, "index file"),
        (["decode", "--stream", "{stream}", "--side", "{trained_block}", "--backend", "switch",
          "--trained", "{weird}", "--out", "{out}"], None, 4, "predictor mode"),
    ], ids=["encode-block", "decode-side-block", "verify-block", "bench-block",
            "encode-out", "encode-report", "encode-indexes", "decode-out", "build-tables-out",
            "bench-out", "train-save-block", "report-not-utf8", "report-row-not-object",
            "source-unknown-field", "source-not-object", "source-range-not-pair",
            "source-range-not-finite", "source-samples-overflow-int64",
            "lut-decode-truthless-side", "hyper-entry-encode", "hyper-entry-decode",
            "index-file-header", "unknown-predictor-mode-decode"])
    def test_malformed_input_or_unwritable_output_exits_2_or_4(self, command, data, code,
                                                              needle, trained, tmp_path, capsys):
        # "{input}" holds `data`: raw bytes, a block without truth parameters
        # ("truthless"), or an index file whose array header does not parse
        # ("broken-header"); "{absent}" lies in a directory that does not exist;
        # "{hyper}" is the trained artifact with a "hyper" entry that is not an
        # object, and "{weird}" the same artifact with an unknown predictor mode
        spec = ss.SourceSpec(family="gm", shape=(1, 8, 8), seed=3, sigma_range=(0.3, 4.0))
        block = ss.gen_block(spec)
        tables, grid = ct.build_lut_gm(4)
        paths = {name: tmp_path / name for name in
                 ["input", "out", "block", "stream", "source", "tables", "lut_stream"]}
        paths.update({"absent": tmp_path / "absent" / "o", "hyper": tmp_path / "hy",
                      "weird": tmp_path / "weird", "trained": trained["prefix"],
                      "trained_block": trained["block"]})
        paths["block"].write_bytes(ss.block_to_bytes(block))
        paths["stream"].write_bytes(cb.backend_dynamic(block)[0].to_bytes())
        paths["source"].write_text(spec.to_json())
        paths["tables"].write_bytes(ct.serialize_table_set(tables))
        paths["lut_stream"].write_bytes(cb.backend_lut(block, grid, tables)[0].to_bytes())
        sidecar = json.loads(Path(f"{trained['prefix']}.json").read_text())
        for name, entry in [("hyper", {"hyper": [1]}),
                            ("weird", {"predictor": {**sidecar["predictor"], "mode": "weird"}})]:
            Path(f"{paths[name]}.json").write_text(json.dumps({**sidecar, **entry}))
            Path(f"{paths[name]}.tables").write_bytes(
                Path(f"{trained['prefix']}.tables").read_bytes())
        if data == "truthless":
            data = ss.block_to_bytes(cb.LatentBlock(block.residuals, block.means,
                                                    block.side_features))
        elif data == "broken-header":
            npy = io.BytesIO()
            np.save(npy, np.ones(3))
            with zipfile.ZipFile(paths["input"], "w") as archive:
                archive.writestr("continuous.npy", npy.getvalue().replace(b"}", b" ", 1))
        if isinstance(data, bytes):
            paths["input"].write_bytes(data)
        capsys.readouterr()
        argv = [paths[a[1:-1]] if str(a)[:1] == "{" else a for a in command]
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and needle in errors[0], err

    @pytest.mark.parametrize("command, config", [
        (("train", "--family", "gm"), {"epochs": "abc"}),
        (("train", "--family", "gm"), {"lr": "fast"}),
        (("train", "--family", "gmm"), {"two_dim": 5}),
        (("train", "--family", "gmm"), {"two_dim": [3, 3, 3], "source": "{source}", "epochs": 4}),
        (("train", "--family", "gmm"), {"two_dim": "33", "source": "{source}", "epochs": 4}),
        (("bench", "--lut-counts", "1"), {"source": "{source}", "backends": "lut", "trials": 1}),
        (("bench", "--lut-grids", "5x1"), {"source": "{ggm_source}", "backends": "lut",
                                           "trials": 1}),
        (("bench", "--lut-grids", "5x10x3"), {"source": "{ggm_source}", "backends": "lut",
                                              "trials": 1}),
        (("build-tables", "--family", "gm"), {"count": "x"}),
        (("build-tables", "--family", "ggm"), {"beta": [5]}),
        (("train", "--family", "gm"), {"topk": [2], "source": "{source}", "m": 3, "epochs": 4}),
        (("bench",), {"rd_lambda": [1], "source": "{source}", "backends": "switch", "m": 2,
                      "epochs": 4, "trials": 1}),
        (("encode", "--block", "{block}", "--backend", "dynamic"), {"radius": [3]}),
        (("decode", "--side", "{block}", "--stream", "{stream}", "--backend", "dynamic"),
         {"radius": [3]}),
    ], ids=["train-epochs", "train-lr", "train-two-dim", "train-two-dim-triple", "train-two-dim-string",
            "bench-lut-count-one", "bench-lut-grid-axis-one", "bench-lut-grid-three-axes",
            "build-count", "build-beta",
            "train-topk-list", "bench-lambda-list", "encode-radius-list", "decode-radius-list"])
    def test_unparsable_config_value_exits_2(self, command, config, tmp_path):
        # "{source}", "{block}" and "{stream}" stand for a small source, its
        # block and that block's dynamic stream, all valid; "{ggm_source}"
        # is a small ggm source
        spec = ss.SourceSpec(family="gm", shape=(1, 8, 8), seed=3, sigma_range=(0.3, 4.0))
        block = ss.gen_block(spec)
        paths = {"{source}": tmp_path / "src.json", "{block}": tmp_path / "block.bin",
                 "{stream}": tmp_path / "s.bits", "{ggm_source}": tmp_path / "ggm.json"}
        paths["{source}"].write_text(spec.to_json())
        paths["{ggm_source}"].write_text(ss.SourceSpec(family="ggm", shape=(1, 8, 8), seed=3).to_json())
        paths["{block}"].write_bytes(ss.block_to_bytes(block))
        paths["{stream}"].write_bytes(cb.backend_dynamic(block)[0].to_bytes())

        def fill(value):
            return str(paths[value]) if isinstance(value, str) and value in paths else value

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: fill(v) for name, v in config.items()}))
        assert run_cli(*map(fill, command), "--config", cfg, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("command, switch", [("train", "skip"), ("train", "reuse_hyper"),
                                                 ("bench", "skip")],
                             ids=["train-skip", "train-reuse-hyper", "bench-skip"])
    @pytest.mark.parametrize("value", ["false", 0], ids=["string", "number"])
    def test_non_boolean_switch_in_config_exits_2(self, command, switch, value, tmp_path):
        src = write_source(tmp_path / "src.json", family="gm", shape=(1, 8, 8), seed=3,
                           sigma_range=(0.3, 4.0))
        cfg = tmp_path / "cfg.json"
        settings = {"source": str(src), "m": 2, "epochs": 4, "trials": 1, "backends": "switch"}
        family = ("--family", "gm") if command == "train" else ()
        cfg.write_text(json.dumps({**settings, switch: value}))
        assert run_cli(command, *family, "--config", cfg, "--out", tmp_path / "o") == 2
        cfg.write_text(json.dumps({**settings, switch: False}))
        assert run_cli(command, *family, "--config", cfg, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("case", ["empty-sidecar", "list-sidecar", "no-predictor-mode",
                                      "no-calibration-curve", "indexes-without-continuous",
                                      "2d-indexes-for-1d-set", "truncated-index-file"])
    def test_malformed_trained_artifact_exits_2_on_encode_and_4_on_decode(self, case, trained,
                                                                           tmp_path):
        sidecar = json.loads(Path(f"{trained['prefix']}.json").read_text())
        predictor = dict(sidecar["predictor"])
        bad = {
            "empty-sidecar": {},
            "list-sidecar": [sidecar],
            "no-predictor-mode": {**sidecar, "predictor": {k: v for k, v in predictor.items()
                                                           if k != "mode"}},
            "no-calibration-curve": {**sidecar, "predictor": {"mode": "calibration-curve"}},
            "indexes-without-continuous": sidecar,
            "2d-indexes-for-1d-set": sidecar,
            "truncated-index-file": sidecar,
        }[case]
        index_file = {
            "indexes-without-continuous": {"other": np.ones(3)},
            "2d-indexes-for-1d-set": {"continuous": np.ones(3), "continuous2": np.ones(3)},
            "truncated-index-file": {"continuous": np.ones(300)},
        }.get(case)
        prefix = tmp_path / "bad"
        Path(f"{prefix}.tables").write_bytes(Path(f"{trained['prefix']}.tables").read_bytes())
        Path(f"{prefix}.json").write_text(json.dumps(bad))
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", trained["block"], "--backend", "switch",
                       "--trained", trained["prefix"], "--out", stream) == 0
        decode = ["decode", "--stream", stream, "--side", trained["block"], "--backend",
                  "switch", "--trained", prefix, "--out", tmp_path / "d.bin"]
        if index_file is not None:
            np.savez(tmp_path / "i.npz", **index_file)
            if case == "truncated-index-file":
                blob = (tmp_path / "i.npz").read_bytes()
                (tmp_path / "i.npz").write_bytes(blob[:len(blob) // 2])
            decode += ["--indexes", tmp_path / "i.npz"]
        else:
            assert run_cli("encode", "--block", trained["block"], "--backend", "switch",
                           "--trained", prefix, "--out", tmp_path / "e.bits") == 2
        assert run_cli(*decode) == 4

    def test_older_row_and_column_index_file_exits_4_on_decode(self, two_dim_free, tmp_path,
                                                                capsys):
        # the older layout held the row axis in continuous and the column
        # axis in continuous2; read as one flat axis, its rows would select
        # other tables
        flat = np.load(two_dim_free["indexes"])["continuous"] - 1
        old = tmp_path / "old.npz"
        np.savez(old, continuous=flat // 3 + 1, continuous2=flat % 3 + 1)
        capsys.readouterr()
        assert run_cli("decode", "--stream", two_dim_free["stream"], "--side", two_dim_free["block"],
                       "--backend", "switch", "--trained", two_dim_free["prefix"],
                       "--indexes", old, "--out", tmp_path / "d.bin") == 4
        assert "older layout" in capsys.readouterr().err
        assert not (tmp_path / "d.bin").exists()

    @pytest.mark.parametrize("curve", [{"a": 1e308, "c": 1e308}, {"a": float("inf")},
                                       {"c": float("-inf")}, {"a": True}, {"c": 10 ** 400}],
                             ids=["overflowing", "infinite-a", "infinite-c", "bool", "huge-int"])
    def test_non_finite_calibration_curve_exits_2_on_encode_and_4_on_decode(
            self, curve, trained, tmp_path, capsys):
        # 1e308 is finite, but a * log f + c overflows on the block; json
        # writes an infinite float as Infinity and reads it back as one
        sidecar = json.loads(Path(f"{trained['prefix']}.json").read_text())
        bad = tmp_path / "bad"
        Path(f"{bad}.tables").write_bytes(Path(f"{trained['prefix']}.tables").read_bytes())
        Path(f"{bad}.json").write_text(json.dumps(
            {**sidecar, "predictor": {**sidecar["predictor"], **curve}}))
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", trained["block"], "--backend", "switch",
                       "--trained", trained["prefix"], "--out", stream) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("encode", "--block", trained["block"], "--backend", "switch",
                           "--trained", bad, "--out", tmp_path / "e.bits") == 2
            assert run_cli("decode", "--stream", stream, "--side", trained["block"],
                           "--backend", "switch", "--trained", bad,
                           "--out", tmp_path / "d.bin") == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: ") == 2, err
        assert "calibration curve" in err

    @pytest.mark.parametrize("entry", [
        {"ratio": 0.5, "tables": [-1]},
        {"ratio": 0.5, "tables": [3]},
        {"ratio": 0.5, "tables": [0, 0]},
        {"ratio": 0.5, "tables": [0.0]},
        {"ratio": 0.5, "tables": [True]},
        {"ratio": 0.5, "tables": [2 ** 70]},
        {"ratio": 0.5, "tables": "0"},
        {"ratio": 0.5, "mask": {"shape": [4, 32, 32], "bits": ""}},
        [0],
    ], ids=["negative", "past-end", "repeated", "float", "bool", "huge", "not-a-list",
            "packed-mask", "list-entry"])
    def test_malformed_skip_entry_exits_2_on_encode_and_4_on_decode(self, entry, skip_trained,
                                                                     tmp_path, capsys):
        prefix, block = skip_trained["prefix"], skip_trained["block"]
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", block, "--backend", "switch", "--trained", prefix,
                       "--use-skip-mask", "--out", stream) == 0
        bad = tmp_path / "bad"
        Path(f"{bad}.tables").write_bytes(Path(f"{prefix}.tables").read_bytes())
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        Path(f"{bad}.json").write_text(json.dumps({**sidecar, "skip": entry}))
        args = ["--backend", "switch", "--trained", bad, "--use-skip-mask"]
        capsys.readouterr()
        assert run_cli("encode", "--block", block, *args, "--out", tmp_path / "e.bits") == 2
        assert run_cli("decode", "--stream", stream, "--side", block, *args,
                       "--out", tmp_path / "d.bin") == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: ") == 2, err
        if "mask" in entry:
            assert "older format" in err

    @pytest.mark.parametrize("value", [0, -1, 5, 99, 2.5, 1.0, True, 2 ** 70, "1"],
                             ids=["zero", "negative", "past-end", "far-past-end", "fraction",
                                  "float", "bool", "huge", "string"])
    def test_malformed_hyper_selection_exits_2_on_encode_and_4_on_decode(
            self, value, hyper_trained, tmp_path, capsys):
        prefix, block = hyper_trained["prefix"], hyper_trained["block"]
        stream = tmp_path / "s.bits"
        assert run_cli("encode", "--block", block, "--backend", "switch", "--trained", prefix,
                       "--hyper", "--out", stream) == 0
        bad = tmp_path / "bad"
        Path(f"{bad}.tables").write_bytes(Path(f"{prefix}.tables").read_bytes())
        sidecar = json.loads(Path(f"{prefix}.json").read_text())
        selected = sidecar["hyper"]["selected"]
        Path(f"{bad}.json").write_text(json.dumps(
            {**sidecar, "hyper": {"selected": [value, *selected[1:]]}}))
        args = ["--backend", "switch", "--trained", bad, "--hyper"]
        capsys.readouterr()
        assert run_cli("encode", "--block", block, *args, "--out", tmp_path / "e.bits") == 2
        assert run_cli("decode", "--stream", stream, "--side", block, *args,
                       "--out", tmp_path / "d.bin") == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: ") == 2, err
        assert err.count("hyper selections in [1, 4]") == 2, err


@pytest.fixture(scope="module")
def bench_files(workdir):
    src = write_source(workdir / "bench_src.json", family="gm",
                       shape=(4, 48, 48), seed=11, sigma_range=(0.3, 12.0))
    out_csv = workdir / "bench.csv"
    out_json = workdir / "bench.json"
    code = run_cli("bench", "--source", src, "--backends",
                   "dynamic,lut,switch", "--lut-counts", "5,40",
                   "--m", 6, "--epochs", 80, "--trials", 5,
                   "--seed", 11, "--out", out_csv, "--json", out_json)
    assert code == 0
    return {"csv": out_csv, "json": out_json}


class TestBenchReport:
    def test_csv_columns(self, bench_files):
        with bench_files["csv"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and list(rows[0]) == cli.BENCH_COLUMNS

    def test_row_semantics(self, bench_files):
        rows = json.loads(bench_files["json"].read_text())
        by_backend = {}
        for row in rows:
            by_backend.setdefault(row["backend"], []).append(row)
        assert by_backend["dynamic"][0]["table_count"] == 4 * 48 * 48
        assert by_backend["switch"][0]["table_count"] == 6
        counts = [r["table_count"] for r in by_backend["lut"]]
        assert counts == [5, 40]
        bits = [r["bits_per_symbol"] for r in by_backend["lut"]]
        assert bits[0] >= bits[1]
        for row in rows:
            assert row["oracle_gap_pct"] > -0.5
            assert row["entropy_encode_ns"] >= 0

    def test_switch_index_build_beats_lut_search(self, workdir):
        # timing comparison needs a block big enough to swamp launch noise
        src = write_source(workdir / "timing_src.json", family="gm",
                           shape=(4, 256, 256), seed=19,
                           sigma_range=(0.3, 12.0))
        out_csv = workdir / "timing.csv"
        out_json = workdir / "timing.json"
        assert run_cli("bench", "--source", src, "--backends", "lut,switch",
                       "--lut-counts", "40", "--m", 6, "--epochs", 60,
                       "--trials", 5, "--seed", 19, "--out", out_csv,
                       "--json", out_json) == 0
        rows = json.loads(out_json.read_text())
        switch_ns = [r["index_build_ns"] for r in rows
                     if r["backend"] == "switch"]
        lut_ns = [r["index_build_ns"] for r in rows if r["backend"] == "lut"]
        assert min(switch_ns) > 0
        assert min(switch_ns) < min(lut_ns)

    def test_skip_bench_reports_ratio(self, workdir):
        src = write_source(workdir / "skipbench_src.json", family="gm",
                           shape=(4, 32, 32), seed=41,
                           sigma_range=(0.11, 4.0))
        out_csv = workdir / "skipbench.csv"
        code = run_cli("bench", "--source", src, "--backends", "switch",
                       "--m", 3, "--epochs", 120, "--skip", "--lambda", 4.0,
                       "--trials", 5, "--seed", 41, "--out", out_csv)
        assert code == 0
        with out_csv.open() as fh:
            row = next(csv.DictReader(fh))
        assert 0.0 < float(row["skip_ratio"]) < 1.0

    def test_switch_bench_with_negative_feature(self, tmp_path, capsys):
        # the calibration curve takes the trainer's log guard at every
        # non-positive feature, so no index is NaN
        block = ss.gen_block(ss.SourceSpec(family="gm", shape=(2, 16, 16), seed=5))
        features = block.side_features.copy()
        features[0, 0, 0] = -1.0
        path = tmp_path / "block.bin"
        path.write_bytes(ss.block_to_bytes(cb.LatentBlock(
            block.residuals, block.means, features, truth_params=block.truth_params)))
        assert run_cli("bench", "--block", path, "--backends", "switch", "--m", 4,
                       "--epochs", 10, "--trials", 1, "--out", tmp_path / "b.csv") == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [1, 3])
    def test_bench_times_exactly_trials_calls(self, trials, tmp_path, monkeypatch):
        # per backend: one call for the report, one warm-up, then `trials` timed
        calls = {"encode": 0, "decode": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cb, "backend_dynamic", counted("encode", cb.backend_dynamic))
        monkeypatch.setattr(cb, "backend_dynamic_decode",
                            counted("decode", cb.backend_dynamic_decode))
        src = write_source(tmp_path / "src.json", family="gm", shape=(1, 8, 8), seed=3)
        assert run_cli("bench", "--source", src, "--backends", "dynamic", "--trials", trials,
                       "--out", tmp_path / "b.csv") == 0
        assert calls == {"encode": 2 + trials, "decode": 1 + trials}

    @pytest.mark.parametrize("skip", [False, True], ids=["plain", "skip"])
    def test_each_timed_switch_decode_derives_its_own_grid(self, skip, tmp_path, monkeypatch):
        # a decoder derives the grid (and the mask) from side information, so
        # every timed decode pays for it, as every timed LUT decode pays for
        # its search
        received = []

        def recording(stream, indexes, mask, *args):
            received.append((indexes, mask))
            return decode(stream, indexes, mask, *args)

        decode = cb.backend_switch_decode
        monkeypatch.setattr(cb, "backend_switch_decode", recording)
        src = write_source(tmp_path / "src.json", family="gm", shape=(2, 16, 16), seed=41,
                           sigma_range=(0.11, 4.0))
        flags = ["--skip", "--lambda", 4.0] if skip else []
        assert run_cli("bench", "--source", src, "--backends", "switch", "--m", 3, "--epochs", 20,
                       *flags, "--trials", 3, "--out", tmp_path / "b.csv") == 0
        assert len(received) == 4  # the warm-up and three timed calls
        assert len({id(grid) for grid, _ in received}) == 4
        if skip:
            assert len({id(mask) for _, mask in received}) == 4

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bench_refuses_fewer_than_one_trial(self, trials, tmp_path, capsys):
        src = write_source(tmp_path / "src.json", family="gm", shape=(1, 8, 8), seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": trials}))
        capsys.readouterr()
        assert run_cli("bench", "--source", src, "--backends", "dynamic", "--trials", trials,
                       "--out", tmp_path / "b.csv") == 2
        assert run_cli("bench", "--source", src, "--backends", "dynamic", "--config", cfg,
                       "--out", tmp_path / "c.csv") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: --trials must be at least 1") == 2, err
        assert not (tmp_path / "b.csv").exists() and not (tmp_path / "c.csv").exists()

    def test_report_renders_table(self, bench_files, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run_cli("report", "--bench", bench_files["json"],
                       "--out", out) == 0
        text = capsys.readouterr().out
        assert "lowest rate:" in text
        for column in cli.BENCH_COLUMNS:
            assert column in text
        assert out.read_text().strip() == text.strip()

    def test_report_rejects_empty(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert run_cli("report", "--bench", empty) == 2


class TestFullChain:
    def test_clean_directory_pipeline(self, tmp_path):
        """The whole tool chain, in order, from nothing."""
        src = write_source(tmp_path / "src.json", family="ggm",
                           shape=(4, 32, 32), seed=23,
                           beta_range=(0.8, 2.2), alpha_range=(0.1, 8.0))
        steps = [
            ("build-tables", "--family", "ggm", "--beta", 4, "--alpha", 8,
             "--out", tmp_path / "lut.tables"),
            ("train", "--family", "ggm", "--m", 6, "--epochs", 100,
             "--seed", 23, "--source", src, "--out", tmp_path / "p",
             "--save-block", tmp_path / "block.bin"),
            ("encode", "--block", tmp_path / "block.bin", "--backend",
             "switch", "--trained", tmp_path / "p",
             "--out", tmp_path / "s.bits", "--report", tmp_path / "r.json",
             "--indexes", tmp_path / "i.npz"),
            ("decode", "--stream", tmp_path / "s.bits", "--side",
             tmp_path / "block.bin", "--backend", "switch", "--trained",
             tmp_path / "p", "--indexes", tmp_path / "i.npz",
             "--out", tmp_path / "d.bin"),
            ("verify", "--block", tmp_path / "block.bin", "--decoded",
             tmp_path / "d.bin"),
            ("bench", "--block", tmp_path / "block.bin", "--backends",
             "dynamic,lut", "--lut-grids", "3x4", "--trials", 5,
             "--out", tmp_path / "bench.csv", "--json",
             tmp_path / "bench.json"),
            ("report", "--bench", tmp_path / "bench.json"),
        ]
        for step in steps:
            assert run_cli(*step) == 0, f"step failed: {step[0]}"

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "swpc.cli_bench", "build-tables",
             "--family", "gm", "--count", "8",
             "--out", str(tmp_path / "t.tables")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "tables: 8" in result.stdout

    def test_every_flag_is_exercised(self):
        """Each option of each subcommand appears as a quoted literal in some
        test file, so no flag goes untried."""
        literals = {node.value for path in Path(__file__).parent.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        untried = [f"{command} {option}" for command, parser in subparsers.choices.items()
                   for action in parser._actions for option in action.option_strings
                   if option not in ("-h", "--help") and option not in literals]
        assert not untried, f"CLI flags no test passes: {untried}"

    def test_help_lists_subcommands(self):
        result = subprocess.run(
            [sys.executable, "-m", "swpc.cli_bench", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        for name in ("build-tables", "train", "encode", "decode", "verify",
                     "bench", "report"):
            assert name in result.stdout
