"""The package surface: `swpc` re-exports every submodule's `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

import swpc

# swpc.__all__ as it stood when each name was still listed by hand; none of
# these may disappear from the package.
NAMES_BEFORE = [
    "__version__",
    "PROB_FLOOR", "GaussianParams", "GeneralizedGaussianParams", "GmmParams", "InfiniteRateError",
    "ParameterDomainError", "ProbModel", "cdf_eval", "floored_rate_bits", "ggm_alpha_for_std",
    "ggm_std", "gmm_effective_mean", "grad_rate_params", "model_std", "pmf_integer", "rate_bits",
    "regularized_lower_gamma", "regularized_lower_gamma_with_da", "support_radius",
    "GGM_ALPHA_RANGE", "GGM_BETA_RANGE", "GM_SIGMA_RANGE", "MAX_RADIUS", "TOTAL_FREQ",
    "CapacityError", "CdfTableSet", "LutGrid", "MagicError", "ParseError", "QuantizedCdfTable",
    "TableInvariantError", "TruncatedError", "VersionError", "allocate_frequencies",
    "cumulative_rows", "build_lut_ggm", "build_lut_gm", "deserialize_table_set", "lut_search",
    "lut_search_ggm", "lut_search_gm", "quantize_pmf", "serialize_table_set",
    "table_set_16bit_bytes", "tables_from_masses",
    "Bitstream", "StreamError", "bypass_decode", "bypass_encode", "decode", "decode_elementwise",
    "encode", "encode_elementwise", "implied_bits",
    "CodingReport", "IndexGrid", "LatentBlock", "SkipMask", "backend_dynamic",
    "backend_dynamic_decode", "backend_lut", "backend_lut_decode", "backend_switch",
    "backend_switch_decode", "harden_index", "harden_index_2d", "prune_hyper_channels",
    "restore_pruned_channels", "round_half_away",
    "AnnealSchedule", "HyperLogits", "PriorSet1D", "PriorSet2D", "SkipHead", "TrainConfig",
    "TrainResult", "TrainingDivergedError", "export_tables", "gumbel_mask", "gumbel_mask_grad",
    "hyper_rate", "hyper_rate_grads", "init_prior_set", "init_prior_set_2d", "model_from_coords",
    "skip_loss", "skip_loss_grads", "soft_weights", "soft_weights_2d", "top2_indices",
    "top2_pairs_2d", "top_k_indices", "topk_rate", "topk_rate_grads", "train_priors",
    "weighted_rate", "weighted_rate_grads",
    "RateHistogram", "SourceSpec", "block_from_bytes", "block_to_bytes", "gen_block",
    "oracle_bits_per_element", "oracle_rate", "rate_histogram",
]

SUBMODULES = ["prob_models", "cdf_tables", "rans_coder", "coding_backends", "prior_trainer", "synth_source"]


def test_names_before_still_import():
    assert len(NAMES_BEFORE) == 106
    namespace = {}
    exec("from swpc import *", namespace)
    for name in NAMES_BEFORE:
        assert name in swpc.__all__, name
        assert getattr(swpc, name) is not None
        if name != "__version__":
            assert name in namespace, name


@pytest.mark.parametrize("module", SUBMODULES)
def test_all_is_each_submodules_all(module):
    mod = importlib.import_module(f"swpc.{module}")
    for name in mod.__all__:
        assert getattr(swpc, name) is getattr(mod, name), name
        assert name in swpc.__all__


def test_all_has_no_duplicates_and_only_submodule_names():
    listed = ["__version__"] + [n for m in SUBMODULES for n in importlib.import_module(f"swpc.{m}").__all__]
    assert sorted(swpc.__all__) == sorted(set(listed)) == sorted(listed)


@pytest.mark.parametrize("path", sorted((Path(swpc.__file__).parent).glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
