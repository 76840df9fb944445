"""The package surface: `swpc` re-exports every submodule's `__all__`."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import swpc

# swpc.__all__ as it stood when each name was still listed by hand, less the
# eleven names that only tests called (bypass_encode, bypass_decode,
# gmm_effective_mean, harden_index_2d, soft_weights_2d, top_k_indices,
# top2_indices, top2_pairs_2d, hyper_rate, rate_histogram, RateHistogram);
# none of these may disappear from the package.
NAMES_BEFORE = [
    "__version__",
    "PROB_FLOOR", "GaussianParams", "GeneralizedGaussianParams", "GmmParams", "InfiniteRateError",
    "ParameterDomainError", "ProbModel", "cdf_eval", "floored_rate_bits", "ggm_alpha_for_std",
    "ggm_std", "grad_rate_params", "model_std", "pmf_integer", "rate_bits",
    "regularized_lower_gamma", "regularized_lower_gamma_with_da", "support_radius",
    "GGM_ALPHA_RANGE", "GGM_BETA_RANGE", "GM_SIGMA_RANGE", "MAX_RADIUS", "TOTAL_FREQ",
    "CapacityError", "CdfTableSet", "LutGrid", "MagicError", "ParseError", "QuantizedCdfTable",
    "TableInvariantError", "TruncatedError", "VersionError", "allocate_frequencies",
    "cumulative_rows", "build_lut_ggm", "build_lut_gm", "deserialize_table_set", "lut_search",
    "lut_search_ggm", "lut_search_gm", "quantize_pmf", "serialize_table_set",
    "table_set_16bit_bytes", "tables_from_masses",
    "Bitstream", "StreamError", "decode", "decode_elementwise",
    "encode", "encode_elementwise", "implied_bits",
    "CodingReport", "IndexGrid", "LatentBlock", "SkipMask", "backend_dynamic",
    "backend_dynamic_decode", "backend_lut", "backend_lut_decode", "backend_switch",
    "backend_switch_decode", "harden_index", "prune_hyper_channels",
    "restore_pruned_channels", "round_half_away",
    "AnnealSchedule", "HyperLogits", "PriorSet1D", "PriorSet2D", "SkipHead", "TrainConfig",
    "TrainResult", "TrainingDivergedError", "export_tables", "gumbel_mask", "gumbel_mask_grad",
    "hyper_rate_grads", "init_prior_set", "init_prior_set_2d", "model_from_coords",
    "skip_loss", "skip_loss_grads", "soft_weights", "topk_rate", "topk_rate_grads", "train_priors",
    "weighted_rate", "weighted_rate_grads",
    "SourceSpec", "block_from_bytes", "block_to_bytes", "gen_block",
    "oracle_bits_per_element", "oracle_rate",
]

SUBMODULES = ["prob_models", "cdf_tables", "rans_coder", "coding_backends", "prior_trainer", "synth_source"]


def test_names_before_still_import():
    assert len(NAMES_BEFORE) == 95
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


_ROOT = Path(__file__).resolve().parent.parent
# the package, the tests and the demos; every stem is distinct
SOURCES = sorted([*Path(swpc.__file__).parent.glob("*.py"), *(_ROOT / "tests").glob("*.py"),
                  *(_ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
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


def _definitions(tree):
    """(name, statement) for each top-level function, class or constant of
    a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]:
                yield name, node


def _referenced_names(node):
    """Names a statement reads, bare or as an attribute (module._name)."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_private_helper_is_used():
    """A private helper that no other statement of the package reads is a
    leftover of a refactor: delete it or use it."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(swpc.__file__).parent.glob("*.py"))}
    statements = [(node, _referenced_names(node)) for tree in trees.values() for node in tree.body]
    orphans = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            private = name.startswith("_") and not name.startswith("__")  # __all__ is not private
            if private and not any(node is not definition and name in names for node, names in statements):
                orphans.append(f"{module}: {name} (line {definition.lineno})")
    assert not orphans, f"private helpers that nothing else in swpc uses: {orphans}"


# Callers of the public surface, read only: the package itself, the demos,
# the benchmark and the acceptance suite.  Unit tests are not callers.
CALLERS = [*sorted(Path(swpc.__file__).parent.glob("*.py")), *sorted((_ROOT / "demos").glob("*.py")),
           *sorted((_ROOT / "perfbench").glob("*.py")), _ROOT / "tests" / "test_acceptance.py"]
# grad_rate_params is the exact gradient of one model's rate: nothing codes or
# trains with it, but the trainer tests compare the rate kernel against it.
NO_CALLER_NEEDED = {"grad_rate_params"}


def test_every_public_name_has_a_caller():
    """A public name that only unit tests read widens the surface for no
    caller: each name in a submodule's __all__ is read by some statement of
    CALLERS other than its own definition."""
    trees = {path.resolve(): ast.parse(path.read_text()) for path in CALLERS}
    statements = [(node, _referenced_names(node)) for tree in trees.values() for node in tree.body]
    uncalled = []
    for module in SUBMODULES:
        mod = importlib.import_module(f"swpc.{module}")
        defined = dict(_definitions(trees[Path(mod.__file__).resolve()]))
        for name in sorted(set(mod.__all__) - NO_CALLER_NEEDED):
            if not any(node is not defined.get(name) and name in names for node, names in statements):
                uncalled.append(f"{module}.{name}")
    assert not uncalled, (
        f"public names that no package code, demo, benchmark or acceptance test reads: {uncalled}")


def test_every_public_member_has_a_caller():
    """A public method, property or classmethod that only unit tests read is
    surface kept for no caller: each one of a class a submodule exports (or
    of its base class in that module) is read as an attribute by some
    statement of CALLERS other than the class's own definition.

    The match is by name, so a member is taken as called when any object's
    attribute of that name is read; a member that shares its name with a
    called one is not seen.  QuantizedCdfTable.implied_bits (the name of
    rans_coder.implied_bits), CodingReport.from_json (of SourceSpec.from_json)
    and GmmParams.components (of SourceSpec.components) were retired by hand
    for that reason."""
    trees = {path.resolve(): ast.parse(path.read_text()) for path in CALLERS}
    statements = [(node, {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Load)})
                  for tree in trees.values() for node in tree.body]
    uncalled = []
    for module in SUBMODULES:
        mod = importlib.import_module(f"swpc.{module}")
        classes = {node.name: node for node in trees[Path(mod.__file__).resolve()].body
                   if isinstance(node, ast.ClassDef)}
        exported = [value for value in map(mod.__dict__.get, mod.__all__) if inspect.isclass(value)]
        checked = {c.__name__ for cls in exported for c in cls.__mro__ if c.__module__ == mod.__name__}
        for name in sorted(checked):
            for member in classes[name].body:
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                        and not any(node is not classes[name] and member.name in attrs
                                    for node, attrs in statements)):
                    uncalled.append(f"{module}.{name}.{member.name}")
    assert not uncalled, (
        f"public class members that no package code, demo, benchmark or acceptance test reads: {uncalled}")
