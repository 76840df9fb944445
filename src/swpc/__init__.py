"""Switchable-prior entropy coding for learned compression.

Quantized CDF tables over Gaussian / generalized-Gaussian / mixture models,
a rANS coder with tail escapes, three coding backends (per-element dynamic
tables, parameter-grid LUTs, and a trained switchable prior set), plus the
trainer that fits prior sets, index predictors, skip masks, and reused
hyperlatent indexes.

Every name a submodule lists in its `__all__` re-exports here; each submodule
remains importable on its own (`swpc.rans_coder`, `swpc.prior_trainer`, ...).
"""

from swpc import cdf_tables, coding_backends, prior_trainer, prob_models, rans_coder, synth_source
from swpc.cdf_tables import *  # noqa: F401,F403
from swpc.coding_backends import *  # noqa: F401,F403
from swpc.prior_trainer import *  # noqa: F401,F403
from swpc.prob_models import *  # noqa: F401,F403
from swpc.rans_coder import *  # noqa: F401,F403
from swpc.synth_source import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (prob_models, cdf_tables, rans_coder, coding_backends, prior_trainer, synth_source)
    for name in module.__all__
]
