"""
When one index axis is not enough
=================================

A single ladder of zero-centered tables cannot chase residuals whose
mean wanders.  Giving the prior set two index axes (a mean axis and a
spread axis) turns the ladder into a grid and recovers the rate.
"""

from swpc import (
    SourceSpec,
    TrainConfig,
    backend_switch,
    export_tables,
    gen_block,
    oracle_rate,
    train_priors,
)

spec = SourceSpec("gmm", (4, 48, 48), seed=29, mode="nonzero-center",
                  comp_mean_range=(-12.0, 12.0), comp_sigma_range=(0.4, 3.0))
block = gen_block(spec)
mixture_entropy = oracle_rate(block) / block.n_elements
print("mixture source with wandering means,"
      f" blind mixture cross-entropy {mixture_entropy:.4f} bits/symbol")

# 40 tables along one axis against 8 x 5 = 40 tables along two.
flat = TrainConfig("gmm", (40,), epochs=250, seed=6)
grid = TrainConfig("gmm", (8, 5), epochs=250, seed=6)

for label, config in (("1-D, 40 tables", flat), ("2-D, 8 x 5 grid", grid)):
    result = train_priors([block], config)
    table_set = export_tables(result.prior_set)
    _, report = backend_switch(block, result.indexes, None, table_set)
    print(f"{label}: {report.bits_per_symbol:.4f} bits/symbol")

# The 1-D set stalls above even the blind mixture: all 40 tables sit on
# one symmetric spread axis while the data needs a location axis.  The
# grid's mean axis hands the decoder each element's location through the
# index plane, which is why it can undercut the blind cross-entropy.
