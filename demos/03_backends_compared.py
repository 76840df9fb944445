"""
Three coding backends on one synthetic block
============================================

dynamic   builds a fresh table per element from its side features
lut       snaps each element to the nearest entry of a parameter grid
switch    points each element at one of a few trained tables

Same block, same coder underneath; the trade is side-information and
table storage against rate.
"""

import numpy as np

from swpc import (
    SourceSpec,
    TrainConfig,
    backend_dynamic,
    backend_lut,
    backend_lut_decode,
    backend_switch,
    build_lut_ggm,
    export_tables,
    gen_block,
    oracle_rate,
    train_priors,
)

spec = SourceSpec("ggm", (4, 64, 64), seed=3,
                  beta_range=(0.7, 2.5), alpha_range=(0.05, 10.0))
block = gen_block(spec)
oracle = oracle_rate(block) / block.n_elements
print(f"block {block.residuals.shape}, oracle {oracle:.4f} bits/symbol\n")

stream_dyn, report_dyn = backend_dynamic(block)

table_set_lut, grid = build_lut_ggm(5, 10)
stream_lut, report_lut = backend_lut(block, grid, table_set_lut)
decoded, _ = backend_lut_decode(stream_lut, block.truth_params, grid, table_set_lut,
                                block.residuals.shape)
assert np.array_equal(decoded, block.residuals)

config = TrainConfig("ggm", (10,), epochs=150, seed=5,
                     predictor_mode="calibration-curve")
result = train_priors([block], config)
table_set_sw = export_tables(result.prior_set)
stream_sw, report_sw = backend_switch(block, result.indexes, None, table_set_sw)

for name, rep in (("dynamic", report_dyn), ("lut", report_lut), ("switch", report_sw)):
    gap = 100.0 * (rep.bits_per_symbol - oracle) / oracle
    print(f"{name:8s} {rep.bits_per_symbol:.4f} bits/symbol"
          f"  (+{gap:.2f}% over oracle)"
          f"  tables={rep.table_count}  storage={rep.table_bytes} bytes")

# The switch backend sends table choices, not table contents: ten small
# tables replace the per-element modeling work of the dynamic backend.
print("\nswitch index histogram:",
      np.bincount(result.indexes.flat_table_indexes(), minlength=10).tolist())
