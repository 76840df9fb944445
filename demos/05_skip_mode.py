"""
Skip mode: spend bits only where they pay
=========================================

Skip joins the prior set: after training, every table whose elements
cost more bits coded than lambda_ times their squared residuals skipped
is marked as skipped.  An element whose index selects a skipped table
is reconstructed as zero and never touches the coder, trading a
controlled distortion penalty for rate and wall time.  The decoder
derives the same mask from the index grid it already has, so no mask
is transmitted.
"""

import numpy as np

from swpc import (
    SkipMask,
    SourceSpec,
    TrainConfig,
    backend_switch,
    backend_switch_decode,
    export_tables,
    gen_block,
    train_priors,
)

spec = SourceSpec("gm", (4, 64, 64), seed=41, sigma_range=(0.11, 4.0))
block = gen_block(spec)

config = TrainConfig("gm", (4,), epochs=160, seed=41, lambda_=4.0,
                     skip=True, predictor_mode="calibration-curve")
result = train_priors([block], config)
table_set = export_tables(result.prior_set)

mask = result.skip_head.hard_mask()
print(f"skipped tables: {list(result.skip_head.tables)} of {result.prior_set.m}")
print(f"learned skip ratio: {mask.skip_ratio:.3f}"
      f"  (lambda_ weighs squared residual against saved bits)")

plain_stream, plain = backend_switch(block, result.indexes, None, table_set)
skip_stream, skipped = backend_switch(block, result.indexes, mask, table_set)
print(f"no mask : {plain.symbols_coded} symbols, {plain.total_bits} bits")
print(f"masked  : {skipped.symbols_coded} symbols, {skipped.total_bits} bits")

# Decoding with the mask zero-fills the skipped positions; kept
# positions come back exact.
decoded, _ = backend_switch_decode(skip_stream, result.indexes, mask, table_set,
                                   block.residuals.shape)
kept = mask.hard.astype(bool)
assert np.array_equal(decoded[kept], block.residuals[kept])
assert not decoded[~kept].any()
print("kept positions exact, skipped positions zero: True")

# A keep-everything mask is pure bookkeeping: the payload must match
# the unmasked stream byte for byte.
all_ones = SkipMask.keep_all(block.residuals.shape)
ones_stream, _ = backend_switch(block, result.indexes, all_ones, table_set)
print("keep-all mask is a no-op:", ones_stream.to_bytes() == plain_stream.to_bytes())
