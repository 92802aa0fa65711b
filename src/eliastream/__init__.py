"""Streaming entropy extraction and coherent entanglement concentration.

A three-integer reversible state machine extracts perfectly random bits
from biased i.i.d. streams at the entropy rate, matching the optimal
whole-block extraction at every prefix length.  The same walk, run on the
two-row Young lattice behind a qubit-coupling transform, concentrates
streams of identical partially entangled pairs into perfect EPR pairs
without knowing the input state.  Brute-force oracles, symbolic balance
checks, and a dense state-vector simulator verify every desk-scale claim.
"""

from .binomial import (
    BinLayout,
    BinomialTable,
    TableCapError,
    bin_layout,
    binom,
    binom_bit,
    build_table,
)
from .elias import (
    BlockCodeword,
    SourceModel,
    bin_of_rank,
    block_codeword,
    conditional_bin_entropy,
    expected_yield,
    rank_in_type,
    type_of,
)
from .extractor import (
    ExtractorState,
    PauseResult,
    RunResult,
    StepResult,
    StreamExtractor,
    initial_state,
    pause_mode_run,
    run,
    step,
    von_neumann,
    walk_step,
)
from .young import (
    InvalidNodeError,
    ballot_paths,
    dim,
    hook_dim_oracle,
    path_count,
    q_run,
    qstep,
)

__all__ = [
    "BinLayout",
    "BinomialTable",
    "BlockCodeword",
    "ExtractorState",
    "InvalidNodeError",
    "PauseResult",
    "RunResult",
    "SourceModel",
    "StepResult",
    "StreamExtractor",
    "TableCapError",
    "ballot_paths",
    "bin_layout",
    "bin_of_rank",
    "binom",
    "binom_bit",
    "block_codeword",
    "build_table",
    "conditional_bin_entropy",
    "dim",
    "expected_yield",
    "hook_dim_oracle",
    "initial_state",
    "path_count",
    "pause_mode_run",
    "q_run",
    "qstep",
    "rank_in_type",
    "run",
    "step",
    "type_of",
    "von_neumann",
    "walk_step",
]

__version__ = "0.1.0"
