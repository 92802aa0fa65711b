"""Seeded inputs and op order for the benchmark workloads.

Everything a run feeds the program comes from here and depends only on the
workload name and the seed: the same seed gives the same input bytes and the
same op sequence.  This module does not import eliastream, so plans can be
built (and compared) without the program under test.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterator, NamedTuple

import numpy as np

DEFAULT_SEED = 0
P_VALUES = (0.05, 0.3, 0.5)  # Bernoulli weight of a 1 bit, cycled op by op
ORACLE_KINDS = ("verify", "known", "universal", "vonneumann")

# Per-workload parameters.  `budget_s` is the per-op time budget: an op that
# runs longer is recorded as over budget and counted as failed.  `reference`
# names the calibration work in run.py that resembles the workload's ops.
WORKLOADS = {
    "extract_long": {
        "kind": "extract",
        "nbytes": 16384,
        "inputs_per_p": 2,
        "modes": ("streaming",),
        "budget_s": 30.0,
        "reference": "bigint",
    },
    "extract_short": {
        "kind": "extract",
        "nbytes": 512,
        "inputs_per_p": 8,
        "modes": ("streaming", "on-demand"),
        "demand": 512,
        "budget_s": 1.0,
        "reference": "interpreter",
    },
    "oracles": {
        "kind": "oracles",
        "verify_max_n": 12,
        "known_n": 12,
        "universal_n": 6,
        "vonneumann_n": 6,
        "p_range": (0.05, 0.95),
        "budget_s": 30.0,
        "reference": "interpreter",
    },
}


class ExtractInput(NamedTuple):
    input_id: int
    p: float
    data: bytes


class ExtractOp(NamedTuple):
    input_id: int
    mode: str  # "streaming" or "on-demand"


class OracleOp(NamedTuple):
    kind: str  # one of ORACLE_KINDS
    argv: tuple[str, ...]
    n: int
    p: float
    theta: float


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(workload), stream])


def bernoulli_bytes(rng: np.random.Generator, p: float, nbytes: int) -> bytes:
    """nbytes of i.i.d. Bernoulli(p) bits, packed MSB-first."""
    bits = rng.random(8 * nbytes) < p
    return np.packbits(bits, bitorder="big").tobytes()


class Plan:
    """Inputs and op order of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self.params = WORKLOADS[workload]
        self.kind = self.params["kind"]
        self.inputs: list[ExtractInput] = []
        if self.kind == "extract":
            per_p = self.params["inputs_per_p"]
            rng = _rng(seed, workload, 0)
            for pi, p in enumerate(P_VALUES):
                for j in range(per_p):
                    data = bernoulli_bytes(rng, p, self.params["nbytes"])
                    self.inputs.append(ExtractInput(pi * per_p + j, p, data))
            self.cycle = len(P_VALUES) * len(self.params["modes"])
        else:
            self.cycle = len(ORACLE_KINDS)

    def ops(self) -> Iterator["ExtractOp | OracleOp"]:
        """The endless op sequence; a run stops at a cycle boundary."""
        rng = _rng(self.seed, self.workload, 1)
        if self.kind == "extract":
            # Each p's inputs are used in turn, in a seeded order, so every
            # input carries the same weight however many cycles a run makes.
            per_p = self.params["inputs_per_p"]
            orders = [rng.permutation(per_p) for _ in P_VALUES]
            for c in count():
                for pi, order in enumerate(orders):
                    input_id = pi * per_p + int(order[c % per_p])
                    for mode in self.params["modes"]:
                        yield ExtractOp(input_id, mode)
        else:
            lo, hi = self.params["p_range"]
            for _ in count():
                for kind in ORACLE_KINDS:
                    p = float(f"{rng.uniform(lo, hi):.4f}")
                    theta = float(f"{rng.uniform(0.0, math.pi):.4f}")
                    yield self.oracle_op(kind, p, theta)

    def warmup_op(self) -> "ExtractOp | OracleOp":
        """The untimed op run during set-up: the first op of the sequence."""
        return next(self.ops())

    def oracle_op(self, kind: str, p: float, theta: float) -> OracleOp:
        par = self.params
        if kind == "verify":
            n = par["verify_max_n"]
            argv = ("verify", "--suites", "equivalence,balanced,yield", "--max-n", str(n))
        elif kind == "known":
            n = par["known_n"]
            argv = ("simulate", "--mode", "known", "--n", str(n), "--p", repr(p))
        elif kind == "universal":
            n = par["universal_n"]
            argv = ("simulate", "--mode", "universal", "--n", str(n), "--p", repr(p),
                    "--theta", repr(theta))
        elif kind == "vonneumann":
            n = par["vonneumann_n"]
            argv = ("simulate", "--mode", "vonneumann", "--n", str(n), "--p", repr(p))
        else:
            raise ValueError(f"unknown oracle kind {kind!r}")
        return OracleOp(kind, argv, n, p, theta)


def oracle_walk_bits(op: OracleOp) -> int:
    """Input bits the op's walks consume, computed from what the command enumerates.

    verify: the equivalence and balance suites each walk the full binary tree
    of depth m for m = 0..max_n (2^(m+1) - 2 steps; max_n = 12 is below the
    balance cap of 14).  known: one n-step walk per basis string.  universal:
    one n-step lattice walk per distinct box-add path, of which there are
    C(n, n // 2).  vonneumann: 2n bits per basis string through the pairwise
    machine.
    """
    if op.kind == "verify":
        return 2 * sum((1 << (m + 1)) - 2 for m in range(op.n + 1))
    if op.kind == "known":
        return op.n << op.n
    if op.kind == "universal":
        return op.n * math.comb(op.n, op.n // 2)
    return 2 * op.n << (2 * op.n)
