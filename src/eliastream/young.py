"""Two-row Young diagrams and the lattice walk that concentrates them.

A node (n, t) is the diagram with n - t boxes in row one and t in row two;
validity requires 0 <= t <= n - t.  Its symmetric-group irrep dimension is
available three independent ways (closed form, literal hook lengths, path
counting), and the dimensions satisfy the same additive recursion as
binomial coefficients once invalid nodes count as zero.  That recursion is
all the transition rule ``extractor.walk_step`` ever uses, so handing it
dimensions in place of binomial coefficients gives the same machine on this
lattice: qstep(), with the extractor's state and step types.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .binomial import binom
from .elias import as_count
from .extractor import ExtractorState, RunResult, StepResult, fold_steps, walk_step


class InvalidNodeError(ValueError):
    """A lattice move would put more boxes in row two than row one."""


def is_valid(n: int, t: int) -> bool:
    return 0 <= t <= n - t


def dim(n: int, t: int) -> int:
    """Irrep dimension of the (n - t, t) diagram: C(n, t)(n-2t+1)/(n-t+1).

    Zero for invalid nodes, mirroring the out-of-range binomial convention.
    The quotient is always exact at valid nodes.
    """
    if n < 0 or not is_valid(n, t):
        return 0
    value = binom(n, t) * (n - 2 * t + 1)
    div, rem = divmod(value, n - t + 1)
    if rem:
        raise AssertionError(f"closed form not integral at ({n}, {t})")
    return div


def hook_dim_oracle(n: int, t: int) -> int:
    """Dimension computed literally from per-box hook lengths.

    hook(x) = boxes to the right + boxes below + 1; dim = n! / prod(hooks).
    """
    if not is_valid(n, t):
        raise ValueError(f"({n}, {t}) is not a valid two-row diagram")
    if n == 0:
        return 1
    r1, r2 = n - t, t
    hooks = 1
    for c in range(r1):
        hooks *= (r1 - 1 - c) + (1 if c < r2 else 0) + 1
    for c in range(r2):
        hooks *= (r2 - 1 - c) + 1
    quotient, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise AssertionError("hook product does not divide n!")
    return quotient


def path_count(n: int, t: int) -> int:
    """Number of box-add paths from the empty diagram that stay valid.

    Forward count over the lattice, one level at a time; no closed form
    is consulted.
    """
    if not is_valid(n, t):
        raise ValueError(f"({n}, {t}) is not a valid two-row diagram")
    level = {0: 1}
    for m in range(n):
        nxt: dict[int, int] = {}
        for tt, ways in level.items():
            if is_valid(m + 1, tt):
                nxt[tt] = nxt.get(tt, 0) + ways
            if is_valid(m + 1, tt + 1):
                nxt[tt + 1] = nxt.get(tt + 1, 0) + ways
        level = nxt
    return level.get(t, 0)


def ballot_paths(n: int) -> Iterator[tuple[int, ...]]:
    """All valid box-add sequences of length n (0 = row one, 1 = row two)."""
    n = as_count(n)

    def rec(m: int, t: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if m == n:
            yield tuple(prefix)
            return
        for pbit in (0, 1):
            if is_valid(m + 1, t + pbit):
                prefix.append(pbit)
                yield from rec(m + 1, t + pbit, prefix)
                prefix.pop()

    return rec(0, 0, [])


def qstep(state: ExtractorState, pbit: int) -> StepResult:
    """One lattice move with dimensions in place of binomial coefficients.

    The caller must only request valid moves; an invalid move signals a bug
    upstream (the coupling transform never produces one).
    """
    n, t = state.n + 1, state.t + (1 if pbit else 0)
    if not is_valid(n, t):
        raise InvalidNodeError(f"move to ({n}, {t}) violates the row condition")
    emitted, l = walk_step(dim(n, t), dim(n - 1, t), dim(n - 1, t - 1), pbit, state.l)
    return StepResult(ExtractorState(n, t, l), emitted)


def q_run(pbits: Iterable[int]) -> RunResult:
    """Fold qstep over a box-add sequence from the apex, checking conservation."""
    return fold_steps(qstep, pbits)
