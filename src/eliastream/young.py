"""Two-row Young diagrams and the lattice walk that concentrates them.

A node (n, t) is the diagram with n - t boxes in row one and t in row two;
validity requires 0 <= t <= n - t.  ``dim`` gives its symmetric-group irrep
dimension in closed form; the naive hook-length and path-counting references
it is tested against are test oracles.  The dimensions satisfy the same
additive recursion as binomial coefficients once invalid nodes count as
zero.  That recursion is all the transition rule ``extractor.walk_step``
ever uses, so handing it dimensions in place of binomial coefficients gives
the same machine on this lattice: qstep(), the extractor's ``step`` on
``dim``, with the extractor's state and step types.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .binomial import binom
from .extractor import ExtractorState, RunResult, StepResult, as_count, as_node, fold_steps, step


class InvalidNodeError(ValueError):
    """A lattice move would put more boxes in row two than row one."""


def is_valid(n: int, t: int) -> bool:
    return 0 <= t <= n - t


def dim(n: int, t: int) -> int:
    """Irrep dimension of the (n - t, t) diagram: C(n, t)(n-2t+1)/(n-t+1).

    Zero for invalid nodes, mirroring the out-of-range binomial convention.
    The quotient is always exact at valid nodes.
    """
    n, t = as_node(n, t)
    if not is_valid(n, t):
        return 0
    value = binom(n, t) * (n - 2 * t + 1)
    div, rem = divmod(value, n - t + 1)
    if rem:
        raise AssertionError(f"closed form not integral at ({n}, {t})")
    return div


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
    upstream (the coupling transform never produces one).  A state that is
    no lattice node raises ValueError, as ``extractor.step`` does.
    """
    n, t = as_node(state.n, state.t)
    n, t = n + 1, t + (1 if pbit else 0)
    if not is_valid(n, t):
        raise InvalidNodeError(f"move to ({n}, {t}) violates the row condition")
    return step(state, pbit, dim)


def q_run(pbits: Iterable[int]) -> RunResult:
    """Fold qstep over a box-add sequence from the apex, checking conservation."""
    return fold_steps(qstep, pbits)
