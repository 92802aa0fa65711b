"""Two-row Young diagrams and the lattice walk that concentrates them.

A node (n, t) is the diagram with n - t boxes in row one and t in row two;
validity requires 0 <= t <= n - t.  ``dim`` gives its symmetric-group irrep
dimension in closed form; the naive hook-length and path-counting references
it is tested against are test oracles.  The dimensions satisfy the same
additive recursion as binomial coefficients once invalid nodes count as
zero.  That recursion is all the transition rule ``extractor.walk_step``
ever uses, so the lattice record ``YOUNG`` (``dim``, ``is_valid``) gives the
same machine here: ``extractor.step(state, b, YOUNG)``, folded by ``q_run``,
raises ``InvalidNodeError`` on a move that breaks the row condition, and
``eliastream verify --suites young`` checks it on every ballot path.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .binomial import Lattice, binom
from .extractor import RunResult, as_count, as_node, run


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


YOUNG = Lattice("young", dim, is_valid)


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


def q_run(pbits: Iterable[int]) -> RunResult:
    """``extractor.run`` on ``YOUNG``: a box-add sequence from the apex."""
    return run(pbits, YOUNG)
