"""Reference slot sum: the dense per-chain walk.

Each slot option is one Jordan chain with its projector P or a nilpotent
power N**q as a dense matrix, and every term is multiplied out densely,
depth-first in the lexicographic order of the option lists. The engine
evaluates the same sums per distinct eigenvalue in Jordan coordinates;
the differential tests compare the two.
"""

import math
from dataclasses import dataclass

from gmoical import Matrix, mat_mul


@dataclass(frozen=True)
class ChainChoice:
    eigenvalue: object
    factor: Matrix
    order: int


def chain_options(dec):
    """P (order 0) and N**q (1 <= q < chain length) of every chain."""
    opts = []
    for b in dec.blocks:
        opts.append(ChainChoice(b.eigenvalue, b.projector, 0))
        opts.extend(ChainChoice(b.eigenvalue, b.nilpotent.power(q), q)
                    for q in range(1, b.order))
    return opts


def chain_pattern_sums(symbol, decs, interleave):
    """{P/N pattern: sum of its terms} over the per-chain options of every
    slot, where a term coeff * F_1 A_1 F_2 ... A_{r-1} F_r has
    coeff = symbol.partial(orders, eigenvalues) / prod q! and its pattern
    has "N" where q > 0. Depth-first over the options, sharing prefix
    products; ``interleave`` entries of None are skipped."""
    opts = [chain_options(d) for d in decs]
    r = len(decs)
    dim, exact = decs[0].dim, decs[0].exact
    lams = [None] * r
    orders = [0] * r
    out = {}

    def walk(j, prefix):
        for c in opts[j]:
            lams[j] = c.eigenvalue
            orders[j] = c.order
            term = c.factor
            if prefix is not None:
                term = prefix
                if interleave[j - 1] is not None:
                    term = mat_mul(term, interleave[j - 1])
                term = mat_mul(term, c.factor)
            if j < r - 1:
                walk(j + 1, term)
                continue
            coeff = symbol.partial(orders, lams)
            if not coeff:
                continue
            coeff = coeff / math.prod(math.factorial(q) for q in orders)
            key = tuple("N" if q else "P" for q in orders)
            out[key] = out.get(key, Matrix.zeros(dim, exact)) + term.scale(
                coeff)

    walk(0, None)
    return out


def restrict(pattern_sums, modes, dim, exact):
    """The sum restricted by ``modes``: each slot "P", "N" or "full"."""
    out = Matrix.zeros(dim, exact)
    for key, m in pattern_sums.items():
        if all(mode in ("full", k) for mode, k in zip(modes, key)):
            out = out + m
    return out
