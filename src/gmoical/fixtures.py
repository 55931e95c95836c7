"""Deterministic random fixtures: matrices with prescribed Jordan
structure X = V J V^-1 built from small-integer similarity transforms, so
exact-mode inverses stay rational.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .jordan import from_structure, structure_dim
from .numerics import Matrix


class FixtureError(ValueError):
    pass

MAX_CONDITION = 1e6


def _condition(v):
    import numpy as np
    return float(np.linalg.cond(v.to_numpy()))


def _random_transform(rng, dim, exact):
    """Identity plus small integer noise: invertible with high probability
    and well conditioned."""
    return Matrix([[(i == j) + rng.randint(-2, 2) for j in range(dim)]
                   for i in range(dim)], exact=exact)


def gen_fixture(structure, seed=0, exact=False, max_tries=50):
    """(matrix, decomposition) for the given structure, a list of
    (eigenvalue, [chain lengths]) pairs. The transform is re-drawn while
    its condition estimate is above 1e6 (infinite when singular)."""
    rng = random.Random(seed)
    dim = structure_dim(structure)
    for _ in range(max_tries):
        v = _random_transform(rng, dim, exact)
        if _condition(v) <= MAX_CONDITION:
            dec = from_structure(structure, v)
            return dec.reconstruct(), dec
    raise FixtureError("could not draw a well-conditioned transform")


def random_structure(rng, dim, max_block=2, eig_pool=None, exact=False,
                     distinct=False):
    """A random block-size partition of ``dim`` with eigenvalues from a
    small pool (all distinct when ``distinct``)."""
    if eig_pool is None:
        eig_pool = [-2, -1, 0, 1, 2, 3]
    sizes = []
    left = dim
    while left:
        s = rng.randint(1, min(max_block, left))
        sizes.append(s)
        left -= s
    if distinct:
        eigs = rng.sample(eig_pool, len(sizes))
    else:
        eigs = [rng.choice(eig_pool) for _ in sizes]
    grouped = {}
    for lam, m in zip(eigs, sizes):
        grouped.setdefault(lam, []).append(m)
    return [(Fraction(lam) if exact else complex(lam), lengths)
            for lam, lengths in sorted(grouped.items())]


def random_fixture(rng, dim, max_block=2, exact=False, distinct=False,
                   eig_pool=None):
    structure = random_structure(rng, dim, max_block=max_block,
                                 eig_pool=eig_pool, exact=exact,
                                 distinct=distinct)
    return gen_fixture(structure, seed=rng.randrange(2 ** 30), exact=exact)


def random_matrix(rng, dim, exact=False, span=2):
    """A dense random argument matrix with small real entries."""
    def entry():
        re = rng.randint(-span, span)
        return re if exact else re + (rng.random() - 0.5) * 0.5
    return Matrix([[entry() for _ in range(dim)] for _ in range(dim)],
                  exact=exact)
