"""Reference compositions of the engine's integrals: the composition
identity, checked as two evaluations of one integral, and the pattern
terms reindexed by parameter. The tests hold them to the engine's own
evaluators.
"""

from gmoical import (EngineError, GmoiProblem, Matrix, eval_gmoi,
                     frobenius_norm, pattern_terms, separable_product)


def decompose_by_parameters(problem, budget=None):
    """The 2**(zeta+1) sub-integrals indexed i = 1..2**(zeta+1) where slot
    j is nilpotent-restricted iff bit j-1 (least significant first) of
    i - 1 is set: the pattern terms, reindexed. Their sum equals the full
    integral."""
    ordered = sorted(pattern_terms(problem, budget=budget),
                     key=lambda pt: pt[0].bits[::-1])
    return [(i, pat.modes, term) for i, (pat, term) in enumerate(ordered, 1)]


def compose_check(f, betas, params, args, budget=None):
    """Composition identity: the integral of the flattened product symbol
    over the expanded parameter list, with identities padding each inner
    group, equals the outer integral applied to the inner results.

    Returns (lhs, rhs, residual_norm).
    """
    zeta = len(betas)
    if f.arity != zeta + 1 or len(params) != zeta + 1 or len(args) != zeta:
        raise EngineError("composition shapes do not match")
    dim = params[0].dim
    exact = params[0].exact
    ident = Matrix.identity(dim, exact)

    # inner integrals share parameters and arguments, differ in symbol
    inners = [eval_gmoi(GmoiProblem(b, params, args), budget=budget)
              for b in betas]
    rhs = eval_gmoi(GmoiProblem(f, params, inners), budget=budget)

    # flattened side: outer slot p, then a full copy of the parameter
    # list (the group for beta_p), repeating, closing with the last outer
    big_params = []
    layout = [[]]                      # layout[0] = outer positions
    big_args = []
    pos = 0
    for p in range(zeta):
        big_params.append(params[p])
        layout[0].append(pos)
        pos += 1
        big_args.append(ident)
        group = []
        for x in params:
            big_params.append(x)
            group.append(pos)
            pos += 1
        layout.append(group)
        big_args.extend(args)
        big_args.append(ident)
        # interleave: I before the group, Y's within, I after
    big_params.append(params[zeta])
    layout[0].append(pos)
    big_symbol = separable_product(f, betas, layout)
    lhs = eval_gmoi(GmoiProblem(big_symbol, big_params, big_args),
                    budget=budget)
    return lhs, rhs, frobenius_norm(lhs - rhs)
