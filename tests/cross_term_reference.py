"""Reference perturbation correction: the paper's literal display of one
named correction term, assembled as a sum over the per-slot choices of
the non-pair slots and the chain and power choices of the C/D pair, with
every factor a dense matrix. In the doubly-nilpotent (C_N, D_N) case the
display drops boundary terms, so it differs from
``gmoical.operational_cross_term``, which carries the forms that sum
exactly; the tests check where the two agree and flag where they differ.
"""

import itertools
import math

from gmoical import Matrix, mat_mul, slot_options
from gmoical.jordan import shift_factor


def _chain_positions(positions, args):
    out = positions[0]
    for k in range(1, len(positions)):
        out = mat_mul(out, args[k - 1])
        out = mat_mul(out, positions[k])
    return out


def explicit_cross_term(beta_small, beta_big, slots, pair_pos, c_dec, d_dec,
                        nilpotent_pair, args):
    """One named correction term, assembled literally as a sum over the
    per-slot choices of the non-pair slots and the block/power choices of
    the C/D pair.

    slots: (decomposition, mode) per non-pair product position, in order;
    pair_pos: index of the pair among the product positions;
    nilpotent_pair: False for the C_P/D_P label (single sub-sum), True for
    C_N/D_N (four sub-sums, the last one signed negative);
    args: interleaved argument matrices (one per gap; the pair position
    absorbs the C-D argument of the source integral).
    """
    zero = Matrix.zeros(c_dec.dim, c_dec.exact)
    if len(args) != len(slots):
        raise ValueError("cross term needs one argument per gap")
    option_lists = [slot_options(dec, mode) for dec, mode in slots]
    if any(not o for o in option_lists):
        return zero
    out = zero
    for combo in itertools.product(*option_lists):
        lams = [c.eigenvalue for c in combo]
        orders = [c.order for c in combo]
        denom0 = 1
        for q in orders:
            denom0 *= math.factorial(q)
        factors = [shift_factor(dec.transform, dec.transform_inv, c.pairs)
                   for (dec, _), c in zip(slots, combo)]

        def add(sign, beta, lam_mid, ord_mid, extra_fact, middle):
            nonlocal out
            lam_full = lams[:pair_pos] + list(lam_mid) + lams[pair_pos:]
            ord_full = orders[:pair_pos] + list(ord_mid) + orders[pair_pos:]
            coeff = beta.partial(ord_full, lam_full) / (denom0 * extra_fact)
            if not coeff:
                return
            positions = factors[:pair_pos] + [middle] + factors[pair_pos:]
            out = out + _chain_positions(positions, args).scale(
                coeff if sign > 0 else -coeff)

        for cb in c_dec.blocks:
            for db in d_dec.blocks:
                lc, ld = cb.eigenvalue, db.eigenvalue
                cn = list(enumerate(cb.powers, 1))
                dn = list(enumerate(db.powers, 1))
                if not nilpotent_pair:
                    for qc, ncq in cn:
                        for qd, ndq in dn:
                            mid = mat_mul(mat_mul(cb.projector, ncq - ndq),
                                          db.projector)
                            add(+1, beta_big, (lc, ld), (0, 0), 1, mid)
                else:
                    for qc, ncq in cn:
                        for qd, ndq in dn:
                            mid = mat_mul(cb.projector, mat_mul(ncq - ndq, ndq))
                            add(+1, beta_big, (lc, ld), (0, qd),
                                math.factorial(qd), mid)
                            mid = mat_mul(mat_mul(ncq, ncq - ndq), db.projector)
                            add(+1, beta_big, (lc, ld), (qc, 0),
                                math.factorial(qc), mid)
                    for qd, ndq in dn:
                        add(+1, beta_small, (lc,), (qd,),
                            math.factorial(qd), mat_mul(cb.projector, ndq))
                    for qc, ncq in cn:
                        add(-1, beta_small, (ld,), (qc,),
                            math.factorial(qc), mat_mul(ncq, db.projector))
    return out
