"""Acceptance suite: one test per top-level correctness criterion, at
desk scale (n <= 6, up to two interleaved arguments, small block counts).
Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line
per criterion."""

import math
import random
from fractions import Fraction

from gmoical import (GmoiProblem, Matrix, contour_oracle, decompose,
                     divided_difference, eval_classical_moi, eval_gmoi,
                     eval_multivariate, eval_univariate, frobenius_norm,
                     gen_fixture,
                     lift_divided_difference, lipschitz_check, mat_mul,
                     multivariate_polynomial, norm_report, nth_derivative,
                     pattern_terms, perturbation_check_gdoi,
                     perturbation_check_general, polynomial,
                     continuity_experiment)
from conftest import (bound_domain_dec, draw_fixture, float_matrix,
                      hermitian_dec, horner, ones_beta, rational_matrix,
                      unit_beta)
from engine_reference import compose_check, decompose_by_parameters
from expansion_reference import GmoiTerm, build_expansion, expansion_oracle

X, XN, XT, XTN = "X", "X_N", "X~", "X~_N"


def test_criterion_01_spectral_map_correctness():
    rng = random.Random(101)
    # 50 prescribed-structure fixtures, n <= 6, block sizes <= 3,
    # polynomial degree <= 5
    for k in range(50):
        exact = k % 2 == 0
        dim = rng.randint(2, 6)
        _, dec = draw_fixture(rng, dim, max_block=3, exact=exact)
        deg = rng.randint(1, 5)
        if exact:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(deg + 1)]
            got = eval_univariate(polynomial(coeffs), dec)
            assert got == horner(coeffs, dec.reconstruct())
        else:
            coeffs = [rng.uniform(-1, 1) for _ in range(deg + 1)]
            got = eval_univariate(polynomial(coeffs), dec)
            want = horner(coeffs, dec.reconstruct())
            denom = max(frobenius_norm(want), 1.0)
            assert frobenius_norm(got - want) / denom <= 1e-10
    # multivariate: z1 z2 and z1 + z2
    prod = multivariate_polynomial(2, [(1.0, (1, 1))])
    sums = multivariate_polynomial(2, [(1.0, (1, 0)), (1.0, (0, 1))])
    for _ in range(5):
        m1, d1 = draw_fixture(rng, 3, max_block=2, exact=False,
                              distinct=True)
        m2, d2 = draw_fixture(rng, 3, max_block=2, exact=False,
                              distinct=True)
        assert frobenius_norm(
            eval_multivariate(prod, [d1, d2]) - mat_mul(m1, m2)) <= 1e-9
        assert frobenius_norm(
            eval_multivariate(sums, [d1, d2]) - (m1 + m2)) <= 1e-9


def test_criterion_02_gmoi_sanity_identities():
    rng = random.Random(102)
    for trial in range(6):
        zeta = 1 + trial % 2
        ms, decs = [], []
        for _ in range(zeta + 1):
            m, d = draw_fixture(rng, 3, max_block=2, exact=True)
            ms.append(m)
            decs.append(d)
        args = [rational_matrix(rng, 3) for _ in range(zeta)]
        # beta == 1 -> plain argument product, exactly
        got = eval_gmoi(GmoiProblem(ones_beta(zeta + 1), decs, args))
        want = args[0]
        for y in args[1:]:
            want = mat_mul(want, y)
        assert got == want
        # beta = lambda_j -> X_j inserted at slot j
        for j in range(1, zeta + 2):
            got = eval_gmoi(GmoiProblem(unit_beta(zeta + 1, j), decs, args))
            chain = list(args)
            chain.insert(j - 1, ms[j - 1])
            want = chain[0]
            for f in chain[1:]:
                want = mat_mul(want, f)
            assert frobenius_norm(got - want) <= 1e-11
        # pattern-sum and per-parameter decomposition identities
        beta = lift_divided_difference(
            polynomial([Fraction(0), Fraction(1), Fraction(1), Fraction(1)]),
            zeta)
        prob = GmoiProblem(beta, decs, args)
        full = eval_gmoi(prob)
        total = Matrix.zeros(3, True)
        for _, t in pattern_terms(prob):
            total = total + t
        assert frobenius_norm(total - full) <= 1e-11
        total = Matrix.zeros(3, True)
        for _, _, t in decompose_by_parameters(prob):
            total = total + t
        assert frobenius_norm(total - full) <= 1e-11
    # Hermitian reduction
    for zeta in (1, 2):
        decs = [hermitian_dec(rng, 3)[1] for _ in range(zeta + 1)]
        args = [float_matrix(rng, 3) for _ in range(zeta)]
        beta = lift_divided_difference(polynomial([0.0, 1.0, 1.0, 0.5]),
                                       zeta)
        prob = GmoiProblem(beta, decs, args)
        assert frobenius_norm(
            eval_gmoi(prob) - eval_classical_moi(prob)) <= 1e-10


def test_criterion_03_two_point_first_difference():
    # X = diag(1, 2), f = z^2: the order-1 integral of the first divided
    # difference maps Y = [[a,b],[c,d]] to [[2a,3b],[3c,4d]], exactly
    x = Matrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]],
               exact=True)
    dec = decompose(x, mode="auto")
    beta = lift_divided_difference(
        polynomial([Fraction(0), Fraction(0), Fraction(1)]), 1)
    rng = random.Random(103)
    for _ in range(5):
        y = rational_matrix(rng, 2)
        got = eval_gmoi(GmoiProblem(beta, (dec, dec), (y,)))
        e = y.to_json()["entries"]
        a, b, c, d = [row for rows in e for row in rows]
        want = Matrix.from_json(
            {"dim": 2, "entries": [
                [str(Fraction(a[0]) * 2), "0"],
                [str(Fraction(b[0]) * 3), "0"],
                [str(Fraction(c[0]) * 3), "0"],
                [str(Fraction(d[0]) * 4), "0"]]}, exact=True)
        assert got == want


def test_criterion_04_composition():
    rng = random.Random(104)
    trials = 0
    while trials < 20:
        zeta = rng.choice((1, 2))
        dim = rng.choice((2, 3))
        decs = [draw_fixture(rng, dim, max_block=2, exact=False,
                             distinct=True)[1] for _ in range(zeta + 1)]
        args = [float_matrix(rng, dim) for _ in range(zeta)]
        f = multivariate_polynomial(
            zeta + 1, [(rng.uniform(-1, 1),
                        tuple(rng.randint(0, 1) for _ in range(zeta + 1)))])
        betas = [multivariate_polynomial(
            zeta + 1, [(rng.uniform(-1, 1),
                        tuple(rng.randint(0, 1) for _ in range(zeta + 1)))])
            for _ in range(zeta)]
        _, rhs, residual = compose_check(f, betas, decs, args)
        assert residual / max(frobenius_norm(rhs), 1.0) <= 1e-8
        trials += 1


def test_criterion_05_norm_bounds():
    rng = random.Random(105)
    for _ in range(200):
        zeta = rng.choice((1, 2))
        dim = rng.randint(2, 4)
        decs = [bound_domain_dec(rng, dim)[1] for _ in range(zeta + 1)]
        args = [float_matrix(rng, dim) for _ in range(zeta)]
        deg = rng.randint(1, 3)
        beta = lift_divided_difference(
            polynomial([rng.uniform(-1, 1) for _ in range(deg + 1)]), zeta)
        rep = norm_report(GmoiProblem(beta, decs, args))
        slack = 1e-8 * (1.0 + rep.upper_bound)
        assert rep.sorted_lower <= rep.actual_norm + slack
        assert rep.actual_norm <= rep.upper_bound + slack
        if rep.min_beta_lower is not None:
            assert rep.condition_holds
            assert rep.min_beta_lower <= rep.actual_norm + slack


def test_criterion_06_lipschitz():
    rng = random.Random(106)
    # a small pool of parameter sets; 500 random (Y, Y') pairs
    pool = []
    for _ in range(6):
        zeta = rng.choice((1, 2))
        dim = rng.choice((2, 3))
        decs = [bound_domain_dec(rng, dim)[1] for _ in range(zeta + 1)]
        beta = lift_divided_difference(
            polynomial([rng.uniform(-1, 1) for _ in range(4)]), zeta)
        pool.append((zeta, dim, decs, beta))
    for k in range(500):
        zeta, dim, decs, beta = pool[k % len(pool)]
        args = [float_matrix(rng, dim) for _ in range(zeta)]
        if k % 25 == 0:
            alt = list(args)            # equality case
        else:
            alt = [float_matrix(rng, dim) for _ in range(zeta)]
        actual, bound = lipschitz_check(GmoiProblem(beta, decs, args), alt)
        assert actual <= bound + 1e-8 * (1.0 + bound)
        if alt is args or all((a - b).is_zero()
                              for a, b in zip(args, alt)):
            assert actual == 0.0


def _structure_matched(seed_c, seed_d, exact=True):
    _, c = gen_fixture([(Fraction(1), [2]), (Fraction(2), [2])],
                       seed=seed_c, exact=exact)
    _, d = gen_fixture([(Fraction(0), [2]), (Fraction(3), [2])],
                       seed=seed_d, exact=exact)
    return c, d


def test_criterion_07_perturbation_formula():
    rng = random.Random(107)
    f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                    Fraction(1)])
    b1 = lift_divided_difference(f, 1)
    b2 = lift_divided_difference(f, 2)
    # first-order case: exactly 0 in rational mode
    for seeds in ((1, 2), (3, 4), (5, 6)):
        c, d = _structure_matched(*seeds)
        _, x1 = gen_fixture([(Fraction(-1), [2]), (Fraction(3), [2])],
                            seed=sum(seeds), exact=True)
        y = rational_matrix(rng, 4)
        rep = perturbation_check_gdoi(b1, b2, c, d, x1, y)
        assert rep.residual == 0.0
    # float mode <= 1e-8
    ff = polynomial([0.0, 1.0, 2.0, 0.0, 1.0])
    c, d = _structure_matched(1, 2, exact=False)
    _, x1 = gen_fixture([(-1.0, [2]), (3.0, [2])], seed=3, exact=False)
    rep = perturbation_check_gdoi(lift_divided_difference(ff, 1),
                                  lift_divided_difference(ff, 2),
                                  c, d, x1, float_matrix(rng, 4))
    assert rep.residual <= 1e-8
    # general two-argument case with an interior pair slot
    c, d = _structure_matched(1, 2)
    _, p1 = gen_fixture([(Fraction(0), [2]), (Fraction(1), [2])],
                        seed=11, exact=True)
    _, p2 = gen_fixture([(Fraction(2), [2]), (Fraction(-1), [2])],
                        seed=13, exact=True)
    rep = perturbation_check_general(
        lift_divided_difference(f, 2), lift_divided_difference(f, 3),
        [p1, p2], 2, c, d,
        [rational_matrix(rng, 4), rational_matrix(rng, 4)])
    assert rep.residual <= 1e-7
    # diagonalizable specialization: every correction vanishes
    _, cD = gen_fixture([(Fraction(1), [1, 1]), (Fraction(2), [1, 1])],
                        seed=7, exact=True)
    _, dD = gen_fixture([(Fraction(0), [1]), (Fraction(3), [1, 1, 1])],
                        seed=8, exact=True)
    _, x1D = gen_fixture([(Fraction(-1), [1, 1, 1, 1])], seed=9, exact=True)
    rep = perturbation_check_gdoi(b1, b2, cD, dD, x1D,
                                  rational_matrix(rng, 4))
    assert rep.residual <= 1e-12
    for m in rep.corrections.values():
        assert frobenius_norm(m) <= 1e-12


def test_criterion_08_continuity():
    rng = random.Random(108)
    decs = [draw_fixture(rng, 3, max_block=1, exact=False,
                         distinct=True)[1] for _ in range(2)]
    args = [float_matrix(rng, 3)]
    beta = lift_divided_difference(
        polynomial([rng.uniform(-1, 1) for _ in range(4)] + [1.0]), 1)
    prob = GmoiProblem(beta, decs, args)
    dirs = [float_matrix(rng, 3).scale(0.02) for _ in range(2)]
    steps = [2.0 ** -l for l in range(1, 13)]
    rep = continuity_experiment(prob, dirs, steps)
    for a, b in zip(rep.residuals[2:], rep.residuals[3:]):
        assert b < a
    assert rep.residuals[-1] <= 1e-3 * rep.residuals[0]


def test_criterion_09_derivatives():
    rng = random.Random(109)
    fns = [polynomial([0.0, 0.0, 1.0]),
           polynomial([0.0, 0.0, 0.0, 1.0]),
           polynomial([1.0 / math.factorial(k) for k in range(9)])]
    # first derivative vs the contour-integral oracle on 30 fixtures
    for _ in range(30):
        dim = rng.randint(2, 4)
        m, _ = draw_fixture(rng, dim, max_block=2, exact=False,
                            distinct=True)
        y = float_matrix(rng, dim)
        for f in fns:
            got = nth_derivative(f, m, y, 1)
            want = contour_oracle(f, m, y, 1)
            assert frobenius_norm(got - want) <= \
                1e-12 * frobenius_norm(want)
    # n = 2, 3 vs the polynomial expansion oracle: exact for rational
    # diagonalizable families
    fe = polynomial([Fraction(1), Fraction(2), Fraction(-1), Fraction(1),
                     Fraction(0), Fraction(2)])
    for seed in range(3):
        _, dec = gen_fixture([(Fraction(seed), [1, 1]),
                              (Fraction(seed + 2), [1])], seed=seed,
                             exact=True)
        x = dec.reconstruct()
        y = rational_matrix(rng, 3)
        for n in (2, 3):
            assert nth_derivative(fe, x, y, n) == expansion_oracle(fe, x, y, n)
    # float mode <= 1e-5, including a structure-stable Jordan family
    ffl = polynomial([0.0, 1.0, 1.0, 0.5, 0.25])
    _, decf = gen_fixture([(0.5, [1, 1]), (2.0, [1])], seed=4, exact=False)
    xf = decf.reconstruct()
    yf = float_matrix(rng, 3)
    for n in (2, 3):
        got = nth_derivative(ffl, xf, yf, n)
        assert frobenius_norm(got - expansion_oracle(ffl, xf, yf, n)) <= 1e-5
    from gmoical import inverse
    _, decj = gen_fixture([(0.5, [2]), (2.0, [1])], seed=9, exact=False)
    v = decj.transform
    e = Matrix([[complex(0.7), complex(0), complex(0)],
                [complex(0), complex(0.7), complex(0)],
                [complex(0), complex(0), complex(-0.4)]], exact=False)
    yj = mat_mul(mat_mul(v, e), inverse(v))
    xj = decj.reconstruct()
    for n in (2, 3):
        got = nth_derivative(ffl, xj, yj, n)
        assert frobenius_norm(got - expansion_oracle(ffl, xj, yj, n)) <= 1e-5
    # n above the polynomial degree annihilates
    f3 = polynomial([Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
    _, dec = gen_fixture([(Fraction(1), [1, 1, 1])], seed=1, exact=True)
    assert frobenius_norm(
        nth_derivative(f3, dec.reconstruct(), rational_matrix(rng, 3),
                       4)) <= 1e-10


def test_criterion_10_expansion_regression():
    def as_sets(n):
        gmoi, cross = {}, {}
        for t in build_expansion(n).terms:
            if isinstance(t, GmoiTerm):
                gmoi[t.pattern.slots] = t.coeff
            else:
                cross[(t.pattern.slots, t.order, t.pair_pos)] = t.coeff
        return gmoi, cross

    gmoi, cross = as_sets(2)
    assert gmoi == {(X, X, X): 2, (X, XN, XN): -1, (XN, XN, X): -1}
    assert cross == {((XT, X, XT), 1, 0): -1, ((X, XT, X), 1, 1): -1}
    gmoi, cross = as_sets(3)
    assert gmoi == {(X, X, X, X): 6, (X, X, XN, XN): -3, (X, XN, XN, X): -2,
                    (XN, XN, X, X): -3, (XN, XN, XN, XN): 2}
    assert cross == {((X, X, XT, X), 1, 2): -2,
                     ((X, XT, X), 2, 1): -1,
                     ((X, XT, X, XT), 1, 1): -2,
                     ((XN, XN, XT, X), 1, 2): 1,
                     ((XT, X, XT), 2, 0): -1,
                     ((XT, X, XT, XT), 1, 0): -2,
                     ((XT, X, XTN, XTN), 1, 0): 1}
    gmoi, _ = as_sets(4)
    leading = [gmoi[(X,) * 5],
               gmoi[(XN, XN, X, X, X)], gmoi[(X, XN, XN, X, X)],
               gmoi[(X, X, XN, XN, X)], gmoi[(X, X, X, XN, XN)]]
    assert leading == [24, -12, -8, -8, -12]


def test_criterion_11_divided_differences():
    # confluent divided difference at d+1 equal nodes returns the leading
    # coefficient, exactly
    rng = random.Random(111)
    for d in range(1, 6):
        lead = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(d)] + [lead]
        node = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert divided_difference(polynomial(coeffs),
                                  [node] * (d + 1)) == lead
    # first-order identity on 100 random node sets
    f = polynomial([0.5, -1.0, 2.0, 1.0, 0.25])
    for _ in range(100):
        k = rng.randint(0, 2)
        base = [rng.uniform(-2, 2) for _ in range(k + 1)]
        lam, mu = rng.uniform(-2, 2), rng.uniform(-2, 2)
        pos = rng.randint(0, len(base))
        lhs = (divided_difference(f, base[:pos] + [lam] + base[pos:])
               - divided_difference(f, base[:pos] + [mu] + base[pos:]))
        rhs = (lam - mu) * divided_difference(
            f, base[:pos] + [lam, mu] + base[pos:])
        assert abs(lhs - rhs) <= 1e-9
