"""Reference exact decomposition: sympy's Jordan form.

sympy's ``jordan_form`` reads the chain lengths off the ranks of the
powers of X - lambda I, takes nullspace vectors from the reduced row
echelon form and picks each chain's top as the first nullspace vector
that is independent of the ones before. Its transform and chains are
therefore canonical; the engine computes the same ones over the
Gaussian integers, and the differential tests compare the two.
"""

from fractions import Fraction

import sympy

from gmoical import QC, DecompositionError, Matrix, from_structure


def decompose_reference(x):
    n = x.dim
    sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(x.rows[i][j].re)
                      + sympy.I * sympy.Rational(x.rows[i][j].im))
    try:
        p, j = sm.jordan_form()
    except Exception as e:      # sympy raises various types
        raise DecompositionError(f"exact Jordan form failed: {e}") from e
    # read chains off J, one (eigenvalue, [length]) entry per chain
    structure = []
    col = 0
    while col < n:
        lam = j[col, col]
        length = 1
        while col + length < n and j[col + length - 1, col + length] == 1:
            length += 1
        structure.append((_sympy_to_qc(lam), [length]))
        col += length
    v_rows = [[_sympy_to_qc(p[i, c]) for c in range(n)] for i in range(n)]
    return from_structure(structure, Matrix(v_rows, exact=True))


def _sympy_to_qc(val):
    re, im = val.as_real_imag()
    if not (re.is_rational and im.is_rational):
        raise DecompositionError(
            "exact decomposition requires rational eigenvalues; "
            f"got {val}")
    return QC(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
