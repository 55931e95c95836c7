"""Reference exact kernels: the schoolbook QC product and the exact
Gauss-Jordan inverse that pivots on any nonzero entry.

Every multiply-add is a QC operation on Fractions, so each one reduces by
its own gcd. The engine's kernels work on Gaussian-integer numerators over
one common denominator; the differential tests compare the two.
"""

from gmoical import QC, Matrix, SingularMatrixError


def mat_mul_reference(a, b):
    n = a.dim
    br = b.rows
    out = []
    for i in range(n):
        ar = a.rows[i]
        row = []
        for j in range(n):
            s = ar[0] * br[0][j]
            for k in range(1, n):
                s = s + ar[k] * br[k][j]
            row.append(s)
        out.append(row)
    return Matrix(out, exact=True)


def inverse_reference(a):
    n = a.dim
    aug = [list(ra) + list(rb)
           for ra, rb in zip(a.rows, Matrix.identity(n, True).rows)]
    for col in range(n):
        piv_row = max(range(col, n), key=lambda r: aug[r][col].modulus_sq())
        piv = aug[piv_row][col]
        if not piv:
            raise SingularMatrixError("matrix is singular (exact)")
        aug[col], aug[piv_row] = aug[piv_row], aug[col]
        inv_piv = QC(1) / piv
        aug[col] = [e * inv_piv for e in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if not f:
                continue
            aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return Matrix([row[n:] for row in aug], exact=True)
