"""Jordan-structure decomposition of small matrices.

A decomposition carries, per Jordan chain, the (non-orthogonal) spectral
projector P and nilpotent part N obtained from a similarity X = V J V^-1:
P selects the chain's columns of V, N is the shift on those columns. The
resolution of identity sum(P) = I and X = sum(lambda P + N) hold by
construction; ``validate`` measures the residuals. ``components`` groups
the chains per distinct eigenvalue as column index pairs of the shift
powers, which is what the slot sums of :mod:`spectral_map` use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .numerics import (Matrix, QC, SingularMatrixError, frobenius_norm,
                       inverse, mat_mul, scalar)


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralBlock:
    """One Jordan chain: eigenvalue, chain index within the eigenvalue,
    projector, nilpotent part, and chain length (nilpotency order)."""
    eigenvalue: object          # complex or QC
    block_index: int            # i, 1-based within the eigenvalue
    projector: Matrix
    nilpotent: Matrix
    order: int                  # m >= 1; N**m == 0

    @functools.cached_property
    def powers(self):
        """(N, N**2, ..., N**(order-1)), each power the previous one
        times N."""
        out = []
        for _ in range(1, self.order):
            out.append(mat_mul(out[-1], self.nilpotent) if out
                       else self.nilpotent)
        return tuple(out)


@dataclass(frozen=True)
class SpectralComponent:
    """All Jordan chains of one distinct eigenvalue, as index pairs in the
    column order of the transform V: ``shifts[q]`` holds the positions
    (i, i + q) of the ones of S**q restricted to these chains, where S is
    the shift of J. V E V^-1 for the 0/1 matrix E on ``shifts[0]`` is the
    eigenvalue's projector P, and on ``shifts[q]`` its nilpotent power
    N**q."""
    eigenvalue: object
    shifts: tuple

    @property
    def order(self):
        """The longest chain: N**order == 0."""
        return len(self.shifts)


@dataclass(frozen=True)
class JordanDecomposition:
    dim: int
    blocks: tuple                # tuple[SpectralBlock]
    transform: Matrix            # V
    transform_inv: Matrix
    exact: bool
    tolerance_used: float = 0.0

    @functools.cached_property
    def components(self):
        """One SpectralComponent per distinct eigenvalue, in block order.
        Chains group by exact equality of their stored eigenvalue."""
        spans = {}
        col = 0
        for b in self.blocks:
            spans.setdefault(b.eigenvalue, []).append((col, b.order))
            col += b.order
        return tuple(
            SpectralComponent(lam, tuple(
                tuple((s + k, s + k + q) for s, m in chains
                      for k in range(m - q))
                for q in range(max(m for _, m in chains))))
            for lam, chains in spans.items())

    @property
    def eigenvalues(self):
        """Distinct eigenvalues, in block order."""
        seen = []
        for b in self.blocks:
            if not any(_same_eig(b.eigenvalue, e, self.exact,
                                 self.tolerance_used) for e in seen):
                seen.append(b.eigenvalue)
        return seen

    @property
    def distinct_count(self):
        return len(self.eigenvalues)

    def signature(self):
        """Structure fingerprint: tuple of (chain lengths) grouped per
        distinct eigenvalue, in block order. Two decompositions of nearby
        matrices are 'structure-stable' when signatures agree."""
        sig = []
        for e in self.eigenvalues:
            lens = tuple(b.order for b in self.blocks
                         if _same_eig(b.eigenvalue, e, self.exact,
                                      self.tolerance_used))
            sig.append(lens)
        return tuple(sig)

    def reconstruct(self):
        out = Matrix.zeros(self.dim, self.exact)
        for b in self.blocks:
            out = out + b.projector.scale(b.eigenvalue) + b.nilpotent
        return out

    def split_parts(self):
        """(sum of lambda*P, sum of N): the commuting diagonalizable and
        nilpotent parts of the matrix."""
        d = Matrix.zeros(self.dim, self.exact)
        n = Matrix.zeros(self.dim, self.exact)
        for b in self.blocks:
            d = d + b.projector.scale(b.eigenvalue)
            n = n + b.nilpotent
        return d, n

    def validate(self, x=None):
        """Residual report: completeness, idempotency, orthogonality,
        nilpotency, commutation, and (if x given) reconstruction."""
        ident = Matrix.identity(self.dim, self.exact)
        psum = Matrix.zeros(self.dim, self.exact)
        for b in self.blocks:
            psum = psum + b.projector
        res = {"completeness": frobenius_norm(psum - ident)}
        idem = 0.0
        for b in self.blocks:
            idem = max(idem, frobenius_norm(
                mat_mul(b.projector, b.projector) - b.projector))
        res["idempotency"] = idem
        orth = 0.0
        for i, a in enumerate(self.blocks):
            for j, b in enumerate(self.blocks):
                if i != j:
                    orth = max(orth, frobenius_norm(
                        mat_mul(a.projector, b.projector)))
        res["orthogonality"] = orth
        nil = 0.0
        absorb = 0.0
        for b in self.blocks:
            nil = max(nil, frobenius_norm(b.nilpotent.power(b.order)))
            absorb = max(absorb,
                         frobenius_norm(mat_mul(b.projector, b.nilpotent)
                                        - b.nilpotent),
                         frobenius_norm(mat_mul(b.nilpotent, b.projector)
                                        - b.nilpotent))
        res["nilpotency"] = nil
        res["absorption"] = absorb
        if x is not None:
            res["reconstruction"] = frobenius_norm(self.reconstruct() - x)
        return res


def _same_eig(a, b, exact, tol):
    if exact:
        return a == b
    return abs(a - b) <= max(tol * 10, 1e-9)


def _blocks_from_similarity(v, v_inv, chains, exact):
    """chains: list of (eigenvalue, start_col, length)."""
    n = v.dim
    blocks = []
    counts = {}
    zero = QC(0) if exact else 0j
    one = QC(1) if exact else 1 + 0j
    for lam, start, length in chains:
        key = _eig_key(lam)
        counts[key] = counts.get(key, 0) + 1
        sel = [[zero] * n for _ in range(n)]
        shift = [[zero] * n for _ in range(n)]
        for c in range(start, start + length):
            sel[c][c] = one
        for c in range(start, start + length - 1):
            shift[c][c + 1] = one      # J e_{c+1} picks up e_c superdiagonal
        p = mat_mul(mat_mul(v, Matrix(sel, exact=exact)), v_inv)
        nmat = mat_mul(mat_mul(v, Matrix(shift, exact=exact)), v_inv)
        blocks.append(SpectralBlock(eigenvalue=lam,
                                    block_index=counts[key],
                                    projector=p, nilpotent=nmat,
                                    order=length))
    return tuple(blocks)


def _eig_key(lam):
    if isinstance(lam, QC):
        return (lam.re, lam.im)
    return (round(lam.real, 9), round(lam.imag, 9))


def _sort_chains(chains, exact):
    # eigenvalues lexicographically by (Re, Im), then longer chains first
    def key(ch):
        lam = ch[0]
        if exact:
            re, im = lam.re, lam.im
        else:
            re, im = lam.real, lam.imag
        return (re, im, -ch[2])
    return sorted(chains, key=key)


def from_structure(structure, transform, exact=False, tol=1e-9):
    """Build a decomposition from a prescribed structure.

    structure: list of (eigenvalue, [chain lengths...]) pairs;
    transform: the similarity V whose columns are the Jordan chains, in
    structure order.
    """
    v = transform
    chains = []
    col = 0
    for lam, lengths in structure:
        lam = scalar(lam, exact)
        for m in lengths:
            chains.append((lam, col, m))
            col += m
    if col != v.dim:
        raise DecompositionError(
            f"structure covers {col} columns but matrix has dim {v.dim}")
    chains_sorted = _sort_chains(chains, exact)
    # re-pack V columns to the sorted chain order
    perm = []
    for lam, start, length in chains_sorted:
        perm.extend(range(start, start + length))
    rows = [[v.rows[i][j] for j in perm] for i in range(v.dim)]
    v2 = Matrix(rows, exact=exact)
    try:
        v2_inv = inverse(v2)
    except SingularMatrixError as e:
        raise DecompositionError(f"transform is singular: {e}") from e
    chains2 = []
    col = 0
    for lam, _start, length in chains_sorted:
        chains2.append((lam, col, length))
        col += length
    blocks = _blocks_from_similarity(v2, v2_inv, chains2, exact)
    return JordanDecomposition(dim=v.dim, blocks=blocks, transform=v2,
                               transform_inv=v2_inv, exact=exact,
                               tolerance_used=0.0 if exact else tol)


def _decompose_auto_float(x, tol):
    import numpy as np
    a = x.to_numpy()
    n = x.dim
    eigs = np.linalg.eigvals(a)
    # cluster eigenvalues within a gap-based threshold
    thr = max(tol, 1e-8) * max(1.0, float(np.abs(a).max()))
    clusters = []
    for e in sorted(eigs, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(e - np.mean(cl)) <= thr * 100:
                cl.append(e)
                break
        else:
            clusters.append([e])
    chains = []       # (lambda, list of chain column vectors)
    for cl in clusters:
        lam = complex(np.mean(cl))
        mult = len(cl)
        b = a - lam * np.eye(n)
        # rank profile of powers gives the chain-length partition
        nullity = [0]
        power = np.eye(n)
        s = 0
        while nullity[-1] < mult:
            s += 1
            power = power @ b
            rank = np.linalg.matrix_rank(power, tol=thr * 10)
            nullity.append(n - rank)
        # number of chains of length >= s is nullity[s] - nullity[s-1]
        ge = [nullity[i] - nullity[i - 1] for i in range(1, s + 1)]
        lengths = []
        for length in range(s, 0, -1):
            cnt = ge[length - 1] - (ge[length] if length < s else 0)
            lengths.extend([length] * cnt)
        # build chains: top vectors from ker b^m modulo ker b^(m-1)
        chain_vecs = _chain_vectors(b, lengths, thr)
        for vecs in chain_vecs:
            chains.append((lam, vecs))
    chains = sorted(chains, key=lambda c: (c[0].real, c[0].imag, -len(c[1])))
    v_cols = []
    packed = []
    col = 0
    for lam, vecs in chains:
        packed.append((lam, col, len(vecs)))
        col += len(vecs)
        v_cols.extend(vecs)
    v = np.column_stack(v_cols)
    vm = Matrix.from_numpy(v)
    try:
        vm_inv = inverse(vm)
    except SingularMatrixError as e:
        raise DecompositionError(
            f"auto decomposition produced singular transform: {e}") from e
    blocks = _blocks_from_similarity(vm, vm_inv, packed, False)
    return JordanDecomposition(dim=n, blocks=blocks, transform=vm,
                               transform_inv=vm_inv, exact=False,
                               tolerance_used=tol)


def _null_basis(m, thr):
    import numpy as np
    u, s, vh = np.linalg.svd(m)
    rank = int((s > thr * 10).sum())
    return vh[rank:].conj().T


def _chain_vectors(b, lengths, thr):
    """Jordan chains for nilpotent-on-eigenspace map b, given the chain
    length partition (descending). Returns a list of column lists, each
    chain ordered [top, b top, b^2 top, ...] reversed so that
    b v_{k+1} = v_k (column c maps to column c-1)."""
    import numpy as np
    n = b.shape[0]
    maxlen = max(lengths)
    powers = [np.eye(n)]
    for _ in range(maxlen):
        powers.append(powers[-1] @ b)
    kernels = [_null_basis(powers[s], thr) for s in range(maxlen + 1)]
    chains = []
    for m in lengths:   # descending
        km = kernels[m]
        # project out: span of ker b^(m-1) plus b-images already used tops
        avoid = [kernels[m - 1]]
        for ch in chains:
            if len(ch) >= m:
                avoid.append(np.column_stack(ch)[:, :])
        avoid_m = np.column_stack([a for a in avoid if a.shape[1]]) \
            if any(a.shape[1] for a in avoid) else np.zeros((n, 0))
        top = None
        for j in range(km.shape[1]):
            cand = km[:, j]
            if avoid_m.shape[1]:
                q, _ = np.linalg.qr(avoid_m)
                cand = cand - q @ (q.conj().T @ cand)
            if np.linalg.norm(cand) > max(thr * 100, 1e-7):
                top = cand / np.linalg.norm(cand)
                break
        if top is None:
            raise DecompositionError(
                "could not extract a Jordan chain (structure unstable "
                "at this tolerance)")
        chain = [top]
        for _ in range(m - 1):
            chain.append(b @ chain[-1])
        chain.reverse()   # chain[0] is the eigenvector; b chain[k] = chain[k-1]
        chains.append(chain)
    return chains


def _decompose_auto_exact(x):
    import sympy
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
    return from_structure(structure, Matrix(v_rows, exact=True), exact=True)


def _sympy_to_qc(val):
    re, im = val.as_real_imag()
    if not (re.is_rational and im.is_rational):
        raise DecompositionError(
            "exact decomposition requires rational eigenvalues; "
            f"got {val}")
    return QC(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def decompose(x, tol=1e-9, mode="auto", structure=None, transform=None):
    """Decompose matrix ``x``.

    mode="prescribed": caller supplies ``structure`` (list of
    (eigenvalue, [chain lengths])) and ``transform`` V; the decomposition
    is built exactly from them and validated against x.
    mode="auto": numeric (float matrices) or symbolic (exact matrices)
    structure discovery.
    """
    if mode == "prescribed":
        if structure is None or transform is None:
            raise DecompositionError(
                "prescribed mode needs structure and transform")
        dec = from_structure(structure, transform, exact=x.exact, tol=tol)
        resid = frobenius_norm(dec.reconstruct() - x)
        limit = 0 if x.exact else max(tol, 1e-9) * max(1.0, x.max_abs()) * 100
        if resid > limit:
            raise DecompositionError(
                f"prescribed structure does not reproduce x "
                f"(residual {resid:.3e})")
        return dec
    if mode != "auto":
        raise DecompositionError(f"unknown mode {mode!r}")
    if x.exact:
        return _decompose_auto_exact(x)
    return _decompose_auto_float(x, tol)
