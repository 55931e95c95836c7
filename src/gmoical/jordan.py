"""Jordan-structure decomposition of small matrices.

A decomposition is a similarity X = V J V^-1: the transform V, its
inverse, and per Jordan chain the eigenvalue, the first column in V and
the chain length. Every spectral matrix is V E V^-1 for a 0/1 matrix E
(``shift_factor``), whose ones are those of a power S^q of the chain's
shift on its columns (``SpectralBlock.shift_pairs``): the chain's
(non-orthogonal) projector P is q = 0, its nilpotent part N is q = 1 and
N^q is q, each built on first access. The resolution of identity
sum(P) = I and X = sum(lambda P + N) hold by construction; ``validate``
measures the residuals. ``components`` groups the same pairs per distinct
eigenvalue, by exact equality of the stored eigenvalue, which is what the
slot sums of :mod:`spectral_map` use.

``decompose`` finds the structure of a float matrix with numpy, and that
of an exact one over the Gaussian integers: the characteristic polynomial
by Berkowitz's division-free algorithm, eigenvalues certified exactly,
and ranks and nullspaces by fraction-free elimination
(``numerics.gauss_jordan``). The exact transform is canonical, the one
sympy's ``jordan_form`` returns: nullspace vectors come from the reduced
row echelon form, and each chain's top is the first one independent of
those before it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import (Matrix, QC, SingularMatrixError, _filled,
                       _numerators, _over, frobenius_norm, gauss_jordan,
                       inverse, mat_mul, scalar, scalar_key)


class DecompositionError(ValueError):
    pass


def shift_factor(v, v_inv, pairs):
    """V E V^-1 for the 0/1 matrix E with ones at ``pairs`` (i, k).

    Multiplied as (V E) V^-1, where column k of V E is column i of V:
    V (E V^-1) has the same nonzero entries in float mode but can flip
    the sign of zero ones, which the float ``decompose`` output prints."""
    ve = _filled(v.dim, v.exact)
    for i, k in pairs:
        ve[:, k] = v.array[:, i]
    return mat_mul(Matrix._of(ve, v.exact), v_inv)


@dataclass(frozen=True)
class SpectralBlock:
    """One Jordan chain: eigenvalue, chain index within the eigenvalue,
    chain length (nilpotency order) and first column in the transform V.
    The projector and nilpotent part are built from V on first access."""
    eigenvalue: object          # complex or QC
    block_index: int            # i, 1-based within the eigenvalue
    order: int                  # m >= 1; N**m == 0
    start: int                  # the chain's columns are start..start+m-1
    transform: Matrix = field(compare=False, repr=False)
    transform_inv: Matrix = field(compare=False, repr=False)

    def shift_pairs(self, q):
        """The ones (c, c + q) of S**q on the chain's columns, S the
        chain's shift: S**0 selects the columns."""
        return [(c, c + q)
                for c in range(self.start, self.start + self.order - q)]

    @functools.cached_property
    def projector(self):
        """P = V E V^-1, E selecting the chain's columns."""
        return shift_factor(self.transform, self.transform_inv,
                            self.shift_pairs(0))

    @functools.cached_property
    def nilpotent(self):
        """N = V S V^-1, S the shift on the chain's columns (zero for a
        chain of length 1)."""
        return shift_factor(self.transform, self.transform_inv,
                            self.shift_pairs(1))

    @functools.cached_property
    def powers(self):
        """(N, N**2, ..., N**(order-1)), N**q = V S**q V^-1."""
        return tuple(self.nilpotent if q == 1 else
                     shift_factor(self.transform, self.transform_inv,
                                  self.shift_pairs(q))
                     for q in range(1, self.order))


@dataclass(frozen=True)
class SpectralComponent:
    """All Jordan chains of one distinct eigenvalue, as index pairs in the
    column order of the transform V: ``shifts[q]`` holds the positions
    (i, i + q) of the ones of S**q restricted to these chains, where S is
    the shift of J. V E V^-1 for the 0/1 matrix E on ``shifts[0]`` is the
    eigenvalue's projector P, and on ``shifts[q]`` its nilpotent power
    N**q."""
    eigenvalue: object
    blocks: tuple               # the eigenvalue's SpectralBlocks
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

    @functools.cached_property
    def components(self):
        """One SpectralComponent per distinct eigenvalue, in block order.
        Chains group by exact equality of their stored eigenvalue."""
        groups = {}
        for b in self.blocks:
            groups.setdefault(b.eigenvalue, []).append(b)
        return tuple(
            SpectralComponent(lam, tuple(chains), tuple(
                tuple(pair for b in chains for pair in b.shift_pairs(q))
                for q in range(max(b.order for b in chains))))
            for lam, chains in groups.items())

    @property
    def eigenvalues(self):
        """Distinct eigenvalues, in block order."""
        return [c.eigenvalue for c in self.components]

    def signature(self):
        """Structure fingerprint: tuple of (chain lengths) grouped per
        distinct eigenvalue, in block order. Two decompositions of nearby
        matrices are 'structure-stable' when signatures agree."""
        return tuple(tuple(b.order for b in c.blocks)
                     for c in self.components)

    def _similar(self, diagonal, shift):
        """V M V^-1 for M in Jordan coordinates: the eigenvalues on the
        diagonal if ``diagonal``, plus the chains' shift S if ``shift``."""
        return mat_mul(Matrix._of(self._v_times(diagonal, shift),
                                  self.exact), self.transform_inv)

    def _v_times(self, diagonal, shift):
        """The array V M of ``_similar``: column c is lambda_c v_c plus
        v_{c-1} inside a chain, so it takes no product."""
        v = self.transform.array
        vm = _filled(self.dim, self.exact)
        for b in self.blocks:
            end = b.start + b.order
            if diagonal:
                vm[:, b.start:end] = b.eigenvalue * v[:, b.start:end]
            if shift:
                vm[:, b.start + 1:end] += v[:, b.start:end - 1]
        return vm

    def reconstruct(self):
        """X = V J V^-1."""
        return self._similar(True, True)

    def split_parts(self):
        """(sum of lambda*P, sum of N): the commuting diagonalizable and
        nilpotent parts of the matrix."""
        return self._similar(True, False), self._similar(False, True)

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


def structure_dim(structure):
    """The dimension covered by a list of (eigenvalue, [chain lengths...])
    pairs; DecompositionError for a length that is not a positive
    integer."""
    lengths = [m for _, ms in structure for m in ms]
    for m in lengths:
        if not isinstance(m, int) or m < 1:
            raise DecompositionError(
                f"chain length {m!r} is not a positive integer")
    return sum(lengths)


def from_structure(structure, transform):
    """Build a decomposition from a prescribed structure, exact when the
    transform is.

    structure: list of (eigenvalue, [chain lengths...]) pairs;
    transform: the similarity V whose columns are the Jordan chains, in
    structure order.
    """
    dim = structure_dim(structure)
    if dim != transform.dim:
        raise DecompositionError(
            f"structure covers {dim} columns but matrix has dim "
            f"{transform.dim}")
    exact = transform.exact
    chains = []
    col = 0
    for lam, lengths in structure:
        lam = scalar(lam, exact)
        for m in lengths:
            chains.append((lam, col, m))
            col += m
    # eigenvalues lexicographically by (Re, Im), then longer chains first
    chains.sort(key=lambda ch: (*scalar_key(ch[0]), -ch[2]))
    # re-pack V columns to the sorted chain order
    perm = [c for _, start, m in chains for c in range(start, start + m)]
    v = Matrix._of(transform.array[:, perm], exact)
    try:
        v_inv = inverse(v)
    except SingularMatrixError as e:
        raise DecompositionError(f"transform is singular: {e}") from e
    blocks = []
    counts = {}
    col = 0
    for lam, _, m in chains:
        counts[lam] = counts.get(lam, 0) + 1
        blocks.append(SpectralBlock(lam, counts[lam], m, col, v, v_inv))
        col += m
    return JordanDecomposition(dim=v.dim, blocks=tuple(blocks), transform=v,
                               transform_inv=v_inv, exact=exact)


def _residual_limit(x, tol):
    """The largest reconstruction residual a float decomposition of x may
    have."""
    return max(tol, 1e-9) * max(1.0, x.max_abs()) * 100


def _decompose_auto_float(x, tol):
    a = x.to_numpy()
    n = x.dim
    eigs = np.linalg.eigvals(a)
    # cluster eigenvalues within a gap-based threshold, relative to the
    # matrix scale
    rel = max(tol, 1e-8)
    thr = rel * max(1.0, float(np.abs(a).max()))
    clusters = []
    for e in sorted(eigs, key=scalar_key):
        for cl in clusters:
            if abs(e - np.mean(cl)) <= thr * 100:
                cl.append(e)
                break
        else:
            clusters.append([e])
    structure = []    # (lambda, [chain lengths]) per cluster
    cols = []         # the chain vectors, in structure order
    for cl in clusters:
        lam = complex(np.mean(cl))
        mult = len(cl)
        b = a - lam * np.eye(n)
        # the kernels of the powers of b; their nullity profile gives the
        # chain-length partition
        kernels = [np.zeros((n, 0))]
        power = np.eye(n)
        while kernels[-1].shape[1] < mult:
            if len(kernels) > mult:
                raise DecompositionError(
                    f"the nullity of (x - lambda)^{mult} stays below the "
                    f"multiplicity {mult} of the eigenvalue near {lam:.6g}: "
                    f"its rank decisions are inconsistent at this tolerance")
            power = power @ b
            kernels.append(_null_basis(power, thr))
        nullity = [k.shape[1] for k in kernels]
        s = len(nullity) - 1
        # number of chains of length >= s is nullity[s] - nullity[s-1]
        ge = [nullity[i] - nullity[i - 1] for i in range(1, s + 1)]
        lengths = []
        for length in range(s, 0, -1):
            cnt = ge[length - 1] - (ge[length] if length < s else 0)
            lengths.extend([length] * cnt)
        # build chains: top vectors from ker b^m modulo ker b^(m-1)
        chain_vecs = _chain_vectors(b, kernels, lengths, rel)
        structure.append((lam, [len(vecs) for vecs in chain_vecs]))
        cols.extend(vec for vecs in chain_vecs for vec in vecs)
    if len(cols) != n:
        raise DecompositionError(
            f"auto decomposition found {len(cols)} chain vectors for a "
            f"matrix of dim {n}: its rank decisions are inconsistent at "
            f"this tolerance")
    dec = from_structure(structure, Matrix._of(np.column_stack(cols), False))
    # ||V J V^-1 - X||_F
    resid = float(np.linalg.norm(dec._v_times(True, True)
                                 @ dec.transform_inv.array - a))
    limit = _residual_limit(x, tol)
    if resid > limit:
        raise DecompositionError(
            f"auto decomposition does not reproduce x: residual "
            f"{resid:.3e} exceeds {limit:.3e} for signature "
            f"{dec.signature()}")
    return dec


def _null_basis(m, thr):
    u, s, vh = np.linalg.svd(m)
    rank = int((s > thr * 10).sum())
    return vh[rank:].conj().T


def _chain_vectors(b, kernels, lengths, rel):
    """Jordan chains for nilpotent-on-eigenspace map b, given orthonormal
    bases ``kernels[s]`` of the kernels of b^s and the chain length
    partition (descending). Returns a list of column lists, each chain
    ordered [top, b top, b^2 top, ...] reversed so that b v_{k+1} = v_k
    (column c maps to column c-1). A top candidate, a unit vector, must
    keep a norm above ``rel * 100`` once the vectors to avoid are
    projected out."""
    chains = []
    for m in lengths:   # descending
        # project out: span of ker b^(m-1) plus b-images already used tops
        avoid = np.column_stack([kernels[m - 1]] + [
            v for ch in chains if len(ch) >= m for v in ch])
        q = np.linalg.qr(avoid)[0] if avoid.shape[1] else None
        top = None
        for cand in kernels[m].T:
            if q is not None:
                cand = cand - q @ (q.conj().T @ cand)
            if np.linalg.norm(cand) > rel * 100:
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
    """Write x = B / d over the Gaussian integers (``_numerators``); its
    eigenvalues are mu / d for the eigenvalues mu of B, and its chains
    are those of E = B - mu I, since x - lambda I = E / d."""
    re, im, d = _numerators(x)
    eye = np.identity(x.dim, dtype=object)
    structure = []    # one (eigenvalue, [chain length]) pair per chain
    cols = []         # the chain vectors, in structure order
    for (mr, mi), mult in _eigenvalues(re, im, d):
        lam = QC(Fraction(mr, d), Fraction(mi, d))
        for chain in _chains(re - mr * eye, im - mi * eye, mult, d):
            structure.append((lam, [len(chain)]))
            cols.extend(chain)
    return from_structure(structure, Matrix._of(np.column_stack(cols), True))


def _eigenvalues(re, im, d):
    """The distinct eigenvalues mu of B = re + i im, each a Gaussian
    integer (re, im), and their algebraic multiplicities, as dict items.
    The roots of the square-free part g = chi / gcd(chi, chi') of the
    characteristic polynomial chi are simple, so numpy finds them to near
    full precision;
    a monic polynomial over Z[i] has its rational roots in Z[i], so
    ``_root_near`` rounds each onto Z[i] and certifies g(mu) = 0 exactly.
    DecompositionError names an eigenvalue of B / d that is not
    rational."""
    chi = _charpoly(re, im)
    gcd = _poly_gcd(chi, [((len(chi) - 1 - k) * a, (len(chi) - 1 - k) * b)
                          for k, (a, b) in enumerate(chi[:-1])])
    g = _pseudo_divmod(chi, [_gdiv(c, gcd[0]) for c in gcd])[0]
    # roots of g(2^e y) / 2^(e deg g), whose coefficients fit in floats
    e = max((max(abs(a), abs(b)).bit_length() + k - 1) // k
            for k, (a, b) in enumerate(g) if k)
    scaled = [complex(a / 2 ** (e * k), b / 2 ** (e * k))
              for k, (a, b) in enumerate(g)]
    mults = {}
    for y in np.roots(scaled):
        try:
            z = complex(math.ldexp(y.real, e), math.ldexp(y.imag, e))
            mu = _root_near(g, z)
        except OverflowError:
            size = math.log10(abs(y)) + e * math.log10(2) - math.log10(d)
            raise DecompositionError(
                f"exact decomposition: an eigenvalue of magnitude about "
                f"10^{size:.0f} is beyond the float range") from None
        if mu is None:
            raise DecompositionError(
                "exact decomposition requires rational eigenvalues: "
                f"found one near {z / d:.6g}")
        mult, rem = 0, chi
        while True:
            quo, (tail,) = _pseudo_divmod(rem, [(1, 0), (-mu[0], -mu[1])])
            if tail != (0, 0):
                break
            mult, rem = mult + 1, quo
        mults[mu] = mult
    if sum(mults.values()) != len(re):
        raise DecompositionError(
            f"exact decomposition found eigenvalue multiplicities "
            f"{list(mults.values())} for a matrix of dim {len(re)}")
    return mults.items()


def _root_near(g, z):
    """The root of g in Z[i] that the float root z approximates, or None.
    z is rounded onto Z[i] and refined by Newton steps in exact
    arithmetic, each rounded onto Z[i], which reach the root where a float
    cannot resolve it (|z| beyond 2^53); a simple root is reached in a
    few steps."""
    mu = (round(z.real), round(z.imag))
    for _ in range(8):
        lin = [(1, 0), (-mu[0], -mu[1])]
        quo, (val,) = _pseudo_divmod(g, lin)
        if val == (0, 0):
            return mu
        slope = _pseudo_divmod(quo, lin)[1][0]    # g'(mu)
        norm = slope[0] * slope[0] + slope[1] * slope[1]
        if not norm:
            return None
        step = (round(Fraction(val[0] * slope[0] + val[1] * slope[1], norm)),
                round(Fraction(val[1] * slope[0] - val[0] * slope[1], norm)))
        if step == (0, 0):
            return None
        mu = (mu[0] - step[0], mu[1] - step[1])
    return None


def _chains(er, ei, mult, d):
    """The Jordan chains of an eigenvalue of algebraic multiplicity
    ``mult``, for E = er + i ei (object arrays of Python ints), as sympy's
    ``jordan_form`` picks them, each a list of exact columns (arrays of QC)
    with the eigenvector first. The nullities d_k of E^k give
    2 d_k - d_(k-1) - d_(k+1) chains of length k, longest first. A chain
    of length m has as its top v the first nullspace vector of E^m that is
    independent of the nullspace of E^(m-1) and of the eigenvalue's
    earlier chain vectors, and its columns are (E / d)^i v for
    i = m-1, ..., 0. A nullspace vector sets one free variable of the
    reduced row echelon form to 1 and each pivot variable to minus that
    row's entry in the free column."""
    n = len(er)
    power = (er, ei)
    nulls = [([], None)]  # per k, a basis p v of the nullspace of E^k, p
    # the nullity of E^k grows with k until it reaches mult
    while len(nulls[-1][0]) < mult:
        if len(nulls) > 1:
            power = (power[0] @ er - power[1] @ ei,
                     power[0] @ ei + power[1] @ er)
        rr, ri = _primitive(zip(*power))
        pivots, p = gauss_jordan(rr, ri, n)
        basis = []
        for f in range(n):
            if f not in pivots:
                vr, vi = [0] * n, [0] * n
                vr[f], vi[f] = p
                for row, c in enumerate(pivots):
                    vr[c], vi[c] = -rr[row][f], -ri[row][f]
                basis.append((vr, vi))
        nulls.append((basis, p))
    dims = [len(v) for v, _ in nulls] + [mult]
    lengths = [k for k in range(len(nulls) - 1, 0, -1)
               for _ in range(2 * dims[k] - dims[k - 1] - dims[k + 1])]
    chains = []
    used = []         # the eigenvalue's chain vectors so far
    for m in lengths:
        avoid = nulls[m - 1][0] + used
        rank = _rank(avoid, n)
        candidates, (pr, pi) = nulls[m]
        vr, vi = np.array(next(v for v in candidates
                               if _rank(avoid + [v], n) > rank), dtype=object)
        chain = []
        for i in range(m):
            if i:
                vr, vi = er @ vr - ei @ vi, er @ vi + ei @ vr
            used.append((vr, vi))
            qr, qi = pr * d ** i, pi * d ** i
            chain.append(_over(vr * qr + vi * qi, vi * qr - vr * qi,
                               qr * qr + qi * qi))
        chains.append(chain[::-1])
    return chains


def _primitive(rows):
    """Gaussian-integer rows (re, im) as new integer rows re and im, each
    row divided by the gcd of its parts: the same row space and reduced
    row echelon form, with smaller entries to eliminate."""
    out_r, out_i = [], []
    for r, i in rows:
        g = math.gcd(*r, *i) or 1
        out_r.append([u // g for u in r])
        out_i.append([u // g for u in i])
    return out_r, out_i


def _rank(vectors, n):
    """The rank of Gaussian-integer vectors (re, im) of length n."""
    return len(gauss_jordan(*_primitive(vectors), n)[0])


# Polynomials over Z[i]: lists of coefficients (re, im), leading first.

def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gdiv(x, y):
    """x / y for Gaussian integers that y divides."""
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) // norm,
            (x[1] * y[0] - x[0] * y[1]) // norm)


def _charpoly(re, im):
    """det(xI - B) for B = re + i im by Berkowitz's division-free
    algorithm (Berkowitz 1984): step k multiplies the polynomial of the
    leading k x k block A by the lower triangular Toeplitz matrix with
    first column 1, -b_kk, -r c, -r A c, ..., -r A^(k-1) c, where c is
    the column above b_kk and r the row left of it."""
    poly = [(1, 0)]
    for k in range(len(re)):
        ar, ai = re[:k, :k], im[:k, :k]
        cr, ci = re[:k, k], im[:k, k]
        rr, ri = re[k, :k], im[k, :k]
        col = [(1, 0), (-re[k, k], -im[k, k])]
        for j in range(k):
            if j:
                cr, ci = ar @ cr - ai @ ci, ar @ ci + ai @ cr
            col.append((ri @ ci - rr @ cr, -(rr @ ci) - ri @ cr))
        poly = [(sum(t[0] * p[0] - t[1] * p[1] for t, p in pairs),
                 sum(t[0] * p[1] + t[1] * p[0] for t, p in pairs))
                for pairs in ([(col[j - i], poly[i])
                               for i in range(min(j, k) + 1)]
                              for j in range(k + 2))]
    return poly


def _pseudo_divmod(a, b):
    """(q, r) with lc(b)^(deg a - deg b + 1) a = q b + r, where r keeps
    the len(b) - 1 low coefficients: division when b is monic."""
    lead = b[0]
    q, r = [], list(a)
    for _ in range(len(a) - len(b) + 1):
        f = r[0]
        q = [_gmul(lead, c) for c in q] + [f]
        r = [(x[0] - y[0], x[1] - y[1]) for x, y in
             zip((_gmul(lead, u) for u in r[1:]),
                 (_gmul(f, c) for c in b[1:]))] \
            + [_gmul(lead, u) for u in r[len(b):]]
    return q, r


def _poly_gcd(a, b):
    """A gcd of a and b, deg a >= deg b, by the subresultant remainder
    sequence (Collins 1967), whose divisions are exact over Z[i]."""
    g = h = (1, 0)
    while True:
        delta = len(a) - len(b)
        r = _pseudo_divmod(a, b)[1]
        while r and r[0] == (0, 0):
            r.pop(0)
        if len(r) <= 1:
            return b if not r else [(1, 0)]
        div = g
        for _ in range(delta):
            div = _gmul(div, h)
        a, b = b, [_gdiv(c, div) for c in r]
        g = a[0]
        if delta:
            num, den = g, (1, 0)
            for _ in range(delta - 1):
                num, den = _gmul(num, g), _gmul(den, h)
            h = _gdiv(num, den)


def decompose(x, tol=1e-9, mode="auto"):
    """Decompose matrix ``x`` by structure discovery, the only ``mode``:
    numeric with numpy for a float matrix, over the Gaussian integers for
    an exact one, whose eigenvalues must be Gaussian rationals. A float
    result must reproduce x within ``_residual_limit``; an exact one is
    exact. ``from_structure`` builds a decomposition from a known
    structure and transform."""
    if mode != "auto":
        raise DecompositionError(f"unknown mode {mode!r}")
    if x.exact:
        return _decompose_auto_exact(x)
    return _decompose_auto_float(x, tol)
