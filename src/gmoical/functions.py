"""Scalar multivariate functions with partial-derivative oracles, divided
differences (confluent-safe), and divided-difference lifts of univariate
functions to multivariate symbols.

Builtins evaluate on either Python complex or exact rational complex (QC)
arguments; the exponential is float-only.

A partial of the lift f^[k] is one confluent divided difference of f, and
neighbouring terms of a spectral sum share most of its sub-differences.
``MultiFunction.tabulated()`` gives a copy of a symbol whose divided
differences all go through one table keyed by node tuple, so each
sub-difference is computed once; evaluators take that copy once per call
and drop it on return, so no table outlives the call that made it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .numerics import QC, scalar


class FunctionError(ValueError):
    pass


def _is_exact(x):
    return isinstance(x, (QC, Fraction))


def _coerce(value, exact):
    return scalar(value, exact)


class MultiFunction:
    """A scalar function of ``arity`` complex variables together with a
    mixed-partial-derivative oracle.

    ``partial(orders, args)`` returns the mixed partial with the given
    per-argument derivative orders, evaluated at ``args``.

    ``tabulate``, when given, builds the copy returned by ``tabulated()``.
    """

    def __init__(self, arity, eval_fn, partial_fn=None, max_order=None,
                 kind="custom", meta=None, tabulate=None):
        self.arity = arity
        self._eval = eval_fn
        self._partial = partial_fn
        self.max_order = math.inf if max_order is None else max_order
        self.kind = kind
        self.meta = meta or {}
        self._tabulate = tabulate

    def tabulated(self):
        """A copy whose divided differences share one fresh table, with
        the same values bit for bit; ``self`` when the partials are closed
        form or the table is already there."""
        return self if self._tabulate is None else self._tabulate()

    def eval(self, *args):
        if len(args) == 1 and isinstance(args[0], (list, tuple)):
            args = tuple(args[0])
        if len(args) != self.arity:
            raise FunctionError(
                f"{self.kind} expects {self.arity} arguments, got {len(args)}")
        return self._eval(args)

    def partial(self, orders, args):
        orders = tuple(orders)
        args = tuple(args)
        if len(orders) != self.arity or len(args) != self.arity:
            raise FunctionError(
                f"partial needs {self.arity} orders and arguments")
        if any(q < 0 for q in orders):
            raise FunctionError("derivative orders must be nonnegative")
        if all(q == 0 for q in orders):
            return self._eval(args)
        if sum(orders) > self.max_order:
            raise FunctionError(
                f"{self.kind} supports derivatives up to total order "
                f"{self.max_order}, requested {sum(orders)}")
        if self._partial is None:
            raise FunctionError(f"{self.kind} has no derivative oracle")
        return self._partial(orders, args)

    def __call__(self, *args):
        return self.eval(*args)


# ---------------------------------------------------------------------------
# builtins

def constant(value):
    def ev(args):
        exact = _is_exact(args[0]) if args else False
        return _coerce(value, exact)

    def pt(orders, args):
        return _coerce(0, _is_exact(args[0]))

    return MultiFunction(1, ev, pt, kind="constant", meta={"value": value})


def exp_function():
    def ev(args):
        z, = args
        if _is_exact(z):
            raise FunctionError("exp is not available in exact mode")
        return cmath.exp(z)

    def pt(orders, args):
        return ev(args)

    return MultiFunction(1, ev, pt, kind="exp")


def _poly_deriv_eval(coeffs, k, z):
    """k-th derivative of sum c_i z^i at z, in z's scalar mode."""
    exact = _is_exact(z)
    acc = _coerce(0, exact)
    # Horner on the derivative-shifted coefficients
    for i in range(len(coeffs) - 1, k - 1, -1):
        c = _coerce(coeffs[i], exact)
        fall = 1
        for t in range(k):
            fall *= (i - t)
        acc = acc * z + c * fall
    return acc


def polynomial(coeffs):
    """Polynomial sum_i coeffs[i] * z**i; coefficients may be numbers or
    "p/q" strings."""
    coeffs = list(coeffs)
    if not coeffs:
        coeffs = [0]

    def ev(args):
        return _poly_deriv_eval(coeffs, 0, args[0])

    def pt(orders, args):
        return _poly_deriv_eval(coeffs, orders[0], args[0])

    return MultiFunction(1, ev, pt, kind="polynomial",
                         meta={"coeffs": coeffs})


def rational_function(num_coeffs, den_coeffs):
    """p(z)/q(z). Derivatives at a point via the Leibniz recurrence
    p^(k) = sum C(k,j) h^(j) q^(k-j), solved for h^(k)."""
    num_coeffs = list(num_coeffs)
    den_coeffs = list(den_coeffs)

    def derivs(z, upto):
        exact = _is_exact(z)
        q0 = _poly_deriv_eval(den_coeffs, 0, z)
        if (exact and not q0) or (not exact and abs(q0) < 1e-300):
            raise FunctionError("rational function evaluated at a pole")
        hs = []
        for k in range(upto + 1):
            rhs = _poly_deriv_eval(num_coeffs, k, z)
            for j in range(k):
                rhs = rhs - (hs[j] * _poly_deriv_eval(den_coeffs, k - j, z)
                             * math.comb(k, j))
            hs.append(rhs / q0)
        return hs

    def ev(args):
        return derivs(args[0], 0)[0]

    def pt(orders, args):
        return derivs(args[0], orders[0])[orders[0]]

    return MultiFunction(1, ev, pt, kind="rational",
                         meta={"num": num_coeffs, "den": den_coeffs})


def power_function(d):
    """z**d for integer d (negative allowed away from 0)."""
    d = int(d)

    def ev(args):
        z, = args
        if d >= 0:
            exact = _is_exact(z)
            if d == 0:
                return _coerce(1, exact)
            return z ** d
        return _coerce(1, _is_exact(z)) / (z ** (-d))

    def pt(orders, args):
        k = orders[0]
        z, = args
        exact = _is_exact(z)
        if d >= 0 and k > d:
            return _coerce(0, exact)
        fall = 1
        for t in range(k):
            fall *= (d - t)
        if d - k >= 0:
            base = z ** (d - k) if d - k > 0 else _coerce(1, exact)
        else:
            base = _coerce(1, exact) / (z ** (k - d))
        return base * fall

    return MultiFunction(1, ev, pt, kind="power", meta={"degree": d})


def multivariate_polynomial(arity, terms):
    """sum over terms (coeff, exponents) of coeff * prod z_j**e_j."""
    terms = [(c, tuple(e)) for c, e in terms]
    for _, e in terms:
        if len(e) != arity:
            raise FunctionError("term exponent tuple has wrong length")

    def pt(orders, args):
        exact = _is_exact(args[0])
        acc = _coerce(0, exact)
        for c, exps in terms:
            coeff = 1
            dead = False
            for e, q in zip(exps, orders):
                if q > e:
                    dead = True
                    break
                for t in range(q):
                    coeff *= (e - t)
            if dead:
                continue
            val = _coerce(c, exact) * coeff
            for z, e, q in zip(args, exps, orders):
                for _ in range(e - q):
                    val = val * z
            acc = acc + val
        return acc

    def ev(args):
        return pt((0,) * arity, args)

    return MultiFunction(arity, ev, pt, kind="polynomial-multi",
                         meta={"terms": terms})


def product_symbol(beta, num_linear):
    """The symbol f(z_1,...,z_{2r-1}) = beta(z_1, z_3, ..., z_{2r-1}) *
    z_2 * z_4 * ... used to express a multiple operator integral as a plain
    multivariate matrix function: the even slots are linear placeholders
    for the integrated arguments."""
    arity = beta.arity + num_linear
    if num_linear != beta.arity - 1:
        raise FunctionError(
            "need exactly one linear slot between consecutive beta slots")

    def pt(orders, args):
        exact = _is_exact(args[0])
        beta_orders = []
        beta_args = []
        lin = _coerce(1, exact)
        for j in range(arity):
            if j % 2 == 0:
                beta_orders.append(orders[j])
                beta_args.append(args[j])
            else:
                q = orders[j]
                if q == 0:
                    lin = lin * args[j]
                elif q == 1:
                    pass
                else:
                    return _coerce(0, exact)
        return beta.partial(beta_orders, beta_args) * lin

    def ev(args):
        return pt((0,) * arity, args)

    def tabulate():
        inner = beta.tabulated()
        return symbol if inner is beta else product_symbol(inner, num_linear)

    symbol = MultiFunction(arity, ev, pt, kind="product-moi",
                           meta={"beta": beta}, tabulate=tabulate)
    return symbol


def separable_product(outer, inners, layout):
    """Product of functions on disjoint variable groups: outer acts on the
    variables at positions ``layout[0]`` and inners[i] on ``layout[i+1]``.
    Mixed partials factor across the groups."""
    arity = sum(len(g) for g in layout)
    funcs = [outer] + list(inners)
    for f, g in zip(funcs, layout):
        if f.arity != len(g):
            raise FunctionError("layout group size does not match arity")

    def pt(orders, args):
        exact = _is_exact(args[0])
        acc = _coerce(1, exact)
        for f, g in zip(funcs, layout):
            acc = acc * f.partial([orders[j] for j in g],
                                  [args[j] for j in g])
        return acc

    def ev(args):
        return pt((0,) * arity, args)

    def tabulate():
        tabs = [f.tabulated() for f in funcs]
        if all(t is f for t, f in zip(tabs, funcs)):
            return symbol
        return separable_product(tabs[0], tabs[1:], layout)

    symbol = MultiFunction(arity, ev, pt, kind="separable-product",
                           tabulate=tabulate)
    return symbol


# ---------------------------------------------------------------------------
# divided differences

def _node_key(z):
    if isinstance(z, Fraction):
        return (z, Fraction(0))
    if isinstance(z, QC):
        return (z.re, z.im)
    return (z.real, z.imag)


def _nodes_equal(a, b, tol):
    if _is_exact(a):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _near_equal_adjacent(nodes, tol):
    """Sorted ``nodes`` reordered so that each class of near-equal nodes
    (linked by ``_nodes_equal``) is contiguous: classes in the order of
    their first node, each in sorted order. The recursion treats a run as
    confluent when its end nodes are near-equal, so a far node sorted
    between them would be dropped. Sorting already keeps the classes
    contiguous for exact and for real nodes; the order is only changed
    where it does not."""
    if _is_exact(nodes[0]) or not any(z.imag for z in nodes):
        return nodes
    runs = []                       # maximal runs of equal nodes
    for z in nodes:
        if runs and runs[-1][0] == z:
            runs[-1].append(z)
        else:
            runs.append([z])
    label = list(range(len(runs)))  # smallest run index of each class
    for j in range(1, len(runs)):
        for i in range(j):
            if label[i] != label[j] and _nodes_equal(runs[i][0], runs[j][0],
                                                     tol):
                lo, hi = sorted((label[i], label[j]))
                label = [lo if x == hi else x for x in label]
    order = sorted(range(len(runs)), key=label.__getitem__)
    if order == list(range(len(runs))):
        return nodes
    return [z for i in order for z in runs[i]]


def divided_difference(f, nodes, tol=1e-8, table=None):
    """Confluent divided difference f[z_0, ..., z_k] of a univariate f.

    Repeated nodes (exact equality in exact mode, relative tolerance in
    float mode) use the derivative rule f[z ... z] = f^(s)(z)/s!.

    Every sub-difference is stored in ``table`` under its node tuple; a
    dict passed in is shared with later calls on the same f and tol, which
    then reuse what they have in common. Without one the table lives for
    this call only. The value is the same either way.
    """
    if f.arity != 1:
        raise FunctionError("divided_difference needs a univariate function")
    k = len(nodes) - 1
    if k < 0:
        raise FunctionError("need at least one node")
    if k > f.max_order:
        raise FunctionError(
            f"confluent divided difference may need derivatives up to "
            f"order {k}, function supports {f.max_order}")
    nodes = _near_equal_adjacent(sorted(nodes, key=_node_key), tol)
    return _dd(f, tuple(nodes), tol, {} if table is None else table)


_MISSING = object()


def _dd(f, nodes, tol, table):
    val = table.get(nodes, _MISSING)
    if val is not _MISSING:
        return val
    first, last = nodes[0], nodes[-1]
    if _nodes_equal(first, last, tol):
        s = len(nodes) - 1
        val = f.partial((s,), (first,)) / math.factorial(s)
    else:
        val = ((_dd(f, nodes[1:], tol, table) - _dd(f, nodes[:-1], tol, table))
               / (last - first))
    table[nodes] = val
    return val


def lift_divided_difference(f, k, tol=1e-8):
    """The order-k divided-difference lift f^[k], an arity k+1 symmetric
    function. Its partial of orders (q_1,...,q_{k+1}) is the confluent
    divided difference with node j repeated q_j + 1 times, scaled by
    prod q_j!."""
    if f.arity != 1:
        raise FunctionError("lift needs a univariate function")
    return _lift(f, k, tol, None)


def _lift(f, k, tol, table):
    """The lift; its divided differences share ``table`` when it is a
    dict, and each call has its own when it is None."""

    def ev(args):
        return divided_difference(f, args, tol=tol, table=table)

    def pt(orders, args):
        expanded = []
        for q, z in zip(orders, args):
            expanded.extend([z] * (q + 1))
        val = divided_difference(f, expanded, tol=tol, table=table)
        for q in orders:
            val = val * math.factorial(q)
        return val

    def tabulate():
        return _lift(f.tabulated(), k, tol, {})

    return MultiFunction(k + 1, ev, pt, kind="dd-lift",
                         meta={"base": f, "order": k},
                         tabulate=None if table is not None else tabulate)


def fd_check(f, orders, args, step=1e-5):
    """Finite-difference estimate of a mixed partial (float mode only):
    tensor product of central stencils, O(step**2) accurate."""
    args = [complex(a) if not _is_exact(a) else a.to_complex() for a in args]
    stencils = []
    for q in orders:
        if q == 0:
            stencils.append([(0.0, 1.0)])
        else:
            st = [(q / 2.0 - i, (-1) ** i * math.comb(q, i) / step ** q)
                  for i in range(q + 1)]
            stencils.append(st)
    total = 0j
    def rec(j, shifted, weight):
        nonlocal total
        if j == len(args):
            total += weight * f.eval(*shifted)
            return
        for off, w in stencils[j]:
            rec(j + 1, shifted + [args[j] + off * step], weight * w)
    rec(0, [], 1.0)
    return total


# ---------------------------------------------------------------------------
# JSON construction

def _json_scalar(value):
    """A JSON scalar: a plain number, a "p/q" string, or an [re, im]
    pair whose parts are numbers or "p/q" strings."""
    if isinstance(value, (list, tuple)):
        from .numerics import parse_entry
        return parse_entry(value, exact=True)
    return value


def function_from_json(obj):
    """Build a MultiFunction from its JSON description {"kind": ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FunctionError("function JSON must be an object with 'kind'")
    kind = obj["kind"]
    if kind == "exp":
        return exp_function()
    if kind == "constant":
        return constant(_json_scalar(obj.get("value", 1)))
    if kind == "polynomial":
        return polynomial([_json_scalar(c) for c in obj["coeffs"]])
    if kind == "rational":
        return rational_function([_json_scalar(c) for c in obj["num"]],
                                 [_json_scalar(c) for c in obj["den"]])
    if kind == "power":
        return power_function(obj["degree"])
    if kind == "polynomial-multi":
        return multivariate_polynomial(obj["arity"],
                                       [(_json_scalar(t["coeff"]),
                                         t["exponents"])
                                        for t in obj["terms"]])
    if kind == "dd-lift":
        return lift_divided_difference(function_from_json(obj["base"]),
                                       obj["order"])
    if kind == "product-moi":
        return product_symbol(function_from_json(obj["beta"]), obj["zeta"])
    raise FunctionError(f"unknown function kind {kind!r}")
