"""Scalar multivariate functions with partial-derivative oracles, divided
differences (confluent-safe), and divided-difference lifts of univariate
functions to multivariate symbols.

Builtins evaluate on either Python complex or exact rational complex (QC)
arguments; the exponential is float-only.

A spectral sum weights each term by a Taylor coefficient of the symbol,
partial(orders, nodes) / prod(orders!), and ``coefficient_table`` gives
them as a table with integer keys that the walk adds up slot by slot. For
the lift f^[k] the coefficient is one confluent divided difference of f,
f[node j repeated q_j + 1 times], so it depends only on the count vector
of the distinct nodes, and neighbouring terms share most of its
sub-differences: the table is keyed by count vectors and fills an entry
from two others (``_TaylorTable``). ``MultiFunction.tabulated()`` gives a
copy of a symbol whose lifts keep one such table for all their calls, so
each sub-difference is computed once; evaluators take that copy once per
call and drop it on return, so no table outlives the call that made it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from .numerics import QC, scalar, scalar_key


class FunctionError(ValueError):
    pass


def _is_exact(x):
    return isinstance(x, (QC, Fraction))


class MultiFunction:
    """A scalar function of ``arity`` complex variables together with a
    mixed-partial-derivative oracle.

    ``partial(orders, args)`` returns the mixed partial with the given
    per-argument derivative orders, evaluated at ``args``.

    ``tabulate``, when given, builds the copy returned by ``tabulated()``;
    ``coefficients``, when given, replaces the per-slot table of
    ``coefficient_table``.
    """

    def __init__(self, arity, eval_fn, partial_fn=None, kind="custom",
                 meta=None, tabulate=None, coefficients=None):
        self.arity = arity
        self._eval = eval_fn
        self._partial = partial_fn
        self.kind = kind
        self.meta = meta or {}
        self._tabulate = tabulate
        self._coefficients = coefficients

    def tabulated(self):
        """A copy whose divided differences share one fresh table, with
        the same values bit for bit; ``self`` when the partials are closed
        form or the table is already there."""
        return self if self._tabulate is None else self._tabulate()

    def coefficient_table(self, options):
        """(parts, table) for the slot options ``options``, one list of
        (node, order) pairs per argument: parts[j][i] is the key of option
        i of slot j, a term's key is the sum of the keys of its options,
        and table[key] is its Taylor coefficient
        partial(orders, nodes) / prod(orders!), filled on first use. A
        divided-difference lift keys by count vectors over the distinct
        nodes (``_TaylorTable``), and its tabulated copy keeps one table
        for all calls; other symbols key by option index, one table per
        call."""
        if self._coefficients is not None:
            return self._coefficients(options)
        table = _SlotTable(self, options)
        return table.parts(), table

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
        return scalar(value, exact)

    def pt(orders, args):
        return scalar(0, _is_exact(args[0]))

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
    acc = scalar(0, exact)
    # Horner on the derivative-shifted coefficients
    for i in range(len(coeffs) - 1, k - 1, -1):
        c = scalar(coeffs[i], exact)
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
    _integer(d, "degree")

    def ev(args):
        z, = args
        if d >= 0:
            exact = _is_exact(z)
            if d == 0:
                return scalar(1, exact)
            return z ** d
        return scalar(1, _is_exact(z)) / (z ** (-d))

    def pt(orders, args):
        k = orders[0]
        z, = args
        exact = _is_exact(z)
        if d >= 0 and k > d:
            return scalar(0, exact)
        fall = 1
        for t in range(k):
            fall *= (d - t)
        if d - k >= 0:
            base = z ** (d - k) if d - k > 0 else scalar(1, exact)
        else:
            base = scalar(1, exact) / (z ** (k - d))
        return base * fall

    return MultiFunction(1, ev, pt, kind="power", meta={"degree": d})


def multivariate_polynomial(arity, terms):
    """sum over terms (coeff, exponents) of coeff * prod z_j**e_j."""
    _integer(arity, "arity", 1)
    terms = [(c, tuple(e)) for c, e in terms]
    for _, e in terms:
        for x in e:
            _integer(x, "exponent", 0)
        if len(e) != arity:
            raise FunctionError("term exponent tuple has wrong length")

    def pt(orders, args):
        exact = _is_exact(args[0])
        acc = scalar(0, exact)
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
            val = scalar(c, exact) * coeff
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
    for the integrated arguments, ``num_linear`` = zeta of them."""
    _integer(num_linear, "zeta", 0)
    arity = beta.arity + num_linear
    if num_linear != beta.arity - 1:
        raise FunctionError(
            "need exactly one linear slot between consecutive beta slots")

    def pt(orders, args):
        exact = _is_exact(args[0])
        beta_orders = []
        beta_args = []
        lin = scalar(1, exact)
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
                    return scalar(0, exact)
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
        acc = scalar(1, exact)
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

# float nodes closer than this, relative to their size, count as repeated
NODE_TOL = 1e-8


def _nodes_equal(a, b):
    if _is_exact(a):
        return a == b
    return abs(a - b) <= NODE_TOL * max(1.0, abs(a), abs(b))


def _near_equal_adjacent(nodes):
    """Sorted ``nodes`` reordered so that each class of near-equal nodes
    (linked by ``_nodes_equal``) is contiguous: classes in the order of
    their first node, each in sorted order. The recurrence treats a run as
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
            if (label[i] != label[j]
                    and _nodes_equal(runs[i][0], runs[j][0])):
                lo, hi = sorted((label[i], label[j]))
                label = [lo if x == hi else x for x in label]
    order = sorted(range(len(runs)), key=label.__getitem__)
    if order == list(range(len(runs))):
        return nodes
    return [z for i in order for z in runs[i]]


def divided_difference(f, nodes):
    """Confluent divided difference f[z_0, ..., z_k] of a univariate f.

    Repeated nodes (exact equality in exact mode, relative distance at
    most ``NODE_TOL`` in float mode) use the derivative rule
    f[z ... z] = f^(s)(z)/s!.

    The nodes are sorted by ``scalar_key``, with near-equal classes kept
    together (``_near_equal_adjacent``), and the recurrence
    f[z_i..z_j] = (f[z_i+1..z_j] - f[z_i..z_j-1]) / (z_j - z_i) runs over
    that order as Newton's triangle, one level at a time: k + 1 values
    are kept, so no recursion is involved. In exact mode a level of
    zeros above every confluent run ends the triangle, since all later
    levels are zero too: a polynomial of degree d costs O(k d).
    """
    if f.arity != 1:
        raise FunctionError("divided_difference needs a univariate function")
    if not nodes:
        raise FunctionError("need at least one node")
    z = _near_equal_adjacent(sorted(nodes, key=scalar_key))
    n = len(z)
    # the highest level of a confluent range, in exact mode
    top = n if not _is_exact(z[0]) else max(
        len(list(run)) for _, run in itertools.groupby(z)) - 1
    leaves = {}                 # (node, s) -> f^(s)(node)/s!

    def confluent(node, s):
        key = (node, s)
        if key not in leaves:
            leaves[key] = f.partial((s,), (node,)) / math.factorial(s)
        return leaves[key]

    if _nodes_equal(z[0], z[-1]):
        return confluent(z[0], n - 1)
    d = [confluent(x, 0) for x in z]    # d[i] = f[z_i-s..z_i] at level s
    for s in range(1, n):
        for i in range(n - 1, s - 1, -1):
            first, last = z[i - s], z[i]
            if _nodes_equal(first, last):
                d[i] = confluent(first, s)
            else:
                d[i] = (d[i] - d[i - 1]) / (last - first)
        if s >= top and not any(d[s:]):
            break
    return d[-1]


class _TaylorTable(dict):
    """The Taylor coefficients of a divided-difference lift f^[k], keyed
    by count vectors over the table's distinct nodes.

    The coefficient of the options (z_j, q_j) is
    partial(orders, z) / prod(q_j!) = f[z_j repeated q_j + 1 times], so it
    depends only on how often each distinct node occurs. The nodes are
    numbered in ``scalar_key`` order, and a key holds, in fields of
    ``width`` bits, the total count in field 0 and the count of node i in
    field i + 1. The key of an option is (q + 1) * ``units[i]``, so a
    term's key is the sum of its options' keys.

    A missing key is filled by the recurrence of ``divided_difference``
    on count vectors: drop the lowest node and drop the highest, or
    f^(s)(lowest)/s! when the two are near-equal. For the same nodes these
    are the same operations as ``divided_difference``'s, so the values are
    the same bit for bit. One case differs: ``divided_difference`` keeps a
    class of near-equal nodes together, and which nodes form a class
    depends on the nodes of the term. So a term whose near-equal pair
    spans another of its nodes in ``scalar_key`` order takes
    ``divided_difference`` on its own nodes. The near-equal pairs are
    found when the table is numbered (exact nodes have none). The fill
    keeps its own stack and does not recurse.
    """

    def __init__(self, f):
        super().__init__()
        self.f = f
        self.nodes = ()         # distinct nodes, in scalar_key order
        self.index = {}         # node -> its number
        self.width = 1
        self.units = ()
        self.near = frozenset()     # i * len(nodes) + j of near-equal i < j
        self.spans = ()         # (field of i, field of j, fields between)

    def parts(self, options):
        """The key of each option of ``options``, one list of (node,
        order) pairs per argument. Nodes the table has not seen, a wider
        count field or nodes of the other arithmetic renumber it, which
        empties it."""
        first = next(z for opts in options for z, _ in opts)
        exact = _is_exact(first)
        known = self.nodes if self.nodes and \
            _is_exact(self.nodes[0]) == exact else ()
        index = self.index if known else {}
        new = {z for opts in options for z, _ in opts if z not in index}
        width = sum(max(q for _, q in opts) + 1
                    for opts in options if opts).bit_length()
        if new or not known or width > self.width:
            self._number([*known, *new], max(width, self.width))
        index, units = self.index, self.units
        return [[(q + 1) * units[index[z]] for z, q in opts]
                for opts in options]

    def _number(self, nodes, width):
        nodes = sorted(nodes, key=scalar_key)
        field = (1 << width) - 1
        self.nodes = tuple(nodes)
        self.index = {z: i for i, z in enumerate(nodes)}
        self.width = width
        self.units = tuple((1 << width * (i + 1)) + 1
                           for i in range(len(nodes)))
        n = len(nodes)
        fields = [field << width * (i + 1) for i in range(n)]
        near, spans = set(), []
        if not _is_exact(nodes[0]):
            # near-equal nodes are at most 2 NODE_TOL max(1, |a|) apart in
            # real part, and the order sorts by real part first
            for i, a in enumerate(nodes):
                reach = a.real + 2 * NODE_TOL * max(1.0, abs(a))
                for j in range(i + 1, n):
                    if nodes[j].real > reach:
                        break
                    if _nodes_equal(a, nodes[j]):
                        near.add(i * n + j)
                        if j > i + 1:
                            spans.append((fields[i], fields[j],
                                          sum(fields[i + 1:j])))
        self.near = frozenset(near)
        self.spans = tuple(spans)
        self.clear()

    def _spanned(self, key):
        """Whether the term of ``key`` holds a near-equal pair with
        another of its nodes between them."""
        return any(key & a and key & b and key & between
                   for a, b, between in self.spans)

    def __missing__(self, key):
        f, nodes, units, w = self.f, self.nodes, self.units, self.width
        near, n, field = self.near, len(self.nodes), (1 << w) - 1
        get = self.get
        stack = [key]
        while stack:
            k = stack[-1]
            counts = k >> w
            low = ((counts & -counts).bit_length() - 1) // w
            high = (counts.bit_length() - 1) // w
            first, last = nodes[low], nodes[high]
            if self.spans and self._spanned(k):
                val = divided_difference(f, [
                    z for i, z in enumerate(nodes[low:high + 1], low)
                    for _ in range(counts >> w * i & field)])
            elif low == high or low * n + high in near:
                s = (k & field) - 1
                val = f.partial((s,), (first,)) / math.factorial(s)
            else:
                upper, lower = k - units[low], k - units[high]
                a, b = get(upper), get(lower)
                if a is None or b is None:
                    if b is None:
                        stack.append(lower)
                    if a is None:
                        stack.append(upper)
                    continue
                val = (a - b) / (last - first)
            self[k] = val
            stack.pop()
        return val


class _SlotTable(dict):
    """The Taylor coefficients of a symbol whose partials are not divided
    differences, for the options of one call: option i of slot j has the
    key i * prod(len(options[l]) for l < j), and a missing key is filled
    with partial(orders, nodes) / prod(orders!)."""

    def __init__(self, symbol, options):
        super().__init__()
        self.symbol = symbol
        self.options = options

    def parts(self):
        parts, stride = [], 1
        for opts in self.options:
            parts.append([i * stride for i in range(len(opts))])
            stride *= len(opts)
        return parts

    def __missing__(self, key):
        nodes, orders, rest = [], [], key
        for opts in self.options:
            rest, i = divmod(rest, len(opts))
            nodes.append(opts[i][0])
            orders.append(opts[i][1])
        coeff = self.symbol.partial(orders, nodes)
        if coeff:
            denom = 1
            for q in orders:
                denom *= math.factorial(q)
            if denom != 1:
                coeff = coeff / denom
            coeff = scalar(coeff, _is_exact(nodes[0]))
        self[key] = coeff
        return coeff


def lift_divided_difference(f, k):
    """The order-k divided-difference lift f^[k], an arity k+1 symmetric
    function. Its partial of orders (q_1,...,q_{k+1}) is the confluent
    divided difference with node j repeated q_j + 1 times, scaled by
    prod q_j!."""
    if f.arity != 1:
        raise FunctionError("lift needs a univariate function")
    _integer(k, "order", 0)
    return _lift(f, k, None)


def _lift(f, k, table):
    """The lift; its values and coefficients come from ``table``, a
    ``_TaylorTable`` shared by every call, or without one from
    ``divided_difference`` and a table per ``coefficient_table`` call."""

    def value(orders, args):
        if table is None:
            expanded = []
            for q, z in zip(orders, args):
                expanded.extend([z] * (q + 1))
            return divided_difference(f, expanded)
        return table[sum(p for p, in table.parts(
            [[(z, q)] for z, q in zip(args, orders)]))]

    def ev(args):
        return value((0,) * len(args), args)

    def pt(orders, args):
        val = value(orders, args)
        for q in orders:
            val = val * math.factorial(q)
        return val

    def coefficients(options):
        tab = _TaylorTable(f) if table is None else table
        return tab.parts(options), tab

    def tabulate():
        base = f.tabulated()
        return _lift(base, k, _TaylorTable(base))

    return MultiFunction(k + 1, ev, pt, kind="dd-lift",
                         meta={"base": f, "order": k},
                         tabulate=None if table is not None else tabulate,
                         coefficients=coefficients)


# ---------------------------------------------------------------------------
# JSON construction

def _json_scalar(value):
    """A JSON scalar: a plain number, a "p/q" string, or an [re, im]
    pair whose parts are numbers or "p/q" strings."""
    if isinstance(value, (list, tuple)):
        from .numerics import parse_entry
        return parse_entry(value, exact=True)
    if isinstance(value, bool):
        raise FunctionError(f"scalar {value!r} is a boolean, not a number")
    return value


def _integer(value, name, minimum=None):
    """Check an integer argument of a constructor, which is also a field
    of the function's JSON: booleans, other types and values below
    ``minimum`` raise FunctionError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FunctionError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FunctionError(f"{name} must be at least {minimum}, "
                            f"got {value!r}")


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
        return multivariate_polynomial(
            obj["arity"], [(_json_scalar(t["coeff"]), t["exponents"])
                           for t in obj["terms"]])
    if kind == "dd-lift":
        return lift_divided_difference(function_from_json(obj["base"]),
                                       obj["order"])
    if kind == "product-moi":
        return product_symbol(function_from_json(obj["beta"]), obj["zeta"])
    raise FunctionError(f"unknown function kind {kind!r}")
