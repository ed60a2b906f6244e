"""Independent reference semantics for checking the library's answers.

Nothing here imports the library.  Terms are plain tuples:

    ("0",) ("1",) ("n", k) ("v", name)       leaves; ("n", k) is the numeral k
    ("+", a, b) ("*", a, b) ("/", a, b)      binary
    ("s", a, b)                              primitive binary minus (rd)
    ("-", a) ("i", a)                        unary minus, inverse

Every walker is an explicit-stack post-order fold, so deep inputs never
touch Python's recursion limit.  Formulas are tuples too:
("eq", t, u) ("not", f) ("and", f, g) ("or", f, g) ("imp", f, g)
("all", v, f) ("ex", v, f).
"""

from __future__ import annotations

from fractions import Fraction

ZERO, ONE = ("0",), ("1",)
LEAVES = frozenset("01nv")
UNDEF = None  # an undefined value in punched evaluation


def fold(t, leaf, node):
    """Post-order fold: leaf(t) at leaves, node(t, child_values) elsewhere."""
    vals = []
    stack = [(t, False)]
    while stack:
        n, seen = stack.pop()
        if n[0] in LEAVES:
            vals.append(leaf(n))
        elif seen:
            k = len(n) - 1
            args = vals[-k:]
            del vals[-k:]
            vals.append(node(n, args))
        else:
            stack.append((n, True))
            stack.extend((c, False) for c in reversed(n[1:]))
    return vals[0]


def expand_numeral(k):
    """The library's canonical numeral: 0, 1, (1+1), ((1+1)+1), ..."""
    if k == 0:
        return ZERO
    t = ONE
    for _ in range(k - 1):
        t = ("+", t, ONE)
    return t


def size(t):
    """Node count with numerals expanded, as the library builds them."""
    return fold(t, lambda n: 2 * n[1] - 1 if n[0] == "n" and n[1] else 1,
                lambda n, a: 1 + sum(a))


def variables(t):
    out = set()
    fold(t, lambda n: out.add(n[1]) if n[0] == "v" else None, lambda n, a: None)
    return out


# ---------------------------------------------------------------------------
# Printing: the documented minimal-parenthesis infix form.

_PREC = {"+": 1, "s": 1, "*": 2, "/": 2, "-": 3, "i": 4}
_SYM = {"+": " + ", "s": " - ", "*": " * ", "/": " / "}


def render(t, numerals=False, inv_call=False):
    """Infix text of t.

    numerals=True prints ("n", k) as a decimal literal (input text);
    otherwise numerals expand to 1 + 1 + ... as the library prints them.
    inv_call=True writes inverses as inv(...) instead of postfix ^-1.
    """
    out = []
    stack = [(t, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, min_prec = item
        op = n[0]
        if op == "n":
            if numerals or n[1] <= 1:
                out.append(str(n[1]))
                continue
            n, op = ("+", ("n", n[1] - 1), ONE), "+"
        if op in "01":
            out.append(op)
            continue
        if op == "v":
            out.append(n[1])
            continue
        if op in _SYM:
            lo = _PREC[op]
            parts = [(n[1], lo), _SYM[op], (n[2], lo + 1)]
        elif op == "-":
            parts = ["-", (n[1], 3)]
        elif inv_call:
            parts = ["inv(", (n[1], 0), ")"]
        else:
            parts = [(n[1], 5), "^-1"]
        if min_prec > _PREC[op] and not (op == "i" and inv_call):
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# Projections between notations.

def _rd_zero():
    return ("s", ONE, ONE)


def project(t, which):
    """which is "imn" (divisive read inversively), "dmn" or "rdmn"."""
    def leaf(n):
        if which != "rdmn":
            return n
        if n[0] == "0":
            return _rd_zero()
        if n[0] == "n":
            return project(expand_numeral(n[1]), "rdmn")
        return n

    def node(n, a):
        op = n[0]
        if which == "imn":
            return ("*", a[0], ("i", a[1])) if op == "/" else (op, *a)
        if which == "dmn":
            return ("/", ONE, a[0]) if op == "i" else (op, *a)
        if op == "+":
            return ("s", a[0], ("s", _rd_zero(), a[1]))
        if op == "*":
            return ("/", a[0], ("/", ONE, a[1]))
        if op == "-":
            return ("s", _rd_zero(), a[0])
        return ("/", ONE, a[0])  # inverse

    return fold(t, leaf, node)


# ---------------------------------------------------------------------------
# Total and punched evaluation.  A model is None for the zero-totalized
# rationals or a Ring over 0..size-1.

class Ring:
    """A finite model over 0..size-1: modular arithmetic, or given tables.

    Without tables, inverses are modular inverses when prime is true and
    weak inverses found by search otherwise (small squarefree moduli).
    """

    def __init__(self, size, prime=True, tables=None):
        self.size = n = size
        if tables is not None:
            add, mul, neg, inv = tables
            self.add = lambda x, y: add[x][y]
            self.mul = lambda x, y: mul[x][y]
            self.neg = neg.__getitem__
            self.inv = inv.__getitem__
            return
        self.add = lambda x, y: (x + y) % n
        self.mul = lambda x, y: x * y % n
        self.neg = lambda x: -x % n
        if prime:
            self.inv = lambda x: pow(x, -1, n) if x else 0
        else:
            self.inv = weak_inverses(n).__getitem__


def weak_inverses(n):
    """inv(x) = the y with x*y*x = x and y*x*y = y, mod squarefree n."""
    out = []
    for x in range(n):
        ys = [y for y in range(n) if x * y * x % n == x and y * x * y % n == y]
        if len(ys) != 1:
            raise ValueError(f"Z_{n} has no unique weak inverse of {x}")
        out.append(ys[0])
    return tuple(out)


def first_irregular(n):
    """The least element of Z_n without a weak inverse, or None."""
    for x in range(n):
        if not any(x * y * x % n == x and y * x * y % n == y for y in range(n)):
            return x
    return None


def evaluate(t, a=None, model=None, punch=None):
    """Value of t under assignment a; punch in (None, inv0, div0, div0lib).

    With punch set, undefined values (None) propagate strictly.
    """
    a = a or {}
    m = model

    def leaf(n):
        op = n[0]
        if op == "v":
            return a[n[1]] if m else Fraction(a[n[1]])
        k = 0 if op == "0" else 1 if op == "1" else n[1]
        return k % m.size if m else Fraction(k)

    return fold(t, leaf, lambda n, args: apply(n[0], args, m, punch))


def apply(op, args, m=None, punch=None):
    """One operation on values of the model m (None: the rationals)."""
    if punch and UNDEF in args:
        return UNDEF
    x = args[0]
    if op == "+":
        return m.add(x, args[1]) if m else x + args[1]
    if op == "*":
        return m.mul(x, args[1]) if m else x * args[1]
    if op == "s":
        return m.add(x, m.neg(args[1])) if m else x - args[1]
    if op == "-":
        return m.neg(x) if m else -x
    if op == "i":
        if punch == "inv0" and x == 0:
            return UNDEF
        return m.inv(x) if m else (x and 1 / x)
    y = args[1]
    if y == 0 and (punch or m is None):
        if punch == "div0" or (punch == "div0lib" and x != 0):
            return UNDEF
        return 0 if m else Fraction(0)
    return m.mul(x, m.inv(y)) if m else x / y  # tables: x / y is x * inv(y)


# ---------------------------------------------------------------------------
# Usage conventions.

def classify(t, strict=True, vars_defined=False):
    """(in Nz, in Def) by the bottom-up rules for 0 1 + * ^-1 terms."""
    def leaf(n):
        if n[0] == "v":
            return False, vars_defined
        return n[0] != "0" and not (n[0] == "n" and n[1] == 0), True

    def node(n, a):
        if n[0] == "i":
            return a[0][0], a[0][0]
        (lnz, ldef), (rnz, rdef) = a
        if n[0] == "+":
            nz = (lnz and (rdef or not strict)) or (rnz and (ldef or not strict))
        else:
            nz = lnz and rnz
        return nz, nz or (ldef and rdef)

    return fold(t, leaf, node)


def class_name(t, strict=True, vars_defined=False):
    nz, defined = classify(t, strict, vars_defined)
    return "InNz" if nz else "InDef" if defined else "Neither"


def open_certified(t, strict=True, vars_defined=False):
    """True iff every inverse argument of t classifies as certainly nonzero."""
    ok = [True]

    def node(n, a):
        if n[0] == "i" and not classify(n[1], strict, vars_defined)[0]:
            ok[0] = False
        return None

    fold(t, lambda n: None, node)
    return ok[0]


def first_violation(t, convention):
    """(subterm, detail) of the leftmost-innermost violation, or None."""
    found = []

    def node(n, a):
        op = n[0]
        if not found:
            if op == "i" and convention == "inv0" and a[0] == 0:
                found.append((n, "inverse of 0"))
            elif op == "/" and a[1] == 0 and not (convention == "div0lib" and a[0] == 0):
                found.append((n, "denominator 0"))
        return apply(op, a)

    fold(t, lambda n: evaluate(n), node)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Quotients of polynomials, printed as the decision witnesses print them.
# A polynomial is a dict from monomials (sorted (variable, exponent) pairs)
# to positive coefficients.

def zero_eliminate(t):
    """0*x = 0, x+0 = x, 0^-1 = 0 bottom-up; ZERO or a zero-free term."""
    def leaf(n):
        if n[0] == "n":
            return expand_numeral(n[1])
        return n

    def node(n, a):
        if n[0] == "+":
            return a[1] if a[0] == ZERO else a[0] if a[1] == ZERO else ("+", *a)
        if n[0] == "*":
            return ZERO if ZERO in a else ("*", *a)
        return ZERO if a[0] == ZERO else ("i", a[0])

    return fold(t, leaf, node)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            e = dict(m1)
            for v, k in m2:
                e[v] = e.get(v, 0) + k
            m = tuple(sorted(e.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return out


def _poly_text(p):
    parts = []
    for m, c in sorted(p.items(), key=lambda mc: (sum(e for _, e in mc[0]), mc[0]),
                       reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
        parts.append(str(c) if not m else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts)


def polyfrac_text(t):
    """(numerator) / (denominator) of a 1 + * ^-1 term, inverses pushed up."""
    one = {(): 1}

    def leaf(n):
        return ({((n[1], 1),): 1}, one) if n[0] == "v" else (one, one)

    def node(n, a):
        if n[0] == "i":
            return a[0][1], a[0][0]
        (ln, ld), (rn, rd) = a
        if n[0] == "+":
            return _poly_add(_poly_mul(ln, rd), _poly_mul(rn, ld)), _poly_mul(ld, rd)
        return _poly_mul(ln, rn), _poly_mul(ld, rd)

    num, den = fold(t, leaf, node)
    return f"({_poly_text(num)}) / ({_poly_text(den)})"


# ---------------------------------------------------------------------------
# Three-valued formulas.

T, F, U = "T", "F", "U"


def _not(v):
    return {T: F, F: T, U: U}[v]


def _and(suite, a, b):
    if suite == "bochvar":
        return U if U in (a, b) else T if a == b == T else F
    if suite == "mccarthy":
        return F if a == F else U if a == U else b
    if suite == "mccarthy-rev":
        return F if b == F else U if b == U else a
    return F if F in (a, b) else T if a == b == T else U


def _or(suite, a, b):
    return _not(_and(suite, _not(a), _not(b)))


def truth(f, eq, conn, quant, domain, punch, model=None, a=None):
    """Truth value of formula f; quantifiers range over domain."""
    env = dict(a or {})
    # Explicit stack of (formula, bindings, stage) frames.
    vals = []
    stack = [(f, env, False)]
    while stack:
        g, env, seen = stack.pop()
        kind = g[0]
        if kind == "eq":
            l = evaluate(g[1], env, model, punch)
            r = evaluate(g[2], env, model, punch)
            if l is not UNDEF and r is not UNDEF:
                vals.append(T if l == r else F)
            elif eq == "weak":
                vals.append(U)
            elif eq == "strong":
                vals.append(T if l is r is UNDEF else F)
            else:
                vals.append(F)
        elif not seen:
            stack.append((g, env, True))
            if kind in ("all", "ex"):
                for d in reversed(domain):
                    stack.append((g[2], {**env, g[1]: d}, False))
            else:
                stack.extend((c, env, False) for c in reversed(g[1:]))
        elif kind == "not":
            vals.append(_not(vals.pop()))
        elif kind in ("and", "or", "imp"):
            y, x = vals.pop(), vals.pop()
            if kind == "and":
                vals.append(_and(conn, x, y))
            else:
                vals.append(_or(conn, _not(x) if kind == "imp" else x, y))
        else:
            inst = vals[-len(domain):]
            del vals[-len(domain):]
            if kind == "ex":
                inst = [_not(v) for v in inst]
            if quant == "bochvar":
                v = U if U in inst else T if all(v == T for v in inst) else F
            else:
                v = F if F in inst else T if all(v == T for v in inst) else U
            vals.append(_not(v) if kind == "ex" else v)
    return vals[0]


def formula_text(f, inv_call=False):
    """Formula text with every compound operand parenthesised."""
    def wrap(g):
        s = formula_text(g, inv_call)
        return s if g[0] == "eq" else f"({s})"

    kind = f[0]
    if kind == "eq":
        return f"{render(f[1], True, inv_call)} = {render(f[2], True, inv_call)}"
    if kind == "not":
        if f[1][0] == "eq":
            g = f[1]
            return f"{render(g[1], True, inv_call)} != {render(g[2], True, inv_call)}"
        return f"~{wrap(f[1])}"
    if kind in ("all", "ex"):
        q = "forall" if kind == "all" else "exists"
        return f"{q} {f[1]}. {formula_text(f[2], inv_call)}"
    sym = {"and": " & ", "or": " | ", "imp": " -> "}[kind]
    return wrap(f[1]) + sym + wrap(f[2])


# ---------------------------------------------------------------------------
# Reading the library's terms back into tuples (outputs only).

_FROM_LIB = {"Zero": "0", "One": "1", "Var": "v", "Add": "+", "Mul": "*",
             "Div": "/", "Sub": "s", "Neg": "-", "Inv": "i"}


def from_library(term):
    """Convert a library term object to tuple form by its field names."""
    vals = []
    stack = [(term, False)]
    while stack:
        n, seen = stack.pop()
        op = _FROM_LIB[type(n).__name__]
        if op in "01":
            vals.append((op,))
        elif op == "v":
            vals.append(("v", n.name))
        else:
            kids = ((n.arg,) if op in "-i" else (n.num, n.den) if op == "/"
                    else (n.left, n.right))
            if seen:
                k = len(kids)
                args = vals[-k:]
                del vals[-k:]
                vals.append((op, *args))
            else:
                stack.append((n, True))
                stack.extend((c, False) for c in reversed(kids))
    return vals[0]
