"""Workload `finite-check`: many evaluations of tiny terms over small carriers.

Operations: exhaustive axiom checks of cr, imd and dmd on Z_p (p <= 31)
and squarefree Z_n (n <= 30), also on deliberately corrupted tables whose
failures the oracle enumerates independently; NotRegular for
non-squarefree Z_n; the hidden-inverse expansion search of md_d over Z_p
for p <= 7; three-valued formulas over every equality, connective and
quantifier suite in Q0 and Z_p; punched evaluation and recovery checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import harness
import oracle as o
from harness import Op

from meadows.parsing import parse_term
from meadows.logic3 import (
    Connectives, Equality, LogicConfig, Quantifiers, eval_formula, lpmd, parse_formula,
)
from meadows.partial import Defined, PunchVariant, punch_eval, recovery_check
from meadows.presentations import builtin, md_d, visible_models_check
from meadows.semantics import (
    FiniteMeadow, NotRegular, check_axioms, eval_model, zn_meadow, zp_meadow,
)
from meadows.terms import Signature

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SQUAREFREE = (6, 10, 14, 15, 21, 22, 26, 30)
NOT_SQUAREFREE = (4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28)
SMALL = (2, 3, 5, 6, 7, 10, 11)
MID = (13, 14, 15, 17, 19, 21, 22)
VARIANTS = {v.value: v for v in PunchVariant}
SIG_OF = {"inv0": Signature.IMD, "div0": Signature.DMD, "div0lib": Signature.DMD}


def _v(name):
    return ("v", name)


X, Y, Z = _v("x"), _v("y"), _v("z")


def _add(a, b):
    return ("+", a, b)


def _mul(a, b):
    return ("*", a, b)


def _div(a, b):
    return ("/", a, b)


def _inv(a):
    return ("i", a)


# The axioms by name, as the oracle reads them (presentation order).
CR = [
    ("add_assoc", _add(_add(X, Y), Z), _add(X, _add(Y, Z))),
    ("add_comm", _add(X, Y), _add(Y, X)),
    ("add_zero", _add(X, o.ZERO), X),
    ("add_neg", _add(X, ("-", X)), o.ZERO),
    ("mul_assoc", _mul(_mul(X, Y), Z), _mul(X, _mul(Y, Z))),
    ("mul_comm", _mul(X, Y), _mul(Y, X)),
    ("mul_one", _mul(X, o.ONE), X),
    ("distrib", _mul(X, _add(Y, Z)), _add(_mul(X, Y), _mul(X, Z))),
]
AXIOMS = {
    "cr": CR,
    "imd": CR + [("inv_inv", _inv(_inv(X)), X),
                 ("restricted_inv", _mul(X, _mul(X, _inv(X))), X)],
    "dmd": CR + [("div_of_div", _div(o.ONE, _div(o.ONE, X)), X),
                 ("square_div", _div(_mul(X, X), X), X),
                 ("div_as_mul", _div(X, Y), _mul(X, _div(o.ONE, Y)))],
}


def assignments(axioms, size):
    return sum(size ** len(o.variables(l) | o.variables(r)) for _, l, r in axioms)


def axiom_failures(axioms, ring):
    """The oracle's report: (name, witness, lhs, rhs, failing count) per axiom."""
    out = []
    for name, lhs, rhs in axioms:
        names = sorted(o.variables(lhs) | o.variables(rhs))
        first, count = None, 0
        for values in product(range(ring.size), repeat=len(names)):
            a = dict(zip(names, values))
            l, r = o.evaluate(lhs, a, ring), o.evaluate(rhs, a, ring)
            if l != r:
                count += 1
                first = first or (tuple(zip(names, values)), l, r)
        if first:
            out.append((name, *first, count))
    return out


class Context:
    def __init__(self):
        self.models = {p: zp_meadow(p) for p in PRIMES}
        self.models.update({n: zn_meadow(n) for n in SQUAREFREE})
        self.rings = {n: o.Ring(n, prime=n in PRIMES) for n in self.models}
        self.presentations = {name: builtin(name) for name in AXIOMS}
        self.md_d = md_d()


def setup():
    return Context()


def _bucket(n):
    return "small" if n <= 31 else "large"


def axioms_op(ctx, n, name):
    m, pres = ctx.models[n], ctx.presentations[name]
    work = assignments(AXIOMS[name], n)

    def run(call):
        return call("semantics.check_axioms", check_axioms, m, pres, size=work)

    return Op(f"axioms.{name}", run,
              lambda got: None if got == [] else f"Z_{n} {name}: {got}", "semantics")


def corrupt_op(rng, ctx, n, name):
    """check_axioms on Z_n with one table entry changed."""
    pres, prime = ctx.presentations[name], n in PRIMES
    which = rng.choice(("add", "mul", "neg", "inv"))
    slot = (rng.randrange(n), rng.randrange(n))
    shift = rng.randrange(1, n)
    ring = o.Ring(n, prime)
    exact = {
        "add": tuple(tuple(ring.add(x, y) for y in range(n)) for x in range(n)),
        "mul": tuple(tuple(ring.mul(x, y) for y in range(n)) for x in range(n)),
        "neg": tuple(ring.neg(x) for x in range(n)),
        "inv": tuple(ring.inv(x) for x in range(n)),
    }
    tables = {k: [list(row) for row in v] if k in ("add", "mul") else list(v)
              for k, v in exact.items()}
    if which in ("add", "mul"):
        row = tables[which][slot[0]]
        row[slot[1]] = (row[slot[1]] + shift) % n
    else:
        tables[which][slot[0]] = (tables[which][slot[0]] + shift) % n
    add, mul = (tuple(map(tuple, tables[k])) for k in ("add", "mul"))
    neg, inv = tuple(tables["neg"]), tuple(tables["inv"])
    want = axiom_failures(AXIOMS[name], o.Ring(n, tables=(add, mul, neg, inv)))
    work = assignments(AXIOMS[name], n)
    build = zp_meadow if prime else zn_meadow

    def run(call):
        base = call("semantics.model_build", build, n, bucket=_bucket(n))
        m = call("semantics.model_build", FiniteMeadow, n, add, mul, neg, inv,
                 bucket=_bucket(n))
        report = call("semantics.check_axioms", check_axioms, m, pres, size=work)
        return base, report

    def check(got):
        base, report = got
        if any(getattr(base, k) != v for k, v in exact.items()):
            return f"Z_{n} tables differ from modular arithmetic"
        got = [(f.axiom, f.witness, f.lhs_value, f.rhs_value, f.failing_assignments)
               for f in report]
        return None if got == want else f"corrupted Z_{n} {which}{slot} {name}: {got} != {want}"

    return Op(f"corrupt.{name}", run, check, "semantics")


def not_regular_op(rng):
    n = rng.choice(NOT_SQUAREFREE)
    element = o.first_irregular(n)

    def run(call):
        return call("semantics.model_build", zn_meadow, n, bucket=_bucket(n))

    return Op("not_regular", run,
              lambda exc: None if exc.element == element else f"Z_{n}: {exc.element} != {element}",
              "semantics", raises=NotRegular)


def zn_build_op(rng, ctx):
    n = rng.choice(SQUAREFREE)
    ring = ctx.rings[n]

    def run(call):
        return call("semantics.model_build", zn_meadow, n, bucket=_bucket(n))

    def check(m):
        inv = tuple(ring.inv(x) for x in range(n))
        mul = tuple(tuple(ring.mul(x, y) for y in range(n)) for x in range(n))
        return None if m.inv == inv and m.mul == mul else f"Z_{n} expansion differs"

    return Op("zn_build", run, check, "semantics")


def expansion_op(rng, ctx):
    p = rng.choice((2, 3, 5, 7))
    m = ctx.models[p]
    inv = tuple(pow(x, -1, p) if x else 0 for x in range(p))

    def run(call):
        return call("presentations.visible_models_check", visible_models_check, ctx.md_d, m)

    def check(r):
        if r.satisfiable and len(r.expansions) == 1 and r.expansions[0]["inv"] == inv:
            return None
        return f"md_d over Z_{p}: {r}"

    return Op("expansion", run, check, "presentations")


def small_term(rng, names, variant, depth):
    if depth == 0 or rng.random() < 0.3:
        k = rng.random()
        if k < 0.5 and names:
            return _v(rng.choice(names))
        return ("n", rng.choice((0, 1, 1, 2, 3)))
    r = rng.random()
    sub = lambda: small_term(rng, names, variant, depth - 1)  # noqa: E731
    if r < 0.3:
        return _add(sub(), sub())
    if r < 0.55:
        return _mul(sub(), sub())
    if r < 0.65:
        return ("-", sub())
    if variant == "inv0":
        return _inv(sub())
    return _div(sub(), sub())


def _partial(value):
    return value.value if isinstance(value, Defined) else o.UNDEF


def _model(rng, ctx):
    """A model for punched evaluation: None (Q0) or a small Z_p."""
    if rng.random() < 0.5:
        return None, None
    p = rng.choice((5, 7))
    return ctx.models[p], ctx.rings[p]


def sample_values(rng, ring, k):
    if ring is None:
        pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
    else:
        pool = list(range(ring.size))
    return [rng.choice(pool) for _ in range(k)]


def random_formula(rng, variant, depth, bound):
    if depth == 0 or rng.random() < 0.25:
        names = ["x", *bound]
        atom = ("eq", small_term(rng, names, variant, 2), small_term(rng, names, variant, 2))
        return ("not", atom) if rng.random() < 0.3 else atom
    r = rng.random()
    if r < 0.35 and len(bound) < 2:
        v = "yz"[len(bound)]
        return (rng.choice(("all", "ex")), v, random_formula(rng, variant, depth - 1, bound + [v]))
    if r < 0.45:
        return ("not", random_formula(rng, variant, depth - 1, bound))
    kind = rng.choice(("and", "or", "imp"))
    return (kind, random_formula(rng, variant, depth - 1, bound),
            random_formula(rng, variant, depth - 1, bound))


def formula_op(rng, ctx):
    variant = rng.choice(tuple(VARIANTS))
    m, ring = _model(rng, ctx)
    domain = tuple(dict.fromkeys(sample_values(rng, ring, 3)))
    a = {"x": sample_values(rng, ring, 1)[0]}
    if rng.random() < 0.2:
        eq, conn, quant = "weak", "mccarthy", "bochvar"
        cfg = lpmd(domain)
    else:
        eq = rng.choice(("weak", "strong", "exist"))
        conn = rng.choice(("bochvar", "mccarthy", "mccarthy-rev", "kleene"))
        quant = rng.choice(("bochvar", "kleene"))
        cfg = LogicConfig(Equality(eq), Connectives(conn), Quantifiers(quant), domain)
    f = random_formula(rng, variant, 3, [])
    text = o.formula_text(f, inv_call=rng.random() < 0.3)
    want = o.truth(f, eq, conn, quant, domain, variant, ring, a)
    sig, punch = SIG_OF[variant], VARIANTS[variant]

    def run(call):
        g = call("logic3.parse", parse_formula, text, sig)
        return call("logic3.eval", eval_formula, g, cfg, punch, m, a)

    return Op("formula", run,
              lambda got: None if got.value == want else f"{text} ({cfg}): {got} != {want}",
              "logic3")


RECOVERY_PAIRS = (("inv0", "div0"), ("inv0", "div0lib"), ("div0", "inv0"),
                  ("div0lib", "inv0"), ("div0", "div0lib"), ("div0lib", "div0"))


def _term_op(rng, ctx, variant):
    m, ring = _model(rng, ctx)
    t = small_term(rng, ["x", "y"], variant, 4)
    x, y = sample_values(rng, ring, 2)
    return m, ring, t, {"x": x, "y": y}


def recovery_op(rng, ctx):
    src, dst = rng.choice(RECOVERY_PAIRS)
    m, ring, t, a = _term_op(rng, ctx, dst)
    image = t if SIG_OF[src] == SIG_OF[dst] else o.project(t, "imn" if dst != "inv0" else "dmn")
    direct = o.evaluate(t, a, ring, dst)
    projected = o.evaluate(image, a, ring, src)
    want = (direct == projected, direct, projected)
    text = o.render(t, True)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, SIG_OF[dst], size=o.size(t))
        return call("partial.recovery_check", recovery_check, VARIANTS[src], VARIANTS[dst],
                    term, a, m)

    def check(r):
        got = (r.agrees, _partial(r.direct), _partial(r.projected))
        return None if got == want else f"{src}<-{dst} {text} {a}: {got} != {want}"

    return Op("recovery", run, check, "partial")


def punch_op(rng, ctx):
    variant = rng.choice(tuple(VARIANTS))
    m, ring, t, a = _term_op(rng, ctx, variant)
    want = o.evaluate(t, a, ring, variant)
    text = o.render(t, True)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, SIG_OF[variant], size=o.size(t))
        return call("partial.punch_eval", punch_eval, term, VARIANTS[variant], m, a)

    return Op("punch", run,
              lambda r: None if _partial(r) == want else f"{variant} {text} {a}: {r} != {want}",
              "partial")


def eval_small_op(rng, ctx):
    n = rng.choice(tuple(ctx.models))
    m, ring = ctx.models[n], ctx.rings[n]
    t = small_term(rng, ["x", "y"], "inv0", 4)
    points = [{"x": rng.randrange(n), "y": rng.randrange(n)} for _ in range(3)]
    want = [o.evaluate(t, a, ring) for a in points]
    text = o.render(t, True)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, Signature.IMD, size=o.size(t))
        return [call("semantics.eval_model", eval_model, term, m, a, bucket=_bucket(n))
                for a in points]

    return Op("eval_small", run,
              lambda got: None if got == want else f"Z_{n} {o.render(t)}: {got} != {want}",
              "semantics")


def ops(rng, ctx):
    """Blocks of 25 in four groups, each with one axiom check on Z_23.

    Fifteen sub-millisecond operations (60%) set the median.  Four axiom checks
    on Z_23 (a sixth of the block) set the 90th percentile; one on Z_31
    and the expansion search over Z_p, p <= 7, are above it or near it.
    """
    names = ("cr", "imd", "dmd")
    slow = [lambda: axioms_op(ctx, 23, rng.choice(names))] * 4
    other = [lambda: axioms_op(ctx, 31, rng.choice(names)), lambda: expansion_op(rng, ctx),
             lambda: axioms_op(ctx, rng.choice(MID), rng.choice(names)),
             lambda: axioms_op(ctx, rng.choice(SMALL), rng.choice(names)),
             lambda: corrupt_op(rng, ctx, rng.choice((3, 5, 6, 7)), rng.choice(names)),
             lambda: corrupt_op(rng, ctx, rng.choice((3, 5, 6, 7)), rng.choice(names))]
    while True:
        cheap = ([lambda: formula_op(rng, ctx)] * 7 + [lambda: recovery_op(rng, ctx)] * 2
                 + [lambda: punch_op(rng, ctx)] * 2 + [lambda: eval_small_op(rng, ctx)] * 2
                 + [lambda: not_regular_op(rng), lambda: zn_build_op(rng, ctx)])
        rng.shuffle(cheap)
        rng.shuffle(other)
        groups = [[slow[0], other[0], *cheap[0:3]], [slow[1], *other[1:3], *cheap[3:7]],
                  [slow[2], other[3], *cheap[7:11]], [slow[3], *other[4:6], *cheap[11:15]]]
        yield from harness.grouped(rng, groups)


def defect_probes(ctx):
    return []
