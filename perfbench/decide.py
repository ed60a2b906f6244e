"""Workload `decide`: equality decisions for the arithmetical meadow theories.

Each operation parses two term texts, projects divisive terms into the
inversive notation, and decides equality under iamd, damd, iamdz-gil or
damdz-gil with 1-6 variables; a few operations normalise a closed term.
Half of the pairs are equal by construction (commute, reassociate,
distribute, double inverse, multiply by x*x^-1 where the theory has no
zero), half are independent random terms.  The oracle evaluates both
sides exactly at random points, at every zero pattern of the variables
for the -gil theories, and must agree with the verdict.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import oracle as o
from harness import Op

from meadows.normalize import (
    decide_iamd, decide_iamdz_gil, normal_form_closed,
)
from meadows.parsing import parse_term
from meadows.projection import Projection, project
from meadows.terms import Signature

VARS = ("x", "y", "z", "u", "v", "w")

SIG = {"iamd": Signature.IAMD, "damd": Signature.DAMD,
       "iamdz-gil": Signature.IAMDZ, "damdz-gil": Signature.DAMDZ}

# One block of operations: (theory, variable count, equal by construction).
# Variable count 0 is a closed-term normal form.  Ten of the twenty pairs
# are equal by construction.  The iamd/damd pairs set the median; the four
# equal 5-6 variable -gil pairs (a sixth of the block) run the whole
# zero-substitution recursion and set the 90th percentile.  Every variable
# count has an equal iamdz-gil pair, whose mean time is the -gil size curve.
BLOCK = (
    [("iamd", 0, None), ("iamd", 0, None), ("iamdz-gil", 0, None), ("iamdz-gil", 0, None)]
    + [("iamd", n, n in (1, 3)) for n in (1, 2, 3, 4, 5, 6)]
    + [("damd", n, False) for n in (2, 3, 4, 5)]
    + [("iamdz-gil", n, True) for n in (1, 2, 3, 4)]
    + [("damdz-gil", 2, False), ("damdz-gil", 3, False)]
    + [("iamdz-gil", 5, True), ("iamdz-gil", 6, True),
       ("damdz-gil", 5, True), ("damdz-gil", 6, True)]
)


def setup():
    return None


def _leaf(name):
    if name == "0":
        return o.ZERO
    if name == "1":
        return o.ONE
    return ("v", name)


def _inverse(t, divisive):
    return ("/", o.ONE, t) if divisive else ("i", t)


def random_term(rng, names, zero, divisive, extra=2):
    """A random term in which every name occurs, plus extra random leaves."""
    pool = list(names) + ["1"] + (["0"] if zero else [])
    leaves = list(names) + [rng.choice(pool) for _ in range(extra)]
    rng.shuffle(leaves)
    nodes = [_leaf(x) for x in leaves]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choice("+*/" if divisive else "+*")
        t = (op, nodes[i], nodes[i + 1])
        if rng.random() < 0.2:
            t = _inverse(t, divisive)
        nodes[i:i + 2] = [t]
    t = nodes[0]
    return _inverse(t, divisive) if rng.random() < 0.2 else t


def rewrite(rng, t, names, divisive, unit_moves):
    """One provably-equal rewrite at a random position of t."""
    op = t[0]
    r = rng.random()
    if op in "+*" and r < 0.5:
        a, b = t[1], t[2]
        if r < 0.2:
            return (op, b, a)
        if r < 0.3 and a[0] == op:
            return (op, a[1], (op, a[2], b))
        if r < 0.4 and b[0] == op:
            return (op, (op, a, b[1]), b[2])
        if op == "*" and b[0] == "+":
            return ("+", ("*", a, b[1]), ("*", a, b[2]))
    if op not in o.LEAVES and r < 0.8:
        kids = list(t[1:])
        i = rng.randrange(len(kids))
        kids[i] = rewrite(rng, kids[i], names, divisive, unit_moves)
        return (op, *kids)
    if unit_moves and r < 0.9:
        v = ("v", rng.choice(names))
        unit = ("/", v, v) if divisive else ("*", v, ("i", v))
        return ("*", t, unit)
    return _inverse(_inverse(t, divisive), divisive)


def _points(rng, names, gil):
    """Assignments: random positive points, over every zero pattern if gil."""
    names = sorted(names)
    patterns = product((False, True), repeat=len(names)) if gil else [()] * 3
    for zeros in patterns:
        yield {v: Fraction(0) if zeros and zeros[i] else Fraction(rng.randint(1, 10**6))
               for i, v in enumerate(names)}


def semantically_equal(t, u, names, gil, rng):
    return all(o.evaluate(t, a) == o.evaluate(u, a) for a in _points(rng, names, gil))


def closed_case(rng, theory):
    """A closed term's text and its normal form as the oracle prints it."""
    zero = theory == "iamdz-gil"
    consts = ["1"] + [str(k) for k in range(2, 10)] + (["0"] if zero else [])
    nodes = [("n", int(rng.choice(consts))) for _ in range(rng.randint(3, 6))]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        t = (rng.choice("+*"), nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [("i", t) if rng.random() < 0.3 else t]
    return nodes[0], o.render(nodes[0], numerals=True), str(o.evaluate(nodes[0]))


def normal_form_op(rng, theory):
    t, text, want = closed_case(rng, theory)
    sig, n = SIG[theory], o.size(t)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, sig, size=n)
        return str(call("normalize.normal_form", normal_form_closed, term, sig))

    return Op("nf", run, lambda got: None if got == want else f"{got} != {want}",
              layer="normalize")


def make_pair(rng, theory, nvars, equal_by_construction):
    """Two terms over the first nvars variables and whether they are equal.

    With equal_by_construction the second term is four provably-equal
    rewrites of the first; otherwise both are independent random terms.
    """
    divisive = theory.startswith("damd")
    gil = theory.endswith("gil")
    names = list(VARS[:nvars])
    t = random_term(rng, names, zero=gil, divisive=divisive)
    if equal_by_construction:
        u = t
        for _ in range(4):
            u = rewrite(rng, u, names, divisive, unit_moves=not gil)
    else:
        u = random_term(rng, names, zero=gil, divisive=divisive)
    equal = semantically_equal(t, u, names, gil, random.Random(rng.random()))
    if equal_by_construction and not equal:
        raise AssertionError(f"rewrite broke equality: {t} vs {u}")
    return t, u, equal


def pair_op(rng, theory, nvars, equal_by_construction):
    t, u, want = make_pair(rng, theory, nvars, equal_by_construction)
    divisive = theory.startswith("damd")
    gil = theory.endswith("gil")
    inv_call = rng.random() < 0.3
    texts = (o.render(t, True, inv_call), o.render(u, True, inv_call))
    sizes = (o.size(t), o.size(u))
    sig = SIG[theory]
    decide = decide_iamdz_gil if gil else decide_iamd
    group = "normalize.decide_gil" if gil else "normalize.decide_iamd"
    bucket = f"vars{nvars}" if equal_by_construction else None

    def run(call):
        a = call("parsing.parse_term", parse_term, texts[0], sig, size=sizes[0])
        b = call("parsing.parse_term", parse_term, texts[1], sig, size=sizes[1])
        if divisive:
            a = call("projection.project", project, a, Projection.DMN_TO_IMN, size=sizes[0])
            b = call("projection.project", project, b, Projection.DMN_TO_IMN, size=sizes[1])
        return call(group, decide, a, b, bucket=bucket)

    def check(got):
        return None if got is want else f"{theory} {texts}: verdict {got}, oracle {want}"

    kind = f"{theory}.v{nvars}.{'eq' if equal_by_construction else 'random'}"
    return Op(kind, run, check, layer="normalize")


def ops(rng, ctx):
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for theory, nvars, equal in block:
            if nvars == 0:
                yield normal_form_op(rng, theory)
            else:
                yield pair_op(rng, theory, nvars, equal)


def defect_probes(ctx):
    return []
