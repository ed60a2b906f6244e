"""Workload `large-inputs`: few evaluations of big inputs.

Operations: closed terms nested 20 to 115 parenthesised levels deep, with
numerals in the hundreds, taken through parsing, conformance, all three
projections, rendering, exact evaluation and both compliance checks;
Z_p for p from 100 to 997 built, then one eval_model and one punch_eval
of a large term, plus the same on a Z_1009 built before timing starts;
the full two-squares residue sweep and corollary witness for primes near
1000.  The known-defect probes go past depth 1000, where the library runs
out of Python recursion.
"""

from __future__ import annotations

import oracle as o
import harness
from harness import Op

from meadows.convention import (
    COMPLIANT, ConventionId, closed_compliance, open_compliance_sufficient,
)
from meadows.parsing import parse_term, render
from meadows.partial import Defined, PunchVariant, punch_eval
from meadows.projection import Projection, project
from meadows.semantics import (
    corollary_witness, eval_model, eval_q0, two_squares, zp_meadow,
)
from meadows.terms import Signature, check_conforms

PRIMES = [p for p in range(101, 1000) if all(p % d for d in range(2, 32))]
LOW, MID = [p for p in PRIMES if p < 200], [p for p in PRIMES if 400 <= p < 450]
TOP = 997
NEAR_1000 = (937, 941, 947, 953, 967, 971, 977)
PREBUILT = 1009


class Context:
    def __init__(self):
        self.model = zp_meadow(PREBUILT)
        self.ring = o.Ring(PREBUILT)


def setup():
    return Context()


FORMS = ("mul_sum", "inv_sum", "mul_inv", "inv_mul")


def nested_term(rng, levels, violate):
    """A closed 0 1 + * ^-1 term whose text nests `levels` parentheses.

    The wrapping forms come in shuffled groups of four, so every term of a
    given depth does about the same work.  With violate, three levels below
    the top take the inverse of a zero, violating the inversive convention.
    """
    forms = []
    while len(forms) < levels:
        forms += rng.sample(FORMS, len(FORMS))
    forms = forms[:levels]
    if violate:
        forms[levels - 3] = "zero"
    t = ("n", rng.randint(200, 220))
    for form in forms:
        k = ("n", rng.randint(2, 9))
        if form == "mul_sum":
            t = ("*", ("+", t, k), k)
        elif form == "inv_sum":
            t = ("i", ("+", k, t))
        elif form == "mul_inv":
            t = ("*", ("+", o.ONE, t), ("i", k))
        elif form == "inv_mul":
            t = ("i", ("*", t, k))
        else:
            t = ("+", ("i", ("*", t, ("n", 0))), k)
    return t


def pipeline_op(rng, levels, bucket, violate):
    t = nested_term(rng, levels, violate)
    text = o.render(t, numerals=True, inv_call=rng.random() < 0.5)
    dmn = o.project(t, "dmn")
    images = (o.render(t), o.render(dmn), o.render(o.project(t, "rdmn")),
              o.render(o.project(dmn, "imn")))
    value = o.evaluate(t)
    bad_inv = o.first_violation(t, "inv0")
    bad_div = o.first_violation(dmn, "div0")
    certified = o.open_certified(t)
    n = o.size(t)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, None, size=n)
        call("terms.check_conforms", check_conforms, term, Signature.IAMDZ)
        d = call("projection.project", project, term, Projection.IMN_TO_DMN, size=n)
        r = call("projection.project", project, term, Projection.IMN_TO_RDMN, size=n)
        i = call("projection.project", project, d, Projection.DMN_TO_IMN, size=n)
        shown = tuple(call("parsing.render", render, x) for x in (term, d, r, i))
        v = call("semantics.eval_q0", eval_q0, term)
        c_inv = call("convention.closed", closed_compliance, term,
                     ConventionId.RELEVANT_INVERSIVE, bucket=bucket)
        c_div = call("convention.closed", closed_compliance, d,
                     ConventionId.RELEVANT_DIVISION, bucket=bucket)
        c_open = call("convention.open", open_compliance_sufficient, term)
        return shown, v, c_inv, c_div, c_open

    def violation(got, want):
        if want is None:
            return got is COMPLIANT
        return (got is not COMPLIANT and got.detail == want[1]
                and o.render(o.from_library(got.subterm)) == o.render(want[0]))

    def check(got):
        shown, v, c_inv, c_div, c_open = got
        if shown != images:
            return f"depth {levels}: rendered projections differ"
        if v != value:
            return f"depth {levels}: value {v} != {value}"
        if not violation(c_inv, bad_inv) or not violation(c_div, bad_div):
            return f"depth {levels}: compliance {c_inv} / {c_div}"
        if (str(c_open) == "CertifiedCompliant") != certified:
            return f"depth {levels}: open compliance {c_open}"
        return None

    return Op(f"pipeline.{bucket}", run, check, "convention")


def big_term(rng, leaves):
    """A random 0 1 + * - ^-1 term over x, y, z with about 2*leaves nodes."""
    nodes = [rng.choice((("v", "x"), ("v", "y"), ("v", "z"), o.ONE, ("n", 2)))
             for _ in range(leaves)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        t = (rng.choice("+*"), nodes[i], nodes[i + 1])
        r = rng.random()
        nodes[i:i + 2] = [("i", t) if r < 0.15 else ("-", t) if r < 0.2 else t]
    return nodes[0]


def model_op(rng, ctx, p):
    """Build Z_p (unless p is the prebuilt one), then evaluate a big term."""
    t = big_term(rng, 150)
    a = {v: rng.randrange(p) for v in "xyz"}
    ring = ctx.ring if p == PREBUILT else o.Ring(p)
    want = (o.evaluate(t, a, ring), o.evaluate(t, a, ring, "inv0"))
    text = o.render(t, numerals=True)
    n = o.size(t)

    def run(call):
        term = call("parsing.parse_term", parse_term, text, Signature.IMD, size=n)
        if p == PREBUILT:
            m = ctx.model
        else:
            m = call("semantics.model_build", zp_meadow, p, bucket="large")
        v = call("semantics.eval_model", eval_model, term, m, a, bucket="large")
        pv = call("partial.punch_eval", punch_eval, term, PunchVariant.INV_ZERO, m, a)
        return v, pv.value if isinstance(pv, Defined) else o.UNDEF

    return Op("prebuilt" if p == PREBUILT else "model", run,
              lambda got: None if got == want else f"Z_{p}: {got} != {want}", "semantics")


def witness_op(rng):
    p = rng.choice(NEAR_1000)

    def run(call):
        pairs = [call("semantics.witness", two_squares, p, u) for u in range(p)]
        return pairs, call("semantics.witness", corollary_witness, p)

    def check(got):
        pairs, (u, v, w) = got
        for r, (a, b) in enumerate(pairs):
            if not (0 <= a < p and 0 <= b < p and (a * a + b * b) % p == r):
                return f"two_squares({p}, {r}) = {(a, b)}"
        if not (0 <= u < p and 0 <= v < p and u * u + v * v + 1 == w * p):
            return f"corollary_witness({p}) = {(u, v, w)}"
        return None

    return Op("witness", run, check, "semantics")


def ops(rng, ctx):
    """Blocks of 20 operations in four groups of five.

    Twelve cheap operations (shallow pipelines, small models) set the
    median.  The three compliant deep pipelines, whose compliance scan is
    quadratic in depth, are the 80th to 95th percentile and so set the
    90th; Z_997 is the slowest and sets the memory peak.
    """
    shallow = lambda: pipeline_op(rng, rng.randint(20, 22), "shallow", rng.random() < 0.5)  # noqa: E731
    deep = lambda: pipeline_op(rng, rng.randint(110, 115), "deep", False)  # noqa: E731
    low = lambda: model_op(rng, ctx, rng.choice(LOW))  # noqa: E731
    medium = [lambda: witness_op(rng), lambda: witness_op(rng),
              lambda: model_op(rng, ctx, rng.choice(MID)), lambda: model_op(rng, ctx, PREBUILT)]
    while True:
        cheap = [shallow] * 10 + [low] * 2
        rng.shuffle(cheap)
        rng.shuffle(medium)
        groups = [[deep, medium[0], *cheap[0:3]], [deep, medium[1], *cheap[3:6]],
                  [deep, medium[2], *cheap[6:9]],
                  [lambda: model_op(rng, ctx, TOP), medium[3], *cheap[9:12]]]
        yield from harness.grouped(rng, groups)


def _deep_probe(kind, text, want):
    def run(call):
        term = call("parsing.parse_term", parse_term, text, None)
        return call("semantics.eval_q0", eval_q0, term)

    return Op(kind, run, lambda got: None if got == want else f"{kind}: {got} != {want}",
              "semantics")


def defect_probes(ctx):
    """Inputs past depth 1000, with the failure the seed library shows on them."""
    known = "raised RecursionError"
    return [
        (_deep_probe("probe.numeral_1200", "1200 + 1", 1201), known),
        (_deep_probe("probe.parens_1000", "(" * 1000 + "2" + ")" * 1000, 2), known),
        (_deep_probe("probe.inverse_1000", "inv(" * 1000 + "2" + ")" * 1000, 2), known),
    ]
