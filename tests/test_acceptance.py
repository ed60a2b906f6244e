"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as
the criteria pass; a failed assertion marks the criterion failed.
"""

import random
import time
from fractions import Fraction

from meadows.convention import DefNzClass, classify
from meadows.logic3 import (
    Connectives, Equality, LogicConfig, Quantifiers, TruthValue3,
    eval_formula, parse_formula,
)
from meadows.normalize import (
    Frac, ZeroNF, decide_iamd, normal_form_closed,
)
from meadows.partial import Defined, PunchVariant, UNDEFINED, punch_eval, recovery_check
from meadows.presentations import builtin, md_d, md_rd, visible_models_check
from meadows.projection import Projection, project
from meadows.numbers import corollary_witness, is_prime, two_squares
from meadows.semantics import NotRegular, check_axioms, eval_q0, zn_meadow, zp_meadow
from meadows.terms import (
    Div, Inv, Var, ZERO, Signature, free_vars,
)

from .helpers import (
    equivalent_variant, oracle_eval, random_assignment, random_term,
)
from .test_normalize import grid_equal, grid_volume

T, F, U = TruthValue3.T, TruthValue3.F, TruthValue3.U
PRIMES = (2, 3, 5, 7, 11, 13)


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_axiom_model_suite():
    start = time.monotonic()
    for p in PRIMES:
        model = zp_meadow(p)
        assert check_axioms(model, "imd") == [], f"E_imd fails in Z_{p}"
        assert check_axioms(model, "dmd") == [], f"E_dmd fails in Z_{p}"
    elapsed = time.monotonic() - start
    assert len(builtin("imd").axioms) == 10
    assert len(builtin("dmd").axioms) == 11
    assert elapsed < 10, f"axiom suite took {elapsed:.1f}s"
    _report(1, f"all 10+11 axioms hold exhaustively in Z_p, p in {PRIMES} "
               f"({elapsed:.2f}s)")


def test_criterion_2_truth_value_fixtures():
    div0 = PunchVariant.DIV_ZERO_ALL

    def cfg(eq="weak", conn="mccarthy", quant="bochvar"):
        return LogicConfig(
            Equality(eq), Connectives(conn), Quantifiers(quant), (0, 1, 2)
        )

    def fml(text):
        return parse_formula(text, Signature.DMD)

    checks = [
        (fml("1/0 = 1/0 + 1"), cfg(eq="strong"), T),
        (fml("1/0 = 1/0"), cfg(eq="exist"), F),
        (fml("0 != 0 -> 0/0 = 1"), cfg(conn="mccarthy"), T),
        (fml("0/0 = 1 | 0 = 0"), cfg(conn="mccarthy"), U),
        (fml("forall x. x/x = 1"), cfg(quant="kleene"), U),
        (fml("exists x. x/x = 1"), cfg(quant="kleene"), T),
        (fml("0 != 0 -> 0/0 = 1"), cfg(conn="bochvar"), U),
        (fml("exists x. x/x = 1"), cfg(quant="bochvar"), U),
    ]
    for formula, config, expected in checks:
        got = eval_formula(formula, config, div0)
        assert got is expected, (formula, config, got, expected)
    _report(2, "all eight three-valued truth claims reproduce exactly")


def test_criterion_3_decision_procedure_oracle():
    rng = random.Random(20260811)
    start = time.monotonic()
    checked = 0
    agreed = 0
    trues = 0
    while checked < 1000:
        if rng.random() < 0.5:
            t = random_term(rng, Signature.IAMD, 4)
            u = equivalent_variant(rng, t)
        else:
            t = random_term(rng, Signature.IAMD, 6)
            u = random_term(rng, Signature.IAMD, 6)
        if grid_volume(t, u) > 3000:
            continue
        verdict = decide_iamd(t, u)
        assert verdict == grid_equal(t, u), (t, u)
        checked += 1
        agreed += 1
        trues += verdict
    elapsed = time.monotonic() - start
    assert agreed == checked == 1000
    assert trues and trues < checked, "both verdicts must be exercised"
    assert elapsed < 30, f"oracle comparison took {elapsed:.1f}s"
    _report(3, f"decide_iamd matched the positive-grid oracle on 1000 pairs "
               f"({trues} equal, {elapsed:.2f}s)")


def test_criterion_4_normal_forms():
    rng = random.Random(47)
    for _ in range(1000):
        t = random_term(rng, Signature.IAMD, 6, variables=())
        nf = normal_form_closed(t, Signature.IAMD)
        value = oracle_eval(t)
        assert isinstance(nf, Frac)
        assert (nf.num, nf.den) == (value.numerator, value.denominator)
    zeros = 0
    for _ in range(1000):
        t = random_term(rng, Signature.IAMDZ, 6, variables=())
        nf = normal_form_closed(t, Signature.IAMDZ)
        value = oracle_eval(t)
        if isinstance(nf, ZeroNF):
            zeros += 1
            assert value == 0
        else:
            assert (nf.num, nf.den) == (value.numerator, value.denominator)
    assert zeros, "the zero normal form must be exercised"
    _report(4, f"2000 closed terms normalized to the oracle's values "
               f"({zeros} hit the zero normal form)")


def test_criterion_5_number_theory():
    start = time.monotonic()
    primes = [p for p in range(2, 1000) if is_prime(p)]
    assert len(primes) == 168
    for p in primes:
        for u in range(p):
            v, w = two_squares(p, u)
            assert (v * v + w * w) % p == u, (p, u)
        a, b, w = corollary_witness(p)
        assert a * a + b * b + 1 == w * p, p
        assert 0 <= a < p and 0 <= b < p
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"witness search took {elapsed:.1f}s"
    _report(5, f"two-squares and w*p = u^2+v^2+1 witnesses verified for all "
               f"168 primes below 1000 ({elapsed:.2f}s)")


def test_criterion_6_regular_ring_expansion():
    squarefree = [
        n for n in range(1, 31) if all(n % (d * d) for d in range(2, 6))
    ]
    for n in squarefree:
        meadow = zn_meadow(n)
        assert check_axioms(meadow, "imd") == [], f"expansion of Z_{n} not a meadow"
    for n in (4, 8, 9, 16, 25, 27):
        try:
            zn_meadow(n)
        except NotRegular:
            continue
        raise AssertionError(f"Z_{n} must not be regular")
    _report(6, f"unique meadow expansions for {len(squarefree)} squarefree "
               f"moduli; NotRegular for the six prime-power moduli")


def test_criterion_7_projection_homomorphism_fuzz():
    rng = random.Random(53)
    directions = [
        (Projection.DMN_TO_IMN, Signature.DMD),
        (Projection.IMN_TO_DMN, Signature.IMD),
        (Projection.IMN_TO_RDMN, Signature.IMD),
    ]
    for which, source in directions:
        for _ in range(10_000):
            t = random_term(rng, source, 4)
            a = random_assignment(rng, free_vars(t))
            assert eval_q0(t, a) == eval_q0(project(t, which), a), (which, t, a)
    # Round trips are only semantic: values agree everywhere.
    checks = 0
    while checks < 1000:
        t = random_term(rng, Signature.DMD, 4)
        back = project(project(t, Projection.DMN_TO_IMN), Projection.IMN_TO_DMN)
        for _ in range(10):
            a = random_assignment(rng, free_vars(t))
            assert eval_q0(t, a) == eval_q0(back, a)
            checks += 1
    _report(7, "30000 projected evaluations and 1000 round-trip "
               "evaluations agree exactly")


def test_criterion_8_punching_table_and_defnz_soundness():
    inv0 = PunchVariant.INV_ZERO
    div0 = PunchVariant.DIV_ZERO_ALL
    div0lib = PunchVariant.DIV_ZERO_NONZERO_NUM

    # Recovery three-way table.
    assert recovery_check(div0, inv0, Inv(ZERO)).agrees
    assert recovery_check(div0lib, inv0, Inv(ZERO)).agrees
    for x in (0, 1, Fraction(2, 3)):
        assert recovery_check(inv0, div0, Div(Var("x"), ZERO), {"x": x}).agrees
    report = recovery_check(inv0, div0lib, Div(ZERO, ZERO))
    assert not report.agrees
    assert report.direct == Defined(Fraction(0)) and report.projected is UNDEFINED
    assert punch_eval(Div(ZERO, ZERO), div0lib) == Defined(Fraction(0))
    assert punch_eval(Div(ZERO, ZERO), div0) is UNDEFINED

    # Def/Nz strict-mode soundness over sampled non-negative assignments.
    rng = random.Random(59)
    sampled = 0
    nz_seen = def_seen = 0
    while sampled < 10_000:
        t = random_term(rng, Signature.IAMDZ, 5)
        cls = classify(t, "strict", vars_defined=True)
        if cls is DefNzClass.NEITHER:
            continue
        names = sorted(free_vars(t))
        for _ in range(10):
            a = random_assignment(rng, names, nonneg=True)
            if names and rng.random() < 0.5:
                a[rng.choice(names)] = Fraction(0)  # force a zero
            result = punch_eval(t, inv0, a=a)
            assert isinstance(result, Defined), (t, a)
            if cls is DefNzClass.IN_NZ:
                assert result.value > 0, (t, a)
                nz_seen += 1
            else:
                assert result.value >= 0
                def_seen += 1
            sampled += 1
    assert nz_seen and def_seen
    _report(8, f"punching recovery table exact; Def/Nz soundness on "
               f"{sampled} non-negative samples ({nz_seen} Nz, {def_seen} Def)")


def test_criterion_9_presentations():
    for name, count in (("cr", 8), ("inv", 2), ("div", 3), ("rd", 9),
                        ("imd", 10), ("dmd", 11)):
        assert len(builtin(name).axioms) == count, name

    dmd_symbols = builtin("dmd").visible
    assert md_d().visible == dmd_symbols
    rd_names = {(s.name, s.arity) for s in md_rd().visible}
    assert rd_names == {("1", 0), ("-", 2), ("/", 2)}

    for p in (2, 3, 5, 7):
        model = zp_meadow(p)
        assert check_axioms(model, "dmd") == [], f"E_dmd fails in Z_{p}"
        report = visible_models_check(md_d(), model)
        assert report.satisfiable and len(report.expansions) == 1
        recovered = report.expansions[0]["inv"]
        assert recovered == model.inv
        # ... and the recovered inverse is pointwise 1/x.
        assert recovered == tuple(model.div(1, x) for x in model.carrier)
    _report(9, "axiom counts 8/2/3/9/10/11; hiding chains reach the divisive "
               "and reduced signatures; inverse uniquely recovered for p in (2,3,5,7)")
