import argparse
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meadows

from meadows import normalize
from meadows.cli import _build_parser, _render_presentation, run
from meadows.convention import ConventionId
from meadows.logic3 import Connectives, Equality, Quantifiers
from meadows.normalize import ZERO_NF, decide_iamdz_gil, to_polyfrac, zero_eliminate
from meadows.parsing import parse_term, render
from meadows.partial import PunchVariant
from meadows.presentations import builtin
from meadows.projection import Projection, project
from meadows.terms import ONE, Mul, Signature

from .helpers import random_term

SRC = str(Path(meadows.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("eval", "peval", "project", "normalize", "decide", "truth", "classify",
            "comply", "check-model", "witness", "spec")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, "--json", *argv)
    return code, json.loads(out), err


def test_eval_division_by_zero(capsys):
    code, out, _ = invoke(capsys, "eval", "--model", "q0", "1/0")
    assert (code, out) == (0, "0")


def test_eval_rational_output_format(capsys):
    code, out, _ = invoke(capsys, "eval", "--assign", "x=2/3,y=0", "x + y")
    assert (code, out) == (0, "2/3")
    code, out, _ = invoke(capsys, "eval", "--assign", "x=-1/2", "x + x")
    assert (code, out) == (0, "-1")
    code, out, _ = invoke(capsys, "eval", "--model", "zp:5", "--assign", "x=3", "inv(x)")
    assert (code, out) == (0, "2")


def test_eval_signature_flag(capsys):
    code, _, err = invoke(capsys, "eval", "--sig", "imd", "x / y")
    assert code == 2 and "/" in err


def test_peval_verdicts(capsys):
    code, out, _ = invoke(capsys, "peval", "--variant", "div0", "--model", "q0", "1/0")
    assert (code, out) == (1, "undefined")
    code, out, _ = invoke(capsys, "peval", "--variant", "div0lib", "0/0")
    assert (code, out) == (0, "0")
    code, payload, _ = invoke_json(capsys, "peval", "--variant", "inv0", "inv(0)")
    assert code == 1 and payload == {"command": "peval", "status": "undefined"}
    code, payload, _ = invoke_json(capsys, "peval", "--variant", "inv0", "inv(2)")
    assert payload == {"command": "peval", "status": "defined", "value": "1/2"}


def test_project_round(capsys):
    code, out, _ = invoke(capsys, "project", "--to", "imn", "x/y")
    assert (code, out) == (0, "x * y^-1")
    code, out, _ = invoke(capsys, "project", "--to", "dmn", "x^-1")
    assert (code, out) == (0, "1 / x")
    code, out, _ = invoke(capsys, "project", "--to", "rdmn", "0")
    assert (code, out) == (0, "1 - 1")


def test_normalize(capsys):
    code, out, _ = invoke(capsys, "normalize", "--sig", "iamd", "4 * 6^-1")
    assert (code, out) == (0, "2/3")
    code, out, _ = invoke(capsys, "normalize", "--sig", "iamdz", "inv(0)")
    assert (code, out) == (0, "0")
    code, _, err = invoke(capsys, "normalize", "--sig", "iamd", "x + 1")
    assert code == 2 and "closed" in err


def test_decide_json_verdicts(capsys):
    code, out, _ = invoke(capsys, "decide", "--theory", "iamd", "x * x^-1", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "true"
    assert payload["witness"]["left"] == "(x) / (x)"
    code, out, _ = invoke(capsys, "decide", "--theory", "iamd", "x", "x + x")
    assert code == 1 and json.loads(out)["verdict"] == "false"
    code, out, _ = invoke(
        capsys, "decide", "--theory", "damdz-gil", "0/0", "0"
    )
    assert code == 0 and json.loads(out)["verdict"] == "true"
    # A false -gil verdict names the first zero set at which the sides differ.
    code, out, _ = invoke(capsys, "decide", "--theory", "iamdz-gil", "x * x^-1", "1")
    assert code == 1 and json.loads(out)["witness"] == {
        "zeroed": ["x"], "left": "0", "right": "(1) / (1)"}
    code, out, _ = invoke(capsys, "decide", "--theory", "iamdz-gil", "(z + y) * (z + y)^-1", "1")
    assert code == 1 and json.loads(out)["witness"] == {
        "zeroed": ["y", "z"], "left": "0", "right": "(1) / (1)"}
    code, out, _ = invoke(capsys, "decide", "--theory", "iamdz-gil", "(x*x) * (x*x)^-1", "x * x^-1")
    assert code == 0 and json.loads(out)["witness"] == {
        "left": "(x^2) / (x^2)", "right": "(x) / (x)"}


def test_decide_refuses_open_problem_theory(capsys):
    code, _, err = invoke(capsys, "decide", "--theory", "iamdz", "x", "1")
    assert code == 2 and "open problem" in err
    # Refused before its terms are parsed in any signature.
    code, _, err = invoke(capsys, "decide", "--theory", "iamdz", "x^-1", "1")
    assert code == 2 and "open problem" in err


def sum_probe(n: int) -> list[str]:
    """s * s^-1 and (s*s) * (s*s)^-1 for s the sum of n variables."""
    s = " + ".join(f"x{i}" for i in range(n))
    return [f"({s}) * ({s})^-1", f"(({s}) * ({s})) * (({s}) * ({s}))^-1"]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_decide_refuses_more_than_twenty_variables_under_an_inverse(flags):
    p = subprocess.run(
        [sys.executable, "-m", "meadows.cli", *flags, "decide", "--theory", "iamdz-gil",
         *sum_probe(21)], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert (p.returncode, p.stdout, p.stderr) == (2, "", (
        "error: 21 variables occur under an inverse; the general inverse law is decided "
        "for at most 20\n"))


def test_decide_with_sixteen_variables_under_an_inverse(capsys):
    # A breadth-first walk over the 2^16 zero sets took about 90 s.
    t, u = (parse_term(text, Signature.IAMDZ) for text in sum_probe(16))
    assert invoke(capsys, "decide", "--theory", "iamdz-gil", *sum_probe(16)) == (0, json.dumps({
        "command": "decide", "verdict": "true",
        "witness": {"left": quotient_text(t, False), "right": quotient_text(u, False)}}), "")


DECIDED = {"iamd": Signature.IAMD, "damd": Signature.DAMD,
           "iamdz-gil": Signature.IAMDZ, "damdz-gil": Signature.DAMDZ}


def quotient_text(side, divisive):
    """A side as decide printed it when it projected, zero-eliminated and
    rewrote each side as a quotient once more after deciding."""
    if divisive:
        side = project(side, Projection.DMN_TO_IMN)
    side = zero_eliminate(side)
    return "0" if side is ZERO_NF else str(to_polyfrac(side))


def counted_run(argv):
    """cli.run's exit code, stdout, and the number of pairs of sides it compared."""
    out = io.StringIO()
    with mock.patch.object(normalize, "_sides_differ", wraps=normalize._sides_differ) as spy, \
            redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue(), spy.call_count


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DECIDED)), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_decide_prints_the_quotients_of_the_sides(theory, equal, seed):
    rng = random.Random(seed)
    sig, divisive, gil = DECIDED[theory], theory.startswith("damd"), theory.endswith("-gil")
    t = random_term(rng, sig, 4)
    u = Mul(ONE, t) if equal else random_term(rng, sig, 4)
    code, out, compared = counted_run(["decide", "--theory", theory, render(t), render(u)])
    payload = json.loads(out)
    assert code == (0 if payload["verdict"] == "true" else 1)
    if code == 0 or not gil:
        assert payload["witness"] == {"left": quotient_text(t, divisive),
                                      "right": quotient_text(u, divisive)}
    else:
        # The command walks the zero sets once, as one decision does.
        assert list(payload["witness"]) == ["zeroed", "left", "right"]
        assert payload["witness"]["zeroed"] == sorted(payload["witness"]["zeroed"])
        if divisive:
            t, u = project(t, Projection.DMN_TO_IMN), project(u, Projection.DMN_TO_IMN)
        with mock.patch.object(normalize, "_sides_differ",
                               wraps=normalize._sides_differ) as spy:
            assert not decide_iamdz_gil(t, u)
        assert compared == spy.call_count


def test_truth_fixtures(capsys):
    code, out, _ = invoke(
        capsys, "truth", "--eq", "strong", "--variant", "div0", "1/0 = 1/0 + 1"
    )
    assert (code, out) == (0, "T")
    code, out, _ = invoke(
        capsys, "truth", "--eq", "exist", "--variant", "div0", "1/0 = 1/0"
    )
    assert (code, out) == (1, "F")
    code, out, _ = invoke(capsys, "truth", "--logic", "lpmd", "forall x. x/x = 1")
    assert (code, out) == (1, "U")
    code, out, _ = invoke(
        capsys, "truth", "--logic", "lpmd", "forall x. (x != 0 -> x/x = 1)"
    )
    assert (code, out) == (0, "T")
    code, out, _ = invoke(
        capsys, "truth", "--conn", "kleene", "--variant", "div0",
        "0/0 = 1 | 0 = 0",
    )
    assert (code, out) == (0, "T")


def test_truth_domain_flag_and_env(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, "truth", "--quant", "kleene", "--domain", "1,2", "forall x. x/x = 1"
    )
    assert (code, out) == (0, "T")
    monkeypatch.setenv("MEADOW_DEFAULT_DOMAIN", "1,2")
    code, out, _ = invoke(capsys, "truth", "--quant", "kleene", "forall x. x/x = 1")
    assert (code, out) == (0, "T")
    monkeypatch.delenv("MEADOW_DEFAULT_DOMAIN")
    code, out, _ = invoke(capsys, "truth", "--quant", "kleene", "forall x. x/x = 1")
    assert (code, out) == (1, "U")


def test_eval_in_a_large_prime_field(capsys):
    code, out, _ = invoke(capsys, "eval", "--model", "zp:10007", "--assign", "x=2", "inv(x) + 1")
    assert (code, out) == (0, str(pow(2, -1, 10007) + 1))


def test_truth_finite_model(capsys):
    code, out, _ = invoke(
        capsys, "truth", "--variant", "inv0", "--model", "zp:3",
        "--domain", "0,1,2", "forall x. (x != 0 -> x * inv(x) = 1)",
    )
    assert (code, out) == (0, "T")


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "1 + x")
    assert (code, out) == (1, "Neither")
    code, out, _ = invoke(capsys, "classify", "--mode", "literal", "1 + x")
    assert (code, out) == (0, "InNz")
    code, out, _ = invoke(capsys, "classify", "--vars-defined", "1 + x")
    assert (code, out) == (0, "InNz")
    code, out, _ = invoke(capsys, "classify", "0")
    assert (code, out) == (0, "InDef")


def test_comply(capsys):
    code, out, _ = invoke(capsys, "comply", "--convention", "div0", "1/0")
    assert code == 1 and "Violation" in out
    code, payload, _ = invoke_json(capsys, "comply", "--convention", "div0", "1/0")
    assert payload["verdict"] == "Violation"
    assert payload["witness"] == {"subterm": "1 / 0", "detail": "denominator 0"}
    code, out, _ = invoke(capsys, "comply", "--convention", "div0lib", "0/0")
    assert (code, out) == (0, "Compliant")
    code, out, _ = invoke(capsys, "comply", "--open", "inv(1 + 1)")
    assert (code, out) == (0, "CertifiedCompliant")
    code, out, _ = invoke(capsys, "comply", "--open", "inv(x)")
    assert (code, out) == (1, "Unknown")


def test_check_model(capsys):
    code, out, _ = invoke(capsys, "check-model", "--zp", "7", "--axioms", "imd")
    assert code == 0 and "ok" in out
    code, out, _ = invoke(capsys, "check-model", "--zn", "6", "--axioms", "imd")
    assert code == 0
    code, _, err = invoke(capsys, "check-model", "--zn", "4", "--axioms", "imd")
    assert code == 2 and "not regular" in err.lower() or "regular" in err


def test_check_model_refuses_two_models(capsys):
    code, out, err = invoke(capsys, "check-model", "--zp", "5", "--zn", "6")
    assert (code, out) == (2, "")
    assert "argument --zn: not allowed with argument --zp" in err


def test_eval_of_a_too_long_literal_exits_2(capsys):
    code, out, err = invoke(capsys, "eval", "9" * 5000)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith("(at position 0)")


_A = "7" * 3000  # a literal the parser takes, whose square has 5,999 digits
_LONG = "1" * 4301
_TOO_LONG = [
    ["eval", f"{_A}*{_A}"],
    ["eval", "--assign", f"x={_LONG}", "x"],
    ["eval", "--model", "zn:6", "--assign", f"x={_LONG}", "x"],
    ["eval", "--model", f"zp:{_LONG}", "1"],
    ["peval", "--variant", "div0", f"{_A}*{_A}"],
    ["normalize", "--sig", "iamd", f"inv({_A}*{_A})"],
    ["decide", "--theory", "iamd", f"{_A}*{_A}", "1"],
    ["decide", "--theory", "iamdz-gil", "x", f"x*{_A}*{_A}"],
    ["truth", "--domain", f"0,{_LONG}", "0 = 0"],
]


@pytest.mark.parametrize("argv", _TOO_LONG)
def test_numbers_of_more_than_4300_digits_exit_2(capsys, argv):
    # The interpreter's own limit used to give its own text ("Exceeds the
    # limit (4300 digits) ...") or, when lifted, print the number.
    assert invoke(capsys, *argv) == (2, "", "error: value has more than 4300 digits")


def test_digit_bound_holds_with_the_interpreter_limit_lifted():
    for argv in _TOO_LONG[:2]:
        p = subprocess.run([sys.executable, "-m", "meadows.cli", *argv], capture_output=True,
                           timeout=60, env={**os.environ, "PYTHONPATH": SRC,
                                            "PYTHONINTMAXSTRDIGITS": "0"})
        assert (p.returncode, p.stdout, p.stderr) == (
            2, b"", b"error: value has more than 4300 digits\n"), argv


def test_digit_bound_holds_with_the_interpreter_limit_at_its_lowest():
    # 640 digits is the lowest limit the interpreter takes; numbers up to
    # 4,300 digits used to fail with its "Exceeds the limit (640 digits) ...".
    literal, factor = "12345678901" * 91, "7" * 400
    for argv, out, err in [
        (["eval", literal], literal, ""),
        (["eval", f"{factor}*{factor}"], str(Decimal(int(factor) ** 2)), ""),
        (["eval", f"{_A}*{_A}"], "", "error: value has more than 4300 digits"),
        (["eval", "1" * 4301], "", "error: literal has more than 4300 digits (at position 0)"),
    ]:
        p = subprocess.run([sys.executable, "-m", "meadows.cli", *argv], capture_output=True,
                           text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC,
                                                       "PYTHONINTMAXSTRDIGITS": "640"})
        assert (p.returncode, p.stdout.strip(), p.stderr.strip()) == (2 if err else 0, out, err)


_ONES = "1" * 1000
_CARRIER_ERROR = f"error: value {_ONES} of x is outside the carrier 0..6"


@pytest.mark.parametrize("argv, out, err", [
    (["eval", "--assign", f"x={_ONES}", "x"], _ONES, ""),
    (["eval", "--assign", f"x=-{_ONES}/3", "x + x"], f"-{'2' * 1000}/3", ""),
    (["eval", "--model", "zp:7", "--assign", f"x={_ONES}", "x"], "", _CARRIER_ERROR),
    (["truth", "--domain", f"0,{_ONES}", f"exists x. x = {_ONES}"], "T", ""),
    (["truth", "--domain", f"0, -{_ONES}/7", f"exists x. 7 * x = -{_ONES}"], "T", ""),
], ids=["integer", "rational", "outside-the-carrier", "domain", "rational-domain"])
def test_long_assigned_and_domain_values_read_under_any_digit_limit(argv, out, err):
    # Values of more than 640 digits used to convert under the interpreter's
    # limit: at its lowest each of these exited 2 with "Exceeds the limit".
    for limit in ("640", "4300", "0"):
        p = subprocess.run([sys.executable, "-m", "meadows.cli", *argv], capture_output=True,
                           text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC,
                                                       "PYTHONINTMAXSTRDIGITS": limit})
        assert (p.returncode, p.stdout.strip(), p.stderr.strip()) == (2 if err else 0, out, err)


@pytest.mark.parametrize("model, err", [
    (f"zp:{_ONES[:700]}", f"error: {_ONES[:700]} is not prime"),
    (f"zn:4{'0' * 699}", "error: element 2 has no weak inverse; ring is not regular"),
    (f"zp:-{_ONES[:700]}", f"error: -{_ONES[:700]} is not prime"),
], ids=["not-prime", "not-squarefree", "negative"])
def test_long_moduli_read_under_any_digit_limit(model, err):
    # A modulus of more than 640 digits used to convert under the
    # interpreter's limit: at its lowest, "Exceeds the limit".  Each is
    # refused at once: 11 divides the ones, 4 the power of ten.
    for limit in ("640", "4300", "0"):
        p = subprocess.run([sys.executable, "-m", "meadows.cli", "eval", "--model", model, "1"],
                           capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": SRC, "PYTHONINTMAXSTRDIGITS": limit})
        assert (p.returncode, p.stdout.strip(), p.stderr.strip()) == (2, "", err)


def test_check_model_over_the_assignment_cap_exits_2(capsys):
    # About 3 * 10^9 assignments: refused before any table is built.
    code, out, err = invoke(capsys, "check-model", "--zp", "1009", "--axioms", "imd")
    assert (code, out) == (2, "")
    assert err.startswith("error: checking imd in a model of size 1009 needs ")
    assert "cap of 100000000" in err


def test_witness(capsys):
    code, out, _ = invoke(capsys, "witness", "--prime", "7")
    assert (code, out) == (0, "2^2 + 3^2 + 1 = 2 * 7")
    code, payload, _ = invoke_json(capsys, "witness", "--prime", "7", "--residue", "3")
    assert payload["value"] == {"prime": 7, "residue": 3, "v": 1, "w": 3}
    code, _, err = invoke(capsys, "witness", "--prime", "6")
    assert code == 2


def test_spec_show_and_flatten(capsys):
    code, payload, _ = invoke_json(capsys, "spec", "--show", "imd")
    assert code == 0
    assert len(payload["value"]["axioms"]) == 10
    assert payload["value"]["hidden"] == []
    code, payload, _ = invoke_json(
        capsys, "spec", "--flatten", "hide(inv, combine(imd, divdef))"
    )
    assert payload["value"]["hidden"] == ["^-1/1"]
    assert len(payload["value"]["axioms"]) == 11
    code, out, _ = invoke(capsys, "spec", "--show", "rd")
    assert "axioms (9):" in out


def test_spec_flatten_truncated_expression_exits_2(capsys):
    for expr in ("hide(", "export({0", "export({a,", "rename(a:="):
        code, out, err = invoke(capsys, "spec", "--flatten", expr)
        assert (code, out) == (2, ""), expr
        assert err == "error: unexpected end of module expression", expr


def test_spec_flatten_refuses_punctuation_as_a_symbol(capsys):
    # The comma after := used to become the symbol ",/2", exit 0.
    code, out, err = invoke(capsys, "spec", "--flatten", "rename(+:=,,imd)")
    assert (code, out) == (2, "")
    assert err == "error: expected a symbol, found ',' in module expression"


def test_combine_clash_message_does_not_depend_on_hash_seed():
    # The clashing keys are add, inv and mul; the first in sorted order is named.
    errors = set()
    for seed in ("3", "4"):
        p = subprocess.run(
            [sys.executable, "-m", "meadows.cli", "spec", "--flatten", "combine(iamd,md_rd)"],
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
        )
        assert p.returncode == 2
        errors.add(p.stderr)
    assert errors == {b"error: symbol add is hidden in one operand, visible in the other\n"}


def test_parse_errors_exit_2(capsys):
    code, _, err = invoke(capsys, "eval", "x +")
    assert code == 2 and "error" in err
    code, _, err = invoke(capsys, "eval", "--model", "zq:3", "1")
    assert code == 2
    code, _, err = invoke(capsys, "truth", "x = ")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_deep_numeral_within_default_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    code, out, _ = invoke(capsys, "eval", "60000")
    assert (code, out) == (0, "60000")
    code, out, _ = invoke(capsys, "comply", "--convention", "div0", "1 / (60000 - 60000)")
    assert code == 1 and out.startswith("Violation at ")
    # A numeral is one node, so the depth comes from a chain of variables.
    chain = " + ".join(["x"] * 60_000)
    code, out, _ = invoke(capsys, "eval", "--assign", "x=1", chain)
    assert (code, out) == (0, "60000")
    code, out, _ = invoke(capsys, "comply", "--open", f"inv({chain})")
    assert (code, out) == (1, "Unknown")
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("argv, code, out", [
    (["eval", "10000000"], 0, "10000000"),
    (["eval", "--model", "zp:1009", "123456789"], 0, "594"),
    (["decide", "--theory", "iamd", "1000000", "x"], 1,
     '{"command": "decide", "verdict": "false", '
     '"witness": {"left": "(1000000) / (1)", "right": "(x) / (1)"}}'),
    (["eval", "99999999999999999999999999/3"], 0, "33333333333333333333333333"),
])
def test_large_literals_cost_constant_time(capsys, argv, code, out):
    # A literal k used to be a chain of k additions: the first row took
    # minutes and gigabytes, and the last ran out of memory.
    start = time.perf_counter()
    assert invoke(capsys, *argv) == (code, out, "")
    assert time.perf_counter() - start < 5


_HUGE = "9" * 40


@pytest.mark.parametrize("argv", [
    ["project", "--to", "imn", _HUGE],
    ["project", "--to", "dmn", _HUGE],
    ["project", "--to", "rdmn", _HUGE],
    ["comply", "--convention", "div0", f"{_HUGE}/0"],
])
def test_numerals_too_large_to_spell_out_exit_2(capsys, argv):
    # Their text or chain of additions could not exist: the first two and
    # the violation's subterm used to end in an OverflowError traceback
    # (exit 1), and the chain of rdmn was built until memory ran out.
    start = time.perf_counter()
    assert invoke(capsys, *argv) == (2, "", f"error: numeral {_HUGE} is too large to spell out")
    assert time.perf_counter() - start < 5


def test_rdmn_image_of_a_large_literal_prints_at_once(capsys):
    # The image of numeral k is one node, printed by one string repeat: the
    # first command took 8 s building and printing a chain of 2k nodes, and
    # the second ran for hours before running out of memory.
    start = time.perf_counter()
    assert run(["project", "--to", "rdmn", "1000000"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("1 - (1 - 1 - 1) - (1 - 1 - 1) - ")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bd005fca9241d046edaa1796b0dd0b40cd8decf0ff25923c5ce2b8acf5467e20")
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    assert invoke(capsys, "project", "--to", "rdmn", "1000000000000000") == (
        2, "", "error: out of memory")
    assert time.perf_counter() - start < 5


def test_deep_formula_within_default_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    code, out, _ = invoke(capsys, "truth", "~" * 5000 + "0 = 0")
    assert (code, out) == (0, "T")
    assert sys.getrecursionlimit() == limit


def test_deep_module_expression_within_default_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    expr = "combine(imd," * 3000 + "imd" + ")" * 3000
    code, out, _ = invoke(capsys, "spec", "--flatten", expr)
    assert code == 0 and out.startswith("presentation combine(imd,combine(imd,")
    assert out.splitlines()[1:] == _render_presentation(builtin("imd")).splitlines()[1:]
    assert sys.getrecursionlimit() == limit


def subparsers(parser):
    """Each subcommand's parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def option_choices(command, option):
    (action,) = [a for a in subparsers(_build_parser([command]))[command]._actions
                 if option in a.option_strings]
    return set(action.choices)


def test_enum_option_choices_are_the_enum_values():
    # The parser spells the values out so that it imports no enum's module.
    # decide also names the two theories it refuses, as an open problem.
    for command, option, values in (
        ("peval", "--variant", {e.value for e in PunchVariant}),
        ("truth", "--variant", {e.value for e in PunchVariant}),
        ("truth", "--eq", {e.value for e in Equality}),
        ("truth", "--conn", {e.value for e in Connectives}),
        ("truth", "--quant", {e.value for e in Quantifiers}),
        ("comply", "--convention", {e.value for e in ConventionId}),
        ("project", "--to", {e.value for e in Projection}),
        ("decide", "--theory", {*normalize._THEORIES, "iamdz", "damdz"}),
    ):
        assert option_choices(command, option) == values, (command, option)


@pytest.mark.parametrize("command, usage", [
    ("eval", "[-h] [--model MODEL] [--sig {mixed,cr,imd,dmd,iamd,damd,iamdz,damdz,rd}] "
             "[--assign ASSIGN] term"),
    ("peval", "[-h] --variant {div0,div0lib,inv0} [--model MODEL] [--assign ASSIGN] term"),
    ("project", "[-h] --to {imn,dmn,rdmn} term"),
    ("normalize", "[-h] --sig {iamd,iamdz} term"),
    ("decide", "[-h] --theory {iamd,iamdz-gil,damd,damdz-gil,iamdz,damdz} left right"),
    ("truth", "[-h] [--eq {exist,strong,weak}] [--conn {bochvar,kleene,mccarthy,mccarthy-rev}] "
              "[--quant {bochvar,kleene}] [--variant {div0,div0lib,inv0}] [--domain DOMAIN] "
              "[--logic {lpmd}] [--model MODEL] [--assign ASSIGN] formula"),
    ("classify", "[-h] [--mode {strict,literal}] [--vars-defined] term"),
    ("comply", "[-h] [--convention {div0,div0lib,inv0}] [--open] [--mode {strict,literal}] "
               "[--vars-defined] term"),
    ("check-model", "[-h] (--zp ZP | --zn ZN) [--axioms AXIOMS]"),
    ("witness", "[-h] --prime PRIME [--residue RESIDUE]"),
    ("spec", "[-h] (--show NAME | --flatten EXPR)"),
])
def test_usage_line(capsys, command, usage):
    code, out, _ = invoke(capsys, command, "--help")
    # The usage paragraph with its line breaks, which depend on the terminal, undone.
    paragraph = " ".join(out.split("\n\n")[0].split())
    assert code == 0 and paragraph == f"usage: meadow {command} {usage}"


@pytest.mark.parametrize("argv, chosen", [
    *(([command, "--help"], command) for command in COMMANDS),
    (["--json", "decide", "--theory", "iamd", "x", "x"], "decide"),
    (["--help"], None),
    ([], None),
    (["no-such-command"], None),
])
def test_parser_holds_only_the_options_of_the_command_it_runs(argv, chosen):
    for name, parser in subparsers(_build_parser(argv)).items():
        options = [action.dest for action in parser._actions]
        assert (options != ["help"]) == (name == chosen), (argv, name, options)


def readme_examples():
    """The `meadow` lines of the README's CLI block."""
    block = README.read_text().split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    return [line for line in block.splitlines() if line.startswith("meadow ")]


@pytest.mark.parametrize("line", readme_examples())
def test_readme_cli_example(capsys, monkeypatch, line):
    # Each comment is the first line printed, "..." standing for any text,
    # then the exit code where it is not 0.
    monkeypatch.delenv("MEADOW_DEFAULT_DOMAIN", raising=False)
    first, code = re.fullmatch(r".*?\s# (.*?)(?: \(exit (\d)\))?", line).groups()
    pattern = ".*".join(re.escape(piece) for piece in first.split("..."))
    got, out, _ = invoke(capsys, *shlex.split(line, comments=True)[1:])
    assert got == int(code or 0)
    assert re.fullmatch(pattern, out.splitlines()[0])


def test_closed_stdout_exits_2():
    # About 80 KB, more than a pipe holds, so a write fails once the reader has gone.
    with subprocess.Popen(
        [sys.executable, "-m", "meadows.cli", "project", "--to", "dmn", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": SRC},
    ) as p:
        p.stdout.read(10)
        p.stdout.close()
        err = p.stderr.read()
        assert p.wait(timeout=60) == 2
    assert err == b"error: standard output is closed\n"


def test_out_of_memory_exits_2():
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    # The table of square roots mod a prime near 10^7 does not fit in 400 MB.
    p = subprocess.run(
        [sys.executable, "-m", "meadows.cli", "witness", "--prime", "10000019"],
        capture_output=True, timeout=120, preexec_fn=limit_address_space,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (p.returncode, p.stdout, p.stderr) == (2, b"", b"error: out of memory\n")


def test_json_determinism(capsys):
    first = invoke_json(capsys, "decide", "--theory", "iamd", "x * y", "y * x")
    second = invoke_json(capsys, "decide", "--theory", "iamd", "x * y", "y * x")
    assert first == second


def test_assignment_outside_carrier_exits_2(capsys):
    for argv in (
        ("eval", "--model", "zp:5", "--assign", "x=7", "x+1"),
        ("eval", "--model", "zp:5", "--assign", "x=-6", "x+1"),
        ("eval", "--model", "zp:5", "--assign", "x=-1", "x+1"),
        ("peval", "--variant", "inv0", "--model", "zp:5", "--assign", "x=7", "x+1"),
        ("truth", "--model", "zp:5", "--assign", "x=9", "x+1=x"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: value {} of x is outside the carrier 0..4".format(
            argv[-2].split("=")[1]
        ), argv


def test_assignment_zero_denominator_exits_2(capsys):
    code, out, err = invoke(capsys, "eval", "--assign", "x=1/0", "x")
    assert (code, out) == (2, "")
    assert "x=1/0" in err and len(err.splitlines()) == 1


def test_malformed_assignment_names_exit_2(capsys):
    # An empty or invalid name, or a name given twice, is an error, never
    # silently ignored or overwritten; the first bad entry is reported.
    for assign, item, reason in (
        ("=1", "=1", "invalid variable name: ''"),
        (" =1", " =1", "invalid variable name: ''"),
        ("X=1", "X=1", "invalid variable name: 'X'"),
        ("x=1,1x=2", "1x=2", "invalid variable name: '1x'"),
        ("x-y=1", "x-y=1", "invalid variable name: 'x-y'"),
        ("x=1,x=2", "x=2", "x is assigned twice"),
        ("x=1, x =2", " x =2", "x is assigned twice"),
    ):
        for argv in (
            ("eval", "--assign", assign, "1"),
            ("eval", "--model", "zp:5", "--assign", assign, "1"),
            ("peval", "--variant", "div0", "--assign", assign, "1"),
            ("truth", "--model", "zn:6", "--assign", assign, "1 = 1"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: bad assignment entry {item!r}: {reason}", argv


def test_well_formed_assignment_names_are_read(capsys):
    code, out, _ = invoke(capsys, "eval", "--assign", " x =1/2,y_2=3,inv=1", "x + y_2 + inv")
    assert (code, out) == (0, "9/2")
    code, out, _ = invoke(capsys, "eval", "--model", "zp:5", "--assign", "x=2,y=4", "x*y")
    assert (code, out) == (0, "3")


def test_domain_zero_denominator_exits_2(capsys):
    code, out, err = invoke(capsys, "truth", "--domain", "0,1/0", "0 = 0")
    assert (code, out, err) == (2, "", "error: zero denominator")
