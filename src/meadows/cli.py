"""Command-line interface.

One subcommand per capability: eval, peval, project, normalize,
decide, truth, classify, comply, check-model, witness, spec.  Exit
status is 0 for successful/positive verdicts (true, Compliant,
defined, T), 1 for negative ones (false, Violation, undefined), and
2 for usage, parse, or signature errors, for assigned values outside
a finite model's carrier, for numbers of more than 4300 digits, for a
closed standard output and when memory runs out.  --json emits one
JSON object per result with absent fields omitted; rationals print as
n/m in lowest terms, never as decimals.  While a command runs, the
interpreter's limit on the digits of an int converted from or to text
is 4300, the bound on a literal, whatever PYTHONINTMAXSTRDIGITS says.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Handlers import the other modules they run, so a command loads only what it uses.
from .parsing import _MAX_DIGITS, parse_term, render
from .terms import Signature, Var

if TYPE_CHECKING:
    from . import presentations
    from .semantics import Model

__all__ = ["main", "run"]

_SIG_CHOICES = ["mixed", *(s.value for s in Signature)]
_VARIANT_CHOICES = ("div0", "div0lib", "inv0")


# A number read or printed has at most _MAX_DIGITS digits, the parser's bound on a
# literal; run sets the interpreter's limit on converting between int and str to it.
_TOO_LONG = f"value has more than {_MAX_DIGITS} digits"
_BOUND = 10 ** _MAX_DIGITS


def _check_digits(text: str) -> None:
    """ValueError when text holds more than _MAX_DIGITS digits."""
    if sum(map(str.isdigit, text)) > _MAX_DIGITS:
        raise ValueError(_TOO_LONG)


def _spell(value) -> str:
    """str(value) of a number, or of a record (a tuple) holding numbers;
    ValueError when an integer in it has more than _MAX_DIGITS digits."""
    parts = [value]
    while parts:
        part = parts.pop()
        if isinstance(part, tuple):
            parts += part
        elif isinstance(part, Fraction):
            parts += part.numerator, part.denominator
        elif isinstance(part, int) and abs(part) >= _BOUND:
            raise ValueError(_TOO_LONG)
    return str(value)


def _parse_value(text: str, model: Model) -> int | Fraction:
    """A value literal: an integer in a finite model, else a rational."""
    from .semantics import FiniteMeadow
    _check_digits(text)
    if isinstance(model, FiniteMeadow):
        return int(text)
    _, e, tail = text.lower().partition("e")
    try:
        exponent = int(tail) if e else 0
    except ValueError:  # not an exponent: Fraction names the fault
        exponent = 0
    if abs(exponent) > _MAX_DIGITS:  # refused before Fraction builds 10 ** exponent
        raise ValueError(_TOO_LONG)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _parse_assignment(text: str | None, model: Model) -> dict:
    a: dict = {}
    if not text:
        return a
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad assignment entry {item!r}; use name=value")
        name = name.strip()
        _check_digits(value)  # before the entry is quoted in an error
        try:
            Var(name)  # ValueError unless name is a variable's
            if name in a:
                raise ValueError(f"{name} is assigned twice")
            a[name] = _parse_value(value, model)
        except ValueError as exc:
            raise ValueError(f"bad assignment entry {item!r}: {exc}") from None
    return a


def _load_model(choice: str) -> Model:
    from .semantics import Q0, zn_meadow, zp_meadow
    if choice == "q0":
        return Q0
    kind, _, arg = choice.partition(":")
    _check_digits(arg)
    if kind in ("zp", "zn") and arg:
        return zp_meadow(int(arg)) if kind == "zp" else zn_meadow(int(arg))
    raise ValueError(f"unknown model {choice!r}; use q0, zp:<p>, or zn:<n>")


# What a handler returns: the exit code, the JSON payload without its
# "command" key, and the text form (None for a command that prints only JSON).
_Outcome = tuple[int, dict, str | None]


def _cmd_eval(args) -> _Outcome:
    from .semantics import eval_model
    model = _load_model(args.model)
    t = parse_term(args.term, None if args.sig == "mixed" else Signature(args.sig))
    value = _spell(eval_model(t, model, _parse_assignment(args.assign, model)))
    return 0, {"value": value}, value


def _cmd_peval(args) -> _Outcome:
    from .partial import _VARIANT_SIG, Defined, PunchVariant, punch_eval
    model = _load_model(args.model)
    variant = PunchVariant(args.variant)
    t = parse_term(args.term, _VARIANT_SIG[variant])
    result = punch_eval(t, variant, model, _parse_assignment(args.assign, model))
    if isinstance(result, Defined):
        value = _spell(result.value)
        return 0, {"status": "defined", "value": value}, value
    return 1, {"status": "undefined"}, "undefined"


def _cmd_project(args) -> _Outcome:
    from .projection import _SOURCE, Projection, project
    which = Projection(args.to)
    image = render(project(parse_term(args.term, _SOURCE[which]), which))
    return 0, {"value": image}, image


def _cmd_normalize(args) -> _Outcome:
    from . import normalize
    sig = Signature(args.sig)
    nf = _spell(normalize.normal_form_closed(parse_term(args.term, sig), sig))
    return 0, {"value": nf}, nf


def _cmd_decide(args) -> _Outcome:
    from . import normalize
    theory = normalize._theory(args.theory)  # refuses an undecided theory before parsing
    t = parse_term(args.left, theory.sig)
    u = parse_term(args.right, theory.sig)
    zeroed, left, right = normalize._reason(theory, t, u)
    witness = {"left": _spell(left), "right": _spell(right)}
    if theory.gil and zeroed is not None:
        # The first zero set at which the sides differ, and the sides there.
        witness = {"zeroed": zeroed, **witness}
    verdict = "true" if zeroed is None else "false"
    return 0 if zeroed is None else 1, {"verdict": verdict, "witness": witness}, None


def _cmd_truth(args) -> _Outcome:
    from . import logic3
    from .partial import _VARIANT_SIG, PunchVariant
    model = _load_model(args.model)
    variant = PunchVariant(args.variant)
    domain_text = args.domain
    if domain_text is None:
        domain_text = os.environ.get("MEADOW_DEFAULT_DOMAIN", "0,1,2")
    domain = tuple(_parse_value(v, model) for v in domain_text.split(","))
    if args.logic == "lpmd":
        cfg = logic3.lpmd(domain)
    else:
        cfg = logic3.LogicConfig(
            logic3.Equality(args.eq), logic3.Connectives(args.conn),
            logic3.Quantifiers(args.quant), domain,
        )
    f = logic3.parse_formula(args.formula, _VARIANT_SIG[variant])
    a = _parse_assignment(args.assign, model)
    value = logic3.eval_formula(f, cfg, variant, model, a)
    return 0 if value is logic3.TruthValue3.T else 1, {"value": str(value)}, str(value)


def _cmd_classify(args) -> _Outcome:
    from . import convention
    t = parse_term(args.term, Signature.IAMDZ)
    result = convention.classify(t, args.mode, args.vars_defined)
    code = 0 if result is not convention.DefNzClass.NEITHER else 1
    return code, {"verdict": str(result)}, str(result)


def _cmd_comply(args) -> _Outcome:
    from . import convention
    from .partial import _VARIANT_SIG
    if args.open:
        t = parse_term(args.term, Signature.IAMDZ)
        result = convention.open_compliance_sufficient(t, args.mode, args.vars_defined)
        code = 0 if result is convention.Sufficiency.CERTIFIED_COMPLIANT else 1
        return code, {"verdict": str(result)}, str(result)
    conv = convention.ConventionId(args.convention)
    t = parse_term(args.term, _VARIANT_SIG[conv])
    result = convention.closed_compliance(t, conv)
    if isinstance(result, convention.Violation):
        witness = {"subterm": render(result.subterm), "detail": result.detail}
        return 1, {"verdict": "Violation", "witness": witness}, str(result)
    return 0, {"verdict": "Compliant"}, "Compliant"


def _cmd_check_model(args) -> _Outcome:
    from . import presentations
    from .semantics import check_axioms
    label = f"zp:{args.zp}" if args.zp is not None else f"zn:{args.zn}"
    failures = [str(f) for f in check_axioms(_load_model(label), args.axioms)]
    if failures:
        return 1, {"verdict": "fail", "witness": failures}, "\n".join(failures)
    count = len(presentations.builtin(args.axioms).axioms)
    return 0, {"verdict": "ok"}, f"ok: all {count} {args.axioms} axioms hold in {label}"


def _cmd_witness(args) -> _Outcome:
    from .numbers import corollary_witness, two_squares
    p = args.prime
    if args.residue is not None:
        v, w = two_squares(p, args.residue)
        value = {"prime": p, "residue": args.residue, "v": v, "w": w}
        return 0, {"value": value}, f"{args.residue} = {v}^2 + {w}^2 (mod {p})"
    u, v, w = corollary_witness(p)
    value = {"prime": p, "u": u, "v": v, "w": w}
    return 0, {"value": value}, f"{u}^2 + {v}^2 + 1 = {w} * {p}"


def _render_presentation(p: presentations.Presentation) -> str:
    lines = [f"presentation {p.name}"]
    lines.append("visible: " + ", ".join(sorted(str(s) for s in p.visible)))
    hidden = ", ".join(sorted(str(s) for s in p.hidden_symbols))
    if hidden:
        lines.append("hidden: " + hidden)
    lines.append(f"axioms ({len(p.axioms)}):")
    for eq in p.axioms:
        lines.append(f"  {eq.name}: {render(eq.lhs)} = {render(eq.rhs)}")
    return "\n".join(lines)


def _cmd_spec(args) -> _Outcome:
    from . import presentations
    if args.show:
        p = presentations.builtin(args.show)
    else:
        p = presentations.parse_module_expression(args.flatten)
    value = {
        "name": p.name,
        "visible": sorted(str(s) for s in p.visible),
        "hidden": sorted(str(s) for s in p.hidden_symbols),
        "axioms": [
            {"name": eq.name, "lhs": render(eq.lhs), "rhs": render(eq.rhs)}
            for eq in p.axioms
        ],
    }
    return 0, {"value": value}, _render_presentation(p)


def _opt(*names: str, **keywords) -> tuple[tuple[str, ...], dict]:
    """The arguments of one argparse add_argument call."""
    return names, keywords


# Options that several subcommands share.
_TERM = _opt("term")
_MODEL = _opt("--model", default="q0", help="q0 (default), zp:<p>, or zn:<n>")
_ASSIGN = _opt("--assign", help="comma-separated name=value bindings")
_MODE = _opt("--mode", default="strict", choices=["strict", "literal"])
_VARS_DEFINED = _opt("--vars-defined", action="store_true")

# Each subcommand's help, handler and options in usage order; a list of
# options is a group of which exactly one must be given.
_COMMANDS = {
    "eval": ("evaluate a term in a total model", _cmd_eval, [
        _MODEL, _opt("--sig", default="mixed", choices=_SIG_CHOICES), _ASSIGN, _TERM,
    ]),
    "peval": ("evaluate a term in a punched model", _cmd_peval, [
        _opt("--variant", required=True, choices=_VARIANT_CHOICES),
        _MODEL, _ASSIGN, _TERM,
    ]),
    "project": ("translate a term between notations", _cmd_project, [
        _opt("--to", required=True, choices=["imn", "dmn", "rdmn"]), _TERM,
    ]),
    "normalize": ("normal form of a closed arithmetical term", _cmd_normalize, [
        _opt("--sig", required=True, choices=["iamd", "iamdz"]), _TERM,
    ]),
    "decide": ("decide equality of two terms", _cmd_decide, [
        _opt("--theory", required=True,
             choices=["iamd", "iamdz-gil", "damd", "damdz-gil", "iamdz", "damdz"]),
        _opt("left"), _opt("right"),
    ]),
    "truth": ("three-valued truth value of a formula", _cmd_truth, [
        _opt("--eq", default="weak", choices=("exist", "strong", "weak")),
        _opt("--conn", default="mccarthy",
             choices=("bochvar", "kleene", "mccarthy", "mccarthy-rev")),
        _opt("--quant", default="bochvar", choices=("bochvar", "kleene")),
        _opt("--variant", default="div0", choices=_VARIANT_CHOICES),
        _opt("--domain", help="comma-separated carrier values (default 0,1,2)"),
        _opt("--logic", choices=["lpmd"], help="preset overriding eq/conn/quant"),
        _MODEL, _ASSIGN, _opt("formula"),
    ]),
    "classify": ("Def/Nz class of an arithmetical term", _cmd_classify, [
        _MODE, _VARS_DEFINED, _TERM,
    ]),
    "comply": ("division-convention compliance", _cmd_comply, [
        _opt("--convention", choices=_VARIANT_CHOICES, default="div0"),
        _opt("--open", action="store_true", help="sound syntactic check for open terms"),
        _MODE, _VARS_DEFINED, _TERM,
    ]),
    "check-model": ("exhaustively check axioms in a finite model", _cmd_check_model, [
        [_opt("--zp", type=int, help="zero-totalized prime field Z_p"),
         _opt("--zn", type=int, help="meadow expansion of Z_n (n squarefree)")],
        _opt("--axioms", default="imd"),
    ]),
    "witness": ("number-theoretic witnesses for a prime", _cmd_witness, [
        _opt("--prime", type=int, required=True),
        _opt("--residue", type=int, help="two-squares decomposition of a residue"),
    ]),
    "spec": ("show or flatten presentations", _cmd_spec, [[
        _opt("--show", metavar="NAME"),
        _opt("--flatten", metavar="EXPR",
             help="combine(A,B), hide(sym,A), export({syms},A), rename(a:=b,A)"),
    ]]),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """A parser that names every subcommand but gives options only to the
    one argv runs: its first token that is not an option."""
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="meadow",
        description="Zero-totalized field arithmetic and meadow term tools.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options if name == chosen else ():
            if isinstance(option, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, keywords in option:
                    group.add_argument(*names, **keywords)
            else:
                p.add_argument(*option[0], **option[1])
    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the exit code.  While it runs, int
    and str convert numbers of up to _MAX_DIGITS digits and no more; the
    caller's limit on those conversions is restored on return."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str]) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, text = _COMMANDS[args.command][1](args)
        if args.json or text is None:
            text = json.dumps({"command": args.command, **payload})
        # Flushed here, so that a closed stdout fails inside the try.
        print(text, flush=True)
        return code
    except ValueError as exc:  # ParseError, SignatureError, UnsupportedTheory, NotRegular too
        error = str(exc)
    except MemoryError:
        error = "out of memory"
    except BrokenPipeError:
        # The reader is gone: send what is still buffered, flushed at exit, nowhere.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        error = "standard output is closed"
    print(f"error: {error}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
