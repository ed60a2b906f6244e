"""Command-line interface.

One subcommand per capability: eval, peval, project, normalize,
decide, truth, classify, comply, check-model, witness, spec.  Exit
status is 0 for successful/positive verdicts (true, Compliant,
defined, T), 1 for negative ones (false, Violation, undefined), and
2 for usage, parse, or signature errors and for assigned values outside
a finite model's carrier.  --json emits one JSON
object per result with absent fields omitted; rationals print as
n/m in lowest terms, never as decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# Handlers import the other modules they run, so a command loads only what it uses.
from .parsing import parse_term, render
from .terms import Signature, Var

if TYPE_CHECKING:
    from . import presentations
    from .semantics import Model

__all__ = ["main", "run"]

_SIG_CHOICES = ["mixed", "cr", "imd", "dmd", "iamd", "damd", "iamdz", "damdz", "rd"]
_VARIANT_CHOICES = ("div0", "div0lib", "inv0")


def _signature(name: str) -> Signature | None:
    return None if name == "mixed" else Signature(name)


def _parse_value(text: str, model: Model) -> int | Fraction:
    """A value literal: an integer in a finite model, else a rational."""
    from .semantics import FiniteMeadow
    try:
        return int(text) if isinstance(model, FiniteMeadow) else Fraction(text)
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
    if kind == "zp" and arg:
        return zp_meadow(int(arg))
    if kind == "zn" and arg:
        return zn_meadow(int(arg))
    raise ValueError(f"unknown model {choice!r}; use q0, zp:<p>, or zn:<n>")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=False))
    else:
        print(text)


def _cmd_eval(args) -> int:
    from .semantics import eval_model
    model = _load_model(args.model)
    t = parse_term(args.term, _signature(args.sig))
    a = _parse_assignment(args.assign, model)
    value = eval_model(t, model, a)
    _emit(args, {"command": "eval", "value": str(value)}, str(value))
    return 0


def _cmd_peval(args) -> int:
    from .partial import _VARIANT_SIG, Defined, PunchVariant, punch_eval
    model = _load_model(args.model)
    variant = PunchVariant(args.variant)
    t = parse_term(args.term, _VARIANT_SIG[variant])
    a = _parse_assignment(args.assign, model)
    result = punch_eval(t, variant, model, a)
    if isinstance(result, Defined):
        value = str(result.value)
        _emit(args, {"command": "peval", "status": "defined", "value": value}, value)
        return 0
    _emit(args, {"command": "peval", "status": "undefined"}, "undefined")
    return 1


def _cmd_project(args) -> int:
    from .projection import Projection, project
    which, source = {
        "imn": (Projection.DMN_TO_IMN, Signature.DMD),
        "dmn": (Projection.IMN_TO_DMN, Signature.IMD),
        "rdmn": (Projection.IMN_TO_RDMN, Signature.IMD),
    }[args.to]
    t = parse_term(args.term, source)
    image = render(project(t, which))
    _emit(args, {"command": "project", "value": image}, image)
    return 0


def _cmd_normalize(args) -> int:
    from . import normalize
    sig = Signature(args.sig)
    t = parse_term(args.term, sig)
    nf = normalize.normal_form_closed(t, sig)
    _emit(args, {"command": "normalize", "value": str(nf)}, str(nf))
    return 0


def _cmd_decide(args) -> int:
    from . import normalize
    theory = normalize._theory(args.theory)  # refuses an undecided theory before parsing
    t = parse_term(args.left, theory.sig)
    u = parse_term(args.right, theory.sig)
    zeroed, left, right = normalize._reason(theory, t, u)
    witness = {"left": str(left), "right": str(right)}
    if theory.gil and zeroed is not None:
        # The first zero set at which the sides differ, and the sides there.
        witness = {"zeroed": zeroed, **witness}
    payload = {
        "command": "decide",
        "verdict": "true" if zeroed is None else "false",
        "witness": witness,
    }
    print(json.dumps(payload, sort_keys=False))
    return 0 if zeroed is None else 1


def _default_domain() -> str:
    return os.environ.get("MEADOW_DEFAULT_DOMAIN", "0,1,2")


def _cmd_truth(args) -> int:
    from . import logic3
    from .partial import _VARIANT_SIG, PunchVariant
    model = _load_model(args.model)
    variant = PunchVariant(args.variant)
    domain_text = args.domain if args.domain is not None else _default_domain()
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
    _emit(args, {"command": "truth", "value": str(value)}, str(value))
    return 0 if value is logic3.TruthValue3.T else 1


def _cmd_classify(args) -> int:
    from . import convention
    t = parse_term(args.term, Signature.IAMDZ)
    result = convention.classify(t, args.mode, args.vars_defined)
    _emit(args, {"command": "classify", "verdict": str(result)}, str(result))
    return 0 if result is not convention.DefNzClass.NEITHER else 1


def _cmd_comply(args) -> int:
    from . import convention
    if args.open:
        t = parse_term(args.term, Signature.IAMDZ)
        result = convention.open_compliance_sufficient(t, args.mode, args.vars_defined)
        _emit(args, {"command": "comply", "verdict": str(result)}, str(result))
        return 0 if result is convention.Sufficiency.CERTIFIED_COMPLIANT else 1
    conv = convention.ConventionId(args.convention)
    t = parse_term(args.term, convention._CONVENTION_SIG[conv])
    result = convention.closed_compliance(t, conv)
    if isinstance(result, convention.Violation):
        payload = {
            "command": "comply",
            "verdict": "Violation",
            "witness": {"subterm": render(result.subterm), "detail": result.detail},
        }
        _emit(args, payload, str(result))
        return 1
    _emit(args, {"command": "comply", "verdict": "Compliant"}, "Compliant")
    return 0


def _cmd_check_model(args) -> int:
    from . import presentations
    from .semantics import check_axioms, zn_meadow, zp_meadow
    if args.zp is not None:
        model, label = zp_meadow(args.zp), f"zp:{args.zp}"
    elif args.zn is not None:
        model, label = zn_meadow(args.zn), f"zn:{args.zn}"
    else:
        raise ValueError("one of --zp or --zn is required")
    failures = check_axioms(model, args.axioms)
    if not failures:
        count = len(presentations.builtin(args.axioms).axioms)
        text = f"ok: all {count} {args.axioms} axioms hold in {label}"
        _emit(args, {"command": "check-model", "verdict": "ok"}, text)
        return 0
    payload = {
        "command": "check-model",
        "verdict": "fail",
        "witness": [str(f) for f in failures],
    }
    _emit(args, payload, "\n".join(str(f) for f in failures))
    return 1


def _cmd_witness(args) -> int:
    from .semantics import corollary_witness, two_squares
    p = args.prime
    if args.residue is not None:
        v, w = two_squares(p, args.residue)
        value = {"prime": p, "residue": args.residue, "v": v, "w": w}
        text = f"{args.residue} = {v}^2 + {w}^2 (mod {p})"
    else:
        u, v, w = corollary_witness(p)
        value = {"prime": p, "u": u, "v": v, "w": w}
        text = f"{u}^2 + {v}^2 + 1 = {w} * {p}"
    _emit(args, {"command": "witness", "value": value}, text)
    return 0


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


def _cmd_spec(args) -> int:
    from . import presentations
    if args.show:
        p = presentations.builtin(args.show)
    else:
        p = presentations.parse_module_expression(args.flatten)
    payload = {
        "command": "spec",
        "value": {
            "name": p.name,
            "visible": sorted(str(s) for s in p.visible),
            "hidden": sorted(str(s) for s in p.hidden_symbols),
            "axioms": [
                {"name": eq.name, "lhs": render(eq.lhs), "rhs": render(eq.rhs)}
                for eq in p.axioms
            ],
        },
    }
    _emit(args, payload, _render_presentation(p))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meadow",
        description="Zero-totalized field arithmetic and meadow term tools.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term in a total model")
    p.add_argument("--model", default="q0", help="q0 (default), zp:<p>, or zn:<n>")
    p.add_argument("--sig", default="mixed", choices=_SIG_CHOICES)
    p.add_argument("--assign", help="comma-separated name=value bindings")
    p.add_argument("term")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("peval", help="evaluate a term in a punched model")
    p.add_argument("--variant", required=True, choices=_VARIANT_CHOICES)
    p.add_argument("--model", default="q0")
    p.add_argument("--assign")
    p.add_argument("term")
    p.set_defaults(func=_cmd_peval)

    p = sub.add_parser("project", help="translate a term between notations")
    p.add_argument("--to", required=True, choices=["imn", "dmn", "rdmn"])
    p.add_argument("term")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("normalize", help="normal form of a closed arithmetical term")
    p.add_argument("--sig", required=True, choices=["iamd", "iamdz"])
    p.add_argument("term")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("decide", help="decide equality of two terms")
    p.add_argument(
        "--theory", required=True,
        choices=["iamd", "iamdz-gil", "damd", "damdz-gil", "iamdz", "damdz"],
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("truth", help="three-valued truth value of a formula")
    p.add_argument("--eq", default="weak", choices=("exist", "strong", "weak"))
    p.add_argument("--conn", default="mccarthy",
                   choices=("bochvar", "kleene", "mccarthy", "mccarthy-rev"))
    p.add_argument("--quant", default="bochvar", choices=("bochvar", "kleene"))
    p.add_argument("--variant", default="div0", choices=_VARIANT_CHOICES)
    p.add_argument("--domain", help="comma-separated carrier values (default 0,1,2)")
    p.add_argument("--logic", choices=["lpmd"], help="preset overriding eq/conn/quant")
    p.add_argument("--model", default="q0")
    p.add_argument("--assign")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_truth)

    p = sub.add_parser("classify", help="Def/Nz class of an arithmetical term")
    p.add_argument("--mode", default="strict", choices=["strict", "literal"])
    p.add_argument("--vars-defined", action="store_true", dest="vars_defined")
    p.add_argument("term")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("comply", help="division-convention compliance")
    p.add_argument("--convention", choices=("div0", "div0lib", "inv0"), default="div0")
    p.add_argument("--open", action="store_true",
                   help="sound syntactic check for open terms")
    p.add_argument("--mode", default="strict", choices=["strict", "literal"])
    p.add_argument("--vars-defined", action="store_true", dest="vars_defined")
    p.add_argument("term")
    p.set_defaults(func=_cmd_comply)

    p = sub.add_parser("check-model", help="exhaustively check axioms in a finite model")
    p.add_argument("--zp", type=int, help="zero-totalized prime field Z_p")
    p.add_argument("--zn", type=int, help="meadow expansion of Z_n (n squarefree)")
    p.add_argument("--axioms", default="imd")
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("witness", help="number-theoretic witnesses for a prime")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--residue", type=int, help="two-squares decomposition of a residue")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("spec", help="show or flatten presentations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--show", metavar="NAME")
    group.add_argument(
        "--flatten", metavar="EXPR",
        help="combine(A,B), hide(sym,A), export({syms},A), rename(a:=b,A)",
    )
    p.set_defaults(func=_cmd_spec)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError, SignatureError, UnsupportedTheory, NotRegular too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
