"""Workload `cli`: one `python -m meadows.cli` process per operation.

Every operation pays interpreter start, the import of every module and
argparse.  The mix covers all 11 subcommands: mostly cheap commands bound
by start-up, error inputs that must exit 2, and a few heavy ones:
check-model --zp 31, eval --model zp:1009 and 5-variable
decide --theory iamdz-gil.  Each command's exit code and standard output
are checked against the oracle.  The known-defect probes are the two
inputs that crash with a traceback.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import decide
import finite_check as fc
import large_inputs as li
import oracle as o
from harness import Op, execute, grouped, perf_ns

ROOT = Path(__file__).resolve().parent.parent
ENV = {k: v for k, v in os.environ.items() if k != "MEADOW_DEFAULT_DOMAIN"}
ENV["PYTHONPATH"] = "src"
TRACE_SHARE = 0.35   # of --seconds for each of the untraced and traced passes
FLOOR_SAMPLES = 5


def spawn_ms(argv):
    """Wall time of one process running argv to completion."""
    t0 = perf_ns()
    subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, timeout=120, check=True)
    return (perf_ns() - t0) / 1e6


def floor_ms():
    """Wall time of one bare interpreter start, `python -c pass`."""
    return spawn_ms([sys.executable, "-c", "pass"])


# Every command starts an interpreter, so a run's times are scaled by the
# interpreter start-up time rather than by the in-process reference, which
# does not follow process creation.  80 ms is its time at reference speed.
# Each sample is one process start, too noisy to scale commands one by
# one, so the median over the whole run scales them all.
SPEED = {"reference": floor_ms, "nominal_ms": 80.0, "every_s": 2.0, "window": None}
COUNTS = {name: len(axioms) for name, axioms in fc.AXIOMS.items()}


def setup():
    import meadows.cli
    return meadows.cli


def run_cli(argv):
    """Run one command in a fresh interpreter; (exit code, stdout, stderr)."""
    p = subprocess.run([sys.executable, "-m", "meadows.cli", *argv], cwd=ROOT, env=ENV,
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr


def expect(code, stdout):
    def check(got):
        if got[0] != code or got[1] != stdout:
            return f"exit {got[0]} {got[1][:200]!r} {got[2][-300:]!r}; want exit {code} {stdout!r}"
        return None
    return check


def expect_error(got):
    if got[0] != 2 or got[1] or "Traceback" in got[2]:
        return f"exit {got[0]} {got[1][:200]!r} {got[2][-300:]!r}; want exit 2, one-line error"
    return None


def op(kind, argv, check):
    return Op(kind, lambda call: call("cli.subprocess", run_cli, argv), check, "cli",
              argv=argv)


def eval_q0(rng, ctx):
    t = fc.small_term(rng, ["x", "y"], "div0", 4)
    a = dict(zip("xy", fc.sample_values(rng, None, 2)))
    assign = ",".join(f"{k}={v}" for k, v in a.items())
    return op("eval", ["eval", "--assign", assign, "--", o.render(t, True)],
              expect(0, f"{o.evaluate(t, a)}\n"))


def peval(rng, ctx):
    variant = rng.choice(tuple(fc.VARIANTS))
    p = rng.choice((None, 5, 7))
    ring = o.Ring(p) if p else None
    t = fc.small_term(rng, ["x"], variant, 4)
    a = {"x": fc.sample_values(rng, ring, 1)[0]}
    v = o.evaluate(t, a, ring, variant)
    argv = ["peval", "--variant", variant, "--model", f"zp:{p}" if p else "q0",
            "--assign", f"x={a['x']}", "--", o.render(t, True)]
    return op("peval", argv, expect(1, "undefined\n") if v is o.UNDEF else expect(0, f"{v}\n"))


def project(rng, ctx):
    to = rng.choice(("imn", "dmn", "rdmn"))
    t = fc.small_term(rng, ["x", "y"], "div0" if to == "imn" else "inv0", 4)
    return op("project", ["project", "--to", to, "--", o.render(t, True)],
              expect(0, o.render(o.project(t, to)) + "\n"))


def normalize(rng, ctx):
    theory = rng.choice(("iamd", "iamdz-gil"))
    _, text, want = decide.closed_case(rng, theory)
    sig = {"iamd": "iamd", "iamdz-gil": "iamdz"}[theory]
    return op("normalize", ["normalize", "--sig", sig, "--", text], expect(0, want + "\n"))


def decide_cmd(rng, theory, nvars, equal):
    t, u, verdict = decide.make_pair(rng, theory, nvars, equal)
    divisive = theory.startswith("damd")
    gil = theory.endswith("gil")
    sides = [o.project(x, "imn") if divisive else x for x in (t, u)]
    if gil:
        sides = [o.zero_eliminate(x) for x in sides]
    witness = {label: "0" if x == o.ZERO else o.polyfrac_text(x)
               for label, x in zip(("left", "right"), sides)}
    payload = {"command": "decide", "verdict": "true" if verdict else "false",
               "witness": witness}
    check = expect(0 if verdict else 1, json.dumps(payload) + "\n")

    return op(f"decide.{theory}", ["decide", "--theory", theory, "--",
                                   o.render(t, True), o.render(u, True)], check)


def truth(rng, ctx):
    variant = rng.choice(tuple(fc.VARIANTS))
    domain = tuple(dict.fromkeys(fc.sample_values(rng, None, 3)))
    f = fc.random_formula(rng, variant, 3, [])
    a = {"x": fc.sample_values(rng, None, 1)[0]}
    argv = ["truth", "--variant", variant, "--domain=" + ",".join(map(str, domain)),
            "--assign", f"x={a['x']}"]
    if rng.random() < 0.3:
        eq, conn, quant = "weak", "mccarthy", "bochvar"
        argv += ["--logic", "lpmd"]
    else:
        eq = rng.choice(("weak", "strong", "exist"))
        conn = rng.choice(("bochvar", "mccarthy", "mccarthy-rev", "kleene"))
        quant = rng.choice(("bochvar", "kleene"))
        argv += ["--eq", eq, "--conn", conn, "--quant", quant]
    v = o.truth(f, eq, conn, quant, domain, variant, None, a)
    return op("truth", argv + ["--", o.formula_text(f)],
              expect(0 if v == o.T else 1, v + "\n"))


def _iamdz_term(rng):
    return decide.random_term(rng, ["x", "y"][:rng.randint(0, 2)], zero=True,
                              divisive=False, extra=3)


def classify(rng, ctx):
    t = _iamdz_term(rng)
    strict, vars_defined = rng.random() < 0.6, rng.random() < 0.5
    name = o.class_name(t, strict, vars_defined)
    argv = ["classify", "--mode", "strict" if strict else "literal"]
    argv += ["--vars-defined"] * vars_defined + ["--", o.render(t, True)]
    return op("classify", argv, expect(1 if name == "Neither" else 0, name + "\n"))


def comply(rng, ctx):
    if rng.random() < 0.4:
        t = _iamdz_term(rng)
        ok = o.open_certified(t)
        return op("comply.open", ["comply", "--open", "--", o.render(t, True)],
                  expect(0 if ok else 1, ("CertifiedCompliant" if ok else "Unknown") + "\n"))
    convention = rng.choice(("inv0", "div0", "div0lib"))
    t = fc.small_term(rng, [], convention, 4)
    bad = o.first_violation(t, convention)
    text = "Compliant\n" if bad is None else f"Violation at {o.render(bad[0])}: {bad[1]}\n"
    return op("comply", ["comply", "--convention", convention, "--", o.render(t, True)],
              expect(0 if bad is None else 1, text))


def check_model(p_or_n, axioms, kind="zp"):
    text = f"ok: all {COUNTS[axioms]} {axioms} axioms hold in {kind}:{p_or_n}\n"
    return op(f"check-model.{kind}{p_or_n}",
              ["check-model", f"--{kind}", str(p_or_n), "--axioms", axioms], expect(0, text))


def check_small(rng, ctx):
    if rng.random() < 0.5:
        return check_model(rng.choice((2, 3, 5, 7)), rng.choice(tuple(COUNTS)))
    return check_model(rng.choice((6, 10)), rng.choice(tuple(COUNTS)), "zn")


_WITNESS = re.compile(r"(\d+)\^2 \+ (\d+)\^2 \+ 1 = (\d+) \* (\d+)\n\Z")
_RESIDUE = re.compile(r"(\d+) = (\d+)\^2 \+ (\d+)\^2 \(mod (\d+)\)\n\Z")


def witness(rng, ctx):
    p = rng.choice(li.PRIMES[:40])
    if rng.random() < 0.5:
        def check(got):
            m = _WITNESS.match(got[1])
            u, v, w, q = map(int, m.groups()) if m else (0, 0, 0, 0)
            ok = got[0] == 0 and q == p and u < p and v < p and u * u + v * v + 1 == w * p
            return None if ok else f"witness --prime {p}: {got}"
        return op("witness", ["witness", "--prime", str(p)], check)
    r = rng.randrange(p)

    def check_residue(got):
        m = _RESIDUE.match(got[1])
        r2, v, w, q = map(int, m.groups()) if m else (-1, 0, 0, 0)
        ok = got[0] == 0 and (r2, q) == (r, p) and (v * v + w * w) % p == r
        return None if ok else f"witness --prime {p} --residue {r}: {got}"

    return op("witness.residue", ["witness", "--prime", str(p), "--residue", str(r)],
              check_residue)


VISIBLE = {"cr": "*/2, +/2, -/1, 0/0, 1/0", "imd": "*/2, +/2, -/1, 0/0, 1/0, ^-1/1",
           "dmd": "*/2, +/2, -/1, //2, 0/0, 1/0"}
DIV_AS_INV = ("div_as_inv", ("/", fc.X, fc.Y), ("*", fc.X, ("i", fc.Y)))


def _presentation(name, visible, hidden, axioms):
    lines = [f"presentation {name}", f"visible: {visible}"]
    lines += [f"hidden: {hidden}"] * bool(hidden)
    lines.append(f"axioms ({len(axioms)}):")
    lines += [f"  {n}: {o.render(l)} = {o.render(r)}" for n, l, r in axioms]
    return "\n".join(lines) + "\n"


def spec(rng, ctx):
    if rng.random() < 0.3:
        text = _presentation("hide(^-1/1,combine(imd,divdef))", VISIBLE["dmd"], "^-1/1",
                             fc.AXIOMS["imd"] + [DIV_AS_INV])
        return op("spec.flatten", ["spec", "--flatten", "hide(inv, combine(imd, divdef))"],
                  expect(0, text))
    name = rng.choice(tuple(VISIBLE))
    return op("spec.show", ["spec", "--show", name],
              expect(0, _presentation(name, VISIBLE[name], "", fc.AXIOMS[name])))


ERRORS = (
    ["eval", "1 +"],
    ["eval", "--model", "zp:4", "1"],
    ["decide", "--theory", "iamd", "x + 0", "x"],
    ["decide", "--theory", "iamdz", "x", "x"],
    ["check-model", "--zn", "4"],
    ["spec", "--show", "nosuch"],
    ["normalize", "--sig", "iamd", "x + 1"],
    ["project", "--to", "imn", "x^-1"],
    ["eval"],
)


def error(rng, ctx):
    argv = list(rng.choice(ERRORS))
    return op("error", argv, expect_error)


CHEAP = (eval_q0, peval, project, normalize, truth, classify, comply, check_small,
         witness, spec, error,
         lambda rng, ctx: decide_cmd(rng, rng.choice(("iamd", "damd")), rng.randint(1, 3),
                                     rng.random() < 0.5))


def eval_1009(rng):
    t = li.big_term(rng, 120)
    a = {v: rng.randrange(1009) for v in "xyz"}
    want = o.evaluate(t, a, o.Ring(1009))
    assign = ",".join(f"{k}={v}" for k, v in a.items())
    return op("eval.zp1009", ["eval", "--model", "zp:1009", "--assign", assign, "--",
                              o.render(t, True)], expect(0, f"{want}\n"))


def ops(rng, ctx):
    """Blocks of twenty commands in two groups of ten.

    Sixteen are cheap commands drawn from a shuffled deck of every
    subcommand and the error inputs.  The other four are the heavy ones:
    check-model --zp 31 --axioms imd twice, then eval --model zp:1009 and
    5-variable decide --theory iamdz-gil once each.  check-model is the
    85th to 95th percentile and so sets the 90th.  It always checks imd:
    dmd takes about a sixth less, and a mix of the two would put the 90th
    percentile on the edge between them.  eval --model zp:1009 is the
    slowest and sets peak memory.
    """
    deck = []

    def cheap():
        if not deck:
            deck.extend(CHEAP)
            rng.shuffle(deck)
        return deck.pop()(rng, None)

    def zp31():
        return check_model(31, "imd")

    while True:
        yield from grouped(rng, [
            [zp31, lambda: eval_1009(rng)] + [cheap] * 8,
            [zp31, lambda: decide_cmd(rng, "iamdz-gil", 5, True)] + [cheap] * 8,
        ])


def defect_probes(ctx):
    """The two inputs that end in a traceback with exit 1 in the seed library."""
    return [(op("probe.assign_outside_carrier",
                ["eval", "--model", "zp:5", "--assign", "x=7", "x+1"], expect_error), "IndexError"),
            (op("probe.assign_division_by_zero", ["eval", "--assign", "x=1/0", "x"],
                expect_error), "ZeroDivisionError")]


def in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def trace_extra(ops_run, tracer, first_id, cli):
    """Run the same commands in-process through cli.run, and time the floor."""
    for i, prior in enumerate(ops_run + [p for p, _ in defect_probes(None)]):
        inproc = Op(prior.kind, lambda call, argv=prior.argv: call(
            "cli.run", in_process, cli, argv), prior.check, "cli", prior.raises, prior.argv)
        execute(inproc, first_id + i, tracer)
    floor = median(floor_ms() for _ in range(FLOOR_SAMPLES))
    imported = median(spawn_ms([sys.executable, "-c", "import meadows.cli"])
                      for _ in range(FLOOR_SAMPLES))
    return {"cli.interpreter_floor_ms": floor, "cli.import_ms": imported - floor}
