"""Every metric the benchmark reports, with what each is expected to move.

BENCHMARK.json lists the same names, units and directions, and holds the
workloads' reasons and the bounds; this file adds, for each per-layer
metric, the end-to-end metrics and workloads it should move and the
workloads where it should have about no effect, so that a performance
change can cite its prediction by name.

The spans are taken around calls from the benchmark into the library, so
they never nest inside one another: a layer's busy time includes whatever
other layers the library calls internally, and no per-layer self time can
be derived.  trace.op_self_s is the time operations spend outside every
library call.
"""

from __future__ import annotations

# Name and unit of each end-to-end metric.  BENCHMARK.json holds their
# directions and bounds.  Times are scaled to reference speed
# (harness.Speed); memory does not move with machine speed.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("terms", "parsing", "projection", "semantics", "partial", "normalize",
          "logic3", "convention", "presentations", "cli")

# Span groups: the benchmark names each call it makes "<layer>.<group>".
GROUPS = (
    "normalize.decide_gil", "normalize.decide_iamd", "normalize.normal_form",
    "semantics.eval_q0", "semantics.model_build", "semantics.eval_model",
    "semantics.check_axioms", "semantics.witness",
    "convention.closed", "convention.open",
    "logic3.parse", "logic3.eval", "cli.run",
)

# Mean duration per size bucket: (group, buckets).  The -gil curve is over
# pairs equal by construction, which run the whole zero-substitution
# recursion; shallow/deep is nesting depth 20-22 / 110-115;
# small/large is modulus at most 31 / at least 101.
CURVES = (
    ("normalize.decide_gil", tuple(f"vars{n}" for n in range(1, 7))),
    ("convention.closed", ("shallow", "deep")),
    ("semantics.model_build", ("small", "large")),
    ("semantics.eval_model", ("small", "large")),
)

# Work per second: (metric, group prefix whose span sizes count the work).
RATES = (
    ("parsing.nodes_per_s", "parsing.parse_term"),
    ("projection.nodes_per_s", "projection."),
    ("semantics.check_axioms.assignments_per_s", "semantics.check_axioms"),
)

# What each per-layer metric should move, keyed by the longest prefix of
# its name: (end-to-end metrics, workloads where it moves them, workloads
# where it should have about no effect).
EXPECTED = {
    "normalize": ("latency_p50_ms latency_p90_ms ops_per_s", "decide",
                  "finite-check large-inputs"),
    "normalize.decide_gil": ("latency_p90_ms ops_per_s", "decide",
                             "finite-check large-inputs"),
    "normalize.decide_iamd": ("latency_p50_ms", "decide", "finite-check"),
    "normalize.normal_form": ("latency_p50_ms", "decide", "finite-check"),
    "parsing": ("latency_p50_ms ops_per_s", "large-inputs", "decide"),
    "terms": ("latency_p50_ms ops_per_s", "large-inputs", "decide"),
    "projection": ("latency_p50_ms ops_per_s", "large-inputs", "decide"),
    "semantics.eval_q0": ("latency_p50_ms ops_per_s", "large-inputs", "decide"),
    "convention": ("latency_p90_ms", "large-inputs", "decide finite-check"),
    "semantics.model_build": ("latency_p90_ms peak_rss_mb setup_s on large-inputs; "
                              "latency_p50_ms on finite-check",
                              "large-inputs finite-check", "decide"),
    "semantics.eval_model": ("latency_p90_ms peak_rss_mb on large-inputs; "
                             "latency_p50_ms on finite-check",
                             "large-inputs finite-check", "decide"),
    "semantics.check_axioms": ("ops_per_s latency_p50_ms", "finite-check", "decide"),
    "presentations": ("ops_per_s latency_p50_ms", "finite-check", "decide"),
    "logic3": ("ops_per_s latency_p50_ms", "finite-check", "decide"),
    "partial": ("ops_per_s latency_p50_ms", "finite-check", "decide"),
    "semantics.witness": ("latency_p90_ms", "large-inputs",
                          "decide finite-check cli"),
    "cli": ("latency_p50_ms on cli; setup_s on the in-process workloads; "
            "cli.run: latency_p90_ms", "cli", ""),
    "semantics": ("see the semantics groups", "finite-check large-inputs", "decide"),
    "trace": ("none; bounds how far the traced numbers can be trusted", "all", ""),
}


def per_layer():
    """[(name, unit, better)] of every metric the traced run reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s", "lower"), (f"{layer}.calls", "count", "higher"),
                (f"{layer}.failed", "count", "lower")]
    for group in GROUPS:
        out += [(f"{group}.busy_s", "s", "lower"), (f"{group}.calls", "count", "higher")]
    for group, buckets in CURVES:
        out += [(f"{group}.mean_ms.{b}", "ms", "lower") for b in buckets]
    out += [(name, "1/s", "higher") for name, _ in RATES]
    out += [("cli.interpreter_floor_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"), ("trace.spans", "count", "higher"),
            ("trace.op_self_s", "s", "lower")]
    return out


def layer_values(spans, failed, extra):
    """Per-layer metric values from the spans of a traced run.

    failed maps a layer to its failure count; extra holds the values
    measured outside spans (cli floor and import, trace overhead).
    """
    ops = {}
    children = {}
    by_name = {}
    for i, s in enumerate(spans):
        if s[3] is None:
            ops[i] = s
        else:
            children[s[3]] = children.get(s[3], 0) + s[2] - s[1]
        by_name.setdefault(s[0], []).append(s)

    def busy(prefix):
        return sum(s[2] - s[1] for n, ss in by_name.items() if n.startswith(prefix)
                   for s in ss)

    def calls(prefix):
        return sum(len(ss) for n, ss in by_name.items() if n.startswith(prefix))

    v = {}
    for layer in LAYERS:
        v[f"{layer}.busy_s"] = busy(layer + ".") / 1e9
        v[f"{layer}.calls"] = calls(layer + ".")
        v[f"{layer}.failed"] = failed.get(layer, 0)
    for group in GROUPS:
        v[f"{group}.busy_s"] = busy(group) / 1e9
        v[f"{group}.calls"] = calls(group)
    for group, buckets in CURVES:
        for b in buckets:
            ds = [s[2] - s[1] for s in by_name.get(group, ()) if s[5] == b]
            v[f"{group}.mean_ms.{b}"] = sum(ds) / len(ds) / 1e6 if ds else 0.0
    for name, prefix in RATES:
        work = sum(s[6] for n, ss in by_name.items() if n.startswith(prefix) for s in ss)
        t = busy(prefix)
        v[name] = work / (t / 1e9) if t else 0.0
    v["trace.spans"] = len(spans)
    v["trace.op_self_s"] = sum(s[2] - s[1] - children.get(i, 0) for i, s in ops.items()) / 1e9
    v.update(extra)
    return v
