"""Operations, the closed loop and the span tracer shared by all workloads."""

from __future__ import annotations

import random
import time
from statistics import median

import oracle as o

perf_ns = time.perf_counter_ns

# The machine the benchmark was tuned on (2 shared vCPUs, Xeon at 2.0 GHz,
# Python 3.11) changes speed by up to a factor of two, from one second to
# the next, while nothing else runs in it.  Each run therefore times a
# fixed reference computation between operations and scales its times to
# a machine on which the reference takes REFERENCE_MS.
REFERENCE_MS = 1.5
SAMPLE_EVERY_S = 0.2


def _reference_term():
    rng = random.Random(42)
    nodes = [rng.choice((("v", "x"), ("v", "y"), o.ONE, ("n", 2))) for _ in range(60)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        t = (rng.choice("+*"), nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [("i", t) if rng.random() < 0.2 else t]
    return nodes[0]


_REFERENCE = _reference_term()


def reference_ms():
    """Time of the reference computation: exact evaluation and printing."""
    t0 = perf_ns()
    for _ in range(3):
        o.evaluate(_REFERENCE, {"x": 3, "y": 5})
        o.render(_REFERENCE)
    return (perf_ns() - t0) / 1e6


class Speed:
    """Timings of a reference computation taken during a run.

    reference() returns milliseconds; it runs at most once every every_s
    seconds, between operations.  nominal_ms is its time at reference speed.
    The machine's speed moves within a second or two, so each operation is
    scaled by the median of the window samples taken around it; with
    window None, by the median of all samples of the run.
    """

    def __init__(self, reference=reference_ms, nominal_ms=REFERENCE_MS, every_s=SAMPLE_EVERY_S,
                 window=3):
        self.reference = reference
        self.nominal_ms = nominal_ms
        self.every_s = every_s
        self.window = window
        self.samples = []
        self.marks = []   # per operation, the index of the last sample before it
        self.due = 0.0

    def sample_if_due(self):
        """Call once before each operation."""
        now = time.monotonic()
        if now >= self.due:
            self.samples.append(self.reference())
            self.due = now + self.every_s
        self.marks.append(len(self.samples) - 1)

    def scale(self, lat_ns):
        """Operation times in ms at reference speed, in the order they ran."""
        s = self.samples
        if self.window is None:
            local = [median(s)] * len(s)
        else:
            h = self.window // 2
            local = [median(s[max(0, k - h):k + h + 1]) for k in range(len(s))]
        return [ns / 1e6 * self.nominal_ms / local[k] for ns, k in zip(lat_ns, self.marks)]


class Op:
    """One operation of a workload.

    run(call) performs the library calls through call(span_name, fn, *args,
    bucket=..., size=...) and returns what the oracle checks.  check(result)
    returns None when the answer is right, else a message.  When raises is an
    exception type the operation must raise it and check receives the
    exception.  layer names the layer that produced the checked answer.
    """

    __slots__ = ("kind", "run", "check", "raises", "layer", "argv")

    def __init__(self, kind, run, check, layer, raises=None, argv=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.layer = layer
        self.raises = raises
        self.argv = argv


def grouped(rng, groups):
    """Yield operations group by group, shuffled within each group.

    Workloads build fixed-composition blocks out of small groups, so that a
    run cut off mid-block still has about the block's mix of costs.
    """
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        for make in group:
            yield make()


def untraced(name, fn, *args, bucket=None, size=0):
    return fn(*args)


class Tracer:
    """Spans around each call from the benchmark into a library function.

    A span is (name, start_ns, end_ns, parent, op_id, bucket, size, error).
    Operation spans have parent None and name "op.<kind>"; call spans have
    the index of their operation span as parent.
    """

    def __init__(self):
        self.spans = []
        self.parent = None
        self.op_id = -1
        self.failed = {}
        self.last_error_layer = None
        self.kind = None

    def call(self, name, fn, *args, bucket=None, size=0):
        t0 = perf_ns()
        err = None
        try:
            return fn(*args)
        except Exception as exc:
            err = type(exc).__name__
            self.last_error_layer = name.split(".")[0]
            raise
        finally:
            self.spans.append((name, t0, perf_ns(), self.parent, self.op_id, bucket, size, err))

    def begin(self, op_id, kind):
        self.op_id = op_id
        self.parent = len(self.spans)
        self.spans.append(None)  # filled by end()
        self.last_error_layer = None
        self.kind = kind
        return perf_ns()

    def end(self, t0, failure):
        self.spans[self.parent] = (f"op.{self.kind}", t0, perf_ns(), None, self.op_id,
                                   None, 0, failure)
        self.parent = None

    def fail(self, layer):
        self.failed[layer] = self.failed.get(layer, 0) + 1


def judge(op, result, exc):
    """None when the operation's outcome is right, else a message."""
    try:
        if op.raises is not None:
            if not isinstance(exc, op.raises):
                return f"expected {op.raises.__name__}, got {exc!r}" if exc else (
                    f"expected {op.raises.__name__}, got {result!r}")
            return op.check(exc)
        if exc is not None:
            return f"raised {type(exc).__name__}: {str(exc)[:200]}"
        return op.check(result)
    except Exception as oracle_exc:  # a defect in the check itself is a failure too
        return f"check raised {oracle_exc!r}"


def execute(op, op_id, tracer=None):
    """Run one operation; return (latency_ns, failure message or None).

    The latency covers the library calls only; the oracle check runs after
    the clock stops.
    """
    call = tracer.call if tracer else untraced
    t0 = tracer.begin(op_id, op.kind) if tracer else perf_ns()
    result = exc = None
    try:
        result = op.run(call)
    except Exception as e:  # every failure is counted, none stops the loop
        exc = e
    t1 = perf_ns()
    failure = judge(op, result, exc)
    if tracer:
        tracer.end(t0, failure)
        if failure:
            layer = tracer.last_error_layer if exc is not None and not op.raises else None
            tracer.fail(layer or op.layer)
    return t1 - t0, failure


def closed_loop(stream, seconds, speed, keep=False, min_ops=0, between=None):
    """Run operations one after another until seconds of wall time pass.

    A run that has not reached min_ops operations by then goes on until it
    does, for at most half as long again.  between(elapsed), when
    given, is called before each operation; the time it takes does not
    count.  Returns the operations run (only when keep is true, for a
    replay), their latencies in ns and their failures.
    """
    ops, lat, failures = [], [], []
    start = time.monotonic()
    paused = 0.0
    while True:
        elapsed = time.monotonic() - start - paused
        if elapsed >= seconds and (len(lat) >= min_ops or elapsed >= 1.5 * seconds):
            break
        if between is not None:
            between(elapsed)
            paused = time.monotonic() - start - elapsed
        speed.sample_if_due()
        op = next(stream)
        ns, failure = execute(op, len(lat))
        if keep:
            ops.append(op)
        lat.append(ns)
        failures.append(failure)
    return ops, lat, failures


def replay(ops, tracer, speed):
    """Run a fixed list of operations traced; returns latencies and failures."""
    lat, failures = [], []
    for i, op in enumerate(ops):
        speed.sample_if_due()
        ns, failure = execute(op, i, tracer)
        lat.append(ns)
        failures.append(failure)
    return lat, failures
