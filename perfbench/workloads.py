"""The measured process: set-up, passes over a workload's ops, probes.

A pass runs every op of the plan once, in the plan's seeded order. An op
is one CLI verb on one file or one survival trial. Everything is closed
loop in one thread: the next op starts when the previous one returns.
Nothing here checks outputs; that happens in another process afterwards,
so checking adds neither time nor memory to the measurement.
"""
from __future__ import annotations

import io
import json
import os
import resource
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import stlstego
from stlstego import cli, evaluation
from stlstego.channels import ChannelId
from stlstego.sanitize import RandomSource

import tracing
from verify import read_ascii


def setup(plan: dict):
    """Load what the ops need and run one warm-up op; returns the context."""
    if "carrier" in plan:
        carrier = stlstego.parse_bytes(Path(plan["carrier"]).read_bytes())
        cfg = evaluation.TrialConfig(channel=ChannelId.FACET, carrier=carrier,
                                     trials=1, seed=plan["warmup_seed"])
        evaluation.run_trial(cfg, 0)
        return carrier
    _cli_op(plan["warmup"], "warm")
    return None


def _cli_op(op: dict, p) -> dict:
    argv = [arg.format(p=p) for arg in op["argv"]]
    nbytes = os.path.getsize(op["input"].format(p=p))
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing op is a failed op, not a failed run
            rc, error = None, traceback.format_exc(limit=3)
        seconds = perf_counter() - start
    if rc != 0 and error is None:
        error = f"exit code {rc}: {stderr.getvalue().strip()}"
    return {"s": seconds, "bytes": nbytes, "facets": op["facets"], "error": error,
            "stdout": stdout.getvalue() if op["kind"] == "capacity" else None}


def _cli_pass(plan, ctx, p, tracer):
    ops = []
    for slot, op in enumerate(plan["ops"]):
        if tracer:
            tracer.op = slot
        ops.append(_cli_op(op, p))
    return {"program_s": sum(op["s"] for op in ops), "ops": ops}


def _survival_pass(plan, carrier, p, tracer):
    """Each experiment is `run_experiment`, then `statistical_gates`.

    A wrapper installed on `evaluation.run_trial` for the pass times each
    trial; `run_experiment` finds it through its module's globals.
    """
    ops, experiments, program_s = [], [], 0.0
    work = Path(plan["work"])
    run_trial = evaluation.run_trial

    def timed_trial(*args, **kwargs):
        if tracer:
            tracer.op = len(ops)
        start = perf_counter()
        try:
            return run_trial(*args, **kwargs)
        finally:
            ops.append({"s": perf_counter() - start, "bytes": plan["carrier_bytes"],
                        "facets": plan["facets"]})
            if tracer:
                tracer.op = -1

    evaluation.run_trial = timed_trial
    try:
        for e in plan["experiments"]:
            first = len(ops)
            cfg = evaluation.TrialConfig(channel=ChannelId(e["channel"]), carrier=carrier,
                                         payload_bits=e["bits"], trials=e["trials"],
                                         seed=e["seed"])
            record = {"channel": e["channel"], "trials": e["trials"], "error": None,
                      "gates": []}
            start = perf_counter()
            try:
                matrix, stats = evaluation.run_experiment(cfg)
                gates = evaluation.statistical_gates(cfg.channel, stats)
            except Exception:  # a crashing experiment fails its check
                record["error"] = traceback.format_exc(limit=3)
            program_s += perf_counter() - start
            # a failed experiment still counts one op per planned trial
            ops.extend({"s": 0.0, "bytes": plan["carrier_bytes"], "facets": plan["facets"]}
                       for _ in range(first + e["trials"] - len(ops)))
            if record["error"] is None:
                stem = work / "out" / f"p{p}-{e['channel']}"
                np.save(f"{stem}-cells.npy", matrix.cells)
                np.save(f"{stem}-payload.npy", np.array(matrix.payload.bits, dtype=bool))
                record.update(gates=[[g.name, bool(g.passed), g.detail] for g in gates],
                              cells=f"{stem}-cells.npy", payload=f"{stem}-payload.npy")
            experiments.append(record)
    finally:
        evaluation.run_trial = run_trial
    return {"program_s": program_s, "ops": ops, "experiments": experiments}


def run_pass(plan: dict, ctx, p: int, tracer=None) -> dict:
    if "carrier" in plan:
        return _survival_pass(plan, ctx, p, tracer)
    return _cli_pass(plan, ctx, p, tracer)


def probes(plan: dict) -> dict:
    """Per-layer figures measured outside the spans, in the traced run only."""
    from stlstego import floatfmt

    out = {"floatfmt.tokens": 0, "floatfmt.unique_share": 0.0, "floatfmt.parse_s": 0.0,
           "floatfmt.format_s": 0.0, "sanitize.rng_s": 0.0, "stl_io.parse_peak_x": 0.0}
    unique = set()
    for path in plan["text_inputs"]:
        tokens = read_ascii(Path(path).read_bytes()).numbers.ravel().tolist()
        start = perf_counter()
        values = [floatfmt.parse_float32(t) for t in tokens]
        middle = perf_counter()
        for v in values:
            floatfmt.format_standard(v)
        out["floatfmt.format_s"] += perf_counter() - middle
        out["floatfmt.parse_s"] += middle - start
        out["floatfmt.tokens"] += len(tokens)
        unique.update(values)
    if out["floatfmt.tokens"]:
        out["floatfmt.unique_share"] = len(unique) / out["floatfmt.tokens"]
    # the bounds sanitize_all draws: a Fisher-Yates shuffle, then one rotation per facet
    crypto = RandomSource.crypto()
    for op in plan.get("ops", []):
        if op["kind"] == "sanitize":
            n = op["facets"]
            start = perf_counter()
            for i in range(n - 1, 0, -1):
                crypto.randbelow(i + 1)
            for _ in range(n):
                crypto.randbelow(3)
            out["sanitize.rng_s"] += perf_counter() - start
    if plan["largest"]:
        data = Path(plan["largest"]).read_bytes()
        tracemalloc.start()
        try:
            stlstego.parse_bytes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["stl_io.parse_peak_x"] = peak / len(data)
    return out


def measure(plan: dict, seconds: float, trace: bool, setup_start: float) -> dict:
    """Set up, then run whole passes for at most `seconds` (at least one).

    With `trace`, run an untraced, a traced and another untraced pass
    instead, then the probes; the spans are written next to the plan.
    The untraced passes on both sides of the traced one give the tracing
    overhead without favouring whichever pass ran first.
    """
    ctx = setup(plan)
    result = {"setup_s": perf_counter() - setup_start}
    if trace:
        before = run_pass(plan, ctx, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(plan, ctx, 1, tracer)
        finally:
            tracer.uninstall()
        after = run_pass(plan, ctx, 2)
        spans_path = Path(plan["work"]) / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "attrs", "rng_draws"],
             "spans": tracer.spans}))
        result.update(passes=[before, traced, after], spans=str(spans_path), rng_draws=tracer.draws,
                      probes=probes(plan))
        return result
    passes = []
    begin = perf_counter()
    while True:
        passes.append(run_pass(plan, ctx, len(passes)))
        elapsed = perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    result["passes"] = passes
    result["measured_s"] = elapsed
    # Set-up is import plus one op on the smallest input, which peaks below
    # the measured passes, so the process high-water mark is theirs.
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    Linux's ru_maxrss is not used where VmHWM exists: exec carries the
    parent's high-water mark over into it, so it would report the
    benchmark's input generation instead of the program.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
