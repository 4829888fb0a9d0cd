"""Benchmark of stlstego: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload sanitize-ascii --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run it from the repository root; it imports the package from `src/` of
the same tree. Per workload it writes seeded inputs, times set-up in
separate processes, measures in a fresh process, checks every output with
its own reader, and prints the metrics named in BENCHMARK.json: the
end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is timed in this many fresh processes (the measuring one included)
# and reported as their median.
SETUP_REPEATS = 5
# A child may take this long beyond --seconds: set-up, a last pass that
# overruns, or the three passes of a traced run on a slow machine.
CHILD_MARGIN_S = 150


def _use_source_tree() -> None:
    """Import stlstego from this tree's src/, never from anywhere else."""
    if not (SRC / "stlstego" / "__init__.py").is_file():
        sys.exit(f"run.py: no stlstego package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))


def _child(args) -> None:
    start = perf_counter()  # before stlstego and numpy are imported
    _use_source_tree()
    import workloads

    plan = json.loads(Path(args.plan).read_text())
    if args.child == "setup":
        workloads.setup(plan)
        result = {"setup_s": perf_counter() - start}
    else:
        result = workloads.measure(plan, args.seconds, bool(args.trace), start)
    Path(args.out).write_text(json.dumps(result))


def _spawn(mode: str, plan_path: Path, seconds: float, trace: bool) -> dict:
    out = plan_path.with_name(f"{mode}-result.json")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode, "--plan",
           str(plan_path), "--out", str(out), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_MARGIN_S + seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


# --- checks ------------------------------------------------------------------

def check(plan: dict, result: dict) -> tuple[int, list[str]]:
    """Check every op of every pass; returns (failed ops, problems)."""
    import numpy as np

    import tracing
    import verify

    failed, problems = 0, []

    def fail(where, found):
        nonlocal failed
        failed += 1
        problems.extend(f"{where}: {p}" for p in found[:2])

    traced_pass = 1 if "spans" in result else None
    draws = {}
    if traced_pass is not None:
        spans = json.loads(Path(result["spans"]).read_text())["spans"]
        draws = tracing.sanitize_draws(spans)
    for p, run in enumerate(result["passes"]):
        if "experiments" in run:
            for e in run["experiments"]:
                found = verify.check_experiment(e)
                if found:
                    failed += e["trials"]
                    problems.extend(f"pass {p} {e['channel']}: {x}" for x in found[:2])
            continue
        for slot, (op, rec) in enumerate(zip(plan["ops"], run["ops"])):
            where = f"pass {p} op {slot} ({op['kind']} {Path(op['input']).name})"
            if rec["error"]:
                fail(where, [rec["error"]])
                continue
            kind = op["kind"]
            if kind == "capacity":
                found = verify.check_capacity(rec["stdout"], op["capacity"])
            else:
                try:
                    data = Path(op["output"].format(p=p)).read_bytes()
                except OSError as exc:
                    fail(where, [f"no output: {exc}"])
                    continue
                if kind == "sanitize":
                    found = verify.check_sanitized(data, op["format"], np.load(op["expect"]))
                    if p == traced_pass and draws.get(slot) != 2 * op["facets"] - 1:
                        found.append(f"{draws.get(slot)} RNG draws for {op['facets']} facets")
                elif kind == "embed":
                    found = verify.check_embedded(data, np.load(op["values"]), op["carries"])
                else:
                    found = verify.check_extracted(data, *op["payload"])
            if found:
                fail(where, found)
    return failed, problems


# --- metrics -----------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer no percentile
    qualifies, and the maximum is reported as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median_seconds(run: dict, keys: list[tuple]) -> float:
    """Op time of a pass, each op counted at the median time of the ops of
    its kind on inputs of its size and variant, so that one op slowed by a
    burst of load from elsewhere on the machine does not count."""
    groups: dict = {}
    for op, key in zip(run["ops"], keys):
        groups.setdefault(key, []).append(op["s"])
    return sum(len(times) * statistics.median(times) for times in groups.values())


def _verb(argv: list[str]) -> str:
    """The CLI verb, with its channel when it has one."""
    if "--channel" in argv:
        return f"{argv[0]} {argv[argv.index('--channel') + 1]}"
    return argv[0]


def end_to_end(result: dict, setups: list[float], plan: dict) -> tuple[dict, dict]:
    passes = result["passes"]
    slots = len(passes[0]["ops"])
    # each op's median over passes, so the percentiles always cover one pass
    per_op = [statistics.median(run["ops"][i]["s"] for run in passes) for i in range(slots)]
    if "experiments" in passes[0]:
        keys = [(e["channel"],) for e in plan["experiments"] for _ in range(e["trials"])]
        extra = [run["program_s"] - sum(op["s"] for op in run["ops"]) for run in passes]
    else:
        keys = [(_verb(op["argv"]), op["facets"], op["variant"]) for op in plan["ops"]]
        extra = [0.0] * len(passes)
    program_s = sum(x + _median_seconds(run, keys) for run, x in zip(passes, extra))
    ops = [op for run in passes for op in run["ops"]]
    value, percentile = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "mb_per_s": sum(op["bytes"] for op in ops) / 1e6 / program_s,
        "facets_per_s": sum(op["facets"] for op in ops) / program_s,
        "ops_per_s": len(ops) / program_s,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {"op_tail": {"percentile": round(percentile, 1), "samples": slots},
              "passes": len(passes), "measured_s": result["measured_s"],
              "op_seconds_total": sum(run["program_s"] for run in passes),
              "setup_samples_s": setups}
    return metrics, detail


def per_layer(result: dict, name: str, seed: int) -> tuple[dict, dict]:
    import tracing

    spans = json.loads(Path(result["spans"]).read_text())["spans"]
    before, traced, after = (run["program_s"] for run in result["passes"])
    metrics = tracing.layer_metrics(spans)
    metrics.update(result["probes"])
    metrics["sanitize.rng_draws"] = result["rng_draws"]
    metrics["trace.overhead_pct"] = (traced / ((before + after) / 2) - 1.0) * 100.0
    kept = WORK / "spans" / f"{name}-seed{seed}.json"
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(result["spans"], kept)
    return metrics, {"spans": str(kept.relative_to(ROOT)), "span_count": len(spans),
                     "pass_seconds": [before, traced, after]}


# --- one workload ------------------------------------------------------------

def run_workload(bench: dict, name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    import gen

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    try:
        plan = gen.build(name, seed, work, small)
        plan_path = work / "plan.json"
        setups = [] if trace else [_spawn("setup", plan_path, seconds, trace)["setup_s"]
                                   for _ in range(SETUP_REPEATS - 1)]
        result = _spawn("measure", plan_path, seconds, trace)
        setups.append(result["setup_s"])
        failed, problems = check(plan, result)
        if trace:
            metrics, detail = per_layer(result, name, seed)
        else:
            metrics, detail = end_to_end(result, setups, plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    attempted = sum(len(run["ops"]) for run in result["passes"])
    return {
        "workload": name,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems[:10],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        **detail,
    }


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "git_commit": commit}


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']} (seed {report['seed']}): {report['why']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    if "op_tail" in report:
        t = report["op_tail"]
        print(f"  op_tail_ms is p{t['percentile']} of {t['samples']} ops per pass, "
              f"{report['passes']} pass(es)")
    print(f"  error_rate {report['error_rate']:.4g} ({report['failed']}/{report['attempted']})")
    for problem in report["problems"]:
        print(f"    {problem}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], required=False)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child", choices=["setup", "measure"], help=argparse.SUPPRESS)
    parser.add_argument("--plan", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: a running child is killed and waited for, and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.child:
        _child(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _use_source_tree()
    env = environment()
    reports = []
    for name in names if args.workload == "all" else [args.workload]:
        report = run_workload(bench, name, args.seed, args.seconds, bool(args.trace))
        _print_report(report)
        print("record " + json.dumps(dict(report, environment=env)))
        reports.append(report)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
