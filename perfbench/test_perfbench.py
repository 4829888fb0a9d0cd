"""Smoke test of the benchmark itself.

    python -m pytest perfbench -q

Runs every workload at its smallest size, untraced and traced, shows that
a sanitize passing its input through unchanged fails every check, and
that the benchmark refuses to run without the package source.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._use_source_tree()

import gen  # noqa: E402
import workloads  # noqa: E402
from stlstego import cli  # noqa: E402
from stlstego.model import StlFormat  # noqa: E402
from stlstego.sanitize import SanitizeReport  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_smallest_size_measures_clean(name):
    report = run.run_workload(BENCH, name, seed=3, seconds=0, trace=False, small=True)
    assert report["failed"] == 0, report["problems"]
    assert report["error_rate"] == 0
    assert [m["name"] for m in BENCH["end_to_end"]] == list(report["metrics"])
    assert all(m["value"] > 0 for m in report["metrics"].values())


# A layer each workload must show busy in its traced run.
_BUSY = {
    "sanitize-ascii": ["stl_io.detect_s", "stl_io.parse_ascii_s", "stl_io.write_ascii_s",
                       "floatfmt.parse_s", "sanitize.rng_s", "stl_io.parse_peak_x"],
    "sanitize-binary": ["stl_io.parse_binary_s", "stl_io.write_binary_s", "sanitize.normals_s",
                        "sanitize.glue_s"],
    "survival": ["evaluation.robust-pair.trial_ms", "channels.facet.embed_s",
                 "evaluation.gates_s", "bits.s"],
    "stego-text": ["rawdoc.build_s", "rawdoc.rewrite_s", "channels.number.embed_s",
                   "channels.whitespace.extract_s", "cli.capacity_s", "cli.overhead_s"],
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_yields_every_per_layer_metric(name):
    report = run.run_workload(BENCH, name, seed=3, seconds=0, trace=True, small=True)
    assert report["failed"] == 0, report["problems"]
    assert [m["name"] for m in BENCH["per_layer"]] == list(report["metrics"])
    for metric in _BUSY[name]:
        assert report["metrics"][metric]["value"] > 0, metric


def _pass_through(data, rng=None, output_format=None):
    return data, SanitizeReport(0, 0, 0, 0, StlFormat.ASCII)


@pytest.mark.parametrize("name", ["sanitize-ascii", "sanitize-binary"])
def test_pass_through_sanitize_fails_every_check(name, tmp_path, monkeypatch):
    plan = gen.build(name, 3, tmp_path, small=True)
    monkeypatch.setattr(cli, "sanitize_all", _pass_through)
    result = workloads.measure(plan, 0, False, perf_counter())
    failed, problems = run.check(plan, result)
    attempted = sum(len(p["ops"]) for p in result["passes"])
    assert failed / attempted == 1.0, problems


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(28))
    assert run.tail(values) == (17, pytest.approx(100 * 18 / 28))
    assert run.tail([5, 1, 3]) == (5, 100.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
