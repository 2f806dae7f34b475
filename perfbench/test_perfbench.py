"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LIMIT = 6

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--limit", str(LIMIT)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= LIMIT
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the report names every metric, error_rate included, with unit and sample count
    lines = {line.split()[0]: line.split()[1:] for line in report[1:]}
    for name, unit in [*want.items(), ("error_rate", "fraction")]:
        assert lines[name][1] == unit and lines[name][2].startswith("samples=")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_repeats_its_counts(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    a = json.loads(first.stdout.strip().splitlines()[-1])
    b = json.loads(second.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in a["metrics"].items()} == want
    assert a["correct"] and b["correct"]
    counts = [k for k, unit in want.items() if unit in ("count", "bits", "ratio") and not k.startswith("trace.")]
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}


def _corrupt(workload, item):
    """The same item with an expected answer the program must not give."""
    if workload == "cli_session":
        return dict(item, expect=item["expect"] + 10)
    *head, mu2 = item
    return (*head, "1" if mu2 != "1" else "0")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_counts_as_failure(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    w = workloads.WORKLOADS[workload]()
    items = w.setup(w.generate(5, run.WORKDIR, 3), ROOT, run.WORKDIR)
    items[1] = _corrupt(workload, items[1])
    out = run.run_passes(w, items, 0, 1)
    assert (out.attempted, out.failed) == (3, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("realize_all", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
