"""The benchmark's own tests: its spec, its answer checks, and the exact
counts of its traced runs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The last two tests run the ``tables`` and ``certify`` workloads, so the
file takes a few minutes.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import paper  # noqa: E402
import run  # noqa: E402


def test_spec_lists_the_metrics_the_driver_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == (
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_expected_answers_satisfy_the_paper_invariants():
    expected = paper.load_expected()
    assert paper.expected_problems(expected) == []
    broken = copy.deepcopy(expected)
    broken["tables"]["sticky"]["td"] = broken["tables"]["sticky"]["fd"]
    broken["tables"]["c880"]["td"] -= 1
    problems = paper.expected_problems(broken)
    assert any("sticky" in p for p in problems)
    assert any("c880" in p for p in problems)


def test_wrong_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = paper.load_expected()
    expected["tables"]["c432"]["floating_checks"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(paper, "EXPECTED_PATH", path)
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setattr(run, "setup_samples", lambda workload, seed: [1.0])
    code = run.main(["--workload", "tables", "--seed", "3",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 42


def _traced_counts(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    trace = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    return json.loads(trace.read_text())["exact_counts"]


@pytest.mark.parametrize("workload", ["tables", "certify"])
def test_traced_runs_repeat_exact_counts(workload):
    first = _traced_counts(workload, 5)
    second = _traced_counts(workload, 5)
    assert first == second
    assert first["boolfn.bdd.ite_calls"] > 0
    assert first["core.checks"] > 0
    if workload == "certify":
        assert first["sim.event.transitions"] > 0
        assert first["core.statistical.mc_samples"] == (
            2 * paper.CERTIFY_SAMPLES
        )


def test_tracer_rolls_up_spans_and_timed_calls():
    import instrument

    tracer = instrument.Tracer()
    leaf = tracer.timed("leaf", lambda: sum(range(10_000)))
    inner = tracer.span("inner", lambda: leaf())

    def outer():
        inner()
        inner()
        leaf()

    tracer.span("outer", outer)()
    assert tracer.counts["leaf.calls"] == 3
    outer_span, first, second = tracer.spans
    assert first[1] == second[1] == outer_span[0]
    assert tracer.span_seconds("inner") == tracer.child_seconds(
        "outer", "inner"
    )
    self_s = tracer.self_seconds()
    assert self_s[0] == pytest.approx(
        (outer_span[4] - outer_span[3])
        - tracer.child_seconds("outer", "inner")
        - tracer.timed_in("outer", "leaf")
    )
    assert all(seconds >= 0 for seconds in self_s)
    assert tracer.busy["leaf"] == pytest.approx(
        tracer.timed_in("outer", "leaf") + tracer.timed_in("inner", "leaf")
    )
