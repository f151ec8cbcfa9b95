"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tiny runs take about a minute in all.
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
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        measured = result["metrics"][metric["name"]]
        assert set(measured) == {"value", "unit"}
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
    for name in (m["name"] for m in SPEC["end_to_end"]) if not trace else ():
        assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    done = run_bench(tmp_path, "--workload", "cli-cold", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_wrong_conjugate_point_counts_as_a_failed_op():
    assert oracles.oscillator_comparison(3.0, 4.0)
    assert oracles.oscillator_comparison(3.141592653589793, 4.0) == []
    bench = worker.Bench("fine-grid", 1, None)
    bench.op("compare", lambda tracer: (3.0, 4.0),
             lambda result: oracles.oscillator_comparison(*result))
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "conjugate point" in bench.failures[0]


def test_wrong_cli_outputs_fail_their_oracles():
    silent = json.dumps({"verdict": "Inconclusive"})
    assert oracles.cli_certify_oscillator(2, silent) == []
    assert oracles.cli_certify_oscillator(0, json.dumps({"verdict": "MinimumUnconditional"}))
    assert oracles.cli_certify_corpus(2, silent)
    assert oracles.cli_generate_table(0, json.dumps({"provenance": {"a_path": "symbolic"}}))
    assert oracles.cli_verify(3, json.dumps({"empirical": {"passed": False}}))
    assert oracles.corpus_comparison(0.5, 1.2, 0.6)
    repeat = oracles.RepeatCheck()
    assert repeat(("certify", "p.json"), "a\n") == []
    assert repeat(("certify", "p.json"), "b\n")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    def written(directory, seed):
        files = inputs.write_inputs(directory, workload, seed,
                                    inputs.draw_corpus(workload, seed))
        return inputs.digest([*files["corpus"], files["oscillator"], files["spec"]])

    first = written(tmp_path / "a", 5)
    assert written(tmp_path / "b", 5) == first
    assert written(tmp_path / "c", 6) != first
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_importtime_shares_count_outermost_entries_only():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.random",
        "import time:       300 |        400 |     scipy.interpolate",
        "import time:       200 |        200 |     numpy",
        "import time:        50 |        650 | varcert",
    ])
    assert worker.importtime_tops(stderr) == pytest.approx({"numpy": 2e-4, "scipy": 4e-4})


def test_node_counts_see_shared_subexpressions():
    from varcert import parse

    e = parse("x*y + x*y")
    assert worker.count_nodes([e]) == (7, 4)
    assert worker.count_nodes([e, e]) == (14, 4)


def test_repeated_calls_report_the_geometric_mean_of_each_fastest():
    bench = worker.FineGrid("fine-grid", 1, None)
    for kind, ms in (("certify-0", 4.0), ("certify-0", 2.0), ("certify-1", 8.0),
                     ("compare-0", 50.0), ("compare-0", 32.0)):
        bench.record_latency(kind, ms)
    assert bench.fastest("certify")["value"] == pytest.approx(4.0)
    assert bench.fastest()["value"] == pytest.approx((2.0 * 8.0 * 32.0) ** (1 / 3))
    assert bench.fastest()["n"] == 3
    # medians stay medians on a workload whose ops never repeat
    screen = worker.CorpusScreen("corpus-screen", 1, None)
    for ms in (1.0, 2.0, 9.0):
        screen.record_latency("screen", ms)
    screen.wall = 1.0
    assert screen.end_to_end()["op_p50_ms"]["value"] == 2.0
