"""Self-test of the benchmark, at tiny work sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that BENCHMARK.json and the harness agree on workloads, metric names
and units, that every workload passes its output checks, that counters repeat
exactly between two traced passes, and that failures are counted rather than
raised.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

if run.import_program() is None:
    pytest.skip("rdeinv sources not found", allow_module_level=True)

import tracer  # noqa: E402
import workloads  # noqa: E402
from rdeinv import rde  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _spec(key):
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert _spec("end_to_end") == run.END_TO_END
    assert _spec("per_layer") == run.PER_LAYER
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layers in workloads.LAYERS.values():
        for names in layers.values():
            assert set(names) <= per_layer


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, workloads.DEFAULT_SEED, "tiny")
    tally = run.Tally()
    tally.add(wl, run.run_pass(wl))
    rec = tracer.Recorder()
    layers = []
    for _ in range(2):
        with rec.patched():
            p = run.run_pass(wl, rec)
        spans, counts = rec.take()
        tally.add(wl, p)
        layers.append(run.layer_metrics(spans, counts, p.wall_s))
    assert tally.failed == 0, tally.messages
    assert not hasattr(rde.logode_step, "__wrapped__")  # patches were undone
    assert set(layers[0]) == {n for n, _, _ in run.PER_LAYER} - {"trace.overhead_frac"}
    for key in run.EXACT:
        assert layers[0][key] == layers[1][key], key
    assert layers[0]["vectorfields.field_evals"] > 0
    assert layers[0]["rde.rk4_stages"] > 0
    assert layers[0]["reconstruct.gn_iterations"] > 0
    if name == "reconstruct_flow":
        assert layers[0]["reconstruct.flow_map.calls"] > 0
    if name == "convergence_brownian":
        assert layers[0]["roughpath.increment.steps"] > 0


def test_output_that_changes_between_passes_fails(tmp_path):
    wl = workloads.FilePipeline(tmp_path, 1, "tiny")
    assert not any(wl.check(run.run_pass(wl).results))
    second = run.run_pass(wl)
    with open(tmp_path / "traj.csv", "a") as fh:
        fh.write("\n1,2,3,4\n")
    failures = wl.check(second.results)
    assert failures[1] and not failures[0]


def test_failing_command_is_counted_and_the_pass_goes_on(tmp_path):
    wl = workloads.FilePipeline(tmp_path, 1, "tiny")
    wl.commands[3] = ["reconstruct", "--system", "rolling_ball", "--obs", str(tmp_path / "missing.csv"),
                      "--out-dir", str(tmp_path / "out")]
    result = run.run_pass(wl)
    assert "FileNotFoundError" in result.results[3].error
    tally = run.Tally()
    tally.add(wl, result)
    assert (tally.attempted, tally.failed) == (5, 1)
    assert "reconstruct" in tally.messages[0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_lists_every_metric(trace, capsys):
    assert run.main(["--size", "tiny", "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    want = {f"{w}.{n}" for w in workloads.WORKLOADS for n in names}
    assert set(result["metrics"]) == want
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "file_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
