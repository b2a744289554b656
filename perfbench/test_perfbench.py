"""The benchmark's own tests: its checks catch wrong outputs, and it prints every metric.

    python3 -m pytest perfbench -q

Run from the repository root.  The smoke runs take about a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hwenc  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402


def _small_dense():
    w = workload.DenseCompile()
    w.INSTANCES = (("real", 7, 3, 30),)
    w.setup(seed=5, workdir=None)
    inp = w.make_input(0)
    return w, inp, w.run_op(inp)


def _perturb_first(circuit, kind):
    gates = list(circuit.gates)
    i = next(i for i, g in enumerate(gates) if g.kind == kind)
    gates[i] = dataclasses.replace(gates[i], theta=gates[i].theta + 1e-3)
    return hwenc.Circuit(circuit.n, gates, circuit.level)


def test_correct_dense_op_passes():
    w, inp, out = _small_dense()
    failures, info = w.check(inp, out)
    assert failures == []
    assert info["cnots"] == out[1].cnot_total


def test_perturbed_lowered_angle_fails():
    w, inp, (rep, low, qasm, budget, state) = _small_dense()
    bad = dataclasses.replace(low, circuit=_perturb_first(low.circuit, "Ry"))
    failures, _ = w.check(inp, (rep, bad, qasm, budget, state))
    assert any("lowered circuit error" in f for f in failures)


def test_perturbed_logical_angle_fails():
    w, inp, (rep, low, qasm, budget, state) = _small_dense()
    bad_state = hwenc.run(_perturb_first(rep.circuit, "RBS"))
    failures, _ = w.check(inp, (rep, low, qasm, budget, bad_state))
    assert any("run amplitude error" in f for f in failures)


def test_wrong_p2_reference_fails(tmp_path):
    w = workload.NoisySample()
    w.N, w.K = 6, 2
    w.setup(seed=3, workdir=str(tmp_path))
    w.reference()
    op_seed = w.make_input(0)
    out = w.run_op(op_seed)
    assert w.check(op_seed, out)[0] == []
    with open(w.path) as f:
        gates = [SimpleNamespace(**g) for g in json.load(f)["circuit"]["gates"]]
    w.noisy = ref.noisy_distribution(w.N, gates, 3 * workload.P2)
    failures, _ = w.check(op_seed, out)
    assert any("|z|" in f for f in failures)


def test_references_agree_with_hwenc():
    x = np.random.default_rng(1).normal(size=20) * (1 + 1j)
    circuit = hwenc.lower(hwenc.encode_dense_complex(7, 3, x).circuit).circuit
    exact = hwenc.dense_run(circuit)
    assert ref.phase_aligned_error(ref.statevector(7, circuit.gates), exact) < 1e-12
    probs = ref.noisy_distribution(7, circuit.gates, 0.0)
    assert np.max(np.abs(probs - np.abs(exact) ** 2)) < 1e-12
    assert abs(ref.noisy_distribution(7, circuit.gates, 0.05).sum() - 1.0) < 1e-12


def test_tail_latency_rule():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, "maximum of 3 ops (fewer than 20)")
    value, label = run.tail_latency([float(i) for i in range(40)])
    assert value == 29.0 and label == "p75.0 of 40 ops"


def test_a_unit_is_one_op():
    calls = [{"op": i, "traced": False, "latency_s": 1.0 + i, "cnots": 10 * i,
              "failures": ["bad"] if i == 2 else [], "accounting": [{"instance": str(i)}]}
             for i in range(4)]
    ops = run.merge_units(calls, 2)
    assert [r["latency_s"] for r in ops] == [3.0, 7.0]
    assert [r["cnots"] for r in ops] == [10, 50]
    assert [r["failures"] for r in ops] == [[], ["bad"]]
    assert len(ops[1]["accounting"]) == 2


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_op_smoke_run_prints_every_metric(name):
    proc = _bench("--workload", name, "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--max-ops", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in lines)


def test_traced_smoke_run_prints_every_layer_metric():
    proc = _bench("--workload", "sparse_load", "--seed", "1", "--seconds", "1",
                  "--trace", "1", "--max-ops", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["simulator.apply_gate.entries"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sparse_load", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
