"""hwenc benchmark: one closed-loop, single-client workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each invocation measures one workload in
its own process (``workload.py``) and prints a report followed, on the last
line, by one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a run
whose ops alternate traced and untraced, plus the tracing overhead.  The
full record, and with tracing the spans, are written under
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dense_compile", "sparse_load", "mitigated_demo", "noisy_sample")
"""Every workload this script runs; BENCHMARK.json lists two (README.md says why)."""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cnots_per_op": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{key}": unit for layer in LAYERS
       for key, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "compiler.out_gates": "count",
    "compiler.over_bound_gates": "count",
    "compiler.budget_ratio": "ratio",
    "encoders.logical_gates": "count",
    "simulator.apply_gate.entries": "count",
    "simulator.run.self_s": "s",
    "simulator.run.support": "count",
    "simulator.run_noisy.self_s": "s",
    "simulator.run_noisy.calls": "count",
    "simulator.run_noisy.shots_per_s": "1/s",
    "simulator.dense_run.self_s": "s",
    "simulator.dense_run.calls": "count",
    "mitigation.proxies": "count",
    "mitigation.degenerate_fits": "count",
    "mitigation.clamped": "count",
    "mitigation.mre_mitigated": "ratio",
    "ir.out_bytes": "B",
    "trace.spans": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}

SETUP_ONLY_RUNS = 6
"""Extra processes that only set up; set-up time is the median over these and the measured one."""

DEADLINE_S = 170.0

CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
"""One BLAS thread: the default of one per core spin-waits, and on a shared
host one busy neighbour process then makes matrix-mode run_noisy ops about
three times slower."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(args, deadline: float, *extra: str) -> dict:
    """Start workload.py, wait for it, and return the JSON on its last line."""
    t0 = _monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_units(calls: list[dict], size: int) -> list[dict]:
    """One op record per workload unit: its calls' latencies, failures and CNOTs add up."""
    if size == 1:
        return calls
    ops = []
    for i in range(0, len(calls), size):
        part = calls[i:i + size]
        op = {"op": i // size, "traced": part[0]["traced"],
              "latency_s": sum(r["latency_s"] for r in part),
              "failures": [f for r in part for f in r["failures"]],
              "accounting": [row for r in part for row in r.get("accounting", ())]}
        if all("cnots" in r for r in part):
            op["cnots"] = sum(r["cnots"] for r in part)
        ops.append(op)
    return ops


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile is at or under the median, so the
    maximum is reported instead; the returned label says which it is.
    """
    s = sorted(latencies)
    n = len(s)
    if n >= 20:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops"
    return s[-1], f"maximum of {n} ops (fewer than 20)"


def ops_per_s(ops: list[dict]) -> float:
    """Ops that completed and passed their check, per second spent in ops."""
    busy = sum(r["latency_s"] for r in ops)
    return sum(not r["failures"] for r in ops) / busy


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    ops = merge_units(result["ops"], result["unit"])
    latencies = [r["latency_s"] for r in ops]
    tail, tail_label = tail_latency(latencies)
    cnots = [r["cnots"] for r in ops if "cnots" in r]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(ops),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "cnots_per_op": statistics.fmean(cnots) if cnots else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [f"op_tail_s is the {tail_label}",
             f"setup_s is the median of {len(setup_samples)} processes: "
             + ", ".join(f"{s:.4f}" for s in setup_samples)]
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    ops = merge_units(result["ops"], result["unit"])
    traced = [r for r in ops if r["traced"]]
    untraced = [r for r in ops if not r["traced"]]
    values = dict(result["layers"])
    values["trace.ops_per_s"] = ops_per_s(traced) if traced else 0.0
    values["trace.untraced_ops_per_s"] = ops_per_s(untraced) if untraced else 0.0
    values["trace.overhead"] = (
        statistics.fmean(r["latency_s"] for r in traced)
        / statistics.fmean(r["latency_s"] for r in untraced) - 1.0
        if traced and untraced else 0.0)
    mre = [r["mre_mitigated"] for r in ops if "mre_mitigated" in r]
    values["mitigation.mre_mitigated"] = statistics.fmean(mre) if mre else 0.0
    notes = [f"{len(traced)} traced and {len(untraced)} untraced ops; per-layer "
             f"figures are per traced op; spans in {result['spans_file']}"]
    return values, notes


def accounting(ops: list[dict]) -> list[str]:
    """Compiled CNOTs against the count_* budget, per instance, averaged over ops."""
    by_instance: dict[str, list[dict]] = {}
    for r in ops:
        for row in r.get("accounting", ()):
            by_instance.setdefault(row["instance"], []).append(row)
    lines = []
    for name, rows in by_instance.items():
        cnots = statistics.fmean(x["cnots"] for x in rows)
        budget = statistics.fmean(x["budget"] for x in rows)
        over = statistics.fmean(x.get("over_bound_gates", 0) for x in rows)
        line = (f"cnots {name}: {cnots:g} against a budget of {budget:g} "
                f"(ratio {cnots / budget:.4f}), {over:g} gates over gate_cnot_bound, "
                f"mean of {len(rows)} ops")
        phase = [x["phase_fix_cnots"] for x in rows if x.get("phase_fix_cnots")]
        if phase:
            line += f"; phase-fix row budgets {phase}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, help="stop after this many ops (smoke tests)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hwenc", "__init__.py")):
        print(f"error: no hwenc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = _monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    extra = ("--max-ops", str(args.max_ops)) if args.max_ops else ()
    try:
        setup = []
        if not args.trace:
            setup = [_child(args, deadline, "--setup-only")["setup_s"]
                     for _ in range(SETUP_ONLY_RUNS)]
        result = _child(args, deadline, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = merge_units(result["ops"], result["unit"])
    failed = [r for r in ops if r["failures"]]
    if args.trace:
        values, notes = per_layer(result)
        units = PER_LAYER
    else:
        values, notes = end_to_end(result, [result["setup_s"]] + setup)
        units = END_TO_END
    mre = [r["mre_mitigated"] for r in ops if "mre_mitigated" in r]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(result["env"]))
    print(f"ops attempted={len(ops)} failed={len(failed)} "
          f"failed_ratio={len(failed) / len(ops):.4g}")
    for r in failed:
        print(f"FAILED op {r['op']}: " + " | ".join(r["failures"]))
    for line in notes + accounting(ops):
        print(line)
    if mre:
        print(f"mre_mitigated={statistics.fmean(mre):.6g} over {len(mre)} ops")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")

    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, setup_samples=setup, metrics=values)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
