"""One workload process: set up, run closed-loop ops for a time budget, check each op.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC --out DIR [--setup-only] [--max-ops K]

``run.py`` starts this process and reads the JSON object on its last line
of standard output.  ``--t0`` is the CLOCK_MONOTONIC time at which the
process was started, so set-up time covers interpreter start, imports and
input generation.  hwenc is driven only through its public functions and
``hwenc.cli.main``; it receives the generated vectors, address lists,
circuit files and argv, and nothing else from the benchmark.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from math import comb
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import hwenc  # noqa: E402
import hwenc.cli  # noqa: E402
import reference as ref  # noqa: E402
from tracer import LAYERS, OP, Tracer  # noqa: E402

ROUND_TRIP_TOL = 1e-10
"""Largest amplitude error an encoder round trip may show."""

P2 = 0.01


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _op_rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hwenc.cli.main(argv)
    return code, out.getvalue()


def _fidelity_failures(state, ordering, expected: np.ndarray) -> list[str]:
    """``run`` amplitudes at ``ordering`` against x/|x|, and no stray support."""
    want = {b.to_index(): complex(e) for b, e in zip(ordering, expected)}
    if len(want) != len(expected):
        return [f"ordering has {len(expected) - len(want)} repeated states"]
    err = max(abs(state.amps.get(i, 0j) - w) for i, w in want.items())
    stray = max((abs(a) for i, a in state.amps.items() if i not in want), default=0.0)
    failures = []
    if err > ROUND_TRIP_TOL:
        failures.append(f"run amplitude error {err:.3g}")
    if stray > ROUND_TRIP_TOL:
        failures.append(f"run put amplitude {stray:.3g} outside the ordering")
    return failures


def _over_bound(circuit, lowered) -> int:
    return sum(c > hwenc.gate_cnot_bound(g)
               for g, c in zip(circuit.gates, lowered.gate_cnots))


class Workload:
    """One op type: inputs from the seed, the op itself, and its check."""

    unit = 1  # calls per unit, which the report counts as one op; the loop stops between units

    def setup(self, seed: int, workdir: str):
        """Inputs every op shares; counted in setup_s."""
        self.seed = seed

    def reference(self):
        """The benchmark's own expected values; computed after set-up, untimed."""


class DenseCompile(Workload):
    """encode -> lower -> emit_qasm -> count_* -> run on each of four instances in turn.

    One unit is a round over the instances, one instance per op, and the
    metrics take the round as one op timed by the sum of its four.  The
    instances differ in cost about fourfold, so the median of single
    instances would fall between the cheap and the dear ones.  Each
    instance is checked and its outputs dropped before the next one runs:
    holding a round's outputs makes the later instances up to a fifth
    slower, because the collector walks them on every full pass.
    """

    # (encoder, n, k, d); k is None for the full-basis encoder
    INSTANCES = (
        ("real", 12, 6, 924),
        ("complex", 12, 8, 495),
        ("real", 14, 4, 600),
        ("binary", 10, None, 1024),
    )

    @property
    def unit(self):
        return len(self.INSTANCES)

    def make_input(self, op):
        rng = _op_rng(self.seed, op)
        kind, n, k, d = self.INSTANCES[op % len(self.INSTANCES)]
        x = rng.normal(size=d)
        if kind == "complex":
            x = x + 1j * rng.normal(size=d)
        return kind, n, k, x

    def run_op(self, inp):
        kind, n, k, x = inp
        if kind == "binary":
            rep = hwenc.encode_binary(n, x)
        elif kind == "complex":
            rep = hwenc.encode_dense_complex(n, k, x)
        else:
            rep = hwenc.encode_dense_real(n, k, x)
        low = hwenc.lower(rep.circuit)
        qasm = hwenc.emit_qasm(low.circuit)
        if kind == "binary":
            budget = hwenc.count_binary(n)
        elif len(x) == comb(n, k):
            budget = hwenc.count_dense(n, k, complex_amplitudes=kind == "complex")
        else:
            # a prefix of the walk: count_dense prices the whole weight class
            budget = hwenc.count_sparse(n, rep.ordering)
        state = hwenc.run(rep.circuit)
        return rep, low, qasm, budget, state

    def check(self, inp, out):
        kind, n, k, x = inp
        rep, low, qasm, budget, state = out
        label = f"{kind}({n},{k},d={len(x)})" if k else f"{kind}(n={n})"
        expected = x / np.linalg.norm(x)
        found = []
        weights = {b.weight for b in rep.ordering}
        if k is not None and weights != {k}:
            found.append(f"ordering has weights {sorted(weights)}, want {k}")
        found += _fidelity_failures(state, rep.ordering, expected)
        want = np.zeros(1 << n, dtype=complex)
        want[[b.to_index() for b in rep.ordering]] = expected
        err = ref.phase_aligned_error(ref.statevector(n, low.circuit.gates), want)
        if err > ROUND_TRIP_TOL:
            found.append(f"lowered circuit error {err:.3g} up to phase")
        cx_lines = sum(line.startswith("cx ") for line in qasm.splitlines())
        if cx_lines != low.cnot_total:
            found.append(f"QASM has {cx_lines} cx lines, lowering counted {low.cnot_total}")
        row = {"instance": label, "cnots": low.cnot_total, "budget": budget.total,
               "over_bound_gates": _over_bound(rep.circuit, low)}
        return [f"{label}: {f}" for f in found], {"cnots": row["cnots"], "accounting": [row]}


class SparseLoad(Workload):
    """encode_sparse(20, s=1000 random addresses by weight) -> count_sparse -> run."""

    N, S = 20, 1000
    unit = 2  # real and complex values alternate

    def make_input(self, op):
        rng = _op_rng(self.seed, op)
        index = rng.choice(1 << self.N, size=self.S, replace=False)
        values = rng.normal(size=self.S)
        if op % 2:
            values = values + 1j * rng.normal(size=self.S)
        pairs = sorted(((v, format(int(i), f"0{self.N}b")) for v, i in zip(values, index)),
                       key=lambda p: p[1].count("1"))
        return bool(op % 2), pairs

    def run_op(self, inp):
        complex_values, pairs = inp
        rep = hwenc.encode_sparse(self.N, pairs)
        budget = hwenc.count_sparse(self.N, [bits for _, bits in pairs],
                                    complex_amplitudes=complex_values)
        state = hwenc.run(rep.circuit)
        return rep, budget, state

    def check(self, inp, out):
        _, pairs = inp
        rep, budget, state = out
        values = np.array([v for v, _ in pairs], dtype=complex)
        addresses = [hwenc.BitString(bits) for _, bits in pairs]
        failures = []
        if [b.bits for b in rep.ordering] != [b.bits for b in addresses]:
            failures.append("ordering differs from the weight-sorted input")
        failures += _fidelity_failures(state, addresses, values / np.linalg.norm(values))
        # Nothing is lowered here, so the op's CNOT figure is its count_sparse
        # budget.  The complex phase-fix row costs 2^(w+1) - 2 for the weight
        # w of the heaviest of 1000 random addresses, so it is reported apart
        # and left out of the per-op figure, which it would make heavy-tailed.
        phase = sum(r.subtotal for r in budget.rows if r.label == "final phase")
        row = {"instance": "complex" if inp[0] else "real", "cnots": budget.total - phase,
               "budget": budget.total - phase, "phase_fix_cnots": phase}
        return failures, {"cnots": row["cnots"], "accounting": [row]}


class MitigatedDemo(Workload):
    """In-process `hwenc demo qgaussian` with CDR mitigation under depol:0.01."""

    N, K, SHOTS = 6, 2, 10_000

    def reference(self):
        self.target = ref.qgaussian_target()
        report = hwenc.encode_dense_real(self.N, self.K, np.sqrt(self.target))
        compiled = hwenc.lower(report.circuit)
        self.cnots = compiled.cnot_total
        self.budget = hwenc.count_dense(self.N, self.K).total
        self.noisy = ref.noisy_distribution(self.N, compiled.circuit.gates, P2)

    def make_input(self, op):
        return int(_op_rng(self.seed, op).integers(2**31))

    def run_op(self, op_seed):
        return _cli(["demo", "qgaussian", "--noise", f"depol:{P2}", "--mitigate", "cdr",
                     "--shots", str(self.SHOTS), "--circuits-per-rate", "10",
                     "--seed", str(op_seed)])

    def check(self, op_seed, out):
        code, text = out
        if code != 0:
            return [f"demo exited with {code}"], {}
        lines = text.splitlines()
        if not lines[0].startswith(f"# seed={op_seed} "):
            return [f"header {lines[0]!r} does not echo the seed"], {}
        rows = [r.split(",") for r in lines[2:] if not r.startswith("#")]
        if len(rows) != len(self.target):
            return [f"{len(rows)} rows, want {len(self.target)}"], {}
        target = np.array([float(r[1]) for r in rows])
        raw = np.array([float(r[2]) for r in rows])
        mitigated = np.array([float(r[3]) for r in rows])
        failures = []
        err = np.max(np.abs(target - self.target))
        if err > ROUND_TRIP_TOL:
            failures.append(f"target column off the (1+x^2)^-2 grid by {err:.3g}")
        if abs(mitigated.sum() - 1.0) > 1e-9 or np.any(mitigated < 0):
            failures.append(f"mitigated column sums to {mitigated.sum():.12g}, "
                            f"smallest entry {mitigated.min():.3g}")
        probs = self.noisy[[int(r[0], 2) for r in rows]]
        observed = np.append(np.rint(raw * self.SHOTS), self.SHOTS * (1.0 - raw.sum()))
        z = ref.max_abs_z(observed, np.append(probs, 1.0 - probs.sum()), self.SHOTS)
        if z > ref.Z_LIMIT:
            failures.append(f"raw column |z| {z:.2f} against the exact noisy reference")
        mre = float(np.mean(np.abs(mitigated - self.target) / self.target))
        row = {"instance": "qgaussian(6,2)", "cnots": self.cnots, "budget": self.budget}
        return failures, {"cnots": self.cnots, "accounting": [row], "mre_mitigated": mre,
                          "max_z": z}


class NoisySample(Workload):
    """In-process `hwenc simulate` of a CNOT-level (10,2) circuit, 1000 shots, depol:0.01."""

    N, K, SHOTS = 10, 2, 1000

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        x = np.random.default_rng(seed).normal(size=comb(self.N, self.K))
        vector = os.path.join(workdir, "x.csv")
        np.savetxt(vector, x)
        code, text = _cli(["encode", "--n", str(self.N), "--k", str(self.K),
                           "--input", vector, "--level", "cnot"])
        if code != 0:
            raise RuntimeError(f"hwenc encode exited with {code}")
        self.path = os.path.join(workdir, "circuit.json")
        with open(self.path, "w") as f:
            f.write(text)

    def reference(self):
        with open(self.path) as f:
            payload = json.load(f)
        gates = [SimpleNamespace(**g) for g in payload["circuit"]["gates"]]
        self.cnots = sum(g.kind == "CNOT" for g in gates)
        if self.cnots != payload["cnot_count"]:
            raise RuntimeError(f"circuit file says {payload['cnot_count']} CNOTs, "
                               f"its gate list has {self.cnots}")
        self.budget = hwenc.count_dense(self.N, self.K).total
        self.noisy = ref.noisy_distribution(self.N, gates, P2)

    def make_input(self, op):
        return int(_op_rng(self.seed, op).integers(2**31))

    def run_op(self, op_seed):
        return _cli(["simulate", self.path, "--shots", str(self.SHOTS),
                     "--noise", f"depol:{P2}", "--seed", str(op_seed)])

    def check(self, op_seed, out):
        code, text = out
        if code != 0:
            return [f"simulate exited with {code}"], {}
        payload = json.loads(text)
        if (payload["seed"], payload["shots"], payload["p2"]) != (op_seed, self.SHOTS, P2):
            return [f"header {payload['seed'], payload['shots'], payload['p2']} is not the request"], {}
        counts = np.zeros(1 << self.N)
        for bits, c in payload["counts"].items():
            if len(bits) != self.N:
                return [f"outcome {bits!r} is not {self.N} bits"], {}
            counts[int(bits, 2)] += c
        failures = []
        if counts.sum() != self.SHOTS:
            failures.append(f"{counts.sum():.0f} counts for {self.SHOTS} shots")
        z = ref.max_abs_z(*ref.pooled_bins(counts, self.noisy, self.SHOTS), self.SHOTS)
        if z > ref.Z_LIMIT:
            failures.append(f"counts |z| {z:.2f} against the exact noisy reference")
        row = {"instance": "dense real(10,2)", "cnots": self.cnots, "budget": self.budget}
        return failures, {"cnots": self.cnots, "accounting": [row], "max_z": z}


WORKLOADS = {
    "dense_compile": DenseCompile,
    "sparse_load": SparseLoad,
    "mitigated_demo": MitigatedDemo,
    "noisy_sample": NoisySample,
}


def run_ops(workload, seconds: float, trace: bool, max_ops: int | None):
    """Closed loop: whole units of ops while the next unit still fits in ``seconds``.

    A unit is expected to take as long as the previous one, ops and checks
    included, so a run ends within about ``seconds`` of wall time instead of
    overrunning by up to one unit.  With tracing, units alternate traced and
    untraced, and the loop ends on an even number of units, so both halves
    see the same instance mix.
    """
    tracer = Tracer() if trace else None
    ops = []
    start = unit_start = last_unit = _monotonic()

    def finished(op):
        nonlocal unit_start, last_unit
        if max_ops is not None and op >= max_ops * workload.unit:
            return True
        if op == 0 or op % workload.unit:
            return False
        now = _monotonic()
        last_unit, unit_start = now - unit_start, now
        if trace and op // workload.unit % 2:
            return False
        return now - start + last_unit > seconds

    op = 0
    while not finished(op):
        traced = trace and op // workload.unit % 2 == 0
        inp = workload.make_input(op)
        record = {"op": op, "traced": traced}
        if traced:
            tracer.op = op
            tracer.install()
        t = time.perf_counter()
        try:
            out = workload.run_op(inp)
        except Exception:
            out = None
            record["failures"] = [traceback.format_exc()]
        finally:
            record["latency_s"] = time.perf_counter() - t
            if traced:
                tracer.uninstall()
                _count_lowered(tracer)
        if out is not None:
            try:
                failures, info = workload.check(inp, out)
            except Exception:
                failures, info = [traceback.format_exc()], {}
            record["failures"] = failures
            record.update(info)
        # drop this op's output and collect, untimed, before the next op
        del out
        gc.collect()
        ops.append(record)
        op += 1
    return ops, tracer


def _count_lowered(tracer: Tracer):
    """Fold the op's ``lower`` results into counters, untimed, and drop them."""
    for circuit, lowered in tracer.lowered:
        tracer.counters["compiler.out_gates"] += len(lowered.circuit.gates)
        tracer.counters["compiler.over_bound_gates"] += _over_bound(circuit, lowered)
        tracer.counters["compiler.cnots"] += lowered.cnot_total
        tracer.counters["compiler.bound_cnots"] += sum(
            hwenc.gate_cnot_bound(g) for g in circuit.gates)
    tracer.lowered.clear()


def layer_metrics(tracer: Tracer, ops: list[dict], unit: int) -> dict:
    """Per traced unit: self time, calls and errors per layer, plus the counters."""
    traced = {r["op"] for r in ops if r["traced"]}
    totals = tracer.layer_totals(traced)
    per_op = max(len(traced) // unit, 1)
    out = {}
    for layer in LAYERS:
        row = totals.get(layer, {})
        for key in ("self_s", "calls", "errors"):
            out[f"{layer}.{key}"] = row.get(key, 0) / per_op
    for fn in ("simulator.run", "simulator.run_noisy", "simulator.dense_run"):
        row = totals.get(fn, {})
        out[f"{fn}.self_s"] = row.get("self_s", 0.0) / per_op
        out[f"{fn}.calls"] = row.get("calls", 0) / per_op
    noisy_s = totals.get("simulator.run_noisy", {}).get("total_s", 0.0)
    c = tracer.counters
    out["simulator.run_noisy.shots_per_s"] = (
        c["simulator.run_noisy.shots"] / noisy_s if noisy_s else 0.0)
    out["compiler.budget_ratio"] = (
        c["compiler.cnots"] / c["compiler.bound_cnots"] if c["compiler.bound_cnots"] else 0.0)
    for key in ("compiler.out_gates", "compiler.over_bound_gates", "encoders.logical_gates",
                "simulator.apply_gate.entries", "simulator.run.support",
                "mitigation.proxies", "mitigation.degenerate_fits", "mitigation.clamped",
                "ir.out_bytes"):
        out[key] = c[key] / per_op
    out["trace.spans"] = sum(1 for s in tracer.spans if s[OP] in traced) / per_op
    return out


def environment(seed: int) -> dict:
    env = {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": None,
        "openblas_threads": _openblas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def _openblas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded, if found."""
    import ctypes
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not os.path.isdir(libs):
        return None
    for name in sorted(os.listdir(libs)):
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-ops", type=int)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        workload.setup(args.seed, workdir)
        workload.make_input(0)
        setup_s = _monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.reference()
        ops, tracer = run_ops(workload, args.seconds, bool(args.trace), args.max_ops)
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "unit": workload.unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, ops, workload.unit)
        # one file per workload, replaced by the next traced run: a dense round
        # alone records about half a million spans
        spans = os.path.join(args.out, f"spans-{args.workload}.json")
        tracer.dump(spans)
        result["spans_file"] = os.path.relpath(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
