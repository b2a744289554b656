"""Command-line front end: encode, count, simulate, and the demo.

Commands print JSON, CSV, or QASM to stdout and diagnostics to stderr.
Every randomized command takes --seed (default from the HWENC_SEED
environment variable, else 0) and repeats the seed in its output header,
so any run can be replayed exactly.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from hwenc.compiler import lower
from hwenc.counting import count_binary, count_dense
from hwenc.encoders import (
    EncodingError,
    encode_binary,
    encode_binary_complex,
    encode_dense_complex,
    encode_dense_real,
    encode_sparse,
)
from hwenc.ir import deserialize, emit_qasm, serialize, SerializationError
from hwenc.mitigation import CdrConfig
from hwenc.qgaussian import QGaussianSpec, run_demo
from hwenc.simulator import NoiseModel, run, run_noisy, sample


def _resolve_seed(value) -> int:
    """--seed, else HWENC_SEED, else 0; a seed is an integer >= 0."""
    source = "--seed"
    if value is None:
        source, text = "HWENC_SEED", os.environ.get("HWENC_SEED", "0")
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"HWENC_SEED {text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{source} {value} is negative; a seed is an integer >= 0")
    return value


def _read_vector(path: str, complex_amplitudes: bool) -> np.ndarray:
    values = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                if complex_amplitudes:
                    re = float(row[0])
                    im = float(row[1]) if len(row) > 1 else 0.0
                    values.append(re + 1j * im)
                else:
                    values.append(float(row[0]))
            except ValueError as exc:
                raise EncodingError(f"{path} row {reader.line_num}: {exc}") from None
    if not values:
        raise EncodingError(f"no amplitudes found in {path}")
    return np.array(values)


def _parse_noise(text: str) -> float:
    kind, sep, value = text.partition(":")
    if kind == "depol" and sep:
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"--noise {text!r} is not of the form depol:P, P a number")


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--rates {text!r} is not a comma-separated list of numbers"
        ) from None


def _emit_circuit(report, level: str, fmt: str) -> str:
    circuit = report.circuit
    cnots = None
    if level == "cnot":
        lowered = lower(circuit)
        circuit = lowered.circuit
        cnots = lowered.cnot_total
    if fmt == "qasm":
        if level != "cnot":
            raise ValueError("QASM output needs --level cnot")
        ordering = " ".join(b.bits for b in report.ordering)
        return emit_qasm(circuit) + f"// ordering: {ordering}\n"
    payload = {
        "n": circuit.n,
        "param_count": report.param_count,
        "ordering": [b.bits for b in report.ordering],
        "circuit": json.loads(serialize(circuit)),
    }
    if cnots is not None:
        payload["cnot_count"] = cnots
    return json.dumps(payload, indent=2) + "\n"


def _cmd_encode(args) -> int:
    x = _read_vector(args.input, args.complex_amplitudes)
    if args.complex_amplitudes:
        report = encode_dense_complex(args.n, args.k, x)
    else:
        report = encode_dense_real(args.n, args.k, x)
    sys.stdout.write(_emit_circuit(report, args.level, args.format))
    return 0


def _cmd_sparse(args) -> int:
    with open(args.input) as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        raise EncodingError("sparse input must be a JSON list")
    pairs = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "bits" not in e:
            raise EncodingError(f"sparse entry {i} needs a 'bits' field")
        parts = (e.get("re", 0.0), e.get("im", 0.0))
        if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in parts):
            raise EncodingError(f"sparse entry {i}: 're' and 'im' must be numbers")
        pairs.append((complex(*parts), e["bits"]))
    report = encode_sparse(args.n, pairs, sort_by_weight=args.sort_by_weight)
    sys.stdout.write(_emit_circuit(report, args.level, args.format))
    return 0


def _cmd_binary(args) -> int:
    x = _read_vector(args.input, args.complex_amplitudes)
    if args.complex_amplitudes:
        report = encode_binary_complex(args.n, x)
    else:
        report = encode_binary(args.n, x)
    sys.stdout.write(_emit_circuit(report, args.level, args.format))
    return 0


def _budget_payload(budget) -> dict:
    return {
        "rows": [
            {"label": r.label, "gates": r.gates, "per_gate": r.per_gate,
             "subtotal": r.subtotal}
            for r in budget.rows
        ],
        "total": budget.total,
        "analytic_total": budget.analytic_total,
    }


def _cmd_count(args) -> int:
    if args.check_8n2n is not None:
        if args.check_8n2n < 1:
            raise ValueError(f"--check-8n2n {args.check_8n2n} checks nothing; give N >= 1")
        checks = []
        for n in range(1, args.check_8n2n + 1):
            total = count_binary(n).analytic_total
            bound = 8 * n * 2**n
            if total > bound:
                raise ArithmeticError(
                    f"binary budget {total} exceeds 8n*2^n = {bound} at n={n}"
                )
            checks.append({"n": n, "analytic_total": total, "bound": bound})
        print(json.dumps({"check_8n2n": checks, "ok": True}, indent=2))
        return 0
    if args.n is None:
        raise ValueError("count needs --n unless --check-8n2n")
    if args.binary:
        # the full-basis count is exact and weight-free
        if args.mode != "analytic":
            raise ValueError(f"count --binary has no --mode {args.mode}")
        if args.k is not None:
            raise ValueError(f"count --binary has no --k {args.k}")
        payload = _budget_payload(count_binary(args.n, args.complex_amplitudes))
        payload["n"] = args.n
        print(json.dumps(payload, indent=2))
        return 0
    if args.k is None:
        raise ValueError("count needs --k unless --binary or --check-8n2n")
    if args.mode == "actual":
        seed = _resolve_seed(args.seed)
        from math import comb

        rng = np.random.default_rng(seed)
        d = comb(args.n, args.k)
        if args.complex_amplitudes:
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            report = encode_dense_complex(args.n, args.k, x)
        else:
            report = encode_dense_real(args.n, args.k, rng.normal(size=d))
        lowered = lower(report.circuit)
        print(json.dumps({
            "seed": seed, "n": args.n, "k": args.k,
            "actual_cnots": lowered.cnot_total,
            "budget": count_dense(args.n, args.k,
                                  args.complex_amplitudes).total,
        }))
        return 0
    payload = _budget_payload(
        count_dense(args.n, args.k, args.complex_amplitudes)
    )
    payload["n"], payload["k"] = args.n, args.k
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    with open(args.circuit) as f:
        text = f.read()
    # accept both a bare circuit and the envelope `encode --format json` emits
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "circuit" in payload and "level" not in payload:
        text = json.dumps(payload["circuit"])
    circuit = deserialize(text)
    seed = _resolve_seed(args.seed)
    if args.noise is not None:
        if args.shots is None:
            raise ValueError("--noise needs --shots")
        p2 = _parse_noise(args.noise)
        counts = run_noisy(circuit, NoiseModel(p2), args.shots, seed)
        print(json.dumps({
            "seed": seed, "shots": args.shots, "p2": p2,
            "counts": {b.bits: c for b, c in sorted(
                counts.items(), key=lambda kv: kv[0].bits)},
        }, indent=2))
        return 0
    state = run(circuit)
    if args.shots is not None:
        counts = sample(state, args.shots, seed)
        print(json.dumps({
            "seed": seed, "shots": args.shots,
            "counts": {b.bits: c for b, c in sorted(
                counts.items(), key=lambda kv: kv[0].bits)},
        }, indent=2))
        return 0
    amps = {}
    probs = {}
    for b, p in state.probabilities().items():
        a = state.amplitude(b)
        amps[b.bits] = [a.real, a.imag]
        probs[b.bits] = p
    print(json.dumps({"amplitudes": amps, "probabilities": probs}, indent=2))
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _cmd_demo(args) -> int:
    seed = _resolve_seed(args.seed)
    p2 = _parse_noise(args.noise) if args.noise else 0.0
    spec = QGaussianSpec(q=args.q, beta=args.beta,
                         interval=(args.interval[0], args.interval[1]),
                         points=args.points)
    for flag, value in (("--rates", args.rates),
                        ("--circuits-per-rate", args.circuits_per_rate)):
        if value is not None and args.mitigate is None:
            raise ValueError(f"{flag} needs --mitigate cdr")
    config = None
    if args.mitigate is not None:
        # CdrConfig holds the defaults; pass only the fields given
        shape = {}
        if args.rates is not None:
            shape["replacement_rates"] = _parse_rates(args.rates)
        if args.circuits_per_rate is not None:
            shape["circuits_per_rate"] = args.circuits_per_rate
        config = CdrConfig(**shape)
    report = run_demo(spec, n=args.n, k=args.k, shots=args.shots, p2=p2,
                      seed=seed, config=config, bootstrap=args.bootstrap)
    out = sys.stdout
    out.write(f"# seed={seed} shots={args.shots} p2={p2} "
              f"mitigated={str(report.mitigated).lower()}\n")
    writer = csv.writer(out)
    writer.writerow([
        "bitstring", "target", "raw", "mitigated", "band_low", "band_high",
        "rel_err_raw", "rel_err_mitigated",
    ])
    for r in report.rows:
        writer.writerow([
            r.bits, _csv_cell(r.target), _csv_cell(r.raw),
            _csv_cell(r.mitigated), _csv_cell(r.band_low),
            _csv_cell(r.band_high), _csv_cell(r.rel_err_raw),
            _csv_cell(r.rel_err_mitigated),
        ])
    if report.mitigated:
        out.write(f"# mean_rel_err_raw={report.mean_rel_err_raw():.6g} "
                  f"mean_rel_err_mitigated="
                  f"{report.mean_rel_err_mitigated():.6g}\n")
    else:
        out.write(f"# mean_rel_err_raw={report.mean_rel_err_raw():.6g}\n")
    return 0


def _add_io_options(p, complex_flag=True):
    p.add_argument("--input", required=True, help="input file")
    p.add_argument("--level", choices=("logical", "cnot"), default="logical")
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    if complex_flag:
        p.add_argument("--complex", dest="complex_amplitudes",
                       action="store_true",
                       help="treat input as complex (re,im CSV columns)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwenc",
        description="Fixed-weight amplitude encoding circuits: build, "
                    "count, simulate, mitigate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="fixed-weight dense encoder from CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_io_options(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("sparse", help="sparse encoder from JSON tuples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sort-by-weight", action="store_true")
    _add_io_options(p, complex_flag=False)
    p.set_defaults(func=_cmd_sparse)

    p = sub.add_parser("binary", help="all-weights encoder from CSV")
    p.add_argument("--n", type=int, required=True)
    _add_io_options(p)
    p.set_defaults(func=_cmd_binary)

    p = sub.add_parser("count", help="CNOT budgets and closed forms")
    p.add_argument("--n", type=int, help="required unless --check-8n2n")
    p.add_argument("--k", type=int)
    p.add_argument("--complex", dest="complex_amplitudes",
                   action="store_true")
    p.add_argument("--mode", choices=("analytic", "actual"),
                   default="analytic")
    p.add_argument("--binary", action="store_true",
                   help="budget the all-weights encoder instead")
    p.add_argument("--check-8n2n", type=int, metavar="N",
                   help="verify the binary budget stays under 8n*2^n up to N")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("simulate", help="run a serialized circuit")
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("--shots", type=int)
    p.add_argument("--noise", help="depol:P two-qubit noise after CNOTs")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="end-to-end distribution loading demo")
    p.add_argument("target", choices=("qgaussian",))
    p.add_argument("--q", type=float, default=1.5)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--interval", type=float, nargs=2, default=(-2.0, 2.0))
    p.add_argument("--points", type=int, default=15)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--noise", help="depol:P two-qubit noise after CNOTs")
    p.add_argument("--mitigate", choices=("cdr",),
                   help="regress errors away on a near-Clifford ensemble "
                        "shaped by --rates and --circuits-per-rate")
    p.add_argument("--rates", help="comma-separated replacement rates")
    p.add_argument("--circuits-per-rate", type=int)
    p.add_argument("--bootstrap", type=int, default=0, metavar="B",
                   help="bootstrap resamples for raw-frequency bands")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader has gone: say nothing, and send what stdout still
        # holds, which the interpreter flushes at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (EncodingError, SerializationError, ValueError, ArithmeticError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
