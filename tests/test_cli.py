"""Command-line tests, run in-process through main()."""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from hwenc.cli import main
from hwenc.ir import deserialize
from hwenc.simulator import run


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_csv(tmp_path):
    xs = np.linspace(-2, 2, 15)
    dens = (1 + xs**2) ** -2
    amps = np.sqrt(dens / dens.sum())
    path = tmp_path / "amps.csv"
    path.write_text("# amplitudes\n" + "".join(f"{a}\n" for a in amps))
    return str(path), dens / dens.sum()


class TestEncode:
    def test_json_output_round_trips(self, capsys, demo_csv, tmp_path):
        path, target = demo_csv
        code, out, err = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
            "--level", "cnot",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["param_count"] == 14
        assert payload["cnot_count"] == 68
        assert payload["ordering"][0] == "110000"
        circuit = deserialize(json.dumps(payload["circuit"]))
        state = run(circuit)
        for bits, want in zip(payload["ordering"], target):
            assert abs(abs(state.amplitude(bits)) ** 2 - want) < 1e-9

    def test_qasm_output(self, capsys, demo_csv):
        path, _ = demo_csv
        code, out, err = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
            "--level", "cnot", "--format", "qasm",
        )
        assert code == 0
        assert out.startswith("OPENQASM 2.0;")
        assert "// ordering: 110000" in out

    def test_qasm_requires_cnot_level(self, capsys, demo_csv):
        path, _ = demo_csv
        code, out, err = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
            "--format", "qasm",
        )
        assert code == 1
        assert "needs --level cnot" in err

    @pytest.mark.parametrize("k", ["0", "4"])
    def test_single_string_weight_class(self, capsys, tmp_path, k):
        path = tmp_path / "two.csv"
        path.write_text("1\n2\n")
        code, out, err = run_cli(
            capsys, "encode", "--n", "4", "--k", k, "--input", str(path),
        )
        assert code == 1 and out == ""
        assert f"weight {k} on 4 qubits holds a single string" in err
        assert "between" not in err

    def test_complex_csv(self, capsys, tmp_path):
        path = tmp_path / "cplx.csv"
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(6, 2))
        path.write_text("".join(f"{re},{im}\n" for re, im in rows))
        code, out, _ = run_cli(
            capsys, "encode", "--n", "4", "--k", "2", "--input", str(path),
            "--complex",
        )
        assert code == 0
        assert json.loads(out)["param_count"] == 11

    def test_wrong_length_fails_cleanly(self, capsys, demo_csv):
        path, _ = demo_csv
        code, out, err = run_cli(
            capsys, "encode", "--n", "4", "--k", "1", "--input", path,
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("text, flags, cell", [
        ("0.5\n# note\nabc\n", (), "'abc'"),
        ("0.5,0.1\n\n0.5,x\n", ("--complex",), "'x'"),
    ])
    def test_bad_cell_names_file_and_row(self, capsys, tmp_path, text, flags, cell):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "encode", "--n", "3", "--k", "1", "--input", str(path), *flags,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} row 3: ") and cell in err

    def test_empty_input(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing\n")
        code, _, err = run_cli(
            capsys, "encode", "--n", "4", "--k", "1", "--input", str(path),
        )
        assert code == 1 and "no amplitudes" in err


class TestSparse:
    def write(self, tmp_path, entries):
        path = tmp_path / "tuples.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_sorted_input(self, capsys, tmp_path):
        path = self.write(tmp_path, [
            {"bits": "000111", "re": 0.3}, {"bits": "001011", "re": -0.4},
            {"bits": "110001", "re": 0.5},
        ])
        code, out, _ = run_cli(capsys, "sparse", "--n", "6", "--input", path)
        assert code == 0
        assert json.loads(out)["param_count"] == 2

    def test_unsorted_needs_flag(self, capsys, tmp_path):
        path = self.write(tmp_path, [
            {"bits": "0111", "re": 0.3}, {"bits": "0011", "re": 0.4},
        ])
        code, _, err = run_cli(capsys, "sparse", "--n", "4", "--input", path)
        assert code == 1 and "out of order" in err
        code, out, _ = run_cli(
            capsys, "sparse", "--n", "4", "--input", path, "--sort-by-weight",
        )
        assert code == 0
        assert json.loads(out)["ordering"] == ["0011", "0111"]

    def test_missing_bits_field(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"re": 0.3}])
        code, _, err = run_cli(capsys, "sparse", "--n", "4", "--input", path)
        assert code == 1 and "entry 0" in err

    @pytest.mark.parametrize("entry", [
        {"bits": "011", "re": "0.5"},
        {"bits": "011", "re": 0.5, "im": None},
        {"bits": "011", "re": True},
    ], ids=["string", "null", "bool"])
    def test_non_number_value(self, capsys, tmp_path, entry):
        path = self.write(tmp_path, [{"bits": "101", "re": 0.6}, entry])
        code, out, err = run_cli(capsys, "sparse", "--n", "3", "--input", path)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "entry 1" in err

    def test_non_list_input(self, capsys, tmp_path):
        path = self.write(tmp_path, {"bits": "0011"})
        code, _, err = run_cli(capsys, "sparse", "--n", "4", "--input", path)
        assert code == 1 and "JSON list" in err


class TestBinary:
    def test_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8)
        path = tmp_path / "bin.csv"
        path.write_text("".join(f"{v}\n" for v in x))
        code, out, _ = run_cli(
            capsys, "binary", "--n", "3", "--input", str(path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["param_count"] == 7
        state = run(deserialize(json.dumps(payload["circuit"])))
        want = x / np.linalg.norm(x)
        for bits, w in zip(payload["ordering"], want):
            got = state.amplitude(bits)
            assert abs(got.real - w) < 1e-9 and abs(got.imag) < 1e-12


class TestCount:
    def test_analytic_table(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "6", "--k", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["total"] == 68
        assert [r["gates"] for r in payload["rows"]] == [4, 10]

    def test_closed_form(self, capsys):
        # the default output carries the paper's closed form next to the rows
        code, out, _ = run_cli(capsys, "count", "--n", "6", "--k", "2")
        assert json.loads(out)["analytic_total"] == 68

    def test_actual_prints_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "5", "--k", "2", "--mode", "actual",
            "--seed", "3",
        )
        payload = json.loads(out)
        assert payload["seed"] == 3
        assert payload["actual_cnots"] <= payload["budget"]

    def test_binary_budget(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "6", "--binary")
        payload = json.loads(out)
        assert payload["total"] == 62
        assert payload["analytic_total"] == 1120

    def test_binary_budget_bounds_complex(self, capsys):
        # the complex loader adds an Rz stack to every Ry stack
        code, out, err = run_cli(capsys, "count", "--n", "6", "--binary", "--complex")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["total"] == 124 and payload["analytic_total"] is None
        assert [r["gates"] for r in payload["rows"]] == [2] * 6

    # --k 0 is falsy, so the check must test for presence, not truth;
    # --k 3 is the full weight, a k that count without --binary accepts
    @pytest.mark.parametrize("flags", [("--k", "0"), ("--mode", "actual"),
                                       ("--k", "3"), ("--k", "2")])
    def test_binary_budget_rejects_ignored_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, "count", "--n", "3", "--binary", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and all(f in err for f in flags)

    def test_closed_form_mode_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "count", "--n", "3", "--binary",
                                 "--mode", "closed-form")
        assert code == 2 and out == ""
        assert "invalid choice: 'closed-form'" in err

    def test_size_bound_check(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--check-8n2n", "10")
        payload = json.loads(out)
        assert payload["ok"] and len(payload["check_8n2n"]) == 10

    def test_size_bound_check_as_in_readme(self, capsys):
        # the README's line, which gives no --n
        code, out, _ = run_cli(capsys, "count", "--check-8n2n", "24")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] and len(payload["check_8n2n"]) == 24

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_size_bound_check_refuses_empty_range(self, capsys, size):
        # no n in 1..N would be checked, so "ok" would claim a pass
        code, out, err = run_cli(capsys, "count", "--check-8n2n", size)
        assert code == 1 and out == ""
        assert err.startswith("error: --check-8n2n ")

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "count", "--k", "2")
        assert code == 1 and "--n" in err

    def test_missing_k(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "6")
        assert code == 1 and "--k" in err


class TestSimulate:
    @pytest.fixture
    def circuit_file(self, capsys, demo_csv, tmp_path):
        path, target = demo_csv
        code, out, _ = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
            "--level", "cnot",
        )
        payload = json.loads(out)
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps(payload["circuit"]))
        return str(circ), payload["ordering"], target

    def test_accepts_wrapped_encode_output(self, capsys, demo_csv, tmp_path):
        path, target = demo_csv
        code, out, _ = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
        )
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(out)
        code, out, _ = run_cli(capsys, "simulate", str(wrapped))
        assert code == 0
        probs = json.loads(out)["probabilities"]
        assert abs(sum(probs.values()) - 1.0) < 1e-9

    def test_noise_on_a_logical_circuit_asks_to_lower_it(self, capsys,
                                                         demo_csv, tmp_path):
        path, _ = demo_csv
        code, out, _ = run_cli(
            capsys, "encode", "--n", "6", "--k", "2", "--input", path,
        )
        logical = tmp_path / "logical.json"
        logical.write_text(out)
        code, out, err = run_cli(
            capsys, "simulate", str(logical), "--shots", "100",
            "--noise", "depol:0.01", "--seed", "1",
        )
        assert code == 1 and out == ""
        assert "cnot-level circuit; lower the circuit first" in err
        assert "circuit 0" not in err

    def test_exact_probabilities(self, capsys, circuit_file):
        circ, ordering, target = circuit_file
        code, out, _ = run_cli(capsys, "simulate", circ)
        probs = json.loads(out)["probabilities"]
        for bits, want in zip(ordering, target):
            assert abs(probs[bits] - want) < 1e-9

    def test_sampled_counts_deterministic(self, capsys, circuit_file):
        circ, _, _ = circuit_file
        code, out1, _ = run_cli(
            capsys, "simulate", circ, "--shots", "200", "--seed", "7",
        )
        code, out2, _ = run_cli(
            capsys, "simulate", circ, "--shots", "200", "--seed", "7",
        )
        assert json.loads(out1) == json.loads(out2)
        payload = json.loads(out1)
        assert payload["seed"] == 7
        assert sum(payload["counts"].values()) == 200

    def test_noisy_counts(self, capsys, circuit_file):
        circ, _, _ = circuit_file
        code, out, _ = run_cli(
            capsys, "simulate", circ, "--shots", "300", "--noise",
            "depol:0.02", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["p2"] == 0.02
        assert sum(payload["counts"].values()) == 300

    def test_noise_needs_shots(self, capsys, circuit_file):
        circ, _, _ = circuit_file
        code, _, err = run_cli(capsys, "simulate", circ, "--noise", "depol:0.02")
        assert code == 1 and "--shots" in err

    def test_bad_noise_spec(self, capsys, circuit_file):
        circ, _, _ = circuit_file
        code, _, err = run_cli(
            capsys, "simulate", circ, "--shots", "10", "--noise", "flip:0.1",
        )
        assert code == 1 and "depol:P" in err

    def test_env_seed_fallback(self, capsys, circuit_file, monkeypatch):
        circ, _, _ = circuit_file
        monkeypatch.setenv("HWENC_SEED", "55")
        code, out, _ = run_cli(capsys, "simulate", circ, "--shots", "20")
        assert json.loads(out)["seed"] == 55
        code, out, _ = run_cli(
            capsys, "simulate", circ, "--shots", "20", "--seed", "4",
        )
        assert json.loads(out)["seed"] == 4

    @pytest.mark.parametrize("env, flags, message", [
        (None, ("--seed", "-1"), "error: --seed -1 is negative"),
        ("-3", (), "error: HWENC_SEED -3 is negative"),
        ("x", (), "error: HWENC_SEED 'x' is not an integer"),
    ])
    def test_bad_seed_names_its_source(self, capsys, circuit_file, monkeypatch,
                                       env, flags, message):
        circ, _, _ = circuit_file
        if env is not None:
            monkeypatch.setenv("HWENC_SEED", env)
        for argv in (("simulate", circ, "--shots", "20"),
                     ("demo", "qgaussian", "--shots", "100",
                      "--noise", "depol:0.01")):
            code, out, err = run_cli(capsys, *argv, *flags)
            assert code == 1 and out == ""
            assert err.startswith(message), err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/no/such/file.json")
        assert code == 1 and err.startswith("error:")
        assert "/no/such/file.json" in err

    def test_closed_output_pipe_is_quiet(self, capsys, monkeypatch, circuit_file):
        circ, _, _ = circuit_file
        read_end, write_end = os.pipe()
        os.close(read_end)
        # line-buffered, so the first printed line reaches the closed pipe
        with open(write_end, "w", buffering=1) as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code = main(["simulate", circ, "--shots", "20"])
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        assert code == 1 and capsys.readouterr().err == ""


class TestDemo:
    def test_noiseless_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "qgaussian", "--shots", "2000", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# seed=9 ")
        header = lines[1].split(",")
        assert header == [
            "bitstring", "target", "raw", "mitigated", "band_low",
            "band_high", "rel_err_raw", "rel_err_mitigated",
        ]
        rows = [line.split(",") for line in lines[2:-1]]
        assert len(rows) == 15
        # no mitigation: those cells stay empty
        assert all(r[3] == "" and r[7] == "" for r in rows)
        assert lines[-1].startswith("# mean_rel_err_raw=")

    def test_mitigated_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "qgaussian", "--shots", "800", "--noise",
            "depol:0.02", "--mitigate", "cdr", "--rates", "1.0",
            "--circuits-per-rate", "3", "--bootstrap", "20", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line.split(",") for line in lines[2:-1]]
        assert len(rows) == 15
        for r in rows:
            assert r[3] != "" and float(r[4]) <= float(r[5])
        assert "mean_rel_err_mitigated=" in lines[-1]
        total = sum(float(r[3]) for r in rows)
        assert abs(total - 1.0) < 1e-9

    def test_deterministic_output(self, capsys):
        args = ("demo", "qgaussian", "--shots", "500", "--noise",
                "depol:0.01", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_rate_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "demo", "qgaussian", "--shots", "100", "--mitigate",
            "cdr", "--rates", "0.5,1.5", "--circuits-per-rate", "2",
        )
        assert code == 1 and "outside" in err

    @pytest.mark.parametrize("flag, value", [("--rates", "0.5"),
                                             ("--circuits-per-rate", "2")])
    def test_ensemble_flags_need_mitigation(self, capsys, flag, value):
        # without --mitigate no ensemble is drawn, so the flag would be lost
        code, out, err = run_cli(capsys, "demo", "qgaussian", "--shots",
                                 "100", flag, value, "--seed", "1")
        assert code == 1 and out == ""
        assert flag in err and "--mitigate" in err

    @pytest.mark.parametrize("flag, value", [("--rates", "0.9,,1.0"),
                                             ("--noise", "depol:abc"),
                                             ("--noise", "depol:")])
    def test_malformed_number_names_its_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "demo", "qgaussian", "--shots", "100",
                                 "--mitigate", "cdr", flag, value, "--seed", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} {value!r} ")

    def test_custom_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo", "qgaussian", "--points", "6", "--n", "4", "--k",
            "2", "--shots", "1000", "--seed", "2",
        )
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 6 + 1


# the noisy commands' stdout, pinned so that moving where a seed or a shot
# count is set cannot move a single count; the simulate cases encode 1..15
# (density path) and 1..45 (trajectory path) first
GOLDEN_STDOUT = {
    "demo-mitigated": (
        ("demo", "qgaussian", "--noise", "depol:0.01", "--mitigate", "cdr",
         "--circuits-per-rate", "2", "--shots", "2000", "--seed", "3",
         "--bootstrap", "20"),
        "38851a259efd30c53f61c0a348328ad5b2f5a5dac7e989e7d537f3d5ee270157"),
    "demo-raw": (
        ("demo", "qgaussian", "--noise", "depol:0.01",
         "--shots", "2000", "--seed", "3", "--bootstrap", "20"),
        "b1fce5395bbe7c186f21e6673c7da2eecc1d59cd9f210bcc2f5f000c438f6ced"),
    "demo-benchmark": (
        ("demo", "qgaussian", "--noise", "depol:0.01", "--mitigate", "cdr",
         "--shots", "10000", "--circuits-per-rate", "10", "--seed", "5"),
        "4279d84cda65617ce26f9d88e9cb7e0669ddf2eb7c125c6d17a91c08519081a8"),
    "simulate-density": (
        (6, 15),
        "1d24704a99f48bef34ff21dadfd702dee377adee29f8f65082725c86b23eacf9"),
    "simulate-trajectory": (
        (10, 45),
        "16875de0174722ba8fae22d8d5139aa5a5bb35d46fd80078b98b01c3984446f0"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, tmp_path, case):
    args, digest = GOLDEN_STDOUT[case]
    if case.startswith("simulate"):
        n, d = args
        values = tmp_path / "values.csv"
        values.write_text("".join(f"{i}\n" for i in range(1, d + 1)))
        code, out, _ = run_cli(capsys, "encode", "--n", str(n), "--k", "2",
                               "--input", str(values), "--level", "cnot")
        assert code == 0
        circuit = tmp_path / "circuit.json"
        circuit.write_text(out)
        args = ("simulate", str(circuit), "--noise", "depol:0.01",
                "--shots", "500", "--seed", "1")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2
