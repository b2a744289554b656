"""Sparse engine against the dense oracle, sampling, and noise statistics."""

import dataclasses
import hashlib
import itertools
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwenc.bitstrings import BitString
from hwenc.compiler import lower
from hwenc.encoders import (
    encode_binary,
    encode_dense_complex,
    encode_dense_real,
    encode_sparse,
)
from hwenc.ir import (
    GATE_KINDS,
    Circuit,
    Gate,
    _single_qubit_matrix,
    apply_to_basis_state,
    circuit_unitary,
    cnot,
    rbs,
    rw,
    ry,
    rz,
    x_gate,
)
from hwenc.mitigation import CdrConfig, near_clifford_ensemble
from hwenc.simulator import (
    _DENSE_QUBITS,
    _STACK_ENTRIES,
    PRUNE_TOL,
    NoiseModel,
    SparseState,
    _evolve_stack,
    _noisy_runs,
    _replay,
    _trajectory_counts,
    _to_arrays,
    apply_gate,
    dense_run,
    run,
    run_noisy,
    sample,
)


def apply_to_amps(amps: dict, gate: Gate) -> dict:
    """``apply_gate`` on an index -> amplitude map, through sorted arrays wide
    enough for the largest index and wire."""
    width = max(int(max(amps, default=0)).bit_length(), max(gate.qubits, default=0))
    idx, amp = apply_gate(*_to_arrays(amps, width), gate)
    return dict(zip(idx.tolist(), amp.tolist()))


def random_logical_circuit(rng, n, n_gates):
    gates = []
    for _ in range(n_gates):
        shape = rng.choice(["RBS", "RBS phased", "RBS wide", "Ry", "Rz", "X"])
        wires = list(rng.permutation(n) + 1)
        theta, phi = rng.uniform(-3, 3, size=2)
        if shape == "X":
            gates.append(x_gate(int(wires[0])))
        elif shape == "Ry":
            ctrls = tuple(int(w) for w in wires[1 : int(rng.integers(1, 3))])
            gates.append(ry(theta, int(wires[0]), ctrls=ctrls))
        elif shape == "Rz":
            gates.append(rz(phi, int(wires[0])))
        elif shape == "RBS":
            gates.append(rbs(theta, (int(wires[0]),), (int(wires[1]),)))
        elif shape == "RBS phased":
            ctrls = tuple(int(w) for w in wires[2 : int(rng.integers(2, 4))])
            gates.append(
                rbs(theta, (int(wires[0]),), (int(wires[1]),), phi, ctrls=ctrls)
            )
        else:
            m = int(rng.integers(0, min(3, n)))
            mp = int(rng.integers(1, min(3, n - m) + 1))
            gates.append(rbs(theta, [int(w) for w in wires[:m]],
                             [int(w) for w in wires[m : m + mp]], phi))
    return Circuit(n, tuple(gates))


NOISY_CIRCUIT = Circuit(
    3,
    (ry(0.3, 3), cnot(3, 2), ry(0.2, 2), rz(0.7, 3), cnot(2, 1),
     rw(0.9, (0.6, 0.0, 0.8), 1), cnot(3, 1), ry(0.4, 1), rz(-0.5, 2)),
    level="cnot",
)

PAULI_AXES = {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)}
PAULI_MATRICES = {1: np.array([[0, 1], [1, 0]], dtype=complex),
                  2: np.array([[0, -1j], [1j, 0]], dtype=complex),
                  3: np.array([[1, 0], [0, -1]], dtype=complex)}


def with_paulis(circuit, choice):
    """The circuit with Pauli pair choice[s] (0 = identity) after CNOT s."""
    gates = []
    cnots = 0
    for g in circuit.gates:
        gates.append(g)
        if g.kind == "CNOT":
            for q, which in zip((g.ctrls[0], g.ins[0]), divmod(choice[cnots], 4)):
                if which:
                    gates.append(rw(math.pi / 2, PAULI_AXES[which], q))
            cnots += 1
    return Circuit(circuit.n, tuple(gates), level="cnot")


def dict_loop_apply(amps, gate):
    """The per-entry reference engine: sum of apply_to_basis_state columns."""
    out = {}
    for state, amp in amps.items():
        for target, coeff in apply_to_basis_state(gate, state).items():
            value = out.get(target, 0j) + amp * coeff
            if value == 0j:
                out.pop(target, None)
            else:
                out[target] = value
    return out


# every gate kind, RBS in three shapes: two-wire real, two-wire phased,
# and phased on as many in- and out-wires as the counts ask for
SHAPES = ("X", "Ry", "Rz", "Rw", "RBS", "RBS phased", "RBS wide", "CNOT")


def build_gate(shape, wires, counts, theta, phi, axis):
    """A gate of this shape on the wires in turn: ins, outs, ctrls, anti_ctrls.

    ``counts`` asks for (ins, outs, ctrls, anti_ctrls); the shape
    overrides it and wires that run out cut the controls short.
    """
    kind = shape.split()[0]
    n_ins, n_outs, n_ctrls, n_anti = counts
    if shape == "RBS wide":
        n_outs = min(max(n_outs, 1), len(wires))
        n_ins = min(n_ins, len(wires) - n_outs)
    elif kind == "RBS":
        n_ins, n_outs = 1, 1
    else:
        n_ins, n_outs = 1, 0
    rest = wires[n_ins + n_outs:]
    if kind == "X":
        n_ctrls = n_anti = 0
    elif kind == "CNOT":
        n_ctrls, n_anti = 1, 0
    n_ctrls = min(n_ctrls, len(rest))
    n_anti = min(n_anti, len(rest) - n_ctrls)
    return Gate(
        kind,
        theta=theta if kind in ("Ry", "Rw", "RBS") else None,
        phi=phi if shape in ("Rz", "RBS phased", "RBS wide") else None,
        axis=axis if kind == "Rw" else None,
        ins=tuple(wires[:n_ins]),
        outs=tuple(wires[n_ins:n_ins + n_outs]),
        ctrls=tuple(rest[:n_ctrls]),
        anti_ctrls=tuple(rest[n_ctrls:n_ctrls + n_anti]),
    )


def bits(labels):
    return sum(1 << (q - 1) for q in labels)


def gate_pairs(gate, n):
    """Every (lo, hi) basis pair the gate mixes or flips, over n qubits."""
    ctrl = bits(gate.ctrls)
    care = ctrl | bits(gate.anti_ctrls)
    if gate.kind == "RBS":
        lo, hi = bits(gate.ins), bits(gate.outs)
    else:
        lo, hi = 0, bits(gate.ins)
    flip = lo | hi
    return [(s, s ^ flip) for s in range(1 << n)
            if (s & care) == ctrl and (s & flip) == lo]


class TestSparseState:
    def test_zero(self):
        s = SparseState.zero(3)
        assert s.amplitude("000") == 1
        assert s.norm() == 1

    def test_probabilities(self):
        a = math.cos(0.4)
        s = SparseState(2, {0b10: a, 0b01: math.sin(0.4)})
        probs = s.probabilities()
        assert probs[BitString("10")] == pytest.approx(a**2)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_as_vector(self):
        s = SparseState(2, {0b01: 1j})
        np.testing.assert_allclose(s.as_vector(), [0, 1j, 0, 0])

    def test_as_vector_up_to_16_qubits(self):
        vec = SparseState(16, {0: 0.6 + 0j, 2**16 - 1: 0.8j}).as_vector()
        assert vec.shape == (2**16,) and vec[0] == 0.6 and vec[-1] == 0.8j
        with pytest.raises(ValueError, match="16 qubits"):
            SparseState(17, {0: 1.0 + 0j}).as_vector()

    @pytest.mark.parametrize("ref", [1.5, True, "0101", 4, -1])
    def test_amplitude_rejects_what_is_not_a_basis_state(self, ref):
        with pytest.raises(ValueError):
            SparseState(2, {1: 1.0 + 0j}).amplitude(ref)

    @pytest.mark.parametrize("ref", [BitString("01"), "01", 1, np.int64(1)])
    def test_amplitude_reads_every_reference_form(self, ref):
        s = SparseState(2, {1: 0.6 + 0j, 2: 0.8 + 0j})
        assert s.amplitude(ref) == 0.6


class TestRun:
    def test_empty_circuit(self):
        s = run(Circuit(4))
        assert s.amps == {0: 1.0 + 0j}

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            c = random_logical_circuit(rng, n, int(rng.integers(1, 15)))
            got = run(c).as_vector()
            want = circuit_unitary(c)[:, 0]
            np.testing.assert_allclose(got, want, atol=1e-11)

    def test_norm_after_every_gate(self):
        rng = np.random.default_rng(9)
        c = random_logical_circuit(rng, 5, 40)
        amps = {0: 1.0 + 0j}
        for g in c.gates:
            amps = apply_to_amps(amps, g)
            assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_weight_support_confinement(self):
        # mixing gates with equal arity never leave the weight class
        rng = np.random.default_rng(17)
        gates = []
        for _ in range(30):
            wires = rng.permutation(6) + 1
            gates.append(rbs(rng.uniform(-3, 3), (int(wires[0]),), (int(wires[1]),),
                             ctrls=(int(wires[2]),)))
        start = BitString("110100")
        amps = {start.to_index(): 1.0 + 0j}
        for g in gates:
            amps = apply_to_amps(amps, g)
            for idx in amps:
                assert bin(idx).count("1") == 3

    def test_initial_bitstring(self):
        s = run(Circuit(3), initial=BitString("101"))
        assert s.amplitude("101") == 1

    # n = 1 runs on the tensor engine, n = 17 on the sparse arrays
    @pytest.mark.parametrize("n", [1, _DENSE_QUBITS + 1])
    def test_norm_drift_detected(self, n):
        # every gate is unitary, so the drift comes from the initial state
        state = SparseState(n, {0: 0.5 + 0j})
        with pytest.raises(ArithmeticError, match="norm drifted .* after gate 0"):
            run(Circuit(n, (ry(0.3, 1),)), initial=state)

    def test_initial_bitstring_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="initial state has 3 qubits"):
            run(Circuit(2), initial=BitString("101"))

    def test_initial_sparse_state_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="initial state has 3 qubits"):
            run(Circuit(2), initial=SparseState.zero(3))

    @pytest.mark.parametrize("initial", [
        -1, 4, 1 << 70,
        pytest.param(SparseState(2, {5: 1.0 + 0j}), id="sparse_state-5"),
        pytest.param(SparseState(2, {0: 0.6 + 0j, -1: 0.8 + 0j}), id="sparse_state--1"),
        True, 1.5,
        pytest.param(SparseState(2, {1.5: 1.0 + 0j}), id="sparse_state-1.5"),
        pytest.param(SparseState(2, {True: 1.0 + 0j}), id="sparse_state-True"),
    ])
    def test_initial_index_out_of_range_rejected(self, initial):
        with pytest.raises(ValueError, match="outside|not an integer"):
            run(Circuit(2), initial=initial)

    def test_initial_index_at_the_top(self):
        assert run(Circuit(2, (x_gate(1),)), initial=3).amps == {2: 1.0 + 0j}

    def test_initial_numpy_integer_index(self):
        c = Circuit(2, (x_gate(1),))
        assert run(c, initial=np.int64(3)).amps == {2: 1.0 + 0j}
        state = SparseState(2, {np.int64(1): 1.0 + 0j})
        assert run(c, initial=state).amps == {0: 1.0 + 0j}

    def test_amps_are_a_plain_dict(self):
        # the CLI and callers read .get() and .items() and print the values
        assert run(Circuit(4)).amps == {0: 1.0 + 0j}
        rng = np.random.default_rng(5)
        wide = encode_dense_real(70, 1, rng.normal(size=70)).circuit
        for c in (Circuit(4), random_logical_circuit(rng, 5, 20), wide):
            amps = run(c).amps
            assert type(amps) is dict
            assert all(type(k) is int for k in amps)
            assert all(type(v) is complex for v in amps.values())
        # the one-gate step keeps sorted arrays; only run makes the dict
        idx, amp = apply_gate(*_to_arrays({0: 1.0 + 0j}, 1), ry(0.3, 1))
        assert idx.tolist() == [0, 1]
        assert idx.dtype == np.int64 and amp.dtype == complex

    def test_wide_circuit_round_trips(self):
        # 70 qubits: indices past int64, held as Python ints by the same kernel
        x = np.random.default_rng(70).normal(size=comb(70, 2))
        report = encode_dense_real(70, 2, x)
        state = run(report.circuit)
        got = np.array([state.amps.get(b.to_index(), 0j) for b in report.ordering])
        assert len(state.amps) == len(x)
        assert np.max(np.abs(got - x / np.linalg.norm(x))) < 1e-10


def sparse_fold(circuit, start):
    """``apply_gate`` folded over the circuit from one basis state, pruned as
    ``run`` prunes: the sparse engine at any width."""
    idx, amp = _to_arrays({start: 1.0 + 0j}, circuit.n)
    for g in circuit.gates:
        idx, amp = apply_gate(idx, amp, g)
    keep = np.abs(amp) > PRUNE_TOL
    return dict(zip(idx[keep].tolist(), amp[keep].tolist()))


class TestEnginesAgree:
    """Up to ``_DENSE_QUBITS`` ``run`` evolves a tensor; above, it folds
    ``apply_gate``.  Both form the same products and sums."""

    def assert_agree(self, circuit, start=0):
        assert circuit.n <= _DENSE_QUBITS
        got, want = run(circuit, initial=start).amps, sparse_fold(circuit, start)
        assert list(got) == sorted(want)
        assert max((abs(got[s] - want[s]) for s in want), default=0.0) <= 1e-15

    def test_random_logical_circuits(self):
        # every kind and shape, with controls and anti-controls
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            gates = []
            for shape in rng.choice(SHAPES, size=int(rng.integers(1, 25))):
                axis = rng.normal(size=3)
                gates.append(build_gate(
                    str(shape), [int(w) for w in rng.permutation(n) + 1],
                    tuple(int(c) for c in rng.integers(0, 3, size=4)),
                    rng.uniform(-4, 4), rng.uniform(-4, 4),
                    tuple(axis / np.linalg.norm(axis))))
            self.assert_agree(Circuit(n, tuple(gates)), int(rng.integers(1 << n)))

    def test_lowered_dense_load(self):
        x = np.random.default_rng(8).normal(size=comb(8, 4))
        self.assert_agree(lower(encode_dense_real(8, 4, x).circuit).circuit)

    def test_lowered_sparse_load(self):
        rng = np.random.default_rng(10)
        index = rng.choice(1 << 10, size=12, replace=False)
        values = rng.normal(size=12) + 1j * rng.normal(size=12)
        pairs = [(v, format(int(i), "010b")) for v, i in zip(values, index)]
        report = encode_sparse(10, pairs, sort_by_weight=True)
        self.assert_agree(lower(report.circuit).circuit)


class TestKernel:
    """The array engine against the per-entry reference, gate by gate."""

    @pytest.mark.parametrize("offset", [0, 64], ids=["int64", "wide"])
    def test_matches_dict_loop_on_every_pair_shape(self, offset):
        # offset 64 moves the same gates and states past 64 bits, where the
        # indices are Python ints
        rng = np.random.default_rng(2024 + offset)
        n = 6
        seen = set()
        assert {shape.split()[0] for shape in SHAPES} == set(GATE_KINDS)
        cases = itertools.product(SHAPES, (0.0, math.pi / 2, math.pi, None),
                                  (0.0, None), range(3))
        for shape, theta, phi, _ in cases:
            theta = rng.uniform(-4, 4) if theta is None else theta
            phi = rng.uniform(-4, 4) if phi is None else phi
            axis = rng.normal(size=3)
            axis = (0.0, 0.0, 1.0) if rng.random() < 0.25 else tuple(axis / np.linalg.norm(axis))
            counts = tuple(int(c) for c in rng.integers(0, 3, size=4))
            gate = build_gate(shape, [int(w) for w in rng.permutation(n) + 1],
                              counts, theta, phi, axis)
            amps = {}
            pairs = gate_pairs(gate, n)
            for lo, hi in pairs:
                shape = ("both", "lo", "hi", "neither")[rng.integers(4)]
                seen.add(shape)
                for state, present in ((lo, shape in ("both", "lo")),
                                       (hi, shape in ("both", "hi"))):
                    if present:
                        amps[state] = complex(*rng.uniform(-1, 1, size=2))
            in_pairs = {s for pair in pairs for s in pair}
            for state in range(1 << n):
                if state not in in_pairs and rng.random() < 0.3:
                    amps[state] = complex(*rng.uniform(-1, 1, size=2))
            if amps and rng.random() < 0.2:
                amps[next(iter(amps))] = 0j
            if offset:
                amps = {s << offset: a for s, a in amps.items()}
                gate = dataclasses.replace(gate, **{
                    role: tuple(q + offset for q in getattr(gate, role))
                    for role in ("ins", "outs", "ctrls", "anti_ctrls")})
            got, want = apply_to_amps(amps, gate), dict_loop_apply(amps, gate)
            assert set(got) == set(want), gate
            assert max((abs(got[s] - want[s]) for s in want), default=0.0) <= 1e-15, gate
        assert seen == {"both", "lo", "hi", "neither"}

    @pytest.mark.parametrize("gate", [ry(0.7, 1), rbs(0.7, (1,), (2,))])
    def test_exact_cancellation_drops_the_entry(self, gate):
        # (sin, cos) on a pair cancels exactly on the lo side of Ry and RBS
        c, s = math.cos(0.7), math.sin(0.7)
        lo, hi = (0, 1) if gate.kind == "Ry" else (1, 2)
        amps = {lo: s + 0j, hi: c + 0j}
        assert dict_loop_apply(amps, gate).keys() == {hi}
        assert apply_to_amps(amps, gate).keys() == {hi}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_logical_circuits_match_unitary(self, data):
        n = data.draw(st.integers(2, 6))
        angle = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi]),
                          st.floats(-4, 4, allow_nan=False))
        gates = []
        for _ in range(data.draw(st.integers(0, 12))):
            axis = np.array(data.draw(st.tuples(*[st.floats(-1, 1)] * 3)))
            norm = np.linalg.norm(axis)
            axis = tuple(axis / norm) if norm > 1e-3 else (0.0, 0.0, 1.0)
            gates.append(build_gate(
                data.draw(st.sampled_from(SHAPES)),
                data.draw(st.permutations(range(1, n + 1))),
                data.draw(st.tuples(*[st.integers(0, 2)] * 4)),
                data.draw(angle), data.draw(angle), axis))
        c = Circuit(n, tuple(gates))
        start = data.draw(st.integers(0, (1 << n) - 1))
        np.testing.assert_allclose(run(c, initial=start).as_vector(),
                                   circuit_unitary(c)[:, start], atol=1e-11)


class TestDenseRun:
    def test_matches_unitary_on_cnot_level(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            gates = []
            for _ in range(12):
                roll = rng.random()
                w = rng.permutation(n) + 1
                if roll < 0.3:
                    gates.append(cnot(int(w[0]), int(w[1])))
                elif roll < 0.5:
                    gates.append(x_gate(int(w[0])))
                elif roll < 0.7:
                    gates.append(ry(rng.uniform(-3, 3), int(w[0])))
                elif roll < 0.9:
                    gates.append(rz(rng.uniform(-3, 3), int(w[0])))
                else:
                    ax = rng.normal(size=3)
                    ax /= np.linalg.norm(ax)
                    gates.append(rw(rng.uniform(-3, 3), tuple(ax), int(w[0])))
            c = Circuit(n, tuple(gates), level="cnot")
            np.testing.assert_allclose(
                dense_run(c), circuit_unitary(c)[:, 0], atol=1e-12
            )

    def test_logical_past_12_qubits_matches_sparse(self):
        # a logical circuit's dense view is run's: every amplitude in place
        rng = np.random.default_rng(31)
        x = rng.normal(size=91) + 1j * rng.normal(size=91)
        state = run(encode_dense_complex(14, 2, x).circuit)
        vec = state.as_vector()
        assert vec.shape == (2**14,)
        assert np.count_nonzero(vec) == len(state.amps) == 91
        for i, a in state.amps.items():
            assert vec[i] == a

    def test_logical_circuits_refused(self):
        logical = [encode_dense_real(4, 2, np.arange(1.0, 7.0)).circuit,
                   encode_binary(3, np.arange(1.0, 9.0)).circuit]
        for c in logical:
            assert c.level == "logical"
            with pytest.raises(ValueError, match="lower the circuit first or use run"):
                dense_run(c)
            assert np.allclose(dense_run(lower(c).circuit), run(c).as_vector(),
                               rtol=0, atol=1e-12)

    def test_cnot_level_past_12_qubits(self):
        c = Circuit(14, (x_gate(14), cnot(14, 1), ry(0.5, 7)), level="cnot")
        vec = dense_run(c)
        assert vec[(1 << 13) | 1] == pytest.approx(math.cos(0.5))
        assert vec[(1 << 13) | (1 << 6) | 1] == pytest.approx(math.sin(0.5))

    @pytest.mark.parametrize("index", [-1, 4, True, 1.5])
    def test_initial_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="outside|not an integer"):
            dense_run(Circuit(2, level="cnot"), initial=index)

    def test_initial_numpy_integer_index(self):
        vec = dense_run(Circuit(2, (x_gate(1),), level="cnot"), initial=np.int64(3))
        np.testing.assert_array_equal(vec, [0, 0, 1, 0])

    def test_sparse_agrees_with_dense(self):
        c = Circuit(3, (x_gate(3), cnot(3, 1), ry(0.7, 2), cnot(2, 1)), level="cnot")
        np.testing.assert_allclose(run(c).as_vector(), dense_run(c), atol=1e-12)


class TestSample:
    def test_single_outcome(self):
        s = SparseState(2, {0b10: 1.0 + 0j})
        counts = sample(s, 500, seed=1)
        assert counts == {BitString("10"): 500}

    def test_deterministic(self):
        s = run(Circuit(2, (ry(0.6, 1),)))
        assert sample(s, 1000, seed=7) == sample(s, 1000, seed=7)

    def test_within_statistical_bounds(self):
        theta = math.acos(math.sqrt(0.25))
        s = run(Circuit(1, (ry(theta, 1),)))
        counts = sample(s, 10_000, seed=3)
        p0 = counts[BitString("0")] / 10_000
        sigma = math.sqrt(0.25 * 0.75 / 10_000)
        assert abs(p0 - 0.25) < 4 * sigma


class TestNoise:
    def test_p2_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(1.0)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_rejects_logical(self):
        c = Circuit(2, (rbs(0.3, (2,), (1,)),))
        with pytest.raises(ValueError, match="cnot-level circuit; lower the circuit"):
            run_noisy(c, NoiseModel(0.01), 10, seed=1)

    def test_p2_zero_equals_noiseless(self):
        c = Circuit(2, (ry(0.5, 2), cnot(2, 1)), level="cnot")
        shots = 40_000
        noisy = run_noisy(c, NoiseModel(0.0), shots, seed=11)
        ideal = run(c).probabilities()
        for bits, prob in ideal.items():
            got = noisy.get(bits, 0) / shots
            sigma = math.sqrt(max(prob * (1 - prob), 1e-12) / shots)
            assert abs(got - prob) < 4.5 * sigma

    def test_single_cnot_depolarizing_rates(self):
        # one CNOT on |00>: noise fires with prob p; 3 of the 15 Paulis are
        # diagonal, the rest spread 4/15 onto each other outcome
        p = 0.3
        shots = 60_000
        c = Circuit(2, (cnot(2, 1),), level="cnot")
        counts = run_noisy(c, NoiseModel(p), shots, seed=123)
        want = {
            "00": (1 - p) + 3 * p / 15,
            "01": 4 * p / 15,
            "10": 4 * p / 15,
            "11": 4 * p / 15,
        }
        for bits, prob in want.items():
            got = counts.get(BitString(bits), 0) / shots
            sigma = math.sqrt(prob * (1 - prob) / shots)
            assert abs(got - prob) < 4.5 * sigma, (bits, got, prob)

    def test_deterministic_given_seed(self):
        c = Circuit(3, (ry(0.4, 3), cnot(3, 2), cnot(2, 1)), level="cnot")
        a = run_noisy(c, NoiseModel(0.05), 500, seed=9)
        b = run_noisy(c, NoiseModel(0.05), 500, seed=9)
        assert a == b

    def test_density_matches_trajectory_oracle(self):
        # every Pauli pattern, weighted (1 - p) or p/15 per CNOT, summed
        p = 0.2
        want = np.zeros(8)
        for choice in itertools.product(range(16), repeat=3):
            weight = math.prod(1 - p if ch == 0 else p / 15 for ch in choice)
            state = circuit_unitary(with_paulis(NOISY_CIRCUIT, choice))[:, 0]
            want += weight * np.abs(state) ** 2
        # the stacked kernel's one-circuit case, which run_noisy draws from
        (noisy,), _ = _evolve_stack([NOISY_CIRCUIT], p, {})
        np.testing.assert_allclose(noisy, want, rtol=0, atol=1e-12)

    def test_replay_matches_explicit_paulis(self):
        choices = {
            tuple((s, ch - 1) for s, ch in enumerate(choice) if ch): choice
            for choice in itertools.product(range(16), repeat=3)
        }
        patterns = sorted(choices)
        vectors = list(_replay(NOISY_CIRCUIT, patterns))
        assert len(vectors) == len(patterns) == 4096
        for pattern, vec in zip(patterns, vectors):
            choice = choices[pattern]
            # each explicit Pauli is Rw(pi/2) = i * P
            phase = 1j ** sum((ch >> 2 > 0) + (ch & 3 > 0) for ch in choice)
            np.testing.assert_allclose(
                phase * vec, dense_run(with_paulis(NOISY_CIRCUIT, choice)),
                rtol=0, atol=1e-12,
            )

    def test_replay_golden_digest(self):
        # 10 qubits takes the trajectory replay; the digest pins its counts
        # bitwise for this seed, draw order included
        gates = [ry(0.15 * q, q) for q in range(1, 11)]
        gates += [cnot(q + 1, q) for q in range(1, 10)]
        gates += [rz(0.3, 4), rw(0.8, (0.6, 0.0, 0.8), 7), x_gate(2),
                  cnot(1, 10), cnot(10, 5), ry(-0.4, 5), cnot(3, 8)]
        c = Circuit(10, tuple(gates), level="cnot")
        counts = run_noisy(c, NoiseModel(0.05), 2000, seed=17)
        text = ",".join(f"{b.bits}:{v}" for b, v in
                        sorted(counts.items(), key=lambda kv: kv[0].bits))
        assert len(counts) == 409
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9695d01b519e310be7ae690e730cfcb60dd534c241596c31ab1d419042f69af1")

    def test_error_grows_with_p2(self):
        gates = (ry(0.5, 3), cnot(3, 2), ry(0.4, 2), cnot(2, 1), ry(0.3, 1),
                 cnot(3, 1), cnot(2, 1), cnot(3, 2))
        c = Circuit(3, gates, level="cnot")
        ideal = run(c).probabilities()
        shots = 20_000

        def tv(p2):
            total = 0.0
            for s in (0, 1, 2):
                counts = run_noisy(c, NoiseModel(p2), shots, seed=100 + s)
                freq = {b: v / shots for b, v in counts.items()}
                keys = set(freq) | set(ideal)
                total += 0.5 * sum(
                    abs(freq.get(b, 0) - ideal.get(b, 0)) for b in keys
                )
            return total / 3

        distances = [tv(p2) for p2 in (0.0, 0.005, 0.01, 0.02)]
        assert all(a < b for a, b in zip(distances, distances[1:])), distances


def one_skeleton(rng, n, length, size):
    """``size`` CNOT-level circuits on one random skeleton of ``length``
    positions.  Each circuit after the first redraws about half of the
    first's one-qubit gates and shares the rest."""

    def one_qubit(q):
        theta, axis = float(rng.uniform(-3, 3)), rng.normal(size=3)
        return [ry(theta, q), rz(theta, q),
                rw(theta, axis / np.linalg.norm(axis), q),
                x_gate(q)][rng.integers(4)]

    first = [cnot(*(int(q) for q in rng.choice(n, size=2, replace=False) + 1))
             if n > 1 and rng.random() < 0.4
             else one_qubit(int(rng.integers(1, n + 1)))
             for _ in range(length)]
    circuits = [first] + [
        [g if g.kind == "CNOT" or rng.random() < 0.5 else one_qubit(g.ins[0])
         for g in first]
        for _ in range(size - 1)
    ]
    return [Circuit(n, tuple(gates), level="cnot") for gates in circuits]


def demo_ensemble(config):
    """Near-Clifford proxies of the lowered dense (6, 2) load of 1..15."""
    report = encode_dense_real(6, 2, np.arange(1.0, 16.0))
    return near_clifford_ensemble(lower(report.circuit).circuit, config, seed=3)


def canonical_stack(circuits, p2):
    """The stacked density kernel with the density stack back in canonical
    layout after every gate: a CNOT gathers the permuted rows and columns,
    the depolarizing update goes through an ``np.moveaxis`` view, and a
    one-qubit position transposes into the matmul operand and back.  The
    kernel must match it bit for bit."""
    n, size = circuits[0].n, len(circuits)
    dim = 2**n
    rho = np.zeros((size, dim * dim), dtype=complex)
    rho[:, 0] = 1.0
    psi = np.zeros((size, dim), dtype=complex)
    psi[:, 0] = 1.0
    lam = 16.0 * p2 / 15.0
    for column in zip(*(c.gates for c in circuits)):
        g = column[0]
        if g.kind == "CNOT":
            c, t = g.ctrls[0], g.ins[0]
            index = np.arange(dim)
            perm = index ^ (((index >> (c - 1)) & 1) << (t - 1))
            rho = rho.reshape(size, dim, dim)[:, perm[:, None], perm]
            rho = rho.reshape(size, -1)
            psi = psi[:, perm]
            if lam:
                rows = [1 + n - c, 1 + n - t]
                view = np.moveaxis(rho.reshape((-1,) + (2,) * (2 * n)),
                                   rows + [n + r for r in rows], (0, 1, 2, 3))
                blocks = [(a, b, a, b) for a in (0, 1) for b in (0, 1)]
                traced = sum(view[blk] for blk in blocks) * (lam / 4.0)
                view *= 1.0 - lam
                for blk in blocks:
                    view[blk] += traced
            continue
        us = [_single_qubit_matrix(h) for h in column]
        lo = 1 << (g.ins[0] - 1)
        rho = rho.reshape(size, dim // (2 * lo), 2, -1, 2, lo)
        rho = rho.transpose(0, 2, 4, 1, 3, 5).reshape(size, 4, -1)
        rho = np.matmul(np.array([np.kron(u, u.conj()) for u in us]), rho)
        rho = rho.reshape(size, 2, 2, dim // (2 * lo), -1, lo)
        rho = rho.transpose(0, 3, 1, 4, 2, 5).reshape(size, -1)
        psi = psi.reshape(size, -1, 2, lo).transpose(0, 2, 1, 3).reshape(size, 2, -1)
        psi = np.matmul(np.array(us), psi)
        psi = psi.reshape(size, 2, -1, lo).transpose(0, 2, 1, 3).reshape(size, -1)
    probs = np.clip(rho.reshape(size, dim, dim).diagonal(axis1=1, axis2=2).real,
                    0.0, None)
    return np.array([p / p.sum() for p in probs]), psi


def assert_bitwise_canonical(circuits, p2):
    noisy, amps = _evolve_stack(circuits, p2, {})
    want_noisy, want_amps = canonical_stack(circuits, p2)
    assert noisy.tobytes() == want_noisy.tobytes()
    assert amps.tobytes() == want_amps.tobytes()


class TestKernelBitwise:
    """The stacked kernel keeps its density stack in a tracked axis order,
    and every probability and amplitude it returns is byte for byte the
    canonical-layout kernel's.  Seeded p2 = 0 draws hang on rounding
    residue, so this pins the arithmetic, not just the values."""

    # (n, circuits in the stack, gate positions)
    STACKS = [(1, 11, 30), (2, 7, 40), (3, 1, 40), (4, 5, 50), (5, 11, 60),
              (6, 8, 70), (7, 3, 60), (8, 2, 40), (9, 1, 30)]

    @pytest.mark.parametrize("p2", [0.0, 0.01, 0.2])
    @pytest.mark.parametrize("n, size, length", STACKS)
    def test_random_skeletons(self, n, size, length, p2):
        circuits = one_skeleton(np.random.default_rng(40 + n), n, length, size)
        cnots = [g for g in circuits[0].gates if g.kind == "CNOT"]
        if n > 1:
            # CNOTs whose control sits above the target and below it
            assert {g.ctrls[0] > g.ins[0] for g in cnots} == {True, False}
        assert_bitwise_canonical(circuits, p2)

    @pytest.mark.parametrize("p2", [0.0, 0.01])
    def test_demo_ensemble(self, p2):
        ens = demo_ensemble(CdrConfig((0.5, 0.8, 1.0), circuits_per_rate=5))
        size = _STACK_ENTRIES >> 2 * ens[0].n
        for start in range(0, len(ens), size):
            assert_bitwise_canonical(ens[start:start + size], p2)


def tensordot_1q(vec, q, u):
    t = np.tensordot(u, vec.reshape(-1, 2, 1 << (q - 1)), axes=([1], [1]))
    return t.transpose(1, 0, 2).reshape(-1)


def tensordot_step(vec, g):
    """The dense engine's old step: a CNOT gathers the vector through an
    index permutation and a one-qubit gate is a ``tensordot`` on one axis."""
    if g.kind == "CNOT":
        index = np.arange(vec.size)
        return vec[index ^ (((index >> (g.ctrls[0] - 1)) & 1) << (g.ins[0] - 1))]
    return tensordot_1q(vec, g.ins[0], _single_qubit_matrix(g))


def tensordot_replay(circuit, pattern):
    """One insertion pattern's final vector through the old steps, from
    |0...0>: Pauli pair p after CNOT s is X, Y or Z by divmod(p + 1, 4)."""
    inserts = dict(pattern)
    vec = np.zeros(2**circuit.n, dtype=complex)
    vec[0] = 1.0
    cnots = 0
    for g in circuit.gates:
        vec = tensordot_step(vec, g)
        if g.kind == "CNOT":
            for q, which in zip((g.ctrls[0], g.ins[0]),
                                divmod(inserts.get(cnots, -1) + 1, 4)):
                if which:
                    vec = tensordot_1q(vec, q, PAULI_MATRICES[which])
            cnots += 1
    return vec


class TestDenseStepBitwise:
    """dense_run and trajectory replay share the noisy stack's one-qubit
    step and its in-place CNOT swap, and every vector they return is byte
    for byte the old tensordot-and-gather engine's."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_circuits(self, n):
        rng = np.random.default_rng(80 + n)
        for circ in one_skeleton(rng, n, 60, 3):
            initial = int(rng.integers(2**n))
            want = np.zeros(2**n, dtype=complex)
            want[initial] = 1.0
            for g in circ.gates:
                want = tensordot_step(want, g)
            assert dense_run(circ, initial).tobytes() == want.tobytes()

    def test_replay_of_a_lowered_load(self):
        # the lowered (10, 2) load of 1..45, 232 CNOTs, under the insertion
        # patterns of 60 shots at p2 = 0.02, the noiseless one among them
        report = encode_dense_real(10, 2, np.arange(1.0, 46.0))
        circuit = lower(report.circuit).circuit
        rng = np.random.default_rng(81)
        fire = rng.random((60, circuit.cnot_count)) < 0.02
        pauli = rng.integers(0, 15, size=fire.shape)
        patterns = sorted({tuple((int(s), int(pauli[shot, s]))
                                 for s in np.flatnonzero(fire[shot]))
                           for shot in range(60)} | {()})
        assert len(patterns) > 50
        for pattern, vec in zip(patterns, _replay(circuit, patterns)):
            assert vec.tobytes() == tensordot_replay(circuit, pattern).tobytes()


class TestStackedKernel:
    """The stacked density kernel: each row is bit for bit the one-circuit
    run, whatever the stack, and its statevector rows are dense_run's.  The
    noisy runs feed it in bounded stacks and draw each circuit's counts
    from that circuit's own seed."""

    def assert_rows_are_single_runs(self, circuits, p2):
        noisy, amps = _evolve_stack(circuits, p2, {})
        assert len(noisy) == len(amps) == len(circuits)
        for circ, row, vec in zip(circuits, noisy, amps):
            (alone,), (alone_vec,) = _evolve_stack([circ], p2, {})
            assert np.array_equal(row, alone)
            assert np.array_equal(vec, alone_vec)
            assert np.array_equal(vec, dense_run(circ))

    def assert_runs_are_single_draws(self, circuits, p2, shots=10_000):
        seeds = [100 + j for j in range(len(circuits))]
        runs = list(_noisy_runs(circuits, NoiseModel(p2), shots, seeds))
        assert len(runs) == len(circuits)
        for circ, seed, (counts, amps) in zip(circuits, seeds, runs):
            (alone,), _ = _evolve_stack([circ], p2, {})
            want = np.random.default_rng(seed).multinomial(shots, alone)
            assert np.array_equal(counts, want)
            assert np.array_equal(amps, dense_run(circ))

    @pytest.mark.parametrize("p2", [0.0, 0.01])
    def test_chunked_ensemble_equals_single_runs(self, p2):
        # 15 proxies at n = 6 are not a whole number of stacks
        ens = demo_ensemble(CdrConfig((0.5, 0.8, 1.0), circuits_per_rate=5))
        assert len(ens) % (_STACK_ENTRIES // 4**6) != 0
        self.assert_rows_are_single_runs(ens, p2)
        self.assert_runs_are_single_draws(ens, p2)

    @pytest.mark.parametrize("p2", [0.0, 0.01])
    def test_random_skeleton_stack_equals_single_runs(self, p2):
        circuits = one_skeleton(np.random.default_rng(5), 5, 60, 11)
        self.assert_rows_are_single_runs(circuits, p2)
        self.assert_runs_are_single_draws(circuits, p2)

    def test_nine_qubits_one_circuit_a_stack(self):
        circuits = one_skeleton(np.random.default_rng(9), 9, 30, 3)
        assert _STACK_ENTRIES < 4**9
        self.assert_runs_are_single_draws(circuits, 0.01)

    def test_wider_circuits_run_trajectories_one_at_a_time(self):
        circuits = one_skeleton(np.random.default_rng(10), 10, 30, 3)
        runs = list(_noisy_runs(circuits, NoiseModel(0.02), 200, [7, 8, 9]))
        for circ, seed, (counts, amps) in zip(circuits, [7, 8, 9], runs):
            want = _trajectory_counts(circ, 0.02, 200, np.random.default_rng(seed))
            assert np.array_equal(counts, want)
            assert np.array_equal(amps, dense_run(circ))

    def test_rows_are_distributions(self):
        ens = demo_ensemble(CdrConfig((1.0,), circuits_per_rate=9))
        for noisy, amps in zip(*_evolve_stack(ens, 0.02, {})):
            assert np.all(noisy >= 0.0)
            assert abs(noisy.sum() - 1.0) < 1e-12
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12

    def test_checks_before_running(self):
        circuits = one_skeleton(np.random.default_rng(4), 3, 12, 2)
        logical = Circuit(3, (ry(0.4, 1, ctrls=(2,)),) + circuits[0].gates[1:])
        cases = [
            (circuits, 0, "need at least one shot"),
            ([circuits[0], logical], 10, "circuit 1 is logical"),
            ([Circuit(17, level="cnot")], 10, "limited to 16 qubits"),
        ]
        for stack, shots, message in cases:
            with pytest.raises(ValueError, match=message):
                next(_noisy_runs(stack, NoiseModel(0.01), shots, [1, 2]))
