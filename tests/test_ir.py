"""Gate semantics, validation, serialization and QASM emission."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hwenc.compiler import lower
from hwenc.ir import (
    GATE_KINDS,
    Circuit,
    Gate,
    SerializationError,
    _as_labels,
    apply_to_basis_state,
    circuit_unitary,
    cnot,
    deserialize,
    emit_qasm,
    gate_unitary,
    rbs,
    rw,
    rw_matrix,
    ry,
    rz,
    serialize,
    x_gate,
    zyz_angles,
)


def assert_unitary(u):
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("Hadamard", ins=(1,))

    def test_role_overlap(self):
        with pytest.raises(ValueError, match="two roles"):
            rbs(0.1, (2,), (2,))
        with pytest.raises(ValueError, match="two roles"):
            ry(0.1, 1, ctrls=(1,))

    def test_x_refuses_controls(self):
        with pytest.raises(ValueError, match="use CNOT"):
            Gate("X", ins=(1,), ctrls=(2,))

    def test_angle_requirements(self):
        with pytest.raises(ValueError, match="theta required"):
            Gate("Ry", ins=(1,))
        with pytest.raises(ValueError, match="phi required"):
            Gate("Rz", ins=(1,))
        with pytest.raises(ValueError, match="phi not allowed"):
            Gate("Ry", theta=0.3, phi=0.1, ins=(1,))
        with pytest.raises(ValueError, match="theta required"):
            Gate("RBS", phi=0.1, ins=(1,), outs=(2,))
        with pytest.raises(ValueError, match="theta not allowed"):
            Gate("Rz", theta=0.2, phi=0.1, ins=(1,))
        # an RBS phase is optional, and absent it reads as 0
        np.testing.assert_array_equal(gate_unitary(rbs(0.3, (2,), (1,)), 2),
                                      gate_unitary(rbs(0.3, (2,), (1,), 0.0), 2))

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            rw(0.1, (1.0, 1.0, 0.0), 1)

    def test_grbs_empty_ins_allowed(self):
        g = rbs(0.2, (), (1, 2))
        assert g.ins == ()

    def test_grbs_needs_out(self):
        with pytest.raises(ValueError, match="out-wire"):
            rbs(0.2, (1,), ())

    def test_circuit_label_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            Circuit(2, (ry(0.1, 3),))

    def test_circuit_label_range_every_role(self):
        # the highest label of each gate may sit in any of its four roles
        for gate in (
            rbs(0.1, (1,), (4,)),
            rbs(0.1, (2,), (4, 1)),
            ry(0.1, 1, ctrls=(4, 2)),
            rz(0.1, 2, ctrls=(1,), anti_ctrls=(4, 3)),
            cnot(4, 1),
        ):
            with pytest.raises(ValueError, match="gate 1: label 4 exceeds 3 qubits"):
                Circuit(3, (x_gate(1), gate))
            Circuit(4, (x_gate(1), gate))  # fine

    def test_cnot_level_restrictions(self):
        with pytest.raises(ValueError, match="not allowed at cnot level"):
            Circuit(2, (rbs(0.1, (2,), (1,)),), level="cnot")
        with pytest.raises(ValueError, match="controlled Ry"):
            Circuit(3, (ry(0.1, 1, ctrls=(2,)),), level="cnot")
        Circuit(2, (cnot(2, 1), ry(0.1, 1)), level="cnot")  # fine

    @pytest.mark.parametrize("level, bad, message", [
        ("logical", ry(0.1, 4), "label 4 exceeds 3 qubits"),
        ("cnot", cnot(4, 1), "label 4 exceeds 3 qubits"),
        ("cnot", rbs(0.1, (2,), (1,)), "RBS not allowed at cnot level"),
        ("cnot", ry(0.1, 1, ctrls=(2,)), "controlled Ry at cnot level"),
    ])
    def test_reused_gate_reports_its_first_index(self, level, bad, message):
        # a checked gate object is skipped at later positions, so the error
        # must still name the first one, also after valid (and reused) gates
        ok = ry(0.2, 1)
        for gates, first in (
            ((bad, ok, bad), 0),
            ((ok, cnot(2, 1), ok, bad, x_gate(1), bad, bad), 3),
            ((x_gate(3), x_gate(3), ok, bad), 3),
        ):
            with pytest.raises(ValueError, match=f"^gate {first}: {message}$"):
                Circuit(3, gates, level=level)


def reference_labels(values, what):
    """Plain label validation: every label a positive int (not bool), no repeats."""
    labels = tuple(values)
    for q in labels:
        if type(q) is bool or not isinstance(q, int) or q < 1:
            raise ValueError(f"{what} must be positive integer labels, got {q!r}")
    if len(labels) != len(set(labels)):
        raise ValueError(f"duplicate label in {what}: {labels}")
    return tuple(sorted(labels))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return "error", str(err)


class TestLabelValidation:
    @pytest.mark.parametrize("bad", [True, np.int64(1), 0, -1])
    def test_rejects_non_labels(self, bad):
        x_gate(1), cnot(2, 1)  # cached int-labelled gates must not answer for bad
        message = f"must be positive integer labels, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match="ins " + message):
            x_gate(bad)
        with pytest.raises(ValueError, match="ins " + message):
            Gate("Ry", theta=0.1, ins=(bad,))
        with pytest.raises(ValueError, match="ctrls " + message):
            cnot(bad, 1)
        with pytest.raises(ValueError, match="ins " + message):
            cnot(2, bad)
        with pytest.raises(ValueError, match="outs " + message):
            rbs(0.1, (2,), (bad,))
        with pytest.raises(ValueError, match="anti_ctrls " + message):
            ry(0.1, 2, anti_ctrls=(bad,))

    def test_rejects_duplicates_and_shared_roles(self):
        with pytest.raises(ValueError, match=re.escape("duplicate label in outs: (3, 3)")):
            rbs(0.1, (1,), (3, 3))
        with pytest.raises(ValueError, match=re.escape("duplicate label in ctrls: (2, 2)")):
            ry(0.1, 1, ctrls=(2, 2))
        with pytest.raises(ValueError, match=re.escape("CNOT: a qubit appears in two roles: (1, 1)")):
            cnot(1, 1)
        with pytest.raises(ValueError, match=re.escape("Rz: a qubit appears in two roles: (1, 2, 1)")):
            rz(0.1, 1, ctrls=(2,), anti_ctrls=(1,))

    @given(st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.just(np.int64(3)),
                              st.just(2.0)), max_size=4),
           st.booleans())
    def test_agrees_with_reference(self, values, as_tuple):
        values = tuple(values) if as_tuple else values
        assert outcome(_as_labels, values, "ctrls") == outcome(reference_labels, values, "ctrls")

    def test_cached_gates_are_reused(self):
        assert cnot(3, 1) is cnot(3, 1)
        assert x_gate(2) is x_gate(2)


class TestAngleValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.3", 0.3 + 0j, None])
    def test_rejects_non_finite_and_non_numeric(self, bad):
        if bad is not None:
            with pytest.raises(ValueError, match="theta must be a finite real number"):
                ry(bad, 1)
            with pytest.raises(ValueError, match="phi must be a finite real number"):
                rbs(0.1, (1,), (2,), bad, ctrls=(3,))
            with pytest.raises(ValueError, match="theta must be a finite real number"):
                rbs(bad, (1,), (2,), ctrls=(3,))
        with pytest.raises(ValueError, match="axis component must be a finite real number"):
            rw(0.1, (bad, 0.0, 0.0), 1)

    def test_accepts_numpy_and_integer_angles(self):
        assert ry(np.float64(0.3), 1).theta == 0.3
        assert rz(0, 1).phi == 0
        assert rw(np.float32(0.5), (0, np.float64(1.0), 0), 1).axis == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("angle", ["NaN", "Infinity", "-Infinity", '"0.3"'])
    def test_deserialize_rejects_bad_angles(self, angle):
        text = ('{"n":2,"level":"logical","gates":[{"kind":"RBS","theta":%s,'
                '"ins":[1],"outs":[2],"ctrls":[],"anti_ctrls":[]}]}' % angle)
        with pytest.raises(SerializationError, match="gate 0: theta must be a finite"):
            deserialize(text)
        axis = ('{"n":1,"level":"cnot","gates":[{"kind":"Rw","theta":0.1,'
                '"axis":[%s,0,0],"ins":[1]}]}' % angle)
        with pytest.raises(SerializationError, match="gate 0: axis component"):
            deserialize(axis)


class TestSingleQubitSemantics:
    def test_x(self):
        u = gate_unitary(x_gate(1), 1)
        np.testing.assert_allclose(u, [[0, 1], [1, 0]], atol=1e-15)

    def test_ry_half_angle_free(self):
        u = gate_unitary(ry(0.3, 1), 1)
        c, s = math.cos(0.3), math.sin(0.3)
        np.testing.assert_allclose(u, [[c, -s], [s, c]], atol=1e-15)

    def test_rz(self):
        u = gate_unitary(rz(0.4, 1), 1)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-15
        )

    def test_rz_sets_the_phase_of_zero(self):
        # the complex encoders' global phase: Rz(-p)|0> = exp(ip)|0>
        out = apply_to_basis_state(rz(-0.7, 1), 0)
        assert out == {0: pytest.approx(np.exp(0.7j))}

    def test_rw_plus_sign(self):
        # along Z: exp(+i t Z) = diag(exp(it), exp(-it)) = Rz(-t)
        u = gate_unitary(rw(0.5, (0, 0, 1), 1), 1)
        np.testing.assert_allclose(u, np.diag([np.exp(0.5j), np.exp(-0.5j)]), atol=1e-14)
        # along Y: exp(+i t Y) = Ry(-t)
        uy = rw_matrix(0.5, (0, 1, 0))
        np.testing.assert_allclose(uy, gate_unitary(ry(-0.5, 1), 1), atol=1e-14)

    def test_rw_random_axes_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            assert_unitary(rw_matrix(rng.uniform(-3, 3), tuple(ax)))

    def test_controls_gate_the_action(self):
        g = ry(0.3, 1, ctrls=(2,), anti_ctrls=(3,))
        # control clear: identity
        assert apply_to_basis_state(g, 0b000) == {0b000: 1.0 + 0j}
        # anti-control set: identity
        assert apply_to_basis_state(g, 0b110) == {0b110: 1.0 + 0j}
        # fires
        out = apply_to_basis_state(g, 0b010)
        assert out[0b010] == pytest.approx(math.cos(0.3))
        assert out[0b011] == pytest.approx(math.sin(0.3))

    def test_cnot(self):
        u = gate_unitary(cnot(2, 1), 2)
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[1, 1] = 1  # control (bit 1) clear
        expect[3, 2] = expect[2, 3] = 1  # control set: flip bit 0
        np.testing.assert_allclose(u, expect, atol=1e-15)


class TestMixingSemantics:
    def test_rbs_identity_at_zero(self):
        u = gate_unitary(rbs(0.0, (2,), (1,)), 2)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_rbs_block(self):
        t = 0.37
        u = gate_unitary(rbs(t, (2,), (1,)), 2)
        c, s = math.cos(t), math.sin(t)
        # b = |10> = index 2, b' = |01> = index 1
        assert u[2, 2] == pytest.approx(c)
        assert u[1, 2] == pytest.approx(s)
        assert u[2, 1] == pytest.approx(-s)
        assert u[1, 1] == pytest.approx(c)
        assert u[0, 0] == 1 and u[3, 3] == 1
        assert_unitary(u)

    def test_complex_rbs_block(self):
        t, p = 0.37, 0.91
        u = gate_unitary(rbs(t, (2,), (1,), p), 2)
        c, s = math.cos(t), math.sin(t)
        fwd, bwd = np.exp(1j * p), np.exp(-1j * p)
        assert u[2, 2] == pytest.approx(fwd * c)
        assert u[1, 2] == pytest.approx(bwd * s)
        assert u[2, 1] == pytest.approx(-fwd * s)
        assert u[1, 1] == pytest.approx(bwd * c)
        assert_unitary(u)

    def test_controlled_rbs_fires_only_when_armed(self):
        g = rbs(0.3, (2,), (1,), ctrls=(3,))
        assert apply_to_basis_state(g, 0b010) == {0b010: 1.0 + 0j}
        out = apply_to_basis_state(g, 0b110)
        assert out[0b110] == pytest.approx(math.cos(0.3))
        assert out[0b101] == pytest.approx(math.sin(0.3))

    def test_grbs_weight_arithmetic(self):
        # 2 ins, 1 out: eligible weight-w states map into weights {w, w-1}
        g = rbs(0.3, (3, 2), (1,), 0.1)
        out = apply_to_basis_state(g, 0b110)
        assert set(out) == {0b110, 0b001}
        u = gate_unitary(g, 3)
        assert_unitary(u)

    def test_grbs_equal_arity_preserves_weight(self):
        g = rbs(0.5, (4, 3), (2, 1), 0.2)
        u = gate_unitary(g, 4)
        for col in range(16):
            w = bin(col).count("1")
            rows = np.nonzero(np.abs(u[:, col]) > 1e-12)[0]
            assert all(bin(int(r)).count("1") == w for r in rows)
        assert_unitary(u)

    def test_grbs_no_ins(self):
        # raises weight on the out wires, controlled by nothing
        g = rbs(0.4, (), (2, 1))
        out = apply_to_basis_state(g, 0b00)
        assert out[0b00] == pytest.approx(math.cos(0.4))
        assert out[0b11] == pytest.approx(math.sin(0.4))
        assert_unitary(gate_unitary(g, 2))

    def test_spectator_states_fixed(self):
        g = rbs(0.3, (2,), (1,))
        # partially matching pattern: in-wire 1 but out-wire also 1
        assert apply_to_basis_state(g, 0b11) == {0b11: 1.0 + 0j}

    def test_unitary_guard(self):
        with pytest.raises(ValueError, match="12 qubits"):
            gate_unitary(x_gate(1), 13)


@st.composite
def logical_gates(draw, n):
    """One gate of any kind on n qubits, with random angles and wires."""
    kind = draw(st.sampled_from(GATE_KINDS))
    wires = draw(st.permutations(range(1, n + 1)))
    if kind == "CNOT":
        return cnot(wires[0], wires[1])
    if kind == "X":
        return x_gate(wires[0])
    if kind == "RBS":
        # two-wire or wide, real or phased
        m = draw(st.integers(0, min(2, n - 1)))
        mp = draw(st.integers(1, min(2, n - m)))
    else:
        m, mp = 1, 0
    rest = wires[m + mp:]
    c = draw(st.integers(0, len(rest)))
    a = draw(st.integers(0, len(rest) - c))
    angle = st.floats(-10.0, 10.0)
    axis = None
    if kind == "Rw":
        v = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: math.hypot(*v) > 1e-3))
        axis = tuple(x / math.hypot(*v) for x in v)
    phased = kind == "Rz" or (kind == "RBS" and draw(st.booleans()))
    return Gate(
        kind,
        theta=draw(angle) if kind in ("Ry", "Rw", "RBS") else None,
        phi=draw(angle) if phased else None,
        axis=axis,
        ins=tuple(wires[:m]),
        outs=tuple(wires[m:m + mp]),
        ctrls=tuple(rest[:c]),
        anti_ctrls=tuple(rest[c:c + a]),
    )


@st.composite
def logical_circuits(draw):
    n = draw(st.integers(2, 6))
    return Circuit(n, tuple(draw(st.lists(logical_gates(n), max_size=8))))


class TestSerialization:
    @given(logical_circuits())
    def test_random_logical_circuits_round_trip(self, circuit):
        assert deserialize(serialize(circuit)) == circuit

    def round_trip(self, circuit):
        text = serialize(circuit)
        back = deserialize(text)
        assert back == circuit
        return text

    def test_empty(self):
        text = self.round_trip(Circuit(6))
        assert '"n": 6' in text

    def test_all_kinds(self):
        c = Circuit(
            4,
            (
                x_gate(4),
                ry(0.1, 1, ctrls=(2,)),
                rz(0.2, 2, anti_ctrls=(3,)),
                rw(0.3, (0.0, 0.0, 1.0), 3),
                rbs(0.5, (2,), (1,)),
                rbs(0.6, (3,), (1,), 0.7, ctrls=(2,)),
                rbs(0.8, (4, 3), (2, 1), 0.9),
            ),
        )
        self.round_trip(c)

    def test_cnot_level_round_trip(self):
        c = Circuit(3, (cnot(3, 1), ry(0.25, 2), rz(-1.5, 3)), level="cnot")
        self.round_trip(c)

    def test_unknown_kind_named(self):
        with pytest.raises(SerializationError, match="gate 0.*'Toffoli'"):
            deserialize('{"n":2,"level":"logical","gates":[{"kind":"Toffoli"}]}')

    @pytest.mark.parametrize("gate", [
        '{"kind":"AntiPhase","phi":0.3,"ins":[1]}',
        '{"kind":"ComplexRBS","theta":0.3,"phi":0.2,"ins":[2],"outs":[1]}',
        '{"kind":"GRBS","theta":0.3,"phi":0.0,"ins":[],"outs":[1,2]}',
    ])
    def test_retired_kinds_refused(self, gate):
        # one RBS kind replaced these three; their JSON is not translated
        kind = json.loads(gate)["kind"]
        text = '{"n":2,"level":"logical","gates":[%s]}' % gate
        with pytest.raises(SerializationError, match=f"gate 0: unknown kind '{kind}'"):
            deserialize(text)

    def test_bad_gate_indexed(self):
        text = (
            '{"n":2,"level":"logical","gates":['
            '{"kind":"X","ins":[1],"outs":[],"ctrls":[],"anti_ctrls":[]},'
            '{"kind":"Ry","ins":[1],"outs":[],"ctrls":[],"anti_ctrls":[]}]}'
        )
        with pytest.raises(SerializationError, match="gate 1"):
            deserialize(text)

    def test_missing_keys(self):
        with pytest.raises(SerializationError, match="missing top-level key"):
            deserialize('{"n": 2}')

    def test_not_json(self):
        with pytest.raises(SerializationError, match="not valid JSON"):
            deserialize("qreg q[2];")


class TestQasm:
    GRAMMAR = re.compile(
        r"^OPENQASM 2\.0;\n"
        r'include "qelib1\.inc";\n'
        r"qreg q\[\d+\];\n"
        r"((x q\[\d+\];|ry\([^)]+\) q\[\d+\];|rz\([^)]+\) q\[\d+\];"
        r"|cx q\[\d+\],q\[\d+\];)\n)*$"
    )

    def test_rejects_logical(self):
        with pytest.raises(ValueError, match="cnot-level"):
            emit_qasm(Circuit(2, (rbs(0.1, (2,), (1,)),)))

    def test_single_x_wire_mapping(self):
        text = emit_qasm(Circuit(2, (x_gate(1),), level="cnot"))
        assert "x q[1];" in text  # label 1 is wire n-1

    def test_angle_doubling(self):
        text = emit_qasm(Circuit(1, (ry(math.pi / 4, 1),), level="cnot"))
        assert f"ry({math.pi / 2:.17g})" in text

    def test_grammar(self):
        c = Circuit(
            3,
            (x_gate(3), ry(0.2, 1), cnot(3, 1), rz(-0.4, 2),
             rw(0.3, (0.6, 0.0, 0.8), 2)),
            level="cnot",
        )
        assert self.GRAMMAR.match(emit_qasm(c))

    def test_reused_gates_emit_like_distinct_copies(self):
        # lowered circuits hold one frozen gate object at several positions;
        # formatting each object once must not change the text
        a = rw(0.3, (0.6, 0.0, 0.8), 2)
        b, c = ry(-0.7, 1), rz(1e-300, 3)
        shared = (a, cnot(3, 1), b, a, x_gate(2), cnot(3, 1), b, c, a, x_gate(2), c)
        lowered = lower(Circuit(4, (
            rw(0.9, (0.48, -0.6, 0.64), 4, ctrls=(1, 2), anti_ctrls=(3,)),
            rbs(0.4, (1,), (2,), ctrls=(3, 4)),
        ))).circuit.gates
        for n, gates in ((3, shared), (4, lowered)):
            assert len({id(g) for g in gates}) < len(gates)
            copies = tuple(dataclasses.replace(g) for g in gates)
            assert len({id(g) for g in copies}) == len(copies)
            text = emit_qasm(Circuit(n, gates, level="cnot"))
            assert text == emit_qasm(Circuit(n, copies, level="cnot"))
            # and gate by gate, each emitted on its own
            header = emit_qasm(Circuit(n, (), level="cnot"))
            assert text == header + "".join(
                emit_qasm(Circuit(n, (g,), level="cnot"))[len(header):] for g in gates)

    def test_zyz_reconstructs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            u = rw_matrix(rng.uniform(-3, 3), tuple(ax))
            a, b, c = zyz_angles(u)
            rebuilt = (
                gate_unitary(rz(a, 1), 1)
                @ gate_unitary(ry(b, 1), 1)
                @ gate_unitary(rz(c, 1), 1)
            )
            np.testing.assert_allclose(rebuilt, u, atol=1e-12)


class TestCircuitUnitary:
    def test_order_is_first_gate_rightmost(self):
        c = Circuit(1, (x_gate(1), ry(0.3, 1)))
        expect = gate_unitary(ry(0.3, 1), 1) @ gate_unitary(x_gate(1), 1)
        np.testing.assert_allclose(circuit_unitary(c), expect, atol=1e-15)

    def test_composite_is_unitary(self):
        c = Circuit(3, (rbs(0.3, (3,), (1,)), rbs(0.2, (2,), (1,), 0.4, ctrls=(3,))))
        assert_unitary(circuit_unitary(c))
