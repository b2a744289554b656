"""Compiler tests: unitary equivalence up to global phase, CNOT counts."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwenc import compiler
from hwenc.compiler import (
    LoweringResult,
    _mixing_bottom,
    _rbs_top,
    axis_angle,
    compile_mcry,
    lower,
    lower_gate,
    phase_distance,
)
from hwenc.counting import gate_cnot_bound
from hwenc.encoders import encode_binary, encode_dense_complex, encode_dense_real, encode_sparse
from hwenc.ir import (
    CNOT_LEVEL_KINDS,
    GATE_KINDS,
    Circuit,
    Gate,
    _mixing_matrix,
    _single_qubit_matrix,
    circuit_unitary,
    cnot,
    emit_qasm,
    gate_unitary,
    rbs,
    rw,
    ry,
    rz,
    serialize,
    x_gate,
)
from test_encoders import GOLDEN_FAMILIES, rounded

TOL = 1e-9


def cnots(gates) -> int:
    return sum(1 for g in gates if g.kind == "CNOT")


def lowered_unitary(gates, n):
    return circuit_unitary(Circuit(n=n, gates=tuple(gates), level="cnot"))


def assert_equivalent(gate, lowered, n, tol=TOL):
    dist = phase_distance(gate_unitary(gate, n), lowered_unitary(lowered, n))
    assert dist < tol, (gate.kind, gate.ins, gate.outs, gate.ctrls, dist)


def random_wiring(rng, n, used):
    """Split the remaining wires into (ctrls, anti_ctrls) at random."""
    rest = [q for q in range(1, n + 1) if q not in used]
    rng.shuffle(rest)
    ell = int(rng.integers(0, len(rest) + 1))
    cut = int(rng.integers(0, ell + 1))
    return tuple(sorted(rest[cut:ell])), tuple(sorted(rest[:cut]))


class TestAxisAngle:
    def test_random_round_trip(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            lam, (ax, ay, az) = axis_angle(q)
            w = np.array([[az, ax - 1j * ay], [ax + 1j * ay, -az]])
            rec = np.cos(lam) * np.eye(2) + 1j * np.sin(lam) * w
            assert phase_distance(q, rec) < 1e-12

    def test_identity_and_sign_flip(self):
        lam, _ = axis_angle(np.eye(2))
        assert lam == 0.0
        lam, _ = axis_angle(-np.eye(2))
        assert lam == pytest.approx(np.pi)

    def test_phase_distance_detects_difference(self):
        u = np.eye(2)
        assert phase_distance(u, 1j * u) < 1e-15
        assert phase_distance(u, np.diag([1.0, -1.0])) > 0.5


class TestMultiplexedRotations:
    def test_equivalence_hundred_draws_per_kind(self):
        rng = np.random.default_rng(51)
        for kind in ("Ry", "Rz", "Rw"):
            for _ in range(100):
                n = int(rng.integers(1, 7))
                t = int(rng.integers(1, n + 1))
                ctrls, antis = random_wiring(rng, n, {t})
                ang = float(rng.uniform(-2 * np.pi, 2 * np.pi))
                if kind == "Ry":
                    g = ry(ang, t, ctrls=ctrls, anti_ctrls=antis)
                elif kind == "Rz":
                    g = rz(ang, t, ctrls=ctrls, anti_ctrls=antis)
                else:
                    ax = rng.normal(size=3)
                    ax /= np.linalg.norm(ax)
                    g = rw(ang, tuple(ax), t, ctrls=ctrls, anti_ctrls=antis)
                assert_equivalent(g, compile_mcry(g), n)

    def test_cnot_count_is_power_of_two(self):
        for ell in range(5):
            g = ry(0.7, 6, ctrls=tuple(range(1, ell + 1)))
            assert cnots(compile_mcry(g)) == (0 if ell == 0 else 2**ell)
            g = rz(0.7, 6, ctrls=tuple(range(1, ell + 1)))
            assert cnots(compile_mcry(g)) == (0 if ell == 0 else 2**ell)

    def test_generic_axis_adds_no_cnots(self):
        ax = (0.6, 0.0, 0.8)
        g = rw(0.9, ax, 5, ctrls=(1, 2, 3))
        assert cnots(compile_mcry(g)) == 8

    def test_uncontrolled_passthrough(self):
        assert compile_mcry(ry(0.3, 2)) == [ry(0.3, 2)]
        assert compile_mcry(rz(0.3, 2)) == [rz(0.3, 2)]

    def test_zero_angle_vanishes(self):
        ax = (0.6, 0.0, 0.8)
        assert compile_mcry(rw(0.0, ax, 3, ctrls=(1, 2))) == []
        assert compile_mcry(rw(2 * np.pi, ax, 3, ctrls=(1,))) == []
        # anti-controls leave no X pair around the empty rotation
        assert compile_mcry(ry(0.0, 3, ctrls=(1,), anti_ctrls=(2, 4))) == []
        assert compile_mcry(rz(0.0, 3, anti_ctrls=(1, 2, 4, 5, 6, 7, 8))) == []

    def test_identity_mixing_gates_lower_to_nothing(self):
        # a mirrored load of trailing zeros: each zero is an RBS with theta
        # = 0 under an anti-control, and its ladder goes with its rotation
        from hwenc.simulator import run

        x = np.array(list(range(1, 21)) + [0] * 16, dtype=float)
        rep = encode_dense_real(9, 7, x)
        zeros = [g for g in rep.circuit.gates if g.kind == "RBS" and g.theta == 0.0]
        assert len(zeros) == 16
        for g in zeros:
            assert g.anti_ctrls and lower_gate(g) == [], g
        lowered = lower(rep.circuit)
        assert lowered.cnot_total == 86
        want = {b.to_index(): v for b, v in zip(rep.ordering, x / np.linalg.norm(x))}
        got = run(lowered.circuit).as_vector()
        assert np.max(np.abs(got - [want.get(i, 0.0) for i in range(2**9)])) < 1e-12

    def test_half_turn_generic_axis(self):
        # exp(i*pi*W) = -I for every axis; the lowering must reproduce
        # the controlled phase exactly
        ax = np.array([0.48, -0.6, 0.64])
        ax /= np.linalg.norm(ax)
        g = rw(np.pi, tuple(ax), 3, ctrls=(1, 2))
        lowered = compile_mcry(g)
        assert_equivalent(g, lowered, 3)
        assert all(x.kind in ("Ry", "CNOT") for x in lowered)

    def test_anti_controls_wrap_in_x(self):
        g = ry(0.5, 3, ctrls=(1,), anti_ctrls=(2,))
        lowered = compile_mcry(g)
        assert lowered[0].kind == "X" and lowered[0].target == 2
        assert lowered[-1].kind == "X" and lowered[-1].target == 2
        assert_equivalent(g, lowered, 3)

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="compile_mcry"):
            compile_mcry(rbs(0.3, (1,), (2,)))


def oracle_multiplexed(tau, target, ctrls):
    """The Gray-code stack with every step built fresh as ry(sign * tau / size)."""
    size = 1 << len(ctrls)
    gates = []
    for j in range(size):
        gray = j ^ (j >> 1)
        sign = -1.0 if bin(gray).count("1") % 2 else 1.0
        wire = len(ctrls) - 1 if j == size - 1 else ((j + 1) & -(j + 1)).bit_length() - 1
        gates.append(ry(sign * tau / size, target))
        gates.append(cnot(ctrls[wire], target))
    return gates


class TestSharedStackRotations:
    """_multiplexed builds two rotations per stack; the output must not change."""

    # subnormal angles make tau / 2^ell round, so the sign-symmetry of that
    # rounding is exercised, not just exact exponent shifts
    SUBNORMAL = (7 * 5e-324, -3 * 5e-324, 1e-310 + 13 * 5e-324)

    @staticmethod
    def gates(rng, ell):
        n = ell + 2
        t = int(rng.integers(1, n + 1))
        rest = [int(q) for q in rng.permutation([q for q in range(1, n + 1) if q != t])]
        cut = int(rng.integers(0, ell + 1))
        ctrls, antis = tuple(sorted(rest[cut:ell])), tuple(sorted(rest[:cut]))
        ax = rng.normal(size=3)
        # every axis is turned into Y, so every stack is an Ry stack
        axes = ((0.0, -1.0, 0.0), (0.0, 0.0, 1.0), tuple(ax / np.linalg.norm(ax)))
        for tau in (0.1, -np.pi / 3, 2.5, 1e3 + 0.1, 5e-12, float(rng.uniform(-7, 7))):
            yield n, ry(tau, t, ctrls=ctrls, anti_ctrls=antis)
            yield n, rz(tau, t, ctrls=ctrls, anti_ctrls=antis)
            for axis in axes:
                yield n, rw(tau, axis, t, ctrls=ctrls, anti_ctrls=antis)

    def test_lower_matches_fresh_oracle(self, monkeypatch):
        rng = np.random.default_rng(58)
        cases = [(n, g) for ell in range(9) for n, g in self.gates(rng, ell)]
        got = [lower(Circuit(n, (g,))).circuit for n, g in cases]
        monkeypatch.setattr(compiler, "_multiplexed", oracle_multiplexed)
        for (n, g), circuit in zip(cases, got):
            want = lower(Circuit(n, (g,))).circuit
            assert circuit.gates == want.gates, g
            assert serialize(circuit) == serialize(want), g
            ell = len(g.ctrls) + len(g.anti_ctrls)
            if ell >= 7:
                continue  # the linear construction, not a stack
            rotations = [x for x in circuit.gates if x.kind == "Ry"]
            if ell >= 2:
                assert len(rotations) == 1 << ell, g
            # a regression to one object per step would hold 2^ell of them
            assert len({id(x) for x in rotations}) <= 2, g

    def test_inexact_division_matches_oracle(self):
        for ell in range(1, 9):
            ctrls = tuple(range(1, ell + 1))
            for tau in self.SUBNORMAL + (0.0, -0.0, 0.3):
                got = compiler._multiplexed(tau, ell + 1, ctrls)
                want = oracle_multiplexed(tau, ell + 1, ctrls)
                assert got == want
                assert [repr(x) for x in got] == [repr(x) for x in want]
                assert len({id(x) for x in got[::2]}) == 2


class TestUniformlyControlled:
    """One Gray-code stack applies its own angle on each control pattern."""

    @pytest.mark.parametrize("make", [ry, rz], ids=["Ry", "Rz"])
    def test_each_pattern_gets_its_angle(self, make):
        rng = np.random.default_rng(60)
        for ell in range(6):
            n = ell + 1
            target = int(rng.integers(1, n + 1))
            ctrls = tuple(q for q in range(1, n + 1) if q != target)
            angles = rng.uniform(-4.0, 4.0, size=1 << ell)
            got = compiler.uniformly_controlled(make, angles, target, ctrls)
            assert cnots(got) == (1 << ell if ell else 0)
            # one rotation per pattern, under the controls that read 1 in it
            # and the anti-controls that read 0; exact, not up to a phase
            want = [
                make(a, target,
                     ctrls=tuple(c for i, c in enumerate(ctrls) if p >> i & 1),
                     anti_ctrls=tuple(c for i, c in enumerate(ctrls) if not p >> i & 1))
                for p, a in enumerate(angles)
            ]
            diff = circuit_unitary(Circuit(n, got)) - circuit_unitary(Circuit(n, want))
            assert np.max(np.abs(diff)) < 1e-12, (ell, make)

    def test_one_angle_is_the_multiplexor(self):
        for ell in range(1, 7):
            ctrls = tuple(range(2, ell + 2))
            for tau in TestSharedStackRotations.SUBNORMAL + (0.3, -2.5):
                angles = [0.0] * ((1 << ell) - 1) + [tau]
                got = compiler.uniformly_controlled(ry, angles, 1, ctrls)
                want = compiler._multiplexed(tau, 1, ctrls)
                assert [(g.kind, g.theta, g.ctrls) for g in got] == [
                    (g.kind, g.theta, g.ctrls) for g in want]

    def test_angle_count_must_match(self):
        with pytest.raises(ValueError, match="need 4 angles for 2 controls"):
            compiler.uniformly_controlled(ry, [0.1, 0.2], 1, (2, 3))


def pushed_unitary(gates, n, u=None):
    """Unitary of CNOT-level gates, all identity columns pushed through at once.

    A CNOT permutes rows and a one-qubit gate is a 2x2 on one row axis, so
    ten wires take a fraction of a second where circuit_unitary takes tens.
    Given the columns ``u``, it pushes those instead.
    """
    dim = 1 << n
    u = np.eye(dim, dtype=complex) if u is None else u
    rows = np.arange(dim)
    for g in gates:
        if g.kind == "CNOT":
            c, t = g.ctrls[0], g.target
            u = u[rows ^ (((rows >> (c - 1)) & 1) << (t - 1))]
        else:
            blocks = u.reshape(dim >> g.target, 2, -1)
            u = np.matmul(_single_qubit_matrix(g), blocks).reshape(dim, -1)
    return u


def test_pushed_unitary_matches_circuit_unitary():
    rng = np.random.default_rng(59)
    gates = [cnot(1, 3), ry(0.3, 2), rz(-1.1, 1), rw(0.8, (0.6, 0.0, 0.8), 3),
             x_gate(2), cnot(3, 2), ry(1.7, 3), cnot(2, 1)]
    order = [gates[int(i)] for i in rng.integers(0, len(gates), size=40)]
    want = circuit_unitary(Circuit(3, tuple(order), level="cnot"))
    assert np.max(np.abs(pushed_unitary(order, 3) - want)) < 1e-12


def linear_path_gate(shape, n, rng):
    """A random gate of one shape using all n wires, controls and anti-controls mixed.

    The shapes are the rotation kinds and three of RBS: two-wire real
    ("RBS"), two-wire phased ("RBS phased") and any wires, phased ("RBS wide").
    """
    wires = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
    m, mp = {"RBS": (1, 1), "RBS phased": (1, 1)}.get(shape, (1, 0))
    if shape == "RBS wide":
        m = int(rng.integers(0, 4))
        mp = int(rng.integers(max(1, 2 - m), 4))
    ins, outs = tuple(sorted(wires[:m])), tuple(sorted(wires[m:m + mp]))
    rest = wires[m + mp:]
    cut = int(rng.integers(1, len(rest)))
    wiring = dict(ctrls=tuple(sorted(rest[cut:])), anti_ctrls=tuple(sorted(rest[:cut])))
    theta, phi = (float(v) for v in rng.uniform(-3, 3, size=2))
    axis = rng.normal(size=3)
    axis = tuple(float(v) for v in axis / np.linalg.norm(axis))
    if shape == "Ry":
        return ry(theta, ins[0], **wiring)
    if shape == "Rz":
        return rz(phi, ins[0], **wiring)
    if shape == "Rw":
        return rw(theta, axis, ins[0], **wiring)
    if shape == "RBS":
        return rbs(theta, ins, outs, **wiring)
    return rbs(theta, ins, outs, phi, **wiring)


class TestExactLowering:
    """Lowered gates equal their unitary outright, global phase included:
    the amplitudes are the product, so a load run under a control sees a
    sign that probabilities do not."""

    def assert_exact(self, g, n):
        # on random unit states, since eleven wires are too many to push a
        # whole unitary through
        rng = np.random.default_rng(n)
        states = rng.normal(size=(1 << n, 4)) + 1j * rng.normal(size=(1 << n, 4))
        states /= np.linalg.norm(states, axis=0)
        got = pushed_unitary(lower_gate(g), n, states)
        assert np.max(np.abs(got - gate_unitary(g, n) @ states)) < 1e-12, g

    def test_two_wire_rbs_frames(self):
        # an in-wire and an out-wire, on either side, and two out-wires
        rng = np.random.default_rng(70)
        for ins, outs in (((3,), (1,)), ((1,), (2,)), ((), (1, 3)), ((), (2, 3))):
            for phased in (False, True):
                theta, phi = (float(v) for v in rng.uniform(-3, 3, size=2))
                g = rbs(theta, ins, outs, phi if phased else None)
                assert lower_gate(g) == _rbs_top(g)
                self.assert_exact(g, 3)

    def test_rotations_up_to_ten_controls(self):
        # all controls, all anti-controls, and half of each; from seven
        # controls on they take the linear construction
        rng = np.random.default_rng(71)
        for ell in range(11):
            for cut in sorted({0, ell // 2, ell}):
                target, *rest = (int(q) for q in rng.permutation(np.arange(1, ell + 2)))
                wiring = dict(ctrls=tuple(sorted(rest[cut:])),
                              anti_ctrls=tuple(sorted(rest[:cut])))
                angle = float(rng.uniform(-3, 3))
                axis = rng.normal(size=3)
                axis = tuple(float(v) for v in axis / np.linalg.norm(axis))
                for g in (ry(angle, target, **wiring), rz(angle, target, **wiring),
                          rw(angle, axis, target, **wiring)):
                    self.assert_exact(g, ell + 1)

    def test_wide_rbs_with_linear_central_rotation(self):
        # the central rotation gets the in-wire's partner as a control and
        # every other mixed wire as an anti-control: 8 and 7 controls here
        shapes = (((1, 2), (3, 4), dict(ctrls=(5, 6, 7), anti_ctrls=(8, 9))),
                  ((), (1, 2, 3, 4), dict(ctrls=(5, 6), anti_ctrls=(7, 8))))
        for ins, outs, wiring in shapes:
            for phi in (None, 0.9):
                g = rbs(1.3, ins, outs, phi, **wiring)
                ell = len(g.ctrls + g.anti_ctrls) + len(ins + outs) - 1
                assert ell >= 7
                ladder = 2 * (len(ins + outs) - 1)
                assert cnots(lower_gate(g)) == ladder + 16 * ell - 24
                self.assert_exact(g, max(g.qubits))


class TestLinearRotations:
    """From seven controls on, rotations take the 16 * ell - 24 CNOT construction."""

    SHAPES = ("Ry", "Rz", "Rw", "RBS", "RBS phased", "RBS wide")

    def test_exact_on_seven_to_ten_wires(self):
        rng = np.random.default_rng(60)
        cases = [(shape, n) for n in (7, 8, 9) for shape in self.SHAPES]
        cases += [("RBS wide", 10)]
        linear = 0
        for shape, n in cases:
            g = linear_path_gate(shape, n, rng)
            lowered = lower_gate(g)
            dist = np.max(np.abs(gate_unitary(g, n) - pushed_unitary(lowered, n)))
            assert dist < TOL, (g, dist)
            # a stack would cost 2^(n-1) CNOTs for its widest rotation
            linear += cnots(lowered) < 1 << (n - 1)
        # eight wires or more give the widest rotation at least seven controls
        assert linear == sum(n >= 8 for _, n in cases), linear

    def test_half_turn_and_axes(self):
        # -I under eight controls is a controlled phase; it and the pure
        # y, -y and z axes take the same construction
        ctrls, antis = (1, 3, 5, 7), (2, 4, 8, 9)
        for lam, axis in ((np.pi, (0.48, -0.6, 0.64)), (0.9, (0.0, 1.0, 0.0)),
                          (0.9, (0.0, -1.0, 0.0)), (0.9, (0.0, 0.0, 1.0))):
            g = rw(lam, axis, 6, ctrls=ctrls, anti_ctrls=antis)
            lowered = compile_mcry(g)
            assert cnots(lowered) == 16 * 8 - 24
            assert np.max(np.abs(gate_unitary(g, 9) - pushed_unitary(lowered, 9))) < TOL

    def test_fixed_gates_built_once(self):
        ctrls = tuple(range(2, 10))
        first = compile_mcry(ry(0.4, 1, ctrls=ctrls))
        second = compile_mcry(ry(-1.3, 1, ctrls=ctrls))
        assert len(first) == len(second)
        # only the target rotations depend on the angle: A, its inverse, and
        # the leading -A = Ry(pi - lam/4), which folds the X gates' phase of -1
        differ = [i for i, (a, b) in enumerate(zip(first, second)) if a is not b]
        assert [first[i].kind for i in differ] == ["Ry"] * 4
        assert len({id(first[i]) for i in differ}) == 3
        assert {first[i].theta for i in differ} == {np.pi + 0.4 / 4, -0.4 / 4, 0.4 / 4}

    def test_lowered_binary_emits_its_cnots(self):
        rep = encode_binary(8, np.random.default_rng(61).normal(size=256))
        result = lower(rep.circuit)
        cx = sum(line.startswith("cx ") for line in emit_qasm(result.circuit).splitlines())
        assert cx == result.cnot_total == cnots(result.circuit.gates)


@st.composite
def any_gate(draw):
    """A gate of a random rotating kind on up to nine wires, with its width.

    RBS comes in three shapes: two-wire real, two-wire phased, and wide
    (any wires, with or without a phase).
    """
    n = draw(st.integers(2, 9))
    shape = draw(st.sampled_from(("Ry", "Rz", "Rw", "RBS", "RBS phased", "RBS wide")))
    kind = shape.split()[0]
    wires = draw(st.permutations(range(1, n + 1)))
    if shape == "RBS wide":
        m = draw(st.integers(0, min(3, n - 1)))
        mp = draw(st.integers(1, min(3, n - m)))
    elif kind == "RBS":
        m, mp = 1, 1
    else:
        m, mp = 1, 0
    rest = wires[m + mp:]
    # at most two wires left idle, so wide gates come up often
    used = len(rest) - draw(st.integers(0, min(2, len(rest))))
    c = draw(st.integers(0, used))
    a = used - c
    angle = st.floats(-10.0, 10.0)
    axis = None
    if kind == "Rw":
        v = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3))
        axis = tuple(x / math.hypot(*v) for x in v)
    phased = shape in ("Rz", "RBS phased") or (shape == "RBS wide" and draw(st.booleans()))
    gate = Gate(
        kind,
        theta=draw(angle) if kind in ("Ry", "Rw", "RBS") else None,
        phi=draw(angle) if phased else None,
        axis=axis,
        ins=tuple(wires[:m]),
        outs=tuple(wires[m:m + mp]),
        ctrls=tuple(rest[:c]),
        anti_ctrls=tuple(rest[c:c + a]),
    )
    return n, gate


class TestLoweringProperty:
    @given(any_gate())
    @settings(max_examples=80, deadline=None)
    def test_exact_and_within_bound(self, case):
        n, g = case
        lowered = lower_gate(g)
        assert np.max(np.abs(gate_unitary(g, n) - pushed_unitary(lowered, n))) < TOL
        assert cnots(lowered) <= gate_cnot_bound(g)


class TestMixingGates:
    def test_rbs_equivalence_hundred_draws(self):
        rng = np.random.default_rng(52)
        for phased in (False, True):
            for _ in range(100):
                n = int(rng.integers(2, 7))
                src, dst = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                ctrls, antis = random_wiring(rng, n, {int(src), int(dst)})
                theta = float(rng.uniform(-3, 3))
                phi = float(rng.uniform(-3, 3)) if phased else None
                g = rbs(theta, (int(src),), (int(dst),), phi, ctrls=ctrls, anti_ctrls=antis)
                assert_equivalent(g, lower_gate(g), n)

    def test_real_cnot_counts(self):
        for ell, want in [(0, 2), (1, 6), (2, 10), (3, 18)]:
            g = rbs(0.8, (5,), (6,), ctrls=tuple(range(1, ell + 1)))
            assert cnots(lower_gate(g)) == want

    def test_complex_cnot_counts(self):
        for ell, want in [(0, 2), (1, 6), (2, 10), (3, 18)]:
            g = rbs(0.8, (5,), (6,), 0.5, ctrls=tuple(range(1, ell + 1)))
            assert cnots(lower_gate(g)) == want

    def test_uncontrolled_uses_rotate_between_cnots(self):
        # the 2-CNOT template: conjugating frame, two half-angle
        # rotations inside, no multi-controlled machinery
        lowered = lower_gate(rbs(0.8, (1,), (2,)))
        assert cnots(lowered) == 2
        half = [g for g in lowered if g.kind == "Ry"]
        assert [g.theta for g in half] == [0.4, 0.4]

    def test_controlled_uses_ladder(self):
        # one control makes the central-rotation route cheaper;
        # its signature is a CNOT between the mixed wires at both ends
        lowered = lower_gate(rbs(0.8, (1,), (2,), ctrls=(3,)))
        assert lowered[0] == cnot(1, 2)
        assert lowered[-1] == cnot(1, 2)

    def test_grbs_equivalence_hundred_draws(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 7))
            wires = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
            m = int(rng.integers(0, min(3, n - 1) + 1))
            mp = int(rng.integers(1, min(3, n - m) + 1))
            ins = tuple(sorted(wires[:m]))
            outs = tuple(sorted(wires[m : m + mp]))
            ctrls, antis = random_wiring(rng, n, set(ins) | set(outs))
            g = rbs(float(rng.uniform(-3, 3)), ins, outs, float(rng.uniform(-3, 3)),
                    ctrls=ctrls, anti_ctrls=antis)
            assert_equivalent(g, lower_gate(g), n)
            done += 1

    def test_grbs_cnot_formula(self):
        for m, mp, ell in [(1, 1, 0), (2, 2, 0), (2, 3, 1), (3, 3, 0), (1, 2, 2)]:
            ins = tuple(range(1, m + 1))
            outs = tuple(range(m + 1, m + mp + 1))
            ctrls = tuple(range(m + mp + 1, m + mp + ell + 1))
            g = rbs(0.7, ins, outs, 0.4, ctrls=ctrls)
            want = 2 * (m + mp - 1) + 2 ** (ell + m + mp - 1)
            if m + mp == 2 and ell == 0:
                want = 2  # the "top" template, as for an RBS
            assert cnots(lower_gate(g)) == want, (m, mp, ell)

    def test_grbs_raising_no_ins(self):
        for mp, ell in [(1, 1), (2, 0), (3, 1)]:
            outs = tuple(range(1, mp + 1))
            ctrls = tuple(range(mp + 1, mp + ell + 1))
            g = rbs(0.7, (), outs, 0.4, ctrls=ctrls)
            lowered = lower_gate(g)
            n = mp + ell
            assert_equivalent(g, lowered, n)
            want = 2 * (mp - 1) + 2 ** (ell + mp - 1)
            if mp == 2 and ell == 0:
                want = 2  # one X makes it an RBS block on the "top" template
            assert cnots(lowered) == want


class TestTemplateChoice:
    """A two-wire mixing gate takes "top" only without controls; pricing
    "top" under controls shows that the pick never needs more CNOTs."""

    @staticmethod
    def top_price(g):
        """CNOTs of the frame with its rotations under the gate's controls:
        2 + 2 c(l), plus 2 c_z(l) with a phase, c and c_z being the CNOTs of
        the half-angle Ry and the quarter-turn Rz under those controls."""
        wiring = dict(ctrls=g.ctrls, anti_ctrls=g.anti_ctrls)
        t = g.outs[0]
        price = 2 + 2 * cnots(compile_mcry(ry(g.theta / 2.0, t, **wiring)))
        if g.phi:
            price += 2 * cnots(compile_mcry(rz(g.phi / 2.0, t, **wiring)))
        return price

    def test_rule_never_dearer_than_other_template(self):
        rng = np.random.default_rng(54)
        seen = {"top": 0, "bottom": 0, "tie": 0}
        for ell in range(7):
            thetas = (0.0, 1e-13, np.pi / 2, -np.pi / 2, np.pi, 2 * np.pi,
                      float(rng.uniform(-2 * np.pi, 2 * np.pi)))
            phis = (0.0, np.pi, float(rng.uniform(-np.pi, np.pi)))
            for cut in range(ell + 1):
                src, dst, *rest = (int(q) for q in rng.permutation(np.arange(1, ell + 3)))
                wires = dict(ctrls=tuple(sorted(rest[:cut])),
                             anti_ctrls=tuple(sorted(rest[cut:])))
                for theta in thetas:
                    gates = [rbs(theta, (src,), (dst,), **wires)]
                    for phi in phis:
                        gates += [rbs(theta, (src,), (dst,), phi, **wires),
                                  rbs(theta, (), tuple(sorted((src, dst))), phi, **wires)]
                    for g in gates:
                        top, bottom = self.top_price(g), cnots(_mixing_bottom(g))
                        if ell == 0 and np.allclose(_mixing_matrix(g), np.eye(2),
                                                    rtol=0, atol=1e-12):
                            # no gate under either template
                            assert lower_gate(g) == _mixing_bottom(g) == [], g
                            continue
                        if ell == 0:
                            assert lower_gate(g) == _rbs_top(g), g
                            assert cnots(_rbs_top(g)) == top, g
                            assert top <= bottom, g
                        else:
                            assert lower_gate(g) == _mixing_bottom(g), g
                            assert bottom <= top, g
                        if top == bottom:
                            seen["tie"] += 1
                        else:
                            seen["top" if top < bottom else "bottom"] += 1
        # each template is strictly cheaper somewhere, and ties occur
        assert min(seen.values()) > 0, seen

    def test_uncontrolled_identity_is_no_gate(self):
        # theta = 0 or 2 pi with no controls is no gate; the block -I
        # (theta = pi) and a phase at theta = 0 are not the identity
        for g in (rbs(0.0, (1,), (2,)), rbs(2 * np.pi, (2,), (1,)),
                  rbs(0.0, (), (1, 2)), rbs(np.pi, (1,), (2,), np.pi)):
            assert lower_gate(g) == [], g
        for g in (rbs(np.pi, (1,), (2,)), rbs(0.0, (1,), (2,), 0.3),
                  rbs(0.0, (), (1, 2), 0.3)):
            assert lower_gate(g) == _rbs_top(g), g
            assert np.max(np.abs(lowered_unitary(_rbs_top(g), 2) - gate_unitary(g, 2))) < 1e-12


class TestLower:
    def test_passthrough_gates(self):
        assert lower_gate(x_gate(3)) == [x_gate(3)]
        assert lower_gate(cnot(1, 2)) == [cnot(1, 2)]

    def test_lower_gate_lowers_every_kind(self):
        ctl = dict(ctrls=(3,), anti_ctrls=(4,))
        examples = [
            x_gate(1), cnot(1, 2), ry(0.3, 1, **ctl), rz(0.3, 1, **ctl),
            rw(0.3, (0.48, -0.6, 0.64), 1, **ctl),
            # RBS: two-wire real and phased, wide, and raising
            rbs(0.3, (1,), (2,), **ctl), rbs(0.3, (1,), (2,), 0.5, **ctl),
            rbs(0.3, (1,), (2, 5), 0.5, **ctl), rbs(0.3, (), (2, 5), 0.5, **ctl),
        ]
        assert len(GATE_KINDS) == 6 and {g.kind for g in examples} == set(GATE_KINDS)
        for g in examples:
            lowered = lower_gate(g)
            assert {x.kind for x in lowered} <= CNOT_LEVEL_KINDS, g.kind
            assert_equivalent(g, lowered, 5)


    def test_random_logical_circuits(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            gates = []
            for _ in range(int(rng.integers(1, 7))):
                pick = rng.integers(0, 5)
                wires = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
                if pick == 0:
                    gates.append(x_gate(wires[0]))
                elif pick == 1:
                    ctrls, antis = random_wiring(rng, n, {wires[0]})
                    gates.append(ry(float(rng.uniform(-3, 3)), wires[0],
                                    ctrls=ctrls, anti_ctrls=antis))
                elif pick == 2:
                    ctrls, antis = random_wiring(rng, n, {wires[0]})
                    gates.append(rz(float(rng.uniform(-3, 3)), wires[0],
                                    ctrls=ctrls, anti_ctrls=antis))
                elif pick == 3 and n >= 2:
                    gates.append(rbs(float(rng.uniform(-3, 3)), (wires[0],), (wires[1],),
                                     float(rng.uniform(-3, 3))))
                else:
                    m = int(rng.integers(1, min(2, n - 1) + 1))
                    mp = int(rng.integers(1, min(2, n - m) + 1))
                    gates.append(rbs(float(rng.uniform(-3, 3)), tuple(sorted(wires[:m])),
                                     tuple(sorted(wires[m:m + mp])),
                                     float(rng.uniform(-3, 3))))
            logical = Circuit(n=n, gates=tuple(gates))
            result = lower(logical)
            assert isinstance(result, LoweringResult)
            assert result.circuit.level == "cnot"
            assert len(result.gate_cnots) == len(gates)
            assert sum(result.gate_cnots) == result.cnot_total
            assert result.cnot_total == cnots(result.circuit.gates)
            dist = phase_distance(
                circuit_unitary(logical), circuit_unitary(result.circuit)
            )
            assert dist < TOL

    def test_lowered_circuit_emits_qasm(self):
        logical = Circuit(n=3, gates=(rbs(0.5, (1,), (2,), ctrls=(3,)),))
        text = emit_qasm(lower(logical).circuit)
        assert text.startswith("OPENQASM 2.0;")

    def test_dense_6_2_totals_sixty_eight(self):
        rep = encode_dense_real(6, 2, np.arange(1.0, 16.0))
        result = lower(rep.circuit)
        assert result.cnot_total == 68
        dist = phase_distance(
            circuit_unitary(rep.circuit), circuit_unitary(result.circuit)
        )
        assert dist < TOL

    def test_sparse_example_totals_one_ten(self):
        addresses = [
            "000111", "001011", "001110", "010011", "011010", "100101", "111010",
        ]
        rng = np.random.default_rng(56)
        rep = encode_sparse(6, list(zip(rng.normal(size=7), addresses)))
        result = lower(rep.circuit)
        assert result.gate_cnots == (0, 0, 0, 2, 6, 14, 6, 42, 40)
        assert result.cnot_total == 110
        dist = phase_distance(
            circuit_unitary(rep.circuit), circuit_unitary(result.circuit)
        )
        assert dist < TOL

    def test_lowered_encoders_match_logical(self):
        # outright, global phase included
        rng = np.random.default_rng(57)
        z = rng.normal(size=10) + 1j * rng.normal(size=10)
        for rep in (encode_dense_complex(5, 2, z), encode_binary(4, rng.normal(size=16))):
            dist = np.max(np.abs(
                circuit_unitary(rep.circuit) - circuit_unitary(lower(rep.circuit).circuit)
            ))
            assert dist < TOL

    def test_lowered_state_matches_on_simulator(self):
        from hwenc.simulator import run

        rng = np.random.default_rng(58)
        x = rng.normal(size=20)
        rep = encode_dense_real(6, 3, x)
        logical = run(rep.circuit).as_vector()
        lowered = run(lower(rep.circuit).circuit).as_vector()
        idx = int(np.argmax(np.abs(logical)))
        phase = lowered[idx] / logical[idx]
        assert abs(abs(phase) - 1) < 1e-9
        assert np.max(np.abs(lowered - phase * logical)) < TOL


def lowered_digest(reports, full: bool) -> str:
    """SHA-256 of each report's per-gate CNOTs and, if ``full``, lowered circuit."""
    h = hashlib.sha256()
    for rep in reports:
        low = lower(rep.circuit)
        h.update(json.dumps([rounded(low.circuit) if full else None, low.gate_cnots]).encode())
    return h.hexdigest()


# Taken before the compiler turned every rotation axis into Y in one place.
# That change kept the real dense and full-basis circuits bit for bit and the
# per-gate CNOTs of every family; the phase gates of the complex and sparse
# families now lower through a basis change, so those pin only the CNOTs.
# Those four were taken again when the trailing phase fix gave way to a
# leading global phase, which lowers to no CNOT. binary_real was taken again
# when the full-basis loader became one uniformly controlled Ry per qubit,
# which lowers to itself. dense_real was taken again when the closing H turn
# of the two-CNOT RBS frame became -iH, which lowers the frame to U, not -U.
# dense_real and dense_complex were taken again when dense gates took the
# controls of walk_literals, which lowers three gates of each to fewer CNOTs.
GOLDEN_LOWERED_CIRCUITS = {
    "binary_real": "75d9b62ed22c884ac6dc4279963224be43a8e3605871100aa58c92e884241779",
    "dense_real": "2bbfa0321aac6908051951a183364d6fad042a79883abbd88a122c13721d9b91",
}
GOLDEN_LOWERED_CNOTS = {
    "dense_complex": "983a0c8ea8ebd5e387b1e234cfc5ea6ae2c92e6a73ce056f9557c0d39ce366ee",
    "dense_complex_mirrored": "1509133dc4bade4d78e456b920ffa657d5b8a4d6e0e58e743764724abac2ea3a",
    "sparse_complex": "bec1461b385dd2f0237334f55120813559556a09c074b52ada718700c4486fa2",
    "sparse_real": "b8ce2634e66e0782b676f2f65d452616a803df9eb071fb3c6c027f48ec8be379",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_LOWERED_CIRCUITS))
def test_golden_lowered_circuits(family):
    digest = lowered_digest(GOLDEN_FAMILIES[family](), full=True)
    assert digest == GOLDEN_LOWERED_CIRCUITS[family]


@pytest.mark.parametrize("family", sorted(GOLDEN_LOWERED_CNOTS))
def test_golden_lowered_cnots(family):
    digest = lowered_digest(GOLDEN_FAMILIES[family](), full=False)
    assert digest == GOLDEN_LOWERED_CNOTS[family]
