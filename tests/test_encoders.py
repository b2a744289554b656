"""Encoder tests: golden circuit layouts, round trips, and error paths."""

import hashlib
import json
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwenc import encoders
from hwenc.bitstrings import BitString, walk_wires
from hwenc.coordinates import angles_from_complex, angles_from_real
from hwenc.encoders import (
    EncoderReport,
    EncodingError,
    EncodingVerificationError,
    encode_binary,
    encode_binary_complex,
    encode_dense_complex,
    encode_dense_real,
    encode_sparse,
)
from hwenc.compiler import lower, lower_gate
from hwenc.counting import count_dense, count_sparse, gate_cnot_bound
from hwenc.ir import apply_to_basis_state, serialize
from hwenc.simulator import SparseState, run
from test_acceptance import GOLDEN_BINARY_LEVELS, stack_layout
from test_simulator import apply_to_amps

# Frozen layout for the weight-2 walk on six qubits: (ins, outs, ctrls)
# per mixing gate, after redundant controls on never-touched wires are
# dropped. Derived by hand from the minimal-change walk starting 110000.
DENSE_6_2_GATES = [
    ((5,), (1,), ()),
    ((1,), (2,), ()),
    ((2,), (3,), ()),
    ((3,), (4,), ()),
    ((6,), (5,), (4,)),
    ((4,), (1,), (5,)),
    ((1,), (2,), (5,)),
    ((2,), (3,), (5,)),
    ((5,), (4,), (3,)),
    ((3,), (1,), (4,)),
    ((1,), (2,), (4,)),
    ((4,), (3,), (2,)),
    ((2,), (1,), (3,)),
    ((3,), (2,), (1,)),
]

# Frozen layout for the seven-address sparse example on six qubits.
SPARSE_ADDRESSES = [
    "000111", "001011", "001110", "010011", "011010", "100101", "111010",
]
SPARSE_GATES = [
    ("RBS", (3,), (4,), ()),
    ("RBS", (1,), (3,), (4,)),
    ("RBS", (3, 4), (1, 5), ()),
    ("RBS", (1,), (4,), (5,)),
    ("RBS", (2, 4, 5), (1, 3, 6), ()),
    ("RBS", (1, 3), (2, 4, 5), (6,)),
]


def loaded_state(report: EncoderReport) -> SparseState:
    return run(report.circuit)


def assert_loads(report, x, tol=1e-11):
    state = loaded_state(report)
    xn = np.asarray(x, dtype=complex)
    xn = xn / np.linalg.norm(xn)
    for i, address in enumerate(report.ordering):
        got = state.amplitude(address)
        assert abs(got - xn[i]) < tol, (i, address.bits, got, xn[i])
    # nothing outside the ordered support
    support = {address.to_index() for address in report.ordering}
    for index in state.amps:
        assert index in support


SCALES = [1e200, 1e-170]


@pytest.mark.parametrize("scale", SCALES)
class TestScaleSafety:
    """x and c * x load the same state for any c that keeps c * x finite."""

    def test_dense_real(self, scale):
        x = np.arange(1.0, 7.0)
        assert_loads(encode_dense_real(4, 2, x * scale), x)

    def test_dense_complex(self, scale):
        z = np.arange(1.0, 7.0) * np.exp(1j * np.arange(6))
        assert_loads(encode_dense_complex(4, 2, z * scale), z)

    def test_sparse(self, scale):
        addresses = ["0011", "0101", "0110", "1110"]
        for vals in ([1.0, -2.0, 3.0, 4.0], [1.0, 2j, -3.0, 4.0 + 1j]):
            data = [(v * scale, a) for v, a in zip(vals, addresses)]
            assert_loads(encode_sparse(4, data), vals)

    def test_binary(self, scale):
        x = np.arange(1.0, 9.0)
        assert_loads(encode_binary(3, x * scale), x)

    def test_binary_complex(self, scale):
        z = np.arange(1.0, 9.0) * np.exp(-1j * np.arange(8))
        assert_loads(encode_binary_complex(3, z * scale), z)


def test_largest_finite_components():
    # |z| of each entry is above the largest double; the parts are not
    big = np.finfo(float).max
    z = np.array([big + big * 1j, -big + 0j, 0.5 * big * 1j])
    assert_loads(encode_dense_complex(3, 1, z), z / big)


class TestDenseReal:
    def test_golden_layout_6_2(self):
        x = np.arange(1.0, 16.0)
        rep = encode_dense_real(6, 2, x)
        xs = [g for g in rep.circuit.gates if g.kind == "X"]
        assert [g.target for g in xs] == [6, 5]
        mixers = [g for g in rep.circuit.gates if g.kind != "X"]
        assert [(g.ins, g.outs, g.ctrls) for g in mixers] == DENSE_6_2_GATES
        assert all(g.kind == "RBS" for g in mixers)
        assert rep.ordering[0].bits == "110000"
        assert rep.ordering[-1].bits == "000011"
        assert rep.param_count == 14

    def test_round_trip_small_spaces(self):
        rng = np.random.default_rng(11)
        for n, k in [(2, 1), (3, 1), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)]:
            d = comb(n, k)
            x = rng.normal(size=d)
            rep = encode_dense_real(n, k, x)
            assert rep.param_count == d - 1
            assert len(rep.ordering) == d
            assert_loads(rep, x)

    def test_partial_d(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        rep = encode_dense_real(6, 2, x)
        full = encode_dense_real(6, 2, np.arange(1.0, 16.0))
        # a shorter vector visits a prefix of the same walk
        assert rep.ordering == full.ordering[:6]
        assert rep.param_count == 5
        assert_loads(rep, x)

    def test_support_confined_after_every_gate(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=10)
        rep = encode_dense_real(5, 2, x)
        amps = {0: 1.0 + 0j}
        for gate in rep.circuit.gates:
            amps = apply_to_amps(amps, gate)
            if gate.kind == "X":
                continue
            for index in amps:
                assert bin(index).count("1") == 2

    def test_mirrored_heavy_weight(self):
        rng = np.random.default_rng(9)
        for n, k in [(4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5)]:
            x = rng.normal(size=comb(n, k))
            rep = encode_dense_real(n, k, x)
            assert all(b.weight == k for b in rep.ordering)
            # heavy vectors are built as complements: controls invert
            mixers = [g for g in rep.circuit.gates if g.kind != "X"]
            assert all(g.ctrls == () for g in mixers)
            if n - k >= 2:
                assert any(g.anti_ctrls for g in mixers)
            assert_loads(rep, x)

    def test_mirrored_ordering_is_complemented_walk(self):
        d = comb(6, 4)
        light = encode_dense_real(6, 2, np.arange(1.0, d + 1.0))
        heavy = encode_dense_real(6, 4, np.arange(1.0, d + 1.0))
        assert [b.bits for b in heavy.ordering] == [
            b.complement().bits for b in light.ordering
        ]

    def test_negative_entries_exact(self):
        x = np.array([0.3, -0.5, 0.0, -0.7, 0.2, 0.1])
        rep = encode_dense_real(4, 2, x)
        assert_loads(rep, x)

    def test_control_census(self):
        # the paper's census holds on the walk's own wires; a built gate
        # carries at most as many controls as its walk_wires gate
        for n, k in [(5, 2), (6, 2), (6, 3), (7, 3)]:
            rep = encode_dense_real(n, k, np.arange(1.0, comb(n, k) + 1.0))
            steps = list(walk_wires(rep.ordering))
            for ell in range(0, k):
                expect = comb(n - (k - ell), ell + 1)
                have = sum(1 for _, _, ctrls in steps if len(ctrls) == ell)
                assert have == expect, (n, k, ell)
            mixers = [g for g in rep.circuit.gates if g.kind != "X"]
            for g, (_, _, ctrls) in zip(mixers, steps, strict=True):
                assert len(g.ctrls) + len(g.anti_ctrls) <= len(ctrls), (n, k, g)

    def test_d_out_of_range(self):
        with pytest.raises(EncodingError, match="between 2 and"):
            encode_dense_real(6, 2, [1.0])
        with pytest.raises(EncodingError, match="between 2 and"):
            encode_dense_real(6, 2, np.ones(16))
        # a weight class of one string has no dense load at all
        for k, x in ((0, [1.0, 2.0]), (4, [1.0]), (0, [1.0])):
            with pytest.raises(EncodingError, match="holds a single string"):
                encode_dense_real(4, k, x)
        with pytest.raises(EncodingError, match="holds a single string"):
            encode_dense_complex(0, 0, [1.0, 1j])

    def test_zero_vector(self):
        with pytest.raises(EncodingError, match="zero vector"):
            encode_dense_real(6, 2, np.zeros(15))

    def test_rejects_bad_shapes(self):
        with pytest.raises(EncodingError, match="one-dimensional"):
            encode_dense_real(6, 2, np.ones((3, 5)))
        with pytest.raises(EncodingError, match="out of range"):
            encode_dense_real(4, 5, [1.0, 2.0])
        with pytest.raises(EncodingError, match="complex entries"):
            encode_dense_real(6, 2, np.ones(15) * 1j)

    def test_non_finite_rejected(self):
        x = np.ones(15)
        x[3] = np.nan
        with pytest.raises(EncodingError, match="non-finite"):
            encode_dense_real(6, 2, x)
        x[3] = np.inf
        with pytest.raises(EncodingError, match="non-finite"):
            encode_dense_real(6, 2, x)

    def test_smallest_subnormal_is_not_zero(self):
        tiny = np.array([5e-324, 0.0, 5e-324])
        assert_loads(encode_dense_real(3, 1, tiny), [1.0, 0.0, 1.0])


@pytest.mark.parametrize("n", range(2, 10))
def test_dense_gates_leave_loaded_strings_alone(n):
    """Each dense mixing gate fixes every string loaded before it, and the
    pruned controls keep every lowered gate and load within its budget.

    Every weight (mirrored ones included), the full class and a prefix of
    it, real and complex.
    """
    rng = np.random.default_rng(900 + n)
    for k in range(1, n):
        space = comb(n, k)
        for d in sorted({space, max(2, space // 3)}):
            for encode, cplx in ((encode_dense_real, False), (encode_dense_complex, True)):
                x = rng.normal(size=d)
                if cplx:
                    x = x + 1j * rng.normal(size=d)
                rep = encode(n, k, x)
                mixers = rep.circuit.gates[-(d - 1):]
                for j, gate in enumerate(mixers):
                    for b in rep.ordering[:j]:
                        i = b.to_index()
                        assert apply_to_basis_state(gate, i) == {i: 1}, (n, k, d, j, b.bits)
                low = lower(rep.circuit)
                for gate, cnots in zip(rep.circuit.gates, low.gate_cnots, strict=True):
                    assert cnots <= gate_cnot_bound(gate), (n, k, d, gate)
                budget = (count_dense(n, k, cplx) if d == space
                          else count_sparse(n, rep.ordering, cplx))
                assert low.cnot_total <= budget.total, (n, k, d, cplx)


def _cascade_psi0(z):
    """The global phase the cascade encoders load first."""
    return angles_from_complex(z / np.linalg.norm(z))[1][0]


class TestDenseComplex:
    def test_exact_phases(self):
        rng = np.random.default_rng(21)
        for n, k in [(4, 2), (5, 2), (6, 3), (6, 4)]:
            d = comb(n, k)
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            rep = encode_dense_complex(n, k, z)
            assert rep.param_count == 2 * d - 1
            assert_loads(rep, z)

    def test_partial_d_complex(self):
        rng = np.random.default_rng(22)
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        rep = encode_dense_complex(6, 2, z)
        assert len(rep.ordering) == 7
        assert rep.param_count == 13
        assert_loads(rep, z)

    def test_real_positive_reduces_to_real_architecture(self):
        x = np.arange(1.0, 16.0)
        creal = encode_dense_real(6, 2, x).circuit
        ccplx = encode_dense_complex(6, 2, x).circuit
        # a leading global phase of zero, then the same wires and
        # inclinations with all phases zero
        assert len(ccplx.gates) == len(creal.gates) + 1
        head = ccplx.gates[0]
        assert head.kind == "Rz" and head.phi == 0.0
        for gr, gc in zip(creal.gates, ccplx.gates[1:]):
            if gr.kind == "X":
                assert gc.kind == "X" and gc.ins == gr.ins
                continue
            assert gc.kind == gr.kind == "RBS" and gr.phi is None
            assert (gc.ins, gc.outs, gc.ctrls) == (gr.ins, gr.outs, gr.ctrls)
            assert gc.theta == pytest.approx(gr.theta, abs=1e-15)
            assert gc.phi == 0.0

    def test_global_phase_gate_leads(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=15) + 1j * rng.normal(size=15)
        rep = encode_dense_complex(6, 2, z)
        head, rest = rep.circuit.gates[0], rep.circuit.gates[1:]
        # the state is |0^n> there, so the gate is a pure global phase
        assert head.kind == "Rz" and head.target == 1
        assert head.ctrls == head.anti_ctrls == ()
        assert gate_cnot_bound(head) == 0
        assert all(g.kind != "Rz" for g in rest)

    @pytest.mark.parametrize("encode,psi0", [
        (lambda z: encode_dense_complex(6, 2, z[:15]), _cascade_psi0),
        (lambda z: encode_dense_complex(6, 4, z[:15]), _cascade_psi0),
        # the full-basis tree gives every node the mean phase of its leaves
        (lambda z: encode_binary_complex(4, z), lambda z: np.mean(np.angle(z))),
        (lambda z: encode_sparse(5, list(zip(z[:3], ["00011", "00101", "11100"]))),
         _cascade_psi0),
    ], ids=["dense", "mirrored", "binary", "sparse"])
    def test_global_phase_is_rz_of_minus_psi0(self, encode, psi0):
        # Rz(-psi0)|0> = exp(i psi0)|0>, exact on |0^n>, so the gate lowers
        # to itself and costs no CNOT
        rng = np.random.default_rng(24)
        z = rng.normal(size=16) + 1j * rng.normal(size=16)
        rep = encode(z)
        target = np.array([z[i] for i in range(len(rep.ordering))])
        head = rep.circuit.gates[0]
        assert (head.kind, head.ins, head.ctrls, head.anti_ctrls) == ("Rz", (1,), (), ())
        assert head.phi == pytest.approx(-psi0(target), abs=1e-12)
        assert lower_gate(head) == [head]
        lowered = lower(rep.circuit)
        assert lowered.circuit.gates[0] == head and lowered.gate_cnots[0] == 0


class TestSparse:
    def test_golden_layout(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=7)
        rep = encode_sparse(6, list(zip(vals, SPARSE_ADDRESSES)))
        xs = [g for g in rep.circuit.gates if g.kind == "X"]
        assert [g.target for g in xs] == [3, 2, 1]
        mixers = [g for g in rep.circuit.gates if g.kind != "X"]
        assert [(g.kind, g.ins, g.outs, g.ctrls) for g in mixers] == SPARSE_GATES
        assert rep.param_count == 6
        assert_loads(rep, vals)

    def test_complex_values(self):
        rng = np.random.default_rng(32)
        vals = rng.normal(size=7) + 1j * rng.normal(size=7)
        rep = encode_sparse(6, list(zip(vals, SPARSE_ADDRESSES)))
        assert rep.param_count == 13
        assert_loads(rep, vals)

    def test_single_address(self):
        rep = encode_sparse(4, [(2.5, "0110")])
        assert [g.kind for g in rep.circuit.gates] == ["X", "X"]
        assert rep.param_count == 0
        assert_loads(rep, [2.5])

    def test_single_address_negative_value(self):
        rep = encode_sparse(4, [(-2.5, "0110")])
        assert rep.param_count == 1
        assert_loads(rep, [-2.5])

    def test_single_address_complex_value(self):
        rep = encode_sparse(3, [(1j, "101")])
        assert_loads(rep, [1j])

    def test_all_ones_address_phase(self):
        vals = [0.6, 0.8j]
        rep = encode_sparse(3, [(vals[0], "011"), (vals[1], "111")])
        # the all-ones final address needs no gate beyond the global phase
        kinds = [g.kind for g in rep.circuit.gates]
        assert kinds[0] == "Rz" and kinds.count("Rz") == 1
        assert_loads(rep, vals)

    def test_weight_zero_start(self):
        vals = [0.5, -0.5, 0.7071]
        rep = encode_sparse(4, [(vals[0], "0000"), (vals[1], "0011"), (vals[2], "1110")])
        assert_loads(rep, vals)

    def test_subset_pair_uses_plain_rotation(self):
        # raising a single bit with no bits lowered is just a controlled Ry
        rep = encode_sparse(4, [(0.6, "0011"), (0.8, "0111")])
        mixers = [g for g in rep.circuit.gates if g.kind != "X"]
        assert len(mixers) == 1 and mixers[0].kind == "Ry"
        assert_loads(rep, [0.6, 0.8])

    def test_equal_weight_pair_is_grbs(self):
        rep = encode_sparse(6, [(0.6, "000011"), (0.8, "011000")])
        mixers = [g for g in rep.circuit.gates if g.kind != "X"]
        assert len(mixers) == 1 and mixers[0].kind == "RBS"
        assert len(mixers[0].ins) == 2 and len(mixers[0].outs) == 2

    def test_ordering_violation_names_pair(self):
        pairs = [(0.5, "0111"), (0.5, "0011"), (0.5, "1111")]
        with pytest.raises(EncodingError, match=r"pairs 0 and 1.*0111.*0011"):
            encode_sparse(4, pairs)

    def test_sort_by_weight(self):
        pairs = [(0.5, "0111"), (0.3, "0011"), (0.2, "1111")]
        rep = encode_sparse(4, pairs, sort_by_weight=True)
        assert [b.bits for b in rep.ordering] == ["0011", "0111", "1111"]
        assert_loads(rep, [0.3, 0.5, 0.2])

    def test_sort_is_stable(self):
        pairs = [(0.5, "0110"), (0.3, "0011"), (0.2, "1001")]
        rep = encode_sparse(4, pairs, sort_by_weight=True)
        assert [b.bits for b in rep.ordering] == ["0110", "0011", "1001"]

    def test_duplicate_address(self):
        with pytest.raises(EncodingError, match="duplicate address 0011"):
            encode_sparse(4, [(0.5, "0011"), (0.5, "0011")])

    def test_wrong_length_address(self):
        with pytest.raises(EncodingError, match="length"):
            encode_sparse(4, [(0.5, "001"), (0.5, "0011")])

    def test_empty_input(self):
        with pytest.raises(EncodingError, match="at least one pair"):
            encode_sparse(4, [])

    def test_zero_vector(self):
        with pytest.raises(EncodingError, match="zero vector"):
            encode_sparse(4, [(0.0, "0011"), (0.0, "0101")])

    def test_verification_error_names_gate(self, monkeypatch):
        # angles of the reversed vector: gate 1 loads 0.8 where 0.6 belongs
        monkeypatch.setattr(encoders, "angles_from_real", lambda x: angles_from_real(x[::-1]))
        with pytest.raises(EncodingVerificationError) as err:
            encode_sparse(4, [(0.6, "0011"), (0.8, "0101")])
        assert str(err.value) == "gate 1 disturbed amplitude of 0011: got 0.8+0j, want 0.6+0j"

    def test_verification_error_names_a_later_gate(self, monkeypatch):
        # the last two components swapped: gate 1 is right, gate 2 is not
        monkeypatch.setattr(encoders, "angles_from_real",
                            lambda x: angles_from_real(x[[0, 2, 1]]))
        with pytest.raises(EncodingVerificationError) as err:
            encode_sparse(4, [(0.48, "0011"), (0.6, "0101"), (0.64, "1100")])
        assert str(err.value) == "gate 2 disturbed amplitude of 0101: got 0.64+0j, want 0.6+0j"

    def test_verification_error_names_phase_layer(self, monkeypatch):
        # a lone negative value without its global phase
        def no_global_phase(x):
            thetas, phis = angles_from_complex(x)
            return thetas, np.concatenate([[0.0], phis[1:]])

        monkeypatch.setattr(encoders, "angles_from_complex", no_global_phase)
        with pytest.raises(EncodingVerificationError) as err:
            encode_sparse(4, [(-2.5, "0110")])
        assert str(err.value) == "phase layer disturbed amplitude of 0110: got 1+0j, want -1+0j"

    def test_verification_error_names_uncontrolled_gate(self, monkeypatch):
        # without their controls the mixing gates reach loaded addresses;
        # gate 4 is the first to move one
        monkeypatch.setattr(encoders, "walk_wires", lambda walk: [
            (ins, outs, ()) for ins, outs, _ in walk_wires(walk)])
        vals = np.arange(1, 8) / 10.0
        with pytest.raises(EncodingVerificationError) as err:
            encode_sparse(6, list(zip(vals, SPARSE_ADDRESSES)))
        got, want = re.fullmatch(
            r"gate 4 disturbed amplitude of 000111: got (\S+), want (\S+)",
            str(err.value)).groups()
        assert complex(got) == pytest.approx(-0.206784840643, abs=1e-11)
        assert complex(want) == pytest.approx(vals[0] / np.linalg.norm(vals), abs=1e-11)

    @pytest.mark.parametrize("sort", [False, True])
    def test_non_pair_item_names_pair(self, sort):
        with pytest.raises(EncodingError, match=r"^pair 1: expected \(value, address\)$"):
            encode_sparse(4, [(0.5, "0011"), 0.5, (0.5, "0101")], sort_by_weight=sort)

    @pytest.mark.parametrize("sort", [False, True])
    def test_non_bitstring_address_names_pair(self, sort):
        with pytest.raises(EncodingError, match=r"^pair 1: address must be a bitstring$"):
            encode_sparse(4, [(0.5, "0011"), (0.5, 3)], sort_by_weight=sort)

    @pytest.mark.parametrize("sort", [False, True])
    def test_wrong_length_names_pair(self, sort):
        # a bad address is named before pairs 0 and 1 are out of order
        with pytest.raises(EncodingError, match=r"^pair 2: address length 3 != 4$"):
            encode_sparse(4, [(0.5, "0111"), (0.5, "0011"), (0.5, "001")],
                          sort_by_weight=sort)

    @pytest.mark.parametrize("sort", [False, True])
    def test_duplicate_names_both_pairs(self, sort):
        # with the sort the pairs keep the numbers the caller gave them
        pairs = [(0.5, "0011"), (0.5, "0101"), (0.5, "0011"), (0.5, "1111")]
        if sort:
            pairs = pairs[::-1]
        want = "pairs 1 and 3" if sort else "pairs 0 and 2"
        with pytest.raises(EncodingError, match=rf"^duplicate address 0011 at {want}$"):
            encode_sparse(4, pairs, sort_by_weight=sort)

    def test_sort_matches_presorted_input(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, min(2**n, 12)))
            picks = rng.choice(2**n, size=s, replace=False)
            vals = rng.normal(size=s)
            if rng.random() < 0.5:
                vals = vals + 1j * rng.normal(size=s)
            pairs = [(v, BitString.from_index(n, int(i))) for v, i in zip(vals, picks)]
            presorted = sorted(pairs, key=lambda p: p[1].weight)
            got = encode_sparse(n, pairs, sort_by_weight=True)
            want = encode_sparse(n, presorted)
            assert serialize(got.circuit) == serialize(want.circuit)
            assert got.ordering == want.ordering

    def test_random_round_trips(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, min(2**n, 9)))
            picks = rng.choice(2**n, size=s, replace=False)
            addresses = sorted(
                (BitString.from_index(n, int(i)) for i in picks),
                key=lambda b: b.weight,
            )
            if rng.random() < 0.5:
                vals = rng.normal(size=s)
            else:
                vals = rng.normal(size=s) + 1j * rng.normal(size=s)
            rep = encode_sparse(n, list(zip(vals, addresses)))
            assert_loads(rep, vals)


class TestBinary:
    def test_skeleton_6(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=64)
        rep = encode_binary(6, x)
        assert rep.param_count == 63
        # one uncontrolled Ry stack per qubit, top qubit first
        assert stack_layout(rep.circuit.gates) == [
            ("Ry", t, ctrls) for t, ctrls in GOLDEN_BINARY_LEVELS
        ]
        assert_loads(rep, x)

    def test_ordering_covers_basis(self):
        for n in range(1, 7):
            rep = encode_binary(n, np.arange(1.0, 2.0**n + 1.0))
            assert [b.to_index() for b in rep.ordering] == list(range(2**n))

    def test_round_trips(self):
        rng = np.random.default_rng(42)
        for n in range(1, 6):
            x = rng.normal(size=2**n)
            rep = encode_binary(n, x)
            assert rep.param_count == 2**n - 1
            assert_loads(rep, x)

    def test_complex_round_trips(self):
        rng = np.random.default_rng(43)
        for n in range(1, 5):
            z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            rep = encode_binary_complex(n, z)
            assert rep.param_count == 2 ** (n + 1) - 1
            assert_loads(rep, z)

    def test_complex_levels_pair_stacks(self):
        # after the global phase, each qubit's Ry stack is followed by an Rz
        # stack on the same CNOTs
        rep = encode_binary_complex(6, np.arange(1.0, 65.0) * (1 + 1j))
        want = [("Rz", 1, "")]
        for t, ctrls in GOLDEN_BINARY_LEVELS:
            want += [("Ry", t, ctrls), ("Rz", t, ctrls)]
        assert stack_layout(rep.circuit.gates) == want

    def test_wrong_length(self):
        with pytest.raises(EncodingError, match="need 2\\^3 = 8"):
            encode_binary(3, np.ones(7))

    def test_zero_vector(self):
        with pytest.raises(EncodingError, match="zero vector"):
            encode_binary(3, np.zeros(8))

    def test_n_zero_rejected(self):
        with pytest.raises(EncodingError, match="at least one qubit"):
            encode_binary(0, [1.0])


@st.composite
def complex_vectors(draw, d: int) -> tuple[np.ndarray, float]:
    """A nonzero d-vector of magnitudes at most one (zeros included) and
    arguments across (-pi, pi], with a scale from 1e-300 to 1e300."""
    mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                         min_size=d, max_size=d).filter(any))
    turn = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi]),
                     st.floats(-np.pi, np.pi, exclude_min=True))
    args = draw(st.lists(turn, min_size=d, max_size=d))
    z = np.array(mags) * np.exp(1j * np.array(args))
    return z, 10.0 ** draw(st.integers(-300, 300))


@st.composite
def real_vectors(draw, d: int) -> tuple[np.ndarray, float]:
    """A nonzero d-vector of entries in [-1, 1] (zeros included), with a
    scale from 1e-300 to 1e300."""
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))
    x = draw(st.lists(entry, min_size=d, max_size=d).filter(any))
    return np.array(x), 10.0 ** draw(st.integers(-300, 300))


class TestRealRoundTripProperties:
    """Every real encoder loads x / |x| within 1e-10, at any scale."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_real(self, data):
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, n - 1))
        d = data.draw(st.integers(2, comb(n, k)))
        x, scale = data.draw(real_vectors(d))
        assert_loads(encode_dense_real(n, k, x * scale), x, tol=1e-10)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_binary(self, data):
        n = data.draw(st.integers(1, 6))
        x, scale = data.draw(real_vectors(2**n))
        assert_loads(encode_binary(n, x * scale), x, tol=1e-10)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_real(self, data):
        n = data.draw(st.integers(1, 6))
        picks = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1,
                                   max_size=min(2**n, 12), unique=True))
        addresses = sorted((BitString.from_index(n, i) for i in picks),
                           key=lambda b: b.weight)
        x, scale = data.draw(real_vectors(len(picks)))
        assert_loads(encode_sparse(n, list(zip(x * scale, addresses))), x, tol=1e-10)


class TestComplexRoundTripProperties:
    """Every complex encoder loads x / |x| within 1e-10, at any scale."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_complex(self, data):
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(1, n - 1))
        d = data.draw(st.integers(2, comb(n, k)))
        z, scale = data.draw(complex_vectors(d))
        assert_loads(encode_dense_complex(n, k, z * scale), z, tol=1e-10)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_binary_complex(self, data):
        n = data.draw(st.integers(1, 6))
        z, scale = data.draw(complex_vectors(2**n))
        assert_loads(encode_binary_complex(n, z * scale), z, tol=1e-10)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_complex(self, data):
        n = data.draw(st.integers(1, 6))
        picks = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1,
                                   max_size=min(2**n, 12), unique=True))
        addresses = sorted((BitString.from_index(n, i) for i in picks),
                           key=lambda b: b.weight)
        z, scale = data.draw(complex_vectors(len(picks)))
        assert_loads(encode_sparse(n, list(zip(z * scale, addresses))), z, tol=1e-10)


def rounded(circuit) -> dict:
    """A circuit's serialized form with angles rounded to ten significant digits.

    A last-bit difference in a platform's arctan2 or BLAS then does not read
    as drift.
    """
    payload = json.loads(serialize(circuit))
    for g in payload["gates"]:
        for key in ("theta", "phi"):
            if key in g:
                g[key] = float(f"{g[key]:.10g}") + 0.0
    return payload


def _digest(reports) -> str:
    """SHA-256 over each report's rounded circuit, ordering and param_count."""
    h = hashlib.sha256()
    for rep in reports:
        ordering = [b.bits for b in rep.ordering]
        h.update(json.dumps([rounded(rep.circuit), ordering, rep.param_count]).encode())
    return h.hexdigest()


def _dense_family(encode, shapes, cplx):
    rng = np.random.default_rng(606)
    for n, k, d in shapes:
        x = rng.normal(size=d)
        yield encode(n, k, x + 1j * rng.normal(size=d) if cplx else x)


def _sparse_family(cplx):
    rng = np.random.default_rng(707)
    for s in (1, 1, 2, 3, 5, 8, 13):
        n = 6
        picks = rng.choice(2**n, size=s, replace=False)
        addresses = sorted(
            (BitString.from_index(n, int(i)) for i in picks), key=lambda b: b.weight
        )
        vals = rng.normal(size=s)
        if cplx:
            vals = vals + 1j * rng.normal(size=s)
        yield encode_sparse(n, list(zip(vals, addresses)))
    # a lone negative or complex value still gets its argument fixed
    yield encode_sparse(6, [(-0.5 + 0.25j if cplx else -0.5, "011010")])


# One generator per encoder family: full and prefix walks, mirrored
# (k > n/2) and not, single-address and longer sparse lists.
GOLDEN_FAMILIES = {
    "dense_real": lambda: _dense_family(
        encode_dense_real, [(6, 2, 15), (7, 3, 20), (6, 4, 15), (7, 5, 9)], False
    ),
    "dense_complex": lambda: _dense_family(
        encode_dense_complex, [(6, 2, 15), (7, 3, 20)], True
    ),
    "dense_complex_mirrored": lambda: _dense_family(
        encode_dense_complex, [(6, 4, 15), (7, 5, 9)], True
    ),
    "sparse_real": lambda: _sparse_family(False),
    "sparse_complex": lambda: _sparse_family(True),
    "binary_real": lambda: (
        encode_binary(n, np.random.default_rng(808 + n).normal(size=2**n))
        for n in range(1, 6)
    ),
}

# Taken before the encoders shared one cascade; that change kept them all.
# The complex and sparse ones were taken again when the global phase moved
# to the front, and again when the mixing gates became one RBS kind and the
# global phase an Rz: each equals the earlier JSON with the kinds relabelled.
# sparse_real holds a lone negative value, loaded as a phase. binary_real
# was taken again when the full-basis loader became one uniformly
# controlled Ry per qubit. dense_real and dense_complex were taken again
# when dense gates took the controls of walk_literals: three gates of each
# carry fewer controls, and every other field is unchanged.
GOLDEN_DIGESTS = {
    "binary_real": "935ef4c6b7e6353112a0061ca1b3980625163ac394f13bb1289fabbf4416d71b",
    "dense_complex": "279999725edbe4ca4849545e0b1be9e36c85915c6078de4d6b2b7a607e879ff2",
    "dense_complex_mirrored": "d7c7efffa74f558eb81590dfb3b088e68c702f36a14b41ed84f3c4f6474598ac",
    "dense_real": "c3fd32c4f10efa54e1e53f131498fcadf18a55b84a60cdebfb5e00222ad5d4c3",
    "sparse_complex": "8720b0c8ab3065ffe00a6e1273ab92a5a4fa03fe30d5892bbd230bdf0b20e268",
    "sparse_real": "caaa26e79221c49c9a13196ada36aba3389bd54e939ee04a5f0d65bf67f919b0",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_FAMILIES))
def test_golden_digest(family):
    assert _digest(GOLDEN_FAMILIES[family]()) == GOLDEN_DIGESTS[family]
