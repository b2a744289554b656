"""Counting tests: table columns, budgets, closed forms, actual-vs-bound."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwenc import compiler
from hwenc.bitstrings import BitString, walk_wires
from hwenc.compiler import compile_mcry, lower, lower_gate
from hwenc.counting import (
    BudgetRow,
    closed_form_dense,
    count_binary,
    count_dense,
    count_sparse,
    gate_cnot_bound,
    grbs_bound,
    mcry_bound,
    rbs_bound,
)
from hwenc.encoders import (
    encode_binary,
    encode_binary_complex,
    encode_dense_complex,
    encode_dense_real,
    encode_sparse,
)
from hwenc.ir import rbs, rw, ry, rz

SPARSE_ADDRESSES = [
    "000111", "001011", "001110", "010011", "011010", "100101", "111010",
]


def cnots(gates) -> int:
    return sum(1 for g in gates if g.kind == "CNOT")


class TestColumns:
    def test_mcry_column(self):
        assert [mcry_bound(ell) for ell in range(8)] == [0, 2, 4, 12, 36, 56, 72, 88]

    def test_rbs_columns(self):
        assert [rbs_bound(ell) for ell in range(7)] == [2, 6, 10, 26, 58, 74, 90]
        assert [rbs_bound(ell, True) for ell in range(7)] == [2, 6, 14, 38, 84, 104, 124]

    def test_grbs_formulae(self):
        assert grbs_bound(2, 2, 0) == 30
        assert grbs_bound(3, 3, 0) == 66
        assert grbs_bound(2, 3, 1) == 64
        assert grbs_bound(1, 2, 0, True) == 46
        with pytest.raises(ValueError, match="three mixed wires"):
            grbs_bound(1, 1, 0)

    def test_gate_cnot_bound_dispatch(self):
        assert gate_cnot_bound(ry(0.3, 1, ctrls=(2, 3))) == 4
        assert gate_cnot_bound(rbs(0.3, (1,), (2,), ctrls=(3,))) == 6
        assert gate_cnot_bound(rbs(0.3, (1,), (2,), 0.2, ctrls=(3,))) == 6
        assert gate_cnot_bound(rbs(0.3, (1, 2), (3, 4))) == 30
        assert gate_cnot_bound(rbs(0.3, (1, 2), (3, 4), 0.4)) == 68
        # anti-controls price like controls
        assert gate_cnot_bound(rbs(0.3, (1,), (2,), anti_ctrls=(3,))) == 6
        # single-bit raise prices as a controlled rotation
        assert gate_cnot_bound(rbs(0.3, (), (1,), ctrls=(2,))) == 2


class TestActualUnderBound:
    """The table is a ceiling: no gate lowers to more CNOTs than its bound."""

    @staticmethod
    def wiring(first, ell):
        # controls and anti-controls alternate, so both kinds reach every width
        wires = tuple(range(first, first + ell))
        return dict(ctrls=wires[::2], anti_ctrls=wires[1::2])

    def test_rotations_dominated_through_twelve(self):
        ax = (0.48, -0.6, 0.64)
        for ell in range(13):
            wires = self.wiring(2, ell)
            for g in (ry(0.7, 1, **wires), rz(0.7, 1, **wires), rw(0.7, ax, 1, **wires),
                      rw(np.pi, ax, 1, **wires)):
                assert cnots(compile_mcry(g)) <= gate_cnot_bound(g) == mcry_bound(ell), (
                    g.kind, ell)

    def test_mixing_dominated_through_twelve(self):
        for ell in range(13):
            wires = self.wiring(3, ell)
            g = rbs(0.7, (1,), (2,), **wires)
            assert cnots(lower_gate(g)) <= gate_cnot_bound(g) == rbs_bound(ell), ell
            g = rbs(0.7, (2,), (1,), 0.4, **wires)
            assert cnots(lower_gate(g)) <= gate_cnot_bound(g) == rbs_bound(ell, True), ell

    def test_phased_binary_gates_meet_real_columns_through_twelve(self):
        # phased two-wire and raising mixing gates cost no more than the
        # real gates of the same columns
        for ell in range(13):
            wires = tuple(range(3, 3 + ell))
            for w in (dict(ctrls=wires), self.wiring(3, ell)):
                for theta, phi in itertools.product((0.7, -2.1, 3.0, 1e-3),
                                                    (0.4, -1.3, 3.1)):
                    g = rbs(theta, (2,), (1,), phi, **w)
                    assert cnots(lower_gate(g)) <= rbs_bound(ell), (ell, theta, phi)
                    g = rbs(theta, (), (1,), phi, **w)
                    assert cnots(lower_gate(g)) <= mcry_bound(ell), (ell, theta, phi)

    def test_generalized_dominated_through_twelve(self):
        # every split of one to six mixed wires, the two-wire ones included
        for m in range(4):
            for mp in range(1, 4):
                ins = tuple(range(1, m + 1))
                outs = tuple(range(m + 1, m + mp + 1))
                for ell in range(13):
                    wires = self.wiring(m + mp + 1, ell)
                    for phi in (0.0, 0.4):
                        g = rbs(0.7, ins, outs, phi, **wires)
                        assert cnots(lower_gate(g)) <= gate_cnot_bound(g), (m, mp, ell, phi)

    def test_priced_cnots_are_emitted(self):
        # the identity is free; otherwise up to six controls cost the
        # multiplexor's 2^ell CNOTs, and from seven on the linear budget
        for ell in range(13):
            for lam in (0.0, 0.7, -2.1, np.pi):
                want = 0 if ell == 0 or lam == 0.0 else (
                    1 << ell if ell <= 6 else mcry_bound(ell))
                for axis in ((0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (0.48, -0.6, 0.64)):
                    g = rw(lam, axis, 1, ctrls=tuple(range(2, ell + 2)))
                    assert cnots(compile_mcry(g)) == want, (ell, lam, axis)
        # the rule's reason: the linear construction would cost 72 > 64 at
        # six controls, and costs 88 < 128 at seven
        for ell in range(6, 13):
            built = compiler._linear_rotation(0.7, 1, tuple(range(2, ell + 2)))
            assert cnots(built) == mcry_bound(ell), ell
        assert mcry_bound(6) > 1 << 6 and mcry_bound(7) < 1 << 7

    def test_exact_at_small_controls(self):
        # the real column is met exactly up to two controls, the complex
        # one up to one control; beyond that the compiled count is lower
        for ell in (0, 1, 2):
            g = rbs(0.7, (6,), (5,), ctrls=tuple(range(1, ell + 1)))
            assert cnots(lower_gate(g)) == rbs_bound(ell)
        for ell in (0, 1):
            g = rbs(0.7, (6,), (5,), 0.4, ctrls=tuple(range(1, ell + 1)))
            assert cnots(lower_gate(g)) == rbs_bound(ell, True)
        g = rbs(0.7, (6,), (5,), ctrls=(1, 2, 3))
        assert cnots(lower_gate(g)) < rbs_bound(3)
        g = rbs(0.7, (6,), (5,), 0.4, ctrls=(1, 2))
        assert cnots(lower_gate(g)) < rbs_bound(2, True)


class TestDenseBudget:
    def test_weight_two_totals_sixty_eight(self):
        budget = count_dense(6, 2)
        assert [(r.gates, r.per_gate) for r in budget.rows] == [(4, 2), (10, 6)]
        assert budget.total == 68
        assert budget.analytic_total == 68

    def test_census_matches_built_circuit(self):
        rng = np.random.default_rng(60)
        for n, k in [(5, 2), (6, 2), (6, 3), (7, 3), (6, 4)]:
            budget = count_dense(n, k)
            rep = encode_dense_real(n, k, rng.normal(size=comb(n, k)))
            # a heavy weight walks the complements
            walk = [b.complement() if 2 * k > n else b for b in rep.ordering]
            steps = list(walk_wires(walk))
            for ell, row in enumerate(budget.rows):
                have = sum(1 for _, _, ctrls in steps if len(ctrls) == ell)
                assert have == row.gates, (n, k, ell)
            mixers = [g for g in rep.circuit.gates if g.kind != "X"]
            for g, (_, _, ctrls) in zip(mixers, steps, strict=True):
                assert len(g.ctrls) + len(g.anti_ctrls) <= len(ctrls), (n, k, g)

    def test_closed_form_equals_summation(self):
        for n in range(2, 17):
            for k in range(n + 1):
                for cplx in (False, True):
                    budget = count_dense(n, k, cplx)
                    assert budget.total == budget.analytic_total, (n, k, cplx)

    def test_closed_form_values(self):
        assert closed_form_dense(6, 1) == 10
        assert closed_form_dense(6, 2) == 68
        assert closed_form_dense(6, 3) == closed_form_dense(6, 3, False)
        # mirrored weights price like their complement
        for n in range(2, 10):
            for k in range(n + 1):
                assert closed_form_dense(n, k) == closed_form_dense(n, n - k)

    def test_heavy_weight_tail(self):
        # weight five and above leave the quartic table; the tail must
        # agree with the direct census sum (already asserted above), and
        # grow monotonically with n at fixed k
        values = [closed_form_dense(n, 5) for n in range(10, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_actual_under_dense_budget(self):
        rng = np.random.default_rng(61)
        for n, k in [(5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (6, 4)]:
            rep = encode_dense_real(n, k, rng.normal(size=comb(n, k)))
            assert lower(rep.circuit).cnot_total <= count_dense(n, k).total

    @pytest.mark.parametrize("n, k", [(6, 2), (6, 5), (11, 9)])
    def test_complex_lowered_meets_dense_budget(self, n, k):
        rng = np.random.default_rng(63)
        z = rng.normal(size=comb(n, k)) + 1j * rng.normal(size=comb(n, k))
        rep = encode_dense_complex(n, k, z)
        assert lower(rep.circuit).cnot_total == count_dense(n, k, True).total

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="out of range"):
            count_dense(4, 5)
        with pytest.raises(ValueError, match="out of range"):
            closed_form_dense(4, -1)


class TestSparseBudget:
    def test_example_totals_174(self):
        budget = count_sparse(6, SPARSE_ADDRESSES)
        assert [r.per_gate for r in budget.rows] == [2, 6, 30, 6, 66, 64]
        assert budget.total == 174

    def test_actual_under_budget_for_example(self):
        rng = np.random.default_rng(62)
        rep = encode_sparse(6, list(zip(rng.normal(size=7), SPARSE_ADDRESSES)))
        assert lower(rep.circuit).cnot_total == 110
        assert 110 <= 174

    def test_complex_prices_the_same_rows(self):
        # one row per mixing gate, priced complex; the leading global phase
        # costs no CNOT and has no row
        real = count_sparse(6, SPARSE_ADDRESSES)
        budget = count_sparse(6, SPARSE_ADDRESSES, complex_amplitudes=True)
        assert [r.label for r in budget.rows] == [r.label for r in real.rows]
        assert [r.per_gate for r in budget.rows] == [2, 6, 68, 6, 112, 110]
        assert budget.total == 304

    def test_phase_zero_gate_is_priced_real(self):
        # [1, 1j]: the one RBS carries phase -pi/4, so the complex budget
        # is its bound; equal arguments leave it phase 0, priced real
        rep = encode_sparse(3, [(1.0, "000"), (1j, "111")])
        budget = count_sparse(3, ["000", "111"], complex_amplitudes=True)
        assert budget.total == sum(gate_cnot_bound(g) for g in rep.circuit.gates) == 46
        assert lower(rep.circuit).cnot_total == 8
        rep = encode_sparse(3, [(np.exp(1j), "000"), (np.exp(1j), "111")])
        assert rep.circuit.gates[-1].phi == 0.0
        assert sum(gate_cnot_bound(g) for g in rep.circuit.gates) == 12 < budget.total

    def test_single_address(self):
        budget = count_sparse(4, ["0110"])
        assert budget.rows == () and budget.total == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="out of order"):
            count_sparse(4, ["0111", "0011"])
        with pytest.raises(ValueError, match="duplicate"):
            count_sparse(4, ["0011", "0011"])
        with pytest.raises(ValueError, match="length"):
            count_sparse(4, ["011"])
        with pytest.raises(ValueError, match="at least one"):
            count_sparse(4, [])


@st.composite
def sparse_inputs(draw):
    """(n, weight-sorted addresses, values, complex?) with real positive
    values, or values with arguments across (-pi, pi], 0 and repeats
    included."""
    n = draw(st.integers(2, 7))
    picks = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=10,
                          unique=True))
    addresses = sorted((BitString.from_index(n, i) for i in picks),
                       key=lambda b: b.weight)
    size = st.floats(0.1, 10.0)
    mags = draw(st.lists(size, min_size=len(picks), max_size=len(picks)))
    complex_amplitudes = draw(st.booleans())
    if complex_amplitudes:
        turn = st.one_of(st.sampled_from([0.0, 1.0, np.pi / 2, np.pi]),
                         st.floats(-np.pi, np.pi, exclude_min=True))
        args = draw(st.lists(turn, min_size=len(picks), max_size=len(picks)))
        values = [m * np.exp(1j * a) for m, a in zip(mags, args)]
    else:
        values = mags
    return n, addresses, values, complex_amplitudes


class TestSparseBudgetPricesTheCircuit:
    @given(sparse_inputs())
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_the_encoded_gate_bounds(self, case):
        # budget and circuit read their wires off one walk; a gate bound
        # prices an RBS with no phase, or phase 0, as real, and the complex
        # budget prices every row complex
        n, addresses, values, complex_amplitudes = case
        rep = encode_sparse(n, list(zip(values, addresses)))
        bounds = sum(gate_cnot_bound(g) for g in rep.circuit.gates)
        phases = [g.phi for g in rep.circuit.gates if g.kind == "RBS"]
        if not complex_amplitudes or all(phases):
            assert count_sparse(n, addresses, complex_amplitudes).total == bounds
        else:
            assert count_sparse(n, addresses).total <= bounds
            assert bounds <= count_sparse(n, addresses, True).total


class TestBinaryBudget:
    def test_six_qubits(self):
        budget = count_binary(6)
        assert budget.total == 62
        assert budget.analytic_total == 1120
        budget = count_binary(6, complex_amplitudes=True)
        assert budget.total == 124
        assert budget.analytic_total is None

    def test_four_qubits(self):
        budget = count_binary(4)
        assert budget.total == 14
        assert budget.analytic_total == 120

    def test_rows_cover_levels(self):
        for complex_amplitudes, stacks in ((False, 1), (True, 2)):
            budget = count_binary(5, complex_amplitudes)
            assert [r.label for r in budget.rows] == [
                "qubit 5, 0 controls", "qubit 4, 1 controls", "qubit 3, 2 controls",
                "qubit 2, 3 controls", "qubit 1, 4 controls",
            ]
            assert [r.gates for r in budget.rows] == [stacks] * 5
            assert [r.per_gate for r in budget.rows] == [0, 2, 4, 8, 16]

    def test_formula_matches_stage_sum_from_four(self):
        # the paper's closed formula prices its weight-stacked loader, one
        # bridge and one sweep per weight class, with each bridge booked one
        # class late and a phantom fully controlled one; from four qubits on
        # it equals that shifted stage sum exactly
        for n in range(4, 17):
            alt = sum(
                (comb(n, k) - 1) * rbs_bound(k - 1) + mcry_bound(k)
                for k in range(1, n + 1)
            )
            assert count_binary(n).analytic_total == alt, n

    def test_under_size_bound(self):
        for n in range(1, 25):
            assert count_binary(n).analytic_total <= 8 * n * 2**n, n

    def test_actual_under_structural(self):
        # the rows price the encoders' own gates: CNOTs cost one, and the
        # uncontrolled rotations nothing
        rng = np.random.default_rng(63)
        for n in range(1, 7):
            x = rng.normal(size=2**n)
            for rep, complex_amplitudes in (
                (encode_binary(n, x), False),
                (encode_binary_complex(n, x + 1j * rng.normal(size=2**n)), True),
            ):
                bounds = sum(gate_cnot_bound(g) for g in rep.circuit.gates)
                assert bounds == count_binary(n, complex_amplitudes).total, n

    def test_lowered_within_budget_through_twelve(self):
        # the count is exact: 2^n - 2 CNOTs real, twice that complex
        rng = np.random.default_rng(64)
        for n in range(1, 13):
            x = rng.normal(size=2**n)
            real = lower(encode_binary(n, x).circuit).cnot_total
            assert real == 2**n - 2 == count_binary(n).total, n
            if n == 10:
                assert real == 1_022  # 44,472 with the weight-stacked loader
            phased = encode_binary_complex(n, x + 1j * rng.normal(size=2**n)).circuit
            assert lower(phased).cnot_total == 2 * real == count_binary(n, True).total, n

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="at least one"):
            count_binary(0)


class TestBudgetRow:
    def test_subtotal(self):
        row = BudgetRow(label="x", gates=3, per_gate=7)
        assert row.subtotal == 21
