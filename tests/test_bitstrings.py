"""Walk order, marks and wire assignment against the hand-checked 6-choose-2 run."""

import pytest
from math import comb

from hwenc.bitstrings import (
    BitString,
    EhrlichState,
    SequenceExhausted,
    ehrlich_sequence,
    gate_params,
    next_state,
    walk_literals,
    walk_states,
    walk_wires,
)

# Golden run for n=6, k=2: every visited string with its marked positions,
# frozen before the walk was implemented.
GOLDEN_WALK_6_2 = [
    ("110000", {1, 2}),
    ("100001", {1, 3, 4, 5}),
    ("100010", {1, 3, 4}),
    ("100100", {1, 3}),
    ("101000", {1}),
    ("011000", {2, 3}),
    ("010001", {2, 4, 5}),
    ("010010", {2, 4}),
    ("010100", {2}),
    ("001100", {3, 4}),
    ("001001", {3, 5}),
    ("001010", {3}),
    ("000110", {4, 5}),
    ("000101", {4}),
    ("000011", set()),
]

# Wires for each of the 14 transitions, as (ins, outs, ctrls) qubit labels
# after redundant-control removal, plus the untouched set AFTER the gate.
GOLDEN_GATES_6_2 = [
    ({5}, {1}, set(), {6}),
    ({1}, {2}, set(), {6}),
    ({2}, {3}, set(), {6}),
    ({3}, {4}, set(), {6}),
    ({6}, {5}, {4}, set()),
    ({4}, {1}, {5}, set()),
    ({1}, {2}, {5}, set()),
    ({2}, {3}, {5}, set()),
    ({5}, {4}, {3}, set()),
    ({3}, {1}, {4}, set()),
    ({1}, {2}, {4}, set()),
    ({4}, {3}, {2}, set()),
    ({2}, {1}, {3}, set()),
    ({3}, {2}, {1}, set()),
]


class TestBitString:
    def test_rejects_junk(self):
        for bad in ("", "012", "1x0", "1 0"):
            with pytest.raises(ValueError):
                BitString(bad)

    def test_index_round_trip(self):
        for n in (1, 3, 6):
            for i in range(2**n):
                b = BitString.from_index(n, i)
                assert b.n == n
                assert b.to_index() == i

    def test_from_index_range(self):
        with pytest.raises(ValueError):
            BitString.from_index(3, 8)
        with pytest.raises(ValueError):
            BitString.from_index(3, -1)

    def test_label_space(self):
        # leftmost character is qubit n, rightmost is qubit 1
        b = BitString("100101")
        assert b.ones == {6, 3, 1}
        assert b.zeros == {5, 4, 2}
        assert b.to_index() == 0b100101

    def test_weight_and_complement(self):
        b = BitString("100101")
        assert b.weight == 3
        assert b.complement().bits == "011010"

    def test_initial(self):
        assert BitString.initial(6, 2).bits == "110000"
        assert BitString.initial(4, 0).bits == "0000"
        assert BitString.initial(4, 4).bits == "1111"


class TestWalk:
    def test_golden_strings_and_marks(self):
        state = EhrlichState.start(6, 2)
        for bits, marks in GOLDEN_WALK_6_2:
            assert state.string.bits == bits
            assert state.marked == frozenset(marks)
            if marks:
                state = next_state(state)

    def test_exhaustion(self):
        state = EhrlichState.start(6, 2)
        for _ in range(comb(6, 2) - 1):
            state = next_state(state)
        with pytest.raises(SequenceExhausted, match="sequence exhausted"):
            next_state(state)

    def test_full_weight_start_is_exhausted(self):
        # 1^n has marks but no legal move; there is no second string
        with pytest.raises(SequenceExhausted):
            next_state(EhrlichState.start(3, 3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_covers_all_weights_exhaustively(self, n):
        for k in range(n + 1):
            seq = ehrlich_sequence(n, k)
            assert len(seq) == comb(n, k)
            assert len(set(seq)) == len(seq)
            assert all(b.weight == k for b in seq)
            for a, b in zip(seq, seq[1:]):
                assert sum(p != q for p, q in zip(a.bits, b.bits)) == 2

    def test_forward_endpoints(self):
        seq = ehrlich_sequence(6, 2)
        assert seq[0].bits == "110000"
        assert seq[-1].bits == "000011"

    def test_degenerate_weights(self):
        assert [b.bits for b in ehrlich_sequence(4, 0)] == ["0000"]
        assert [b.bits for b in ehrlich_sequence(4, 4)] == ["1111"]

    def test_walk_states_counts(self):
        states = list(walk_states(EhrlichState.start(5, 2), 4))
        assert len(states) == 4
        assert states[0].string.bits == "11000"


class TestGateParams:
    def test_plain_transposition(self):
        p = gate_params(BitString("0110"), BitString("0101"), frozenset())
        assert p.ins == {2} and p.outs == {1} and p.ctrls == {3}

    def test_untouched_shrinks_before_control_filter(self):
        # qubit 3 is both a control candidate and freshly untouched: the
        # shield wins and the control is dropped
        p = gate_params(BitString("0110"), BitString("0101"), frozenset({3}))
        assert p.ctrls == set()
        assert p.untouched == {3}

    def test_wire_use_consumes_shield(self):
        p = gate_params(BitString("0110"), BitString("0101"), frozenset({2, 3}))
        assert p.ins == {2} and p.untouched == {3}
        assert p.ctrls == set()

    def test_golden_gate_list(self):
        strings = [BitString(bits) for bits, _ in GOLDEN_WALK_6_2]
        untouched = strings[0].ones
        assert untouched == {6, 5}
        for (ins, outs, ctrls, after), b, b_next in zip(
            GOLDEN_GATES_6_2, strings, strings[1:]
        ):
            p = gate_params(b, b_next, untouched)
            assert p.ins == frozenset(ins)
            assert p.outs == frozenset(outs)
            assert p.ctrls == frozenset(ctrls)
            assert p.untouched == frozenset(after)
            untouched = p.untouched

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gate_params(BitString("01"), BitString("011"), frozenset())


def _plain_literals(walk, j, ctrls):
    """Controls and anti-controls of gate j by the greedy of walk_literals,
    over a plain list of earlier strings: score every free wire every round."""
    b, b_next = walk[j].to_index(), walk[j + 1].to_index()
    n = walk[j].n
    mixed = b ^ b_next
    hits = [s for s in (w.to_index() for w in walk[:j])
            if s & mixed in (b & mixed, b_next & mixed)]
    free = [q for q in range(1, n + 1) if not mixed >> (q - 1) & 1]
    picks = []
    while hits and len(picks) + 1 < len(ctrls):
        # most strings left out first, ties to the lowest label
        q = max(free, key=lambda q: (sum((s ^ b) >> (q - 1) & 1 for s in hits), -q))
        free.remove(q)
        picks.append(q)
        hits = [s for s in hits if not (s ^ b) >> (q - 1) & 1]
    if hits:
        return ctrls, ()
    held = [q for q in sorted(picks) if b >> (q - 1) & 1]
    return tuple(held), tuple(q for q in sorted(picks) if q not in held)


def test_walk_literals_is_the_plain_greedy():
    for walk in (ehrlich_sequence(n, k) for n in range(2, 10) for k in range(1, n)):
        wires = list(walk_wires(walk))
        steps = list(walk_literals(walk))
        assert len(steps) == len(wires) == len(walk) - 1
        for j in range(len(steps)):
            ins, outs, ctrls = wires[j]
            assert steps[j] == (ins, outs) + _plain_literals(walk, j, ctrls), (walk[j], j)
