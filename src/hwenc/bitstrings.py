"""Fixed-length bitstrings and the constant-weight transposition walk.

Two index spaces coexist throughout the package and are easy to mix up:

* string positions ``p = 1..n`` count characters left to right;
* qubit labels ``q = n - p + 1`` count wires right to left, so the rightmost
  character is qubit 1 and ``int(bits, 2)`` puts qubit ``q`` at integer bit
  ``q - 1``.

The walk over weight-k strings operates on positions (its pivot rules talk
about "left" and "right" of the written word); everything gate-facing is
expressed in qubit labels.

:func:`walk_wires` reads a gate's wires off a walk: ones shared by a pair
are its controls. The sparse encoder builds its gates from it and
``counting.count_sparse`` prices the same wires. :func:`walk_literals`
keeps its in- and out-wires and, where that takes fewer, controls the gate
only on what separates it from the strings loaded before; the dense
encoders build their gates from it.
"""

from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple, Sequence


class SequenceExhausted(Exception):
    """Raised when the transposition walk has no next string."""


@dataclass(frozen=True)
class BitString:
    """A binary word of fixed length, written with qubit n leftmost."""

    bits: str

    def __post_init__(self):
        if not self.bits or any(c not in "01" for c in self.bits):
            raise ValueError(f"not a bitstring: {self.bits!r}")

    def __str__(self) -> str:
        return self.bits

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return self.bits.count("1")

    @property
    def ones(self) -> frozenset[int]:
        """Qubit labels carrying a 1."""
        n = self.n
        return frozenset(n - i for i, c in enumerate(self.bits) if c == "1")

    @property
    def zeros(self) -> frozenset[int]:
        """Qubit labels carrying a 0."""
        n = self.n
        return frozenset(n - i for i, c in enumerate(self.bits) if c == "0")

    def to_index(self) -> int:
        return int(self.bits, 2)

    @classmethod
    def from_index(cls, n: int, index: int) -> "BitString":
        if not 0 <= index < 2**n:
            raise ValueError(f"index {index} out of range for {n} qubits")
        return cls(format(index, f"0{n}b"))

    @classmethod
    def initial(cls, n: int, k: int) -> "BitString":
        """The canonical weight-k start: k ones followed by n-k zeros."""
        if not 0 <= k <= n:
            raise ValueError(f"weight {k} out of range for {n} qubits")
        return cls("1" * k + "0" * (n - k))

    def complement(self) -> "BitString":
        return BitString("".join("1" if c == "0" else "0" for c in self.bits))


@dataclass(frozen=True)
class EhrlichState:
    """A bitstring plus the marked positions that drive the walk.

    ``marked`` holds string positions (1-based, left to right), not qubit
    labels.
    """

    string: BitString
    marked: frozenset[int]

    @classmethod
    def start(cls, n: int, k: int) -> "EhrlichState":
        """Weight-k start ``1^k 0^(n-k)`` with the ones marked."""
        return cls(BitString.initial(n, k), frozenset(range(1, k + 1)))


def next_state(state: EhrlichState) -> EhrlichState:
    """One step of the constant-weight walk.

    The pivot is the rightmost marked position m.  If its bit is 0 it swaps
    with the nearest 1 to its right; if 1, with the farthest 0 reachable to
    its right without passing another 1.  The pivot is then unmarked and all
    positions strictly between the pivot and the final run of equal bits are
    marked.  Raises SequenceExhausted when no step is possible.
    """
    if not state.marked:
        raise SequenceExhausted("sequence exhausted: no marked positions left")
    bits = state.string.bits
    n = len(bits)
    m = max(state.marked)
    if bits[m - 1] == "0":
        partner = next((p for p in range(m + 1, n + 1) if bits[p - 1] == "1"), None)
    else:
        partner = None
        for p in range(m + 1, n + 1):
            if bits[p - 1] == "1":
                break
            partner = p
    if partner is None:
        raise SequenceExhausted("sequence exhausted: pivot has no swap partner")

    chars = list(bits)
    chars[m - 1], chars[partner - 1] = chars[partner - 1], chars[m - 1]
    swapped = "".join(chars)

    # start of the final maximal run of equal characters
    j = n
    while j > 1 and swapped[j - 2] == swapped[j - 1]:
        j -= 1

    marked = (state.marked - {m}) | frozenset(range(m + 1, j))
    return EhrlichState(BitString(swapped), marked)


def walk_states(start: EhrlichState, count: int) -> Iterator[EhrlichState]:
    """Yield ``count`` states of the walk, the given start included."""
    state = start
    for step in range(count):
        if step:
            state = next_state(state)
        yield state


def ehrlich_sequence(n: int, k: int) -> list[BitString]:
    """All C(n, k) weight-k strings in walk order, from ``1^k 0^(n-k)``.

    Consecutive strings differ by exactly one transposition.
    """
    return [s.string for s in walk_states(EhrlichState.start(n, k), comb(n, k))]


class GateParams(NamedTuple):
    """Wire assignment for one mixing gate, all in qubit labels."""

    ins: frozenset[int]
    outs: frozenset[int]
    ctrls: frozenset[int]
    untouched: frozenset[int]


def gate_params(
    b: BitString, b_next: BitString, untouched: frozenset[int]
) -> GateParams:
    """Wires of the gate taking weight from ``b`` onto ``b_next``.

    Ones shared by both strings are controls; ones only in ``b`` are inputs,
    ones only in ``b_next`` are outputs.  ``untouched`` tracks qubits still
    guaranteed to sit in their initial state: controls on them are redundant
    and dropped.  The shrink of ``untouched`` happens before the control
    filter, so a qubit first used as a wire here no longer shields anything.
    """
    if b.n != b_next.n:
        raise ValueError("length mismatch")
    ones, ones_next = b.ones, b_next.ones
    ctrls = ones & ones_next
    ins = ones - ctrls
    outs = ones_next - ctrls
    untouched = untouched - (ins | outs)
    ctrls = ctrls - untouched
    return GateParams(ins, outs, ctrls, untouched)


def walk_wires(
    walk: Sequence[BitString],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Sorted ``(ins, outs, ctrls)`` of the gate between each consecutive pair.

    The untouched set starts as the first string's ones and is threaded
    through :func:`gate_params`, so one step's wires depend on every step
    before it.
    """
    untouched = walk[0].ones
    for b, b_next in zip(walk, walk[1:]):
        p = gate_params(b, b_next, untouched)
        untouched = p.untouched
        yield tuple(sorted(p.ins)), tuple(sorted(p.outs)), tuple(sorted(p.ctrls))


def walk_literals(
    walk: Sequence[BitString],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Sorted ``(ins, outs, ctrls, anti_ctrls)`` of each gate of
    :func:`walk_wires`, with controls that separate only the strings
    loaded before it.

    The gate taking b_j onto b_{j+1} acts on every basis state that reads
    b_j's or b_{j+1}'s pattern on its mixed wires, so it must leave out each
    earlier string b_i (i < j) that does; later strings hold no amplitude
    yet. A literal is a wire off the mixed pair held at b_j's value, a
    control where b_j reads 1 and an anti-control where it reads 0, and it
    leaves out every string that reads the other value there. Literals are
    picked greedily, the one leaving out the most strings not yet left out
    first (ties to the lowest label), and they replace :func:`walk_wires`'
    controls only when they are strictly fewer, so no gate carries more
    controls than that walk gives it.

    Each wire holds its ones over the walk as one integer bit set, the
    first string in the top bit. Gate j shifts the sets it reads down to
    the strings before b_j, the latest in bit 0, so a greedy round costs
    two big-integer operations per free wire, each as long as the stretch
    back to the earliest string still hit.
    """
    n, d = walk[0].n, len(walk)
    full = (1 << d) - 1
    # column p of the written strings is qubit n - p; bit d - 1 - i is walk[i]
    ones = {n - p: int("".join(column), 2)
            for p, column in enumerate(zip(*(b.bits for b in walk)))}
    zeros = {q: full ^ s for q, s in ones.items()}
    for j, (ins, outs, ctrls) in enumerate(walk_wires(walk)):
        # shifted by d - j, bit i of a set is walk[j - 1 - i]
        cut = d - j
        here = there = (1 << j) - 1
        for q in ins:
            here &= ones[q] >> cut
            there &= zeros[q] >> cut
        for q in outs:
            here &= zeros[q] >> cut
            there &= ones[q] >> cut
        hits = here | there
        bits = walk[j].bits
        free = [q for q in range(1, n + 1) if q not in ins and q not in outs]
        # the strings a literal keeps: those reading b_j's value on its wire
        keep = [(ones[q] if bits[n - q] == "1" else zeros[q]) >> cut for q in free]
        picks = []
        while hits and len(picks) + 1 < len(ctrls):
            left = [(hits & s).bit_count() for s in keep]
            i = left.index(min(left))
            hits &= keep.pop(i)
            picks.append(free.pop(i))
        if hits:
            yield ins, outs, ctrls, ()
        else:
            yield (ins, outs, tuple(sorted(q for q in picks if bits[n - q] == "1")),
                   tuple(sorted(q for q in picks if bits[n - q] == "0")))
