"""Exact statevector simulation, sampling, and synthetic CNOT noise.

:func:`run` is the exact engine for every circuit, logical or CNOT-level.
Up to 16 qubits it holds the state as one complex vector viewed as a
(2,)*n tensor whose axis n - q holds qubit q, so the flat index is
``BitString.to_index``.  Each gate is one slice step: controls fix their
axes to 1 and anti-controls theirs to 0, the lo slice reads the gate's
in-wires 1 and out-wires 0 (a one-qubit gate: its target 0) and the hi
slice the mirror, and a 2x2 block mixes the two; X and CNOT swap them.
Wider circuits keep the support as a sorted array of basis indices with a
matching complex amplitude array (int64 indices up to 62 qubits, Python
ints beyond).  X and CNOT flip an index bit on the entries whose controls
hold and re-sort; every other gate is a 2x2 block on pairs of indices that
differ by a fixed bit flip, found with ``searchsorted``, with a partner
inserted only when it is new and nonzero.  A gate thus costs a few array
passes over the support, which for encoder circuits is d << 2^n.  That
step is :func:`apply_gate`.  Both steps form the same products and sums,
so the width decides only the speed, and the per-state action of
``ir.apply_to_basis_state`` is the reference both are tested against.

:func:`dense_run` (numpy vectors, up to 16 qubits) runs CNOT-level
circuits only, and refuses logical ones.  Its two steps serve the noisy
engines: a one-qubit gate is a 2x2 product on one axis of a stack of
vectors, and a CNOT swaps two quarter slices in place, so its caller owns
the array.  Its product rounds differently from :func:`run`'s, and seeded
noisy counts depend on that rounding.  No gate is ever built as a
2^n x 2^n matrix.

Noise is a single synthetic channel: after every CNOT, with probability p2,
a uniformly random non-identity two-qubit Pauli hits that CNOT's wires.
Shots are iid, so their counts are Multinomial(shots, diag rho), with rho
the final density matrix under the matching depolarizing channel.  Up to 9
qubits rho is evolved exactly and the counts are one multinomial draw.  That
density kernel evolves a stack of circuits with one skeleton (width, and the
kind and wires at every gate position) in one pass, and their noiseless
amplitudes as a statevector stack through the dense steps; the density
stack's axis order is tracked, not restored after each gate.  A stack holds
at most ``_STACK_ENTRIES`` density entries, a single run is the one-circuit
stack, and each circuit's arithmetic is the same in any stack.  One function,
``_noisy_runs``, checks a batch of circuits (CNOT-level, one skeleton, at
least one shot), picks the engine by width and draws each circuit's counts
from its own seed; ``run_noisy`` and ``mitigation`` use it.  From
10 to 16 qubits, where rho would need 4^n entries, each shot is its own
trajectory: shots sharing an insertion pattern see the same final state, so
each distinct pattern is simulated once and its counts are a multinomial
draw.  The patterns are replayed in sorted order off one noiseless pass, so
one vector per pattern in flight is kept, not one per CNOT.  Either way the
run is deterministic given its seed, which, like its shot count, is an
argument of the run: the noise model is the channel alone.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from hwenc.bitstrings import BitString
from hwenc.ir import (
    Circuit,
    Gate,
    _mask,
    _mixing_matrix,
    _single_qubit_matrix,
)

PRUNE_TOL = 1e-12

# widest circuit held as a full statevector (2^n amplitudes, 1 MB at n = 16)
_DENSE_QUBITS = 16


@dataclass
class SparseState:
    """Amplitudes over computational basis states, keyed by integer index."""

    n: int
    amps: dict[int, complex]

    @classmethod
    def zero(cls, n: int) -> "SparseState":
        return cls(n, {0: 1.0 + 0j})

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))

    def amplitude(self, b) -> complex:
        """Amplitude of one basis state, given as ``_basis_index`` reads it."""
        return self.amps.get(_basis_index(b, self.n), 0j)

    def probabilities(self) -> dict[BitString, float]:
        return {
            BitString.from_index(self.n, i): abs(a) ** 2
            for i, a in sorted(self.amps.items())
        }

    def as_vector(self) -> np.ndarray:
        if self.n > _DENSE_QUBITS:
            raise ValueError(f"dense view limited to {_DENSE_QUBITS} qubits")
        v = np.zeros(2**self.n, dtype=complex)
        for i, a in self.amps.items():
            v[i] = a
        return v


def _to_arrays(amps: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    # int64 holds the indices of up to 62 qubits; wider ones are Python ints,
    # which the same kernel runs on as an object array
    idx = np.array(list(amps), dtype=np.int64 if n <= 62 else object)
    amp = np.array(list(amps.values()), dtype=complex)
    nonzero = np.flatnonzero(amp)
    order = nonzero[np.argsort(idx[nonzero])]
    return idx[order], amp[order]


def _apply_flip(idx, amp, care: int, want: int, bit: int):
    """X or CNOT: a permutation, so nothing merges; only the order changes."""
    active = (idx & care) == want
    idx = idx.copy()
    idx[active] ^= bit
    order = np.argsort(idx)
    return idx[order], amp[order]


def _apply_pair(idx, amp, care: int, want: int, lo_key: int, hi_key: int,
                u: np.ndarray):
    """A 2x2 block u on every pair (lo, lo ^ flip), flip = lo_key | hi_key,
    among the entries with idx & care == want; the lo side reads lo_key on
    the flip bits and the hi side hi_key.  Other entries are fixed.

    Each entry on a side takes its new amplitude from its own and its
    partner's old ones, in place.  An entry whose partner is absent inserts
    the partner in sorted order when the amplitude it sends there is nonzero.
    Exact zeros are dropped.
    """
    flip = lo_key | hi_key
    active = np.flatnonzero((idx & care) == want)
    key = idx[active] & flip
    is_hi = key == hi_key
    on_side = is_hi | (key == lo_key)
    at, is_hi = active[on_side], is_hi[on_side]
    if not at.size:
        return idx, amp
    # a partner past the end is clipped onto the last index, which is
    # smaller, so it reads as absent
    partner = idx[at] ^ flip
    pos = np.searchsorted(idx, partner)
    found = idx.take(pos, mode="clip") == partner
    mine = amp[at]
    theirs = np.where(found, amp.take(pos, mode="clip"), 0)
    amp[at] = (np.where(is_hi, u[1, 1], u[0, 0]) * mine
               + np.where(is_hi, u[1, 0], u[0, 1]) * theirs)
    sent = np.where(is_hi, u[0, 1], u[1, 0]) * mine
    born = np.flatnonzero(~found & (sent != 0))
    dead = at[amp[at] == 0]
    if dead.size:
        idx, amp = np.delete(idx, dead), np.delete(amp, dead)
    if born.size:
        born = born[np.argsort(partner[born])]
        new_idx, new_amp = partner[born], sent[born]
        slots = np.searchsorted(idx, new_idx) + np.arange(born.size)
        old = np.ones(idx.size + born.size, dtype=bool)
        old[slots] = False
        idx = _scatter(idx, new_idx, slots, old)
        amp = _scatter(amp, new_amp, slots, old)
    return idx, amp


def _scatter(values: np.ndarray, new: np.ndarray, at: np.ndarray,
             old: np.ndarray) -> np.ndarray:
    out = np.empty(old.size, dtype=values.dtype)
    out[at] = new
    out[old] = values
    return out


def apply_gate(idx: np.ndarray, amp: np.ndarray,
               gate: Gate) -> tuple[np.ndarray, np.ndarray]:
    """One gate on a sorted index array and its amplitudes: the step that
    :func:`run` loops over.

    Matches ``apply_to_basis_state`` summed over the support, to rounding;
    amplitudes that cancel exactly are dropped.  ``amp`` may be updated in
    place, so callers pass arrays they own.
    """
    ctrl = _mask(gate.ctrls)
    care = ctrl | _mask(gate.anti_ctrls)
    if gate.kind in ("X", "CNOT"):
        return _apply_flip(idx, amp, care, ctrl, 1 << (gate.ins[0] - 1))
    if gate.kind == "RBS":
        lo, hi = _mask(gate.ins), _mask(gate.outs)
        u = _mixing_matrix(gate)
    else:
        lo, hi = 0, 1 << (gate.ins[0] - 1)
        u = _single_qubit_matrix(gate)
    return _apply_pair(idx, amp, care, ctrl, lo, hi, u)


def _basis_index(ref, n: int, what: str = "basis state") -> int:
    """The index in [0, 2^n) of one basis state of n qubits.

    ``ref`` is a BitString or a bitstring of width n, or a Python or NumPy
    integer in range.  A bool, a non-integer, another width or an index out
    of range raises ValueError naming ``what``.
    """
    if isinstance(ref, str):
        ref = BitString(ref)
    if isinstance(ref, BitString):
        if ref.n != n:
            raise ValueError(f"{what} has {ref.n} qubits, expected {n}")
        return ref.to_index()
    if isinstance(ref, bool) or not isinstance(ref, (int, np.integer)):
        raise ValueError(f"{what} {ref!r} is not an integer or a bitstring")
    ref = int(ref)
    if not 0 <= ref < 1 << n:
        raise ValueError(f"{what} {ref} outside [0, 2^{n})")
    return ref


def _initial_amps(n: int, initial) -> dict:
    if initial is None:
        return {0: 1.0 + 0j}
    if isinstance(initial, SparseState):
        if initial.n != n:
            raise ValueError(f"initial state has {initial.n} qubits, expected {n}")
        return {_basis_index(i, n, "initial state"): a
                for i, a in initial.amps.items()}
    return {_basis_index(initial, n, "initial state"): 1.0 + 0j}


def run(circuit: Circuit, initial=None) -> SparseState:
    """Run a circuit exactly, logical or CNOT-level, at any width.

    Up to 16 qubits the state is one complex vector viewed as a (2,)*n
    tensor, one :func:`_slice_step` a gate; wider circuits keep a sorted
    index array and its complex amplitudes, one :func:`apply_gate` a gate.
    Both steps form the same products and sums, so they agree to the bit.
    ``initial`` may be a SparseState over the circuit's qubits, one basis
    state as ``_basis_index`` reads it, or None for the all-zeros state;
    another width, a bool, a non-integer or an index out of range raises
    ValueError.  The norm is checked after every gate; its drift past 1e-9
    raises ArithmeticError.  Amplitudes below 1e-12 are pruned at the end
    (mid-circuit cancellation residue), never during the run.
    """
    n = circuit.n
    amps = _initial_amps(n, initial)
    if n > _DENSE_QUBITS:
        idx, amp = _to_arrays(amps, n)
        for i, gate in enumerate(circuit.gates):
            idx, amp = apply_gate(idx, amp, gate)
            _check_norm(float(np.vdot(amp, amp).real), i)
        keep = np.abs(amp) > PRUNE_TOL
        return SparseState(n, dict(zip(idx[keep].tolist(), amp[keep].tolist())))
    vec = np.zeros(2**n, dtype=complex)
    vec[list(amps)] = list(amps.values())
    tensor, parts = vec.reshape((2,) * n), vec.view(np.float64)
    for i, gate in enumerate(circuit.gates):
        _slice_step(tensor, gate)
        _check_norm(float(parts @ parts), i)
    idx = np.flatnonzero(np.abs(vec) > PRUNE_TOL)
    return SparseState(n, dict(zip(idx.tolist(), vec[idx].tolist())))


def _check_norm(norm: float, i: int) -> None:
    if abs(norm - 1.0) > 1e-9:
        raise ArithmeticError(f"norm drifted to {norm} after gate {i}")


def _slice_step(tensor: np.ndarray, gate: Gate) -> None:
    """One gate in place on a statevector viewed as a (2,)*n tensor, whose
    axis n - q holds qubit q.

    Controls fix their axes to 1 and anti-controls theirs to 0.  The lo
    slice reads in-wires 1 and out-wires 0 (an RBS) or the target 0, the hi
    slice the mirror, and the 2x2 block takes them to u00 a + u01 b and
    u10 a + u11 b, the products and sums of :func:`_apply_pair`; X and
    CNOT swap the two slices.
    """
    n = tensor.ndim
    lo = [slice(None)] * n
    for q in gate.ctrls:
        lo[n - q] = 1
    for q in gate.anti_ctrls:
        lo[n - q] = 0
    hi = lo[:]
    if gate.kind == "RBS":
        for q in gate.ins:
            lo[n - q], hi[n - q] = 1, 0
        for q in gate.outs:
            lo[n - q], hi[n - q] = 0, 1
    else:
        lo[n - gate.ins[0]], hi[n - gate.ins[0]] = 0, 1
    # the trailing Ellipsis keeps a slice that fixes every axis a 0-d array:
    # NumPy's scalar product rounds differently from its array loop
    lo, hi = (*lo, ...), (*hi, ...)
    if gate.kind in ("X", "CNOT"):
        tensor[lo], tensor[hi] = tensor[hi], tensor[lo].copy()
        return
    u = _mixing_matrix(gate) if gate.kind == "RBS" else _single_qubit_matrix(gate)
    (u00, u01), (u10, u11) = u.tolist()
    a, b = tensor[lo], tensor[hi]
    tensor[lo], tensor[hi] = u00 * a + u01 * b, u10 * a + u11 * b


def sample(state: SparseState, shots: int, seed: int) -> dict[BitString, int]:
    """Multinomial measurement counts, deterministic given the seed."""
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    indices = sorted(state.amps)
    p = np.array([abs(state.amps[i]) ** 2 for i in indices])
    p = p / p.sum()
    draw = rng.multinomial(shots, p)
    return {
        BitString.from_index(state.n, indices[j]): int(c)
        for j, c in enumerate(draw)
        if c
    }


# dense engine

def _swap_cnot(stack: np.ndarray, ctrl: int, tgt: int) -> None:
    """CNOT in place on a C-contiguous array the caller owns: where bit
    ``ctrl`` of the flat index reads 1, the two quarter slices along bit
    ``tgt`` swap."""
    v = stack.reshape(-1, 2, 1 << (abs(ctrl - tgt) - 1), 2, 1 << min(ctrl, tgt))
    half = v[:, 1] if ctrl > tgt else v[:, :, :, 1]
    half[...] = half[:, :, ::-1] if ctrl > tgt else half[:, ::-1]


def _apply_1q_dense(stack: np.ndarray, q: int, u: np.ndarray) -> np.ndarray:
    """u on qubit q of each row of a (B, 2^n) stack; u is 2x2 or one per row."""
    size, lo = stack.shape[0], 1 << (q - 1)
    v = stack.reshape(size, -1, 2, lo).transpose(0, 2, 1, 3).reshape(size, 2, -1)
    v = np.matmul(u, v)
    return v.reshape(size, 2, -1, lo).transpose(0, 2, 1, 3).reshape(size, -1)


def dense_run(circuit: Circuit, initial=0) -> np.ndarray:
    """Full statevector run of a CNOT-level circuit up to 16 qubits.

    ``initial`` is one basis state as ``_basis_index`` reads it; a bool, a
    non-integer, another width or an index out of range raises ValueError,
    and so does a logical circuit: :func:`run` is the exact engine for those.
    A CNOT swaps two quarter slices of the vector in place and a one-qubit
    gate is a 2x2 block on one axis.
    """
    n = circuit.n
    if circuit.level != "cnot":
        raise ValueError(
            "dense runs need a cnot-level circuit; lower the circuit first or use run")
    if n > _DENSE_QUBITS:
        raise ValueError(f"dense run limited to {_DENSE_QUBITS} qubits")
    vec = np.zeros(2**n, dtype=complex)
    vec[_basis_index(initial, n, "initial state")] = 1.0
    for g in circuit.gates:
        vec = _apply_gate_dense(vec, g)
    return vec


def _apply_gate_dense(vec: np.ndarray, g: Gate) -> np.ndarray:
    """One CNOT-level gate on a statevector the caller owns; a CNOT changes
    it in place."""
    if g.kind == "CNOT":
        _swap_cnot(vec, g.ctrls[0] - 1, g.ins[0] - 1)
        return vec
    return _apply_1q_dense(vec[None], g.ins[0], _single_qubit_matrix(g))[0]


# noise

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# widest circuit evolved as a density matrix (4^n entries, 4 MB at n = 9)
_DENSITY_QUBITS = 9

# most density entries evolved in one stack (512 KB): 8 circuits at n = 6,
# 2 at n = 7 and one from n = 8
_STACK_ENTRIES = 2**15


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-style two-qubit Pauli noise after every CNOT: the
    channel only; each run takes its own shot count and seed."""

    p2: float

    def __post_init__(self):
        if not 0.0 <= self.p2 < 1.0:
            raise ValueError(f"p2 must be in [0, 1), got {self.p2}")


def _at(ndim: int, axes, values) -> tuple:
    """Index of an ndim-axis array fixing each given axis to its value."""
    key = [slice(None)] * ndim
    for axis, value in zip(axes, values):
        key[axis] = value
    return tuple(key)


def _evolve_stack(circuits, p2: float,
                  mats: dict) -> tuple[np.ndarray, np.ndarray]:
    """Noisy outcome distributions and noiseless amplitudes of a stack of
    circuits with one skeleton, each of shape (B, 2^n).

    The circuits are CNOT-level and share their width and, at every gate
    position, the kind (CNOT or one-qubit gate) and wires; only the
    one-qubit matrices differ.  :func:`_check_noisy_runs` checks that.
    ``mats`` maps one-qubit gates to 2x2 matrices and gains the missing
    ones, so a batch of stacks builds each once.  Each rho_b is a
    (2, ..., 2) tensor over the bits of r * 2^n + c, and ``order`` tracks
    which bit each axis holds.  A one-qubit U rho U^dagger is U (x) conj(U)
    on the qubit's row and column bits: one transposed copy puts those bits
    first and the rest in canonical order for one batched 4x4 matmul, whose
    result keeps that order.  A CNOT swaps two quarter slices in place for
    its row bits and two for its column bits; then, on wires (c, t),
    rho -> (1 - 16 p2/15) rho + (16 p2/15) Tr_{c,t}(rho) (x) I/4, a
    uniformly random non-identity Pauli pair with probability p2, by
    scaling the stack in place and adding the traced blocks back through
    slices.  Each circuit's arithmetic is the same as if it ran alone, so a
    result does not depend on its stack.
    """
    n, size = circuits[0].n, len(circuits)
    dim = 2**n
    rho = np.zeros((size,) + (2,) * (2 * n), dtype=complex)
    rho[(slice(None),) + (0,) * (2 * n)] = 1.0
    psi = np.zeros((size, dim), dtype=complex)
    psi[:, 0] = 1.0
    lam = 16.0 * p2 / 15.0
    # bits counted from the top of r * 2^n + c: qubit q's row bit is n - q
    # and its column bit 2n - q
    order = list(range(2 * n))
    for column in zip(*(c.gates for c in circuits)):
        g = column[0]
        q = g.ins[0]
        if g.kind == "CNOT":
            c = g.ctrls[0]
            # the axes of the control's and the target's row and column bits
            axes = [1 + order.index(b)
                    for b in (n - c, n - q, 2 * n - c, 2 * n - q)]
            # axis a of a row holds bit 2n - a of its flat index
            _swap_cnot(rho, 2 * n - axes[0], 2 * n - axes[1])
            _swap_cnot(rho, 2 * n - axes[2], 2 * n - axes[3])
            _swap_cnot(psi, c - 1, q - 1)
            if lam:
                blocks = [_at(rho.ndim, axes, (a, b, a, b))
                          for a in (0, 1) for b in (0, 1)]
                traced = sum(rho[blk] for blk in blocks) * (lam / 4.0)
                rho *= 1.0 - lam
                for blk in blocks:
                    rho[blk] += traced
            continue
        us = np.array([u if (u := mats.get(h)) is not None
                       else mats.setdefault(h, _single_qubit_matrix(h)) for h in column])
        want = [n - q, 2 * n - q] + [b for b in range(2 * n) if b % n != n - q]
        # each step rebinds rho, so at most two stacks are alive at once
        rho = rho.transpose([0] + [1 + order.index(b) for b in want])
        rho = rho.reshape(size, 4, -1)
        kron = us[:, :, None, :, None] * us.conj()[:, None, :, None, :]
        rho = np.matmul(kron.reshape(size, 4, 4), rho)
        rho, order = rho.reshape((size,) + (2,) * (2 * n)), want
        psi = _apply_1q_dense(psi, q, us)
    rho = rho.transpose([0] + [1 + order.index(b) for b in range(2 * n)])
    probs = np.clip(rho.reshape(size, dim, dim).diagonal(axis1=1, axis2=2).real,
                    0.0, None)
    # row by row: a sum over a whole axis may round differently
    return np.array([p / p.sum() for p in probs]), psi


def _apply_pauli_pair(vec: np.ndarray, cnot_gate: Gate,
                      pauli_index: int) -> np.ndarray:
    """One of the 15 non-identity two-qubit Paulis, indexed 0..14, on the
    wires of a CNOT."""
    wires = (cnot_gate.ctrls[0], cnot_gate.ins[0])
    for q, which in zip(wires, divmod(pauli_index + 1, 4)):
        if which:
            vec = _apply_1q_dense(vec[None], q, _PAULIS[which])[0]
    return vec


def _replay(circuit: Circuit, patterns):
    """Final statevector of each Pauli-insertion pattern, in input order.

    A pattern is a tuple of (CNOT ordinal, Pauli index) pairs in ordinal
    order, and ``patterns`` must be sorted.  One noiseless pass walks the
    gates; each pattern branches off it after its first insertion and
    replays only the tail, so one vector per pattern is in flight.
    """
    n, gates = circuit.n, circuit.gates
    sites = [i for i, g in enumerate(gates) if g.kind == "CNOT"]
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    done = 0
    for pattern in patterns:
        if not pattern:
            yield dense_run(circuit)
            continue
        inserts = {sites[s]: pauli for s, pauli in pattern}
        first = sites[pattern[0][0]]
        for g in gates[done : first + 1]:
            vec = _apply_gate_dense(vec, g)
        done = first + 1
        v = _apply_pauli_pair(vec, gates[first], inserts[first])
        for i in range(first + 1, len(gates)):
            v = _apply_gate_dense(v, gates[i])
            if i in inserts:
                v = _apply_pauli_pair(v, gates[i], inserts[i])
        yield v


def _trajectory_counts(circuit: Circuit, p2: float, shots: int,
                       rng: "np.random.Generator") -> np.ndarray:
    """Counts from one Pauli trajectory a shot, grouped by insertion pattern."""
    cnots = circuit.cnot_count
    fire = rng.random((shots, cnots)) < p2
    pauli = rng.integers(0, 15, size=(shots, cnots))
    patterns: list[list[tuple[int, int]]] = [[] for _ in range(shots)]
    for shot, site in zip(*np.nonzero(fire)):
        patterns[shot].append((int(site), int(pauli[shot, site])))
    groups = Counter(map(tuple, patterns))
    keys = sorted(groups)
    totals = np.zeros(2**circuit.n, dtype=np.int64)
    for key, vec in zip(keys, _replay(circuit, keys)):
        p = np.abs(vec) ** 2
        totals += rng.multinomial(groups[key], p / p.sum())
    return totals


def _skeleton(gate: Gate) -> tuple:
    """What the circuits of one stack share at a gate position."""
    return gate.kind == "CNOT", gate.ins, gate.ctrls


def _describe(gate: Gate) -> str:
    if gate.kind == "CNOT":
        return f"CNOT {gate.ctrls[0]}->{gate.ins[0]}"
    return f"one-qubit gate on {gate.ins[0]}"


def _check_noisy_runs(circuits, shots: int) -> None:
    """Raise ValueError unless the circuits can run noisy together: at
    least one shot, at most 16 qubits, every circuit CNOT-level, and every
    circuit with circuit 0's skeleton (width, and the kind and wires at
    every gate position).  A mismatch names the circuit and the position."""
    if shots < 1:
        raise ValueError("need at least one shot")
    first = circuits[0]
    if first.n > _DENSE_QUBITS:
        raise ValueError(f"noisy simulation limited to {_DENSE_QUBITS} qubits")
    for j, circ in enumerate(circuits):
        if circ.level != "cnot":
            raise ValueError(
                "noisy runs need a cnot-level circuit; lower the circuit first"
                if len(circuits) == 1 else
                f"noisy runs need a cnot-level circuit, circuit {j} is {circ.level}")
        if circ.n != first.n or len(circ.gates) != len(first.gates):
            raise ValueError(
                f"circuit {j} has {circ.n} qubits and {len(circ.gates)} gates, "
                f"circuit 0 {first.n} and {len(first.gates)}: "
                "a stack needs one skeleton")
        for i, (g, h) in enumerate(zip(circ.gates, first.gates)):
            if g is not h and _skeleton(g) != _skeleton(h):
                raise ValueError(
                    f"circuit {j} gate {i} is a {_describe(g)}, circuit 0's a "
                    f"{_describe(h)}: a stack needs one skeleton")


def _noisy_runs(circuits, noise: NoiseModel, shots: int, seeds):
    """Each circuit's noisy counts over basis indices and noiseless
    amplitudes, in order, the counts drawn from the circuit's own seed.

    The circuits pass :func:`_check_noisy_runs`.  Up to 9 qubits they run
    through :func:`_evolve_stack` in stacks of at most ``_STACK_ENTRIES``
    density entries, and each draws one multinomial from its row.  Wider
    circuits run the trajectory engine and :func:`dense_run` one at a time.
    """
    _check_noisy_runs(circuits, shots)
    n = circuits[0].n
    if n > _DENSITY_QUBITS:
        for circ, seed in zip(circuits, seeds):
            rng = np.random.default_rng(seed)
            yield _trajectory_counts(circ, noise.p2, shots, rng), dense_run(circ)
        return
    size = max(1, _STACK_ENTRIES >> 2 * n)
    mats = {}
    for start in range(0, len(circuits), size):
        probs, amps = _evolve_stack(circuits[start:start + size], noise.p2, mats)
        for p, a, seed in zip(probs, amps, seeds[start:start + size]):
            yield np.random.default_rng(seed).multinomial(shots, p), a


def run_noisy(circuit: Circuit, noise: NoiseModel, shots: int,
              seed: int) -> dict[BitString, int]:
    """Measurement counts under per-CNOT two-qubit depolarizing noise.

    Up to 9 qubits the counts are one multinomial draw from the exact
    distribution, which is the law of iid noisy shots.  From 10 to 16
    qubits each shot is its own Pauli trajectory: first the fire and
    which-Pauli tables for all shots and sites are drawn, then one
    multinomial per distinct insertion pattern in sorted pattern order.
    Either way the counts are deterministic given ``seed``, as in
    :func:`sample`.  This is the one-circuit case of :func:`_noisy_runs`,
    whose noiseless amplitudes it drops (from 10 qubits, one dense_run at
    well under 1% of the trajectory run's time).
    """
    ((totals, _),) = _noisy_runs([circuit], noise, shots, [seed])
    return {BitString.from_index(circuit.n, int(i)): int(totals[i])
            for i in np.flatnonzero(totals)}
