"""Circuit constructions that load classical vectors into quantum amplitudes.

Four encoders are one walk-and-split cascade, :func:`_cascade`: walk a
list of basis states and split amplitude onto each next state with one
mixing gate per consecutive pair. They differ only in their walk:

- ``encode_dense_real`` / ``encode_dense_complex``: a full (or leading
  slice of a) fixed-weight basis in minimal-change order, walked at the
  complementary weight and mirrored when k > n/2.
- ``encode_sparse``: an arbitrary list of (value, address) pairs with
  non-decreasing address weight. It checks its circuit with one
  ``simulator.run`` and replays the gates through ``simulator.apply_gate``
  only to name the gate of a failed load.

The full-basis ``encode_binary`` / ``encode_binary_complex`` walk no list:
they split amplitude down a binary tree over the indices with one uniformly
controlled rotation per qubit, in 2^n - 2 CNOTs (twice that with phases).

Every encoder returns an :class:`EncoderReport` whose ``ordering`` maps
vector slot i to the basis state that receives amplitude ``x[i] / |x|``.

A sparse gate's wires come from ``bitstrings.walk_wires`` and the sparse
address rules are :func:`_check_addresses`; ``counting.count_sparse`` uses
both, so a sparse budget prices the very gates the encoder emits. A dense
gate takes the same in- and out-wires with the controls of
``bitstrings.walk_literals``: a greedy set of wires, held at their value in
the first string of the pair, that leaves every string loaded before it
alone, used only where it is smaller than the controls ``walk_wires``
gives, so the dense budgets price each gate at or above its cost. A complex encoder adds one gate in
front, the global phase on |0^n> as an uncontrolled Rz, which costs no
CNOT and so has no row in any budget.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import comb

import numpy as np

from .bitstrings import BitString, EhrlichState, walk_literals, walk_states, walk_wires
from .compiler import uniformly_controlled
from .coordinates import angles_from_complex, angles_from_real
from .ir import Circuit, Gate, rbs, ry, rz, x_gate
from .simulator import _to_arrays, apply_gate, run


class EncodingError(ValueError):
    """Raised when encoder input violates a precondition."""


class EncodingVerificationError(EncodingError):
    """Raised when a constructed circuit fails its own simulation check."""


@dataclass(frozen=True)
class EncoderReport:
    """An encoding circuit plus the bookkeeping needed to read it back."""

    circuit: Circuit
    ordering: tuple[BitString, ...]
    param_count: int


def _check_addresses(addresses, n: int | None = None, *,
                     ordered: bool = True) -> list[BitString]:
    """The sparse address rules, as BitStrings: at least one, all of one
    length (``n`` if given), pairwise distinct and, when ``ordered``, of
    non-decreasing weight. Bitstrings given as text are parsed."""
    parsed = []
    for i, address in enumerate(addresses):
        if isinstance(address, str):
            address = BitString(address)
        elif not isinstance(address, BitString):
            raise EncodingError(f"pair {i}: address must be a bitstring")
        parsed.append(address)
    if not parsed:
        raise EncodingError("sparse input needs at least one pair")
    n = parsed[0].n if n is None else n
    seen: dict[str, int] = {}
    for i, b in enumerate(parsed):
        if b.n != n:
            raise EncodingError(f"pair {i}: address length {b.n} != {n}")
        if b.bits in seen:
            raise EncodingError(
                f"duplicate address {b.bits} at pairs {seen[b.bits]} and {i}"
            )
        seen[b.bits] = i
    # every address is checked on its own before any pair's order
    for i in range(1, len(parsed)):
        a, b = parsed[i - 1], parsed[i]
        if ordered and a.weight > b.weight:
            raise EncodingError(
                f"addresses out of order at pairs {i - 1} and {i}:"
                f" weight({a.bits}) = {a.weight} > weight({b.bits}) = {b.weight}"
            )
    return parsed


def _as_vector(x, with_phases: bool) -> np.ndarray:
    """``x`` as a one-dimensional complex array, or a float one for a real
    encoder, which rejects complex entries."""
    if not with_phases and np.iscomplexobj(x):
        raise EncodingError("input has complex entries; use the complex encoder")
    x = np.asarray(x, dtype=complex if with_phases else float)
    if x.ndim != 1:
        raise EncodingError("input vector must be one-dimensional")
    return x


def _normalized(values: np.ndarray) -> np.ndarray:
    """values / |values|, dividing by the largest component part first so
    the norm neither overflows nor underflows at any finite scale."""
    if not np.all(np.isfinite(values)):
        raise EncodingError("input vector has non-finite entries")
    scale = max(float(np.max(np.abs(values.real))),
                float(np.max(np.abs(values.imag))))
    if scale == 0.0:
        raise EncodingError("cannot encode the zero vector")
    values = values / scale
    return values / np.linalg.norm(values)


def _x_layer(labels) -> list[Gate]:
    return [x_gate(q) for q in sorted(labels, reverse=True)]


# ---------------------------------------------------------------------------
# the cascade


def _cascade(
    n: int, walk: list[BitString], steps: Iterable[tuple[tuple[int, ...], ...]],
    x: np.ndarray, with_phases: bool, mirrored: bool = False,
) -> EncoderReport:
    """Load the normalized ``x`` onto ``walk``, one mixing gate per consecutive pair.

    ``steps`` gives each gate's ``(ins, outs, ctrls, anti_ctrls)``, from
    :func:`walk_wires` (with no anti-controls) or :func:`walk_literals`:
    ones only in the first string of a pair are in-wires, ones only in the
    second are out-wires, and the controls leave alone every string loaded
    before. A real single raise is a controlled Ry and every other step an
    RBS on those wires. ``mirrored`` loads the complement of every walk
    string instead. With phases every RBS carries a phase angle, and the
    global phase psi_0 comes first as ``rz(-psi_0, 1)``, which sends |0^n>
    to exp(i psi_0)|0^n> exactly and lowers to no CNOT.
    """
    d = len(walk)
    if with_phases:
        thetas, phis = angles_from_complex(x)
    else:
        thetas = angles_from_real(x.real)
    ordering = tuple(b.complement() for b in walk) if mirrored else tuple(walk)

    gates = [rz(-phis[0], 1)] if with_phases else []
    gates += _x_layer(ordering[0].ones)
    for j, (ins, outs, ctrls, anti_ctrls) in enumerate(steps):
        if mirrored:
            # complemented wires swap roles, and so do ones and zeros held
            ins, outs, ctrls, anti_ctrls = outs, ins, anti_ctrls, ctrls
        wires = dict(ctrls=ctrls, anti_ctrls=anti_ctrls)
        if with_phases:
            gates.append(rbs(thetas[j], ins, outs, phis[j + 1], **wires))
        elif not ins and len(outs) == 1:
            # plain single-bit raise: a controlled Ry is the same rotation
            gates.append(ry(thetas[j], outs[0], **wires))
        else:
            gates.append(rbs(thetas[j], ins, outs, **wires))

    return EncoderReport(
        circuit=Circuit(n=n, gates=tuple(gates)),
        ordering=ordering,
        param_count=2 * d - 1 if with_phases else d - 1,
    )


# ---------------------------------------------------------------------------
# dense fixed-weight encoders


def _dense(n: int, k: int, x, with_phases: bool) -> EncoderReport:
    x = _as_vector(x, with_phases)
    if not 0 <= k <= n:
        raise EncodingError(f"weight {k} out of range for {n} qubits")
    d = len(x)
    space = comb(n, k)
    if space < 2:
        raise EncodingError(
            f"weight {k} on {n} qubits holds a single string, so no dense"
            f" load of 2 or more amplitudes exists; got {d}"
        )
    if not 2 <= d <= space:
        raise EncodingError(
            f"need between 2 and {space} amplitudes for weight {k}"
            f" on {n} qubits, got {d}"
        )
    # a heavy vector walks weight n-k and loads the complements, which
    # keeps the per-gate wire count small
    mirrored = k > n - k
    start = EhrlichState.start(n, n - k if mirrored else k)
    walk = [s.string for s in walk_states(start, d)]
    return _cascade(n, walk, walk_literals(walk), _normalized(x), with_phases, mirrored)


def encode_dense_real(n: int, k: int, x) -> EncoderReport:
    """Load a real vector onto the first len(x) strings of weight k.

    ``x`` needs 2 <= len(x) <= C(n, k) entries; it is normalized before
    encoding. The circuit is an X layer followed by len(x) - 1 two-wire
    mixing rotations, each consuming one inclination angle.
    """
    return _dense(n, k, x, with_phases=False)


def encode_dense_complex(n: int, k: int, x) -> EncoderReport:
    """Complex-amplitude variant of :func:`encode_dense_real`.

    Each RBS gate carries an inclination and a phase angle, and one
    leading uncontrolled Rz sets the global phase, so the loaded state
    matches x / |x| exactly rather than up to phase. The leading Rz lowers
    to itself, with no CNOT.
    """
    return _dense(n, k, x, with_phases=True)


# ---------------------------------------------------------------------------
# sparse encoder


def encode_sparse(n: int, data, *, sort_by_weight: bool = False) -> EncoderReport:
    """Load (value, address) pairs, one mixing gate per pair after the first.

    Addresses must appear in non-decreasing weight order (pass
    ``sort_by_weight=True`` for a stable pre-sort; nothing is reordered
    silently). Complex mode switches on automatically when any value has
    a nonzero imaginary part. The circuit is then run once and every
    loaded amplitude compared with its target; on a mismatch the gates are
    replayed to name the first one that disturbs an already-loaded
    address, and :class:`EncodingVerificationError` is raised.
    """
    values, addresses = [], []
    for i, item in enumerate(data):
        try:
            value, address = item
        except (TypeError, ValueError):
            raise EncodingError(f"pair {i}: expected (value, address)") from None
        values.append(complex(value))
        addresses.append(address)
    addresses = _check_addresses(addresses, n, ordered=not sort_by_weight)
    if sort_by_weight:
        order = sorted(range(len(addresses)), key=lambda i: addresses[i].weight)
        values = [values[i] for i in order]
        addresses = [addresses[i] for i in order]

    values = _as_vector(values, with_phases=True)
    s = len(values)
    # a lone negative value needs its argument fixed like a complex one
    with_phases = bool(np.any(values.imag != 0.0) or (s == 1 and values[0].real < 0))
    target = _normalized(values)
    steps = ((ins, outs, ctrls, ()) for ins, outs, ctrls in walk_wires(addresses))
    report = _cascade(n, addresses, steps, target, with_phases)

    amps = run(report.circuit).amps
    got = np.array([amps.get(b.to_index(), 0j) for b in report.ordering])
    if np.any(np.abs(got - target) > 1e-9):
        _raise_at_disturbing_gate(report, target)
    return report


def _raise_at_disturbing_gate(report: EncoderReport, target: np.ndarray) -> None:
    """Replay a sparse load gate by gate and raise at the first gate that
    leaves an already-loaded amplitude off its target.

    After mixing gate j the first j addresses must hold their targets, and
    after the last one all of them; only a load that has failed its one-run
    check comes here, so the per-gate checks cost nothing on a good circuit.
    """
    ordering, gates = report.ordering, report.circuit.gates
    s = len(ordering)
    mixing = len(gates) - (s - 1)  # index of the first mixing gate
    idx, amp = _to_arrays({0: 1.0 + 0j}, report.circuit.n)

    def check(upto: int, label: str) -> None:
        amps = dict(zip(idx.tolist(), amp.tolist()))
        for b, want in zip(ordering[:upto], target[:upto]):
            got, want = amps.get(b.to_index(), 0j), complex(want)
            if abs(got - want) > 1e-9:
                raise EncodingVerificationError(
                    f"{label} disturbed amplitude of {b.bits}:"
                    f" got {got:.12g}, want {want:.12g}"
                )

    for i, gate in enumerate(gates):
        idx, amp = apply_gate(idx, amp, gate)
        if i >= mixing:
            check(i - mixing + 1, f"gate {i - mixing + 1}")
    check(s, f"gate {s - 1}" if s > 1 else "phase layer")


# ---------------------------------------------------------------------------
# full binary-basis encoder


def _binary(n: int, x, with_phases: bool) -> EncoderReport:
    """Load x / |x| in index order down a binary tree, one level per qubit.

    Qubit q takes a uniformly controlled Ry under the qubits above it: on
    each pattern, the ``atan2`` of its two subtrees' norms, or at qubit 1 of
    the two signed entries. With phases the tree holds |x|, a node's phase
    is its children's mean, an Rz stack of half their difference splits
    it, and the root's psi comes first as ``rz(-psi, 1)``.
    """
    if n < 1:
        raise EncodingError("need at least one qubit")
    x = _as_vector(x, with_phases)
    d = len(x)
    if d != 2**n:
        raise EncodingError(f"need 2^{n} = {2**n} amplitudes, got {d}")
    x = _normalized(x)
    values = np.abs(x) if with_phases else x.real
    phases = np.where(x == 0, 0.0, np.angle(x))
    gates: list[Gate] = []
    for target in range(1, n + 1):  # from the leaves up
        (v0, v1), (p0, p1) = values.reshape(-1, 2).T, phases.reshape(-1, 2).T
        ctrls = tuple(range(target + 1, n + 1))
        level = uniformly_controlled(ry, np.arctan2(v1, v0), target, ctrls)
        if with_phases:
            level += uniformly_controlled(rz, (p1 - p0) / 2.0, target, ctrls)
        gates = level + gates
        values, phases = np.hypot(v0, v1), (p0 + p1) / 2.0
    if with_phases:
        gates.insert(0, rz(-phases[0], 1))
    return EncoderReport(
        circuit=Circuit(n=n, gates=tuple(gates)),
        ordering=tuple(BitString.from_index(n, i) for i in range(d)),
        param_count=2 * d - 1 if with_phases else d - 1,
    )


def encode_binary(n: int, x) -> EncoderReport:
    """Load a full 2^n-entry real vector over the complete basis, in index order.

    One uniformly controlled Ry per qubit, qubit n first and each under
    all the qubits above it: 2^n - 1 angles and exactly 2^n - 2 CNOTs.
    """
    return _binary(n, x, with_phases=False)


def encode_binary_complex(n: int, x) -> EncoderReport:
    """Complex variant of :func:`encode_binary`; 2^(n+1) - 1 parameters.

    Each qubit's Ry stack is followed by a uniformly controlled Rz of the
    same size, and one leading uncontrolled Rz sets the global phase at no
    CNOT cost: exactly 2^(n+1) - 4 CNOTs.
    """
    return _binary(n, x, with_phases=True)
