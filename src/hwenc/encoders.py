"""Circuit constructions that load classical vectors into quantum amplitudes.

Four families, all built from the same walk-and-split cascade:

- ``encode_dense_real`` / ``encode_dense_complex``: a full (or leading
  slice of a) fixed-weight basis, visited in minimal-change order, one
  mixing gate per consecutive pair.
- ``encode_sparse``: an arbitrary list of (value, address) pairs with
  non-decreasing address weight, one generalized mixing gate per pair.
- ``encode_binary`` / ``encode_binary_complex``: the complete n-qubit
  basis, loaded weight class by weight class with single-flip bridge
  rotations between classes.

Every encoder returns an :class:`EncoderReport` whose ``ordering`` maps
vector slot i to the basis state that receives amplitude ``x[i] / |x|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bitstrings import (
    BitString,
    EhrlichState,
    GateParams,
    ehrlich_sequence,
    gate_params,
    walk_states,
)
from .coordinates import angles_from_complex, angles_from_real
from .ir import (
    Circuit,
    Gate,
    anti_phase,
    complex_rbs,
    grbs,
    rbs,
    ry,
    rz,
    x_gate,
)
from .simulator import apply_gate


class EncodingError(ValueError):
    """Raised when encoder input violates a precondition."""


class EncodingVerificationError(EncodingError):
    """Raised when a constructed circuit fails its own simulation check."""


@dataclass(frozen=True)
class SparseTuple:
    """Ordered (value, address) pairs describing a sparse vector.

    Addresses must share one length and be pairwise distinct; values may
    be real or complex. Weight ordering is checked by the encoder, not
    here, so a tuple can be built first and sorted at encode time.
    """

    pairs: tuple[tuple[complex, BitString], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise EncodingError("sparse input needs at least one pair")
        norm_pairs = []
        for i, item in enumerate(self.pairs):
            try:
                value, address = item
            except (TypeError, ValueError):
                raise EncodingError(f"pair {i}: expected (value, address)") from None
            if isinstance(address, str):
                address = BitString(address)
            elif not isinstance(address, BitString):
                raise EncodingError(f"pair {i}: address must be a bitstring")
            norm_pairs.append((complex(value), address))
        n = norm_pairs[0][1].n
        seen: dict[str, int] = {}
        for i, (_, address) in enumerate(norm_pairs):
            if address.n != n:
                raise EncodingError(
                    f"pair {i}: address length {address.n} != {n}"
                )
            if address.bits in seen:
                raise EncodingError(
                    f"duplicate address {address.bits} at pairs"
                    f" {seen[address.bits]} and {i}"
                )
            seen[address.bits] = i
        object.__setattr__(self, "pairs", tuple(norm_pairs))

    @property
    def n(self) -> int:
        return self.pairs[0][1].n

    def sorted_by_weight(self) -> "SparseTuple":
        """Stable sort of the pairs by address weight."""
        return SparseTuple(
            tuple(sorted(self.pairs, key=lambda p: p[1].weight))
        )


@dataclass(frozen=True)
class EncoderReport:
    """An encoding circuit plus the bookkeeping needed to read it back."""

    circuit: Circuit
    ordering: tuple[BitString, ...]
    param_count: int


def _as_real_vector(x) -> np.ndarray:
    if np.iscomplexobj(x):
        raise EncodingError("input has complex entries; use the complex encoder")
    x = np.asarray(x, dtype=float)
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


def _phase_on_state(phi: float, b: BitString) -> list[Gate]:
    """Gates applying exp(i*phi) to |b> and identity to every other state.

    A phase gate conditioned on the ones of b and firing on a zero of b
    does the job directly; the all-ones state needs an X conjugation to
    manufacture a zero first.
    """
    zeros = sorted(b.zeros)
    ones = tuple(sorted(b.ones))
    if zeros:
        return [anti_phase(phi, zeros[0], ctrls=ones)]
    rest = tuple(range(2, b.n + 1))
    return [x_gate(1), anti_phase(phi, 1, ctrls=rest), x_gate(1)]


# ---------------------------------------------------------------------------
# dense fixed-weight encoders


def _dense_walk(n: int, k: int, d: int) -> tuple[list[BitString], bool]:
    """First d strings of the minimal-change walk, mirrored when k > n/2.

    Mirroring runs the walk at weight n-k and complements every string,
    which keeps the per-gate wire count small for heavy vectors.
    """
    mirrored = k > n - k
    kk = n - k if mirrored else k
    walk = [s.string for s in walk_states(EhrlichState.start(n, kk), d)]
    return walk, mirrored


def _dense(n: int, k: int, x: np.ndarray, with_phases: bool) -> EncoderReport:
    if not 0 <= k <= n:
        raise EncodingError(f"weight {k} out of range for {n} qubits")
    d = len(x)
    space = comb(n, k)
    if not 2 <= d <= space:
        raise EncodingError(
            f"need between 2 and {space} amplitudes for weight {k}"
            f" on {n} qubits, got {d}"
        )
    x = _normalized(x)
    if with_phases:
        thetas, phis = angles_from_complex(x)
    else:
        thetas = angles_from_real(x)
        phis = np.zeros(d)

    walk, mirrored = _dense_walk(n, k, d)
    ordering = tuple(s.complement() for s in walk) if mirrored else tuple(walk)

    gates = _x_layer(ordering[0].ones)
    untouched = frozenset(walk[0].ones)
    for j in range(d - 1):
        p = gate_params(walk[j], walk[j + 1], untouched)
        untouched = p.untouched
        (src,) = p.ins
        (dst,) = p.outs
        if mirrored:
            # complemented wires swap roles and shared ones become shared zeros
            wires = dict(in_=dst, out=src, ctrls=(), anti_ctrls=tuple(sorted(p.ctrls)))
        else:
            wires = dict(in_=src, out=dst, ctrls=tuple(sorted(p.ctrls)))
        if with_phases:
            gates.append(complex_rbs(thetas[j], phis[j], **wires))
        else:
            gates.append(rbs(thetas[j], **wires))
    if with_phases:
        gates.extend(_phase_on_state(phis[d - 1], ordering[-1]))

    return EncoderReport(
        circuit=Circuit(n=n, gates=tuple(gates)),
        ordering=ordering,
        param_count=2 * d - 1 if with_phases else d - 1,
    )


def encode_dense_real(n: int, k: int, x) -> EncoderReport:
    """Load a real vector onto the first len(x) strings of weight k.

    ``x`` needs 2 <= len(x) <= C(n, k) entries; it is normalized before
    encoding. The circuit is an X layer followed by len(x) - 1 two-wire
    mixing rotations, each consuming one inclination angle.
    """
    return _dense(n, k, _as_real_vector(x), with_phases=False)


def encode_dense_complex(n: int, k: int, x) -> EncoderReport:
    """Complex-amplitude variant of :func:`encode_dense_real`.

    Each mixing gate carries an inclination and a phase angle, and one
    trailing phase gate fixes the final amplitude's argument, so the
    loaded state matches x / |x| exactly rather than up to phase.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise EncodingError("input vector must be one-dimensional")
    return _dense(n, k, x, with_phases=True)


# ---------------------------------------------------------------------------
# sparse encoder


def _sparse_gate(
    theta: float,
    phi: float,
    p: GateParams,
    with_phases: bool,
) -> Gate:
    ins = tuple(sorted(p.ins))
    outs = tuple(sorted(p.outs))
    ctrls = tuple(sorted(p.ctrls))
    if not with_phases and not ins and len(outs) == 1:
        # plain single-bit raise: a controlled Ry is the same rotation
        return ry(theta, outs[0], ctrls=ctrls)
    if len(ins) == 1 and len(outs) == 1:
        if with_phases:
            return complex_rbs(theta, phi, ins[0], outs[0], ctrls=ctrls)
        return rbs(theta, ins[0], outs[0], ctrls=ctrls)
    return grbs(theta, phi if with_phases else 0.0, ins, outs, ctrls=ctrls)


def _verify_loaded(
    amps: dict[int, complex],
    ordering: tuple[BitString, ...],
    indices: list[int],
    wants: list[complex],
    upto: int,
    label: str,
) -> None:
    """Check the first ``upto`` addresses' amplitudes against ``wants``.

    ``indices`` and ``wants`` are the addresses' ``to_index()`` and target
    amplitudes, taken once per encoder call.
    """
    for j in range(upto):
        got = amps.get(indices[j], 0j)
        want = wants[j]
        if abs(got - want) > 1e-9:
            raise EncodingVerificationError(
                f"{label} disturbed amplitude of {ordering[j].bits}:"
                f" got {got:.12g}, want {want:.12g}"
            )


def encode_sparse(n: int, data, *, sort_by_weight: bool = False) -> EncoderReport:
    """Load (value, address) pairs, one generalized mixing gate per pair.

    Addresses must appear in non-decreasing weight order (pass
    ``sort_by_weight=True`` for a stable pre-sort; nothing is reordered
    silently). Complex mode switches on automatically when any value has
    a nonzero imaginary part. After every gate the partial state is
    simulated and checked against the target amplitudes, so a wire
    pattern that disturbs an already-loaded address fails loudly and
    names the gate.
    """
    tup = data if isinstance(data, SparseTuple) else SparseTuple(tuple(data))
    if tup.n != n:
        raise EncodingError(f"addresses have length {tup.n}, expected {n}")
    if sort_by_weight:
        tup = tup.sorted_by_weight()
    for i in range(len(tup.pairs) - 1):
        a, b = tup.pairs[i][1], tup.pairs[i + 1][1]
        if a.weight > b.weight:
            raise EncodingError(
                f"addresses out of order at pairs {i} and {i + 1}:"
                f" weight({a.bits}) = {a.weight} > weight({b.bits}) = {b.weight}"
            )

    values = np.array([v for v, _ in tup.pairs], dtype=complex)
    with_phases = bool(np.any(values.imag != 0.0))
    target = _normalized(values)
    ordering = tuple(address for _, address in tup.pairs)
    indices = [address.to_index() for address in ordering]
    wants = [complex(t) for t in target]
    s = len(ordering)

    gates = _x_layer(ordering[0].ones)
    if s == 1:
        param_count = 0
        amps = {indices[0]: 1.0 + 0j}
        phase = float(np.angle(target[0]))
        if phase != 0.0:
            # a lone negative or complex value still needs its argument
            for gate in _phase_on_state(phase, ordering[0]):
                gates.append(gate)
                amps = apply_gate(amps, gate)
            param_count = 1
        _verify_loaded(amps, ordering, indices, wants, 1, "phase layer")
        return EncoderReport(
            circuit=Circuit(n=n, gates=tuple(gates)),
            ordering=ordering,
            param_count=param_count,
        )

    if with_phases:
        thetas, phis = angles_from_complex(target)
    else:
        thetas = angles_from_real(target.real)
        phis = np.zeros(s)

    amps: dict[int, complex] = {indices[0]: 1.0 + 0j}
    untouched = frozenset(ordering[0].ones)
    for j in range(s - 1):
        p = gate_params(ordering[j], ordering[j + 1], untouched)
        untouched = p.untouched
        gate = _sparse_gate(thetas[j], phis[j], p, with_phases)
        gates.append(gate)
        amps = apply_gate(amps, gate)
        _verify_loaded(amps, ordering, indices, wants, j + 1, f"gate {j + 1}")
    if with_phases:
        for gate in _phase_on_state(phis[s - 1], ordering[-1]):
            gates.append(gate)
            amps = apply_gate(amps, gate)
    _verify_loaded(amps, ordering, indices, wants, s, f"gate {s - 1}")

    return EncoderReport(
        circuit=Circuit(n=n, gates=tuple(gates)),
        ordering=ordering,
        param_count=2 * s - 1 if with_phases else s - 1,
    )


# ---------------------------------------------------------------------------
# full binary-basis encoder


def _stage_seed(n: int, k: int, prev_end: BitString) -> tuple[BitString, bool]:
    """Weight-k canonical start reachable from prev_end by one bit flip.

    Candidates are the block strings 1^k 0^(n-k) (walked with the ones
    marked) and 0^(n-k) 1^k (walked with the zeros marked); exactly one
    is a single flip away except for small-n ties, where the first form
    wins.
    """
    ones_form = BitString.initial(n, k)
    zeros_form = BitString("0" * (n - k) + "1" * k)
    for cand, rev in ((ones_form, False), (zeros_form, True)):
        if len(prev_end.differing_qubits(cand)) == 1:
            return cand, rev
    raise EncodingError(
        f"no single-flip seed of weight {k} from {prev_end.bits}"
    )


def _binary(n: int, x: np.ndarray, with_phases: bool) -> EncoderReport:
    d = len(x)
    if d != 2**n:
        raise EncodingError(f"need 2^{n} = {2**n} amplitudes, got {d}")
    x = _normalized(x)
    if with_phases:
        thetas, phis = angles_from_complex(x)
    else:
        thetas = angles_from_real(x)
        phis = np.zeros(d)

    ordering: list[BitString] = [BitString("0" * n)]
    gates: list[Gate] = []
    prev_end = ordering[0]
    idx = 0
    for k in range(1, n + 1):
        seed, rev = _stage_seed(n, k, prev_end)
        (flip,) = prev_end.differing_qubits(seed)
        ctrls = tuple(sorted(prev_end.ones))
        gates.append(ry(thetas[idx], flip, ctrls=ctrls))
        if with_phases:
            gates.append(rz(-phis[idx], flip, ctrls=ctrls))
        idx += 1
        stage = ehrlich_sequence(n, k, reverse=rev)
        ordering.extend(stage)
        for j in range(len(stage) - 1):
            # weight classes above k are still unpopulated, so full
            # controls (no untouched-set elimination) keep every loaded
            # amplitude fixed
            p = gate_params(stage[j], stage[j + 1], frozenset())
            (src,) = p.ins
            (dst,) = p.outs
            ctrls = tuple(sorted(p.ctrls))
            if with_phases:
                gates.append(complex_rbs(thetas[idx], phis[idx], src, dst, ctrls=ctrls))
            else:
                gates.append(rbs(thetas[idx], src, dst, ctrls=ctrls))
            idx += 1
        prev_end = stage[-1]
    if prev_end.bits != "1" * n or idx != d - 1:
        raise EncodingError("stage chain failed to cover the basis")
    if with_phases:
        gates.extend(_phase_on_state(phis[d - 1], prev_end))

    return EncoderReport(
        circuit=Circuit(n=n, gates=tuple(gates)),
        ordering=tuple(ordering),
        param_count=2 ** (n + 1) - 1 if with_phases else 2**n - 1,
    )


def encode_binary(n: int, x) -> EncoderReport:
    """Load a full 2^n-entry real vector over the complete basis.

    The basis is visited weight class by weight class: a controlled Ry
    bridge splits amplitude onto the next class's seed string, then the
    class is swept by fully controlled two-wire mixing gates. Parameter
    count is 2^n - 1.
    """
    if n < 1:
        raise EncodingError("need at least one qubit")
    return _binary(n, _as_real_vector(x), with_phases=False)


def encode_binary_complex(n: int, x) -> EncoderReport:
    """Complex variant of :func:`encode_binary`; 2^(n+1) - 1 parameters.

    Bridges become Ry followed by Rz(-phase) under the same controls,
    mixing gates carry phase angles, and a final conditioned phase fixes
    the argument on the all-ones state.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise EncodingError("input vector must be one-dimensional")
    if n < 1:
        raise EncodingError("need at least one qubit")
    return _binary(n, x, with_phases=True)
