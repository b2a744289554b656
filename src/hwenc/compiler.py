"""Lowering of logical gates to the {X, Ry, Rz, Rw, CNOT} gate set.

Every controlled rotation, whether a gate of its own or the centre of a
mixing gate, is built by one private function, :func:`_controlled`, from
its angle, axis, target and wires. Anti-controls become controls between X
flips, and a rotation that is the identity lowers to nothing. A rotation
about an axis w becomes one about Y: one uncontrolled rotation about w x y
turns the axis before it, and its inverse turns it back after. The
controlled Y rotation takes one of two constructions by a rule on the
control count. Up to six controls it is a Gray-code Ry multiplexor of
exactly 2^(number of controls) CNOTs; its rotations take only two angles,
so it builds two Ry gates and reuses them at every step. The same stack
with its own angle on each control pattern is
:func:`uniformly_controlled`, which the full-basis encoders emit directly.
From seven controls on it is an ancilla-free linear construction of
16 * controls - 24 CNOTs, the per-gate budget of ``counting.mcry_bound``
(Vale et al., arXiv:2302.06377). It splits the controls into two halves
and interleaves four multi-controlled X gates, each borrowing the other
half as dirty ancillas (Barenco et al. 1995, Lemma 7.2), with three
angle-dependent Ry gates on the target.
An RBS gate on two wires with no controls takes an entangle-rotate-
disentangle template ("top"): two frame CNOTs around plain Ry and Rz
gates. Every other RBS gate takes a parity ladder plus one central
multi-controlled rotation ("bottom"). Under l >= 1 controls "top" would
need two rotations under l controls where "bottom" needs one under l + 1,
and with c(l) the CNOTs of a rotation under l controls, c(l + 1) <= 2 c(l):
2^(l+1) = 2 * 2^l for the multiplexor, 88 <= 128 where seven controls first
take the linear construction, and 16 l - 8 <= 32 l - 48 beyond. Without
controls "top" costs 2 CNOTs and "bottom" 2 or 4. A mixing gate whose block
is the identity lowers to nothing under either template.

Every lowered gate equals its logical unitary exactly, global phase
included; :func:`phase_distance` compares up to a global phase, for checks
that need only that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ir import (
    Circuit,
    Gate,
    _mixing_matrix,
    cnot,
    rw,
    ry,
    rz,
    x_gate,
)

AXIS_TOL = 1e-12

_H_AXIS = (1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise deviation between u and v after aligning global phase.

    The phase is fitted on u's largest entry, so two matrices equal up
    to a unit scalar give (numerically) zero.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    idx = np.unravel_index(int(np.argmax(np.abs(u))), u.shape)
    if abs(v[idx]) < 1e-300:
        return float(np.max(np.abs(u - v)))
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


def axis_angle(u: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """Write a 2x2 unitary as exp(i*lam * w.sigma), up to global phase.

    Returns (lam, w) with w a unit 3-vector. The identity (or a pure
    phase) comes back as (0, y-axis).
    """
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    cos_l = (su[0, 0] + su[1, 1]).real / 2.0
    sx = (su[0, 1].imag + su[1, 0].imag) / 2.0
    sy = (su[0, 1].real - su[1, 0].real) / 2.0
    sz = (su[0, 0].imag - su[1, 1].imag) / 2.0
    sin_l = float(np.sqrt(sx * sx + sy * sy + sz * sz))
    if sin_l < AXIS_TOL:
        return (0.0 if cos_l > 0 else np.pi), (0.0, 1.0, 0.0)
    lam = float(np.arctan2(sin_l, cos_l))
    return lam, (sx / sin_l, sy / sin_l, sz / sin_l)


def _ctz(x: int) -> int:
    return (x & -x).bit_length() - 1


@functools.lru_cache(maxsize=None)
def _gray_steps(ell: int) -> tuple[tuple[float, int], ...]:
    """(angle sign, control index) of each rotation/CNOT pair of an ell-control stack."""
    size = 1 << ell
    steps = []
    for j in range(size):
        gray = j ^ (j >> 1)
        sign = -1.0 if bin(gray).count("1") % 2 else 1.0
        steps.append((sign, ell - 1 if j == size - 1 else _ctz(j + 1)))
    return tuple(steps)


def _gray_stack(rotations, target: int, ctrls: tuple[int, ...]) -> list[Gate]:
    """Rotation j on ``target``, then the CNOT of step j of :func:`_gray_steps`,
    for each j; without controls, the one rotation alone."""
    gates: list[Gate] = []
    for rotation, (_, wire) in zip(rotations, _gray_steps(len(ctrls))):
        gates += [rotation, cnot(ctrls[wire], target)] if ctrls else [rotation]
    return gates


def uniformly_controlled(make, angles, target: int,
                         ctrls: tuple[int, ...]) -> list[Gate]:
    """``make(angles[p], target)`` on each control pattern p, ``ctrls[i]``
    being bit i of p, as one stack of 2^len(ctrls) CNOTs (none without).

    ``make`` is ``ry`` or ``rz``. Before rotation j the CNOTs have flipped
    the target, which negates the angle, by the parity of p AND gray(j), so
    rotation j takes the Walsh-Hadamard transform of the angles at gray(j)
    over 2^len(ctrls) (Mottonen et al., quant-ph/0407010).
    """
    if len(angles) != 1 << len(ctrls):
        raise ValueError(f"need {1 << len(ctrls)} angles for {len(ctrls)} controls")
    stack = np.array(angles, dtype=float).reshape(-1, 1)
    while len(stack) > 1:
        stack = np.hstack((stack[::2] + stack[1::2], stack[::2] - stack[1::2]))
    stack = stack[0] / len(angles)
    rotations = [make(float(stack[j ^ (j >> 1)]), target) for j in range(len(angles))]
    return _gray_stack(rotations, target, ctrls)


def _multiplexed(tau: float, target: int, ctrls: tuple[int, ...]) -> list[Gate]:
    """Gray-code Ry stack firing Ry(tau) on the all-ones pattern.

    The stack costs exactly 2^len(ctrls) CNOTs, so :func:`_controlled`
    builds it only up to six controls. It is the identity (not merely a
    phase) on every other control pattern. Its rotations take only the
    angles +-tau/2^len(ctrls), so it builds those two gates once and every
    step appends one of them; negation and division by a power of two are
    sign-symmetric in IEEE arithmetic, so each equals sign * tau / size.
    :func:`uniformly_controlled` with the one angle tau gives the same
    circuit, but its transform and one Ry per step made ``lower`` of a dense
    (12, 6) load take 0.24 s where this takes 0.045 s (2-core VM).
    """
    size = 1 << len(ctrls)
    plus = ry(tau / size, target)
    minus = ry(-tau / size, target)
    steps = _gray_steps(len(ctrls))
    return _gray_stack([plus if sign > 0 else minus for sign, _ in steps], target, ctrls)


def compile_mcry(gate: Gate) -> list[Gate]:
    """Lower a (multi-)controlled Ry, Rz, or Rw to the CNOT-level set.

    An uncontrolled rotation comes back as itself.
    """
    if gate.kind == "Ry":
        lam, axis = -gate.theta, (0.0, 1.0, 0.0)
    elif gate.kind == "Rz":
        lam, axis = -gate.phi, (0.0, 0.0, 1.0)
    elif gate.kind == "Rw":
        lam, axis = gate.theta, gate.axis
    else:
        raise ValueError(f"compile_mcry cannot lower {gate.kind}")
    if not (gate.ctrls or gate.anti_ctrls):
        return [gate]
    return _controlled(lam, axis, gate.target, gate.ctrls, gate.anti_ctrls)


def _is_identity(lam: float) -> bool:
    """Whether exp(i*lam * w.sigma) is the identity, whatever the axis."""
    return abs(math.sin(lam)) < AXIS_TOL and math.cos(lam) > 0


@functools.lru_cache(maxsize=4096)
def _toffoli(a: int, b: int, t: int) -> tuple[Gate, ...]:
    """Exact Toffoli on target t in six CNOTs, up to a global phase.

    The Clifford+T circuit with H = Rw(pi/2, (x + z)/sqrt2) and T = Rz(pi/8),
    each equal to the textbook gate up to a phase.
    """
    h = rw(np.pi / 2.0, _H_AXIS, t)
    t_dg, t_t = rz(-np.pi / 8.0, t), rz(np.pi / 8.0, t)
    return (
        h, cnot(b, t), t_dg, cnot(a, t), t_t, cnot(b, t), t_dg, cnot(a, t),
        rz(np.pi / 8.0, b), t_t, h,
        cnot(a, b), rz(np.pi / 8.0, a), rz(-np.pi / 8.0, b), cnot(a, b),
    )


def _half_margolus(c: int, t: int, sign: float) -> tuple[Gate, ...]:
    """One CNOT-half of a relative-phase Toffoli; sign -1 is the inverse.

    ``half(+1), CNOT(a, t), half(-1)`` is a Toffoli on target t controlled by
    a and c times a diagonal of signs (Margolus), in three CNOTs.
    """
    rot = ry(sign * np.pi / 8.0, t)
    return (rot, cnot(c, t), rot)


@functools.lru_cache(maxsize=4096)
def _mcx(ctrls: tuple[int, ...], target: int, spare: tuple[int, ...]) -> tuple[Gate, ...]:
    """Exact multi-controlled X on ``target``, up to a global phase.

    From three controls on it borrows len(ctrls) - 2 wires of ``spare`` in
    whatever state they hold and restores them: Barenco et al. Lemma 7.2,
    ``top, chain, top, chain``. The two top Toffolis act on the target and
    are exact; the chain computes the AND of the other controls into the
    last borrowed wire with relative-phase Toffolis, whose phases cancel
    because the chain is its own inverse and leaves the target alone. Each
    chain Toffoli meets its mirror image across the lower chain, so its outer
    halves cancel and two CNOTs remain per level: 8 * len(ctrls) - 6 CNOTs.
    """
    k = len(ctrls)
    if k == 1:
        return (cnot(ctrls[0], target),)
    if k == 2:
        return _toffoli(ctrls[0], ctrls[1], target)
    c, a = ctrls, spare[: k - 2]
    down: list[Gate] = []
    up: list[Gate] = []
    for i in range(k - 2, 1, -1):
        # level i flips a[i-1] by c[i] AND a[i-2]
        down += _half_margolus(c[i], a[i - 1], 1.0) + (cnot(a[i - 2], a[i - 1]),)
        up = [cnot(a[i - 2], a[i - 1]), *_half_margolus(c[i], a[i - 1], -1.0)] + up
    bottom = (*_half_margolus(c[1], a[0], 1.0), cnot(c[0], a[0]),
              *_half_margolus(c[1], a[0], -1.0))
    chain = (*down, *bottom, *up)
    top = _toffoli(c[k - 1], a[k - 3], target)
    return top + chain + top + chain


def _linear_rotation(lam: float, t: int, ctrls: tuple[int, ...]) -> list[Gate]:
    """exp(i*lam*Y) on t under all of ``ctrls``.

    With the controls split into halves g1 and g2 and A = Ry(-lam/4), the
    sequence A, X[g1], A^-1, X[g2], A, X[g1], A^-1, X[g2] is the identity
    unless both halves fire, and then (X A^-1 X A)^2 = Ry(-lam) = exp(i*lam*Y).
    Each multi-controlled X borrows the other half, and once both halves
    hold three or more controls the four cost 16 * len(ctrls) - 24 CNOTs.
    Each is then exp(-i*pi/4) times the true gate, so the four multiply to
    -1; the leading A is built as -A = Ry(pi - lam/4), which folds that
    sign at no CNOT, and the result is exp(i*lam*Y) exactly.
    """
    k1 = len(ctrls) - len(ctrls) // 2
    g1, g2 = ctrls[:k1], ctrls[k1:]
    first, second = _mcx(g1, t, g2), _mcx(g2, t, g1)
    a, a_inv = ry(-lam / 4.0, t), ry(lam / 4.0, t)
    return [ry(np.pi - lam / 4.0, t), *first, a_inv, *second, a, *first, a_inv, *second]


def _controlled(lam: float, axis, t: int, ctrls: tuple[int, ...],
                anti_ctrls: tuple[int, ...]) -> list[Gate]:
    """exp(i*lam * w.sigma) on t under ``ctrls`` and ``anti_ctrls``.

    Anti-controls are controls between X flips, and the identity is no gate.
    The uncontrolled rotation V about w x y with V (w.sigma) V^-1 = Y turns
    the axis into Y before and back after. The controlled exp(i*lam*Y) in
    between takes the linear construction from seven controls on and the
    multiplexor below that, the cheaper of the two: the linear one costs
    72 > 64 CNOTs at six controls and 88 < 128 at seven, and
    16 * controls - 24 stays below 2^controls from there on.
    """
    merged = tuple(sorted(ctrls + anti_ctrls))
    if not merged:
        return [rw(lam, axis, t)]
    if _is_identity(lam):
        return []
    flips = [x_gate(q) for q in anti_ctrls]
    ax, ay, az = axis
    if abs(math.sin(lam)) < AXIS_TOL:
        # exp(i*pi*W) = -I regardless of axis; realize it on the y axis
        lam, (ax, ay, az) = np.pi, (0.0, 1.0, 0.0)
    pre, post = [], []
    # w x y = (-az, 0, ax), whose length is the sine of the angle from w to y
    sin_b = math.hypot(ax, az)
    if sin_b < AXIS_TOL:
        lam = lam * math.copysign(1.0, ay)
    else:
        half = math.atan2(sin_b, ay) / 2.0
        unit = (-az / sin_b, 0.0, ax / sin_b)
        pre.append(rw(-half, unit, t))
        post.append(rw(half, unit, t))
    # exp(i*lam*Y) = Ry(-lam)
    core = _linear_rotation(lam, t, merged) if len(merged) >= 7 else _multiplexed(-lam, t, merged)
    return flips + pre + core + post + flips[::-1]


def _cnots(gates) -> int:
    return sum(1 for g in gates if g.kind == "CNOT")


def _rbs_top(gate: Gate) -> list[Gate]:
    """Entangle, rotate both wires by theta/2, disentangle.

    The frame (iH and a CNOT, then the CNOT and -iH) holds two half-angle
    Ry gates and, with a phase, is followed by a pair of quarter-turn Rz
    gates. :func:`lower_gate` takes it only for an uncontrolled two-wire
    gate that is not the identity, so every rotation is a plain one.
    """
    if gate.ins:
        src, dst, flip = gate.ins[0], gate.outs[0], []
    else:
        # two out-wires: with the second one flipped it is the in-wire
        dst, src = gate.outs
        flip = [x_gate(src)]
    half = gate.theta / 2.0
    gates = flip + [rw(np.pi / 2.0, _H_AXIS, src), cnot(src, dst), ry(half, src),
                    ry(half, dst), cnot(src, dst), rw(-np.pi / 2.0, _H_AXIS, src)]
    if gate.phi:
        gates += [rz(gate.phi / 2.0, src), rz(-gate.phi / 2.0, dst)]
    return gates + flip


def _mixing_central(gate: Gate) -> tuple[float, tuple[float, float, float]]:
    """(lam, axis) of the central rotation of :func:`_mixing_bottom`.

    The rotation is the gate's own 2x2 block. A raising gate's target reads
    0 on the block's first state; with in-wires the ladder leaves the target
    reading 1 there, so rows and columns swap.
    """
    u = _mixing_matrix(gate)
    return axis_angle(u[::-1, ::-1] if gate.ins else u)


def _mixing_bottom(gate: Gate) -> list[Gate]:
    """Parity ladder onto one wire pair, one central rotation, unladder.

    The ladder maps the two mixed basis patterns onto the values of a
    single wire; every spectator wire must read zero there, which the
    central rotation enforces with anti-controls, so the construction is
    exact on the full space.  When that rotation is no gate, neither is the
    ladder around it.
    """
    ins, outs = gate.ins, gate.outs
    ladder: list[Gate] = []
    if ins:
        src, dst = ins[0], outs[0]
        ladder += [cnot(src, q) for q in ins[1:]]
        ladder += [cnot(dst, q) for q in outs[1:]]
        ladder.append(cnot(src, dst))
        target = src
        extra_ctrl = (dst,)
        spectators = ins[1:] + outs[1:]
    else:
        target = outs[0]
        ladder += [cnot(target, q) for q in outs[1:]]
        extra_ctrl = ()
        spectators = outs[1:]

    lam, axis = _mixing_central(gate)
    rotation = _controlled(lam, axis, target, gate.ctrls + extra_ctrl,
                           tuple(sorted(gate.anti_ctrls + spectators)))
    if not rotation:
        return []
    return ladder + rotation + list(reversed(ladder))


@dataclass(frozen=True)
class LoweringResult:
    """A CNOT-level circuit plus per-source-gate CNOT accounting."""

    circuit: Circuit
    gate_cnots: tuple[int, ...]
    cnot_total: int


def lower_gate(gate: Gate) -> list[Gate]:
    """CNOT-level realization of one logical gate."""
    if gate.kind in ("X", "CNOT"):
        return [gate]
    if gate.kind in ("Ry", "Rz", "Rw"):
        return compile_mcry(gate)
    if len(gate.ins) + len(gate.outs) == 2 and not (gate.ctrls or gate.anti_ctrls):
        return [] if _is_identity(_mixing_central(gate)[0]) else _rbs_top(gate)
    return _mixing_bottom(gate)


def lower(circuit: Circuit) -> LoweringResult:
    """Lower every gate of a circuit and tally CNOTs per source gate.

    Gates are frozen, so the lowered circuit may hold the same gate object
    at several positions: a multiplexor's two rotations and the cached X
    and CNOT gates each appear wherever they are used.
    """
    lowered: list[Gate] = []
    per_gate: list[int] = []
    for gate in circuit.gates:
        block = lower_gate(gate)
        lowered.extend(block)
        per_gate.append(_cnots(block))
    return LoweringResult(
        circuit=Circuit(n=circuit.n, gates=tuple(lowered), level="cnot"),
        gate_cnots=tuple(per_gate),
        cnot_total=sum(per_gate),
    )
