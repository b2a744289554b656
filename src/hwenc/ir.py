"""Typed gate IR for encoder circuits, with semantics and serialization.

There are six gate kinds: X, Ry, Rz, Rw, RBS and CNOT.  Circuits exist at
two levels.  Logical circuits may contain the mixing gate RBS and
multi-controlled rotations; CNOT-level circuits are restricted to X, Ry, Rz,
Rw and CNOT with no controls on the rotations, so the CNOT count can be read
off directly.

Conventions, fixed package-wide:

* rotations are half-angle-free: Ry(t) = exp(-i t Y) sends |0> to
  cos(t)|0> + sin(t)|1>, Rz(p) = exp(-i p Z) = diag(exp(-ip), exp(ip));
* Rw(l, w) = exp(+i l W) for the unit axis w, W = w . (X, Y, Z) -- note the
  plus sign, opposite to Ry/Rz;
* RBS(t, p) mixes its in-wires (any number, none included) with its
  out-wires (at least one); the paper's two-wire RBS has one of each, and
  an absent phase p reads as 0.  It acts on a basis state whose in-wires
  are all 1 and out-wires all 0 (controls satisfied, anti-controls clear) as
  |b> -> exp(ip) cos(t) |b> + exp(-ip) sin(t) |b'>, and on the mirrored
  state as |b'> -> -exp(ip) sin(t) |b> + exp(-ip) cos(t) |b'>, where b' is b
  with in-wires and out-wires flipped; every other basis state is fixed;
* qubit labels are 1-based, label 1 is the rightmost character of a printed
  bitstring, integer bit q-1 is qubit q, and QASM wire index = n - label.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

GATE_KINDS = ("X", "Ry", "Rz", "Rw", "RBS", "CNOT")

# kinds permitted in a CNOT-level circuit
CNOT_LEVEL_KINDS = frozenset({"X", "Ry", "Rz", "Rw", "CNOT"})

SINGLE_QUBIT_KINDS = frozenset({"X", "Ry", "Rz", "Rw"})


class SerializationError(ValueError):
    """Malformed circuit JSON."""


def _as_labels(values, what: str) -> tuple[int, ...]:
    # fast path for the shapes nearly every gate has: no label, or one plain int
    if type(values) is tuple and (
        not values or (len(values) == 1 and type(values[0]) is int and values[0] >= 1)
    ):
        return values
    labels = tuple(values)
    for q in labels:
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise ValueError(f"{what} must be positive integer labels, got {q!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate label in {what}: {labels}")
    return tuple(sorted(labels))


def _check_angle(value, what: str) -> None:
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class Gate:
    """One gate. Wires are qubit labels; single-qubit kinds use ins=[target].

    theta carries the rotation angle of Ry, Rw and RBS; phi carries the
    phase angle of Rz and, optionally, of RBS; axis is the unit rotation
    axis of Rw only.
    """

    kind: str
    theta: float | None = None
    phi: float | None = None
    axis: tuple[float, float, float] | None = None
    ins: tuple[int, ...] = ()
    outs: tuple[int, ...] = ()
    ctrls: tuple[int, ...] = ()
    anti_ctrls: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "ins", _as_labels(self.ins, "ins"))
        object.__setattr__(self, "outs", _as_labels(self.outs, "outs"))
        object.__setattr__(self, "ctrls", _as_labels(self.ctrls, "ctrls"))
        object.__setattr__(self, "anti_ctrls", _as_labels(self.anti_ctrls, "anti_ctrls"))
        all_labels = self.ins + self.outs + self.ctrls + self.anti_ctrls
        if len(all_labels) > 1 and len(set(all_labels)) != len(all_labels):
            raise ValueError(f"{self.kind}: a qubit appears in two roles: {all_labels}")
        if self.theta is not None:
            _check_angle(self.theta, "theta")
        if self.phi is not None:
            _check_angle(self.phi, "phi")
        if self.axis is not None:
            for a in self.axis:
                _check_angle(a, "axis component")
            ax = tuple(float(a) for a in self.axis)
            if len(ax) != 3:
                raise ValueError("axis must have three components")
            if abs(math.sqrt(sum(a * a for a in ax)) - 1.0) > 1e-6:
                raise ValueError(f"axis must be unit length, got {ax}")
            object.__setattr__(self, "axis", ax)
        self._check_shape()

    def _check_shape(self):
        kind = self.kind
        need_theta = kind in ("Ry", "Rw", "RBS")
        if need_theta != (self.theta is not None):
            raise ValueError(f"{kind}: theta {'required' if need_theta else 'not allowed'}")
        if kind != "RBS" and (kind == "Rz") != (self.phi is not None):
            raise ValueError(f"{kind}: phi {'required' if kind == 'Rz' else 'not allowed'}")
        if (kind == "Rw") != (self.axis is not None):
            raise ValueError(f"{kind}: axis {'required' if kind == 'Rw' else 'not allowed'}")
        if kind in SINGLE_QUBIT_KINDS:
            if len(self.ins) != 1 or self.outs:
                raise ValueError(f"{kind}: exactly one target in ins, no outs")
            if kind == "X" and (self.ctrls or self.anti_ctrls):
                raise ValueError("X takes no controls; use CNOT")
        elif kind == "CNOT":
            if len(self.ctrls) != 1 or len(self.ins) != 1 or self.outs or self.anti_ctrls:
                raise ValueError("CNOT: one control in ctrls, one target in ins")
        elif not self.outs:
            raise ValueError("RBS: at least one out-wire")

    @property
    def target(self) -> int:
        if self.kind not in SINGLE_QUBIT_KINDS and self.kind != "CNOT":
            raise ValueError(f"{self.kind} has no single target")
        return self.ins[0]

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(self.ins + self.outs + self.ctrls + self.anti_ctrls)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over n qubits at a declared level."""

    n: int
    gates: tuple[Gate, ...] = ()
    level: str = "logical"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.level not in ("logical", "cnot"):
            raise ValueError(f"unknown level {self.level!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        # the checks depend only on the gate and the circuit, so a gate object
        # reused at later positions (lowered circuits share frozen gates) is
        # checked at its first index only; the tuple keeps every id valid
        seen: set[int] = set()
        for i, g in enumerate(self.gates):
            if id(g) in seen:
                continue
            seen.add(id(g))
            # label tuples are sorted, so each one's highest label is its last
            high = max(g.ins[-1:] + g.outs[-1:] + g.ctrls[-1:] + g.anti_ctrls[-1:], default=1)
            if high > self.n:
                raise ValueError(f"gate {i}: label {high} exceeds {self.n} qubits")
            if self.level == "cnot":
                if g.kind not in CNOT_LEVEL_KINDS:
                    raise ValueError(f"gate {i}: {g.kind} not allowed at cnot level")
                if g.kind != "CNOT" and (g.ctrls or g.anti_ctrls):
                    raise ValueError(f"gate {i}: controlled {g.kind} at cnot level")

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")


# shorthand constructors; X and CNOT gates are frozen and fixed by their labels,
# so each distinct one is built once and reused (typed, so a True or np.int64
# label is not served a cached int's gate but reaches the checks)

@functools.lru_cache(maxsize=4096, typed=True)
def x_gate(target: int) -> Gate:
    return Gate("X", ins=(target,))


def ry(theta: float, target: int, ctrls=(), anti_ctrls=()) -> Gate:
    return Gate("Ry", theta=theta, ins=(target,), ctrls=ctrls, anti_ctrls=anti_ctrls)


def rz(phi: float, target: int, ctrls=(), anti_ctrls=()) -> Gate:
    return Gate("Rz", phi=phi, ins=(target,), ctrls=ctrls, anti_ctrls=anti_ctrls)


def rw(theta: float, axis, target: int, ctrls=(), anti_ctrls=()) -> Gate:
    return Gate("Rw", theta=theta, axis=tuple(axis), ins=(target,), ctrls=ctrls,
                anti_ctrls=anti_ctrls)


def rbs(theta: float, ins, outs, phi: float | None = None, ctrls=(),
        anti_ctrls=()) -> Gate:
    return Gate("RBS", theta=theta, phi=phi, ins=tuple(ins), outs=tuple(outs),
                ctrls=ctrls, anti_ctrls=anti_ctrls)


@functools.lru_cache(maxsize=4096, typed=True)
def cnot(ctrl: int, target: int) -> Gate:
    return Gate("CNOT", ins=(target,), ctrls=(ctrl,))


# semantics

def _mask(labels) -> int:
    m = 0
    for q in labels:
        m |= 1 << (q - 1)
    return m


def controls_satisfied(gate: Gate, state: int) -> bool:
    ctrl_mask = _mask(gate.ctrls)
    anti_mask = _mask(gate.anti_ctrls)
    return (state & ctrl_mask) == ctrl_mask and (state & anti_mask) == 0


def rw_matrix(theta: float, axis) -> np.ndarray:
    """The 2x2 unitary exp(+i theta W), W = axis . (X, Y, Z)."""
    wx, wy, wz = axis
    w = np.array([[wz, wx - 1j * wy], [wx + 1j * wy, -wz]])
    return math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * w


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "X":
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if gate.kind == "Ry":
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.kind == "Rz":
        return np.diag([np.exp(-1j * gate.phi), np.exp(1j * gate.phi)])
    if gate.kind == "Rw":
        return rw_matrix(gate.theta, gate.axis)
    raise ValueError(f"{gate.kind} is not a single-qubit gate")


def _mixing_matrix(gate: Gate) -> np.ndarray:
    """An RBS gate's 2x2 block on (|b>, |b'>): in-wires 1 and out-wires 0
    first, the mirrored state second."""
    phi = gate.phi if gate.phi is not None else 0.0
    fwd, bwd = np.exp(1j * phi), np.exp(-1j * phi)
    c, s = math.cos(gate.theta), math.sin(gate.theta)
    return np.array([[fwd * c, -fwd * s], [bwd * s, bwd * c]])


def apply_to_basis_state(gate: Gate, state: int) -> dict[int, complex]:
    """Column of the gate unitary indexed by one basis state.

    Returns the output amplitudes as a state-index map with at most two
    entries.  This function is the semantic authority; the simulator and the
    dense-matrix builder both defer to it.
    """
    if not controls_satisfied(gate, state):
        return {state: 1.0 + 0j}

    if gate.kind == "CNOT":
        return {state ^ (1 << (gate.ins[0] - 1)): 1.0 + 0j}

    if gate.kind in SINGLE_QUBIT_KINDS:
        u = _single_qubit_matrix(gate)
        bit = 1 << (gate.ins[0] - 1)
        col = (state & bit) and 1
        out = {}
        if u[0, col] != 0:
            out[state & ~bit] = complex(u[0, col])
        if u[1, col] != 0:
            out[state | bit] = complex(u[1, col])
        return out

    # RBS
    ins_mask, outs_mask = _mask(gate.ins), _mask(gate.outs)
    flip = ins_mask | outs_mask
    u = _mixing_matrix(gate)
    if (state & ins_mask) == ins_mask and (state & outs_mask) == 0:
        out = {}
        if u[0, 0] != 0:
            out[state] = u[0, 0]
        if u[1, 0] != 0:
            out[state ^ flip] = u[1, 0]
        return out or {state: 0j}
    if (state & ins_mask) == 0 and (state & outs_mask) == outs_mask:
        out = {}
        if u[0, 1] != 0:
            out[state ^ flip] = u[0, 1]
        if u[1, 1] != 0:
            out[state] = u[1, 1]
        return out or {state: 0j}
    return {state: 1.0 + 0j}


def gate_unitary(gate: Gate, n: int) -> np.ndarray:
    """Dense 2^n x 2^n unitary of one gate. Guarded to n <= 12."""
    if n > 12:
        raise ValueError("dense unitary construction limited to 12 qubits")
    if gate.qubits and max(gate.qubits) > n:
        raise ValueError(f"gate label {max(gate.qubits)} exceeds {n} qubits")
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for row, amp in apply_to_basis_state(gate, col).items():
            u[row, col] = amp
    return u


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (first gate rightmost)."""
    dim = 2**circuit.n
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, circuit.n) @ u
    return u


# serialization

def _gate_to_dict(gate: Gate) -> dict:
    d = {"kind": gate.kind}
    if gate.theta is not None:
        d["theta"] = gate.theta
    if gate.phi is not None:
        d["phi"] = gate.phi
    if gate.axis is not None:
        d["axis"] = list(gate.axis)
    d["ins"] = list(gate.ins)
    d["outs"] = list(gate.outs)
    d["ctrls"] = list(gate.ctrls)
    d["anti_ctrls"] = list(gate.anti_ctrls)
    return d


def serialize(circuit: Circuit) -> str:
    payload = {
        "n": circuit.n,
        "level": circuit.level,
        "gates": [_gate_to_dict(g) for g in circuit.gates],
    }
    return json.dumps(payload, indent=1)


def _gate_from_dict(d: dict, index: int) -> Gate:
    if not isinstance(d, dict):
        raise SerializationError(f"gate {index}: expected an object")
    kind = d.get("kind")
    if kind not in GATE_KINDS:
        raise SerializationError(f"gate {index}: unknown kind {kind!r}")
    known = {"kind", "theta", "phi", "axis", "ins", "outs", "ctrls", "anti_ctrls"}
    extra = set(d) - known
    if extra:
        raise SerializationError(f"gate {index}: unknown fields {sorted(extra)}")
    try:
        return Gate(
            kind=kind,
            theta=d.get("theta"),
            phi=d.get("phi"),
            axis=tuple(d["axis"]) if d.get("axis") is not None else None,
            ins=tuple(d.get("ins", ())),
            outs=tuple(d.get("outs", ())),
            ctrls=tuple(d.get("ctrls", ())),
            anti_ctrls=tuple(d.get("anti_ctrls", ())),
        )
    except (ValueError, TypeError) as err:
        raise SerializationError(f"gate {index}: {err}") from err


def deserialize(text: str) -> Circuit:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise SerializationError(f"not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise SerializationError("top level must be an object")
    for key in ("n", "level", "gates"):
        if key not in payload:
            raise SerializationError(f"missing top-level key {key!r}")
    gates = payload["gates"]
    if not isinstance(gates, list):
        raise SerializationError("'gates' must be a list")
    parsed = [_gate_from_dict(d, i) for i, d in enumerate(gates)]
    try:
        return Circuit(payload["n"], tuple(parsed), payload["level"])
    except (ValueError, TypeError) as err:
        raise SerializationError(str(err)) from err


# QASM emission

def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (a, b, c) with u = Rz(a) Ry(b) Rz(c), u special unitary."""
    det = np.linalg.det(u)
    if abs(det - 1.0) > 1e-9:
        raise ValueError("zyz decomposition expects determinant 1")
    alpha, beta = u[0, 0], u[1, 0]
    b = math.atan2(abs(beta), abs(alpha))
    plus = -np.angle(alpha) if abs(alpha) > 1e-12 else 0.0   # a + c
    minus = np.angle(beta) if abs(beta) > 1e-12 else 0.0     # a - c
    return (plus + minus) / 2, b, (plus - minus) / 2


def emit_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for a CNOT-level circuit.

    The file uses the standard half-angle rotation convention, so angles are
    doubled on the way out.  Rw becomes an Euler triple rz, ry, rz written in
    application order.  Wire index = n - label.
    """
    if circuit.level != "cnot":
        raise ValueError("QASM emission needs a cnot-level circuit")
    n = circuit.n
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    # a gate object reused at several positions is formatted once; the
    # circuit's tuple keeps every id valid for the whole call
    text: dict[int, str] = {}
    for g in circuit.gates:
        line = text.get(id(g))
        if line is None:
            line = text[id(g)] = _qasm_text(g, n)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _qasm_text(g: Gate, n: int) -> str:
    """QASM line(s) of one CNOT-level gate, newline-separated."""
    if g.kind == "X":
        return f"x q[{n - g.target}];"
    if g.kind == "Ry":
        return f"ry({2 * g.theta:.17g}) q[{n - g.target}];"
    if g.kind == "Rz":
        return f"rz({2 * g.phi:.17g}) q[{n - g.target}];"
    if g.kind == "CNOT":
        return f"cx q[{n - g.ctrls[0]}],q[{n - g.target}];"
    if g.kind == "Rw":
        a, b, c = zyz_angles(rw_matrix(g.theta, g.axis))
        w = n - g.target
        return f"rz({2 * c:.17g}) q[{w}];\nry({2 * b:.17g}) q[{w}];\nrz({2 * a:.17g}) q[{w}];"
    raise ValueError(f"cannot emit {g.kind}")  # pragma: no cover - level validation forbids this
