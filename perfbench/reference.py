"""Expected values for the benchmark's output checks, computed without hwenc.

Gate matrices follow the conventions stated in the docstring of
``hwenc/ir.py``; nothing here imports the package under test:

* Ry(t) = exp(-i t Y) = [[cos t, -sin t], [sin t, cos t]];
* Rz(p) = exp(-i p Z) = diag(exp(-ip), exp(ip));
* Rw(l, w) = exp(+i l W), W = w . (X, Y, Z);
* qubit label q is integer bit q - 1 of a basis-state index, so a printed
  bitstring reads as ``int(bits, 2)``.

Only CNOT-level circuits (X, Ry, Rz, Rw and CNOT, no controlled rotations)
are accepted.  Gates are objects or namespaces with the attribute names of
the circuit JSON: ``kind``, ``theta``, ``phi``, ``axis``, ``ins``, ``ctrls``.
"""

import cmath
import math

import numpy as np

Z_LIMIT = 6.0
"""Largest |z| an observed frequency may show against its exact probability."""

MIN_EXPECTED = 20.0
"""Outcomes expected fewer times than this are pooled into one bin."""


def gate_matrix(g) -> tuple[complex, complex, complex, complex]:
    """Entries (u00, u01, u10, u11) of one single-qubit gate."""
    if g.kind != "CNOT" and (g.ctrls or getattr(g, "anti_ctrls", ())):
        raise ValueError(f"controlled {g.kind} is not a CNOT-level gate")
    if g.kind == "X":
        return 0j, 1 + 0j, 1 + 0j, 0j
    if g.kind == "Ry":
        c, s = math.cos(g.theta), math.sin(g.theta)
        return complex(c), complex(-s), complex(s), complex(c)
    if g.kind == "Rz":
        return cmath.exp(-1j * g.phi), 0j, 0j, cmath.exp(1j * g.phi)
    if g.kind == "Rw":
        wx, wy, wz = g.axis
        c, s = math.cos(g.theta), math.sin(g.theta)
        return (complex(c, s * wz), 1j * s * complex(wx, -wy),
                1j * s * complex(wx, wy), complex(c, -s * wz))
    raise ValueError(f"{g.kind} is not a CNOT-level gate")


def _compose(u, v):
    """The 2x2 product u @ v on entry tuples."""
    a, b, c, d = u
    e, f, g, h = v
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def statevector(n: int, gates) -> np.ndarray:
    """Final state of a CNOT-level circuit started in |0...0>.

    Each maximal run of gates sharing one target wire is a uniformly
    controlled 2x2 gate on that wire (its CNOTs flip the target for the
    control patterns that fire them), so the run is built as one 2x2 per
    control pattern and applied to the state in a single batched product.
    """
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    gates = list(gates)
    i = 0
    while i < len(gates):
        target = gates[i].ins[0]
        j = i
        ctrls: list[int] = []
        while j < len(gates) and gates[j].ins[0] == target:
            if gates[j].kind == "CNOT" and gates[j].ctrls[0] not in ctrls:
                ctrls.append(gates[j].ctrls[0])
            j += 1
        k = len(ctrls)
        shift = {c: k - 1 - m for m, c in enumerate(ctrls)}
        patterns = np.arange(1 << k)
        mats = np.zeros((1 << k, 2, 2), dtype=complex)
        mats[:, 0, 0] = mats[:, 1, 1] = 1.0
        for g in gates[i:j]:
            if g.kind == "CNOT":
                fired = (patterns >> shift[g.ctrls[0]]) & 1 == 1
                mats[fired] = mats[fired][:, ::-1, :]
            else:
                u00, u01, u10, u11 = gate_matrix(g)
                top = mats[:, 0, :].copy()
                bottom = mats[:, 1, :]
                mats[:, 0, :] = u00 * top + u01 * bottom
                mats[:, 1, :] = u10 * top + u11 * bottom
        # axis n - q of the (2,)*n view holds qubit label q
        axes = [n - c for c in ctrls] + [n - target]
        moved = np.moveaxis(vec.reshape((2,) * n), axes, range(k + 1))
        out = np.matmul(mats, moved.reshape(1 << k, 2, -1)).reshape(moved.shape)
        vec = np.moveaxis(out, range(k + 1), axes).reshape(-1)
        i = j
    return vec


def noisy_distribution(n: int, gates, p2: float) -> np.ndarray:
    """Exact outcome probabilities under two-qubit depolarizing noise.

    The density matrix evolves as rho -> U rho U^dagger per gate, and after
    each CNOT on wires (c, t) as
    rho -> (1 - 16 p2 / 15) rho + (16 p2 / 15) Tr_{c,t}(rho) (x) I / 4,
    which is a uniformly random non-identity Pauli pair with probability p2.
    The (1 - lambda) factor is kept as a running scale so the channel only
    touches the four diagonal blocks of the (c, t) pair.
    """
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    tensor = rho.reshape((2,) * (2 * n))
    lam = 16.0 * p2 / 15.0
    scale = 1.0
    pending: dict[int, tuple] = {}

    def row_axis(q):
        return n - q

    def col_axis(q):
        return 2 * n - q

    def apply_1q(q, u):
        # rows: U rho, as one batched product; columns: rho U^dagger, which
        # is conj(U) acting on the strided column bit
        rows = rho.reshape(-1, 2, (1 << (q - 1)) * dim)
        np.matmul(np.array(u).reshape(2, 2), rows.copy(), out=rows)
        cols = rho.reshape(-1, 2, 1 << (q - 1))
        lo, hi = cols[:, 0, :], cols[:, 1, :]
        a, b, c, d = (x.conjugate() for x in u)
        if b == 0 and c == 0:
            lo *= a
            hi *= d
            return
        old = lo.copy()
        lo *= a
        lo += b * hi
        hi *= d
        hi += c * old

    def flush(q):
        u = pending.pop(q, None)
        if u is not None:
            apply_1q(q, u)

    def index(fixed):
        idx = [slice(None)] * (2 * n)
        for axis, value in fixed.items():
            idx[axis] = value
        return tuple(idx)

    for g in gates:
        if g.kind != "CNOT":
            q = g.ins[0]
            u = gate_matrix(g)
            pending[q] = u if q not in pending else _compose(u, pending[q])
            continue
        c, t = g.ctrls[0], g.ins[0]
        flush(c)
        flush(t)
        for axis_of in (row_axis, col_axis):
            zero = index({axis_of(c): 1, axis_of(t): 0})
            one = index({axis_of(c): 1, axis_of(t): 1})
            swap = tensor[zero].copy()
            tensor[zero] = tensor[one]
            tensor[one] = swap
        if lam:
            blocks = [index({row_axis(c): a, col_axis(c): a,
                             row_axis(t): b, col_axis(t): b})
                      for a in (0, 1) for b in (0, 1)]
            reduced = sum(tensor[blk] for blk in blocks)
            reduced *= lam / (4.0 * (1.0 - lam))
            for blk in blocks:
                tensor[blk] += reduced
            scale *= 1.0 - lam
    for q in list(pending):
        flush(q)
    probs = np.real(np.diagonal(rho)) * scale
    return np.clip(probs, 0.0, None)


def phase_aligned_error(got: np.ndarray, want: np.ndarray) -> float:
    """Max |got - e^{i a} want| with the phase a fitted on want's largest entry."""
    i = int(np.argmax(np.abs(want)))
    if abs(got[i]) == 0.0:
        return float(np.max(np.abs(got - want)))
    phase = got[i] / want[i]
    phase /= abs(phase)
    return float(np.max(np.abs(got - phase * want)))


def qgaussian_target(points: int = 15, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    """Probabilities proportional to (1 + x^2)^-2 on an evenly spaced grid.

    That is the q-Gaussian e_q(-beta x^2) at q = 3/2, beta = 2.
    """
    x = np.linspace(lo, hi, points)
    dens = (1.0 + x * x) ** -2
    return dens / dens.sum()


def max_abs_z(observed, probs, shots: int) -> float:
    """Largest binomial z-score of observed counts against probabilities."""
    observed = np.asarray(observed, dtype=float)
    expected = shots * np.asarray(probs, dtype=float)
    var = expected * (1.0 - np.asarray(probs, dtype=float))
    dev = np.abs(observed - expected)
    z = np.where(var > 0, dev / np.sqrt(np.where(var > 0, var, 1.0)),
                 np.where(dev > 0, np.inf, 0.0))
    return float(np.max(z))


def pooled_bins(counts: np.ndarray, probs: np.ndarray, shots: int):
    """Keep outcomes expected at least MIN_EXPECTED times; pool the rest."""
    keep = shots * probs >= MIN_EXPECTED
    observed = np.append(counts[keep], counts[~keep].sum())
    expected = np.append(probs[keep], probs[~keep].sum())
    return observed, expected
