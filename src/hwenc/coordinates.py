"""Angles on the unit sphere from data vectors, and the inverse cascade.

A real vector of dimension d maps to d-1 polar angles; a complex vector
additionally carries d phase angles, a global phase and one per mixing
gate, solved from the last component backwards.  The encoders consume these
angles one mixing gate at a time, so the i-th angle only ever needs the
norm of the tail x_{i+1}..x_d.  Degenerate tails resolve to angle 0 (both
arguments of the two-argument arctangent zero means the angle is free; zero
is the frozen choice, likewise the argument of a zero complex entry).
"""

import numpy as np


def angles_from_real(x) -> np.ndarray:
    """Polar angles of a real vector, length d-1.

    The first d-2 angles lie in [0, pi] (their sine is a tail norm); the
    last is the full-range plane angle of (x_{d-1}, x_d).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-d vector")
    d = x.size
    if d < 2:
        return np.zeros(0)
    # suffix[i] = norm of x[i:]
    suffix = np.sqrt(np.cumsum(x[::-1] ** 2)[::-1])
    thetas = np.zeros(d - 1)
    for i in range(d - 2):
        tail = suffix[i + 1]
        thetas[i] = 0.0 if tail == 0.0 and x[i] == 0.0 else np.arctan2(tail, x[i])
    last = np.arctan2(x[d - 1], x[d - 2])
    thetas[d - 2] = 0.0 if x[d - 1] == 0.0 and x[d - 2] == 0.0 else last
    return thetas


def real_from_angles(thetas, norm: float = 1.0) -> np.ndarray:
    """Vector with the given polar angles and Euclidean norm."""
    thetas = np.asarray(thetas, dtype=float)
    d = thetas.size + 1
    x = np.zeros(d)
    running = norm
    for i in range(d - 1):
        x[i] = running * np.cos(thetas[i])
        running *= np.sin(thetas[i])
    x[d - 1] = running
    return x


def angles_from_complex(x) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles (length d-1) and phases (length d).

    The polar angles are those of the magnitude vector.  The phases are
    solved backwards: psi_{d-1} = arg x_{d-1}, then psi_j = (psi_{j+1} +
    arg x_j) / 2 and phi_j = arg x_j - psi_j, where psi_j is the argument
    the cascade carries into slot j and phi_j the phase of the gate that
    leaves it.  ``phis[0]`` is the global phase psi_0 and ``phis[j + 1]``
    is phi_j.  Halving keeps every psi and phi in [-pi, pi].
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("expected a 1-d vector")
    thetas = angles_from_real(np.abs(x))
    raw = np.where(x == 0, 0.0, np.angle(x))
    phis = np.zeros(x.size)
    psi = raw[-1] if x.size else 0.0
    for j in range(x.size - 2, -1, -1):
        psi = (psi + raw[j]) / 2.0
        phis[j + 1] = raw[j] - psi
    phis[:1] = psi
    return thetas, phis


def complex_from_angles(thetas, phis, norm: float = 1.0) -> np.ndarray:
    """Vector with the given polar angles, phases, and norm.

    Slot j gets the argument psi_j + phi_j (phi_{d-1} = 0), where psi_0 =
    phis[0] and psi_{j+1} = psi_j - phi_j.
    """
    phis = np.asarray(phis, dtype=float)
    mags = real_from_angles(thetas, norm)
    if phis.size != mags.size:
        raise ValueError("need one phase per component")
    psi = phis[0] - np.concatenate(([0.0], np.cumsum(phis[1:])))
    return mags * np.exp(1j * (psi + np.append(phis[1:], 0.0)))
