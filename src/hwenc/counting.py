"""Analytic CNOT budgets for the encoder families.

The per-gate bounds come from a fixed cost table: one column for
multi-controlled Ry, one for RBS gates on two wires (real and phased
variants), and a linear formula for RBS gates on three or more wires.
Each entry is a ceiling: ``compiler.lower`` never spends more CNOTs on a
gate than ``gate_cnot_bound`` gives it, whatever its control count, so a
budget, which sums those entries over the gate census of a construction,
bounds the lowered circuit. The dense budgets additionally collapse to
closed-form polynomials in n, and the full-basis one is exact.

The sparse budget defines none of its inputs itself: its addresses pass the
encoder's rules (``encoders._check_addresses``) and its wires come from the
encoder's walk (``bitstrings.walk_wires``). No budget has a row for the
global phase a complex encoder puts first: it is an uncontrolled Rz and
lowers to no CNOT.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bitstrings import walk_wires
from .encoders import _check_addresses
from .ir import Gate

_MCRY_SMALL = (0, 2, 4, 12, 36)
_RBS_SMALL = (2, 6, 10, 26, 58)
_RBS_SMALL_COMPLEX = (2, 6, 14, 38, 84)


def mcry_bound(ell: int) -> int:
    """Budget for a rotation with ell controls."""
    if ell < 0:
        raise ValueError("control count must be non-negative")
    if ell < 5:
        return _MCRY_SMALL[ell]
    return 16 * ell - 24


def rbs_bound(ell: int, complex_amplitudes: bool = False) -> int:
    """Budget for a two-wire RBS gate with ell controls."""
    if ell < 0:
        raise ValueError("control count must be non-negative")
    if ell < 5:
        return (_RBS_SMALL_COMPLEX if complex_amplitudes else _RBS_SMALL)[ell]
    return 20 * ell + 4 if complex_amplitudes else 16 * ell - 6


def grbs_bound(m: int, mp: int, ell: int, complex_amplitudes: bool = False) -> int:
    """Budget for an RBS gate on m + mp >= 3 wires."""
    if m + mp < 3:
        raise ValueError("generalized column needs at least three mixed wires")
    if complex_amplitudes:
        return 22 * (m + mp) + 20 * ell - 20
    return 18 * (m + mp) + 16 * ell - 42


def gate_cnot_bound(gate: Gate) -> int:
    """Table bound for one logical gate; anti-controls count as controls.

    An RBS gate is priced by its wire counts and whether it carries a
    nonzero phase, through :func:`_mixing_bound`, the same rule by which
    ``count_sparse`` prices its gate list.
    """
    ell = len(gate.ctrls) + len(gate.anti_ctrls)
    if gate.kind in ("Ry", "Rz", "Rw"):
        return mcry_bound(ell)
    if gate.kind == "X":
        return 0
    if gate.kind == "CNOT":
        return 1
    return _mixing_bound(len(gate.ins), len(gate.outs), ell, bool(gate.phi))


def _mixing_bound(m: int, mp: int, ell: int, complex_amplitudes: bool) -> int:
    """An RBS gate with m in- and mp out-wires and ell controls: a single
    raise is priced as an Ry (its one rotation under ell controls), two
    wires by :func:`rbs_bound` and anything wider by :func:`grbs_bound`."""
    if m == 0 and mp == 1:
        return mcry_bound(ell)
    if m + mp <= 2:
        return rbs_bound(ell, complex_amplitudes)
    return grbs_bound(m, mp, ell, complex_amplitudes)


@dataclass(frozen=True)
class BudgetRow:
    """One line of a budget: a family of same-priced gates."""

    label: str
    gates: int
    per_gate: int

    @property
    def subtotal(self) -> int:
        return self.gates * self.per_gate


@dataclass(frozen=True)
class CnotBudget:
    """Row-by-row analytic budget.

    ``total`` sums the rows. ``analytic_total`` carries the paper's closed
    formula where one exists: the dense budgets, where it equals the row
    total, and the real full-basis budget, where it prices the paper's
    weight-stacked loader rather than the circuit built here.
    """

    rows: tuple[BudgetRow, ...]
    total: int
    analytic_total: int | None = None


def _exact_div(value: int, by: int) -> int:
    q, r = divmod(value, by)
    if r:
        raise ArithmeticError(f"{value} not divisible by {by}")
    return q


def closed_form_dense(n: int, k: int, complex_amplitudes: bool = False) -> int:
    """Polynomial total for the dense fixed-weight budget.

    Weights above n/2 mirror to n - k. For k <= 4 these are the closed
    quartics; above that the quartic head (evaluated at the same
    zero-count n - k) picks up one linear tail term per extra control
    level.
    """
    if not 0 <= k <= n:
        raise ValueError(f"weight {k} out of range for {n} qubits")
    k = min(k, n - k)
    if k == 0:
        return 0
    if complex_amplitudes:
        head = {
            1: lambda m: 2 * (m - 1),
            2: lambda m: (m - 2) * (3 * m - 1),
            3: lambda m: _exact_div((m - 3) * (7 * m * m - 12 * m + 2), 3),
            4: lambda m: _exact_div(
                (m - 4) * (19 * m**3 - 86 * m * m + 105 * m - 30), 12
            ),
        }
    else:
        head = {
            1: lambda m: 2 * (m - 1),
            2: lambda m: (m - 2) * (3 * m - 1),
            3: lambda m: _exact_div((m - 3) * (5 * m * m - 6 * m - 2), 3),
            4: lambda m: _exact_div(
                (m - 4) * (13 * m**3 - 58 * m * m + 79 * m - 42), 12
            ),
        }
    if k <= 4:
        return head[k](n)
    gap = n - k
    total = head[4](gap + 4)
    for ell in range(4, k):
        total += comb(gap + ell, ell + 1) * rbs_bound(ell, complex_amplitudes)
    return total


def count_dense(n: int, k: int, complex_amplitudes: bool = False) -> CnotBudget:
    """Budget for the full dense encoder at weight k, one row per control count.

    The census is the paper's, fixed by the walk: choose(n - (k - ell),
    ell + 1) mixing gates carry ell controls under ``walk_wires``. A built
    dense circuit takes the controls of ``walk_literals``, at most that
    many per gate, and every per-gate bound grows with the control count,
    so the total stays a ceiling. The row total equals the closed form for
    every n and k.
    """
    analytic = closed_form_dense(n, k, complex_amplitudes)
    kk = min(k, n - k)
    rows = tuple(
        BudgetRow(
            label=f"{ell} controls",
            gates=comb(n - (kk - ell), ell + 1),
            per_gate=rbs_bound(ell, complex_amplitudes),
        )
        for ell in range(kk)
    )
    total = sum(row.subtotal for row in rows)
    return CnotBudget(rows=rows, total=total, analytic_total=analytic)


def count_sparse(
    n: int, addresses, complex_amplitudes: bool = False
) -> CnotBudget:
    """Budget for a sparse address list, one row per mixing gate.

    The addresses and the wires of each gate are the encoder's own, so the
    rows price the gates ``encode_sparse`` emits. With complex amplitudes
    every row is priced complex, so the total bounds any phases.
    """
    walk = _check_addresses(addresses, n)
    rows = tuple(
        BudgetRow(
            label=f"{walk[j].bits} -> {walk[j + 1].bits}",
            gates=1,
            per_gate=_mixing_bound(len(ins), len(outs), len(ctrls), complex_amplitudes),
        )
        for j, (ins, outs, ctrls) in enumerate(walk_wires(walk))
    )
    return CnotBudget(rows=rows, total=sum(r.subtotal for r in rows))


def count_binary(n: int, complex_amplitudes: bool = False) -> CnotBudget:
    """Exact CNOT count of the full-basis encoder, one row per qubit.

    Qubit n - ell takes a Gray-code Ry stack of 2^ell CNOTs under the ell
    qubits above it (none for ell = 0), and with complex amplitudes an Rz
    stack as well: 2^n - 2 in all, or 2^(n+1) - 4. ``analytic_total`` is
    the paper's quartic-plus-tail figure for its weight-stacked real
    loader; the complex count has none.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rows = tuple(
        BudgetRow(
            label=f"qubit {n - ell}, {ell} controls",
            gates=2 if complex_amplitudes else 1,
            per_gate=(1 << ell) if ell else 0,
        )
        for ell in range(n)
    )
    analytic = None
    if not complex_amplitudes:
        poly = 13 * n**4 - 58 * n**3 + 119 * n**2 - 50 * n + 120
        analytic = _exact_div(poly, 12)
        for k in range(5, n + 1):
            analytic += comb(n, k) * (16 * k - 22) - 2

    return CnotBudget(
        rows=rows,
        total=sum(r.subtotal for r in rows),
        analytic_total=analytic,
    )
