"""Acceptance gate: one test per shipped claim, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION
lines as they happen. Every golden table is duplicated here on purpose
so this file stands alone; the unit suites freeze the same values.
"""

import time
from math import comb

import numpy as np

from hwenc.bitstrings import (
    BitString,
    EhrlichState,
    SequenceExhausted,
    ehrlich_sequence,
    gate_params,
    next_state,
    walk_states,
)
from hwenc.compiler import lower, phase_distance
from hwenc.counting import (
    closed_form_dense,
    count_binary,
    count_dense,
    count_sparse,
    grbs_bound,
    mcry_bound,
    rbs_bound,
)
from hwenc.encoders import (
    encode_binary,
    encode_binary_complex,
    encode_dense_complex,
    encode_dense_real,
    encode_sparse,
)
from hwenc.ir import (
    Circuit,
    circuit_unitary,
    gate_unitary,
    rbs,
    rw,
    ry,
    rz,
)
from hwenc.mitigation import CdrConfig
from hwenc.qgaussian import QGaussianSpec, discretize_qgaussian, q_exponential, run_demo
from hwenc.simulator import run


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# Hand-checked six-qubit weight-two walk: string plus marked positions.
GOLDEN_WALK_6_2 = (
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
)

# Wires of the fourteen mixing gates along that walk, qubit labels:
# (inputs, outputs, controls, untouched set after the gate).
GOLDEN_GATES_6_2 = (
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
)

# Frozen layout for the seven-address sparse example on six qubits.
GOLDEN_SPARSE_ADDRESSES = (
    "000111", "001011", "001110", "010011", "011010", "100101", "111010",
)
GOLDEN_SPARSE_GATES = (
    ("RBS", (3,), (4,), ()),
    ("RBS", (1,), (3,), (4,)),
    ("RBS", (3, 4), (1, 5), ()),
    ("RBS", (1,), (4,), (5,)),
    ("RBS", (2, 4, 5), (1, 3, 6), ()),
    ("RBS", (1, 3), (2, 4, 5), (6,)),
)
GOLDEN_SPARSE_ROWS = (2, 6, 30, 6, 66, 64)

# Frozen layout of the six-qubit full-basis circuit, derived by hand from
# the Gray code: per level, the rotated qubit and the controls of its
# stack's CNOTs in order. Step j's CNOT comes from control ctz(j + 1), the
# last step's from the top control.
GOLDEN_BINARY_LEVELS = (
    (6, ""),
    (5, "66"),
    (4, "5656"),
    (3, "45464546"),
    (2, "3435343634353436"),
    (1, "23242325232423262324232523242326"),
)


def stack_layout(gates) -> list[tuple[str, int, str]]:
    """(kind, target, CNOT controls) of each rotation stack in ``gates``.

    A stack is a run of rotations of one kind on one target, each but a
    lone one followed by a CNOT onto that target. A controlled rotation or
    a CNOT onto another wire shows as ``!``.
    """
    layout: list[list] = []
    for g in gates:
        if g.kind == "CNOT":
            ok = layout and g.target == layout[-1][1]
            layout[-1][2] += str(g.ctrls[0]) if ok else "!"
        elif g.ctrls or g.anti_ctrls:
            layout.append(["!", g.target, ""])
        elif not layout or layout[-1][:2] != [g.kind, g.target]:
            layout.append([g.kind, g.target, ""])
    return [tuple(stack) for stack in layout]


def _max_load_error(report, x) -> float:
    """Worst amplitude deviation of the built circuit from x normalised."""
    state = run(report.circuit)
    xn = np.asarray(x, dtype=complex)
    xn = xn / np.linalg.norm(xn)
    worst = 0.0
    for i, address in enumerate(report.ordering):
        worst = max(worst, abs(state.amplitude(address) - xn[i]))
    support = {address.to_index() for address in report.ordering}
    for index, amp in state.amps.items():
        if index not in support:
            worst = max(worst, abs(amp))
    return worst


def test_criterion_1_constant_weight_walk():
    t0 = time.perf_counter()
    states = list(walk_states(EhrlichState.start(6, 2), comb(6, 2)))
    ok = [(s.string.bits, set(s.marked)) for s in states] == [
        (bits, set(marks)) for bits, marks in GOLDEN_WALK_6_2
    ]
    ok = ok and [b.bits for b in ehrlich_sequence(6, 2)] == [
        bits for bits, _ in GOLDEN_WALK_6_2
    ]
    untouched = states[0].string.ones
    for (ins, outs, ctrls, after), b, b_next in zip(
        GOLDEN_GATES_6_2, states, states[1:]
    ):
        p = gate_params(b.string, b_next.string, untouched)
        ok = ok and (
            p.ins == frozenset(ins)
            and p.outs == frozenset(outs)
            and p.ctrls == frozenset(ctrls)
            and p.untouched == frozenset(after)
        )
        untouched = p.untouched
    try:
        next_state(states[-1])
        ok = False
    except SequenceExhausted:
        pass
    dt = time.perf_counter() - t0
    _verdict(
        1,
        ok and dt < 1.0,
        f"15 walk states and 14 gate wire sets match the frozen table ({dt:.3f}s)",
    )


def test_criterion_2_dense_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2020)
    pool = [
        (n, k)
        for n in range(2, 13)
        for k in range(1, n)
        if comb(n, k) <= 220
    ]
    heavy_real = [(12, 4), (12, 8), (11, 4), (11, 7)]
    heavy_complex = [(10, 3), (9, 5)]
    worst = 0.0
    mirrored = 0
    for trip in range(500):
        n, k = heavy_real[trip] if trip < len(heavy_real) else pool[
            rng.integers(len(pool))
        ]
        mirrored += k > n - k
        x = rng.normal(size=comb(n, k))
        worst = max(worst, _max_load_error(encode_dense_real(n, k, x), x))
    for trip in range(200):
        n, k = heavy_complex[trip] if trip < len(heavy_complex) else pool[
            rng.integers(len(pool))
        ]
        while comb(n, k) > 150:
            n, k = pool[rng.integers(len(pool))]
        mirrored += k > n - k
        z = rng.normal(size=comb(n, k)) + 1j * rng.normal(size=comb(n, k))
        worst = max(worst, _max_load_error(encode_dense_complex(n, k, z), z))
    dt = time.perf_counter() - t0
    _verdict(
        2,
        worst < 1e-10 and mirrored >= 25 and dt < 60.0,
        f"500 real + 200 complex trips, {mirrored} with k>n/2, "
        f"worst deviation {worst:.2e} ({dt:.1f}s)",
    )


def test_criterion_3_sparse_and_binary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3030)

    # frozen sparse layout, then its amplitudes
    vals = rng.normal(size=7)
    rep = encode_sparse(6, list(zip(vals, GOLDEN_SPARSE_ADDRESSES)))
    xs = [g.target for g in rep.circuit.gates if g.kind == "X"]
    mixers = [
        (g.kind, g.ins, g.outs, g.ctrls)
        for g in rep.circuit.gates
        if g.kind != "X"
    ]
    ok = xs == [3, 2, 1] and mixers == list(GOLDEN_SPARSE_GATES)
    worst = _max_load_error(rep, vals)

    # frozen full-basis layout, loaded in index order
    x_bin = rng.normal(size=64)
    rep_bin = encode_binary(6, x_bin)
    want = [("Ry", t, ctrls) for t, ctrls in GOLDEN_BINARY_LEVELS]
    ok = ok and stack_layout(rep_bin.circuit.gates) == want
    ok = ok and [b.to_index() for b in rep_bin.ordering] == list(range(64))
    worst = max(worst, _max_load_error(rep_bin, x_bin))

    # random sparse instances
    for trip in range(30):
        n = int(rng.integers(3, 11))
        s = int(rng.integers(1, min(20, 2**n) + 1))
        picks = rng.choice(2**n, size=s, replace=False)
        addresses = sorted(
            (BitString.from_index(n, int(i)) for i in picks),
            key=lambda b: (b.weight, b.bits),
        )
        if trip % 2:
            amps = rng.normal(size=s) + 1j * rng.normal(size=s)
        else:
            amps = rng.normal(size=s)
        rep = encode_sparse(n, list(zip(amps, addresses)))
        worst = max(worst, _max_load_error(rep, amps))

    # random full-basis instances
    for n in range(2, 9):
        x = rng.normal(size=2**n)
        worst = max(worst, _max_load_error(encode_binary(n, x), x))
    for n in range(2, 6):
        z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        worst = max(worst, _max_load_error(encode_binary_complex(n, z), z))

    dt = time.perf_counter() - t0
    _verdict(
        3,
        ok and worst < 1e-10 and dt < 60.0,
        f"frozen layouts match, worst load deviation {worst:.2e} ({dt:.1f}s)",
    )


def test_criterion_4_headline_budgets():
    t0 = time.perf_counter()
    dense = count_dense(6, 2)
    ok = dense.total == 68 and dense.analytic_total == 68

    sparse = count_sparse(6, GOLDEN_SPARSE_ADDRESSES, complex_amplitudes=False)
    mixing = [r.per_gate for r in sparse.rows]
    ok = ok and mixing == list(GOLDEN_SPARSE_ROWS) and sparse.total == 174

    full = count_binary(6)
    ok = ok and full.total == 62 and full.analytic_total == 1120

    ok = ok and [mcry_bound(ell) for ell in range(5)] == [0, 2, 4, 12, 36]
    ok = ok and all(mcry_bound(ell) == 16 * ell - 24 for ell in range(5, 9))
    ok = ok and [rbs_bound(ell) for ell in range(5)] == [2, 6, 10, 26, 58]
    ok = ok and all(rbs_bound(ell) == 16 * ell - 6 for ell in range(5, 9))
    ok = ok and [rbs_bound(ell, True) for ell in range(5)] == [2, 6, 14, 38, 84]
    ok = ok and all(rbs_bound(ell, True) == 20 * ell + 4 for ell in range(5, 9))
    for m in range(1, 4):
        for mp in range(1, 4):
            if m + mp < 3:
                continue
            for ell in range(6):
                ok = ok and grbs_bound(m, mp, ell) == 18 * (m + mp) + 16 * ell - 42
                ok = ok and grbs_bound(m, mp, ell, True) == 22 * (m + mp) + 20 * ell - 20

    dt = time.perf_counter() - t0
    _verdict(
        4,
        ok and dt < 1.0,
        f"68 / 174 / 62 (analytic 1120) and every frozen per-gate cell reproduced"
        f" ({dt:.3f}s)",
    )


def test_criterion_5_formula_consistency():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 17):
        for k in range(1, min(4, n // 2) + 1):
            for complex_amplitudes in (False, True):
                budget = count_dense(n, k, complex_amplitudes)
                closed = closed_form_dense(n, k, complex_amplitudes)
                ok = ok and budget.total == budget.analytic_total == closed

    # gate census along the walk telescopes to d - 1
    for n in range(1, 21):
        for k in range(0, n + 1):
            census = sum(comb(n - (k - ell), ell + 1) for ell in range(k))
            ok = ok and census == comb(n, k) - 1

    for n in range(1, 25):
        ok = ok and count_binary(n).analytic_total <= 8 * n * 2**n

    dt = time.perf_counter() - t0
    _verdict(
        5,
        ok and dt < 5.0,
        f"closed forms, census identity and 8n*2^n cap all hold ({dt:.2f}s)",
    )


def _random_gate(rng, kind):
    """One random gate on six qubits: a rotation kind, or one of four RBS
    shapes ("RBS" two-wire real, "RBS phased" two-wire, "RBS raise" with no
    in-wire and one or two out-wires, phased, and "RBS wide")."""
    theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    phi = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    labels = [int(v) for v in 1 + rng.permutation(6)]

    def split(wires, spare):
        nc = int(rng.integers(0, spare + 1))
        na = int(rng.integers(0, spare - nc + 1))
        return tuple(wires[:nc]), tuple(wires[nc:nc + na])

    if kind in ("Ry", "Rz", "Rw"):
        target, rest = labels[0], labels[1:]
        ctrls, antis = split(rest, 5)
        if kind == "Ry":
            return ry(theta, target, ctrls, antis)
        if kind == "Rz":
            return rz(phi, target, ctrls, antis)
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        return rw(theta, tuple(axis), target, ctrls, antis)
    if kind in ("RBS", "RBS phased"):
        a, b, rest = labels[0], labels[1], labels[2:]
        ctrls, antis = split(rest, 4)
        return rbs(theta, (a,), (b,), phi if kind == "RBS phased" else None,
                   ctrls, antis)
    if kind == "RBS raise":
        m, mp = 0, int(rng.integers(1, 3))
    else:
        m = int(rng.integers(1, 4))
        mp = int(rng.integers(max(1, 3 - m), 4))
        if rng.integers(2):
            phi = None
    ins, outs = labels[:m], labels[m:m + mp]
    rest = labels[m + mp:]
    ctrls, antis = split(rest, len(rest))
    return rbs(theta, ins, outs, phi, ctrls, antis)


def test_criterion_6_lowering_is_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6060)
    worst = 0.0
    kinds = ("Ry", "Rz", "Rw", "RBS raise", "RBS", "RBS phased", "RBS wide")
    for kind in kinds:
        for _ in range(100):
            gate = _random_gate(rng, kind)
            want = gate_unitary(gate, 6)
            low = lower(Circuit(n=6, gates=(gate,)))
            got = circuit_unitary(low.circuit)
            worst = max(worst, phase_distance(want, got))

    reports = [
        encode_dense_real(6, 2, rng.normal(size=15)),
        encode_dense_real(6, 4, rng.normal(size=15)),
        encode_dense_real(8, 2, rng.normal(size=28)),
        encode_dense_complex(5, 3, rng.normal(size=10) + 1j * rng.normal(size=10)),
        encode_sparse(
            7,
            [
                (complex(rng.normal(), rng.normal()), bits)
                for bits in ("0000011", "0001010", "0011001", "0110100", "1111000")
            ],
        ),
        encode_binary(5, rng.normal(size=32)),
        encode_binary_complex(4, rng.normal(size=16) + 1j * rng.normal(size=16)),
    ]
    for report in reports:
        want = circuit_unitary(report.circuit)
        got = circuit_unitary(lower(report.circuit).circuit)
        worst = max(worst, phase_distance(want, got))

    dt = time.perf_counter() - t0
    _verdict(
        6,
        worst < 1e-9 and dt < 120.0,
        f"700 gate draws + 7 encoder circuits, worst phase distance "
        f"{worst:.2e} ({dt:.1f}s)",
    )


def test_criterion_7_parameter_counts():
    rng = np.random.default_rng(7070)
    ok = True

    for n, k, d in [(6, 2, 15), (6, 2, 9), (7, 3, 20), (5, 4, 5), (8, 2, 28)]:
        ok = ok and encode_dense_real(n, k, rng.normal(size=d)).param_count == d - 1
    for n, k, d in [(4, 2, 6), (6, 2, 10), (5, 3, 10)]:
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        ok = ok and encode_dense_complex(n, k, z).param_count == 2 * d - 1

    ok = ok and (
        encode_sparse(
            6, list(zip(rng.normal(size=7), GOLDEN_SPARSE_ADDRESSES))
        ).param_count
        == 6
    )
    zs = rng.normal(size=7) + 1j * rng.normal(size=7)
    ok = ok and (
        encode_sparse(6, list(zip(zs, GOLDEN_SPARSE_ADDRESSES))).param_count == 13
    )
    ok = ok and encode_sparse(4, [(2.5, "0110")]).param_count == 0
    ok = ok and encode_sparse(3, [(1j, "101")]).param_count == 1

    for n in range(1, 7):
        ok = ok and encode_binary(n, rng.normal(size=2**n)).param_count == 2**n - 1
    for n in range(1, 5):
        z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        ok = ok and encode_binary_complex(n, z).param_count == 2 ** (n + 1) - 1

    _verdict(
        7,
        ok,
        "d-1 / 2d-1 dense, s-1 / 2s-1 sparse, 2^n-1 / 2^(n+1)-1 full-basis",
    )


def test_criterion_8_error_mitigation():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(10):
        report = run_demo(shots=10_000, p2=0.01, seed=seed, config=CdrConfig())
        wins += report.mean_rel_err_mitigated() < report.mean_rel_err_raw()

    clean = run_demo(
        shots=10_000,
        p2=0.0,
        seed=0,
        config=CdrConfig(),
    )
    target = discretize_qgaussian(QGaussianSpec()).probabilities
    # two mean per-point relative standard errors at 10^4 shots
    band = 2.0 * float(np.mean(np.sqrt((1.0 - target) / (target * 10_000))))
    quiet = (
        clean.mean_rel_err_raw() < band and clean.mean_rel_err_mitigated() < band
    )

    dt = time.perf_counter() - t0
    _verdict(
        8,
        wins >= 9 and quiet and dt < 600.0,
        f"{wins}/10 seeded runs improved by mitigation; noiseless errors "
        f"{clean.mean_rel_err_raw():.4f}/{clean.mean_rel_err_mitigated():.4f} "
        f"within shot-noise band {band:.4f} ({dt:.0f}s)",
    )


def test_criterion_9_demo_target():
    t0 = time.perf_counter()
    spec = QGaussianSpec()
    disc = discretize_qgaussian(spec)

    closed = (1.0 + disc.grid**2) ** -2.0
    closed = closed / closed.sum()
    ok = float(np.max(np.abs(disc.probabilities - closed))) < 1e-12
    ok = ok and abs(q_exponential(-8.0, 1.5) - 0.04) < 1e-15

    report = encode_dense_real(6, 2, disc.amplitudes)
    worst = 0.0
    for circuit in (report.circuit, lower(report.circuit).circuit):
        state = run(circuit)
        probs = np.array(
            [abs(state.amplitude(b)) ** 2 for b in report.ordering]
        )
        worst = max(worst, float(np.max(np.abs(probs - disc.probabilities))))

    dt = time.perf_counter() - t0
    _verdict(
        9,
        ok and worst < 1e-10 and dt < 1.0,
        f"density matches the closed form; end-to-end probabilities off by "
        f"{worst:.2e} ({dt:.3f}s)",
    )
