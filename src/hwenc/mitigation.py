"""Error mitigation by regression on near-Clifford proxy circuits.

The flow: swap rotation gates of the compiled circuit for random
single-qubit Cliffords to get proxy circuits that a classical simulator
can evaluate exactly, run each proxy both exactly and under the noise
model, fit one line per tracked basis state through the resulting
(noisy, noiseless) point cloud, and apply that line to the noisy
measurement of the original circuit.  Bootstrap resampling of the raw
counts provides uncertainty bands for reports.

The noise model is the channel and ``CdrConfig`` the ensemble's shape;
each call takes its shot count and seed, and ``mitigate_circuit`` derives
all of its random streams from its one seed.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hwenc.compiler import axis_angle
from hwenc.ir import Circuit, Gate, rw
from hwenc.simulator import NoiseModel, _basis_index, _noisy_runs

ROTATION_KINDS = frozenset({"Ry", "Rz", "Rw"})

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    flat = u.reshape(-1)
    lead = flat[int(np.flatnonzero(np.abs(flat) > 1e-9)[0])]
    return u * (abs(lead) / lead)


def _group_key(u: np.ndarray) -> tuple:
    # +0.0 folds -0.0 so the key is stable under sign-of-zero noise
    return tuple((np.round(u.reshape(-1), 9) + 0.0).view(float))


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """All 24 single-qubit Cliffords up to phase, in a fixed order.

    Generated by closing {I, H, S} under left multiplication by H and S,
    with each product phase-normalized so the first nonzero entry is real
    positive, then sorted by entries for a deterministic ordering.
    """
    found = {}
    frontier = [_phase_canonical(m) for m in (np.eye(2, dtype=complex), _H, _S)]
    for m in frontier:
        found[_group_key(m)] = m
    while frontier:
        step = []
        for m in frontier:
            for g in (_H, _S):
                v = _phase_canonical(g @ m)
                k = _group_key(v)
                if k not in found:
                    found[k] = v
                    step.append(v)
        frontier = step
    mats = tuple(found[k] for k in sorted(found))
    assert len(mats) == 24
    for m in mats:
        m.setflags(write=False)
    return mats


@lru_cache(maxsize=4096)
def _clifford_gate(index: int, wire: int) -> Gate:
    """Clifford ``index`` of ``single_qubit_cliffords()`` on ``wire``, as a
    rotation about its own axis; gates are frozen, so each is built once."""
    return rw(*axis_angle(single_qubit_cliffords()[index]), wire)


@dataclass(frozen=True)
class CdrConfig:
    """Ensemble shape for the regression: replacement rates, draws per rate.

    The one copy of the default ensemble.  A line needs two proxies or more.
    """

    replacement_rates: tuple[float, ...] = (0.79, 0.83, 0.90, 0.95, 1.00)
    circuits_per_rate: int = 50

    def __post_init__(self):
        object.__setattr__(
            self, "replacement_rates", tuple(self.replacement_rates)
        )
        for r in self.replacement_rates:
            if not 0.0 < r <= 1.0:
                raise ValueError(f"replacement rate {r} outside (0, 1]")
        if self.circuits_per_rate < 1:
            raise ValueError("need at least one circuit per rate")
        if len(self.replacement_rates) * self.circuits_per_rate < 2:
            raise ValueError("a line needs at least two proxy circuits")


@dataclass(frozen=True)
class RegressionFit:
    """One least-squares line from noisy to noiseless values."""

    slope: float
    intercept: float
    degenerate: bool = False

    def apply(self, value: float) -> float:
        return self.slope * value + self.intercept


@dataclass(frozen=True)
class MitigationReport:
    """Per-observable outcome of one mitigated circuit run."""

    observables: tuple
    target: dict
    raw: dict
    mitigated: dict
    fits: dict
    bands: dict | None = None


def rotation_positions(circuit: Circuit) -> list[int]:
    """Gate indices eligible for Clifford replacement, all uncontrolled."""
    if circuit.level != "cnot":
        raise ValueError("noisy runs need a cnot-level circuit; lower the circuit first")
    return [i for i, g in enumerate(circuit.gates) if g.kind in ROTATION_KINDS]


def near_clifford_ensemble(circuit: Circuit, config: CdrConfig,
                           seed: int) -> list[Circuit]:
    """Proxy circuits with rotations swapped for random Cliffords.

    For each rate r the ensemble holds circuits_per_rate draws; each draw
    picks ceil(r * #rotations) rotation positions uniformly without
    replacement and puts an independent uniform Clifford (as a rotation
    about its own axis) on each chosen wire.  Deterministic given ``seed``.
    """
    positions = rotation_positions(circuit)
    if not positions:
        raise ValueError("circuit has no rotation gates to replace")
    rng = np.random.default_rng(seed)
    ensemble = []
    for rate in config.replacement_rates:
        count = math.ceil(rate * len(positions))
        for _ in range(config.circuits_per_rate):
            chosen = rng.choice(len(positions), size=count, replace=False)
            gates = list(circuit.gates)
            for c in chosen:
                pos = positions[int(c)]
                gates[pos] = _clifford_gate(int(rng.integers(24)), circuit.gates[pos].target)
            ensemble.append(Circuit(circuit.n, gates, level="cnot"))
    return ensemble


def _observable_indices(keys, n: int) -> list[int]:
    """The basis index of each observable, as ``simulator._basis_index`` reads it.

    Two observables that read to one index would share one slot, so they
    raise ValueError naming both.
    """
    named: dict[int, object] = {}
    for k in keys:
        i = _basis_index(k, n, "observable")
        if i in named:
            raise ValueError(f"observables {named[i]!r} and {k!r} are both basis state {i}")
        named[i] = k
    return list(named)


def build_training_set(ensemble, noise: NoiseModel, shots: int,
                       observables, seed: int) -> dict:
    """(noisy, noiseless) probability pairs per tracked basis state.

    Noiseless values come from exact simulation, noisy ones from sampled
    runs of ``shots`` shots each, with per-circuit seeds drawn from
    ``seed`` in ensemble order.  Observables are basis states of the
    proxies' one width as ``simulator._basis_index`` reads them, no two the
    same state.  Returns {observable: array of shape (len(ensemble), 2)}
    with columns (noisy, noiseless).

    The proxies run together through the simulator's noisy kernel, each
    drawing its counts from its own seed as a lone noisy run would: up to 9
    qubits in density stacks of bounded size, wider one trajectory run at a
    time.  They are CNOT-level, take at least one shot and share one
    skeleton: a proxy that differs from proxy 0 in width, or in the kind
    and wires of any gate position, raises ValueError naming the proxy and
    the position.
    """
    if not ensemble:
        raise ValueError("need at least one proxy circuit")
    keys = list(observables)
    indices = _observable_indices(keys, ensemble[0].n)
    pairs, _ = _run_pairs(ensemble, noise, shots, indices, _proxy_seeds(ensemble, seed))
    return dict(zip(keys, pairs))


def _proxy_seeds(ensemble, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(rng.integers(2**63)) for _ in ensemble]


def _run_pairs(circuits, noise: NoiseModel, shots: int, indices,
               seeds) -> tuple[np.ndarray, np.ndarray]:
    """(noisy, noiseless) probabilities at each index, shaped (index, circuit,
    2), from one batch of noisy runs, and circuit 0's counts at every index."""
    pairs = np.zeros((len(indices), len(circuits), 2))
    for j, (counts, amps) in enumerate(_noisy_runs(circuits, noise, shots, seeds)):
        pairs[:, j, 0] = counts[indices] / shots
        pairs[:, j, 1] = (np.abs(amps) ** 2)[indices]
        if not j:
            first = counts
    return pairs, first


def fit_pairs(pairs) -> RegressionFit:
    """Ordinary least squares through (noisy, noiseless) points.

    Zero variance in the noisy column cannot pin a slope; that case falls
    back to the identity line and is flagged.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (noisy, noiseless) pairs")
    if np.ptp(arr[:, 0]) < 1e-12:
        return RegressionFit(1.0, 0.0, degenerate=True)
    slope, intercept = np.polyfit(arr[:, 0], arr[:, 1], 1)
    return RegressionFit(float(slope), float(intercept))


def fit_and_mitigate(training: dict, raw: dict) -> tuple[dict, dict]:
    """Per-observable lines applied to the raw noisy values.

    Each mitigated value is clamped to [0, 1]; the clamped vector is then
    renormalized to unit total.  Returns (mitigated, fits) dicts keyed
    like ``raw``.
    """
    fits = {k: fit_pairs(p) for k, p in training.items()}
    clamped = {}
    for k, value in raw.items():
        clamped[k] = min(1.0, max(0.0, fits[k].apply(value)))
    total = sum(clamped.values())
    if total <= 0.0:
        raise ArithmeticError("every mitigated probability clamped to zero")
    return {k: v / total for k, v in clamped.items()}, fits


def bootstrap_bands(counts: dict, resamples: int, seed: int,
                    observables=None) -> dict:
    """5th/95th percentile bands from resampled measurement counts.

    Resamples the empirical distribution with replacement ``resamples``
    times at the original shot total.  Mass on outcomes outside the
    tracked observables is kept in a spill bucket so the marginals stay
    faithful.  Counts are keyed by BitString or bitstring, and observables
    are basis states of the same width as ``simulator._basis_index`` reads
    them, no two the same state.
    """
    if resamples < 2:
        raise ValueError("need at least two bootstrap resamples")
    shots = sum(counts.values())
    if shots < 1:
        raise ValueError("need at least one shot")
    keys = (sorted(counts, key=str) if observables is None
            else list(observables))
    n = len(str(next(iter(counts))))
    tracked = {idx: i for i, idx in enumerate(_observable_indices(keys, n))}
    p = np.zeros(len(keys) + 1)
    for b, c in counts.items():
        i = tracked.get(_basis_index(b, n, "outcome"))
        if i is None:
            p[-1] += c
        else:
            p[i] += c
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p / shots, size=resamples) / shots
    lo = np.percentile(draws, 5, axis=0)
    hi = np.percentile(draws, 95, axis=0)
    return {k: (float(lo[i]), float(hi[i])) for i, k in enumerate(keys)}


def mitigate_circuit(circuit: Circuit, observables, noise: NoiseModel,
                     config: CdrConfig, *, shots: int, seed: int,
                     bootstrap: int = 0) -> MitigationReport:
    """Full regression-mitigation pass over one compiled circuit.

    The circuit runs as row 0 of a fresh proxy ensemble's batch, under the
    batch's one check; that row's amplitudes give the target and its counts
    the raw frequencies, with optional bootstrap bands.  Every row runs
    ``shots`` shots, and all randomness derives from ``seed``.
    """
    keys = list(observables)
    indices = _observable_indices(keys, circuit.n)
    s_raw, s_ens, s_noise, s_boot = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4)
    )
    ensemble = near_clifford_ensemble(circuit, config, s_ens)
    seeds = [s_raw] + _proxy_seeds(ensemble, s_noise)
    pairs, counts = _run_pairs([circuit] + ensemble, noise, shots, indices, seeds)
    target = dict(zip(keys, pairs[:, 0, 1].tolist()))
    raw = dict(zip(keys, pairs[:, 0, 0].tolist()))
    mitigated, fits = fit_and_mitigate(dict(zip(keys, pairs[:, 1:])), raw)
    bands = (bootstrap_bands({format(i, f"0{circuit.n}b"): int(counts[i])
                              for i in np.flatnonzero(counts)}, bootstrap, s_boot, keys)
             if bootstrap else None)
    return MitigationReport(
        observables=tuple(keys), target=target, raw=raw,
        mitigated=mitigated, fits=fits, bands=bands,
    )


def mean_relative_error(values: dict, target: dict) -> float:
    """Mean of |value - target| / target over observables with mass."""
    errs = [
        abs(values[k] - t) / t for k, t in target.items() if t > 0.0
    ]
    if not errs:
        raise ValueError("no observable carries target mass")
    return float(np.mean(errs))
