"""Heavy-tailed demo target and the measurement demo built on it.

The demo distribution is a q-Gaussian: density proportional to
e_q(-beta x^2) with the q-exponential's piecewise definition.  It is not
log-concave in general, which is exactly why it makes a good stress
target for amplitude loading.  The default parameters (q = 3/2, beta = 2)
reduce to density proportional to (1 + x^2)^-2 on the grid.

run_demo wires the whole pipeline: discretize, encode at fixed weight,
compile, measure under optional noise, regress the errors away when given
an ensemble shape, and emit one report row per grid point.
"""

import math
from dataclasses import dataclass

import numpy as np

from hwenc.compiler import lower
from hwenc.encoders import encode_dense_real
from hwenc.mitigation import (
    CdrConfig,
    bootstrap_bands,
    mean_relative_error,
    mitigate_circuit,
)
from hwenc.simulator import NoiseModel, run_noisy


@dataclass(frozen=True)
class QGaussianSpec:
    """Grid and shape parameters for the demo density."""

    q: float = 1.5
    beta: float = 2.0
    interval: tuple[float, float] = (-2.0, 2.0)
    points: int = 15

    def __post_init__(self):
        if not self.q < 3.0:
            raise ValueError(f"q must be below 3, got {self.q}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        if self.points < 2:
            raise ValueError("need at least two grid points")


@dataclass(frozen=True)
class DiscretizedTarget:
    """Normalized probabilities and their amplitudes on the grid."""

    grid: np.ndarray
    probabilities: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class DemoRow:
    """One grid point of the demo report."""

    bits: str
    x: float
    target: float
    raw: float
    mitigated: float | None
    band_low: float | None
    band_high: float | None
    rel_err_raw: float | None
    rel_err_mitigated: float | None


@dataclass(frozen=True)
class DemoReport:
    rows: tuple[DemoRow, ...]
    seed: int
    shots: int
    p2: float
    mitigated: bool

    def mean_rel_err_raw(self) -> float:
        return mean_relative_error({r.bits: r.raw for r in self.rows},
                                   {r.bits: r.target for r in self.rows})

    def mean_rel_err_mitigated(self) -> float:
        if not self.mitigated:
            raise ValueError("the report was not mitigated")
        return mean_relative_error({r.bits: r.mitigated for r in self.rows},
                                   {r.bits: r.target for r in self.rows})


def q_exponential(x: float, q: float) -> float:
    """e_q(x): plain exponential at q = 1, else the deformed power law.

    [1 + (1-q)x]^{1/(1-q)} where the bracket is positive, 0 otherwise.
    """
    if not q < 3.0:
        raise ValueError(f"q must be below 3, got {q}")
    if q == 1.0:
        return math.exp(x)
    base = 1.0 + (1.0 - q) * x
    if base <= 0.0:
        return 0.0
    return base ** (1.0 / (1.0 - q))


def discretize_qgaussian(spec: QGaussianSpec = QGaussianSpec()) -> DiscretizedTarget:
    """Evaluate e_q(-beta x^2) on the grid and normalize to unit mass."""
    lo, hi = spec.interval
    grid = np.linspace(lo, hi, spec.points)
    dens = np.array([q_exponential(-spec.beta * x * x, spec.q) for x in grid])
    total = dens.sum()
    if total <= 0.0:
        raise ValueError("density vanishes on the whole grid")
    probs = dens / total
    return DiscretizedTarget(grid=grid, probabilities=probs,
                             amplitudes=np.sqrt(probs))


def run_demo(spec: QGaussianSpec = QGaussianSpec(), *, n: int = 6, k: int = 2,
             shots: int = 10_000, p2: float = 0.0, seed: int = 0,
             config: CdrConfig | None = None,
             bootstrap: int = 0) -> DemoReport:
    """Encode the discretized density, measure it, mitigate given a config.

    The raw column holds measured frequencies of the compiled circuit
    under a depolarizing-style noise of strength p2 (exact sampling when
    p2 = 0).  Given a ``config``, the regression pipeline trains on that
    ensemble shape and supplies the mitigated column; ``None`` runs no
    mitigation.  With ``bootstrap`` > 0 the raw frequencies get
    percentile bands.  Every run takes ``shots`` shots, and the whole
    report is deterministic given ``seed``.
    """
    target = discretize_qgaussian(spec)
    report = encode_dense_real(n, k, target.amplitudes)
    compiled = lower(report.circuit).circuit
    ordering = list(report.ordering)
    noise = NoiseModel(p2)

    bands = None
    mitigated = None
    if config is not None:
        outcome = mitigate_circuit(compiled, ordering, noise, config,
                                   shots=shots, seed=seed, bootstrap=bootstrap)
        raw = outcome.raw
        mitigated = outcome.mitigated
        bands = outcome.bands
    else:
        s_run, s_boot = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(2)
        )
        counts = run_noisy(compiled, noise, shots, seed=s_run)
        raw = {b: counts.get(b, 0) / shots for b in ordering}
        if bootstrap:
            bands = bootstrap_bands(counts, bootstrap, s_boot, ordering)

    rows = []
    for i, b in enumerate(ordering):
        t = float(target.probabilities[i])
        r = raw[b]
        m = mitigated[b] if mitigated is not None else None
        low, high = bands[b] if bands is not None else (None, None)
        rows.append(DemoRow(
            bits=b.bits, x=float(target.grid[i]), target=t, raw=r,
            mitigated=m, band_low=low, band_high=high,
            rel_err_raw=abs(r - t) / t if t > 0 else None,
            rel_err_mitigated=(abs(m - t) / t if m is not None and t > 0
                               else None),
        ))
    return DemoReport(rows=tuple(rows), seed=seed, shots=shots, p2=p2,
                      mitigated=config is not None)
