"""Demo-target tests: deformed exponential, grid, end-to-end pipeline."""

import math

import numpy as np
import pytest

from hwenc.mitigation import CdrConfig
from hwenc.qgaussian import (
    DemoReport,
    QGaussianSpec,
    discretize_qgaussian,
    q_exponential,
    run_demo,
)


class TestQExponential:
    def test_plain_exponential_branch(self):
        assert q_exponential(0.0, 1.0) == 1.0
        assert abs(q_exponential(1.0, 1.0) - math.e) < 1e-15
        assert abs(q_exponential(-2.0, 1.0) - math.exp(-2.0)) < 1e-15

    def test_power_law_branch(self):
        # q = 3/2 at x = -8: bracket 1 + (-1/2)(-8) = 5, exponent -2
        assert abs(q_exponential(-8.0, 1.5) - 0.04) < 1e-15

    def test_vanishing_branch(self):
        assert q_exponential(-3.0, 0.5) == 0.0
        assert q_exponential(-2.0, 0.5) == 0.0

    def test_rejects_large_q(self):
        with pytest.raises(ValueError, match="below 3"):
            q_exponential(0.5, 3.0)
        with pytest.raises(ValueError, match="below 3"):
            q_exponential(0.5, 4.2)


class TestDiscretize:
    def test_default_grid_matches_closed_form(self):
        target = discretize_qgaussian()
        closed = (1.0 + target.grid**2) ** -2
        closed /= closed.sum()
        assert np.max(np.abs(target.probabilities - closed)) < 1e-12
        assert abs(target.probabilities.sum() - 1.0) < 1e-12
        assert np.allclose(target.amplitudes**2, target.probabilities)

    def test_symmetric_grid_gives_symmetric_mass(self):
        target = discretize_qgaussian()
        assert np.allclose(target.probabilities,
                           target.probabilities[::-1], atol=1e-15)

    def test_two_points(self):
        target = discretize_qgaussian(QGaussianSpec(points=2))
        assert np.allclose(target.probabilities, [0.5, 0.5])

    def test_gaussian_limit(self):
        spec = QGaussianSpec(q=1.0, beta=3.0, points=9)
        target = discretize_qgaussian(spec)
        want = np.exp(-3.0 * target.grid**2)
        want /= want.sum()
        assert np.max(np.abs(target.probabilities - want)) < 1e-12

    def test_compact_support_cutoff(self):
        # q < 1 gives bounded support; far outside it everything is zero
        spec = QGaussianSpec(q=0.5, beta=2.0, interval=(10.0, 11.0), points=5)
        with pytest.raises(ValueError, match="vanishes"):
            discretize_qgaussian(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="below 3"):
            QGaussianSpec(q=3.0)
        with pytest.raises(ValueError, match="positive"):
            QGaussianSpec(beta=0.0)
        with pytest.raises(ValueError, match="interval"):
            QGaussianSpec(interval=(2.0, -2.0))
        with pytest.raises(ValueError, match="two grid points"):
            QGaussianSpec(points=1)


class TestRunDemo:
    def test_noiseless_tracks_target(self):
        report = run_demo(shots=100_000, seed=4)
        assert isinstance(report, DemoReport)
        assert len(report.rows) == 15
        assert report.mean_rel_err_raw() < 0.05
        for row in report.rows:
            assert row.mitigated is None and row.band_low is None

    def test_deterministic(self):
        a = run_demo(shots=2000, p2=0.01, seed=11)
        b = run_demo(shots=2000, p2=0.01, seed=11)
        assert a == b

    def test_bootstrap_bands_without_mitigation(self):
        report = run_demo(shots=5000, seed=2, bootstrap=40)
        for row in report.rows:
            assert row.band_low is not None
            assert row.band_low <= row.raw <= row.band_high or (
                row.band_high - row.band_low < 0.02
            )

    def test_mitigated_run_structure(self):
        config = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=4)
        report = run_demo(shots=1500, p2=0.02, seed=8, config=config,
                          bootstrap=25)
        assert report.mitigated
        total = sum(r.mitigated for r in report.rows)
        assert abs(total - 1.0) < 1e-9
        assert report.mean_rel_err_mitigated() > 0.0
        for row in report.rows:
            assert row.band_low is not None
            assert row.rel_err_mitigated is not None

    def test_config_alone_turns_on_mitigation(self):
        config = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=2)
        report = run_demo(shots=1000, p2=0.01, seed=3, config=config)
        assert report.mitigated
        assert all(r.mitigated is not None for r in report.rows)

    def test_smaller_space_demo(self):
        spec = QGaussianSpec(points=6)
        report = run_demo(spec, n=4, k=2, shots=50_000, seed=1)
        assert len(report.rows) == 6
        assert report.mean_rel_err_raw() < 0.05
