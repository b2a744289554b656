"""Angle extraction against hand-computed values and round trips."""

import numpy as np
import pytest

from hwenc.coordinates import (
    angles_from_complex,
    angles_from_real,
    complex_from_angles,
    real_from_angles,
)


class TestRealAngles:
    def test_two_components(self):
        assert angles_from_real([1.0, 1.0]) == pytest.approx([np.pi / 4])
        assert angles_from_real([0.0, 1.0]) == pytest.approx([np.pi / 2])
        assert angles_from_real([1.0, 0.0]) == pytest.approx([0.0])
        assert angles_from_real([-1.0, 0.0]) == pytest.approx([np.pi])

    def test_uniform_three(self):
        thetas = angles_from_real([1.0, 1.0, 1.0])
        assert thetas == pytest.approx([np.arctan2(np.sqrt(2), 1), np.pi / 4])

    def test_degenerate_tail_is_zero_angle(self):
        assert angles_from_real([1.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0])
        assert angles_from_real([0.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0])
        # negative zero must not flip to pi
        assert angles_from_real([-0.0, 0.0]) == pytest.approx([0.0])

    def test_single_component(self):
        assert angles_from_real([3.0]).size == 0

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 30))
            x = rng.normal(size=d)
            if rng.random() < 0.4:
                x[rng.random(d) < 0.5] = 0.0
            thetas = angles_from_real(x)
            back = real_from_angles(thetas, norm=float(np.linalg.norm(x)))
            np.testing.assert_allclose(back, x, atol=1e-12)

    def test_round_trip_trailing_zeros(self):
        x = np.array([0.5, -2.0, 0.0, 0.0])
        back = real_from_angles(angles_from_real(x), norm=float(np.linalg.norm(x)))
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            angles_from_real(np.ones((2, 2)))


class TestComplexAngles:
    def test_phase_accumulation(self):
        x = np.array([1.0, 1j, -1.0])
        thetas, phis = angles_from_complex(x)
        # backwards from psi_2 = arg x_2 = pi: psi_1 = (pi + pi/2) / 2,
        # phi_1 = pi/2 - psi_1, psi_0 = psi_1 / 2 and phi_0 = -psi_0
        assert phis == pytest.approx([3 * np.pi / 8, -3 * np.pi / 8, -np.pi / 4])
        # forwards, each slot keeps psi_j + phi_j and passes psi_j - phi_j on
        psi = phis[0]
        for j, raw in enumerate([0.0, np.pi / 2]):
            assert psi + phis[j + 1] == pytest.approx(raw, abs=1e-12)
            psi -= phis[j + 1]
        assert psi == pytest.approx(np.pi, abs=1e-12)
        assert thetas == pytest.approx(angles_from_real([1.0, 1.0, 1.0]))

    def test_phases_stay_bounded(self):
        # the unreduced recursion doubles per step; a long vector would
        # push phases past 2^190 and shred the fractional part
        rng = np.random.default_rng(12)
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        thetas, phis = angles_from_complex(x)
        assert np.max(np.abs(phis)) <= np.pi
        back = complex_from_angles(thetas, phis, norm=float(np.linalg.norm(x)))
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_zero_entry_has_zero_argument(self):
        # a zero entry's argument is 0, as for any positive real entry
        _, phis = angles_from_complex([1.0, 0.0, 1j])
        _, positive = angles_from_complex([1.0, 0.5, 1j])
        np.testing.assert_array_equal(phis, positive)
        assert phis == pytest.approx([np.pi / 8, -np.pi / 8, -np.pi / 4])

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 25))
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            if rng.random() < 0.3 and d > 1:
                x[rng.random(d) < 0.4] = 0.0
            thetas, phis = angles_from_complex(x)
            back = complex_from_angles(thetas, phis, norm=float(np.linalg.norm(x)))
            np.testing.assert_allclose(back, x, atol=1e-12)

    def test_single_component(self):
        thetas, phis = angles_from_complex([1j])
        assert thetas.size == 0
        assert phis == pytest.approx([np.pi / 2])
        np.testing.assert_allclose(complex_from_angles(thetas, phis), [1j], atol=1e-15)

    def test_phase_count_mismatch(self):
        with pytest.raises(ValueError):
            complex_from_angles([0.1], [0.2, 0.3, 0.4])
