"""Mitigation tests: Clifford pool, ensembles, regression, bootstrap."""

import math
import re

import numpy as np
import pytest

from hwenc.bitstrings import BitString
from hwenc.compiler import axis_angle, lower
from hwenc.encoders import encode_dense_real
from hwenc.ir import Circuit, cnot, rbs, rw, ry, rz, x_gate
from hwenc.mitigation import (
    CdrConfig,
    bootstrap_bands,
    build_training_set,
    fit_and_mitigate,
    fit_pairs,
    mean_relative_error,
    mitigate_circuit,
    near_clifford_ensemble,
    rotation_positions,
    single_qubit_cliffords,
)
from hwenc.qgaussian import discretize_qgaussian
from hwenc.simulator import NoiseModel, dense_run, run_noisy

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)


def equal_up_to_phase(a, b) -> bool:
    inner = np.trace(a.conj().T @ b)
    return abs(abs(inner) - 2.0) < 1e-9


def small_lowered(seed=0):
    rng = np.random.default_rng(seed)
    rep = encode_dense_real(4, 2, rng.normal(size=6))
    return lower(rep.circuit).circuit, list(rep.ordering)


class TestCliffordPool:
    def test_twenty_four_unitaries(self):
        mats = single_qubit_cliffords()
        assert len(mats) == 24
        for m in mats:
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_pairwise_distinct_up_to_phase(self):
        mats = single_qubit_cliffords()
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert not equal_up_to_phase(a, b)

    def test_contains_generators(self):
        mats = single_qubit_cliffords()
        for want in (np.eye(2, dtype=complex), _H, _S, _H @ _S):
            assert any(equal_up_to_phase(m, want) for m in mats)

    def test_closed_under_product(self):
        mats = single_qubit_cliffords()
        for a in mats[:6]:
            for b in mats:
                prod = a @ b
                assert any(equal_up_to_phase(m, prod) for m in mats)

    def test_stable_order(self):
        first = [m.copy() for m in single_qubit_cliffords()]
        single_qubit_cliffords.cache_clear()
        again = single_qubit_cliffords()
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


class TestEnsemble:
    def test_shape_and_determinism(self):
        circuit, _ = small_lowered()
        cfg = CdrConfig(replacement_rates=(0.5, 1.0), circuits_per_rate=3)
        ens = near_clifford_ensemble(circuit, cfg, seed=9)
        assert len(ens) == 6
        again = near_clifford_ensemble(circuit, cfg, seed=9)
        assert all(a.gates == b.gates for a, b in zip(ens, again))

    def test_replacement_counts_follow_ceiling(self):
        circuit, _ = small_lowered()
        total = len(rotation_positions(circuit))
        cfg = CdrConfig(replacement_rates=(0.5, 1.0), circuits_per_rate=4)
        for i, proxy in enumerate(near_clifford_ensemble(circuit, cfg, seed=9)):
            swapped = sum(
                1 for a, b in zip(circuit.gates, proxy.gates) if a != b
            )
            rate = (0.5, 1.0)[i // 4]
            assert swapped == math.ceil(rate * total)
            for a, b in zip(circuit.gates, proxy.gates):
                if a != b:
                    assert b.kind == "Rw" and b.target == a.target
                else:
                    assert a == b

    def test_clifford_gates_built_once(self):
        # the same draws as one fresh Rw per replaced position, with one gate
        # object per (Clifford, wire) shared across the ensemble
        circuit, _ = small_lowered()
        cfg = CdrConfig(replacement_rates=(0.5, 1.0), circuits_per_rate=6)
        ens = near_clifford_ensemble(circuit, cfg, seed=11)
        positions = rotation_positions(circuit)
        pool = [axis_angle(m) for m in single_qubit_cliffords()]
        rng = np.random.default_rng(11)
        shared = {}
        for i, proxy in enumerate(ens):
            count = math.ceil((0.5, 1.0)[i // 6] * len(positions))
            want = list(circuit.gates)
            for c in rng.choice(len(positions), size=count, replace=False):
                pos = positions[int(c)]
                lam, axis = pool[int(rng.integers(24))]
                want[pos] = rw(lam, axis, circuit.gates[pos].target)
            assert list(proxy.gates) == want
            for a, b in zip(circuit.gates, proxy.gates):
                if a is not b:
                    assert shared.setdefault((b.theta, b.axis, b.target), b) is b

    def test_ceiling_floor_is_one(self):
        circuit = lower(Circuit(1, [ry(0.3, 1)])).circuit
        cfg = CdrConfig(replacement_rates=(0.01,), circuits_per_rate=2)
        for proxy in near_clifford_ensemble(circuit, cfg, seed=1):
            assert proxy.gates != circuit.gates

    def test_full_rate_circuits_are_stabilizer_flat(self):
        circuit, _ = small_lowered()
        cfg = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=10)
        for proxy in near_clifford_ensemble(circuit, cfg, seed=4):
            p = np.abs(dense_run(proxy)) ** 2
            support = p[p > 1e-9]
            assert len(support) & (len(support) - 1) == 0
            assert np.allclose(support, 1.0 / len(support), atol=1e-9)

    def test_rejects_rotation_free_circuit(self):
        bare = Circuit(2, [], level="cnot")
        with pytest.raises(ValueError, match="no rotation gates"):
            near_clifford_ensemble(bare, CdrConfig(), seed=0)

    def test_rejects_controlled_rotations(self):
        logical = Circuit(2, [ry(0.3, 1, ctrls=(2,))])
        with pytest.raises(ValueError, match="lower the circuit first"):
            rotation_positions(logical)

    def test_rejects_uncontrolled_logical_circuit(self):
        # every rotation is uncontrolled, but the mixing gate has no noisy run
        logical = Circuit(2, [ry(0.3, 1), rbs(0.2, (1,), (2,))])
        with pytest.raises(ValueError, match="lower the circuit first"):
            near_clifford_ensemble(logical, CdrConfig(), seed=0)

    def test_unfittable_ensemble_rejected(self):
        # fewer than two proxies in all cannot pin a line; two can
        for rates, per_rate in (((1.0,), 1), ((), 50)):
            with pytest.raises(ValueError, match="at least two proxy"):
                CdrConfig(replacement_rates=rates, circuits_per_rate=per_rate)
        CdrConfig(replacement_rates=(1.0,), circuits_per_rate=2)
        CdrConfig(replacement_rates=(0.5, 1.0), circuits_per_rate=1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="outside"):
            CdrConfig(replacement_rates=(0.0,))
        with pytest.raises(ValueError, match="outside"):
            CdrConfig(replacement_rates=(1.2,))
        with pytest.raises(ValueError, match="per rate"):
            CdrConfig(circuits_per_rate=0)
        circuit, ordering = small_lowered()
        with pytest.raises(ValueError, match="need at least one shot"):
            mitigate_circuit(circuit, ordering, NoiseModel(0.01), CdrConfig(),
                             shots=0, seed=0)


class TestRegression:
    def test_recovers_constructed_line(self):
        x = np.linspace(0.05, 0.9, 12)
        fit = fit_pairs(np.column_stack([x, 2.0 * x - 0.1]))
        assert abs(fit.slope - 2.0) < 1e-10
        assert abs(fit.intercept + 0.1) < 1e-10
        assert not fit.degenerate

    def test_diagonal_pairs_leave_raw_alone(self):
        pairs = [(0.1, 0.1), (0.2, 0.2), (0.4, 0.4)]
        training = {"a": pairs, "b": pairs}
        raw = {"a": 0.25, "b": 0.75}
        mitigated, fits = fit_and_mitigate(training, raw)
        assert abs(mitigated["a"] - 0.25) < 1e-9
        assert abs(mitigated["b"] - 0.75) < 1e-9
        assert not fits["a"].degenerate

    def test_degenerate_variance_falls_back_to_identity(self):
        fit = fit_pairs([(0.3, 0.1), (0.3, 0.5), (0.3, 0.9)])
        assert fit.degenerate
        assert fit.slope == 1.0 and fit.intercept == 0.0

    def test_clamping_and_renormalization(self):
        x = np.linspace(0.05, 0.9, 8)
        line = np.column_stack([x, 2.0 * x - 0.1])
        mitigated, _ = fit_and_mitigate(
            {"hot": line, "cold": line}, {"hot": 0.9, "cold": 0.02}
        )
        # 2*0.9-0.1 clamps to 1, 2*0.02-0.1 clamps to 0, then renormalize
        assert mitigated["hot"] == 1.0
        assert mitigated["cold"] == 0.0

    def test_all_clamped_to_zero_raises(self):
        x = np.linspace(0.05, 0.9, 8)
        line = np.column_stack([x, 2.0 * x - 0.1])
        with pytest.raises(ArithmeticError, match="clamped to zero"):
            fit_and_mitigate({"only": line}, {"only": 0.01})

    def test_rejects_thin_input(self):
        with pytest.raises(ValueError, match="at least two"):
            fit_pairs([(0.1, 0.1)])

    def test_mean_relative_error(self):
        target = {"a": 0.5, "b": 0.25, "c": 0.0}
        values = {"a": 0.55, "b": 0.2, "c": 0.9}
        # the massless observable is skipped
        want = (0.05 / 0.5 + 0.05 / 0.25) / 2
        assert abs(mean_relative_error(values, target) - want) < 1e-12
        with pytest.raises(ValueError, match="mass"):
            mean_relative_error({"a": 1.0}, {"a": 0.0})


class TestObservableReferences:
    @pytest.fixture(scope="class")
    def ensemble(self):
        circuit, _ = small_lowered()
        cfg = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=2)
        return near_clifford_ensemble(circuit, cfg, seed=4)

    @pytest.mark.parametrize("obs", [1.9, True, "011", 16])
    def test_non_basis_states_rejected(self, ensemble, obs):
        with pytest.raises(ValueError, match="observable"):
            build_training_set(ensemble, NoiseModel(0.01), 100, [obs], seed=1)
        with pytest.raises(ValueError, match="observable"):
            bootstrap_bands({"0011": 7, "0101": 3}, 10, 1, observables=[obs])

    def test_every_reference_form_reads_the_same_state(self, ensemble):
        b = BitString("0011")
        noise = NoiseModel(0.01)
        pairs = build_training_set(ensemble, noise, 100, [b], seed=1)[b]
        counts = {"0011": 7, "0101": 3}
        bands = bootstrap_bands(counts, 10, 1, observables=[b])[b]
        for ref in [b, "0011", 3, np.int64(3)]:
            got = build_training_set(ensemble, noise, 100, [ref], seed=1)[ref]
            np.testing.assert_array_equal(got, pairs)
            assert bootstrap_bands(counts, 10, 1, observables=[ref])[ref] == bands

    def test_one_state_named_twice_rejected(self, ensemble):
        # one slot per basis state would leave all but the last name at zero
        twice = [BitString("0011"), "0011", 3]
        with pytest.raises(ValueError, match=re.escape("BitString(bits='0011') and '0011'")):
            bootstrap_bands({"0011": 7, "0101": 3}, 10, 1, observables=twice)
        with pytest.raises(ValueError, match="'0011' and 3 are both basis state 3"):
            build_training_set(ensemble, NoiseModel(0.01), 100, twice[1:], seed=1)
        circuit, _ = small_lowered()
        cfg = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=2)
        with pytest.raises(ValueError, match=re.escape("5 and '0101'")):
            mitigate_circuit(circuit, [5, "0101"], NoiseModel(0.01), cfg,
                             shots=100, seed=4)


class TestTrainingSet:
    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one proxy"):
            build_training_set([], NoiseModel(0.01), 100, ["0011"], seed=1)

    def test_noiseless_pairs_sit_on_diagonal(self):
        circuit, ordering = small_lowered()
        cfg = CdrConfig(replacement_rates=(0.8, 1.0), circuits_per_rate=4)
        ens = near_clifford_ensemble(circuit, cfg, seed=2)
        pairs = build_training_set(ens, NoiseModel(0.0), 4000, ordering,
                                   seed=3)
        for obs in ordering:
            arr = pairs[obs]
            assert arr.shape == (8, 2)
            assert np.all(np.abs(arr[:, 0] - arr[:, 1]) < 0.05)

    def test_deterministic(self):
        circuit, ordering = small_lowered()
        cfg = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=3)
        ens = near_clifford_ensemble(circuit, cfg, seed=2)
        a = build_training_set(ens, NoiseModel(0.02), 500, ordering, seed=3)
        b = build_training_set(ens, NoiseModel(0.02), 500, ordering, seed=3)
        for obs in ordering:
            assert np.array_equal(a[obs], b[obs])

    def test_zero_noise_slope_near_one(self):
        circuit, ordering = small_lowered()
        cfg = CdrConfig(replacement_rates=(0.9, 1.0), circuits_per_rate=10)
        ens = near_clifford_ensemble(circuit, cfg, seed=6)
        pairs = build_training_set(ens, NoiseModel(0.0), 100_000, ordering,
                                   seed=7)
        for obs in ordering:
            fit = fit_pairs(pairs[obs])
            if not fit.degenerate:
                assert abs(fit.slope - 1.0) < 0.05, obs


def per_proxy_training_set(ensemble, noise, shots, observables, seed):
    """The training set as one run_noisy and one dense_run a proxy: the
    loop the stacked kernel replaced, kept as its oracle."""
    indices = [b.to_index() for b in observables]
    rng = np.random.default_rng(seed)
    pairs = np.zeros((len(observables), len(ensemble), 2))
    for j, circ in enumerate(ensemble):
        counts = run_noisy(circ, noise, shots, seed=int(rng.integers(2**63)))
        at = {b.to_index(): c for b, c in counts.items()}
        pairs[:, j, 0] = [at.get(i, 0) / shots for i in indices]
        pairs[:, j, 1] = (np.abs(dense_run(circ)) ** 2)[indices]
    return dict(zip(observables, pairs))


class TestStackedTrainingSet:
    @pytest.fixture(scope="class")
    def demo(self):
        # the mitigated demo's circuit: the q-Gaussian load at n = 6, k = 2
        report = encode_dense_real(6, 2, discretize_qgaussian().amplitudes)
        return lower(report.circuit).circuit, list(report.ordering)

    @pytest.mark.parametrize("p2, per_rate", [(0.01, 10), (0.0, 10), (0.01, 3)])
    def test_equals_the_per_proxy_loop(self, demo, p2, per_rate):
        circuit, ordering = demo
        ens = near_clifford_ensemble(circuit, CdrConfig(circuits_per_rate=per_rate),
                                     seed=11)
        noise = NoiseModel(p2)
        got = build_training_set(ens, noise, 10_000, ordering, seed=12)
        want = per_proxy_training_set(ens, noise, 10_000, ordering, seed=12)
        for obs in ordering:
            assert np.array_equal(got[obs], want[obs]), obs

    def test_mismatched_skeleton_refused(self):
        gates = (ry(0.3, 3), cnot(3, 2), rz(0.2, 2), cnot(2, 1), x_gate(1))
        first = Circuit(3, gates, level="cnot")
        moved_cnot = Circuit(3, gates[:3] + (cnot(1, 2),) + gates[4:], level="cnot")
        moved_rotation = Circuit(3, gates[:2] + (rz(0.2, 1),) + gates[3:], level="cnot")
        cases = [
            (moved_cnot, "circuit 2 gate 3 is a CNOT 1->2, circuit 0's a CNOT 2->1"),
            (moved_rotation, "circuit 2 gate 2 is a one-qubit gate on 1, "
                             "circuit 0's a one-qubit gate on 2"),
            (Circuit(3, gates[:4], level="cnot"), "circuit 2 has 3 qubits and 4 gates"),
            (Circuit(4, gates, level="cnot"), "circuit 2 has 4 qubits and 5 gates"),
        ]
        # a one-qubit gate of another kind on the same wire is the same skeleton
        same = Circuit(3, (x_gate(3),) + gates[1:], level="cnot")
        for bad, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                build_training_set([first, same, bad], NoiseModel(0.01), 100,
                                   ["011"], seed=1)

    def test_logical_proxy_refused(self):
        # a controlled Ry has the skeleton of a one-qubit gate on its target,
        # but the kernel would drop its control
        first = Circuit(3, (ry(0.3, 3), cnot(3, 2)), level="cnot")
        logical = Circuit(3, (ry(0.3, 3, ctrls=(1,)), cnot(3, 2)))
        with pytest.raises(ValueError, match="noisy runs need a cnot-level circuit"):
            build_training_set([first, logical], NoiseModel(0.01), 100,
                               ["011"], seed=1)

    def test_no_shots_refused(self):
        ens = [Circuit(3, (ry(0.3, 3), cnot(3, 2)), level="cnot")] * 2
        with pytest.raises(ValueError, match="need at least one shot"):
            build_training_set(ens, NoiseModel(0.01), 0, ["011"], seed=1)


class TestBootstrap:
    def test_single_outcome_degenerates(self):
        bands = bootstrap_bands({"11": 500}, 50, seed=1)
        assert bands["11"] == (1.0, 1.0)

    def test_width_tracks_binomial_sigma(self):
        counts = {"0": 5000, "1": 5000}
        bands = bootstrap_bands(counts, 200, seed=2)
        sigma = math.sqrt(0.25 / 10_000)
        for low, high in bands.values():
            width = high - low
            assert 0.5 * 3.29 * sigma < width < 4 * 3.29 * sigma

    def test_deterministic_and_ordered(self):
        counts = {"00": 700, "01": 200, "10": 100}
        assert bootstrap_bands(counts, 40, 5) == bootstrap_bands(counts, 40, 5)
        for low, high in bootstrap_bands(counts, 40, 5).values():
            assert low <= high

    def test_observable_selection_with_spill(self):
        counts = {"00": 700, "01": 200, "10": 100}
        bands = bootstrap_bands(counts, 40, 5, observables=["00", "11"])
        assert set(bands) == {"00", "11"}
        lo, hi = bands["11"]
        assert lo == 0.0 and hi == 0.0

    def test_rejects_thin_resampling(self):
        with pytest.raises(ValueError, match="two bootstrap"):
            bootstrap_bands({"0": 10}, 1, seed=0)


class TestMitigateParts:
    """The circuit runs as row 0 of its proxies' batch, and every field of
    the report is exactly what the separate calls give."""

    @pytest.mark.parametrize("n, k, p2, per_rate", [(4, 2, 0.02, 6), (4, 2, 0.0, 6),
                                                    (10, 1, 0.02, 2)])
    def test_equals_its_parts(self, n, k, p2, per_rate):
        rng = np.random.default_rng(n)
        rep = encode_dense_real(n, k, rng.normal(size=math.comb(n, k)))
        circuit, ordering = lower(rep.circuit).circuit, list(rep.ordering)
        cfg = CdrConfig(replacement_rates=(0.9, 1.0), circuits_per_rate=per_rate)
        noise, shots, seed = NoiseModel(p2), 300, 17
        report = mitigate_circuit(circuit, ordering, noise, cfg, shots=shots,
                                  seed=seed, bootstrap=40)
        s_raw, s_ens, s_noise, s_boot = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(4))
        exact = np.abs(dense_run(circuit)) ** 2
        assert report.target == {b: float(exact[b.to_index()]) for b in ordering}
        counts = run_noisy(circuit, noise, shots, seed=s_raw)
        assert report.raw == {b: counts.get(b, 0) / shots for b in ordering}
        training = build_training_set(near_clifford_ensemble(circuit, cfg, s_ens),
                                      noise, shots, ordering, s_noise)
        assert report.fits == {b: fit_pairs(p) for b, p in training.items()}
        assert report.mitigated == fit_and_mitigate(training, report.raw)[0]
        assert report.bands == bootstrap_bands(counts, 40, s_boot, ordering)


class TestEndToEnd:
    def test_report_shape_and_determinism(self):
        circuit, ordering = small_lowered(seed=5)
        cfg = CdrConfig(replacement_rates=(0.9, 1.0), circuits_per_rate=6)
        noise = NoiseModel(0.02)
        report = mitigate_circuit(circuit, ordering, noise, cfg, shots=3000,
                                  seed=13, bootstrap=60)
        assert report.observables == tuple(ordering)
        assert abs(sum(report.mitigated.values()) - 1.0) < 1e-12
        assert all(v >= 0.0 for v in report.mitigated.values())
        assert set(report.bands) == set(ordering)
        again = mitigate_circuit(circuit, ordering, noise, cfg, shots=3000,
                                 seed=13, bootstrap=60)
        assert again.raw == report.raw
        assert again.mitigated == report.mitigated
        assert again.bands == report.bands

    def test_zero_noise_pipeline_recovers_target(self):
        circuit, ordering = small_lowered(seed=5)
        cfg = CdrConfig(replacement_rates=(1.0,), circuits_per_rate=4)
        report = mitigate_circuit(circuit, ordering, NoiseModel(0.0), cfg,
                                  shots=100_000, seed=13)
        for obs in ordering:
            assert abs(report.raw[obs] - report.target[obs]) < 0.01
            assert abs(report.mitigated[obs] - report.target[obs]) < 0.01

    def test_mitigation_improves_noisy_run(self):
        circuit, ordering = small_lowered(seed=5)
        cfg = CdrConfig(replacement_rates=(0.9, 0.95, 1.0),
                        circuits_per_rate=20)
        report = mitigate_circuit(circuit, ordering, NoiseModel(0.02), cfg,
                                  shots=10_000, seed=21)
        raw_err = mean_relative_error(report.raw, report.target)
        mit_err = mean_relative_error(report.mitigated, report.target)
        assert mit_err < raw_err
