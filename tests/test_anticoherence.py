import math

import numpy as np
import pytest

from rotosense.anticoherence import (
    anticoherence_measure,
    anticoherence_report,
    is_anticoherent,
    perturbed_anticoherent_state,
    reduced_state,
    spin32_two_ac_family,
    spin32_two_ac_positivity_bound,
)
from rotosense.multipole import MultipoleIndex, multipole_operator
from rotosense.oqr import spin32_ghz, spin3_oqr_family
from rotosense.spin_core import DensityMatrix, PureState, SpinLabel
from rotosense.subspaces import catalog
from conftest import random_density


def equal_mixture(frame):
    k = len(frame.basis)
    return DensityMatrix.from_mixture([1.0 / k] * k, frame.basis)


class TestReducedState:
    def test_maximally_mixed_reduces_to_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(SpinLabel(6))
        for t in (1, 2, 3):
            rt = reduced_state(rho, t)
            assert np.abs(rt.matrix - np.eye(t + 1) / (t + 1)).max() < 1e-12

    def test_coherent_state_reduces_to_coherent(self):
        rho = PureState.basis_state(SpinLabel(8), 8).density_matrix()
        for t in (1, 3):
            rt = reduced_state(rho, t)
            want = np.zeros((t + 1, t + 1))
            want[0, 0] = 1.0
            assert np.abs(rt.matrix - want).max() < 1e-12

    def test_one_ac_state_gives_qubit_identity(self):
        rho = spin32_ghz().density_matrix()
        rt = reduced_state(rho, 1)
        assert np.abs(rt.matrix - np.eye(2) / 2).max() < 1e-12

    def test_partial_trace_tower(self, rng):
        # reducing to t then to t' < t equals reducing directly to t'
        rho = random_density(SpinLabel(7), rng)
        two_step = reduced_state(reduced_state(rho, 4), 2)
        direct = reduced_state(rho, 2)
        assert np.abs(two_step.matrix - direct.matrix).max() < 1e-10

    def test_range_gate(self):
        rho = DensityMatrix.maximally_mixed(SpinLabel(4))
        with pytest.raises(ValueError):
            reduced_state(rho, 0)
        with pytest.raises(ValueError):
            reduced_state(rho, 4)


class TestMeasure:
    def test_spin52_v1_value(self):
        rho = equal_mixture(catalog()["(5/2,2,1)-V1"].frame)
        assert anticoherence_measure(rho, 2) == pytest.approx(63 / 64, abs=1e-12)

    def test_spin52_v2_value(self):
        rho = equal_mixture(catalog()["(5/2,2,1)-V2"].frame)
        want = 3 / 32 * (7 * math.sqrt(7) - 8)
        assert anticoherence_measure(rho, 2) == pytest.approx(want, abs=1e-12)

    def test_spin3_superposition_value(self):
        frame = catalog()["(3,3,1)"].frame
        amp = (0.5 * frame.basis[0].amplitudes + 0.5 * frame.basis[1].amplitudes
               + frame.basis[2].amplitudes / math.sqrt(2))
        rho = PureState(SpinLabel(6), amp).density_matrix()
        assert anticoherence_measure(rho, 2) == pytest.approx(24 / 25, abs=1e-12)

    def test_maximally_mixed_saturates_every_order(self):
        rho = DensityMatrix.maximally_mixed(SpinLabel(7))
        for t in range(1, 7):
            assert anticoherence_measure(rho, t) == pytest.approx(1.0, abs=1e-12)

    def test_report_certified_order(self):
        rho = spin32_ghz().density_matrix()
        rep = anticoherence_report(rho)
        assert rep.certified_order == 1
        assert rep.orders[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.orders[2] < 1.0 - 1e-3


class TestPredicate:
    def test_maximally_mixed_all_orders(self):
        rho = DensityMatrix.maximally_mixed(SpinLabel(5))
        for t in range(1, 6):
            assert is_anticoherent(rho, t).holds

    def test_ghz_orders(self):
        rho = spin32_ghz().density_matrix()
        assert is_anticoherent(rho, 1).holds
        check2 = is_anticoherent(rho, 2)
        assert not check2.holds
        assert check2.max_violation == pytest.approx(0.5, abs=1e-12)

    def test_spin3_family_is_two_ac(self):
        rho = spin3_oqr_family(0.2)
        assert is_anticoherent(rho, 2).holds

    def test_measure_predicate_compatibility(self, rng):
        # A_1..A_t at 1 within 1e-9  <=>  all multipole expectations below 1e-8
        for _ in range(100):
            two_j = int(rng.integers(2, 7))
            rho = random_density(SpinLabel(two_j), rng, rank=int(rng.integers(1, two_j + 2)))
            for t in range(1, two_j):
                via_measure = all(
                    anticoherence_measure(rho, k) >= 1 - 1e-9 for k in range(1, t + 1)
                )
                assert via_measure == is_anticoherent(rho, t, 1e-8).holds


class TestPerturbedStates:
    def test_empty_coefficients_give_maximally_mixed(self):
        rho = perturbed_anticoherent_state(SpinLabel(5), {1, 2}, {})
        assert np.abs(rho.matrix - np.eye(6) / 6).max() < 1e-14

    def test_random_high_sector_perturbation_is_two_ac(self, rng):
        spin = SpinLabel(5)
        coeffs = {}
        for L in (3, 4, 5):
            for M in range(0, L + 1):
                c = complex(rng.normal(), rng.normal() if M else 0.0)
                coeffs[MultipoleIndex(L, M)] = c
                if M:
                    coeffs[MultipoleIndex(L, -M)] = (-1) ** M * np.conj(c)
        rho = perturbed_anticoherent_state(spin, {1, 2}, coeffs, epsilon="max")
        assert is_anticoherent(rho, 2, 1e-10).holds
        assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(0.0, abs=1e-10)

    def test_octupole_pair_reaches_half_purity(self):
        # normalized T_32 + T_3,-2 direction at the maximal step is the
        # highest-purity two-anticoherent spin-3/2 state
        c = 1 / math.sqrt(2)
        rho = perturbed_anticoherent_state(
            SpinLabel(3), {1, 2},
            {MultipoleIndex(3, 2): c, MultipoleIndex(3, -2): c},
            epsilon="max",
        )
        assert rho.purity == pytest.approx(0.5, abs=1e-12)
        want, _ = spin32_two_ac_family(0.5, 0.0, 0.0, c, 0.0)
        assert np.abs(rho.matrix - want.matrix).max() < 1e-12

    def test_hermiticity_gate(self):
        with pytest.raises(ValueError, match="Hermitian"):
            perturbed_anticoherent_state(
                SpinLabel(3), {1, 2}, {MultipoleIndex(3, 1): 1.0 + 0j}, epsilon=0.01
            )

    def test_excluded_sector_collision(self):
        with pytest.raises(ValueError, match="excluded"):
            perturbed_anticoherent_state(
                SpinLabel(3), {1, 2}, {MultipoleIndex(2, 0): 1.0}, epsilon=0.01
            )


class TestSpin32Family:
    def test_w_zero_is_maximally_mixed(self):
        rho, lam = spin32_two_ac_family(0.0, 1.0, 0.0, 0.0, 0.0)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-14
        assert rho.purity == pytest.approx(0.25, abs=1e-14)
        assert np.allclose(lam, 0.25)

    def test_max_purity_point(self):
        rho, lam = spin32_two_ac_family(0.5, 0.0, 0.0, 1 / math.sqrt(2), 0.0)
        assert rho.purity == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.sort(lam), [0, 0, 0.5, 0.5], atol=1e-12)
        v1 = np.array([1, 0, 1, 0]) / math.sqrt(2)
        v2 = np.array([0, -1, 0, 1]) / math.sqrt(2)
        want = (np.outer(v1, v1) + np.outer(v2, v2)) / 2
        assert np.abs(rho.matrix - want).max() < 1e-12

    def test_closed_form_eigenvalues(self, rng):
        for _ in range(20):
            c = rng.random(3)
            c /= math.sqrt(c[0] ** 2 + 2 * c[1] ** 2 + 2 * c[2] ** 2)
            phi = rng.uniform(0, 2 * math.pi)
            bound = spin32_two_ac_positivity_bound(*c, phi)
            w = float(rng.uniform(0, bound))
            rho, lam = spin32_two_ac_family(w, *c, phi)
            assert np.abs(np.sort(np.linalg.eigvalsh(rho.matrix)) - lam).max() < 1e-10
            assert is_anticoherent(rho, 2, 1e-10).holds
            assert rho.purity == pytest.approx(0.25 + w**2, abs=1e-12)

    def test_positivity_bound_enforced(self):
        bound = spin32_two_ac_positivity_bound(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="positivity"):
            spin32_two_ac_family(bound * 1.05, 1.0, 0.0, 0.0, 0.0)

    def test_normalization_gate(self):
        with pytest.raises(ValueError, match="expected 1"):
            spin32_two_ac_family(0.1, 1.0, 1.0, 0.0, 0.0)


class TestPerturbationContract:
    @pytest.mark.parametrize("two_j", [3, 6, 9])
    def test_matches_the_dense_sum_bit_for_bit(self, two_j, rng):
        # the series is summed per diagonal offset, in the map's order; the dense
        # reference adds one full T_LM matrix per coefficient in the same order
        spin = SpinLabel(two_j)
        coeffs = {}
        for L in range(3, two_j + 1):
            for M in range(0, L + 1):
                c = complex(rng.normal(), rng.normal() if M else 0.0)
                coeffs[(L, M)] = c
                if M:
                    coeffs[MultipoleIndex(L, -M)] = (-1) ** M * np.conj(c)
        items = list(coeffs.items())
        for order in (items, items[::-1], [items[k] for k in rng.permutation(len(items))]):
            a = np.zeros((spin.dimension,) * 2, dtype=complex)
            for key, c in order:
                a += c * multipole_operator(spin, key if isinstance(key, MultipoleIndex) else MultipoleIndex(*key))
            rho = perturbed_anticoherent_state(spin, {1, 2}, dict(order), epsilon=0.01)
            want = np.eye(spin.dimension, dtype=complex) / spin.dimension + 0.01 * a
            assert rho.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.5])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            perturbed_anticoherent_state(SpinLabel(4), {1}, {(2, 0): 1.0}, epsilon=epsilon)

    def test_tiny_perturbation_at_max_step_rejected(self):
        # the maximal step 1/((2j+1) |lam_min|) overflows to inf
        with pytest.raises(ValueError, match="epsilon"):
            perturbed_anticoherent_state(SpinLabel(4), {1}, {(2, 0): 5e-324})
