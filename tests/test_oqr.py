import dataclasses
import math

import numpy as np
import pytest

from rotosense import oqr
from rotosense.anticoherence import ANTICOHERENCE_TOL, anticoherence_measure, is_anticoherent
from rotosense.metrology import averaged_inverse_qfi, averaged_inverse_qfi_from_form, averaged_qfi, qfi_quadratic_form
from rotosense.oqr import (
    certify,
    pure_coherent_superposition_a2,
    qcrb_floor,
    spin2_family,
    spin2_family_inverse_qfi,
    spin2_family_purity,
    spin32_ghz,
    spin3_oqr_family,
)
from rotosense.spin_core import DensityMatrix, PureState, SpinLabel, eigen_mixture
from rotosense.subspaces import (
    SUCCESS_THRESHOLD,
    SubspaceFrame,
    catalog,
    construct_two_ac_family,
    objective_g_t,
    spin3_one_ac_triple,
)
from conftest import random_density, spin3_mixture_a2


def spin32_two_ac_mixture():
    s = SpinLabel(3)
    p1 = PureState(s, np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
    p2 = PureState(s, np.array([0, -1, 0, 1], dtype=complex) / math.sqrt(2))
    return DensityMatrix.from_mixture([0.5, 0.5], [p1, p2])


class TestCertify:
    def test_spin2_family_is_qcrb_grade(self):
        v = certify(spin2_family(0.7))
        assert v.is_oqr_fidelity and v.is_oqr_qcrb
        assert v.image_frame.k == 2
        assert v.qcrb == pytest.approx(0.125, abs=1e-10)
        assert v.averaged_qfi == pytest.approx(8.0, abs=1e-9)

    def test_spin32_mixture_fails_image_condition(self):
        # the state is 2-AC, yet its image is not a 1-AC subspace
        v = certify(spin32_two_ac_mixture())
        assert v.anticoherence_order2_violation <= 1e-10
        assert v.image_g1 > 1e-3
        assert not v.is_oqr_fidelity and not v.is_oqr_qcrb

    def test_spin3_family_certifies(self):
        v = certify(spin3_oqr_family(0.3))
        assert v.is_oqr_qcrb
        assert v.isotropy_gap <= 1e-8

    def test_ghz_is_fidelity_grade_only(self):
        v = certify(spin32_ghz().density_matrix())
        assert v.is_oqr_fidelity
        assert not v.is_oqr_qcrb
        assert v.anticoherence_order2_violation == pytest.approx(0.5, abs=1e-10)

    def test_spin_half_states_certify_nothing(self, rng):
        for rho in (DensityMatrix.maximally_mixed(SpinLabel(1)),
                    PureState.basis_state(SpinLabel(1), 1).density_matrix(),
                    random_density(SpinLabel(1), rng)):
            v = certify(rho)
            assert not v.is_oqr_fidelity and not v.is_oqr_qcrb

    def test_two_route_consistency_random_states(self, rng):
        # verdict via (G_1, 2-AC) must match (isotropic K, maximal averaged QFI)
        for _ in range(200):
            two_j = int(rng.integers(2, 8))
            s = SpinLabel(two_j)
            rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension + 1)))
            v = certify(rho)
            j = s.j
            maximal = abs(v.averaged_qfi - 4 * j * (j + 1) / 3) <= 1e-8 * max(v.averaged_qfi, 1e-300)
            route_b = maximal and v.isotropy_gap <= 1e-8
            assert v.is_oqr_qcrb == route_b

    def test_certified_states_sit_on_floor(self):
        # every QCRB-grade rotosensor reaches 3/(4 j (j+1)) exactly
        cases = [spin2_family(0.6), spin2_family(1.0), spin3_oqr_family(0.5)]
        for rho in cases:
            v = certify(rho)
            assert v.is_oqr_qcrb
            j = rho.spin.j
            floor = 3 / (4 * j * (j + 1))
            assert v.qcrb == pytest.approx(floor, rel=1e-8)

    def test_grades_are_read_off_the_recorded_numbers(self):
        v = certify(spin2_family(0.7))
        assert v.is_oqr_fidelity and v.is_oqr_qcrb
        not_one_ac = dataclasses.replace(v, image_g1=1.0)
        assert not not_one_ac.is_oqr_fidelity and not not_one_ac.is_oqr_qcrb
        not_two_ac = dataclasses.replace(v, anticoherence_order2_violation=1.0)
        assert not_two_ac.is_oqr_fidelity and not not_two_ac.is_oqr_qcrb
        # at the module gates, not above them; the verdict stores no gate of its own
        above = lambda gate: math.nextafter(gate, 1.0)
        assert dataclasses.replace(v, image_g1=SUCCESS_THRESHOLD).is_oqr_fidelity
        assert not dataclasses.replace(v, image_g1=above(SUCCESS_THRESHOLD)).is_oqr_fidelity
        assert dataclasses.replace(v, anticoherence_order2_violation=ANTICOHERENCE_TOL).is_oqr_qcrb
        assert not dataclasses.replace(v, anticoherence_order2_violation=above(ANTICOHERENCE_TOL)).is_oqr_qcrb
        assert "tolerances" not in {f.name for f in dataclasses.fields(v)}
        assert not hasattr(oqr, "CertificationTolerances")

    def test_qcrb_grade_requires_the_maximal_averaged_qfi(self):
        v = certify(spin2_family(0.7))
        with pytest.raises(ValueError, match="maximal averaged QFI"):
            dataclasses.replace(v, averaged_qfi=0.9 * v.averaged_qfi)

    def test_route_consistency_on_oqr_families(self, rng):
        for lam1 in rng.uniform(0, 2 / 3, size=5):
            v = certify(spin3_oqr_family(float(lam1)))
            assert v.is_oqr_qcrb
            j = 3.0
            assert v.averaged_qfi == pytest.approx(4 * j * (j + 1) / 3, rel=1e-9)


class TestSpin2Family:
    def test_branch_continuity_at_half(self):
        lo = spin2_family(0.5 - 1e-13)
        hi = spin2_family(0.5 + 1e-13)
        assert np.abs(lo.matrix - hi.matrix).max() < 1e-12
        assert spin2_family_purity(0.5) == pytest.approx(0.5, abs=1e-12)
        assert spin2_family_inverse_qfi(0.5) == pytest.approx(1 / 8, abs=1e-12)

    def test_endpoints(self):
        rho0 = spin2_family(0.2)
        assert np.abs(rho0.matrix - np.eye(5) / 5).max() < 1e-12
        assert spin2_family_inverse_qfi(0.2) == math.inf
        pure = spin2_family(1.0)
        assert pure.purity == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms_match_numerics(self, rng):
        for xi in rng.uniform(0.2, 1.0, size=8):
            rho = spin2_family(float(xi))
            assert rho.purity == pytest.approx(spin2_family_purity(float(xi)), abs=1e-12)
            inv = averaged_inverse_qfi(rho)
            want = spin2_family_inverse_qfi(float(xi))
            if math.isinf(want):
                assert math.isinf(inv)
            else:
                assert inv == pytest.approx(want, abs=1e-9)

    def test_monotone_qcrb_below_half(self):
        xs = np.linspace(0.2001, 0.499, 40)
        vals = [spin2_family_inverse_qfi(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in xi
        assert all(v > 1 / 8 for v in vals)

    def test_range_gate(self):
        with pytest.raises(ValueError):
            spin2_family(0.15)
        with pytest.raises(ValueError):
            spin2_family(1.05)


class TestSpin3Family:
    def test_uniform_point(self):
        rho = spin3_oqr_family(1 / 3)
        assert rho.purity == pytest.approx(1 / 3, abs=1e-12)
        assert certify(rho).is_oqr_qcrb

    def test_rank_two_endpoint(self):
        rho = spin3_oqr_family(0.0)
        assert eigen_mixture(rho).rank == 2
        assert certify(rho).is_oqr_qcrb

    def test_wrong_central_weight_not_two_ac(self):
        frame = spin3_one_ac_triple()
        rho = DensityMatrix.from_mixture([0.3, 0.5, 0.2], frame.basis)
        assert not is_anticoherent(rho, 2).holds

    def test_mixture_a2_formula(self, rng):
        frame = spin3_one_ac_triple()
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            rho = DensityMatrix.from_mixture(w, frame.basis)
            assert anticoherence_measure(rho, 2) == pytest.approx(
                spin3_mixture_a2(float(w[2])), abs=1e-12
            )
        assert spin3_mixture_a2(1 / 3) == pytest.approx(1.0, abs=1e-15)

    def test_range_gate(self):
        with pytest.raises(ValueError):
            spin3_oqr_family(0.7)


class TestCoherentSuperpositionA2:
    def test_maximum_point(self):
        assert pure_coherent_superposition_a2(0.5, 0.5, 1 / math.sqrt(2)) == pytest.approx(
            24 / 25, abs=1e-14
        )

    def test_matches_direct_measure(self, rng):
        frame = spin3_one_ac_triple()
        for _ in range(10):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            c /= np.linalg.norm(c)
            amp = sum(ci * s.amplitudes for ci, s in zip(c, frame.basis))
            direct = anticoherence_measure(PureState(SpinLabel(6), amp).density_matrix(), 2)
            assert pure_coherent_superposition_a2(*c) == pytest.approx(direct, abs=1e-10)

    def test_endpoint_values(self):
        # a=1: formula gives 24/25 and must equal the direct A_2 of psi_1
        frame = spin3_one_ac_triple()
        direct = anticoherence_measure(frame.basis[0].density_matrix(), 2)
        assert pure_coherent_superposition_a2(1.0, 0.0, 0.0) == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(24 / 25, abs=1e-12)
        # c=1: |3,0>, formula (3/25)(8-1) = 21/25
        direct0 = anticoherence_measure(frame.basis[2].density_matrix(), 2)
        assert pure_coherent_superposition_a2(0.0, 0.0, 1.0) == pytest.approx(21 / 25, abs=1e-14)
        assert direct0 == pytest.approx(21 / 25, abs=1e-12)

    def test_normalization_gate(self):
        with pytest.raises(ValueError):
            pure_coherent_superposition_a2(1.0, 1.0, 0.0)


class TestQcrbFloor:
    def test_values(self):
        f = qcrb_floor(SpinLabel(3))
        assert f.variance_floor == pytest.approx(0.2, abs=1e-15)
        assert f.inverse_qfi_floor == pytest.approx(0.2, abs=1e-15)
        assert qcrb_floor(SpinLabel(4)).variance_floor == pytest.approx(1 / 8, abs=1e-15)
        assert qcrb_floor(SpinLabel(3), repetitions=4).variance_floor == pytest.approx(0.05)
        assert qcrb_floor(SpinLabel(3), repetitions=4).inverse_qfi_floor == pytest.approx(0.2)

    def test_asymptotics(self):
        assert qcrb_floor(SpinLabel(200)).variance_floor < 1e-4

    def test_gate(self):
        with pytest.raises(ValueError):
            qcrb_floor(SpinLabel(3), repetitions=0)


class TestTwoAcFamilyMixtures:
    @pytest.mark.parametrize("two_j", [10, 16, 22])
    def test_random_mixtures_certify(self, two_j, rng):
        frame = construct_two_ac_family(SpinLabel(two_j))
        w = rng.dirichlet(np.ones(frame.k)) if frame.k > 1 else np.array([1.0])
        rho = DensityMatrix.from_mixture(w, frame.basis)
        v = certify(rho)
        assert v.is_oqr_qcrb
        j = two_j / 2
        assert averaged_qfi(rho) == pytest.approx(4 * j * (j + 1) / 3, rel=1e-10)


def _catalog_and_family_states():
    states = {name: DensityMatrix.from_mixture(np.full(e.frame.k, 1.0 / e.frame.k), e.frame.basis)
              for name, e in sorted(catalog().items())}
    states.update({f"spin2_family({xi})": spin2_family(xi) for xi in (0.2, 0.35, 0.5, 0.7, 1.0)})
    states.update({f"spin3_oqr_family({lam})": spin3_oqr_family(lam) for lam in (0.0, 0.2, 1.0 / 3.0)})
    states["spin32_ghz"] = spin32_ghz().density_matrix()
    return states


class TestOneEigendecomposition:
    """certify takes the spectrum of rho once; eigen_mixture and the QFI form share it."""

    def test_certify_calls_eigh_once(self, monkeypatch):
        rho = spin3_oqr_family(0.2)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
        certify(rho)
        assert calls == [(7, 7)]
        certify(rho)
        assert calls == [(7, 7)]

    def test_spectrum_is_read_only(self):
        lam, vec = spin2_family(0.7).spectrum
        assert not lam.flags.writeable and not vec.flags.writeable

    @pytest.mark.parametrize("name", list(_catalog_and_family_states()))
    def test_verdict_matches_one_eigh_per_consumer(self, name):
        rho = _catalog_and_family_states()[name]
        # eigen_mixture and qfi_quadratic_form each on a copy of their own, so each takes its own eigh
        mixture = eigen_mixture(DensityMatrix(rho.spin, rho.matrix))
        form = qfi_quadratic_form(DensityMatrix(rho.spin, rho.matrix))
        frame = SubspaceFrame(rho.spin, mixture.states)
        want = (objective_g_t(frame, 1), is_anticoherent(rho, 2).max_violation, form.isotropy_gap,
                form.averaged, averaged_inverse_qfi_from_form(form))
        v = certify(DensityMatrix(rho.spin, rho.matrix))
        got = (v.image_g1, v.anticoherence_order2_violation, v.isotropy_gap, v.averaged_qfi, v.qcrb)
        assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()
        assert v.image_frame.k == frame.k
        for a, b in zip(v.image_frame.basis, frame.basis):
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
