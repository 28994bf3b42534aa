import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import elliprf

from rotosense import metrology
from rotosense.metrology import (
    CrbReport,
    QfiQuadraticForm,
    averaged_inverse_qfi,
    averaged_inverse_qfi_from_form,
    averaged_qfi,
    crb_report,
    fidelity_taylor_check,
    fixed_axis_optimum,
    qfi,
    qfi_from_moments,
    qfi_quadratic_form,
    uhlmann_fidelity,
)
from rotosense.oqr import spin2_family, spin32_ghz, spin3_oqr_family
from rotosense.spin_core import (
    DEFAULT_RANK_TOL,
    AxisAngle,
    DensityMatrix,
    PureState,
    SpinLabel,
    angular_momentum_operators,
    component_along,
    direction,
    rotation_operator,
)
from conftest import random_axis, random_density, random_pure

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_sum_qfi(rho, axis):
    """I(n, rho) = 2 sum_lm (lam_l - lam_m)^2/(lam_l + lam_m) |<l|J.n|m>|^2, pairs below the rank gate
    dropped: the definition, summed over eigenvector pairs without the form K."""
    lam, vec = np.linalg.eigh(rho.matrix)
    m = vec.conj().T @ component_along(rho.spin, axis) @ vec
    s = lam[:, None] + lam[None, :]
    keep = s >= DEFAULT_RANK_TOL
    p = np.zeros_like(s)
    p[keep] = (lam[:, None] - lam[None, :])[keep] ** 2 / s[keep]
    return float(2.0 * np.sum(p * np.abs(m) ** 2))


def spin32_two_ac_mixture():
    s = SpinLabel(3)
    p1 = PureState(s, np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
    p2 = PureState(s, np.array([0, -1, 0, 1], dtype=complex) / math.sqrt(2))
    return DensityMatrix.from_mixture([0.5, 0.5], [p1, p2])


def axial_inverse_average(transverse, axial):
    """Closed-form sphere average of 1/(a sin^2 + c cos^2): independent oracle."""
    a, c = transverse, axial
    if abs(c - a) < 1e-15:
        return 1.0 / a
    if c > a:
        return math.atan(math.sqrt((c - a) / a)) / math.sqrt(a * (c - a))
    return math.atanh(math.sqrt((a - c) / a)) / math.sqrt(a * (a - c))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    return leggauss(order)


def grid_inverse_average(kvals, order=2048):
    """Sphere average of 1/(n^T diag(kvals) n) on a Gauss-Legendre x azimuth grid.

    Independent oracle for the closed form: Gauss-Legendre nodes in cos(theta)
    with kvals[2] on the pole, a uniform azimuth of 2*order points.  Summed one
    ring at a time to keep memory at O(order).  With the largest principal
    value on the pole, order 2048 resolves condition numbers up to 1e4 to
    about 1e-13 relative.
    """
    x, w = _gauss_legendre(order)
    nphi = 2 * order
    phi = np.arange(nphi) * (2 * math.pi / nphi)
    cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    total = 0.0
    for xi, wi in zip(x, w):
        ring = (1.0 - xi**2) * (kvals[0] * cos2 + kvals[1] * sin2) + kvals[2] * xi**2
        total += wi * float(np.sum(1.0 / ring))
    return total / (2 * nphi)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(SpinLabel(4), rng)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_states_reduce_to_overlap(self, rng):
        s = SpinLabel(5)
        for _ in range(10):
            a, b = random_pure(s, rng), random_pure(s, rng)
            want = abs(a.overlap(b)) ** 2
            got = uhlmann_fidelity(a.density_matrix(), b.density_matrix())
            assert got == pytest.approx(want, abs=1e-11)

    def test_rotation_invariance_of_mixed(self, rng):
        rho = DensityMatrix.maximally_mixed(SpinLabel(4))
        r = rotation_operator(SpinLabel(4), AxisAngle(random_axis(rng), 1.2))
        assert uhlmann_fidelity(rho, rho.conjugated(r)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        s = SpinLabel(3)
        for _ in range(10):
            a = random_density(s, rng, rank=int(rng.integers(1, 5)))
            b = random_density(s, rng, rank=int(rng.integers(1, 5)))
            assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), abs=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            uhlmann_fidelity(random_density(SpinLabel(2), rng), random_density(SpinLabel(3), rng))


class TestQfi:
    def test_pure_state_variance_formula(self, rng):
        # 200 random pure states at j <= 4: QFI equals 4 (<Jn^2> - <Jn>^2)
        for _ in range(200):
            two_j = int(rng.integers(1, 9))
            s = SpinLabel(two_j)
            psi = random_pure(s, rng)
            ax = random_axis(rng)
            jn = component_along(s, ax)
            mean = np.vdot(psi.amplitudes, jn @ psi.amplitudes).real
            mean2 = np.vdot(psi.amplitudes, jn @ jn @ psi.amplitudes).real
            want = 4.0 * (mean2 - mean**2)
            assert qfi(psi.density_matrix(), ax) == pytest.approx(want, abs=1e-10)

    def test_maximally_mixed_is_zero(self, rng):
        rho = DensityMatrix.maximally_mixed(SpinLabel(5))
        for _ in range(5):
            assert qfi(rho, random_axis(rng)) == pytest.approx(0.0, abs=1e-12)

    def test_spin2_family_isotropic_value_8(self, rng):
        for xi in (0.5, 0.7, 0.9, 1.0):
            rho = spin2_family(xi)
            for _ in range(5):
                assert qfi(rho, random_axis(rng)) == pytest.approx(8.0, abs=1e-10)

    def test_two_forms_agree(self, rng):
        for _ in range(30):
            two_j = int(rng.integers(1, 8))
            s = SpinLabel(two_j)
            rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension + 1)))
            ax = random_axis(rng)
            assert qfi(rho, ax) == pytest.approx(qfi_from_moments(rho, ax), abs=1e-9)

    def test_rotation_covariance(self, rng):
        s = SpinLabel(4)
        rho = random_density(s, rng, rank=3)
        for _ in range(5):
            aa = AxisAngle(random_axis(rng), rng.uniform(0, 3))
            r = rotation_operator(s, aa)
            ax = random_axis(rng)
            assert qfi(rho.conjugated(r), aa.so3_matrix() @ ax) == pytest.approx(
                qfi(rho, ax), abs=1e-9
            )


class TestQuadraticForm:
    def test_matches_qfi_on_axes(self, rng):
        s = SpinLabel(5)
        rho = random_density(s, rng, rank=4)
        form = qfi_quadratic_form(rho)
        canonical = [EX, np.array([0, 1.0, 0]), EZ,
                     np.array([1, 1, 0]) / math.sqrt(2),
                     np.array([0, 1, 1]) / math.sqrt(2),
                     np.array([1, 0, 1]) / math.sqrt(2)]
        for ax in canonical + [random_axis(rng) for _ in range(20)]:
            assert form.evaluate(ax) == pytest.approx(pair_sum_qfi(rho, ax), abs=1e-9)

    def test_qfi_is_the_form_bit_for_bit(self, rng):
        # `rotosense qfi --axis` prints form.evaluate; the library's qfi returns the same float
        cases = [(spin3_oqr_family(0.2), direction([0.3, 0.4, 1.2]))]
        cases += [(random_density(SpinLabel(two_j), rng, rank=3), random_axis(rng)) for two_j in (2, 5, 9, 14)]
        for rho, ax in cases:
            assert qfi(rho, ax) == qfi_quadratic_form(rho).evaluate(ax)
        rho, ax = cases[0]
        assert qfi(rho, ax) == pytest.approx(16.0, abs=1e-13)

    def test_spin2_family_is_8_identity(self):
        form = qfi_quadratic_form(spin2_family(0.7))
        assert np.abs(form.matrix - 8 * np.eye(3)).max() < 1e-10

    def test_coherent_state_form(self):
        for two_j in (2, 3, 6):
            s = SpinLabel(two_j)
            rho = PureState.basis_state(s, two_j).density_matrix()
            form = qfi_quadratic_form(rho)
            assert np.abs(form.matrix - np.diag([two_j, two_j, 0.0])).max() < 1e-10

    def test_maximally_mixed_is_zero_form(self):
        form = qfi_quadratic_form(DensityMatrix.maximally_mixed(SpinLabel(3)))
        assert np.abs(form.matrix).max() < 1e-12
        assert form.isotropy_gap == 0.0

    def test_principal_values_are_taken_once_per_form(self, rng, monkeypatch):
        # isotropy_gap and the averaged inverse QFI read one array, with the
        # bits of eigvalsh on the stored K, and neither takes eigvalsh again
        from rotosense.oqr import certify

        eigvalsh = np.linalg.eigvalsh
        rhos = [random_density(SpinLabel(two_j), rng, rank=r) for two_j, r in ((2, 2), (5, 4), (9, None))]
        rhos += [spin2_family(0.7), spin3_oqr_family(0.2)]
        forms = [qfi_quadratic_form(rho) for rho in rhos]
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for form in forms:
            lam = form.principal_values()
            assert lam is form.principal_values() and not lam.flags.writeable
            assert lam.tobytes() == eigvalsh(form.matrix).tobytes()
            lo, hi = lam[0], lam[2]
            assert form.isotropy_gap == (0.0 if hi <= 0.0 else float((hi - lo) / hi))
            averaged_inverse_qfi_from_form(form)
        assert calls == []
        for rho in rhos:
            certify(rho)
        assert calls.count((3, 3)) == len(rhos)


class TestAverages:
    def test_two_ac_pure_reaches_ceiling(self):
        rho = spin32_ghz().density_matrix()
        # GHZ is 1-AC only; use the spin-2 plane state which is 2-AC
        from rotosense.subspaces import spin2_plane

        psi = spin2_plane().basis[0]
        j = 2.0
        assert averaged_qfi(psi.density_matrix()) == pytest.approx(4 * j * (j + 1) / 3, abs=1e-10)

    def test_coherent_spin1(self):
        rho = PureState.basis_state(SpinLabel(2), 2).density_matrix()
        assert averaged_qfi(rho) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_maximally_mixed_zero(self):
        assert averaged_qfi(DensityMatrix.maximally_mixed(SpinLabel(4))) == 0.0

    def test_matches_eigen_pair_closed_form(self, rng):
        # independent route: (4/3)(j(j+1) - sum 2 lam lam/(lam+lam) sum_a |<Ja>|^2)
        for _ in range(10):
            s = SpinLabel(int(rng.integers(2, 7)))
            rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension)))
            lam, vec = np.linalg.eigh(rho.matrix)
            keep = lam > 1e-12
            lam_im, v = lam[keep], vec[:, keep]
            ops = angular_momentum_operators(s)
            total = 0.0
            for a in range(3):
                m = v.conj().T @ ops[a] @ v
                ssum = lam_im[:, None] + lam_im[None, :]
                w = 2 * lam_im[:, None] * lam_im[None, :] / ssum
                total += float(np.sum(w * np.abs(m) ** 2))
            j = s.j
            want = 4.0 / 3.0 * (j * (j + 1) - total)
            assert averaged_qfi(rho) == pytest.approx(want, abs=1e-10)

    def test_inverse_two_ac_mixture_is_quarter(self):
        assert averaged_inverse_qfi(spin32_two_ac_mixture()) == pytest.approx(0.25, abs=1e-9)

    def test_inverse_ghz_against_axial_oracle(self):
        got = averaged_inverse_qfi(spin32_ghz().density_matrix())
        want = axial_inverse_average(3.0, 9.0)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.225, abs=1e-3)

    def test_inverse_isotropic_form_exact(self, rng):
        assert averaged_inverse_qfi(spin2_family(0.8)) == pytest.approx(1 / 8, abs=1e-12)

    def test_inverse_of_maximally_mixed_is_infinite(self):
        assert averaged_inverse_qfi(DensityMatrix.maximally_mixed(SpinLabel(3))) == math.inf

    def test_inverse_of_coherent_state_is_infinite(self):
        rho = PureState.basis_state(SpinLabel(4), 4).density_matrix()
        assert averaged_inverse_qfi(rho) == math.inf

    def test_quadrature_against_dblquad(self, rng):
        # generic anisotropic K vs adaptive 2D quadrature
        from rotosense.metrology import QfiQuadraticForm

        kvals = np.array([1.3, 4.1, 7.9])
        form = QfiQuadraticForm(SpinLabel(2), np.diag(kvals))
        got = averaged_inverse_qfi_from_form(form)

        def integrand(theta, phi):
            n = np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ])
            return math.sin(theta) / float(kvals @ n**2)

        ref, _ = integrate.dblquad(integrand, 0, 2 * math.pi, 0, math.pi,
                                   epsabs=1e-12, epsrel=1e-12)
        assert got == pytest.approx(ref / (4 * math.pi), abs=1e-9)
        assert got == pytest.approx(grid_inverse_average(kvals), rel=1e-9)

        # seeded random PSD K, condition numbers up to 1e4, randomly rotated
        for _ in range(20):
            cond = 10.0 ** rng.uniform(0.0, 4.0)
            kvals = rng.uniform(0.1, 10.0) * np.array([1.0, rng.uniform(1.0, cond), cond])
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            form = QfiQuadraticForm(SpinLabel(2), (q * kvals) @ q.T)
            got = averaged_inverse_qfi_from_form(form)
            assert got == pytest.approx(grid_inverse_average(kvals), rel=1e-9)

        # singular K: the integrand is not integrable
        assert averaged_inverse_qfi_from_form(
            QfiQuadraticForm(SpinLabel(2), np.diag([0.0, 2.0, 5.0]))) == math.inf
        # isotropic K = k I: exactly 1/k
        for k in (0.37, 1.0, 8.0, 123.4):
            form = QfiQuadraticForm(SpinLabel(2), k * np.eye(3))
            assert averaged_inverse_qfi_from_form(form) == pytest.approx(1.0 / k, rel=1e-15)

    def test_inverse_near_singular_against_axial_oracle(self):
        # normalized |2,2> + 3e-3 |2,1>, K ~ diag(4.9e-10, 4, 4): finite, no error.
        # The two large principal values differ by 1.1e-4, which the axial
        # oracle ignores at second order (5.8e-9 relative at their geometric
        # mean); K is bracketed between the axial forms of either value.
        amp = np.array([1.0, 3e-3, 0.0, 0.0, 0.0], dtype=complex)
        rho = PureState.from_unnormalized(SpinLabel(4), amp).density_matrix()
        k1, k2, k3 = qfi_quadratic_form(rho).principal_values()
        got = averaged_inverse_qfi(rho)
        assert got == pytest.approx(3.027, abs=1e-3)
        assert got == pytest.approx(axial_inverse_average(math.sqrt(k2 * k3), k1), rel=1e-8)
        assert axial_inverse_average(k3, k1) <= got <= axial_inverse_average(k2, k1)

    def test_jensen_inequality(self, rng):
        for _ in range(25):
            s = SpinLabel(int(rng.integers(2, 7)))
            rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension + 1)))
            avg = averaged_qfi(rho)
            inv = averaged_inverse_qfi(rho)
            if math.isfinite(inv):
                assert inv >= 1.0 / avg - 1e-9

    def test_jensen_equality_iff_isotropic(self):
        # isotropic K: equality to quadrature tolerance
        rho = spin2_family(0.8)
        assert averaged_inverse_qfi(rho) == pytest.approx(1 / averaged_qfi(rho), abs=1e-8)
        assert qfi_quadratic_form(rho).isotropy_gap <= 1e-9
        # anisotropic K: strictly above the Jensen floor
        ghz = spin32_ghz().density_matrix()
        assert qfi_quadratic_form(ghz).isotropy_gap > 0.1
        assert averaged_inverse_qfi(ghz) > 1 / averaged_qfi(ghz) + 1e-3


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestRfBinding:
    """`metrology._rf` against `scipy.special.elliprf`: the same compiled function, so the same bits."""

    def test_bits_equal_elliprf_over_18_decades(self):
        x = 10.0 ** np.random.default_rng(20240611).uniform(-9.0, 9.0, size=(20000, 3))
        got = [metrology._rf(*row) for row in x.tolist()]
        assert np.array_equal(_bits(got), _bits(elliprf(x[:, 0], x[:, 1], x[:, 2])))

    def test_averaged_inverse_bits_equal_elliprf(self, rng):
        for _ in range(200):
            k = np.sort(10.0 ** rng.uniform(-3.0, 3.0, size=3))
            got = averaged_inverse_qfi_from_form(QfiQuadraticForm(SpinLabel(2), np.diag(k)))
            k1, k2, k3 = np.linalg.eigvalsh(np.diag(k))
            assert _bits(got) == _bits(elliprf(k1 * k2, k1 * k3, k2 * k3))

    def test_missing_capsule_falls_back_to_elliprf(self, monkeypatch):
        monkeypatch.setattr(metrology, "_RF_CAPSULE", "_export_no_such_function")
        fallback = metrology._bind_rf()
        assert fallback is elliprf
        x = 10.0 ** np.random.default_rng(7).uniform(-9.0, 9.0, size=(500, 3))
        got = [float(fallback(*row)) for row in x.tolist()]
        assert np.array_equal(_bits(got), _bits([metrology._rf(*row) for row in x.tolist()]))

    def test_later_scipy_special_import_agrees(self):
        # a child interpreter, so that scipy.special is first imported after the binding
        code = ("import sys, rotosense; from rotosense import metrology; "
                "assert 'scipy.special' not in sys.modules; "
                "import scipy.special; "
                "x = [(1.0, 2.0, 3.0), (1e-9, 1e9, 3.5), (2.5e-7, 2.5e-7, 4e8)]; "
                "print(all(metrology._rf(*r) == float(scipy.special.elliprf(*r)) for r in x))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(metrology.__file__)),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True"


class TestCrbReport:
    def test_report_fields(self):
        rep = crb_report(spin2_family(0.7))
        assert rep.averaged_qfi == pytest.approx(8.0, abs=1e-10)
        assert rep.averaged_inverse_qfi == pytest.approx(0.125, abs=1e-10)
        assert rep.isotropy_gap < 1e-12
        assert rep.qcrb_lower_bound == pytest.approx(1 / 8, abs=1e-14)

    def test_jensen_gate(self):
        with pytest.raises(ValueError, match="Jensen"):
            CrbReport(averaged_qfi=4.0, averaged_inverse_qfi=0.1, isotropy_gap=0.0,
                      qcrb_lower_bound=0.1)


class TestFidelityTaylor:
    def test_pure_spin1_small_angle(self):
        rho = PureState.basis_state(SpinLabel(2), 0).density_matrix()  # |1,0>
        rep = fidelity_taylor_check(rho, EX, [1e-3])
        assert rep.max_relative_residual < 1e-6

    def test_maximally_mixed_flat(self):
        rho = DensityMatrix.maximally_mixed(SpinLabel(3))
        rep = fidelity_taylor_check(rho, EZ, [1e-3, 1e-2])
        assert np.abs(rep.fidelity_deficits).max() < 1e-10

    def test_spin2_family_quadratic_deficit(self):
        rho = spin2_family(0.6)
        rep = fidelity_taylor_check(rho, random_axis(np.random.default_rng(0)), [1e-2])
        assert rep.quadratic_predictions[0] == pytest.approx(2e-4, rel=1e-9)
        assert rep.fidelity_deficits[0] == pytest.approx(2e-4, rel=1e-2)

    def test_large_angle_rejected(self):
        with pytest.raises(ValueError):
            fidelity_taylor_check(spin2_family(0.7), EZ, [0.5])


class TestFixedAxisOptimum:
    def test_rank_two_value_is_4j_squared(self):
        for two_j in (2, 3, 5):
            opt = fixed_axis_optimum(SpinLabel(two_j), [0.6, 0.4])
            assert opt.max_qfi == pytest.approx(4 * (two_j / 2) ** 2 * 1.0, abs=1e-12)

    def test_central_state_normalization_integer_spin(self):
        # at integer j and l = 2j+1 both kets coincide: the state is |j,0>
        opt = fixed_axis_optimum(SpinLabel(2), [0.5, 0.3, 0.2])
        assert np.allclose(opt.states[2].amplitudes, [0, 1, 0])
        assert opt.max_qfi == pytest.approx(3.2, abs=1e-12)

    def test_value_bounds_random_same_spectrum_states(self, rng):
        # the closed form is the maximum of 4 Tr(rho Jz^2), so no state with
        # the same spectrum may exceed it
        s = SpinLabel(4)
        lam = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        opt = fixed_axis_optimum(s, lam)
        for _ in range(100):
            x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            q, _ = np.linalg.qr(x)
            rho = DensityMatrix(s, (q[:, :3] * lam) @ q[:, :3].conj().T)
            assert qfi(rho, EZ) <= opt.max_qfi + 1e-9

    def test_achieved_value_closed_form(self, rng):
        # the assembly couples sibling states on shared +/-m doublets, so it
        # attains 4 sum lam_l h_l minus 16 sum_pairs (lam lam/(lam+lam)) h
        for two_j in (2, 4, 7):
            s = SpinLabel(two_j)
            k = int(rng.integers(2, s.dimension + 1))
            lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
            opt = fixed_axis_optimum(s, lam)
            j = s.j
            correction = 0.0
            for i in range(0, k - 1, 2):
                h = (j - (i // 2)) ** 2
                pair = lam[i] * lam[i + 1]
                if pair > 0:
                    correction += 16.0 * pair / (lam[i] + lam[i + 1]) * h
            assert opt.achieved_qfi == pytest.approx(opt.max_qfi - correction, abs=1e-9)

    def test_rank_one_attains(self):
        opt = fixed_axis_optimum(SpinLabel(5), [1.0])
        assert opt.achieved_qfi == pytest.approx(opt.max_qfi, abs=1e-10)
        assert opt.max_qfi == pytest.approx(4 * 2.5**2, abs=1e-12)

    def test_input_gates(self):
        with pytest.raises(ValueError):
            fixed_axis_optimum(SpinLabel(2), [0.3, 0.7])  # not descending
        with pytest.raises(ValueError):
            fixed_axis_optimum(SpinLabel(2), [0.6, 0.3])  # not normalized
        with pytest.raises(ValueError):
            fixed_axis_optimum(SpinLabel(1), [0.4, 0.3, 0.3])  # k > dimension


class TestAxisContract:
    @pytest.mark.parametrize("axis", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
    def test_every_axis_consumer_rejects(self, axis):
        rho = spin2_family(0.7)
        calls = (qfi, qfi_from_moments, lambda r, a: qfi_quadratic_form(r).evaluate(a),
                 lambda r, a: fidelity_taylor_check(r, a, [0.01]))
        for call in calls:
            with pytest.raises(ValueError, match="axis"):
                call(rho, axis)

    def test_taylor_check_rejects_non_finite_angles(self):
        with pytest.raises(ValueError, match="angle"):
            fidelity_taylor_check(spin2_family(0.7), EZ, [0.01, math.nan])
