import math

import numpy as np
import pytest

from rotosense.spin_core import (
    AxisAngle,
    DensityMatrix,
    EigenMixture,
    PureState,
    SpinLabel,
    angular_momentum_operators,
    clebsch_gordan,
    clebsch_gordan_2,
    component_along,
    eigen_mixture,
    embedding_isometry,
    rotation_operator,
    rotation_operator_euler,
    unit_axis,
)
from conftest import fraction_clebsch_gordan_2, random_axis, random_density, random_pure

EZ = np.array([0.0, 0.0, 1.0])


class TestSpinLabel:
    def test_dimension_and_parity(self):
        assert SpinLabel(0).dimension == 1
        assert SpinLabel(3).half_integer
        assert not SpinLabel(4).half_integer
        assert SpinLabel.from_j("7/2") == SpinLabel(7)
        assert SpinLabel.from_j(2.5) == SpinLabel(5)
        assert str(SpinLabel(5)) == "5/2"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SpinLabel(-1)
        with pytest.raises(ValueError):
            SpinLabel.from_j(0.3)
        for flag in (True, False):
            with pytest.raises(ValueError):
                SpinLabel(flag)


class TestDataModel:
    def test_pure_state_norm_gate(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(SpinLabel(2), np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        amp = np.array([1.0, 0.0, 0.0], dtype=complex)
        amp[1] = bad
        with pytest.raises(ValueError, match="not finite"):
            PureState(SpinLabel(2), amp)
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            DensityMatrix(SpinLabel(1), m)

    def test_density_matrix_gates(self):
        s = SpinLabel(1)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(s, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(s, np.eye(2))
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(s, np.diag([1.5, -0.5]))

    def test_axis_angle_unit_gate(self):
        with pytest.raises(ValueError, match="unit"):
            AxisAngle(np.array([1.0, 1.0, 0.0]), 0.3)
        aa = AxisAngle.from_vector([2.0, 0.0, 0.0], 0.5)
        assert np.allclose(aa.axis, [1, 0, 0])


class TestAngularMomentum:
    def test_jz_defining_representation(self):
        _, _, jz = angular_momentum_operators(SpinLabel(1))
        assert np.allclose(jz, np.diag([0.5, -0.5]))

    def test_casimir_spin1(self):
        jx, jy, jz = angular_momentum_operators(SpinLabel(2))
        assert np.allclose(jx @ jx + jy @ jy + jz @ jz, 2 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("two_j", list(range(1, 41)))
    def test_commutators_all_spins(self, two_j):
        jx, jy, jz = angular_momentum_operators(SpinLabel(two_j))
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12

    def test_component_along_examples(self):
        assert np.allclose(component_along(SpinLabel(2), EZ), np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(
            component_along(SpinLabel(1), np.array([1.0, 0.0, 0.0])),
            np.array([[0, 0.5], [0.5, 0]]),
        )
        with pytest.raises(ValueError):
            component_along(SpinLabel(2), np.array([1.0, 1.0, 0.0]))

    def test_component_spectrum_axis_independent(self, rng):
        # oracle: J_n is unitarily equivalent to Jz, so its spectrum is m = j..-j
        for two_j in (2, 3, 5):
            want = np.sort(SpinLabel(two_j).m_values())
            for _ in range(10):
                jn = component_along(SpinLabel(two_j), random_axis(rng))
                assert np.allclose(np.linalg.eigvalsh(jn), want, atol=1e-12)


class TestRotations:
    def test_zero_angle_identity(self):
        r = rotation_operator(SpinLabel(5), AxisAngle(EZ, 0.0))
        assert np.allclose(r, np.eye(6))

    def test_z_axis_phases(self):
        s = SpinLabel(4)
        r = rotation_operator(s, AxisAngle(EZ, 0.7))
        assert np.allclose(np.diag(r), np.exp(-1j * 0.7 * s.m_values()))

    def test_unitarity_and_inverse(self, rng):
        s = SpinLabel(7)
        for _ in range(5):
            ax = random_axis(rng)
            eta = rng.uniform(-3, 3)
            r = rotation_operator(s, AxisAngle(ax, eta))
            rinv = rotation_operator(s, AxisAngle(ax, -eta))
            assert np.abs(r @ r.conj().T - np.eye(8)).max() < 1e-12
            assert np.abs(r @ rinv - np.eye(8)).max() < 1e-12

    def test_same_axis_angles_add(self, rng):
        s = SpinLabel(5)
        ax = random_axis(rng)
        r1 = rotation_operator(s, AxisAngle(ax, 0.9))
        r2 = rotation_operator(s, AxisAngle(ax, -0.35))
        r12 = rotation_operator(s, AxisAngle(ax, 0.55))
        assert np.abs(r1 @ r2 - r12).max() < 1e-10

    def test_euler_identity(self):
        assert np.allclose(rotation_operator_euler(SpinLabel(3), 0, 0, 0), np.eye(4))

    def test_euler_matches_uncached_product_bitwise(self, rng):
        # the cached Jz and Jy eigenbases give the same bits as three fresh rotations
        ey = np.array([0.0, 1.0, 0.0])
        for two_j in range(0, 21):
            s = SpinLabel(two_j)
            for alpha, beta, gamma in rng.uniform(-7.0, 7.0, size=(5, 3)):
                want = (rotation_operator(s, AxisAngle(EZ, alpha))
                        @ rotation_operator(s, AxisAngle(ey, beta))
                        @ rotation_operator(s, AxisAngle(EZ, gamma)))
                got = rotation_operator_euler(s, alpha, beta, gamma)
                assert got.tobytes() == want.tobytes(), (two_j, alpha, beta, gamma)

    def test_euler_spin1_regression(self):
        # active z-y-z convention fixed by the known spin-1 image of |1,0>
        alpha, beta, gamma = 0.7, 1.1, -0.4
        got = rotation_operator_euler(SpinLabel(2), alpha, beta, gamma) @ np.array([0, 1, 0])
        want = np.array([
            -np.exp(-1j * alpha) * math.sin(beta) / math.sqrt(2),
            math.cos(beta),
            np.exp(1j * alpha) * math.sin(beta) / math.sqrt(2),
        ])
        assert np.abs(got - want).max() < 1e-12

    def test_composition_matches_so3(self, rng):
        # oracle: compose the 3x3 rotation matrices, re-extract axis/angle
        s = SpinLabel(2)
        for _ in range(5):
            a1 = AxisAngle(random_axis(rng), rng.uniform(0.2, 2.5))
            a2 = AxisAngle(random_axis(rng), rng.uniform(0.2, 2.5))
            m = a1.so3_matrix() @ a2.so3_matrix()
            angle = math.acos(min(1.0, max(-1.0, (np.trace(m) - 1) / 2)))
            axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
            axis /= np.linalg.norm(axis)
            lhs = rotation_operator(s, a1) @ rotation_operator(s, a2)
            rhs = rotation_operator(s, AxisAngle(axis, angle))
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_composition_half_integer_projective(self, rng):
        # double cover: spin-3/2 composition agrees up to a global sign
        s = SpinLabel(3)
        a1 = AxisAngle(random_axis(rng), 1.3)
        a2 = AxisAngle(random_axis(rng), 2.1)
        m = a1.so3_matrix() @ a2.so3_matrix()
        angle = math.acos(min(1.0, max(-1.0, (np.trace(m) - 1) / 2)))
        axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
        axis /= np.linalg.norm(axis)
        lhs = rotation_operator(s, a1) @ rotation_operator(s, a2)
        rhs = rotation_operator(s, AxisAngle(axis, angle))
        assert min(np.abs(lhs - rhs).max(), np.abs(lhs + rhs).max()) < 1e-10


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(1.0)

    def test_singlet_block_by_recursion(self):
        # oracle for the j1=j2=1/2 block: the (0,0) column is the unit vector
        # orthogonal to the (1,0) column, fixed up to the sign convention
        # <1/2,1/2;1/2,-1/2|0,0> > 0
        c_triplet = np.array([
            clebsch_gordan(0.5, 0.5, 1, 0.5, -0.5, 0),
            clebsch_gordan(0.5, 0.5, 1, -0.5, 0.5, 0),
        ])
        c_singlet = np.array([
            clebsch_gordan(0.5, 0.5, 0, 0.5, -0.5, 0),
            clebsch_gordan(0.5, 0.5, 0, -0.5, 0.5, 0),
        ])
        assert np.linalg.norm(c_triplet) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(c_singlet) == pytest.approx(1.0, abs=1e-14)
        assert c_triplet @ c_singlet == pytest.approx(0.0, abs=1e-14)
        assert c_singlet[0] == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_selection_rules_return_zero(self):
        assert clebsch_gordan(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
        assert clebsch_gordan(1, 1, 2, 1, 0, 0) == 0.0  # m mismatch
        assert clebsch_gordan(1, 1, 2, 2, 0, 2) == 0.0  # |m1| > j1

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.4, 0.5, 1, 0, 0, 0)

    def test_wigner_unitarity_rows(self):
        # sum over (m1, m2) of squares equals 1 for every coupled (j, m)
        for tj1, tj2 in ((1, 1), (2, 1), (3, 2), (4, 4)):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    total = sum(
                        clebsch_gordan_2(tj1, tm1, tj2, tm - tm1, tj, tm) ** 2
                        for tm1 in range(-tj1, tj1 + 1, 2)
                    )
                    assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("tj1,tj2", [(t1, t2) for t1 in range(0, 9) for t2 in range(0, t1 + 1)])
    def test_change_of_basis_orthonormal(self, tj1, tj2):
        # full CG matrix from |m1,m2> to |j,m> is orthogonal (j1, j2 <= 4)
        pairs = [(tm1, tm2) for tm1 in range(-tj1, tj1 + 1, 2) for tm2 in range(-tj2, tj2 + 1, 2)]
        coupled = [
            (tj, tm)
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tm in range(-tj, tj + 1, 2)
        ]
        u = np.array([
            [clebsch_gordan_2(tj1, tm1, tj2, tm2, tj, tm) for (tj, tm) in coupled]
            for (tm1, tm2) in pairs
        ])
        assert u.shape[0] == u.shape[1]
        assert np.abs(u.T @ u - np.eye(len(coupled))).max() < 1e-12


def _random_cg_arguments(rng, count: int, max_two_j: int):
    """Doubled CG arguments with 2j <= max_two_j; about half of them break a selection rule."""
    out = []
    for _ in range(count):
        tj1, tj2 = (int(x) for x in rng.integers(0, max_two_j + 1, size=2))
        tj = int(rng.choice(np.arange(abs(tj1 - tj2), min(tj1 + tj2, max_two_j) + 1, 2)))
        tm1 = int(rng.choice(np.arange(-tj1, tj1 + 1, 2)))
        tm2 = int(rng.choice(np.arange(-tj2, tj2 + 1, 2)))
        tm = tm1 + tm2
        broken = rng.integers(0, 8)
        if broken == 1:    # m mismatch
            tm += 2
        elif broken == 2:  # any j, triangle and parity unchecked
            tj = int(rng.integers(0, max_two_j + 1))
        elif broken == 3:  # wrong parity of m1
            tm1 += 1
        out.append((tj1, tm1, tj2, tm2, tj, tm))
    return out


def _selection_rules_hold(tj1, tm1, tj2, tm2, tj, tm) -> bool:
    return (tm1 + tm2 == tm and abs(tj1 - tj2) <= tj <= tj1 + tj2 and (tj1 + tj2 + tj) % 2 == 0
            and abs(tm1) <= tj1 and abs(tm2) <= tj2 and abs(tm) <= tj
            and (tj1 + tm1) % 2 == 0 and (tj2 + tm2) % 2 == 0 and (tj + tm) % 2 == 0)


class TestIntegerRacahSum:
    """The integer Racah sum against the Fraction one it replaced: equal bytes, signed zeros included."""

    def test_random_arguments_match_fraction_sum(self):
        rng = np.random.default_rng(20241018)
        zeros = {"selection": 0, "accidental": 0}
        for args in _random_cg_arguments(rng, 20000, 60):
            want = fraction_clebsch_gordan_2(*args)
            got = clebsch_gordan_2(*args)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), args
            if want == 0.0:
                zeros["accidental" if _selection_rules_hold(*args) else "selection"] += 1
        # both kinds of zero occur in the sample
        assert zeros["selection"] > 5000 and zeros["accidental"] > 10

    @pytest.mark.parametrize("args", [
        (2, 0, 2, 0, 2, 0),      # <1 0; 1 0 | 1 0>
        (6, 0, 4, 0, 4, 0),      # <3 0; 2 0 | 2 0>, j1 + j2 + j odd
        (3, 1, 3, 1, 4, 2),      # <3/2 1/2; 3/2 1/2 | 2 1>
        (4, -2, 3, 1, 3, -1),    # <2 -1; 3/2 1/2 | 3/2 -1/2>
    ])
    def test_accidental_zeros_are_positive_zero(self, args):
        assert fraction_clebsch_gordan_2(*args) == 0.0
        assert np.float64(clebsch_gordan_2(*args)).tobytes() == np.float64(0.0).tobytes()

    @pytest.mark.parametrize("two_j", list(range(2, 21)))
    def test_embedding_isometry_matches_fraction_sum(self, two_j):
        for t in range(1, two_j):
            ta, tb = t, two_j - t
            want = np.zeros(((ta + 1) * (tb + 1), two_j + 1))
            for ia in range(ta + 1):
                for ib in range(tb + 1):
                    tm = ta - 2 * ia + tb - 2 * ib
                    want[ia * (tb + 1) + ib, (two_j - tm) // 2] = fraction_clebsch_gordan_2(
                        ta, ta - 2 * ia, tb, tb - 2 * ib, two_j, tm)
            assert embedding_isometry(two_j, t).tobytes() == want.tobytes()


def cg_embedding_isometry(two_j, t):
    """Reference isometry: every entry from clebsch_gordan_2, as the Racah-sum loop built it."""
    ta, tb = t, two_j - t
    da, db, d = ta + 1, tb + 1, two_j + 1
    e = np.zeros((da * db, d))
    for ia in range(da):
        tmu = ta - 2 * ia
        for ib in range(db):
            tnu = tb - 2 * ib
            tm = tmu + tnu
            if abs(tm) > two_j:
                continue
            e[ia * db + ib, (two_j - tm) // 2] = clebsch_gordan_2(ta, tmu, tb, tnu, two_j, tm)
    return e


class TestClosedFormEmbedding:
    @pytest.mark.parametrize("two_j", list(range(2, 41)))
    def test_matches_racah_sum_bytes(self, two_j):
        for t in range(1, two_j):
            got = embedding_isometry(two_j, t)
            assert got.tobytes() == cg_embedding_isometry(two_j, t).tobytes(), t
            assert not got.flags.writeable

    def test_is_an_isometry(self):
        for two_j, t in ((7, 3), (40, 1), (40, 20)):
            e = embedding_isometry(two_j, t)
            assert np.abs(e.T @ e - np.eye(two_j + 1)).max() < 1e-13

    def test_out_of_range_bipartition_rejected(self):
        for t in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                embedding_isometry(4, t)


class TestEigenMixture:
    def test_pure_state(self, rng):
        psi = random_pure(SpinLabel(4), rng)
        em = eigen_mixture(psi.density_matrix())
        assert em.rank == 1
        assert em.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(em.states[0].overlap(psi)) - 1.0) < 1e-10

    def test_maximally_mixed_spin1(self):
        em = eigen_mixture(DensityMatrix.maximally_mixed(SpinLabel(2)))
        assert em.rank == 3
        assert np.allclose(em.weights, [1 / 3] * 3, atol=1e-14)

    def test_spin2_family_rank_two(self):
        from rotosense.oqr import spin2_family

        em = eigen_mixture(spin2_family(0.7))
        assert em.rank == 2
        assert np.allclose(em.weights, [0.7, 0.3], atol=1e-12)

    def test_reconstruction(self, rng):
        for two_j in (3, 4, 6):
            rho = random_density(SpinLabel(two_j), rng)
            em = eigen_mixture(rho)
            m = sum(
                w * np.outer(s.amplitudes, s.amplitudes.conj())
                for w, s in zip(em.weights, em.states)
            )
            assert np.abs(m - rho.matrix).max() < 1e-10

    def test_kernel_split(self, rng):
        rho = random_density(SpinLabel(5), rng, rank=2)
        em = eigen_mixture(rho)
        assert em.rank == 2
        assert len(em.kernel_states) == 4
        proj = em.image_projector() + em.kernel_projector()
        assert np.abs(proj - np.eye(6)).max() < 1e-12


class TestInputContracts:
    @pytest.mark.parametrize("axis", [
        [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0], [[0.0, 0.0, 1.0]],
        [1e200, 0.0, 0.0],
    ])
    def test_unit_axis_has_one_checker(self, axis):
        for call in (unit_axis, lambda a: component_along(SpinLabel(2), a), lambda a: AxisAngle(a, 0.1)):
            with pytest.raises(ValueError, match="axis"):
                call(axis)

    @pytest.mark.parametrize("vector", [
        [0.0, 0.0, 0.0], [math.inf, 0.0, 0.0], [math.nan, 0.0, 1.0], [1e200, 1e200, 0.0], [1.0, 2.0],
    ])
    def test_from_vector_checks_before_dividing(self, vector):
        # a division by a zero or infinite norm would warn, and the suite turns warnings into errors
        with pytest.raises(ValueError, match="axis"):
            AxisAngle.from_vector(vector, 0.1)

    def test_from_vector_normalizes(self):
        v = np.array([3.0, -4.0, 12.0])
        assert AxisAngle.from_vector(v, 0.2).axis.tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 1.7e308])
    def test_angles_must_be_finite(self, angle):
        with pytest.raises(ValueError, match="angle"):
            AxisAngle(EZ, angle)
        for angles in ((angle, 0.0, 0.0), (0.0, angle, 0.0), (0.0, 0.0, angle)):
            with pytest.raises(ValueError, match="angle"):
                rotation_operator_euler(SpinLabel(4), *angles)

    def test_eigen_mixture_states_share_its_spin(self):
        states = (PureState.basis_state(SpinLabel(2), 2),)
        with pytest.raises(ValueError, match="spin"):
            EigenMixture(SpinLabel(4), np.array([1.0]), states)
