import math
from functools import lru_cache

import numpy as np
import pytest

from rotosense import multipole, spin_core
from rotosense.multipole import (
    MultipoleExpansion,
    MultipoleIndex,
    expand,
    multipole_operator,
    multipole_stack,
    reconstruct,
)
from rotosense.spin_core import (
    DensityMatrix,
    PureState,
    SpinLabel,
    angular_momentum_operators,
)
from conftest import fraction_clebsch_gordan_2, ladder_operators, random_density, serial_sector


def all_indices(two_j):
    return [MultipoleIndex(L, M) for L in range(two_j + 1) for M in range(-L, L + 1)]


def dense_expand(rho):
    """Reference expansion: each rho_LM as Tr(rho T_LM^dag) against the full dense stack."""
    coeffs = {}
    ts = multipole_stack(rho.spin.two_j, 0, rho.spin.two_j)
    for L in range(0, rho.spin.two_j + 1):
        for M in range(-L, L + 1):
            t = ts[L * L + L + M]
            coeffs[MultipoleIndex(L, M)] = complex(np.trace(rho.matrix @ t.conj().T))
    return MultipoleExpansion(rho.spin, coeffs)


def dense_reconstruct(expansion):
    """Reference reconstruction: rho_LM T_LM added in the expansion's order from the full dense stack."""
    d = expansion.spin.dimension
    m = np.zeros((d, d), dtype=complex)
    ts = multipole_stack(expansion.spin.two_j, 0, expansion.spin.two_j)
    for idx, c in expansion.coefficients.items():
        m += c * ts[idx.L * idx.L + idx.L + idx.M]
    return DensityMatrix(expansion.spin, m)


def coefficient_bytes(expansion):
    return list(expansion.coefficients), np.array(list(expansion.coefficients.values())).tobytes()


def assert_gathers_match_dense(rho):
    exp = expand(rho)
    assert coefficient_bytes(exp) == coefficient_bytes(dense_expand(rho))
    assert reconstruct(exp).matrix.tobytes() == dense_reconstruct(exp).matrix.tobytes()


def dense_t_lm(two_j, L, M):
    """Reference T_LM: every one of the d^2 entries from the Fraction Racah sum."""
    d = two_j + 1
    out = np.zeros((d, d), dtype=complex)
    pref = np.sqrt((2 * L + 1) / d)
    for a in range(d):          # row: m'
        tmp = two_j - 2 * a
        for b in range(d):      # column: m
            tmm = two_j - 2 * b
            out[a, b] = pref * fraction_clebsch_gordan_2(two_j, tmm, 2 * L, 2 * M, two_j, tmp)
    return out


class TestOperators:
    @pytest.mark.parametrize("two_j", list(range(0, 21)))
    def test_stored_diagonals_match_dense_fraction_build(self, two_j):
        # the same bytes, signed zeros included, from the operator and from the stack
        s = SpinLabel(two_j)
        stack = multipole_stack(two_j, 0, two_j)
        for k, idx in enumerate(all_indices(two_j)):
            want = dense_t_lm(two_j, idx.L, idx.M).tobytes()
            assert multipole_operator(s, idx).tobytes() == want, idx
            assert stack[k].tobytes() == want, idx


    def test_t00_is_scaled_identity(self):
        for two_j in (1, 4, 9):
            t = multipole_operator(SpinLabel(two_j), MultipoleIndex(0, 0))
            assert np.allclose(t, np.eye(two_j + 1) / math.sqrt(two_j + 1), atol=1e-14)

    def test_t10_proportional_to_jz(self):
        for two_j in (1, 2, 5, 8):
            s = SpinLabel(two_j)
            _, _, jz = angular_momentum_operators(s)
            j = s.j
            c = math.sqrt(3.0 / (s.dimension * j * (j + 1)))
            t = multipole_operator(s, MultipoleIndex(1, 0))
            assert np.abs(t - c * jz).max() < 1e-13

    def test_traceless_above_l0(self):
        s = SpinLabel(6)
        for idx in all_indices(6):
            tr = np.trace(multipole_operator(s, idx))
            if idx.L == 0:
                assert abs(tr - math.sqrt(7)) < 1e-12
            else:
                assert abs(tr) < 1e-13

    @pytest.mark.parametrize("two_j", list(range(1, 17)))
    def test_orthonormality_and_adjoint(self, two_j):
        # Hilbert-Schmidt orthonormality and T_LM^dag = (-1)^M T_L,-M for j <= 8
        s = SpinLabel(two_j)
        idx = all_indices(two_j)
        stack = np.stack([multipole_operator(s, i) for i in idx])
        gram = np.einsum("aij,bij->ab", stack.conj(), stack)
        assert np.abs(gram - np.eye(len(idx))).max() < 1e-12
        lookup = {(i.L, i.M): k for k, i in enumerate(idx)}
        for k, i in enumerate(idx):
            mirror = stack[lookup[(i.L, -i.M)]]
            assert np.abs(stack[k].conj().T - (-1) ** i.M * mirror).max() < 1e-12

    def test_ladder_proportionalities(self):
        # ratio to the J products is a real constant on the support; the
        # Condon-Shortley convention fixes its sign to (-1)^M for M > 0
        for two_j in (2, 3, 4, 8):
            s = SpinLabel(two_j)
            _, _, jz = angular_momentum_operators(s)
            jp, jm = ladder_operators(s)
            refs = {
                (1, 1): (jp, -1), (1, -1): (jm, +1),
                (2, 2): (jp @ jp, +1), (2, -2): (jm @ jm, +1),
                (2, 1): (jz @ jp + jp @ jz, -1), (2, -1): (jz @ jm + jm @ jz, +1),
            }
            for (L, M), (ref, sign) in refs.items():
                t = multipole_operator(s, MultipoleIndex(L, M))
                mask = np.abs(ref) > 1e-10
                ratio = t[mask] / ref[mask]
                assert np.abs(ratio - ratio[0]).max() < 1e-12
                assert abs(ratio[0].imag) < 1e-13
                assert sign * ratio[0].real > 0

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            MultipoleIndex(2, 3)
        with pytest.raises(ValueError):
            multipole_operator(SpinLabel(2), MultipoleIndex(3, 0))

    def test_numpy_integer_index_becomes_int(self):
        # with an empty cache a numpy L would reach the integer Racah sum of
        # _sector, which overflows int64 at 2j = 20, L = 10
        multipole._sector.cache_clear()
        index = MultipoleIndex(np.int64(10), np.int64(1))
        assert (type(index.L), type(index.M)) == (int, int)
        assert index == MultipoleIndex(10, 1) and hash(index) == hash(MultipoleIndex(10, 1))
        got = multipole_operator(SpinLabel(20), index)
        multipole._sector.cache_clear()
        assert got.tobytes() == multipole_operator(SpinLabel(20), MultipoleIndex(10, 1)).tobytes()
        assert type(MultipoleIndex(np.uint8(3), np.int8(-2)).M) is int

    @pytest.mark.parametrize("L, M", [(True, 0), (1, False), (1.0, 0), (1, 0.0), ("1", 0), (None, 0)])
    def test_non_integer_index_rejected(self, L, M):
        with pytest.raises(ValueError, match="must be integers"):
            MultipoleIndex(L, M)

    def test_stack_is_cached_and_readonly(self):
        a = multipole_stack(4, 1, 2)
        b = multipole_stack(4, 1, 2)
        assert a is b
        assert not a.flags.writeable


class TestExpansion:
    def test_maximally_mixed_is_pure_l0(self):
        exp = expand(DensityMatrix.maximally_mixed(SpinLabel(5)))
        assert exp.coefficient(0, 0) == pytest.approx(1 / math.sqrt(6), abs=1e-14)
        for L in range(1, 6):
            assert exp.sector_weight(L) < 1e-28

    def test_two_ac_spin32_lives_in_octupole_sector(self, rng):
        from rotosense.anticoherence import spin32_two_ac_family

        c = rng.random(3)
        c /= math.sqrt(c[0] ** 2 + 2 * c[1] ** 2 + 2 * c[2] ** 2)
        rho, _ = spin32_two_ac_family(0.2, *c, phi=0.9)
        exp = expand(rho)
        assert exp.sector_weight(1) < 1e-28
        assert exp.sector_weight(2) < 1e-28
        assert exp.sector_weight(3) > 1e-4

    def test_coherent_state_is_axial(self):
        s = SpinLabel(6)
        rho = PureState.basis_state(s, 6).density_matrix()  # |3,3>
        exp = expand(rho)
        for L in range(0, 7):
            for M in range(-L, L + 1):
                c = exp.coefficient(L, M)
                if M != 0:
                    assert abs(c) < 1e-14
                else:
                    assert abs(c.imag) < 1e-14
            assert abs(exp.coefficient(L, 0)) > 1e-10  # every L present for |j,j>

    def test_round_trip_random(self, rng):
        for _ in range(100):
            two_j = int(rng.integers(1, 7))
            rho = random_density(SpinLabel(two_j), rng)
            back = reconstruct(expand(rho))
            assert np.abs(back.matrix - rho.matrix).max() < 1e-10

    def test_unit_trace_pins_l0_coefficient(self, rng):
        for two_j in (1, 3, 6):
            rho = random_density(SpinLabel(two_j), rng)
            c00 = expand(rho).coefficient(0, 0)
            assert c00 == pytest.approx(1 / math.sqrt(two_j + 1), abs=1e-13)

    def test_reconstruct_pure_l0(self):
        s = SpinLabel(4)
        exp = MultipoleExpansion(s, {MultipoleIndex(0, 0): 1 / math.sqrt(5)})
        rho = reconstruct(exp)
        assert np.allclose(rho.matrix, np.eye(5) / 5, atol=1e-14)

    def test_reconstruct_octupole_parametrization(self):
        # w=1/2, c2=1/sqrt2 point: doubly degenerate spectrum (0,0,1/2,1/2)
        # with the (1,0,1,0)/sqrt2 and (0,-1,0,1)/sqrt2 eigenvectors
        s = SpinLabel(3)
        w, c2 = 0.5, 1 / math.sqrt(2)
        exp = MultipoleExpansion(s, {
            MultipoleIndex(0, 0): 0.5,
            MultipoleIndex(3, 2): w * c2,
            MultipoleIndex(3, -2): w * c2,
        })
        rho = reconstruct(exp)
        lam, vec = np.linalg.eigh(rho.matrix)
        assert np.allclose(lam, [0, 0, 0.5, 0.5], atol=1e-12)
        top = vec[:, 2:]
        expected = np.array([[1, 0, 1, 0], [0, -1, 0, 1]], dtype=complex).T / math.sqrt(2)
        overlap = expected.conj().T @ top
        assert np.allclose(overlap @ overlap.conj().T, np.eye(2), atol=1e-12)

    def test_reconstruct_rejects_non_psd(self):
        s = SpinLabel(2)
        exp = MultipoleExpansion(s, {
            MultipoleIndex(0, 0): 1 / math.sqrt(3),
            MultipoleIndex(1, 0): 2.0,
        })
        with pytest.raises(ValueError, match="PSD"):
            reconstruct(exp)

    def test_conjugation_symmetry_enforced(self):
        with pytest.raises(ValueError, match="conjugation"):
            MultipoleExpansion(SpinLabel(2), {MultipoleIndex(1, 1): 1.0 + 0j})
        with pytest.raises(ValueError, match="conjugation"):
            MultipoleExpansion(SpinLabel(2), {(1, 1): 1.0 + 0j})

    def test_tuple_keys_accepted(self):
        exp = MultipoleExpansion(SpinLabel(2), {(0, 0): 3**-0.5})
        assert exp.coefficients == {MultipoleIndex(0, 0): 3**-0.5 + 0j}
        assert np.allclose(reconstruct(exp).matrix, np.eye(3) / 3, atol=1e-15)
        with pytest.raises(ValueError, match="invalid multipole index"):
            MultipoleExpansion(SpinLabel(2), {(1, 2): 0.0})
        with pytest.raises(ValueError, match="exceeds"):
            MultipoleExpansion(SpinLabel(2), {(3, 0): 0.0})


class TestGathersMatchDenseStack:
    """expand and reconstruct read the stored diagonals; the dense-stack versions they replaced are the oracle."""

    @pytest.mark.parametrize("two_j", list(range(0, 21)))
    def test_every_small_spin(self, two_j):
        s = SpinLabel(two_j)
        rng = np.random.default_rng(20241100 + two_j)
        states = [random_density(s, rng), random_density(s, rng, rank=1),
                  DensityMatrix.maximally_mixed(s), PureState.basis_state(s, two_j).density_matrix()]
        x = rng.normal(size=(s.dimension, s.dimension))
        states.append(DensityMatrix(s, x @ x.T / np.trace(x @ x.T)))  # real entries: zero imaginary parts
        for rho in states:
            assert_gathers_match_dense(rho)

    @pytest.mark.parametrize("two_j", [32, 40])
    def test_large_spins(self, two_j):
        rng = np.random.default_rng(20241132 + two_j)
        for rank in (None, 3):
            assert_gathers_match_dense(random_density(SpinLabel(two_j), rng, rank=rank))

    @pytest.mark.parametrize("two_j", [7, 40])
    def test_non_canonical_order(self, two_j):
        # the terms of one offset are added in the expansion's own order
        rng = np.random.default_rng(20241207 + two_j)
        items = list(expand(random_density(SpinLabel(two_j), rng)).coefficients.items())
        for order in (items[::-1], [items[k] for k in rng.permutation(len(items))]):
            exp = MultipoleExpansion(SpinLabel(two_j), dict(order))
            assert reconstruct(exp).matrix.tobytes() == dense_reconstruct(exp).matrix.tobytes()

    def test_hand_built_sparse_expansion(self):
        w, c2 = 0.5, 1 / math.sqrt(2)
        exp = MultipoleExpansion(SpinLabel(3), {(3, 2): w * c2, (0, 0): 0.5, (3, -2): w * c2})
        assert reconstruct(exp).matrix.tobytes() == dense_reconstruct(exp).matrix.tobytes()

    def test_no_dense_stack_at_large_spin(self, rng):
        before = multipole_stack.cache_info()
        rho = random_density(SpinLabel(80), rng, rank=4)
        back = reconstruct(expand(rho))
        assert multipole_stack.cache_info() == before
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12


class TestExpandAtTheHermiticityGate:
    @pytest.mark.parametrize("two_j", [4, 10, 40])
    def test_every_accepted_density_matrix_expands(self, two_j):
        # an anti-Hermitian part of 0.9e-12 passes DensityMatrix, yet its L = 1
        # coefficients miss the conjugation symmetry by more than CONJUGATION_TOL
        d = two_j + 1
        m = np.eye(d, dtype=complex) / d
        i = np.arange(d - 1)
        m[i, i + 1] += 0.45e-12j
        m[i + 1, i] += 0.45e-12j
        rho = DensityMatrix(SpinLabel(two_j), m)
        exp = expand(rho)
        assert np.abs(reconstruct(exp).matrix - m).max() < 1e-15
        # a hand-built expansion is still held to CONJUGATION_TOL
        with pytest.raises(ValueError, match="conjugation"):
            MultipoleExpansion(rho.spin, exp.coefficients)

    def test_non_finite_and_overflowing_coefficients_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            MultipoleExpansion(SpinLabel(2), {(0, 0): math.nan})
        with pytest.raises(ValueError, match="not finite"):
            MultipoleExpansion(SpinLabel(2), {(1, 0): math.inf})
        big = MultipoleExpansion(SpinLabel(4), {(2, 0): 1.7e308, (3, 0): 1.7e308, (4, 0): 1.7e308})
        with pytest.raises(ValueError, match="overflows"):
            reconstruct(big)


def sequential_operator(expansion):
    """Reference operator: acc += c * T_LM in the expansion's order, from one dense operator at a time."""
    d = expansion.spin.dimension
    m = np.zeros((d, d), dtype=complex)
    for idx, c in expansion.coefficients.items():
        m += c * multipole_operator(expansion.spin, idx)
    return m


def assert_no_negative_zero(m):
    for part in (m.real, m.imag):
        assert not np.signbit(part[part == 0]).any()


class TestOperatorEdges:
    def test_cancelling_terms_give_positive_zero(self):
        # at 2j = 4 the odd-L sectors vanish at m = 0, so there the terms below are all -0.0
        s = SpinLabel(4)
        exp = MultipoleExpansion(s, {(1, 0): -0.5, (3, 0): -0.25})
        op = exp.operator()
        assert op[2, 2] == 0
        assert_no_negative_zero(op)
        assert op.tobytes() == sequential_operator(exp).tobytes()
        # two products x * y and -(y * x) cancel exactly at [0, 0]
        s = SpinLabel(2)
        t10 = multipole_operator(s, MultipoleIndex(1, 0))[0, 0].real
        t20 = multipole_operator(s, MultipoleIndex(2, 0))[0, 0].real
        exp = MultipoleExpansion(s, {(1, 0): t20, (2, 0): -t10})
        op = exp.operator()
        assert op[0, 0] == 0
        assert_no_negative_zero(op)
        assert op.tobytes() == sequential_operator(exp).tobytes()

    @pytest.mark.parametrize("two_j", [0, 1, 2])
    def test_smallest_spins_round_trip(self, rng, two_j):
        s = SpinLabel(two_j)
        for rho in (random_density(s, rng), DensityMatrix.maximally_mixed(s),
                    PureState.basis_state(s, two_j).density_matrix()):
            exp = expand(rho)
            assert list(exp.coefficients) == all_indices(two_j)
            back = reconstruct(exp)
            assert np.abs(back.matrix - rho.matrix).max() < 1e-15
            assert back.matrix.tobytes() == dense_reconstruct(exp).matrix.tobytes()

    def test_sparse_expansion_builds_only_its_sectors(self, monkeypatch):
        # a fresh cache of the same builder, so the count does not depend on what ran before
        fresh = lru_cache(maxsize=None)(multipole._sector.__wrapped__)
        monkeypatch.setattr(multipole, "_sector", fresh)
        s = SpinLabel(80)
        exp = MultipoleExpansion(s, {(0, 0): 1 / 9, (3, 0): 0.01, (5, 2): 0.002 + 0.001j, (5, -2): 0.002 - 0.001j})
        op = exp.operator()
        assert fresh.cache_info().misses == 3  # L = 0, 3 and 5 of the 81 sectors
        assert op.tobytes() == sequential_operator(exp).tobytes()


class TestSectorsMatchTheSerialOracle:
    """Each sector, built from shared row factors and mirrored half rows, has the bytes of the
    sector built one Clebsch-Gordan coefficient at a time."""

    @pytest.mark.parametrize("two_j", list(range(0, 41)))
    def test_every_sector_up_to_two_j_40(self, two_j):
        for L in range(two_j + 1):
            assert multipole._sector.__wrapped__(two_j, L).tobytes() == serial_sector(two_j, L).tobytes(), L

    @pytest.mark.parametrize("L", [0, 1, 2, 40, 79, 80])
    def test_sectors_at_two_j_80(self, L):
        assert multipole._sector.__wrapped__(80, L).tobytes() == serial_sector(80, L).tobytes()

    def test_cold_build_grows_the_factorial_table(self, monkeypatch):
        monkeypatch.setattr(spin_core, "_FACTORIALS", [1])
        for L in range(6):
            assert multipole._sector.__wrapped__(5, L).tobytes() == serial_sector(5, L).tobytes()
        grown = len(spin_core._FACTORIALS)
        assert grown == 5 + 5 + 2  # k! for k <= 2j + L + 1 at the largest L
        for L in (0, 40, 80):
            assert multipole._sector.__wrapped__(80, L).tobytes() == serial_sector(80, L).tobytes()
        assert len(spin_core._FACTORIALS) == 80 + 80 + 2
        assert all(f == math.factorial(k) for k, f in enumerate(spin_core._FACTORIALS))
