"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criterion 9's closed-form-attainment clause is expected to fail: the
fixed-axis closed form is an upper bound (the maximum of 4 Tr(rho Jz^2))
that the associated eigenstate assembly does not attain whenever two
positive weights share a +/-m doublet; the bound clause passes.  The
measured gap is printed with the failure.
"""

import math
import time

import numpy as np
import pytest

from rotosense.anticoherence import anticoherence_measure
from rotosense.entanglement import protected_negativity_suite
from rotosense.metrology import (
    averaged_inverse_qfi,
    averaged_qfi,
    fidelity_taylor_check,
    fixed_axis_optimum,
    qfi,
    qfi_from_moments,
    qfi_quadratic_form,
)
from rotosense.multipole import multipole_operator, MultipoleIndex
from rotosense.oqr import (
    pure_coherent_superposition_a2,
    qcrb_floor,
    spin2_family,
    spin2_family_inverse_qfi,
    spin2_family_purity,
    spin32_ghz,
)
from rotosense.spin_core import (
    DensityMatrix,
    PureState,
    SpinLabel,
    component_along,
)
from rotosense.subspaces import (
    SearchConfig,
    catalog,
    construct_one_ac_family,
    construct_two_ac_family,
    one_ac_family_dimension,
    rotation_equivalent,
    search_subspace,
    spin2_plane,
    two_ac_family_dimension,
    upper_bound_kmax,
)
from conftest import random_axis, random_density, random_pure

EZ = np.array([0.0, 0.0, 1.0])


def _verdict(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) - {detail}")
    return status == "PASS"


def test_criterion_1_spin2_family_closed_forms():
    start = time.monotonic()
    worst_purity = worst_inverse = worst_gap = 0.0
    for xi in np.arange(0.20, 1.0001, 0.05):
        xi = float(round(xi, 10))
        rho = spin2_family(xi)
        worst_purity = max(worst_purity, abs(rho.purity - spin2_family_purity(xi)))
        form = qfi_quadratic_form(rho)
        worst_gap = max(worst_gap, form.isotropy_gap)
        inv = averaged_inverse_qfi(rho)
        want = spin2_family_inverse_qfi(xi)
        if math.isinf(want):
            ok_inv = math.isinf(inv)
            worst_inverse = max(worst_inverse, 0.0 if ok_inv else math.inf)
        else:
            worst_inverse = max(worst_inverse, abs(inv - want))
    elapsed = time.monotonic() - start
    ok = worst_purity <= 1e-9 and worst_inverse <= 1e-9 and worst_gap <= 1e-9
    assert _verdict(1, ok, f"purity dev {worst_purity:.1e}, inverse dev {worst_inverse:.1e}, "
                           f"isotropy gap {worst_gap:.1e}", elapsed, 5.0)


def test_criterion_2_spin32_trio():
    start = time.monotonic()
    s = SpinLabel(3)
    p1 = PureState(s, np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
    p2 = PureState(s, np.array([0, -1, 0, 1], dtype=complex) / math.sqrt(2))
    mix = DensityMatrix.from_mixture([0.5, 0.5], [p1, p2])
    v_mix = averaged_inverse_qfi(mix)
    v_ghz = averaged_inverse_qfi(spin32_ghz().density_matrix())
    floor = qcrb_floor(s).inverse_qfi_floor
    elapsed = time.monotonic() - start
    ok = abs(v_mix - 0.25) <= 1e-6 and abs(v_ghz - 0.225) <= 1e-3 and floor == 0.2
    assert _verdict(2, ok, f"2-AC mixture {v_mix:.9f}, GHZ {v_ghz:.9f}, floor {floor}",
                    elapsed, 10.0)


def test_criterion_3_anticoherence_exact_values():
    start = time.monotonic()
    cat = catalog()
    v1 = DensityMatrix.from_mixture([0.5, 0.5], cat["(5/2,2,1)-V1"].frame.basis)
    v2 = DensityMatrix.from_mixture([0.5, 0.5], cat["(5/2,2,1)-V2"].frame.basis)
    d1 = abs(anticoherence_measure(v1, 2) - 63 / 64)
    d2 = abs(anticoherence_measure(v2, 2) - 3 / 32 * (7 * math.sqrt(7) - 8))
    d3 = abs(pure_coherent_superposition_a2(0.5, 0.5, 1 / math.sqrt(2)) - 24 / 25)
    frame = cat["(3,3,1)"].frame
    amp = (0.5 * frame.basis[0].amplitudes + 0.5 * frame.basis[1].amplitudes
           + frame.basis[2].amplitudes / math.sqrt(2))
    d3 = max(d3, abs(anticoherence_measure(PureState(SpinLabel(6), amp).density_matrix(), 2)
                     - 24 / 25))
    elapsed = time.monotonic() - start
    ok = max(d1, d2, d3) <= 1e-12
    assert _verdict(3, ok, f"deviations {d1:.1e}, {d2:.1e}, {d3:.1e}", elapsed, 1.0)


def test_criterion_4_protected_negativity():
    start = time.monotonic()
    rep1 = protected_negativity_suite(spin2_plane(), 1, weight_samples=50, seed=41)
    rep2 = protected_negativity_suite(catalog()["(7/2,2,2)"].frame, 2, weight_samples=50, seed=42)
    elapsed = time.monotonic() - start
    ok = rep1.all_pass and rep2.all_pass
    assert _verdict(
        4, ok,
        f"neg dev {max(rep1.max_negativity_deviation, rep2.max_negativity_deviation):.1e}, "
        f"multiplicities {'ok' if rep1.multiplicities_ok and rep2.multiplicities_ok else 'BAD'}",
        elapsed, 30.0)


def test_criterion_5_constructive_families():
    start = time.monotonic()
    from rotosense.subspaces import objective_g_t

    worst_g1 = 0.0
    dims_ok = True
    for two_j in range(2, 41):
        frame = construct_one_ac_family(SpinLabel(two_j))
        worst_g1 = max(worst_g1, objective_g_t(frame, 1))
        dims_ok = dims_ok and frame.k == one_ac_family_dimension(SpinLabel(two_j))
    worst_g2 = 0.0
    for two_j in range(10, 36):
        frame = construct_two_ac_family(SpinLabel(two_j))
        worst_g2 = max(worst_g2, objective_g_t(frame, 2))
        dims_ok = dims_ok and frame.k == two_ac_family_dimension(SpinLabel(two_j))

    # Table II rows (j = 2, 7/2, 4) and Table III rows (j = 5, 11, 35/2)
    amp_dev = 0.0
    t2 = {
        4: [[(0, 1 / math.sqrt(2)), (4, 1 / math.sqrt(2))], [(2, 1.0)]],
        7: [[(0, 1 / math.sqrt(2)), (7, 1 / math.sqrt(2))],
            [(2, 1 / math.sqrt(2)), (5, 1 / math.sqrt(2))]],
        8: [[(0, 1 / math.sqrt(2)), (8, 1 / math.sqrt(2))],
            [(2, 1 / math.sqrt(2)), (6, 1 / math.sqrt(2))], [(4, 1.0)]],
    }
    for two_j, rows in t2.items():
        frame = construct_one_ac_family(SpinLabel(two_j))
        for state, entries in zip(frame.basis, rows):
            want = np.zeros(two_j + 1)
            for pos, val in entries:
                want[pos] = val
            amp_dev = max(amp_dev, float(np.abs(state.amplitudes - want).max()))
    t3 = {
        10: [[(0, 1 / math.sqrt(7)), (3, math.sqrt(5 / 14)),
              (7, math.sqrt(5 / 14)), (10, 1 / math.sqrt(7))]],
        22: [[(0, math.sqrt(19) / (8 * math.sqrt(3))), (6, math.sqrt(77) / (8 * math.sqrt(3))),
              (16, math.sqrt(77) / (8 * math.sqrt(3))), (22, math.sqrt(19) / (8 * math.sqrt(3)))],
             [(3, math.sqrt(2) / math.sqrt(6)), (9, 1 / math.sqrt(6)),
              (13, 1 / math.sqrt(6)), (19, math.sqrt(2) / math.sqrt(6))]],
        35: [[(0, math.sqrt(107) / (6 * math.sqrt(39))), (9, math.sqrt(595) / (6 * math.sqrt(39))),
              (26, math.sqrt(595) / (6 * math.sqrt(39))), (35, math.sqrt(107) / (6 * math.sqrt(39)))],
             [(3, math.sqrt(233) / (6 * math.sqrt(30))), (12, math.sqrt(307) / (6 * math.sqrt(30))),
              (23, math.sqrt(307) / (6 * math.sqrt(30))), (32, math.sqrt(233) / (6 * math.sqrt(30)))],
             [(6, math.sqrt(305) / (6 * math.sqrt(21))), (15, math.sqrt(73) / (6 * math.sqrt(21))),
              (20, math.sqrt(73) / (6 * math.sqrt(21))), (29, math.sqrt(305) / (6 * math.sqrt(21)))]],
    }
    for two_j, rows in t3.items():
        frame = construct_two_ac_family(SpinLabel(two_j))
        for state, entries in zip(frame.basis, rows):
            want = np.zeros(two_j + 1)
            for pos, val in entries:
                want[pos] = val
            amp_dev = max(amp_dev, float(np.abs(state.amplitudes - want).max()))
    elapsed = time.monotonic() - start
    ok = worst_g1 <= 1e-10 and worst_g2 <= 1e-10 and dims_ok and amp_dev <= 1e-10
    assert _verdict(5, ok, f"G1 {worst_g1:.1e}, G2 {worst_g2:.1e}, dims "
                           f"{'ok' if dims_ok else 'BAD'}, table dev {amp_dev:.1e}",
                    elapsed, 60.0)


SEARCH_HITS = [(4, 2, 1), (6, 3, 1), (9, 4, 1), (7, 2, 2), (10, 2, 2), (14, 3, 2)]
SEARCH_MISSES = [(2, 2, 1), (3, 2, 1), (8, 2, 2), (9, 2, 2)]
_search_results = {}


def test_criterion_6_search_regression():
    start = time.monotonic()
    ok = True
    details = []
    for two_j, k, t in SEARCH_HITS:
        result = search_subspace(SpinLabel(two_j), k, t, SearchConfig(seed=987001, restarts=64))
        _search_results[(two_j, k, t)] = result
        if not (result.found and result.certificate.objective_value <= 1e-10):
            ok = False
            details.append(f"missed ({two_j/2},{k},{t})")
    for two_j, k, t in SEARCH_MISSES:
        result = search_subspace(SpinLabel(two_j), k, t, SearchConfig(seed=987002, restarts=64))
        _search_results[(two_j, k, t)] = result
        if result.found:
            ok = False
            details.append(f"unexpected ({two_j/2},{k},{t})")

    plane = spin2_plane()
    worst_residual = 0.0
    for seed in range(20):
        found = search_subspace(SpinLabel(4), 2, 1, SearchConfig(seed=55000 + seed, restarts=8))
        if not found.found:
            ok = False
            details.append(f"(2,2,1) miss at seed {seed}")
            continue
        eq = rotation_equivalent(found.certificate.frame, plane, starts=16, seed=seed)
        worst_residual = max(worst_residual, eq.residual)
        if not eq.equivalent:
            ok = False
            details.append(f"(2,2,1) seed {seed} inequivalent, residual {eq.residual:.1e}")
    elapsed = time.monotonic() - start
    assert _verdict(6, ok, f"hits+misses per pattern; uniqueness residual {worst_residual:.1e}"
                           + ("; " + "; ".join(details) if details else ""),
                    elapsed, 900.0)


def test_criterion_7_bound_consistency():
    start = time.monotonic()
    ok = True
    for (two_j, k, t), result in _search_results.items():
        if result.found:
            ok = ok and k <= upper_bound_kmax(SpinLabel(two_j), t)
    # at t = 1 the bound floor(j) is attained at j = 2, 3, 9/2
    for two_j, k in ((4, 2), (6, 3), (9, 4)):
        bound = upper_bound_kmax(SpinLabel(two_j), 1)
        attained = _search_results.get((two_j, k, 1))
        ok = ok and bound == k and attained is not None and attained.found
    elapsed = time.monotonic() - start
    assert _verdict(7, ok, "all successes within floor((2j-t+1)/(t+1)); "
                           "t=1 bound attained at j=2, 3, 9/2", elapsed, 10.0)


def test_criterion_8_property_suites(rng):
    start = time.monotonic()
    # pure-state QFI reduces to 4x variance
    worst_pure = 0.0
    for _ in range(200):
        s = SpinLabel(int(rng.integers(1, 9)))
        psi = random_pure(s, rng)
        ax = random_axis(rng)
        jn = component_along(s, ax)
        mean = np.vdot(psi.amplitudes, jn @ psi.amplitudes).real
        mean2 = np.vdot(psi.amplitudes, jn @ jn @ psi.amplitudes).real
        worst_pure = max(worst_pure, abs(qfi(psi.density_matrix(), ax) - 4 * (mean2 - mean**2)))
    # the two algebraic QFI forms agree on random mixed states
    worst_forms = 0.0
    for _ in range(60):
        s = SpinLabel(int(rng.integers(1, 8)))
        rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension + 1)))
        ax = random_axis(rng)
        worst_forms = max(worst_forms, abs(qfi(rho, ax) - qfi_from_moments(rho, ax)))
    # multipole orthonormality and adjoint symmetry up to j = 8
    worst_multipole = 0.0
    for two_j in range(1, 17):
        s = SpinLabel(two_j)
        idx = [MultipoleIndex(L, M) for L in range(two_j + 1) for M in range(-L, L + 1)]
        stack = np.stack([multipole_operator(s, i) for i in idx])
        gram = np.einsum("aij,bij->ab", stack.conj(), stack)
        worst_multipole = max(worst_multipole, float(np.abs(gram - np.eye(len(idx))).max()))
        pos = {(i.L, i.M): n for n, i in enumerate(idx)}
        for n, i in enumerate(idx):
            adj = np.abs(stack[n].conj().T - (-1) ** i.M * stack[pos[(i.L, -i.M)]]).max()
            worst_multipole = max(worst_multipole, float(adj))
    # fidelity-Taylor consistency at eta = 1e-3
    worst_taylor = 0.0
    for rho in (PureState.basis_state(SpinLabel(2), 0).density_matrix(),
                spin2_family(0.6),
                spin32_ghz().density_matrix()):
        rep = fidelity_taylor_check(rho, random_axis(rng), [1e-3])
        worst_taylor = max(worst_taylor, rep.max_relative_residual)
    # Jensen inequality on random mixed states
    jensen_ok = True
    for _ in range(200):
        s = SpinLabel(int(rng.integers(2, 7)))
        rho = random_density(s, rng, rank=int(rng.integers(1, s.dimension + 1)))
        inv = averaged_inverse_qfi(rho)
        avg = averaged_qfi(rho)
        if math.isfinite(inv) and avg > 0:
            jensen_ok = jensen_ok and inv >= 1.0 / avg - 1e-9
    elapsed = time.monotonic() - start
    ok = (worst_pure <= 1e-10 and worst_forms <= 1e-9 and worst_multipole <= 1e-12
          and worst_taylor <= 1e-4 and jensen_ok)
    assert _verdict(8, ok, f"pure {worst_pure:.1e}, forms {worst_forms:.1e}, multipole "
                           f"{worst_multipole:.1e}, taylor {worst_taylor:.1e}, "
                           f"jensen {'ok' if jensen_ok else 'BAD'}", elapsed, 120.0)


def test_criterion_9_brute_force_never_exceeds(rng):
    start = time.monotonic()
    ok = True
    worst_excess = -math.inf
    for two_j in (2, 3, 5, 8):
        s = SpinLabel(two_j)
        k = int(rng.integers(2, s.dimension + 1))
        lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        opt = fixed_axis_optimum(s, lam)
        for _ in range(250):
            x = rng.normal(size=(s.dimension, s.dimension)) + 1j * rng.normal(
                size=(s.dimension, s.dimension))
            q, _ = np.linalg.qr(x)
            rho = DensityMatrix(s, (q[:, :k] * lam) @ q[:, :k].conj().T)
            excess = qfi(rho, EZ) - opt.max_qfi
            worst_excess = max(worst_excess, excess)
            ok = ok and excess <= 1e-9
    elapsed = time.monotonic() - start
    assert _verdict(9, ok, f"1000-sample brute force, worst excess {worst_excess:.3e} "
                           "(bound clause)", elapsed, 120.0)


def test_criterion_9_closed_form_attained(rng):
    # Kept exactly as specified; fails because the closed form is only an
    # upper bound for rank >= 2 spectra (see achieved-value test in
    # test_metrology.py for the value the assembly actually attains).
    start = time.monotonic()
    worst_gap = 0.0
    for two_j in (2, 3, 5, 8):
        s = SpinLabel(two_j)
        k = int(rng.integers(2, s.dimension + 1))
        lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        opt = fixed_axis_optimum(s, lam)
        worst_gap = max(worst_gap, abs(opt.achieved_qfi - opt.max_qfi))
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-10
    assert _verdict(9, ok, f"closed-form attainment clause, worst |achieved - value| = "
                           f"{worst_gap:.3e}", elapsed, 120.0), (
        "the fixed-axis closed form is an upper bound, not attained by the "
        f"associated eigenstate assembly for rank >= 2 spectra (gap {worst_gap:.3e})"
    )
