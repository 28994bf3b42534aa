"""Property test of the library API: generated axes, angles, coefficient maps and counts.

Every call must return finite values or raise ValueError or TypeError: never
another exception (such as numpy's LinAlgError), a NaN result or a
RuntimeWarning.  The examples are derandomized, so the suite stays
deterministic.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotosense import (
    AxisAngle,
    DensityMatrix,
    MultipoleExpansion,
    MultipoleIndex,
    PureState,
    SearchConfig,
    SpinLabel,
    component_along,
    fidelity_taylor_check,
    perturbed_anticoherent_state,
    qfi,
    qfi_quadratic_form,
    rotation_operator,
    rotation_operator_euler,
)
from rotosense.metrology import qfi_from_moments
from rotosense.oqr import spin2_family, spin32_ghz, spin3_oqr_family

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

STATES = (
    spin2_family(0.7),
    spin3_oqr_family(0.2),
    spin32_ghz().density_matrix(),
    DensityMatrix.maximally_mixed(SpinLabel(1)),
    PureState.basis_state(SpinLabel(5), 5).density_matrix(),
)
states = st.sampled_from(STATES)
spins = st.sampled_from([SpinLabel(two_j) for two_j in (0, 1, 2, 3, 4, 7)])

special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-160, 1e200, 1.7e308, -1.7e308])
reals = st.one_of(st.floats(-2, 2), st.floats(allow_nan=True, allow_infinity=True), special,
                  st.integers(-2, 2), st.booleans())


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    norm = np.linalg.norm(v)
    return list(v / norm) if norm > 0.1 else [0.0, 0.0, 1.0]


# unit axes, finite or not, zero, of the wrong shape, bools, and values that are no vector
axes = st.one_of(
    unit_vectors(),
    st.lists(reals, min_size=3, max_size=3),
    st.lists(reals, max_size=5),
    st.sampled_from([None, True, 1.0, "x", "1,0,0", [[0.0, 0.0, 1.0]], [True, False, False], {}]),
)
angles = st.one_of(st.floats(-7, 7), reals, st.sampled_from([None, "x", "0.5", 1j, [0.1]]))
counts = st.one_of(st.integers(-3, 2**40), st.booleans(), special, st.sampled_from([None, "1", 1.5, [1]]),
                   st.integers(0, 5).map(np.int64))


def outcome(call, *args, **kwargs):
    """call's result, or None when it raises ValueError or TypeError; a RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(*args, **kwargs)
        except (ValueError, TypeError):
            return None


def finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in values)


@FUZZ
@given(rho=states, axis=axes)
def test_axis_consumers(rho, axis):
    for call in (qfi, qfi_from_moments, lambda r, a: qfi_quadratic_form(r).evaluate(a)):
        value = outcome(call, rho, axis)
        assert value is None or math.isfinite(value), (call, axis)
    jn = outcome(component_along, rho.spin, axis)
    assert jn is None or finite(jn), axis


@FUZZ
@given(rho=states, axis=axes, etas=st.lists(st.one_of(st.floats(-0.1, 0.1), reals), max_size=3))
def test_fidelity_taylor_check(rho, axis, etas):
    report = outcome(fidelity_taylor_check, rho, axis, etas)
    assert report is None or finite(report.fidelity_deficits, report.max_relative_residual), (axis, etas)


@FUZZ
@given(spin=spins, axis=axes, angle=angles, normalize=st.booleans())
def test_axis_angle(spin, axis, angle, normalize):
    rotation = outcome(AxisAngle.from_vector if normalize else AxisAngle, axis, angle)
    if rotation is not None:
        assert finite(rotation.axis, rotation.angle)
        assert abs(np.linalg.norm(rotation.axis) - 1.0) <= 1e-12
        u = rotation_operator(spin, rotation)
        assert finite(u) and np.abs(u @ u.conj().T - np.eye(spin.dimension)).max() < 1e-10


@FUZZ
@given(spin=spins, alpha=angles, beta=angles, gamma=angles)
def test_rotation_operator_euler(spin, alpha, beta, gamma):
    u = outcome(rotation_operator_euler, spin, alpha, beta, gamma)
    assert u is None or finite(u), (alpha, beta, gamma)


keys = st.one_of(
    st.tuples(st.integers(-1, 8), st.integers(-8, 8)),
    st.tuples(st.integers(0, 8), st.integers(-8, 8)).map(lambda k: MultipoleIndex(k[0], max(-k[0], min(k[0], k[1])))),
    st.sampled_from([5, "ab", (1,), (1, 0, 0), (1.5, 0.5), (True, False), None]),
)
values = st.one_of(st.complex_numbers(max_magnitude=2), st.complex_numbers(allow_nan=True, allow_infinity=True),
                   reals, st.sampled_from([None, "1", "x"]))


@st.composite
def coefficient_maps(draw):
    """Coefficient maps, most of them conjugation-symmetric, some with junk keys, values or shapes."""
    coeffs = {}
    for _ in range(draw(st.integers(0, 5))):
        key, value = draw(keys), draw(values)
        coeffs[key] = value
        if isinstance(key, tuple) and len(key) == 2 and draw(st.booleans()):
            L, M = key
            try:
                coeffs[(L, -M)] = (-1) ** M * complex(value).conjugate()
            except (TypeError, ValueError, ZeroDivisionError):
                pass
    return coeffs if draw(st.integers(0, 9)) else draw(st.sampled_from([list(coeffs.items()), [1, 2], "ab", None]))


@FUZZ
@given(spin=spins, coefficients=coefficient_maps())
def test_multipole_expansion(spin, coefficients):
    expansion = outcome(MultipoleExpansion, spin, coefficients)
    if expansion is not None:
        assert finite(list(expansion.coefficients.values()))
        matrix = outcome(expansion.operator)
        assert matrix is None or finite(matrix)


@FUZZ
@given(spin=spins, coefficients=coefficient_maps(),
       excluded=st.one_of(st.sets(st.integers(-1, 8), max_size=3), st.sampled_from([None, ["a"], [1.5]])),
       epsilon=st.one_of(st.just("max"), st.floats(0, 0.05), reals, st.sampled_from(["x", None, "0.01"])))
def test_perturbed_anticoherent_state(spin, coefficients, excluded, epsilon):
    rho = outcome(perturbed_anticoherent_state, spin, excluded, coefficients, epsilon)
    assert rho is None or isinstance(rho, DensityMatrix)


@FUZZ
@given(seed=counts, restarts=st.one_of(st.integers(-2, 64), counts))
def test_search_config(seed, restarts):
    config = outcome(SearchConfig, seed=seed, restarts=restarts)
    if config is not None:
        assert not isinstance(config.seed, bool) and not isinstance(config.restarts, bool)
        assert config.seed >= 0 and config.restarts >= 1
        assert np.random.SeedSequence(config.seed).spawn(1)
