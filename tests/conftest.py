import math
from fractions import Fraction

import numpy as np
import pytest

from rotosense.spin_core import DensityMatrix, PureState, SpinLabel


def random_pure(spin: SpinLabel, rng) -> PureState:
    amp = rng.normal(size=spin.dimension) + 1j * rng.normal(size=spin.dimension)
    return PureState.from_unnormalized(spin, amp)


def random_density(spin: SpinLabel, rng, rank=None) -> DensityMatrix:
    d = spin.dimension
    rank = d if rank is None else rank
    x = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = x @ x.conj().T
    return DensityMatrix(spin, m / np.trace(m).real)


def random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def fraction_clebsch_gordan_2(tj1, tm1, tj2, tm2, tj, tm) -> float:
    """Reference CG: the Racah sum added term by term in Fraction arithmetic."""
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    def f(tx):  # factorial of tx/2; tx is even and >= 0 here
        return math.factorial(tx // 2)

    prefactor = Fraction(
        (tj + 1) * f(tj1 + tj2 - tj) * f(tj1 - tj2 + tj) * f(-tj1 + tj2 + tj),
        f(tj1 + tj2 + tj + 2),
    ) * (
        f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2) * f(tj + tm) * f(tj - tm)
    )
    zmin = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    zmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for z in range(zmin, zmax + 1):
        denom = (
            math.factorial(z)
            * f(tj1 + tj2 - tj - 2 * z)
            * f(tj1 - tm1 - 2 * z)
            * f(tj2 + tm2 - 2 * z)
            * f(tj - tj2 + tm1 + 2 * z)
            * f(tj - tj1 - tm2 + 2 * z)
        )
        total += Fraction((-1) ** z, denom)
    if total == 0:
        return 0.0
    magnitude = math.sqrt(prefactor * total * total)
    return magnitude if total > 0 else -magnitude


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
