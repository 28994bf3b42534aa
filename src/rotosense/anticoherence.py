"""Anticoherence measures and mixed anticoherent-state constructions.

A spin-j state is t-anticoherent (t-AC) when all multipole expectations
<T_LM> vanish for 1 <= L <= t, equivalently when the reduced state of any t
of the N = 2j symmetric qubits is maximally mixed.  The measure

    A_t(rho) = (t+1)/t * [1 - Tr(rho_t^2)]

interpolates between 0 (spin-coherent) and 1 (t-AC).  Reduced states are
computed in the coupled spin-(t/2) (x) spin-(j-t/2) picture, never in the
2^N qubit space, and read off rho entry by entry without forming the
embedded operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

from .multipole import MultipoleExpansion, MultipoleIndex, multipole_expectations, multipole_operator
from .spin_core import DensityMatrix, SpinLabel, _derived, _partial_trace, check_count

ANTICOHERENCE_TOL = 1e-8
MEASURE_TOL = 1e-9


def reduced_state(rho: DensityMatrix, t: int) -> DensityMatrix:
    """State of t symmetric qubits after tracing out the other N - t, in the spin-t/2 basis (descending m),
    gathered from rho by `spin_core._partial_trace` without forming the embedded operator; not checked again."""
    t = check_count("t", t, 1)
    return _derived(DensityMatrix, spin=SpinLabel(t), matrix=_partial_trace(rho.matrix, t))


def anticoherence_measure(rho: DensityMatrix, t: int) -> float:
    """A_t(rho) = (t+1)/t [1 - Tr(rho_t^2)], in [0, 1]."""
    rt = reduced_state(rho, t)
    return float((t + 1) / t * (1.0 - rt.purity))


@dataclass(frozen=True)
class AnticoherenceCheck:
    max_violation: float

    @property
    def holds(self) -> bool:
        """Every multipole expectation of order 1..t at the gate ANTICOHERENCE_TOL."""
        return self.max_violation <= ANTICOHERENCE_TOL


def is_anticoherent(rho: DensityMatrix, t: int) -> AnticoherenceCheck:
    """The largest |Tr(rho T_LM)| for L = 1..t, all M, gated on ANTICOHERENCE_TOL.

    Only L <= 2j sectors exist; higher requested orders add no conditions,
    matching the moment definition (J_n^K moments with K > 2j are spanned by
    the lower ones).
    """
    l_max = min(check_count("order t", t, 1), rho.spin.two_j)
    if l_max < 1:
        return AnticoherenceCheck(0.0)
    return AnticoherenceCheck(float(np.abs(multipole_expectations(rho.matrix, l_max)).max()))


@dataclass(frozen=True)
class AnticoherenceReport:
    orders: Dict[int, float]

    def __post_init__(self):
        bad = {t: v for t, v in self.orders.items() if not -1e-12 <= v <= 1.0 + 1e-12}
        if bad:
            raise ValueError(f"anticoherence measures out of [0, 1]: {bad}")

    @property
    def certified_order(self) -> int:
        """The largest t with A_1..A_t all within MEASURE_TOL of 1."""
        certified = 0
        while self.orders.get(certified + 1, -1.0) >= 1.0 - MEASURE_TOL:
            certified += 1
        return certified


def anticoherence_report(rho: DensityMatrix) -> AnticoherenceReport:
    """A_t for t = 1..2j-1, certified up to the largest t with A_1..A_t all at 1 within MEASURE_TOL."""
    n = rho.spin.qubit_count
    if n < 2:
        raise ValueError("anticoherence measures need N = 2j >= 2")
    return AnticoherenceReport({t: anticoherence_measure(rho, t) for t in range(1, n)})


# ---------------------------------------------------------------------------
# Mixed anticoherent constructions
# ---------------------------------------------------------------------------

def perturbed_anticoherent_state(
    spin: SpinLabel,
    excluded_sectors: Iterable[int],
    coefficients: Mapping,
    epsilon: Union[float, str] = "max",
) -> DensityMatrix:
    """rho_0 + eps * sum A_LM T_LM with the excluded L sectors left empty.

    The perturbation must be Hermitian (conj(A_LM) = (-1)^M A_L,-M).  With
    epsilon="max" the largest admissible step eps = 1/((2j+1) |lam_min(A)|)
    is used, which drives the smallest eigenvalue of the state to zero; a
    zero perturbation gives rho_0 at any admissible epsilon.  A
    state built this way has vanishing <T_LM> on every excluded sector, so
    excluding {1..t} yields a t-AC mixed state.
    """
    excluded = {check_count("excluded sector", L, 1) for L in excluded_sectors}
    if any(L > spin.two_j for L in excluded):
        raise ValueError("excluded sectors must satisfy 1 <= L <= 2j")
    expansion = MultipoleExpansion(spin, coefficients)
    for idx in expansion.coefficients:
        if idx.L in excluded or idx.L < 1:
            raise ValueError(f"coefficient at L={idx.L} lies in an excluded or invalid sector")
    d = spin.dimension
    a = expansion.operator()
    if isinstance(epsilon, bool):
        raise ValueError(f"epsilon must be 'max' or a finite number >= 0, not a bool, got {epsilon!r}")
    if epsilon != "max":
        eps = float(epsilon)
    elif np.abs(a).max() == 0.0:
        eps = 0.0  # no perturbation: rho_0 itself
    else:
        lam_min = float(np.linalg.eigvalsh(a)[0])
        if lam_min >= 0:
            raise ValueError("perturbation has no negative eigenvalue; epsilon='max' undefined")
        eps = 1.0 / (d * abs(lam_min))
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {eps}")
    with np.errstate(over="ignore"):  # DensityMatrix rejects an overflowed state
        return DensityMatrix(spin, np.eye(d, dtype=complex) / d + eps * a)


def spin32_two_ac_positivity_bound(c0: float, c1: float, c2: float, phi: float) -> float:
    """Largest admissible w for the spin-3/2 octupole family."""
    x = _octupole_x(c0, c1, c2, phi)
    return math.sqrt(5.0) / (2.0 * math.sqrt(5.0 + 2.0 * math.sqrt(x)))


def _octupole_x(c0: float, c1: float, c2: float, phi: float) -> float:
    return (
        2 * c1**2 * (-2 * math.sqrt(30) * c2 * c0 * math.cos(2 * phi) + 8 * c0**2 + 15 * c2**2)
        + 21 * c1**4
        + 4 * c0**2 * (c0**2 + 10 * c2**2)
    )


def spin32_two_ac_family(
    w: float, c0: float, c1: float, c2: float, phi: float
) -> Tuple[DensityMatrix, np.ndarray]:
    """Two-anticoherent spin-3/2 mixed states: 1/4 + octupole sector only.

    rho = 1/4 + w [c0 T_30 + c1 (e^{i phi} T_31 - e^{-i phi} T_3,-1)
                   + c2 (T_32 + T_3,-2)]

    with c0^2 + 2 c1^2 + 2 c2^2 = 1.  Returns the state and its eigenvalues
    in the closed form 1/4 +- (w/2) sqrt(1 +- (2/5) sqrt(X)), sorted
    ascending.  Purity is 1/4 + w^2.
    """
    norm = c0**2 + 2 * c1**2 + 2 * c2**2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"c0^2 + 2 c1^2 + 2 c2^2 = {norm:.12g}, expected 1")
    bound = spin32_two_ac_positivity_bound(c0, c1, c2, phi)
    if w < 0 or w > bound + 1e-12:
        raise ValueError(f"w={w} violates the positivity bound w <= {bound:.12g}")
    spin = SpinLabel(3)
    t = lambda L, M: multipole_operator(spin, MultipoleIndex(L, M))
    m = np.eye(4, dtype=complex) / 4
    m = m + w * (
        c0 * t(3, 0)
        + c1 * (np.exp(1j * phi) * t(3, 1) - np.exp(-1j * phi) * t(3, -1))
        + c2 * (t(3, 2) + t(3, -2))
    )
    x = _octupole_x(c0, c1, c2, phi)
    root = 2.0 / 5.0 * math.sqrt(x)
    eigenvalues = np.sort(
        [0.25 + s1 * (w / 2.0) * math.sqrt(max(1.0 + s2 * root, 0.0)) for s1 in (1, -1) for s2 in (1, -1)]
    )
    return DensityMatrix(spin, m), eigenvalues
