"""Orthonormal multipole (polarization) operator basis T_LM.

The operators are built from Clebsch-Gordan coefficients,

    <j,m'| T_LM |j,m> = sqrt((2L+1)/(2j+1)) <j,m; L,M | j,m'>,

which makes them orthonormal under the Hilbert-Schmidt inner product,
traceless for L >= 1, and adjoint-symmetric, T_LM^dag = (-1)^M T_{L,-M}.
Any spin-j operator expands uniquely in this basis; for density matrices the
L = 0 coefficient is pinned to 1/sqrt(2j+1).

Since m' = m + M, T_LM has one non-zero diagonal.  Only that diagonal is
stored: each L sector is a (2L+1, 2j+1) array, built once per (2j, L) from
the integer Racah sum of `spin_core.clebsch_gordan_2` for M >= 0 and mirrored
to M < 0 by the adjoint symmetry.  Dense matrices are written from the
diagonals into fresh zero arrays; `multipole_stack` is the one cache of
dense matrices, and no Clebsch-Gordan coefficient is cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict

import numpy as np

from .spin_core import DensityMatrix, SpinLabel, _readonly, clebsch_gordan_2

CONJUGATION_TOL = 1e-12


@dataclass(frozen=True, order=True)
class MultipoleIndex:
    L: int
    M: int

    def __post_init__(self):
        if self.L < 0 or abs(self.M) > self.L:
            raise ValueError(f"invalid multipole index (L={self.L}, M={self.M})")

    def validate_for(self, spin: SpinLabel):
        if self.L > spin.two_j:
            raise ValueError(f"L={self.L} exceeds 2j={spin.two_j}")


@lru_cache(maxsize=None)
def _sector(two_j: int, L: int) -> np.ndarray:
    """Diagonals of T_L,-L ... T_L,L: row L + M holds T_LM[b - M, b] at column b.

    Entries whose row b - M falls outside the matrix are zero.
    """
    d = two_j + 1
    pref = np.sqrt((2 * L + 1) / d)
    out = np.zeros((2 * L + 1, d))
    for M in range(L + 1):
        out[L + M, M:] = pref * np.array([
            clebsch_gordan_2(two_j, two_j - 2 * b, 2 * L, 2 * M, two_j, two_j - 2 * b + 2 * M)
            for b in range(M, d)
        ])
    for M in range(1, L + 1):
        # T_L,-M[b + M, b] = (-1)^M T_LM[b, b + M]; + 0.0 turns -0.0 into the +0.0 a zero sum gives
        out[L - M, :d - M] = (-1) ** M * out[L + M, M:] + 0.0
    return _readonly(out)


def _fill(out: np.ndarray, two_j: int, L: int, M: int) -> np.ndarray:
    """Write the diagonal of T_LM into the zero matrix `out` and return it."""
    d = two_j + 1
    b = np.arange(max(M, 0), min(d, d + M))
    out[b - M, b] = _sector(two_j, L)[L + M, b]
    return out


def multipole_operator(spin: SpinLabel, index: MultipoleIndex) -> np.ndarray:
    """T_LM as a (2j+1) x (2j+1) matrix, freshly built from its stored diagonal."""
    index.validate_for(spin)
    d = spin.dimension
    return _fill(np.zeros((d, d), dtype=complex), spin.two_j, index.L, index.M)


@lru_cache(maxsize=None)
def multipole_stack(two_j: int, l_min: int, l_max: int) -> np.ndarray:
    """All T_LM for l_min <= L <= l_max stacked along the first axis.

    Index order is (L, M) with M ascending within each L; used by the
    anticoherence checks and the subspace objective, where whole L sectors
    are consumed at once.  Cached; do not mutate the result.
    """
    if not 0 <= l_min <= l_max <= two_j:
        raise ValueError(f"invalid L range [{l_min}, {l_max}] for two_j={two_j}")
    indices = [(L, M) for L in range(l_min, l_max + 1) for M in range(-L, L + 1)]
    out = np.zeros((len(indices), two_j + 1, two_j + 1), dtype=complex)
    for k, (L, M) in enumerate(indices):
        _fill(out[k], two_j, L, M)
    return _readonly(out)


@dataclass(frozen=True)
class MultipoleExpansion:
    """Coefficients rho_LM of an operator in the T_LM basis."""

    spin: SpinLabel
    coefficients: Dict[MultipoleIndex, complex] = field(repr=False)

    def __post_init__(self):
        coeffs = dict(self.coefficients)
        for idx, c in coeffs.items():
            idx.validate_for(self.spin)
            mirror = coeffs.get(MultipoleIndex(idx.L, -idx.M), 0.0)
            if abs(np.conj(c) - (-1) ** idx.M * mirror) > CONJUGATION_TOL:
                raise ValueError(
                    f"conjugation symmetry violated at (L={idx.L}, M={idx.M}): "
                    "rho_LM* must equal (-1)^M rho_L,-M"
                )
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, L: int, M: int) -> complex:
        return self.coefficients.get(MultipoleIndex(L, M), 0.0 + 0.0j)

    def sector_weight(self, L: int) -> float:
        """Sum of |rho_LM|^2 over M for one L."""
        return float(sum(abs(self.coefficient(L, M)) ** 2 for M in range(-L, L + 1)))


def expand(rho: DensityMatrix) -> MultipoleExpansion:
    """Hilbert-Schmidt components rho_LM = Tr(rho T_LM^dag)."""
    coeffs = {}
    ts = multipole_stack(rho.spin.two_j, 0, rho.spin.two_j)
    for L in range(0, rho.spin.two_j + 1):
        for M in range(-L, L + 1):
            t = ts[L * L + L + M]
            coeffs[MultipoleIndex(L, M)] = complex(np.trace(rho.matrix @ t.conj().T))
    return MultipoleExpansion(rho.spin, coeffs)


def reconstruct(expansion: MultipoleExpansion) -> DensityMatrix:
    """Sum rho_LM T_LM; raises if the result is not a valid density matrix."""
    d = expansion.spin.dimension
    m = np.zeros((d, d), dtype=complex)
    ts = multipole_stack(expansion.spin.two_j, 0, expansion.spin.two_j)
    for idx, c in expansion.coefficients.items():
        m += c * ts[idx.L * idx.L + idx.L + idx.M]
    return DensityMatrix(expansion.spin, m)
