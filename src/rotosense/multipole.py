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
to M < 0 by the adjoint symmetry.  `expand` and `reconstruct` read these
diagonals directly, one pass per offset M, so no dense matrix of the full L
range is ever built.  Dense matrices are written from the diagonals into
fresh zero arrays; `multipole_stack` is the one cache of them, kept for the
consumers of the low sectors L <= t (the subspace objective and search,
`verify_subspace`, `is_anticoherent`).  No Clebsch-Gordan coefficient is
cached.
"""

from __future__ import annotations

import cmath
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
    anticoherence checks and the subspace objective, where whole low L
    sectors are consumed at once.  Cached; do not mutate the result.
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
    """Coefficients rho_LM of an operator in the T_LM basis; keys may also be (L, M) pairs."""

    spin: SpinLabel
    coefficients: Dict[MultipoleIndex, complex] = field(repr=False)

    def __post_init__(self):
        coeffs = {key if isinstance(key, MultipoleIndex) else MultipoleIndex(*key): complex(value)
                  for key, value in dict(self.coefficients).items()}
        for idx, c in coeffs.items():
            idx.validate_for(self.spin)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at (L={idx.L}, M={idx.M}) not finite")
            mirror = coeffs.get(MultipoleIndex(idx.L, -idx.M), 0.0)
            if abs(np.conj(c) - (-1) ** idx.M * mirror) > CONJUGATION_TOL:
                raise ValueError(
                    f"conjugation symmetry violated at (L={idx.L}, M={idx.M}): "
                    "rho_LM* must equal (-1)^M rho_L,-M for a Hermitian operator"
                )
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _of_density_matrix(cls, spin: SpinLabel, coefficients: Dict[MultipoleIndex, complex]):
        """The expansion of a validated DensityMatrix, not checked again: the coefficient asymmetry
        its Hermiticity gate admits reaches about sqrt(2j+1) HERMITICITY_TOL > CONJUGATION_TOL."""
        expansion = object.__new__(cls)
        object.__setattr__(expansion, "spin", spin)
        object.__setattr__(expansion, "coefficients", coefficients)
        return expansion

    def coefficient(self, L: int, M: int) -> complex:
        return self.coefficients.get(MultipoleIndex(L, M), 0.0 + 0.0j)

    def sector_weight(self, L: int) -> float:
        """Sum of |rho_LM|^2 over M for one L."""
        return float(sum(abs(self.coefficient(L, M)) ** 2 for M in range(-L, L + 1)))

    def operator(self) -> np.ndarray:
        """sum rho_LM T_LM, each diagonal offset summed in the expansion's order into one zero matrix."""
        two_j = self.spin.two_j
        d = two_j + 1
        diagonals: Dict[int, np.ndarray] = {}
        with np.errstate(over="ignore"):  # an overflowing sum is reported below
            for idx, c in self.coefficients.items():
                lo, hi = max(idx.M, 0), min(d, d + idx.M)
                acc = diagonals.get(idx.M)
                if acc is None:
                    acc = diagonals[idx.M] = np.zeros(hi - lo, dtype=complex)
                acc += c * _sector(two_j, idx.L)[idx.L + idx.M, lo:hi]
        m = np.zeros((d, d), dtype=complex)
        for M, acc in diagonals.items():
            b = np.arange(max(M, 0), min(d, d + M))
            m[b - M, b] = acc
        if not np.isfinite(m).all():
            raise ValueError("operator not finite: a sum of coefficients overflows")
        return m


def expand(rho: DensityMatrix) -> MultipoleExpansion:
    """Hilbert-Schmidt components rho_LM = Tr(rho T_LM^dag), gathered per diagonal offset M.

    Tr(rho T_LM^dag) is the sum over rows i of rho[i, i + M] T_LM[i, i + M]:
    for each M the diagonal of rho at offset M, zero-padded to length 2j+1 at
    the rows the diagonal misses, is multiplied by row L + M of every sector
    with L >= |M|, and each product is summed over all 2j+1 rows.
    """
    two_j = rho.spin.two_j
    d = two_j + 1
    table = np.zeros((d, 2 * d - 1), dtype=complex)  # rho_LM at [L, M + 2j]
    for M in range(-two_j, two_j + 1):
        lo, hi = max(M, 0), min(d, d + M)  # columns b of the diagonal; its row is i = b - M
        rows = np.array([_sector(two_j, L)[L + M, lo:hi] for L in range(abs(M), d)])
        terms = np.zeros((len(rows), d), dtype=complex)
        terms[:, lo - M:hi - M] = np.diagonal(rho.matrix, M) * rows
        table[abs(M):, M + two_j] = terms.sum(axis=-1)
    values = table.tolist()
    coeffs = {MultipoleIndex(L, M): values[L][M + two_j] for L in range(d) for M in range(-L, L + 1)}
    return MultipoleExpansion._of_density_matrix(rho.spin, coeffs)


def reconstruct(expansion: MultipoleExpansion) -> DensityMatrix:
    """Sum rho_LM T_LM; raises if the result is not a valid density matrix."""
    return DensityMatrix(expansion.spin, expansion.operator())
