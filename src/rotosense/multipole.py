"""Orthonormal multipole (polarization) operator basis T_LM.

The operators are built from Clebsch-Gordan coefficients,

    <j,m'| T_LM |j,m> = sqrt((2L+1)/(2j+1)) <j,m; L,M | j,m'>,

which makes them orthonormal under the Hilbert-Schmidt inner product,
traceless for L >= 1, and adjoint-symmetric, T_LM^dag = (-1)^M T_{L,-M}.
Any spin-j operator expands uniquely in this basis; for density matrices the
L = 0 coefficient is pinned to 1/sqrt(2j+1).

Since m' = m + M, T_LM has one non-zero diagonal.  Only that diagonal is
stored: each L sector is a (2L+1, 2j+1) array, row L + M holding the
diagonal at offset M by row, built once per (2j, L).  The rows M >= 0 come
from `spin_core._multipole_row`, which runs the exact Racah sum of
`clebsch_gordan_2` (`spin_core._racah_cg`) with factorials from one table,
takes the row's constant factors once, and mirrors half of each row onto
the other by the symmetry of <j m; L M | j m+M> under m -> -m-M, bit for
bit.  Rows M < 0 are mirrored from M > 0 by the adjoint symmetry.  `expand`
and `reconstruct` read these diagonals directly, so no dense matrix of the
full L range is ever built: `expand` multiplies each sector by the
diagonals of rho laid out the same way, one product and one row sum per L;
`MultipoleExpansion.operator` scales each term's row and adds the rows of
each offset M in the expansion's own order.  The low sectors L <= t of the
search, `objective_g_t` and `is_anticoherent` go through one band kernel:
psi T_LM is a gather of psi times a row of values, T_LM psi^dag comes from
those products and Tr(rho T_LM) is a band sum.  Dense matrices are written
from the diagonals into fresh zero arrays; their cached view `multipole_stack`
is on no library path.  No Clebsch-Gordan coefficient is cached.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .spin_core import DensityMatrix, SpinLabel, _derived, _multipole_row, _readonly, _trim_factorials, check_count

CONJUGATION_TOL = 1e-12


@dataclass(frozen=True, order=True)
class MultipoleIndex:
    L: int
    M: int

    def __post_init__(self):
        # numpy integers become ints, so the Racah sums of `_sector` never run in int64
        try:
            L = check_count("L", self.L, 0)
            M = check_count("M", self.M, -L)
        except ValueError:
            L = M = None
        if L is None or M > L:
            raise ValueError(f"invalid multipole index (L={self.L!r}, M={self.M!r}): "
                             "L and M must be integers with |M| <= L")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "M", M)

    def validate_for(self, spin: SpinLabel):
        if self.L > spin.two_j:
            raise ValueError(f"L={self.L} exceeds 2j={spin.two_j}")


@lru_cache(maxsize=None)
def _sector(two_j: int, L: int) -> np.ndarray:
    """Diagonals of T_L,-L ... T_L,L: row L + M holds T_LM[i, i + M] at column i.

    Entries whose column i + M falls outside the matrix are zero.
    """
    d = two_j + 1
    pref = np.sqrt((2 * L + 1) / d)
    out = np.zeros((2 * L + 1, d))
    for M in range(L + 1):
        out[L + M, :d - M] = pref * np.array(_multipole_row(two_j, L, M))
    for M in range(1, L + 1):
        # T_L,-M[i, i - M] = (-1)^M T_LM[i - M, i]; + 0.0 turns -0.0 into the +0.0 a zero sum gives
        out[L - M, M:] = (-1) ** M * out[L + M, :d - M] + 0.0
    _trim_factorials()
    return _readonly(out)


@lru_cache(maxsize=None)
def _diagonal_index(two_j: int) -> np.ndarray:
    """Flat positions i * d + i + M of the entries [i, i + M], at row M + 2j and column i.

    Entries whose column i + M falls outside the matrix point at d * d, one
    past the last entry of a flattened matrix.
    """
    d = two_j + 1
    i = np.arange(d)
    offsets = np.arange(-two_j, two_j + 1)[:, None]
    return _readonly(np.where((0 <= i + offsets) & (i + offsets < d), i * d + i + offsets, d * d))


@lru_cache(maxsize=None)
def _keys(two_j: int) -> Tuple[MultipoleIndex, ...]:
    """Every MultipoleIndex of spin two_j / 2, L ascending and M ascending within each L."""
    return tuple(MultipoleIndex(L, M) for L in range(two_j + 1) for M in range(-L, L + 1))


def _fill(out: np.ndarray, two_j: int, L: int, M: int) -> np.ndarray:
    """Write the diagonal of T_LM into the zero matrix `out` and return it."""
    d = two_j + 1
    i = np.arange(max(-M, 0), min(d, d - M))
    out[i, i + M] = _sector(two_j, L)[L + M, i]
    return out


def multipole_operator(spin: SpinLabel, index: MultipoleIndex) -> np.ndarray:
    """T_LM as a (2j+1) x (2j+1) matrix, freshly built from its stored diagonal."""
    index.validate_for(spin)
    d = spin.dimension
    return _fill(np.zeros((d, d), dtype=complex), spin.two_j, index.L, index.M)


@lru_cache(maxsize=None)
def multipole_stack(two_j: int, l_min: int, l_max: int) -> np.ndarray:
    """All T_LM for l_min <= L <= l_max, (L, M) ascending, as dense matrices stacked along the first axis:
    the view for callers and tests, where the library reads the band kernel.  Cached; do not mutate it."""
    if not 0 <= l_min <= l_max <= two_j:
        raise ValueError(f"invalid L range [{l_min}, {l_max}] for two_j={two_j}")
    indices = [(L, M) for L in range(l_min, l_max + 1) for M in range(-L, L + 1)]
    out = np.zeros((len(indices), two_j + 1, two_j + 1), dtype=complex)
    for k, (L, M) in enumerate(indices):
        _fill(out[k], two_j, L, M)
    return _readonly(out)


@lru_cache(maxsize=None)
def _band(two_j: int, t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of the T_a, 1 <= L <= t, (L, M) ascending: column e of T_a holds values[a, e] in row
    columns[a, e] = e - M, or zero, reading row 0, where that row is outside; mirror[a] is the index of
    T_L,-M and signs[a, 0] is (-1)^M."""
    if not 1 <= t <= two_j:
        raise ValueError(f"invalid L range [1, {t}] for two_j={two_j}")
    offsets = np.concatenate([np.arange(-L, L + 1) for L in range(1, t + 1)])
    rows = np.arange(two_j + 1) - offsets[:, None]
    columns = np.where((0 <= rows) & (rows <= two_j), rows, 0)
    values = np.take_along_axis(np.concatenate([_sector(two_j, L) for L in range(1, t + 1)]), columns, axis=1)
    return (_readonly(columns), _readonly(np.where(columns == rows, values, 0.0).astype(complex)),
            _readonly(np.arange(offsets.size) - 2 * offsets), _readonly((1 - 2 * (offsets % 2))[:, None]))


def multipole_products(psi: np.ndarray, t: int) -> np.ndarray:
    """psi T_a for a (..., k, 2j+1) frame stack psi, 1 <= L <= t, (L, M) ascending: one gather of psi times
    one row of values per T_a, C-contiguous (..., k, A, 2j+1), the numbers of psi @ [T_1 ... T_A]."""
    columns, values, _, _ = _band(psi.shape[-1] - 1, t)
    return psi.take(columns, axis=-1) * values


def adjoint_products(products: np.ndarray, t: int) -> np.ndarray:
    """[..., j, a, e] = (T_a psi^dag)[e, j] from `multipole_products(psi, t)`, as (-1)^M conj(psi T_L,-M)."""
    _, _, mirror, signs = _band(products.shape[-1] - 1, t)
    return products[..., mirror, :].conj() * signs


def multipole_expectations(matrix: np.ndarray, t: int) -> np.ndarray:
    """Tr(rho T_a), 1 <= L <= t, (L, M) ascending: sum_e T_a[e - M, e] rho[e, e - M], added in sequence."""
    columns, values, _, _ = _band(matrix.shape[-1] - 1, t)
    return np.einsum("ae,ae->a", values, matrix[np.arange(matrix.shape[-1]), columns])


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

    def coefficient(self, L: int, M: int) -> complex:
        return self.coefficients.get(MultipoleIndex(L, M), 0.0 + 0.0j)

    def sector_weight(self, L: int) -> float:
        """Sum of |rho_LM|^2 over M for one L."""
        return float(sum(abs(self.coefficient(L, M)) ** 2 for M in range(-L, L + 1)))

    def operator(self) -> np.ndarray:
        """sum rho_LM T_LM, gathered per diagonal offset M.

        Each term c * T_LM is the row L + M of its sector scaled by c, in the
        layout of `_sector`.  The terms are grouped by M in the expansion's
        own order, and each group is added row after row, as `acc += term`
        into a zero row would; + 0.0 keeps that row's +0.0 where every term
        is -0.0, whether np.add.reduce starts from +0.0 or from the first
        row.  Only the sectors of the L values present are read.
        """
        two_j = self.spin.two_j
        d = two_j + 1
        flat = np.zeros(d * d + 1, dtype=complex)  # the last slot takes what falls outside the matrix
        if self.coefficients:
            L = np.fromiter((idx.L for idx in self.coefficients), int, len(self.coefficients))
            M = np.fromiter((idx.M for idx in self.coefficients), int, len(self.coefficients))
            present = np.flatnonzero(np.bincount(L))  # np.unique would load numpy.ma
            first = np.zeros(d, dtype=int)  # row of T_L,-L among the stacked sectors present
            first[present] = np.cumsum(2 * present + 1) - (2 * present + 1)
            order = np.argsort(M, kind="stable")
            rows = np.concatenate([_sector(two_j, l) for l in present.tolist()])[(first[L] + L + M)[order]]
            coeffs = np.fromiter(self.coefficients.values(), complex, len(L))[order]
            offsets, starts = np.unique(M[order], return_index=True)
            with np.errstate(over="ignore"):  # an overflowing sum is reported below
                products = coeffs[:, None] * rows
                sums = [np.add.reduce(group, axis=0) for group in np.split(products, starts[1:])]
            flat[_diagonal_index(two_j)[offsets + two_j]] = np.array(sums) + 0.0
        m = flat[:-1].reshape(d, d)
        if not np.isfinite(m).all():
            raise ValueError("operator not finite: a sum of coefficients overflows")
        return m


def expand(rho: DensityMatrix) -> MultipoleExpansion:
    """Hilbert-Schmidt components rho_LM = Tr(rho T_LM^dag), gathered per sector L.

    Tr(rho T_LM^dag) is the sum over rows i of rho[i, i + M] T_LM[i, i + M].
    The diagonals of rho are laid out as the sectors are, row M + 2j holding
    rho[i, i + M] at column i and zero where i + M falls outside the matrix;
    each sector L is multiplied by the 2L + 1 rows of its offsets, and each
    product row is summed over all 2j + 1 columns.  The expansion is not
    checked again: the coefficient asymmetry that rho's Hermiticity gate
    admits reaches about sqrt(2j+1) HERMITICITY_TOL > CONJUGATION_TOL.
    """
    two_j = rho.spin.two_j
    d = two_j + 1
    diagonals = np.append(rho.matrix.ravel(), 0.0)[_diagonal_index(two_j)]
    values = np.concatenate([
        (diagonals[two_j - L:two_j + L + 1] * _sector(two_j, L)).sum(axis=-1) for L in range(d)
    ]).tolist()
    return _derived(MultipoleExpansion, spin=rho.spin, coefficients=dict(zip(_keys(two_j), values)))


def reconstruct(expansion: MultipoleExpansion) -> DensityMatrix:
    """Sum rho_LM T_LM; raises if the result is not a valid density matrix."""
    return DensityMatrix(expansion.spin, expansion.operator())
