"""File formats: state files, subspace files, run manifests, CSV emission.

All complex numbers are stored as [re, im] pairs and all amplitude vectors
in descending-m order.  CSV numbers use fixed 15-significant-digit
scientific notation so identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy

from .spin_core import DensityMatrix, PureState, SpinLabel, check_count
from .subspaces import SubspaceFrame

TOOL_VERSION = "rotosense 0.1.0"


def _pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_pairs(v: np.ndarray) -> List[List[float]]:
    return [_pair(z) for z in v]


def _from_pairs(pairs, depth: int = 1) -> np.ndarray:
    """Complex array from [re, im] pairs nested in `depth` levels of lists."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise ValueError("expected " + "a list of " * depth + "[re, im] pairs")
    re, im = arr[..., 0], arr[..., 1]
    # the bits of re + 1j * im, without its 0 * im, which warns on an infinite im
    return np.stack([re + np.copysign(0.0, im), im + 0.0], axis=-1).view(complex)[..., 0]


def format_float(x: float) -> str:
    """Fixed 15-significant-digit scientific notation ('inf' for infinities)."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.14e}"


def write_csv(path: Union[str, Path], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_json(path: Union[str, Path]) -> Dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def _field(data: Dict, name: str, parse=None):
    """data[name], or parse(data[name]); a missing field, or one parse rejects, raises ValueError naming it."""
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    if parse is None:
        return data[name]
    try:
        return parse(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def _write_json(path: Union[str, Path], payload: Dict, manifest: Optional["RunManifest"]) -> None:
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def save_state(path: Union[str, Path], state: Union[PureState, DensityMatrix],
               manifest: Optional["RunManifest"] = None) -> None:
    if isinstance(state, PureState):
        payload = {
            "two_j": state.spin.two_j,
            "kind": "pure",
            "amplitudes": _vector_pairs(state.amplitudes),
        }
    else:
        payload = {
            "two_j": state.spin.two_j,
            "kind": "mixed-matrix",
            "matrix": [_vector_pairs(row) for row in state.matrix],
        }
    _write_json(path, payload, manifest)


def load_state(path: Union[str, Path]) -> DensityMatrix:
    """Read a state file of any kind and return it as a density matrix.

    Raises ValueError naming the violated invariant for malformed input.
    """
    data = _read_json(path)
    spin = SpinLabel(_field(data, "two_j"))
    kind = _field(data, "kind")
    if kind == "pure":
        return _field(data, "amplitudes", lambda a: PureState(spin, _from_pairs(a))).density_matrix()
    if kind == "mixed-eigen":
        weights = _field(data, "weights", lambda w: np.asarray(w, dtype=float))
        states = _field(data, "states", lambda rows: [PureState(spin, a) for a in _from_pairs(rows, 2)])
        return DensityMatrix.from_mixture(weights, states)
    if kind == "mixed-matrix":
        return DensityMatrix(spin, _field(data, "matrix", lambda m: _from_pairs(m, 2)))
    raise ValueError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# Subspace files
# ---------------------------------------------------------------------------

def _check_objective(objective) -> float:
    """`objective` as a float, checked to be a finite number >= 0 (G_t is a finite sum of squares), not a bool."""
    if (isinstance(objective, bool) or not isinstance(objective, (int, float, np.integer, np.floating))
            or not 0 <= objective <= sys.float_info.max):
        raise ValueError(f"objective must be a number, finite and >= 0, got {objective!r}")
    return float(objective)


def save_subspace(path: Union[str, Path], frame: SubspaceFrame, t: int,
                  objective: float, seed: Optional[int],
                  manifest: Optional["RunManifest"] = None) -> None:
    payload = {
        "two_j": frame.spin.two_j,
        "k": frame.k,
        "t": check_count("t", t, 1),
        "basis": [_vector_pairs(s.amplitudes) for s in frame.basis],
        "objective": _check_objective(objective),
        "seed": None if seed is None else check_count("seed", seed, 0),
    }
    _write_json(path, payload, manifest)


@dataclass(frozen=True, eq=False)
class SubspaceFileContent:
    frame: SubspaceFrame
    t: int
    objective: float
    seed: Optional[int]


def load_subspace(path: Union[str, Path]) -> SubspaceFileContent:
    """Read a subspace file; `k` and `t` must be integers >= 1, `objective` a
    finite number >= 0 and `seed` null or an integer >= 0 (a file without `seed` reads as null)."""
    data = _read_json(path)
    spin = SpinLabel(_field(data, "two_j"))
    k, t, objective = (_field(data, name) for name in ("k", "t", "objective"))
    check_count("k", k, 1)
    check_count("t", t, 1)
    basis = _field(data, "basis", lambda rows: tuple(PureState(spin, a) for a in _from_pairs(rows, 2)))
    frame = SubspaceFrame(spin, basis)
    if frame.k != k:
        raise ValueError(f"declared k={k} but file holds {frame.k} states")
    objective = _check_objective(objective)
    seed = data.get("seed")
    if seed is not None:
        check_count("seed", seed, 0)
    return SubspaceFileContent(frame, t, objective, seed)


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> Dict:
    """Interpreter, numpy and scipy versions, core count and the BLAS thread variables that are set."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ[name] for name in _BLAS_THREAD_VARIABLES if name in os.environ},
    }


def _sha256(path: Union[str, Path]) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    """What a run was asked to do; `to_dict` adds the seconds since the manifest was made."""

    command: str
    config: Dict = field(default_factory=dict)
    seed: Optional[int] = None
    input_hashes: Dict[str, str] = field(default_factory=dict, init=False)
    _started: float = field(default_factory=time.monotonic, init=False, repr=False)

    def add_input(self, path: Union[str, Path]) -> None:
        self.input_hashes[str(path)] = _sha256(path)

    def to_dict(self) -> Dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "tool_version": TOOL_VERSION,
            "wall_time_s": time.monotonic() - self._started,
            "input_hashes": self.input_hashes,
            "environment": _environment(),
        }

    def write_sidecar(self, artifact_path: Union[str, Path]) -> Path:
        side = Path(str(artifact_path) + ".manifest.json")
        _write_json(side, self.to_dict(), None)
        return side
