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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy

from .spin_core import DensityMatrix, PureState, SpinLabel
from .subspaces import SubspaceFrame

TOOL_VERSION = "rotosense 0.1.0"


def _pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_pairs(v: np.ndarray) -> List[List[float]]:
    return [_pair(z) for z in v]


def _from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    re, im = arr[:, 0], arr[:, 1]
    # the bits of re + 1j * im, without its 0 * im, which warns on an infinite im
    return np.stack([re + np.copysign(0.0, im), im + 0.0], axis=-1).view(complex)[:, 0]


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


def _read_json(path: Union[str, Path]):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc


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
    if "two_j" not in data or "kind" not in data:
        raise ValueError("state file must carry 'two_j' and 'kind'")
    spin = SpinLabel(data["two_j"])
    kind = data["kind"]
    if kind == "pure":
        return PureState(spin, _from_pairs(data["amplitudes"])).density_matrix()
    if kind == "mixed-eigen":
        weights = np.asarray(data["weights"], dtype=float)
        states = [PureState(spin, _from_pairs(s)) for s in data["states"]]
        return DensityMatrix.from_mixture(weights, states)
    if kind == "mixed-matrix":
        rows = [_from_pairs(row) for row in data["matrix"]]
        return DensityMatrix(spin, np.array(rows))
    raise ValueError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# Subspace files
# ---------------------------------------------------------------------------

def save_subspace(path: Union[str, Path], frame: SubspaceFrame, t: int,
                  objective: float, seed: Optional[int],
                  manifest: Optional["RunManifest"] = None) -> None:
    payload = {
        "two_j": frame.spin.two_j,
        "k": frame.k,
        "t": int(t),
        "basis": [_vector_pairs(s.amplitudes) for s in frame.basis],
        "objective": float(objective),
        "seed": seed,
    }
    _write_json(path, payload, manifest)


@dataclass(frozen=True)
class SubspaceFileContent:
    frame: SubspaceFrame
    t: int
    objective: float
    seed: Optional[int]


def load_subspace(path: Union[str, Path]) -> SubspaceFileContent:
    data = _read_json(path)
    spin = SpinLabel(data["two_j"])
    frame = SubspaceFrame(spin, tuple(PureState(spin, _from_pairs(s)) for s in data["basis"]))
    if frame.k != int(data["k"]):
        raise ValueError(f"declared k={data['k']} but file holds {frame.k} states")
    return SubspaceFileContent(frame, int(data["t"]), float(data["objective"]), data.get("seed"))


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
    command: str
    config: Dict = field(default_factory=dict)
    seed: Optional[int] = None
    tool_version: str = TOOL_VERSION
    wall_time_s: float = 0.0
    input_hashes: Dict[str, str] = field(default_factory=dict)
    _started: float = field(default_factory=time.monotonic, repr=False)

    def add_input(self, path: Union[str, Path]) -> None:
        self.input_hashes[str(path)] = _sha256(path)

    def finish(self) -> "RunManifest":
        self.wall_time_s = time.monotonic() - self._started
        return self

    def to_dict(self) -> Dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
            "input_hashes": self.input_hashes,
            "environment": _environment(),
        }

    def write_sidecar(self, artifact_path: Union[str, Path]) -> Path:
        side = Path(str(artifact_path) + ".manifest.json")
        _write_json(side, self.finish().to_dict(), None)
        return side
