"""Byte identity of the `reproduce` outputs against committed golden copies.

The files under tests/golden/ were written by `rotosense reproduce` with
numpy 2.4.6 on scipy-openblas 0.3.31.  Each target runs in process through
`cli.main`, and every data file it writes is compared byte for byte; the
manifests, which carry wall time and the environment, are not compared.  A
mismatch names numpy's and the BLAS's versions, so that a library change
can be told apart from a code change.  The test never skips: a skip would
hide the change it exists to catch.
"""

from pathlib import Path

import numpy as np
import pytest

from rotosense.cli import main

GOLDEN = Path(__file__).parent / "golden"

TARGETS = {
    "fig1": ([], ["fig1.csv"]),
    "negativity": ([], ["negativity.csv"]),
    "tables": ([], [f"{name}_ac_j{two_j}over2.json" for name, two_js in (("one", (4, 7, 8)), ("two", (10, 22, 35)))
                    for two_j in two_js]),
    "kmax": (["--max-j", "17/2"], ["kmax.csv", "construction_dims.csv"]),
}


def library_versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_reproduce_matches_golden_bytes(target, tmp_path, capsys):
    extra, names = TARGETS[target]
    assert main(["reproduce", "--target", target, "--out", str(tmp_path), *extra]) == 0
    capsys.readouterr()
    data_files = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith("manifest.json"))
    assert data_files == sorted(names)
    for name in names:
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        assert got == want, f"{name} differs from tests/golden/{name} under {library_versions()}"
