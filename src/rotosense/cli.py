"""Command-line frontend.

Subcommands: qfi, certify, search, reproduce, catalog.  State and subspace
files are UTF-8 JSON; figure data is emitted as CSV with deterministic
formatting.  Certification exit codes: 0 = QCRB-grade rotosensor,
2 = fidelity-grade only, 3 = neither; search: 0 = found, 4 = not found,
5 = requested dimension exceeds the hard bound.  Every command exits 1 on
invalid input, on a usage error, or on a file it cannot read or write.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import io as rio
from .anticoherence import ANTICOHERENCE_TOL
from .metrology import averaged_inverse_qfi_from_form, qfi_quadratic_form
from .oqr import certify, qcrb_floor, spin2_family, spin2_family_inverse_qfi, spin2_family_purity
from .spin_core import DensityMatrix, SpinLabel, direction
from .subspaces import (
    STOP_REASONS,
    SUCCESS_THRESHOLD,
    SearchConfig,
    catalog,
    construct_one_ac_family,
    construct_two_ac_family,
    kmax_scan,
    one_ac_family_dimension,
    search_subspace,
    two_ac_family_dimension,
    upper_bound_kmax,
    verify_subspace,
)
from .entanglement import Bipartition, negativity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OQR_FIDELITY_ONLY = 2
EXIT_NOT_OQR = 3
EXIT_NOT_FOUND = 4
EXIT_IMPOSSIBLE_K = 5


def _parse_spin(text: str) -> SpinLabel:
    try:
        return SpinLabel.from_j(text)
    except ValueError as exc:  # argparse prints the reason of this error type only
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_axis(text: str) -> np.ndarray:
    return direction([float(x) for x in text.split(",")])


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=1, default=float)
    sys.stdout.write("\n")


def _load_state_or_exit(path: str, manifest: rio.RunManifest) -> DensityMatrix:
    try:
        rho = rio.load_state(path)
        manifest.add_input(path)
        return rho
    except (OSError, ValueError) as exc:
        print(f"error: invalid state file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_qfi(args) -> int:
    manifest = rio.RunManifest(command="qfi")
    rho = _load_state_or_exit(args.state, manifest)
    form = qfi_quadratic_form(rho)
    floor = qcrb_floor(rho.spin)
    report = {
        "two_j": rho.spin.two_j,
        "averaged_qfi": form.averaged,
        "isotropy_gap": form.isotropy_gap,
        "qcrb_floor": floor.inverse_qfi_floor,
    }
    if args.axis is not None:
        report["axis"] = list(args.axis)
        report["qfi"] = form.evaluate(args.axis)
    if args.averaged_inverse:
        report["averaged_inverse_qfi"] = averaged_inverse_qfi_from_form(form)
    report["manifest"] = manifest.to_dict()
    _emit(report)
    return EXIT_OK


def _cmd_certify(args) -> int:
    manifest = rio.RunManifest(command="certify")
    rho = _load_state_or_exit(args.state, manifest)
    verdict = certify(rho)
    _emit({
        "two_j": rho.spin.two_j,
        "is_oqr_fidelity": verdict.is_oqr_fidelity,
        "is_oqr_qcrb": verdict.is_oqr_qcrb,
        "image_rank": verdict.image_frame.k,
        "image_g1": verdict.image_g1,
        "anticoherence_order2_violation": verdict.anticoherence_order2_violation,
        "isotropy_gap": verdict.isotropy_gap,
        "averaged_qfi": verdict.averaged_qfi,
        "qcrb": verdict.qcrb,
        "tolerances": {
            "image_g1": SUCCESS_THRESHOLD,
            "multipole": ANTICOHERENCE_TOL,
        },
        "manifest": manifest.to_dict(),
    })
    if verdict.is_oqr_qcrb:
        return EXIT_OK
    if verdict.is_oqr_fidelity:
        return EXIT_OQR_FIDELITY_ONLY
    return EXIT_NOT_OQR


def _cmd_search(args) -> int:
    spin = args.j
    bound = upper_bound_kmax(spin, args.t)
    if args.k > bound:
        print(
            f"error: no ({spin},{args.k},{args.t}) subspace can exist: "
            f"k exceeds the dimension bound floor((2j-t+1)/(t+1)) = {bound}",
            file=sys.stderr,
        )
        return EXIT_IMPOSSIBLE_K
    config = SearchConfig(seed=args.seed, restarts=args.restarts)
    manifest = rio.RunManifest(
        command="search",
        config={"j": str(spin), "k": args.k, "t": args.t, "restarts": args.restarts},
        seed=args.seed,
    )
    result = search_subspace(spin, args.k, args.t, config)
    cert = result.certificate
    if args.out:
        rio.save_subspace(args.out, cert.frame, args.t, cert.objective_value,
                          args.seed, manifest)
    _emit({
        "j": str(spin),
        "k": args.k,
        "t": args.t,
        "found": cert.verified,
        "objective": cert.objective_value,
        "threshold": SUCCESS_THRESHOLD,
        "restarts": args.restarts,
        "converged_restarts": sum(1 for r in result.records if r.converged),
        "stop_reasons": {reason: sum(1 for r in result.records if r.stop_reason == reason)
                         for reason in STOP_REASONS},
        "best_miss_objective": min((r.objective for r in result.records if not r.converged), default=None),
        "manifest": manifest.to_dict(),
    })
    return EXIT_OK if cert.verified else EXIT_NOT_FOUND


def _catalog_row(entry) -> dict:
    cert = verify_subspace(entry.frame, entry.order_t)
    return {"name": entry.name, "j": str(entry.frame.spin), "k": entry.frame.k, "t": entry.order_t,
            "residual": cert.objective_value, "verified": cert.verified}


def _cmd_catalog(args) -> int:
    if args.out and not args.get:
        _parser().error("catalog --out needs --get")
    entries = catalog()
    if not args.get:
        _emit({"entries": [_catalog_row(entry) for _, entry in sorted(entries.items())]})
        return EXIT_OK
    entry = entries.get(args.get)
    if entry is None:
        print(f"error: unknown catalog entry {args.get!r}", file=sys.stderr)
        return EXIT_ERROR
    row = _catalog_row(entry)
    manifest = rio.RunManifest(command="catalog", config={"get": args.get})
    if args.out:
        rio.save_subspace(args.out, entry.frame, entry.order_t, row["residual"], None, manifest)
    _emit({**row, "manifest": manifest.to_dict()})
    return EXIT_OK


def _reproduce_fig1(outdir: Path, manifest: rio.RunManifest) -> None:
    rows = []
    for xi in np.linspace(0.2, 1.0, 200):
        rho = spin2_family(float(xi))
        form = qfi_quadratic_form(rho)
        inv = averaged_inverse_qfi_from_form(form)
        rows.append([float(xi), rho.purity, inv,
                     spin2_family_purity(float(xi)), spin2_family_inverse_qfi(float(xi))])
    path = outdir / "fig1.csv"
    rio.write_csv(path, ["xi", "purity", "inv_qfi", "purity_closed_form", "inv_qfi_closed_form"], rows)
    manifest.write_sidecar(path)


def _reproduce_kmax(outdir: Path, manifest: rio.RunManifest, seed: int, restarts: int,
                    max_two_j: int) -> None:
    rows = []
    for two_j in range(2, min(max_two_j, 17) + 1):
        spin = SpinLabel(two_j)
        for t in (1, 2):
            if t > two_j - 1:
                continue
            start = time.perf_counter()
            scan = kmax_scan(spin, t, SearchConfig(seed=seed, restarts=restarts))
            rows.append([str(spin), t, scan.k_max, scan.bound])
            print(f"kmax: j={spin} t={t} k_max={scan.k_max} bound={scan.bound} "
                  f"({time.perf_counter() - start:.2f} s)", file=sys.stderr)
    path = outdir / "kmax.csv"
    rio.write_csv(path, ["j", "t", "k_found", "bound"], rows)
    manifest.write_sidecar(path)

    rows = []
    for two_j in range(2, max_two_j + 1):
        spin = SpinLabel(two_j)
        k1 = one_ac_family_dimension(spin)
        k2 = two_ac_family_dimension(spin) if two_j >= 10 else 0
        rows.append([str(spin), k1, k2])
    path = outdir / "construction_dims.csv"
    rio.write_csv(path, ["j", "k1", "k2"], rows)
    manifest.write_sidecar(path)


def _reproduce_negativity(outdir: Path, manifest: rio.RunManifest) -> None:
    entries = catalog()
    rows = []
    for name in ("(2,2,1)", "(7/2,2,2)"):
        frame = entries[name].frame
        spin = frame.spin
        label = name.replace(",", ";")  # keep the CSV comma-free
        for lam1 in np.linspace(0.5, 1.0, 101):
            rho = DensityMatrix.from_mixture([lam1, 1.0 - lam1], frame.basis)
            n1 = negativity(rho, Bipartition.of(spin, 1)).negativity
            n2 = negativity(rho, Bipartition.of(spin, 2)).negativity
            rows.append([label, float(lam1), rho.purity, n1, n2])
    path = outdir / "negativity.csv"
    rio.write_csv(path, ["frame", "lam1", "purity", "N1", "N2"], rows)
    manifest.write_sidecar(path)


def _reproduce_tables(outdir: Path, manifest: rio.RunManifest) -> None:
    for name, t, construct, two_js in (("one", 1, construct_one_ac_family, (4, 7, 8)),
                                       ("two", 2, construct_two_ac_family, (10, 22, 35))):
        for two_j in two_js:
            frame = construct(SpinLabel(two_j))
            path = outdir / f"{name}_ac_j{two_j}over2.json"
            rio.save_subspace(path, frame, t, verify_subspace(frame, t).objective_value, None)
    manifest.write_sidecar(outdir / "tables")


def _cmd_reproduce(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = rio.RunManifest(
        command=f"reproduce --target {args.target}",
        config={"restarts": args.restarts},
        seed=args.seed,
    )
    if args.target == "fig1":
        _reproduce_fig1(outdir, manifest)
    elif args.target == "kmax":
        _reproduce_kmax(outdir, manifest, args.seed, args.restarts,
                        args.max_j.two_j if args.max_j else 40)
    elif args.target == "negativity":
        _reproduce_negativity(outdir, manifest)
    elif args.target == "tables":
        _reproduce_tables(outdir, manifest)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_ERROR
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, since exit 2 is a certification verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotosense",
        description="Rotation metrology with mixed spin states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfi", help="QFI and averaged Cramer-Rao quantities of a state file")
    p.add_argument("state")
    p.add_argument("--axis", type=_parse_axis, default=None, help="axis as x,y,z")
    p.add_argument("--averaged-inverse", action="store_true",
                   help="also report the sphere-averaged inverse QFI")
    p.set_defaults(func=_cmd_qfi)

    p = sub.add_parser("certify", help="grade a state as an optimal rotosensor")
    p.add_argument("state")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="search for a (j,k,t) anticoherent subspace")
    p.add_argument("--j", type=_parse_spin, required=True, help="spin, e.g. 2 or 7/2 or 3.5")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reproduce", help="emit figure/table CSV data")
    p.add_argument("--target", choices=("fig1", "kmax", "negativity", "tables"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=20240001)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-j", type=_parse_spin, default=None,
                   help="cap for the construction-dimension table (default j = 20); "
                        "the kmax scan stops at j = 17/2 whatever the cap")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("catalog", help="list or export the reference subspace catalog")
    listing = p.add_mutually_exclusive_group()
    listing.add_argument("--list", action="store_true")
    listing.add_argument("--get", default=None)
    p.add_argument("--out", default=None, help="write the --get entry to this subspace file")
    p.set_defaults(func=_cmd_catalog)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's _ArrayMemoryError names the allocation that failed; a bare one says nothing
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
