"""Timing shims installed from outside rotosense for the traced benchmark run.

Each shim replaces a public name that one rotosense module imports from
another (for example `rotosense.cli.certify` or
`rotosense.subspaces.multipole_stack`).  Module-level names are looked up
when a function runs, so calls made inside the package go through the shim
as well.  A span records name, task, parent span, start and end; spans stay
in memory and are written out when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, List, Optional

# (module, attribute, span name).  A span name is '<layer>.<function>', where
# the layer is the module that defines the function.
SPAN_TARGETS = [
    ("rotosense.cli", "certify", "oqr.certify"),
    ("rotosense.cli", "search_subspace", "subspaces.search_subspace"),
    ("rotosense.io", "load_state", "io.load_state"),
    ("rotosense.io", "save_subspace", "io.save_subspace"),
    ("rotosense.io", "load_subspace", "io.load_subspace"),
    ("rotosense.oqr", "eigen_mixture", "spin_core.eigen_mixture"),
    ("rotosense.oqr", "objective_g_t", "subspaces.objective_g_t"),
    ("rotosense.oqr", "is_anticoherent", "anticoherence.is_anticoherent"),
    ("rotosense.oqr", "qfi_quadratic_form", "metrology.qfi_quadratic_form"),
    ("rotosense.oqr", "averaged_inverse_qfi_from_form", "metrology.averaged_inverse_qfi"),
    ("rotosense.subspaces", "objective_g_t", "subspaces.objective_g_t"),
    ("rotosense.subspaces", "verify_subspace", "subspaces.verify_subspace"),
    ("rotosense.subspaces", "multipole_stack", "multipole.multipole_stack"),
    ("rotosense.subspaces", "rotation_equivalent", "subspaces.rotation_equivalent"),
    ("rotosense.anticoherence", "multipole_stack", "multipole.multipole_stack"),
    ("rotosense.anticoherence", "embedding_isometry", "spin_core.embedding_isometry"),
    ("rotosense.anticoherence", "anticoherence_report", "anticoherence.anticoherence_report"),
    ("rotosense.entanglement", "embedding_isometry", "spin_core.embedding_isometry"),
    ("rotosense.entanglement", "verify_subspace", "subspaces.verify_subspace"),
    ("rotosense.entanglement", "negativity", "entanglement.negativity"),
    ("rotosense.entanglement", "protected_negativity_suite", "entanglement.protected_negativity_suite"),
    ("rotosense.multipole", "expand", "multipole.expand"),
    ("rotosense.multipole", "reconstruct", "multipole.reconstruct"),
]

# Called thousands of times per task: counted, not spanned.
COUNT_TARGETS = [
    ("rotosense.subspaces", "rotation_operator_euler", "spin_core.rotation_calls"),
]


class Tracer:
    """In-memory span and call-count recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, task, parent, start, end, failed]
        self.counts: dict = {}
        self.search_results: list = []
        self.missing: List[str] = []
        self.task: Optional[int] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self.task, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record[5] = True
            raise
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn: Callable, capture: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if capture is not None:
                capture(result)
            return result
        return shim

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return shim

    def install(self) -> None:
        """Replace every target name; a target the package no longer has is recorded in `missing`."""
        for module_name, attr, name in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            capture = self.search_results.append if name == "subspaces.search_subspace" else None
            setattr(module, attr, self.spanned(name, getattr(module, attr), capture))
        for module_name, attr, name in COUNT_TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.counts.setdefault(name, 0)
            setattr(module, attr, self.counted(name, getattr(module, attr)))
        for target in self.missing:
            print(f"trace: shim target {target} not found", file=sys.stderr)
