"""Tests for the static import-closure analysis."""

import os
import subprocess
import sys

import pytest

import repro
from repro.footprint.imports import import_closure, module_loc, subset_report

#: What a generated text-protocol stub needs at run time.
CLIENT_ONLY_ROOTS = [
    "repro.heidirmi.stub", "repro.heidirmi.connection",
    "repro.heidirmi.protocol",
]


class TestClosure:
    def test_closure_includes_root(self):
        closure = import_closure(["repro.wire.textwire"])
        assert "repro.wire.textwire" in closure

    def test_closure_follows_internal_imports(self):
        closure = import_closure(["repro.heidirmi.orb"])
        for expected in (
            "repro.model.call",
            "repro.wire.text",
            "repro.heidirmi.connection",
            "repro.heidirmi.protocol",
            "repro.heidirmi.transport",
        ):
            assert expected in closure

    def test_lazy_imports_excluded(self):
        """The text-only ORB must not statically pull in GIOP — that lazy
        import is what keeps the minimal footprint minimal (§4.2)."""
        closure = import_closure(["repro.heidirmi.orb"])
        assert not any(module.startswith("repro.giop") for module in closure)

    def test_giop_adds_only_giop_modules(self):
        base = set(import_closure(["repro.heidirmi.orb"]))
        full = set(import_closure(["repro.heidirmi.orb", "repro.heidirmi.iiop"]))
        extra = full - base
        # GIOP pulls in its blocking pump, its sans-I/O state machine
        # and the encodings under repro.giop; nothing else rides along.
        pump_and_machine = {"repro.heidirmi.iiop", "repro.wire.giop"}
        assert pump_and_machine < extra
        assert all(
            module.startswith("repro.giop")
            for module in extra - pump_and_machine
        )

    def test_prefix_restriction(self):
        closure = import_closure(["repro.heidirmi.orb"], prefix="repro.heidirmi")
        assert all(module.startswith("repro.heidirmi") for module in closure)

    def test_string_root_accepted(self):
        assert import_closure("repro.model.errors") == ["repro.model.errors"]

    def test_client_only_subset_smaller_than_orb(self):
        """Claim C5: a pure client needs no acceptor/skeleton machinery
        — a template that only emits stubs pulls in less."""
        client = set(import_closure(CLIENT_ONLY_ROOTS))
        orb = set(import_closure(["repro.heidirmi.orb"]))
        assert client < orb
        assert "repro.heidirmi.serving" in orb - client
        assert (subset_report(CLIENT_ONLY_ROOTS)["<total>"]
                < subset_report(["repro.heidirmi.orb"])["<total>"])


class TestReport:
    def test_module_loc_positive(self):
        assert module_loc("repro.heidirmi.orb") > 100

    def test_missing_module_is_zero(self):
        assert module_loc("repro.nonexistent") == 0

    def test_subset_report_totals(self):
        report = subset_report(["repro.heidirmi.orb"])
        assert report["<total>"] == sum(
            loc for module, loc in report.items() if module != "<total>"
        )
        assert report["<total>"] > 500

    def test_minimal_smaller_than_full(self):
        minimal = subset_report(["repro.heidirmi.orb"])["<total>"]
        full = subset_report(["repro.heidirmi.orb", "repro.heidirmi.iiop"])["<total>"]
        assert minimal < full


def _interpreter_loads(root):
    """The ``repro`` modules in ``sys.modules`` after ``import root``
    in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         f"import {root}, sys; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return {
        name for name in result.stdout.split()
        if name == "repro" or name.startswith("repro.")
    }


def _packages_of(module):
    parts = module.split(".")
    return {".".join(parts[:count]) for count in range(1, len(parts))}


def _closure_with_packages(root):
    """``import_closure`` of *root* plus, as Python does, the
    ``__init__`` of every package on the way to each module reached."""
    roots = {root}
    while True:
        closure = set(import_closure(sorted(roots)))
        grown = closure.union(*map(_packages_of, closure))
        if grown == roots:
            return closure
        roots = grown


class TestInterpreterAgrees:
    """The static closure is only worth pinning if the interpreter
    loads the same thing.  ``import_closure`` alone ignores package
    ``__init__`` files, which is how a root's closure stayed one module
    while importing it loaded forty; below the runtime the two must
    agree once the packages are counted."""

    @pytest.mark.parametrize("root", (
        "repro.model.errors", "repro.model.call", "repro.giop.cdr",
        "repro.wire.text", "repro.wire.giop", "repro.compiler.cli",
    ))
    def test_import_loads_exactly_the_static_closure(self, root):
        loaded = _interpreter_loads(root)
        assert loaded == _closure_with_packages(root)
        assert not [
            name for name in loaded
            if name.startswith(("repro.heidirmi", "repro.observe",
                                "repro.resilience"))
        ]
