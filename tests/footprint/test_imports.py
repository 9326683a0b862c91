"""Tests for the static import-closure analysis."""

import ast
import os
import subprocess
import sys

import pytest

import repro
from repro.footprint.imports import import_closure, module_loc, subset_report
from repro.lint.arch_rules import _imported_names

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

    def test_dii_reads_types_without_the_compiler(self):
        """The DII shares the packs' reading of an EST type, which lives
        in ``repro.est``; the template engine, the packs and lint stay
        out of the ORB's stub-free path, statically and when imported."""
        closure = import_closure(["repro.heidirmi.dii"])
        assert "repro.est.view" in closure
        compiler = ("repro.templates", "repro.mappings", "repro.lint")
        assert not [m for m in closure if m.startswith(compiler)]
        loaded = _interpreter_loads("repro.heidirmi.dii")
        assert "repro.est.view" in loaded
        assert not [m for m in loaded if m.startswith(compiler)]

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


SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _modules_after(script):
    """``sys.modules`` after running *script* in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c",
         f"{script}\nimport sys; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((SRC, os.path.dirname(SRC)))},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(result.stdout.split())


def _interpreter_loads(root):
    """The ``repro`` modules in ``sys.modules`` after ``import root``
    in a fresh interpreter."""
    return {
        name for name in _modules_after(f"import {root}")
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


BLOCKING_PAIR = """\
from tests.resilience.rig import make_pair, stop_pair
server, client, stub, impl = make_pair(protocol="text", transport="tcp")
assert stub.echo("x") == "ack:x"
stop_pair(server, client)
"""


class TestBlockingRuntimeStandsAlone:
    """asyncio is the second runtime, not something under the first:
    the blocking ORB neither loads nor names it."""

    def test_blocking_pair_loads_no_asyncio(self):
        loaded = _modules_after(BLOCKING_PAIR)
        assert "repro.heidirmi.orb" in loaded
        assert not [
            name for name in loaded
            if name == "repro.wire.aio" or name.split(".")[0] == "asyncio"
        ]

    def test_heidirmi_never_imports_the_aio_pumps(self):
        """At module level or inside a function, absolute or relative
        (docstrings may still mention the module)."""
        package = os.path.join(os.path.dirname(repro.__file__), "heidirmi")
        offenders = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as file:
                tree = ast.parse(file.read())
            offenders += [
                f"{name}:{node.lineno}" for node in ast.walk(tree)
                if "repro.wire.aio" in _imported_names(node, "heidirmi")
            ]
        assert not offenders
