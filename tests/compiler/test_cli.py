"""Tests for the repro-idlc command line."""

import os
import subprocess
import sys

import pytest

import repro
from repro.compiler.cli import main


@pytest.fixture
def idl_file(tmp_path):
    path = tmp_path / "Echo.idl"
    path.write_text(
        "module T { interface Echo { string echo(in string s); }; };\n"
    )
    return path


class TestCli:
    def test_list_mappings(self, capsys):
        assert main(["--list-mappings"]) == 0
        out = capsys.readouterr().out
        for pack in ("heidi_cpp", "corba_cpp", "java_rmi", "tcl_orb",
                     "python_rmi"):
            assert pack in out

    def test_generate_to_stdout(self, idl_file, capsys):
        assert main([str(idl_file)]) == 0
        out = capsys.readouterr().out
        assert "class HdEcho" in out

    def test_generate_to_directory(self, idl_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["-o", str(out_dir), str(idl_file)]) == 0
        assert (out_dir / "Echo.hh").exists()

    def test_mapping_selection(self, idl_file, capsys):
        assert main(["-m", "tcl_orb", str(idl_file)]) == 0
        out = capsys.readouterr().out
        assert "EchoStub" in out
        assert "BOA::addIdlMapping" in out

    def test_dump_est(self, idl_file, capsys):
        assert main(["--dump-est", str(idl_file)]) == 0
        out = capsys.readouterr().out
        assert "Interface: Echo" in out
        assert "[methodList]" in out

    def test_emit_est_program(self, idl_file, capsys):
        assert main(["--emit-est-program", str(idl_file)]) == 0
        out = capsys.readouterr().out
        assert "ROOT = n0" in out

    def test_dump_generator(self, idl_file, capsys):
        assert main(["--dump-generator", str(idl_file)]) == 0
        out = capsys.readouterr().out
        assert "def generate(rt):" in out

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.idl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_mapping_reports_error(self, idl_file, capsys):
        assert main(["--mapping", "nope", str(idl_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown mapping 'nope'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("under_a_file", ("", "out"))
    def test_unwritable_output_reports_error(self, idl_file, tmp_path, capsys,
                                             under_a_file):
        # chmod does not stop root, so the obstacle is a regular file
        # where the output directory (or its parent) should be.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = str(blocker / under_a_file)
        assert main(["-o", target, str(idl_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {target}: ")
        assert err.count("\n") == 1

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.idl"
        bad.write_text("interface {")
        assert main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_file_ending_in_hash_is_an_error(self, tmp_path):
        # In a child with a timeout: a compiler that loops on this input
        # fails the test instead of hanging the suite.
        bad = tmp_path / "bad.idl"
        bad.write_text("interface A {};\n#")
        result = subprocess.run(
            [sys.executable, "-m", "repro.compiler.cli", str(bad)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == 1
        assert "unsupported preprocessor directive #" in result.stderr

    def test_include_path_option(self, tmp_path, capsys):
        (tmp_path / "inc").mkdir()
        (tmp_path / "inc" / "base.idl").write_text("interface Base { };\n")
        main_idl = tmp_path / "main.idl"
        main_idl.write_text('#include "base.idl"\ninterface D : Base { };\n')
        assert main(["-I", str(tmp_path / "inc"), str(main_idl)]) == 0
        assert "HdD" in capsys.readouterr().out


class TestInterfaceRepositoryOptions:
    def test_ir_records_compiled_file(self, idl_file, tmp_path, capsys):
        ir_dir = str(tmp_path / "ir")
        assert main(["--ir", ir_dir, "-o", str(tmp_path / "out"),
                     str(idl_file)]) == 0
        assert main(["--ir-list", ir_dir]) == 0
        out = capsys.readouterr().out
        assert "entry Echo.idl" in out
        assert "IDL:T/Echo:1.0" in out
        assert "(echo)" in out

    def test_ir_accumulates_entries(self, idl_file, tmp_path, capsys):
        ir_dir = str(tmp_path / "ir")
        other = tmp_path / "Other.idl"
        other.write_text("interface Other { void touch(); };\n")
        assert main(["--ir", ir_dir, "-o", str(tmp_path / "o1"),
                     str(idl_file)]) == 0
        assert main(["--ir", ir_dir, "-o", str(tmp_path / "o2"),
                     str(other)]) == 0
        assert main(["--ir-list", ir_dir]) == 0
        out = capsys.readouterr().out
        assert "entry Echo.idl" in out
        assert "entry Other.idl" in out

    def test_ir_list_missing_directory_errors(self, tmp_path, capsys):
        assert main(["--ir-list", str(tmp_path / "absent")]) == 1
        assert "error" in capsys.readouterr().err
