"""The two-stage template-driven IDL compiler (paper Fig. 6).

Stage 1 (parse): a generic IDL parser builds the Enhanced Syntax Tree
and can emit it as an executable program.  Stage 2 (code generation) is
itself two steps: a template compiles into a generator program (once),
which then executes against the EST to produce the mapping.

:class:`repro.compiler.pipeline.Pipeline` exposes every stage
separately (so tests and benches can measure each hand-off) and
end-to-end; ``python -m repro.compiler`` is the command-line front-end.
"""

from repro.compiler.pipeline import CompileResult, Pipeline, compile_idl

__all__ = ["Pipeline", "CompileResult", "compile_idl"]
