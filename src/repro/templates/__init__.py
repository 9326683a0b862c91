"""Jeeves-style template engine with two-step code generation.

The engine implements the paper's template language (Fig. 9):

- ``@`` at the start of a line escapes a code-generation command;
  all other lines are printed with ``${name}`` substitutions applied.
- ``@foreach <list> [-ifMore 'sep'] [-sep 'text'] [-map var MapFunc]``
  … ``@end <list>`` walks a kind-grouped EST child list (or a plain
  list property), binding the node under consideration.
- ``@if <test>`` / ``@elif`` / ``@else`` / ``@fi`` conditionals.
- ``@openfile <path>`` routes subsequent output to a new file.
- ``@include <template>``, ``@set <var> <value>``, ``@#`` comments.
- a trailing backslash on a text line suppresses its newline so a
  multi-line template region can generate a single output line.

Code generation is the paper's **two-step** process (Section 4.1):
*step 1* compiles the template into a Python program (the code
generator); *step 2* executes that program against an EST.  Step 1 need
only run once per template — ``MappingPack.compiled`` keeps each pack's
compiled templates.
"""

from repro.templates.errors import (
    TemplateError,
    TemplateRuntimeError,
    TemplateSyntaxError,
)
from repro.templates.parser import parse_template
from repro.templates.compiler import CompiledTemplate, compile_template, compile_to_source
from repro.templates.maps import MapRegistry, simple_map
from repro.templates.output import GeneratedOutput, OutputSink
from repro.templates.runtime import Runtime, generate

__all__ = [
    "TemplateError",
    "TemplateSyntaxError",
    "TemplateRuntimeError",
    "parse_template",
    "compile_template",
    "compile_to_source",
    "CompiledTemplate",
    "MapRegistry",
    "simple_map",
    "OutputSink",
    "GeneratedOutput",
    "Runtime",
    "generate",
]
