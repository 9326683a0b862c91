"""Step 1 of the two-step code generation: template → generator program.

``compile_to_source`` turns a parsed template into the *source text* of
a Python program whose ``generate(rt)`` function performs the generation
against a :class:`repro.templates.runtime.Runtime`.  This mirrors the
paper's use of Jeeves, which produced a Perl program from the template;
the program is what gets cached, so step 1 runs once per template.

``compile_template`` additionally ``exec``-utes the program and wraps it
in a :class:`CompiledTemplate` ready for step 2.
"""

from repro.templates import ast
from repro.templates.errors import TemplateSyntaxError
from repro.templates.parser import parse_template

_PROLOGUE = '''\
# Code generator produced by repro.templates.compiler (step 1 of the
# paper's two-step code-generation process) from template {name!r}.
# Execute step 2 by calling generate(rt) with a repro.templates.runtime
# Runtime bound to an EST.

def generate(rt):
'''


def compile_to_source(template):
    """Render the generator-program source for a parsed template."""
    lines = [_PROLOGUE.format(name=template.name)]
    emitter = _Emitter(lines)
    if not template.body:
        emitter.statement("pass", 1)
    else:
        for node in template.body:
            emitter.emit(node, depth=1)
    return "".join(line + "\n" for line in lines)


class _Emitter:
    def __init__(self, lines):
        self._lines = lines
        self._loop_counter = 0

    def statement(self, text, depth):
        self._lines.append("    " * depth + text)

    def emit(self, node, depth):
        if isinstance(node, ast.TextLine):
            self._emit_text(node, depth)
        elif isinstance(node, ast.Foreach):
            self._emit_foreach(node, depth)
        elif isinstance(node, ast.If):
            self._emit_if(node, depth)
        elif isinstance(node, ast.OpenFile):
            self.statement(f"rt.open_file({self._cat(node.parts)})", depth)
        elif isinstance(node, ast.CloseFile):
            self.statement("rt.close_file()", depth)
        elif isinstance(node, ast.SetVar):
            self.statement(
                f"rt.set_var({node.name!r}, {self._cat(node.parts)})", depth
            )
        else:  # pragma: no cover - parser produces only the above
            raise TemplateSyntaxError(f"cannot compile node {node!r}")

    def _emit_text(self, node, depth):
        args = [self._part(part) for part in node.parts]
        indent = node.parts[0] if node.parts else None
        if len(args) > 1 and isinstance(indent, str) and not indent.strip():
            # A ${var} that opens its line keeps a multi-line value's
            # continuation lines at its own column.
            args[1] += f".replace('\\n', {chr(10) + indent!r})"
        newline = "True" if node.newline else "False"
        arg_text = ", ".join(args)
        if args:
            self.statement(f"rt.line({arg_text}, newline={newline})", depth)
        else:
            self.statement(f"rt.line(newline={newline})", depth)

    def _emit_foreach(self, node, depth):
        self._loop_counter += 1
        loop_var = f"_iter{self._loop_counter}"
        arguments = [repr(node.list_name)]
        if node.maps:
            arguments.append(f"maps={node.maps!r}")
        if node.if_more is not None:
            arguments.append(f"if_more={node.if_more!r}")
        if node.separator is not None:
            arguments.append(f"separator={node.separator!r}")
        if node.reverse:
            arguments.append("reverse=True")
        arguments.append(f"line={node.line}")
        self.statement(
            f"for {loop_var} in rt.foreach({', '.join(arguments)}):", depth
        )
        if node.body:
            for child in node.body:
                self.emit(child, depth + 1)
        else:
            self.statement("pass", depth + 1)

    def _emit_if(self, node, depth):
        first = True
        for condition, body in node.branches:
            if condition is None:
                self.statement("else:", depth)
            else:
                keyword = "if" if first else "elif"
                self.statement(f"{keyword} {self._condition(condition)}:", depth)
            if body:
                for child in body:
                    self.emit(child, depth + 1)
            else:
                self.statement("pass", depth + 1)
            first = False

    def _condition(self, condition):
        left = self._cat(condition.left)
        if not condition.op:
            return f"rt.truth({left})"
        right = self._cat(condition.right)
        return f"({left}) {condition.op} ({right})"

    def _part(self, part):
        if isinstance(part, ast.VarRef):
            return f"rt.var({part.name!r})"
        return repr(part)

    def _cat(self, parts):
        if not parts:
            return "''"
        if len(parts) == 1:
            piece = self._part(parts[0])
            return piece if isinstance(parts[0], ast.VarRef) else piece
        return " + ".join(self._part(part) for part in parts)


class CompiledTemplate:
    """A template after step 1: generator source plus its generate()."""

    def __init__(self, template, source, generate_func):
        self.template = template
        self.name = template.name
        self.source = source
        self._generate = generate_func

    def run(self, runtime):
        """Step 2: execute the generator against *runtime*'s EST."""
        self._generate(runtime)
        runtime.sink.close_all()
        return runtime.sink


def compile_template(source_or_template, name="<template>", loader=None):
    """Compile template text (or a parsed Template) through step 1."""
    if isinstance(source_or_template, ast.Template):
        template = source_or_template
    else:
        template = parse_template(source_or_template, name=name, loader=loader)
    program = compile_to_source(template)
    namespace = {"__name__": f"repro.templates._generated.{_safe(template.name)}"}
    exec(compile(program, f"<generator:{template.name}>", "exec"), namespace)
    return CompiledTemplate(template, program, namespace["generate"])


def _safe(name):
    return "".join(ch if ch.isalnum() else "_" for ch in name)
