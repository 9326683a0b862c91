"""Step 1 of the two-step code generation: template → generator program.

``compile_to_source`` turns a parsed template into the *source text* of
a Python program whose ``generate(rt)`` function performs the generation
against a :class:`repro.templates.runtime.Runtime`.  This mirrors the
paper's use of Jeeves, which produced a Perl program from the template;
the program is what gets cached, so step 1 runs once per template.

``compile_template`` additionally ``exec``-utes the program and wraps it
in a :class:`CompiledTemplate` ready for step 2.

Step 1 knows where each ``${var}`` stands: its enclosing ``@foreach``
loops, their ``-map`` tables and their singular names.  So it binds what
the template alone decides:

- ``${index}``/``${count}``/``${first}``/``${last}``/``${ifMore}`` read
  the innermost loop's frame (``-ifMore``'s text is a constant);
- each loop gets the -map table in force inside it, outer maps merged
  with its own, worked out here rather than on each loop entry, and a
  mapped name is one ``Runtime.apply`` call;
- any other name reads the node under consideration's own prop.

What only the EST decides — a prop the node lacks (found on an
ancestor or in the globals, or synthesized by a map), a plain list's
``${item}`` and singular name, and every name outside all loops — is
``Runtime.var``, the resolution rule itself.
"""

from repro.templates import ast
from repro.templates.errors import TemplateSyntaxError
from repro.templates.parser import parse_template
from repro.templates.runtime import LOOP_STATE

_PROLOGUE = '''\
# Code generator produced by repro.templates.compiler (step 1 of the
# paper's two-step code-generation process) from template {name!r}.
# Execute step 2 by calling generate(rt) with a repro.templates.runtime
# Runtime bound to an EST.'''


def compile_to_source(template):
    """Render the generator-program source for a parsed template."""
    emitter = _Emitter()
    emitter.block(template.body, depth=1)
    return "\n".join([
        _PROLOGUE.format(name=template.name), "",
        *(f"_maps{number} = {{{outer}{repr(maps)[1:]}" for number, outer, maps in emitter.tables),
        "", "def generate(rt):", "    sink, var, apply, prop = rt.sink, rt.var, rt.apply, rt.prop",
        *emitter.lines, ""])


class _Emitter:
    def __init__(self):
        self.lines = []
        #: (number, outer table, own -maps) of every loop with -maps.
        self.tables = []
        #: (number, table name, -map table, singular, -ifMore text) of each
        #: enclosing loop; loop n's frame is ``f<n>``, its node's props ``p<n>``.
        self._loops = []
        self._singulars = []
        self._loop_counter = 0

    def statement(self, text, depth):
        self.lines.append("    " * depth + text)

    def block(self, body, depth):
        if not body:
            self.statement("pass", depth)
        for child in body:
            self.emit(child, depth)

    def emit(self, node, depth):
        if isinstance(node, ast.TextLine):
            self._emit_text(node, depth)
        elif isinstance(node, ast.Foreach):
            self._emit_foreach(node, depth)
        elif isinstance(node, ast.If):
            self._emit_if(node, depth)
        elif isinstance(node, ast.OpenFile):
            self.statement(f"sink.open_file({self._cat(node.parts)})", depth)
        elif isinstance(node, ast.CloseFile):
            self.statement("sink.close_file()", depth)
        elif isinstance(node, ast.SetVar):
            self.statement(f"rt.globals[{node.name!r}] = {self._cat(node.parts)}", depth)
        else:  # pragma: no cover - parser produces only the above
            raise TemplateSyntaxError(f"cannot compile node {node!r}")

    def _emit_text(self, node, depth):
        pieces = [self._part(part) for part in node.parts]
        indent = node.parts[0] if node.parts else None
        if len(pieces) > 1 and isinstance(indent, str) and not indent.strip():
            # A ${var} that opens its line keeps a multi-line value's
            # continuation lines at its own column.
            pieces[1] = f"({pieces[1]}).replace('\\n', {chr(10) + indent!r})"
        if node.newline and node.parts and isinstance(node.parts[-1], str):
            pieces[-1] = repr(node.parts[-1] + "\n")
        elif node.newline:
            pieces.append(repr("\n"))
        self.statement(f"sink.write({' + '.join(pieces) or repr('')})", depth)

    def _emit_foreach(self, node, depth):
        self._loop_counter += 1
        number, singular = self._loop_counter, _singular(node.list_name)
        table, maps = self._loops[-1][1:3] if self._loops else ("{}", {})
        if node.maps:  # a loop without -maps of its own shares its outer table
            self.tables.append((number, f"**{table}, " if maps else "", node.maps))
            table, maps = f"_maps{number}", {**maps, **node.maps}
        self.statement(
            f"for f{number}, p{number} in rt.foreach({node.list_name!r}, {table}, "
            f"{singular!r}, {node.if_more!r}, {node.separator!r}, {node.reverse}, "
            f"{node.line}):", depth)
        self._loops.append((number, table, maps, singular, node.if_more))
        self._singulars.append(singular)
        self.block(node.body, depth + 1)
        self._singulars.pop()
        self._loops.pop()

    def _emit_if(self, node, depth):
        for index, (condition, body) in enumerate(node.branches):
            if condition is None:
                self.statement("else:", depth)
            else:
                keyword = "elif" if index else "if"
                self.statement(f"{keyword} {self._condition(condition)}:", depth)
            self.block(body, depth + 1)

    def _condition(self, condition):
        left = self._cat(condition.left)
        if not condition.op:
            return f"rt.truth({left})"
        return f"({left}) {condition.op} ({self._cat(condition.right)})"

    def _part(self, part):
        return self._var(part.name) if isinstance(part, ast.VarRef) else repr(part)

    def _cat(self, parts):
        return " + ".join(map(self._part, parts)) or "''"

    def _var(self, name):
        """The expression for ``${name}`` at this point of the template.

        Step 1 knows the enclosing loops, so it binds what they decide:
        the innermost loop's state for its loop variables, the -map in
        force, and the node's own prop for any other name no loop can
        bind.  What only the EST decides — an absent prop, an ancestor,
        a global, a plain list's items — is left to ``Runtime.var``.
        """
        if not self._loops or name == "item" or name in self._singulars:
            return f"var({name!r})"
        number, _, maps, _, if_more = self._loops[-1]
        map_name = maps.get(name)
        if name not in LOOP_STATE:
            return f"prop(p{number}, {name!r}, {map_name!r})"
        value = "''" if name == "ifMore" and if_more is None else f"f{number}.{name}"
        if map_name:
            return f"apply({map_name!r}, {value})"
        return f"str({value})" if name in ("index", "count") else value


def _singular(list_name):
    """A singular binding name: ``members`` → ``member``, ``xList`` → ``x``."""
    if list_name.endswith("List") and len(list_name) > 4:
        return list_name[:-4]
    if list_name.endswith("s") and len(list_name) > 1:
        return list_name[:-1]
    return ""


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
