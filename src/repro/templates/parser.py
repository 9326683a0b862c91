"""Line-oriented parser for the template language.

A line whose first non-blank character is ``@`` is a directive; every
other line is literal output.  ``@@`` at the start of a line escapes a
literal ``@``.  Directive grammar::

    @foreach <list> [-ifMore 'sep'] [-sep 'text'] [-reverse]
                    [-map <var> <MapFunc>]...
    @end [<list>]
    @if <parts> [==|!= <parts>]
    @elif <parts> [==|!= <parts>]
    @else
    @fi
    @openfile <path>
    @closefile
    @set <name> <value>
    @include <template-name>
    @# comment (also @//)
"""

import re
import shlex

from repro.templates import ast
from repro.templates.errors import TemplateSyntaxError

_VAR_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_:]*)\}")
_QUOTING, _WORD = re.compile(r"[\\'\"]"), re.compile(r"[^ \t\r\n]+")


def split_parts(text):
    """Split text into literal strings and VarRefs at ``${...}`` sites."""
    parts = []
    pos = 0
    for match in _VAR_RE.finditer(text):
        if match.start() > pos:
            parts.append(text[pos : match.start()])
        parts.append(ast.VarRef(match.group(1)))
        pos = match.end()
    if pos < len(text):
        parts.append(text[pos:])
    return parts


def parse_template(source, name="<template>", loader=None):
    """Parse template source into a :class:`repro.templates.ast.Template`.

    *loader*, when given, is a callable ``loader(name) -> source`` used
    to resolve ``@include`` directives.
    """
    parser = _Parser(source, name, loader)
    return parser.parse()


class _Parser:
    def __init__(self, source, name, loader, _depth=0):
        self._lines = source.splitlines()
        self._name = name
        self._loader = loader
        self._index = 0
        self._depth = _depth
        if _depth > 16:
            raise TemplateSyntaxError("include nesting too deep", name)

    def _error(self, message, line):
        raise TemplateSyntaxError(message, self._name, line)

    def parse(self):
        body, terminator = self._parse_body(terminators=())
        assert terminator is None
        return ast.Template(name=self._name, body=body)

    def _parse_body(self, terminators):
        """Parse until EOF or one of *terminators*; return (body, term)."""
        body = []
        while self._index < len(self._lines):
            lineno = self._index + 1
            raw = self._lines[self._index]
            self._index += 1
            stripped = raw.lstrip()
            if stripped.startswith("@@"):
                # Escaped literal '@' line.
                indent = raw[: len(raw) - len(stripped)]
                body.append(self._text_line(indent + stripped[1:], lineno))
                continue
            if not stripped.startswith("@"):
                body.append(self._text_line(raw, lineno))
                continue

            directive_text = stripped[1:]
            word = directive_text.split(None, 1)[0] if directive_text.strip() else ""
            rest = directive_text[len(word) :].strip()

            if word in terminators:
                return body, (word, rest, lineno)
            if word in ("#",) or word.startswith("#") or word.startswith("//"):
                continue
            handler = getattr(self, f"_parse_{word}", None)
            if handler is None:
                self._error(f"unknown directive @{word}", lineno)
            node = handler(rest, lineno)
            if node is not None:
                if isinstance(node, list):
                    body.extend(node)
                else:
                    body.append(node)
        return body, None

    @staticmethod
    def _text_line(raw, lineno):
        newline = True
        if raw.endswith("\\") and not raw.endswith("\\\\"):
            raw = raw[:-1]
            newline = False
        elif raw.endswith("\\\\"):
            raw = raw[:-1]  # escaped backslash at end of line
        return ast.TextLine(parts=split_parts(raw), newline=newline, line=lineno)

    # -- directive handlers --------------------------------------------------

    def _parse_foreach(self, rest, lineno):
        try:
            # Without quotes or escapes, shlex's words are the runs between
            # its whitespace; only a quoted modifier needs shlex itself.
            words = shlex.split(rest) if _QUOTING.search(rest) else _WORD.findall(rest)
        except ValueError as exc:
            self._error(f"malformed @foreach arguments: {exc}", lineno)
        if not words:
            self._error("@foreach requires a list name", lineno)
        node = ast.Foreach(list_name=words[0], line=lineno)
        index = 1
        while index < len(words):
            modifier = words[index]
            if modifier == "-map":
                if index + 2 >= len(words):
                    self._error("-map requires a variable and a map name", lineno)
                node.maps[words[index + 1]] = words[index + 2]
                index += 3
            elif modifier == "-ifMore":
                if index + 1 >= len(words):
                    self._error("-ifMore requires a separator", lineno)
                node.if_more = words[index + 1]
                index += 2
            elif modifier == "-sep":
                if index + 1 >= len(words):
                    self._error("-sep requires a separator", lineno)
                node.separator = words[index + 1]
                index += 2
            elif modifier == "-reverse":
                node.reverse = True
                index += 1
            else:
                self._error(f"unknown @foreach modifier {modifier!r}", lineno)
        body, terminator = self._parse_body(terminators=("end",))
        if terminator is None:
            self._error(f"@foreach {node.list_name} never closed by @end", lineno)
        _, end_arg, end_line = terminator
        if end_arg and end_arg.split()[0] != node.list_name:
            self._error(
                f"@end {end_arg.split()[0]} does not close @foreach {node.list_name}",
                end_line,
            )
        node.body = body
        return node

    def _parse_if(self, rest, lineno):
        node = ast.If(line=lineno)
        condition = self._parse_condition(rest, lineno)
        while True:
            body, terminator = self._parse_body(terminators=("elif", "else", "fi"))
            if terminator is None:
                self._error("@if never closed by @fi", lineno)
            word, term_rest, term_line = terminator
            node.branches.append((condition, body))
            if word == "fi":
                return node
            if word == "elif":
                condition = self._parse_condition(term_rest, term_line)
                continue
            # @else: one final unconditional branch, then expect @fi.
            body, terminator = self._parse_body(terminators=("fi",))
            if terminator is None:
                self._error("@else never closed by @fi", term_line)
            node.branches.append((None, body))
            return node

    def _parse_condition(self, rest, lineno):
        for op in ("==", "!="):
            if op in rest:
                left, _, right = rest.partition(op)
                return ast.Condition(
                    left=split_parts(_unquote(left.strip())),
                    op=op,
                    right=split_parts(_unquote(right.strip())),
                    line=lineno,
                )
        if not rest.strip():
            self._error("@if requires a condition", lineno)
        return ast.Condition(left=split_parts(_unquote(rest.strip())), op="", line=lineno)

    def _parse_openfile(self, rest, lineno):
        if not rest:
            self._error("@openfile requires a path", lineno)
        return ast.OpenFile(parts=split_parts(rest), line=lineno)

    def _parse_closefile(self, rest, lineno):
        return ast.CloseFile(line=lineno)

    def _parse_set(self, rest, lineno):
        pieces = rest.split(None, 1)
        if not pieces:
            self._error("@set requires a name", lineno)
        name = pieces[0]
        value = pieces[1] if len(pieces) > 1 else ""
        return ast.SetVar(name=name, parts=split_parts(_unquote(value)), line=lineno)

    def _parse_include(self, rest, lineno):
        if not rest:
            self._error("@include requires a template name", lineno)
        if self._loader is None:
            self._error(f"@include {rest}: no template loader configured", lineno)
        try:
            source = self._loader(rest)
        except KeyError:
            self._error(f"@include {rest}: template not found", lineno)
            return None  # unreachable; _error raises
        sub = _Parser(source, rest, self._loader, _depth=self._depth + 1)
        return sub.parse().body


def _unquote(text):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text
