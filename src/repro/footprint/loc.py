"""Comment-aware line counting for several languages."""

import os
from dataclasses import dataclass

#: Language → (line-comment prefixes, block-comment (open, close) or None)
_LANGUAGES = {
    "python": (("#",), ('"""', '"""')),
    "tcl": (("#",), None),
    "cpp": (("//",), ("/*", "*/")),
    "java": (("//",), ("/*", "*/")),
    "idl": (("//",), ("/*", "*/")),
    "template": (("@#", "@//"), None),
    "text": ((), None),
}

_EXTENSIONS = {
    ".py": "python",
    ".tcl": "tcl",
    ".cc": "cpp",
    ".cpp": "cpp",
    ".hh": "cpp",
    ".h": "cpp",
    ".java": "java",
    ".idl": "idl",
    ".tmpl": "template",
}


@dataclass
class LineCounts:
    """Totals for one text or file."""

    total: int = 0
    blank: int = 0
    comment: int = 0

    @property
    def code(self):
        return self.total - self.blank - self.comment

    def __add__(self, other):
        return LineCounts(
            total=self.total + other.total,
            blank=self.blank + other.blank,
            comment=self.comment + other.comment,
        )


def language_for(path):
    """Guess the counting language from a file extension."""
    _, ext = os.path.splitext(path)
    return _EXTENSIONS.get(ext, "text")


def count_lines(text, language="text"):
    """Count total/blank/comment lines of *text* for *language*.

    Block comments are handled with a simple state machine; a Python
    triple-quoted string at statement level is treated as a docstring
    (comment), which matches how footprint numbers are usually quoted.
    """
    try:
        line_prefixes, block = _LANGUAGES[language]
    except KeyError:
        raise ValueError(
            f"unknown language {language!r}; choose from {sorted(_LANGUAGES)}"
        ) from None
    counts = LineCounts()
    in_block = False
    for raw_line in text.splitlines():
        counts.total += 1
        line = raw_line.strip()
        if in_block:
            counts.comment += 1
            if block and block[1] in line:
                in_block = False
            continue
        if not line:
            counts.blank += 1
            continue
        if any(line.startswith(prefix) for prefix in line_prefixes):
            counts.comment += 1
            continue
        if block and line.startswith(block[0]):
            counts.comment += 1
            opener, closer = block
            remainder = line[len(opener):]
            if closer not in remainder:
                in_block = True
            continue
    return counts


def count_file_lines(path, language=None):
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    return count_lines(text, language or language_for(path))


def count_package_lines(root, suffixes=(".py",)):
    """Sum LineCounts over every matching file under *root*.

    Returns (total LineCounts, {relative path: LineCounts}).
    """
    total = LineCounts()
    per_file = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(tuple(suffixes)):
                continue
            path = os.path.join(dirpath, filename)
            counts = count_file_lines(path)
            per_file[os.path.relpath(path, root)] = counts
            total = total + counts
    return total, per_file
