"""Output routing for ``@openfile`` multi-file generation.

Generation writes into an :class:`OutputSink`, which collects one
:class:`GeneratedOutput` per opened file plus a default stream for text
emitted outside any ``@openfile`` region.  Nothing touches the
filesystem until :meth:`OutputSink.write_to` is called, which keeps
tests and benchmarks hermetic.
"""

import os
from dataclasses import dataclass, field


@dataclass
class GeneratedOutput:
    """One generated file: a relative path and accumulated text."""

    path: str
    chunks: list = field(default_factory=list)

    @property
    def text(self):
        return "".join(self.chunks)


class OutputSink:
    """Collects generated files; the current target is a small stack."""

    DEFAULT = "<default>"

    def __init__(self):
        self._outputs = {}
        self._order = []
        self._stack = [self._get_or_create(self.DEFAULT)]
        self._retarget()

    def _retarget(self):
        #: ``write(text)`` appends to the current target's chunks.
        self.write = self._stack[-1].chunks.append

    def _get_or_create(self, path):
        output = self._outputs.get(path)
        if output is None:
            output = GeneratedOutput(path=path)
            self._outputs[path] = output
            self._order.append(path)
        return output

    # -- runtime interface ------------------------------------------------

    def open_file(self, path):
        """Route subsequent output to *path* (reopening appends)."""
        self._stack.append(self._get_or_create(path))
        self._retarget()

    def close_file(self):
        """Return to the enclosing output target."""
        if len(self._stack) > 1:
            self._stack.pop()
            self._retarget()

    def close_all(self):
        del self._stack[1:]
        self._retarget()

    # -- results ----------------------------------------------------------------

    @property
    def default_text(self):
        return self._outputs[self.DEFAULT].text

    def files(self):
        """Generated files as an ordered {path: text} dict (no default)."""
        return {
            path: self._outputs[path].text
            for path in self._order
            if path != self.DEFAULT and self._outputs[path].text
        }

    def write_to(self, directory):
        """Write every generated file beneath *directory*; return paths."""
        written = []
        for path, text in self.files().items():
            target = os.path.join(directory, path)
            os.makedirs(os.path.dirname(target) or directory, exist_ok=True)
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append(target)
        return written
