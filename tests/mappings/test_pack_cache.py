"""``MappingPack.compiled``: step 1 runs once per template (paper §4.1).

"The first step of the code-generation stage need only be performed
once for a particular code-generation template": each pack instance
keeps the compiled generator of every template it has used.
"""

from repro.est.node import Ast
from repro.mappings import MappingPack
from repro.templates.runtime import Runtime

TEMPLATE = "line ${x}\n"


class LinePack(MappingPack):
    """A pack whose templates live in a test's temporary directory."""

    name = "line_pack"

    def __init__(self, directory):
        super().__init__()
        self._directory = str(directory)

    def template_dir(self):
        return self._directory


def pack_with(tmp_path, templates):
    for name, text in templates.items():
        (tmp_path / name).write_text(text)
    return LinePack(tmp_path)


class TestCompiledTemplateCache:
    def test_first_compiled_compiles(self, tmp_path):
        pack = pack_with(tmp_path, {"t.tmpl": TEMPLATE})
        assert pack.compiled("t.tmpl").template.body

    def test_second_compiled_hits(self, tmp_path):
        pack = pack_with(tmp_path, {"t.tmpl": TEMPLATE})
        first = pack.compiled("t.tmpl")
        (tmp_path / "t.tmpl").unlink()  # a second compile would fail
        assert pack.compiled("t.tmpl") is first

    def test_different_names_distinct(self, tmp_path):
        pack = pack_with(tmp_path, {"a.tmpl": TEMPLATE, "b.tmpl": TEMPLATE})
        assert pack.compiled("a.tmpl") is not pack.compiled("b.tmpl")

    def test_cached_template_still_runs(self, tmp_path):
        pack = pack_with(tmp_path, {"t.tmpl": TEMPLATE})
        for _ in range(2):
            runtime = Runtime(Ast("Root", "Root"), variables={"x": "1"})
            pack.compiled("t.tmpl").run(runtime)
            assert runtime.sink.default_text == "line 1\n"
