"""The ``idl_compile`` workload: five IDL files through five mapping packs.

No server: one thread round-robins ``Pipeline(pack).run(source)`` over
(file, pack) pairs in seeded order, pipelines reused so template caches
are warm.  Every compile must be byte-identical to the pair's first
compile, which is checked against the IDL text.
"""

import os
import random
import re
import string
import subprocess
import sys
import time
from collections import namedtuple

from perf import host

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS_DIR = os.path.join(HERE, "corpus")
CHECKED_IN = ("A.idl", "media_control.idl", "orbmonitor.idl")

_PRIMITIVES = ("long", "double", "string", "boolean", "short")


def wide_idl(rng, operations=200):
    """One interface, *operations* operations with 24-character names.

    The seed picks the names and their order; parameter types follow
    the position, so the source size never depends on the seed.
    """
    lines = ["module Wide {", "  interface Panel {"]
    for index in range(operations):
        name = "op" + "".join(rng.choices(string.ascii_lowercase, k=22))
        result = _PRIMITIVES[(index + 2) % 5]
        first = _PRIMITIVES[index % 5]
        second = _PRIMITIVES[(index + 1) % 5]
        lines.append(f"    {result} {name}(in {first} a, in {second} b);")
    lines += ["  };", "};"]
    return "\n".join(lines) + "\n"


def deep_idl(rng, depth=6, operations=4):
    """A chain of *depth* interfaces, each inheriting the one before."""
    lines = ["module Deep {"]
    parent = None
    for level in range(depth):
        name = "Level" + "".join(rng.choices(string.ascii_uppercase, k=8))
        heading = f"  interface {name}"
        if parent:
            heading += f" : {parent}"
        lines.append(heading + " {")
        for index in range(operations):
            lines.append(f"    long m{level}_{index}(in long x);")
        lines.append("  };")
        parent = name
    lines.append("};")
    return "\n".join(lines) + "\n"


def corpus(seed):
    """[(filename, source)]: three checked-in files, two seeded ones."""
    rng = random.Random(seed)
    files = []
    for name in CHECKED_IN:
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as handle:
            files.append((name, handle.read()))
    files.append(("wide.idl", wide_idl(rng)))
    files.append(("deep.idl", deep_idl(rng)))
    return files


def declared_names(source):
    """Interface and operation names, read off the IDL text by regex —
    independent of the compiler under test."""
    text = re.sub(r"//[^\n]*", "", source)
    interfaces = set(re.findall(r"\binterface\s+(\w+)", text))
    operations = set(re.findall(r"\b(\w+)\s*\(", text)) - {"raises", "sequence"}
    return interfaces, operations


Pair = namedtuple("Pair", "filename source pack")


class Session:
    """Five pipelines and the reference output of every pair.

    Building it is ``setup_s`` on this workload: import the compiler,
    build one Pipeline per pack (a cold template compile each) and
    compile every pair once.
    """

    def __init__(self, seed):
        self.seed = seed
        start = time.perf_counter()
        from repro.compiler.pipeline import Pipeline
        from repro.mappings.registry import all_packs

        rng = random.Random(self.seed)
        files = corpus(self.seed)
        self.packs = all_packs()
        self.pipelines = {pack: Pipeline(pack) for pack in self.packs}
        self.pairs = [Pair(name, source, pack)
                      for name, source in files for pack in self.packs]
        rng.shuffle(self.pairs)
        self.reference = {
            (pair.filename, pair.pack): self.compile(pair)
            for pair in self.pairs
        }
        self.setup_s = time.perf_counter() - start

    def compile(self, pair):
        return self.pipelines[pair.pack].run(pair.source,
                                             filename=pair.filename)

    def run_cycle(self, failures, timings=None):
        """Compile every pair once; returns (latency_us, 1) samples."""
        clock = time.perf_counter
        samples = []
        for pair in self.pairs:
            start = clock()
            try:
                result = self.compile(pair)
            except Exception as exc:  # noqa: BLE001 - reported as failed
                failures.add(f"{pair.filename}/{pair.pack}: {exc!r}")
                continue
            finally:
                samples.append(((clock() - start) * 1e6, 1))
            key = (pair.filename, pair.pack)
            if result.files != self.reference[key].files:
                failures.add(f"{pair.filename}/{pair.pack}: output differs "
                             "from the first compile")
            if timings is not None:
                row = timings.setdefault(key, [])
                row.append(dict(result.timings,
                                total=samples[-1][0] / 1e6))
        return samples

    def generated_bytes_per_op(self):
        sizes = [sum(len(text.encode("utf-8")) for text in r.files.values())
                 for r in self.reference.values()]
        return sum(sizes) / len(sizes)

    # -- correctness beyond byte-identity ---------------------------------

    def check_outputs(self, failures):
        """Each pair's first compile against the IDL text, then one call
        through the exec'd python_rmi output."""
        for pair in self.pairs:
            files = self.reference[(pair.filename, pair.pack)].files
            where = f"{pair.filename}/{pair.pack}"
            if not files or not all(files.values()):
                failures.add(f"{where}: empty output")
                continue
            interfaces, operations = declared_names(pair.source)
            everything = "\n".join(files.values())
            missing = sorted(name for name in interfaces | operations
                             if name not in everything)
            if missing:
                failures.add(f"{where}: no mapping for {missing[:3]}")
        try:
            self._call_through_generated()
        except Exception as exc:  # noqa: BLE001 - reported as failed
            failures.add(f"python_rmi output did not serve a call: {exc!r}")

    def _call_through_generated(self):
        """exec deep.idl's python_rmi mapping and call an inherited
        operation on the most derived interface over inproc."""
        from repro.heidirmi import Orb

        source = dict(corpus(self.seed))["deep.idl"]
        files = self.reference[("deep.idl", "python_rmi")].files
        (path, code), = files.items()
        namespace = {"__name__": "perf._generated_deep"}
        exec(compile(code, path, "exec"), namespace)
        leaf = re.findall(r"interface\s+(\w+)", source)[-1]

        class Impl:
            _hd_type_id_ = f"IDL:Deep/{leaf}:1.0"

            def __getattr__(self, name):
                return lambda x: x + 1

        server = Orb(transport="inproc", protocol="text").start()
        client = Orb(transport="inproc", protocol="text")
        try:
            stub = client.resolve(server.register(Impl()).stringify())
            if not isinstance(stub, namespace[f"Deep_{leaf}_stub"]):
                raise RuntimeError("resolve did not build the generated stub")
            if stub.m0_0(41) != 42:
                raise RuntimeError("inherited operation returned wrong value")
        finally:
            client.stop()
            server.stop()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_STAGE_METRICS = (
    ("lint.check_ms", "lint"),
    ("idl.parse_ms", "parse"),
    ("est.build_ms", "build_est"),
    ("est.emit_program_ms", "emit_est_program"),
    ("mappings.generate_ms", "generate"),
)


def _per_op(timings, pick):
    """Mean over pairs of each pair's median: cost of the average op."""
    return sum(host.median([pick(row) for row in timings[key]])
               for key in timings) / len(timings)


def layer_metrics(session, timings):
    """Stage costs from ``CompileResult.timings`` of the traced cycles.

    ``compiler.glue_ms`` is the op's wall time minus its stage timings:
    what ``Pipeline.run`` spends outside the stages it clocks.
    """
    from repro.compiler.pipeline import Pipeline

    metrics = {
        name: _per_op(timings, lambda row, s=stage: row[s]) * 1e3
        for name, stage in _STAGE_METRICS
    }
    clocked = [stage for _, stage in _STAGE_METRICS] + ["compile_template"]
    metrics["compiler.glue_ms"] = _per_op(
        timings,
        lambda row: row["total"] - sum(row[s] for s in clocked),
    ) * 1e3

    # One pass with the EST crossing stages as a program (paper Fig. 8).
    loads = []
    for pack in session.packs:
        pipeline = Pipeline(pack, use_est_program=True)
        for pair in session.pairs:
            if pair.pack != pack:
                continue
            costs = [
                pipeline.run(pair.source, filename=pair.filename)
                .timings["load_est_program"] for _ in range(3)
            ]
            loads.append(host.median(costs))
    metrics["est.load_program_ms"] = sum(loads) / len(loads) * 1e3

    cold = []
    for pack in session.packs:
        pipeline = Pipeline(pack)
        start = time.perf_counter()
        pipeline.compile_template()
        cold.append(time.perf_counter() - start)
    metrics["templates.compile_ms"] = sum(cold) / len(cold) * 1e3

    references = list(session.reference.values())
    sources = [len(pair.source.encode("utf-8")) for pair in session.pairs]
    metrics["idl.source_bytes_per_op"] = sum(sources) / len(sources)
    metrics["est.nodes_per_op"] = sum(
        sum(1 for _ in r.est.walk()) for r in references) / len(references)
    metrics["mappings.generated_bytes_per_op"] = (
        session.generated_bytes_per_op())
    metrics["mappings.generated_files_per_op"] = sum(
        len(r.files) for r in references) / len(references)
    return metrics


def log_spans(log, workload, timings):
    """The first traced compile of every pair as spans: the stages that
    ``Pipeline.run`` clocks, laid end to end from zero under the op."""
    for (filename, pack), rows in timings.items():
        row = rows[0]
        op_id = log.new_op()
        root = f"{filename}/{pack}"
        log.add(root, 0, int(row["total"] * 1e9), None, op_id, workload)
        cursor = 0
        for stage, spent in row.items():
            if stage == "total":
                continue
            end = cursor + int(spent * 1e9)
            log.add(stage, cursor, end, root, op_id, workload)
            cursor = end


def cold_cli_ms(packs):
    """One ``python -m repro.compiler.cli`` process per pack on A.idl."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    costs = []
    for pack in packs:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.compiler.cli",
             os.path.join(CORPUS_DIR, "A.idl"), "--mapping", pack],
            check=True, stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
            timeout=60,
        )
        costs.append(time.perf_counter() - start)
    return sum(costs) / len(costs) * 1e3
