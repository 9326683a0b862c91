"""C7 — §4.1 claim: "the first step of the code-generation stage need
only be performed once for a particular code-generation template."

Measured on the cache the compiler uses: ``MappingPack.compiled`` keeps
each template's step-1 output per pack instance.  A fresh pack compiles
on its first ``compiled(name)`` (cold); every later call on the same
pack returns the same generator (hit).  Expected shape: cached
generation strictly faster; the hit itself is orders of magnitude
cheaper than compilation.
"""

import time

from repro.est import build_est
from repro.idl import parse
from repro.templates.compiler import compile_template
from repro.templates.runtime import Runtime

from benchmarks.conftest import PAPER_IDL, write_artifact
from repro.mappings import get_pack

PACK = "heidi_cpp"
TEMPLATE = "interface_header.tmpl"


def paper_est():
    return build_est(parse(PAPER_IDL, filename="A.idl"))


def generate_with(compiled, est):
    runtime = Runtime(est, maps=get_pack(PACK).maps.child(),
                      variables={"basename": "A", "idlFile": "A.idl"})
    compiled.run(runtime)
    return runtime.sink.files()


def recompiled():
    """Step 1 from scratch, as an uncached compiler would run it."""
    pack = get_pack(PACK)
    return compile_template(pack.load_template_source(TEMPLATE), name=TEMPLATE,
                            loader=pack.load_template_source)


def test_cache_amortizes_step1():
    fresh_packs = [get_pack(PACK) for _ in range(5)]
    start = time.perf_counter()
    for pack in fresh_packs:
        pack.compiled(TEMPLATE)
    compile_time = (time.perf_counter() - start) / len(fresh_packs)
    pack = fresh_packs[0]
    start = time.perf_counter()
    for _ in range(50):
        pack.compiled(TEMPLATE)
    hit_time = (time.perf_counter() - start) / 50
    assert hit_time * 10 < compile_time, (hit_time, compile_time)


def test_cached_generation_output_identical():
    pack = get_pack(PACK)
    est = paper_est()
    first = generate_with(pack.compiled(TEMPLATE), est)
    assert pack.compiled(TEMPLATE) is pack.compiled(TEMPLATE)
    second = generate_with(pack.compiled(TEMPLATE), est)
    assert first == second


def test_generation_with_cache_bench(benchmark):
    pack = get_pack(PACK)
    est = paper_est()
    pack.compiled(TEMPLATE)  # prime

    def run():
        return generate_with(pack.compiled(TEMPLATE), est)

    files = benchmark(run)
    assert "A.hh" in files


def test_generation_without_cache_bench(benchmark):
    est = paper_est()

    def run():
        return generate_with(recompiled(), est)

    files = benchmark(run)
    assert "A.hh" in files


def test_c7_artifact():
    pack = get_pack(PACK)
    est = paper_est()
    pack.compiled(TEMPLATE)

    def timed(func, rounds=20):
        start = time.perf_counter()
        for _ in range(rounds):
            func()
        return (time.perf_counter() - start) / rounds

    with_cache = timed(lambda: generate_with(pack.compiled(TEMPLATE), est))
    without = timed(lambda: generate_with(recompiled(), est))
    lines = [
        "C7 — step-1 amortization (seconds per generation)",
        f"  MappingPack.compiled hit: {with_cache:.3e}",
        f"  recompile every run     : {without:.3e}",
        f"  speedup                 : {without / with_cache:.1f}x",
        "  expected shape: step 1 runs once; cached generation wins",
    ]
    write_artifact("claim_c7_template_cache.txt", "\n".join(lines) + "\n")
