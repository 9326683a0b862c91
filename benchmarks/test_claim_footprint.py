"""C5 — §4.2 claim: "it is possible to write templates for stubs and
skeletons that only use portions of the ORB library to minimize the ORB
footprint as may be required for small embedded devices."

Measured as the static import closure of the runtime: the text-only ORB
versus the ORB plus the GIOP substrate, and the whole library versus the
minimal subset a generated text-protocol stub needs.
"""

from repro.footprint import count_package_lines, import_closure, subset_report

from benchmarks.conftest import write_artifact


def footprints():
    minimal = subset_report(["repro.heidirmi.orb"])
    full = subset_report(["repro.heidirmi.orb", "repro.heidirmi.iiop"])
    return minimal, full


def test_minimal_orb_excludes_giop():
    closure = import_closure(["repro.heidirmi.orb"])
    assert not any(module.startswith("repro.giop") for module in closure)


def test_footprint_grows_with_giop():
    minimal, full = footprints()
    assert full["<total>"] > minimal["<total>"]
    # The GIOP substrate is a substantial fraction, as a real IIOP
    # engine is for a minimal ORB.
    assert full["<total>"] - minimal["<total>"] > 200


def test_client_only_subset_smaller_than_full_orb():
    """A pure client needs no acceptor/skeleton machinery — a template
    that only emits stubs pulls in less."""
    client_only = subset_report(
        ["repro.heidirmi.stub", "repro.heidirmi.connection",
         "repro.heidirmi.protocol"]
    )
    server_full = subset_report(["repro.heidirmi.orb"])
    assert client_only["<total>"] < server_full["<total>"]


def test_runtime_is_fraction_of_whole_library():
    import os

    import repro

    minimal, _ = footprints()
    whole, _per_file = count_package_lines(os.path.dirname(repro.__file__))
    assert minimal["<total>"] < whole.code / 2


def test_c5_artifact(benchmark):
    minimal, full = benchmark(footprints)
    lines = ["C5 — ORB footprint (code lines in static import closure)"]
    lines.append(f"  text-only ORB       : {minimal['<total>']:5d} LoC, "
                 f"{len(minimal) - 1} modules")
    lines.append(f"  ORB + GIOP substrate: {full['<total>']:5d} LoC, "
                 f"{len(full) - 1} modules")
    lines.append("  modules in the minimal closure:")
    for module in sorted(minimal):
        if module != "<total>":
            lines.append(f"    {module:40s} {minimal[module]:5d}")
    write_artifact("claim_c5_footprint.txt", "\n".join(lines) + "\n")
