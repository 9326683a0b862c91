"""Pack registry: look mappings up by name (CLI, tests, benchmarks)."""

from repro.model.errors import HeidiRmiError

_PACKS = {}


def register_pack(pack_class):
    """Register a MappingPack subclass; usable as a class decorator."""
    _PACKS[pack_class.name] = pack_class
    return pack_class


_BUILTIN_MODULES = (
    "repro.mappings.heidi_cpp",
    "repro.mappings.corba_cpp",
    "repro.mappings.java_rmi",
    "repro.mappings.tcl_orb",
    "repro.mappings.python_rmi",
)


def _ensure_builtin_packs():
    # Imported lazily to avoid import cycles at package import time.
    # Packs still under construction are skipped rather than fatal, so a
    # partial checkout remains usable.
    import importlib

    for module_name in _BUILTIN_MODULES:
        try:
            importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue


def get_pack(name):
    """A fresh instance of the named pack."""
    _ensure_builtin_packs()
    pack_class = _PACKS.get(name)
    if pack_class is None:
        raise KeyError(
            f"unknown mapping pack {name!r}; available: {sorted(_PACKS)}"
        )
    return pack_class()


def all_packs():
    """Names of every registered pack."""
    _ensure_builtin_packs()
    return sorted(_PACKS)
