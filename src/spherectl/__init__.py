"""Exact-arithmetic invariants of linear S^3-bundles over S^4 and separation
certificates for path components of their moduli spaces of metrics.

The five library modules load on the first read of a public name or of __all__
(PEP 562): `import spherectl` alone, as `python -m spherectl.cli` runs it, loads none."""

__version__ = "0.1.0"


def __getattr__(name: str):
    # the import system probes a submodule here before importing it, and tools probe private names
    if name not in ("bundle", "classify", "exactnum", "moduli", "space") and (name[:1] != "_" or name == "__all__"):
        from . import bundle, classify, exactnum, moduli, space

        modules = (bundle, classify, exactnum, moduli, space)
        globals().update({public: getattr(module, public) for module in modules for public in module.__all__},
                         __all__=[public for module in modules for public in module.__all__])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
