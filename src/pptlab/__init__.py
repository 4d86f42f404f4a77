"""pptlab: exact construction, extension, and certification of PPT states."""

__version__ = "0.1.0"

__all__ = ["exactmat", "qstates", "constructions", "extender", "minors", "algcert", "numlab",
           "serialize", "cli", "acceptance"]


def __getattr__(name):
    # Submodules are imported lazily so the exact core stays importable
    # without numpy.
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'pptlab' has no attribute {name!r}")
