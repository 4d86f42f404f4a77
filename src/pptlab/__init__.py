"""pptlab: exact construction, extension, and certification of PPT states."""

__version__ = "0.1.0"

__all__ = ["exactmat", "qstates", "constructions", "extender", "minors", "algcert", "numlab",
           "serialize", "cli", "acceptance"]


def extension_count_bound(m: int, n: int, p: int, q: int) -> int:
    """Counting bound ``(p + q - m n) n - m`` for nontrivial extensions of
    an ``m x n`` state of birank ``(p, q)``.  It lives here, free of numpy
    and of the exact layer, because both the exact extension solver and the
    float survey use it."""
    return (p + q - m * n) * n - m


def __getattr__(name):
    # Submodules are imported lazily so the exact core stays importable
    # without numpy.
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'pptlab' has no attribute {name!r}")
