"""pptlab: exact construction, extension, and certification of PPT states.
Import each module by name: the package itself imports none of them."""

__version__ = "0.1.0"


def extension_count_bound(m: int, n: int, p: int, q: int) -> int:
    """Counting bound ``(p + q - m n) n - m`` for nontrivial extensions of
    an ``m x n`` state of birank ``(p, q)``.  It lives here, free of numpy
    and of the exact layer, because both the exact extension solver and the
    float survey use it."""
    return (p + q - m * n) * n - m

