"""The replay kernel: the core every ``pptlab verify`` runs, and the ppt replay.

A certificate is trusted only as far as the code that replays it, so that
code sits in this one bottom-layer module, which imports only
:mod:`pptlab.errors` and the standard library: exact scalars
(:class:`GaussianRational`) with their ``"p/q+r/s i"`` text form, dense
matrices (:class:`ExactMatrix`: its value protocol, what ``verify`` runs and
what the tracer pins; the builders' algebra is :mod:`pptlab.exactmat`'s) and
the one Gram kernel :func:`weighted_gram`, the one row elimination
(:func:`_echelon`) behind :class:`Subspace` and :func:`rank`, the state
record (:class:`BipartiteState`, an edge state) with its partial transpose
and the Schmidt rank of a vector, the one state reader :func:`read_state`
and the JSON readers with the sparse ``[index, value]`` reader and the one
field reader :func:`_fields`, which owns every stored layout's keys, the
ppt verifier, and :data:`VERIFIERS`, through which
:func:`verify_certificate` dispatches.  It factors nothing.
The sn-verdict replay is :mod:`pptlab.minors`, which :data:`VERIFIERS`
imports only to replay one, so a ppt ``verify`` never compiles it.
:mod:`pptlab.exactmat`, :mod:`pptlab.qstates` and :mod:`pptlab.serialize`
import the kernel from here.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Sequence

from .errors import BoundsViolation, DimensionMismatch, NotPsd, PptlabError, ScalarTooLarge

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts.

    Values are immutable.  Mixed arithmetic with ``int`` and ``Fraction``
    is supported; division by zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _raw(re: Fraction, im: Fraction) -> "GaussianRational":
        z = object.__new__(GaussianRational)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = as_scalar(other)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = as_scalar(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:  # real fast path
            return GaussianRational._raw(a * c, _ZERO)
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        n2 = other.abs2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        if self.im == 0 and other.im == 0:
            return GaussianRational._raw(self.re / other.re, _ZERO)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._raw((a * c + b * d) / n2, (b * c - a * d) / n2)

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        if self.im == 0:
            return self
        return GaussianRational._raw(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus; exact, nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates & conversions ---------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def as_scalar(x) -> GaussianRational:
    """Coerce int, Fraction or GaussianRational to a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational._raw(_frac(x), _ZERO)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def format_scalar(z) -> str:
    """Serialize an exact scalar (GaussianRational, int or Fraction) as
    ``"p/q"`` or ``"p/q+r/s i"``; every scalar written to JSON goes through here.

    Python converts an int of more than ``sys.get_int_max_str_digits()``
    decimal digits neither to nor from text (the limit guards readers of
    untrusted JSON against quadratic-time parsing), so a longer part raises
    :class:`ScalarTooLarge` naming the limit and the digit count.
    """
    z = as_scalar(z)
    try:
        if z.im == 0:
            return str(z.re)
        sign = "+" if z.im >= 0 else "-"
        return f"{z.re}{sign}{abs(z.im)} i"
    except ValueError:
        digits = max(_decimal_digits(n) for x in (z.re, z.im)
                     for n in (x.numerator, x.denominator))
        raise ScalarTooLarge(f"a scalar with a {digits}-digit part exceeds Python's limit of "
                             f"{sys.get_int_max_str_digits()} digits for int-to-text "
                             "conversion") from None


def _decimal_digits(n: int) -> int:
    n = abs(n)
    d = int(n.bit_length() * 0.30102999566398120)  # log10(2): the count is d or d + 1
    return d + 1 if n >= 10 ** d else d


def parse_scalar(text: str) -> GaussianRational:
    """Inverse of :func:`format_scalar`; each part is read by :func:`_rational`."""
    if not (isinstance(text, str) and text.strip().endswith("i")):
        return GaussianRational(_rational(text))
    body = text.strip()[:-1].strip()
    # the sign between the parts; a sign after "e" is an exponent's ("2e-3")
    pos = next((p for p in range(len(body) - 1, 0, -1)
                if body[p] in "+-" and body[p - 1] not in "+-/eE"), 0)
    if body[pos:] in ("", "+", "-"):  # "i", "-i", "1+i"
        raise ValueError(f"{text.strip()[:20]!r} is not of the form 'p/q+r/s i' (i: '0+1 i')")
    return GaussianRational(_rational(body[:pos] or "0"), _rational(body[pos:]))


# ---------------------------------------------------------------------------
# vectors: plain tuples of GaussianRational
# ---------------------------------------------------------------------------

Vector = tuple  # tuple[GaussianRational, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def vdot(u: Vector, v: Vector) -> GaussianRational:
    """Hermitian inner product ``<u|v>``, conjugate-linear in ``u``."""
    if len(u) != len(v):
        raise DimensionMismatch("vectors of different length")
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a.conj() * b
    return acc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense immutable matrix of Gaussian rationals."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        e = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        if e and any(len(r) != len(e[0]) for r in e):
            raise DimensionMismatch("ragged matrix rows")
        object.__setattr__(self, "_e", e)
        object.__setattr__(self, "rows", len(e))
        object.__setattr__(self, "cols", len(e[0]) if e else 0)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def outer(u: Vector, v: Vector) -> "ExactMatrix":
        """Rank-one operator ``|u><v|``."""
        vc = [b.conj() for b in v]
        return ExactMatrix([[a * b for b in vc] for a in u])

    # -- access ----------------------------------------------------------
    def entry(self, i: int, j: int) -> GaussianRational:
        return self._e[i][j]

    def row(self, i: int) -> Vector:
        return self._e[i]

    def tolists(self):
        return [list(r) for r in self._e]

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix([[c * a for a in r] for r in self._e])

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        ot = list(zip(*other._e))  # columns of other
        out = []
        for r in self._e:
            nz = [(k, a) for k, a in enumerate(r) if a]
            out_row = []
            for c in ot:
                acc = ZERO
                for k, a in nz:
                    b = c[k]
                    if b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(out)

    def matvec(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise DimensionMismatch("matrix-vector shape mismatch")
        out = []
        for r in self._e:
            acc = ZERO
            for a, b in zip(r, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    # -- predicates --------------------------------------------------------
    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")


def weighted_gram(vectors: Sequence[Vector], weights: Sequence, dim: int) -> ExactMatrix:
    """Conic sum ``sum_i w_i |v_i><v_i|`` as a ``dim x dim`` matrix, with
    rational weights ``w_i`` (ints or ``Fraction``s).

    Only the nonzero entries of each vector are visited, so a sum of sparse
    grid edges costs per pair of nonzeros rather than per matrix entry.
    The sum runs on the integer kernel: each vector's nonzeros are scaled
    to Gaussian integers ``u = s v``, its weight ``w / s^2`` is written over
    the common denominator of all terms, and the integer sums are reduced
    to Gaussian rationals once per entry at the end.
    """
    if len(vectors) != len(weights):
        raise DimensionMismatch(f"{len(vectors)} vectors but {len(weights)} weights")
    terms = []
    for v, w in zip(vectors, weights):
        if len(v) != dim:
            raise DimensionMismatch(f"vector of length {len(v)} in a {dim}-dimensional Gram sum")
        nz = [i for i, a in enumerate(v) if a]
        if nz and w:
            values = [v[i] for i in nz]
            s = _row_lcm(values)
            terms.append((nz, *_int_row(values, s), _frac(w) / (s * s)))
    scale = math.lcm(*(c.denominator for *_, c in terms))
    acc = {}  # (i, j): the integer sums (re, im) of entry (i, j) times scale
    for nz, re, im, c in terms:
        mult = c.numerator * (scale // c.denominator)
        im = im or [0] * len(nz)
        for i, a, ai in zip(nz, re, im):
            xr, xi = mult * a, mult * ai  # scale * w / s^2 * u_i
            for j, b, bi in zip(nz, re, im):
                sr, si = acc.get((i, j), (0, 0))
                acc[i, j] = (sr + xr * b + xi * bi, si + xi * b - xr * bi)
    out = [[ZERO] * dim for _ in range(dim)]
    for (i, j), (sr, si) in acc.items():
        out[i][j] = _quotient(sr, si, (scale, 0))
    return ExactMatrix(out)


# ---------------------------------------------------------------------------
# integer kernel: Gaussian-integer rows with a shared denominator
# ---------------------------------------------------------------------------
#
# A row is two int lists ``(re, im)``, ``im`` None when the row is real, and
# stands for ``row / den``; scalars are ``(re, im)`` int pairs.  Eliminating
# with pivot ``p`` maps a row to ``(p * row - f * pivot_row) / den``, an
# exact division: Bareiss's step (Bareiss 1968; Zhou & Jeffrey 2008 for
# LDL*) taken lazily, so a row the pivot does not touch keeps its entries
# and its ``den``, the pivot of the step that last changed it.

def _row_lcm(row) -> int:
    """Least common denominator of a sequence of Gaussian rationals."""
    return math.lcm(*{x.re.denominator for x in row}, *{x.im.denominator for x in row})


def _int_row(row, scale: int) -> tuple:
    """``scale * row`` as Gaussian-integer lists ``(re, im)``; ``scale`` must
    clear every denominator."""
    if scale == 1:
        re = [x.re.numerator for x in row]
        im = [x.im.numerator for x in row]
    else:
        re = [x.re.numerator * (scale // x.re.denominator) for x in row]
        im = [x.im.numerator * (scale // x.im.denominator) for x in row]
    return re, (im if any(im) else None)


def _combine(a: tuple, x: tuple, b: tuple, y: tuple, q: tuple) -> tuple:
    """Exact ``(a * x - b * y) / q`` for Gaussian-integer rows ``x``, ``y``
    and scalars ``a``, ``b``, ``q``; the quotient must be integral."""
    (ar, ai), (br, bi), (qr, qi) = a, b, q
    (xr, xi), (yr, yi) = x, y
    if xi is None and yi is None and not (ai or bi or qi):
        if qr == 1:
            return [ar * u - br * v for u, v in zip(xr, yr)], None
        return [(ar * u - br * v) // qr for u, v in zip(xr, yr)], None
    zero = [0] * len(xr)
    xi, yi = xi or zero, yi or zero
    re = [ar * u - ai * s - br * v + bi * t for u, s, v, t in zip(xr, xi, yr, yi)]
    im = [ar * s + ai * u - br * t - bi * v for u, s, v, t in zip(xr, xi, yr, yi)]
    if qi:
        n2 = qr * qr + qi * qi
        re, im = ([(u * qr + s * qi) // n2 for u, s in zip(re, im)],
                  [(s * qr - u * qi) // n2 for u, s in zip(re, im)])
    elif qr != 1:
        re = [u // qr for u in re]
        im = [s // qr for s in im]
    return re, (im if any(im) else None)


def _entry(row: tuple, j: int) -> tuple:
    re, im = row
    return re[j], (im[j] if im is not None else 0)


def _nonzero(row: tuple, j: int) -> bool:
    re, im = row
    return bool(re[j] or (im is not None and im[j]))


def _quotient(ur: int, ui: int, q: tuple) -> GaussianRational:
    """``(ur + ui i) / q`` as a reduced Gaussian rational."""
    qr, qi = q
    if qi:
        n2 = qr * qr + qi * qi
        ur, ui, qr = ur * qr + ui * qi, ui * qr - ur * qi, n2
    if not ui:
        return GaussianRational._raw(Fraction(ur, qr), _ZERO) if ur else ZERO
    return GaussianRational._raw(Fraction(ur, qr), Fraction(ui, qr))


def _int_rows(rows: Iterable[Sequence]) -> list:
    """Each row of Gaussian rationals scaled to Gaussian integers by its own
    least common denominator."""
    return [_int_row(row, _row_lcm(row)) for row in rows]


def _echelon(work: list, columns: Iterable[int], reduce: bool = True) -> list:
    """Fraction-free elimination of the Gaussian-integer rows ``work``, in place.

    The one row elimination of the package.  Pivots are the first nonzero
    entry at or below the current row, column by column in the order
    ``columns``; each clears its column from every other row, or only from
    the rows below it (enough for a rank) unless ``reduce``.  Returns the
    pivot columns; ``work[r]`` is then a multiple of the ``r``-th pivot row.
    """
    nrows = len(work)
    den = [(1, 0)] * nrows
    p_prev = (1, 0)
    pivots = []
    r = 0
    for c in columns:
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if _nonzero(work[i], c)), None)
        if pr is None:
            continue
        work[r], work[pr], den[r], den[pr] = work[pr], work[r], den[pr], den[r]
        if den[r] != p_prev:    # bring the pivot row up to the current step
            work[r] = _combine(p_prev, work[r], (0, 0), work[r], den[r])
        pivot_row = work[r]
        p = _entry(pivot_row, c)
        for i in range(0 if reduce else r + 1, nrows):
            if i != r and _nonzero(work[i], c):
                work[i] = _combine(p, work[i], _entry(work[i], c), pivot_row, den[i])
                den[i] = p
        den[r] = p_prev = p
        pivots.append(c)
        r += 1
    return pivots


def _rref(rows: Sequence[Sequence], limit_cols: int | None = None) -> tuple:
    """Reduced row echelon form of ``rows`` (sequences of GaussianRational).

    Pivot search is restricted to the first ``limit_cols`` columns when
    given, which makes the same routine usable on augmented systems.
    Returns ``(pivot columns, pivot rows normalized to 1 and eliminated
    above and below, whether every other row reduced to zero)``.
    """
    work = _int_rows(rows)
    ncols = len(work[0][0]) if work else 0
    pivots = _echelon(work, range(ncols if limit_cols is None else limit_cols))
    reduced = []
    for row, c in zip(work, pivots):
        lead = _entry(row, c)
        re, im = row
        im = im or [0] * len(re)
        reduced.append(tuple(_quotient(u, s, lead) for u, s in zip(re, im)))
    rest_zero = not any(any(re) or im is not None for re, im in work[len(pivots):])
    return pivots, reduced, rest_zero


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace with a canonical RREF basis.

    Two subspaces are equal iff their canonical bases are identical, so
    equality is decidable by syntactic comparison.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Vector]):
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("basis vector of wrong length")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(_rref(rows)[1]))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis


def rank(M: ExactMatrix) -> int:
    return len(_echelon(_int_rows(M._e), range(M.cols), reduce=False))


# ---------------------------------------------------------------------------
# bipartite states
# ---------------------------------------------------------------------------

Side = Literal["A", "B"]


def flat_index(i: int, j: int, n: int) -> int:
    return i * n + j


class NamedVector(NamedTuple):
    """A labeled vector with a rational weight: a state's edge, of positive weight."""

    name: str
    vec: Vector
    weight: Fraction


class BipartiteState:
    """Unnormalized bipartite density operator with exact entries.

    Made from its ``edges``, a conic decomposition ``sum_w w |v><v|`` with
    positive weights (any other weight is refused): one Gram sum, PSD, whose
    range they span.  Both dimensions are positive.  A matrix state is
    :class:`qstates.BipartiteState`'s or :func:`read_state`'s."""

    __slots__ = ("dim_a", "dim_b", "matrix", "label", "edges")

    def __init__(self, dim_a: int, dim_b: int, label: str, edges: Sequence[NamedVector]):
        _check_dims(dim_a, dim_b)
        edges = tuple(edges)
        bad = next((e for e in edges if e.weight <= 0), None)
        if bad is not None:
            sign = "negative" if bad.weight else "zero"
            raise BoundsViolation(f"edge {bad.name!r} has {sign} weight {bad.weight}")
        matrix = weighted_gram([e.vec for e in edges], [e.weight for e in edges], dim_a * dim_b)
        self._set(dim_a, dim_b, matrix, label, edges)

    def _set(self, *fields) -> "BipartiteState":
        for slot, value in zip(BipartiteState.__slots__, fields):  # a subclass adds no slot
            object.__setattr__(self, slot, value)
        return self

    @classmethod
    def _raw(cls, dim_a: int, dim_b: int, matrix: ExactMatrix, label: str,
             edges: tuple | None = None) -> "BipartiteState":
        """Unchecked: a state made from a checked one, ``edges`` summing to ``matrix``."""
        return object.__new__(cls)._set(dim_a, dim_b, matrix, label, edges)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteState is immutable")

    @property
    def dims(self) -> tuple:
        return (self.dim_a, self.dim_b)

    def __eq__(self, other):
        if not isinstance(other, BipartiteState):
            return NotImplemented
        return self.dims == other.dims and self.matrix == other.matrix

    def partial_transpose(self, side: Side) -> ExactMatrix:
        return partial_transpose_matrix(self.matrix, self.dim_a, self.dim_b, side)


def _check_dims(dim_a: int, dim_b: int, matrix: ExactMatrix | None = None) -> None:
    """Positive local dimensions, and a ``matrix`` (if any) of their size."""
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch(f"local dimensions {dim_a}x{dim_b} are not positive")
    if matrix is not None and matrix.shape != (dim_a * dim_b, dim_a * dim_b):
        raise DimensionMismatch("matrix size does not match local dimensions")


def partial_transpose_matrix(M: ExactMatrix, m: int, n: int, side: Side) -> ExactMatrix:
    """Exact partial transpose: ``<ij|M^Tb|kl> = <il|M|kj>`` on side B,
    ``<ij|M^Ta|kl> = <kj|M|il>`` on side A."""
    if M.shape != (m * n, m * n):
        raise DimensionMismatch("operator size does not match local dimensions")
    out = [[ZERO] * (m * n) for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            r = flat_index(i, j, n)
            for k in range(m):
                for l in range(n):
                    c = flat_index(k, l, n)
                    if side == "B":
                        out[r][c] = M.entry(flat_index(i, l, n), flat_index(k, j, n))
                    else:
                        out[r][c] = M.entry(flat_index(k, j, n), flat_index(i, l, n))
    return ExactMatrix(out)


def schmidt_rank(v: Vector, m: int, n: int) -> int:
    """Exact Schmidt rank: rank of the ``m x n`` coefficient matricization."""
    if len(v) != m * n:
        raise DimensionMismatch("vector length does not match dimensions")
    M = ExactMatrix([[v[flat_index(i, j, n)] for j in range(n)] for i in range(m)])
    return rank(M)


# ---------------------------------------------------------------------------
# JSON readers
# ---------------------------------------------------------------------------

# the most levels (dim_a * dim_b) of a state read from input: family:16 (31x31),
# the largest family member within it, builds in 0.35 s at 32 MB peak on 2 vCPU,
# and a state's dense matrix grows with the square of its levels
MAX_DIM = 1024


class CertificateInvalid(PptlabError):
    """A certificate failed its replay."""


class MalformedData(PptlabError):
    """Stored JSON without the fields and types its reader expects."""


def matrix_from_json(data: dict) -> ExactMatrix:
    """The matrix stored as ``{"rows", "cols", "entries"}``, no other key."""
    rows, cols, entries = _fields(data, "matrix", ("rows", "cols", "entries"))
    if not (type(rows) is type(cols) is int and len(entries) == rows and (rows or not cols)
            and all(isinstance(row, list) and len(row) == cols for row in entries)):
        raise ValueError(f"matrix entries are not {rows!r} rows of {cols!r} entries each")
    return ExactMatrix([[parse_scalar(x) for x in row] for row in entries])


def vector_from_json(data, length: int) -> Vector:
    """The vector of ``length`` entries that :func:`serialize.vector_to_json` wrote."""
    return tuple(_sparse_from_json(data, length, parse_scalar, ZERO))


def _sparse_from_json(data, length: int, parse, zero) -> list:
    """The ``length`` entries whose nonzero ones ``data`` lists as
    ``[index, value]`` pairs, ``zero`` elsewhere: int indices increasing
    strictly below ``length``, values that ``parse`` reads as nonzero."""
    if not isinstance(data, list):
        raise TypeError(f"{data!r} is not a list of [index, value] pairs")
    out, last = [zero] * length, -1
    for pair in data:
        index, value = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
        x = parse(value) if type(index) is int and last < index < length else None
        if not x:
            raise ValueError(f"entry {pair!r} is not [index, nonzero value] with an index "
                             f"above {last} and below {length}")
        out[index], last = x, index
    return out


def _rational(text) -> Fraction:
    """A stored rational: a ``"p/q"`` string, never a JSON number or bool,
    whose exponent (``"2e-3"``) expands to at most the digits
    :func:`format_scalar` writes: ``Fraction`` expands it exactly, and
    ``"1e10000000"`` would take seconds."""
    if not isinstance(text, str):
        raise TypeError(f"{text!r} is not a rational string")
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"{text.strip()[:20]!r} expands past {limit} digits")
    return Fraction(text)


def read_state(data: dict) -> BipartiteState:
    """A stored state: its edges go through the edge rule, and its matrix
    is checked for its shape only, leaving its reader to prove it PSD (by a
    ppt certificate's LDL* of rho).  Malformed JSON raises
    :class:`MalformedData`; the state's own checks run outside that
    conversion, so a fault in them keeps its own exception."""
    dim_a, dim_b, label, edges, matrix = _parsed("state", _state_parts, data)
    if matrix is None:
        return BipartiteState(dim_a, dim_b, label, edges)
    _check_dims(dim_a, dim_b, matrix)
    return BipartiteState._raw(dim_a, dim_b, matrix, label)


def _checked_dims(dim_a, dim_b) -> tuple:
    """``(dim_a, dim_b)`` of a state read from input: two ints (not bools)
    of at least 1, whose product is at most :data:`MAX_DIM`, checked before
    anything of that size is allocated; else ``TypeError`` or ``ValueError``."""
    if type(dim_a) is not int or type(dim_b) is not int:
        raise TypeError("state dimensions are not integers")
    if dim_a < 1 or dim_b < 1:  # (-2)(-2) = 4 would pass every shape check
        raise ValueError(f"state dimensions {dim_a}x{dim_b} are not positive")
    if dim_a * dim_b > MAX_DIM:
        raise ValueError(f"state dimensions {dim_a}x{dim_b} exceed {MAX_DIM} levels in all")
    return dim_a, dim_b


def _state_parts(data: dict) -> tuple:
    """``(dim_a, dim_b, label, edges, matrix)`` of a stored state: its
    ``edges`` (each ``name``, ``vector``, ``weight``) or ``matrix``, the other
    None, and optional ``kind`` (``"state"``) and ``label`` (a string)."""
    edged = "edges" in data
    dim_a, dim_b, stored, kind, label = _fields(
        data, "edge state" if edged else "matrix state",
        ("dim_a", "dim_b", "edges" if edged else "matrix"), {"kind": "state", "label": ""})
    if kind != "state":
        raise ValueError(f"state kind {kind!r} is not 'state'")
    if not isinstance(label, str):
        raise TypeError(f"state label {label!r} is not a string")
    dim_a, dim_b = _checked_dims(dim_a, dim_b)
    if not edged:
        return dim_a, dim_b, label, None, matrix_from_json(stored)
    edges = []
    for t, e in enumerate(stored):
        name, vec, weight = _fields(e, f"edge {t}", ("name", "vector", "weight"))
        if not isinstance(name, str):
            raise TypeError("edge names are not strings")
        edges.append(NamedVector(name, vector_from_json(vec, dim_a * dim_b), _rational(weight)))
    return dim_a, dim_b, label, edges, None


def _fields(data: dict, what: str, keys: Sequence[str], optional=()) -> list:
    """The values of a stored object's ``keys`` (``KeyError`` if one is
    missing), then of its ``optional`` ones (a ``{key: default}`` dict): the
    key rule of every stored layout, which refuses any other key by name."""
    optional = dict(optional)
    unknown = sorted(set(data) - {*keys, *optional})
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    return [data[key] for key in keys] + [data.get(key, d) for key, d in optional.items()]


def _parsed(what: str, parse, *args):
    """``parse(*args)``, with the exceptions of malformed JSON raised as
    :class:`MalformedData`.  Only reading stored fields goes through here,
    so the same exceptions from a replay keep their tracebacks."""
    try:
        return parse(*args)
    except (KeyError, IndexError, ValueError, TypeError, AttributeError,
            ZeroDivisionError) as exc:
        raise MalformedData(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------

def verify_ppt_certificate(data: dict) -> bool:
    """Replay a PPT certificate: rebuild both factorizations and check them.
    The Gram sum of rho's factorization proves rho PSD, so it is also the
    check of a matrix state (:func:`read_state`), and a valid
    negativity witness for rho raises :class:`NotPsd`."""
    _, stored, claimed, rho, rho_ta = _parsed("certificate", _fields, data, "ppt certificate",
                                              ("kind", "state", "verdict", "rho", "rho_ta"))
    s = read_state(stored)
    evidence = {key: _parsed("certificate", _read_evidence, key, ev, s.matrix.rows)
                for key, ev in (("rho", rho), ("rho_ta", rho_ta))}
    for key, M in (("rho", s.matrix), ("rho_ta", s.partial_transpose("A"))):
        psd, *ev = evidence[key]
        if psd:
            pivots, columns = ev
            if any(d < 0 for d in pivots):
                raise CertificateInvalid(f"negative pivot in {key}")
            if weighted_gram(columns, pivots, M.rows) != M:
                raise CertificateInvalid(f"factorization of {key} does not reproduce the matrix")
        else:
            w, value = ev
            val = vdot(w, M.matvec(w))
            if not (val.im == 0 and val.re < 0 and format_scalar(val.re) == value):
                raise CertificateInvalid(f"witness for {key} does not evaluate negatively")
            if key == "rho":
                raise NotPsd(f"state {s.label!r} is not PSD; witness value {value}")
    if claimed != ("PPT" if evidence["rho_ta"][0] else "NPT"):
        raise CertificateInvalid("verdict does not match the evidence")
    return True


def _read_evidence(key: str, ev: dict, n: int) -> tuple:
    """``(psd, pivots, columns)`` or ``(psd, witness, witness_value)``, the
    evidence ``key`` of a ppt certificate, its vectors of ``n`` entries."""
    psd = ev["psd"]
    if type(psd) is not bool:
        raise TypeError(f"{key} psd is not true or false")
    layout = ("psd", "pivots", "columns") if psd else ("psd", "witness", "witness_value")
    _, a, b = _fields(ev, f"{key} evidence", layout)
    if psd:
        pivots = [d for d in _sparse_from_json(a, n, _rational, _ZERO) if d]
        return True, pivots, [vector_from_json(col, n) for col in b]
    return False, vector_from_json(a, n), b


def sn_verdict_text(lower: int | None, upper: int) -> str:
    """Verdict line of an sn-verdict payload; ``lower`` is None when inconclusive."""
    if lower is None:
        return f"SN <= {upper} (lower bound inconclusive)"
    if lower == upper:
        return f"SN = {lower}"
    return f"SN in [{lower}, {upper}]"


def _sn_verdict(data: dict) -> bool:
    from .minors import verify_sn_verdict  # the sn-verdict replay, compiled only to run one
    return verify_sn_verdict(data)


VERIFIERS = {"ppt": verify_ppt_certificate, "sn-verdict": _sn_verdict}


def verify_certificate(data: dict) -> bool:
    """Replay ``data`` by its ``kind``.  A certificate that does not parse
    fails with :class:`CertificateInvalid` like one whose replay fails."""
    kind = data.get("kind") if isinstance(data, dict) else None
    try:
        if not isinstance(kind, str) or kind not in VERIFIERS:
            raise CertificateInvalid(f"unknown certificate kind {kind!r}")
        return VERIFIERS[kind](data)
    except MalformedData as exc:
        raise CertificateInvalid(str(exc)) from None

