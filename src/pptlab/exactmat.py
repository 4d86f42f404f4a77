"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers ``a + b*i`` with arbitrary-precision rational
``a``, ``b`` (:class:`GaussianRational`).  Matrices are dense and immutable
(:class:`ExactMatrix`); subspaces carry a canonical reduced-row-echelon
basis so that equality of subspaces is syntactic equality of bases
(:class:`Subspace`).

Every operation here is exact: verdicts like :func:`psd_check` are decided
by symmetric-pivoted LDL* elimination, never by floating point.  One row
elimination (:func:`_echelon`) serves subspaces, ranks, kernels and solves;
it and :func:`psd_check` run on integer rows: each row is scaled to
Gaussian integers, held as pairs of int lists, once on entry, and
eliminated fraction-free with exact divisions (Bareiss; Zhou & Jeffrey for
LDL*).  Only outputs become Gaussian rationals: a kernel's canonical basis
is read off the integer rows, a rank counts pivots.  The pseudoinverse is
never materialized; its action is available through
:func:`solve_on_range_matrix`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NotHermitian, RangeViolation, ScalarTooLarge

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts.

    Values are immutable.  Mixed arithmetic with ``int`` and ``Fraction``
    is supported; division by zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
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

    def __rsub__(self, other):
        return as_scalar(other) - self

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

    def __rtruediv__(self, other):
        return as_scalar(other) / self

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

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


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
    """Inverse of :func:`format_scalar`."""
    s = text.strip()
    if s.endswith("i"):
        body = s[:-1].strip()
        # split at the sign separating real and imaginary parts; a sign after
        # "e" belongs to an exponent ("2e-3")
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/eE":
                re_part, im_part = body[:pos], body[pos] + body[pos + 1:]
                return GaussianRational(Fraction(re_part), Fraction(im_part))
        return GaussianRational(0, Fraction(body))
    return GaussianRational(Fraction(s))


# ---------------------------------------------------------------------------
# vectors: plain tuples of GaussianRational
# ---------------------------------------------------------------------------

Vector = tuple  # tuple[GaussianRational, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def basis_vector(n: int, j: int) -> Vector:
    return tuple(ONE if i == j else ZERO for i in range(n))


def vdot(u: Vector, v: Vector) -> GaussianRational:
    """Hermitian inner product ``<u|v>``, conjugate-linear in ``u``."""
    if len(u) != len(v):
        raise DimensionMismatch("vectors of different length")
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a.conj() * b
    return acc


def vec_conj(v: Vector) -> Vector:
    return tuple(a.conj() for a in v)


def kron_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a * b for a in u for b in v)


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


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
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(values: Iterable) -> "ExactMatrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return ExactMatrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(columns: Sequence[Vector]) -> "ExactMatrix":
        if not columns:
            return ExactMatrix.zeros(0, 0)
        n = len(columns[0])
        return ExactMatrix([[columns[j][i] for j in range(len(columns))] for i in range(n)])

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

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._e)

    def tolists(self):
        return [list(r) for r in self._e]

    def to_complex_rows(self):
        return [[x.to_complex() for x in row] for row in self._e]

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in r] for r in self._e])

    def scale(self, c) -> "ExactMatrix":
        c = as_scalar(c)
        return ExactMatrix([[c * a for a in r] for r in self._e])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self.matmul(other)
        return self.scale(other)

    __rmul__ = scale

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

    def adjoint(self) -> "ExactMatrix":
        return ExactMatrix([[self._e[i][j].conj() for i in range(self.rows)] for j in range(self.cols)])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix([[x.conj() for x in row] for row in self._e])

    def trace(self) -> GaussianRational:
        acc = ZERO
        for i in range(min(self.rows, self.cols)):
            acc = acc + self._e[i][i]
        return acc

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        out = []
        for r1 in self._e:
            for r2 in other._e:
                out.append([a * b for a in r1 for b in r2])
        return ExactMatrix(out)

    # -- predicates --------------------------------------------------------
    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not x for row in self._e for x in row)

    def is_hermitian(self) -> bool:
        return self.is_square() and _int_hermitian(_int_matrix(self)[1])

    def is_diagonal(self) -> bool:
        return all(not self._e[i][j] for i in range(self.rows) for j in range(self.cols) if i != j)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")


def weighted_gram(vectors: Sequence[Vector], weights: Sequence, dim: int) -> ExactMatrix:
    """Conic sum ``sum_i w_i |v_i><v_i|`` as a ``dim x dim`` matrix.

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
        w = as_scalar(w)
        nz = [i for i, a in enumerate(v) if a]
        if nz and w:
            values = [v[i] for i in nz]
            s = _row_lcm(values)
            terms.append((nz, *_int_row(values, s), w.re / (s * s), w.im / (s * s)))
    scale = math.lcm(*(c.denominator for *_, cr, ci in terms for c in (cr, ci)))
    acc = {}  # (i, j): the integer sums (re, im) of entry (i, j) times scale
    for nz, re, im, cr, ci in terms:
        mr = cr.numerator * (scale // cr.denominator)
        mi = ci.numerator * (scale // ci.denominator)
        im = im or [0] * len(nz)
        for i, a, ai in zip(nz, re, im):
            xr, xi = mr * a - mi * ai, mr * ai + mi * a  # scale * w / s^2 * u_i
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


def _int_matrix(M: "ExactMatrix") -> tuple:
    """``(L, rows)``: ``L`` the common denominator of ``M`` and the rows of
    ``L * M`` as Gaussian-integer lists."""
    scale = math.lcm(*(_row_lcm(row) for row in M._e))
    return scale, [_int_row(row, scale) for row in M._e]


def _int_hermitian(A: list) -> bool:
    """Whether the square Gaussian-integer rows ``A`` equal their adjoint."""
    zero = [0] * len(A)
    re_t = [list(col) for col in zip(*(re for re, _ in A))]
    im_t = [[-x for x in col] for col in zip(*(im or zero for _, im in A))]
    return re_t == [re for re, _ in A] and im_t == [im or zero for _, im in A]


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


def _int_kernel(work: list, ncols: int) -> tuple:
    """``(rank, right kernel)`` of the Gaussian-integer rows ``work``.

    Columns are eliminated last to first, so each pivot row is zero right of
    its pivot and at the other pivots.  The kernel vector of free column
    ``f`` (1 at ``f``, ``-row[f] / lead`` at each pivot) is then zero left
    of ``f`` and at the other free columns: by increasing ``f``, these
    vectors are the canonical basis as they stand.
    """
    pivots = _echelon(work, range(ncols - 1, -1, -1))
    minus_leads = [(-lr, -li) for lr, li in (_entry(row, c) for row, c in zip(work, pivots))]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pc, lead in zip(work, pivots, minus_leads):
            if _nonzero(row, f):
                v[pc] = _quotient(*_entry(row, f), lead)
        basis.append(tuple(v))
    return len(pivots), Subspace._canonical(ncols, basis)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace with a canonical RREF basis.

    Two subspaces are equal iff their canonical bases are identical, so
    equality is decidable by syntactic comparison.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Vector] = ()):
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("basis vector of wrong length")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(_rref(rows)[1]))

    @staticmethod
    def _canonical(ambient_dim: int, basis: list) -> "Subspace":
        """The subspace spanned by ``basis``, which is already canonical."""
        S = object.__new__(Subspace)
        object.__setattr__(S, "ambient_dim", ambient_dim)
        object.__setattr__(S, "basis", tuple(basis))
        return S

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def annihilator(self) -> list:
        """Rows ``r`` with ``S = {w : sum_j r[j] w[j] = 0}``, one per non-pivot
        column, read off the canonical basis without elimination."""
        pivots = [next(i for i, x in enumerate(b) if x) for b in self.basis]
        rows = []
        for f in sorted(set(range(self.ambient_dim)) - set(pivots)):
            v = [ZERO] * self.ambient_dim
            v[f] = ONE
            for b, pc in zip(self.basis, pivots):
                v[pc] = -b[f]
            rows.append(tuple(v))
        return rows

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector of wrong length")
        w = list(v)
        for b in self.basis:
            lead = next(i for i, x in enumerate(b) if x)
            if w[lead]:
                f = w[lead]
                w = [a - f * c if c else a for a, c in zip(w, b)]
        return not any(w)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def column_space(M: ExactMatrix) -> Subspace:
    """Range R(M) as a canonical subspace."""
    return Subspace(M.rows, [M.col(j) for j in range(M.cols)])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def rank_and_kernel(M: ExactMatrix) -> tuple[int, Subspace]:
    """Exact rank of ``M`` together with its right kernel."""
    return _int_kernel(_int_rows(M._e), M.cols)


def rank(M: ExactMatrix) -> int:
    return len(_echelon(_int_rows(M._e), range(M.cols), reduce=False))


def null_space(rows: Sequence[Vector], n: int) -> Subspace:
    """``{w in C^n : sum_j r[j] w[j] = 0 for every row r}``; all of ``C^n``
    when there are no rows."""
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"constraint rows of length {len(r)} on C^{n}")
    return _int_kernel(_int_rows(vector(r) for r in rows), n)[1]


class PsdResult(NamedTuple):
    """Outcome of an exact PSD decision.

    PSD case: ``M = sum_t d_t |l_t><l_t|`` with strictly positive rational
    ``d_t`` (``pivots`` holds the pivot index alongside ``d_t``).  Non-PSD
    case: ``witness`` satisfies ``<v|M|v> = witness_value < 0`` exactly.
    """

    is_psd: bool
    pivots: tuple = ()            # tuple[(index, Fraction), ...]
    columns: tuple = ()           # tuple[Vector, ...], l_t with l_t[index]=1
    witness: Vector | None = None
    witness_value: Fraction | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _psd_witness(loc: list, pivot_indices: list, ell_list: list, n: int) -> Vector:
    """Extend a local witness to the original coordinates.

    The local witness ``loc`` lives in the residual after eliminating the
    recorded pivots; appending corrections on the pivot coordinates makes it
    orthogonal to every recorded column, which preserves the quadratic form
    value taken on the residual.
    """
    v = list(loc)
    t = len(pivot_indices)
    alphas = [ZERO] * t
    for s in range(t - 1, -1, -1):
        ell = ell_list[s]
        acc = ZERO
        for i, x in enumerate(v):
            if x and ell[i]:
                acc = acc + ell[i].conj() * x
        for s2 in range(s + 1, t):
            a2 = alphas[s2]
            if a2 and ell[pivot_indices[s2]]:
                acc = acc + ell[pivot_indices[s2]].conj() * a2
        alphas[s] = -acc
    for s in range(t):
        v[pivot_indices[s]] = v[pivot_indices[s]] + alphas[s]
    return tuple(v)


def psd_check(M: ExactMatrix) -> PsdResult:
    """Exact positive-semidefiniteness decision by pivoted LDL*.

    Pivots only on nonzero diagonal entries, the first in index order; a
    negative diagonal or a zero diagonal with a nonzero residual row yields
    an explicit witness vector with a negative quadratic form value.  The
    elimination is fraction-free over Gaussian-integer rows of ``L * M``,
    ``L`` the common denominator of ``M``: eliminating a pivot updates only
    the rows where the pivot row is nonzero, each over its full length.
    """
    n = M.rows
    scale, A = _int_matrix(M)
    if n != M.cols or not _int_hermitian(A):
        raise NotHermitian("psd_check requires an exactly Hermitian matrix")
    den = [1] * n           # row i of the Schur complement is A[i] / (den[i] * scale)
    p_prev = 1
    active = list(range(n))
    pivot_indices: list[int] = []
    pivot_values: list[Fraction] = []
    ells: list[list] = []

    while True:
        piv = next((j for j in active if A[j][0][j]), None)
        if piv is not None:
            re, im = A[piv]
            dnum = re[piv]
            d = Fraction(dnum, den[piv] * scale)
            if dnum < 0:
                loc = [ZERO] * n
                loc[piv] = ONE
                w = _psd_witness(loc, pivot_indices, ells, n)
                return PsdResult(False, witness=w, witness_value=d)
            # ell = column piv / d, the conjugate of the pivot row over its diagonal
            nz = [i for i in range(n) if _nonzero(A[piv], i)]
            ell = [ZERO] * n
            for i in nz:
                ell[i] = _quotient(re[i], -im[i] if im is not None else 0, (dnum, 0))
            if den[piv] != p_prev:  # bring the pivot row up to the current step
                A[piv] = _combine((p_prev, 0), A[piv], (0, 0), A[piv], (den[piv], 0))
            p = (A[piv][0][piv], 0)
            for i in nz:
                if i != piv:
                    A[i] = _combine(p, A[i], _entry(A[i], piv), A[piv], (den[i], 0))
                    den[i] = p[0]
            p_prev = p[0]
            pivot_indices.append(piv)
            pivot_values.append(d)
            ells.append(ell)
            active.remove(piv)
        else:
            off = next(((i, k) for ai, i in enumerate(active) for k in active[ai + 1:]
                        if _nonzero(A[i], k)), None)
            if off is None:
                cols = tuple(tuple(l) for l in ells)
                return PsdResult(True, pivots=tuple(zip(pivot_indices, pivot_values)), columns=cols)
            i, k = off
            ur, ui = _entry(A[i], k)
            q = den[i] * scale
            loc = [ZERO] * n
            loc[i] = ONE
            loc[k] = -_quotient(ur, -ui, (q, 0))
            value = Fraction(-2 * (ur * ur + ui * ui), q * q)
            w = _psd_witness(loc, pivot_indices, ells, n)
            return PsdResult(False, witness=w, witness_value=value)


def orth_projector(S: Subspace) -> ExactMatrix:
    """Orthogonal projector onto ``S`` via exact Gram-matrix inversion."""
    if S.ambient_dim < 1:
        raise DimensionMismatch("ambient dimension must be at least 1")
    if S.dim == 0:
        return ExactMatrix.zeros(S.ambient_dim, S.ambient_dim)
    C = ExactMatrix.from_cols(S.basis)        # ambient x k
    G = C.adjoint().matmul(C)                 # k x k, positive definite
    X = solve_on_range_matrix(G, C.adjoint())  # G^{-1} C*, unique: G is invertible
    return C.matmul(X)


def solve_on_range_matrix(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A particular solution ``X`` of ``A X = B``, free variables set to zero.

    One elimination pass serves every column of ``B``.  Raises
    :class:`RangeViolation` when a column of ``B`` is not in R(A).  The
    solution is not unique when ``A`` is singular, but for Hermitian ``A``
    and ``Y`` with columns in R(A), ``Y = A S``, the product
    ``Y* X = S* B`` is the same for every solution: this is how the
    pseudoinverse acts without being formed.
    """
    m, n = A.rows, A.cols
    if B.rows != m:
        raise DimensionMismatch("right-hand side of wrong length")
    k = B.cols
    pivots, reduced, consistent = _rref([A.row(i) + B.row(i) for i in range(m)], limit_cols=n)
    if not consistent:
        raise RangeViolation("right-hand side outside the range")
    X = [[ZERO] * k for _ in range(n)]
    for row, pc in zip(reduced, pivots):
        X[pc] = row[n:]
    return ExactMatrix(X)


def subspace_intersection(U: Subspace, V: Subspace) -> Subspace:
    """Exact intersection: the null space of both annihilators' rows stacked."""
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    return null_space(U.annihilator() + V.annihilator(), U.ambient_dim)
