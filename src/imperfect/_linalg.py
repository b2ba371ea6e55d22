"""Tiny exact linear algebra over a field of rational functions.

A vector is a sparse map {column: nonzero SparsePoly}, an absent column
being zero, so a caller passes the vector length where a map cannot carry
it. A caller with fractions clears them first; RatFuncs appear only in the
answers, which are lists. Systems here are small (at most a few dozen
rows/columns) and mostly zero. The rows are eliminated by one fraction-free
Gauss-Jordan (Bareiss) to d * RREF, d a minor, touching only nonzero
entries; a rank is the number of pivots. A kernel first divides each row by
the gcd of its entries, and divides by d once at the end. A span that
answers many queries is eliminated once, in ColumnSpace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .field import RatFunc, SparsePoly, exact_div, poly_gcd

Vector = Dict[int, SparsePoly]


def _gauss_jordan(mat: List[Vector], ncols: int, one) -> Tuple[List[Vector], List[int], object]:
    """Fraction-free Gauss-Jordan on sparse polynomial rows: (d * RREF, pivot columns, d).

    Pivots are sought among the first `ncols` columns, fewest terms first
    (the first such row). The pivot piv in row `top` turns every other row
    e, above it as well as below, into (e * piv - e[c] * top) / prev, prev
    being the previous pivot. Every entry is a minor of the input, so the
    division is exact, and all pivot entries end equal to d, the last pivot
    (`one` when there is none). A row that a step leaves alone (e[c] = 0)
    would only be multiplied by piv / prev. That scaling is put off: lag[i]
    is the pivot of the step that last updated row i, the row is held as its
    value times lag[i] / prev, and it is brought up to date when it becomes
    the pivot row, or at the end. An update of a held row divides by lag[i]
    in place of prev. Rows are replaced, never changed in place.
    """
    m = list(mat)
    lag = [one] * len(m)
    pivots = []
    prev = one
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = best = None
        for i in range(r, len(m)):
            x = m[i].get(c)
            if x is not None and (best is None or len(x.terms) < best):
                best, pr = len(x.terms), i
                if best == 1:
                    break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        lag[r], lag[pr] = lag[pr], lag[r]
        top = m[r]
        if lag[r] is not prev:
            top = m[r] = _rescale(top, prev, lag[r])
        piv = top[c]
        for i, row in enumerate(m):
            b = row.get(c)
            if b is None or i == r:
                continue
            s = lag[i]
            new = {}
            for k, a in row.items():
                e = top.get(k)
                if e is None:
                    new[k] = exact_div(a * piv, s)
                elif k != c:  # column c cancels: b * piv - b * piv
                    x = exact_div(a * piv - b * e, s)
                    if x:
                        new[k] = x
            for k, e in top.items():
                if k not in row:
                    new[k] = exact_div(-(b * e), s)
            m[i] = new
            lag[i] = piv
        lag[r] = piv
        pivots.append(c)
        prev = piv
    for i, s in enumerate(lag):
        if s is not prev:
            m[i] = _rescale(m[i], prev, s)
    return m, pivots, prev


def _rescale(row: Vector, num, den) -> Vector:
    """The row times num / den, a polynomial row."""
    if num == den:
        return row
    return {k: exact_div(a * num, den) for k, a in row.items()}


def pivots(rows: List[Vector], ncols: int, field) -> List[int]:
    """Pivot columns of polynomial rows: each column outside the span of those before it."""
    return _gauss_jordan(rows, ncols, field.const_poly(1))[1]


def nullspace(rows: List[Vector], ncols: int, field) -> List[list]:
    """Basis of the right kernel of polynomial rows with `ncols` columns, as
    RatFunc lists; read off the reduced echelon form, it depends only on
    the kernel."""
    mat = [_primitive(row) for row in rows]
    red, pivots, d = _gauss_jordan(mat, ncols, field.const_poly(1))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = RatFunc(field, -row[fc], d)
        basis.append(v)
    return basis


class ColumnSpace:
    """The span of a fixed list of columns of length n, eliminated once and queried often.

    Each column is a pair (numerators, den), the sparse polynomial vector
    numerators / den, as `solve` takes its queries. The constructor
    eliminates the rows numerators_i + {n + i: den_i} once, to d * [R | E]:
    R is the reduced echelon form of columns^T with pivot columns P, d its
    pivot minor, and E * columns^T = R, the scaling being undone by E. For a
    sparse polynomial vector b of length n:
      - b lies in the span iff b = sum_i b[P_i] * R_i, which only needs
        checking off the pivots: the forms d * b[j] - sum_i d * R_i[j] * b[P_i]
        for the non-pivot coordinates j, whose values `residuals` returns;
      - x = E^T * b[P] solves columns @ x = b, and d * x has polynomial rows.
    So a query runs no gcd until the one division by d per solution entry,
    and scaling b by a nonzero polynomial changes no membership answer (see
    pbasis.lambda_numerators). `ok` records whether the columns are linearly
    independent, in which case that solution is the unique one. With no
    columns the span is {0}, and the residuals are b's n coordinates.
    """

    def __init__(self, columns: Sequence[Tuple[Vector, object]], n: int, field):
        aug = []
        for i, (nums, den) in enumerate(columns):
            row = dict(nums)
            row[n + i] = den
            aug.append(row)
        red, pivots, d = _gauss_jordan(aug, n, field.const_poly(1))
        self.ok = len(pivots) == len(columns)
        self._field = field
        self._d = d
        self._checks = []
        for j in range(n):
            if j not in pivots:
                terms = [(c, -row[j]) for c, row in zip(pivots, red) if j in row]
                terms.append((j, d))
                self._checks.append(terms)
        self._solution = [
            [(c, row[n + k]) for c, row in zip(pivots, red) if n + k in row]
            for k in range(len(columns))
        ]

    def residuals(self, b: Vector) -> Iterator:
        """Values at b of linear forms whose common zeros are exactly the span."""
        zero = self._field.const_poly(0)
        return (_dot(terms, b, zero) for terms in self._checks)

    def contains(self, b: Vector) -> bool:
        return all(r.is_zero() for r in self.residuals(b))

    def solve(self, b: Vector, den) -> Optional[list]:
        """Coefficients expressing b / den in the columns, as RatFuncs, or None when outside.

        `den` is the nonzero polynomial that the queried vector was scaled by.
        """
        if not self.contains(b):
            return None
        den = self._d * den
        zero = self._field.const_poly(0)
        return [RatFunc(self._field, _dot(terms, b, zero), den) for terms in self._solution]


def _primitive(row: Vector) -> Vector:
    """The row divided by the gcd of its entries.

    Scaling a row does not change the kernel, and a common factor left in
    would be carried into every minor of the elimination.
    """
    g = None
    for x in row.values():
        g = x if g is None else poly_gcd(g, x)
        if g.is_constant():
            return row
    return row if g is None else {k: exact_div(x, g) for k, x in row.items()}


def _dot(terms, b: Vector, acc):
    for k, c in terms:
        x = b.get(k)
        if x is not None:
            acc = acc + c * x
    return acc
