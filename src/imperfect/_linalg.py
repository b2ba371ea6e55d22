"""Tiny exact linear algebra over a field of rational functions.

Matrices are lists of rows of SparsePolys, which a caller with fractions
clears first; RatFuncs appear only in the answers. Systems here are small
(at most a few dozen rows/columns). The rows are eliminated by one
fraction-free Gauss-Jordan (Bareiss) to d * RREF, d a minor; a rank is the
number of pivots. A kernel first divides each row by the gcd of its
entries, and divides by d once at the end. A span that answers many
queries is eliminated once, in ColumnSpace.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .field import RatFunc, exact_div, poly_gcd


def _sparsest(entries: list) -> Optional[int]:
    """Index of the nonzero entry with the fewest terms (the first such), or None."""
    pr = best = None
    for i, x in enumerate(entries):
        if not x.is_zero() and (best is None or len(x.terms) < best):
            best, pr = len(x.terms), i
            if best == 1:
                break
    return pr


def _gauss_jordan(mat: List[list], ncols: int, one) -> Tuple[List[list], List[int], object]:
    """Fraction-free Gauss-Jordan on polynomial rows: (d * RREF, pivot columns, d).

    Pivots are sought among the first `ncols` columns, fewest terms first.
    The pivot piv in row `top` turns every other row e, above it as well as
    below, into (e * piv - e[c] * top) / prev, prev being the previous pivot.
    Every entry is a minor of the input, so the division is exact, and all
    pivot entries end equal to d, the last pivot (`one` when there is none).
    A row that a step leaves alone (e[c] = 0) would only be multiplied by
    piv / prev. That scaling is put off: lag[i] is the pivot of the step that
    last updated row i, the row is held as its value times lag[i] / prev, and
    it is brought up to date when it becomes the pivot row, or at the end.
    An update of a held row divides by lag[i] in place of prev.
    """
    m = [list(r) for r in mat]
    lag = [one] * len(m)
    pivots = []
    prev = one
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = _sparsest([row[c] for row in m[r:]])
        if pr is None:
            continue
        m[r], m[r + pr] = m[r + pr], m[r]
        lag[r], lag[r + pr] = lag[r + pr], lag[r]
        top = m[r]
        if lag[r] is not prev:
            top = m[r] = _rescale(top, prev, lag[r])
        piv = top[c]
        for i, row in enumerate(m):
            b = row[c]
            if i == r or b.is_zero():
                continue
            s = lag[i]
            new = []
            for a, e in zip(row, top):
                if e.is_zero():
                    new.append(a if a.is_zero() else exact_div(a * piv, s))
                elif a.is_zero():
                    new.append(exact_div(-(b * e), s))
                else:
                    new.append(exact_div(a * piv - b * e, s))
            m[i] = new
            lag[i] = piv
        lag[r] = piv
        pivots.append(c)
        prev = piv
    for i, s in enumerate(lag):
        if s is not prev:
            m[i] = _rescale(m[i], prev, s)
    return m, pivots, prev


def _rescale(row: list, num, den) -> list:
    """The row times num / den, a polynomial row."""
    if num == den:
        return row
    return [a if a.is_zero() else exact_div(a * num, den) for a in row]


def pivots(rows: List[list]) -> List[int]:
    """Pivot columns of polynomial rows: each column outside the span of those before it."""
    if not rows or not rows[0]:
        return []
    return _gauss_jordan(rows, len(rows[0]), rows[0][0].ctx.const_poly(1))[1]


def nullspace(rows: List[list], ncols: int, field) -> List[list]:
    """Basis of the right kernel of polynomial rows with `ncols` columns, as
    RatFunc vectors; read off the reduced echelon form, it depends only on
    the kernel."""
    mat = [_primitive(row) for row in rows]
    red, pivots, d = _gauss_jordan(mat, ncols, field.const_poly(1))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = RatFunc(field, -red[i][fc], d)
        basis.append(v)
    return basis


class ColumnSpace:
    """The span of a fixed list of columns, eliminated once and queried often.

    Each column is a pair (numerators, den), the polynomial vector
    numerators / den, as `solve` takes its queries. The constructor
    eliminates the rows [numerators_i | den_i * e_i] once, to d * [R | E]: R
    is the reduced echelon form of columns^T with pivot columns P, d its
    pivot minor, and E * columns^T = R, the scaling being undone by E. For a
    polynomial vector b of the column length:
      - b lies in the span iff b = sum_i b[P_i] * R_i, which only needs
        checking off the pivots: the forms d * b[j] - sum_i d * R_i[j] * b[P_i]
        for the non-pivot coordinates j, whose values `residuals` returns;
      - x = E^T * b[P] solves columns @ x = b, and d * x has polynomial rows.
    So a query runs no gcd until the one division by d per solution entry,
    and scaling b by a nonzero polynomial changes no membership answer (see
    pbasis.lambda_numerators). `ok` records whether the columns are linearly
    independent, in which case that solution is the unique one.
    """

    def __init__(self, columns: Sequence[Tuple[list, object]], field):
        w = len(columns)
        n = len(columns[0][0]) if columns else 0
        zero = field.const_poly(0)
        aug = [list(nums) + [den if j == i else zero for j in range(w)]
               for i, (nums, den) in enumerate(columns)]
        red, pivots, d = _gauss_jordan(aug, n, field.const_poly(1))
        self.ok = len(pivots) == w
        self._field = field
        self._empty = not w
        self._d = d
        self._checks = []
        for j in range(n):
            if j not in pivots:
                terms = [(c, -row[j]) for c, row in zip(pivots, red) if not row[j].is_zero()]
                terms.append((j, d))
                self._checks.append(terms)
        self._solution = [
            [(c, row[n + k]) for c, row in zip(pivots, red) if not row[n + k].is_zero()]
            for k in range(w)
        ]

    def residuals(self, b: Sequence) -> Iterator:
        """Values at b of linear forms whose common zeros are exactly the span."""
        if self._empty:  # the span of no columns is {0}
            return iter(b)
        zero = self._field.const_poly(0)
        return (_dot(terms, b, zero) for terms in self._checks)

    def contains(self, b: Sequence) -> bool:
        return all(r.is_zero() for r in self.residuals(b))

    def solve(self, b: Sequence, den) -> Optional[list]:
        """Coefficients expressing b / den in the columns, as RatFuncs, or None when outside.

        `den` is the nonzero polynomial that the queried vector was scaled by.
        """
        if not self.contains(b):
            return None
        den = self._d * den
        zero = self._field.const_poly(0)
        return [RatFunc(self._field, _dot(terms, b, zero), den) for terms in self._solution]


def _primitive(row):
    """The row divided by the gcd of its entries.

    Scaling a row does not change the kernel, and a common factor left in
    would be carried into every minor of the elimination.
    """
    g = None
    for x in row:
        if not x.is_zero():
            g = x if g is None else poly_gcd(g, x)
            if g.is_constant():
                return row
    return row if g is None else [exact_div(x, g) for x in row]


def _dot(terms, b, acc):
    for k, c in terms:
        if not b[k].is_zero():
            acc = acc + c * b[k]
    return acc
