"""Tiny exact linear algebra over a field of RatFunc-like elements.

Matrices are lists of rows of RatFuncs. Systems here are small (at most a
few dozen rows/columns). Spans and kernels use plain fraction-reducing
Gaussian elimination; a span that answers many membership queries is
eliminated once, in ColumnSpace. Rank runs fraction-free Bareiss.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .field import RatFunc, exact_div, poly_gcd


def _weight(x) -> int:
    """Complexity of an entry, used to pick pivots that limit blowup."""
    return len(x.num.terms) * len(x.den.terms)


def _rref(rows: List[list], ncols: Optional[int] = None) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form (in place on a copy) and pivot column indices.

    Pivots are sought among the first `ncols` columns only (all by default);
    the remaining columns are carried along by the row operations.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        best = None
        for i in range(r, len(m)):
            if m[i][c]:
                w = _weight(m[i][c])
                if best is None or w < best:
                    best, pr = w, i
                    if w <= 1:
                        break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _rank_bareiss(mat: List[list]) -> int:
    """Fraction-free rank of a polynomial matrix; no gcds, exact divisions only.

    One-step Bareiss with row pivoting by sparsity; every intermediate entry
    is a minor of the input, so the division by the previous pivot is exact.
    Rows below the current one only keep the columns still in play.
    """
    if not mat:
        return 0
    ncols = len(mat[0])
    # active[i] holds columns c..ncols-1 of the i-th unfinished row
    active = [list(r) for r in mat]
    prev = None
    r = 0
    for c in range(ncols):
        if not active:
            break
        pr = None
        best = None
        for i, row in enumerate(active):
            if not row[0].is_zero():
                w = len(row[0].terms)
                if best is None or w < best:
                    best, pr = w, i
                    if w == 1:
                        break
        if pr is None:
            for row in active:
                del row[0]
            continue
        top = active.pop(pr)
        piv = top[0]
        width = len(top)
        nxt = []
        for row in active:
            ei = row[0]
            if ei.is_zero():
                new = [row[j] * piv for j in range(1, width)]
            else:
                new = [row[j] * piv - top[j] * ei for j in range(1, width)]
            if prev is not None:
                new = [exact_div(v, prev) for v in new]
            if any(not v.is_zero() for v in new):
                nxt.append(new)
        active = nxt
        prev = piv
        r += 1
    return r


def rank(rows: List[list]) -> int:
    """Rank by Bareiss, after scaling each row by the lcm of its denominators."""
    mat = []
    for row in rows:
        lcm = _den_lcm(row[0].ctx, row) if row else None  # an empty row stays empty
        mat.append([x.num if lcm.is_one() else x.num * exact_div(lcm, x.den) for x in row])
    return _rank_bareiss(mat)


def nullspace(rows: List[list], ncols: int, field) -> List[list]:
    """Basis of the right kernel of a matrix with `ncols` columns; read off
    the reduced echelon form, it depends only on the kernel."""
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


class ColumnSpace:
    """The span of a fixed list of columns, eliminated once and queried often.

    The constructor row-reduces [columns^T | I_w] a single time, which gives
    rows R = E * columns^T in reduced echelon form with pivot columns P.
    Then for a vector b of the column length:
      - b lies in the span iff b = sum_i b[P_i] * R_i, which only needs
        checking off the pivots: one linear form per non-pivot coordinate,
        whose values `residuals` returns;
      - x = E^T * b[P] solves columns @ x = b.
    Both are kept as dot products with polynomial rows (each row of the
    identity scaled by the lcm of its denominators), so a query on a
    polynomial b (see pbasis.lambda_numerators) runs no gcd until the one
    division per solution entry. `ok` records whether the columns are
    linearly independent, in which case that solution is the unique one.
    Entries are RatFuncs over the context `field`.
    """

    def __init__(self, columns: Sequence[list], field):
        w = len(columns)
        n = len(columns[0]) if columns else 0
        zero, one = field.zero(), field.one()
        aug = [
            list(col) + [one if j == i else zero for j in range(w)]
            for i, col in enumerate(columns)
        ]
        red, pivots = _rref(aug, n)
        self.ok = len(pivots) == w
        self._field = field
        self._empty = not w
        # checks: L_j * b[j] - sum_i L_j * R_i[j] * b[P_i] = 0 for each free column j
        self._checks = []
        for j in range(n):
            if j not in pivots:
                lcm, terms = _cleared(field, [(c, -row[j]) for c, row in zip(pivots, red)])
                terms.append((j, _as_ratfunc(field, lcm)))
                self._checks.append(terms)
        # solution entry k: x_k = sum_i M_k * E_i[k] * b[P_i] / M_k
        self._solution = [
            _cleared(field, [(c, row[n + k]) for c, row in zip(pivots, red)])
            for k in range(w)
        ]

    def residuals(self, b: Sequence) -> Iterator:
        """Values at b of linear forms whose common zeros are exactly the span."""
        if self._empty:  # the span of no columns is {0}
            return iter(b)
        zero = self._field.zero()
        return (_dot(terms, b, zero) for terms in self._checks)

    def contains(self, b: Sequence) -> bool:
        return not any(self.residuals(b))

    def solve(self, b: Sequence, den) -> Optional[list]:
        """Coefficients expressing b / den in the columns, or None when outside.

        `den` is the nonzero polynomial that the queried vector was scaled by.
        """
        if not self.contains(b):
            return None
        out = []
        for lcm, terms in self._solution:
            acc = _dot(terms, b, self._field.zero())
            lcm = lcm * den
            out.append(acc if lcm.is_one() or not acc else
                       RatFunc(self._field, acc.num, acc.den * lcm))
        return out


def _as_ratfunc(field, f):
    return RatFunc(field, f, field.const_poly(1), reduce=False)


def _cleared(field, entries):
    """The lcm L of the entries' denominators, and the nonzero entries times L."""
    lcm = _den_lcm(field, [e for _, e in entries])
    terms = [
        (k, _as_ratfunc(field, e.num * exact_div(lcm, e.den))) for k, e in entries if e
    ]
    return lcm, terms


def _den_lcm(field, xs):
    lcm = field.const_poly(1)
    for x in xs:
        if x and not x.den.is_one():
            lcm = lcm * exact_div(x.den, poly_gcd(lcm, x.den))
    return lcm


def _dot(terms, b, acc):
    for k, c in terms:
        if b[k]:
            acc = acc + c * b[k]
    return acc
