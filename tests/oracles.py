"""Fraction-valued and dense helpers that the tests compare the sparse linear algebra against.

`_linalg` takes sparse polynomial vectors {column: nonzero entry} only. A
test that builds rows or columns of RatFuncs clears them here first:
`cleared` turns a vector into sparse numerators over the lcm of its
denominators, the pair that ColumnSpace takes as a column, and `rank` counts
the pivots of rows cleared that way. `sparse` and `dense` convert between
lists and sparse vectors. `lambda_ambient` is the package's former
RatFunc-valued coordinate map, kept as the oracle for the ambient
coordinates that `pbasis.lambda_numerators` scales by b.den.
`dense_gauss_jordan` is the elimination on dense rows that `_linalg` ran
before its vectors went sparse, kept as the oracle for `_gauss_jordan`.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from imperfect import _linalg
from imperfect.field import RatFunc, SparsePoly, exact_div, poly_gcd
from imperfect.pbasis import lambda_numerators


def sparse(vector: Sequence[SparsePoly]) -> Dict[int, SparsePoly]:
    """The nonzero entries of a polynomial list, keyed by position."""
    return {k: x for k, x in enumerate(vector) if not x.is_zero()}


def dense(vector: Dict[int, SparsePoly], n: int, ctx) -> List[SparsePoly]:
    """A sparse vector of length n as a polynomial list."""
    zero = ctx.const_poly(0)
    return [vector.get(k, zero) for k in range(n)]


def lambda_ambient(b: RatFunc) -> List[RatFunc]:
    """Coordinates of b relative to the ambient variable p-basis (x_1, ..., x_n)."""
    ctx = b.ctx
    nums = dense(lambda_numerators(b), ctx.p ** ctx.n, ctx)
    return [RatFunc(ctx, c, b.den) for c in nums]


def cleared(vector: Sequence[RatFunc]) -> Tuple[Dict[int, SparsePoly], SparsePoly]:
    """(numerators, den) with numerators / den equal to the vector, den the
    lcm of its denominators and numerators a sparse vector."""
    lcm = vector[0].ctx.const_poly(1)
    for x in vector:
        lcm = lcm * exact_div(x.den, poly_gcd(lcm, x.den))
    return sparse([x.num * exact_div(lcm, x.den) for x in vector]), lcm


def rank(rows: Sequence[Sequence[RatFunc]]) -> int:
    """The rank of RatFunc rows: the pivots of the rows cleared of denominators."""
    if not rows or not rows[0]:
        return 0
    ctx = rows[0][0].ctx
    return len(_linalg.pivots([cleared(row)[0] for row in rows], len(rows[0]), ctx))


def _sparsest(entries: list) -> Optional[int]:
    """Index of the nonzero entry with the fewest terms (the first such), or None."""
    pr = best = None
    for i, x in enumerate(entries):
        if not x.is_zero() and (best is None or len(x.terms) < best):
            best, pr = len(x.terms), i
            if best == 1:
                break
    return pr


def _rescale(row: list, num, den) -> list:
    """The row times num / den, a polynomial row."""
    if num == den:
        return row
    return [a if a.is_zero() else exact_div(a * num, den) for a in row]


def dense_gauss_jordan(mat: List[list], ncols: int, one) -> Tuple[List[list], List[int], object]:
    """Fraction-free Gauss-Jordan on dense polynomial rows: (d * RREF, pivot columns, d).

    The same pivot rule (fewest terms, first such row) and the same deferred
    scaling (lag) as `_linalg._gauss_jordan`, walking every entry of every
    row, zeros included.
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
