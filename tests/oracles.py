"""Fraction-valued helpers that the tests compare the polynomial linear algebra against.

`_linalg` takes polynomial rows only. A test that builds rows or columns of
RatFuncs clears them here first: `cleared` turns a vector into numerators
over the lcm of its denominators, the pair that ColumnSpace takes as a column,
and `rank` counts the pivots of rows cleared that way. `lambda_ambient` is
the package's former RatFunc-valued coordinate map, kept as the oracle for
the ambient coordinates that `pbasis.lambda_numerators` scales by b.den.
"""

from typing import List, Sequence, Tuple

from imperfect import _linalg
from imperfect.field import RatFunc, SparsePoly, exact_div, poly_gcd
from imperfect.pbasis import lambda_numerators


def lambda_ambient(b: RatFunc) -> List[RatFunc]:
    """Coordinates of b relative to the ambient variable p-basis (x_1, ..., x_n)."""
    return [RatFunc(b.ctx, c, b.den) for c in lambda_numerators(b)]


def cleared(vector: Sequence[RatFunc]) -> Tuple[List[SparsePoly], SparsePoly]:
    """(numerators, den) with numerators / den equal to the vector, den the
    lcm of its denominators."""
    lcm = vector[0].ctx.const_poly(1)
    for x in vector:
        lcm = lcm * exact_div(x.den, poly_gcd(lcm, x.den))
    return [x.num * exact_div(lcm, x.den) for x in vector], lcm


def rank(rows: Sequence[Sequence[RatFunc]]) -> int:
    """The rank of RatFunc rows: the pivots of the rows cleared of denominators."""
    if not rows or not rows[0]:
        return 0
    return len(_linalg.pivots([cleared(row)[0] for row in rows]))
