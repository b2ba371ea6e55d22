"""p-monomials, coordinate functions over p-th powers, and p-independence.

For a tuple a = (a_1, ..., a_m) and b in K^p[a] there are unique c_i with

    b = sum_i c_i^p * m_i(a),

where m_i runs over the p-monomials in a (exponents below p). The c_i are
the coordinate functions computed here. The convention for inadmissible
input (a not p-independent, or b outside K^p[a]) is an all-zero undefined
result rather than an error.

Everything reduces to exact linear algebra over K in the coordinates of
the ambient variable p-basis (x_1, ..., x_n), which are computable directly
from the fraction representation without solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import _linalg
from .field import Context, FieldError, RatFunc, SparsePoly, prod


def monomial_exponents(p: int, arity: int, i: int) -> Tuple[int, ...]:
    """Base-p digits of i, least significant first; digit j is the exponent of entry j."""
    if not 0 <= i < p ** arity:
        raise FieldError(f"p-monomial index {i} out of range for arity {arity}")
    out = []
    for _ in range(arity):
        out.append(i % p)
        i //= p
    return tuple(out)


def p_monomial(ctx: Context, i: int, a: Sequence[RatFunc]) -> RatFunc:
    """The i-th p-monomial in the tuple a; m_0 is always 1."""
    exps = monomial_exponents(ctx.p, len(a), i)
    return prod((x ** e for x, e in zip(a, exps) if e), ctx.one())


@dataclass(frozen=True)
class LambdaCoords:
    """Coordinates over K^p relative to a p-independent tuple; undefined => all zero."""

    coords: Tuple[RatFunc, ...]
    defined: bool

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def _undefined(ctx: Context, length: int) -> LambdaCoords:
    return LambdaCoords(tuple([ctx.zero()] * length), False)


def lambda_numerators(b: RatFunc) -> List[RatFunc]:
    """lambda_ambient(b) scaled by b.den: polynomial entries, made without any gcd.

    The scaling changes no answer about membership in a K-span.
    """
    ctx = b.ctx
    p = ctx.p
    N = b.num
    for _ in range(p - 1):
        N = N * b.den
    buckets = {}
    for exps, c in N.terms.items():
        residue = tuple(e % p for e in exps)
        quotient = tuple(e // p for e in exps)
        buckets.setdefault(residue, {})[quotient] = c
    one = ctx.const_poly(1)
    return [
        RatFunc(ctx, SparsePoly(ctx, buckets.get(monomial_exponents(p, ctx.n, i), {})), one,
                reduce=False)
        for i in range(p ** ctx.n)
    ]


def lambda_ambient(b: RatFunc) -> List[RatFunc]:
    """Coordinates of b relative to the ambient variable p-basis (x_1, ..., x_n).

    Write b = N / den^p with N = num * den^(p-1), split the terms of N by the
    residues of their exponent vectors mod p, divide exponents by p, and put
    the denominator back. No linear algebra is needed; F_p coefficients are
    fixed by the p-th power map.
    """
    ctx = b.ctx
    return [RatFunc(ctx, c.num, b.den) if c else ctx.zero() for c in lambda_numerators(b)]


def lambda_coords(a: Sequence[RatFunc], b: RatFunc, ctx: Optional[Context] = None) -> LambdaCoords:
    """The unique coordinates of b over K^p relative to the tuple a, when they exist."""
    if ctx is None:
        if not a:
            raise FieldError("empty tuple needs an explicit context")
        ctx = a[0].ctx
    m = len(a)
    size = ctx.p ** m
    if m > ctx.n or any(x.is_zero() for x in a):
        return _undefined(ctx, size)
    # a is p-independent exactly when its p-monomial columns are independent
    space = _linalg.ColumnSpace([lambda_ambient(p_monomial(ctx, i, a)) for i in range(size)], ctx)
    sol = space.solve(lambda_numerators(b), b.den) if space.ok else None
    if sol is None:
        return _undefined(ctx, size)
    return LambdaCoords(tuple(sol), True)


def reconstruct(a: Sequence[RatFunc], coords: Sequence[RatFunc], ctx: Context) -> RatFunc:
    """sum coords[i]^p * m_i(a); the inverse direction of lambda_coords."""
    from .field import frobenius

    acc = ctx.zero()
    for i, c in enumerate(coords):
        if c.is_zero():
            continue
        acc = acc + frobenius(c) * p_monomial(ctx, i, a)
    return acc


def is_p_independent(
    c: Sequence[RatFunc], over_gens: Sequence[RatFunc] = (), ctx: Optional[Context] = None
) -> bool:
    """Whether c is p-independent over E = K^p[over_gens].

    Decided by the K-linear independence of the ambient coordinate vectors of
    the products m_l(over_gens) * m_i(c): a dependence of the p-monomials in c
    over E with p-th power coefficients is exactly a K-linear dependence of
    those columns. over_gens must itself be p-independent for the reading
    "[E[c] : E] = p^|c|" to be the meaning tested; callers validate that.
    """
    if ctx is None:
        src = list(c) or list(over_gens)
        if not src:
            return True
        ctx = src[0].ctx
    if any(x.is_zero() for x in c):
        return False
    p = ctx.p
    total = len(c) + len(over_gens)
    if p ** total > p ** ctx.n:
        return False
    columns = []
    for l in range(p ** len(over_gens)):
        ml = p_monomial(ctx, l, over_gens)
        for i in range(p ** len(c)):
            columns.append(lambda_ambient(ml * p_monomial(ctx, i, c)))
    return _linalg.columns_independent(columns)
