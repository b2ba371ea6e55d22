"""p-monomials, coordinate functions over p-th powers, and p-independence.

For a tuple a = (a_1, ..., a_m) and b in K^p[a] there are unique c_i with

    b = sum_i c_i^p * m_i(a),

where m_i runs over the p-monomials in a (exponents below p). The c_i are
the coordinate functions computed here. The convention for inadmissible
input (a not p-independent, or b outside K^p[a]) is an all-zero undefined
result rather than an error.

Whether such coordinates exist is decided by the Jacobian criterion
(Matsumura, Commutative Ring Theory, Thm 26.5; Bourbaki, Algebre V §13).
The derivations d/dx_1, ..., d/dx_n of K = F_p(x_1, ..., x_n) vanish exactly
on K^p, so with db = (db/dx_1, ..., db/dx_n):

  * a is p-independent iff da_1, ..., da_m are K-linearly independent;
  * b lies in K^p[a] iff db lies in the K-span of da_1, ..., da_m.

Both are rank questions on an m x n matrix, not on the p^m columns of the
p-monomials in a. Only the coordinates themselves need those: they are
exact linear algebra over K in the coordinates of the ambient variable
p-basis (x_1, ..., x_n), which are computable directly from the fraction
representation without solving anything.
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


def lambda_numerators(b: RatFunc) -> List[SparsePoly]:
    """Coordinates of b relative to the ambient variable p-basis (x_1, ..., x_n),
    scaled by b.den: polynomials, made without any linear algebra or gcd.

    Write b = N / den^p with N = num * den^(p-1), split the terms of N by the
    residues of their exponent vectors mod p, and divide exponents by p; F_p
    coefficients are fixed by the p-th power map. Coordinate i is then the
    i-th polynomial over den, for any num / den equal to b, reduced or not.
    The scaling changes no answer about membership in a K-span.
    """
    ctx = b.ctx
    p = ctx.p
    N = b.num
    for _ in range(p - 1):
        N = N * b.den
    buckets = {}
    for e, c in N.terms.items():
        residue = tuple([v % p for v in ctx.unpack(e)])
        # every exponent of N / x^residue is a multiple of p
        buckets.setdefault(residue, {})[(e - ctx.pack(residue)) // p] = c
    return [SparsePoly(ctx, buckets.get(monomial_exponents(p, ctx.n, i), {}))
            for i in range(p ** ctx.n)]


def _partial(f: SparsePoly, k: int) -> SparsePoly:
    """The formal derivative of f in the k-th variable."""
    ctx = f.ctx
    p = ctx.p
    unit = ctx.pack([int(i == k) for i in range(ctx.n)])
    out = {}
    for e, c in f.terms.items():
        d = c * ctx.unpack(e)[k] % p
        if d:
            out[e - unit] = d
    return SparsePoly(ctx, out)


def differential(b: RatFunc) -> List[SparsePoly]:
    """(db/dx_1, ..., db/dx_n) scaled by b.den^2: polynomials, made without any gcd.

    By the quotient rule den^2 * d(num/den) = d(num) * den - num * d(den).
    The scaling changes no answer about independence or membership in a K-span.
    """
    ctx = b.ctx
    num, den = b.num, b.den
    out = []
    for k in range(ctx.n):
        d = _partial(num, k)
        if not den.is_one():
            d = d * den - num * _partial(den, k)
        out.append(d)
    return out


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
    # the Jacobian criterion decides definedness before the p^m system is built
    one = ctx.const_poly(1)
    span = _linalg.ColumnSpace([(differential(x), one) for x in a], ctx)
    if not span.ok or not span.contains(differential(b)):
        return _undefined(ctx, size)
    monomials = [p_monomial(ctx, i, a) for i in range(size)]
    space = _linalg.ColumnSpace([(lambda_numerators(m), m.den) for m in monomials], ctx)
    sol = space.solve(lambda_numerators(b), b.den)
    if sol is None:
        raise FieldError("the differential criterion and the coordinate system disagree")
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
    """Whether over_gens together with c is p-independent.

    When over_gens is p-independent this says that c is p-independent over
    E = K^p[over_gens], i.e. [E[c] : E] = p^|c|; callers validate over_gens.
    Decided by the Jacobian criterion (see the module docstring): the rows
    d(x) for x in over_gens + c must be K-linearly independent, an
    (|over_gens| + |c|) x n rank test.
    """
    if ctx is None:
        src = list(c) or list(over_gens)
        if not src:
            return True
        ctx = src[0].ctx
    if any(x.is_zero() for x in c):
        return False
    rows = list(over_gens) + list(c)
    if len(rows) > ctx.n:
        return False
    return len(_linalg.pivots([differential(x) for x in rows])) == len(rows)
