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

A tuple over K^p is a PBasis, which builds its Jacobian span, p-monomials
and p^m coordinate system at most once each; `lambda_coords` and
`reconstruct` are one-shot calls into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from . import _linalg
from .field import Context, FieldError, RatFunc, SparsePoly, frobenius, prod


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


def lambda_numerators(b: RatFunc) -> Dict[int, SparsePoly]:
    """Coordinates of b relative to the ambient variable p-basis (x_1, ..., x_n),
    scaled by b.den: the nonzero ones, as a sparse vector {i: polynomial} of
    length p^n, made without any linear algebra or gcd.

    Write b = N / den^p with N = num * den^(p-1), split the terms of N by the
    residues of their exponent vectors mod p, and divide exponents by p; F_p
    coefficients are fixed by the p-th power map. Coordinate i is then the
    i-th polynomial over den, for any num / den equal to b, reduced or not,
    i being the residue vector read in base p (see monomial_exponents).
    Only the residues that occur get an entry.
    The scaling changes no answer about membership in a K-span.
    """
    ctx = b.ctx
    p = ctx.p
    N = b.num
    for _ in range(p - 1):
        N = N * b.den
    buckets = {}
    for e, c in N.terms.items():
        residue = [v % p for v in ctx.unpack(e)]
        i = 0
        for r in reversed(residue):
            i = i * p + r
        # every exponent of N / x^residue is a multiple of p
        buckets.setdefault(i, {})[(e - ctx.pack(residue)) // p] = c
    return {i: SparsePoly(ctx, terms) for i, terms in buckets.items()}


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


def differential(b: RatFunc) -> Dict[int, SparsePoly]:
    """(db/dx_1, ..., db/dx_n) scaled by b.den^2: the nonzero entries, as a
    sparse vector {k: polynomial} of length n, made without any gcd.

    By the quotient rule den^2 * d(num/den) = d(num) * den - num * d(den).
    The scaling changes no answer about independence or membership in a K-span.
    """
    ctx = b.ctx
    num, den = b.num, b.den
    out = {}
    for k in range(ctx.n):
        d = _partial(num, k)
        if not den.is_one():
            d = d * den - num * _partial(den, k)
        if d:
            out[k] = d
    return out


class PBasis:
    """A tuple a = (a_1, ..., a_m) over K^p, with the systems that answer for it.

    Each of these is built on first use, once: the Jacobian span of
    da_1, ..., da_m, which decides `independent` and `contains`; the p^m
    p-monomials m_i(a), in `monomials`; and the p^m coordinate system, the
    ambient coordinates of the m_i, which `coords` solves.
    """

    def __init__(self, gens: Sequence[RatFunc], ctx: Context):
        self.gens = tuple(gens)
        self.ctx = ctx

    @property
    def dim_over_p(self) -> int:
        """p^m, the number of p-monomials; [K^p[a] : K^p] when a is p-independent."""
        return self.ctx.p ** len(self.gens)

    @cached_property
    def _span(self) -> _linalg.ColumnSpace:
        one = self.ctx.const_poly(1)
        columns = [(differential(g), one) for g in self.gens]
        return _linalg.ColumnSpace(columns, self.ctx.n, self.ctx)

    @cached_property
    def independent(self) -> bool:
        """Whether the tuple is p-independent (the Jacobian criterion)."""
        gens = self.gens
        return len(gens) <= self.ctx.n and not any(g.is_zero() for g in gens) and self._span.ok

    @cached_property
    def monomials(self) -> Tuple[RatFunc, ...]:
        """The p-monomials m_0 = 1, m_1, ..., m_{p^m - 1} in the tuple."""
        return tuple(p_monomial(self.ctx, i, self.gens) for i in range(self.dim_over_p))

    @cached_property
    def _system(self) -> _linalg.ColumnSpace:
        columns = [(lambda_numerators(m), m.den) for m in self.monomials]
        return _linalg.ColumnSpace(columns, self.ctx.p ** self.ctx.n, self.ctx)

    def contains(self, x: RatFunc) -> bool:
        """Whether x lies in K^p[a]: dx lies in the span of the da_i."""
        return self._span.contains(differential(x))

    def stable_under(self, f: RatFunc) -> bool:
        """Whether f * K^p[a] = K^p[a]: a field is, exactly when f != 0 lies in it."""
        return not f.is_zero() and self.contains(f)

    def coords(self, x: RatFunc) -> LambdaCoords:
        """The unique coordinates of x over K^p relative to the tuple, when they exist."""
        # the Jacobian criterion decides definedness before the p^m system is built
        if not self.independent or not self.contains(x):
            return LambdaCoords((self.ctx.zero(),) * self.dim_over_p, False)
        sol = self._system.solve(lambda_numerators(x), x.den)
        if sol is None:
            raise FieldError("the differential criterion and the coordinate system disagree")
        return LambdaCoords(tuple(sol), True)

    def combine(self, coords: Sequence[RatFunc]) -> RatFunc:
        """sum coords[i]^p * m_i(a); the inverse direction of coords."""
        if len(coords) > self.dim_over_p:
            raise FieldError(f"{len(coords)} coordinates for {self.dim_over_p} p-monomials")
        return sum((frobenius(c) * m for c, m in zip(coords, self.monomials) if not c.is_zero()),
                   self.ctx.zero())


def lambda_coords(a: Sequence[RatFunc], b: RatFunc, ctx: Optional[Context] = None) -> LambdaCoords:
    """The unique coordinates of b over K^p relative to the tuple a, when they exist."""
    if ctx is None:
        if not a:
            raise FieldError("empty tuple needs an explicit context")
        ctx = a[0].ctx
    return PBasis(a, ctx).coords(b)


def reconstruct(a: Sequence[RatFunc], coords: Sequence[RatFunc], ctx: Context) -> RatFunc:
    """sum coords[i]^p * m_i(a); the inverse direction of lambda_coords."""
    return PBasis(a, ctx).combine(coords)


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
    return len(_linalg.pivots([differential(x) for x in rows], ctx.n, ctx)) == len(rows)
