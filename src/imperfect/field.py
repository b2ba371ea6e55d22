"""Exact arithmetic in K = F_p(x_1, ..., x_n) for small p and up to three variables.

Elements are reduced fractions of sparse polynomials over the prime field.
Everything is immutable and exact; there is no floating point anywhere.

Conventions fixed here and relied on by the rest of the package:

* coefficients are ints in [0, p); zero coefficients are never stored;
* monomials are compared in graded-lex order with x1 < x2 < x3
  (total degree first, then the exponent of the largest variable);
* fractions are reduced and the denominator's leading coefficient is 1.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence


class ImperfectError(Exception):
    """Base of every error the package raises on purpose."""


class FieldError(ImperfectError, ArithmeticError):
    """Raised for invalid field operations (division by zero, bad context mix)."""


class ParseError(ImperfectError, ValueError):
    """Raised by parse_element; carries the offending position."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _grlex_key(exps: tuple) -> tuple:
    # graded-lex with the last variable most significant on ties
    return (sum(exps), tuple(reversed(exps)))


class Context:
    """Fixes the prime p and the variable names of one ambient field K."""

    __slots__ = ("p", "names", "n", "_zero", "_one")

    def __init__(self, p: int, names: Sequence[str]):
        if p not in (2, 3, 5):
            raise FieldError(f"unsupported prime {p}")
        names = tuple(names)
        if not 0 < len(names) <= 3:
            raise FieldError("between 1 and 3 variables are supported")
        for nm in names:
            if len(nm) != 1 or not nm.isalpha():
                raise FieldError(f"variable names must be single letters, got {nm!r}")
        if len(set(names)) != len(names):
            raise FieldError("duplicate variable names")
        self.p = p
        self.names = names
        self.n = len(names)
        self._zero = None
        self._one = None

    # -- constructors ------------------------------------------------------

    def poly(self, terms: dict) -> "SparsePoly":
        clean = {}
        for exps, c in terms.items():
            c %= self.p
            if c:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.n or any(e < 0 for e in exps):
                    raise FieldError(f"bad exponent vector {exps}")
                clean[exps] = c
        return SparsePoly(self, clean)

    def const_poly(self, c: int) -> "SparsePoly":
        c %= self.p
        if c == 0:
            return SparsePoly(self, {})
        return SparsePoly(self, {(0,) * self.n: c})

    def zero(self) -> "RatFunc":
        if self._zero is None:
            self._zero = RatFunc(self, self.const_poly(0), self.const_poly(1))
        return self._zero

    def one(self) -> "RatFunc":
        if self._one is None:
            self._one = RatFunc(self, self.const_poly(1), self.const_poly(1))
        return self._one

    def scalar(self, c: int) -> "RatFunc":
        return RatFunc(self, self.const_poly(c), self.const_poly(1))

    def var(self, name: str) -> "RatFunc":
        if name not in self.names:
            raise FieldError(f"unknown variable {name!r}")
        exps = tuple(1 if nm == name else 0 for nm in self.names)
        return RatFunc(self, self.poly({exps: 1}), self.const_poly(1))

    def gens(self) -> tuple:
        return tuple(self.var(nm) for nm in self.names)

    def __repr__(self):
        return f"Context(F_{self.p}({', '.join(self.names)}))"

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and self.p == other.p
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.p, self.names))

    # -- parsing and sampling ---------------------------------------------

    def parse(self, s: str) -> "RatFunc":
        return parse_element(s, self)

    def rand_poly(self, rng: random.Random, max_deg: int = 2, max_terms: int = 3) -> "SparsePoly":
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_deg) for _ in range(self.n))
            terms[exps] = rng.randint(1, self.p - 1)
        return self.poly(terms)

    def rand_ratfunc(
        self,
        rng: random.Random,
        max_deg: int = 2,
        max_terms: int = 3,
        nonzero: bool = False,
        denominators: bool = True,
    ) -> "RatFunc":
        while True:
            num = self.rand_poly(rng, max_deg, max_terms)
            if denominators and rng.random() < 0.4:
                den = self.rand_poly(rng, max_deg=1, max_terms=2)
                while den.is_zero():
                    den = self.rand_poly(rng, max_deg=1, max_terms=2)
            else:
                den = self.const_poly(1)
            x = RatFunc(self, num, den)
            if not nonzero or not x.is_zero():
                return x


class SparsePoly:
    """A sparse polynomial over F_p; terms maps exponent vectors to coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ctx.n: 1}

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, k: int) -> int:
        return max((e[k] for e in self.terms), default=0)

    def leading(self) -> tuple:
        """(exponents, coefficient) of the graded-lex leading term."""
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        p = self.ctx.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly(self.ctx, out)

    def __neg__(self) -> "SparsePoly":
        p = self.ctx.p
        if p == 2:
            return self
        return SparsePoly(self.ctx, {e: (-c) % p for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        p = self.ctx.p
        if not self.terms or not other.terms:
            return SparsePoly(self.ctx, {})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(e, 0) + c1 * c2) % p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return SparsePoly(self.ctx, out)

    def scale(self, c: int) -> "SparsePoly":
        p = self.ctx.p
        c %= p
        if c == 0:
            return SparsePoly(self.ctx, {})
        if c == 1:
            return self
        return SparsePoly(self.ctx, {e: (k * c) % p for e, k in self.terms.items()})

    def shift(self, exps: tuple) -> "SparsePoly":
        """Multiply by the monomial with the given exponent vector."""
        if not any(exps):
            return self
        return SparsePoly(
            self.ctx, {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms and self.ctx == other.ctx

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return render_poly(self)


# ---------------------------------------------------------------------------
# gcd machinery: recursive content / primitive-part over F_p
# ---------------------------------------------------------------------------


def _monomial_gcd(f: SparsePoly) -> tuple:
    """Componentwise min of all exponent vectors of f (f nonzero)."""
    it = iter(f.terms)
    acc = list(next(it))
    for e in it:
        for i, v in enumerate(e):
            if v < acc[i]:
                acc[i] = v
    return tuple(acc)


def _main_var(f: SparsePoly, g: SparsePoly) -> Optional[int]:
    """Highest variable index occurring in f or g, or None for constants."""
    best = None
    for poly in (f, g):
        for e in poly.terms:
            for i in range(len(e) - 1, -1, -1):
                if e[i] > 0 and (best is None or i > best):
                    best = i
                    break
    return best


def _coeffs_in(f: SparsePoly, k: int) -> dict:
    """View f as a polynomial in x_k: maps x_k-degree to a SparsePoly coefficient."""
    out: dict = {}
    for e, c in f.terms.items():
        d = e[k]
        rest = e[:k] + (0,) + e[k + 1 :]
        bucket = out.setdefault(d, {})
        bucket[rest] = c  # exponent vectors are distinct after splitting off x_k
    return {d: SparsePoly(f.ctx, t) for d, t in out.items()}


def _from_coeffs(ctx: Context, coeffs: dict, k: int) -> SparsePoly:
    out = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            out[e[:k] + (d,) + e[k + 1 :]] = c
    return SparsePoly(ctx, out)


def exact_div(f: SparsePoly, d: SparsePoly) -> SparsePoly:
    """Exact polynomial division; raises if d does not divide f."""
    if d.is_zero():
        raise FieldError("division by zero polynomial")
    ctx = f.ctx
    p = ctx.p
    if f.is_zero():
        return f
    if d.is_one():
        return f
    if d.is_monomial():
        (de, dc) = next(iter(d.terms.items()))
        inv = pow(dc, p - 2, p)
        out = {}
        for e, c in f.terms.items():
            q = tuple(a - b for a, b in zip(e, de))
            if any(v < 0 for v in q):
                raise FieldError("inexact monomial division")
            out[q] = (c * inv) % p
        return SparsePoly(ctx, out)
    d_exps, d_c = d.leading()
    d_inv = pow(d_c, p - 2, p)
    quo = {}
    rem = f
    while not rem.is_zero():
        r_exps, r_c = rem.leading()
        q = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(v < 0 for v in q):
            raise FieldError("inexact polynomial division")
        qc = (r_c * d_inv) % p
        quo[q] = qc
        rem = rem - d.shift(q).scale(qc)
    return SparsePoly(ctx, quo)


def _gcd_univ(f: SparsePoly, g: SparsePoly, k: int) -> SparsePoly:
    """Euclid in F_p[x_k] for polynomials involving only x_k."""
    ctx = f.ctx
    p = ctx.p

    def to_list(poly: SparsePoly) -> list:
        d = poly.degree_in(k)
        out = [0] * (d + 1)
        for e, c in poly.terms.items():
            out[e[k]] = c
        return out

    def trim(a: list) -> list:
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim(to_list(f)), trim(to_list(g))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = (a[-1] * inv) % p
            shiftn = len(a) - len(b)
            for i, bc in enumerate(b):
                a[i + shiftn] = (a[i + shiftn] - c * bc) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    inv = pow(a[-1], p - 2, p)
    exps_base = [0] * ctx.n
    terms = {}
    for i, c in enumerate(a):
        if c:
            e = list(exps_base)
            e[k] = i
            terms[tuple(e)] = (c * inv) % p
    return SparsePoly(ctx, terms)


def _uses_only(f: SparsePoly, k: int) -> bool:
    return all(all(v == 0 for i, v in enumerate(e) if i != k) for e in f.terms)


def poly_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """gcd over F_p, normalized to leading coefficient 1."""
    ctx = f.ctx
    if f.is_zero() and g.is_zero():
        return ctx.const_poly(0)
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return ctx.const_poly(1)
    if f.is_monomial() or g.is_monomial():
        mono = _monomial_gcd(f) if f.is_monomial() else _monomial_gcd(g)
        other = g if f.is_monomial() else f
        om = _monomial_gcd(other)
        e = tuple(min(a, b) for a, b in zip(mono, om))
        return SparsePoly(ctx, {e: 1})
    k = _main_var(f, g)
    if k is None:
        return ctx.const_poly(1)
    if _uses_only(f, k) and _uses_only(g, k):
        return _gcd_univ(f, g, k)
    fc = _coeffs_in(f, k)
    gc = _coeffs_in(g, k)
    cf = _content(fc)
    cg = _content(gc)
    pf = {d: exact_div(c, cf) for d, c in fc.items()}
    pg = {d: exact_div(c, cg) for d, c in gc.items()}
    while pg:
        r = _pseudo_rem(pf, pg, ctx)
        if r:
            rc = _content(r)
            r = {d: exact_div(c, rc) for d, c in r.items()}
        pf, pg = pg, r
    cont = poly_gcd(cf, cg)
    result = _from_coeffs(ctx, pf, k) * cont
    return _monic(result)


def _content(coeffs: dict) -> SparsePoly:
    it = iter(coeffs.values())
    acc = next(it)
    for c in it:
        acc = poly_gcd(acc, c)
        if acc.is_constant():
            break
    return _monic(acc)


def _pseudo_rem(fc: dict, gc: dict, ctx: Context) -> dict:
    """Pseudo-remainder of f by g as coefficient maps in the main variable."""
    fd = dict(fc)
    dg = max(gc)
    lg = gc[dg]
    while fd and max(fd) >= dg:
        df = max(fd)
        lf = fd[df]
        shiftn = df - dg
        new: dict = {}
        degrees = set()
        for d, c in fd.items():
            degrees.add(d)
        for d in degrees:
            new[d] = fd[d] * lg
        for d, c in gc.items():
            t = c * lf
            nd = d + shiftn
            new[nd] = new.get(nd, SparsePoly(ctx, {})) - t
        fd = {d: c for d, c in new.items() if not c.is_zero()}
    return fd


def _monic(f: SparsePoly) -> SparsePoly:
    if f.is_zero():
        return f
    _, lc = f.leading()
    if lc == 1:
        return f
    return f.scale(pow(lc, f.ctx.p - 2, f.ctx.p))


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


def _cancel(x: SparsePoly, y: SparsePoly) -> tuple:
    """(x/g, y/g) for g = gcd(x, y), x and y nonzero; no gcd is run when either is constant."""
    if x.is_constant() or y.is_constant():
        return x, y
    g = poly_gcd(x, y)
    if g.is_one():
        return x, y
    return exact_div(x, g), exact_div(y, g)


def _monic_den(num: SparsePoly, den: SparsePoly) -> tuple:
    """num/den rescaled so that den has leading coefficient 1."""
    _, lc = den.leading()
    if lc == 1:
        return num, den
    inv = pow(lc, den.ctx.p - 2, den.ctx.p)
    return num.scale(inv), den.scale(inv)


class RatFunc:
    """A reduced fraction num/den of sparse polynomials over F_p."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: Context, num: SparsePoly, den: SparsePoly, reduce: bool = True):
        if den.is_zero():
            raise FieldError("zero denominator")
        if reduce:
            if num.is_zero():
                den = ctx.const_poly(1)
            else:
                num, den = _cancel(num, den)
            num, den = _monic_den(num, den)
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RatFunc"):
        if self.ctx != other.ctx:
            raise FieldError("mixed field contexts")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.ctx, self.num + other.num, self.den, reduce=False)
        # a/b + c/d with both inputs reduced and b, d monic
        ctx = self.ctx
        a, b, c, d = self.num, self.den, other.num, other.den
        if d.is_one():
            # gcd(a + c*b, b) = gcd(a, b) = 1
            return RatFunc(ctx, a + c * b, b, reduce=False)
        if b.is_one():
            return RatFunc(ctx, c + a * d, d, reduce=False)
        g = poly_gcd(b, d)
        if g.is_one():
            return RatFunc(ctx, a * d + c * b, b * d, reduce=False)
        # with b = g*b1, d = g*d1: t = a*d1 + c*b1 is coprime to b1 and d1,
        # so the only common factor left is gcd(t, g)
        b1 = exact_div(b, g)
        t = a * exact_div(d, g) + c * b1
        if t.is_zero():
            return ctx.zero()
        g2 = poly_gcd(t, g)
        return RatFunc(ctx, exact_div(t, g2), b1 * exact_div(d, g2), reduce=False)

    def __neg__(self) -> "RatFunc":
        if self.ctx.p == 2:
            return self
        return RatFunc(self.ctx, -self.num, self.den, reduce=False)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.ctx, self.num * other.num, self.den, reduce=False)
        # (a/b)(c/d): gcd(a, b) = gcd(c, d) = 1, so only a, d and c, b can share factors
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return RatFunc(self.ctx, a * c, b * d, reduce=False)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise FieldError("inverse of zero")
        return RatFunc(self.ctx, *_monic_den(self.den, self.num), reduce=False)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero():
            raise FieldError("division by zero")
        if self.is_zero():
            return self
        # (a/b)/(c/d) = (a*d)/(b*c), cancelled as in __mul__
        a, c = _cancel(self.num, other.num)
        d, b = _cancel(other.den, self.den)
        return RatFunc(self.ctx, *_monic_den(a * d, b * c), reduce=False)

    def __pow__(self, k: int) -> "RatFunc":
        if k == 0:
            return self.ctx.one()
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = self.ctx.one()
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.ctx == other.ctx and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))

    def __repr__(self):
        return render_element(self)


# ---------------------------------------------------------------------------
# Frobenius and p-th roots
# ---------------------------------------------------------------------------


def frobenius(a: RatFunc) -> RatFunc:
    """a ** p, computed termwise: exponents multiply by p, F_p coefficients are fixed."""
    p = a.ctx.p

    def fr(poly: SparsePoly) -> SparsePoly:
        return SparsePoly(a.ctx, {tuple(e * p for e in exps): c for exps, c in poly.terms.items()})

    return RatFunc(a.ctx, fr(a.num), fr(a.den), reduce=False)


def pth_root(a: RatFunc) -> Optional[RatFunc]:
    """The unique r with r**p == a, when a is a p-th power; None otherwise.

    In reduced form a is a p-th power iff numerator and denominator separately
    have all exponents divisible by p (F_p coefficients are their own roots).
    """
    p = a.ctx.p

    def root(poly: SparsePoly) -> Optional[SparsePoly]:
        out = {}
        for exps, c in poly.terms.items():
            if any(e % p for e in exps):
                return None
            out[tuple(e // p for e in exps)] = c
        return SparsePoly(a.ctx, out)

    num = root(a.num)
    if num is None:
        return None
    den = root(a.den)
    if den is None:
        return None
    return RatFunc(a.ctx, num, den, reduce=False)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_poly(poly: SparsePoly) -> str:
    if poly.is_zero():
        return "0"
    names = poly.ctx.names
    parts = []
    for exps in sorted(poly.terms, key=_grlex_key, reverse=True):
        c = poly.terms[exps]
        factors = []
        for nm, e in zip(names, exps):
            if e == 1:
                factors.append(nm)
            elif e > 1:
                factors.append(f"{nm}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return "+".join(parts)


def _needs_parens_as_factor(poly: SparsePoly) -> bool:
    if len(poly.terms) > 1:
        return True
    rendered = render_poly(poly)
    return "*" in rendered


def render_element(a: RatFunc) -> str:
    """Canonical rendering: graded-lex descending terms, one '/' when reduced den != 1."""
    if a.den.is_one():
        return render_poly(a.num)
    num_s = render_poly(a.num)
    if len(a.num.terms) > 1:
        num_s = f"({num_s})"
    den_s = render_poly(a.den)
    if _needs_parens_as_factor(a.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


_DIGITS = "0123456789"


def _tokenize(s: str, ctx: Context) -> Iterator[tuple]:
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(s) and s[j] in _DIGITS:
                j += 1
            try:
                value = int(s[i:j])
            except ValueError:  # longer than the interpreter's integer string limit
                raise ParseError("number too long", i) from None
            yield ("nat", value, i)
            i = j
            continue
        if ch.isalpha():
            if ch not in ctx.names:
                raise ParseError(f"unknown variable {ch!r}", i)
            yield ("var", ch, i)
            i += 1
            continue
        if ch in "+-*/^()":
            yield (ch, ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", None, len(s))


# input budget: a power in parsed input may have at most this total degree
MAX_POWER_DEGREE = 256


class _Parser:
    def __init__(self, s: str, ctx: Context):
        self.ctx = ctx
        self.toks = list(_tokenize(s, ctx))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    def parse_expr(self) -> RatFunc:
        if self.peek()[0] == "-":
            self.next()
            acc = -self.parse_term()
        else:
            acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> RatFunc:
        acc = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.parse_factor()
            if op == "*":
                acc = acc * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", pos)
                acc = acc / rhs
        return acc

    def parse_factor(self) -> RatFunc:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            _, k, pos = self.expect("nat")
            degree = k * max(base.num.total_degree(), base.den.total_degree())
            if degree > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power of total degree {degree} exceeds the limit {MAX_POWER_DEGREE}", pos
                )
            base = base ** k
        return base

    def parse_atom(self) -> RatFunc:
        t = self.next()
        if t[0] == "nat":
            return self.ctx.scalar(t[1])
        if t[0] == "var":
            return self.ctx.var(t[1])
        if t[0] == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {t[1]!r}", t[2])


def parse_element(s: str, ctx: Context) -> RatFunc:
    p = _Parser(s, ctx)
    try:
        out = p.parse_expr()
    except RecursionError:
        pos = p.toks[min(p.i, len(p.toks) - 1)][2]
        raise ParseError("expression nested too deeply", pos) from None
    t = p.peek()
    if t[0] != "end":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return out


def prod(xs: Iterable[RatFunc], one: RatFunc) -> RatFunc:
    acc = one
    for x in xs:
        acc = acc * x
    return acc
