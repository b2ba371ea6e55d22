"""Exact arithmetic in K = F_p(x_1, ..., x_n) for small p and up to three variables.

Elements are reduced fractions of sparse polynomials over the prime field.
Everything is immutable and exact; there is no floating point anywhere.

Conventions fixed here and relied on by the rest of the package:

* coefficients are ints in [0, p); zero coefficients are never stored;
* a monomial is one int, its key: the total degree in the top field, then
  the exponents of x3, x2, x1 in 16-bit fields below it, the top bit of
  each field a guard bit that stays clear (Bachmann & Schoenemann 1998).
  The key of a product is the sum of the keys, and integer order on keys
  is graded-lex order with x1 < x2 < x3 (total degree first, then the
  exponent of the largest variable);
* a monomial's total degree stays below EXP_LIMIT = 2^15; an operation
  whose result would reach it raises FieldError instead of wrapping;
* fractions are reduced and the denominator's leading coefficient is 1.
"""

from __future__ import annotations

import random
import re
from typing import Collection, Iterable, Iterator, Optional, Sequence


class ImperfectError(Exception):
    """Base of every error the package raises on purpose."""


class FieldError(ImperfectError, ArithmeticError):
    """Raised for invalid field operations (division by zero, bad context mix)."""


class ParseError(ImperfectError, ValueError):
    """Raised by parse_element; carries the offending position."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.msg = msg
        self.pos = pos


_FIELD_BITS = 16
_FIELD = (1 << _FIELD_BITS) - 1
_SHIFTS = (0, _FIELD_BITS, 2 * _FIELD_BITS)  # x1, x2, x3
_DEG_SHIFT = 3 * _FIELD_BITS
# a monomial's total degree, and so each of its exponents, stays below this
EXP_LIMIT = 1 << (_FIELD_BITS - 1)
# the smallest key of total degree EXP_LIMIT
_TOP = EXP_LIMIT << _DEG_SHIFT
# the guard bit of every field; a key difference that borrows sets one
_GUARD = sum(EXP_LIMIT << s for s in _SHIFTS + (_DEG_SHIFT,))
# the key of x_k
_VAR = tuple((1 << s) | (1 << _DEG_SHIFT) for s in _SHIFTS)
# the terms of the polynomial 1, compared against and never handed to a SparsePoly
_ONE_TERMS = {0: 1}


class Context:
    """Fixes the prime p and the variable names of one ambient field K."""

    __slots__ = ("p", "names", "n", "_keys", "_zero", "_one", "_gens")

    def __init__(self, p: int, names: Sequence[str]):
        if p not in (2, 3, 5):
            raise FieldError(f"unsupported prime {p}")
        names = tuple(names)
        if not 0 < len(names) <= 3:
            raise FieldError("between 1 and 3 variables are supported")
        for nm in names:
            if not isinstance(nm, str) or len(nm) != 1 or not nm.isalpha():
                raise FieldError(f"variable names must be single letters, got {nm!r}")
        if len(set(names)) != len(names):
            raise FieldError("duplicate variable names")
        self.p = p
        self.names = names
        self.n = len(names)
        self._keys = dict(zip(names, _VAR))  # variable name -> monomial key
        self._zero = None
        self._one = None
        self._gens = None

    # -- monomial keys -----------------------------------------------------

    def pack(self, exps: Sequence[int]) -> int:
        """The key of x^exps; the exponents must be >= 0 with sum below EXP_LIMIT."""
        key = sum(exps) << _DEG_SHIFT
        for e, s in zip(exps, _SHIFTS):
            key |= e << s
        return key

    def unpack(self, key: int) -> tuple:
        """The exponent vector of a monomial key."""
        return tuple([(key >> s) & _FIELD for s in _SHIFTS[: self.n]])

    # -- constructors ------------------------------------------------------

    def poly(self, terms: dict) -> "SparsePoly":
        """The polynomial with the given {exponent tuple: coefficient} terms."""
        clean = {}
        for exps, c in terms.items():
            c %= self.p
            if c:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.n or any(e < 0 for e in exps):
                    raise FieldError(f"bad exponent vector {exps}")
                if sum(exps) >= EXP_LIMIT:
                    raise FieldError(f"total degree {sum(exps)} reaches the limit {EXP_LIMIT}")
                clean[self.pack(exps)] = c
        return SparsePoly(self, clean)

    def const_poly(self, c: int) -> "SparsePoly":
        c %= self.p
        if c == 0:
            return SparsePoly(self, {})
        return SparsePoly(self, {0: c})

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
        key = self._keys.get(name)
        if key is None:
            raise FieldError(f"unknown variable {name!r}")
        return RatFunc(self, SparsePoly(self, {key: 1}), self.const_poly(1), reduce=False)

    def gens(self) -> tuple:
        if self._gens is None:
            self._gens = tuple(self.var(nm) for nm in self.names)
        return self._gens

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

    # -- sampling ---------------------------------------------------------

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
    """A sparse polynomial over F_p; terms maps monomial keys to coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def is_constant(self) -> bool:
        return not any(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        return max(self.terms, default=0) >> _DEG_SHIFT

    def leading(self) -> tuple:
        """(key, coefficient) of the graded-lex leading term."""
        key = max(self.terms)
        return key, self.terms[key]

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
        p = self.ctx.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) - c) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly(self.ctx, out)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if not self.terms or not other.terms:
            return SparsePoly(self.ctx, {})
        # SparsePolys are never written into, so a product by 1 is the other factor
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        p = self.ctx.p
        if max(self.terms) + max(other.terms) >= _TOP:
            raise FieldError(f"a product reaches the exponent limit {EXP_LIMIT}")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
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

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms and self.ctx == other.ctx

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return render_poly(self)


# ---------------------------------------------------------------------------
# gcd machinery: recursive content / primitive-part over F_p
# ---------------------------------------------------------------------------


def _min_exponents(keys: Collection[int], n: int) -> int:
    """Key of the componentwise min of the exponent vectors of the given keys."""
    out = deg = 0
    for s in _SHIFTS[:n]:
        low = min(e & (_FIELD << s) for e in keys)
        out |= low
        deg += low >> s
    return out | (deg << _DEG_SHIFT)


def _shift(f: SparsePoly, m: int) -> SparsePoly:
    """f times the monomial of key m (or divided by it, for m < 0, when it divides)."""
    return SparsePoly(f.ctx, {e + m: c for e, c in f.terms.items()})


def _variables(f: SparsePoly, g: SparsePoly) -> list:
    """Indices of the variables occurring in f or g, ascending."""
    acc = 0
    for e in f.terms:
        acc |= e
    for e in g.terms:
        acc |= e
    return [k for k, s in enumerate(_SHIFTS) if (acc >> s) & _FIELD]


def _coeffs_in(f: SparsePoly, k: int) -> dict:
    """View f as a polynomial in x_k: maps x_k-degree to a SparsePoly coefficient."""
    s, unit = _SHIFTS[k], _VAR[k]
    out: dict = {}
    for e, c in f.terms.items():
        d = (e >> s) & _FIELD
        bucket = out.setdefault(d, {})
        bucket[e - d * unit] = c  # monomials are distinct after splitting off x_k
    return {d: SparsePoly(f.ctx, t) for d, t in out.items()}


def _from_coeffs(ctx: Context, coeffs: dict, k: int) -> SparsePoly:
    unit = _VAR[k]
    out = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            out[e + d * unit] = c
    return SparsePoly(ctx, out)


def _quotient(f: SparsePoly, d: SparsePoly) -> Optional[SparsePoly]:
    """f/d by long division when d divides f, else None (f and d nonzero)."""
    p = f.ctx.p
    d_lead, d_c = d.leading()
    d_inv = pow(d_c, p - 2, p)
    quo = {}
    rem = dict(f.terms)
    while rem:
        r_lead = max(rem)
        q = r_lead - d_lead
        if q & _GUARD:
            return None
        qc = (rem[r_lead] * d_inv) % p
        quo[q] = qc
        # rem -= qc * x^q * d; the leading term cancels
        for e, c in d.terms.items():
            e += q
            s = (rem.get(e, 0) - qc * c) % p
            if s:
                rem[e] = s
            else:
                del rem[e]
    return SparsePoly(f.ctx, quo)


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
        (de, dc), = d.terms.items()
        inv = pow(dc, p - 2, p)
        out = {}
        for e, c in f.terms.items():
            q = e - de
            if q & _GUARD:
                raise FieldError("inexact monomial division")
            out[q] = (c * inv) % p
        return SparsePoly(ctx, out)
    quo = _quotient(f, d)
    if quo is None:
        raise FieldError("inexact polynomial division")
    return quo


# univariate images, for the coprimality certificate and for one-variable gcds,
# live in GF(p^k): GF(2^8), GF(3^5), GF(5^4)
_GF_DEGREE = {2: 8, 3: 5, 5: 4}
# x1, x2, x3 take the points a^L, a the field's generator, for L in this row;
# each L is prime to q - 1, so no point lies in a proper subfield
_GF_POINTS = {2: (1, 38, 97), 3: (1, 45, 103), 5: (1, 173, 311)}
_GF_TABLES: dict = {}  # p -> _GF, each built on first use


class _GF:
    """GF(q), q = p^k, as F_p[x]/(M) with M the first modulus in base-p order
    of which x is a generator a (M primitive).

    exp[i] is a^i as its coefficient vector packed in base p (digit j the
    coefficient of x^j), for i < q - 1, and log inverts it; an element of F_p
    packs to itself. An element is its logarithm, None for 0: a product adds
    logarithms and a sum uses the Zech logarithm 1 + a^n = a^zech[n], None
    where a^n = -1, at n = neg (0 for p = 2, m/2 for odd p). No table has more
    than q entries.
    """

    __slots__ = ("m", "exp", "log", "zech", "neg", "weights")

    def __init__(self, p: int):
        k = _GF_DEGREE[p]
        m = self.m = p ** k - 1
        for low in range(1, m + 1):  # M = x^k - (r_0 + r_1 x + ... + r_{k-1} x^{k-1})
            r = [low // p ** j % p for j in range(k)]
            if not r[0]:
                continue
            exp, v = [1], [1] + [0] * (k - 1)
            while True:  # x is a unit, so its powers come back to 1
                top = v[-1]
                v = [(c + top * rj) % p for c, rj in zip([0] + v[:-1], r)]
                packed = sum(c * p ** j for j, c in enumerate(v))
                if packed == 1:
                    break
                exp.append(packed)
            if len(exp) == m:
                break
        self.exp = exp
        self.log = [0] * (m + 1)
        for i, v in enumerate(exp):
            self.log[v] = i
        self.neg = self.log[p - 1]
        # adding 1 adds 1 to digit 0
        self.zech = [self.log[v - v % p + (v + 1) % p] if v != p - 1 else None for v in exp]
        # per image variable x_k, the logs of the points, 0 at x_k
        self.weights = [tuple(0 if j == k else L for j, L in enumerate(_GF_POINTS[p]))
                        for k in range(3)]


def _gf(p: int) -> _GF:
    gf = _GF_TABLES.get(p)
    if gf is None:
        gf = _GF_TABLES[p] = _GF(p)
    return gf


def _image(terms: dict, k: int, gf: _GF) -> Optional[list]:
    """The image in GF(q)[x_k], a dense list of logs, of a polynomial over F_p:
    every variable but x_k is set to its point, so a term's log is its
    coefficient's log plus the points' logs, and Zech logarithms add the terms
    up. None when the leading coefficient in x_k vanishes. The exponents of
    x1, x2, x3 sit at the shifts 0, 16, 32 of a key (_SHIFTS)."""
    s, (w0, w1, w2), log, zech, m = _SHIFTS[k], gf.weights[k], gf.log, gf.zech, gf.m
    out: dict = {}
    for e, c in terms.items():
        d = (e >> s) & _FIELD
        x = (log[c] + (e & _FIELD) * w0 + (e >> 16 & _FIELD) * w1 + (e >> 32 & _FIELD) * w2) % m
        y = out.get(d)
        if y is None:
            out[d] = x
        else:
            z = zech[(x - y) % m]
            out[d] = None if z is None else (y + z) % m
    top = max(out)
    if top and out[top] is None:
        return None
    return [out.get(d) for d in range(top + 1)]


def _euclid(a: list, b: list, gf: _GF) -> list:
    """A gcd of a and b in GF(q)[x], dense lists of logs whose top entries
    are not None unless constant, by Euclid reducing the longer by the
    shorter; the lists are consumed. A constant b, even 0, ends Euclid and is
    returned: _coprime_images passes one only for a variable that g lacks."""
    zech, m = gf.zech, gf.m
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        nb = len(b) - 1
        neg_inv = gf.neg - b[-1]
        low = [(i, lc) for i, lc in enumerate(b[:-1]) if lc is not None]
        while len(a) > nb:
            c = a.pop()
            if c is not None:
                t = c + neg_inv  # the log of minus the quotient term
                off = len(a) - nb
                for i, lc in low:
                    x = lc + t
                    y = a[off + i]
                    if y is None:
                        a[off + i] = x % m
                    else:
                        z = zech[(x - y) % m]
                        a[off + i] = None if z is None else (y + z) % m
        while a and a[-1] is None:
            a.pop()
        if not a:
            return b
        a, b = b, a
    return b


def _gcd_univ(f: SparsePoly, g: SparsePoly, k: int) -> SparsePoly:
    """The monic gcd of f and g, polynomials involving only x_k: Euclid on
    their images in GF(q)[x_k], which are exact, made monic and read back
    through exp. The monic gcd over GF(q) is the one over F_p, so its
    coefficients pack to themselves."""
    gf = _gf(f.ctx.p)
    h = _euclid(_image(f.terms, k, gf), _image(g.terms, k, gf), gf)
    exp, m, top, unit = gf.exp, gf.m, h[-1], _VAR[k]
    return SparsePoly(f.ctx, {i * unit: exp[(c - top) % m] for i, c in enumerate(h)
                              if c is not None})


def _coprime_images(f: SparsePoly, g: SparsePoly, used: list) -> bool:
    """True when univariate images certify gcd(f, g) = 1; False says nothing.

    For each variable x_k of f and g, main variable first, every other
    variable is set to its fixed nonzero point of GF(q) (_GF_POINTS). The
    certificate holds when, for every x_k that occurs in both f and g, both
    images keep their x_k-degree and their gcd in GF(q)[x_k] is a constant.
    Sound: were h = gcd(f, g) of positive degree in x_k, lc_k(h) would divide
    lc_k(f), whose image is nonzero; so h's image would keep that positive
    degree and divide both images, which therefore could not be coprime. A
    variable missing from f or g is missing from h. So h has degree 0 in
    every variable: it is 1.
    """
    gf = _gf(f.ctx.p)
    for k in reversed(used):
        a = _image(f.terms, k, gf)
        if a is None:
            return False
        if len(a) == 1:
            continue
        b = _image(g.terms, k, gf)
        if b is None or len(_euclid(a, b, gf)) > 1:
            return False
    return True


def poly_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """gcd over F_p, normalized to leading coefficient 1.

    The cases, in the order they are tried:

    1. a zero input: the other input made monic (0 when both are zero);
    2. a constant input: 1;
    3. a monomial input: the monomial gcd;
    4. the input with the smaller leading key divides the other (one trial
       division): that input made monic;
    5. a monomial factor in either input: gcd(x^a*f', x^b*g') =
       x^min(a,b)*gcd(f', g'), the gcd on the right through these cases again;
    6. one variable: Euclid on the images in GF(p^k)[x_k], which are exact,
       made monic and read back (_gcd_univ);
    7. univariate images over GF(p^k) that prove the inputs coprime: 1
       (_coprime_images);
    8. otherwise the primitive PRS in the highest-index variable, with content
       gcds through these cases again.
    """
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
        return SparsePoly(ctx, {_min_exponents([*f.terms, *g.terms], ctx.n): 1})
    if max(g.terms) < max(f.terms):
        f, g = g, f
    if _quotient(g, f) is not None:
        return _monic(f)
    if 0 not in f.terms or 0 not in g.terms:
        mf = _min_exponents(f.terms, ctx.n)
        mg = _min_exponents(g.terms, ctx.n)
        if mf or mg:
            m = _min_exponents((mf, mg), ctx.n)
            return _shift(poly_gcd(_shift(f, -mf), _shift(g, -mg)), m)
    used = _variables(f, g)
    k = used[-1]  # the main variable: the highest index occurring
    if len(used) == 1:
        return _gcd_univ(f, g, k)
    if _coprime_images(f, g, used):
        return ctx.const_poly(1)
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
        new = {d: c * lg for d, c in fd.items()}
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
        return not self.num.terms

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RatFunc"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise FieldError("mixed field contexts")

    # __add__, __sub__ and __mul__ test the contexts inline, before any zero or unit short-cut

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise FieldError("mixed field contexts")
        if not self.num.terms:
            return other
        if not other.num.terms:
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
        if self.ctx.p == 2 or not self.num.terms:
            return self
        return RatFunc(self.ctx, -self.num, self.den, reduce=False)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise FieldError("mixed field contexts")
        if not other.num.terms:
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.ctx, self.num - other.num, self.den, reduce=False)
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise FieldError("mixed field contexts")
        if not self.num.terms or not other.num.terms:
            return self.ctx.zero()
        if other.num.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return self
        if self.num.terms == _ONE_TERMS and self.den.terms == _ONE_TERMS:
            return other
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
        return self * other.inverse()

    def __pow__(self, k: int) -> "RatFunc":
        if k == 0:
            return self.ctx.one()
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = self.ctx.one()
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

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
        if max(poly.terms, default=0) * p >= _TOP:
            raise FieldError(f"a p-th power reaches the exponent limit {EXP_LIMIT}")
        return SparsePoly(a.ctx, {e * p: c for e, c in poly.terms.items()})

    return RatFunc(a.ctx, fr(a.num), fr(a.den), reduce=False)


def pth_root(a: RatFunc) -> Optional[RatFunc]:
    """The unique r with r**p == a, when a is a p-th power; None otherwise.

    In reduced form a is a p-th power iff numerator and denominator separately
    have all exponents divisible by p (F_p coefficients are their own roots).
    """
    ctx = a.ctx
    p = ctx.p

    def root(poly: SparsePoly) -> Optional[SparsePoly]:
        out = {}
        for e, c in poly.terms.items():
            if any(v % p for v in ctx.unpack(e)):
                return None
            out[e // p] = c  # every field of e is a multiple of p
        return SparsePoly(ctx, out)

    num = root(a.num)
    if num is None:
        return None
    den = root(a.den)
    if den is None:
        return None
    return RatFunc(ctx, num, den, reduce=False)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_poly(poly: SparsePoly) -> str:
    if poly.is_zero():
        return "0"
    ctx = poly.ctx
    parts = []
    for key in sorted(poly.terms, reverse=True):
        c = poly.terms[key]
        factors = []
        for nm, e in zip(ctx.names, ctx.unpack(key)):
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


def render_element(a: RatFunc) -> str:
    """Canonical rendering: graded-lex descending terms, one '/' when reduced den != 1."""
    if a.den.is_one():
        return render_poly(a.num)
    num_s = render_poly(a.num)
    if len(a.num.terms) > 1:
        num_s = f"({num_s})"
    den_s = render_poly(a.den)
    if "+" in den_s or "*" in den_s:  # coefficients render unsigned: "+" means several terms
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


def _named(t: tuple) -> str:
    """Token t as parse errors name it."""
    return "end of input" if t[0] == "end" else f"token {t[1]!r}"


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
            raise ParseError(f"expected {kind!r}, got {_named(t)}", t[2])
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
        raise ParseError(f"unexpected {_named(t)}", t[2])


# a sum of monomials as render_poly prints them, '-' signs allowed: numbers and
# variables with an optional power (ASCII only), '*' between the factors of a
# term and '+' or '-' between terms
_FACTOR = r"(?:[0-9]+|[A-Za-z](?:\^[0-9]+)?)"
_TERMS = re.compile(rf"-?{_FACTOR}(?:[-+*]{_FACTOR})*")


def _parse_terms(s: str, ctx: Context) -> Optional[RatFunc]:
    """s read straight into packed terms, the key of each term summed from its
    exponents; None when s is not a plain sum of monomials, or when one of
    _Parser's checks could fire on it."""
    if not _TERMS.fullmatch(s):
        return None
    p, keys = ctx.p, ctx._keys
    out = {}
    try:
        for term in s.replace("-", "+-").split("+"):
            if not term:  # before a leading '-'
                continue
            c, key = 1, 0
            if term[0] == "-":
                c, term = -1, term[1:]
            for f in term.split("*"):
                if f[0] in _DIGITS:
                    c = c * int(f) % p
                    continue
                unit = keys.get(f[0])
                if unit is None:
                    return None
                if len(f) == 1:
                    key += unit
                    continue
                e = int(f[2:])
                if e > MAX_POWER_DEGREE:
                    return None
                key += e * unit
            # even a zero term: _Parser may raise on the partial products
            if key >= _TOP:
                return None
            c = (out.get(key, 0) + c) % p
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    except ValueError:  # a number longer than the interpreter's integer string limit
        return None
    return RatFunc(ctx, SparsePoly(ctx, out), SparsePoly(ctx, {0: 1}), reduce=False)


def parse_element(s: str, ctx: Context) -> RatFunc:
    """The element of K that s denotes.

    A plain sum of monomials, as render_poly prints it with '-' signs allowed
    (no spaces, parentheses or '/'), is read straight into packed terms. Every
    other text, and every text on which one of _Parser's checks could fire (an
    unknown letter, a number too long for int(), a power over MAX_POWER_DEGREE,
    a term whose degree reaches EXP_LIMIT), goes to _Parser, which evaluates it
    with RatFunc arithmetic and raises ParseError or FieldError.
    """
    out = _parse_terms(s, ctx)
    if out is not None:
        return out
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


def over_one_den(pairs: Sequence[tuple]) -> tuple:
    """Numerators n_k and one denominator D with n_k / D = a_k / b_k for the
    (a_k, b_k) in pairs, D the product of the distinct denominators of the
    nonzero pairs; the numerators of a row have the rank of the row."""
    one = pairs[0][1].ctx.one().den
    dens = list(dict.fromkeys(d for n, d in pairs if n.terms and not d.is_one()))
    if not dens:
        return [n for n, _ in pairs], one
    return [n * prod([e for e in dens if e != d], one) for n, d in pairs], prod(dens, one)
