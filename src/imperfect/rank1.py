"""Rank-one machinery: SL2 over an additive group L with K^2 <= L <= K.

Matrices carry exact rational-function entries with determinant 1.
Every element is put into Bruhat normal form (upper-triangular part
h(tau)a(s), or big cell h(tau)a(s1)w a(s2)); multiplication of normal
forms is expressed through a small structure interface (addition on L,
multiplication and inversion of torus tokens, the squaring map into the
acting group, and its action on L), so the same formulas work for the
reconstruction experiments.

Torus membership in the group generated by L* is decided outright when L
splits as K1 + K^2*u over a subfield K1 of codimension one (every such
torus element is a product of two elements of L*); without that split the
search is bounded and never returns a false negative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from .field import Context, FieldError, RatFunc, render_element
from .tower import RSpaceSpec, SpecError, SubfieldSpec


class Mat2:
    """2x2 matrix over the function field with determinant 1."""

    __slots__ = ("ctx", "a", "b", "c", "d")

    def __init__(self, ctx: Context, a: RatFunc, b: RatFunc, c: RatFunc, d: RatFunc):
        self.ctx = ctx
        self.a, self.b, self.c, self.d = a, b, c, d
        if a * d - b * c != ctx.one():
            raise FieldError("matrix is not in SL2: determinant != 1")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.ctx,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.ctx, self.d, -self.b, -self.c, self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "[%s; %s; %s; %s]" % tuple(
            render_element(x) for x in (self.a, self.b, self.c, self.d)
        )

    @staticmethod
    def identity(ctx: Context) -> "Mat2":
        return Mat2(ctx, ctx.one(), ctx.zero(), ctx.zero(), ctx.one())

    @staticmethod
    def parse(text: str, ctx: Context) -> "Mat2":
        from .field import parse_element

        parts = text.split(";")
        if len(parts) != 4:
            raise SpecError("matrix syntax is 'a;b;c;d'")
        a, b, c, d = (parse_element(p.strip(), ctx) for p in parts)
        return Mat2(ctx, a, b, c, d)


def gen(kind: str, t: Optional[RatFunc], ctx: Context) -> Mat2:
    """Standard generators: a(t), b(t), h(t) (t != 0), and w."""
    one, zero = ctx.one(), ctx.zero()
    if kind == "a":
        return Mat2(ctx, one, t, zero, one)
    if kind == "b":
        return Mat2(ctx, one, zero, t, one)
    if kind == "h":
        if t is None or t.is_zero():
            raise FieldError("h(t) needs t != 0")
        return Mat2(ctx, t, zero, zero, t.inverse())
    if kind == "w":
        return Mat2(ctx, zero, one, -one, zero)
    raise SpecError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Bruhat normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Upper:
    """h(tau) * a(s): the Borel part."""

    tau: RatFunc
    s: RatFunc

    def to_matrix(self, ctx: Context) -> Mat2:
        return gen("h", self.tau, ctx) * gen("a", self.s, ctx)

    def __repr__(self):
        return f"Upper(tau={render_element(self.tau)}, s={render_element(self.s)})"


@dataclass(frozen=True)
class Cell:
    """h(tau) * a(s1) * w * a(s2): the big cell."""

    tau: RatFunc
    s1: RatFunc
    s2: RatFunc

    def to_matrix(self, ctx: Context) -> Mat2:
        return (
            gen("h", self.tau, ctx)
            * gen("a", self.s1, ctx)
            * gen("w", None, ctx)
            * gen("a", self.s2, ctx)
        )

    def __repr__(self):
        return "Cell(tau=%s, s1=%s, s2=%s)" % tuple(
            render_element(x) for x in (self.tau, self.s1, self.s2)
        )


Bruhat2 = Union[Upper, Cell]


def bruhat2(g: Mat2) -> Bruhat2:
    """Normal form of g; the coordinates are forced, so the form is unique."""
    if g.c.is_zero():
        # g = [[a, b], [0, a^-1]] = h(a) a(b/a)
        return Upper(g.a, g.b / g.a)
    return Cell(-g.c.inverse(), g.a * g.c, g.d / g.c)


# ---------------------------------------------------------------------------
# the structure interface used by normal-form multiplication
# ---------------------------------------------------------------------------


@dataclass
class RankOneStructure:
    """The operations allowed in normal-form multiplication.

    add/neg act on L; tmul/tinv/tneg on torus tokens; tsq sends a torus
    token to the element of the acting group it multiplies by; sigma is
    the squaring map from L* into that group; act applies an acting-group
    element to L. elem_inv inverts an element of L* using only sigma and
    act (x^-1 = sigma(x)^-1 * x).
    """

    ctx: Context
    add: Callable[[RatFunc, RatFunc], RatFunc]
    neg: Callable[[RatFunc], RatFunc]
    tmul: Callable[[RatFunc, RatFunc], RatFunc]
    tinv: Callable[[RatFunc], RatFunc]
    tneg: Callable[[RatFunc], RatFunc]
    tsq: Callable[[RatFunc], RatFunc]
    sigma: Callable[[RatFunc], RatFunc]
    act: Callable[[RatFunc, RatFunc], RatFunc]

    def elem_inv(self, x: RatFunc) -> RatFunc:
        return self.act(self.tinv(self.sigma(x)), x)


def field_structure(ctx: Context) -> RankOneStructure:
    return RankOneStructure(
        ctx=ctx,
        add=lambda x, y: x + y,
        neg=lambda x: -x,
        tmul=lambda x, y: x * y,
        tinv=lambda x: x.inverse(),
        tneg=lambda x: -x,
        tsq=lambda x: x * x,
        sigma=lambda x: x * x,
        act=lambda f, x: f * x,
    )


def mult_bruhat(e1: Bruhat2, e2: Bruhat2, st: RankOneStructure) -> Bruhat2:
    """Product of two normal forms, staying inside the structure interface."""

    def down(tau, s):  # s under h(tau) moved left-to-right: s -> tau^-2 s
        return st.act(st.tinv(st.tsq(tau)), s)

    def up(tau, s):  # s -> tau^2 s
        return st.act(st.tsq(tau), s)

    if isinstance(e1, Upper) and isinstance(e2, Upper):
        return Upper(st.tmul(e1.tau, e2.tau), st.add(down(e2.tau, e1.s), e2.s))
    if isinstance(e1, Upper) and isinstance(e2, Cell):
        return Cell(
            st.tmul(e1.tau, e2.tau), st.add(down(e2.tau, e1.s), e2.s1), e2.s2
        )
    if isinstance(e1, Cell) and isinstance(e2, Upper):
        return Cell(
            st.tmul(e1.tau, st.tinv(e2.tau)),
            up(e2.tau, e1.s1),
            st.add(down(e2.tau, e1.s2), e2.s),
        )
    # both big cell: the middle w a(m) w collapses ...
    m = st.add(down(e2.tau, e1.s2), e2.s1)
    tau_part = st.tmul(e1.tau, st.tinv(e2.tau))
    if m.is_zero():
        # w a(0) w = w^2 = -1
        return Upper(st.tneg(tau_part), st.add(up(e2.tau, e1.s1), e2.s2))
    # w a(m) w = h(-m^-1) a(-m) w a(-m^-1)
    minv = st.elem_inv(m)
    return Cell(
        st.tneg(st.tmul(tau_part, minv)),
        st.add(st.act(st.sigma(m), up(e2.tau, e1.s1)), st.neg(m)),
        st.add(e2.s2, st.neg(minv)),
    )


# ---------------------------------------------------------------------------
# Timmesfeld data and torus membership
# ---------------------------------------------------------------------------


@dataclass
class TimmesfeldData:
    """L with K^2 <= L <= K, optionally split as K1 + K^2*u over codim-1 K1."""

    L: RSpaceSpec
    K1: Optional[SubfieldSpec] = None
    u_coord: Optional[RatFunc] = None

    def __post_init__(self):
        ctx = self.L.ctx
        if ctx.p != 2:
            raise FieldError("rank-1 data lives over characteristic 2")
        if self.L.over.dim_over_p != 1:
            raise SpecError("L must be presented over K^2", self.L.name)
        if (self.K1 is None) != (self.u_coord is None):
            raise SpecError("codim-1 data needs both the subfield and the coordinate")
        if self.K1 is not None:
            from .pbasis import p_monomial

            u = self.u_coord
            if not self.L.contains(u):
                raise SpecError("split coordinate is not in L")
            if self.K1.contains(u):
                raise SpecError("split coordinate lies in the subfield")
            for l in range(self.K1.dim_over_p):
                if not self.L.contains(p_monomial(ctx, l, self.K1.gens)):
                    raise SpecError("subfield does not embed in L")
            if len(self.L.basis) != self.K1.dim_over_p + 1:
                raise SpecError(
                    "L does not split as the subfield plus one line: "
                    f"dim {len(self.L.basis)} != {self.K1.dim_over_p} + 1"
                )
            # K1-coordinates for elements of K_L = K1[u]
            self._split = RSpaceSpec("split", self.K1, [ctx.one(), u])
            self.K_L = SubfieldSpec("K_L", tuple(self.K1.gens) + (u,), ctx)
        else:
            self._split = None
            self.K_L = None

    @property
    def has_codim1(self) -> bool:
        return self.K1 is not None


@dataclass
class TorusWitness:
    """Signed factors from L*, multiplying out to the witnessed coordinate."""

    factors: List[Tuple[RatFunc, int]]

    def product(self, ctx: Context) -> RatFunc:
        acc = ctx.one()
        for l, e in self.factors:
            acc = acc * (l if e == 1 else l.inverse())
        return acc

    def to_json(self) -> list:
        return [{"factor": render_element(l), "exponent": e} for l, e in self.factors]


@dataclass
class Membership:
    verdict: str  # "yes" | "no" | "unknown"
    witness: Optional[TorusWitness] = None
    reason: str = ""

    def __bool__(self):
        return self.verdict == "yes"


def factor_codim1(x: RatFunc, data: TimmesfeldData) -> Tuple[RatFunc, RatFunc]:
    """x in K1[u]* as a product of exactly two elements of L*.

    Write x = alpha + beta*u over K1; (alpha, 1) when beta = 0, else
    (beta, alpha/beta + u).
    """
    if not data.has_codim1:
        raise SpecError("no codim-1 split available")
    if x.is_zero():
        raise FieldError("cannot factor 0")
    coords = data._split.member(x)
    if coords is None:
        raise SpecError("element is not in the field generated by L")
    alpha, beta = coords
    if beta.is_zero():
        return alpha, data.L.ctx.one()
    return beta, alpha / beta + data.u_coord


def torus_membership(tau: RatFunc, data: TimmesfeldData, bound: int = 4) -> Membership:
    """Is tau a product of elements of L*?

    Decisive with codim-1 data (the group generated by L* is K_L*);
    otherwise a bounded structured search that never answers a false no.
    """
    ctx = data.L.ctx
    if tau.is_zero():
        raise FieldError("torus coordinate must be nonzero")
    if data.L.contains(tau):
        return Membership("yes", TorusWitness([(tau, 1)]))
    if data.has_codim1:
        if data.K_L.contains(tau):
            l1, l2 = factor_codim1(tau, data)
            return Membership("yes", TorusWitness([(l1, 1), (l2, 1)]))
        return Membership(
            "no", reason="outside the field generated by L, which the torus generates"
        )
    # bounded search over products of basis elements
    candidates = [b for b in data.L.basis if not b.is_zero() and not b.is_one()]
    seen = {tau}
    frontier: List[Tuple[RatFunc, List[Tuple[RatFunc, int]]]] = [(tau, [])]
    for _ in range(max(0, bound - 1)):
        nxt = []
        for rem, path in frontier:
            for l in candidates:
                for mv, e in ((rem / l, 1), (rem * l, -1)):
                    if mv in seen:
                        continue
                    seen.add(mv)
                    trail = path + [(l, e)]
                    if data.L.contains(mv) and not mv.is_zero():
                        return Membership(
                            "yes", TorusWitness(trail + [(mv, 1)])
                        )
                    nxt.append((mv, trail))
        frontier = nxt
    return Membership("unknown", reason=f"no witness within {bound} factors")


def membership_sl2L(g: Mat2, data: TimmesfeldData, bound: int = 4) -> Membership:
    """Membership of g in T(L)-extended SL2(L), via the normal form.

    Unipotent coordinates decide negatively; the torus coordinate is
    delegated to torus_membership.
    """
    form = bruhat2(g)
    if isinstance(form, Upper):
        unip = [form.s]
    else:
        unip = [form.s1, form.s2]
    for s in unip:
        if not s.is_zero() and not data.L.contains(s):
            return Membership("no", reason=f"unipotent coordinate {render_element(s)} not in L")
    return torus_membership(form.tau, data, bound)


def perfectness_witness(s: RatFunc, t: RatFunc) -> RatFunc:
    """s' with [h(t), a(s')] = a(s); needs t^2 != 1.

    In characteristic 2 the factor 1 - t^-2 is the square (1 + t^-1)^2,
    so s' stays in any K^2-space containing s.
    """
    ctx = s.ctx
    tsq = t * t
    if tsq == ctx.one():
        raise FieldError("t^2 = 1 centralizes the root group")
    return s / (ctx.one() - tsq.inverse())


def rand_L_element(data: TimmesfeldData, rng: random.Random) -> RatFunc:
    """Short nonzero element of L: one or two (scalar square)*basis terms.

    Entries stay at a couple of terms so that words of several generators
    keep exactly representable sizes.
    """
    ctx = data.L.ctx
    while True:
        acc = ctx.zero()
        for _ in range(rng.choice([1, 1, 2])):
            scalar = rng.choice([ctx.one()] + list(ctx.gens()))
            acc = acc + scalar * scalar * rng.choice(data.L.basis)
        if not acc.is_zero():
            return acc


def rand_L_word(data: TimmesfeldData, rng: random.Random, length: int = 6) -> Mat2:
    """Product of a/b generators with coordinates from L*."""
    ctx = data.L.ctx
    g = Mat2.identity(ctx)
    for _ in range(length):
        g = g * gen(rng.choice(["a", "b"]), rand_L_element(data, rng), ctx)
    return g
