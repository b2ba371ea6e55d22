"""Explicit 4x4 symplectic realization of the quadrangle group (char 2).

The form is the antidiagonal J (ones on the antidiagonal), fixed once here;
with respect to it the positive root subgroups sit in the upper triangle:

    x_alpha(t)       = I + t(E12 + E34)      short, slot 1
    x_2alpha+beta(t) = I + t E14             long,  slot 2
    x_alpha+beta(t)  = I + t(E13 + E24)      short, slot 3
    x_beta(t)        = I + t E23             long,  slot 4

and the negative ones are their transposes. The matrices themselves are a
realization choice; the contract they must satisfy is the quadrangle
commutator table, which the tests check as matrix identities before
anything else is trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .field import Context, FieldError, RatFunc, over_one_den, pth_root, render_element
from .rank1 import Membership, TimmesfeldData, TorusWitness, torus_membership
from .tower import IndifferentSpec, InvariantViolation, RSpaceSpec, SpecError, SubfieldSpec
from .unipotent import RootDatum2, TorusElement2, UElement, c2_datum, torus_normalizes


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Mat4:
    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Context, rows: Sequence[Sequence[RatFunc]]):
        if ctx.p != 2:
            raise FieldError("the symplectic realization lives in characteristic 2")
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise SpecError("need 4x4 entries")
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)

    def __mul__(self, other: "Mat4") -> "Mat4":
        a, b = self.rows, other.rows
        out = []
        for i in range(4):
            row = []
            for j in range(4):
                acc = self.ctx.zero()
                for k in range(4):
                    if a[i][k].is_zero() or b[k][j].is_zero():
                        continue
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            out.append(row)
        return Mat4(self.ctx, out)

    def inverse(self) -> "Mat4":
        # for symplectic g the inverse is J g^T J with J its own inverse;
        # entry (i, j) of J g^T J is g[3-j][3-i]
        r = self.rows
        return Mat4(self.ctx, [[r[3 - j][3 - i] for j in range(4)] for i in range(4)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(render_element(e) for e in row) for row in self.rows
        ) + "]"


def identity4(ctx: Context) -> Mat4:
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o if i == j else z for j in range(4)] for i in range(4)])


def is_symplectic(g: Mat4) -> bool:
    """Whether g^T J g == J.

    Entry (i, j) of g^T J g is the sum over k of g[k][i] * g[3-k][j]. In
    characteristic 2 that matrix is symmetric with a zero diagonal for every
    g, so its six entries above the diagonal decide the check.
    """
    r = g.rows
    zero, one = g.ctx.zero(), g.ctx.one()
    for i in range(3):
        for j in range(i + 1, 4):
            acc = zero
            for k in range(4):
                a, b = r[k][i], r[3 - k][j]
                if a and b:
                    acc = acc + a * b
            if acc != (one if i + j == 3 else zero):
                return False
    return True


# ---------------------------------------------------------------------------
# root subgroups
# ---------------------------------------------------------------------------

# name -> (slot in the quadrangle presentation for positive roots, matrix
# positions); root lengths are stated once, by the quadrangle datum's slots
_ROOT_TABLE: Dict[str, Tuple[Optional[int], Tuple[Tuple[int, int], ...]]] = {
    "alpha": (1, ((0, 1), (2, 3))),
    "2alpha+beta": (2, ((0, 3),)),
    "alpha+beta": (3, ((0, 2), (1, 3))),
    "beta": (4, ((1, 2),)),
    "-alpha": (None, ((1, 0), (3, 2))),
    "-2alpha+beta": (None, ((3, 0),)),
    "-alpha+beta": (None, ((2, 0), (3, 1))),
    "-beta": (None, ((2, 1),)),
}

SLOT_ROOT = {1: "alpha", 2: "2alpha+beta", 3: "alpha+beta", 4: "beta"}


def slot_domain(spec: IndifferentSpec, slot: int) -> SubfieldSpec:
    """The coordinate domain of a quadrangle slot: K0 for the short roots
    (slots 1 and 3), L0 for the long ones (slots 2 and 4)."""
    return spec.K0 if slot in (1, 3) else spec.L0


@dataclass(frozen=True)
class Sp4Root:
    name: str

    def __post_init__(self):
        if self.name not in _ROOT_TABLE:
            raise SpecError(f"unknown root {self.name!r}")

    @property
    def slot(self) -> Optional[int]:
        return _ROOT_TABLE[self.name][0]


def chevalley_gen(r: Sp4Root, t: RatFunc) -> Mat4:
    ctx = t.ctx
    g = [list(row) for row in identity4(ctx).rows]
    for (i, j) in _ROOT_TABLE[r.name][1]:
        g[i][j] = g[i][j] + t
    return Mat4(ctx, g)


def torus_matrix(s_alpha: RatFunc, s_beta: RatFunc) -> Mat4:
    ctx = s_alpha.ctx
    if s_alpha.is_zero() or s_beta.is_zero():
        raise FieldError("torus coordinates must be nonzero")
    z = ctx.zero()
    d = [s_alpha, s_alpha.inverse() * s_beta, s_alpha * s_beta.inverse(),
         s_alpha.inverse()]
    return Mat4(ctx, [[d[i] if i == j else z for j in range(4)] for i in range(4)])


# ---------------------------------------------------------------------------
# unipotent normal forms as matrices
# ---------------------------------------------------------------------------

# keyed by the context's value, so equal contexts share one datum and
# their UElements compare equal
_FULL_DATA: Dict[Context, RootDatum2] = {}


def full_datum(ctx: Context) -> RootDatum2:
    if ctx not in _FULL_DATA:
        _FULL_DATA[ctx] = c2_datum(ctx, None, None)
    return _FULL_DATA[ctx]


def u_to_mat(u: UElement) -> Mat4:
    """x1(t) x2(b) x3(c) x4(a), multiplied out.

    The product is [1, t, c+at, b+ct; 0, 1, a, c; 0, 0, 1, t; 0, 0, 0, 1], so
    entries (0, 1), (1, 2) and (1, 3) give t, a and c, and (0, 3) gives b as
    r[0][3] + c*t in characteristic 2; sp4_bruhat reads its u1 and u2 back
    from these entries.
    """
    ctx = u.datum.ctx
    t, b, c, a = u.coords
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o, t, c + a * t, b + c * t], [z, o, a, c], [z, z, o, t], [z, z, z, o]])


def _u_pairs(u: UElement) -> list:
    """u_to_mat(u) with its entries as unreduced (numerator, denominator) pairs."""
    ctx = u.datum.ctx
    t, b, c, a, z, o = [(x.num, x.den) for x in (*u.coords, ctx.zero(), ctx.one())]

    def plus_times_t(x, y):
        num, den = y[0] * t[0], y[1] * t[1]
        if x[1].terms == den.terms:
            return x[0] + num, den
        return x[0] * den + num * x[1], x[1] * den

    return [[o, t, plus_times_t(c, a), plus_times_t(b, c)], [z, o, a, c], [z, z, o, t], [z, z, z, o]]


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------

# n_w for each reduced word w, as the row of the 1 in each column: with
# n_a = x_alpha(1) x_-alpha(1) x_alpha(1), n_b likewise and n_w the product
# along w, every n_w is a permutation matrix in characteristic 2
_WEYL_PERM = {
    "e": (0, 1, 2, 3), "a": (1, 0, 3, 2), "b": (0, 2, 1, 3), "ab": (1, 3, 0, 2),
    "ba": (2, 0, 3, 1), "aba": (3, 1, 2, 0), "bab": (2, 3, 0, 1), "abab": (3, 2, 1, 0),
}
_CHAMBER = {perm: w for w, perm in _WEYL_PERM.items()}

WEYL_WORDS = tuple(_WEYL_PERM)


def weyl_rep(word: str, ctx: Context) -> Mat4:
    if word not in _WEYL_PERM:
        raise SpecError(f"unknown Weyl word {word!r}")
    perm = _WEYL_PERM[word]
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o if perm[j] == i else z for j in range(4)] for i in range(4)])


def descent_slots(word: str) -> Tuple[int, ...]:
    """Positive slots sent negative by w; the canonical support of the tail part.

    n_w E_ij n_w^-1 = E_{perm[i], perm[j]} for perm = _WEYL_PERM[w], so the
    root of a slot goes negative exactly when perm[i] > perm[j] at the first
    matrix position (i, j) of that root in _ROOT_TABLE: an inversion of perm.
    """
    perm = _WEYL_PERM[word]
    firsts = {s: _ROOT_TABLE[name][1][0] for s, name in SLOT_ROOT.items()}
    return tuple(s for s, (i, j) in firsts.items() if perm[i] > perm[j])


# ---------------------------------------------------------------------------
# Bruhat decomposition
# ---------------------------------------------------------------------------


@dataclass
class Bruhat4:
    u1: UElement
    word: str
    s_alpha: RatFunc
    s_beta: RatFunc
    u2: UElement

    def to_matrix(self) -> Mat4:
        ctx = self.s_alpha.ctx
        return (u_to_mat(self.u1) * torus_matrix(self.s_alpha, self.s_beta)
                * weyl_rep(self.word, ctx) * u_to_mat(self.u2))

    def reassembles(self, g: Mat4) -> bool:
        """Whether to_matrix() == g, decided as u1 * h * n_w == g * u2^-1 with no gcd.

        Entry (i, j) of u1 * h * n_w is the one product U1[i][w(j)] * d[w(j)],
        with d the diagonal of h and w(j) the row of n_w's 1 in column j, and
        column j of u2^-1 = J u2^T J is row 3 - j of U2 reversed. Each row of g
        and each column of u2^-1 is put over the product of its distinct entry
        denominators, which is 1 for a polynomial g.
        """
        perm, zero = _WEYL_PERM[self.word], g.ctx.zero().num
        sa, sb = self.s_alpha, self.s_beta
        d = [(sa.num, sa.den), (sb.num * sa.den, sb.den * sa.num),
             (sa.num * sb.den, sa.den * sb.num), (sa.den, sa.num)]
        U1, U2 = _u_pairs(self.u1), _u_pairs(self.u2)
        cols = [over_one_den(U2[3 - j][::-1]) for j in range(4)]
        for i, row in enumerate(g.rows):
            G, D = over_one_den([(x.num, x.den) for x in row])
            for j, (C, E) in enumerate(cols):
                acc = sum((x * y for x, y in zip(G, C) if x.terms and y.terms), zero)
                (a, b), (c, e) = U1[i][perm[j]], d[perm[j]]
                # a*c / (b*e) == acc / (D*E); a zero left side needs no product
                if (a * c * D * E).terms != (b * e * acc).terms if a.terms else acc.terms:
                    return False
        return True


def sp4_bruhat(g: Mat4) -> Bruhat4:
    """Canonical u1 * h * n_w * u2 with u2 supported on the descent slots.

    One bottom-up pass writes g = B * V with B = u1 * h upper triangular and
    V = n_w * u2. Row i of V is 1 in its pivot column col[i], the leftmost
    column where row i's residual is nonzero, and 0 in the pivot columns of
    the rows below it. The pivots give the chamber; s_alpha = B[0][0], s_beta
    = B[0][0] * B[1][1], and u1 and u2 are read off B's first two rows over
    its diagonal and the rows of V with pivots in columns 0 and 1.

    The checks: g is symplectic, every pivot is nonzero, the pivots form a
    Weyl chamber, and u2 lies on its descent slots. The split writes each
    row of g as a row of B times V, and a factorization B * V with V's pivot
    normalization is unique, so the answer reassembles to g unless the
    split's arithmetic is wrong. That check, Bruhat4.reassembles, runs at the
    CLI and in the tests, with to_matrix as its oracle.
    """
    ctx = g.ctx
    if not is_symplectic(g):
        raise SpecError("matrix does not preserve the form")
    zero, one = ctx.zero(), ctx.one()
    B = [[zero] * 4 for _ in range(4)]
    V = [[zero] * 4 for _ in range(4)]
    col = [0] * 4
    for i in range(3, -1, -1):
        row = g.rows[i]
        for k in range(3, i, -1):
            acc = row[col[k]]
            for l in range(k + 1, 4):
                acc = acc - B[i][l] * V[l][col[k]]
            B[i][k] = acc
        free = [j for j in range(4) if j not in col[i + 1:]]
        r = {}
        for j in free:
            acc = row[j]
            for k in range(i + 1, 4):
                acc = acc - B[i][k] * V[k][j]
            r[j] = acc
        nonzero = [j for j in free if not r[j].is_zero()]
        if not nonzero:
            raise InvariantViolation("degenerate pivot in the triangular split")
        col[i] = nonzero[0]
        B[i][i] = r[col[i]]
        for j in free:
            V[i][j] = one if j == col[i] else r[j] / B[i][i]
    perm = tuple(col.index(j) for j in range(4))
    word = _CHAMBER.get(perm)
    if word is None:
        raise InvariantViolation(f"pivot pattern {list(perm)} matches no Weyl chamber")
    s_alpha, s_beta = B[0][0], B[0][0] * B[1][1]
    datum = full_datum(ctx)
    t, a, c = B[0][1] / B[1][1], B[1][2] / B[2][2], B[1][3] / B[3][3]
    u1 = UElement(datum, (t, B[0][3] / B[3][3] + c * t, c, a))
    top, second = V[perm[0]], V[perm[1]]
    t, a, c = top[1], second[2], second[3]
    u2 = UElement(datum, (t, top[3] + c * t, c, a))
    allowed = descent_slots(word)
    for slot, _ in u2.word():
        if slot not in allowed:
            raise InvariantViolation(
                f"tail coordinate in slot {slot} outside the chamber support {allowed}"
            )
    return Bruhat4(u1, word, s_alpha, s_beta, u2)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _k2_space(spec: IndifferentSpec, name: str, field: SubfieldSpec,
              basis: Sequence[RatFunc]) -> RSpaceSpec:
    """An over-E0 space rewritten with scalars from K^2."""
    return RSpaceSpec(name, spec.Kp, [m * b for m in field.monomials for b in basis])


def _torus_data(spec: IndifferentSpec) -> Tuple[TimmesfeldData, TimmesfeldData]:
    """(short-root data from K0, long-root data from L0), codim-1 when the
    basis has exactly one element beyond 1."""
    ctx = spec.ctx

    def build(space: RSpaceSpec) -> TimmesfeldData:
        if len(space.basis) == 2:
            extra = space.basis[1] if space.basis[0].is_one() else space.basis[0]
            return TimmesfeldData(space, SubfieldSpec("Kp", (), ctx), extra)
        return TimmesfeldData(space)

    k0_flat = _k2_space(spec, "K0_flat", spec.E0, spec.K0.basis)
    return build(k0_flat), build(spec.L0)


def _slot_escape(br: "Bruhat4", spec: IndifferentSpec) -> Optional[Membership]:
    """The negative answer forced by an out-of-domain unipotent coordinate."""
    for u in (br.u1, br.u2):
        for slot, c in u.word():
            dom = slot_domain(spec, slot)
            if not dom.contains(c):
                return Membership(
                    "no",
                    reason=f"slot {slot} coordinate {render_element(c)} "
                    f"is outside {dom.name}",
                )
    return None


def membership_psp4(g: Mat4, spec: IndifferentSpec, bound: int = 4,
                    torus: Sequence[TorusElement2] = ()) -> Membership:
    """Membership in T * PSp4(L0, K0): the subgroup generated by short-root
    groups over K0 and long-root groups over L0, times the torus elements
    `torus`.

    Unipotent Bruhat coordinates decide negatively slot by slot; the torus
    coordinates are delegated per simple root, decisively so with codim-1
    data and never answering a false no without it. When that direct
    verdict is not yes, the torus coordinates are tried again divided by
    each product of one, then two, elements of `torus` or their inverses;
    the direct verdict stands when none of these is yes. The torus is
    abelian, so each unordered pair is asked once, and a pair h, h^-1 is
    not asked: it is the direct question again.
    """
    br = sp4_bruhat(g)
    escape = _slot_escape(br, spec)
    if escape is not None:
        # a unipotent coordinate escaped; the torus part cannot fix that
        return escape
    data_short, data_long = spec.torus_data
    pool = [(h.s_alpha, h.s_beta) for h in torus]
    pool += [(a.inverse(), b.inverse()) for a, b in pool]
    for depth in (0, 1, 2):
        for combo in itertools.combinations_with_replacement(range(len(pool)), depth):
            if depth == 2 and combo[1] - combo[0] == len(torus):
                continue  # pool[combo[1]] is the inverse of pool[combo[0]]
            ta, tb = br.s_alpha, br.s_beta
            for i in combo:
                a, b = pool[i]
                ta, tb = ta / a, tb / b
            ra = torus_membership(ta, data_short, bound)
            rb = torus_membership(tb, data_long, bound)
            if ra.verdict == "yes" and rb.verdict == "yes":
                return Membership(
                    "yes",
                    TorusWitness((ra.witness.factors if ra.witness else [])
                                 + (rb.witness.factors if rb.witness else [])),
                    reason=f"after removing a depth-{depth} torus part" if depth else "",
                )
            if not depth:
                direct = ra.verdict, rb.verdict
    va, vb = direct
    if "no" in direct:
        return Membership(
            "no",
            reason=f"torus coordinate outside the generated field (alpha: {va}, beta: {vb})",
        )
    return Membership("unknown", reason=f"torus coordinates undecided (alpha: {va}, beta: {vb})")


# ---------------------------------------------------------------------------
# the group-from-structure direction
# ---------------------------------------------------------------------------


@dataclass
class StructureData:
    """(K0; L0, T, +, mu) with mu(a, b) = a^2 b and T given by the scalars
    through which each generator acts on the two extreme root slots."""

    spec: IndifferentSpec
    torus_actions: List[Tuple[RatFunc, RatFunc]]


@dataclass
class Sp4Context:
    spec: IndifferentSpec
    torus: List[TorusElement2]

    @property
    def ctx(self) -> Context:
        return self.spec.ctx

    def membership(self, g: Mat4, bound: int = 4) -> Membership:
        return membership_psp4(g, self.spec, bound, self.torus)


def build_group_from_M(m: StructureData) -> Sp4Context:
    """Realize the group T * PSp4(L0, K0) from the structure datum.

    Each torus generator is handed over by its action scalars (f1 on the
    short extreme slot, f4 on the long one); the diagonal coordinates are
    s_beta = f1*f4 and s_alpha the square root of f1^2*f4, which exists for
    a consistent action and fails loudly otherwise, as does an action that
    does not normalize PSp4(L0, K0).
    """
    datum = c2_datum(m.spec.ctx, m.spec.K0, m.spec.L0)  # SpecError unless L0 * K0 <= K0
    torus = []
    for f1, f4 in m.torus_actions:
        if f1.is_zero() or f4.is_zero():
            raise SpecError("torus action scalars must be nonzero")
        s_beta = f1 * f4
        s_alpha = pth_root(f1 * f1 * f4)
        if s_alpha is None:
            raise SpecError(
                "torus action is inconsistent with the root exponents: "
                f"{render_element(f1 * f1 * f4)} has no square root"
            )
        torus.append(TorusElement2(s_alpha, s_beta))
        if not torus_normalizes(torus[-1], datum):
            raise SpecError("torus action does not normalize PSp4(L0, K0): "
                            f"[{render_element(f1)}, {render_element(f4)}]")
    return Sp4Context(m.spec, torus)


def perfectness_witness_sp4(slot: int, s: RatFunc,
                            spec: IndifferentSpec) -> Tuple[Tuple[RatFunc, RatFunc], RatFunc]:
    """Torus coordinates h and s' with [h, x_slot(s')] = x_slot(s).

    Slots 1, 2, 4 use the short-root torus with c the first variable and
    factor c^2 or c^-2, so the rescaling 1 + f^-1 is a square and preserves
    both coordinate domains; slot 3 uses the long-root torus with c the first
    generator of the field over which K0 is presented (the square of the
    first variable when there is none), which multiplies K0 onto itself.
    """
    ctx = spec.ctx
    datum = full_datum(ctx)
    if slot == 3:
        c = spec.E0.gens[0] if spec.E0.gens else ctx.gens()[0] * ctx.gens()[0]
        h = (ctx.one(), c)
    else:
        h = (ctx.gens()[0], ctx.one())
    e1, e2 = datum.exponents[slot]
    f = h[0] ** e1 * h[1] ** e2
    if f.is_one():
        raise SpecError("the torus element must move the slot")
    scale = ctx.one() + f.inverse()
    s_prime = s / scale
    return h, s_prime
