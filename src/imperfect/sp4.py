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
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .field import Context, FieldError, RatFunc, pth_root, render_element
from .pbasis import p_monomial
from .rank1 import Membership, TimmesfeldData, TorusWitness, torus_membership
from .tower import (
    DerivedFields,
    IndifferentSpec,
    InvariantViolation,
    RSpaceSpec,
    SpecError,
    SubfieldSpec,
    derive_fields,
)
from .unipotent import RootDatum2, TorusElement2, UElement, c2_datum


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


def form_matrix(ctx: Context) -> Mat4:
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o if i + j == 3 else z for j in range(4)] for i in range(4)])


def is_symplectic(g: Mat4) -> bool:
    # entry (i, j) of g^T J is g[3-j][i]
    r = g.rows
    gt_j = Mat4(g.ctx, [[r[3 - j][i] for j in range(4)] for i in range(4)])
    return gt_j * g == form_matrix(g.ctx)


# ---------------------------------------------------------------------------
# root subgroups
# ---------------------------------------------------------------------------

# name -> (length, slot in the quadrangle presentation for positive roots,
#          matrix positions)
_ROOT_TABLE: Dict[str, Tuple[str, Optional[int], Tuple[Tuple[int, int], ...]]] = {
    "alpha": ("short", 1, ((0, 1), (2, 3))),
    "2alpha+beta": ("long", 2, ((0, 3),)),
    "alpha+beta": ("short", 3, ((0, 2), (1, 3))),
    "beta": ("long", 4, ((1, 2),)),
    "-alpha": ("short", None, ((1, 0), (3, 2))),
    "-2alpha+beta": ("long", None, ((3, 0),)),
    "-alpha+beta": ("short", None, ((2, 0), (3, 1))),
    "-beta": ("long", None, ((2, 1),)),
}

SLOT_ROOT = {1: "alpha", 2: "2alpha+beta", 3: "alpha+beta", 4: "beta"}


@dataclass(frozen=True)
class Sp4Root:
    name: str

    def __post_init__(self):
        if self.name not in _ROOT_TABLE:
            raise SpecError(f"unknown root {self.name!r}")

    @property
    def length(self) -> str:
        return _ROOT_TABLE[self.name][0]

    @property
    def slot(self) -> Optional[int]:
        return _ROOT_TABLE[self.name][1]

    @property
    def positive(self) -> bool:
        return not self.name.startswith("-")


def chevalley_gen(r: Sp4Root, t: RatFunc) -> Mat4:
    ctx = t.ctx
    g = [list(row) for row in identity4(ctx).rows]
    for (i, j) in _ROOT_TABLE[r.name][2]:
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


def torus_coords(g: Mat4) -> Tuple[RatFunc, RatFunc]:
    """(s_alpha, s_beta) for a diagonal symplectic matrix."""
    d = [g.rows[i][i] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j and not g.rows[i][j].is_zero():
                raise SpecError("matrix is not diagonal")
    if not (d[0] * d[3]).is_one() or not (d[1] * d[2]).is_one():
        raise InvariantViolation("diagonal is not in the symplectic torus")
    return d[0], d[0] * d[1]


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
    """x1(t) x2(b) x3(c) x4(a), multiplied out as in mat_to_u."""
    ctx = u.datum.ctx
    t, b, c, a = u.coords
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o, t, c + a * t, b + c * t], [z, o, a, c], [z, z, o, t], [z, z, z, o]])


def mat_to_u(m: Mat4, datum: Optional[RootDatum2] = None) -> UElement:
    """Coordinates of an upper unipotent symplectic matrix.

    x1(t) x2(b) x3(c) x4(a) multiplies out to
        [1, t, c+at, b+ct; 0, 1, a, c; 0, 0, 1, t; 0, 0, 0, 1]
    and the extraction inverts that; mismatched entries mean the input was
    not in the image.
    """
    ctx = m.ctx
    if datum is None:
        datum = full_datum(ctx)
    r = m.rows
    for i in range(4):
        if not r[i][i].is_one():
            raise SpecError("matrix is not unipotent")
        for j in range(i):
            if not r[i][j].is_zero():
                raise SpecError("matrix is not upper triangular")
    t = r[0][1]
    a = r[1][2]
    c = r[1][3]
    b = r[0][3] + c * t
    if r[2][3] != t or r[0][2] != c + a * t:
        raise SpecError("matrix is not in the positive unipotent subgroup")
    u = UElement(datum, (t, b, c, a))
    exp = u_to_mat(u)
    if exp != m:
        raise SpecError("matrix is not in the positive unipotent subgroup")
    return u


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

# positive roots in slot order, as (x, y) meaning x*alpha + y*beta
_POS_ROOTS = {1: (1, 0), 2: (2, 1), 3: (1, 1), 4: (0, 1)}


def _reflect(letter: str, root: Tuple[int, int]) -> Tuple[int, int]:
    x, y = root
    if letter == "a":
        return (2 * y - x, y)
    return (x, x - y)


def weyl_apply(word: str, root: Tuple[int, int]) -> Tuple[int, int]:
    for letter in reversed(word.replace("e", "")):
        root = _reflect(letter, root)
    return root


def weyl_rep(word: str, ctx: Context) -> Mat4:
    if word not in _WEYL_PERM:
        raise SpecError(f"unknown Weyl word {word!r}")
    perm = _WEYL_PERM[word]
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o if perm[j] == i else z for j in range(4)] for i in range(4)])


def _negative(root: Tuple[int, int]) -> bool:
    return root[0] < 0 or root[1] < 0


def descent_slots(word: str) -> Tuple[int, ...]:
    """Positive slots sent negative; the canonical support of the tail part."""
    return tuple(s for s, r in _POS_ROOTS.items() if _negative(weyl_apply(word, r)))


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


def _pivot_rows(g: Mat4) -> Tuple[int, ...]:
    """Pivot row of each column: where the rank of the trailing-row block jumps.

    The ranks for the first j + 1 columns are the previous ranks of the next
    column, so each of the 16 blocks is ranked once.
    """
    perm = []
    prev = [0] * 4
    for j in range(4):
        cur = [_linalg.rank([list(g.rows[r][: j + 1]) for r in range(i, 4)]) for i in range(4)]
        perm.append(max(i for i in range(4) if cur[i] > prev[i]))
        prev = cur
    return tuple(perm)


def sp4_bruhat(g: Mat4) -> Bruhat4:
    """Canonical u1 * h * n_w * u2 with u2 supported on the descent slots.

    The Weyl chamber is found from the rank pattern of lower-left
    submatrices; the rest is a triangular/lower-unipotent splitting with
    exact back substitution, verified by reassembly.
    """
    ctx = g.ctx
    if not is_symplectic(g):
        raise SpecError("matrix does not preserve the form")
    perm = _pivot_rows(g)
    word = _CHAMBER.get(perm)
    if word is None:
        raise InvariantViolation(f"pivot pattern {list(perm)} matches no Weyl chamber")
    n_w = weyl_rep(word, ctx)
    m = (g * n_w.inverse()).rows
    # split m = B * W, B upper triangular, W lower unipotent
    B = [[ctx.zero()] * 4 for _ in range(4)]
    W = [[ctx.one() if i == j else ctx.zero() for j in range(4)] for i in range(4)]
    for i in range(3, -1, -1):
        for j in range(3, i - 1, -1):
            acc = m[i][j]
            for k in range(j + 1, 4):
                acc = acc + B[i][k] * W[k][j]
            B[i][j] = acc
        if B[i][i].is_zero():
            raise InvariantViolation("degenerate pivot in the triangular split")
        for j in range(i - 1, -1, -1):
            acc = m[i][j]
            for k in range(i + 1, 4):
                acc = acc + B[i][k] * W[k][j]
            W[i][j] = acc / B[i][i]
    s_alpha, s_beta = torus_coords(
        Mat4(ctx, [[B[i][i] if i == j else ctx.zero() for j in range(4)] for i in range(4)])
    )
    h = torus_matrix(s_alpha, s_beta)
    u1 = mat_to_u(Mat4(ctx, B) * h.inverse())
    u2_mat = n_w.inverse() * Mat4(ctx, W) * n_w
    u2 = mat_to_u(u2_mat)
    allowed = descent_slots(word)
    for slot, _ in u2.word():
        if slot not in allowed:
            raise InvariantViolation(
                f"tail coordinate in slot {slot} outside the chamber support {allowed}"
            )
    out = Bruhat4(u1, word, s_alpha, s_beta, u2)
    if out.to_matrix() != g:
        raise InvariantViolation("decomposition does not reassemble")
    return out


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _k2_space(spec: IndifferentSpec, name: str, field: SubfieldSpec,
              basis: Sequence[RatFunc]) -> RSpaceSpec:
    """An over-E0 space rewritten with scalars from K^2."""
    ctx = spec.ctx
    full = []
    for l in range(field.dim_over_p):
        m = p_monomial(ctx, l, field.gens)
        for b in basis:
            full.append(m * b)
    return RSpaceSpec(name, spec.Kp, full)


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
            dom = spec.K0 if slot in (1, 3) else spec.L0
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
    the direct verdict stands when none of these is yes.
    """
    br = sp4_bruhat(g)
    escape = _slot_escape(br, spec)
    if escape is not None:
        # a unipotent coordinate escaped; the torus part cannot fix that
        return escape
    data_short, data_long = _torus_data(spec)
    pool = [(h.s_alpha, h.s_beta) for h in torus]
    pool += [(a.inverse(), b.inverse()) for a, b in pool]
    for depth in (0, 1, 2):
        for combo in itertools.product(pool, repeat=depth):
            ta, tb = br.s_alpha, br.s_beta
            for a, b in combo:
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


def torus_normalizer_check(s_alpha: RatFunc, s_beta: RatFunc,
                           spec: IndifferentSpec) -> bool:
    """Whether diag coordinates (s_alpha, s_beta) normalize the subgroup:
    the short-root coordinate is unconstrained, the long one must multiply
    K0 onto itself."""
    if s_alpha.is_zero() or s_beta.is_zero():
        raise FieldError("torus coordinates must be nonzero")
    return spec.K0.stable_under(s_beta)


# ---------------------------------------------------------------------------
# the group-from-structure direction
# ---------------------------------------------------------------------------


@dataclass
class StructureData:
    """(K0; L0, T, +, mu) with mu(a, b) = a^2 b and T given by the scalars
    through which each generator acts on the two extreme root slots."""

    spec: IndifferentSpec
    torus_actions: List[Tuple[RatFunc, RatFunc]]

    def mu(self, a: RatFunc, b: RatFunc) -> RatFunc:
        return a * a * b


@dataclass
class Sp4Context:
    spec: IndifferentSpec
    torus: List[TorusElement2]
    fields: DerivedFields

    @property
    def ctx(self) -> Context:
        return self.spec.ctx

    def torus_matrices(self) -> List[Mat4]:
        return [torus_matrix(h.s_alpha, h.s_beta) for h in self.torus]

    def membership(self, g: Mat4, bound: int = 4) -> Membership:
        return membership_psp4(g, self.spec, bound, self.torus)


def build_group_from_M(m: StructureData) -> Sp4Context:
    """Realize the group T * PSp4(L0, K0) from the structure datum.

    Each torus generator is handed over by its action scalars (f1 on the
    short extreme slot, f4 on the long one); the diagonal coordinates are
    s_beta = f1*f4 and s_alpha the square root of f1^2*f4, which exists for
    a consistent action and fails loudly otherwise.
    """
    ctx = m.spec.ctx
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
    fields = derive_fields([m.spec.L0, m.spec.K0])
    return Sp4Context(m.spec, torus, fields)


def perfectness_witness_sp4(slot: int, s: RatFunc, spec: IndifferentSpec,
                            c: Optional[RatFunc] = None) -> Tuple[Tuple[RatFunc, RatFunc], RatFunc]:
    """Torus coordinates h and s' with [h, x_slot(s')] = x_slot(s).

    Slots 1, 2, 4 use the short-root torus with factor c^2 or c^-2, so the
    rescaling 1 + f^-1 is a square and preserves both coordinate domains;
    slot 3 uses the long-root torus with c from the field over which K0 is
    presented, which multiplies K0 onto itself.
    """
    ctx = spec.ctx
    datum = full_datum(ctx)
    if slot == 3:
        if c is None:
            c = spec.E0.gens[0] if spec.E0.gens else ctx.gens()[0] * ctx.gens()[0]
        h = (ctx.one(), c)
    else:
        if c is None:
            c = ctx.gens()[0]
        h = (c, ctx.one())
    e1, e2 = datum.exponents[slot]
    f = h[0] ** e1 * h[1] ** e2
    if f.is_one():
        raise SpecError("the torus element must move the slot")
    scale = ctx.one() + f.inverse()
    s_prime = s / scale
    return h, s_prime
