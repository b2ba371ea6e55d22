"""Presented nilpotent groups on ordered root coordinates.

Two data ship: the hexagon presentation in characteristic 3 (six root
groups, short slots carrying full-field coordinates and long slots
carrying coordinates from a designated subfield) and the quadrangle
presentation in characteristic 2 (four root groups over an inclusion
pair K0, L0). Each datum carries its commutator table and the closed-form
product and inverse that collecting the table once gives; its constructor
proves that they keep every coordinate in its slot's domain. Collection
against the table (`u_mult_alt`) exists purely to cross-check the formulas.
Membership in the center and the second center is a coordinate test on
the slots the table puts there; the property suite checks it against the
commutator characterizations.

Torus elements act slot-wise through a fixed exponent table; the action
being an automorphism of the presentation is the oracle that pins the
table down.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .field import Context, FieldError, ParseError, RatFunc, parse_element, render_element
from .tower import RSpaceSpec, SpecError, SubfieldSpec

Domain = Union[None, SubfieldSpec, RSpaceSpec]
Coords = Tuple[RatFunc, ...]


def _domain_contains(d: Domain, x: RatFunc) -> bool:
    if d is None:
        return True
    return d.contains(x)


@dataclass
class Slot:
    index: int
    length: str  # "short" | "long"
    domain: Domain


@dataclass
class RootDatum2:
    """U on ordered root slots. `center` and `z2` are the slots spanning Z(U)
    and Z2(U), read off the commutator table where the datum is built; x lies
    in either exactly when its coordinates vanish outside those slots."""

    kind: str  # "G2" | "C2"
    ctx: Context
    slots: List[Slot]
    relations: Dict[Tuple[int, int], Callable[[RatFunc, RatFunc], List[Tuple[int, RatFunc]]]]
    exponents: Dict[int, Tuple[int, int]]
    mul: Callable[[Coords, Coords], Coords]  # the group law on normal-form coordinates
    inv: Callable[[Coords], Coords]
    center: Tuple[int, ...]
    z2: Tuple[int, ...]

    @property
    def nslots(self) -> int:
        return len(self.slots)

    def slot(self, i: int) -> Slot:
        return self.slots[i - 1]

    def identity(self) -> "UElement":
        return UElement(self, tuple(self.ctx.zero() for _ in self.slots))

    def rand_coord(self, slot: int, rng: random.Random, max_terms: int) -> RatFunc:
        """A random coordinate for the slot: from its domain, or, for a
        full-field slot, a polynomial of degree at most 1 and max_terms terms."""
        dom = self.slot(slot).domain
        if dom is not None:
            return dom.rand_element(rng)
        return self.ctx.rand_ratfunc(rng, max_deg=1, max_terms=max_terms, denominators=False)

    def generator(self, slot: int, coord: RatFunc) -> "UElement":
        if not 1 <= slot <= self.nslots:
            raise SpecError(f"no slot {slot}")
        if not _domain_contains(self.slot(slot).domain, coord):
            raise SpecError(
                f"coordinate {render_element(coord)} is outside the domain of slot {slot}"
            )
        coords = [self.ctx.zero()] * self.nslots
        coords[slot - 1] = coord
        return UElement(self, tuple(coords))


def g2_datum(ctx: Context, k: SubfieldSpec) -> RootDatum2:
    """Hexagon data: slots 1..6, odd short over K, even long over k.

    Nontrivial commutators, with all values landing strictly between the
    argument slots so that collection terminates:
      [x1(a), x5(b)] = x3(-ab)
      [x2(t), x6(u)] = x4(tu)
      [x1(a), x6(t)] = x2(-t a^3) x3(t a^2) x4(t^2 a^3) x5(-t a)
    so slots 3 and 4 span the center and slots 2 to 5 the second center.

    Collected once, they give the product `mul` and the inverse `inv` below,
    which need no closure check: each long-slot term is a product of long
    coordinates and cubes, and every subfield k contains K^3.
    """
    if ctx.p != 3:
        raise FieldError("the hexagon datum lives in characteristic 3")

    def mul(a, b):
        a1, a2, a3, a4, a5, a6 = a
        b1, b2, b3, b4, b5, b6 = b
        a6b1 = a6 * b1
        a6b1_2 = a6b1 * b1
        a6b1_3 = a6b1_2 * b1
        return (a1 + b1, a2 + b2 + a6b1_3, a3 + b3 + a5 * b1 - a6b1_2,
                a4 + b4 + a6 * (a6b1_3 - b2), a5 + b5 + a6b1, a6 + b6)

    def inv(a):
        a1, a2, a3, a4, a5, a6 = a
        a6a1 = a6 * a1
        a6a1_2 = a6a1 * a1
        a6a1_3 = a6a1_2 * a1
        return (-a1, a6a1_3 - a2, a5 * a1 + a6a1_2 - a3, -a4 - a6 * (a2 + a6a1_3),
                a6a1 - a5, -a6)

    def r15(a, b):
        return [(3, -(a * b))]

    def r26(t, u):
        return [(4, t * u)]

    def r16(a, t):
        a2 = a * a
        a3 = a2 * a
        return [(2, -(t * a3)), (3, t * a2), (4, t * t * a3), (5, -(t * a))]

    slots = [
        Slot(1, "short", None),
        Slot(2, "long", k),
        Slot(3, "short", None),
        Slot(4, "long", k),
        Slot(5, "short", None),
        Slot(6, "long", k),
    ]
    exponents = {1: (2, -1), 2: (3, -1), 3: (1, 0), 4: (0, 1), 5: (-1, 1), 6: (-3, 2)}
    return RootDatum2("G2", ctx, slots, {(1, 5): r15, (2, 6): r26, (1, 6): r16},
                      exponents, mul, inv, center=(3, 4), z2=(2, 3, 4, 5))


def c2_datum(ctx: Context, K0: Optional[RSpaceSpec], L0: Optional[RSpaceSpec]) -> RootDatum2:
    """Quadrangle data: slots 1,3 short over K0 and 2,4 long over L0.

    The single nontrivial commutator is [x1(t), x4(a)] = x2(t^2 a) x3(t a),
    so slots 2 and 3 span the center and the group has class 2.
    Collected once on coordinates (t, b, c, a), it gives the product `mul`
    and the inverse `inv` below, whose only new terms are t^2 a and t a.
    These lie in L0 and K0 for all t in K0, a in L0 exactly when k_i l_j lies
    in K0 for the bases k_i of K0 and l_j of L0, which is checked here once:
    t^2 lies in K^2 and L0 is a K^2-space, and with t = sum e_i k_i (e_i in
    the scalar field E0 >= K^2 of K0) and a = sum c_j^2 l_j we get
    t a = sum (e_i c_j^2) k_i l_j. With K0 = L0 = None every coordinate is
    allowed (the matrix group's datum).
    """
    if ctx.p != 2:
        raise FieldError("the quadrangle datum lives in characteristic 2")
    if (K0 is None) != (L0 is None) or (L0 is not None and L0.over.gens):
        raise SpecError("the quadrangle datum takes K0 and a K^2-space L0, or neither")
    escape = next(K0.escapes(L0.basis), None) if K0 is not None else None
    if escape is not None:
        k, l = escape
        raise SpecError(f"{render_element(k)} in K0 times {render_element(l)} "
                        f"in L0 is {render_element(k * l)}, which is not in K0")

    def r14(t, a):
        return [(2, t * t * a), (3, t * a)]

    def mul(x, y):
        t, b, c, a = x
        t2, b2, c2, a2 = y
        at2 = a * t2
        return (t + t2, b + b2 + at2 * t2, c + c2 + at2, a + a2)

    def inv(x):
        t, b, c, a = x
        at = a * t
        return (t, b + at * t, c + at, a)

    slots = [
        Slot(1, "short", K0),
        Slot(2, "long", L0),
        Slot(3, "short", K0),
        Slot(4, "long", L0),
    ]
    exponents = {1: (2, -1), 2: (2, 0), 3: (0, 1), 4: (-2, 2)}
    return RootDatum2("C2", ctx, slots, {(1, 4): r14}, exponents, mul, inv,
                      center=(2, 3), z2=(1, 2, 3, 4))


@dataclass(frozen=True)
class UElement:
    """Normal form x1(c1) x2(c2) ... xn(cn); the coordinates are unique."""

    datum: RootDatum2
    coords: Tuple[RatFunc, ...]

    def word(self) -> List[Tuple[int, RatFunc]]:
        return [(i + 1, c) for i, c in enumerate(self.coords) if not c.is_zero()]

    def is_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UElement):
            return NotImplemented
        return self.datum is other.datum and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        w = self.word()
        if not w:
            return "1"
        return "*".join(f"x{s}({render_element(c)})" for s, c in w)


def _comm_negated(datum: RootDatum2, i: int, j: int, a: RatFunc, b: RatFunc):
    """[x_j(b), x_i(a)] for i < j, as a word; the inverse of the table value.

    Table values land in slots that commute pairwise, so inverting negates
    each coordinate.
    """
    rel = datum.relations.get((i, j))
    if rel is None:
        return []
    return [(s, -c) for s, c in rel(a, b)]


def _finish(datum: RootDatum2, word: List[Tuple[int, RatFunc]]) -> "UElement":
    coords = [datum.ctx.zero()] * datum.nslots
    for s, c in word:
        coords[s - 1] = coords[s - 1] + c
    out = UElement(datum, tuple(coords))
    for s, c in out.word():
        if not _domain_contains(datum.slot(s).domain, c):
            raise SpecError(
                f"collection produced an out-of-domain coordinate in slot {s}: "
                f"{render_element(c)} (invalid datum)"
            )
    return out


def u_mult(x: UElement, y: UElement) -> UElement:
    """Product in normal form, by the datum's closed-form group law."""
    if x.datum is not y.datum:
        raise SpecError("elements come from different data")
    return UElement(x.datum, x.datum.mul(x.coords, y.coords))


def _push(datum: RootDatum2, word: List[Tuple[int, RatFunc]], s: int, c: RatFunc):
    """word * x_s(c) with word in normal form; recursive right-to-left insertion."""
    if c.is_zero():
        return word
    if not word or word[-1][0] < s:
        return word + [(s, c)]
    t, d = word[-1]
    if t == s:
        m = d + c
        return word[:-1] + [(s, m)] if not m.is_zero() else word[:-1]
    out = _push(datum, word[:-1], s, c) + [(t, d)]
    for vs, vc in _comm_negated(datum, s, t, c, d):
        out = _push(datum, out, vs, vc)
    return out


def u_mult_alt(x: UElement, y: UElement) -> UElement:
    """Independent implementation of u_mult, for cross-checking only."""
    datum = x.datum
    if datum is not y.datum:
        raise SpecError("elements come from different data")
    word: List[Tuple[int, RatFunc]] = []
    for s, c in x.word() + y.word():
        word = _push(datum, word, s, c)
    return _finish(datum, word)


def u_inverse(x: UElement) -> UElement:
    return UElement(x.datum, x.datum.inv(x.coords))


def commutator(x: UElement, y: UElement) -> UElement:
    return u_mult(u_mult(u_inverse(x), u_inverse(y)), u_mult(x, y))


# ---------------------------------------------------------------------------
# center and second center
# ---------------------------------------------------------------------------


def _supported_on(x: UElement, slots: Tuple[int, ...]) -> bool:
    return all(c.is_zero() for s, c in enumerate(x.coords, 1) if s not in slots)


def center_member(x: UElement) -> bool:
    """Whether x lies in the center: its coordinates vanish outside `datum.center`."""
    return _supported_on(x, x.datum.center)


def z2_member(x: UElement) -> bool:
    """Whether x lies in the second center: its coordinates vanish outside `datum.z2`."""
    return _supported_on(x, x.datum.z2)


# ---------------------------------------------------------------------------
# torus action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusElement2:
    """Diagonal coordinates for the two simple roots (alpha short, beta long)."""

    s_alpha: RatFunc
    s_beta: RatFunc

    def __post_init__(self):
        if self.s_alpha.is_zero() or self.s_beta.is_zero():
            raise FieldError("torus coordinates must be nonzero")

    def factor(self, datum: RootDatum2, slot: int) -> RatFunc:
        e1, e2 = datum.exponents[slot]
        return self.s_alpha ** e1 * self.s_beta ** e2


def torus_act(h: TorusElement2, x: UElement) -> UElement:
    datum = x.datum
    coords = tuple(
        c if c.is_zero() else h.factor(datum, i + 1) * c
        for i, c in enumerate(x.coords)
    )
    return UElement(datum, coords)


def torus_normalizes(h: TorusElement2, datum: RootDatum2) -> bool:
    """Whether the slot-wise scaling stabilizes every coordinate domain."""
    return all(s.domain is None or s.domain.stable_under(h.factor(datum, s.index))
               for s in datum.slots)


# ---------------------------------------------------------------------------
# word syntax
# ---------------------------------------------------------------------------

_GEN_RE = re.compile(r"x(\d+)\(")


def parse_uword(text: str, datum: RootDatum2) -> UElement:
    """Words like "x1(t)*x6(s^3+1)", each factor a slot generator, or "1"."""
    out = datum.identity()
    pos = 0
    text = text.strip()
    if text == "1":  # the rendering of the identity
        return out
    while True:  # a factor, then the end or "*" and another factor
        m = _GEN_RE.match(text, pos)
        if not m:
            raise SpecError(f"expected xN(...) at position {pos}")
        slot = int(m.group(1))
        depth = 1
        i = m.end()
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise SpecError("unbalanced parentheses in word")
        expr = text[m.end() : i - 1]
        try:
            coord = parse_element(expr, datum.ctx)
        except ParseError as e:
            raise SpecError(f"{e.msg} at position {m.end() + e.pos}") from None
        out = u_mult(out, datum.generator(slot, coord))
        pos = i
        if pos == len(text):
            return out
        if text[pos] != "*":
            raise SpecError(f"expected '*' at position {pos}")
        pos += 1
