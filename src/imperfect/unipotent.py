"""Presented nilpotent groups on ordered root coordinates.

Two data ship: the hexagon presentation in characteristic 3 (six root
groups, short slots carrying full-field coordinates and long slots
carrying coordinates from a designated subfield) and the quadrangle
presentation in characteristic 2 (four root groups over an inclusion
pair K0, L0). Multiplication is generic collection against the
commutator table; nothing relies on a closed product formula. A second,
structurally different collection (right-to-left insertion) exists
purely to cross-check the first.

Torus elements act slot-wise through a fixed exponent table; the action
being an automorphism of the presentation is the oracle that pins the
table down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .field import Context, FieldError, RatFunc, parse_element, render_element
from .tower import InvariantViolation, RSpaceSpec, SpecError, SubfieldSpec

Domain = Union[None, SubfieldSpec, RSpaceSpec]


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
    kind: str  # "G2" | "C2"
    ctx: Context
    slots: List[Slot]
    relations: Dict[Tuple[int, int], Callable[[RatFunc, RatFunc], List[Tuple[int, RatFunc]]]]
    exponents: Dict[int, Tuple[int, int]]

    @property
    def nslots(self) -> int:
        return len(self.slots)

    def slot(self, i: int) -> Slot:
        return self.slots[i - 1]

    def identity(self) -> "UElement":
        return UElement(self, tuple(self.ctx.zero() for _ in self.slots))

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
    """
    if ctx.p != 3:
        raise FieldError("the hexagon datum lives in characteristic 3")

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
    return RootDatum2("G2", ctx, slots, {(1, 5): r15, (2, 6): r26, (1, 6): r16}, exponents)


def c2_datum(ctx: Context, K0: Optional[RSpaceSpec], L0: Optional[RSpaceSpec]) -> RootDatum2:
    """Quadrangle data: slots 1,3 short over K0 and 2,4 long over L0.

    The single nontrivial commutator is [x1(t), x4(a)] = x2(t^2 a) x3(t a);
    its values stay in K0/L0 exactly when (L0, K0) is an indifferent pair.
    With K0 = L0 = None every coordinate is allowed (the matrix group's datum).
    """
    if ctx.p != 2:
        raise FieldError("the quadrangle datum lives in characteristic 2")

    def r14(t, a):
        return [(2, t * t * a), (3, t * a)]

    slots = [
        Slot(1, "short", K0),
        Slot(2, "long", L0),
        Slot(3, "short", K0),
        Slot(4, "long", L0),
    ]
    exponents = {1: (2, -1), 2: (2, 0), 3: (0, 1), 4: (-2, 2)}
    return RootDatum2("C2", ctx, slots, {(1, 4): r14}, exponents)


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
    """Product in normal form by left-to-right bubble collection."""
    datum = x.datum
    if datum is not y.datum:
        raise SpecError("elements come from different data")
    w = x.word() + y.word()
    for _ in range(10000):
        changed = False
        i = 0
        while i + 1 < len(w):
            s1, c1 = w[i]
            s2, c2 = w[i + 1]
            if s1 == s2:
                m = c1 + c2
                w[i : i + 2] = [(s1, m)] if not m.is_zero() else []
                changed = True
                i = max(i - 1, 0)
                continue
            if s1 > s2:
                repl = [(s2, c2), (s1, c1)]
                repl += [g for g in _comm_negated(datum, s2, s1, c2, c1) if not g[1].is_zero()]
                w[i : i + 2] = repl
                changed = True
            i += 1
        if not changed:
            return _finish(datum, w)
    raise InvariantViolation("collection did not terminate")


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
    datum = x.datum
    word = [(s, -c) for s, c in reversed(x.word())]
    out = datum.identity()
    for s, c in word:
        out = u_mult(out, datum.generator(s, c))
    return out


def commutator(x: UElement, y: UElement) -> UElement:
    return u_mult(u_mult(u_inverse(x), u_inverse(y)), u_mult(x, y))


def centralizes(x: UElement, y: UElement) -> bool:
    return commutator(x, y).is_identity()


# ---------------------------------------------------------------------------
# center and second center
# ---------------------------------------------------------------------------


def _probe_generators(datum: RootDatum2) -> Tuple[UElement, UElement]:
    one = datum.ctx.one()
    if datum.kind == "G2":
        return datum.generator(1, one), datum.generator(6, one)
    return datum.generator(1, one), datum.generator(4, one)


def _center_coords(datum: RootDatum2, x: UElement) -> bool:
    zero_slots = (1, 2, 5, 6) if datum.kind == "G2" else (1, 4)
    return all(x.coords[s - 1].is_zero() for s in zero_slots)


def _z2_coords(datum: RootDatum2, x: UElement) -> bool:
    if datum.kind == "G2":
        return x.coords[0].is_zero() and x.coords[5].is_zero()
    return True  # the quadrangle group has class 2


def center_member(x: UElement) -> bool:
    """Coordinate test for the center, cross-checked against commutation
    with the extreme root generators."""
    datum = x.datum
    by_coords = _center_coords(datum, x)
    u_lo, u_hi = _probe_generators(datum)
    by_comm = centralizes(x, u_lo) and centralizes(x, u_hi)
    if by_coords != by_comm:
        raise InvariantViolation(
            f"center characterizations disagree on {x!r}: "
            f"coords {by_coords}, commutators {by_comm}"
        )
    return by_coords


def z2_member(x: UElement) -> bool:
    datum = x.datum
    by_coords = _z2_coords(datum, x)
    u_lo, u_hi = _probe_generators(datum)
    by_comm = _center_coords(datum, commutator(x, u_lo)) and _center_coords(
        datum, commutator(x, u_hi)
    )
    if by_coords != by_comm:
        raise InvariantViolation(
            f"second-center characterizations disagree on {x!r}: "
            f"coords {by_coords}, commutators {by_comm}"
        )
    return by_coords


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
    for slot in datum.slots:
        f = h.factor(datum, slot.index)
        d = slot.domain
        if d is None:
            continue
        if isinstance(d, SubfieldSpec):
            # a field is stabilized by f exactly when f lies in it
            if not d.contains(f):
                return False
        elif not d.stable_under(f):
            return False
    return True


# ---------------------------------------------------------------------------
# word syntax
# ---------------------------------------------------------------------------

_GEN_RE = re.compile(r"x(\d+)\(")


def parse_uword(text: str, datum: RootDatum2) -> UElement:
    """Words like "x1(t)*x6(s^3+1)"; each factor is a slot generator."""
    out = datum.identity()
    pos = 0
    text = text.strip()
    if text == "1":  # the rendering of the identity
        return out
    while pos < len(text):
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
        coord = parse_element(expr, datum.ctx)
        out = u_mult(out, datum.generator(slot, coord))
        pos = i
        if pos < len(text):
            if text[pos] != "*":
                raise SpecError(f"expected '*' at position {pos}")
            pos += 1
    return out
