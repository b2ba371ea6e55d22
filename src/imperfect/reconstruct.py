"""Recovering coordinate structure from a black-box group.

The group is wrapped behind an oracle exposing only equality,
multiplication, inversion, the identity, a few designated elements, and
membership/sampling handles for designated root subgroups. Everything
recovered here is a composition of those calls; the coordinate readings
live in a separate codec used only for verification against ground truth.

For the hexagon group (char 3) the recovered data is the full field K
together with its distinguished subfield k, with addition, the cubing
map, and multiplication as a term-decided graph. For the quadrangle
group (char 2) it is the pair (K0, L0) with addition and the twisted
product a*b = a^2 b.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

from .field import ImperfectError, RatFunc, render_element
from .tower import SpecError
from .unipotent import RootDatum2, UElement, u_inverse, u_mult


class ReconstructError(ImperfectError):
    """The oracle failed a diagnostic the theory guarantees."""


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


class OpaqueElem:
    """A group element with no visible coordinates."""

    __slots__ = ("_u",)

    def __init__(self, u: UElement):
        self._u = u

    def __repr__(self):
        return "<group element>"


@dataclass
class GroupOracle:
    """A black-box group: equality, product, inverse, designated elements, and
    membership and sampling handles for root lines.

    `eq`, `mul` and `inv` are functions: the same question always gets the same
    answer (equal answers for `mul` and `inv`). Recovery and verification rest
    on this, and ask each `mul` and `inv` question once (see `_asking`).
    """

    kind: str  # "G2" | "C2"
    eq: Callable[[OpaqueElem, OpaqueElem], bool]
    mul: Callable[[OpaqueElem, OpaqueElem], OpaqueElem]
    inv: Callable[[OpaqueElem], OpaqueElem]
    identity: OpaqueElem
    params: Dict[str, OpaqueElem]
    member: Dict[int, Callable[[OpaqueElem], bool]]
    sample: Dict[int, Callable[[random.Random], OpaqueElem]]

    def comm(self, x: OpaqueElem, y: OpaqueElem) -> OpaqueElem:
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))


@dataclass
class Codec:
    """Ground-truth correspondence; verification only, never reconstruction."""

    datum: RootDatum2

    def from_coord(self, slot: int, c: RatFunc) -> OpaqueElem:
        return OpaqueElem(self.datum.generator(slot, c))

    def line_coord(self, x: OpaqueElem, slot: int) -> Optional[RatFunc]:
        u = x._u
        for s, c in u.word():
            if s != slot:
                return None
        return u.coords[slot - 1]


def _asking(o: GroupOracle) -> GroupOracle:
    """A view of o that puts each mul and inv question to o once.

    Answers are keyed on the ids of the arguments, and the arguments are kept
    with them, so no id is reused while the view lives; the view lives for one
    recovery or one verification sample. eq, member and sample go straight to o.
    """
    answers: Dict[tuple, tuple] = {}

    def mul(x: OpaqueElem, y: OpaqueElem) -> OpaqueElem:
        key = (id(x), id(y))
        if key not in answers:
            answers[key] = (o.mul(x, y), x, y)
        return answers[key][0]

    def inv(x: OpaqueElem) -> OpaqueElem:
        key = (id(x),)
        if key not in answers:
            answers[key] = (o.inv(x), x)
        return answers[key][0]

    return dataclasses.replace(o, mul=mul, inv=inv)


def _slot_sampler(datum: RootDatum2, slot: int) -> Callable[[random.Random], OpaqueElem]:
    def draw(rng: random.Random) -> OpaqueElem:
        return OpaqueElem(datum.generator(slot, datum.rand_coord(slot, rng, 2)))

    return draw


def _slot_member(datum: RootDatum2, slot: int) -> Callable[[OpaqueElem], bool]:
    def check(x: OpaqueElem) -> bool:
        return all(s == slot for s, _ in x._u.word())

    return check


def _make_oracle(datum: RootDatum2, slots: Tuple[int, ...],
                 corruption: Optional[str]) -> Tuple[GroupOracle, Codec]:
    """The oracle with designated elements u_s = x_s(1) and handles for the slots."""
    ctx = datum.ctx

    def eq(x: OpaqueElem, y: OpaqueElem) -> bool:
        return x._u == y._u

    if corruption == "offset-mul":
        z0 = datum.generator(datum.center[-1], ctx.one())

        def mul(x: OpaqueElem, y: OpaqueElem) -> OpaqueElem:
            return OpaqueElem(u_mult(u_mult(x._u, y._u), z0))

    else:

        def mul(x: OpaqueElem, y: OpaqueElem) -> OpaqueElem:
            return OpaqueElem(u_mult(x._u, y._u))

    def inv(x: OpaqueElem) -> OpaqueElem:
        return OpaqueElem(u_inverse(x._u))

    params = {f"u{s}": OpaqueElem(datum.generator(s, ctx.one())) for s in slots}
    if corruption == "wrong-param":
        # the last designated element gets a coordinate of its domain other than 1:
        # a basis element, else a generator, else the p-th power of a variable
        slot, dom = slots[-1], datum.slot(slots[-1]).domain
        wrong = [b for b in getattr(dom, "basis", ()) if not b.is_zero() and not b.is_one()]
        wrong += [*getattr(dom, "gens", ()), ctx.gens()[0] ** ctx.p]
        params[f"u{slot}"] = OpaqueElem(datum.generator(slot, wrong[0]))
    elif corruption not in (None, "offset-mul"):
        raise SpecError(f"unknown corruption {corruption!r}")

    oracle = GroupOracle(
        kind=datum.kind,
        eq=eq,
        mul=mul,
        inv=inv,
        identity=OpaqueElem(datum.identity()),
        params=params,
        member={s: _slot_member(datum, s) for s in slots},
        sample={s: _slot_sampler(datum, s) for s in slots},
    )
    return oracle, Codec(datum)


def make_g2_oracle(datum: RootDatum2,
                   corruption: Optional[str] = None) -> Tuple[GroupOracle, Codec]:
    """(U; U1, U6, u1, u6) for a hexagon datum."""
    if datum.kind != "G2":
        raise SpecError("need a hexagon datum")
    return _make_oracle(datum, (1, 6), corruption)


def make_c2_oracle(datum: RootDatum2,
                   corruption: Optional[str] = None) -> Tuple[GroupOracle, Codec]:
    """(U; U1..U4, u1..u4) for a quadrangle datum."""
    if datum.kind != "C2":
        raise SpecError("need a quadrangle datum")
    return _make_oracle(datum, (1, 2, 3, 4), corruption)


# ---------------------------------------------------------------------------
# hexagon recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRep:
    """A coordinate represented by its tied pair of extreme-line elements."""

    e: OpaqueElem
    f: OpaqueElem


@dataclass
class G2Recovered:
    """Field pair recovered from the hexagon oracle.

    Coordinates of K ride on U1-line elements paired with their cube on
    the U6 line; k rides on equal-coordinate pairs. Addition is the group
    law componentwise; multiplication is decided through the recovered
    cubing map.
    """

    oracle: GroupOracle
    zero: PairRep
    one: PairRep

    def _c(self, x, y):
        return self.oracle.comm(x, y)

    # term maps into the center
    def xi_line(self, e: OpaqueElem) -> OpaqueElem:
        o = self.oracle
        return self._c(self._c(e, o.inv(o.params["u6"])), o.params["u6"])

    def tau_line(self, f: OpaqueElem) -> OpaqueElem:
        o = self.oracle
        return self._c(self._c(o.inv(o.params["u1"]), f), o.params["u6"])

    def j_line(self, e: OpaqueElem) -> OpaqueElem:
        o = self.oracle
        return self._c(self._c(e, o.inv(o.params["u6"])), o.params["u1"])

    def iota_line(self, f: OpaqueElem) -> OpaqueElem:
        o = self.oracle
        return self._c(self._c(o.inv(o.params["u1"]), f), o.params["u1"])

    def m2_line(self, e: OpaqueElem, f: OpaqueElem) -> OpaqueElem:
        return self._c(self._c(e, f), self.oracle.params["u6"])

    # carriers
    def is_K(self, r: PairRep) -> bool:
        o = self.oracle
        return (o.member[1](r.e) and o.member[6](r.f)
                and o.eq(self.xi_line(r.e), self.tau_line(r.f)))

    def is_k(self, r: PairRep) -> bool:
        o = self.oracle
        return (o.member[1](r.e) and o.member[6](r.f)
                and o.eq(self.j_line(r.e), self.iota_line(r.f)))

    def add(self, r1: PairRep, r2: PairRep) -> PairRep:
        o = self.oracle
        return PairRep(o.mul(r1.e, r2.e), o.mul(r1.f, r2.f))

    def product_line(self, r1: PairRep, r2: PairRep) -> OpaqueElem:
        """The center-line image of the product coordinate."""
        return self.oracle.inv(self.m2_line(r1.e, r2.f))

    def mul_test(self, r1: PairRep, r2: PairRep, r3: PairRep) -> bool:
        return self.oracle.eq(self.product_line(r1, r2), self.xi_line(r3.e))

    def k_rep_of_K(self, t: PairRep, a: PairRep) -> bool:
        """Whether the k-carrier element t names the same coordinate as the
        K-carrier element a."""
        return self.oracle.eq(self.iota_line(t.f), self.j_line(a.e))


def g2_recover(o: GroupOracle) -> G2Recovered:
    if o.kind != "G2":
        raise SpecError("need a hexagon oracle")
    for name in ("u1", "u6"):
        if name not in o.params:
            raise SpecError(f"missing designated element {name}")
    if o.eq(o.params["u1"], o.identity) or o.eq(o.params["u6"], o.identity):
        raise ReconstructError("designated elements must be nontrivial")
    if not o.member[1](o.params["u1"]) or not o.member[6](o.params["u6"]):
        raise ReconstructError("designated elements are off their lines")
    caller, o = o, _asking(o)  # the diagnostics ask each question once
    rec = G2Recovered(
        oracle=o,
        zero=PairRep(o.identity, o.identity),
        one=PairRep(o.params["u1"], o.params["u6"]),
    )
    rng = random.Random(0)
    es = [o.sample[1](rng) for _ in range(3)]
    fs = [o.sample[6](rng) for _ in range(3)]
    for term, args in (
        (rec.xi_line, es),
        (rec.j_line, es),
        (rec.tau_line, fs),
        (rec.iota_line, fs),
    ):
        for x, y in zip(args, args[1:]):
            if not o.eq(term(o.mul(x, y)), o.mul(term(x), term(y))):
                raise ReconstructError(
                    f"{term.__name__} fails additivity; the oracle is not a "
                    "hexagon group over a field pair"
                )
    for e1, e2, f1 in ((es[0], es[1], fs[0]), (es[1], es[2], fs[1])):
        if not o.eq(rec.m2_line(o.mul(e1, e2), f1),
                    o.mul(rec.m2_line(e1, f1), rec.m2_line(e2, f1))):
            raise ReconstructError("pairing fails linearity on the first slot")
    for e1, f1, f2 in ((es[0], fs[0], fs[1]), (es[1], fs[1], fs[2])):
        if not o.eq(rec.m2_line(e1, o.mul(f1, f2)),
                    o.mul(rec.m2_line(e1, f1), rec.m2_line(e1, f2))):
            raise ReconstructError("pairing fails linearity on the second slot")
    return dataclasses.replace(rec, oracle=caller)


# ---------------------------------------------------------------------------
# quadrangle recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class K0Rep:
    e: OpaqueElem
    z3: OpaqueElem
    g2: OpaqueElem
    z2: OpaqueElem


@dataclass(frozen=True)
class L0Rep:
    g: OpaqueElem
    z2: OpaqueElem


@dataclass
class C2Recovered:
    """(K0, L0, +, *) recovered from the quadrangle oracle.

    K0 coordinates ride on slot-1 elements tied to their slot-3 copy and
    their square on slots 4 and 2; L0 coordinates on slot-4 elements tied
    to their slot-2 copy. The twisted product a*b = a^2 b is decided on
    the slot-2/slot-3 lines.
    """

    oracle: GroupOracle
    one_K0: K0Rep
    one_L0: L0Rep

    def F(self, e: OpaqueElem) -> OpaqueElem:
        return self.oracle.comm(e, self.oracle.params["u4"])

    def E(self, g: OpaqueElem) -> OpaqueElem:
        return self.oracle.comm(self.oracle.params["u1"], g)

    def is_K0(self, r: K0Rep) -> bool:
        o = self.oracle
        if not (o.member[1](r.e) and o.member[3](r.z3)
                and o.member[4](r.g2) and o.member[2](r.z2)):
            return False
        v = o.mul(self.F(r.e), o.inv(r.z3))
        if not o.member[2](v) or not o.eq(v, r.z2):
            return False
        w = o.mul(self.E(r.g2), o.inv(r.z2))
        return o.member[3](w)

    def is_L0(self, r: L0Rep) -> bool:
        o = self.oracle
        if not (o.member[4](r.g) and o.member[2](r.z2)):
            return False
        return o.member[3](o.mul(self.E(r.g), o.inv(r.z2)))

    def add_K0(self, r1: K0Rep, r2: K0Rep) -> K0Rep:
        o = self.oracle
        return K0Rep(o.mul(r1.e, r2.e), o.mul(r1.z3, r2.z3),
                     o.mul(r1.g2, r2.g2), o.mul(r1.z2, r2.z2))

    def square(self, r: K0Rep) -> L0Rep:
        """t -> t^2 lands in L0; its representation is already carried."""
        return L0Rep(r.g2, r.z2)

    def i3_line(self, r: L0Rep) -> OpaqueElem:
        o = self.oracle
        return o.mul(self.E(r.g), o.inv(r.z2))

    def star_img(self, r1: K0Rep, r2: K0Rep) -> OpaqueElem:
        """Commutator whose slot-3 part carries the coordinate r1^2 * r2."""
        return self.oracle.comm(r2.e, r1.g2)

    def star_test(self, r1: K0Rep, r2: K0Rep, r3: K0Rep) -> bool:
        o = self.oracle
        return o.member[2](o.mul(self.star_img(r1, r2), o.inv(r3.z3)))

    def l0_in_k0(self, g: L0Rep, t: K0Rep) -> bool:
        """Whether the L0 element names the same coordinate as the K0 one."""
        return self.oracle.eq(self.i3_line(g), t.z3)

    def line2(self, r: L0Rep) -> OpaqueElem:
        return r.z2


def c2_recover(o: GroupOracle) -> C2Recovered:
    if o.kind != "C2":
        raise SpecError("need a quadrangle oracle")
    for name in ("u1", "u2", "u3", "u4"):
        if name not in o.params:
            raise SpecError(f"missing designated element {name}")
    for slot, name in ((1, "u1"), (2, "u2"), (3, "u3"), (4, "u4")):
        if not o.member[slot](o.params[name]):
            raise ReconstructError(f"designated element {name} is off its line")
        if o.eq(o.params[name], o.identity):
            raise ReconstructError("designated elements must be nontrivial")
    caller, o = o, _asking(o)  # the diagnostics ask each question once
    rec = C2Recovered(
        oracle=o,
        one_K0=K0Rep(o.params["u1"], o.params["u3"], o.params["u4"], o.params["u2"]),
        one_L0=L0Rep(o.params["u4"], o.params["u2"]),
    )
    rng = random.Random(0)
    es = [o.sample[1](rng) for _ in range(3)]
    gs = [o.sample[4](rng) for _ in range(3)]
    for x, y in zip(es, es[1:]):
        if not o.eq(rec.F(o.mul(x, y)), o.mul(rec.F(x), rec.F(y))):
            raise ReconstructError("slot-1 pairing fails additivity")
    for x, y in zip(gs, gs[1:]):
        if not o.eq(rec.E(o.mul(x, y)), o.mul(rec.E(x), rec.E(y))):
            raise ReconstructError("slot-4 pairing fails additivity")
    if not rec.is_K0(rec.one_K0) or not rec.is_L0(rec.one_L0):
        raise ReconstructError(
            "designated elements do not tie together as a unit coordinate; "
            "the parameters are inconsistent"
        )
    return dataclasses.replace(rec, oracle=caller)


# ---------------------------------------------------------------------------
# verification against ground truth
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    kind: str
    checks: int = 0
    mismatches: List[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def note(self, cond: bool, label: str):
        self.checks += 1
        if not cond:
            self.mismatches.append(label)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "checks": self.checks,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def _g2_krep(truth: Codec, a: RatFunc) -> PairRep:
    return PairRep(truth.from_coord(1, a), truth.from_coord(6, a ** 3))


def _g2_kkrep(truth: Codec, t: RatFunc) -> PairRep:
    return PairRep(truth.from_coord(1, t), truth.from_coord(6, t))


def _verify_g2(rec: G2Recovered, truth: Codec, first: bool, rng: random.Random,
               rep: VerifyReport):
    """One verification sample of a hexagon recovery."""
    ctx = truth.datum.ctx
    kfield = truth.datum.slot(6).domain
    a = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, denominators=False)
    b = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, denominators=False)
    t = kfield.rand_element(rng)
    ra, rb = _g2_krep(truth, a), _g2_krep(truth, b)
    rt = _g2_kkrep(truth, t)
    o = rec.oracle
    rep.note(rec.is_K(ra), f"K carrier rejects {render_element(a)}")
    rep.note(rec.is_k(rt), f"k carrier rejects {render_element(t)}")
    bad = PairRep(truth.from_coord(1, a), truth.from_coord(6, a ** 3 + ctx.one()))
    rep.note(not rec.is_K(bad), "K carrier accepts an untied pair")
    s = rec.add(ra, rb)
    want = _g2_krep(truth, a + b)
    rep.note(o.eq(s.e, want.e) and o.eq(s.f, want.f),
             f"addition wrong at {render_element(a)} + {render_element(b)}")
    rc = _g2_krep(truth, a * b)
    rep.note(rec.mul_test(ra, rb, rc),
             f"product graph rejects {render_element(a * b)}")
    wrong = _g2_krep(truth, a * b + ctx.one())
    rep.note(not rec.mul_test(ra, rb, wrong), "product graph accepts an offset")
    rep.note(o.eq(rec.xi_line(ra.e), truth.from_coord(4, a ** 3)),
             f"cubing wrong at {render_element(a)}")
    rep.note(o.eq(rec.j_line(ra.e), truth.from_coord(3, a)),
             "slot-3 identification wrong")
    rep.note(rec.k_rep_of_K(rt, _g2_krep(truth, t)),
             "subfield embedding disagrees")
    if first:
        rep.note(rec.mul_test(rec.one, rec.one, rec.one), "1*1 != 1")
        rep.note(rec.is_K(rec.zero) and rec.is_k(rec.zero), "0 not in carriers")


def _c2_k0rep(truth: Codec, t: RatFunc) -> K0Rep:
    return K0Rep(truth.from_coord(1, t), truth.from_coord(3, t),
                 truth.from_coord(4, t * t), truth.from_coord(2, t * t))


def _c2_l0rep(truth: Codec, a: RatFunc) -> L0Rep:
    return L0Rep(truth.from_coord(4, a), truth.from_coord(2, a))


def _verify_c2(rec: C2Recovered, truth: Codec, first: bool, rng: random.Random,
               rep: VerifyReport):
    """One verification sample of a quadrangle recovery."""
    ctx = truth.datum.ctx
    K0 = truth.datum.slot(1).domain
    L0 = truth.datum.slot(4).domain
    o = rec.oracle
    t = K0.rand_element(rng)
    s = K0.rand_element(rng)
    a = L0.rand_element(rng)
    rt, rs = _c2_k0rep(truth, t), _c2_k0rep(truth, s)
    ga = _c2_l0rep(truth, a)
    rep.note(rec.is_K0(rt), f"K0 carrier rejects {render_element(t)}")
    rep.note(rec.is_L0(ga), f"L0 carrier rejects {render_element(a)}")
    bad = K0Rep(rt.e, truth.from_coord(3, t + ctx.one()), rt.g2, rt.z2)
    rep.note(not rec.is_K0(bad), "K0 carrier accepts an untied tuple")
    sm = rec.add_K0(rt, rs)
    want = _c2_k0rep(truth, t + s)
    rep.note(all(o.eq(x, y) for x, y in
                 ((sm.e, want.e), (sm.z3, want.z3), (sm.g2, want.g2),
                  (sm.z2, want.z2))),
             "K0 addition wrong")
    sq = rec.square(rt)
    wantsq = _c2_l0rep(truth, t * t)
    rep.note(o.eq(sq.g, wantsq.g) and o.eq(sq.z2, wantsq.z2)
             and rec.is_L0(sq), "squaring wrong")
    rep.note(rec.star_test(rt, rs, _c2_k0rep(truth, t * t * s)),
             f"star graph rejects {render_element(t * t * s)}")
    rep.note(not rec.star_test(rt, rs, _c2_k0rep(truth, t * t * s + ctx.one())),
             "star graph accepts an offset")
    rep.note(o.eq(rec.i3_line(ga), truth.from_coord(3, a)),
             "L0 slot-3 image wrong")
    rep.note(rec.l0_in_k0(ga, _c2_k0rep(truth, a)),
             "L0 element does not witness its K0 copy")
    c2_coord = truth.line_coord(rec.line2(ga), 2)
    rep.note(c2_coord is not None and L0.member(c2_coord) is not None,
             "slot-2 line image leaves L0")
    if first:
        rep.note(rec.star_test(rec.one_K0, rt, rt), "1*b != b")


def recover(datum: RootDatum2, corruption: Optional[str] = None) -> tuple:
    """(recovered structure, codec) from the datum's oracle, corrupted as asked."""
    if datum.kind == "G2":
        oracle, codec = make_g2_oracle(datum, corruption)
        return g2_recover(oracle), codec
    oracle, codec = make_c2_oracle(datum, corruption)
    return c2_recover(oracle), codec


def negative_control(datum: RootDatum2, corruption: str, n: int = 10,
                     seed: int = 0) -> VerifyReport:
    """Recover from a corrupted oracle and report how the corruption shows.

    A corruption may surface as a recovery-time diagnostic (folded into
    the report as a mismatch) or as verification mismatches; a faithless
    oracle must never come back with an empty report.
    """
    try:
        rec, codec = recover(datum, corruption)
    except ReconstructError as e:
        return VerifyReport(datum.kind, checks=1, mismatches=[f"recovery: {e}"])
    return verify_recovery(rec, codec, n=n, seed=seed)


def verify_recovery(rec, truth: Codec, n: int = 100, seed: int = 0) -> VerifyReport:
    """Compare recovered operations against ground truth on n random draws.

    `truth` is the codec tying oracle elements to coordinates; the report
    lists every mismatch and must come back empty for a faithful oracle.
    Each draw asks each oracle question once, through its own view.
    """
    if isinstance(rec, G2Recovered):
        rep, sample = VerifyReport("G2"), _verify_g2
    elif isinstance(rec, C2Recovered):
        rep, sample = VerifyReport("C2"), _verify_c2
    else:
        raise SpecError("unknown recovered structure")
    rng = random.Random(seed)
    for i in range(n):
        sample(dataclasses.replace(rec, oracle=_asking(rec.oracle)), truth, i == 0, rng, rep)
    return rep
