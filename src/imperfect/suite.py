"""Seeded property suite across every module, with replayable reports.

Each check draws its own generator from the master seed and the check
name, so runs are independent of execution order and identical
invocations produce byte-identical reports. Failures carry rendered
inputs that reproduce the problem through the CLI or a REPL.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional

from . import pbasis
from .field import (Context, ImperfectError, frobenius, parse_element, pth_root,
                    render_element)
from .presets import Bundle
from .rank1 import (bruhat2, factor_codim1, field_structure, gen, mult_bruhat,
                    perfectness_witness, rand_L_element, rand_L_word,
                    torus_membership)
from .reconstruct import negative_control, recover, verify_recovery
from .sp4 import (SLOT_ROOT, Sp4Root, chevalley_gen, identity4, perfectness_witness_sp4,
                  slot_domain, sp4_bruhat, torus_matrix, weyl_rep)
from .tower import validate_indifferent, validate_tower
from .unipotent import (TorusElement2, center_member, commutator, torus_act, u_inverse,
                        u_mult, u_mult_alt, z2_member)


@dataclass
class SuiteConfig:
    seed: int = 0
    samples: int = 30
    bound: int = 4
    config: Optional[str] = None  # preset name or JSON path for the instances

    def to_dict(self) -> dict:
        return {"seed": self.seed, "samples": self.samples, "bound": self.bound,
                "config": self.config}


@dataclass
class SuiteCheck:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    detail: str = ""
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


@dataclass
class Report:
    config: dict
    checks: List[SuiteCheck] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def unknowns(self) -> List[str]:
        return [c.name for c in self.checks if c.status == "unknown"]

    def to_dict(self) -> dict:
        counts: Dict[str, int] = {"pass": 0, "fail": 0, "unknown": 0}
        for c in self.checks:
            counts[c.status] += 1
        return {
            "config": self.config,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "counts": counts,
            "ok": self.ok,
        }


def _check_seed(master: int, name: str) -> int:
    h = hashlib.blake2b(f"{master}:{name}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class _Fail(Exception):
    def __init__(self, detail: str, counterexample: Optional[dict] = None):
        super().__init__(detail)
        self.detail = detail
        self.counterexample = counterexample


class _Unknown(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


# ---------------------------------------------------------------------------
# the checks; each takes (cfg, rng, instances) and raises _Fail/_Unknown
# ---------------------------------------------------------------------------


def _rand(ctx: Context, rng: random.Random, **kw) -> "RatFunc":
    return ctx.rand_ratfunc(rng, **kw)


def _chk_field_roundtrip(cfg, rng, inst):
    ctx = Context(2, ("t", "u", "v"))
    ctx3 = Context(3, ("s", "v"))
    for c in (ctx, ctx3):
        for _ in range(cfg.samples):
            x = _rand(c, rng)
            back = parse_element(render_element(x), c)
            if back != x:
                raise _Fail("parse(render(x)) != x",
                            {"p": c.p, "element": render_element(x)})


def _chk_field_pth_root(cfg, rng, inst):
    for p, names in ((2, ("t", "u")), (3, ("s", "v"))):
        c = Context(p, names)
        for _ in range(cfg.samples):
            x = _rand(c, rng)
            r = pth_root(frobenius(x))
            if r is None or r != x:
                raise _Fail("pth_root(x^p) != x",
                            {"p": p, "element": render_element(x)})
        g = c.gens()[0]
        if pth_root(g) is not None:
            raise _Fail("a generator reported a p-th root", {"p": p})


def _chk_pbasis_roundtrip(cfg, rng, inst):
    ctx = Context(2, ("t", "u", "v"))
    basis = pbasis.PBasis(ctx.gens(), ctx)
    for _ in range(max(6, cfg.samples // 3)):
        x = _rand(ctx, rng, max_deg=1, max_terms=2)
        coords = basis.coords(x)
        if not coords.defined:
            raise _Fail("coordinates undefined on a full variable tuple",
                        {"element": render_element(x)})
        back = basis.combine(list(coords))
        if back != x:
            raise _Fail("reconstruct(lambda(x)) != x",
                        {"element": render_element(x)})


def _chk_pbasis_independence(cfg, rng, inst):
    ctx = Context(2, ("t", "u"))
    t, u = ctx.gens()
    if not pbasis.is_p_independent([t, u], (), ctx):
        raise _Fail("{t, u} called dependent")
    if pbasis.is_p_independent([t, u, t * u], (), ctx):
        raise _Fail("{t, u, tu} called independent")
    if pbasis.is_p_independent([t * t], (), ctx):
        raise _Fail("{t^2} called independent over K^2")
    if not pbasis.is_p_independent([u], (t,), ctx):
        raise _Fail("{u} called dependent over K^2(t)")


def _chk_tower_validate(cfg, rng, inst):
    for name, bundle in inst["towers"]:
        rep = validate_tower(bundle.cfg.tower)
        bad = rep.failed()
        if bad:
            raise _Fail(f"{name}: {bad[0].name}: {bad[0].detail}",
                        {"config": name, "check": bad[0].name})


def _chk_tower_negative(cfg, rng, inst):
    bundle = Bundle.load("tower-bad")
    rep = validate_tower(bundle.cfg.tower)
    if rep.ok:
        raise _Fail("the stabilizer-too-big example validated")


def _chk_indifferent(cfg, rng, inst):
    for name, bundle in inst["indifferents"]:
        rep = validate_indifferent(bundle.cfg.indifferent)
        bad = rep.failed()
        if bad:
            raise _Fail(f"{name}: {bad[0].name}: {bad[0].detail}",
                        {"config": name, "check": bad[0].name})


def _chk_rank1_roundtrip(cfg, rng, inst):
    data = inst["timmesfeld"].timmesfeld()
    ctx = data.L.ctx
    for _ in range(cfg.samples):
        g = rand_L_word(data, rng, length=5)
        form = bruhat2(g)
        if form.to_matrix(ctx) != g:
            raise _Fail("normal form does not reassemble",
                        {"matrix": [render_element(x) for x in (g.a, g.b, g.c, g.d)]})


def _chk_rank1_mult(cfg, rng, inst):
    data = inst["timmesfeld"].timmesfeld()
    ctx = data.L.ctx
    st = field_structure(ctx)
    for _ in range(cfg.samples):
        g1 = rand_L_word(data, rng, length=3)
        g2 = rand_L_word(data, rng, length=3)
        lhs = mult_bruhat(bruhat2(g1), bruhat2(g2), st)
        if lhs.to_matrix(ctx) != g1 * g2:
            raise _Fail("normal-form product disagrees with matrix product",
                        {"g1": [render_element(x) for x in (g1.a, g1.b, g1.c, g1.d)],
                         "g2": [render_element(x) for x in (g2.a, g2.b, g2.c, g2.d)]})


def _chk_rank1_torus(cfg, rng, inst):
    data = inst["timmesfeld"].timmesfeld()
    ctx = data.L.ctx
    unknowns = 0
    b = data.L.basis
    hard = [(b[0] + b[1]) * (b[0] + b[2])] if len(b) >= 3 else []
    for i in range(max(10, cfg.samples // 2)):
        if i < len(hard):
            tau = hard[i]
        else:
            tau = rand_L_element(data, rng) * rand_L_element(data, rng)
        m = torus_membership(tau, data, bound=cfg.bound)
        if m.verdict == "no":
            raise _Fail("a product of two line elements was rejected",
                        {"tau": render_element(tau)})
        if m.verdict == "unknown":
            unknowns += 1
            continue
        if m.witness.product(ctx) != tau:
            raise _Fail("witness product mismatch", {"tau": render_element(tau)})
        if data.has_codim1:
            f1, f2 = factor_codim1(tau, data)
            if f1 * f2 != tau:
                raise _Fail("codim-1 factors do not multiply back",
                            {"tau": render_element(tau)})
    if unknowns:
        raise _Unknown(f"{unknowns} torus searches exhausted the bound undecided")


def _chk_rank1_witness(cfg, rng, inst):
    data = inst["timmesfeld"].timmesfeld()
    ctx = data.L.ctx
    for _ in range(cfg.samples):
        s = rand_L_element(data, rng)
        tau = rand_L_element(data, rng)
        if (tau * tau).is_one():
            continue
        sprime = perfectness_witness(s, tau)
        h = gen("h", tau, ctx)
        a1 = gen("a", sprime, ctx)
        if h.inverse() * a1.inverse() * h * a1 != gen("a", s, ctx):
            raise _Fail("witness identity failed",
                        {"s": render_element(s), "tau": render_element(tau)})


def _rand_uword(datum, rng, max_terms, slots=None):
    """A random normal form: each slot of `slots`, or by default each slot with
    chance 1/2, gets a nonzero coordinate from its domain. A zero draw is drawn
    again, so that every slot chosen is present and every relation between two
    chosen slots fires in collection."""
    x = datum.identity()
    for slot in range(1, datum.nslots + 1):
        if (rng.random() >= 0.5) if slots is None else (slot in slots):
            c = datum.rand_coord(slot, rng, max_terms)
            while c.is_zero():
                c = datum.rand_coord(slot, rng, max_terms)
            x = u_mult(x, datum.generator(slot, c))
    return x


def _chk_unipotent_assoc(cfg, rng, inst):
    # whole normal forms, so that collecting x * y and y * x in u_mult_alt
    # commutes generators past each other and so meets every relation
    for key in ("g2", "c2"):
        datum = inst[key]
        n = max(8, cfg.samples // 3)
        for _ in range(n):
            x, y, z = (_rand_uword(datum, rng, 2) for _ in range(3))
            if u_mult(u_mult(x, y), z) != u_mult(x, u_mult(y, z)):
                raise _Fail(f"{key}: associativity broke",
                            {"x": repr(x), "y": repr(y), "z": repr(z)})
            for a, b in ((x, y), (y, x)):
                if u_mult(a, b) != u_mult_alt(a, b):
                    raise _Fail(f"{key}: the two multiplication algorithms disagree",
                                {"x": repr(a), "y": repr(b)})
            if not u_mult(x, u_inverse(x)).is_identity():
                raise _Fail(f"{key}: inverse failed", {"x": repr(x)})


def _probe_generators(datum):
    """The extreme root generators x_1(1) and x_n(1): x lies in Z(U) exactly
    when it commutes with both, and in Z2(U) exactly when both commutators
    lie in Z(U)."""
    one = datum.ctx.one()
    return datum.generator(1, one), datum.generator(datum.nslots, one)


def _chk_unipotent_center(cfg, rng, inst):
    # the coordinate tests against the commutator characterizations
    for key in ("g2", "c2"):
        datum = inst[key]
        probes = _probe_generators(datum)
        for _ in range(max(10, cfg.samples // 2)):
            x = _rand_uword(datum, rng, 1)
            comms = [commutator(x, u) for u in probes]
            for name, by_coords, by_comm in (
                    ("center", center_member(x), all(c.is_identity() for c in comms)),
                    ("second center", z2_member(x), all(center_member(c) for c in comms))):
                if by_coords != by_comm:
                    raise _Fail(f"{key}: {name} characterizations disagree: "
                                f"coordinates {by_coords}, commutators {by_comm}",
                                {"x": repr(x)})


def _chk_unipotent_torus(cfg, rng, inst):
    for key in ("g2", "c2"):
        datum = inst[key]
        ctx = datum.ctx
        h = TorusElement2(ctx.gens()[0], ctx.one())
        for _ in range(max(8, cfg.samples // 4)):
            slots = [s for s in range(1, datum.nslots + 1) if rng.random() < 0.6]
            x, y = (_rand_uword(datum, rng, 1, slots) for _ in range(2))
            if torus_act(h, u_mult(x, y)) != u_mult(torus_act(h, x), torus_act(h, y)):
                raise _Fail(f"{key}: torus action is not multiplicative",
                            {"x": repr(x), "y": repr(y)})


def _chk_sp4_bruhat(cfg, rng, inst):
    group = inst["sp4"]
    spec = group.spec
    ctx = spec.ctx
    n = max(10, cfg.samples // 2)
    for _ in range(n):
        g = weyl_rep(rng.choice(("e", "a", "b", "ab", "ba", "aba", "bab", "abab")), ctx)
        for _ in range(3):
            slot = rng.randrange(1, 5)
            c = slot_domain(spec, slot).rand_element(rng)
            g = g * chevalley_gen(Sp4Root(SLOT_ROOT[slot]), c)
        br = sp4_bruhat(g)
        if br.to_matrix() != g:
            raise _Fail("cell decomposition does not reassemble",
                        {"rows": [[render_element(e) for e in row] for row in g.rows]})


def _chk_sp4_membership(cfg, rng, inst):
    group = inst["sp4"]
    spec = group.spec
    ctx = spec.ctx
    for _ in range(max(6, cfg.samples // 5)):
        g = identity4(ctx)
        for _ in range(6):
            slot = rng.randrange(1, 5)
            c = slot_domain(spec, slot).rand_element(rng)
            g = g * chevalley_gen(Sp4Root(SLOT_ROOT[slot]), c)
        m = group.membership(g, bound=cfg.bound)
        if m.verdict != "yes":
            raise _Fail("in-domain product not recognized",
                        {"rows": [[render_element(e) for e in row] for row in g.rows]})
    out = spec.ctx.gens()[-1]
    if spec.K0.contains(out):
        return
    m = group.membership(chevalley_gen(Sp4Root("alpha"), out), bound=cfg.bound)
    if m.verdict != "no":
        raise _Fail("out-of-domain short generator not rejected",
                    {"coordinate": render_element(out)})


def _chk_sp4_witness(cfg, rng, inst):
    group = inst["sp4"]
    spec = group.spec
    for _ in range(max(8, cfg.samples // 4)):
        slot = rng.randrange(1, 5)
        s = slot_domain(spec, slot).rand_element(rng, nonzero=True)
        (sa, sb), sprime = perfectness_witness_sp4(slot, s, spec)
        h = torus_matrix(sa, sb)
        a1 = chevalley_gen(Sp4Root(SLOT_ROOT[slot]), sprime)
        if h.inverse() * a1.inverse() * h * a1 != chevalley_gen(Sp4Root(SLOT_ROOT[slot]), s):
            raise _Fail("witness identity failed",
                        {"slot": slot, "s": render_element(s)})


def _chk_reconstruct(key, cfg, rng, inst):
    rep = verify_recovery(*recover(inst[key]), n=max(6, cfg.samples // 4),
                          seed=rng.randrange(2 ** 32))
    if not rep.ok:
        raise _Fail(f"{len(rep.mismatches)} mismatches",
                    {"first": rep.mismatches[0]})


def _chk_reconstruct_negative(cfg, rng, inst):
    for key, corruption in (("g2", "wrong-param"), ("g2", "offset-mul"),
                            ("c2", "wrong-param"), ("c2", "offset-mul")):
        rep = negative_control(inst[key], corruption, n=5, seed=3)
        if rep.ok:
            raise _Fail(f"{key} {corruption}: corruption went unnoticed")


_CHECKS: Dict[str, Callable] = {
    "field.parse-roundtrip": _chk_field_roundtrip,
    "field.pth-root": _chk_field_pth_root,
    "pbasis.coords-roundtrip": _chk_pbasis_roundtrip,
    "pbasis.independence": _chk_pbasis_independence,
    "tower.validate": _chk_tower_validate,
    "tower.negative-control": _chk_tower_negative,
    "indifferent.validate": _chk_indifferent,
    "rank1.bruhat-roundtrip": _chk_rank1_roundtrip,
    "rank1.mult-agrees": _chk_rank1_mult,
    "rank1.torus-membership": _chk_rank1_torus,
    "rank1.witness": _chk_rank1_witness,
    "unipotent.associativity": _chk_unipotent_assoc,
    "unipotent.center": _chk_unipotent_center,
    "unipotent.torus-action": _chk_unipotent_torus,
    "sp4.bruhat-roundtrip": _chk_sp4_bruhat,
    "sp4.membership": _chk_sp4_membership,
    "sp4.witness": _chk_sp4_witness,
    "reconstruct.g2": functools.partial(_chk_reconstruct, "g2"),
    "reconstruct.c2": functools.partial(_chk_reconstruct, "c2"),
    "reconstruct.negative-control": _chk_reconstruct_negative,
}


def _instances(cfg: SuiteConfig) -> dict:
    towers = [(n, Bundle.load(n)) for n in ("tower-simple", "tower-over-k1")]
    indifferents = [(n, Bundle.load(n)) for n in ("indifferent-weak", "indifferent-proper")]
    timmesfeld = Bundle.load("timmesfeld-codim1")
    g2b = Bundle.load("g2")
    sp4b = Bundle.load("indifferent-proper")
    if cfg.config is not None:
        user = Bundle.load(cfg.config)
        if user.cfg.tower is not None:
            towers = [(str(cfg.config), user)]
        if user.cfg.indifferent is not None:
            indifferents = [(str(cfg.config), user)]
            sp4b = user
        if user.cfg.timmesfeld is not None:
            timmesfeld = user
        if user.cfg.g2 is not None:
            g2b = user
    inst = {
        "towers": towers,
        "indifferents": indifferents,
        "timmesfeld": timmesfeld,
        "g2": g2b.g2(),
        "c2": indifferents[0][1].c2(),
        "sp4": sp4b.sp4(),
    }
    return inst


def run_suite(cfg: SuiteConfig) -> Report:
    inst = _instances(cfg)
    report = Report(config=cfg.to_dict())
    for name in sorted(_CHECKS):
        rng = random.Random(_check_seed(cfg.seed, name))
        try:
            _CHECKS[name](cfg, rng, inst)
        except _Fail as f:
            report.checks.append(SuiteCheck(name, "fail", f.detail, f.counterexample))
        except _Unknown as u:
            report.checks.append(SuiteCheck(name, "unknown", u.detail))
        except (ImperfectError, AssertionError) as e:
            report.checks.append(SuiteCheck(name, "fail", f"unexpected error: {e}"))
        else:
            report.checks.append(SuiteCheck(name, "pass"))
    return report
