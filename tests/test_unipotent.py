import random
from collections import Counter

import pytest

from imperfect import suite, unipotent
from imperfect.field import Context, FieldError
from imperfect.presets import Bundle
from imperfect.tower import SpecError, SubfieldSpec
from imperfect.unipotent import (
    TorusElement2,
    c2_datum,
    center_member,
    commutator,
    g2_datum,
    parse_uword,
    torus_act,
    torus_normalizes,
    u_inverse,
    u_mult,
    u_mult_alt,
    z2_member,
)


CTX3 = Context(3, ("s", "v"))
CTX2 = Context(2, ("t", "u"))


def hex_datum():
    return Bundle.load("g2").g2()


def quad_datum():
    return Bundle.load("indifferent-weak").c2()


def centralizes(x, y):
    return commutator(x, y).is_identity()


def rand_elem(datum, rng, spread=2):
    coords = []
    for slot in datum.slots:
        if rng.random() < 0.5:
            coords.append(datum.ctx.zero())
        elif slot.domain is None:
            coords.append(datum.ctx.rand_ratfunc(rng, max_deg=spread, max_terms=2,
                                                 denominators=False))
        else:
            coords.append(slot.domain.rand_element(rng))
    return datum.identity().__class__(datum, tuple(coords))


def test_wrong_characteristic_rejected():
    k2 = SubfieldSpec("k", (), CTX2)
    with pytest.raises(FieldError):
        g2_datum(CTX2, k2)
    with pytest.raises(FieldError):
        c2_datum(CTX3, None, None)


def test_generator_and_identity_basics():
    datum = hex_datum()
    ctx = datum.ctx
    e = datum.identity()
    assert e.is_identity()
    assert repr(e) == "1"
    x = datum.generator(1, ctx.gens()[0])
    assert not x.is_identity()
    assert repr(x) == "x1(s)"
    assert u_mult(x, e) == x
    assert u_mult(e, x) == x
    assert u_mult(x, u_inverse(x)).is_identity()


def test_domain_enforced_on_generator():
    datum = hex_datum()
    ctx = datum.ctx
    v = ctx.var("v")
    # slot 2 carries the subfield K^3[s]; v is outside it
    with pytest.raises(SpecError):
        datum.generator(2, v)
    datum.generator(2, v ** 3)
    datum.generator(1, v)  # short slots take the whole field


def test_hexagon_commutator_table():
    datum = hex_datum()
    ctx = datum.ctx
    s, v = ctx.gens()
    a, b = v, s  # a short coordinate can be anything
    t = s
    x1 = datum.generator(1, a)
    x5 = datum.generator(5, b)
    got = commutator(x1, x5)
    assert got == datum.generator(3, -(a * b))
    x2 = datum.generator(2, t)
    x6 = datum.generator(6, t)
    assert commutator(x2, x6) == datum.generator(4, t * t)
    got16 = commutator(x1, datum.generator(6, t))
    a3 = a * a * a
    want = u_mult(
        u_mult(datum.generator(2, -(t * a3)), datum.generator(3, t * a * a)),
        u_mult(datum.generator(4, t * t * a3), datum.generator(5, -(t * a))),
    )
    assert got16 == want
    # distant slots commute
    assert centralizes(datum.generator(3, a), datum.generator(5, b))
    assert centralizes(datum.generator(2, t), datum.generator(4, t))


def test_quadrangle_commutator_table():
    datum = quad_datum()
    ctx = datum.ctx
    t = ctx.var("t")
    u = ctx.var("u")
    x1 = datum.generator(1, u)  # K0 = K^2(t) + u K^2(t)
    x4 = datum.generator(4, t)
    got = commutator(x1, x4)
    want = u_mult(datum.generator(2, u * u * t), datum.generator(3, u * t))
    assert got == want
    assert centralizes(datum.generator(2, t), datum.generator(4, t))
    assert centralizes(datum.generator(1, u), datum.generator(3, u))


def test_word_normalization_orders_slots():
    datum = hex_datum()
    ctx = datum.ctx
    s = ctx.var("s")
    x6 = datum.generator(6, s)
    x1 = datum.generator(1, s)
    g = u_mult(x6, x1)
    # the normal form lists slots in increasing order
    slots = [i for i, _ in g.word()]
    assert slots == sorted(slots)
    assert g != u_mult(x1, x6)  # the group is not abelian on 1, 6


def test_associativity_random():
    for datum, seed in ((hex_datum(), 1), (quad_datum(), 2)):
        rng = random.Random(seed)
        for _ in range(60):
            x = rand_elem(datum, rng, spread=1)
            y = rand_elem(datum, rng, spread=1)
            z = rand_elem(datum, rng, spread=1)
            assert u_mult(u_mult(x, y), z) == u_mult(x, u_mult(y, z))


def test_two_collection_strategies_agree():
    for datum, seed in ((hex_datum(), 3), (quad_datum(), 4)):
        rng = random.Random(seed)
        for _ in range(40):
            x = rand_elem(datum, rng, spread=1)
            y = rand_elem(datum, rng, spread=1)
            assert u_mult(x, y) == u_mult_alt(x, y)


def test_inverse_random():
    for datum, seed in ((hex_datum(), 5), (quad_datum(), 6)):
        rng = random.Random(seed)
        for _ in range(40):
            x = rand_elem(datum, rng, spread=1)
            assert u_mult(x, u_inverse(x)).is_identity()
            assert u_mult(u_inverse(x), x).is_identity()


def test_closure_never_escapes_domains():
    proper = Bundle.load("indifferent-proper").c2()
    for datum, seed in ((hex_datum(), 7), (quad_datum(), 8), (proper, 13)):
        rng = random.Random(seed)
        for _ in range(40):
            x = rand_elem(datum, rng, spread=1)
            y = rand_elem(datum, rng, spread=1)
            for g in (u_mult(x, y), u_inverse(x)):
                for i, c in g.word():
                    d = datum.slot(i).domain
                    assert d is None or d.contains(c)


def pattern_elem(datum, rng, mask):
    """An element whose nonzero slots are the set bits of mask.

    About half the coordinates are divided by a p-th power, which keeps
    them in their domain (every domain is a space over K^p), so restricted
    and unrestricted slots alike carry denominators.
    """
    ctx = datum.ctx
    coords = []
    for i, slot in enumerate(datum.slots):
        if not mask >> i & 1:
            coords.append(ctx.zero())
            continue
        c = (slot.domain.rand_element(rng, nonzero=True) if slot.domain is not None
             else ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True,
                                   denominators=False))
        if rng.random() < 0.5:
            c = c / ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True,
                                     denominators=False) ** ctx.p
        coords.append(c)
    return datum.identity().__class__(datum, tuple(coords))


def test_closed_form_matches_collection_on_every_zero_pattern():
    full = c2_datum(CTX2, None, None)
    proper = Bundle.load("indifferent-proper").c2()
    for datum, seed in ((hex_datum(), 14), (proper, 15), (full, 16)):
        rng = random.Random(seed)
        n = datum.nslots
        fractions = 0
        for mask in range(2 ** n):
            x = pattern_elem(datum, rng, mask)
            assert [s for s, _ in x.word()] == [i + 1 for i in range(n) if mask >> i & 1]
            for y in (pattern_elem(datum, rng, rng.randrange(2 ** n)),
                      pattern_elem(datum, rng, 2 ** n - 1 - mask)):
                assert u_mult(x, y) == u_mult_alt(x, y)
                assert u_mult(y, x) == u_mult_alt(y, x)
            xinv = u_inverse(x)
            assert u_mult_alt(x, xinv).is_identity()
            assert u_mult_alt(xinv, x).is_identity()
            assert u_mult(x, xinv).is_identity() and u_mult(xinv, x).is_identity()
            fractions += any(not c.den.is_one() for c in x.coords)
        assert fractions > 2 ** n // 4


def non_closed_config():
    """K0 = span_{K^2}{1, t, u} and L0 = span_{K^2}{1, t}: t*u leaves K0."""
    return {"p": 2, "vars": ["t", "u"],
            "indifferent": {"L0": {"basis": ["1", "t"]}, "K0": {"basis": ["1", "t", "u"]}}}


def test_c2_datum_checks_closure_once():
    for name in ("indifferent-weak", "indifferent-proper"):
        spec = Bundle.load(name).cfg.indifferent
        datum = c2_datum(spec.ctx, spec.K0, spec.L0)
        assert [s.domain for s in datum.slots] == [spec.K0, spec.L0, spec.K0, spec.L0]
    spec = Bundle.load(non_closed_config()).cfg.indifferent
    with pytest.raises(SpecError, match=r"u in K0 times t in L0 is t\*u, which is not in K0"):
        c2_datum(spec.ctx, spec.K0, spec.L0)
    with pytest.raises(SpecError):
        Bundle.load(non_closed_config()).c2()
    with pytest.raises(SpecError):
        c2_datum(spec.ctx, spec.K0, None)
    # an L0 over a field bigger than K^2 is outside what the check covers
    proper = Bundle.load("indifferent-proper").cfg.indifferent
    with pytest.raises(SpecError, match="K\\^2-space"):
        c2_datum(proper.ctx, proper.K0, proper.K0)


def test_center_membership():
    datum = hex_datum()
    ctx = datum.ctx
    s = ctx.var("s")
    # slots 3 and 4 never appear as commutator arguments: Z = <x3, x4>;
    # slots 2 and 5 commute into the center: Z2 = <x2, ..., x5>
    assert center_member(datum.generator(4, s))
    assert center_member(datum.generator(3, s))
    assert not center_member(datum.generator(1, s))
    assert not center_member(datum.generator(2, s))
    assert not center_member(datum.generator(5, s))
    assert z2_member(datum.generator(2, s))
    assert z2_member(datum.generator(5, s))
    assert z2_member(u_mult(datum.generator(2, s), datum.generator(4, s)))
    assert not z2_member(datum.generator(1, s))
    assert not z2_member(datum.generator(6, s))
    assert center_member(datum.identity())


def test_center_membership_quadrangle():
    datum = quad_datum()
    ctx = datum.ctx
    t = ctx.var("t")
    assert center_member(datum.generator(3, t))
    assert center_member(datum.generator(2, t))
    assert not center_member(datum.generator(1, t))
    assert not center_member(datum.generator(4, t))
    # the quadrangle group has nilpotency class 2
    assert z2_member(datum.generator(1, t))
    assert z2_member(datum.generator(4, t))


def test_center_views_agree_on_random_elements():
    # the coordinate tests against the commutator characterizations: x is
    # central iff it commutes with both extreme root generators x_1(1) and
    # x_n(1), and lies in Z2 iff both commutators are central
    seen = Counter()
    for datum, seed in ((hex_datum(), 9), (quad_datum(), 10)):
        one = datum.ctx.one()
        probes = (datum.generator(1, one), datum.generator(datum.nslots, one))
        rng = random.Random(seed)
        for _ in range(60):
            x = rand_elem(datum, rng, spread=1)
            comms = [commutator(x, u) for u in probes]
            assert center_member(x) == all(c.is_identity() for c in comms), x
            assert z2_member(x) == all(center_member(c) for c in comms), x
            seen[datum.kind, center_member(x), z2_member(x)] += 1
    # both verdicts of each test occur (the quadrangle group has class 2)
    assert set(seen) >= {
        ("G2", True, True), ("G2", False, True), ("G2", False, False),
        ("C2", True, True), ("C2", False, True)}, seen


def rand_normalizing_torus(datum, rng):
    ctx = datum.ctx
    s_alpha = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True,
                               denominators=False)
    if datum.kind == "G2":
        # slot factors all land in K^3[s] when s_beta = s_alpha^3 * w^3
        w = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True,
                             denominators=False)
        s_beta = s_alpha ** 3 * w ** 3
    else:
        # short factors are squares; the long factor must stabilize K0
        s_beta = datum.slot(1).domain.rand_element(rng, nonzero=True)
    return TorusElement2(s_alpha, s_beta)


def test_torus_act_is_automorphism():
    for datum, seed in ((hex_datum(), 11), (quad_datum(), 12)):
        rng = random.Random(seed)
        for _ in range(30):
            h = rand_normalizing_torus(datum, rng)
            assert torus_normalizes(h, datum)
            x = rand_elem(datum, rng, spread=1)
            y = rand_elem(datum, rng, spread=1)
            gx = torus_act(h, x)
            gy = torus_act(h, y)
            assert u_mult(gx, gy) == torus_act(h, u_mult(x, y))
            assert torus_act(h, u_inverse(x)) == u_inverse(gx)


def test_torus_act_scales_by_exponents():
    datum = hex_datum()
    ctx = datum.ctx
    s, v = ctx.gens()
    h = TorusElement2(s, ctx.one())
    # slot 1 carries weight (2, -1) in the (alpha, beta) coordinates
    x = datum.generator(1, v)
    assert torus_act(h, x) == datum.generator(1, s * s * v)
    y = datum.generator(6, s ** 3)
    assert torus_act(h, y) == datum.generator(6, s ** -3 * s ** 3)


def test_torus_normalizes_examples():
    datum = Bundle.load("indifferent-proper").c2()
    ctx = datum.ctx
    t, u, v = ctx.gens()
    one = ctx.one()
    assert torus_normalizes(TorusElement2(one, one), datum)
    # squares act by K^2-scalars on every slot
    assert torus_normalizes(TorusElement2(t * t, t * t), datum)
    # the short coordinate only ever enters through its square
    assert torus_normalizes(TorusElement2(v, one), datum)
    # a long coordinate outside K0 = K^2(t) + uK^2(t) moves slot 3 out
    assert not torus_normalizes(TorusElement2(one, v), datum)
    assert not torus_normalizes(TorusElement2(one, one + v), datum)


def test_torus_normalizes_g2_subfield_slots():
    datum = hex_datum()
    ctx = datum.ctx
    s, v = ctx.gens()
    one = ctx.one()
    # slot 2 factor is s_alpha^3 / s_beta, which must stay in K^3[s]
    assert torus_normalizes(TorusElement2(s, s ** 3), datum)
    # cubes land in K^3 regardless of the variable
    assert torus_normalizes(TorusElement2(v, one), datum)
    assert not torus_normalizes(TorusElement2(one, v), datum)
    assert not torus_normalizes(TorusElement2(one, s + v), datum)


def test_parse_uword_roundtrip():
    datum = hex_datum()
    parsed = parse_uword("x1(s)*x6(s^3)", datum)
    want = u_mult(datum.generator(1, datum.ctx.var("s")),
                  datum.generator(6, datum.ctx.var("s") ** 3))
    assert parsed == want
    assert parse_uword("1", datum).is_identity()
    assert parse_uword(repr(parsed), datum) == parsed
    with pytest.raises((SpecError, ValueError)):
        parse_uword("x7(s)", datum)
    with pytest.raises((SpecError, ValueError)):
        parse_uword("x1(s", datum)
    # a trailing or doubled '*' and the empty word are not words
    for text, pos in (("x1(s)*", 6), ("x1(s)**x6(s^3)", 6), ("", 0), ("  ", 0)):
        with pytest.raises(SpecError, match=rf"expected xN\(\.\.\.\) at position {pos}$"):
            parse_uword(text, datum)


def test_equality_requires_same_datum():
    d1 = hex_datum()
    d2 = hex_datum()
    x1 = d1.generator(1, d1.ctx.var("s"))
    x2 = d2.generator(1, d2.ctx.var("s"))
    assert x1 != x2  # different datum objects carry different domains


def test_the_suite_collects_through_every_relation(monkeypatch):
    # the suite's u_mult / u_mult_alt comparison checks the closed-form laws
    # against the commutator table only where collection uses the table
    fired = set()
    real = unipotent._comm_negated

    def counting(datum, i, j, a, b):
        if (i, j) in datum.relations:
            fired.add((datum.kind, i, j))
        return real(datum, i, j, a, b)

    monkeypatch.setattr(unipotent, "_comm_negated", counting)
    cfg = suite.SuiteConfig(seed=0)
    assert suite.run_suite(cfg).ok
    inst = suite._instances(cfg)
    assert fired == {(d.kind, i, j) for d in (inst["g2"], inst["c2"]) for i, j in d.relations}


def test_every_relation_fires_at_every_suite_seed(monkeypatch):
    # _rand_uword draws a zero coordinate again, so a slot it picks is
    # present and each relation between two picked slots fires in collection
    counts = Counter()
    real = unipotent._comm_negated

    def counting(datum, i, j, a, b):
        if (i, j) in datum.relations:
            counts[seed, datum.kind, i, j] += 1
        return real(datum, i, j, a, b)

    monkeypatch.setattr(unipotent, "_comm_negated", counting)
    cfg = suite.SuiteConfig()
    inst = suite._instances(cfg)
    relations = [(d.kind, i, j) for d in (inst["g2"], inst["c2"]) for i, j in d.relations]
    for seed in range(12):
        rng = random.Random(suite._check_seed(seed, "unipotent.associativity"))
        suite._chk_unipotent_assoc(cfg, rng, inst)
    missing = [(seed, *r) for seed in range(12) for r in relations if not counts[(seed, *r)]]
    assert not missing, missing
