import random

import pytest

from imperfect.field import Context, FieldError
from imperfect.presets import Bundle
from imperfect.tower import InvariantViolation, SpecError, SubfieldSpec
from imperfect.unipotent import (
    TorusElement2,
    c2_datum,
    center_member,
    centralizes,
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
    for datum, seed in ((hex_datum(), 7), (quad_datum(), 8)):
        rng = random.Random(seed)
        for _ in range(40):
            x = rand_elem(datum, rng, spread=1)
            y = rand_elem(datum, rng, spread=1)
            g = u_mult(x, y)
            for i, c in g.word():
                d = datum.slot(i).domain
                assert d is None or d.contains(c)


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
    for datum, seed in ((hex_datum(), 9), (quad_datum(), 10)):
        rng = random.Random(seed)
        for _ in range(60):
            x = rand_elem(datum, rng, spread=1)
            center_member(x)  # raises InvariantViolation on any disagreement
            z2_member(x)


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


def test_equality_requires_same_datum():
    d1 = hex_datum()
    d2 = hex_datum()
    x1 = d1.generator(1, d1.ctx.var("s"))
    x2 = d2.generator(1, d2.ctx.var("s"))
    assert x1 != x2  # different datum objects carry different domains
