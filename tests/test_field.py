import random

import pytest
from hypothesis import given, settings, strategies as st

from imperfect.field import (
    MAX_POWER_DEGREE,
    Context,
    FieldError,
    ParseError,
    RatFunc,
    frobenius,
    parse_element,
    poly_gcd,
    pth_root,
    render_element,
)


CTX2 = Context(2, ("t", "u"))
CTX3 = Context(3, ("s", "v"))
CTX5 = Context(5, ("x",))


def rand_elems(ctx, seed, count, **kw):
    rng = random.Random(seed)
    return [ctx.rand_ratfunc(rng, **kw) for _ in range(count)]


def test_context_validation():
    with pytest.raises(FieldError):
        Context(4, ("t",))
    with pytest.raises(FieldError):
        Context(7, ("t",))
    with pytest.raises(FieldError):
        Context(2, ())
    with pytest.raises(FieldError):
        Context(2, ("t", "u", "v", "w"))
    with pytest.raises(FieldError):
        Context(2, ("t", "t"))
    with pytest.raises(FieldError):
        Context(2, ("tt",))


def test_constants_and_generators():
    assert CTX2.zero().is_zero()
    assert CTX2.one().is_one()
    assert CTX2.scalar(3) == CTX2.one()  # 3 = 1 mod 2
    assert CTX3.scalar(3).is_zero()
    t, u = CTX2.gens()
    assert render_element(t) == "t"
    assert render_element(u) == "u"
    assert CTX2.var("u") == u
    with pytest.raises(FieldError):
        CTX2.var("z")


def test_mixed_context_arithmetic_rejected():
    t = CTX2.var("t")
    s = CTX3.var("s")
    with pytest.raises(FieldError):
        t + s


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]))
def test_field_axioms(seed, p):
    ctx = {2: CTX2, 3: CTX3, 5: CTX5}[p]
    rng = random.Random(seed)
    a = ctx.rand_ratfunc(rng)
    b = ctx.rand_ratfunc(rng)
    c = ctx.rand_ratfunc(rng)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero() == a
    assert a * ctx.one() == a
    assert a - a == ctx.zero()
    if not a.is_zero():
        assert a * a.inverse() == ctx.one()
        assert a / a == ctx.one()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_char_p_identities(seed):
    rng = random.Random(seed)
    for ctx in (CTX2, CTX3):
        a = ctx.rand_ratfunc(rng)
        b = ctx.rand_ratfunc(rng)
        # freshman's dream
        assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p
        assert frobenius(a) == a ** ctx.p
        total = ctx.zero()
        for _ in range(ctx.p):
            total = total + a
        assert total.is_zero()


def test_pow_negative_and_zero():
    t = CTX2.var("t")
    assert (t ** 0).is_one()
    assert t ** -1 == t.inverse()
    assert t ** -2 == (t * t).inverse()
    with pytest.raises(FieldError):
        CTX2.zero() ** -1
    with pytest.raises(FieldError):
        CTX2.zero().inverse()
    with pytest.raises(FieldError):
        t / CTX2.zero()


def test_normalization_cancels_common_factors():
    t, u = CTX2.gens()
    a = (t * t + u * u) / (t + u)  # (t+u)^2/(t+u)
    assert a == t + u
    assert ((t + u) - (u + t)).is_zero()
    assert (t / t).is_one()
    # equality through a detour with denominators
    b = (t + u).inverse()
    assert (b * t + b * u).is_one()


def test_frobenius_and_pth_root_inverse():
    for ctx, seed in ((CTX2, 11), (CTX3, 12), (CTX5, 13)):
        for a in rand_elems(ctx, seed, 25):
            assert pth_root(frobenius(a)) == a
    # generators have no p-th root
    assert pth_root(CTX2.var("t")) is None
    assert pth_root(CTX3.var("s") + CTX3.one()) is None
    assert pth_root(CTX2.zero()) == CTX2.zero()
    assert pth_root(CTX2.one()) == CTX2.one()


def test_pth_root_with_denominator():
    t, u = CTX2.gens()
    a = (t * t) / (u * u + CTX2.one())
    r = pth_root(a)
    assert r is not None
    assert frobenius(r) == a


def test_render_parse_roundtrip_random():
    for ctx, seed in ((CTX2, 5), (CTX3, 6), (CTX5, 7)):
        for a in rand_elems(ctx, seed, 40):
            s = render_element(a)
            assert parse_element(s, ctx) == a
            # rendering is canonical: a second pass is byte-identical
            assert render_element(parse_element(s, ctx)) == s


def test_parse_examples():
    t, u = CTX2.gens()
    assert parse_element("t^2+u", CTX2) == t * t + u
    assert parse_element("t/(t)", CTX2).is_one()
    assert parse_element("(1+t)*(1+u)", CTX2) == (CTX2.one() + t) * (CTX2.one() + u)
    assert parse_element("0", CTX2).is_zero()
    assert parse_element("7", CTX5) == CTX5.scalar(2)
    s = CTX3.var("s")
    assert parse_element("-s", CTX3) == -s
    assert parse_element("2*s^3", CTX3) == CTX3.scalar(2) * s ** 3


def test_parse_three_var_with_division():
    ctx = Context(2, ("t", "u", "v"))
    t, u, v = ctx.gens()
    assert parse_element("(1+t)/(u*v)", ctx) == (ctx.one() + t) / (u * v)


def test_parse_errors_carry_position():
    for bad in ("", "t+", "(t", "t^", "z", "t^-1", "1//t", "t u"):
        with pytest.raises(ParseError):
            parse_element(bad, CTX2)
    with pytest.raises(ParseError):
        parse_element("1/0", CTX2)
    try:
        parse_element("t+%", CTX2)
    except ParseError as e:
        assert e.pos == 2


def test_parse_rejects_powers_over_the_degree_budget():
    t = CTX2.var("t")
    assert parse_element(f"t^{MAX_POWER_DEGREE}", CTX2) == t ** MAX_POWER_DEGREE
    assert parse_element(f"(t+u)^{MAX_POWER_DEGREE // 2}", CTX2).num.total_degree() == 128
    assert parse_element("3^100000", CTX5) == CTX5.scalar(pow(3, 100000, 5))
    for bad, pos in ((f"t^{MAX_POWER_DEGREE + 1}", 2), ("(t+u+1)^2000/(t^2000+u+1)", 8),
                     ("(1/t^2)^200", 8)):
        with pytest.raises(ParseError, match="exceeds the limit") as e:
            parse_element(bad, CTX2)
        assert e.value.pos == pos


def test_parse_rejects_numbers_over_the_digit_limit():
    # Python refuses int() on more than 4300 digits; the parser says where
    assert parse_element("1" * 4300, CTX5) == CTX5.scalar(int("1" * 4300) % 5)
    for bad, pos in (("9" * 5000 + "*t", 0), ("t+" + "1" * 5000, 2), ("t^" + "9" * 5000, 2)):
        with pytest.raises(ParseError, match="number too long") as e:
            parse_element(bad, CTX2)
        assert e.value.pos == pos
    # only ASCII digits start a number
    with pytest.raises(ParseError, match="unexpected character") as e:
        parse_element("t^\u00b2", CTX2)
    assert e.value.pos == 2


def test_package_errors_share_one_base():
    from imperfect import ImperfectError, InvariantViolation, ReconstructError, SpecError

    for err, builtin in ((FieldError, ArithmeticError), (ParseError, ValueError),
                         (SpecError, ValueError), (InvariantViolation, AssertionError),
                         (ReconstructError, Exception)):
        assert issubclass(err, ImperfectError) and issubclass(err, builtin)


def test_division_by_zero_detected_through_parse():
    with pytest.raises(ParseError):
        parse_element("1/(t+t)", CTX2)


def test_repr_mentions_field():
    assert "GF(2)" in repr(CTX2) or "F_2" in repr(CTX2) or "2" in repr(CTX2)


def test_rand_ratfunc_respects_flags():
    rng = random.Random(0)
    for _ in range(30):
        a = CTX2.rand_ratfunc(rng, nonzero=True)
        assert not a.is_zero()
        b = CTX2.rand_ratfunc(rng, denominators=False)
        assert b.is_poly()


# ---------------------------------------------------------------------------
# cross-cancelling arithmetic against one full reduction of the cross products
# ---------------------------------------------------------------------------

CONTEXTS = [Context(p, ("t", "u", "v")[:n]) for p in (2, 3, 5) for n in (1, 2, 3)]

# the reference: build the unreduced cross products and reduce them once
REFERENCE = {
    "+": lambda x, y: RatFunc(x.ctx, x.num * y.den + y.num * x.den, x.den * y.den),
    "-": lambda x, y: RatFunc(x.ctx, x.num * y.den - y.num * x.den, x.den * y.den),
    "*": lambda x, y: RatFunc(x.ctx, x.num * y.num, x.den * y.den),
    "/": lambda x, y: RatFunc(x.ctx, x.num * y.den, x.den * y.num),
}
FAST = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def assert_canonical(x):
    assert x.den.leading()[1] == 1
    if x.num.is_zero():
        assert x.den.is_one()
    else:
        assert poly_gcd(x.num, x.den).is_one()


def assert_ops_agree(x, y):
    for op, ref in REFERENCE.items():
        if op == "/" and y.is_zero():
            continue
        got = FAST[op](x, y)
        assert_canonical(got)
        assert got == ref(x, y), (op, x, y)
    if not x.is_zero():
        inv = x.inverse()
        assert_canonical(inv)
        assert inv == RatFunc(x.ctx, x.den, x.num)


def nonconstant_poly(ctx, rng):
    while True:
        f = ctx.rand_poly(rng, max_deg=1, max_terms=2)
        if not f.is_constant():
            return f


def with_factor(ctx, rng, f):
    """A reduced element whose denominator is a multiple of f."""
    while True:
        num = ctx.rand_poly(rng, max_deg=2, max_terms=2)
        x = RatFunc(ctx, num, f * nonconstant_poly(ctx, rng))
        if poly_gcd(x.den, f).total_degree() == f.total_degree():
            return x


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_fraction_arithmetic_matches_full_reduction(ctx):
    rng = random.Random(ctx.p * 10 + ctx.n)
    for _ in range(25):
        x = ctx.rand_ratfunc(rng)
        y = ctx.rand_ratfunc(rng)
        assert_ops_agree(x, y)
        assert_ops_agree(y, x)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_fraction_arithmetic_with_shared_denominator_factors(ctx):
    rng = random.Random(100 + ctx.p * 10 + ctx.n)
    cancelled = 0
    for _ in range(10):
        f = nonconstant_poly(ctx, rng)
        x = with_factor(ctx, rng, f)
        y = with_factor(ctx, rng, f)
        z = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2)
        assert not poly_gcd(x.den, y.den).is_one()
        assert_ops_agree(x, y)
        # x + (z - x) = z: the denominators share factors and the sum
        # cancels part of them again (the gcd(t, g) != 1 case)
        w = z - x
        cancelled += (x + w).den.total_degree() < w.den.total_degree()
        assert_ops_agree(x, w)
        assert x + w == z
    assert cancelled >= 5


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_sums_that_cancel_to_zero_or_a_constant(ctx):
    rng = random.Random(200 + ctx.p * 10 + ctx.n)
    for _ in range(10):
        f = nonconstant_poly(ctx, rng)
        x = with_factor(ctx, rng, f)
        for c in range(ctx.p):
            y = ctx.scalar(c) - x
            s = x + y
            assert_canonical(s)
            assert s == ctx.scalar(c)
        assert_ops_agree(x, ctx.one() - x)
        assert_canonical(x - x)
        assert (x - x).is_zero() and (x - x).den.is_one()


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_constant_numerators_match_full_reduction(ctx):
    # factors such as 1/d and c/d, whose cancellation runs no gcd
    rng = random.Random(300 + ctx.p * 10 + ctx.n)
    for _ in range(10):
        f = nonconstant_poly(ctx, rng)
        x = with_factor(ctx, rng, f)
        for c in range(1, ctx.p):
            k = ctx.scalar(c)
            # c/d with d sharing the factor f with the denominator of x
            y = RatFunc(ctx, k.num, f * nonconstant_poly(ctx, rng))
            for z in (k, y, y.inverse()):
                assert_ops_agree(x, z)
                assert_ops_agree(z, x)
            assert_ops_agree(y, y)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_poly_gcd_against_sympy(ctx):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ctx.names)

    def to_sympy(f):
        return sympy.Poly.from_dict(dict(f.terms) or {(0,) * ctx.n: 0}, *gens, modulus=ctx.p)

    rng = random.Random(300 + ctx.p * 10 + ctx.n)
    for _ in range(15):
        h = ctx.rand_poly(rng, max_deg=1, max_terms=2)
        f = h * ctx.rand_poly(rng, max_deg=2, max_terms=3)
        g = h * ctx.rand_poly(rng, max_deg=2, max_terms=3)
        got = poly_gcd(f, g)
        assert got.leading()[1] == 1 or got.is_zero()
        want = sympy.gcd(to_sympy(f), to_sympy(g))
        assert to_sympy(got).monic() == want.monic(), (f, g)
