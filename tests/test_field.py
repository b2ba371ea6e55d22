import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from imperfect import field
from imperfect.field import (
    EXP_LIMIT,
    MAX_POWER_DEGREE,
    Context,
    FieldError,
    ParseError,
    RatFunc,
    exact_div,
    frobenius,
    parse_element,
    poly_gcd,
    pth_root,
    render_element,
)


CTX2 = Context(2, ("t", "u"))
CTX3 = Context(3, ("s", "v"))
CTX5 = Context(5, ("x",))


def by_exponents(f):
    """The terms of a polynomial keyed by exponent tuples, as Context.poly takes them."""
    return {f.ctx.unpack(e): c for e, c in f.terms.items()}


def degree_in(f, k):
    """The degree of a polynomial in its k-th variable."""
    return max((e[k] for e in by_exponents(f)), default=0)


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


def test_equal_contexts_mix_and_unequal_ones_do_not():
    a, b = Context(2, ("t", "u")), Context(2, ("t", "u"))
    assert a is not b and a == b
    x, y = a.var("t"), b.var("u")
    assert x + y == a.parse("t+u") and x - y == b.parse("t+u")
    assert x * y == a.parse("t*u") and x / y == b.parse("t/u")
    for other in (Context(3, ("t", "u")), Context(2, ("t", "v")), Context(2, ("t",))):
        z = other.var("t")
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                   lambda x, y: x / y):
            with pytest.raises(FieldError, match="mixed field contexts"):
                op(x, z)
            with pytest.raises(FieldError, match="mixed field contexts"):
                op(z, x)
        # zero and polynomial operands, which take the short-cuts of +, - and *
        mine = (a.zero(), a.one(), x, a.parse("t^2+u"), a.parse("1/(t+1)"))
        theirs = (other.zero(), other.one(), z, other.parse("t^2+1"), other.parse("1/(t+1)"))
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for m in mine:
                for o in theirs:
                    with pytest.raises(FieldError, match="mixed field contexts"):
                        op(m, o)
                    with pytest.raises(FieldError, match="mixed field contexts"):
                        op(o, m)


def test_gens_are_built_once_per_context():
    ctx = Context(3, ("a", "b", "c"))
    assert ctx.gens() is ctx.gens()
    assert [render_element(g) for g in ctx.gens()] == ["a", "b", "c"]
    assert Context(3, ("a", "b", "c")).gens() == ctx.gens()


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


def parse_outcome(s, ctx):
    """The value parse_element gives, or its exception's type, message and pos."""
    try:
        return parse_element(s, ctx)
    except Exception as e:
        return type(e), str(e), getattr(e, "pos", None)


def rand_term_text(rng, ctx):
    """A sum of monomials in the term syntax, not canonical: signs, repeated and
    zero factors, numbers after variables, powers 0 to 5."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [str(rng.randint(0, 12)) if rng.random() < 0.3
                   else rng.choice(ctx.names) + (f"^{rng.randint(0, 5)}" if rng.random() < 0.5 else "")
                   for _ in range(rng.randint(1, 4))]
        terms.append("*".join(factors))
    text = terms[0] if rng.random() < 0.7 else "-" + terms[0]
    return text + "".join(rng.choice("+-") + t for t in terms[1:])


TERM_EDGE_TEXTS = (
    "-t", "t+t", "7*t", "2*3*t", "t^0", "0*t",
    "t*2", "2^3",  # a number after a variable; a power of a number
    f"t^{MAX_POWER_DEGREE}", f"t^{MAX_POWER_DEGREE + 1}",
    "1" * 4300, "1" * 5000, "t+" + "2" * 5000, "t^" + "9" * 5000,
    "é", "t+é*u", "z", "t u", " t", "t+", "+t", "-", "", "--t", "t+-u", "t^²", "٣*t",
    "*".join([f"t^{MAX_POWER_DEGREE}"] * (EXP_LIMIT // MAX_POWER_DEGREE)),
    "0*" + "*".join([f"t^{MAX_POWER_DEGREE}"] * (EXP_LIMIT // MAX_POWER_DEGREE)),
    "*".join([f"t^{MAX_POWER_DEGREE}"] * (EXP_LIMIT // MAX_POWER_DEGREE - 1)) + "*t^255*u",
)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_term_path_matches_the_parser(p, n, monkeypatch):
    """Texts the term path reads give what _Parser gives: the same value, or the
    same exception type, message and position."""
    ctx = Context(p, ("t", "u", "v")[:n])
    rng = random.Random(10 * p + n)
    polys = [render_element(a) for a in rand_elems(ctx, 300 + p, 60, denominators=False)]
    fractions = [render_element(a) for a in rand_elems(ctx, 400 + p, 60, max_deg=3)]
    texts = [*polys, *fractions, *(rand_term_text(rng, ctx) for _ in range(200)), *TERM_EDGE_TEXTS]
    assert all(field._parse_terms(s, ctx) is not None for s in polys)
    got = [parse_outcome(s, ctx) for s in texts]
    monkeypatch.setattr(field, "_parse_terms", lambda s, ctx: None)
    want = [parse_outcome(s, ctx) for s in texts]
    for s, g, w in zip(texts, got, want):
        assert g == w, s[:80]
    # both paths are exercised, and both kinds of outcome
    assert sum(isinstance(w, RatFunc) for w in want) > len(polys)
    assert sum(isinstance(w, tuple) for w in want) >= 10


def test_parsing_a_polynomial_builds_one_ratfunc(monkeypatch):
    ctx = Context(3, ("t", "u"))
    calls = []
    real = RatFunc.__init__

    def counted(self, *args, **kw):
        calls.append(args)
        real(self, *args, **kw)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    x = parse_element("2*t^3*u+t+1", ctx)
    assert len(calls) == 1
    assert by_exponents(x.num) == {(3, 1): 2, (1, 0): 1, (0, 0): 1} and x.den.is_one()


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
        assert b.den.is_one()


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


def sub_operands(ctx, rng):
    """Zero, polynomial and fractional elements, each kind several times."""
    out = [ctx.zero(), ctx.one(), ctx.scalar(ctx.p - 1)]
    for _ in range(6):
        out.append(ctx.rand_ratfunc(rng, nonzero=True, denominators=False))
        x = ctx.rand_ratfunc(rng, nonzero=True)
        while x.den.is_one():
            x = ctx.rand_ratfunc(rng, nonzero=True)
        out.append(x)
    return out


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_direct_subtraction_matches_adding_the_negation(ctx):
    rng = random.Random(400 + ctx.p * 10 + ctx.n)
    polys = [ctx.const_poly(0), ctx.const_poly(1)]
    polys += [ctx.rand_poly(rng) for _ in range(12)]
    for f in polys:
        for g in polys + [f.scale(2), f.scale(-1)]:
            d = f - g
            assert d == f + (-g), (f, g)
            assert all(0 < c < ctx.p for c in d.terms.values())
        assert (f - f).is_zero()
    elems = sub_operands(ctx, rng)
    for a in elems:
        for b in elems + [a + ctx.one()]:
            d = a - b
            assert_canonical(d)
            assert d == a + (-b), (a, b)
        assert (a - a).is_zero() and (a - a).den.is_one()
        assert -a == ctx.zero() - a
        assert a - ctx.zero() is a


def test_polynomial_subtraction_does_not_negate(monkeypatch):
    def no_neg(self):
        raise AssertionError("SparsePoly.__neg__ called")

    for ctx in (CTX3, CTX5):
        rng = random.Random(ctx.p)
        pairs = [(ctx.rand_ratfunc(rng, denominators=False),
                  ctx.rand_ratfunc(rng, denominators=False)) for _ in range(10)]
        want = [a + (-b) for a, b in pairs]
        with monkeypatch.context() as m:
            m.setattr(field.SparsePoly, "__neg__", no_neg)
            assert [a - b for a, b in pairs] == want
            assert all((a - a).is_zero() for a, _ in pairs)


def test_zero_polynomials_are_falsy():
    for ctx in (CTX2, CTX3, CTX5):
        f = ctx.var(ctx.names[0]).num
        assert not ctx.const_poly(0) and not ctx.poly({}) and not (f - f)
        assert ctx.const_poly(1) and f
        assert not ctx.zero() and ctx.one()


def schoolbook_mul(f, g):
    """The product loop that SparsePoly.__mul__ runs on every pair of factors
    other than 0 and 1: the oracle for its short-cuts by 1."""
    p = f.ctx.p
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = e1 + e2
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return field.SparsePoly(f.ctx, out)


def product_operands(ctx, rng):
    """Zero, constant, monomial and multi-term polynomials."""
    out = [ctx.const_poly(c) for c in range(ctx.p)]
    for _ in range(4):
        exps = tuple(rng.randint(0, 3) for _ in range(ctx.n))
        out.append(ctx.poly({exps: rng.randint(1, ctx.p - 1)}))
    while len(out) < ctx.p + 10:
        f = ctx.rand_poly(rng, max_deg=3, max_terms=4)
        if len(f.terms) > 1:
            out.append(f)
    return out


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_polynomial_products_by_one_match_the_schoolbook_product(ctx):
    rng = random.Random(500 + ctx.p * 10 + ctx.n)
    one = ctx.const_poly(1)
    polys = product_operands(ctx, rng)
    assert {min(len(f.terms), 2) for f in polys} == {0, 1, 2}
    for f in polys:
        want = schoolbook_mul(f, one)
        assert want == schoolbook_mul(one, f) == f
        assert f * one == want and one * f == want, f
        # products without a factor 1 still run the loop
        for g in polys:
            assert f * g == schoolbook_mul(f, g), (f, g)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_products_by_one_return_the_other_factor(ctx):
    rng = random.Random(600 + ctx.p * 10 + ctx.n)
    one = ctx.one()
    elems = sub_operands(ctx, rng) + [ctx.scalar(2), one / one, (one + one) - one]
    assert any(x.is_zero() for x in elems) and any(not x.den.is_one() for x in elems)
    for x in elems:
        assert x * one == x and one * x == x, x
        assert x * one == REFERENCE["*"](x, one) == REFERENCE["*"](one, x)
        if not x.is_zero():
            assert x * one is x
        if not x.is_zero() and not x.is_one():
            assert one * x is x


def test_products_of_non_units_still_reach_the_exponent_limit():
    L = EXP_LIMIT
    for ctx in CONTEXTS:
        pad = (0,) * (ctx.n - 1)
        one = ctx.const_poly(1)
        half = ctx.poly({(L // 2,) + pad: 1})
        top = ctx.poly({(L - 1,) + pad: 1})
        assert top * one is top and one * top is top
        for f, g in ((half, half), (top, ctx.poly({(1,) + pad: 1})), (half, half + one)):
            with pytest.raises(FieldError, match="exponent limit"):
                f * g
            with pytest.raises(FieldError, match="exponent limit"):
                RatFunc(ctx, f, one, reduce=False) * RatFunc(ctx, g, one, reduce=False)


def test_products_by_one_check_the_contexts_first():
    pairs = ((CTX2, CTX3), (CTX2, Context(2, ("t", "v"))), (CTX5, Context(5, ("x", "y"))))
    for mine, other in pairs:
        x = other.var(other.names[0])
        for y in (other.zero(), other.one(), x, x * x + other.one(), other.one() / (x + other.one())):
            with pytest.raises(FieldError, match="mixed field contexts"):
                mine.one() * y
            with pytest.raises(FieldError, match="mixed field contexts"):
                y * mine.one()


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_poly_gcd_against_sympy(ctx):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ctx.names)

    def to_sympy(f):
        return sympy.Poly.from_dict(by_exponents(f) or {(0,) * ctx.n: 0}, *gens, modulus=ctx.p)

    rng = random.Random(300 + ctx.p * 10 + ctx.n)
    for _ in range(15):
        h = ctx.rand_poly(rng, max_deg=1, max_terms=2)
        f = h * ctx.rand_poly(rng, max_deg=2, max_terms=3)
        g = h * ctx.rand_poly(rng, max_deg=2, max_terms=3)
        got = poly_gcd(f, g)
        assert got.leading()[1] == 1 or got.is_zero()
        want = sympy.gcd(to_sympy(f), to_sympy(g))
        assert to_sympy(got).monic() == want.monic(), (f, g)


# ---------------------------------------------------------------------------
# packed monomial keys against the tuple-keyed kernel they replaced
# ---------------------------------------------------------------------------

# The oracle below is the tuple-keyed kernel: polynomials are dicts from
# exponent tuples to coefficients in [0, p), ordered by _grlex_key.


def _grlex_key(exps):
    # graded-lex with the last variable most significant on ties
    return (sum(exps), tuple(reversed(exps)))


def t_add(p, f, g):
    out = dict(f)
    for e, c in g.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def t_scale(p, f, c):
    return {e: k * c % p for e, k in f.items() if k * c % p}


def t_mul(p, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def t_leading(f):
    exps = max(f, key=_grlex_key)
    return exps, f[exps]


def t_monic(p, f):
    return t_scale(p, f, pow(t_leading(f)[1], p - 2, p)) if f else f


def t_exact_div(p, f, d):
    if not f:
        return f
    if len(d) == 1:
        ((de, dc),) = d.items()
        inv = pow(dc, p - 2, p)
        out = {}
        for e, c in f.items():
            q = tuple(a - b for a, b in zip(e, de))
            if any(v < 0 for v in q):
                raise FieldError("inexact monomial division")
            out[q] = c * inv % p
        return out
    d_exps, d_c = t_leading(d)
    d_inv = pow(d_c, p - 2, p)
    quo, rem = {}, f
    while rem:
        r_exps, r_c = t_leading(rem)
        q = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(v < 0 for v in q):
            raise FieldError("inexact polynomial division")
        qc = r_c * d_inv % p
        quo[q] = qc
        rem = t_add(p, rem, t_scale(p, t_mul(p, d, {q: 1}), -qc))
    return quo


def t_coeffs_in(f, k):
    out = {}
    for e, c in f.items():
        out.setdefault(e[k], {})[e[:k] + (0,) + e[k + 1:]] = c
    return out


def t_gcd_univ(p, n, f, g, k):
    def to_list(poly):
        out = [0] * (max(e[k] for e in poly) + 1)
        for e, c in poly.items():
            out[e[k]] = c
        return out

    def trim(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim(to_list(f)), trim(to_list(g))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            for i, bc in enumerate(b):
                a[i + len(a) - len(b)] = (a[i + len(a) - len(b)] - c * bc) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    inv = pow(a[-1], p - 2, p)
    return {tuple(i if j == k else 0 for j in range(n)): c * inv % p
            for i, c in enumerate(a) if c}


def t_content(p, n, coeffs):
    it = iter(coeffs.values())
    acc = next(it)
    for c in it:
        acc = t_gcd(p, n, acc, c)
        if all(not any(e) for e in acc):
            break
    return t_monic(p, acc)


def t_pseudo_rem(p, fc, gc):
    fd = dict(fc)
    dg = max(gc)
    lg = gc[dg]
    while fd and max(fd) >= dg:
        df = max(fd)
        lf = fd[df]
        new = {d: t_mul(p, c, lg) for d, c in fd.items()}
        for d, c in gc.items():
            nd = d + df - dg
            new[nd] = t_add(p, new.get(nd, {}), t_scale(p, t_mul(p, c, lf), -1))
        fd = {d: c for d, c in new.items() if c}
    return fd


def t_gcd(p, n, f, g):
    if not f or not g:
        return t_monic(p, f or g)
    if all(not any(e) for e in f) or all(not any(e) for e in g):
        return {(0,) * n: 1}
    if len(f) == 1 or len(g) == 1:
        return {tuple(min(v) for v in zip(*f, *g)): 1}
    used = [k for k in range(n) if any(e[k] for e in (*f, *g))]
    k = used[-1]
    if len(used) == 1:
        return t_gcd_univ(p, n, f, g, k)
    fc, gc = t_coeffs_in(f, k), t_coeffs_in(g, k)
    cf, cg = t_content(p, n, fc), t_content(p, n, gc)
    pf = {d: t_exact_div(p, c, cf) for d, c in fc.items()}
    pg = {d: t_exact_div(p, c, cg) for d, c in gc.items()}
    while pg:
        r = t_pseudo_rem(p, pf, pg)
        if r:
            rc = t_content(p, n, r)
            r = {d: t_exact_div(p, c, rc) for d, c in r.items()}
        pf, pg = pg, r
    prim = {e[:k] + (d,) + e[k + 1:]: c for d, poly in pf.items() for e, c in poly.items()}
    return t_monic(p, t_mul(p, prim, t_gcd(p, n, cf, cg)))


def quotient_or_inexact(div, f, d):
    try:
        return div(f, d)
    except FieldError as e:
        return str(e)


def kernel_inputs(ctx, rng, count):
    """Pairs of polynomials: random, with a shared factor, and with a monomial."""
    for i in range(count):
        f = ctx.rand_poly(rng, max_deg=3, max_terms=4)
        g = ctx.rand_poly(rng, max_deg=3, max_terms=4)
        if i % 3 == 1:
            h = ctx.rand_poly(rng, max_deg=2, max_terms=3)
            f, g = f * h, g * h
        elif i % 3 == 2:
            g = ctx.rand_poly(rng, max_deg=3, max_terms=1) * ctx.rand_poly(rng, max_deg=1,
                                                                         max_terms=1)
        yield f, g


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_packed_kernel_matches_the_tuple_kernel(ctx):
    p, n = ctx.p, ctx.n
    rng = random.Random(400 + ctx.p * 10 + ctx.n)
    for f, g in kernel_inputs(ctx, rng, 30):
        F, G = by_exponents(f), by_exponents(g)
        assert ctx.poly(F) == f
        # graded-lex order: leading terms and the rendering order
        for poly, P in ((f, F), (g, G)):
            if P:
                assert ctx.unpack(poly.leading()[0]) == t_leading(P)[0]
            assert [ctx.unpack(e) for e in sorted(poly.terms, reverse=True)] == sorted(
                P, key=_grlex_key, reverse=True)
        fg = f * g
        assert by_exponents(fg) == t_mul(p, F, G)
        assert by_exponents(poly_gcd(f, g)) == t_gcd(p, n, F, G), (f, g)
        if not g.is_zero():
            assert exact_div(fg, g) == f
            # exact and inexact divisions, the monomial case included
            for num in (f, f + ctx.const_poly(1), fg + f):
                assert quotient_or_inexact(lambda a, b: by_exponents(exact_div(a, b)),
                                           num, g) == \
                    quotient_or_inexact(lambda a, b: t_exact_div(p, a, b), by_exponents(num), G)


def shortcut_inputs(ctx, rng, count):
    """(divides, f, g) triples for the early returns of poly_gcd: equal inputs and
    scalar multiples, one input dividing the other with and without monomial
    factors, monomial content on one side or both, and coprime pairs carrying
    monomial factors. divides says the answer needs no PRS: one input, after
    the monomial content is split off, divides the other."""
    def poly():
        while True:
            f = ctx.rand_poly(rng, max_deg=2, max_terms=3)
            if len(f.terms) > 1:
                return f

    def mono():
        return ctx.rand_poly(rng, max_deg=2, max_terms=1)

    minus = ctx.const_poly(-1)
    for _ in range(count):
        f, g, h, m1, m2 = poly(), poly(), poly(), mono(), mono()
        c = ctx.const_poly(rng.randint(1, ctx.p - 1))
        yield True, f, f
        yield True, f * c, f * minus
        yield True, f * c, f * h
        yield True, f * h, f * c
        yield True, m1 * f, m1 * m2 * f * h
        yield True, m1 * m2 * h * f * c, m2 * f
        yield True, m1 * f, m2 * f * h
        yield False, m1 * f * h, g * h
        yield False, m1 * f * h, m2 * g * h
        yield False, m1 * f, m2 * g
        yield False, m1 * f, g


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_gcd_shortcuts_match_the_tuple_kernel(ctx, monkeypatch):
    p, n = ctx.p, ctx.n
    rng = random.Random(500 + ctx.p * 10 + ctx.n)
    cases = list(shortcut_inputs(ctx, rng, 10))
    for _, f, g in cases:
        got = poly_gcd(f, g)
        assert by_exponents(got) == t_gcd(p, n, by_exponents(f), by_exponents(g)), (f, g)
        assert got.leading()[1] == 1
        assert exact_div(f, got) * got == f and exact_div(g, got) * got == g

    def no_prs(*args):
        raise AssertionError("reached the PRS")

    # divisor inputs return before the PRS, in either order
    monkeypatch.setattr(field, "_coeffs_in", no_prs)
    monkeypatch.setattr(field, "_gcd_univ", no_prs)
    for divides, f, g in cases:
        if divides:
            assert poly_gcd(f, g) == poly_gcd(g, f)


def univariate_inputs(ctx, k, rng, count):
    """Pairs of dense polynomials in x_k of degree up to about 40: coprime-looking
    random pairs, and pairs sharing a random factor of degree 1-20."""
    def poly(degree):
        coeffs = [rng.randrange(ctx.p) for _ in range(degree)] + [rng.randrange(1, ctx.p)]
        return ctx.poly({tuple(i if j == k else 0 for j in range(ctx.n)): c
                         for i, c in enumerate(coeffs)})

    for i in range(count):
        if i % 2:
            h = poly(rng.randint(1, 20))
            yield poly(rng.randint(0, 20)) * h, poly(rng.randint(1, 20)) * h
        else:
            yield poly(rng.randint(1, 40)), poly(rng.randint(1, 40))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_univariate_gcds_of_high_degree_match_the_tuple_kernel(p):
    rng = random.Random(900 + p)
    for n in (1, 3):
        ctx = Context(p, ("t", "u", "v")[:n])
        for k in range(n):
            degrees = []
            for f, g in univariate_inputs(ctx, k, rng, 12):
                want = t_gcd_univ(p, n, by_exponents(f), by_exponents(g), k)
                got = field._gcd_univ(f, g, k)
                assert by_exponents(got) == want, (f, g)
                assert poly_gcd(f, g) == got
                degrees.append(degree_in(got, k))
            # both coprime pairs and shared factors of positive degree occur
            assert 0 in degrees and max(degrees) > 0


# ---------------------------------------------------------------------------
# the coprimality certificate: univariate images over GF(p^k)
# ---------------------------------------------------------------------------

MULTIVARIATE = [ctx for ctx in CONTEXTS if ctx.n > 1]


def gf_add(p, x, y):
    """The sum of two elements of GF(p^k) packed in base p, digit by digit."""
    out, place = 0, 1
    while x or y:
        out += (x + y) % p * place
        x, y, place = x // p, y // p, place * p
    return out


def minimal_polynomial(p, k):
    """Coefficients, constant first, of the monic polynomial over F_p of least
    degree that vanishes at the point x_k takes, found by trying them all."""
    gf = field._GF(p)
    point = field._GF_POINTS[p][k]
    for degree in range(1, field._GF_DEGREE[p] + 1):
        for low in itertools.product(range(p), repeat=degree):
            value = 0
            for i, c in enumerate(low + (1,)):
                for _ in range(c):
                    value = gf_add(p, value, gf.exp[i * point % gf.m])
            if value == 0:
                return low + (1,)


def test_no_gf_table_is_built_at_import():
    code = "import sys, imperfect.cli, imperfect.field as f; sys.exit(len(f._GF_TABLES))"
    env = {**os.environ, "PYTHONPATH": str(Path(field.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gf_tables_are_a_field_generated_by_a(p):
    gf = field._GF(p)
    q = p ** field._GF_DEGREE[p]
    # a^0, ..., a^(q-2) are the q-1 nonzero elements: a has order q-1
    assert gf.m == q - 1
    assert sorted(gf.exp) == list(range(1, q))
    assert all(gf.log[gf.exp[i]] == i for i in range(gf.m))
    # multiplying by a^l distributes over the digitwise sum
    rng = random.Random(p)
    for _ in range(200):
        i, j, l = (rng.randrange(gf.m) for _ in range(3))
        s = gf_add(p, gf.exp[i], gf.exp[j])
        if s:
            assert gf.exp[(gf.log[s] + l) % gf.m] == gf_add(
                p, gf.exp[(i + l) % gf.m], gf.exp[(j + l) % gf.m])
    # a^neg = -1: adding it to 1 gives 0
    assert gf_add(p, 1, gf.exp[gf.neg]) == 0
    assert gf.neg == (0 if p == 2 else gf.m // 2)
    # Zech logarithms: 1 + a^n = a^zech[n], undefined exactly at n = neg
    for n in range(gf.m):
        s = gf_add(p, 1, gf.exp[n])
        assert (gf.zech[n] is None) == (s == 0) == (n == gf.neg)
        assert s == 0 or gf.exp[gf.zech[n]] == s


@pytest.mark.parametrize("ctx", MULTIVARIATE, ids=repr)
def test_the_certificate_changes_no_gcd(ctx, monkeypatch):
    rng = random.Random(600 + ctx.p * 10 + ctx.n)
    cases = list(kernel_inputs(ctx, rng, 60))
    honest, verdicts = field._coprime_images, []
    monkeypatch.setattr(field, "_coprime_images",
                        lambda *a: verdicts.append(honest(*a)) or verdicts[-1])
    got = [poly_gcd(f, g) for f, g in cases]
    assert True in verdicts and False in verdicts
    monkeypatch.setattr(field, "_coprime_images", lambda *a: False)
    assert [poly_gcd(f, g) for f, g in cases] == got


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_factor_free_of_the_main_variable_is_never_certified(p):
    ctx = Context(p, ("t", "u", "v"))
    t, u, v = (x.num for x in ctx.gens())
    one = ctx.const_poly(1)
    rng = random.Random(700 + p)

    def in_v():
        while True:
            f = ctx.rand_poly(rng, max_deg=2, max_terms=3) * v + ctx.rand_poly(rng, max_deg=2)
            if degree_in(f, 2):
                return f

    for content in (t + one, u * u + t, t * u + one):
        for _ in range(5):
            F, G = content * in_v(), content * in_v()
            assert not field._coprime_images(F, G, field._variables(F, G))
            got = poly_gcd(F, G)
            assert field._quotient(got, content) is not None
            assert by_exponents(got) == t_gcd(p, 3, by_exponents(F), by_exponents(G))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_leading_coefficient_vanishing_at_the_point_falls_through(p, monkeypatch):
    ctx = Context(p, ("t", "u"))
    t, u = (x.num for x in ctx.gens())
    mu = minimal_polynomial(p, 0)
    # t's point lies in no proper subfield of GF(p^k)
    assert len(mu) == field._GF_DEGREE[p] + 1
    f = ctx.poly({(i, 2): c for i, c in enumerate(mu)}) + u + t
    g = u + ctx.const_poly(1)
    assert not field._coprime_images(f, g, [0, 1])
    assert not field._coprime_images(g, f, [0, 1])
    honest, calls = field._coeffs_in, []
    monkeypatch.setattr(field, "_coeffs_in", lambda *a: calls.append(a) or honest(*a))
    assert poly_gcd(f, g).is_one()
    assert calls


@pytest.mark.parametrize("ctx", MULTIVARIATE, ids=repr)
def test_certified_coprime_inputs_never_reach_the_prs(ctx, monkeypatch):
    rng = random.Random(800 + ctx.p * 10 + ctx.n)
    pairs = []
    while len(pairs) < 40:
        f, g = (ctx.rand_poly(rng, max_deg=3, max_terms=4) for _ in range(2))
        if len(field._variables(f, g)) > 1 and poly_gcd(f, g).is_one():
            pairs.append((f, g))
    # the points are fixed, so a coprime pair can miss its certificate when the
    # points satisfy a relation the pair's images see: 2 of these 240 do
    certified = [(f, g) for f, g in pairs if field._coprime_images(f, g, field._variables(f, g))]
    assert len(certified) >= 38

    def no_prs(*args):
        raise AssertionError("reached the PRS")

    monkeypatch.setattr(field, "_coeffs_in", no_prs)
    for f, g in certified:
        assert poly_gcd(f, g).is_one(), (f, g)


def exponent_vectors(n, budget):
    """Vectors of n exponents with total degree at most budget."""
    return st.lists(st.integers(0, budget), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= budget).map(tuple)


def packed_contexts():
    return st.sampled_from([Context(p, ("t", "u", "v")[:n]) for p in (2, 3) for n in (1, 2, 3)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_keys_round_trip_and_order_like_grlex(data):
    ctx = data.draw(packed_contexts())
    a = data.draw(exponent_vectors(ctx.n, EXP_LIMIT - 1))
    b = data.draw(exponent_vectors(ctx.n, EXP_LIMIT - 1))
    assert ctx.unpack(ctx.pack(a)) == a
    assert by_exponents(ctx.poly({a: 1})) == {a: 1}
    assert (ctx.pack(a) < ctx.pack(b)) == (_grlex_key(a) < _grlex_key(b))
    assert (ctx.pack(a) == ctx.pack(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_of_a_product_is_the_sum_of_the_keys(data):
    ctx = data.draw(packed_contexts())
    a = data.draw(exponent_vectors(ctx.n, EXP_LIMIT // 2))
    b = data.draw(exponent_vectors(ctx.n, EXP_LIMIT // 2 - 1))
    ab = tuple(x + y for x, y in zip(a, b))
    assert ctx.pack(a) + ctx.pack(b) == ctx.pack(ab)
    assert by_exponents(ctx.poly({a: 1}) * ctx.poly({b: 1})) == {ab: 1}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inexact_monomial_division_is_caught(data):
    ctx = data.draw(packed_contexts())
    a = data.draw(exponent_vectors(ctx.n, EXP_LIMIT - 1))
    b = data.draw(exponent_vectors(ctx.n, EXP_LIMIT - 1))
    f = ctx.poly({a: 1, (0,) * ctx.n: 1}) if data.draw(st.booleans()) else ctx.poly({a: 1})
    want = t_exact_div(ctx.p, by_exponents(f), {b: 1}) if all(
        x >= y for e in by_exponents(f) for x, y in zip(e, b)) else None
    if want is None:
        with pytest.raises(FieldError, match="inexact monomial division"):
            exact_div(f, ctx.poly({b: 1}))
    else:
        assert by_exponents(exact_div(f, ctx.poly({b: 1}))) == want


def test_exponent_limit_is_enforced_without_wrapping():
    L = EXP_LIMIT
    ctx = Context(2, ("t", "u"))
    t, u = ctx.gens()
    one = ctx.const_poly(1)
    assert ctx.poly({(L - 1, 0): 1}).total_degree() == L - 1
    assert by_exponents(ctx.poly({(L - 2, 1): 1})) == {(L - 2, 1): 1}
    for exps in ((L, 0), (L - 1, 1), (0, L), (L // 2, L // 2)):
        with pytest.raises(FieldError, match="reaches the limit"):
            ctx.poly({exps: 1})
    # products: just below the limit, then at it
    below = ctx.poly({(L - 2, 0): 1}) * ctx.poly({(0, 1): 1})
    assert by_exponents(below) == {(L - 2, 1): 1}
    with pytest.raises(FieldError, match="exponent limit"):
        below * ctx.poly({(1, 0): 1, (0, 0): 1})
    with pytest.raises(FieldError, match="exponent limit"):
        ctx.poly({(0, L // 2): 1}) * ctx.poly({(0, L // 2): 1})
    # powers: t^(L-1) needs no square of t^(L/2)
    assert t ** (L - 1) == RatFunc(ctx, ctx.poly({(L - 1, 0): 1}), one)
    assert u ** -(L - 1) == RatFunc(ctx, one, ctx.poly({(0, L - 1): 1}))
    assert (t * u) ** (L // 2 - 1) == RatFunc(ctx, ctx.poly({(L // 2 - 1, L // 2 - 1): 1}), one)
    for base, k in ((t, L), (u, -L), (t * u, L // 2), (t + u, L)):
        with pytest.raises(FieldError, match="exponent limit"):
            base ** k
    with pytest.raises(FieldError, match="exponent limit"):
        parse_element("*".join([f"t^{MAX_POWER_DEGREE}"] * (L // MAX_POWER_DEGREE)), ctx)
    # Frobenius: x^k with k*p just below the limit, then at it, in num and den
    for p in (2, 3, 5):
        c = Context(p, ("x", "y"))
        x, y = c.gens()
        k = (L - 1) // p
        assert frobenius(x ** k / y) == RatFunc(c, c.poly({(k * p, 0): 1}), c.poly({(0, p): 1}))
        assert pth_root(frobenius(x ** k / y)) == x ** k / y
        for a in (x ** (k + 1), y / x ** (k + 1), (x + y) ** (k + 1)):
            with pytest.raises(FieldError, match="exponent limit"):
                frobenius(a)
