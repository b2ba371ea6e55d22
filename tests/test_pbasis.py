import random

import pytest

from imperfect.field import Context, FieldError, frobenius
from imperfect.pbasis import (
    PBasis,
    is_p_independent,
    lambda_coords,
    lambda_numerators,
    monomial_exponents,
    p_monomial,
    reconstruct,
)
from oracles import lambda_ambient


CTX2 = Context(2, ("t", "u"))
CTX3 = Context(3, ("s", "v"))
CTX2V3 = Context(2, ("t", "u", "v"))


def test_monomial_exponents_enumeration():
    # base-p digits, least significant for the first slot
    assert [monomial_exponents(2, 2, i) for i in range(4)] == [
        (0, 0), (1, 0), (0, 1), (1, 1)]
    assert monomial_exponents(3, 2, 5) == (2, 1)
    assert monomial_exponents(3, 1, 2) == (2,)
    seen = {monomial_exponents(3, 2, i) for i in range(9)}
    assert len(seen) == 9
    assert all(0 <= e < 3 for exps in seen for e in exps)


def test_p_monomial_values():
    t, u = CTX2.gens()
    assert p_monomial(CTX2, 0, (t, u)).is_one()
    assert p_monomial(CTX2, 1, (t, u)) == t
    assert p_monomial(CTX2, 2, (t, u)) == u
    assert p_monomial(CTX2, 3, (t, u)) == t * u
    s, v = CTX3.gens()
    assert p_monomial(CTX3, 4, (s, v)) == s * v
    assert p_monomial(CTX3, 8, (s, v)) == s * s * v * v


def test_lambda_ambient_splits_by_residue():
    t, u = CTX2.gens()
    b = t * t * u + u * u + t
    coords = lambda_ambient(b)
    # b = (u)^2*1 + 1^2*t + (t)^2*u + 0*tu
    assert coords[0] == u
    assert coords[1] == CTX2.one()
    assert coords[2] == t
    assert coords[3].is_zero()
    assert sum((frobenius(c) * p_monomial(CTX2, i, CTX2.gens())
                for i, c in enumerate(coords)), CTX2.zero()) == b


def test_lambda_ambient_handles_denominators():
    t, u = CTX2.gens()
    b = (t + u) / (t * u + CTX2.one())
    coords = lambda_ambient(b)
    assert reconstruct(CTX2.gens(), coords, CTX2) == b


def test_roundtrip_full_basis():
    for ctx, seed in ((CTX2, 1), (CTX3, 2), (CTX2V3, 3)):
        rng = random.Random(seed)
        gens = ctx.gens()
        for _ in range(30):
            b = ctx.rand_ratfunc(rng)
            lam = lambda_coords(gens, b)
            assert lam.defined
            assert reconstruct(gens, lam.coords, ctx) == b


def test_roundtrip_partial_tuple():
    t, u = CTX2.gens()
    rng = random.Random(9)
    for _ in range(20):
        # elements of K^2[t] by construction
        c0 = CTX2.rand_ratfunc(rng)
        c1 = CTX2.rand_ratfunc(rng)
        b = frobenius(c0) + frobenius(c1) * t
        lam = lambda_coords((t,), b)
        assert lam.defined
        assert len(lam) == 2
        assert reconstruct((t,), lam.coords, CTX2) == b


def test_member_outside_span_is_undefined():
    t, u = CTX2.gens()
    lam = lambda_coords((t,), u)
    assert not lam.defined
    assert all(c.is_zero() for c in lam)


def test_nonstandard_tuple():
    t, u = CTX2.gens()
    a = (t + u, t * u)
    assert is_p_independent(a)
    rng = random.Random(4)
    for _ in range(15):
        b = CTX2.rand_ratfunc(rng)
        lam = lambda_coords(a, b)
        assert lam.defined
        assert reconstruct(a, lam.coords, CTX2) == b


def test_dependent_tuple_gives_zero_coords():
    t, u = CTX2.gens()
    one = CTX2.one()
    bad_tuples = [
        (t * t,),                 # already a square
        (t, t),                   # repeated
        (t, u, t + u),            # too many for two variables
        (t, t * u * u),           # t*(u^2) depends on t
        (one,),                   # 1 is never p-independent
        (t, CTX2.zero()),
    ]
    for a in bad_tuples:
        assert not is_p_independent(a, ctx=CTX2)
        lam = lambda_coords(a, t, ctx=CTX2)
        assert not lam.defined
        assert all(c.is_zero() for c in lam)


def test_p_independence_examples():
    t, u = CTX2.gens()
    assert is_p_independent((t,))
    assert is_p_independent((t, u))
    assert is_p_independent((t + u * u,))
    assert not is_p_independent((frobenius(t),))
    s, v = CTX3.gens()
    assert is_p_independent((s, v))
    assert is_p_independent((s, s * s * v))  # generates the same field as (s, v)
    assert not is_p_independent((s, s * v ** 3))  # s*v^3 lies in K^3(s)


def test_relative_independence():
    t, u = CTX2.gens()
    # over K^2(t), the element t is no longer independent
    assert not is_p_independent((t,), over_gens=(t,))
    assert is_p_independent((u,), over_gens=(t,))
    assert is_p_independent((t * u,), over_gens=(t,))  # u recoverable as tu/t
    assert not is_p_independent((t * u * u,), over_gens=(t,))
    t3, u3, v3 = CTX2V3.gens()
    assert is_p_independent((u3, v3), over_gens=(t3,))
    assert not is_p_independent((u3, v3, t3), over_gens=(t3,))


def test_relative_independence_product_case():
    # t*u is independent over K^2, and u is dependent over K^2(t, t*u)
    t, u = CTX2.gens()
    assert is_p_independent((t, t * u))
    assert not is_p_independent((u,), over_gens=(t, t * u))


def test_empty_tuple_needs_context():
    with pytest.raises(FieldError):
        lambda_coords((), CTX2.one())
    lam = lambda_coords((), CTX2.one(), ctx=CTX2)
    assert lam.defined
    assert len(lam) == 1
    assert lam[0].is_one()
    # constants with no p-th root in F_p are still fine: every scalar is one
    assert reconstruct((), lam.coords, CTX2).is_one()


def test_coords_are_unique():
    t, u = CTX2.gens()
    rng = random.Random(17)
    for _ in range(10):
        b = CTX2.rand_ratfunc(rng)
        l1 = lambda_coords((t, u), b)
        l2 = lambda_coords((t, u), b)
        assert list(l1) == list(l2)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("names", (("t",), ("t", "u"), ("t", "u", "v")), ids=len)
def test_ambient_coordinates_round_trip(p, names):
    """The sum of p-th powers times the variable p-monomials undoes the residue
    split of lambda_numerators, which shares no code with it and keeps only
    nonzero coordinates."""
    ctx = Context(p, names)
    rng = random.Random(100 * p + len(names))
    fractions = 0
    for _ in range(12):
        b = ctx.rand_ratfunc(rng, max_deg=p + 1, max_terms=4)
        fractions += not b.den.is_one()
        assert reconstruct(ctx.gens(), lambda_ambient(b), ctx) == b
        assert all(c for c in lambda_numerators(b).values())
    assert fractions


def test_pbasis_answers_as_the_functions_do():
    t, u = CTX2.gens()
    rng = random.Random(23)
    for a in ((t,), (t + u, t * u), (t, t), (t * t,)):
        basis = PBasis(a, CTX2)
        assert basis.independent == is_p_independent(a, ctx=CTX2)
        assert basis.monomials == tuple(p_monomial(CTX2, i, a) for i in range(2 ** len(a)))
        for _ in range(6):
            b = CTX2.rand_ratfunc(rng)
            lam = basis.coords(b)
            assert lam == lambda_coords(a, b, CTX2)
            if basis.independent:
                assert basis.contains(b) == lam.defined
            if lam.defined:
                assert basis.combine(lam) == b == reconstruct(a, lam, CTX2)
    with pytest.raises(FieldError):
        PBasis((t,), CTX2).combine([CTX2.one()] * 3)


def test_the_suite_roundtrip_builds_one_coordinate_system(monkeypatch):
    from imperfect import _linalg, suite

    built = []

    class CountedColumnSpace(_linalg.ColumnSpace):
        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(_linalg, "ColumnSpace", CountedColumnSpace)
    suite._chk_pbasis_roundtrip(suite.SuiteConfig(samples=24), random.Random(0), None)
    assert built == [3, 8]  # the Jacobian span and the p^m system, once each
