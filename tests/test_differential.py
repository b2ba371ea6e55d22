"""The Jacobian criterion against the p^n-column linear algebra it replaced.

`old_is_p_independent` and `columns_independent` below are the column-rank
test the package used before p-independence was decided by differentials,
and `lambda_space` is the span of the p-monomial columns that SubfieldSpec
eliminated. `old_greedy_gens` is the greedy p-basis as one independence
test per candidate, before it was read off the pivots of one elimination.
They stay here as the differential oracles.
"""

import random

import pytest

from imperfect import _linalg
from imperfect._linalg import ColumnSpace
from imperfect.field import Context, RatFunc, SparsePoly, frobenius
from imperfect.pbasis import (
    LambdaCoords,
    differential,
    is_p_independent,
    lambda_coords,
    lambda_numerators,
    p_monomial,
)
from imperfect.tower import SpecError, SubfieldSpec, _greedy_gens
from oracles import dense

NAMES = ("s", "t", "v")
CASES = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]
# the oracle builds p^(|g|+|c|) columns; keep that small
MAX_COLUMNS = 27


def columns_independent(columns, ctx):
    """Whether sparse polynomial columns of length p^n are linearly independent."""
    rows = [{c: col[i] for c, col in enumerate(columns) if i in col}
            for i in range(ctx.p ** ctx.n)]
    return len(_linalg.pivots(rows, len(columns), ctx)) == len(columns)


def old_is_p_independent(c, over_gens, ctx):
    if any(x.is_zero() for x in c):
        return False
    p = ctx.p
    total = len(c) + len(over_gens)
    if p ** total > p ** ctx.n:
        return False
    columns = []
    for l in range(p ** len(over_gens)):
        ml = p_monomial(ctx, l, over_gens)
        for i in range(p ** len(c)):
            # the ambient coordinates scaled by the element's denominator
            columns.append(lambda_numerators(ml * p_monomial(ctx, i, c)))
    return columns_independent(columns, ctx)


def lambda_space(gens, ctx):
    """K^p[gens] as the span of the ambient coordinates of its p-monomials."""
    monomials = [p_monomial(ctx, l, gens) for l in range(ctx.p ** len(gens))]
    return ColumnSpace([(lambda_numerators(m), m.den) for m in monomials], ctx.p ** ctx.n, ctx)


def small(rng, ctx, nonzero=False):
    return ctx.rand_ratfunc(rng, max_deg=1, max_terms=1, nonzero=nonzero, denominators=False)


def rand_entry(rng, ctx, denominators):
    """A random element of low degree: often plain, sometimes a p-th power
    or x_k * c^p + d^p (independent of the other variables)."""
    kind = rng.randrange(5)
    if kind == 0:
        return frobenius(small(rng, ctx))
    if kind == 1:
        x = ctx.gens()[rng.randrange(ctx.n)]
        return x * frobenius(small(rng, ctx, nonzero=True)) + frobenius(small(rng, ctx))
    return ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, denominators=denominators)


def rand_tuple(rng, ctx, size):
    """Random entries, duplicates and K^p-combinations of earlier entries.

    Only the first entry may have a denominator: the oracle's fraction
    elimination over p^n rows takes seconds to minutes on several.
    """
    out = []
    for _ in range(size):
        roll = rng.random()
        if out and roll < 0.1:
            out.append(rng.choice(out))
        elif out and roll < 0.2:
            out.append(frobenius(small(rng, ctx)) * rng.choice(out) + frobenius(small(rng, ctx)))
        else:
            out.append(rand_entry(rng, ctx, denominators=not out))
    rng.shuffle(out)
    return out


def split_sizes(ctx):
    """(|over_gens|, |c|) pairs whose p-monomial count the oracle can afford."""
    return [
        (g, c)
        for g in range(ctx.n + 1)
        for c in range(ctx.n + 2 - g)
        if ctx.p ** (g + c) <= MAX_COLUMNS
    ]


def derivative(x):
    """d(x) as RatFuncs: differential(x) divided by x.den^2 again."""
    den2 = x.den * x.den
    return [RatFunc(x.ctx, e, den2) for e in dense(differential(x), x.ctx.n, x.ctx)]


@pytest.mark.parametrize("p,n", CASES)
def test_differential_is_the_derivation(p, n):
    # a derivation of K over F_p is fixed by additivity, the Leibniz rule and
    # its values on the variables; check all three, and the quotient rule
    ctx = Context(p, NAMES[:n])
    rng = random.Random(31 * p + n)
    zero = [ctx.zero()] * n
    for k, x in enumerate(ctx.gens()):
        assert derivative(x) == [ctx.one() if j == k else ctx.zero() for j in range(n)]
    for c in range(p):
        assert derivative(ctx.scalar(c)) == zero
    for _ in range(12):
        # x gets a denominator; x_n + c^p is never zero or constant
        x = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2)
        x = x / (ctx.gens()[-1] + frobenius(small(rng, ctx)))
        y = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2)
        assert all(isinstance(e, SparsePoly) and e for e in differential(x).values())
        dx, dy = derivative(x), derivative(y)
        assert derivative(x + y) == [a + b for a, b in zip(dx, dy)]
        assert derivative(x * y) == [x * b + y * a for a, b in zip(dx, dy)]
        assert derivative(frobenius(x)) == zero
        if not x.is_zero():
            assert derivative(x.inverse()) == [-(a / (x * x)) for a in dx]


@pytest.mark.parametrize("p,n", CASES)
def test_is_p_independent_matches_column_rank(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(41 * p + n)
    seen = set()
    for g, c in split_sizes(ctx):
        for _ in range(3):
            both = rand_tuple(rng, ctx, g + c)
            over, tup = both[:g], both[g:]
            want = old_is_p_independent(tup, over, ctx)
            assert is_p_independent(tup, over, ctx) == want, (over, tup)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("p,n", CASES)
def test_is_p_independent_edge_cases(p, n):
    ctx = Context(p, NAMES[:n])
    gens = list(ctx.gens())
    x = gens[0]
    one = ctx.one()
    d = x + one  # a denominator
    cases = [
        ([], [], True),
        ([x / d], [], True),
        ([frobenius(x)], [], False),  # a p-th power
        ([frobenius(x / d)], [], False),
        ([one], [], False),  # a constant
        ([ctx.scalar(p - 1)], [], False),
        ([ctx.zero()], [], False),
        ([], [ctx.zero()], False),  # zero in over_gens
        ([x, x], [], False),  # a duplicate
        ([x], [x], False),
        ([x], [frobenius(d) * x], False),  # dependent on over_gens
        ([], [x, x * frobenius(d)], False),  # a dependent over_gens
        (gens + [x * x + one], [], False),  # more entries than variables
    ]
    if n > 1:
        y = gens[1]
        cases += [
            ([y / d], [x], True),
            ([x * y], [x], True),
            ([x * y ** p], [x], False),
            ([y], [x, x ** p], False),
        ]
    for c, over, want in cases:
        if p ** (len(c) + len(over)) <= MAX_COLUMNS:
            assert old_is_p_independent(c, over, ctx) == want, (c, over)
        assert is_p_independent(c, over, ctx) == want, (c, over)


@pytest.mark.parametrize("p,n", CASES)
def test_subfield_spec_matches_lambda_columns(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(43 * p + n)
    seen = set()
    for k in range(n + 1):
        if p ** k > MAX_COLUMNS:
            continue
        for _ in range(3):
            gens = rand_tuple(rng, ctx, k)
            old = lambda_space(gens, ctx)
            valid = old.ok and not any(g.is_zero() for g in gens)
            if not valid:
                with pytest.raises(SpecError):
                    SubfieldSpec("F", gens, ctx)
                seen.add("rejected")
                continue
            F = SubfieldSpec("F", gens, ctx)
            for _ in range(4):
                inside = F.rand_element(rng)
                for x in (inside, inside + rand_entry(rng, ctx, denominators=True)):
                    sol = old.solve(lambda_numerators(x), x.den)
                    assert F.contains(x) == (sol is not None)
                    assert F.member(x) == (None if sol is None else LambdaCoords(tuple(sol), True))
                    seen.add(sol is not None)
    assert seen == {True, False, "rejected"}, seen


@pytest.mark.parametrize("p,n", CASES)
def test_lambda_coords_defined_matches_lambda_columns(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(47 * p + n)
    seen = set()
    for k in range(n + 2):
        if p ** k > MAX_COLUMNS:
            continue
        for _ in range(3):
            a = rand_tuple(rng, ctx, k)
            old = lambda_space(a, ctx)
            for b in (ctx.rand_ratfunc(rng), rand_entry(rng, ctx, denominators=True), ctx.zero()):
                sol = old.solve(lambda_numerators(b), b.den) if old.ok else None
                got = lambda_coords(a, b, ctx)
                defined = sol is not None and len(a) <= n and not any(x.is_zero() for x in a)
                assert got.defined == defined, (a, b)
                if defined:
                    assert got.coords == tuple(sol)
                else:
                    assert got.coords == (ctx.zero(),) * p ** k
                seen.add(defined)
    assert seen == {True, False}


def old_greedy_gens(candidates, ctx):
    """The greedy p-basis as `_greedy_gens` found it before it read the
    pivots of one elimination: one independence test per candidate."""
    gens = []
    for a in candidates:
        if is_p_independent([a], over_gens=gens, ctx=ctx):
            gens.append(a)
    return gens


@pytest.mark.parametrize("p,n", CASES)
def test_greedy_gens_are_the_pivots_of_one_elimination(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(53 * p + n)
    sizes = set()
    for size in range(2 * n + 3):
        for _ in range(2):
            candidates = tuple(rand_tuple(rng, ctx, size))
            if size > 2 and rng.random() < 0.5:
                candidates += (ctx.zero(), ctx.one())
            got = _greedy_gens(candidates, ctx)
            assert got == old_greedy_gens(candidates, ctx), candidates
            sizes.add(len(got))
    assert sizes == set(range(n + 1))
