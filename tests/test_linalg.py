"""ColumnSpace, nullspace and pivots against fraction-reducing elimination.

`_rref` below is the Gauss-Jordan elimination with a gcd in every entry
operation that the package used before its eliminations went fraction-free,
and `in_column_space` the per-query elimination that it used before
ColumnSpace; both stay here as differential oracles. They work on RatFunc
vectors, which each test clears (oracles.cleared) before it calls `_linalg`.
"""

import random
from typing import List, Optional, Tuple

import pytest

from imperfect import _linalg
from imperfect._linalg import ColumnSpace
from imperfect.field import Context, frobenius
from imperfect.pbasis import LambdaCoords, lambda_coords, p_monomial, reconstruct
from imperfect.tower import RSpaceSpec, SpecError, SubfieldSpec
from oracles import cleared, lambda_ambient, rank

NAMES = ("s", "t", "v")
CASES = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


def _weight(x) -> int:
    """Complexity of an entry, used to pick pivots that limit blowup."""
    return len(x.num.terms) * len(x.den.terms)


def _rref(rows: List[list], ncols: Optional[int] = None) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form (in place on a copy) and pivot column indices.

    Pivots are sought among the first `ncols` columns only (all by default);
    the remaining columns are carried along by the row operations.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    if ncols is None:
        ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        best = None
        for i in range(r, len(m)):
            if m[i][c]:
                w = _weight(m[i][c])
                if best is None or w < best:
                    best, pr = w, i
                    if w <= 1:
                        break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve(rows, rhs, field):
    """One solution x of rows @ x = rhs with free variables zero, or None."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _rref(aug)
    for i in range(len(red)):
        if not any(red[i][:ncols]) and red[i][ncols]:
            return None
    x = [field.zero() for _ in range(ncols)]
    for i, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[i][ncols]
    return x


def in_column_space(columns, target, field):
    """Coefficients expressing target in the columns, or None."""
    if not columns:
        return [] if not any(target) else None
    rows = [[col[i] for col in columns] for i in range(len(target))]
    return solve(rows, target, field)


def combine(columns, coeffs, ctx):
    out = [ctx.zero()] * len(columns[0])
    for col, c in zip(columns, coeffs):
        out = [o + c * x for o, x in zip(out, col)]
    return out


def rand_vector(rng, ctx):
    """Ambient coordinates of a random element, some with a denominator: the
    sparse, structured vectors that the specs eliminate."""
    return lambda_ambient(ctx.rand_ratfunc(rng, max_deg=ctx.p + 1, max_terms=3))


def rand_coeffs(rng, ctx, w):
    return [ctx.rand_ratfunc(rng, max_deg=1, max_terms=2) for _ in range(w)]


def check_against_oracle(space, columns, b, ctx):
    want = in_column_space(columns, b, ctx)
    nums, den = cleared(b)
    assert space.contains(nums) == (want is not None)
    got = space.solve(nums, den)
    assert (got is None) == (want is None)
    if got is None:
        return None
    assert combine(columns, got, ctx) == list(b)
    if space.ok:
        assert got == want  # the solution is unique
    return got


@pytest.mark.parametrize("p,n", CASES)
def test_column_space_matches_fresh_elimination(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(100 * p + n)
    seen = {"independent": 0, "dependent": 0, "in": 0, "out": 0}
    for trial in range(8):
        w = rng.randint(1, min(3, p ** n - 1))
        columns = [rand_vector(rng, ctx) for _ in range(w)]
        if trial % 2:
            # a combination of the others makes the set dependent
            columns.append(combine(columns, rand_coeffs(rng, ctx, w), ctx))
        space = ColumnSpace([cleared(c) for c in columns], ctx)
        assert space.ok == (rank([list(r) for r in zip(*columns)]) == len(columns))
        seen["independent" if space.ok else "dependent"] += 1
        for _ in range(4):
            member = combine(columns, rand_coeffs(rng, ctx, len(columns)), ctx)
            assert check_against_oracle(space, columns, member, ctx) is not None
            seen["in"] += 1
            other = [m + x for m, x in zip(member, rand_vector(rng, ctx))]
            if check_against_oracle(space, columns, other, ctx) is None:
                seen["out"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("p,n", CASES)
def test_residuals_cut_out_the_span(p, n):
    """The kernel of the residual forms, as computed by nullspace, is the span."""
    ctx = Context(p, NAMES[:n])
    rng = random.Random(500 * p + n)
    size = p ** n
    checked = 0
    for trial in range(4):
        # for p^n <= 3 the last trial spans everything: there are no forms
        w = size if trial == 3 and size <= 3 else rng.randint(1, min(3, size - 1))
        columns = [rand_vector(rng, ctx) for _ in range(w)]
        space = ColumnSpace([cleared(c) for c in columns], ctx)
        if not space.ok:
            continue
        units = [[ctx.const_poly(int(k == j)) for k in range(size)] for j in range(size)]
        forms = [list(row) for row in zip(*[list(space.residuals(e)) for e in units])]
        assert len(forms) == size - w
        kernel = _linalg.nullspace(forms, size, ctx)
        assert _rref(kernel)[0] == _rref(columns)[0]
        member = combine(columns, rand_coeffs(rng, ctx, w), ctx)
        assert all(r.is_zero() for r in space.residuals(cleared(member)[0]))
        checked += 1
    assert checked >= 3


def test_nullspace_without_rows_is_everything():
    ctx = Context(2, ("t",))
    assert _linalg.nullspace([], 2, ctx) == [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]


def rref_nullspace(rows, ncols, field):
    """The kernel basis read off the oracle's reduced echelon form."""
    red, pivots = _rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [field.zero()] * ncols
            v[fc] = field.one()
            for i, pc in enumerate(pivots):
                v[pc] = -red[i][fc]
            basis.append(v)
    return basis


@pytest.mark.parametrize("p,n", CASES)
def test_nullspace_matches_the_reduced_echelon_form(p, n):
    """nullspace divides d * RREF by d: its vectors are the oracle's, entry for entry."""
    ctx = Context(p, NAMES[:n])
    rng = random.Random(700 * p + n)
    seen = set()
    for trial in range(12):
        width = rng.randint(1, 3)
        # small shapes, as in the rank test, keep the oracle quick
        rows = [[ctx.rand_ratfunc(rng, max_deg=1, max_terms=2) for _ in range(width)]
                for _ in range(trial % 4)]
        if rows:
            rows[0] = [x / (ctx.gens()[0] + ctx.one()) for x in rows[0]]
            if trial % 2:
                # a combination of the others makes the rows dependent
                rows.append(combine(rows, rand_coeffs(rng, ctx, len(rows)), ctx))
                seen.add("dependent")
            if trial % 3 == 0:
                rows.insert(rng.randint(0, len(rows)), [ctx.zero()] * width)
                seen.add("zero row")
        else:
            seen.add("no rows")
        if any(not x.den.is_one() for row in rows for x in row):
            seen.add("denominators")
        got = _linalg.nullspace([cleared(row)[0] for row in rows], width, ctx)
        assert got == rref_nullspace(rows, width, ctx)
        for v in got:
            assert all(not sum((a * x for a, x in zip(row, v)), ctx.zero()) for row in rows)
        seen.add("trivial kernel" if not got else "kernel")
    assert seen == {"dependent", "zero row", "no rows", "denominators", "trivial kernel", "kernel"}


def test_nullspace_divides_each_row_by_its_content():
    """A factor common to a row's entries is divided out before the
    elimination, where it would enter every minor; the kernel is the oracle's."""
    ctx = Context(3, ("s", "t"))
    s, t = ctx.gens()
    one = ctx.one()
    f = s * s + t + one
    rows = [[f * s, f * t / (s + one), ctx.zero()], [t, s, one]]
    polys = [cleared(row)[0] for row in rows]
    assert _linalg._primitive(polys[0]) == [(s * (s + one)).num, t.num, ctx.const_poly(0)]
    assert _linalg._primitive(polys[1]) == [t.num, s.num, ctx.const_poly(1)]
    assert _linalg.nullspace(polys, 3, ctx) == rref_nullspace(rows, 3, ctx)


@pytest.mark.parametrize("p,n", CASES)
def test_rank_with_denominators_matches_rref(p, n):
    """The pivots of the rows cleared of denominators, whose number is the
    rank, are the oracle's, which reduces fractions."""
    ctx = Context(p, NAMES[:n])
    rng = random.Random(300 * p + n)
    ranks = set()
    fractions = 0
    for trial in range(10):
        # small shapes: _rref's fraction arithmetic can take half a minute on a
        # 4 x 4 matrix of such entries in three variables
        width = rng.randint(1, 3)
        rows = [[ctx.rand_ratfunc(rng, max_deg=1, max_terms=2) for _ in range(width)]
                for _ in range(rng.randint(1, 2))]
        rows[0] = [x / (ctx.gens()[0] + ctx.one()) for x in rows[0]]
        if trial % 2:
            # a combination of the others makes the rows dependent
            rows.append(combine(rows, rand_coeffs(rng, ctx, len(rows)), ctx))
        if trial % 3 == 0:
            rows.append([ctx.zero()] * width)
        fractions += any(not x.den.is_one() for row in rows for x in row)
        got = _linalg.pivots([cleared(row)[0] for row in rows])
        assert got == _rref(rows)[1]
        ranks.add(len(got) == min(len(rows), width))
    assert ranks == {True, False}  # both full and deficient rank were seen
    assert fractions >= 8


def test_column_space_entries_with_denominators():
    ctx = Context(3, ("s", "v"))
    s, v = ctx.gens()
    one = ctx.one()
    columns = [[one / (s + one), s, ctx.zero()], [v, one / (v * v), s / v]]
    space = ColumnSpace([cleared(c) for c in columns], ctx)
    assert space.ok
    b = combine(columns, [s / (v + one), v * v], ctx)
    nums, den = cleared(b)
    assert space.solve(nums, den) == [s / (v + one), v * v]
    # a scaled query gives the coordinates of the unscaled vector
    f = (s + one).num
    assert space.solve([x * f for x in nums], den * f) == [s / (v + one), v * v]
    assert not space.contains([ctx.const_poly(1), ctx.const_poly(0), ctx.const_poly(0)])


def test_column_space_without_columns_is_zero():
    ctx = Context(2, ("t",))
    zero, one = ctx.const_poly(0), ctx.const_poly(1)
    space = ColumnSpace([], ctx)
    assert space.ok
    assert space.solve([zero, zero], one) == []
    assert not space.contains([zero, one])
    assert list(space.residuals([zero, one])) == [zero, one]


def test_column_space_of_a_zero_column():
    """No pivot at all: d is 1, the span is {0} and the residuals are b itself."""
    ctx = Context(3, ("s", "v"))
    s, v = ctx.gens()
    zero, one = ctx.const_poly(0), ctx.const_poly(1)
    space = ColumnSpace([([zero] * 3, one)], ctx)
    assert not space.ok
    b = cleared([s, ctx.zero(), ctx.one() / (v + ctx.one())])[0]
    assert list(space.residuals(b)) == b
    assert not space.contains(b)
    assert space.solve([zero] * 3, one) == [ctx.zero()]


def test_column_space_on_matrices_that_stalled_fraction_reducing_elimination():
    """3 x 4 matrices over F_3(s,t,v) plus a zero row, on which the oracle's
    fraction-reducing elimination runs for seconds (28.7 s on one); spans
    and ranks must still come out right.

    Left out, because the gcd that reduces a large minor can still take
    minutes: nullspace, whose final division by d is such a gcd, and solve
    on the transposed matrices, whose columns are dependent, so that a
    solution entry is a ratio of 3 x 3 minors (over two minutes on the
    third matrix).
    """
    ctx = Context(3, NAMES)
    s = ctx.gens()[0]
    rng = random.Random(903)
    matrices = []
    for _ in range(40):
        rows = [[ctx.rand_ratfunc(rng, max_deg=1, max_terms=2) for _ in range(4)]
                for _ in range(3)]
        rows[0] = [x / (s + ctx.one()) for x in rows[0]]
        matrices.append(rows + [[ctx.zero()] * 4])
    pick = random.Random(904)
    verdicts = set()
    for rows in matrices:
        transposed = [list(c) for c in zip(*rows)]
        for columns in (rows, transposed, rows[:3]):
            space = ColumnSpace([cleared(c) for c in columns], ctx)
            assert space.ok == (rank(columns) == len(columns))
            verdicts.add(space.ok)
            coeffs = rand_coeffs(pick, ctx, len(columns))
            member = combine(columns, coeffs, ctx)
            nums, den = cleared(member)
            assert space.contains(nums)
            if columns is transposed:
                # the zero row leaves every column's last coordinate zero
                assert not space.contains(nums[:3] + [den])
                continue
            got = space.solve(nums, den)
            assert combine(columns, got, ctx) == member
            if space.ok:
                assert got == coeffs
    assert verdicts == {True, False}


def tower_gens(rng, ctx, k):
    """g_i = x_i * c^p + d^p for the first k variables: p-independent by construction."""
    out = []
    for x in ctx.gens()[:k]:
        c = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True, denominators=False)
        d = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2)
        out.append(x * frobenius(c) + frobenius(d))
    return out


def old_subfield_member(F, x):
    columns = [lambda_ambient(p_monomial(F.ctx, l, F.gens)) for l in range(F.dim_over_p)]
    sol = in_column_space(columns, lambda_ambient(x), F.ctx)
    return None if sol is None else LambdaCoords(tuple(sol), True)


def old_rspace_member(R, x):
    w = R.over.dim_over_p
    columns = [
        lambda_ambient(p_monomial(R.ctx, l, R.over.gens) * b) for b in R.basis for l in range(w)
    ]
    sol = in_column_space(columns, lambda_ambient(x), R.ctx)
    if sol is None:
        return None
    return [reconstruct(R.over.gens, sol[j * w : (j + 1) * w], R.ctx) for j in range(len(R.basis))]


def probes(rng, ctx, space):
    """Members of the space, and the same shifted by outside material."""
    out = []
    for _ in range(3):
        x = space.rand_element(rng)
        out.append(x)
        out.append(x + ctx.gens()[-1] * ctx.rand_ratfunc(rng, max_deg=1, max_terms=2))
        out.append(ctx.rand_ratfunc(rng, max_deg=2, max_terms=2))
    return out


@pytest.mark.parametrize("p,n", CASES)
def test_specs_match_fresh_elimination(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(7 * p + n)
    # keep p^k small so the per-query oracle stays quick
    k = 0 if p ** n > 27 else min(n - 1, 1)
    F = SubfieldSpec("F", tower_gens(rng, ctx, k), ctx)
    # add a basis element only while R stays a proper subspace of K
    last = ctx.gens()[-1]
    R = RSpaceSpec("R", F, [ctx.one(), last] if 2 * p ** k < p ** n else [ctx.one()])
    verdicts = set()
    for x in probes(rng, ctx, F):
        want = old_subfield_member(F, x)
        assert F.member(x) == want
        assert F.contains(x) == (want is not None)
        verdicts.add(("F", want is not None))
    for x in probes(rng, ctx, R):
        want = old_rspace_member(R, x)
        assert R.member(x) == want
        assert R.contains(x) == (want is not None)
        verdicts.add(("R", want is not None))
    assert len(verdicts) == 4, verdicts


@pytest.mark.parametrize("p,n", CASES)
def test_lambda_coords_matches_fresh_elimination(p, n):
    ctx = Context(p, NAMES[:n])
    rng = random.Random(11 * p + n)
    k = 1 if p == 5 else min(n, 2)
    tuples = [
        tower_gens(rng, ctx, k),
        [ctx.gens()[0], frobenius(ctx.gens()[0])],  # dependent
        [ctx.zero()],
        list(ctx.gens()) + [ctx.one()],  # too many entries
    ]
    for a in tuples:
        size = p ** len(a)
        independent = len(a) <= n and not any(x.is_zero() for x in a)
        if independent:
            columns = [lambda_ambient(p_monomial(ctx, i, a)) for i in range(size)]
            independent = rank([list(r) for r in zip(*columns)]) == size
        coeffs = [ctx.rand_ratfunc(rng, max_deg=1, max_terms=1, denominators=False)
                  for _ in range(size)]
        inside = reconstruct(a, coeffs, ctx) if independent else ctx.one()
        for b in (inside, ctx.rand_ratfunc(rng)):
            got = lambda_coords(a, b, ctx)
            sol = in_column_space(columns, lambda_ambient(b), ctx) if independent else None
            assert got.defined == (sol is not None)
            if sol is not None:
                assert got.coords == tuple(sol)
            else:
                assert got.coords == (ctx.zero(),) * size


def test_spec_constructors_reject_bad_generators():
    ctx = Context(2, ("t", "u"))
    t, u = ctx.gens()
    with pytest.raises(SpecError, match="zero generator"):
        SubfieldSpec("F", (t, ctx.zero()), ctx)
    with pytest.raises(SpecError, match="not p-independent"):
        SubfieldSpec("F", (t, t * frobenius(u)), ctx)
    with pytest.raises(SpecError, match="not p-independent"):
        SubfieldSpec("F", (t, u, t + u), ctx)
    # a p-th power has zero differential: the elimination finds no pivot at all
    for q in (2, 3):
        ctx_q = Context(q, ("t",))
        with pytest.raises(SpecError, match="not p-independent"):
            SubfieldSpec("F", (ctx_q.gens()[0] ** q,), ctx_q)
    kp = SubfieldSpec("Kp", (), ctx)
    with pytest.raises(SpecError, match="not linearly independent"):
        RSpaceSpec("R", kp, [ctx.one(), t, t + frobenius(u)])
    with pytest.raises(SpecError, match="not linearly independent"):
        RSpaceSpec("R", SubfieldSpec("F", (t,), ctx), [ctx.one(), t])
    with pytest.raises(SpecError, match="not linearly independent"):
        RSpaceSpec("R", kp, [ctx.one(), t, u, t * u, t + u * u * u])
