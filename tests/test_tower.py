import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

import pytest

from imperfect import _linalg
from imperfect.field import (Context, frobenius, over_one_den, parse_element, prod,
                             render_element)
from imperfect.pbasis import PBasis, is_p_independent, p_monomial
from imperfect.presets import Bundle, Config, preset, preset_names
from imperfect.tower import (
    IndifferentSpec,
    RSpaceSpec,
    SpecError,
    SubfieldSpec,
    TowerSpec,
    ValidationReport,
    _greedy_gens,
    _stabilizer_vectors,
    stabilizer_field,
    validate_indifferent,
    validate_tower,
)
from imperfect.unipotent import c2_datum
from oracles import cleared, lambda_ambient, rank, sparse


CTX = Context(2, ("t", "u", "v"))
CTX2 = Context(2, ("t", "u"))


def kp(ctx):
    return SubfieldSpec("Kp", (), ctx)


def test_subfield_membership():
    t, u, v = CTX.gens()
    F = SubfieldSpec("K1", (t,), CTX)
    assert F.dim_over_p == 2
    assert F.contains(CTX.one())
    assert F.contains(frobenius(u))
    assert F.contains(t)
    assert F.contains(t * frobenius(v) + frobenius(u + t))
    assert not F.contains(u)
    assert not F.contains(t * u)
    lam = F.member(t + frobenius(u) * t)
    assert lam is not None and lam.defined
    # coords multiply back out through the p-th power map
    assert lam[1] * lam[1] * t + lam[0] * lam[0] == t + frobenius(u) * t


def test_subfield_rand_element_stays_inside():
    t, u, v = CTX.gens()
    F = SubfieldSpec("K1", (t,), CTX)
    rng = random.Random(3)
    for _ in range(20):
        x = F.rand_element(rng, nonzero=True)
        assert not x.is_zero()
        assert F.contains(x)


def test_rspace_membership_and_evaluate():
    t, u, v = CTX.gens()
    R = RSpaceSpec("R1", kp(CTX), [CTX.one(), t, u])
    assert R.contains(CTX.one() + t)
    assert R.contains(frobenius(v) * t + frobenius(t + u) * u)
    assert not R.contains(v)
    assert not R.contains(t * u)
    coords = R.member(frobenius(v) * t + u)
    assert coords is not None
    assert R.evaluate(coords) == frobenius(v) * t + u
    rng = random.Random(5)
    for _ in range(20):
        assert R.contains(R.rand_element(rng))


def test_rspace_rejects_dependent_basis_on_member():
    t, u = CTX2.gens()
    # basis {1, t, u, tu} spans all of K over K^2; membership still works
    R = RSpaceSpec("big", kp(CTX2), [CTX2.one(), t, u, t * u])
    assert R.contains(CTX2.rand_ratfunc(random.Random(1)))


def test_stabilizer_field_simple():
    t, u, v = CTX.gens()
    R = RSpaceSpec("R1", kp(CTX), [CTX.one(), t, u])
    D = stabilizer_field(R)
    # multipliers of K^2 + tK^2 + uK^2 into itself are exactly K^2
    assert D.dim_over_p == 1
    assert D.contains(frobenius(t + u * v))
    assert not D.contains(t)


def test_stabilizer_field_catches_larger_field():
    t, u = CTX2.gens()
    R = RSpaceSpec("big", kp(CTX2), [CTX2.one(), t, u, t * u])
    D = stabilizer_field(R)
    # the span is the whole field, so everything stabilizes it
    assert D.dim_over_p == 4
    assert D.contains(t)
    assert D.contains(u)


def test_stabilizer_field_over_k1():
    t, u, v = CTX.gens()
    K1 = SubfieldSpec("K1", (t,), CTX)
    R = RSpaceSpec("R1", K1, [CTX.one(), u, v])
    D = stabilizer_field(R)
    assert D.dim_over_p == K1.dim_over_p
    assert D.contains(t)
    assert not D.contains(u)


# the stabilizer system as it was first written, kept as the oracle for the
# one built from R's own membership equations


def ambient(R):
    """The variable p-basis (x_1, ..., x_n) of R's field."""
    return PBasis(R.ctx.gens(), R.ctx)


def stacked_stabilizer_vectors(R):
    """Unknowns are the ambient coordinates of a together with, per basis
    element b_j, the coordinates of a*b_j in R's membership columns. The
    kernel of the stacked system, projected to the a-part, is the answer;
    the projection is injective because R's columns are independent."""
    ctx = R.ctx
    size = ctx.p ** ctx.n
    wcols = [
        lambda_ambient(p_monomial(ctx, l, R.over.gens) * b)
        for b in R.basis
        for l in range(R.over.dim_over_p)
    ]
    w = len(wcols)
    nbasis = len(R.basis)
    vars_gens = ctx.gens()
    rows = []
    zero = ctx.zero()
    for j, b in enumerate(R.basis):
        acols = [lambda_ambient(p_monomial(ctx, r, vars_gens) * b) for r in range(size)]
        for i in range(size):
            row = [acols[r][i] for r in range(size)]
            pad = [zero] * (nbasis * w)
            for l in range(w):
                pad[j * w + l] = -wcols[l][i]
            rows.append(row + pad)
    kernel = _linalg.nullspace([cleared(row)[0] for row in rows], size + nbasis * w, ctx)
    return [v[:size] for v in kernel]


def rand_rspace(rng, ctx, denominators=False):
    """A random R-space over a random subfield F, often a module over a
    field between F and K, with at most four basis elements."""
    while True:
        pool = [ctx.rand_ratfunc(rng, 2, 2, nonzero=True, denominators=denominators)
                for _ in range(3)]
        pool += list(ctx.gens())
        rng.shuffle(pool)
        gens = []
        for a in pool:
            if len(gens) < ctx.n and is_p_independent([a], over_gens=gens, ctx=ctx):
                gens.append(a)
        k = rng.randint(0, len(gens))
        F = SubfieldSpec("F", gens[:rng.randint(0, k)], ctx)
        extra = gens[len(F.gens):k]  # the span is a module over F[extra]
        monomials = [p_monomial(ctx, l, extra) for l in range(ctx.p ** len(extra))]
        cs = [ctx.one()] + [ctx.rand_ratfunc(rng, 2, 2, nonzero=True, denominators=denominators)
                            for _ in range(rng.randint(1, 2))]
        basis = [m * c for c in cs for m in monomials]
        if len(basis) > 4:
            continue
        try:
            return RSpaceSpec("R", F, basis)
        except SpecError:
            continue


SHAPES = [(2, ("t", "u")), (2, ("t", "u", "v")), (3, ("s", "v")), (5, ("t", "u"))]


def _same_span(a, b):
    """Whether two lists of vectors span one space: rank A = rank B = rank(A + B)."""
    return rank(a) == rank(b) == rank(a + b)


def _preset_rspaces():
    for name in preset_names():
        cfg = Config.load(preset(name))
        yield from cfg.rspaces.values()
        if cfg.indifferent is not None:
            yield cfg.indifferent.L0
            yield cfg.indifferent.K0


def _whole_field_rspaces():
    """R-spaces that span all of K, so that R has no membership equations."""
    t, u = CTX2.gens()
    ctx3 = Context(3, ("s", "v"))
    s_, v = ctx3.gens()
    ctx5 = Context(5, ("t",))
    (x,) = ctx5.gens()
    return [
        RSpaceSpec("all2", kp(CTX2), [CTX2.one(), t, u, t * u]),
        RSpaceSpec("all3", SubfieldSpec("K1", (s_,), ctx3), [ctx3.one(), v, v * v / (s_ + v)]),
        RSpaceSpec("all5", kp(ctx5), [ctx5.one()] + [x ** e for e in range(1, 5)]),
    ]


def test_a_subfield_builds_its_coordinate_system_once(monkeypatch):
    built = []

    class CountedColumnSpace(_linalg.ColumnSpace):
        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(_linalg, "ColumnSpace", CountedColumnSpace)
    t, u, v = CTX.gens()
    F = SubfieldSpec("F", (t + u, t * v), CTX)
    assert built == [2]  # the Jacobian span, which validates the generators
    rng = random.Random(8)
    xs = [F.rand_element(rng, nonzero=True) for _ in range(5)]
    assert all(F.contains(x) for x in xs) and not F.contains(u)
    assert built == [2]
    assert all(F.member(x) is not None for x in xs)
    assert F.member(u) is None
    assert built == [2, 4]  # and the p^m system, once for all queries


def test_stabilizer_vectors_match_the_stacked_system():
    rng = random.Random(11)
    spaces = list(_preset_rspaces()) + _whole_field_rspaces()
    for trial in range(16):
        p, names = SHAPES[trial % len(SHAPES)]
        spaces.append(rand_rspace(rng, Context(p, names), denominators=trial % 3 == 1))
    assert {R.ctx.p for R in spaces} == {2, 3, 5}
    assert any(not b.den.is_one() for R in spaces for b in R.basis)
    for R in spaces:
        got = _stabilizer_vectors(R, ambient(R))
        assert _same_span(got, stacked_stabilizer_vectors(R)), R
    for R in _whole_field_rspaces():
        assert len(_stabilizer_vectors(R, ambient(R))) == R.ctx.p ** R.ctx.n


def test_stabilizer_rows_for_one_basis_element_share_one_factor():
    """Bases with denominators, on which the stabilizer system goes wrong when
    its rows take each x^r * b reduced: each unknown's column is then scaled
    by its own denominator, and the kernel changes."""
    t, u, v = CTX.gens()
    ctx3 = Context(3, ("s", "t"))
    s_, t3 = ctx3.gens()
    F2 = SubfieldSpec("F", (t + u,), CTX)
    spaces = [
        RSpaceSpec("R", F2, [CTX.one(), v / t]),
        RSpaceSpec("R", F2, [CTX.one(), v / (t * u)]),
        RSpaceSpec("R", SubfieldSpec("F", (s_ + t3,), ctx3), [ctx3.one(), t3 / s_]),
    ]
    for R in spaces:
        assert _same_span(_stabilizer_vectors(R, ambient(R)), stacked_stabilizer_vectors(R)), R
    assert [render_element(g) for g in stabilizer_field(spaces[0]).gens] == ["u+t", "t*v"]


def test_stabilizer_generators_do_not_depend_on_the_basis_order():
    t, u = CTX2.gens()
    # the stacked system gave (t, t*u) or (t, t^2*u) depending on the order
    R = RSpaceSpec("R", SubfieldSpec("K1", (t,), CTX2), [CTX2.one(), t * t * u])
    spaces = [R]
    rng = random.Random(4)
    for trial in range(12):
        p, names = SHAPES[trial % len(SHAPES)]
        spaces.append(rand_rspace(rng, Context(p, names), denominators=trial % 2 == 1))
    for R in spaces:
        seen = set()
        for basis in itertools.permutations(R.basis):
            D = stabilizer_field(RSpaceSpec("R", R.over, basis))
            seen.add(tuple(render_element(g) for g in D.gens))
        assert len(seen) == 1, (R, seen)


def test_stable_under_matches_the_stabilizer_field():
    rng = random.Random(8)
    spaces = list(_preset_rspaces()) + _whole_field_rspaces()
    for trial in range(12):
        p, names = SHAPES[trial % len(SHAPES)]
        spaces.append(rand_rspace(rng, Context(p, names), denominators=trial % 2 == 1))
    seen = set()
    for R in spaces:
        ctx = R.ctx
        D = stabilizer_field(R)
        fs = list(ctx.gens()) + [x * y for x in ctx.gens() for y in ctx.gens()]
        fs += list(D.gens) + [g + ctx.one() for g in D.gens]
        fs += [R.rand_element(rng, nonzero=True) for _ in range(3)]
        fs += [D.rand_element(rng, nonzero=True) for _ in range(3)]
        fs += [ctx.rand_ratfunc(rng, nonzero=True) for _ in range(3)]
        for f in fs:
            got = R.stable_under(f)
            assert got == D.contains(f), (R, f)
            seen.add(got)
    assert seen == {True, False}


def test_scalar_field_lies_in_the_stabilizer():
    """validate_tower's condition (1) compares degrees only: an R-space is a
    space over its scalar field, so that field always lies in its stabilizer."""
    rng = random.Random(21)
    spaces = list(_preset_rspaces()) + _whole_field_rspaces()
    for trial in range(12):
        p, names = SHAPES[trial % len(SHAPES)]
        spaces.append(rand_rspace(rng, Context(p, names), denominators=trial % 2 == 1))
    assert any(R.over.gens for R in spaces)
    for R in spaces:
        D = stabilizer_field(R)
        assert all(D.contains(g) for g in R.over.gens), R


def test_validate_tower_positive_presets():
    for name in ("tower-simple", "tower-over-k1"):
        cfg = Config.load(preset(name))
        report = validate_tower(cfg.tower)
        assert report.ok, [c.name for c in report.failed()]


def test_validate_tower_dimensions_reported():
    cfg = Config.load(preset("tower-simple"))
    report = validate_tower(cfg.tower)
    # three variables at p = 2
    assert report.dims["level1.[K:K1]"] == 8
    assert report.dims["level1.dim_R_over_K1"] == 3


def test_validate_tower_negative_preset():
    cfg = Config.load(preset("tower-bad"))
    report = validate_tower(cfg.tower)
    assert not report.ok
    failed = {c.name for c in report.failed()}
    assert "level1.independent-basis" in failed


def test_validate_tower_two_levels():
    t, u, v = CTX.gens()
    Kp = kp(CTX)
    K1 = SubfieldSpec("K1", (t, u), CTX)
    # {1, t, u} is not multiplicatively closed, so its stabilizer stays at K^2;
    # the top level over K^2(t, u) is the trivial line, stabilized by exactly K1
    R1 = RSpaceSpec("R1", Kp, [CTX.one(), t, u])
    R2 = RSpaceSpec("R2", K1, [CTX.one()])
    spec = TowerSpec(CTX, [Kp, K1], [R1, R2])
    report = validate_tower(spec)
    assert report.ok, [c.to_dict() for c in report.failed()]
    assert report.dims["level2.[K:K2]"] == 2


def test_validate_tower_broken_chain():
    t, u, v = CTX.gens()
    Kp = kp(CTX)
    K1 = SubfieldSpec("K1", (t,), CTX)
    R1 = RSpaceSpec("R1", Kp, [CTX.one(), u])  # u never lands in K1
    R2 = RSpaceSpec("R2", K1, [CTX.one(), u])
    spec = TowerSpec(CTX, [Kp, K1], [R1, R2])
    report = validate_tower(spec)
    failed = {c.name for c in report.failed()}
    assert "level1.chain" in failed


def sample_independent_subset(R, rng, k):
    """k random elements of R with {1} together with them independent over the
    scalar field, or None when the draw came out dependent. Drawn in
    coordinates, so that independence is a rank test on the coordinate
    vectors and no membership solve is needed."""
    ctx = R.ctx
    one_row = [ctx.one() if b.is_one() else ctx.zero() for b in R.basis]
    coordvecs = [R.rand_coords(rng) for _ in range(k)]
    rows = [sparse(over_one_den([(x.num, x.den) for x in row])[0])
            for row in [one_row] + coordvecs]
    if len(_linalg.pivots(rows, len(R.basis), ctx)) != k + 1:
        return None
    return [R.evaluate(cv) for cv in coordvecs]


def sampled_dependent_subset(R, rng, sample_count):
    """Condition (2) by sampling, as validate_tower once decided it: up to
    sample_count subsets of R independent over its scalar field, each tested
    for p-independence over it. The first p-dependent one, or None."""
    tried = 0
    draws = 0
    max_size = min(3, len(R.basis) - 1)
    while max_size > 0 and tried < sample_count and draws < 40 * sample_count:
        draws += 1
        k = rng.randint(1, max_size)
        subset = sample_independent_subset(R, rng, k)
        if subset is None:
            continue
        tried += 1
        if not is_p_independent(subset, over_gens=R.over.gens, ctx=R.ctx):
            return subset
    return None


ORACLE_CONTEXTS = [Context(2, ("t", "u")), Context(2, ("t", "u", "v")),
                   Context(3, ("s", "v")), Context(3, ("s", "u", "v"))]


TOWER_DRAWS = 200


def test_the_basis_check_decides_condition_two():
    """On random one-level towers `independent-samples` has the verdict of
    `independent-basis`. A failing tower names a witness W, basis elements
    other than 1 that are p-dependent over the scalar field while every
    shorter prefix of W is not. The sampled oracle finds no dependent subset
    where the basis check passes, and no report depends on `seed` or
    `sample_count`, which validate_tower ignores."""
    rng = random.Random(7)
    seen = Counter()
    for n in range(TOWER_DRAWS):
        ctx = ORACLE_CONTEXTS[n % len(ORACLE_CONTEXTS)]
        R = rand_rspace(rng, ctx)
        seed = rng.randrange(2 ** 32)
        spec = TowerSpec(ctx, [R.over], [R])
        report = validate_tower(spec)
        checks = {c.name: c for c in report.checks}
        basis = checks["level1.independent-basis"]
        samples = checks["level1.independent-samples"]
        assert samples.status == basis.status, R
        sampled = sampled_dependent_subset(R, random.Random(seed), 16)
        if basis.status == "pass":
            assert sampled is None, R
        else:
            rest = {render_element(b): b for b in R.basis if not b.is_one()}
            assert samples.detail.startswith("dependent subset: {"), samples.detail
            names = samples.detail[len("dependent subset: {"):-1].split(", ")
            assert set(names) <= set(rest), (R, samples.detail)
            W = [rest[name] for name in names]
            assert not is_p_independent(W, over_gens=R.over.gens, ctx=ctx), (R, samples.detail)
            assert all(is_p_independent(W[:k], over_gens=R.over.gens, ctx=ctx)
                       for k in range(len(W))), (R, samples.detail)
        want = report.to_dict()
        for kw in [{"seed": s} for s in range(10)] + [{"sample_count": k} for k in (1, 64)]:
            assert validate_tower(spec, **kw).to_dict() == want, (R, kw)
        seen[basis.status] += 1
    # both verdicts occur often (182 passes and 18 failures)
    assert seen["pass"] >= TOWER_DRAWS // 3, seen
    assert seen["fail"] >= 10, seen


@dataclass
class DerivedFields:
    """Stabilizer fields per chain level; the top field is a relabeled copy."""

    fields: List[SubfieldSpec]
    tilde: SubfieldSpec
    tilde_is_relabeled = True

    def __iter__(self):
        return iter(self.fields)


def derive_fields(chain: Sequence[RSpaceSpec]) -> DerivedFields:
    """Stabilizer fields of a multiplicative chain R_0 * R_1 <= R_1, etc.

    The relabeled copy in `tilde` stands for the p-th root of the first
    level's field: same generators, with the ambient data understood through
    the p-th power embedding, never through new transcendentals.
    """
    if not chain:
        raise SpecError("empty chain")
    for i in range(1, len(chain)):
        prev, cur = chain[i - 1], chain[i]
        for b in prev.basis:
            for b2 in cur.basis:
                if not cur.contains(b * b2):
                    raise SpecError(
                        f"product {render_element(b)} * {render_element(b2)} escapes {cur.name}",
                        where=f"level {i + 1}",
                    )
    fields = [stabilizer_field(R) for R in chain]
    base = fields[0]
    tilde = SubfieldSpec(base.name + "~", base.gens, base.ctx)
    return DerivedFields(fields=fields, tilde=tilde)


def test_derive_fields_chain():
    t, u, v = CTX.gens()
    R1 = RSpaceSpec("R1", kp(CTX), [CTX.one(), t])
    R2 = RSpaceSpec("R2", kp(CTX), [CTX.one(), t, u, t * u])
    derived = derive_fields([R1, R2])
    fields = list(derived)
    # K^2 + tK^2 is the field K^2(t), its own stabilizer
    assert fields[0].dim_over_p == 2
    assert fields[0].contains(t)
    assert fields[1].dim_over_p == 4
    assert derived.tilde.gens == fields[0].gens
    assert derived.tilde_is_relabeled


def test_derive_fields_rejects_nonchain():
    t, u, v = CTX.gens()
    R1 = RSpaceSpec("R1", kp(CTX), [CTX.one(), t])
    R2 = RSpaceSpec("R2", kp(CTX), [CTX.one(), u])
    with pytest.raises(SpecError):
        derive_fields([R1, R2])
    with pytest.raises(SpecError):
        derive_fields([])


def test_indifferent_positive_presets():
    for name in ("indifferent-weak", "indifferent-proper"):
        cfg = Config.load(preset(name))
        report = validate_indifferent(cfg.indifferent)
        assert report.ok, [c.to_dict() for c in report.failed()]


def test_indifferent_requires_char_two():
    ctx3 = Context(3, ("s", "v"))
    with pytest.raises(Exception):
        IndifferentSpec(ctx3, [ctx3.one()], (), [ctx3.one()])


def test_indifferent_detects_escape():
    t, u = CTX2.gens()
    # L0 not inside K0: t is not a K^2-combination of {1, u}
    spec = IndifferentSpec(CTX2, [CTX2.one(), t], (), [CTX2.one(), u])
    report = validate_indifferent(spec)
    assert not report.ok
    failed = {c.name for c in report.failed()}
    assert "L0-inside-K0" in failed


def test_indifferent_detects_unstable_k0():
    t, u = CTX2.gens()
    # t*u escapes span{1, t, u}, so K0 is not a module over K^2[t]
    spec = IndifferentSpec(CTX2, [CTX2.one(), t], (), [CTX2.one(), t, u])
    report = validate_indifferent(spec)
    assert not report.ok
    failed = {c.name for c in report.failed()}
    assert "K0-stable-under-L0-field" in failed


def subset_products(xs, ctx):
    out = [ctx.one()]
    for x in xs:
        out += [y * x for y in out]
    return [x for x in out if not x.is_one()]


def validate_indifferent_by_products(spec):
    """The indifferent validator that asks every condition by membership
    queries: 1 in L0, squares of K0 times L0, and the square-free products
    of L0's basis times K0's basis."""
    ctx = spec.ctx
    report = ValidationReport(subject="indifferent")

    report.add("L0.contains-one", spec.L0.contains(ctx.one()))

    bad = [b for b in spec.L0.basis if not spec.K0.contains(b)]
    report.add(
        "L0-inside-K0",
        not bad,
        "" if not bad else "escaped: " + ", ".join(render_element(x) for x in bad),
    )

    bad_pairs = []
    squares = [b * b for b in spec.K0.basis]
    square_products = squares + [
        squares[i] * squares[j]
        for i in range(len(squares))
        for j in range(i + 1, len(squares))
    ]
    for sq in square_products:
        for l in spec.L0.basis:
            if not spec.L0.contains(sq * l):
                bad_pairs.append((sq, l))
    report.add(
        "L0-stable-under-K0-squares",
        not bad_pairs,
        ""
        if not bad_pairs
        else "; ".join(
            f"{render_element(s)} * {render_element(l)} escapes L0" for s, l in bad_pairs[:3]
        ),
    )

    bad_pairs = []
    for m in subset_products(spec.L0.basis, ctx):
        for b in spec.K0.basis:
            if not spec.K0.contains(m * b):
                bad_pairs.append((m, b))
    report.add(
        "K0-stable-under-L0-field",
        not bad_pairs,
        ""
        if not bad_pairs
        else "; ".join(
            f"{render_element(m)} * {render_element(b)} escapes K0" for m, b in bad_pairs[:3]
        ),
    )

    if not spec.weak:
        gens = _greedy_gens(spec.E0.gens + spec.K0.basis, ctx)
        report.add(
            "K0-generates-K",
            len(gens) == ctx.n,
            f"K^2[K0] has p-degree {len(gens)} of {ctx.n}",
        )

    report.dims["dim_L0_over_K2"] = len(spec.L0.basis)
    report.dims["dim_K0_over_E0"] = len(spec.K0.basis)
    report.dims["[E0:K2]"] = spec.E0.dim_over_p
    return report


def rand_indifferent_specs(rng, count):
    """`count` indifferent specs over F_2(t,u) or F_2(t,u,v), weak and
    proper, with bases of 1 to 3 sums of square-free monomials; draws that
    the constructor rejects are skipped."""
    out = []
    while len(out) < count:
        ctx = rng.choice((CTX2, CTX))
        gens = ctx.gens()

        def element():
            monomials = {tuple(rng.random() < 0.5 for _ in gens) for _ in range(rng.randint(1, 2))}
            return sum((prod((g for g, e in zip(gens, es) if e), ctx.one()) for es in monomials),
                       ctx.zero())

        def basis():
            return [ctx.one()] + [element() for _ in range(rng.randint(0, 2))]

        L0 = basis()
        K0 = L0 + [element()] if rng.random() < 0.5 else basis()
        E0 = [rng.choice(gens)] if rng.random() < 0.3 else []
        try:
            out.append(IndifferentSpec(ctx, L0, E0, K0, weak=rng.random() < 0.5))
        except SpecError:
            continue
    return out


def test_validate_indifferent_matches_the_product_checks():
    seen = Counter()
    for spec in rand_indifferent_specs(random.Random(1), 220):
        new, old = validate_indifferent(spec), validate_indifferent_by_products(spec)
        assert [(c.name, c.status) for c in new.checks] == [
            (c.name, c.status) for c in old.checks
        ], spec
        if old.ok:
            assert new.to_dict() == old.to_dict()
        stable = next(c for c in new.checks if c.name == "K0-stable-under-L0-field")
        try:
            c2_datum(spec.ctx, spec.K0, spec.L0)
            closed = True
        except SpecError:
            closed = False
        assert closed == (stable.status == "pass"), spec
        seen[spec.weak, old.ok, stable.status] += 1
    assert {weak for weak, _, _ in seen} == {True, False}
    assert sum(n for (_, ok, _), n in seen.items() if ok) >= 20, seen
    assert sum(n for (_, _, status), n in seen.items() if status == "fail") >= 20, seen


def test_stable_under_matches_the_basis_loop():
    def old_loop(R, f):
        for b in R.basis:
            if not R.contains(f * b) or not R.contains(b / f):
                return False
        return True

    rng = random.Random(5)
    spec = Bundle.load("indifferent-proper").cfg.indifferent
    ctx = spec.ctx
    t, u, v = ctx.gens()
    spaces = [spec.K0, spec.L0, RSpaceSpec("R1", kp(ctx), [ctx.one(), t, u])]
    seen = set()
    for R in spaces:
        fs = [t, u, v, t * t, u * v, t + ctx.one(), (t * t + v * v) / (u * u)]
        fs += [R.rand_element(rng, nonzero=True) for _ in range(4)]
        fs += [R.over.rand_element(rng, nonzero=True) for _ in range(4)]
        for f in fs:
            got = R.stable_under(f)
            assert got == old_loop(R, f)
            seen.add(got)
        assert not R.stable_under(ctx.zero())  # 0 * R = {0}
    assert seen == {True, False}


def test_escapes_runs_the_basis_outside_and_stops_at_what_is_asked():
    ctx = CTX2
    one, (t, u) = ctx.one(), ctx.gens()
    K0 = RSpaceSpec("K0", kp(ctx), [one, t, u])
    # t^2 and u^2 lie in K^2, and t*u is the one product that leaves K0
    assert list(K0.escapes([one, t, u])) == [(t, u), (u, t)]
    asked = []
    real = K0.contains
    K0.contains = lambda x: asked.append(x) or real(x)
    assert next(K0.escapes([one, t, u])) == (t, u)
    assert asked == [one, t, u, t, t * t, t * u]


def test_a_subfield_is_stable_exactly_under_its_nonzero_elements():
    rng = random.Random(6)
    ctx = CTX
    t, u, v = ctx.gens()
    for F in (kp(ctx), SubfieldSpec("K1", (t,), ctx), SubfieldSpec("K2", (t, u * v), ctx)):
        as_space = RSpaceSpec("F", F, [ctx.one()])
        fs = [ctx.zero(), ctx.one(), t, u, t * u * v, t * t + v * v, t / (u * u + ctx.one())]
        fs += [F.rand_element(rng, nonzero=True) for _ in range(4)]
        seen = set()
        for f in fs:
            assert F.stable_under(f) == as_space.stable_under(f), (F, f)
            seen.add(F.stable_under(f))
        assert seen == {True, False}


def test_indifferent_proper_requires_full_degree():
    t, u, v = CTX.gens()
    # K^2[t, u] has degree 4 < 8, so the proper form fails while weak passes
    weak = IndifferentSpec(CTX, [CTX.one(), t], (t,), [CTX.one(), u], weak=True)
    assert validate_indifferent(weak).ok
    proper = IndifferentSpec(CTX, [CTX.one(), t], (t,), [CTX.one(), u], weak=False)
    report = validate_indifferent(proper)
    failed = {c.name for c in report.failed()}
    assert "K0-generates-K" in failed


def test_config_roundtrip_and_errors():
    raw = preset("tower-simple")
    cfg = Config.load(raw)
    assert cfg.ctx.p == 2
    assert "R1" in cfg.rspaces
    assert cfg.tower is not None
    with pytest.raises(SpecError):
        Config.load({"vars": ["t"]})  # no p
    bad = {"p": 2, "vars": ["t", "u"],
           "rspaces": [{"name": "R", "over": "missing", "basis": ["1"]}]}
    with pytest.raises(SpecError):
        Config.load(bad)


def test_all_presets_parse():
    for name in preset_names():
        cfg = Config.load(preset(name))
        assert cfg.ctx.p in (2, 3)


def test_bundle_loads_named_preset():
    b = Bundle.load("timmesfeld-codim1")
    data = b.timmesfeld()
    assert data.has_codim1
    assert data.K_L.contains(b.ctx.var("t"))
    g2 = Bundle.load("g2")
    datum = g2.g2()
    assert datum.nslots == 6
