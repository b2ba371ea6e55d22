import random

import pytest

from imperfect.cli import _Usage, _mat2
from imperfect.field import Context, FieldError, frobenius
from imperfect.presets import Bundle
from imperfect.rank1 import (
    Cell,
    Mat2,
    TimmesfeldData,
    TorusWitness,
    Upper,
    bruhat2,
    factor_codim1,
    field_structure,
    gen,
    membership_sl2L,
    mult_bruhat,
    perfectness_witness,
    rand_L_element,
    rand_L_word,
    torus_membership,
)
from imperfect.tower import RSpaceSpec, SpecError, SubfieldSpec


CTX2 = Context(2, ("t", "u"))
CTX3 = Context(3, ("s", "v"))
CTXV = Context(2, ("t", "u", "v"))


def rand_sl2(ctx, rng, length=6, max_deg=2, max_terms=3, denominators=True):
    g = Mat2.identity(ctx)
    for _ in range(rng.randint(1, length)):
        kind = rng.choice(["a", "b", "h"])
        c = ctx.rand_ratfunc(rng, max_deg=max_deg, max_terms=max_terms,
                             nonzero=(kind == "h"), denominators=denominators)
        g = g * gen(kind, c, ctx)
    if rng.random() < 0.3:
        g = g * gen("w", None, ctx)
    return g


def codim1_data():
    return Bundle.load("timmesfeld-codim1").timmesfeld()


def plain_data():
    return Bundle.load("timmesfeld-plain").timmesfeld()


def test_generators_have_det_one():
    t = CTX2.var("t")
    for g in (gen("a", t, CTX2), gen("b", t, CTX2), gen("h", t, CTX2),
              gen("w", None, CTX2)):
        assert g.a * g.d - g.b * g.c == CTX2.one()
    with pytest.raises(FieldError):
        gen("h", CTX2.zero(), CTX2)


def det_test_matrices(ctx, rng):
    """Entry quadruples with denominators and zero entries; about half have det 1."""
    def elem(nonzero=True):
        return ctx.rand_ratfunc(rng, max_deg=2, max_terms=3, nonzero=nonzero)

    zero, one = ctx.zero(), ctx.one()
    for _ in range(12):
        a, b, c = elem(), elem(), elem()
        yield a, b, c, (one + b * c) / a
        yield zero, b, -b.inverse(), c
        yield a, zero, c, a.inverse()
        yield a, b, zero, a.inverse()
        # det != 1: a perturbed entry, a scalar multiple, a random matrix
        yield a, b, c, (one + b * c) / a + elem()
        yield a, zero, zero, ctx.scalar(2) / a
        yield zero, b, c, elem(nonzero=False)
        yield elem(nonzero=False), elem(nonzero=False), elem(nonzero=False), elem(nonzero=False)
    yield zero, zero, zero, zero
    yield zero, one, one, zero  # det -1, which is 1 for p = 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mat2_det_check_matches_reduced_fractions(p):
    ctx = Context(p, ("t", "u"))
    rng = random.Random(700 + p)
    accepted = rejected = 0
    for a, b, c, d in det_test_matrices(ctx, rng):
        want = a * d - b * c == ctx.one()
        entries = ";".join(map(str, (a, b, c, d)))
        if want:
            g = Mat2(ctx, a, b, c, d)
            assert _mat2(entries, ctx) == g
            accepted += 1
        else:
            with pytest.raises(FieldError, match="determinant"):
                Mat2(ctx, a, b, c, d)
            with pytest.raises(FieldError, match="determinant"):
                _mat2(entries, ctx)
            rejected += 1
    assert accepted >= 40 and rejected >= 40
    with pytest.raises(FieldError, match="mixed"):
        Mat2(ctx, ctx.one(), Context(p, ("x",)).zero(), ctx.zero(), ctx.one())


def det_is_one(g):
    """a*d - b*c == 1, computed in reduced fractions."""
    return g.a * g.d - g.b * g.c == g.ctx.one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_words_of_generators_stay_in_sl2(p):
    """Products, inverses, the identity and the generators skip the
    constructor's determinant check; here it runs on random words."""
    ctx = Context(p, ("t", "u"))
    rng = random.Random(800 + p)
    assert det_is_one(Mat2.identity(ctx))
    kinds = set()
    for _ in range(20):
        g = Mat2.identity(ctx)
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice("abhw")
            kinds.add(kind)
            t = None if kind == "w" else ctx.rand_ratfunc(
                rng, max_deg=2, max_terms=2, nonzero=kind == "h")
            x = gen(kind, t, ctx)
            assert det_is_one(x) and det_is_one(x.inverse())
            g = g * x if rng.random() < 0.5 else x.inverse() * g
            if rng.random() < 0.2:
                g = g.inverse()
            assert det_is_one(g)
        assert g * g.inverse() == Mat2.identity(ctx)
        assert Mat2(ctx, g.a, g.b, g.c, g.d) == g
    assert kinds == set("abhw")


def test_generators_reject_elements_of_another_context():
    s = CTX3.var("s")
    for kind in ("a", "b", "h"):
        with pytest.raises(FieldError, match="mixed field contexts"):
            gen(kind, s, CTX2)
        # an equal context is the same field
        t = Context(2, ("t", "u")).var("t")
        assert gen(kind, t, CTX2) == gen(kind, CTX2.var("t"), CTX2)
    with pytest.raises(SpecError):
        gen("x", s, CTX2)


def test_generators_other_than_w_need_an_element():
    ctx = Context(2, ("t",))
    for kind in ("a", "b", "h"):
        with pytest.raises(FieldError, match=r"\(t\) needs"):
            gen(kind, None, ctx)


def test_weyl_relations():
    for ctx in (CTX2, CTX3):
        one = ctx.one()
        w = gen("w", None, ctx)
        minus_id = Mat2(ctx, -one, ctx.zero(), ctx.zero(), -one)
        assert w * w == minus_id
        t = ctx.gens()[0]
        # conjugation by w swaps the root groups
        left = w * gen("a", t, ctx) * w.inverse()
        assert left == gen("b", -t, ctx)


def test_sl2_defining_identities():
    # w = a(1) b(-1) a(1); a(t) b(-1/t) a(t) = h(t) w; and the
    # reflection of b(-1/t) through a(-t) and h(t)w
    for ctx in (CTX2, CTX3):
        rng = random.Random(ctx.p)
        for _ in range(25):
            t = ctx.rand_ratfunc(rng, nonzero=True)
            n_t = gen("a", t, ctx) * gen("b", -t.inverse(), ctx) * gen("a", t, ctx)
            assert n_t == gen("h", t, ctx) * gen("w", None, ctx)
            lhs = gen("a", -t, ctx) * n_t * gen("a", -t, ctx)
            assert lhs == gen("b", -t.inverse(), ctx)
        one = ctx.one()
        assert gen("w", None, ctx) == (
            gen("a", one, ctx) * gen("b", -one, ctx) * gen("a", one, ctx))


def test_bruhat_of_special_elements():
    form = bruhat2(Mat2.identity(CTX2))
    assert isinstance(form, Upper)
    assert form.tau.is_one() and form.s.is_zero()
    form = bruhat2(gen("w", None, CTX2))
    assert isinstance(form, Cell)
    assert form.tau.is_one() and form.s1.is_zero() and form.s2.is_zero()
    t = CTX2.var("t")
    form = bruhat2(gen("b", t, CTX2))
    assert isinstance(form, Cell)


def test_bruhat_roundtrip_random():
    for ctx in (CTX2, CTX3):
        rng = random.Random(20 + ctx.p)
        for _ in range(60):
            g = rand_sl2(ctx, rng)
            form = bruhat2(g)
            assert form.to_matrix(ctx) == g


def test_bruhat_parse_example():
    g = _mat2("1;1;1;0", CTX2)
    form = bruhat2(g)
    assert isinstance(form, Cell)
    assert form.tau.is_one()
    assert form.s1.is_one()
    assert form.s2.is_zero()
    # a wrong entry count is the CLI's usage error
    for text in ("1;1;1", "1;1;1;0;0"):
        with pytest.raises(_Usage, match="4 semicolon-separated entries"):
            _mat2(text, CTX2)


def test_mult_bruhat_matches_matrices():
    for ctx in (CTX2, CTX3):
        st = field_structure(ctx)
        rng = random.Random(7 * ctx.p)
        for i in range(50):
            # denominators blow up intermediate gcds; sample them sparsely
            dens = i % 25 == 0
            g1 = rand_sl2(ctx, rng, length=3, max_deg=1, max_terms=2,
                          denominators=dens)
            g2 = rand_sl2(ctx, rng, length=3, max_deg=1, max_terms=2,
                          denominators=dens)
            prod = mult_bruhat(bruhat2(g1), bruhat2(g2), st)
            assert prod.to_matrix(ctx) == g1 * g2


def test_mult_bruhat_cell_collapse():
    # both big cells with cancelling middle term exercise w a(0) w = -1
    st = field_structure(CTX3)
    w = bruhat2(gen("w", None, CTX3))
    prod = mult_bruhat(w, w, st)
    assert isinstance(prod, Upper)
    assert prod.to_matrix(CTX3) == gen("w", None, CTX3) * gen("w", None, CTX3)


def test_timmesfeld_data_validation():
    t, u, v = CTXV.gens()
    Kp = SubfieldSpec("Kp", (), CTXV)
    K1 = SubfieldSpec("K1", (t,), CTXV)
    L = RSpaceSpec("L", Kp, [CTXV.one(), t, u])
    # codim-1 data needs both halves
    with pytest.raises(SpecError):
        TimmesfeldData(L, K1, None)
    # split coordinate must avoid the subfield
    with pytest.raises(SpecError):
        TimmesfeldData(L, K1, t)
    # split coordinate must lie in L
    with pytest.raises(SpecError):
        TimmesfeldData(L, K1, v)
    # dimensions must agree
    big = RSpaceSpec("L", Kp, [CTXV.one(), t, u, v])
    with pytest.raises(SpecError):
        TimmesfeldData(big, K1, u)
    data = TimmesfeldData(L, K1, u)
    assert data.has_codim1
    assert not TimmesfeldData(L).has_codim1


def test_timmesfeld_rejects_odd_characteristic():
    s = CTX3.var("s")
    Kp = SubfieldSpec("Kp", (), CTX3)
    L = RSpaceSpec("L", Kp, [CTX3.one(), s])
    with pytest.raises(FieldError):
        TimmesfeldData(L)


def test_factor_codim1_exact():
    data = codim1_data()
    ctx = data.L.ctx
    rng = random.Random(31)
    for _ in range(60):
        # elements of K1[u] = K^2(t, u), built from the split directly
        alpha = data.K1.rand_element(rng)
        beta = data.K1.rand_element(rng)
        x = alpha + beta * data.u_coord
        if x.is_zero():
            continue
        f1, f2 = factor_codim1(x, data)
        assert data.L.contains(f1) and not f1.is_zero()
        assert data.L.contains(f2) and not f2.is_zero()
        assert f1 * f2 == x


def test_factor_codim1_rejects_outsiders():
    data = codim1_data()
    ctx = data.L.ctx
    with pytest.raises(FieldError):
        factor_codim1(ctx.zero(), data)
    with pytest.raises(SpecError):
        factor_codim1(ctx.var("v"), data)
    with pytest.raises(SpecError):
        factor_codim1(ctx.one(), plain_data())


def test_torus_membership_direct():
    data = codim1_data()
    ctx = data.L.ctx
    t, u, v = ctx.gens()
    r = torus_membership(t + u, data)
    assert r.verdict == "yes"
    assert len(r.witness.factors) == 1
    assert r.witness.product(ctx) == t + u


def test_torus_membership_two_factor():
    data = codim1_data()
    ctx = data.L.ctx
    t, u, v = ctx.gens()
    # t*u is outside L = K^2 + tK^2 + uK^2 but inside K^2(t, u)
    tau = t * u
    assert not data.L.contains(tau)
    r = torus_membership(tau, data)
    assert r.verdict == "yes"
    assert len(r.witness.factors) == 2
    assert r.witness.product(ctx) == tau


def test_torus_membership_no():
    data = codim1_data()
    ctx = data.L.ctx
    v = ctx.var("v")
    assert torus_membership(v, data).verdict == "no"
    t = ctx.var("t")
    assert torus_membership(v + t, data).verdict == "no"
    # squares always land in K^2 and hence in L
    assert torus_membership(v * v + ctx.one(), data).verdict == "yes"
    with pytest.raises(FieldError):
        torus_membership(ctx.zero(), data)


def test_torus_membership_bounded_search():
    data = plain_data()
    ctx = data.L.ctx
    t, u, v = ctx.gens()
    r = torus_membership(t * u, data)
    assert r.verdict == "yes"
    assert r.witness.product(ctx) == t * u
    # two-term factors defeat the bounded search; never a false no
    hard = (ctx.one() + t) * (ctx.one() + u)
    r2 = torus_membership(hard, data, bound=3)
    assert r2.verdict == "unknown"
    r3 = torus_membership(hard, codim1_data(), bound=3)
    assert r3.verdict == "yes"
    assert r3.witness.product(ctx) == hard


def test_membership_sl2L():
    data = codim1_data()
    ctx = data.L.ctx
    rng = random.Random(8)
    for _ in range(15):
        g = rand_L_word(data, rng, length=5)
        r = membership_sl2L(g, data)
        assert r.verdict == "yes", r.reason
    v = ctx.var("v")
    bad = gen("a", v, ctx)
    assert membership_sl2L(bad, data).verdict == "no"
    # torus coordinate outside the generated field
    bad_h = gen("h", v, ctx)
    assert membership_sl2L(bad_h, data).verdict == "no"


def test_rand_L_element_stays_in_L():
    data = codim1_data()
    rng = random.Random(12)
    for _ in range(30):
        x = rand_L_element(data, rng)
        assert data.L.contains(x)
        assert not x.is_zero()


def test_perfectness_witness():
    for ctx in (CTX2, CTX3):
        rng = random.Random(40 + ctx.p)
        for _ in range(40):
            s = ctx.rand_ratfunc(rng)
            t = ctx.rand_ratfunc(rng, nonzero=True)
            if (t * t).is_one():
                continue
            sp = perfectness_witness(s, t)
            h = gen("h", t, ctx)
            a_sp = gen("a", sp, ctx)
            comm = h.inverse() * a_sp.inverse() * h * a_sp
            assert comm == gen("a", s, ctx)
        with pytest.raises(FieldError):
            perfectness_witness(ctx.one(), ctx.one())


def test_perfectness_witness_respects_L():
    # in characteristic 2 the rescaling is a square, so s' stays in L
    data = codim1_data()
    ctx = data.L.ctx
    rng = random.Random(3)
    t = ctx.var("t")
    for _ in range(20):
        s = rand_L_element(data, rng)
        sp = perfectness_witness(s, t)
        assert data.L.contains(sp)


def test_torus_witness_json():
    data = codim1_data()
    ctx = data.L.ctx
    t, u, v = ctx.gens()
    r = torus_membership(t * u, data)
    blob = r.witness.to_json()
    assert all(set(d) == {"factor", "exponent"} for d in blob)
    assert [d["exponent"] for d in blob] == [1, 1]
