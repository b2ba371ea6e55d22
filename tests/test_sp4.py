import itertools
import random

import pytest

from imperfect import _linalg
from imperfect.field import Context, FieldError
from imperfect.presets import Bundle
from imperfect.rank1 import Membership, TorusWitness, torus_membership
from imperfect.rank1 import gen as sl2_gen
from imperfect.sp4 import (
    _CHAMBER,
    _WEYL_PERM,
    _pivot_rows,
    _slot_escape,
    _torus_data,
    SLOT_ROOT,
    WEYL_WORDS,
    Bruhat4,
    Mat4,
    Sp4Root,
    StructureData,
    build_group_from_M,
    chevalley_gen,
    descent_slots,
    form_matrix,
    full_datum,
    identity4,
    is_symplectic,
    mat_to_u,
    membership_psp4,
    perfectness_witness_sp4,
    sp4_bruhat,
    torus_coords,
    torus_matrix,
    torus_normalizer_check,
    u_to_mat,
    weyl_apply,
    weyl_rep,
)
from imperfect.tower import IndifferentSpec, SpecError
from imperfect.unipotent import UElement, u_mult


CTX = Context(2, ("t", "u"))
CTXV = Context(2, ("t", "u", "v"))

ALL_ROOTS = ["alpha", "2alpha+beta", "alpha+beta", "beta",
             "-alpha", "-2alpha+beta", "-alpha+beta", "-beta"]


def proper_spec():
    return Bundle.load("indifferent-proper").cfg.indifferent


def line_spec():
    # L0 = K0 = K^2 + tK^2: both torus data split at codimension one
    ctx = CTX
    t = ctx.var("t")
    return IndifferentSpec(ctx, [ctx.one(), t], (t,), [ctx.one()])


def rand_word_matrix(spec, rng, length=6, torus=False):
    ctx = spec.ctx
    g = identity4(ctx)
    for _ in range(rng.randint(1, length)):
        name = rng.choice(ALL_ROOTS)
        dom = spec.K0 if Sp4Root(name).length == "short" else spec.L0
        c = dom.rand_element(rng, nonzero=True)
        g = g * chevalley_gen(Sp4Root(name), c)
    if torus and rng.random() < 0.5:
        tau = spec.L0.rand_element(rng, nonzero=True)
        g = g * torus_matrix(ctx.one(), tau)
    return g


def rand_plain_word(ctx, rng, length=5):
    # generator words with small polynomial coordinates; domains are not
    # the point of a round-trip check and large entries swamp the gcds
    g = identity4(ctx)
    for _ in range(rng.randint(1, length)):
        name = rng.choice(ALL_ROOTS)
        c = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True,
                             denominators=False)
        g = g * chevalley_gen(Sp4Root(name), c)
    if rng.random() < 0.4:
        g = g * torus_matrix(
            ctx.rand_ratfunc(rng, max_deg=1, max_terms=1, nonzero=True,
                             denominators=False), ctx.one())
    return g


def test_form_and_generators():
    for name in ALL_ROOTS:
        r = Sp4Root(name)
        m = chevalley_gen(r, CTX.var("t"))
        assert is_symplectic(m)
    assert is_symplectic(identity4(CTX))
    assert is_symplectic(torus_matrix(CTX.var("t"), CTX.var("u")))
    for word in WEYL_WORDS:
        assert is_symplectic(weyl_rep(word, CTX))
    # an unbalanced diagonal scales the form
    t = CTX.var("t")
    one, zero = CTX.one(), CTX.zero()
    bad = Mat4(CTX, [[t, zero, zero, zero], [zero, one, zero, zero],
                     [zero, zero, one, zero], [zero, zero, zero, one]])
    assert not is_symplectic(bad)


def test_root_length_and_slots():
    assert Sp4Root("alpha").length == "short"
    assert Sp4Root("beta").length == "long"
    assert Sp4Root("2alpha+beta").length == "long"
    assert Sp4Root("alpha+beta").length == "short"
    assert Sp4Root("-beta").slot is None
    assert {Sp4Root(SLOT_ROOT[i]).slot for i in (1, 2, 3, 4)} == {1, 2, 3, 4}
    with pytest.raises(SpecError):
        Sp4Root("gamma")


def test_generator_addition_in_root_groups():
    rng = random.Random(2)
    for name in ALL_ROOTS:
        r = Sp4Root(name)
        a = CTX.rand_ratfunc(rng, denominators=False)
        b = CTX.rand_ratfunc(rng, denominators=False)
        assert chevalley_gen(r, a) * chevalley_gen(r, b) == chevalley_gen(r, a + b)


def test_matrix_commutator_matches_datum_relation():
    datum = full_datum(CTX)
    ctx = CTX
    rng = random.Random(3)
    for _ in range(20):
        t = ctx.rand_ratfunc(rng, max_deg=1, denominators=False)
        a = ctx.rand_ratfunc(rng, max_deg=1, denominators=False)
        x1 = datum.generator(1, t)
        x4 = datum.generator(4, a)
        m1 = u_to_mat(x1)
        m4 = u_to_mat(x4)
        comm = m1.inverse() * m4.inverse() * m1 * m4
        # [x1(t), x4(a)] = x2(t^2 a) x3(t a)
        want = u_mult(datum.generator(2, t * t * a), datum.generator(3, t * a))
        assert comm == u_to_mat(want)


def test_full_datum_is_shared_by_equal_contexts():
    other = Context(CTX.p, CTX.names)
    assert other is not CTX and other == CTX
    assert full_datum(other) is full_datum(CTX)
    one = CTX.one()
    assert full_datum(other).generator(1, other.one()) == full_datum(CTX).generator(1, one)
    m = u_to_mat(full_datum(CTX).generator(3, one))
    assert mat_to_u(m) == mat_to_u(m, full_datum(other))


def test_u_mat_roundtrip():
    datum = full_datum(CTX)
    ctx = CTX
    rng = random.Random(4)
    for _ in range(40):
        coords = tuple(ctx.rand_ratfunc(rng, max_deg=1, denominators=False)
                       for _ in range(4))
        x = UElement(datum, coords)
        assert mat_to_u(u_to_mat(x)) == x


def test_mat_to_u_rejects_bad_input():
    with pytest.raises(SpecError):
        mat_to_u(torus_matrix(CTX.var("t"), CTX.one()))
    with pytest.raises(SpecError):
        mat_to_u(chevalley_gen(Sp4Root("-alpha"), CTX.var("t")))
    # upper triangular but not symplectic-unipotent: break the r[2][3] tie
    ctx = CTX
    rows = identity4(ctx).rows
    rows = [list(r) for r in rows]
    rows[0][1] = ctx.var("t")
    m = Mat4(ctx, rows)
    with pytest.raises(SpecError):
        mat_to_u(m)


def transpose(g):
    return Mat4(g.ctx, [[g.rows[j][i] for j in range(4)] for i in range(4)])


def test_u_to_mat_matches_generator_product():
    # every zero pattern of the four slots, with coordinates that have denominators
    datum = full_datum(CTX)
    ctx = CTX
    rng = random.Random(41)
    fractions = 0
    for mask in range(16):
        coords = []
        for i in range(4):
            if mask >> i & 1:
                num = ctx.rand_ratfunc(rng, max_deg=1, nonzero=True, denominators=False)
                den = ctx.var(rng.choice("tu")) + ctx.scalar(rng.randint(0, 1))
                coords.append(num / den)
                fractions += not coords[-1].is_poly()
            else:
                coords.append(ctx.zero())
        u = UElement(datum, tuple(coords))
        want = identity4(ctx)
        for slot, c in u.word():
            want = want * chevalley_gen(Sp4Root(SLOT_ROOT[slot]), c)
        assert u_to_mat(u) == want, mask
        assert mat_to_u(want) == u
    assert fractions >= 16


def test_inverse_is_form_conjugate_transpose():
    ctx = CTX
    j = form_matrix(ctx)
    one = identity4(ctx)
    rng = random.Random(42)
    spec = line_spec()
    words = [rand_plain_word(ctx, rng) for _ in range(15)]
    words += [rand_word_matrix(spec, rng, length=4, torus=True) for _ in range(10)]
    for g in words:
        inv = g.inverse()
        assert inv == j * transpose(g) * j
        assert g * inv == one and inv * g == one
        assert is_symplectic(g)
    # the index shuffle equals J g^T J for any input, symplectic or not,
    # and is_symplectic agrees with the product definition g^T J g == J
    for _ in range(10):
        g = Mat4(ctx, [[ctx.rand_ratfunc(rng, max_deg=1) for _ in range(4)] for _ in range(4)])
        assert g.inverse() == j * transpose(g) * j
        assert is_symplectic(g) == (transpose(g) * j * g == j)
        assert not is_symplectic(g)


def _perm_of(m):
    """Row index of the nonzero entry in each column, for monomial matrices."""
    perm = []
    for j in range(4):
        hits = [i for i in range(4) if not m.rows[i][j].is_zero()]
        if len(hits) != 1:
            return None
        perm.append(hits[0])
    return tuple(perm)


def weyl_product(word, ctx):
    """n_w as the product of n_a = x_alpha(1) x_-alpha(1) x_alpha(1) and n_b along w."""
    one = ctx.one()
    n = {
        letter: chevalley_gen(Sp4Root(r), one) * chevalley_gen(Sp4Root("-" + r), one)
        * chevalley_gen(Sp4Root(r), one)
        for letter, r in (("a", "alpha"), ("b", "beta"))
    }
    out = identity4(ctx)
    for letter in word.replace("e", ""):
        out = out * n[letter]
    return out


def test_weyl_table_matches_product_definition():
    for ctx in (CTX, CTXV):
        for w in WEYL_WORDS:
            want = weyl_product(w, ctx)
            assert _perm_of(want) == _WEYL_PERM[w]
            assert weyl_rep(w, ctx) == want
    with pytest.raises(SpecError):
        weyl_rep("aa", CTX)


def test_chamber_lookup_matches_trial_loop():
    ctx = CTX
    t = ctx.var("t")
    for w in WEYL_WORDS:
        perm = _perm_of(weyl_product(w, ctx))
        trial = next(v for v in WEYL_WORDS if _perm_of(weyl_product(v, ctx)) == perm)
        assert _CHAMBER[perm] == trial == w
        g = torus_matrix(t, ctx.one()) * weyl_rep(w, ctx)
        assert sp4_bruhat(g).word == w


def full_rank_pivot_rows(g):
    """The pivot pattern as sp4_bruhat found it with 32 ranks per matrix:
    both rank lists of every column ranked afresh."""
    perm = []
    for j in range(4):
        prev = [_linalg.rank([list(g.rows[r][:j]) for r in range(i, 4)]) for i in range(4)]
        cur = [_linalg.rank([list(g.rows[r][: j + 1]) for r in range(i, 4)]) for i in range(4)]
        perm.append(max(i for i in range(4) if cur[i] > prev[i]))
    return tuple(perm)


def test_pivot_rows_match_full_rank_loop():
    rng = random.Random(6)
    spec = line_spec()
    t = CTX.var("t")
    mats = [rand_plain_word(CTX, rng) for _ in range(30)]
    mats += [rand_word_matrix(spec, rng, length=5, torus=True) for _ in range(10)]
    mats += [torus_matrix(t, CTX.one()) * weyl_rep(w, CTX) for w in WEYL_WORDS]
    mats += [identity4(CTX), chevalley_gen(Sp4Root("-beta"), t)]
    words = set()
    for g in mats:
        perm = _pivot_rows(g)
        assert perm == full_rank_pivot_rows(g)
        words.add(_CHAMBER[perm])
    assert words == set(WEYL_WORDS)


def test_weyl_words_are_distinct():
    reps = [weyl_rep(w, CTX) for w in WEYL_WORDS]
    assert len({id(r) for r in reps}) == 8
    for i in range(8):
        for j in range(i + 1, 8):
            assert reps[i] != reps[j]
    assert weyl_rep("e", CTX) == identity4(CTX)
    for w in WEYL_WORDS:
        assert is_symplectic(weyl_rep(w, CTX))


def test_weyl_apply_reflections():
    # the simple reflections act on (x, y) coordinates of x*alpha + y*beta
    assert weyl_apply("a", (1, 0)) == (-1, 0)
    assert weyl_apply("b", (0, 1)) == (0, -1)
    assert weyl_apply("ab", weyl_apply("ab", weyl_apply("ab", weyl_apply(
        "ab", (1, 0))))) == (1, 0)  # the rotation has order 4
    assert weyl_apply("abab", (1, 0)) == (-1, 0)
    assert weyl_apply("abab", (0, 1)) == (0, -1)
    assert descent_slots("e") == ()
    assert set(descent_slots("abab")) == {1, 2, 3, 4}


def test_torus_coords_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        a = CTX.rand_ratfunc(rng, nonzero=True, denominators=False)
        b = CTX.rand_ratfunc(rng, nonzero=True, denominators=False)
        sa, sb = torus_coords(torus_matrix(a, b))
        assert sa == a and sb == b


def test_sp4_bruhat_roundtrip_words():
    rng = random.Random(6)
    seen_words = set()
    for _ in range(60):
        g = rand_plain_word(CTX, rng)
        br = sp4_bruhat(g)
        assert br.to_matrix() == g
        seen_words.add(br.word)
    assert len(seen_words) >= 5  # several cells actually exercised


def test_sp4_bruhat_roundtrip_domain_words():
    spec = line_spec()
    rng = random.Random(61)
    for _ in range(20):
        g = rand_word_matrix(spec, rng, length=5, torus=True)
        br = sp4_bruhat(g)
        assert br.to_matrix() == g


def test_sp4_bruhat_of_structured_elements():
    ctx = CTX
    t = ctx.var("t")
    br = sp4_bruhat(identity4(ctx))
    assert br.word == "e"
    assert br.s_alpha.is_one() and br.s_beta.is_one()
    br = sp4_bruhat(torus_matrix(t, t))
    assert br.word == "e"
    assert (br.s_alpha, br.s_beta) == (t, t)
    br = sp4_bruhat(weyl_rep("abab", ctx))
    assert br.word == "abab"
    br = sp4_bruhat(chevalley_gen(Sp4Root("-beta"), t))
    assert br.word == "b"


def test_membership_yes_on_generated_products():
    spec = line_spec()
    rng = random.Random(7)
    for _ in range(12):
        g = rand_word_matrix(spec, rng, length=8)
        r = membership_psp4(g, spec)
        assert r.verdict == "yes", r.reason


def test_membership_no_on_outside_coordinates():
    spec = line_spec()
    ctx = spec.ctx
    u = ctx.var("u")
    for name in ALL_ROOTS:
        r = membership_psp4(chevalley_gen(Sp4Root(name), u), spec)
        assert r.verdict == "no", name
    # out-of-field torus coordinate
    r = membership_psp4(torus_matrix(u, ctx.one()), spec)
    assert r.verdict == "no"


def test_membership_unknown_needs_missing_codim1():
    spec = proper_spec()
    ctx = spec.ctx
    v = ctx.var("v")
    r = membership_psp4(torus_matrix(v, ctx.one()), spec)
    assert r.verdict == "unknown"
    assert "torus" in r.reason


def test_membership_witness_multiplies_out():
    spec = line_spec()
    ctx = spec.ctx
    t = ctx.var("t")
    g = torus_matrix(ctx.one(), t * t + t)
    r = membership_psp4(g, spec)
    assert r.verdict == "yes"
    assert r.witness is not None


def test_torus_normalizer_check():
    spec = proper_spec()
    ctx = spec.ctx
    t, u, v = ctx.gens()
    one = ctx.one()
    assert torus_normalizer_check(t * t, t * t, spec)
    assert torus_normalizer_check(v, t, spec)  # short side unconstrained
    assert not torus_normalizer_check(one, v, spec)
    with pytest.raises(FieldError):
        torus_normalizer_check(ctx.zero(), one, spec)


def test_structure_data_mu():
    spec = proper_spec()
    ctx = spec.ctx
    t, u, v = ctx.gens()
    m = StructureData(spec, [])
    assert m.mu(t, u) == t * t * u
    assert m.mu(ctx.one(), u) == u


def test_build_group_from_M():
    b = Bundle.load("indifferent-weak")
    group = b.sp4()
    ctx = group.ctx
    t = ctx.var("t")
    mats = group.torus_matrices()
    assert len(mats) == 1
    assert is_symplectic(mats[0])
    # the declared action scales the extreme slots by t^2 each
    sa, sb = torus_coords(mats[0])
    assert sa ** 2 == t ** 2 * (t ** 2 * t ** 2)  # s_alpha^2 = f1^2 * f4
    assert sb == t ** 2 * t ** 2


def test_build_group_rejects_inconsistent_action():
    spec = proper_spec()
    ctx = spec.ctx
    t = ctx.var("t")
    with pytest.raises(SpecError):
        build_group_from_M(StructureData(spec, [(ctx.one(), t)]))
    with pytest.raises(SpecError):
        build_group_from_M(StructureData(spec, [(ctx.zero(), t)]))


def test_group_membership_with_torus_part():
    group = Bundle.load("indifferent-weak").sp4()
    spec = group.spec
    rng = random.Random(9)
    h = group.torus_matrices()[0]
    for _ in range(6):
        g = rand_word_matrix(spec, rng, length=4) * h
        r = group.membership(g)
        assert r.verdict == "yes", r.reason


# the two membership procedures as they were before membership_psp4 took
# the torus quotient search over; kept as the oracle for the folded one


def old_membership_psp4(g, spec, bound=4):
    br = sp4_bruhat(g)
    data_short, data_long = _torus_data(spec)
    escape = _slot_escape(br, spec)
    if escape is not None:
        return escape
    ra = torus_membership(br.s_alpha, data_short, bound)
    rb = torus_membership(br.s_beta, data_long, bound)
    if ra.verdict == "yes" and rb.verdict == "yes":
        return Membership("yes", TorusWitness((ra.witness.factors if ra.witness else [])
                                              + (rb.witness.factors if rb.witness else [])))
    if ra.verdict == "no" or rb.verdict == "no":
        return Membership(
            "no",
            reason="torus coordinate outside the generated field "
            f"(alpha: {ra.verdict}, beta: {rb.verdict})",
        )
    return Membership(
        "unknown",
        reason=f"torus coordinates undecided (alpha: {ra.verdict}, beta: {rb.verdict})",
    )


def old_group_membership(group, g, bound=4):
    direct = old_membership_psp4(g, group.spec, bound)
    if direct.verdict == "yes":
        return direct
    br = sp4_bruhat(g)
    if _slot_escape(br, group.spec) is not None:
        return direct
    coords = [(h.s_alpha, h.s_beta) for h in group.torus]
    pool = coords + [(a.inverse(), b.inverse()) for a, b in coords]
    for depth in (1, 2):
        for combo in itertools.product(pool, repeat=depth):
            ta = br.s_alpha
            tb = br.s_beta
            for a, b in combo:
                ta = ta / a
                tb = tb / b
            data_short, data_long = _torus_data(group.spec)
            ra = torus_membership(ta, data_short, bound)
            rb = torus_membership(tb, data_long, bound)
            if ra.verdict == "yes" and rb.verdict == "yes":
                return Membership(
                    "yes",
                    TorusWitness((ra.witness.factors if ra.witness else [])
                                 + (rb.witness.factors if rb.witness else [])),
                    reason=f"after removing a depth-{depth} torus part",
                )
    return direct


def _summary(m):
    return m.verdict, m.reason, m.witness.to_json() if m.witness else None


def test_membership_matches_the_two_old_procedures():
    proper = proper_spec()
    t, u, v = proper.ctx.gens()
    one = proper.ctx.one()
    rng = random.Random(12)
    cases = []
    for name in ("indifferent-weak", "indifferent-proper"):
        group = Bundle.load(name).sp4()
        h = group.torus_matrices()[0]
        outside = group.ctx.gens()[-1]  # outside L0, and outside K0 when K0 is proper
        for k in range(6):
            g = rand_word_matrix(group.spec, rng, length=4)
            if k % 2:
                g = g * h
            cases += [(group, g),
                      (group, g * chevalley_gen(Sp4Root(("beta", "-alpha")[k % 2]), outside))]
    # undecided: L0 has no codimension-one split to decide v
    group = Bundle.load("indifferent-proper").sp4()
    cases += [(group, torus_matrix(v, one)),
              (group, chevalley_gen(Sp4Root("alpha"), u) * torus_matrix(v, one))]
    # reachable torus quotients
    by_v = build_group_from_M(StructureData(proper, [(v, one)]))
    by_uv = build_group_from_M(StructureData(proper, [(v, one), (u, one)]))
    cases += [(by_v, torus_matrix(v, v)), (by_uv, torus_matrix(u * v, u * v)),
              (by_uv, torus_matrix(u, v))]
    seen = set()
    for group, g in cases:
        got = _summary(group.membership(g))
        assert got == _summary(old_group_membership(group, g))
        assert _summary(membership_psp4(g, group.spec)) == _summary(
            old_membership_psp4(g, group.spec))
        seen.add((got[0], got[1].split(" ")[0]))
    # every branch of the procedure was reached
    assert seen == {("yes", ""), ("no", "slot"), ("unknown", "torus"), ("no", "torus"),
                    ("yes", "after")}
    assert membership_psp4(torus_matrix(v, v), proper).verdict == "no"
    assert by_v.membership(torus_matrix(v, v)).reason == "after removing a depth-1 torus part"
    assert by_uv.membership(torus_matrix(u * v, u * v)).reason == (
        "after removing a depth-2 torus part")
    assert by_uv.membership(torus_matrix(u, v)).verdict == "no"


def test_perfectness_witness_all_slots():
    spec = proper_spec()
    ctx = spec.ctx
    rng = random.Random(10)
    for slot in (1, 2, 3, 4):
        dom = spec.K0 if slot in (1, 3) else spec.L0
        for _ in range(10):
            s = dom.rand_element(rng, nonzero=True)
            (sa, sb), s_prime = perfectness_witness_sp4(slot, s, spec)
            assert dom.contains(s_prime)
            h = torus_matrix(sa, sb)
            x = chevalley_gen(Sp4Root(SLOT_ROOT[slot]), s_prime)
            comm = h.inverse() * x.inverse() * h * x
            assert comm == chevalley_gen(Sp4Root(SLOT_ROOT[slot]), s)


def test_bruhat4_constructed_cell():
    spec = proper_spec()
    ctx = spec.ctx
    datum = full_datum(ctx)
    t = ctx.var("t")
    u1 = datum.generator(1, t)
    u2 = datum.generator(4, t)
    br = Bruhat4(u1, "ba", ctx.one(), t, u2)
    g = br.to_matrix()
    back = sp4_bruhat(g)
    assert back.to_matrix() == g
    assert back.word == "ba"
