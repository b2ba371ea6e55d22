import itertools
import random
from dataclasses import replace
from typing import Tuple

import pytest

from imperfect import field, sp4
from imperfect.field import Context, FieldError, RatFunc, poly_gcd
from imperfect.presets import Bundle
from imperfect.rank1 import Membership, TorusWitness, torus_membership
from imperfect.rank1 import gen as sl2_gen
from imperfect.sp4 import (
    _CHAMBER,
    _WEYL_PERM,
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
    full_datum,
    identity4,
    is_symplectic,
    membership_psp4,
    perfectness_witness_sp4,
    slot_domain,
    sp4_bruhat,
    torus_matrix,
    u_to_mat,
    weyl_rep,
)
from imperfect.tower import IndifferentSpec, InvariantViolation, SpecError
from imperfect.unipotent import TorusElement2, UElement, torus_normalizes, u_mult
from oracles import rank


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


def root_length(name):
    """The length of a root, read off the quadrangle datum's slot for it or
    for its negative."""
    return full_datum(CTX).slot(Sp4Root(name.lstrip("-")).slot).length


def rand_word_matrix(spec, rng, length=6, torus=False):
    ctx = spec.ctx
    g = identity4(ctx)
    for _ in range(rng.randint(1, length)):
        name = rng.choice(ALL_ROOTS)
        dom = spec.K0 if root_length(name) == "short" else spec.L0
        c = dom.rand_element(rng, nonzero=True)
        g = g * chevalley_gen(Sp4Root(name), c)
    if torus and rng.random() < 0.5:
        tau = spec.L0.rand_element(rng, nonzero=True)
        g = g * torus_matrix(ctx.one(), tau)
    return g


def torus_matrices(group):
    """The matrices of a group's torus generators."""
    return [torus_matrix(h.s_alpha, h.s_beta) for h in group.torus]


def proper_tail_words():
    """The 30 seeded indifferent-proper words on which sp4_bruhat has a slow tail."""
    spec = proper_spec()
    h = torus_matrices(Bundle.load("indifferent-proper").sp4())[0]
    rng = random.Random(5)
    return [rand_word_matrix(spec, rng, length=6, torus=True) * h for _ in range(30)]


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
    assert root_length("alpha") == root_length("-alpha") == "short"
    assert root_length("beta") == root_length("-beta") == "long"
    assert root_length("2alpha+beta") == root_length("-2alpha+beta") == "long"
    assert root_length("alpha+beta") == root_length("-alpha+beta") == "short"
    assert Sp4Root("-beta").slot is None
    assert {Sp4Root(SLOT_ROOT[i]).slot for i in (1, 2, 3, 4)} == {1, 2, 3, 4}
    with pytest.raises(SpecError):
        Sp4Root("gamma")


def test_slot_domain_follows_root_length():
    for spec in (line_spec(), proper_spec()):
        for slot, name in SLOT_ROOT.items():
            want = spec.K0 if root_length(name) == "short" else spec.L0
            assert slot_domain(spec, slot) is want
    spec = proper_spec()
    assert spec.K0 is not spec.L0


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
    assert mat_to_u(m).datum is full_datum(other)


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
    # x1(t) x4(u) with only r[0][2] = c + a*t broken
    t, u = ctx.gens()
    x = UElement(full_datum(ctx), (t, ctx.zero(), ctx.zero(), u))
    rows = [list(r) for r in u_to_mat(x).rows]
    rows[0][2] = rows[0][2] + ctx.one()
    with pytest.raises(SpecError):
        mat_to_u(Mat4(ctx, rows))


def transpose(g):
    return Mat4(g.ctx, [[g.rows[j][i] for j in range(4)] for i in range(4)])


def form_matrix(ctx):
    """The antidiagonal form J of the realization."""
    z, o = ctx.zero(), ctx.one()
    return Mat4(ctx, [[o if i + j == 3 else z for j in range(4)] for i in range(4)])


def product_is_symplectic(g):
    """The full product form of the check, the oracle for is_symplectic."""
    j = form_matrix(g.ctx)
    return transpose(g) * j * g == j


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
                fractions += not coords[-1].den.is_one()
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
    # unipotent matrices with denominators: Bruhat4.reassembles reads u2^-1 as J u2^T J
    words += [u_to_mat(UElement(full_datum(ctx), tuple(
        rand_fraction(ctx, rng) if rng.random() < 0.8 else ctx.zero() for _ in range(4))))
        for _ in range(20)]
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
        assert is_symplectic(g) == product_is_symplectic(g)
        assert not is_symplectic(g)


def test_upper_entries_decide_symplecticity_like_the_full_product():
    ctx = CTX
    rng = random.Random(43)
    words = [rand_plain_word(ctx, rng) for _ in range(12)]
    words += [rand_word_matrix(line_spec(), rng, length=4, torus=True) for _ in range(8)]
    words += [weyl_rep(w, ctx) for w in WEYL_WORDS]
    broken = 0
    for g in words:
        assert is_symplectic(g) and product_is_symplectic(g)
        for _ in range(3):
            # one entry perturbed: usually no longer symplectic, but adding to
            # entry (0, 3) of the identity gives a root element
            i, k = rng.randrange(4), rng.randrange(4)
            rows = [list(r) for r in g.rows]
            rows[i][k] = rows[i][k] + ctx.rand_ratfunc(rng, max_deg=1, nonzero=True)
            h = Mat4(ctx, rows)
            assert is_symplectic(h) == product_is_symplectic(h), (g, i, k)
            broken += not is_symplectic(h)
    assert broken >= 2 * len(words)


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
    t, u = ctx.gens()
    for w in WEYL_WORDS:
        perm = _perm_of(weyl_product(w, ctx))
        trial = next(v for v in WEYL_WORDS if _perm_of(weyl_product(v, ctx)) == perm)
        assert _CHAMBER[perm] == trial == w
        g = torus_matrix(t, ctx.one()) * weyl_rep(w, ctx)
        assert sp4_bruhat(g).word == w
    cells = [torus_matrix(t, u) * weyl_rep(w, ctx) for w in WEYL_WORDS] + [identity4(ctx)]
    assert assert_matches_oracle(cells) == set(WEYL_WORDS)


def full_rank_pivot_rows(g):
    """The pivot pattern as sp4_bruhat found it with 32 ranks per matrix:
    both rank lists of every column ranked afresh."""
    perm = []
    for j in range(4):
        prev = [rank([list(g.rows[r][:j]) for r in range(i, 4)]) for i in range(4)]
        cur = [rank([list(g.rows[r][: j + 1]) for r in range(i, 4)]) for i in range(4)]
        perm.append(max(i for i in range(4) if cur[i] > prev[i]))
    return tuple(perm)


# sp4_bruhat as it was before the one-pass split: the chamber from the rank
# pattern of lower-left blocks, then a triangular split of g * n_w^-1; kept
# as the oracle for the one pass, with the two extractions it reads its
# answer through


def torus_coords(g: Mat4) -> Tuple[RatFunc, RatFunc]:
    """(s_alpha, s_beta) for a diagonal symplectic matrix."""
    d = [g.rows[i][i] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j and not g.rows[i][j].is_zero():
                raise SpecError("matrix is not diagonal")
    if not (d[0] * d[3]).is_one() or not (d[1] * d[2]).is_one():
        raise InvariantViolation("diagonal is not in the symplectic torus")
    return d[0], d[0] * d[1]


def mat_to_u(m: Mat4) -> UElement:
    """Coordinates of an upper unipotent symplectic matrix.

    x1(t) x2(b) x3(c) x4(a) multiplies out to
        [1, t, c+at, b+ct; 0, 1, a, c; 0, 0, 1, t; 0, 0, 0, 1]
    and the extraction inverts that. Entries (0, 1), (1, 2) and (1, 3) give
    t, a and c, and (0, 3) gives b: in characteristic 2, b + ct equals
    r[0][3] for every b, so (2, 3) and (0, 2) are the only entries left to
    test, and a mismatch there means the input was not in the image.
    """
    r = m.rows
    for i in range(4):
        if not r[i][i].is_one():
            raise SpecError("matrix is not unipotent")
        for j in range(i):
            if not r[i][j].is_zero():
                raise SpecError("matrix is not upper triangular")
    t = r[0][1]
    a = r[1][2]
    c = r[1][3]
    b = r[0][3] + c * t
    if r[2][3] != t or r[0][2] != c + a * t:
        raise SpecError("matrix is not in the positive unipotent subgroup")
    return UElement(full_datum(m.ctx), (t, b, c, a))


def old_pivot_rows(g: Mat4):
    """Pivot row of each column: where the rank of the trailing-row block jumps.

    The ranks for the first j + 1 columns are the previous ranks of the next
    column, so each of the 16 blocks is ranked once.
    """
    perm = []
    prev = [0] * 4
    for j in range(4):
        cur = [rank([list(g.rows[r][: j + 1]) for r in range(i, 4)]) for i in range(4)]
        perm.append(max(i for i in range(4) if cur[i] > prev[i]))
        prev = cur
    return tuple(perm)


def old_sp4_bruhat(g: Mat4) -> Bruhat4:
    """Canonical u1 * h * n_w * u2 with u2 supported on the descent slots.

    The Weyl chamber is found from the rank pattern of lower-left
    submatrices; the rest is a triangular/lower-unipotent splitting with
    exact back substitution, verified by reassembly.
    """
    ctx = g.ctx
    if not is_symplectic(g):
        raise SpecError("matrix does not preserve the form")
    perm = old_pivot_rows(g)
    word = _CHAMBER.get(perm)
    if word is None:
        raise InvariantViolation(f"pivot pattern {list(perm)} matches no Weyl chamber")
    n_w = weyl_rep(word, ctx)
    m = (g * n_w.inverse()).rows
    # split m = B * W, B upper triangular, W lower unipotent
    B = [[ctx.zero()] * 4 for _ in range(4)]
    W = [[ctx.one() if i == j else ctx.zero() for j in range(4)] for i in range(4)]
    for i in range(3, -1, -1):
        for j in range(3, i - 1, -1):
            acc = m[i][j]
            for k in range(j + 1, 4):
                acc = acc + B[i][k] * W[k][j]
            B[i][j] = acc
        if B[i][i].is_zero():
            raise InvariantViolation("degenerate pivot in the triangular split")
        for j in range(i - 1, -1, -1):
            acc = m[i][j]
            for k in range(i + 1, 4):
                acc = acc + B[i][k] * W[k][j]
            W[i][j] = acc / B[i][i]
    s_alpha, s_beta = torus_coords(
        Mat4(ctx, [[B[i][i] if i == j else ctx.zero() for j in range(4)] for i in range(4)])
    )
    h = torus_matrix(s_alpha, s_beta)
    u1 = mat_to_u(Mat4(ctx, B) * h.inverse())
    u2_mat = n_w.inverse() * Mat4(ctx, W) * n_w
    u2 = mat_to_u(u2_mat)
    allowed = descent_slots(word)
    for slot, _ in u2.word():
        if slot not in allowed:
            raise InvariantViolation(
                f"tail coordinate in slot {slot} outside the chamber support {allowed}"
            )
    out = Bruhat4(u1, word, s_alpha, s_beta, u2)
    if out.to_matrix() != g:
        raise InvariantViolation("decomposition does not reassemble")
    return out


def bruhat_fields(br):
    return br.word, br.s_alpha, br.s_beta, br.u1.coords, br.u2.coords


def assert_matches_oracle(mats):
    words = set()
    for g in mats:
        got = sp4_bruhat(g)
        assert bruhat_fields(got) == bruhat_fields(old_sp4_bruhat(g))
        words.add(got.word)
    return words


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
        word = sp4_bruhat(g).word
        assert _WEYL_PERM[word] == full_rank_pivot_rows(g) == old_pivot_rows(g)
        words.add(word)
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


# positive roots in slot order, as (x, y) meaning x*alpha + y*beta
POS_ROOTS = {1: (1, 0), 2: (2, 1), 3: (1, 1), 4: (0, 1)}


def weyl_apply(word: str, root: Tuple[int, int]) -> Tuple[int, int]:
    """The reflection action of w on roots; an oracle for descent_slots."""
    for letter in reversed(word.replace("e", "")):
        x, y = root
        root = (2 * y - x, y) if letter == "a" else (x, x - y)
    return root


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


def test_descent_slots_are_the_roots_the_reflections_send_negative():
    # descent_slots reads inversions of n_w's permutation; the reflection
    # action on root coordinates is the independent oracle
    for w in WEYL_WORDS:
        want = tuple(s for s, r in POS_ROOTS.items() if min(weyl_apply(w, r)) < 0)
        assert descent_slots(w) == want, w
    # a reduced word of length l has exactly l descents
    assert [len(descent_slots(w)) for w in WEYL_WORDS] == [len(w.replace("e", ""))
                                                           for w in WEYL_WORDS]


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
        assert bruhat_fields(br) == bruhat_fields(old_sp4_bruhat(g))
        seen_words.add(br.word)
    assert len(seen_words) >= 5  # several cells actually exercised


def test_sp4_bruhat_roundtrip_domain_words():
    spec = line_spec()
    rng = random.Random(61)
    for _ in range(20):
        g = rand_word_matrix(spec, rng, length=5, torus=True)
        br = sp4_bruhat(g)
        assert br.to_matrix() == g
        assert bruhat_fields(br) == bruhat_fields(old_sp4_bruhat(g))


def test_minor_gcd_of_a_slow_word():
    # word 12 of the indifferent-proper draws: the numerators of its two
    # lower-left minors have 12 and 18 terms in three variables, and their gcd
    # is t^4; without the monomial split the PRS ran for seconds on them
    g = proper_tail_words()[12].rows
    delta1 = g[3][0]
    delta2 = g[2][0] * g[3][1] - g[2][1] * g[3][0]
    assert (len(delta1.num.terms), len(delta2.num.terms)) == (12, 18)
    t = g[0][0].ctx.var("t")
    assert poly_gcd(delta1.num, delta2.num) == (t ** 4).num


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


def test_sp4_bruhat_matches_oracle_on_proper_words():
    # word 12 of these draws takes seconds on both procedures (17 s together);
    # word 23 has fractional entries
    words = proper_tail_words()
    assert any(not e.den.is_one() for row in words[23].rows for e in row)
    assert_matches_oracle([g for k, g in enumerate(words) if k != 12])


def rand_fraction(ctx, rng):
    num = ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True, denominators=False)
    return num / (ctx.var(rng.choice(ctx.names)) + ctx.scalar(rng.randint(0, 1)))


POSITIVE_ROOTS = ["alpha", "2alpha+beta", "alpha+beta", "beta"]


def test_the_split_reassembles_on_every_chamber():
    # sp4_bruhat does not multiply its answer back, so its split is checked
    # here: g = u * h * n_w * u' for positive root words u and u' lies in
    # chamber w, and the answer must rebuild g both ways
    ctx = CTX
    rng = random.Random(65)

    def coord(fractions):
        if fractions:
            return rand_fraction(ctx, rng)
        return ctx.rand_ratfunc(rng, max_deg=1, max_terms=2, nonzero=True, denominators=False)

    def positive_word(fractions):
        g = identity4(ctx)
        for _ in range(rng.randint(1, 4)):
            g = g * chevalley_gen(Sp4Root(rng.choice(POSITIVE_ROOTS)), coord(fractions))
        return g

    cases = []
    for w in WEYL_WORDS:
        for fractions in (False, True):
            for _ in range(3):
                g = (positive_word(fractions) * torus_matrix(coord(fractions), coord(fractions))
                     * weyl_rep(w, ctx) * positive_word(fractions))
                cases.append((w, g))
    assert sum(any(not e.den.is_one() for row in g.rows for e in row) for _, g in cases) >= 24
    cases += [(None, g) for k, g in enumerate(proper_tail_words()) if k != 12]
    for w, g in cases:
        br = sp4_bruhat(g)
        assert w is None or br.word == w
        assert br.reassembles(g), g
        assert br.to_matrix() == g, g


def test_sp4_bruhat_matches_oracle_with_denominators():
    ctx = CTX
    rng = random.Random(62)
    mats = []
    for _ in range(40):
        g = identity4(ctx)
        for _ in range(rng.randint(1, 4)):
            g = g * chevalley_gen(Sp4Root(rng.choice(ALL_ROOTS)), rand_fraction(ctx, rng))
        if rng.random() < 0.5:
            g = g * torus_matrix(rand_fraction(ctx, rng), rand_fraction(ctx, rng))
        mats.append(g)
    mats += [torus_matrix(rand_fraction(ctx, rng), rand_fraction(ctx, rng)) * weyl_rep(w, ctx)
             for w in WEYL_WORDS for _ in range(2)]
    assert sum(any(not e.den.is_one() for row in g.rows for e in row) for g in mats) >= 50
    assert assert_matches_oracle(mats) == set(WEYL_WORDS)


def perturbed(br, rng):
    """Decompositions one step off br: each coordinate of u1 and u2, each torus
    coordinate and the chamber moved in turn."""
    ctx = br.s_alpha.ctx
    out = []
    for which in ("u1", "u2"):
        u = getattr(br, which)
        for k in range(4):
            coords = list(u.coords)
            coords[k] = coords[k] + rand_fraction(ctx, rng)
            out.append(replace(br, **{which: UElement(u.datum, tuple(coords))}))
    shift = ctx.one()
    while shift.is_one():
        shift = rand_fraction(ctx, rng)
    out.append(replace(br, s_alpha=br.s_alpha * shift))
    out.append(replace(br, s_beta=br.s_beta * shift))
    out.append(replace(br, word=rng.choice([w for w in WEYL_WORDS if w != br.word])))
    return out


def test_the_gcd_free_reassembly_agrees_with_to_matrix(monkeypatch):
    def no_gcd(f, g):
        raise AssertionError("the reassembly ran a gcd")

    def gcd_free(br, g):
        with monkeypatch.context() as m:
            m.setattr(field, "poly_gcd", no_gcd)
            return br.reassembles(g)

    ctx = CTX
    rng = random.Random(64)
    mats = [rand_plain_word(ctx, rng) for _ in range(16)]
    for _ in range(16):
        g = identity4(ctx)
        for _ in range(rng.randint(1, 4)):
            g = g * chevalley_gen(Sp4Root(rng.choice(ALL_ROOTS)), rand_fraction(ctx, rng))
        mats.append(g * torus_matrix(rand_fraction(ctx, rng), rand_fraction(ctx, rng)))
    mats += [torus_matrix(rand_fraction(ctx, rng), rand_fraction(ctx, rng)) * weyl_rep(w, ctx)
             for w in WEYL_WORDS]
    assert sum(any(not e.den.is_one() for row in g.rows for e in row) for g in mats) >= 20
    words, verdicts = set(), []
    for g in mats:
        br = sp4_bruhat(g)
        words.add(br.word)
        for cand in [br] + perturbed(br, rng):
            verdicts.append(gcd_free(cand, g))
            assert verdicts[-1] == (cand.to_matrix() == g), (g, cand)
    assert words == set(WEYL_WORDS)
    assert verdicts.count(True) == len(mats) and verdicts.count(False) == 11 * len(mats)


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
    # `sp4 torus-check` decides normalization by torus_normalizes on the quadrangle datum
    bundle = Bundle.load("indifferent-proper")
    datum = bundle.c2()
    ctx = bundle.ctx
    t, u, v = ctx.gens()
    one = ctx.one()
    assert torus_normalizes(TorusElement2(t * t, t * t), datum)
    assert torus_normalizes(TorusElement2(v, t), datum)  # short side unconstrained
    assert not torus_normalizes(TorusElement2(one, v), datum)
    with pytest.raises(FieldError, match="torus coordinates must be nonzero"):
        TorusElement2(ctx.zero(), one)


@pytest.mark.parametrize("name", ["indifferent-weak", "indifferent-proper"])
def test_the_torus_normalizer_check_agrees_with_the_quadrangle_datum(name):
    # diag(s_alpha, s_beta) normalizes PSp4(L0, K0) exactly when s_beta
    # multiplies K0 onto itself: the short-root coordinate is unconstrained
    bundle = Bundle.load(name)
    spec, datum = bundle.cfg.indifferent, bundle.c2()
    ctx = spec.ctx
    factors = {ctx.one(), *ctx.gens(), *spec.K0.basis, *spec.L0.basis, *spec.E0.gens}
    built = sorted({a * b for a in factors for b in factors} | {a.inverse() for a in factors},
                   key=repr)
    rng = random.Random(17)
    randoms = [ctx.rand_ratfunc(rng, nonzero=True) for _ in range(12)]
    answers = []
    for sa, sb in list(itertools.product(built[:8], built)) + list(zip(randoms, randoms[::-1])):
        answers.append(torus_normalizes(TorusElement2(sa, sb), datum))
        assert spec.K0.stable_under(sb) == answers[-1], (sa, sb)
    assert set(answers) == ({True} if name == "indifferent-weak" else {True, False})


def test_build_group_from_M():
    b = Bundle.load("indifferent-weak")
    group = b.sp4()
    ctx = group.ctx
    t = ctx.var("t")
    mats = torus_matrices(group)
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
    h = torus_matrices(group)[0]
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
        h = torus_matrices(group)[0]
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
    # reachable torus quotients, through actions that normalize: (u, 1) gives
    # h = (u, u) and (1, v^2) gives h = (v, v^2)
    by_u = build_group_from_M(StructureData(proper, [(u, one)]))
    by_uv = build_group_from_M(StructureData(proper, [(u, one), (one, v * v)]))
    cases += [(by_u, torus_matrix(u, u)), (by_uv, torus_matrix(u * v, u * v * v)),
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
    assert membership_psp4(torus_matrix(u, u), proper).verdict == "no"
    assert by_u.membership(torus_matrix(u, u)).reason == "after removing a depth-1 torus part"
    assert by_uv.membership(torus_matrix(u * v, u * v * v)).reason == (
        "after removing a depth-2 torus part")
    assert by_uv.membership(torus_matrix(u, v)).verdict == "no"


def membership_psp4_by_ordered_pairs(g, spec, bound=4, torus=()):
    """membership_psp4 with its depth-2 search over ordered pairs, h * h^-1
    included; kept as the oracle for the search over unordered pairs."""
    br = sp4_bruhat(g)
    escape = _slot_escape(br, spec)
    if escape is not None:
        return escape
    data_short, data_long = spec.torus_data
    pool = [(h.s_alpha, h.s_beta) for h in torus]
    pool += [(a.inverse(), b.inverse()) for a, b in pool]
    for depth in (0, 1, 2):
        for combo in itertools.product(pool, repeat=depth):
            ta, tb = br.s_alpha, br.s_beta
            for a, b in combo:
                ta, tb = ta / a, tb / b
            ra = torus_membership(ta, data_short, bound)
            rb = torus_membership(tb, data_long, bound)
            if ra.verdict == "yes" and rb.verdict == "yes":
                return Membership(
                    "yes",
                    TorusWitness((ra.witness.factors if ra.witness else [])
                                 + (rb.witness.factors if rb.witness else [])),
                    reason=f"after removing a depth-{depth} torus part" if depth else "",
                )
            if not depth:
                direct = ra.verdict, rb.verdict
    va, vb = direct
    if "no" in direct:
        return Membership(
            "no",
            reason=f"torus coordinate outside the generated field (alpha: {va}, beta: {vb})",
        )
    return Membership("unknown", reason=f"torus coordinates undecided (alpha: {va}, beta: {vb})")


def test_a_torus_action_that_does_not_normalize_is_refused():
    # h = (v, v) scales slot 1 by v, which leaves K0 = K^2(t) + u*K^2(t)
    proper = proper_spec()
    t, u, v = proper.ctx.gens()
    one = proper.ctx.one()
    datum = Bundle.load("indifferent-proper").c2()
    for action in [(u, one), (v * v, one), (t * t, t * t), (one, v * v)]:
        group = build_group_from_M(StructureData(proper, [action]))
        assert torus_normalizes(group.torus[0], datum)
    assert not torus_normalizes(TorusElement2(v, v), datum)
    for actions in ([(v, one)], [(u, one), (v, one)]):
        with pytest.raises(SpecError, match=r"does not normalize PSp4\(L0, K0\): \[v, 1\]$"):
            build_group_from_M(StructureData(proper, actions))


@pytest.mark.parametrize("gens", [1, 2])
def test_the_torus_search_over_unordered_pairs_matches_ordered_pairs(gens):
    proper = proper_spec()
    _, u, v = proper.ctx.gens()
    one = proper.ctx.one()
    actions = [(u, one), (one, v * v)][:gens]
    group = build_group_from_M(StructureData(proper, actions))
    hs = torus_matrices(group)
    pool = hs + [h.inverse() for h in hs]
    rng = random.Random(21 + gens)
    seen = set()
    for k in range(12):
        g = rand_word_matrix(proper, rng, length=3) if k % 2 else identity4(proper.ctx)
        for h in rng.sample(pool, k % 3):
            g = g * h
        if k % 4 == 3:
            g = g * torus_matrix(u, v)  # outside the reachable torus
        got = _summary(membership_psp4(g, proper, torus=group.torus))
        assert got == _summary(membership_psp4_by_ordered_pairs(g, proper, torus=group.torus))
        seen.add((got[0], got[1].split(" ")[0], got[1][-18:]))
    assert {"yes", "no"} <= {verdict for verdict, _, _ in seen}
    # with one generator h, a depth-2 part h^2 or h^-2 has square coordinates
    # and is found at depth 0
    assert (("yes", "after", "depth-2 torus part") in seen) == (gens == 2)


def test_the_depth_two_search_asks_each_unordered_pair_once(monkeypatch):
    # one torus generator h: depth 2 asks h*h and h^-1*h^-1, not h*h^-1 twice
    # nor h^-1*h; v is outside every field the search reaches
    group = Bundle.load("indifferent-weak").sp4()
    asked = []
    real = sp4.torus_membership

    def counting(x, data, bound):
        asked.append(x)
        return real(x, data, bound)

    monkeypatch.setattr(sp4, "torus_membership", counting)
    v = group.ctx.gens()[-1]
    assert group.membership(torus_matrix(v, v)).verdict != "yes"
    assert len(asked) == 2 * (1 + 2 + 2)


def test_torus_data_is_built_once_per_spec(monkeypatch):
    import imperfect.sp4 as sp4

    built = []

    def counting(spec):
        built.append(spec)
        return _torus_data(spec)

    monkeypatch.setattr(sp4, "_torus_data", counting)
    group = Bundle.load("indifferent-proper").sp4()
    h = torus_matrices(group)[0]
    rng = random.Random(3)
    for _ in range(3):
        assert group.membership(rand_word_matrix(group.spec, rng, length=3) * h).verdict == "yes"
    assert built == [group.spec]
    assert group.spec.torus_data is group.spec.torus_data
    other = Bundle.load("indifferent-proper").sp4()
    other.membership(h)
    assert built == [group.spec, other.spec]  # kept on each spec, not shared


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
