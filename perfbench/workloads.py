"""The benchmark's three workloads: matrix-words, unipotent-oracle, tower-build.

Each workload draws its inputs from the seed as canonical element strings
(built with the package's arithmetic and rendered while the batch is made,
outside every timer), so parsing and rendering sit on the path of every op.
`run_op` hands the strings to the package, times nothing itself, records a
span around every call it makes into a layer, and checks every output by an
identity or by an answer known by construction. It returns the canonical
renderings of the op's outputs for the digest.

Calls go through module attributes (`rank1.bruhat2`, not a bound name), so a
test can swap a function of the package for a faulty one.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from typing import Dict, List, Sequence, Tuple

from harness import expect
from imperfect import field, pbasis, presets, rank1, reconstruct, sp4, tower, unipotent

# calls inside the package that a traced run counts and times
# (harness.count_calls): every gcd, and every membership query of a
# subfield or R-space spec, each answered by a fresh elimination
COUNTED_CALLS = ((field, "poly_gcd", "field.poly_gcd"),
                 (tower.SubfieldSpec, "member", "tower.solve"),
                 (tower.RSpaceSpec, "member", "tower.solve"))

# ---------------------------------------------------------------------------
# input generation: elements drawn here, rendered canonically by the package
# ---------------------------------------------------------------------------


def _batch_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def rand_poly(rng: random.Random, ctx: field.Context, max_terms: int = 2) -> field.RatFunc:
    """A nonzero polynomial: up to max_terms terms of degree <= 1 in each variable."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[tuple(rng.randint(0, 1) for _ in ctx.names)] = rng.randint(1, ctx.p - 1)
    return field.RatFunc(ctx, ctx.poly(terms), ctx.const_poly(1), reduce=False)


def monomial(ctx: field.Context, exps: Sequence[int]) -> field.RatFunc:
    return field.RatFunc(ctx, ctx.poly({tuple(exps): 1}), ctx.const_poly(1), reduce=False)


def pth_span(rng: random.Random, ctx: field.Context,
             residues: Sequence[Tuple[int, ...]], most: int = 2) -> field.RatFunc:
    """sum of c_r^p * x^r over 1 to `most` distinct residues r, each c_r != 0.

    Its coordinates over the ambient p-basis are exactly the c_r, so the
    element lies in the K^p-span of {x^r} and in no smaller monomial span.
    """
    acc = ctx.zero()
    for r in rng.sample(list(residues), min(len(residues), rng.randint(1, most))):
        acc = acc + field.frobenius(rand_poly(rng, ctx)) * monomial(ctx, r)
    return acc


canon = field.render_element


def shapes(*choices) -> list:
    """Every combination of the choices, in one fixed shuffled order.

    Ops take their shape (generator kinds, roots, subsets) from this list in
    turn and only their coefficients from the seed, so every seed runs the
    same mix of shapes and the cost of a run depends little on the seed.
    """
    out = list(product(*choices))
    random.Random(0).shuffle(out)
    return out


def numbered(schedule, index: int):
    """(kind, i) over one batch: i counts the ops of that kind since the first batch."""
    per = {k: schedule.count(k) for k in schedule}
    seen = dict.fromkeys(per, 0)
    for kind in schedule:
        yield kind, index * per[kind] + seen[kind]
        seen[kind] += 1


# ---------------------------------------------------------------------------
# calls into the package, each inside its span
# ---------------------------------------------------------------------------


def parse(tr, s: str, ctx: field.Context) -> field.RatFunc:
    return tr.call("field.parse", field.parse_element, s, ctx)


def render(tr, xs) -> List[str]:
    with tr.span("field.render"):
        out = [field.render_element(x) for x in xs]
    tr.count("field.render.bytes", sum(len(s) for s in out))
    return out


def contains(tr, space, x) -> bool:
    got = tr.call("tower.member", space.contains, x)
    tr.count("tower.member")
    if got:
        tr.count("tower.member.yes")
    return got


def _monomials(ctx, a, p):
    """m_i(a) for i < p^len(a), base-p digits least significant first."""
    out = []
    for i in range(p ** len(a)):
        m = ctx.one()
        for x in a:
            m = m * x ** (i % p)
            i //= p
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# matrix-words
# ---------------------------------------------------------------------------

ROOTS = ("alpha", "2alpha+beta", "alpha+beta", "beta",
         "-alpha", "-2alpha+beta", "-alpha+beta", "-beta")


class MatrixWords:
    """SL2 and Sp4 words through the normal forms and membership procedures.

    Inputs: SL2 words of 3 generators a/b/h for bruhat2 and 2 + 2 for
    mult_bruhat (3 in 10 words followed by w) over F_2(t,u) and F_3(s,v);
    longer products make the cost heavy-tailed. Coefficients are
    polynomials of degree <= 1 in each variable with <= 2 terms; in every
    fourth SL2 op exactly one coefficient is a quotient of two such
    polynomials (two denominators in one op can cost seconds of gcd).
    Generator kinds and roots run through all their combinations in turn.
    Sp4 words over F_2(t,u) are polynomial: 3 root steps for sp4_bruhat,
    3 steps of K^2 + tK^2 line elements for membership (answer yes), and
    one root element with a u-component between two such steps (answer no).
    SL2 membership takes words of 3 generators a/b over the timmesfeld-codim1
    line L = span_{K^2}{1,t,u}, each coordinate one term q^2*b; factor_codim1 takes polynomial tau in the
    K^2-span of 1, t, u, t*u (one denominator there can cost seconds).
    """

    name = "matrix-words"
    DENOM_EVERY = 4  # every fourth SL2 op has one denominator
    SL2_SHAPES = shapes("abh", "abh", "abh")
    MULT_SHAPES = shapes("abh", "abh", "abh", "abh")
    ROOT_SHAPES = shapes(ROOTS, ROOTS, ROOTS)
    # the a(x) in front of a "no" word has a term off L: v, tu, tv, uv or tuv
    MEMBER_SHAPES = shapes("ab", "ab", "ab",
                           ((0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)))
    SCHEDULE = ("sl2-bruhat/2", "sl2-bruhat/3", "sl2-mult/2", "sl2-mult/3", "sp4-bruhat",
                "sl2-bruhat/2", "sl2-bruhat/3", "sl2-mult/2", "sl2-mult/3", "sp4-bruhat",
                "psp4-yes", "psp4-no", "sl2-member-yes", "sl2-member-no", "factor-codim1")
    # 41 passes: every product shape of both fields (81 each, two ops a pass),
    # so also all 27 bruhat2 and all 40 membership shapes; the first 82 of
    # the 512 Sp4 root triples for sp4-bruhat and 41 for each psp4 kind
    digest_ops = 41 * len(SCHEDULE)

    def setup(self):
        ctx2 = field.Context(2, ("t", "u"))
        ctx3 = field.Context(3, ("s", "v"))
        t = ctx2.var("t")
        spec = tower.IndifferentSpec(ctx2, [ctx2.one(), t], (t,), [ctx2.one()])
        data = presets.Bundle.load("timmesfeld-codim1").timmesfeld()
        # one query per space, so lazily built membership data is set-up work
        for space in (spec.K0, spec.L0, data.L, data.K_L):
            space.contains(space.ctx.one())
        return {
            "ctx": {2: ctx2, 3: ctx3, "codim1": data.L.ctx},
            "st": {2: rank1.field_structure(ctx2), 3: rank1.field_structure(ctx3)},
            "spec": spec,
            "data": data,
        }

    # -- generation --------------------------------------------------------

    def _coef(self, rng, ctx, denominator=False) -> str:
        x = rand_poly(rng, ctx)
        if denominator:
            x = x / rand_poly(rng, ctx)
        return canon(x)

    def _sl2_words(self, rng, ctx, shape, i):
        """Words of the generator kinds in `shape`, two per word for a product."""
        parts = [shape] if len(shape) == 3 else [shape[:2], shape[2:]]
        den = (i // self.DENOM_EVERY) % len(shape) if i % self.DENOM_EVERY == 0 else -1
        words = []
        at = 0
        for n, kinds in enumerate(parts):
            word = []
            for k in kinds:
                word.append((k, self._coef(rng, ctx, at == den)))
                at += 1
            if (i // 10 ** n) % 10 < 3:
                word.append(("w", None))
            words.append(word)
        return words

    def _line_elem(self, rng, ctx):
        """A nonzero a^2 + b^2*t with a, b in {0, 1, t, u}."""
        t = ctx.var("t")
        pool = (ctx.zero(), ctx.one(), t, ctx.var("u"))
        while True:
            a, b = rng.choice(pool), rng.choice(pool)
            x = a * a + b * b * t
            if not x.is_zero():
                return x

    def _L_elem(self, rng, ctx):
        """q^2*b with q in {1, t, u, v} and b in {1, t, u}.

        One term: with two-term coordinates about one word in a few hundred
        sent torus membership into seconds of gcd.
        """
        q = rng.choice((ctx.one(),) + ctx.gens())
        return q * q * rng.choice((ctx.one(), ctx.var("t"), ctx.var("u")))

    def make_batch(self, seed: int, index: int) -> List[dict]:
        rng = _batch_rng(seed, index)
        ctx2 = field.Context(2, ("t", "u"))
        ctx3 = field.Context(3, ("s", "v"))
        cc = field.Context(2, ("t", "u", "v"))
        ops = []
        for kind, i in numbered(self.SCHEDULE, index):
            op = {"kind": kind}
            if kind.startswith("sl2-bruhat") or kind.startswith("sl2-mult"):
                ctx = ctx2 if kind.endswith("/2") else ctx3
                op["p"] = ctx.p
                table = self.MULT_SHAPES if "mult" in kind else self.SL2_SHAPES
                op["words"] = self._sl2_words(rng, ctx, table[i % len(table)], i)
            elif kind.startswith("sp4") or kind.startswith("psp4"):
                roots = self.ROOT_SHAPES[i % len(self.ROOT_SHAPES)]
                if kind == "sp4-bruhat":
                    coefs = [self._coef(rng, ctx2) for _ in roots]
                else:
                    xs = [self._line_elem(rng, ctx2) for _ in roots]
                    if kind == "psp4-no":
                        xs[1] = xs[1] + field.frobenius(rand_poly(rng, ctx2)) * ctx2.var("u")
                    coefs = [canon(x) for x in xs]
                op["word"] = list(zip(roots, coefs))
            elif kind.startswith("sl2-member"):
                *kinds, off = self.MEMBER_SHAPES[i % len(self.MEMBER_SHAPES)]
                word = [(k, canon(self._L_elem(rng, cc))) for k in kinds]
                if kind == "sl2-member-no":
                    q = rng.choice((cc.one(),) + cc.gens())
                    x = self._L_elem(rng, cc) + q * q * monomial(cc, off)
                    word.insert(0, ("a", canon(x)))
                op["word"] = word
            else:  # factor-codim1: tau in K^2-span{1,t,u,tu}, nonzero
                tau = cc.zero()
                for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)):  # 1, t, u, t*u
                    tau = tau + field.frobenius(rand_poly(rng, cc)) * monomial(cc, m)
                op["tau"] = canon(tau)
            ops.append(op)
        return ops

    # -- ops ---------------------------------------------------------------

    def _build_sl2(self, tr, ctx, word):
        coefs = [None if c is None else parse(tr, c, ctx) for _, c in word]
        with tr.span("rank1.matmul"):
            g = rank1.Mat2.identity(ctx)
            for (kind, _), c in zip(word, coefs):
                g = g * rank1.gen(kind, c, ctx)
        return g

    def _build_sp4(self, tr, ctx, word):
        coefs = [parse(tr, c, ctx) for _, c in word]
        with tr.span("sp4.matmul"):
            g = sp4.identity4(ctx)
            for (root, _), c in zip(word, coefs):
                g = g * sp4.chevalley_gen(sp4.Sp4Root(root), c)
        return g

    @staticmethod
    def _form_coords(form):
        if isinstance(form, rank1.Upper):
            return "U", (form.tau, form.s)
        return "C", (form.tau, form.s1, form.s2)

    def run_op(self, state, op, tr) -> List[str]:
        kind = op["kind"]
        if kind.startswith("sl2-bruhat") or kind.startswith("sl2-mult"):
            ctx = state["ctx"][op["p"]]
            gs = [self._build_sl2(tr, ctx, w) for w in op["words"]]
            forms = [tr.call("rank1.bruhat2", rank1.bruhat2, g) for g in gs]
            if len(forms) == 2:
                form = tr.call("rank1.mult_bruhat", rank1.mult_bruhat,
                               forms[0], forms[1], state["st"][op["p"]])
                with tr.span("rank1.matmul"):
                    expect(form.to_matrix(ctx) == gs[0] * gs[1], "product of normal forms")
            else:
                form = forms[0]
                with tr.span("rank1.matmul"):
                    expect(form.to_matrix(ctx) == gs[0], "normal form reassembly")
            cell, coords = self._form_coords(form)
            return [cell] + render(tr, coords)

        if kind == "sp4-bruhat":
            ctx = state["ctx"][2]
            g = self._build_sp4(tr, ctx, op["word"])
            br = tr.call("sp4.sp4_bruhat", sp4.sp4_bruhat, g)
            with tr.span("sp4.matmul"):
                expect(br.to_matrix() == g, "Bruhat reassembly")
            return [br.word] + render(tr, (br.s_alpha, br.s_beta) + br.u1.coords + br.u2.coords)

        if kind.startswith("psp4"):
            ctx = state["ctx"][2]
            g = self._build_sp4(tr, ctx, op["word"])
            m = tr.call("sp4.membership_psp4", sp4.membership_psp4, g, state["spec"])
            want = "yes" if kind == "psp4-yes" else "no"
            expect(m.verdict == want, f"psp4 verdict {m.verdict}, want {want}")
            factors = m.witness.factors if m.witness else []
            return [m.verdict] + render(tr, [f for f, _ in factors])

        data = state["data"]
        ctx = state["ctx"]["codim1"]
        if kind.startswith("sl2-member"):
            g = self._build_sl2(tr, ctx, op["word"])
            m = tr.call("rank1.membership", rank1.membership_sl2L, g, data)
            tr.count("rank1.membership")
            if m.verdict == "unknown":
                tr.count("rank1.membership.unknown")
            want = "yes" if kind == "sl2-member-yes" else "no"
            expect(m.verdict == want, f"sl2 verdict {m.verdict}, want {want}")
            if m.witness is None:
                return [m.verdict]
            factors = [f for f, _ in m.witness.factors]
            for f in factors:
                expect(contains(tr, data.L, f), "witness factor outside L")
            with tr.span("field.arith"):
                # the torus coordinate read straight off the matrix
                tau = g.a if g.c.is_zero() else -g.c.inverse()
                expect(m.witness.product(ctx) == tau, "witness product")
            return [m.verdict] + render(tr, factors)

        # factor-codim1
        tau = parse(tr, op["tau"], ctx)
        f1, f2 = tr.call("rank1.factor_codim1", rank1.factor_codim1, tau, data)
        with tr.span("field.arith"):
            expect(f1 * f2 == tau, "two factors multiply back")
        expect(not f1.is_zero() and contains(tr, data.L, f1), "first factor in L*")
        expect(not f2.is_zero() and contains(tr, data.L, f2), "second factor in L*")
        return render(tr, (f1, f2))


# ---------------------------------------------------------------------------
# unipotent-oracle
# ---------------------------------------------------------------------------


class UnipotentOracle:
    """Hexagon (g2 preset, F_3(s,v), k = K^3[s]) and quadrangle (indifferent-weak).

    Inputs: slot coordinates, zero or not by a pattern that runs through all
    zero patterns in turn; a nonzero one is a polynomial of degree <= 1 with
    <= 2 terms (full-field slots) or a sum of 1-2 terms c^p times a monomial
    of the slot domain. No denominators.
    Recovery ops run g2_recover/c2_recover on the benchmark's own counting
    oracle and verify_recovery with n = 1 against the codec.
    """

    name = "unipotent-oracle"
    SCHEDULE = ("assoc/G2", "assoc/C2", "center/G2", "center/C2", "inverse/G2",
                "inverse/C2", "torus/G2", "torus/C2") * 3 + ("recover/G2", "recover/C2")
    # 22 passes: all 64 hexagon and 16 quadrangle zero patterns in each of
    # assoc, center, inverse and torus (three ops of each a pass), 44 recoveries
    digest_ops = 22 * len(SCHEDULE)
    VERIFY_N = 1

    # monomial residues spanning each slot domain over K^p
    DOMAINS = {
        "G2": (None, ((0, 0), (1, 0), (2, 0))) * 3,                 # k = K^3[s]
        "C2": (((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (1, 0))) * 2,  # K0, L0
    }
    # which slots are nonzero; elements take these in turn
    MASKS = {group: shapes(*[(0, 1)] * len(doms)) for group, doms in DOMAINS.items()}

    def setup(self):
        hexagon = presets.Bundle.load("g2").g2()
        quadrangle = presets.Bundle.load("indifferent-weak").c2()
        for datum in (hexagon, quadrangle):
            for slot in datum.slots:
                if slot.domain is not None:
                    slot.domain.contains(datum.ctx.one())
        return {
            "datum": {"G2": hexagon, "C2": quadrangle},
            "oracle": {"G2": reconstruct.make_g2_oracle(hexagon),
                       "C2": reconstruct.make_c2_oracle(quadrangle)},
        }

    # -- generation --------------------------------------------------------

    def _element(self, rng, group, ctx, mask) -> List[str]:
        """Coordinates, zero where mask is 0 and a nonzero domain element where it is 1."""
        out = []
        for on, dom in zip(mask, self.DOMAINS[group]):
            if not on:
                out.append("0")
            elif dom is None:
                out.append(canon(rand_poly(rng, ctx)))
            else:
                out.append(canon(pth_span(rng, ctx, dom)))
        return out

    def make_batch(self, seed: int, index: int) -> List[dict]:
        rng = _batch_rng(seed, index)
        ctxs = {"G2": field.Context(3, ("s", "v")), "C2": field.Context(2, ("t", "u"))}
        ops = []
        for kind, i in numbered(self.SCHEDULE, index):
            what, group = kind.split("/")
            ctx = ctxs[group]
            masks = self.MASKS[group]
            op = {"kind": kind, "group": group}
            if what in ("assoc", "inverse", "torus"):
                count = {"assoc": 3, "inverse": 1, "torus": 2}[what]
                op["xs"] = [self._element(rng, group, ctx, masks[(3 * i + e) % len(masks)])
                            for e in range(count)]
            if what == "center":
                # the zero pattern decides both answers by construction
                outer, mid = ((1, 6), (2, 5)) if group == "G2" else ((1, 4), ())
                cases = ("center", "z2", "generic") if mid else ("center", "generic")
                case = cases[i % len(cases)]
                mask = list(masks[i % len(masks)])
                turn = (i // len(cases)) % 2
                if case == "center":
                    for slot in outer + mid:
                        mask[slot - 1] = 0
                elif case == "z2":
                    for slot in outer:
                        mask[slot - 1] = 0
                    mask[mid[turn] - 1] = 1
                else:
                    mask[outer[turn] - 1] = 1
                op["xs"] = [self._element(rng, group, ctx, mask)]
                op["center"] = case == "center"
                op["z2"] = case != "generic" or group == "C2"
            elif what == "torus":
                s_alpha = rand_poly(rng, ctx)
                if group == "G2":
                    s_beta = field.frobenius(s_alpha) * field.frobenius(rand_poly(rng, ctx))
                else:
                    s_beta = pth_span(rng, ctx, self.DOMAINS["C2"][0])
                op["h"] = (canon(s_alpha), canon(s_beta))
            elif what == "recover":
                op["verify_seed"] = rng.randrange(2 ** 31)
            ops.append(op)
        return ops

    # -- ops ---------------------------------------------------------------

    def _parse_u(self, tr, datum, coords):
        return unipotent.UElement(datum, tuple(parse(tr, c, datum.ctx) for c in coords))

    def _in_domain(self, tr, x):
        for slot, c in zip(x.datum.slots, x.coords):
            if slot.domain is not None and not c.is_zero():
                expect(contains(tr, slot.domain, c), f"slot {slot.index} left its domain")

    @staticmethod
    def counting_oracle(o: reconstruct.GroupOracle, tr) -> reconstruct.GroupOracle:
        """The same oracle with every query counted and spanned."""

        def wrap(fn):
            def query(*args):
                tr.count("reconstruct.oracle_queries")
                with tr.span("reconstruct.oracle"):
                    return fn(*args)
            return query

        return reconstruct.GroupOracle(
            kind=o.kind, eq=wrap(o.eq), mul=wrap(o.mul), inv=wrap(o.inv),
            identity=o.identity, params=dict(o.params),
            member={s: wrap(f) for s, f in o.member.items()},
            sample={s: wrap(f) for s, f in o.sample.items()},
        )

    def run_op(self, state, op, tr) -> List[str]:
        what = op["kind"].split("/")[0]
        group = op["group"]
        datum = state["datum"][group]
        mult = unipotent.u_mult
        if what == "recover":
            raw, codec = state["oracle"][group]
            oracle = self.counting_oracle(raw, tr)
            recover = reconstruct.g2_recover if group == "G2" else reconstruct.c2_recover
            rec = tr.call("reconstruct.recover", recover, oracle)
            rep = tr.call("reconstruct.verify", reconstruct.verify_recovery, rec, codec,
                          n=self.VERIFY_N, seed=op["verify_seed"])
            tr.count("reconstruct.checks", rep.checks)
            expect(rep.ok, f"recovery mismatches: {rep.mismatches[:2]}")
            return [f"checks={rep.checks}"]

        xs = [self._parse_u(tr, datum, c) for c in op["xs"]]
        if what == "assoc":
            x, y, z = xs
            left = tr.call("unipotent.u_mult", mult,
                           tr.call("unipotent.u_mult", mult, x, y), z)
            right = tr.call("unipotent.u_mult", mult,
                            x, tr.call("unipotent.u_mult", mult, y, z))
            expect(left == right, "associativity")
            self._in_domain(tr, left)
            return render(tr, left.coords)
        if what == "inverse":
            x = xs[0]
            xinv = tr.call("unipotent.u_inverse", unipotent.u_inverse, x)
            expect(tr.call("unipotent.u_mult", mult, x, xinv).is_identity(), "x * x^-1 = 1")
            self._in_domain(tr, xinv)
            return render(tr, xinv.coords)
        if what == "center":
            x = xs[0]
            c = tr.call("unipotent.center", unipotent.center_member, x)
            z2 = tr.call("unipotent.center", unipotent.z2_member, x)
            expect(c == op["center"], "center verdict")
            expect(z2 == op["z2"], "second-center verdict")
            return [f"center={c}", f"z2={z2}"]
        # torus: h acts as an automorphism and keeps the slot domains
        x, y = xs
        h = unipotent.TorusElement2(*(parse(tr, s, datum.ctx) for s in op["h"]))
        act = unipotent.torus_act
        lhs = tr.call("unipotent.torus_act", act, h, tr.call("unipotent.u_mult", mult, x, y))
        rhs = tr.call("unipotent.u_mult", mult, tr.call("unipotent.torus_act", act, h, x),
                      tr.call("unipotent.torus_act", act, h, y))
        expect(lhs == rhs, "torus action respects products")
        self._in_domain(tr, lhs)
        return render(tr, lhs.coords)


# ---------------------------------------------------------------------------
# tower-build
# ---------------------------------------------------------------------------


class TowerBuild:
    """Many subfield and R-space specs, each built and then queried a few times.

    Specs are K^p[g_1..g_k] in F_p(x[,y[,z]]) with g_i = x_i*c_i^p + d_i^p
    for the variables x_i of a subset S; the ops of one field run through
    every allowed subset (and extra variable x_j) in turn. Size rule: c_i is one term
    and d_i and all query coefficients have <= 2 terms, all of degree <= 1
    in each variable; query elements have 1-2 such terms c^p*x^r; and
    every tuple handed to the p-basis layer has p^|tuple| <= 9 (so k <= 3
    for p = 2, k <= 2 for p = 3, k = 1 for p = 5). K^p[g] = K^p[x_S], so an
    element built from monomials x^r is a member iff every r vanishes off S.
    """

    name = "tower-build"
    FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2))
    RSPACE_FIELDS = ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2))
    PRESETS = ("tower-simple", "tower-over-k1", "tower-bad",
               "indifferent-weak", "indifferent-proper")
    SCHEDULE = (tuple(f"subfield/{p}.{n}" for p, n in FIELDS)
                + tuple(f"rspace/{p}.{n}" for p, n in RSPACE_FIELDS)
                + tuple(f"validate/{name}" for name in PRESETS))
    # 20 passes: every (S, j) shape of every field twice (the longest list has 10)
    digest_ops = 20 * len(SCHEDULE)
    MAX_DIM = 9  # p^|tuple| bound
    SAMPLES = 8  # validate_tower's randomized independence samples
    # validate_tower's sampling seed is a shape, taken in turn: its cost
    # ranges over 7x across sampling seeds, and drawing it from the seed
    # made the tail move with the seed
    VALIDATE_SEEDS = 64

    def setup(self):
        return {"ctx": {(p, n): field.Context(p, "xyz"[:n]) for p, n in self.FIELDS}}

    # -- generation --------------------------------------------------------

    def _kmax(self, p, n):
        k = 0
        while k < n and p ** (k + 1) <= self.MAX_DIM:
            k += 1
        return k

    @staticmethod
    def _residues(p, n, free=(), limits=None):
        """Exponent vectors below p on `free` and below limits[j] on j, zero elsewhere."""
        limits = dict(limits or {})
        ranges = [range(p) if i in free else range(limits.get(i, 1)) for i in range(n)]
        return list(product(*ranges))

    def _shapes(self, what, p, n):
        """(S, j) pairs: S a subset allowed by the size rule, j a variable outside it."""
        kmax = self._kmax(p, n) if what == "subfield" else min(self._kmax(p, n), n - 1)
        out = []
        for k in range(1, kmax + 1):
            for S in combinations(range(n), k):
                out += [(S, j) for j in range(n) if j not in S] or [(S, None)]
        return out

    def make_batch(self, seed: int, index: int) -> List[dict]:
        rng = _batch_rng(seed, index)
        ops = []
        for kind, i in numbered(self.SCHEDULE, index):
            what, arg = kind.split("/")
            op = {"kind": kind}
            if what == "validate":
                op["preset"] = arg
                op["seed"] = i % self.VALIDATE_SEEDS
                ops.append(op)
                continue
            p, n = map(int, arg.split("."))
            ctx = field.Context(p, "xyz"[:n])
            names = ctx.names
            table = self._shapes(what, p, n)
            S, j = table[i % len(table)]
            k = len(S)
            gens = []
            for v in S:
                c = field.frobenius(rand_poly(rng, ctx, max_terms=1))
                gens.append(canon(ctx.gens()[v] * c + field.frobenius(rand_poly(rng, ctx))))
            op.update(p=p, n=n, gens=gens)
            inside = self._residues(p, n, free=S)
            outside = [r for r in self._residues(p, n, free=range(n)) if r not in inside]
            queries = []
            if what == "subfield":
                x_in = canon(pth_span(rng, ctx, inside))
                queries.append(("member", x_in, True))
                queries.append(("lambda", x_in, True))
                if outside:
                    x_out = canon(pth_span(rng, ctx, inside) + pth_span(rng, ctx, outside, 1))
                    queries.append(("member", x_out, False))
                    queries.append(("lambda", x_out, False))
                if p ** (k + 1) <= self.MAX_DIM:
                    x_dep = canon(pth_span(rng, ctx, inside))
                    queries.append(("indep", x_dep, False))
                    if j is not None:
                        queries.append(("indep", names[j], True))
            else:  # rspace: span of {1, x_j} over K^p[g]
                op["extra"] = names[j]
                member = self._residues(p, n, free=S, limits={j: 2})
                non = [r for r in outside if r not in member]
                queries.append(("rmember", canon(pth_span(rng, ctx, member)), True))
                if non:
                    x_out = canon(pth_span(rng, ctx, member) + pth_span(rng, ctx, non, 1))
                    queries.append(("rmember", x_out, False))
            op["queries"] = queries
            ops.append(op)
        return ops

    # -- ops ---------------------------------------------------------------

    def run_op(self, state, op, tr) -> List[str]:
        what = op["kind"].split("/")[0]
        if what == "validate":
            return self._validate(state, op, tr)
        ctx = state["ctx"][(op["p"], op["n"])]
        p = ctx.p
        gens = [parse(tr, g, ctx) for g in op["gens"]]
        F = tr.call("tower.build", tower.SubfieldSpec, "F", gens, ctx)
        out = []
        if what == "rspace":
            R = tr.call("tower.build", tower.RSpaceSpec, "R", F,
                        [ctx.one(), parse(tr, op["extra"], ctx)])
        for q, s, want in op["queries"]:
            x = parse(tr, s, ctx)
            if q == "member":
                got = contains(tr, F, x)
                expect(got == want, f"subfield membership {got}, want {want}")
                out.append(f"member={got}")
            elif q == "indep":
                got = tr.call("pbasis.is_p_independent", pbasis.is_p_independent,
                              gens + [x], (), ctx)
                expect(got == want, f"p-independence {got}, want {want}")
                out.append(f"indep={got}")
            elif q == "lambda":
                lc = tr.call("pbasis.lambda_coords", pbasis.lambda_coords, gens, x, ctx)
                tr.count("pbasis.lambda_coords")
                if lc.defined:
                    tr.count("pbasis.lambda_coords.defined")
                expect(lc.defined == want, f"lambda_coords defined={lc.defined}, want {want}")
                with tr.span("field.arith"):
                    if want:
                        back = ctx.zero()
                        for c, m in zip(lc, _monomials(ctx, gens, p)):
                            back = back + field.frobenius(c) * m
                        expect(back == x, "lambda_coords round trip")
                    else:
                        expect(all(c.is_zero() for c in lc), "undefined coordinates are zero")
                out += render(tr, lc)
            else:  # rmember
                coords = tr.call("tower.member", R.member, x)
                tr.count("tower.member")
                expect((coords is not None) == want, f"R-space membership, want {want}")
                if coords is None:
                    out.append("rmember=None")
                    continue
                tr.count("tower.member.yes")
                with tr.span("field.arith"):
                    back = coords[0] + coords[1] * R.basis[1]
                    expect(back == x, "R-space coordinates rebuild the element")
                expect(all(contains(tr, F, c) for c in coords), "coordinates in the scalar field")
                out += render(tr, coords)
        return out

    def _validate(self, state, op, tr) -> List[str]:
        name = op["preset"]
        bundle = tr.call("tower.build", presets.Bundle.load, name)
        cfg = bundle.cfg
        if cfg.indifferent is not None:
            rep = tr.call("tower.validate", tower.validate_indifferent, cfg.indifferent)
        else:
            rep = tr.call("tower.validate", tower.validate_tower, cfg.tower,
                          sample_count=self.SAMPLES, seed=op["seed"])
        failed = [c.name for c in rep.failed()]
        if name == "tower-bad":
            expect("level1.independent-basis" in failed, "tower-bad must fail its basis check")
        else:
            expect(rep.ok, f"{name} failed {failed}")
        return [json.dumps(rep.to_dict(), sort_keys=True)]


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (MatrixWords(), UnipotentOracle(), TowerBuild())
}
