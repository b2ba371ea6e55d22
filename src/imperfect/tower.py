"""Finite presentations and validators for subfield chains and module towers.

A subfield is presented as K^p adjoined finitely many p-independent
generators. An R-space is the span of a finite basis (containing 1) over
such a subfield. Towers pair a chain of subfields with a chain of R-spaces
and are validated against two conditions: the multiplicative stabilizer of
each R_i must be exactly its scalar field, and independent subsets of R_i
must be p-independent over the scalar field (checked exactly on the basis
and by randomized sampling beyond it).

Indifferent pairs (L0, K0) get their own validator: inclusion checks on
bases, stability of L0 under squares from K0, stability of K0 under the
field generated by L0, and optionally that K0 generates the ambient field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .field import Context, FieldError, ImperfectError, RatFunc, parse_element, render_element
from .pbasis import (
    LambdaCoords,
    differential,
    is_p_independent,
    lambda_ambient,
    lambda_coords,
    lambda_numerators,
    p_monomial,
    reconstruct,
)


class SpecError(ImperfectError, ValueError):
    """A structurally invalid spec (dependent generators, missing 1, bad reference)."""

    def __init__(self, msg: str, where: str = ""):
        super().__init__(f"{where}: {msg}" if where else msg)
        self.where = where


class InvariantViolation(ImperfectError, AssertionError):
    """Two supposedly equivalent characterizations disagreed."""


# ---------------------------------------------------------------------------
# subfields and R-spaces
# ---------------------------------------------------------------------------


class SubfieldSpec:
    """K^p[gens] inside the ambient field; gens must be p-independent.

    Both questions are answered by the Jacobian criterion (see pbasis): the
    generators are p-independent iff their differentials are K-linearly
    independent, and x lies in K^p[gens] iff dx lies in their K-span.
    """

    def __init__(self, name: str, gens: Sequence[RatFunc], ctx: Context):
        self.name = name
        self.gens = tuple(gens)
        self.ctx = ctx
        if any(g.is_zero() for g in self.gens):
            raise SpecError("zero generator", name)
        if len(self.gens) > ctx.n:
            raise SpecError("generators are not p-independent", name)
        # one elimination both validates the generators and answers every query
        self._space = _linalg.ColumnSpace([differential(g) for g in self.gens], ctx)
        if not self._space.ok:
            raise SpecError("generators are not p-independent", name)

    @property
    def dim_over_p(self) -> int:
        """[K^p[gens] : K^p] = p^(number of generators)."""
        return self.ctx.p ** len(self.gens)

    def member(self, x: RatFunc) -> Optional[LambdaCoords]:
        coords = lambda_coords(self.gens, x, self.ctx)
        return coords if coords.defined else None

    def contains(self, x: RatFunc) -> bool:
        return self._space.contains(differential(x))

    def rand_element(
        self, rng: random.Random, nonzero: bool = False, max_deg: int = 1, max_terms: int = 2
    ) -> RatFunc:
        from .field import frobenius

        while True:
            acc = self.ctx.zero()
            for l in range(self.dim_over_p):
                if rng.random() < 0.5:
                    continue
                c = self.ctx.rand_ratfunc(rng, max_deg, max_terms, denominators=False)
                acc = acc + frobenius(c) * p_monomial(self.ctx, l, self.gens)
            if not nonzero or not acc.is_zero():
                return acc

    def __repr__(self):
        inside = ", ".join(render_element(g) for g in self.gens)
        return f"{self.name}=K^{self.ctx.p}[{inside}]"


class RSpaceSpec:
    """The span of `basis` over a subfield; 1 must lie in the basis."""

    def __init__(
        self,
        name: str,
        over: SubfieldSpec,
        basis: Sequence[RatFunc],
        require_one: bool = True,
    ):
        self.name = name
        self.over = over
        self.basis = tuple(basis)
        self.ctx = over.ctx
        if not self.basis:
            raise SpecError("empty basis", name)
        if require_one and not any(b.is_one() for b in self.basis):
            raise SpecError("basis does not contain 1", name)
        w = over.dim_over_p
        if len(self.basis) * w > self.ctx.p ** self.ctx.n:
            raise SpecError("basis is not linearly independent over the scalar field", name)
        self._columns = [
            lambda_ambient(p_monomial(self.ctx, l, over.gens) * b)
            for b in self.basis
            for l in range(w)
        ]
        # one elimination both validates the basis and answers every query
        self._space = _linalg.ColumnSpace(self._columns, self.ctx)
        if not self._space.ok:
            raise SpecError("basis is not linearly independent over the scalar field", name)

    def member(self, x: RatFunc) -> Optional[List[RatFunc]]:
        """Scalar-field coordinates of x in the basis, or None."""
        sol = self._space.solve(lambda_numerators(x), x.den)
        if sol is None:
            return None
        w = self.over.dim_over_p
        coords = []
        for j in range(len(self.basis)):
            block = sol[j * w : (j + 1) * w]
            coords.append(reconstruct(self.over.gens, block, self.ctx))
        return coords

    def contains(self, x: RatFunc) -> bool:
        return self._space.contains(lambda_numerators(x))

    def stable_under(self, f: RatFunc) -> bool:
        """Whether f * R = R: f * b and b / f lie in R for every basis element b."""
        return all(self.contains(f * b) and self.contains(b / f) for b in self.basis)

    def evaluate(self, coords: Sequence[RatFunc]) -> RatFunc:
        acc = self.ctx.zero()
        for c, b in zip(coords, self.basis):
            acc = acc + c * b
        return acc

    def rand_element(self, rng: random.Random, nonzero: bool = False) -> RatFunc:
        while True:
            coords = [
                self.over.rand_element(rng) if rng.random() < 0.7 else self.ctx.zero()
                for _ in self.basis
            ]
            x = self.evaluate(coords)
            if not nonzero or not x.is_zero():
                return x

    def __repr__(self):
        inside = ", ".join(render_element(b) for b in self.basis)
        return f"{self.name}=span_{{{self.over.name}}}{{{inside}}}"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    detail: str = ""

    def to_dict(self):
        d = {"name": self.name, "status": self.status}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class ValidationReport:
    subject: str
    checks: List[CheckResult] = dc_field(default_factory=list)
    dims: Dict[str, int] = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, "pass" if passed else "fail", detail))

    def failed(self) -> List[CheckResult]:
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
            "dims": dict(self.dims),
        }


# ---------------------------------------------------------------------------
# stabilizer computation
# ---------------------------------------------------------------------------


def _stabilizer_vectors(R: RSpaceSpec) -> List[List[RatFunc]]:
    """K-basis of the ambient-coordinate space of {a in K : a * R <= R}.

    Unknowns are the ambient coordinates of a together with, per basis
    element b_j, the coordinates of a*b_j in R's membership columns. The
    kernel of the stacked system, projected to the a-part, is the answer;
    the projection is injective because R's columns are independent.
    """
    ctx = R.ctx
    size = ctx.p ** ctx.n
    wcols = R._columns
    w = len(wcols)
    nbasis = len(R.basis)
    vars_gens = ctx.gens()
    rows: List[List[RatFunc]] = []
    zero = ctx.zero()
    for j, b in enumerate(R.basis):
        acols = [lambda_ambient(p_monomial(ctx, r, vars_gens) * b) for r in range(size)]
        for i in range(size):
            row = [acols[r][i] for r in range(size)]
            pad = [zero] * (nbasis * w)
            for l in range(w):
                pad[j * w + l] = -wcols[l][i]
            rows.append(row + pad)
    kernel = _linalg.nullspace(rows, ctx)
    return [v[:size] for v in kernel]


def _greedy_gens(candidates: Sequence[RatFunc], ctx: Context) -> List[RatFunc]:
    """A p-basis of K^p[candidates]: each candidate in turn that lies outside
    the field generated by the ones kept before it."""
    gens: List[RatFunc] = []
    for a in candidates:
        if not SubfieldSpec("_probe", gens, ctx).contains(a):
            gens.append(a)
    return gens


def stabilizer_field(R: RSpaceSpec, name: Optional[str] = None) -> SubfieldSpec:
    """Generators for the multiplicative stabilizer {a : a*R <= R}, always a field."""
    ctx = R.ctx
    vecs = _stabilizer_vectors(R)
    elements = []
    for v in vecs:
        a = reconstruct(ctx.gens(), v, ctx)
        if a.is_zero():
            continue
        # multiplying by den^p changes nothing mod K^p and keeps the
        # presented generators polynomial
        if not a.den.is_one():
            num = a.num
            for _ in range(ctx.p - 1):
                num = num * a.den
            a = RatFunc(ctx, num, ctx.const_poly(1))
        elements.append(a)
    elements.sort(key=lambda a: (a.num.total_degree(), render_element(a)))
    got = SubfieldSpec(name or f"stab({R.name})", _greedy_gens(elements, ctx), ctx)
    if len(vecs) != got.dim_over_p:
        raise InvariantViolation(
            f"stabilizer of {R.name} is not a field presentation: "
            f"kernel dimension {len(vecs)}, extracted p-degree {got.dim_over_p}"
        )
    return got


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


class TowerSpec:
    """Paired chains (K_1 <= ... <= K_m) and (R_1, ..., R_m) with R_i over K_i."""

    def __init__(self, ctx: Context, subfields: Sequence[SubfieldSpec], rspaces: Sequence[RSpaceSpec]):
        if len(subfields) != len(rspaces):
            raise SpecError("need one R-space per subfield level")
        for F, R in zip(subfields, rspaces):
            if R.over is not F:
                raise SpecError(f"{R.name} is not declared over {F.name}", R.name)
        self.ctx = ctx
        self.subfields = list(subfields)
        self.rspaces = list(rspaces)


def _sample_independent_subset(
    R: RSpaceSpec, rng: random.Random, k: int
) -> Optional[List[RatFunc]]:
    """k elements of R with {1} union result independent over the scalar field.

    Sampling happens in coordinates, so independence is a rank test on the
    sampled coordinate vectors; no membership solve is needed. Returns None
    when the draw came out dependent.
    """
    ctx = R.ctx
    one_row = [ctx.one() if b.is_one() else ctx.zero() for b in R.basis]
    coordvecs = []
    for _ in range(k):
        coordvecs.append(
            [
                R.over.rand_element(rng) if rng.random() < 0.7 else ctx.zero()
                for _ in R.basis
            ]
        )
    if _linalg.rank([one_row] + coordvecs) != k + 1:
        return None
    return [R.evaluate(cv) for cv in coordvecs]


def validate_tower(
    spec: TowerSpec, sample_count: int = 64, seed: int = 0
) -> ValidationReport:
    ctx = spec.ctx
    rng = random.Random(seed)
    report = ValidationReport(subject="tower")
    levels = len(spec.rspaces)
    for i in range(levels):
        F = spec.subfields[i]
        R = spec.rspaces[i]
        tag = f"level{i + 1}"
        upper: Optional[SubfieldSpec]
        upper = spec.subfields[i + 1] if i + 1 < levels else None

        # chain inclusions: K_i and R_i land inside the next subfield (ambient if last)
        if upper is None:
            report.add(f"{tag}.chain", True, "top level lives in the ambient field")
        else:
            bad = [g for g in F.gens if not upper.contains(g)]
            bad += [b for b in R.basis if not upper.contains(b)]
            report.add(
                f"{tag}.chain",
                not bad,
                "" if not bad else "escaped: " + ", ".join(render_element(x) for x in bad),
            )

        # condition (1): the stabilizer of R_i is exactly K_i
        vecs = _stabilizer_vectors(R)
        dim_d = len(vecs)
        want = F.dim_over_p
        stab = _linalg.ColumnSpace(vecs, ctx)
        contained = dim_d > 0 and all(
            stab.contains(lambda_numerators(p_monomial(ctx, l, F.gens))) for l in range(want)
        )
        report.add(
            f"{tag}.stabilizer",
            dim_d == want and contained,
            f"stabilizer dimension {dim_d} over K, scalar field dimension {want}",
        )

        # condition (2), exact part: basis minus 1 is p-independent over K_i
        rest = [b for b in R.basis if not b.is_one()]
        exact_ok = is_p_independent(rest, over_gens=F.gens, ctx=ctx)
        report.add(
            f"{tag}.independent-basis",
            exact_ok,
            "basis elements other than 1 are p-independent over the scalar field"
            if exact_ok
            else "basis contains a p-dependence over the scalar field",
        )

        # condition (2), randomized part
        bad_subset = None
        tried = 0
        draws = 0
        max_size = min(3, len(R.basis) - 1)
        while max_size > 0 and tried < sample_count and draws < 40 * sample_count:
            draws += 1
            k = rng.randint(1, max_size)
            subset = _sample_independent_subset(R, rng, k)
            if subset is None:
                continue
            tried += 1
            if not is_p_independent(subset, over_gens=F.gens, ctx=ctx):
                bad_subset = subset
                break
        report.add(
            f"{tag}.independent-samples",
            bad_subset is None,
            f"{tried} independent subsets checked"
            if bad_subset is None
            else "dependent sample: {" + ", ".join(render_element(x) for x in bad_subset) + "}",
        )

        report.dims[f"{tag}.dim_R_over_K{i + 1}"] = len(R.basis)
        upper_m = len(upper.gens) if upper is not None else ctx.n
        upper_name = f"K{i + 2}" if upper is not None else "K"
        report.dims[f"{tag}.[{upper_name}:K{i + 1}]"] = ctx.p ** (upper_m - len(F.gens))
    return report


@dataclass
class DerivedFields:
    """Stabilizer fields per chain level; the top field is a relabeled copy."""

    fields: List[SubfieldSpec]
    tilde: SubfieldSpec
    tilde_is_relabeled: bool = True

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


# ---------------------------------------------------------------------------
# indifferent pairs
# ---------------------------------------------------------------------------


class IndifferentSpec:
    """(K; L0, K0) with K^2 <= L0 <= K0 <= K, presented by bases (char 2 only)."""

    def __init__(
        self,
        ctx: Context,
        L0_basis: Sequence[RatFunc],
        K0_field_gens: Sequence[RatFunc],
        K0_basis: Sequence[RatFunc],
        weak: bool = True,
    ):
        if ctx.p != 2:
            raise FieldError("indifferent pairs are a characteristic-2 notion")
        self.ctx = ctx
        self.Kp = SubfieldSpec("Kp", (), ctx)
        self.L0 = RSpaceSpec("L0", self.Kp, L0_basis)
        self.E0 = SubfieldSpec("E0", K0_field_gens, ctx)
        self.K0 = RSpaceSpec("K0", self.E0, K0_basis)
        self.weak = weak


def _subset_products(xs: Sequence[RatFunc], ctx: Context) -> List[RatFunc]:
    out = [ctx.one()]
    for x in xs:
        out += [y * x for y in out]
    return [x for x in out if not x.is_one()]


def validate_indifferent(spec: IndifferentSpec) -> ValidationReport:
    ctx = spec.ctx
    report = ValidationReport(subject="indifferent")

    report.add("L0.contains-one", spec.L0.contains(ctx.one()))

    bad = [b for b in spec.L0.basis if not spec.K0.contains(b)]
    report.add(
        "L0-inside-K0",
        not bad,
        "" if not bad else "escaped: " + ", ".join(render_element(x) for x in bad),
    )

    # L0 must be stable under squares from K0. Scalars of K0 square into K^2,
    # which L0 absorbs as a K^2-space, so basis squares (and their pairwise
    # products) decide the condition.
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

    # K0 must be stable under the field generated by L0, which is
    # K^2[L0-basis]; square-free basis products generate it over K^2.
    bad_pairs = []
    for m in _subset_products(spec.L0.basis, ctx):
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


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


@dataclass
class Config:
    """Parsed contents of a tower/indifferent JSON configuration."""

    ctx: Context
    subfields: Dict[str, SubfieldSpec]
    rspaces: Dict[str, RSpaceSpec]
    tower: Optional[TowerSpec]
    indifferent: Optional[IndifferentSpec]
    timmesfeld: Optional[dict]  # raw section; rank1 interprets it

    @staticmethod
    def load(source) -> "Config":
        if isinstance(source, (str, bytes)):
            with open(source) as fh:
                raw = json.load(fh)
        else:
            raw = source
        return config_from_dict(raw)


def config_from_dict(raw: dict) -> Config:
    try:
        p = int(raw["p"])
        var_names = list(raw["vars"])
    except KeyError as e:
        raise SpecError(f"config missing key {e}")
    ctx = Context(p, var_names)

    def parse(s: str) -> RatFunc:
        return parse_element(s, ctx)

    subfields: Dict[str, SubfieldSpec] = {"Kp": SubfieldSpec("Kp", (), ctx)}
    for sf in raw.get("subfields", []):
        name = sf["name"]
        subfields[name] = SubfieldSpec(name, [parse(g) for g in sf.get("gens", [])], ctx)

    rspaces: Dict[str, RSpaceSpec] = {}
    ordered_r: List[RSpaceSpec] = []
    ordered_f: List[SubfieldSpec] = []
    for rs in raw.get("rspaces", []):
        name = rs["name"]
        over_name = rs.get("over", "Kp")
        if over_name not in subfields:
            raise SpecError(f"unknown subfield {over_name!r}", name)
        over = subfields[over_name]
        space = RSpaceSpec(name, over, [parse(b) for b in rs["basis"]])
        rspaces[name] = space
        ordered_r.append(space)
        ordered_f.append(over)

    tower = TowerSpec(ctx, ordered_f, ordered_r) if ordered_r else None

    indifferent = None
    if "indifferent" in raw:
        sec = raw["indifferent"]
        indifferent = IndifferentSpec(
            ctx,
            [parse(b) for b in sec["L0"]["basis"]],
            [parse(g) for g in sec["K0"].get("over_field_gens", [])],
            [parse(b) for b in sec["K0"]["basis"]],
            weak=bool(sec.get("weak", True)),
        )

    return Config(
        ctx=ctx,
        subfields=subfields,
        rspaces=rspaces,
        tower=tower,
        indifferent=indifferent,
        timmesfeld=raw.get("timmesfeld"),
    )
