"""Finite presentations and validators for subfield chains and module towers.

A subfield is presented as K^p adjoined finitely many p-independent
generators. An R-space is the span of a finite basis (containing 1) over
such a subfield. Towers pair a chain of subfields with a chain of R-spaces
and are validated against two conditions: the multiplicative stabilizer of
each R_i must be exactly its scalar field, and independent subsets of R_i
must be p-independent over the scalar field. The second holds exactly when
it holds for the basis, and when it fails the same elimination names a
dependent subset of the basis (see `validate_tower`).

Indifferent pairs (L0, K0) get their own validator: L0 inside K0, K0
stable under the field generated by L0, and optionally that K0 generates the
ambient field; the other two conditions hold by construction (see
`validate_indifferent`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import _linalg
from .field import Context, FieldError, ImperfectError, RatFunc, render_element
from .pbasis import LambdaCoords, PBasis, differential, lambda_numerators


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


class SubfieldSpec(PBasis):
    """K^p[gens] inside the ambient field; gens must be p-independent.

    Both questions are answered by the Jacobian criterion (see pbasis): the
    generators are p-independent iff their differentials are K-linearly
    independent, and x lies in K^p[gens] iff dx lies in their K-span.
    """

    def __init__(self, name: str, gens: Sequence[RatFunc], ctx: Context):
        super().__init__(gens, ctx)
        self.name = name
        if any(g.is_zero() for g in self.gens):
            raise SpecError("zero generator", name)
        if not self.independent:
            raise SpecError("generators are not p-independent", name)

    def member(self, x: RatFunc) -> Optional[LambdaCoords]:
        coords = self.coords(x)
        return coords if coords.defined else None

    def rand_element(
        self, rng: random.Random, nonzero: bool = False, max_deg: int = 1, max_terms: int = 2
    ) -> RatFunc:
        while True:
            acc = self.combine([
                self.ctx.rand_ratfunc(rng, max_deg, max_terms, denominators=False)
                if rng.random() >= 0.5 else self.ctx.zero() for _ in self.monomials
            ])
            if not nonzero or not acc.is_zero():
                return acc

    def __repr__(self):
        inside = ", ".join(render_element(g) for g in self.gens)
        return f"{self.name}=K^{self.ctx.p}[{inside}]"


class RSpaceSpec:
    """The span of `basis` over a subfield; 1 must lie in the basis."""

    def __init__(self, name: str, over: SubfieldSpec, basis: Sequence[RatFunc]):
        self.name = name
        self.over = over
        self.basis = tuple(basis)
        self.ctx = over.ctx
        if not self.basis:
            raise SpecError("empty basis", name)
        if not any(b.is_one() for b in self.basis):
            raise SpecError("basis does not contain 1", name)
        if len(self.basis) * over.dim_over_p > self.ctx.p ** self.ctx.n:
            raise SpecError("basis is not linearly independent over the scalar field", name)
        products = [m * b for b in self.basis for m in over.monomials]
        columns = [(lambda_numerators(x), x.den) for x in products]
        # one elimination validates the basis, answers every query and gives
        # the equations that the stabilizer is computed from
        self._space = _linalg.ColumnSpace(columns, self.ctx.p ** self.ctx.n, self.ctx)
        if not self._space.ok:
            raise SpecError("basis is not linearly independent over the scalar field", name)

    def member(self, x: RatFunc) -> Optional[List[RatFunc]]:
        """Scalar-field coordinates of x in the basis, or None."""
        sol = self._space.solve(lambda_numerators(x), x.den)
        if sol is None:
            return None
        w = self.over.dim_over_p
        return [self.over.combine(sol[j * w : (j + 1) * w]) for j in range(len(self.basis))]

    def contains(self, x: RatFunc) -> bool:
        return self._space.contains(lambda_numerators(x))

    def escapes(self, factors: Sequence[RatFunc]) -> Iterator[Tuple[RatFunc, RatFunc]]:
        """The pairs (b, f) with f * b outside R, lazily: b in the basis, in
        the outer loop, and f in `factors`."""
        return ((b, f) for b in self.basis for f in factors if not self.contains(f * b))

    def stable_under(self, f: RatFunc) -> bool:
        """Whether f * R = R: f != 0 and f * b in R for each basis b (f * R has full dimension)."""
        return not f.is_zero() and next(self.escapes((f,)), None) is None

    def evaluate(self, coords: Sequence[RatFunc]) -> RatFunc:
        acc = self.ctx.zero()
        for c, b in zip(coords, self.basis):
            acc = acc + c * b
        return acc

    def rand_coords(self, rng: random.Random) -> List[RatFunc]:
        """Random scalar-field coordinates, each zero with probability 0.3."""
        return [self.over.rand_element(rng) if rng.random() < 0.7 else self.ctx.zero()
                for _ in self.basis]

    def rand_element(self, rng: random.Random, nonzero: bool = False) -> RatFunc:
        while True:
            x = self.evaluate(self.rand_coords(rng))
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

    def add_inclusion(self, name: str, xs: Sequence[RatFunc], space: Union[PBasis, RSpaceSpec]):
        """A check that each of xs lies in `space`, naming the ones that do not."""
        bad = [x for x in xs if not space.contains(x)]
        self.add(name, not bad, "escaped: " + ", ".join(map(render_element, bad)) if bad else "")

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


def _stabilizer_vectors(R: RSpaceSpec, xs: PBasis) -> List[List[RatFunc]]:
    """K-basis of the ambient-coordinate space of {a in K : a * R <= R}.

    Write a = sum_r a_r^p x^r over the p-monomials x^r in the variables.
    Then lambda(a * b) = sum_r a_r * lambda(x^r * b), and a * R <= R iff
    a * b lies in R for each basis element b, that is iff each of R's
    membership equations vanishes on that sum. So the unknowns are the p^n
    coordinates a_r, with one row per basis element and equation; xs is the
    ambient p-basis (x_1, ..., x_n).

    Each x^r * b is taken as x^r * b.num over b.den, unreduced, so that every
    row for b is scaled by the one factor b.den, which changes no kernel. A
    reduced x^r * b would scale each unknown's column by its own factor.
    """
    ctx = R.ctx
    rows = []
    for b in R.basis:
        products = [RatFunc(ctx, m.num * b.num, b.den, reduce=False) for m in xs.monomials]
        values = [list(R._space.residuals(lambda_numerators(x))) for x in products]
        rows += [{r: v for r, v in enumerate(row) if v} for row in zip(*values)]
    return _linalg.nullspace(rows, xs.dim_over_p, ctx)


def _differential_pivots(elements: Sequence[RatFunc], ctx: Context) -> List[int]:
    """The pivot columns of the n-row matrix with the elements' differentials as columns."""
    rows = [{} for _ in range(ctx.n)]
    for c, x in enumerate(elements):
        for k, e in differential(x).items():
            rows[k][c] = e
    return _linalg.pivots(rows, len(elements), ctx)


def _greedy_gens(candidates: Sequence[RatFunc], ctx: Context) -> List[RatFunc]:
    """A p-basis of K^p[candidates]: each candidate in turn that is
    p-independent over the ones before it, that is, whose differential is a
    pivot column of the matrix with the candidates' differentials as columns."""
    return [candidates[c] for c in _differential_pivots(candidates, ctx)]


def stabilizer_field(R: RSpaceSpec) -> SubfieldSpec:
    """Generators for the multiplicative stabilizer {a : a*R <= R}, always a field;
    they depend only on the stabilizer, not on the order of R's basis."""
    ctx = R.ctx
    xs = PBasis(ctx.gens(), ctx)
    vecs = _stabilizer_vectors(R, xs)
    elements = []
    for v in vecs:
        a = xs.combine(v)
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
    got = SubfieldSpec(f"stab({R.name})", _greedy_gens(elements, ctx), ctx)
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


def _dependent_prefix(F: SubfieldSpec, rest: Sequence[RatFunc]) -> List[RatFunc]:
    """The shortest prefix of `rest` that is not p-independent over F, or []
    when all of `rest` is.

    One elimination on the columns d(F.gens) followed by d(b) for b in
    `rest`, read as `_greedy_gens` reads its pivots: F.gens are
    p-independent, so their columns are pivots, and the prefix ends at the
    first b whose column is not.
    """
    elements = (*F.gens, *rest)
    pivots = _differential_pivots(elements, F.ctx)
    free = next((c for c in range(len(elements)) if c not in pivots), None)
    return [] if free is None else list(rest[: free - len(F.gens) + 1])


def validate_tower(
    spec: TowerSpec, sample_count: int = 64, seed: int = 0
) -> ValidationReport:
    """Chain inclusions and conditions (1) and (2) at each level of the tower.

    Condition (2), that every subset of R_i independent over K_i is
    p-independent over K_i, holds exactly when the basis elements other
    than 1 are p-independent over K_i, and one elimination decides both
    `independent-basis` and `independent-samples`.

    If the basis check passes, condition (2) holds. Let R_i have the
    K_i-basis {1, b_1, ..., b_m} and let y = C*b + c_0 (C a k x m matrix and
    c_0 a vector over K_i) with {1, y_1, ..., y_k} independent over K_i;
    then C has rank k. The map x -> dx is additive with
    d(a*x) = a*dx + x*da, and da lies in the K-span of d(F.gens) for a in
    K_i, so modulo that span dy = C*db. A matrix with entries in K_i has the
    same rank over K as over K_i, so when the db_j are K-independent modulo
    d(F.gens), so are the dy_j. As no y_j is 0 and
    |F.gens| + k <= |F.gens| + m <= n, `is_p_independent(y, F.gens)` is True.

    If it fails, so does condition (2), and the report names a witness: the
    first b_j whose differential lies in the K-span of d(F.gens) and
    db_1, ..., db_{j-1}, together with b_1, ..., b_{j-1} (see
    `_dependent_prefix`). The witness is independent over K_i, being a
    subset of the basis, and p-dependent over K_i by the failed pivot.

    Nothing is drawn. `sample_count` and `seed` are accepted and ignored,
    only because perfbench's tower-build still passes them.
    """
    ctx = spec.ctx
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
            report.add_inclusion(f"{tag}.chain", (*F.gens, *R.basis), upper)

        # condition (1): the stabilizer of R_i, a field, is exactly K_i; R_i is a
        # K_i-space, so K_i lies in the stabilizer and only the degrees can differ
        stab = stabilizer_field(R)
        want = F.dim_over_p
        report.add(
            f"{tag}.stabilizer",
            stab.dim_over_p == want,
            f"stabilizer dimension {stab.dim_over_p} over K, scalar field dimension {want}",
        )

        # condition (2): the basis decides it, and its elimination names a witness
        witness = _dependent_prefix(F, [b for b in R.basis if not b.is_one()])
        report.add(
            f"{tag}.independent-basis",
            not witness,
            "basis contains a p-dependence over the scalar field"
            if witness
            else "basis elements other than 1 are p-independent over the scalar field",
        )
        report.add(
            f"{tag}.independent-samples",
            not witness,
            "dependent subset: {" + ", ".join(render_element(x) for x in witness) + "}"
            if witness
            else "implied by independent-basis: a subset of R independent over the "
            "scalar field is p-independent over it",
        )

        report.dims[f"{tag}.dim_R_over_K{i + 1}"] = len(R.basis)
        upper_m = len(upper.gens) if upper is not None else ctx.n
        upper_name = f"K{i + 2}" if upper is not None else "K"
        report.dims[f"{tag}.[{upper_name}:K{i + 1}]"] = ctx.p ** (upper_m - len(F.gens))
    return report


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

    @cached_property
    def torus_data(self):
        """The rank-1 data deciding PSp4 torus coordinates, built on first use."""
        from .sp4 import _torus_data  # sp4 builds on this module

        return _torus_data(self)


def validate_indifferent(spec: IndifferentSpec) -> ValidationReport:
    """The conditions on (K; L0, K0): K^2 <= L0 <= K0, K0^2 * L0 <= L0 and
    L0 * K0 <= K0, and, unless weak, K^2[K0] = K.

    Two of them hold by construction and are reported as passes without a
    query. `L0.contains-one`: an R-space's basis holds 1, so 1 lies in L0.
    `L0-stable-under-K0-squares`: t^2 lies in K^2 for every t in K, and L0
    is presented as a K^2-space.

    `K0-stable-under-L0-field` is the closure that `unipotent.c2_datum`
    enforces, asked by the same `K0.escapes(L0.basis)`. K^2 <= E0, K0 is an
    E0-space, and the elements that stabilize K0 are closed under products
    and K^2-combinations, so K^2[L0] stabilizes K0 exactly when each basis
    element of L0 does.
    """
    ctx = spec.ctx
    report = ValidationReport(subject="indifferent")
    report.add("L0.contains-one", True)
    report.add_inclusion("L0-inside-K0", spec.L0.basis, spec.K0)
    report.add("L0-stable-under-K0-squares", True)
    bad = list(itertools.islice(spec.K0.escapes(spec.L0.basis), 3))
    report.add(
        "K0-stable-under-L0-field",
        not bad,
        "; ".join(f"{render_element(f)} * {render_element(b)} escapes K0" for b, f in bad),
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
