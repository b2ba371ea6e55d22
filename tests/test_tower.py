import random

import pytest

from imperfect.field import Context, frobenius, parse_element
from imperfect.pbasis import is_p_independent
from imperfect.presets import Bundle, preset, preset_names
from imperfect.tower import (
    Config,
    IndifferentSpec,
    RSpaceSpec,
    SpecError,
    SubfieldSpec,
    TowerSpec,
    derive_fields,
    stabilizer_field,
    validate_indifferent,
    validate_tower,
)


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


def test_validate_tower_positive_presets():
    for name in ("tower-simple", "tower-over-k1"):
        cfg = Config.load(preset(name))
        report = validate_tower(cfg.tower, sample_count=24, seed=0)
        assert report.ok, [c.name for c in report.failed()]


def test_validate_tower_dimensions_reported():
    cfg = Config.load(preset("tower-simple"))
    report = validate_tower(cfg.tower, sample_count=8)
    # three variables at p = 2
    assert report.dims["level1.[K:K1]"] == 8
    assert report.dims["level1.dim_R_over_K1"] == 3


def test_validate_tower_negative_preset():
    cfg = Config.load(preset("tower-bad"))
    report = validate_tower(cfg.tower, sample_count=8)
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
    report = validate_tower(spec, sample_count=16)
    assert report.ok, [c.to_dict() for c in report.failed()]
    assert report.dims["level2.[K:K2]"] == 2


def test_validate_tower_broken_chain():
    t, u, v = CTX.gens()
    Kp = kp(CTX)
    K1 = SubfieldSpec("K1", (t,), CTX)
    R1 = RSpaceSpec("R1", Kp, [CTX.one(), u])  # u never lands in K1
    R2 = RSpaceSpec("R2", K1, [CTX.one(), u])
    spec = TowerSpec(CTX, [Kp, K1], [R1, R2])
    report = validate_tower(spec, sample_count=8)
    failed = {c.name for c in report.failed()}
    assert "level1.chain" in failed


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
