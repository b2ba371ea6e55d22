"""Command-line front end.

Configs and reports are JSON; element strings use the canonical
rendering, so every report value can be fed back into a subcommand.
Exit codes: 0 success, 1 validation or check failure, 2 parse or usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import pbasis
from .field import Context, FieldError, ParseError, parse_element, render_element
from .presets import Bundle, preset_names
from .rank1 import Mat2, bruhat2, Cell, membership_sl2L, perfectness_witness
from .reconstruct import (ReconstructError, c2_recover, g2_recover, make_c2_oracle,
                          make_g2_oracle, negative_control, verify_recovery)
from .tower import (InvariantViolation, SpecError, validate_indifferent,
                    validate_tower)
from .unipotent import (TorusElement2, c2_full_datum, center_member, commutator,
                        g2_datum, parse_uword, torus_act, torus_normalizes,
                        u_mult, z2_member)
from .suite import SuiteConfig, run_suite


class _Usage(Exception):
    pass


def _ctx_from(args) -> Context:
    if getattr(args, "config", None):
        return Bundle.load(args.config).ctx
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    if not names:
        raise _Usage("no variable names given")
    return Context(args.p, names)


def _bundle(args) -> Bundle:
    if not getattr(args, "config", None):
        raise _Usage("this subcommand needs --config")
    return Bundle.load(args.config)


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text + "\n")


def _parse_matrix(text: str, ctx: Context, size: int) -> List["RatFunc"]:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != size:
        raise _Usage(f"matrix needs {size} semicolon-separated entries, got {len(parts)}")
    return [parse_element(p, ctx) for p in parts]


def _u_datum(args):
    if getattr(args, "config", None):
        b = Bundle.load(args.config)
        if args.kind == "g2":
            return b.g2()
        return b.c2()
    ctx = _ctx_from(args)
    if args.kind == "g2":
        from .tower import SubfieldSpec

        return g2_datum(ctx, SubfieldSpec("k", (), ctx))
    return c2_full_datum(ctx)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns an exit code
# ---------------------------------------------------------------------------


def _cmd_field_eval(args) -> int:
    ctx = _ctx_from(args)
    x = parse_element(args.expr, ctx)
    print(render_element(x))
    return 0


def _cmd_lambda(args) -> int:
    ctx = _ctx_from(args)
    x = parse_element(args.expr, ctx)
    if args.tuple:
        tup = [parse_element(s, ctx) for s in args.tuple.split(",")]
    else:
        tup = list(ctx.gens())
    coords = pbasis.lambda_coords(tup, x, ctx)
    _emit({
        "element": render_element(x),
        "tuple": [render_element(a) for a in tup],
        "independent": pbasis.is_p_independent(tup, (), ctx),
        "defined": coords.defined,
        "coords": [render_element(c) for c in coords] if coords.defined else None,
    }, args)
    return 0


def _cmd_validate(args, which: str) -> int:
    b = _bundle(args)
    if which == "tower":
        if b.cfg.tower is None:
            raise _Usage("configuration has no tower section")
        rep = validate_tower(b.cfg.tower, sample_count=args.samples, seed=args.seed)
    else:
        if b.cfg.indifferent is None:
            raise _Usage("configuration has no indifferent section")
        rep = validate_indifferent(b.cfg.indifferent)
    _emit(rep.to_dict(), args)
    return 0 if rep.ok else 1


def _cmd_sl2(args) -> int:
    if args.action == "witness":
        ctx = _ctx_from(args)
        s = parse_element(args.s, ctx)
        tau = parse_element(args.tau, ctx)
        sprime = perfectness_witness(s, tau)
        _emit({"s": render_element(s), "tau": render_element(tau),
               "s_prime": render_element(sprime)}, args)
        return 0
    if args.action == "recover":
        b = _bundle(args)
        data = b.timmesfeld()
        ctx = data.L.ctx
        payload = {
            "line_dim_over_Kp": len(data.L.basis),
            "has_codim1": data.has_codim1,
        }
        if data.has_codim1:
            from .rank1 import factor_codim1

            payload["split"] = {
                "K1_gens": [render_element(g) for g in data.K1.gens],
                "u": render_element(data.u_coord),
            }
            basis = data.L.basis
            tau = (basis[0] + basis[-1]) * (basis[0] + basis[1])
            f1, f2 = factor_codim1(tau, data)
            payload["sample_factorization"] = {
                "tau": render_element(tau),
                "factors": [render_element(f1), render_element(f2)],
            }
        _emit(payload, args)
        return 0

    ctx = Bundle.load(args.config).ctx if args.config else _ctx_from(args)
    a, b_, c, d = _parse_matrix(args.matrix, ctx, 4)
    g = Mat2(ctx, a, b_, c, d)
    if args.action == "bruhat":
        form = bruhat2(g)
        if isinstance(form, Cell):
            payload = {"cell": "big", "tau": render_element(form.tau),
                       "s1": render_element(form.s1), "s2": render_element(form.s2)}
        else:
            payload = {"cell": "upper", "tau": render_element(form.tau),
                       "s": render_element(form.s)}
        _emit(payload, args)
        return 0
    # member
    data = _bundle(args).timmesfeld()
    m = membership_sl2L(g, data, bound=args.bound)
    _emit({"verdict": m.verdict, "reason": m.reason,
           "witness": m.witness.to_json() if m.witness else None}, args)
    return 0


def _cmd_u(args) -> int:
    datum = _u_datum(args)
    x = parse_uword(args.words[0], datum)
    if args.action in ("mult", "comm"):
        if len(args.words) != 2:
            raise _Usage(f"u {args.action} needs two word arguments")
        y = parse_uword(args.words[1], datum)
        out = u_mult(x, y) if args.action == "mult" else commutator(x, y)
        print(repr(out))
        return 0
    if args.action == "center":
        _emit({"word": repr(x), "center": center_member(x),
               "second_center": z2_member(x)}, args)
        return 0
    # act
    ctx = datum.ctx
    h = TorusElement2(parse_element(args.alpha, ctx), parse_element(args.beta, ctx))
    _emit({"word": repr(x), "image": repr(torus_act(h, x)),
           "normalizes": torus_normalizes(h, datum)}, args)
    return 0


def _cmd_sp4(args) -> int:
    from .sp4 import Mat4, sp4_bruhat, torus_normalizer_check

    if args.action == "torus-check":
        b = _bundle(args)
        spec = b.cfg.indifferent
        if spec is None:
            raise _Usage("configuration has no indifferent section")
        ctx = spec.ctx
        ok = torus_normalizer_check(parse_element(args.alpha, ctx),
                                    parse_element(args.beta, ctx), spec)
        _emit({"normalizes": ok}, args)
        return 0

    if args.config:
        b = _bundle(args)
        ctx = b.ctx
    else:
        b = None
        ctx = _ctx_from(args)
    entries = _parse_matrix(args.matrix, ctx, 16)
    g = Mat4(ctx, [entries[i * 4:(i + 1) * 4] for i in range(4)])
    if args.action == "bruhat":
        br = sp4_bruhat(g)
        _emit({"u1": repr(br.u1), "word": br.word,
               "s_alpha": render_element(br.s_alpha),
               "s_beta": render_element(br.s_beta),
               "u2": repr(br.u2)}, args)
        return 0
    # member
    if b is None:
        raise _Usage("sp4 member needs --config")
    group = b.sp4()
    m = group.membership(g, bound=args.bound)
    _emit({"verdict": m.verdict, "reason": m.reason,
           "witness": m.witness.to_json() if m.witness else None}, args)
    return 0


def _cmd_reconstruct(args) -> int:
    b = _bundle(args)
    datum = b.g2() if args.kind == "g2" else b.c2()
    if args.corrupt:
        rep = negative_control(datum, args.corrupt, n=args.samples, seed=args.seed)
    else:
        make = make_g2_oracle if args.kind == "g2" else make_c2_oracle
        recover = g2_recover if args.kind == "g2" else c2_recover
        oracle, codec = make(datum)
        rec = recover(oracle)
        rep = verify_recovery(rec, codec, n=args.samples, seed=args.seed)
    _emit(rep.to_dict(), args)
    if args.corrupt:
        return 0 if not rep.ok else 1
    return 0 if rep.ok else 1


def _cmd_suite(args) -> int:
    cfg = SuiteConfig(seed=args.seed, samples=args.samples, bound=args.bound,
                      config=args.config)
    rep = run_suite(cfg)
    _emit(rep.to_dict(), args)
    for name in rep.unknowns:
        print(f"warning: {name} ended undecided", file=sys.stderr)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, config=True):
    p.add_argument("-p", type=int, default=2, help="field characteristic")
    p.add_argument("--vars", default="t,u", help="comma-separated variable names")
    if config:
        p.add_argument("--config", help="preset name or JSON file: one of "
                       + ", ".join(preset_names()) + ", or a path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--report", help="also write the JSON output to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="imperfect")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="evaluate element expressions")
    fs = p.add_subparsers(dest="action", required=True)
    pe = fs.add_parser("eval")
    pe.add_argument("expr")
    _add_common(pe)

    p = sub.add_parser("lambda", help="coordinates relative to a p-independent tuple")
    p.add_argument("expr")
    p.add_argument("--tuple", help="comma-separated tuple elements (default: the variables)")
    _add_common(p)

    p = sub.add_parser("tower", help="validate subfield tower configurations")
    ts = p.add_subparsers(dest="action", required=True)
    tv = ts.add_parser("validate")
    tv.add_argument("config_pos", nargs="?", help="config (positional alternative)")
    _add_common(tv)

    p = sub.add_parser("indifferent", help="validate indifferent-set configurations")
    is_ = p.add_subparsers(dest="action", required=True)
    iv = is_.add_parser("validate")
    iv.add_argument("config_pos", nargs="?")
    _add_common(iv)

    p = sub.add_parser("sl2", help="rank-1 normal forms and membership")
    ss = p.add_subparsers(dest="action", required=True)
    sb = ss.add_parser("bruhat")
    sb.add_argument("--matrix", required=True, help="4 semicolon-separated entries")
    _add_common(sb)
    sm = ss.add_parser("member")
    sm.add_argument("--matrix", required=True)
    _add_common(sm)
    sw = ss.add_parser("witness")
    sw.add_argument("--s", required=True, dest="s")
    sw.add_argument("--tau", required=True)
    _add_common(sw)
    sr = ss.add_parser("recover")
    _add_common(sr)

    p = sub.add_parser("u", help="unipotent group words")
    us = p.add_subparsers(dest="action", required=True)
    for name, nwords in (("mult", 2), ("comm", 2), ("center", 1)):
        up = us.add_parser(name)
        up.add_argument("words", nargs=nwords if nwords == 1 else "+")
        up.add_argument("--kind", choices=("g2", "c2"), required=True)
        _add_common(up)
    ua = us.add_parser("act")
    ua.add_argument("words", nargs=1)
    ua.add_argument("--kind", choices=("g2", "c2"), required=True)
    ua.add_argument("--alpha", required=True, help="short-root torus coordinate")
    ua.add_argument("--beta", required=True, help="long-root torus coordinate")
    _add_common(ua)

    p = sub.add_parser("sp4", help="symplectic cells, membership, torus checks")
    ps = p.add_subparsers(dest="action", required=True)
    pb = ps.add_parser("bruhat")
    pb.add_argument("--matrix", required=True, help="16 semicolon-separated entries")
    _add_common(pb)
    pm = ps.add_parser("member")
    pm.add_argument("--matrix", required=True)
    _add_common(pm)
    pt = ps.add_parser("torus-check")
    pt.add_argument("--alpha", required=True)
    pt.add_argument("--beta", required=True)
    _add_common(pt)

    p = sub.add_parser("reconstruct", help="recover field data from the group oracle")
    p.add_argument("kind", choices=("g2", "c2"))
    p.add_argument("--corrupt", choices=("wrong-param", "offset-mul", "reversed-mul"),
                   help="run the corrupted-oracle negative control")
    _add_common(p)

    p = sub.add_parser("suite", help="run the seeded property suite")
    qs = p.add_subparsers(dest="action", required=True)
    qr = qs.add_parser("run")
    _add_common(qr)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # positional config alternative for the validate commands
    if getattr(args, "config_pos", None) and not getattr(args, "config", None):
        args.config = args.config_pos
    try:
        if args.cmd == "field":
            return _cmd_field_eval(args)
        if args.cmd == "lambda":
            return _cmd_lambda(args)
        if args.cmd == "tower":
            return _cmd_validate(args, "tower")
        if args.cmd == "indifferent":
            return _cmd_validate(args, "indifferent")
        if args.cmd == "sl2":
            return _cmd_sl2(args)
        if args.cmd == "u":
            return _cmd_u(args)
        if args.cmd == "sp4":
            return _cmd_sp4(args)
        if args.cmd == "reconstruct":
            return _cmd_reconstruct(args)
        if args.cmd == "suite":
            return _cmd_suite(args)
        raise _Usage(f"unknown command {args.cmd}")
    except (ParseError, _Usage) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: missing config: {e}", file=sys.stderr)
        return 1
    except (SpecError, FieldError, InvariantViolation, ReconstructError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
