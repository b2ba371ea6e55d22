"""Command-line front end.

Each subcommand takes only the flags it reads. Configs and reports are
JSON; element strings use the canonical rendering, so every report value
can be fed back into a subcommand.
Exit codes: 0 success, 1 validation or check failure, 2 parse or usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import pbasis
from .field import Context, ImperfectError, ParseError, parse_element, render_element
from .presets import Bundle, preset_names
from .rank1 import (Mat2, bruhat2, Cell, factor_codim1, membership_sl2L,
                    perfectness_witness)
from .reconstruct import negative_control, recover, verify_recovery
from .sp4 import Mat4, sp4_bruhat
from .tower import InvariantViolation, SubfieldSpec, validate_indifferent, validate_tower
from .unipotent import (TorusElement2, c2_datum, center_member, commutator,
                        g2_datum, parse_uword, torus_act, torus_normalizes,
                        u_mult, z2_member)
from .suite import SuiteConfig, run_suite


class _Usage(Exception):
    pass


def _ctx_from(args) -> Context:
    if args.config:
        return Bundle.load(args.config).ctx
    names = [n.strip() for n in args.vars.split(",") if n.strip()]
    if not names:
        raise _Usage("no variable names given")
    return Context(args.p, names)


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")


def _emit_membership(m, args) -> int:
    _emit({"verdict": m.verdict, "reason": m.reason,
           "witness": m.witness.to_json() if m.witness else None}, args)
    return 0


def _parse_matrix(text: str, ctx: Context, size: int) -> List["RatFunc"]:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != size:
        raise _Usage(f"matrix needs {size} semicolon-separated entries, got {len(parts)}")
    return [parse_element(p, ctx) for p in parts]


def _mat2(text: str, ctx: Context) -> Mat2:
    return Mat2(ctx, *_parse_matrix(text, ctx, 4))


def _mat4(text: str, ctx: Context) -> Mat4:
    entries = _parse_matrix(text, ctx, 16)
    return Mat4(ctx, [entries[i * 4:(i + 1) * 4] for i in range(4)])


def _u_datum(args):
    if args.config:
        b = Bundle.load(args.config)
        return b.g2() if args.kind == "g2" else b.c2()
    ctx = _ctx_from(args)
    if args.kind == "g2":
        return g2_datum(ctx, SubfieldSpec("k", (), ctx))
    return c2_datum(ctx, None, None)


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


def _cmd_tower_validate(args) -> int:
    tower = Bundle.load(args.config).need("tower")
    rep = validate_tower(tower)
    _emit(rep.to_dict(), args)
    return 0 if rep.ok else 1


def _cmd_indifferent_validate(args) -> int:
    spec = Bundle.load(args.config).need("indifferent")
    rep = validate_indifferent(spec)
    _emit(rep.to_dict(), args)
    return 0 if rep.ok else 1


def _cmd_sl2_bruhat(args) -> int:
    form = bruhat2(_mat2(args.matrix, _ctx_from(args)))
    if isinstance(form, Cell):
        payload = {"cell": "big", "tau": render_element(form.tau),
                   "s1": render_element(form.s1), "s2": render_element(form.s2)}
    else:
        payload = {"cell": "upper", "tau": render_element(form.tau),
                   "s": render_element(form.s)}
    _emit(payload, args)
    return 0


def _cmd_sl2_member(args) -> int:
    b = Bundle.load(args.config)
    g = _mat2(args.matrix, b.ctx)
    return _emit_membership(membership_sl2L(g, b.timmesfeld(), bound=args.bound), args)


def _cmd_sl2_witness(args) -> int:
    ctx = _ctx_from(args)
    s = parse_element(args.s, ctx)
    tau = parse_element(args.tau, ctx)
    sprime = perfectness_witness(s, tau)
    _emit({"s": render_element(s), "tau": render_element(tau),
           "s_prime": render_element(sprime)}, args)
    return 0


def _cmd_sl2_recover(args) -> int:
    data = Bundle.load(args.config).timmesfeld()
    payload = {
        "line_dim_over_Kp": len(data.L.basis),
        "has_codim1": data.has_codim1,
    }
    if data.has_codim1:
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


def _cmd_u_product(args) -> int:
    datum = _u_datum(args)
    x, y = (parse_uword(w, datum) for w in args.words)
    print(repr(u_mult(x, y) if args.action == "mult" else commutator(x, y)))
    return 0


def _cmd_u_center(args) -> int:
    x = parse_uword(args.word, _u_datum(args))
    _emit({"word": repr(x), "center": center_member(x),
           "second_center": z2_member(x)}, args)
    return 0


def _cmd_u_act(args) -> int:
    datum = _u_datum(args)
    x = parse_uword(args.word, datum)
    ctx = datum.ctx
    h = TorusElement2(parse_element(args.alpha, ctx), parse_element(args.beta, ctx))
    _emit({"word": repr(x), "image": repr(torus_act(h, x)),
           "normalizes": torus_normalizes(h, datum)}, args)
    return 0


def _cmd_sp4_bruhat(args) -> int:
    g = _mat4(args.matrix, _ctx_from(args))
    br = sp4_bruhat(g)
    if not br.reassembles(g):
        raise InvariantViolation("decomposition does not reassemble")
    _emit({"u1": repr(br.u1), "word": br.word,
           "s_alpha": render_element(br.s_alpha),
           "s_beta": render_element(br.s_beta),
           "u2": repr(br.u2)}, args)
    return 0


def _cmd_sp4_member(args) -> int:
    b = Bundle.load(args.config)
    g = _mat4(args.matrix, b.ctx)
    return _emit_membership(b.sp4().membership(g, bound=args.bound), args)


def _cmd_sp4_torus_check(args) -> int:
    bundle = Bundle.load(args.config)
    datum = bundle.c2()
    ctx = bundle.ctx
    h = TorusElement2(parse_element(args.alpha, ctx), parse_element(args.beta, ctx))
    _emit({"normalizes": torus_normalizes(h, datum)}, args)
    return 0


def _cmd_reconstruct(args) -> int:
    datum = _u_datum(args)
    if args.corrupt:
        rep = negative_control(datum, args.corrupt, n=args.samples, seed=args.seed)
    else:
        rep = verify_recovery(*recover(datum), n=args.samples, seed=args.seed)
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
# parser: each leaf subcommand declares the flag groups its body reads
# ---------------------------------------------------------------------------


_CONFIG_HELP = "preset name or JSON file: one of " + ", ".join(preset_names()) + ", or a path"


def _field(p: argparse.ArgumentParser) -> None:
    p.add_argument("-p", type=int, default=2, help="field characteristic")
    p.add_argument("--vars", default="t,u", help="comma-separated variable names")
    p.add_argument("--config", help=_CONFIG_HELP)


def _config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help=_CONFIG_HELP)


def _report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="also write the JSON output to this file")


def _at_least_one(text: str) -> int:
    """A --samples value: with none, a sampled check would pass vacuously."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")


def _sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_at_least_one, default=30)


def _bound(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=int, default=4)


def _branch(sub, name: str, help: str):
    return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)


def _leaf(sub, name: str, run, *groups, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    for add in groups:
        add(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="imperfect")
    sub = ap.add_subparsers(dest="cmd", required=True)

    fs = _branch(sub, "field", "evaluate element expressions")
    _leaf(fs, "eval", _cmd_field_eval, _field).add_argument("expr")

    p = _leaf(sub, "lambda", _cmd_lambda, _field, _report,
              help="coordinates relative to a p-independent tuple")
    p.add_argument("expr")
    p.add_argument("--tuple", help="comma-separated tuple elements (default: the variables)")

    ts = _branch(sub, "tower", "validate subfield tower configurations")
    p = _leaf(ts, "validate", _cmd_tower_validate, _report)
    p.add_argument("config", help=_CONFIG_HELP)

    is_ = _branch(sub, "indifferent", "validate indifferent-set configurations")
    p = _leaf(is_, "validate", _cmd_indifferent_validate, _report)
    p.add_argument("config", help=_CONFIG_HELP)

    ss = _branch(sub, "sl2", "rank-1 normal forms and membership")
    p = _leaf(ss, "bruhat", _cmd_sl2_bruhat, _field, _report)
    p.add_argument("--matrix", required=True, help="4 semicolon-separated entries")
    p = _leaf(ss, "member", _cmd_sl2_member, _config, _bound, _report)
    p.add_argument("--matrix", required=True, help="4 semicolon-separated entries")
    p = _leaf(ss, "witness", _cmd_sl2_witness, _field, _report)
    p.add_argument("--s", required=True, dest="s")
    p.add_argument("--tau", required=True)
    _leaf(ss, "recover", _cmd_sl2_recover, _config, _report)

    us = _branch(sub, "u", "unipotent group words")
    for name in ("mult", "comm"):
        p = _leaf(us, name, _cmd_u_product, _field)
        p.add_argument("words", nargs=2)
        p.add_argument("--kind", choices=("g2", "c2"), required=True)
    p = _leaf(us, "center", _cmd_u_center, _field, _report)
    p.add_argument("word")
    p.add_argument("--kind", choices=("g2", "c2"), required=True)
    p = _leaf(us, "act", _cmd_u_act, _field, _report)
    p.add_argument("word")
    p.add_argument("--kind", choices=("g2", "c2"), required=True)
    p.add_argument("--alpha", required=True, help="short-root torus coordinate")
    p.add_argument("--beta", required=True, help="long-root torus coordinate")

    ps = _branch(sub, "sp4", "symplectic cells, membership, torus checks")
    p = _leaf(ps, "bruhat", _cmd_sp4_bruhat, _field, _report)
    p.add_argument("--matrix", required=True, help="16 semicolon-separated entries")
    p = _leaf(ps, "member", _cmd_sp4_member, _config, _bound, _report)
    p.add_argument("--matrix", required=True, help="16 semicolon-separated entries")
    p = _leaf(ps, "torus-check", _cmd_sp4_torus_check, _config, _report)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = _leaf(sub, "reconstruct", _cmd_reconstruct, _config, _sampling, _report,
              help="recover field data from the group oracle")
    p.add_argument("kind", choices=("g2", "c2"))
    p.add_argument("--corrupt", choices=("wrong-param", "offset-mul"),
                   help="run the corrupted-oracle negative control")

    qs = _branch(sub, "suite", "run the seeded property suite")
    p = _leaf(qs, "run", _cmd_suite, _sampling, _bound, _report)
    p.add_argument("--config", help=_CONFIG_HELP)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ParseError, _Usage) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ImperfectError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
