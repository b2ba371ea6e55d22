import argparse
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from imperfect import cli, reconstruct, suite
from imperfect.cli import main
from imperfect.field import ParseError, parse_element, render_element
from imperfect.presets import Bundle, preset
from imperfect.reconstruct import ReconstructError
from imperfect.sp4 import WEYL_WORDS, Bruhat4, Mat4, torus_matrix, weyl_rep
from test_sp4 import CTX, rand_plain_word


def write_preset(name, path):
    with open(path, "w") as fh:
        json.dump(preset(name), fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_eval(capsys):
    code, out, _ = run(capsys, "field", "eval", "t^2+u")
    assert code == 0
    assert out.strip() == "t^2+u"
    code, out, _ = run(capsys, "field", "eval", "t/(t)")
    assert out.strip() == "1"
    code, out, _ = run(capsys, "field", "eval", "(1+t)/(u*v)",
                       "--vars", "t,u,v")
    assert code == 0
    assert out.strip() == "(t+1)/(u*v)"


def test_field_eval_parse_error_exit_code(capsys):
    # a parse error names the end of input as such
    for text, msg in (("t+", "unexpected end of input (at position 2)"),
                      ("(t", "expected ')', got end of input (at position 2)")):
        code, out, err = run(capsys, "field", "eval", "-p", "2", "--vars", "t", text)
        assert code == 2
        assert out == ""
        assert err == f"error: {msg}\n"


def test_field_eval_deep_nesting_is_a_parse_error(capsys):
    deep = "(" * 300 + "t" + ")" * 300
    code, out, err = run(capsys, "field", "eval", "-p", "2", "--vars", "t,u", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "field", "eval", "(" * 100 + "t" + ")" * 100)
    assert code == 0 and out.strip() == "t"


def test_field_eval_huge_power_is_a_parse_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "field", "eval", "(t+u+1)^2000/(t^2000+u+1)")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceeds the limit" in err
    assert "Traceback" not in err


def test_field_eval_past_the_exponent_limit_is_exit_one(capsys):
    below = "*".join(["t^256"] * 127 + ["t^255"])
    code, out, _ = run(capsys, "field", "eval", below)
    assert code == 0 and out.strip() == "t^32767"
    code, out, err = run(capsys, "field", "eval", below + "*u")
    assert code == 1
    assert out == ""
    assert err == "error: a product reaches the exponent limit 32768\n"


def test_field_eval_too_many_digits_is_a_parse_error(capsys):
    code, out, err = run(capsys, "field", "eval", "t^" + "9" * 5000)
    assert code == 2
    assert out == ""
    assert err == "error: number too long (at position 2)\n"


def test_field_eval_bad_characteristic(capsys):
    code, _, _ = run(capsys, "field", "eval", "t", "-p", "6")
    assert code == 1


def test_lambda_coords(capsys):
    code, out, _ = run(capsys, "lambda", "t")
    assert code == 0
    payload = json.loads(out)
    assert payload["defined"] is True
    assert payload["independent"] is True
    # t is the monomial with exponent vector (1, 0)
    assert payload["coords"][1] == "1"
    assert payload["coords"][0] == "0"
    code, out, _ = run(capsys, "lambda", "t", "--tuple", "t^2")
    payload = json.loads(out)
    assert code == 0
    assert payload["defined"] is False
    assert payload["coords"] is None


def test_tower_validate_presets(capsys):
    code, out, _ = run(capsys, "tower", "validate", "tower-simple")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["dims"]["level1.dim_R_over_K1"] == 3
    code, out, _ = run(capsys, "tower", "validate", "tower-bad")
    assert code == 1
    payload = json.loads(out)
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert "level1.independent-basis" in failed


def test_tower_validate_from_file(tmp_path, capsys):
    path = tmp_path / "tower.json"
    write_preset("tower-simple", str(path))
    code, out, _ = run(capsys, "tower", "validate", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_missing_config_file_is_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "tower", "validate", str(tmp_path / "no.json"))
    assert code == 1
    assert "missing config" in err


def test_an_unreadable_config_is_exit_one(tmp_path, capsys):
    code, out, err = run(capsys, "tower", "validate", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: unreadable config: ") and err.count("\n") == 1


def test_a_config_that_is_not_json_is_a_parse_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 2,')
    code, out, err = run(capsys, "tower", "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config {path} is not JSON: ") and err.count("\n") == 1
    assert "line 1 (at position 8)" in err


def test_a_config_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "tower", "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: config {path} is not UTF-8 text: invalid start byte (at position 0)\n"


def test_an_unwritable_report_is_exit_one_and_does_not_blame_the_config(tmp_path, capsys):
    report = tmp_path / "no" / "r.json"
    code, out, err = run(capsys, "indifferent", "validate", "indifferent-weak",
                         "--report", str(report))
    assert code == 1
    assert json.loads(out)["ok"] is True
    assert err.startswith("error: ") and str(report) in err and err.count("\n") == 1
    assert "missing config" not in err


# every subcommand that needs a section, run on a preset without it
MATRIX4 = "1;0;0;0;0;1;0;0;0;0;1;0;0;0;0;1"
NEEDS_A_SECTION = [
    (["tower", "validate", "g2"], "tower"),
    (["indifferent", "validate", "tower-simple"], "indifferent"),
    (["sp4", "torus-check", "--alpha", "1", "--beta", "t", "--config", "tower-simple"],
     "indifferent"),
    (["sl2", "member", "--matrix", "1;0;0;1", "--config", "tower-simple"], "timmesfeld"),
    (["sl2", "recover", "--config", "tower-simple"], "timmesfeld"),
    (["sp4", "member", "--matrix", MATRIX4, "--config", "tower-simple"], "indifferent"),
    (["reconstruct", "g2", "--config", "tower-simple"], "g2"),
    (["reconstruct", "c2", "--config", "g2"], "indifferent"),
    (["u", "mult", "--kind", "g2", "--config", "tower-simple", "x1(1)", "x1(1)"], "g2"),
    (["u", "comm", "--kind", "c2", "--config", "g2", "x1(1)", "x1(1)"], "indifferent"),
    (["u", "center", "--kind", "g2", "--config", "tower-simple", "x1(1)"], "g2"),
    (["u", "act", "--kind", "c2", "--alpha", "1", "--beta", "1", "--config", "g2", "x1(1)"],
     "indifferent"),
]


def test_a_config_without_the_needed_section_is_exit_one(capsys):
    leaves = {tuple(argv[:1 if argv[0] == "reconstruct" else 2]) for argv, _ in NEEDS_A_SECTION}
    assert len(leaves) == 11
    for argv, section in NEEDS_A_SECTION:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: configuration has no {section} section\n"), argv


def test_indifferent_validate(capsys):
    code, out, _ = run(capsys, "indifferent", "validate", "indifferent-proper")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["dims"]["dim_L0_over_K2"] == 2


def test_sl2_bruhat_example(capsys):
    code, out, _ = run(capsys, "sl2", "bruhat", "--matrix", "1;1;1;0",
                       "-p", "2", "--vars", "t")
    assert code == 0
    payload = json.loads(out)
    assert payload["cell"] == "big"
    assert payload["tau"] == "1"
    assert payload["s1"] == "1"
    assert payload["s2"] == "0"


def test_sl2_bruhat_upper(capsys):
    code, out, _ = run(capsys, "sl2", "bruhat", "--matrix", "t;1;0;1/(t)")
    payload = json.loads(out)
    assert payload["cell"] == "upper"
    assert payload["tau"] == "t"


def test_sl2_member(capsys):
    code, out, _ = run(capsys, "sl2", "member", "--matrix", "1;t;0;1",
                       "--config", "timmesfeld-codim1")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"
    # membership commands report the verdict and exit zero either way
    code, out, _ = run(capsys, "sl2", "member", "--matrix", "1;v;0;1",
                       "--config", "timmesfeld-codim1")
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


def test_sl2_witness(capsys):
    code, out, _ = run(capsys, "sl2", "witness", "--s", "t", "--tau", "u",
                       "--vars", "t,u")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_prime"]


def test_sl2_recover(capsys):
    code, out, _ = run(capsys, "sl2", "recover", "--config", "timmesfeld-codim1")
    assert code == 0
    payload = json.loads(out)
    assert payload["has_codim1"] is True
    assert payload["split"]["u"] == "u"
    # the report strings feed straight back into the parser
    ctx = Bundle.load("timmesfeld-codim1").ctx
    sample = payload["sample_factorization"]
    f1, f2 = (parse_element(s, ctx) for s in sample["factors"])
    assert f1 * f2 == parse_element(sample["tau"], ctx)


def test_u_comm_hexagon(capsys):
    code, out, _ = run(capsys, "u", "comm", "--kind", "g2", "x1(1)", "x6(1)",
                       "-p", "3", "--vars", "s")
    assert code == 0
    assert out.strip() == "x2(2)*x3(1)*x4(1)*x5(2)"


def test_u_mult_quadrangle(capsys):
    code, out, _ = run(capsys, "u", "mult", "--kind", "c2", "x1(t)", "x4(u)",
                       "-p", "2", "--vars", "t,u")
    assert code == 0
    assert out.strip() == "x1(t)*x4(u)"
    code, out, _ = run(capsys, "u", "mult", "--kind", "c2", "x4(u)", "x1(t)",
                       "-p", "2", "--vars", "t,u")
    assert code == 0
    # reordering the slots picks up the commutator contribution
    assert out.strip() == "x1(t)*x2(t^2*u)*x3(t*u)*x4(u)"


def test_u_on_a_non_closed_quadrangle_config_is_exit_one(tmp_path, capsys):
    # t*u leaves K0 = span_{K^2}{1, t, u}, so products could leave the domains
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "p": 2, "vars": ["t", "u"],
        "indifferent": {"L0": {"basis": ["1", "t"]}, "K0": {"basis": ["1", "t", "u"]}},
    }))
    code, out, err = run(capsys, "u", "mult", "--kind", "c2", "--config", str(path),
                         "x1(u)", "x4(t)")
    assert code == 1
    assert out == ""
    assert err == "error: u in K0 times t in L0 is t*u, which is not in K0\n"


def test_sp4_member_on_a_non_closed_quadrangle_config_is_exit_one(tmp_path, capsys):
    # the group build rejects the config of the test above before reading the matrix
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "p": 2, "vars": ["t", "u"],
        "indifferent": {"L0": {"basis": ["1", "t"]}, "K0": {"basis": ["1", "t", "u"]}},
    }))
    code, out, err = run(capsys, "sp4", "member", "--matrix", MATRIX4, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "K0" in err


def test_sp4_member_on_a_torus_action_that_does_not_normalize_is_exit_one(tmp_path, capsys):
    # h = (v, v) scales slot 1 by v, which leaves K0
    raw = preset("indifferent-proper")
    raw["sp4"]["torus_actions"] = [["v", "1"]]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "sp4", "member", "--matrix", MATRIX4, "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "error: torus action does not normalize PSp4(L0, K0): [v, 1]\n"


def test_u_mult_rejects_a_trailing_star_and_the_empty_word(capsys):
    for words in (("x1(t)*", "x4(u)"), ("x1(t)", "")):
        code, out, err = run(capsys, "u", "mult", "--kind", "c2", *words,
                             "-p", "2", "--vars", "t,u")
        assert code == 1
        assert out == ""
        assert err.startswith("error: expected xN(...) at position ")


def test_u_mult_reports_a_malformed_coordinate_at_its_place_in_the_word(capsys):
    # a coordinate's parse error is a malformed word: exit 1, with the
    # position counted from the start of the word
    for argv, msg in (
        (["--kind", "c2", "-p", "2", "--vars", "t,u", "x1(t+)", "x4(u)"],
         "unexpected end of input at position 5"),
        (["--kind", "g2", "-p", "3", "--vars", "s", "x1(s)*x6(1/0)", "x1(s)"],
         "division by zero at position 10"),
    ):
        code, out, err = run(capsys, "u", "mult", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {msg}\n"


def test_u_center(capsys):
    code, out, _ = run(capsys, "u", "center", "--kind", "g2",
                       "--config", "g2", "x4(s)")
    assert code == 0
    payload = json.loads(out)
    assert payload["center"] is True
    assert payload["second_center"] is True
    code, out, _ = run(capsys, "u", "center", "--kind", "g2",
                       "--config", "g2", "x1(v)")
    payload = json.loads(out)
    assert payload["center"] is False
    assert payload["second_center"] is False


def test_u_act(capsys):
    code, out, _ = run(capsys, "u", "act", "--kind", "g2", "--alpha", "s",
                       "--beta", "1", "x1(v)", "-p", "3", "--vars", "s,v")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == "x1(s^2*v)"
    assert payload["normalizes"] is True


def test_sp4_bruhat(capsys):
    code, out, _ = run(capsys, "sp4", "bruhat", "--matrix",
                       ";".join(["1", "t", "0", "0",
                                 "0", "1", "0", "0",
                                 "0", "0", "1", "t",
                                 "0", "0", "0", "1"]))
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "e"
    assert payload["u1"] == "x1(t)"
    assert payload["s_alpha"] == "1"


def test_sp4_bruhat_checks_the_reassembly(monkeypatch, capsys):
    # the library returns the split unchecked; the CLI reassembles it before
    # printing, so a split one entry off exits 1 with one error line
    honest = Bruhat4.reassembles

    def one_entry_off(self, g):
        rows = [list(r) for r in g.rows]
        rows[0][3] = rows[0][3] + g.ctx.one()
        return honest(self, Mat4(g.ctx, rows))

    t = CTX.var("t")
    mats = [torus_matrix(t, CTX.one()) * weyl_rep(w, CTX) for w in WEYL_WORDS]
    rng = random.Random(63)
    mats += [rand_plain_word(CTX, rng) for _ in range(4)]
    texts = [";".join(render_element(e) for row in g.rows for e in row) for g in mats]
    for text in texts:
        code, out, _ = run(capsys, "sp4", "bruhat", "--matrix", text)
        assert code == 0 and out
    monkeypatch.setattr(Bruhat4, "reassembles", one_entry_off)
    for text in texts:
        code, out, err = run(capsys, "sp4", "bruhat", "--matrix", text)
        assert (code, out) == (1, "")
        assert err == "error: decomposition does not reassemble\n"


def test_sp4_member(capsys):
    code, out, _ = run(capsys, "sp4", "member", "--matrix",
                       ";".join(["1", "t", "0", "0",
                                 "0", "1", "0", "0",
                                 "0", "0", "1", "t",
                                 "0", "0", "0", "1"]),
                       "--config", "indifferent-weak")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_sp4_torus_check(capsys):
    code, out, _ = run(capsys, "sp4", "torus-check", "--alpha", "v",
                       "--beta", "t", "--config", "indifferent-proper")
    assert code == 0
    assert json.loads(out)["normalizes"] is True
    code, out, _ = run(capsys, "sp4", "torus-check", "--alpha", "1",
                       "--beta", "v", "--config", "indifferent-proper")
    assert json.loads(out)["normalizes"] is False
    code, out, err = run(capsys, "sp4", "torus-check", "--alpha", "0",
                         "--beta", "v", "--config", "indifferent-proper")
    assert (code, out, err) == (1, "", "error: torus coordinates must be nonzero\n")


def test_sp4_torus_check_needs_a_closed_quadrangle_datum(tmp_path, capsys):
    # K0 = K^2 + u*K^2 is not stable under L0 = K^2 + t*K^2
    raw = preset("indifferent-proper")
    raw["indifferent"]["K0"]["over_field_gens"] = []
    path = tmp_path / "open.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "sp4", "torus-check", "--alpha", "1",
                         "--beta", "1", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "error: 1 in K0 times t in L0 is t, which is not in K0\n"


def test_reconstruct_commands(capsys):
    code, out, _ = run(capsys, "reconstruct", "g2", "--config", "g2",
                       "--samples", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["mismatches"] == []
    assert payload["checks"] > 0
    code, out, _ = run(capsys, "reconstruct", "c2",
                       "--config", "indifferent-weak", "--samples", "6")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_reconstruct_corrupted_detected(capsys):
    # exit 0 on a negative control means the corruption was caught
    code, out, _ = run(capsys, "reconstruct", "g2", "--config", "g2",
                       "--corrupt", "wrong-param", "--samples", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is False
    assert len(payload["mismatches"]) >= 1
    code, out, _ = run(capsys, "reconstruct", "c2",
                       "--config", "indifferent-weak",
                       "--corrupt", "offset-mul", "--samples", "6")
    assert code == 0
    assert json.loads(out)["ok"] is False


def test_suite_run_default(capsys):
    code, out, err = run(capsys, "suite", "run", "--samples", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["counts"]["fail"] == 0
    assert payload["counts"]["unknown"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert "rank1.mult-agrees" in names
    assert "unipotent.associativity" in names


def test_suite_run_corrupted_config(capsys):
    code, out, _ = run(capsys, "suite", "run", "--samples", "4",
                       "--config", "tower-bad")
    assert code == 1
    payload = json.loads(out)
    assert payload["counts"]["fail"] >= 1


def test_suite_run_unknown_warns(capsys):
    code, out, err = run(capsys, "suite", "run", "--samples", "4",
                         "--config", "timmesfeld-plain")
    assert code == 0
    assert "rank1.torus-membership ended undecided" in err
    payload = json.loads(out)
    undecided = [c["name"] for c in payload["checks"] if c["status"] == "unknown"]
    assert undecided == ["rank1.torus-membership"]


def test_suite_records_reconstruct_error_as_failure(monkeypatch):
    monkeypatch.setattr(suite, "_instances", lambda cfg: {})
    for error in (ReconstructError("pairing fails linearity on the first slot"),
                  ParseError("unexpected character '%'", 2)):
        def broken(cfg, rng, inst):
            raise error

        monkeypatch.setattr(suite, "_CHECKS", {"a.broken": broken, "b.fine": lambda *args: None})
        rep = suite.run_suite(suite.SuiteConfig(seed=0))
        assert [(c.name, c.status) for c in rep.checks] == [("a.broken", "fail"),
                                                             ("b.fine", "pass")]
        assert rep.checks[0].detail == f"unexpected error: {error}"


def test_reconstruct_error_is_exit_one(monkeypatch, capsys):
    def broken(oracle):
        raise ReconstructError("designated elements must be nontrivial")

    monkeypatch.setattr(reconstruct, "g2_recover", broken)
    code, out, err = run(capsys, "reconstruct", "g2", "--config", "g2", "--samples", "2")
    assert code == 1
    assert out == ""
    assert err == "error: designated elements must be nontrivial\n"


def test_suite_determinism(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    run(capsys, "suite", "run", "--samples", "4", "--report", str(p1))
    run(capsys, "suite", "run", "--samples", "4", "--report", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["sl2", "bruhat", "--matrix", "1;2;3"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    # a missing required --config, or a word count other than two
    for argv in (["sl2", "member", "--matrix", "1;t;0;1"],
                 ["sp4", "torus-check", "--alpha", "1", "--beta", "v"],
                 ["reconstruct", "g2"],
                 ["u", "mult", "--kind", "c2", "x1(t)"],
                 ["u", "comm", "--kind", "c2", "x1(t)", "x4(u)", "x1(t)"]):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("prog, argv", [
    ("imperfect reconstruct", ["reconstruct", "g2", "--config", "g2"]),
    ("imperfect suite run", ["suite", "run"]),
], ids=["reconstruct", "suite-run"])
def test_samples_below_one_is_a_usage_error(prog, argv, capsys):
    # with no samples a sampled check would pass vacuously
    for value in ("0", "-1", "-3", "x"):
        code, out, err = run(capsys, *argv, "--samples", value)
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"{prog}: error: argument --samples: expected an integer of at least 1, got '{value}'"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sl2", "--help"]) == 0
    capsys.readouterr()


FIELD = {"-p", "--vars", "--config"}
SAMPLING = {"--seed", "--samples"}

# leaf subcommand -> the flags its body reads, and no other
LEAF_FLAGS = {
    ("field", "eval"): FIELD,
    ("lambda",): FIELD | {"--tuple", "--report"},
    ("tower", "validate"): {"--report"},
    ("indifferent", "validate"): {"--report"},
    ("sl2", "bruhat"): FIELD | {"--matrix", "--report"},
    ("sl2", "member"): {"--matrix", "--config", "--bound", "--report"},
    ("sl2", "witness"): FIELD | {"--s", "--tau", "--report"},
    ("sl2", "recover"): {"--config", "--report"},
    ("u", "mult"): FIELD | {"--kind"},
    ("u", "comm"): FIELD | {"--kind"},
    ("u", "center"): FIELD | {"--kind", "--report"},
    ("u", "act"): FIELD | {"--kind", "--alpha", "--beta", "--report"},
    ("sp4", "bruhat"): FIELD | {"--matrix", "--report"},
    ("sp4", "member"): {"--matrix", "--config", "--bound", "--report"},
    ("sp4", "torus-check"): {"--alpha", "--beta", "--config", "--report"},
    ("reconstruct",): SAMPLING | {"--config", "--corrupt", "--report"},
    ("suite", "run"): SAMPLING | {"--config", "--bound", "--report"},
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_each_subcommand_takes_only_the_flags_it_reads():
    flags = {path: {a.option_strings[0] for a in p._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)}
             for path, p in _leaf_parsers(cli.build_parser())}
    assert flags == LEAF_FLAGS
    assert sum(len(f) for f in flags.values()) == 70


def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    for argv in (["field", "eval", "t", "--report", str(report)],
                 ["u", "mult", "--kind", "c2", "x1(t)", "x4(u)", "--report", str(report)],
                 ["tower", "validate", "--config", "tower-simple"],
                 ["tower", "validate", "tower-simple", "--samples", "4"],
                 ["tower", "validate", "tower-simple", "--seed", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err or "required" in err
    assert not report.exists()


def test_the_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("imperfect ")]
    assert len(commands) == 16
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is True
