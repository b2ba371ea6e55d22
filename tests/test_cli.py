import json
import time

from imperfect import cli, suite
from imperfect.cli import main
from imperfect.field import ParseError, parse_element
from imperfect.presets import Bundle, write_preset
from imperfect.reconstruct import ReconstructError


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
    code, _, err = run(capsys, "field", "eval", "t+")
    assert code == 2
    assert "error" in err


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

    monkeypatch.setattr(cli, "g2_recover", broken)
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["sl2", "--help"]) == 0
    capsys.readouterr()
