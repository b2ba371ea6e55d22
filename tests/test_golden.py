"""Byte-identical CLI reports.

Each case runs `cli.main` in process and compares its stdout, byte for
byte, with `tests/golden/<name>.txt`, and its exit code with the table
below. The cases cover the suite report, every tower and indifferent
preset plus two non-weak indifferent sets, rank-1 and symplectic cells and
membership (including torus quotients) and oracle recovery; configurations
that are not presets are written to files first.

After a change that is meant to alter a report, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from imperfect.cli import main
from imperfect.presets import preset

GOLDEN = pathlib.Path(__file__).parent / "golden"

X1T = "1;t;0;0;0;1;0;0;0;0;1;t;0;0;0;1"


def _diag(a: str, b: str, c: str, d: str) -> str:
    return ";".join([a, "0", "0", "0", "0", b, "0", "0", "0", "0", c, "0", "0", "0", "0", d])


def _config(name: str, **changes) -> dict:
    raw = preset(name)
    for key, value in changes.items():
        section, _, field = key.partition("__")
        raw.setdefault(section, {})[field] = value
    return raw


# configuration files, named in an argv as "{name}"
CONFIGS = {
    "torus": _config("indifferent-proper", sp4__torus_actions=[["v", "1"], ["u", "1"]]),
    "strict-short": _config("indifferent-proper", indifferent__weak=False),
    "strict-full": _config("indifferent-proper", indifferent__weak=False,
                           indifferent__K0={"over_field_gens": ["t"], "basis": ["1", "u", "v"]}),
}

# name -> (argv, exit code)
CASES = {
    "suite-run-seed0": (["suite", "run", "--seed", "0"], 0),
    "tower-simple": (["tower", "validate", "tower-simple"], 0),
    "tower-over-k1": (["tower", "validate", "tower-over-k1"], 0),
    "tower-bad": (["tower", "validate", "tower-bad"], 1),
    "indifferent-weak": (["indifferent", "validate", "indifferent-weak"], 0),
    "indifferent-proper": (["indifferent", "validate", "indifferent-proper"], 0),
    "indifferent-strict-short": (["indifferent", "validate", "{strict-short}"], 1),
    "indifferent-strict-full": (["indifferent", "validate", "{strict-full}"], 0),
    "sl2-bruhat-big": (["sl2", "bruhat", "--matrix", "1;1;1;0", "--vars", "t"], 0),
    "sl2-bruhat-upper": (["sl2", "bruhat", "--matrix", "t;1;0;1/(t)"], 0),
    "sl2-member-yes": (["sl2", "member", "--matrix", "1;t;0;1",
                        "--config", "timmesfeld-codim1"], 0),
    "sl2-member-no": (["sl2", "member", "--matrix", "1;v;0;1",
                       "--config", "timmesfeld-codim1"], 0),
    "sl2-member-torus": (["sl2", "member", "--matrix", "t*u;0;0;1/(t*u)",
                          "--config", "timmesfeld-plain"], 0),
    "sp4-bruhat-e": (["sp4", "bruhat", "--matrix", X1T], 0),
    "sp4-bruhat-ba": (["sp4", "bruhat", "--matrix",
                       "t^2+t;u;0;0;t;u/t;0;0;t*u;u^2/t;(t^2+t)/u;1;0;0;t/u;1/t"], 0),
    "sp4-member-weak": (["sp4", "member", "--matrix", X1T, "--config", "indifferent-weak"], 0),
    "sp4-member-torus-yes": (["sp4", "member", "--config", "indifferent-proper", "--matrix",
                              _diag("t^3", "t", "1/(t)", "1/(t^3)")], 0),
    "sp4-member-torus-unknown": (["sp4", "member", "--config", "indifferent-proper", "--matrix",
                                  _diag("v", "1/(v)", "v", "1/(v)")], 0),
    "sp4-member-escape": (["sp4", "member", "--config", "indifferent-proper", "--matrix",
                           "1;v;0;0;0;1;0;0;0;0;1;v;0;0;0;1"], 0),
    "sp4-member-depth1": (["sp4", "member", "--config", "{torus}", "--matrix",
                           _diag("v", "1", "1", "1/(v)")], 0),
    "sp4-member-depth2": (["sp4", "member", "--config", "{torus}", "--matrix",
                           _diag("u*v", "1", "1", "1/(u*v)")], 0),
    "sp4-member-torus-no": (["sp4", "member", "--config", "{torus}", "--matrix",
                             _diag("u", "v/(u)", "u/(v)", "1/(u)")], 0),
    "reconstruct-g2": (["reconstruct", "g2", "--config", "g2", "--samples", "6"], 0),
    "reconstruct-c2": (["reconstruct", "c2", "--config", "indifferent-weak",
                        "--samples", "6"], 0),
}


def _run(argv, config_dir: pathlib.Path):
    paths = {}
    for name, raw in CONFIGS.items():
        paths["{" + name + "}"] = path = config_dir / f"{name}.json"
        path.write_text(json.dumps(raw))
    argv = [str(paths.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    argv, want_code = CASES[name]
    code, out, err = _run(argv, tmp_path)
    assert (code, err) == (want_code, "")
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in sorted(CASES.items()):
            code, out, err = _run(argv, pathlib.Path(tmp))
            (GOLDEN / f"{name}.txt").write_text(out)
            print(f"{name}: exit {code}{', stderr: ' + err.strip() if err else ''}",
                  file=sys.stderr)
