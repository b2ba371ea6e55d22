"""The configuration reader: every malformed config is a SpecError (exit 1) or,
for a bad element text, a ParseError (exit 2), never a builtin exception."""

import copy
import json
import random

import pytest

from imperfect.cli import main
from imperfect.field import ImperfectError
from imperfect.presets import PRESETS, Bundle, preset_names
from imperfect.tower import SpecError

TIMMESFELD = {"p": 2, "vars": ["t", "u", "v"], "subfields": [{"name": "K1", "gens": ["t"]}],
              "rspaces": [{"name": "L", "basis": ["1", "t", "u"]}]}
INDIFFERENT = {"L0": {"basis": ["1", "t"]}, "K0": {"basis": ["1", "u"]}}


def with_(base, **sections):
    return {**copy.deepcopy(base), **sections}


# each config breaks the format once; the message names where
MALFORMED = {
    "top-level list": ([{"p": 2, "vars": ["t"]}], "config: must be an object"),
    "subfield without name": (with_(TIMMESFELD, subfields=[{"gens": ["t"]}]),
                              "subfields[0]: missing key 'name'"),
    "R-space without basis": (with_(TIMMESFELD, rspaces=[{"name": "L"}]),
                              "rspaces[0]: missing key 'basis'"),
    "number in a basis": (with_(TIMMESFELD, rspaces=[{"name": "L", "basis": ["1", 2]}]),
                          "rspaces[0]: 'basis' must be a list of strings"),
    "indifferent without K0": (with_(TIMMESFELD, indifferent={"L0": {"basis": ["1", "t"]}}),
                               "indifferent: missing key 'K0'"),
    "sp4 a list": (with_(TIMMESFELD, sp4=[]), "config: 'sp4' must be an object"),
    "K1 without u_coord": (with_(TIMMESFELD, timmesfeld={"L": "L", "K1": "K1"}),
                           "needs both the subfield and the coordinate"),
    "weak a string": (with_(TIMMESFELD, indifferent={**INDIFFERENT, "weak": "false"}),
                      "indifferent: 'weak' must be a boolean"),
    "duplicate R-space": (with_(TIMMESFELD, rspaces=[{"name": "L", "basis": ["1"]}] * 2),
                          "rspaces[1]: duplicate name 'L'"),
    "dangling g2.k": ({"p": 3, "vars": ["s"], "g2": {"k": "k"}}, "g2: unknown subfield 'k'"),
    "dangling timmesfeld.L": (with_(TIMMESFELD, timmesfeld={"L": "nope"}),
                              "timmesfeld: unknown R-space 'nope'"),
    "torus action of one scalar": (with_(TIMMESFELD, sp4={"torus_actions": [["t"]]}),
                                   "sp4.torus_actions[0]: a torus action is a pair"),
    "p a boolean": (with_(TIMMESFELD, p=True), "config: 'p' must be an integer"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_config_is_a_spec_error(case):
    raw, message = MALFORMED[case]
    with pytest.raises(SpecError, match=message.replace("[", r"\[")):
        Bundle.load(raw)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_config_file_exits_one_with_one_error_line(case, tmp_path, capsys):
    path = tmp_path / "config.json"
    raw, message = MALFORMED[case]
    path.write_text(json.dumps(raw))
    assert main(["sl2", "recover", "--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err
    assert "Traceback" not in out.err


def test_a_bad_element_text_in_a_config_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_(TIMMESFELD, timmesfeld={"L": "L", "K1": "K1",
                                                              "u_coord": "u+"})))
    assert main(["sl2", "recover", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


VALUES = (None, 0, 7, -1, 2.5, True, "", "zz", "t", [], [1], ["t"], {}, {"a": 1})


def places(node, path=()):
    """(path to a container, key or index in it) for every value inside node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)):
            yield from places(child, path + (key,))


def mutate(raw, rng):
    """raw with one key deleted (30%) or one value replaced."""
    raw = copy.deepcopy(raw)
    delete = rng.random() < 0.3
    path, key = rng.choice([(path, key) for path, key in places(raw)
                            if isinstance(key, str) or not delete])
    parent = raw
    for k in path:
        parent = parent[k]
    if delete:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    return raw


def test_seeded_mutations_of_every_preset_load_or_raise_a_package_error():
    rng = random.Random(0)
    loaded = rejected = 0
    for name in preset_names():
        for _ in range(400):
            raw = mutate(PRESETS[name], rng)
            try:
                Bundle.load(raw)
            except ImperfectError:
                rejected += 1
            else:
                loaded += 1
    assert loaded and rejected
