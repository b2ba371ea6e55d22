"""The configuration format, its reader and the named example configurations.

Every preset is a plain JSON-able dictionary in the same shape the CLI
accepts from a file, so tests, demos, and the suite all drive the same
loading path. `Config.load` is the one reader of that shape: it checks every
key of every section (SpecError) and every element text (ParseError) and
builds what each section names. A Bundle hands out a loaded config's sections.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .field import Context, ParseError, RatFunc, parse_element
from .rank1 import TimmesfeldData
from .sp4 import Sp4Context, StructureData, build_group_from_M
from .tower import IndifferentSpec, RSpaceSpec, SpecError, SubfieldSpec, TowerSpec
from .unipotent import RootDatum2, c2_datum, g2_datum

PRESETS: Dict[str, dict] = {
    # single level over K^2 with three independent basis elements
    "tower-simple": {
        "p": 2,
        "vars": ["t", "u", "v"],
        "rspaces": [{"name": "R1", "over": "Kp", "basis": ["1", "t", "u"]}],
    },
    # the scalar field is itself a proper extension of K^2
    "tower-over-k1": {
        "p": 2,
        "vars": ["t", "u", "v"],
        "subfields": [{"name": "K1", "gens": ["t"]}],
        "rspaces": [{"name": "R1", "over": "K1", "basis": ["1", "u", "v"]}],
    },
    # the span is the field K^2[t,u], so its stabilizer is too big
    "tower-bad": {
        "p": 2,
        "vars": ["t", "u"],
        "rspaces": [{"name": "R1", "over": "Kp", "basis": ["1", "t", "u", "t*u"]}],
    },
    # weak indifferent set with K0 the whole field
    "indifferent-weak": {
        "p": 2,
        "vars": ["t", "u"],
        "indifferent": {
            "L0": {"basis": ["1", "t"]},
            "K0": {"over_field_gens": ["t"], "basis": ["1", "u"]},
            "weak": True,
        },
        "sp4": {"torus_actions": [["t^2", "t^2"]]},
    },
    # same shape one variable up, where K0 is proper
    "indifferent-proper": {
        "p": 2,
        "vars": ["t", "u", "v"],
        "indifferent": {
            "L0": {"basis": ["1", "t"]},
            "K0": {"over_field_gens": ["t"], "basis": ["1", "u"]},
            "weak": True,
        },
        "sp4": {"torus_actions": [["t^2", "t^2"]]},
    },
    # rank-1 line with a declared codimension-1 splitting of its field
    "timmesfeld-codim1": {
        "p": 2,
        "vars": ["t", "u", "v"],
        "subfields": [{"name": "K1", "gens": ["t"]}],
        "rspaces": [{"name": "L", "over": "Kp", "basis": ["1", "t", "u"]}],
        "timmesfeld": {"L": "L", "K1": "K1", "u_coord": "u"},
    },
    # same line without the splitting: torus searches may stay unknown
    "timmesfeld-plain": {
        "p": 2,
        "vars": ["t", "u", "v"],
        "rspaces": [{"name": "L", "over": "Kp", "basis": ["1", "t", "u"]}],
        "timmesfeld": {"L": "L"},
    },
    # hexagon instance over F_3(s, v) with k = K^3(s)
    "g2": {
        "p": 3,
        "vars": ["s", "v"],
        "subfields": [{"name": "k", "gens": ["s"]}],
        "g2": {"k": "k"},
    },
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; have {', '.join(preset_names())}")
    return copy.deepcopy(PRESETS[name])


_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}
_REQUIRED = object()


def _get(sec, key: str, kind: type, where: str, default=_REQUIRED):
    """sec[key], which must have the JSON type `kind`; `default` when the key is absent."""
    if not isinstance(sec, dict):
        raise SpecError("must be an object", where)
    if key not in sec:
        if default is _REQUIRED:
            raise SpecError(f"missing key {key!r}", where)
        return default
    value = sec[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SpecError(f"{key!r} must be {_TYPES[kind]}", where)
    return value


def _lookup(table: dict, what: str, sec, key: str, where: str, default=_REQUIRED):
    """The entry of `table` named by sec[key]; None when an optional key is absent."""
    name = _get(sec, key, str, where, default)
    if name is not None and name not in table:
        raise SpecError(f"unknown {what} {name!r}", where)
    return None if name is None else table[name]


@dataclass
class Config:
    """A checked configuration: the field, its named structures and its group data."""

    ctx: Context
    subfields: Dict[str, SubfieldSpec]
    rspaces: Dict[str, RSpaceSpec]
    tower: Optional[TowerSpec]
    indifferent: Optional[IndifferentSpec]
    timmesfeld: Optional[TimmesfeldData]
    g2: Optional[RootDatum2]
    torus_actions: List[Tuple[RatFunc, RatFunc]]

    @staticmethod
    def load(raw) -> "Config":
        """Check every section of a configuration dict and build what it names."""
        ctx = Context(_get(raw, "p", int, "config"), _get(raw, "vars", list, "config"))

        def elements(sec, key: str, where: str, default=_REQUIRED) -> List[RatFunc]:
            texts = _get(sec, key, list, where, default)
            if not all(isinstance(s, str) for s in texts):
                raise SpecError(f"{key!r} must be a list of strings", where)
            return [parse_element(s, ctx) for s in texts]

        subfields: Dict[str, SubfieldSpec] = {"Kp": SubfieldSpec("Kp", (), ctx)}
        for i, sec in enumerate(_get(raw, "subfields", list, "config", [])):
            where = f"subfields[{i}]"
            name = _get(sec, "name", str, where)
            if name in subfields:
                raise SpecError(f"duplicate name {name!r}", where)
            subfields[name] = SubfieldSpec(name, elements(sec, "gens", where, []), ctx)

        rspaces: Dict[str, RSpaceSpec] = {}
        for i, sec in enumerate(_get(raw, "rspaces", list, "config", [])):
            where = f"rspaces[{i}]"
            name = _get(sec, "name", str, where)
            if name in rspaces:
                raise SpecError(f"duplicate name {name!r}", where)
            over = _lookup(subfields, "subfield", sec, "over", where, "Kp")
            rspaces[name] = RSpaceSpec(name, over, elements(sec, "basis", where))
        spaces = list(rspaces.values())
        tower = TowerSpec(ctx, [R.over for R in spaces], spaces) if spaces else None

        sec = _get(raw, "indifferent", dict, "config", None)
        indifferent = None if sec is None else IndifferentSpec(
            ctx, elements(_get(sec, "L0", dict, "indifferent"), "basis", "indifferent.L0"),
            elements(_get(sec, "K0", dict, "indifferent"), "over_field_gens", "indifferent.K0", []),
            elements(_get(sec, "K0", dict, "indifferent"), "basis", "indifferent.K0"),
            weak=_get(sec, "weak", bool, "indifferent", True))

        timmesfeld = None
        sec = _get(raw, "timmesfeld", dict, "config", None)
        if sec is not None:
            u_coord = _get(sec, "u_coord", str, "timmesfeld", None)
            timmesfeld = TimmesfeldData(
                _lookup(rspaces, "R-space", sec, "L", "timmesfeld"),
                K1=_lookup(subfields, "subfield", sec, "K1", "timmesfeld", None),
                u_coord=None if u_coord is None else parse_element(u_coord, ctx))

        sec = _get(raw, "g2", dict, "config", None)
        g2 = None if sec is None else g2_datum(ctx, _lookup(subfields, "subfield", sec, "k", "g2"))

        torus_actions = []
        pairs = _get(_get(raw, "sp4", dict, "config", {}), "torus_actions", list, "sp4", [])
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(s, str) for s in pair)):
                raise SpecError("a torus action is a pair [f1, f4] of strings",
                                f"sp4.torus_actions[{i}]")
            torus_actions.append((parse_element(pair[0], ctx), parse_element(pair[1], ctx)))

        return Config(ctx, subfields, rspaces, tower, indifferent, timmesfeld, g2, torus_actions)


@dataclass
class Bundle:
    cfg: Config

    @staticmethod
    def load(source) -> "Bundle":
        """source: a preset name, a path to a JSON file, or a dict."""
        raw = PRESETS[source] if isinstance(source, str) and source in PRESETS else source
        if isinstance(raw, (str, os.PathLike)):
            try:
                with open(raw, encoding="utf-8") as fh:
                    raw = json.load(fh)
            except FileNotFoundError as e:
                raise SpecError(f"missing config: {e}")
            except OSError as e:
                raise SpecError(f"unreadable config: {e}")
            except json.JSONDecodeError as e:
                raise ParseError(f"config {raw} is not JSON: {e.msg}, line {e.lineno}", e.pos)
            except UnicodeDecodeError as e:
                raise ParseError(f"config {raw} is not UTF-8 text: {e.reason}", e.start)
        return Bundle(Config.load(raw))

    @property
    def ctx(self) -> Context:
        return self.cfg.ctx

    def need(self, section: str):
        """The configuration's `section`; SpecError when it has none."""
        value = getattr(self.cfg, section)
        if value is None:
            raise SpecError(f"configuration has no {section} section")
        return value

    def timmesfeld(self) -> TimmesfeldData:
        return self.need("timmesfeld")

    def g2(self) -> RootDatum2:
        return self.need("g2")

    def c2(self) -> RootDatum2:
        spec = self.need("indifferent")
        return c2_datum(self.ctx, spec.K0, spec.L0)

    def sp4(self) -> Sp4Context:
        return build_group_from_M(StructureData(self.need("indifferent"), self.cfg.torus_actions))
