"""Named example configurations and the glue that instantiates them.

Every preset is a plain JSON-able dictionary in the same shape the CLI
accepts from a file, so tests, demos, and the suite all drive the same
loading path. A Bundle wraps a parsed configuration together with the raw
dictionary and builds the richer objects (rank-1 data, root data, the
symplectic context) from their sections.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .field import Context, RatFunc, parse_element
from .rank1 import TimmesfeldData
from .sp4 import StructureData, build_group_from_M
from .tower import Config, SpecError
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


def write_preset(name: str, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(preset(name), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class Bundle:
    raw: dict
    cfg: Config

    @staticmethod
    def load(source) -> "Bundle":
        """source: a preset name, a path to a JSON file, or a dict."""
        if isinstance(source, dict):
            raw = copy.deepcopy(source)
        elif isinstance(source, str) and source in PRESETS:
            raw = preset(source)
        else:
            with open(source) as fh:
                raw = json.load(fh)
        return Bundle(raw=raw, cfg=Config.load(raw))

    @property
    def ctx(self) -> Context:
        return self.cfg.ctx

    def _parse(self, s: str) -> RatFunc:
        return parse_element(s, self.ctx)

    def timmesfeld(self) -> TimmesfeldData:
        sec = self.raw.get("timmesfeld")
        if not sec:
            raise SpecError("configuration has no timmesfeld section")
        try:
            L = self.cfg.rspaces[sec["L"]]
        except KeyError as e:
            raise SpecError(f"timmesfeld section names unknown space {e}")
        K1 = None
        u_coord = None
        if "K1" in sec:
            if sec["K1"] not in self.cfg.subfields:
                raise SpecError(f"timmesfeld section names unknown subfield {sec['K1']!r}")
            K1 = self.cfg.subfields[sec["K1"]]
            u_coord = self._parse(sec["u_coord"])
        return TimmesfeldData(L, K1=K1, u_coord=u_coord)

    def g2(self) -> RootDatum2:
        sec = self.raw.get("g2")
        if not sec:
            raise SpecError("configuration has no g2 section")
        if sec["k"] not in self.cfg.subfields:
            raise SpecError(f"g2 section names unknown subfield {sec['k']!r}")
        return g2_datum(self.ctx, self.cfg.subfields[sec["k"]])

    def c2(self) -> RootDatum2:
        spec = self.cfg.indifferent
        if spec is None:
            raise SpecError("configuration has no indifferent section")
        return c2_datum(self.ctx, spec.K0, spec.L0)

    def sp4(self):
        spec = self.cfg.indifferent
        if spec is None:
            raise SpecError("configuration has no indifferent section")
        actions: List[Tuple[RatFunc, RatFunc]] = []
        for pair in self.raw.get("sp4", {}).get("torus_actions", []):
            f1, f4 = (self._parse(s) for s in pair)
            actions.append((f1, f4))
        return build_group_from_M(StructureData(spec, actions))
