"""Stable JSON forms for pastures and the result records the CLI emits.

A pasture serializes as {"group": "Z2xZ4", "epsilon": [1, 2], "nullset":
[[[u...], [v...]], ...]} where elements are residue vectors and the nullset
lists one canonical pair per selected hexagon, in hexagon-id order, which is
the sorted order, so files compare bytewise across runs.  Parsers ignore
unknown keys.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .groups import AbelianGroup, GroupElement
from .lottery import Census, ClassRow, Estimate
from .pastures import Pasture


def element_to_list(el: GroupElement) -> list[int]:
    return [int(r) for r in el.residues]


def pasture_to_dict(pasture: Pasture) -> dict:
    # hexagon ids ascend with their least pair, and element indices with
    # their residues, so hex_ids() order is the sorted pair order
    res = pasture.group.residue_matrix.tolist()
    reps = pasture.hex_table.reps
    return {
        "group": pasture.group.literal,
        "epsilon": element_to_list(pasture.unit),
        "nullset": [[res[u], res[v]] for u, v in (reps[h] for h in pasture.hex_ids())],
    }


def _as_residues(group: AbelianGroup, raw, what: str) -> GroupElement:
    if not isinstance(raw, list) or len(raw) != group.rank:
        raise ValueError(f"{what} must be a list of {group.rank} residues")
    if not all(isinstance(r, int) and not isinstance(r, bool) for r in raw):
        raise ValueError(f"{what} residues must be integers")
    return group.element(tuple(raw))


def pasture_from_dict(data) -> Pasture:
    if not isinstance(data, dict):
        raise ValueError("pasture JSON must be an object")
    for key in ("group", "epsilon", "nullset"):
        if key not in data:
            raise ValueError(f"pasture JSON lacks the {key!r} field")
    if not isinstance(data["group"], str):
        raise ValueError("group must be a literal like 'Z2xZ4'")
    group = AbelianGroup.from_literal(data["group"])
    unit = _as_residues(group, data["epsilon"], "epsilon")
    raw_pairs = data["nullset"]
    if not isinstance(raw_pairs, list):
        raise ValueError("nullset must be a list of pairs")
    pairs = []
    for entry in raw_pairs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError("each nullset entry must be a [u, v] pair")
        pairs.append((_as_residues(group, entry[0], "nullset pair"),
                      _as_residues(group, entry[1], "nullset pair")))
    return Pasture.from_pairs(group, unit, pairs)


def dumps_pasture(pasture: Pasture, extra: dict | None = None) -> str:
    data = pasture_to_dict(pasture)
    if extra:
        data.update(extra)
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def loads_pasture(text: str) -> Pasture:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    return pasture_from_dict(data)


def load_pasture_file(path: str) -> Pasture:
    with open(path, encoding="utf-8") as fh:
        return loads_pasture(fh.read())


def estimate_to_dict(est: Estimate) -> dict:
    p = Fraction(est.p_hat)
    return {
        "event": est.event,
        "successes": est.successes,
        "samples": est.samples,
        "p_hat": f"{p.numerator}/{p.denominator}",
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
    }


CENSUS_FIELDS = ("group", "epsilon", "total_pastures", "hyperfields", "fields",
                 "star_hyperfields", "iso_classes", "rigid_count")


def census_to_row(census: Census) -> dict:
    return {
        "group": census.group.literal,
        "epsilon": json.dumps(element_to_list(census.unit)),
        "total_pastures": census.total_pastures,
        "hyperfields": census.hyperfields,
        "fields": census.fields,
        "star_hyperfields": census.star_hyperfields,
        "iso_classes": census.iso_classes,
        "rigid_count": census.rigid_count,
    }


CLASSIFY_FIELDS = ("group", "epsilon", "nullset", "is_hyperfield", "is_field",
                   "is_4full", "is_00", "automorphisms")


def classify_row(row: ClassRow) -> dict:
    blob = pasture_to_dict(row.pasture)
    return {
        "group": blob["group"],
        "epsilon": json.dumps(blob["epsilon"]),
        "nullset": json.dumps(blob["nullset"]),
        "is_hyperfield": str(row.is_hyperfield).lower(),
        "is_field": str(row.is_field).lower(),
        "is_4full": str(row.is_4full).lower(),
        "is_00": str(row.is_00).lower(),
        "automorphisms": row.automorphisms,
    }
