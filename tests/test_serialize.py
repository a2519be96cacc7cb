import hashlib
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hexafield.cli import run
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table
from hexafield.lottery import Estimate, census, class_table
from hexafield.pastures import Pasture, field_f3, krasner, sign_hyperfield
from hexafield.serialize import (CENSUS_FIELDS, CLASSIFY_FIELDS, census_to_row,
                                 classify_row, dumps_pasture, element_to_list,
                                 estimate_to_dict, load_pasture_file,
                                 loads_pasture, pasture_from_dict,
                                 pasture_to_dict)


def random_pastures():
    rng = np.random.default_rng(5)
    out = []
    for lit in ["Z1", "Z2", "Z4", "Z2xZ2", "Z6", "Z2xZ4", "Z9"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            for _ in range(20):
                bits = int(rng.integers(0, 1 << width))
                out.append(Pasture(g, unit, bits))
    return out


def test_round_trip_random():
    for p in random_pastures():
        assert loads_pasture(dumps_pasture(p)) == p
        assert pasture_from_dict(pasture_to_dict(p)) == p


def test_canonical_known_forms():
    assert pasture_to_dict(sign_hyperfield()) == {
        "group": "Z2", "epsilon": [1], "nullset": [[[0], [1]]]}
    assert pasture_to_dict(field_f3()) == {
        "group": "Z2", "epsilon": [1], "nullset": [[[0], [0]]]}
    assert pasture_to_dict(krasner()) == {
        "group": "Z1", "epsilon": [], "nullset": [[[], []]]}


def test_dumps_is_stable_and_newline_terminated():
    text = dumps_pasture(sign_hyperfield())
    assert text == dumps_pasture(sign_hyperfield())
    assert text.endswith("\n")
    assert json.loads(text)["group"] == "Z2"


def test_dumps_extra_fields():
    doc = json.loads(dumps_pasture(field_f3(), extra={"is_hyperfield": True}))
    assert doc["is_hyperfield"] is True
    assert doc["group"] == "Z2"


def test_unknown_keys_ignored():
    doc = pasture_to_dict(field_f3())
    doc["comment"] = "hand checked"
    assert pasture_from_dict(doc) == field_f3()


def test_malformed_documents():
    good = pasture_to_dict(sign_hyperfield())
    bad_docs = [
        [],
        {k: v for k, v in good.items() if k != "group"},
        {**good, "group": 7},
        {**good, "group": "Z0"},
        {**good, "epsilon": [1, 0]},
        {**good, "epsilon": [True]},
        {**good, "nullset": 3},
        {**good, "nullset": [[[0]]]},
        {**good, "nullset": [[[0], "x"]]},
    ]
    for doc in bad_docs:
        with pytest.raises(ValueError):
            pasture_from_dict(doc)
    with pytest.raises(ValueError):
        loads_pasture("{not json")


def test_load_pasture_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(dumps_pasture(sign_hyperfield()), encoding="utf-8")
    assert load_pasture_file(str(path)) == sign_hyperfield()
    with pytest.raises(OSError):
        load_pasture_file(str(tmp_path / "missing.json"))


def test_estimate_to_dict():
    est = Estimate("satisfies_star", 372, 1000, Fraction(372, 1000),
                   0.34258611396233785, 0.4023935362099642)
    doc = estimate_to_dict(est)
    assert doc["p_hat"] == "93/250"
    assert doc["successes"] == 372
    assert doc["samples"] == 1000
    assert doc["event"] == "satisfies_star"
    assert doc["ci_low"] == est.ci_low and doc["ci_high"] == est.ci_high


def test_census_row():
    g = AbelianGroup.from_literal("Z2")
    row = census_to_row(census(g, g.element_by_index(1)))
    assert list(row) == list(CENSUS_FIELDS)
    assert row["group"] == "Z2"
    assert row["epsilon"] == "[1]"
    assert (row["total_pastures"], row["hyperfields"], row["fields"]) == (4, 3, 1)
    assert (row["star_hyperfields"], row["iso_classes"], row["rigid_count"]) == (1, 3, 3)


def test_classify_row():
    g = AbelianGroup.from_literal("Z2")
    rows = class_table(g, g.element_by_index(1))
    encoded = [classify_row(r) for r in rows]
    for row in encoded:
        assert list(row) == list(CLASSIFY_FIELDS)
        assert row["group"] == "Z2"
        assert row["is_hyperfield"] == "true"
        assert json.loads(row["nullset"]) == pasture_to_dict(
            pasture_from_dict({"group": row["group"],
                               "epsilon": json.loads(row["epsilon"]),
                               "nullset": json.loads(row["nullset"])}))["nullset"]
    assert [r["is_field"] for r in encoded] == ["true", "false", "false"]
    assert [r["automorphisms"] for r in encoded] == [1, 1, 1]


def test_element_to_list():
    g = AbelianGroup.from_literal("Z2xZ4")
    assert element_to_list(g.element((1, 3))) == [1, 3]


def sorted_pairs_reference(pasture):
    # the definition: the residue vectors of each selected hexagon's
    # representative pair, sorted
    g, table = pasture.group, pasture.hex_table
    pairs = [[element_to_list(g.element_by_index(u)), element_to_list(g.element_by_index(v))]
             for u, v in (table.reps[h] for h in pasture.hex_ids())]
    pairs.sort()
    return {"group": g.literal, "epsilon": element_to_list(pasture.unit), "nullset": pairs}


def test_pasture_to_dict_matches_the_sorted_definition():
    # seeded random nullsets of every unit of every abelian group of order <= 64
    rng = random.Random(20)
    for g in abelian_groups_up_to(64):
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            for bits in [rng.getrandbits(width) for _ in range(3)]:
                p = Pasture(g, unit, bits)
                assert pasture_to_dict(p) == sorted_pairs_reference(p), (g, unit, bits)


def test_hexagon_ids_ascend_with_their_residue_pairs():
    # what lets pasture_to_dict skip the sort: representatives ascend with
    # their ids, and residue vectors with their element indices
    for g in abelian_groups_up_to(64):
        reps = build_table(g).reps
        assert list(reps) == sorted(reps), g
        residues = g.residue_matrix.tolist()
        assert residues == sorted(residues), g


def test_classify_output_pinned_up_to_order_8():
    # every unit of every abelian group of order <= 8: all classes up to
    # order 7, hyperfields only at order 8
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(8):
        out = io.StringIO()
        argv = ["classify", "--group", g.literal] + (["--all"] if g.order <= 7 else [])
        assert run(argv, stdout=out) == 0
        digest.update(f"{g.literal}\n".encode())
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == \
        "32d13b61403b407e2cdd5bb0017157bbd2a2ca283a3b74becce84ebbd33c216a"
