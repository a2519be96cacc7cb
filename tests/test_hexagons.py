import hashlib
import time

import pytest

from hexafield.errors import CapacityError
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table, hexagon_count_formula, pair_images


def test_formula_known_values():
    for lit, want in [("Z1", 1), ("Z2", 2), ("Z3", 4), ("Z4", 5),
                      ("Z2xZ2", 5), ("Z5", 7), ("Z9", 19), ("Z13", 35)]:
        assert hexagon_count_formula(AbelianGroup.from_literal(lit)) == want


def test_enumeration_matches_formula_up_to_16():
    t0 = time.time()
    for g in abelian_groups_up_to(16):
        assert build_table(g).size == hexagon_count_formula(g), g.literal
    assert time.time() - t0 < 1.0


def test_orbits_partition_all_pairs():
    for lit in ["Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z2xZ4"]:
        g = AbelianGroup.from_literal(lit)
        table = build_table(g)
        seen = set()
        for ms in table.members:
            assert not (set(ms) & seen)
            seen |= set(ms)
        assert len(seen) == g.order ** 2
        assert all(1 <= len(ms) <= 6 and 6 % len(ms) == 0 for ms in table.members)


def test_six_images_closed():
    g = AbelianGroup.from_literal("Z6")
    table = build_table(g)
    for u in range(6):
        for v in range(6):
            h = table.hex_of_pair(u, v)
            for uu, vv in pair_images(g, u, v):
                assert table.hex_of_pair(uu, vv) == h


def test_reps_are_first_members():
    g = AbelianGroup.from_literal("Z2xZ4")
    table = build_table(g)
    for h in range(table.size):
        assert table.reps[h] == min(table.members[h])
    # rep pairs appear in enumeration order
    assert list(table.reps) == sorted(table.reps)


def test_triple_normalization():
    g = AbelianGroup.from_literal("Z9")
    table = build_table(g)
    m, iv = g.mul_array, g.inv_array
    for (x, y, z) in [(1, 2, 3), (4, 4, 4), (0, 5, 8), (7, 1, 2)]:
        direct = table.triple_to_hex[x, y, z]
        u = int(m[x, iv[z]])
        v = int(m[y, iv[z]])
        assert direct == table.hex_of_pair(u, v)


def test_scaling_leaves_hex_fixed():
    # (tx, ty, tz) names the same hexagon as (x, y, z)
    g = AbelianGroup.from_literal("Z6")
    table = build_table(g)
    m = g.mul_array
    for t in range(6):
        for (x, y, z) in [(0, 1, 2), (3, 3, 0), (5, 2, 4)]:
            assert (table.triple_to_hex[x, y, z]
                    == table.triple_to_hex[m[t, x], m[t, y], m[t, z]])


def test_orbit_of_elements():
    g = AbelianGroup.from_literal("Z3")
    one = g.identity
    w = g.element((1,))
    table = build_table(g)
    pairs = table.members[table.hex_of_pair(one.index, w.index)]
    assert len(pairs) in (1, 2, 3, 6)
    assert (one.index, w.index) in pairs


def test_tables_are_pinned_up_to_64():
    # any change to the reps, members or pair_to_hex of a table moves this
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(64):
        table = build_table(g)
        digest.update(repr((g.literal, table.reps, table.members)).encode())
        digest.update(table.pair_to_hex.tobytes())
    assert digest.hexdigest() == \
        "55f815f606953f10ef115c8c7a994ecd02b8eab5a73083dce5365e8a5258e62d"


def test_table_cap():
    with pytest.raises(CapacityError):
        build_table(AbelianGroup.from_literal("Z65"))


def test_table_is_cached():
    g = AbelianGroup.from_literal("Z5")
    assert build_table(g) is build_table(AbelianGroup.from_literal("Z5"))
