import hashlib

import numpy as np
import pytest

from hexafield import skew
from hexafield.batch import ints_to_bits, kernels_for
from hexafield.errors import CapacityError
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table, hexagon_count_formula
from hexafield.lottery import sample_bits
from hexafield.skew import (BUILTIN_GROUPS, CayleyGroup, alternating_4,
                            burnside_orbit_count, dihedral, from_abelian,
                            quaternion_8, skew_axiom_oracle, skew_bound,
                            skew_hexagons, symmetric_3)

S3 = symmetric_3()
D4 = dihedral(4)
Q8 = quaternion_8()
D6 = dihedral(6)
A4 = alternating_4()


def test_builtin_groups():
    assert set(BUILTIN_GROUPS) == {"S3", "D4", "Q8", "D6", "A4"}
    for ctor in BUILTIN_GROUPS.values():
        assert not ctor().is_abelian
    assert (S3.order, D4.order, Q8.order, D6.order, A4.order) == (6, 8, 8, 12, 12)


def test_centers():
    assert len(S3.center) == 1 and len(A4.center) == 1
    assert len(D4.center) == 2 and len(Q8.center) == 2 and len(D6.center) == 2


def test_group_axioms_enforced():
    with pytest.raises(ValueError):
        CayleyGroup("broken", ((0, 1), (0, 1)))  # not latin
    with pytest.raises(ValueError):
        CayleyGroup("ragged", ((0, 1),))
    # a latin square that is not associative
    with pytest.raises(ValueError):
        CayleyGroup("loop", ((0, 1, 2, 3, 4),
                             (1, 0, 3, 4, 2),
                             (2, 4, 0, 1, 3),
                             (3, 2, 4, 0, 1),
                             (4, 3, 1, 2, 0)))


def test_conjugation_and_inverse():
    for g in [S3, Q8, A4]:
        for a in range(g.order):
            assert g.table[a][g.inverse[a]] == g.identity
            for x in range(g.order):
                c = g.conjugate(a, x)
                assert g.conjugate(g.inverse[a], c) == x


def test_abelian_wrap_matches_hexagons():
    for ag in abelian_groups_up_to(24):
        lit = ag.literal
        cg = from_abelian(ag)
        assert cg.is_abelian
        table = skew_hexagons(cg)
        assert table.size == hexagon_count_formula(ag), lit
        assert table.size == burnside_orbit_count(cg), lit
        ht = build_table(ag)
        assert table.members == ht.members, lit
        assert (table.pair_to_hex == ht.pair_to_hex).all(), lit
        for h in range(ht.size):
            ids = {table.hex_of_pair(u, v) for (u, v) in ht.members[h]}
            assert ids == {h}, (lit, h)


NONCOMMUTATIVE_COUNTS = [(S3, 5, 8), (D4, 9, 13), (Q8, 9, 13),
                         (D6, 13, 25), (A4, 9, 25)]


def test_noncommutative_orbit_counts():
    for g, orbits, bound in NONCOMMUTATIVE_COUNTS:
        table = skew_hexagons(g)
        assert table.size == orbits, g.name
        assert burnside_orbit_count(g) == orbits, g.name
        assert skew_bound(g) == bound, g.name
        assert orbits <= bound
        assert sum(table.sizes()) == g.order ** 2


def test_orbits_partition_and_close():
    table = skew_hexagons(S3)
    seen = set()
    for orbit in table.members:
        assert seen.isdisjoint(orbit)
        seen.update(orbit)
        for (u, v) in orbit:
            assert table.hex_of_pair(v, u) == table.hex_of_pair(u, v)
            for c in range(S3.order):
                cu, cv = S3.conjugate(c, u), S3.conjugate(c, v)
                assert table.hex_of_pair(cu, cv) == table.hex_of_pair(u, v)
    assert len(seen) == S3.order ** 2


def test_noncommutative_orbits_are_pinned():
    # any change to the orbits of a built-in group or their order moves this
    digest = hashlib.sha256()
    for g in [S3, D4, Q8, D6, A4]:
        digest.update(repr((g.name, skew_hexagons(g).members)).encode())
    assert digest.hexdigest() == \
        "49abc129781d29d97152d5a72331edc43f10dbf2d240843b6452cf1722fcd009"


def test_bound_rejects_abelian():
    with pytest.raises(ValueError):
        skew_bound(from_abelian(AbelianGroup.from_literal("Z4")))


def test_capacity_caps():
    with pytest.raises(CapacityError):
        from_abelian(AbelianGroup.from_literal("Z5xZ5"))  # before any table
    with pytest.raises(CapacityError):
        skew_hexagons(dihedral(13))  # order 26


def _wrap_bits(ag, cg, nullset):
    # the same nullset over the orbit table of the Cayley wrap
    ht, st = build_table(ag), skew_hexagons(cg)
    bits = 0
    for h in range(ht.size):
        if (nullset >> h) & 1:
            u, v = ht.members[h][0]
            bits |= 1 << st.hex_of_pair(u, v)
    return bits


def test_oracle_agrees_with_abelian_fast_check():
    # the fast first-order check shares no code with the axiom oracle
    for lit in ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"]:
        ag = AbelianGroup.from_literal(lit)
        cg = from_abelian(ag)
        size = build_table(ag).size
        units = [i for i in range(ag.order) if ag.inv_array[i] == i]
        for ui in units:
            fast = kernels_for(ag, ui).is_hyperfield(
                ints_to_bits(np.arange(1 << size, dtype=np.int64), size))
            for nullset in range(1 << size):
                assert skew_axiom_oracle(cg, ui, _wrap_bits(ag, cg, nullset)) \
                    == bool(fast[nullset]), (lit, ui, nullset)


def test_oracle_reaches_order_9():
    # and order 12, on rows of density 0.8 there: few uniform rows of Z12
    # and Z2xZ6 are hyperfields
    rng = np.random.default_rng(12)
    for lit in ["Z3xZ3", "Z12", "Z2xZ6"]:
        ag = AbelianGroup.from_literal(lit)
        cg = from_abelian(ag)
        size = build_table(ag).size
        rows = sample_bits(17, 0, 64, size) if ag.order == 9 else rng.random((64, size)) < 0.8
        fast = kernels_for(ag, 0).is_hyperfield(rows)
        got = [skew_axiom_oracle(cg, 0, _wrap_bits(ag, cg, int.from_bytes(
                   np.packbits(row, bitorder="little").tobytes(), "little"))) for row in rows]
        assert 0 < sum(got) < len(got), lit
        assert got == fast.tolist(), lit


def test_oracle_known_cases():
    triv = from_abelian(AbelianGroup.from_literal("Z1"))
    assert skew_axiom_oracle(triv, 0, 1) is True
    assert skew_axiom_oracle(triv, 0, 0) is True
    assert skew_axiom_oracle(S3, S3.identity, 0) is False
    full = (1 << skew_hexagons(S3).size) - 1
    assert skew_axiom_oracle(S3, S3.identity, full) is True


def test_oracle_random_survey_s3():
    rng = np.random.default_rng(7)
    hits = sum(skew_axiom_oracle(S3, S3.identity,
                                 int(rng.integers(0, 1 << skew_hexagons(S3).size)))
               for _ in range(200))
    assert hits == 100


def test_oracle_exhaustive_counts():
    # left and right scaling differ on D4 and Q8; A4 has order 12
    for g, eps, hits in [(S3, S3.identity, 15), (D4, 0, 63), (D4, 2, 75),
                         (Q8, 0, 63), (Q8, 1, 75), (A4, A4.identity, 205)]:
        size = skew_hexagons(g).size
        assert sum(skew_axiom_oracle(g, eps, bits) for bits in range(1 << size)) == hits, \
            (g.name, eps)


def test_oracle_builds_the_orbit_table_once_per_group(monkeypatch):
    built = []
    build = skew.orbit_table
    monkeypatch.setattr(skew, "orbit_table", lambda g: built.append(g.name) or build(g))
    g = dihedral(4)
    verdicts = [skew_axiom_oracle(g, 0, bits) for bits in range(40)]
    assert any(verdicts) and built == ["D4"]
    assert skew_hexagons(g) is skew_hexagons(g) and built == ["D4"]


def test_oracle_eps_validation():
    with pytest.raises(ValueError):
        skew_axiom_oracle(Q8, 2, 0)  # i is not central
    with pytest.raises(ValueError):
        skew_axiom_oracle(D4, 1, 0)  # a rotation of order 4
