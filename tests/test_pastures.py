import hashlib
import itertools
import json

import numpy as np
import oracles
import pytest

from hexafield.batch import Kernels, ints_to_bits
from hexafield.errors import CapacityError
from hexafield.galois import one_minus_one_is_everything
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import TABLE_ORDER_CAP, build_table
from hexafield.lottery import sample_bits
from hexafield.pastures import (Pasture, _nullset_row, _row_nullset,
                                all_pastures, axiom_oracle,
                                fetvins_exhaustive, field_f2, field_f3,
                                is_hyperfield_fast, krasner,
                                reconstruct_addition, satisfies_star,
                                sign_hyperfield)


def units_of(g):
    return g.units_of_order_le_2()


def small_cases(max_order):
    for g in abelian_groups_up_to(max_order):
        for unit in units_of(g):
            yield g, unit


def test_named_pastures():
    f2 = field_f2()
    assert not f2.group.invariant_factors and f2.nullset == 0
    k = krasner()
    assert not k.group.invariant_factors and k.nullset == 1
    f3 = field_f3()
    assert f3.group.order == 2 and f3.unit.index == 1
    s = sign_hyperfield()
    assert s.group == f3.group and s.unit == f3.unit
    assert f3.nullset != s.nullset
    assert bin(f3.nullset).count("1") == bin(s.nullset).count("1") == 1


def test_pasture_validation():
    g = AbelianGroup.from_literal("Z3")
    w = g.element((1,))
    with pytest.raises(ValueError):
        Pasture(g, w, 0)  # w squares to w^2 != 1
    with pytest.raises(ValueError):
        Pasture(g, g.identity, 1 << build_table(g).size)
    g2 = AbelianGroup.from_literal("Z2")
    with pytest.raises(ValueError):
        Pasture(g, g2.element((1,)), 0)


def sums(table, a, b):
    return sorted(table.sum_set(a, b))


def test_row_nullset_inverts_nullset_row():
    rng = np.random.default_rng(29)
    for width in (1, 15, 63, 64, 65, 715):
        top = (1 << width) - 1
        randoms = [int.from_bytes(rng.bytes(width // 8 + 1), "little") & top for _ in range(20)]
        for x in [0, 1, top, 1 << (width - 1), top >> 1, top ^ 1] + randoms:
            row = _nullset_row(x, width)[0]
            assert row.shape == (width,)
            assert _row_nullset(row) == x, (width, x)


def test_pair_selection_reads_the_nullset():
    for g, unit in small_cases(4):
        p2h = build_table(g).pair_to_hex.tolist()
        for p in all_pastures(g, unit):
            sel = p.pair_selection
            assert sel.shape == (g.order, g.order) and sel.dtype == bool
            for x, y in itertools.product(range(g.order), repeat=2):
                assert sel[x, y] == (p.nullset >> p2h[x][y]) & 1, (g.literal, p.nullset, x, y)


def test_pair_selection_is_read_only():
    p = sign_hyperfield()
    with pytest.raises(ValueError):
        p.pair_selection[0, 0] = True
    assert p.pair_selection is p.pair_selection


def test_reconstructed_addition_knowns():
    # carrier indices: 0 is zero, 1 is the unit, then the rest
    f2 = reconstruct_addition(field_f2())
    assert sums(f2, 1, 1) == [0]
    k = reconstruct_addition(krasner())
    assert sums(k, 1, 1) == [0, 1]
    f3 = reconstruct_addition(field_f3())
    assert sums(f3, 1, 1) == [2]
    assert sums(f3, 1, 2) == [0]
    assert sums(f3, 2, 2) == [1]
    s = reconstruct_addition(sign_hyperfield())
    assert sums(s, 1, 1) == [1]
    assert sums(s, 2, 2) == [2]
    assert sums(s, 1, 2) == [0, 1, 2]


def test_addition_zero_row():
    table = reconstruct_addition(sign_hyperfield())
    assert sums(table, 0, 0) == [0]
    for a in range(1, table.carrier_size):
        assert sums(table, 0, a) == [a]
        assert sums(table, a, 0) == [a]


def test_dump_text_shape():
    text = reconstruct_addition(field_f3()).dump_text()
    lines = text.strip().splitlines()
    assert len(lines) == 4  # header plus one row per carrier element
    assert "0" in lines[0]


def test_negation_membership():
    # 0 lands in a + b exactly when b = -a
    for g, unit in small_cases(4):
        for p in all_pastures(g, unit):
            table = reconstruct_addition(p)
            neg = [0] + [int(g.mul_array[unit.index, x]) + 1 for x in range(g.order)]
            for a in range(table.carrier_size):
                for b in range(table.carrier_size):
                    assert (table.masks[a][b] & 1 != 0) == (neg[a] == b)


def test_fast_check_equals_oracle_small():
    # the acceptance gate re-runs this at order 5 plus random large groups
    for g, unit in small_cases(4):
        for p in all_pastures(g, unit):
            assert is_hyperfield_fast(p) == axiom_oracle(p), p


def test_known_predicates():
    assert oracles.is_field(field_f2()) and oracles.is_field(field_f3())
    assert not oracles.is_field(krasner()) and not oracles.is_field(sign_hyperfield())
    assert is_hyperfield_fast(krasner())
    assert satisfies_star(krasner())
    assert not satisfies_star(sign_hyperfield())
    assert oracles.is_zero_over_zero(sign_hyperfield())
    assert not oracles.is_4full(sign_hyperfield())
    assert oracles.is_4full(krasner())
    assert not oracles.is_4full(field_f2())  # excluded by definition
    assert not oracles.is_zero_over_zero(field_f3())


def test_star_iff_4full_and_zero_over_zero():
    for g, unit in small_cases(4):
        for p in all_pastures(g, unit):
            if not is_hyperfield_fast(p):
                continue
            assert satisfies_star(p) == (oracles.is_4full(p) and oracles.is_zero_over_zero(p)), p


def test_weak_sign_is_star():
    g = AbelianGroup.from_literal("Z2")
    weak = Pasture(g, g.element((1,)), 0b11)
    assert is_hyperfield_fast(weak)
    assert oracles.is_4full(weak) and oracles.is_zero_over_zero(weak) and satisfies_star(weak)


def test_all_pastures_count():
    g = AbelianGroup.from_literal("Z3")
    assert len(list(all_pastures(g, g.identity))) == 16


def test_oracle_cap():
    # the scalar oracle has no order cap of its own: Z16 gets a verdict, and
    # the only ceiling left is the hexagon table's, hit building the pasture
    g = AbelianGroup.from_literal("Z16")
    size = build_table(g).size
    for nullset in [0, 1, (1 << size) - 1, 0b1011 << (size // 2)]:
        p = Pasture(g, g.identity, nullset)
        assert axiom_oracle(p) == is_hyperfield_fast(p), nullset
    big = AbelianGroup.from_literal(f"Z{TABLE_ORDER_CAP + 1}")
    with pytest.raises(CapacityError):
        axiom_oracle(Pasture(big, big.identity, 0))


def test_fetvins_on_knowns():
    k = reconstruct_addition(krasner())
    assert fetvins_exhaustive(k, 1)
    assert fetvins_exhaustive(k, 2)
    g = AbelianGroup.from_literal("Z2")
    weak = reconstruct_addition(Pasture(g, g.element((1,)), 0b11))
    assert fetvins_exhaustive(weak, 1)
    assert fetvins_exhaustive(weak, 2)
    # single equations over the sign hyperfield; three equations are over the cap
    s = reconstruct_addition(sign_hyperfield())
    assert fetvins_exhaustive(s, 1)
    with pytest.raises(CapacityError):
        fetvins_exhaustive(s, 3)
    with pytest.raises(ValueError):
        fetvins_exhaustive(s, 0)


def test_fields_are_single_valued():
    for g, unit in small_cases(3):
        for p in all_pastures(g, unit):
            if not oracles.is_field(p):
                continue
            table = reconstruct_addition(p)
            for a, b in itertools.product(range(table.carrier_size), repeat=2):
                assert len(table.sum_set(a, b)) == 1


def test_one_plus_minus_one_is_the_table_sum():
    # the kernels' row is the nonzero part of 1 + (-1) in the rebuilt addition
    for g, unit in small_cases(5):
        width = build_table(g).size
        got = Kernels(g, unit.index).one_plus_minus_one(ints_to_bits(np.arange(1 << width), width))
        for p, row in zip(all_pastures(g, unit), got, strict=True):
            mask = oracles.one_plus_minus_one(p)
            assert row.tolist() == [bool(mask >> (z + 1) & 1) for z in range(g.order)], p


def test_predicates_are_pinned_up_to_order_6():
    # SHA-256 over every pasture of order <= 6 and every unit: its addition
    # table and the predicates that read 1 + (-1) or four-fold sums
    digest = hashlib.sha256()
    for g, unit in small_cases(6):
        for p in all_pastures(g, unit):
            record = [g.literal, unit.index, p.nullset, reconstruct_addition(p).masks,
                      oracles.is_field(p), oracles.is_zero_over_zero(p), oracles.is_4full(p),
                      one_minus_one_is_everything(p)]
            digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == \
        "4e1447e23580f13836cc0ac9fda3d2ab26344422c91695695368bd8635d02be0"


def test_wide_addition_masks_pinned():
    # Z31 and Z32 straddle a 32-bit mask, Z64 needs 65 bits, and every
    # nullset here is wider than 64 hexagons
    digest = hashlib.sha256()
    for lit in ["Z31", "Z32", "Z63", "Z64", "Z8xZ8"]:
        g = AbelianGroup.from_literal(lit)
        size = build_table(g).size
        full = (1 << size) - 1
        drawn = sum(1 << int(h) for h in np.flatnonzero(sample_bits(3, 0, 1, size)[0]))
        for nullset in (0, full, drawn):
            masks = reconstruct_addition(Pasture(g, g.identity, nullset)).masks
            digest.update(json.dumps([lit, nullset, masks]).encode())
            # the full nullset puts the whole carrier into 1 + 1
            assert nullset != full or masks[1][1] == (1 << g.order + 1) - 1
    assert digest.hexdigest() == \
        "ab902a3c2d60075d9e960acded2e72802fd71962e1f24ef4f0f19e2b34a2a37c"
