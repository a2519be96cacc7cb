import hashlib
import itertools

import numpy as np
import pytest

from hexafield.batch import (EVENT_NAMES, Kernels, bits_to_ints, ints_to_bits,
                             kernels_for)
from hexafield.errors import CapacityError
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table
from hexafield.lottery import sample_bits
from hexafield.morphisms import pasture_automorphisms
from hexafield.pastures import (ORACLE_ORDER_CAP, Pasture, all_pastures,
                                axiom_oracle, is_4full, is_field,
                                is_hyperfield_fast, is_zero_over_zero,
                                reconstruct_addition, satisfies_star)

SCALAR = {
    "is_hyperfield": is_hyperfield_fast,
    "is_field": is_field,
    "satisfies_star": satisfies_star,
    "is_4full": is_4full,
    "is_zero_over_zero": is_zero_over_zero,
}


def all_bits(group):
    width = build_table(group).size
    return ints_to_bits(np.arange(1 << width, dtype=np.int64), width)


def test_bits_round_trip():
    rng = np.random.default_rng(3)
    for width in range(1, 23):
        vals = rng.integers(0, 1 << width, size=200, dtype=np.int64)
        assert (bits_to_ints(ints_to_bits(vals, width)) == vals).all()


def test_batch_matches_scalar_exhaustive():
    for g in abelian_groups_up_to(4):
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            bits = all_bits(g)
            results = {name: kernels.event(name, bits) for name in EVENT_NAMES
                       if name != "all_eps_hexagons"}
            results["is_4full"] = kernels.is_4full(bits)
            results["is_zero_over_zero"] = kernels.is_zero_over_zero(bits)
            oracle = kernels.axiom_oracle(bits)
            for i, p in enumerate(all_pastures(g, unit)):
                for name, vec in results.items():
                    if name == "has_nontrivial_automorphism":
                        want = len(pasture_automorphisms(p)) > 1
                    else:
                        want = SCALAR[name](p)
                    assert bool(vec[i]) == want, (g.literal, unit.index, p.nullset, name)
                assert bool(oracle[i]) == axiom_oracle(p)


def test_batch_matches_scalar_random_large():
    rng = np.random.default_rng(11)
    for lit in ["Z6", "Z7"]:
        g = AbelianGroup.from_literal(lit)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            width = build_table(g).size
            vals = rng.integers(0, 1 << width, size=300, dtype=np.int64)
            bits = ints_to_bits(vals, width)
            hyper = kernels.is_hyperfield(bits)
            star = kernels.satisfies_star(bits)
            for i, v in enumerate(vals):
                p = Pasture(g, unit, int(v))
                assert bool(hyper[i]) == is_hyperfield_fast(p)
                if hyper[i]:
                    assert bool(star[i]) == satisfies_star(p)


def test_hyperfield_verdict_ignores_the_rest_of_the_chunk():
    # OR-ing two draws leaves about half the rows hyperfields, so rows die at
    # different x blocks while their neighbours stay alive
    for lit in ["Z8", "Z2xZ4", "Z9"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        bits = sample_bits(5, 0, 512, width) | sample_bits(5, 512, 1024, width)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            want = kernels.axiom_oracle(bits)
            assert 0 < want.sum() < len(bits)
            assert (kernels.is_hyperfield(bits) == want).all()
            assert (kernels.is_hyperfield(bits[::-1])[::-1] == want).all()
            one_by_one = [kernels.is_hyperfield(row[None])[0] for row in bits]
            assert (np.array(one_by_one) == want).all(), (lit, unit.index)


def test_hyperfield_index_built_by_a_row_failing_condition_a():
    # warm-up passes an all-zero row; the index tensors must exist afterwards
    g = AbelianGroup.from_literal("Z5")
    kernels = Kernels(g, 0)
    assert not kernels.is_hyperfield(np.zeros((1, build_table(g).size), dtype=bool))[0]
    assert "_b_index" in vars(kernels)


def test_star_decomposition_on_batch():
    for g in abelian_groups_up_to(4):
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            bits = all_bits(g)
            hyper = kernels.is_hyperfield(bits)
            star = kernels.satisfies_star(bits)
            both = kernels.is_4full(bits) & kernels.is_zero_over_zero(bits)
            assert (star[hyper] == both[hyper]).all(), (g.literal, unit.index)


def test_kernel_verdicts_past_oracle_pinned():
    # no oracle reaches these orders, so the verdicts are pinned instead
    digest = hashlib.sha256()
    for lit in ["Z10", "Z12", "Z13", "Z16"]:
        g = AbelianGroup.from_literal(lit)
        assert g.order > ORACLE_ORDER_CAP
        bits = sample_bits(7, 0, 256, build_table(g).size)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            for name in ["is_hyperfield", "satisfies_star", "is_4full",
                         "is_zero_over_zero", "is_field", "all_eps_hexagons"]:
                digest.update(f"{lit}/{unit.index}/{name}".encode())
                digest.update(np.packbits(getattr(kernels, name)(bits)).tobytes())
    assert digest.hexdigest() == \
        "0e4cdbefcec025c9b17191eaffdbbca2348dab978d757a6b55c2274aeca3218f"


def test_reconstructed_masks_follow_the_pair_rule():
    # a plain reference: z in x + y iff the pair (x (eps z)^-1, y (eps z)^-1)
    # is selected, 0 in x + y iff x = eps y, and 0 + x = x + 0 = {x}
    for lit in ["Z4", "Z2xZ2"]:
        g = AbelianGroup.from_literal(lit)
        n = g.order
        m, inv = g.mul_array.tolist(), g.inv_array.tolist()
        p2h = build_table(g).pair_to_hex.tolist()
        for unit in g.units_of_order_le_2():
            e = unit.index
            for p in all_pastures(g, unit):
                masks = reconstruct_addition(p).masks
                for a, b, c in itertools.product(range(n + 1), repeat=3):
                    if a == 0 or b == 0:
                        want = c == a + b
                    elif c == 0:
                        want = a - 1 == m[e][b - 1]
                    else:
                        r = inv[m[e][c - 1]]
                        want = p.has_hex(p2h[m[a - 1][r]][m[b - 1][r]])
                    assert (masks[a][b] >> c) & 1 == want, (lit, e, p.nullset, a, b, c)


def test_oracle_verdicts_pinned():
    # the scalar oracle on every pasture of order <= 5, the batch oracle on
    # sampled rows of the orders the census probes
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(5):
        for unit in g.units_of_order_le_2():
            verdicts = [axiom_oracle(p) for p in all_pastures(g, unit)]
            digest.update(f"{g.literal}/{unit.index}".encode())
            digest.update(np.packbits(verdicts).tobytes())
    for lit in ["Z8", "Z2xZ4", "Z9"]:
        g = AbelianGroup.from_literal(lit)
        bits = sample_bits(13, 0, 512, build_table(g).size)
        for unit in g.units_of_order_le_2():
            verdicts = kernels_for(g, unit.index).axiom_oracle(bits)
            digest.update(f"{lit}/{unit.index}".encode())
            digest.update(np.packbits(verdicts).tobytes())
    assert digest.hexdigest() == \
        "6a01e5219af10243a124c575c9708fa86f467e6d9d63a57b9914a523d0d12dcd"


def test_all_eps_hexagons_event():
    g = AbelianGroup.from_literal("Z3")
    kernels = kernels_for(g, 0)
    table = build_table(g)
    eps_hexes = sorted({table.hex_of_pair(0, x) for x in range(3)})
    bits = all_bits(g)
    flag = kernels.event("all_eps_hexagons", bits)
    for i in range(len(bits)):
        want = all((i >> h) & 1 for h in eps_hexes)
        assert bool(flag[i]) == want


def test_event_names_closed():
    assert set(EVENT_NAMES) == {"all_eps_hexagons", "has_nontrivial_automorphism",
                                "is_field", "is_hyperfield", "satisfies_star"}
    kernels = kernels_for(AbelianGroup.from_literal("Z2"), 1)
    with pytest.raises(ValueError):
        kernels.event("bogus", all_bits(AbelianGroup.from_literal("Z2")))


def test_kernels_validation():
    g = AbelianGroup.from_literal("Z4")
    with pytest.raises(ValueError):
        kernels_for(g, 1)  # element of order 4 cannot be the unit


def test_oracle_cap():
    g = AbelianGroup.from_literal("Z16")
    kernels = kernels_for(g, 0)
    with pytest.raises(CapacityError):
        kernels.axiom_oracle(ints_to_bits(np.zeros(1, dtype=np.int64),
                                          build_table(g).size))


def test_kernels_cached():
    g = AbelianGroup.from_literal("Z5")
    assert kernels_for(g, 0) is kernels_for(AbelianGroup.from_literal("Z5"), 0)
    assert isinstance(kernels_for(g, 0), Kernels)
