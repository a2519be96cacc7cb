import hashlib
import itertools
import tracemalloc

import numpy as np
import oracles
import pytest

from hexafield import batch
from hexafield.batch import EVENT_NAMES, Kernels, ints_to_bits, kernels_for
from hexafield.galois import (QuotientSpec, build_field, factor_prime_power,
                              quotient_hyperfield)
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table
from hexafield.lottery import sample_bits
from hexafield.morphisms import pasture_automorphisms
from hexafield.pastures import (Pasture, _nullset_row, all_pastures, axiom_oracle,
                                is_hyperfield_fast, reconstruct_addition, satisfies_star)
from hexafield.skew import (dihedral, quaternion_8, skew_axiom_oracle, skew_hexagons,
                            symmetric_3)

SCALAR = {
    "is_hyperfield": is_hyperfield_fast,
    "is_field": oracles.is_field,
    "satisfies_star": satisfies_star,
    "is_4full": oracles.is_4full,
    "is_zero_over_zero": oracles.is_zero_over_zero,
}


def all_bits(group):
    width = build_table(group).size
    return ints_to_bits(np.arange(1 << width, dtype=np.int64), width)


def test_bits_round_trip():
    # bit h of the integer is column h
    rng = np.random.default_rng(3)
    for width in range(1, 23):
        vals = rng.integers(0, 1 << width, size=200, dtype=np.int64)
        want = np.unpackbits(vals.astype("<u8")[:, None].view(np.uint8), axis=1,
                             count=width, bitorder="little").astype(bool)
        assert (ints_to_bits(vals, width) == want).all()


def test_int64_bitsets_refuse_more_than_63_bits():
    # int64 would wrap: bit 63 is the sign
    assert ints_to_bits(np.array([(1 << 63) - 1]), 63).all()
    with pytest.raises(ValueError, match="64-bit"):
        ints_to_bits(np.zeros(1, dtype=np.int64), 64)


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
    # OR-ing two draws leaves about half the rows hyperfields, so failing
    # rows sit next to rows that pass
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
    # the benchmark warms each kernel on an all-zero row, which fails
    # condition A; a row that passes both conditions must find every cached
    # tensor already built
    g = AbelianGroup.from_literal("Z5")
    kernels = Kernels(g, 0)
    width = build_table(g).size
    assert not kernels.is_hyperfield(np.zeros((1, width), dtype=bool))[0]
    warm = set(vars(kernels))
    assert kernels.is_hyperfield(np.ones((1, width), dtype=bool))[0]
    assert set(vars(kernels)) == warm


def _seeded_rows(g, unit_index, seed, dense=True):
    """Uniform draws, the empty nullset, where the group allows one a
    finite-field quotient and that quotient with one hexagon dropped, and
    if `dense` two draws at density 0.97 and the full nullset."""
    width = build_table(g).size
    rng = np.random.default_rng(seed)
    rows = [rng.random((2, width)) < 0.5, np.zeros((1, width), dtype=bool)]
    for q in (2 * g.order + 1, 4 * g.order + 1, 6 * g.order + 1):
        if factor_prime_power(q) == (q, 1):
            # the unit is the class of -1 = g^((q - 1) / 2)
            if (q - 1) // 2 % g.order == unit_index:
                p = quotient_hyperfield(QuotientSpec(build_field(q, 1), g.order))
                row = _nullset_row(p.nullset, width)
                dropped = row.copy()
                dropped[0, rng.choice(np.flatnonzero(row[0]))] = False
                rows += [row, dropped]
            break
    if dense:
        rows += [rng.random((2, width)) < 0.97, np.ones((1, width), dtype=bool)]
    return np.concatenate(rows)


def test_field_like_rows_match_the_oracle():
    # with the hexagons of 1 + unit cleared, the words P[a, unit*a] are zero,
    # so M is false at every tuple that reads c[unit] = P[1, unit].
    # Only Z6, Z7 and Z8 give such rows that are hyperfields (fields).
    verdicts = []
    for lit in ["Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            free = np.setdiff1d(np.arange(width), kernels._hid3[0, unit.index])
            ns = np.zeros((1 << len(free), width), dtype=bool)
            ns[:, free] = ints_to_bits(np.arange(len(ns)), len(free))
            want = kernels.axiom_oracle(ns)
            assert (kernels.is_hyperfield(ns) == want).all(), (lit, unit.index)
            assert (kernels.is_field(ns) == want).all(), (lit, unit.index)
            verdicts.append(want)
    assert 0 < np.concatenate(verdicts).sum() < sum(map(len, verdicts))


def _block_from_the_definition(ns, kernels):
    """M_e[s, a, b, w] = any_t ns[s, hex(1, a, t)] & ns[s, hex(unit*b, w, t)]
    as bools, from a float product: [s, a, t] @ [s, t, (b, w)] counts the t
    with both hexagons selected."""
    n, hid3 = kernels.group.order, kernels._hid3
    first = ns[:, hid3[0]].astype(np.float32)
    second = ns[:, hid3[kernels._em]].reshape(len(ns), n * n, n).transpose(0, 2, 1)
    return (first @ second.astype(np.float32) > 0).reshape(len(ns), n, n, n)


def _rows_for_the_block(g):
    ns = _seeded_rows(g, 0, g.order)[:65]
    return np.concatenate([ns, sample_bits(g.order, 0, 65 - len(ns), build_table(g).size)])


@pytest.mark.parametrize("lit", ["Z1", "Z8", "Z9", "Z16", "Z17", "Z32", "Z33", "Z64"])
def test_blocks_bit_by_bit(lit):
    # the bit of row s in M_e[a, b, w], read off the walk's domain entry
    # domain_index[a, unit*b, w], is any_t ns[s, hex(1, a, t)] & ns[s,
    # hex(unit*b, w, t)] at every unit, and the padding bits past the last
    # row stay zero; 1, 63, 64 and 65 rows take one word, a full word and a
    # second word
    g = AbelianGroup.from_literal(lit)
    ns = _rows_for_the_block(g)
    for unit in g.units_of_order_le_2():
        kernels = kernels_for(g, unit.index)
        want = _block_from_the_definition(ns, kernels)
        index = build_table(g).domain_index[:, kernels._em]
        for rows in [1, 63, 64, 65]:
            covered = 0
            for k0, d in kernels._blocks(batch._packed(ns[:rows])):
                assert d.dtype == np.dtype("<u8") and k0 == covered
                bits = np.unpackbits(d.view(np.uint8), axis=1, bitorder="little")
                assert not bits[:, rows - 64 * k0:].any(), (lit, unit.index, rows, k0)
                got = bits[index, :rows - 64 * k0].transpose(3, 0, 1, 2).astype(bool)
                assert (got == want[64 * k0:rows]).all(), (lit, unit.index, rows, k0)
                covered += d.shape[1]
            assert covered == (rows + 63) // 64


def test_block_involutions():
    # M[a, b, w] = M_e[a, unit*b, w] is fixed by σ1: (a, b, w) -> (a, w, b)
    # and σ2: (a, b, w) -> (a^-1, b a^-1, w a^-1), on the block computed
    # from the definition at every unit of every group of order <= 16
    for g in abelian_groups_up_to(16):
        n, m, inv = g.order, g.mul_array, g.inv_array
        ns = _rows_for_the_block(g)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            block = _block_from_the_definition(ns, kernels)[:, :, kernels._em]
            assert (block == block.transpose(0, 1, 3, 2)).all(), (g.literal, unit.index)
            a = np.arange(n)[:, None, None]
            b, w = np.arange(n)[None, :, None], np.arange(n)[None, None, :]
            assert (block == block[:, inv[a], m[b, inv[a]], m[w, inv[a]]]).all(), \
                (g.literal, unit.index)
            assert 0 < block.sum() < block.size, (g.literal, unit.index)


@pytest.mark.parametrize("lit, name, dense", [
    ("Z17", "is_hyperfield", True),
    ("Z17", "satisfies_star", True),
    # the scalar checks visit every pair of selected pairs, or every
    # triple, of a dense row
    ("Z33", "is_hyperfield", False),
    ("Z33", "satisfies_star", True),
    ("Z64", "satisfies_star", False),
])
def test_wide_words_match_scalar(lit, name, dense):
    # the pinned digests stop at n = 16; these reach uint32 and uint64 words.
    # The axiom oracle, which shares no code with the kernels, judges every
    # Z17 row and the first two Z33 rows as well
    g = AbelianGroup.from_literal(lit)
    for unit in g.units_of_order_le_2():
        kernels = kernels_for(g, unit.index)
        ns = _seeded_rows(g, unit.index, 5, dense)
        got = kernels.event(name, ns)
        want = [SCALAR[name](Pasture(g, unit, int.from_bytes(
            np.packbits(row, bitorder="little").tobytes(), "little"))) for row in ns]
        assert got.tolist() == want, (lit, unit.index)
        assert 0 < sum(want) < len(want), (lit, unit.index)
        if name == "is_hyperfield":
            judged = ns if lit == "Z17" else ns[:2]
            assert kernels.axiom_oracle(judged).tolist() == want[:len(judged)], (lit, unit.index)


def test_star_decomposition_on_batch():
    for g in abelian_groups_up_to(4):
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            bits = all_bits(g)
            hyper = kernels.is_hyperfield(bits)
            star = kernels.satisfies_star(bits)
            both = kernels.is_4full(bits) & kernels.is_zero_over_zero(bits)
            assert (star[hyper] == both[hyper]).all(), (g.literal, unit.index)


def test_star_implies_hyperfield_on_every_unit():
    # star does not read the unit; condition B is star on the pairs
    # (x, unit*z) and (unit*y, w), and condition A follows from star
    for g in abelian_groups_up_to(8):
        width = build_table(g).size
        counts = set()
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            stars = 0
            for lo in range(0, 1 << width, 4096):
                bits = ints_to_bits(np.arange(lo, min(lo + 4096, 1 << width)), width)
                star = kernels.satisfies_star(bits)
                assert kernels.is_hyperfield(bits[star]).all(), (g.literal, unit.index, lo)
                stars += int(star.sum())
            counts.add(stars)
        assert len(counts) == 1, (g.literal, counts)


def test_4full_implies_hyperfield_on_every_unit():
    # 4-full leaves no false entry of the block off (unit, y, y), the
    # diagonal that condition B clears, so condition B cannot fail
    fours = exceptions = hyper_not_4full = 0
    for g in abelian_groups_up_to(8):
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            for lo in range(0, 1 << width, 4096):
                bits = ints_to_bits(np.arange(lo, min(lo + 4096, 1 << width)), width)
                four, hyper = kernels.is_4full(bits), kernels.is_hyperfield(bits)
                fours += int(four.sum())
                exceptions += int((four & ~hyper).sum())
                hyper_not_4full += int((hyper & ~four).sum())
    assert (fours, exceptions, hyper_not_4full) == (18426, 0, 3004)


def test_kernel_verdicts_past_oracle_pinned():
    # these orders are past the exhaustive pins, so the verdicts are pinned
    # instead, and the axiom oracle judges the first 32 rows of each unit
    digest = hashlib.sha256()
    for lit in ["Z10", "Z12", "Z13", "Z16"]:
        g = AbelianGroup.from_literal(lit)
        bits = sample_bits(7, 0, 256, build_table(g).size)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            assert (kernels.axiom_oracle(bits[:32]) == kernels.is_hyperfield(bits[:32])).all(), \
                (lit, unit.index)
            for name in ["is_hyperfield", "satisfies_star", "is_4full",
                         "is_zero_over_zero", "is_field", "all_eps_hexagons"]:
                digest.update(f"{lit}/{unit.index}/{name}".encode())
                digest.update(np.packbits(getattr(kernels, name)(bits)).tobytes())
    assert digest.hexdigest() == \
        "0e4cdbefcec025c9b17191eaffdbbca2348dab978d757a6b55c2274aeca3218f"


def test_hyperfield_and_field_verdicts_exhaustive_pinned():
    # every nullset of every unit of every group of order <= 8, and all 2^19
    # of Z9; packed per 4096-row chunk, which equals packing the whole run
    digest = hashlib.sha256()
    for g in [*abelian_groups_up_to(8), AbelianGroup.from_literal("Z9")]:
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            for name in ["is_hyperfield", "is_field"]:
                digest.update(f"{g.literal}/{unit.index}/{name}".encode())
                for lo in range(0, 1 << width, 4096):
                    bits = ints_to_bits(np.arange(lo, min(lo + 4096, 1 << width)), width)
                    digest.update(np.packbits(getattr(kernels, name)(bits)).tobytes())
    assert digest.hexdigest() == \
        "a1ba23c6143d310db8b0a5a4a38e37ea2261077cf384b481918f8e2f7447e3ac"


def test_star_and_4full_verdicts_exhaustive_pinned():
    # the rows of the pin above, through star and 4-full
    digest = hashlib.sha256()
    for g in [*abelian_groups_up_to(8), AbelianGroup.from_literal("Z9")]:
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            for name in ["satisfies_star", "is_4full"]:
                digest.update(f"{g.literal}/{unit.index}/{name}".encode())
                for lo in range(0, 1 << width, 4096):
                    bits = ints_to_bits(np.arange(lo, min(lo + 4096, 1 << width)), width)
                    digest.update(np.packbits(getattr(kernels, name)(bits)).tobytes())
    assert digest.hexdigest() == \
        "594944e85fef83a1d96d08195c72bf5a50a0a7b261a163d1c26b910b1302b12c"


def test_verdicts_exhaustive_pinned():
    # hyperfield, 4-full and star from one `verdicts` call per 4096-row
    # chunk, on every nullset at every unit of every group of order <= 8
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(8):
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            digest.update(f"{g.literal}/{unit.index}".encode())
            for lo in range(0, 1 << width, 4096):
                bits = ints_to_bits(np.arange(lo, min(lo + 4096, 1 << width)), width)
                for verdicts in kernels.verdicts(bits):
                    digest.update(np.packbits(verdicts).tobytes())
    assert digest.hexdigest() == \
        "89a683def2446ab00ad598c501155f0130a434c65e5cfd8b573ae2e87b721b75"


def test_kernels_accept_zero_rows():
    # census hands star the hyperfields of a chunk, which may be none
    for lit in ["Z1", "Z3", "Z8"]:
        g = AbelianGroup.from_literal(lit)
        kernels = kernels_for(g, 0)
        empty = np.zeros((0, build_table(g).size), dtype=bool)
        for name in ["is_hyperfield", "satisfies_star", "is_4full",
                     "is_zero_over_zero", "is_field", "all_eps_hexagons",
                     "has_nontrivial_automorphism", "axiom_oracle"]:
            got = getattr(kernels, name)(empty)
            assert got.shape == (0,) and got.dtype == bool, (lit, name)


def test_nontrivial_automorphism_matches_whole_rows():
    # rows made symmetric under one involution, some with one bit flipped
    # afterwards, so the first columns compared often agree on the way
    rng = np.random.default_rng(17)
    g = AbelianGroup.from_literal("Z2xZ32")
    width = build_table(g).size
    for unit in g.units_of_order_le_2():
        kernels = kernels_for(g, unit.index)
        perms = kernels.nontrivial_hex_perms
        involutions = perms[(np.take_along_axis(perms, perms, axis=1) == np.arange(width)).all(axis=1)]
        ns = rng.random((300, width)) < 0.5
        sym = ns | ns[np.arange(300)[:, None], involutions[rng.integers(len(involutions), size=300)]]
        flipped = sym.copy()
        flipped[np.arange(300), rng.integers(width, size=300)] ^= True
        rows = np.vstack([ns, sym, flipped, np.ones((1, width), dtype=bool)])
        want = (rows[:, None, :] == rows[:, perms]).all(axis=2).any(axis=1)
        assert want[300:600].all() and want[-1] and not want[:300].any()
        assert 0 < want[600:900].sum() < 300
        assert (kernels.has_nontrivial_automorphism(rows) == want).all(), unit


def _orbit_reference(rows, perms):
    """(canon, stab) from the definition: each row and its images row[perm]
    read as Python ints, bit h being hexagon h."""
    def value(row):
        return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")

    canon, stab = [], []
    for row in rows:
        v = value(row)
        images = [value(row[perm]) for perm in perms]
        canon.append(all(image >= v for image in images))
        stab.append(1 + images.count(v))
    return canon, stab


def _orbit_rows(kernels, rng, count):
    """Uniform rows, the same rows closed under one random nontrivial
    automorphism each, those with one bit flipped, and the empty and full rows."""
    width, perms = kernels.n_hex, kernels.nontrivial_hex_perms
    ns = rng.random((count, width)) < 0.5
    sym, idx = ns.copy(), perms[rng.integers(len(perms), size=count)]
    while True:
        image = sym[np.arange(count)[:, None], idx]
        if (image <= sym).all():
            break
        sym |= image
    flipped = sym.copy()
    flipped[np.arange(count), rng.integers(width, size=count)] ^= True
    return np.vstack([ns, sym, flipped, np.zeros((1, width), dtype=bool),
                      np.ones((1, width), dtype=bool)])


def test_orbit_scan_matches_the_definition():
    # every nullset of the small groups, then seeded rows past int64 (Z2xZ32
    # has 715 hexagons)
    seen = set()
    for g in abelian_groups_up_to(6):
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            rows = all_bits(g)
            canon, stab = kernels.orbit_scan(rows)
            want = _orbit_reference(rows, kernels.nontrivial_hex_perms)
            assert (canon.tolist(), stab.tolist()) == want, (g.literal, unit.index)
    rng = np.random.default_rng(29)
    for lit in ["Z13", "Z2xZ8", "Z2xZ32"]:
        g = AbelianGroup.from_literal(lit)
        for unit in g.units_of_order_le_2():
            kernels = kernels_for(g, unit.index)
            rows = _orbit_rows(kernels, rng, 100)
            canon, stab = kernels.orbit_scan(rows)
            want = _orbit_reference(rows, kernels.nontrivial_hex_perms)
            assert (canon.tolist(), stab.tolist()) == want, (lit, unit.index)
            seen |= set(zip(canon.tolist(), (stab > 1).tolist()))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_orbit_scan_one_permutation_per_block(monkeypatch):
    # 1,343 and 511 permutations; on Z8xZ8 the empty and full rows are left
    # out, as they would walk all 715 hexagons once per permutation
    rng = np.random.default_rng(31)
    cases = []
    for lit, unit, count, stop in [("Z2xZ2xZ2xZ2", 1, 30, None), ("Z8xZ8", 4, 8, -2)]:
        kernels = kernels_for(AbelianGroup.from_literal(lit), unit)
        rows = _orbit_rows(kernels, rng, count)[:stop]
        cases.append((kernels, rows, kernels.orbit_scan(rows)))
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 1)
    for kernels, rows, (canon, stab) in cases:
        got_canon, got_stab = kernels.orbit_scan(rows)
        assert (got_canon == canon).all() and (got_stab == stab).all(), \
            (kernels.group.literal, kernels.unit_index)


@pytest.mark.parametrize("lit, name, bound, rows", [
    pytest.param("Z33", name, 16 << 20, 256, id=name)
    for name in ["is_hyperfield", "satisfies_star", "is_4full"]
] + [
    pytest.param("Z64", "is_hyperfield", 24 << 20, 256, id="Z64-is_hyperfield"),
    # four (n, n) slab buffers of 2 MiB each, one w apiece
    pytest.param("Z64", "is_hyperfield", 24 << 20, 4096, id="Z64-is_hyperfield-4096"),
    # the orbit scan's (permutations, K) words, a block of them at a time
    pytest.param("Z2xZ2xZ2xZ2", "has_nontrivial_automorphism", 8 << 20, 4096,
                 id="Z2xZ2xZ2xZ2-has_nontrivial_automorphism-4096"),
    pytest.param("Z8xZ8", "has_nontrivial_automorphism", 8 << 20, 4096,
                 id="Z8xZ8-has_nontrivial_automorphism-4096"),
])
def test_kernel_peak_bytes_bounded(lit, name, bound, rows):
    # numpy reports its buffers to tracemalloc; one unsplit (n, n, n) block of
    # 256 rows at Z33 would take about 80 MiB
    g = AbelianGroup.from_literal(lit)
    kernel = getattr(kernels_for(g, 0), name)
    ns = sample_bits(1, 0, rows, build_table(g).size)
    kernel(ns[:1])  # the cached index tensors are not part of a call
    tracemalloc.start()
    try:
        kernel(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_verdicts_peak_bytes_within_row_bytes():
    # row_bytes bounds a warm call: 4096 Z64 rows walk their domain in word
    # groups of 16 * _BLOCK_ELEMENTS bytes
    kernels = kernels_for(AbelianGroup.from_literal("Z64"), 0)
    ns = sample_bits(2, 0, 4096, kernels.n_hex)
    want = kernels.verdicts(ns[:1])  # the cached index tensors are not part of a call
    tracemalloc.start()
    try:
        got = kernels.verdicts(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * kernels.row_bytes, peak
    assert [v[0] for v in got] == [v[0] for v in want]


@pytest.mark.parametrize("lit", ["Z3", "Z9", "Z33", "Z64"])
@pytest.mark.parametrize("rows", [1, 256, 4096])
@pytest.mark.parametrize("last_unit", [False, True])
def test_blocks_tile_the_block_within_the_budget(lit, rows, last_unit):
    # the word groups cover every word once, in order, each with the whole
    # domain within max(16 * _BLOCK_ELEMENTS, one word of it) bytes; the
    # walk does not read the unit, so every unit's block is the unit 0 block
    g = AbelianGroup.from_literal(lit)
    k = (rows + 63) // 64
    unit = g.units_of_order_le_2()[-1].index if last_unit else 0
    kernels = kernels_for(g, unit)
    table = build_table(g)
    entries = table.domain_first.shape[1] * table.domain_second.shape[1]
    x = np.random.default_rng(rows).integers(0, 1 << 64, size=(kernels.n_hex, k),
                                             dtype=np.uint64).astype("<u8")
    plain = kernels_for(g, 0)._blocks(x) if unit else itertools.repeat(None)
    covered = []
    for (k0, d), by_one in zip(kernels._blocks(x), plain):
        assert d.shape == (entries, d.shape[1]) and k0 == len(covered)
        assert d.nbytes <= max(16 * batch._BLOCK_ELEMENTS, entries * 8), (k0, d.shape)
        if unit:
            assert by_one[0] == k0 and (d == by_one[1]).all(), k0
        covered += range(k0, k0 + d.shape[1])
    assert covered == list(range(k))


@pytest.mark.parametrize("lit", ["Z2xZ4", "Z9"])
def test_rows_sharing_words_keep_their_verdicts(lit):
    # 64 rows share each word: a row's verdict in a 4097-row call equals its
    # verdict alone, where the other rows all get the opposite verdict, at
    # the first and last bit of a word, the first of the next, and the last
    # row of the last full word
    g = AbelianGroup.from_literal(lit)
    width = build_table(g).size
    drawn = np.concatenate([sample_bits(9, 0, 256, width) | sample_bits(9, 256, 512, width),
                            np.zeros((1, width), dtype=bool), np.ones((1, width), dtype=bool)])
    for unit in g.units_of_order_le_2():
        kernels = kernels_for(g, unit.index)
        for name in ["is_hyperfield", "satisfies_star", "is_4full"]:
            kernel = getattr(kernels, name)
            alone = np.array([kernel(row[None])[0] for row in drawn])
            yes, no = drawn[np.argmax(alone)], drawn[np.argmin(alone)]
            assert kernel(yes[None])[0] and not kernel(no[None])[0], (lit, unit.index, name)
            for pos in [0, 63, 64, 4095]:
                for row, rest in [(yes, no), (no, yes)]:
                    ns = np.repeat(rest[None], 4097, axis=0)
                    ns[pos] = row
                    want = np.repeat(kernel(rest[None]), 4097)
                    want[pos] = kernel(row[None])[0]
                    assert (kernel(ns) == want).all(), (lit, unit.index, name, pos)


def test_one_index_slabs_match_the_default(monkeypatch):
    # a one-byte budget walks one word and one pair (b, w) per block, and
    # gathers one pair of condition B at a time, so each of 4-full's and
    # star's entries, and each of B's pairs, sits in a block of its own.
    # Every nullset of Z8 and Z2xZ4 is used: on Z2xZ4 some rows fail
    # condition B at one w only.
    names = ["is_hyperfield", "satisfies_star", "is_4full"]
    cases = []
    for lit in ["Z8", "Z2xZ4", "Z9", "Z13"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        for unit in g.units_of_order_le_2():
            drawn = all_bits(g) if width <= 15 else sample_bits(3, 0, 2048, width)
            ns = np.concatenate([drawn, _seeded_rows(g, unit.index, 3)])
            kernels = kernels_for(g, unit.index)
            cases.append((kernels, ns, [getattr(kernels, name)(ns) for name in names]))
            assert 0 < cases[-1][2][0].sum() < len(ns), (lit, unit.index)
    monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 1)
    for kernels, ns, want in cases:
        for name, verdicts in zip(names, want):
            got = getattr(kernels, name)(ns)
            assert (got == verdicts).all(), (kernels.group.literal, kernels.unit_index, name)


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
                        want = (p.nullset >> p2h[m[a - 1][r]][m[b - 1][r]]) & 1
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


def test_oracle_exhaustive_verdicts_pinned():
    # every nullset at every unit through the batch oracle, and every nullset
    # of the non-abelian groups of order <= 8 at every central self-inverse
    # unit through the skew oracle; the order-8 groups would take seconds more
    digest = hashlib.sha256()
    for lit in ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7"]:
        g = AbelianGroup.from_literal(lit)
        for unit in g.units_of_order_le_2():
            verdicts = kernels_for(g, unit.index).axiom_oracle(all_bits(g))
            digest.update(f"{lit}/{unit.index}".encode())
            digest.update(np.packbits(verdicts).tobytes())
    for g in [symmetric_3(), dihedral(4), quaternion_8()]:
        size = skew_hexagons(g).size
        for unit in g.center:
            if g.table[unit][unit] == g.identity:
                verdicts = [skew_axiom_oracle(g, unit, bits) for bits in range(1 << size)]
                digest.update(f"{g.name}/{unit}".encode())
                digest.update(np.packbits(verdicts).tobytes())
    assert digest.hexdigest() == \
        "47c8b5324c6006b3c7dfe16848a6c1f9a8e57088840203be5313a86caf2b7876"


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


def test_oracle_cap(monkeypatch):
    # the oracle's cap is bytes, not an order: about 20 (n + 1)^3 a row, in
    # blocks of at most 64 rows within 4 * _BLOCK_ELEMENTS bytes, or one row
    # a block; a census probe's pooled rows go through in 64-row blocks up
    # to order 10, and Z64 takes one row a block
    blocks = []
    hold = batch._axioms_hold
    monkeypatch.setattr(batch, "_axioms_hold", lambda *args: blocks.append(len(args[3]))
                        or hold(*args))
    g = AbelianGroup.from_literal("Z64")
    kernels = kernels_for(g, 0)
    ns = sample_bits(1, 0, 64, build_table(g).size)
    kernels.axiom_oracle(ns[:1])  # the cached index tensors are not part of a call
    row = 20 * 65 ** 3
    for rows, bound in [(1, row), (64, 4 * batch._BLOCK_ELEMENTS + row)]:
        blocks.clear()
        tracemalloc.start()
        try:
            got = kernels.axiom_oracle(ns[:rows])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (rows, peak)
        assert blocks == [1] * rows
        assert (got == kernels.is_hyperfield(ns[:rows])).all()
    # Z12's budget: 4 * 2^19 // (20 * 13^3) = 47 rows
    for lit, rows, want in [("Z8", 200, [64, 64, 64, 8]), ("Z12", 100, [47, 47, 6])]:
        g = AbelianGroup.from_literal(lit)
        blocks.clear()
        kernels_for(g, 0).axiom_oracle(sample_bits(2, 0, rows, build_table(g).size))
        assert blocks == want, lit


def test_kernels_cached():
    g = AbelianGroup.from_literal("Z5")
    assert kernels_for(g, 0) is kernels_for(AbelianGroup.from_literal("Z5"), 0)
    assert isinstance(kernels_for(g, 0), Kernels)
