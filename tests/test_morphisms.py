import hashlib

import numpy as np

import hexafield
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table
from hexafield.morphisms import (are_isomorphic, canonical_form,
                                 hexagon_permutations, is_morphism,
                                 pasture_automorphisms)
from hexafield.pastures import (Pasture, _nullset_row, all_pastures, field_f3,
                                is_hyperfield_fast, krasner, sign_hyperfield)


def hex_bit(group, unit, u_res, v_res):
    table = build_table(group)
    return 1 << table.hex_of_pair(group.element(u_res).index,
                                  group.element(v_res).index)


def test_inversion_swaps_conjugate_nullsets():
    g = AbelianGroup.from_literal("Z3")
    p1 = Pasture(g, g.identity, hex_bit(g, g.identity, (0,), (1,)))
    p2 = Pasture(g, g.identity, hex_bit(g, g.identity, (0,), (2,)))
    assert p1.nullset != p2.nullset
    assert canonical_form(p1) == canonical_form(p2)
    assert are_isomorphic(p1, p2)


def test_canonical_form_fixed_points():
    k = krasner()
    assert canonical_form(k).bits == k.nullset
    g = AbelianGroup.from_literal("Z3")
    for p in all_pastures(g, g.identity):
        c = canonical_form(p)
        again = canonical_form(Pasture(g, g.identity, c.bits))
        assert again.bits == c.bits  # idempotent on representatives


def test_classification_matches_pairwise_iso():
    # grouping by canonical form must equal the brute-force partition
    for lit in ["Z2", "Z3"]:
        g = AbelianGroup.from_literal(lit)
        for unit in g.units_of_order_le_2():
            ps = list(all_pastures(g, unit))
            by_form = {}
            for p in ps:
                by_form.setdefault(canonical_form(p).bits, set()).add(p.nullset)
            for p in ps:
                for q in ps:
                    same_class = q.nullset in by_form[canonical_form(p).bits]
                    assert are_isomorphic(p, q) == same_class


def test_collapse_to_krasner_is_terminal():
    k = krasner()
    from hexafield.groups import abelian_groups_up_to
    for g in abelian_groups_up_to(5):
        for unit in g.units_of_order_le_2():
            for p in all_pastures(g, unit):
                if not is_hyperfield_fast(p):
                    continue
                collapse = tuple(0 for _ in range(g.order))
                assert is_morphism(collapse, p, k)


def test_morphisms_compose():
    f3 = field_f3()
    weak = Pasture(f3.group, f3.unit, 0b11)
    ident = (0, 1)
    assert is_morphism(ident, f3, weak)
    collapse = (0, 0)
    assert is_morphism(collapse, weak, krasner())
    composed = tuple(collapse[i] for i in ident)
    assert is_morphism(composed, f3, krasner())


def test_non_morphism_detected():
    f3 = field_f3()
    s = sign_hyperfield()
    # identity group map does not carry hex(1,1) into {hex(1,g)}
    assert not is_morphism((0, 1), f3, s)


def test_pasture_automorphisms_form_group():
    g = AbelianGroup.from_literal("Z3")
    for p in all_pastures(g, g.identity):
        autos = pasture_automorphisms(p)
        images = {f.images for f in autos}
        assert tuple(range(3)) in images
        for f in autos:
            assert f.inverse().images in images
            for h in autos:
                assert f.compose(h).images in images


def test_hexagon_permutations_are_a_bitset_action():
    for lit in ["Z5", "Z2xZ4"]:
        g = AbelianGroup.from_literal(lit)
        table = build_table(g)
        autos = g.automorphisms()
        perms = hexagon_permutations(table, [f.images for f in autos])
        inverses = hexagon_permutations(table, [f.inverse().images for f in autos])
        ids = np.arange(table.size)
        assert perms.shape == (len(autos), table.size)
        assert (np.sort(perms, axis=1) == ids).all()
        assert (np.take_along_axis(inverses, perms, axis=1) == ids).all()
        row = _nullset_row(0b1011001, table.size)[0]
        moved = row[perms]
        assert (moved.sum(axis=1) == row.sum()).all()
        assert (np.take_along_axis(moved, inverses, axis=1) == row).all()


def image_of(p, f):
    """f(p) on the unit f(unit), from f's images of each selected hexagon's pairs."""
    g, reps = p.group, build_table(p.group).reps
    return Pasture.from_pairs(g, f(p.unit), [
        (g.element_by_index(f.images[u]), g.element_by_index(f.images[v]))
        for u, v in (reps[h] for h in p.hex_ids())])


def test_pasture_automorphisms_match_is_morphism():
    rng = np.random.default_rng(11)
    for lit in ["Z2xZ2", "Z6", "Z8", "Z9", "Z2xZ4"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        autos = g.automorphisms()
        for unit in g.units_of_order_le_2():
            fixing = [f for f in autos if f(unit) == unit]
            for bits in rng.integers(0, 1 << width, size=30).tolist():
                p = Pasture(g, unit, bits)
                # closing p under one unit-fixing automorphism of order 2 gives
                # nontrivial stabilisers
                f = fixing[rng.integers(len(fixing))]
                if f.compose(f).is_identity:
                    p = Pasture(g, unit, bits | image_of(p, f).nullset)
                want = tuple(h for h in autos if is_morphism(h.images, p, p))
                assert pasture_automorphisms(p) == want, (lit, unit, p.nullset)


def test_are_isomorphic_across_units_matches_is_morphism():
    rng = np.random.default_rng(12)
    for lit in ["Z2xZ2", "Z2xZ4"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        autos = g.automorphisms()
        units = g.units_of_order_le_2()
        seen = set()
        for _ in range(60):
            p = Pasture(g, units[rng.integers(len(units))], int(rng.integers(1 << width)))
            f = autos[rng.integers(len(autos))]
            for q in (image_of(p, f), Pasture(g, f(p.unit), p.nullset),
                      Pasture(g, f(p.unit), int(rng.integers(1 << width)))):
                want = any(is_morphism(h.images, p, q) and is_morphism(h.inverse().images, q, p)
                           for h in autos)
                assert are_isomorphic(p, q) == want, (lit, p, q)
                seen.add((p.unit != q.unit, want))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_warm_caches_cover_isomorphism_queries():
    # as in a fresh benchmark process: once the hexagon tables and the group
    # automorphisms are built, these queries fill no lru_cache of hexafield
    caches = [obj for mod in vars(hexafield).values()
              if getattr(mod, "__name__", "").startswith("hexafield.") and hasattr(mod, "__file__")
              for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert caches
    for cache in caches:
        cache.cache_clear()
    groups = [AbelianGroup.from_literal(lit) for lit in ["Z9", "Z2xZ4"]]
    for g in groups:
        build_table(g)
        g.automorphisms()
    before = [cache.cache_info().misses for cache in caches]
    for g in groups:
        full = (1 << build_table(g).size) - 1
        ps = [Pasture(g, unit, bits) for unit in g.units_of_order_le_2()
              for bits in (0, 0b1011001, full)]
        for p in ps:
            canonical_form(p)
            pasture_automorphisms(p)
            for q in ps:
                are_isomorphic(p, q)
    assert [cache.cache_info().misses for cache in caches] == before


def test_canonical_forms_and_automorphisms_pinned():
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(6):
        for unit in g.units_of_order_le_2():
            for p in all_pastures(g, unit):
                autos = sorted(f.images for f in pasture_automorphisms(p))
                digest.update(f"{g.literal}/{unit.index}/{p.nullset}: "
                              f"{canonical_form(p).bits} {autos}\n".encode())
    assert digest.hexdigest() == \
        "53b20b2dcd86c03c30989c52609de2f3102411194ba07270e32db335fd3a9c3a"


def test_isomorphism_matrix_pinned():
    # every pair of pastures, on the same unit or on two different units
    digest = hashlib.sha256()
    for lit in ["Z1", "Z2", "Z3", "Z4", "Z5", "Z2xZ2"]:
        g = AbelianGroup.from_literal(lit)
        ps = [p for unit in g.units_of_order_le_2() for p in all_pastures(g, unit)]
        digest.update(lit.encode())
        digest.update(np.packbits([[are_isomorphic(p, q) for q in ps] for p in ps]).tobytes())
    assert digest.hexdigest() == \
        "2080359729a0576b1a8de9a557fddd6ebb11fdeceb01e68e46686cfb3f71b821"
