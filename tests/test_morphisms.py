from hexafield.groups import AbelianGroup
from hexafield.hexagons import build_table
from hexafield.morphisms import (are_isomorphic, canonical_form, is_morphism,
                                 pasture_automorphisms, permute_nullset)
from hexafield.pastures import (Pasture, all_pastures, field_f3,
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


def test_permute_nullset_is_bitset_action():
    g = AbelianGroup.from_literal("Z5")
    table = build_table(g)
    p = Pasture(g, g.identity, 0b1011001)
    for f in g.automorphisms():
        moved = permute_nullset(table, f.images, p.nullset)
        assert bin(moved).count("1") == bin(p.nullset).count("1")
        back = permute_nullset(table, f.inverse().images, moved)
        assert back == p.nullset

