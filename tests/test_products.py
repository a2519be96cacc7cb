import hashlib

import oracles
import pytest

from hexafield.errors import CapacityError
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.morphisms import are_isomorphic
from hexafield.pastures import (Pasture, all_pastures, field_f2, field_f3,
                                is_hyperfield_fast, krasner, sign_hyperfield)
from hexafield.products import product, product_group, product_theorem_verdict
from hexafield.serialize import dumps_pasture


def lit(name):
    return AbelianGroup.from_literal(name)


def test_product_group_invariant_factors():
    g, _ = product_group(lit("Z2"), lit("Z3"))
    assert g.literal == "Z6"
    g, _ = product_group(lit("Z2xZ4"), lit("Z6"))
    assert g.literal == "Z2xZ2xZ12"
    g, _ = product_group(lit("Z1"), lit("Z5"))
    assert g.literal == "Z5"
    g, _ = product_group(lit("Z4"), lit("Z4"))
    assert g.literal == "Z4xZ4"


def test_product_group_embedding_is_multiplicative():
    g1, g2 = lit("Z4"), lit("Z6")
    g, embed = product_group(g1, g2)
    assert sorted(int(embed[i, j]) for i in range(4) for j in range(6)) == \
        list(range(24))
    for a1 in range(4):
        for a2 in range(6):
            for b1 in range(4):
                for b2 in range(6):
                    lhs = int(g.mul_array[embed[a1, a2], embed[b1, b2]])
                    rhs = int(embed[g1.mul_array[a1, b1], g2.mul_array[a2, b2]])
                    assert lhs == rhs


def test_named_products():
    assert product(field_f2(), field_f2()) == field_f2()
    for p in [field_f3(), sign_hyperfield(), krasner(), field_f2()]:
        assert are_isomorphic(product(p, krasner()), p)
        assert are_isomorphic(product(krasner(), p), p)
    assert not is_hyperfield_fast(product(field_f3(), field_f3()))
    assert is_hyperfield_fast(product(sign_hyperfield(), sign_hyperfield()))


def hyperfields_up_to_3():
    out = []
    for g in abelian_groups_up_to(3):
        for unit in g.units_of_order_le_2():
            out.extend(p for p in all_pastures(g, unit) if is_hyperfield_fast(p))
    return out


def test_verdict_matches_reality():
    hfs = hyperfields_up_to_3()
    assert len(hfs) == 16
    for h1 in hfs:
        for h2 in hfs:
            got = product_theorem_verdict(h1, h2)
            actual = is_hyperfield_fast(product(h1, h2))
            assert got == actual, (h1, h2)
            if oracles.is_zero_over_zero(h1) and oracles.is_zero_over_zero(h2):
                assert oracles.is_zero_over_zero(product(h1, h2))


def test_products_pinned():
    # every ordered pair of pastures of order <= 3
    pastures = [p for g in abelian_groups_up_to(3) for unit in g.units_of_order_le_2()
                for p in all_pastures(g, unit)]
    assert len(pastures) == 26
    digest = hashlib.sha256()
    for a in pastures:
        for b in pastures:
            digest.update(dumps_pasture(product(a, b)).encode())
    assert digest.hexdigest() == \
        "5b2efcb037ecf0d7b8045016918b3bce52b603005dcdb33dff482dc4cf0bebdd"


def test_verdict_rejects_non_hyperfields():
    z2 = lit("Z2")
    not_hf = Pasture(z2, z2.element_by_index(0), 0)
    assert not is_hyperfield_fast(not_hf)
    with pytest.raises(ValueError):
        product_theorem_verdict(not_hf, krasner())


def test_product_capacity():
    z9, z8 = lit("Z9"), lit("Z8")
    p1 = Pasture(z9, z9.element_by_index(0), 0)
    p2 = Pasture(z8, z8.element_by_index(4), 0)
    with pytest.raises(CapacityError):
        product(p1, p2)
