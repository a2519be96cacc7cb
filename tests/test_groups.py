import hashlib
import time

import numpy as np
import pytest

from hexafield.errors import CapacityError
from hexafield.groups import (AUTOMORPHISM_WORK_CAP, AbelianGroup,
                              GroupAutomorphism, _automorphisms,
                              _check_multiplicative, abelian_groups_up_to,
                              automorphisms_fixing)

LITERALS = ["Z1", "Z2", "Z3", "Z6", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ9", "Z12"]


def test_literal_round_trip():
    for lit in LITERALS:
        g = AbelianGroup.from_literal(lit)
        assert g.literal == lit
        assert AbelianGroup.from_literal(g.literal) == g


def test_bad_literals_rejected():
    for bad in ["", "Q8", "Z0", "Zx", "Z2x", "2", "Z-3"]:
        with pytest.raises(ValueError):
            AbelianGroup.from_literal(bad)


def test_orders_and_ranks():
    g = AbelianGroup.from_literal("Z2xZ4")
    assert g.order == 8 and g.rank == 2
    assert AbelianGroup.from_literal("Z1").order == 1
    assert AbelianGroup.from_literal("Z1").rank == 0


def test_element_arithmetic():
    g = AbelianGroup.from_literal("Z2xZ4")
    a = g.element((1, 3))
    b = g.element((1, 2))
    assert (a * b).residues == (0, 1)
    assert (a * a.inverse()).is_identity
    assert g.element((1, 5)).residues == (1, 1)  # residues reduce mod factors
    assert g.element_order(a.index) == 4


def test_index_bijection():
    for lit in LITERALS:
        g = AbelianGroup.from_literal(lit)
        seen = [e.index for e in g.elements()]
        assert seen == list(range(g.order))
        for i in range(g.order):
            assert g.element_by_index(i).index == i


def test_mul_array_matches_elementwise():
    g = AbelianGroup.from_literal("Z3xZ9")
    m = g.mul_array
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, g.order, size=2)
        prod = g.element_by_index(int(i)) * g.element_by_index(int(j))
        assert m[i, j] == prod.index
    assert (m[np.arange(g.order), g.inv_array] == 0).all()


def test_torsion_counts():
    g = AbelianGroup.from_literal("Z6")
    assert g.torsion_count(2) == 2
    assert g.torsion_count(3) == 3
    g = AbelianGroup.from_literal("Z2xZ4")
    assert g.torsion_count(2) == 4
    assert [u.index for u in g.units_of_order_le_2()] == sorted(
        i for i in range(8) if g.inv_array[i] == i)


def test_automorphism_counts():
    # |Aut| for knowns: cyclic is Euler phi, Z2xZ2 is GL(2,2)
    for lit, count in [("Z1", 1), ("Z2", 1), ("Z3", 2), ("Z8", 4),
                       ("Z2xZ2", 6), ("Z15", 8), ("Z2xZ4", 8)]:
        g = AbelianGroup.from_literal(lit)
        autos = g.automorphisms()
        assert len(autos) == count, lit
        images = {a.images for a in autos}
        assert len(images) == count
        for a in autos:
            assert a.compose(a.inverse()).is_identity
            assert a.images[0] == 0


def test_automorphisms_form_group():
    g = AbelianGroup.from_literal("Z2xZ4")
    autos = g.automorphisms()
    table = {a.images for a in autos}
    for a in autos:
        for b in autos:
            assert a.compose(b).images in table


def test_automorphisms_fixing_unit():
    g = AbelianGroup.from_literal("Z8")
    fixing = automorphisms_fixing(g, g.element((4,)).index)
    # every automorphism of Z8 fixes the unique order-2 element
    assert len(fixing) == 4
    g2 = AbelianGroup.from_literal("Z2xZ2")
    sub = automorphisms_fixing(g2, g2.element((0, 1)).index)
    assert len(sub) == 2
    unit = g2.element((0, 1)).index
    assert (sub[:, unit] == unit).all()


def _prime_exponents(d):
    """{p: e} with d = prod p^e."""
    out, p = {}, 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


def aut_order(group):
    """|Aut(G)| in closed form (Hillar and Rhea, "Automorphisms of finite
    abelian groups", Amer. Math. Monthly 114, 2007), one prime at a time."""
    total = 1
    per_prime = {}
    for d in group.invariant_factors:
        for p, e in _prime_exponents(d).items():
            per_prime.setdefault(p, []).append(e)
    for p, es in per_prime.items():
        es.sort()
        k = len(es)
        for j, e in enumerate(es, 1):
            last = max(i for i in range(1, k + 1) if es[i - 1] == e)
            first = min(i for i in range(1, k + 1) if es[i - 1] == e)
            total *= (p ** last - p ** (j - 1)) * p ** (e * (k - last)) * p ** ((e - 1) * (k - first + 1))
    return total


def test_automorphism_rows_pinned():
    # every image row, in order, of every abelian group of order <= 16
    digest = hashlib.sha256()
    for g in abelian_groups_up_to(16):
        rows = np.array([f.images for f in g.automorphisms()], dtype=np.int64)
        assert len(rows) == aut_order(g), g
        digest.update(f"{g.literal} {rows.shape}\n".encode())
        digest.update(rows.tobytes())
    assert digest.hexdigest() == \
        "ecb3bad3c81872f6228627129bd0398c7cb1b8d97a034c3d8142bb2851b87d54"


def test_automorphism_counts_past_order_16():
    for lit, count in [("Z17", 16), ("Z32", 16), ("Z64", 32), ("Z2xZ32", 64),
                       ("Z4xZ8", 128), ("Z2xZ2xZ8", 384), ("Z8xZ8", 1536),
                       ("Z2xZ2xZ2xZ4", 21504)]:
        g = AbelianGroup.from_literal(lit)
        autos = _automorphisms(g)
        assert len(autos) == count == aut_order(g), lit
        assert len(np.unique(autos, axis=0)) == count
        assert (np.sort(autos, axis=1) == np.arange(g.order)).all()


def test_automorphism_array_is_read_only():
    autos = _automorphisms(AbelianGroup.from_literal("Z5"))
    with pytest.raises(ValueError):
        autos[0, 0] = 1


def test_automorphism_cap_is_on_enumeration_work():
    # Z2^5 would try 31^5 generator tuples on 32 elements
    g = AbelianGroup.from_literal("Z2xZ2xZ2xZ2xZ2")
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        g.automorphisms()
    assert time.perf_counter() - start < 1.0
    assert 31 ** 5 * 32 > AUTOMORPHISM_WORK_CAP


def test_multiplicativity_needs_every_generator():
    # on Z2xZ4, (x, y) -> (x, h(y)) respects the generator (1, 0) but not
    # (0, 1), and (x, y) -> (x, x + y) respects (0, 1) but not (1, 0)
    g = AbelianGroup.from_literal("Z2xZ4")
    h = (0, 2, 1, 3)
    for images in ([g.element((x, h[y])).index for x in range(2) for y in range(4)],
                   [g.element((x, x + y)).index for x in range(2) for y in range(4)]):
        assert sorted(images) == list(range(8))
        with pytest.raises(ValueError):
            GroupAutomorphism(g, tuple(images))
    trivial = AbelianGroup.from_literal("Z1")
    with pytest.raises(ValueError):
        _check_multiplicative((1,), trivial, AbelianGroup.from_literal("Z2"))


def test_abelian_groups_up_to_16():
    groups = abelian_groups_up_to(16)
    per_order = {}
    for g in groups:
        per_order[g.order] = per_order.get(g.order, 0) + 1
    # one entry per partition of each prime exponent
    assert per_order == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3,
                         9: 2, 10: 1, 11: 1, 12: 2, 13: 1, 14: 1, 15: 1, 16: 5}
    assert len(groups) == 25
    assert len({g.literal for g in groups}) == 25


def test_identity_automorphism():
    g = AbelianGroup.from_literal("Z6")
    ident = GroupAutomorphism(g, tuple(range(6)))
    assert ident.is_identity
    assert ident.images == tuple(range(6))
    assert g.automorphisms()[0] == ident
