import hashlib

import numpy as np
import oracles
import pytest

from hexafield.errors import CapacityError
from hexafield.galois import (DECIDER_ORDER_CAP, FIELD_SIZE_CAP, QuotientSpec,
                              QuotientVerdict, build_field,
                              factor_prime_power, is_quotient_of_finite_field,
                              one_minus_one_is_everything, quotient_hyperfield)
from hexafield.groups import AbelianGroup
from hexafield.pastures import (Pasture, axiom_oracle, field_f3, krasner,
                                sign_hyperfield)
from hexafield.serialize import dumps_pasture

Z2 = AbelianGroup.from_literal("Z2")
WEAK_SIGN = Pasture(Z2, Z2.element_by_index(1), 0b11)


def test_factor_prime_power():
    assert factor_prime_power(1) is None
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1024) == (2, 10)
    assert factor_prime_power(97) == (97, 1)


def test_build_field_moduli():
    assert build_field(2, 1).modulus == (0, 1)
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(2, 3).modulus == (1, 1, 0, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)


def test_generators_are_least_primitive():
    for p, k, gen in [(2, 1, 1), (5, 1, 2), (7, 1, 3), (3, 2, 4), (2, 2, 2)]:
        f = build_field(p, k)
        assert f.generator == gen
        assert f.element_order(gen) == f.q - 1
        for a in range(1, gen):
            assert f.element_order(a) < f.q - 1


def test_exp_log_round_trip():
    for p, k in [(7, 1), (3, 2), (2, 4), (101, 1), (4099, 1), (2, 16)]:
        f = build_field(p, k)
        assert sorted(f.exp_table.tolist()) == list(range(1, f.q))
        log = np.full(f.q, -1, dtype=np.int64)
        log[f.exp_table] = np.arange(f.q - 1)
        for a in range(1, f.q):
            assert int(f.exp_table[log[a]]) == a


def test_field_tables_pinned():
    # every field the decider can build: q - 1 <= 9^4
    digest = hashlib.sha256()
    for q in range(2, 9 ** 4 + 2):
        pk = factor_prime_power(q)
        if pk is None:
            continue
        f = build_field(*pk)
        digest.update(repr((f.p, f.k, f.modulus, f.generator)).encode())
        digest.update(f.exp_table.astype("<i8").tobytes())
    assert digest.hexdigest() == \
        "a5118a88a0a31db49649d905f7e054b2576cf4e7c364eea144ea36d2a418d0e3"


def test_field_arithmetic_consistency():
    f = build_field(3, 2)
    log = np.full(f.q, -1, dtype=np.int64)
    log[f.exp_table] = np.arange(f.q - 1)
    for a in range(f.q):
        assert int(f.add(a, f.neg(a))) == 0
        for b in range(1, f.q):
            # multiplication agrees with log arithmetic
            if a:
                la, lb = int(log[a]), int(log[b])
                assert f.mul(a, b) == int(f.exp_table[(la + lb) % (f.q - 1)])


def test_build_field_validation():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(25, 1)
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(CapacityError):
        build_field(2, 20)  # 2^20 > FIELD_SIZE_CAP
    assert FIELD_SIZE_CAP == 10 ** 6


def test_quotient_spec_validation():
    f5 = build_field(5, 1)
    with pytest.raises(ValueError):
        QuotientSpec(f5, 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        QuotientSpec(f5, 0)


def test_known_quotients():
    assert quotient_hyperfield(QuotientSpec(build_field(2, 2), 1)) == krasner()
    assert quotient_hyperfield(QuotientSpec(build_field(3, 1), 2)) == field_f3()
    f4_itself = quotient_hyperfield(QuotientSpec(build_field(2, 2), 3))
    assert f4_itself.group.literal == "Z3"
    assert oracles.is_field(f4_itself)
    q5 = quotient_hyperfield(QuotientSpec(build_field(5, 1), 2))
    assert (q5.group.literal, q5.unit.index, q5.nullset) == ("Z2", 0, 2)
    assert quotient_hyperfield(QuotientSpec(build_field(7, 1), 2)) == WEAK_SIGN


def test_quotients_pinned():
    # every prime power q <= 1000 and every n <= 16 dividing q - 1
    digest = hashlib.sha256()
    count = 0
    for q in range(2, 1001):
        pk = factor_prime_power(q)
        if pk is None:
            continue
        f = build_field(*pk)
        for n in range(1, 17):
            if (q - 1) % n == 0:
                digest.update(dumps_pasture(quotient_hyperfield(QuotientSpec(f, n))).encode())
                count += 1
    assert count == 1025
    assert digest.hexdigest() == \
        "d1bea4b40a420c6b4cf26ad46d7ab8b70ef3aa33a9501307400e30c157531db7"


def test_quotient_unit_tracks_sign_of_minus_one():
    # -1 is a square exactly when q = 1 mod 4, so the unit lands on the
    # identity class for F5, F13 and on the other class for F7, F11
    for q, idx in [(5, 0), (13, 0), (7, 1), (11, 1)]:
        p = quotient_hyperfield(QuotientSpec(build_field(q, 1), 2))
        assert p.unit.index == idx


def test_quotients_satisfy_axioms():
    qs = [q for q in range(2, 32) if factor_prime_power(q)]
    for q in qs:
        f = build_field(*factor_prime_power(q))
        for n in range(1, 7):
            if (q - 1) % n:
                continue
            assert axiom_oracle(quotient_hyperfield(QuotientSpec(f, n))), (q, n)


def test_decider_known_answers():
    v = is_quotient_of_finite_field(field_f3())
    assert v.status == "quotient"
    assert (v.witness.field.q, v.witness.index) == (3, 2)

    v = is_quotient_of_finite_field(krasner())
    assert (v.status, v.witness.field.q, v.witness.index) == ("quotient", 3, 1)

    v = is_quotient_of_finite_field(WEAK_SIGN)
    assert (v.status, v.witness.field.q, v.witness.index) == ("quotient", 7, 2)

    v = is_quotient_of_finite_field(sign_hyperfield())
    assert v.status == "inconclusive_full_sum"
    assert v.witness is None
    assert is_quotient_of_finite_field(sign_hyperfield(),
                                       extended_bound=100).status == \
        "inconclusive_full_sum"


def test_decider_recognizes_own_quotients():
    for q in [3, 4, 5, 7, 8, 9, 11, 13]:
        f = build_field(*factor_prime_power(q))
        for n in [1, 2, 3, 4]:
            if (q - 1) % n:
                continue
            pasture = quotient_hyperfield(QuotientSpec(f, n))
            v = is_quotient_of_finite_field(pasture)
            assert v.status == "quotient", (q, n)
            found = quotient_hyperfield(v.witness)
            # smallest q wins, and the witness really is isomorphic
            assert v.witness.field.q <= q
            assert axiom_oracle(found)


def test_not_quotient_needs_failed_full_sum_or_noncyclic():
    g22 = AbelianGroup.from_literal("Z2xZ2")
    p = Pasture(g22, g22.element_by_index(0), 0)
    v = is_quotient_of_finite_field(p)
    assert v.status == "not_quotient"  # quotients of a cyclic group stay cyclic

    empty = Pasture(Z2, Z2.element_by_index(1), 0)
    v = is_quotient_of_finite_field(empty)
    assert v.status == "not_quotient"
    assert not one_minus_one_is_everything(empty)


def test_full_sums_forced_for_large_fields():
    # once q - 1 exceeds n^4 every quotient has 1 + (-1) covering the group
    for q, n in [(19, 2), (23, 2), (27, 2), (97, 3), (101, 2)]:
        f = build_field(*factor_prime_power(q))
        assert (q - 1) % n == 0 and q - 1 > n ** 4
        qu = quotient_hyperfield(QuotientSpec(f, n))
        assert one_minus_one_is_everything(qu), (q, n)


def test_decider_capacity():
    g = AbelianGroup.from_literal("Z10")
    assert g.order > DECIDER_ORDER_CAP
    with pytest.raises(CapacityError):
        is_quotient_of_finite_field(Pasture(g, g.element_by_index(0), 0))


def test_verdict_shape():
    with pytest.raises(ValueError):
        QuotientVerdict("quotient", None)
    with pytest.raises(ValueError):
        QuotientVerdict("not_quotient", QuotientSpec(build_field(3, 1), 2))
