"""Direct products of pastures and the product hyperfield criterion."""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .batch import pasture_verdicts
from .errors import CapacityError
from .galois import _prime_factors
from .groups import AbelianGroup
from .hexagons import TABLE_ORDER_CAP, build_table
from .morphisms import is_morphism
from .pastures import Pasture, _row_nullset


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    # m1, m2 coprime
    inv = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


@lru_cache(maxsize=None)
def product_group(g1: AbelianGroup, g2: AbelianGroup):
    """The direct product in invariant-factor form, with the index embedding.

    Returns (group, embed) where embed[i1, i2] is the product-group index of
    the pair.  Each original cyclic factor splits into prime-power pieces;
    the j-th largest power of each prime lands in the j-th largest invariant
    factor, and residues recombine by CRT.
    """
    slots = list(g1.invariant_factors) + list(g2.invariant_factors)
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for slot, m in enumerate(slots):
        for p in _prime_factors(m):
            pw = p
            while m % (pw * p) == 0:
                pw *= p
            per_prime.setdefault(p, []).append((pw, slot))
    rank = max((len(v) for v in per_prime.values()), default=0)
    for v in per_prime.values():
        v.sort(reverse=True)
    # position 0 collects the largest prime powers; reverse for the ascending chain
    assignments: list[list[tuple[int, int]]] = [[] for _ in range(rank)]
    for v in per_prime.values():
        for j, piece in enumerate(v):
            assignments[j].append(piece)
    factors = tuple(
        prod(pw for pw, _ in assignments[j]) for j in reversed(range(rank)))
    group = AbelianGroup(factors)

    n1, n2 = g1.order, g2.order
    res1 = g1.residue_matrix
    res2 = g2.residue_matrix
    embed = np.empty((n1, n2), dtype=np.int64)
    for i1 in range(n1):
        for i2 in range(n2):
            concat = tuple(int(r) for r in res1[i1]) + tuple(int(r) for r in res2[i2])
            out = []
            for j in reversed(range(rank)):
                r, m = 0, 1
                for pw, slot in assignments[j]:
                    r = _crt_pair(r, m, concat[slot] % pw, pw)
                    m *= pw
                out.append(r)
            embed[i1, i2] = group.index_of(tuple(out))

    m1a, m2a, mp = g1.mul_array, g2.mul_array, group.mul_array
    lhs = embed[m1a[:, None, :, None], m2a[None, :, None, :]]
    rhs = mp[embed[:, :, None, None], embed[None, None, :, :]]
    if not (lhs == rhs).all():
        raise AssertionError("embedding must be multiplicative")
    embed.setflags(write=False)
    return group, embed


def product(p1: Pasture, p2: Pasture) -> Pasture:
    """Pasture on the product group whose relations pair up factor relations.

    The pair ((u1, u2), (v1, v2)) is selected exactly when (u1, v1) is
    selected in p1 and (u2, v2) in p2; its hexagon joins the nullset.
    """
    if p1.group.order * p2.group.order > TABLE_ORDER_CAP:
        raise CapacityError(
            f"product order {p1.group.order * p2.group.order} exceeds cap {TABLE_ORDER_CAP}")
    group, embed = product_group(p1.group, p2.group)
    table = build_table(group)
    both = p1.pair_selection[:, None, :, None] & p2.pair_selection[None, :, None, :]
    row = np.zeros(table.size, dtype=bool)
    row[table.pair_to_hex[embed[:, :, None, None], embed[None, None]][both]] = True
    unit = group.element_by_index(int(embed[p1.unit_index, p2.unit_index]))
    result = Pasture(group, unit, _row_nullset(row))
    # projections must be pasture morphisms
    proj1, proj2 = np.empty((2, group.order), dtype=np.int64)
    proj1[embed], proj2[embed] = np.indices(embed.shape)
    if not (is_morphism(proj1, result, p1) and is_morphism(proj2, result, p2)):
        raise AssertionError("projections must be pasture morphisms")
    return result


def _is_krasner_like(p: Pasture) -> bool:
    return p.group.order == 1 and p.nullset == 1


def _is_f2_like(p: Pasture) -> bool:
    return p.group.order == 1 and p.nullset == 0


def product_theorem_verdict(h1: Pasture, h2: Pasture) -> bool:
    """Is the product of two hyperfields again a hyperfield?

    True exactly when both are 0/0, or either collapses to the one-element
    group with everything null, or both are that group with nothing null.
    """
    verdicts = [pasture_verdicts(h) for h in (h1, h2)]
    if not all(v["is_hyperfield"] for v in verdicts):
        raise ValueError("verdict applies to hyperfields only")
    if all(v["is_00"] for v in verdicts):
        return True
    if _is_krasner_like(h1) or _is_krasner_like(h2):
        return True
    return _is_f2_like(h1) and _is_f2_like(h2)
