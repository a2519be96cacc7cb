"""Morphisms between pastures: unit-preserving multiplicative maps under
which every selected hexagon of the source lands in a selected hexagon of
the target.

Isomorphism demands equal nullsets; a bijective morphism only demands
containment, and the two genuinely differ.  Canonical forms minimize the
nullset bitset over unit-preserving group automorphisms, so two pastures
on the same (group, unit) are isomorphic exactly when their canonical
forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    AUTOMORPHISM_ORDER_CAP,
    AbelianGroup,
    GroupAutomorphism,
    automorphisms_fixing,
)
from .hexagons import HexagonTable, build_table
from .pastures import Pasture


def _check_multiplicative(images, src: AbelianGroup, dst: AbelianGroup) -> None:
    if len(images) != src.order:
        raise ValueError("candidate map must list an image for every source element")
    ms, md = src.mul_array, dst.mul_array
    for a in range(src.order):
        for b in range(a, src.order):
            if images[int(ms[a, b])] != int(md[images[a], images[b]]):
                raise ValueError("candidate map is not multiplicative")


def is_morphism(images, src: Pasture, dst: Pasture) -> bool:
    """Is the image table a pasture morphism src -> dst?

    Raises if the table is not a multiplicative group map; returns False
    when the unit or a selected hexagon is not respected.
    """
    images = tuple(int(i) for i in images)
    _check_multiplicative(images, src.group, dst.group)
    if images[src.unit_index] != dst.unit_index:
        return False
    st, dt = src.hex_table, dst.hex_table
    for h in src.hex_ids():
        u, v = st.reps[h]
        if not dst.has_hex(dt.hex_of_pair(images[u], images[v])):
            return False
    return True


def hexagon_permutation(table: HexagonTable, images) -> tuple[int, ...]:
    """How a multiplicative bijection permutes hexagon indices."""
    return tuple(
        table.hex_of_pair(images[u], images[v]) for u, v in table.reps
    )


def permute_nullset(table: HexagonTable, images, nullset: int) -> int:
    out = 0
    for h, target in enumerate(hexagon_permutation(table, images)):
        if (nullset >> h) & 1:
            out |= 1 << target
    return out


def pasture_automorphisms(pasture: Pasture,
                          cap: int = AUTOMORPHISM_ORDER_CAP) -> tuple[GroupAutomorphism, ...]:
    """Unit-preserving group automorphisms that fix the nullset."""
    table = pasture.hex_table
    out = []
    for f in automorphisms_fixing(pasture.group, pasture.unit_index, cap):
        if permute_nullset(table, f.images, pasture.nullset) == pasture.nullset:
            out.append(f)
    return tuple(out)


@dataclass(frozen=True)
class CanonicalForm:
    """Stable key for a pasture's isomorphism class on a fixed (group, unit)."""

    group: AbelianGroup
    unit_index: int
    bits: int


def canonical_form(pasture: Pasture, cap: int = AUTOMORPHISM_ORDER_CAP) -> CanonicalForm:
    """Minimal nullset bitset over unit-preserving automorphisms."""
    table = pasture.hex_table
    best = min(
        permute_nullset(table, f.images, pasture.nullset)
        for f in automorphisms_fixing(pasture.group, pasture.unit_index, cap)
    )
    return CanonicalForm(pasture.group, pasture.unit_index, best)


def are_isomorphic(p1: Pasture, p2: Pasture, cap: int = AUTOMORPHISM_ORDER_CAP) -> bool:
    """Is there a bijective multiplicative map with equal nullsets?"""
    if p1.group != p2.group:
        return False
    table = p1.hex_table
    for f in p1.group.automorphisms(cap):
        if f.images[p1.unit_index] != p2.unit_index:
            continue
        if permute_nullset(table, f.images, p1.nullset) == p2.nullset:
            return True
    return False


def exists_bijective_morphism(p1: Pasture, p2: Pasture,
                              cap: int = AUTOMORPHISM_ORDER_CAP) -> bool:
    """Is there a bijective morphism p1 -> p2 (containment, not equality)?"""
    if p1.group.order != p2.group.order:
        raise ValueError("bijective morphisms need groups of equal order")
    if p1.group != p2.group:
        # equal order but different invariant factors: not isomorphic as groups
        return False
    table = p1.hex_table
    for f in p1.group.automorphisms(cap):
        if f.images[p1.unit_index] != p2.unit_index:
            continue
        mapped = permute_nullset(table, f.images, p1.nullset)
        if mapped & ~p2.nullset == 0:
            return True
    return False

