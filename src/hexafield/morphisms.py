"""Morphisms between pastures: unit-preserving multiplicative maps under
which every selected hexagon of the source lands in a selected hexagon of
the target.

Canonical forms minimize the nullset bitset over unit-preserving group
automorphisms, so two pastures on the same (group, unit) are isomorphic
exactly when their canonical forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AbelianGroup, GroupAutomorphism, _check_multiplicative
from .hexagons import HexagonTable
from .pastures import Pasture, _permute_mask


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
    return _permute_mask(nullset, hexagon_permutation(table, images))


def _images(pasture: Pasture, unit_to: int):
    """(f, f(nullset)) for every group automorphism f with f(unit) = unit_to."""
    table = pasture.hex_table
    for f in pasture.group.automorphisms():
        if f.images[pasture.unit_index] == unit_to:
            yield f, permute_nullset(table, f.images, pasture.nullset)


def pasture_automorphisms(pasture: Pasture) -> tuple[GroupAutomorphism, ...]:
    """Unit-preserving group automorphisms that fix the nullset."""
    return tuple(f for f, bits in _images(pasture, pasture.unit_index) if bits == pasture.nullset)


@dataclass(frozen=True)
class CanonicalForm:
    """Stable key for a pasture's isomorphism class on a fixed (group, unit)."""

    group: AbelianGroup
    unit_index: int
    bits: int


def canonical_form(pasture: Pasture) -> CanonicalForm:
    """Minimal nullset bitset over unit-preserving automorphisms."""
    best = min(bits for _, bits in _images(pasture, pasture.unit_index))
    return CanonicalForm(pasture.group, pasture.unit_index, best)


def are_isomorphic(p1: Pasture, p2: Pasture) -> bool:
    """Is there a bijective multiplicative map with equal nullsets?"""
    if p1.group != p2.group:
        return False
    return any(bits == p2.nullset for _, bits in _images(p1, p2.unit_index))
