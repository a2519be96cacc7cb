"""Morphisms between pastures: unit-preserving multiplicative maps under
which every selected hexagon of the source lands in a selected hexagon of
the target.

Canonical forms minimize the nullset bitset over unit-preserving group
automorphisms, so two pastures on the same (group, unit) are isomorphic
exactly when their canonical forms coincide.  Canonical forms, pasture
automorphisms, isomorphism and the batch kernels' symmetry event all read
one (automorphisms x hexagons) matrix, `hexagon_permutations`, gathered
from the group's cached automorphism image array and the hexagon table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (AbelianGroup, GroupAutomorphism, _automorphisms,
                     _check_multiplicative, automorphisms_fixing)
from .hexagons import HexagonTable
from .pastures import Pasture, _nullset_row, _row_nullset


def is_morphism(images, src: Pasture, dst: Pasture) -> bool:
    """Is the image table a pasture morphism src -> dst?

    Raises if the table is not a multiplicative group map; returns False
    when the unit or a selected hexagon is not respected.
    """
    images = tuple(int(i) for i in images)
    _check_multiplicative(images, src.group, dst.group)
    if images[src.unit_index] != dst.unit_index:
        return False
    # a multiplicative map sends every member of a hexagon into one hexagon
    return bool(dst.pair_selection[np.ix_(images, images)][src.pair_selection].all())


def hexagon_permutations(table: HexagonTable, images) -> np.ndarray:
    """(k, hexagons) int64 from a (k, n) array of automorphism image tables:
    row i sends each hexagon to its image under automorphism f_i.

    Gathering a nullset row through row i, row[perms[i]], gives the
    preimage f_i^-1(N), not the image f_i(N).
    """
    images = np.asarray(images, dtype=np.int64).reshape(-1, table.group.order)
    ru, rv = np.array(table.reps, dtype=np.int64).T
    return table.pair_to_hex[images[:, ru], images[:, rv]]


def _preimages(pasture: Pasture, images: np.ndarray) -> np.ndarray:
    """(k, hexagons) bool: row i is f_i^-1(nullset) for the image table images[i]."""
    table = pasture.hex_table
    return _nullset_row(pasture.nullset, table.size)[0][hexagon_permutations(table, images)]


def pasture_automorphisms(pasture: Pasture) -> tuple[GroupAutomorphism, ...]:
    """Unit-preserving group automorphisms that fix the nullset."""
    autos = automorphisms_fixing(pasture.group, pasture.unit_index)
    row = _nullset_row(pasture.nullset, pasture.hex_table.size)
    fixed = autos[(_preimages(pasture, autos) == row).all(axis=1)]
    return tuple(GroupAutomorphism(pasture.group, tuple(f)) for f in fixed.tolist())


@dataclass(frozen=True)
class CanonicalForm:
    """Stable key for a pasture's isomorphism class on a fixed (group, unit)."""

    group: AbelianGroup
    unit_index: int
    bits: int


def canonical_form(pasture: Pasture) -> CanonicalForm:
    """Minimal nullset bitset over unit-preserving automorphisms."""
    autos = automorphisms_fixing(pasture.group, pasture.unit_index)
    # f and f^-1 both fix the unit, so the preimages are the images
    rows = _preimages(pasture, autos)
    packed = np.packbits(rows, axis=1, bitorder="little")
    # lexsort's last key is its primary one, and the last byte is the most significant
    best = _row_nullset(rows[np.lexsort(packed.T)[0]])
    return CanonicalForm(pasture.group, pasture.unit_index, best)


def are_isomorphic(p1: Pasture, p2: Pasture) -> bool:
    """Is there a bijective multiplicative map with equal nullsets?"""
    if p1.group != p2.group:
        return False
    # f(unit1) = unit2 and f(N1) = N2 exactly when g = f^-1 has g(unit2) = unit1
    # and the preimage g^-1(N1) is N2
    autos = _automorphisms(p1.group)
    autos = autos[autos[:, p2.unit_index] == p1.unit_index]
    target = _nullset_row(p2.nullset, p2.hex_table.size)
    return bool((_preimages(p1, autos) == target).all(axis=1).any())
