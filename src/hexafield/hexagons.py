"""Hexagons: orbits of fundamental pairs under the six-element symmetry.

A fundamental pair (u, v) stands for the triple (u, v, 1) up to diagonal
translation.  Permuting the triple's three coordinates and renormalizing
yields at most six images of (u, v):

    (u, v), (v, u), (u v^-1, v^-1), (v^-1, u v^-1), (v u^-1, u^-1), (u^-1, v u^-1)

On a non-commutative group the orbits are closed under simultaneous
conjugation as well; a commutative group has no inner automorphism but the
identity, so there the orbits are the hexagons, of size 1..6.  Every table
indexes its orbits by their lexicographically least member pair, in
ascending order of that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError
from .groups import AbelianGroup

if TYPE_CHECKING:
    from .skew import CayleyGroup

TABLE_ORDER_CAP = 64


def pair_images(group, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """The six images of the pair with element indices (u, v); may repeat.

    `group` is any group with `mul_array` and `inv_array`.
    """
    m = group.mul_array
    i = group.inv_array
    iu, iv = int(i[u]), int(i[v])
    uv = int(m[u, iv])  # u / v
    vu = int(m[v, iu])  # v / u
    return ((u, v), (v, u), (uv, iv), (iv, uv), (vu, iu), (iu, vu))


def _count_formula(n: int, third_roots: int) -> tuple[int, int]:
    """(n^2 + 3n + 2 #G[3]) divmod 6 for a commutative group of order n."""
    return divmod(n * n + 3 * n + 2 * third_roots, 6)


def hexagon_count_formula(group: AbelianGroup) -> int:
    """#hexagons = (n^2 + 3n + 2 #G[3]) / 6, without building the table."""
    count, rem = _count_formula(group.order, group.torsion_count(3))
    if rem:
        raise AssertionError(f"hexagon count formula is not integral for {group.literal}")
    return count


@dataclass(frozen=True)
class HexagonTable:
    """Complete hexagon (or skew orbit) index for one group."""

    group: AbelianGroup | CayleyGroup
    reps: tuple[tuple[int, int], ...]
    members: tuple[tuple[tuple[int, int], ...], ...]
    pair_to_hex: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.reps)

    def hex_of_pair(self, u: int, v: int) -> int:
        return int(self.pair_to_hex[u, v])

    @cached_property
    def triple_to_hex(self) -> np.ndarray:
        """(n, n, n) read-only: hexagon id of the triple (x, y, z), which is
        the orbit of the pair (x z^-1, y z^-1)."""
        a = self.group.mul_array[:, self.group.inv_array]  # a[x, z] = x z^-1
        t2h = self.pair_to_hex[a[:, None, :], a[None, :, :]]
        t2h.setflags(write=False)
        return t2h

    # -- one fundamental domain of the kernels' block ----------------------
    #
    # M[a, b, w] = OR_t x[hex(1, a, t)] & x[hex(b, w, t)] on a commutative
    # group is fixed by two involutions: σ1, M[a, b, w] = M[a, w, b], since a
    # hexagon is fixed under permuting its triple; and σ2, M[a, b, w] =
    # M[a^-1, b a^-1, w a^-1], since hex(1, a, t) = hex(a, 1, t) and scaling
    # both triples by a^-1 only moves t.  The domain takes a over one member
    # of each {a, a^-1} (the lower index) and (b, w) over the pairs b <= w;
    # its entries are numbered a-major, (b, w) in `np.triu_indices` order.

    @cached_property
    def _domain_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.group.inv_array)
        b, w = np.triu_indices(n)
        return np.flatnonzero(np.arange(n) <= self.group.inv_array), b, w

    @cached_property
    def domain_first(self) -> np.ndarray:
        """(n, |A|) [t, a]: hexagon of (1, a, t) for each a of the domain."""
        a, _, _ = self._domain_axes
        return np.ascontiguousarray(self.triple_to_hex[0][a].T)

    @cached_property
    def domain_second(self) -> np.ndarray:
        """(n, |P|) [t, p]: hexagon of (b, w, t) for the p-th pair b <= w."""
        _, b, w = self._domain_axes
        return np.ascontiguousarray(self.triple_to_hex[b, w].T)

    @cached_property
    def domain_index(self) -> np.ndarray:
        """(n, n, n): the domain entry holding M[a, b, w]."""
        a_axis, b_axis, w_axis = self._domain_axes
        m, inv = self.group.mul_array, self.group.inv_array
        n = len(inv)
        row = np.full(n, -1)
        row[a_axis] = np.arange(len(a_axis))
        pair = np.empty((n, n), dtype=np.int64)
        pair[b_axis, w_axis] = pair[w_axis, b_axis] = np.arange(len(b_axis))
        # σ2 takes an a off the domain to a^-1, which is on it
        a = np.where(row < 0, inv, np.arange(n))[:, None, None]
        scale = np.where(row < 0, inv, 0)[:, None, None]
        b, w = m[np.arange(n)[None, :, None], scale], m[np.arange(n)[None, None, :], scale]
        index = row[a] * len(b_axis) + pair[b, w]
        index.setflags(write=False)
        return index

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(ms) for ms in self.members)

    def __hash__(self):
        return hash((self.group, self.reps))


def orbit_table(group) -> HexagonTable:
    """Orbit table of any group with `mul_array` and `inv_array`, uncached.

    The six maps permute the coordinates of a triple and conjugation
    commutes with them, so the orbit of (u, v) is every conjugate of its
    six images: one step closes it.
    """
    m = group.mul_array.tolist()
    inv = group.inv_array.tolist()
    n = len(inv)
    identity = tuple(range(n))
    # the distinct non-identity inner automorphisms x -> c x c^-1
    conjugations = {tuple(m[m[c][x]][inv[c]] for x in range(n)) for c in range(n)}
    conjugations.discard(identity)
    pair_to_hex = [[-1] * n for _ in range(n)]
    reps: list[tuple[int, int]] = []
    members: list[tuple[tuple[int, int], ...]] = []
    for u in range(n):
        for v in range(n):
            if pair_to_hex[u][v] >= 0:
                continue
            # sweeping pairs in ascending order, the first pair seen in an
            # orbit is its lexicographic minimum
            images = set(pair_images(group, u, v))
            images.update([(c[a], c[b]) for c in conjugations for a, b in images])
            hid = len(reps)
            reps.append((u, v))
            members.append(tuple(sorted(images)))
            for a, b in images:
                pair_to_hex[a][b] = hid
    if not conjugations:
        # commutative: the count must be (n^2 + 3n + 2 #G[3]) / 6
        one = m[0][inv[0]]
        third_roots = sum(1 for x in range(n) if m[m[x][x]][x] == one)
        expected, rem = _count_formula(n, third_roots)
        if rem or len(reps) != expected:
            raise AssertionError(
                f"{len(reps)} hexagons on a commutative group of order {n} "
                "disagree with the counting formula")
    table = np.array(pair_to_hex, dtype=np.int64)
    table.setflags(write=False)
    return HexagonTable(group, tuple(reps), tuple(members), table)


_build = lru_cache(maxsize=None)(orbit_table)


def build_table(group: AbelianGroup) -> HexagonTable:
    """Build (and cache) the full hexagon table for a group of order <= TABLE_ORDER_CAP."""
    if group.order > TABLE_ORDER_CAP:
        raise CapacityError(
            f"hexagon table capped at group order {TABLE_ORDER_CAP}, "
            f"{group.literal} has order {group.order}"
        )
    return _build(group)
