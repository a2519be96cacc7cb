"""Cayley-table groups, their hexagon orbits and the skew axiom oracle.

Orbits of G x G live under the six triple-permutation maps together with
simultaneous conjugation; `hexagons.orbit_table` builds them over any group
table, so nothing here assumes commutativity or orbit size 6.  The skew
oracle is a thin call into the one axiom check of `pastures`, which reads
any group table and has no order cap: `skew_hexagons` bounds the skew oracle
by CAYLEY_ORDER_CAP, and the hexagon table the abelian one by TABLE_ORDER_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import CapacityError
from .groups import AbelianGroup
from .hexagons import HexagonTable, orbit_table, pair_images
from .pastures import _axioms_hold, _nullset_row

CAYLEY_ORDER_CAP = 24


@dataclass(frozen=True)
class CayleyGroup:
    name: str
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        seen = {frozenset(row) for row in self.table}
        if seen != {frozenset(range(n))}:
            raise ValueError("rows must be permutations of the elements")
        t = self.table
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        raise ValueError("table is not associative")
        self.identity, self.inverse  # noqa: B018  (forces the consistency checks)

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def mul_array(self) -> np.ndarray:
        return np.array(self.table, dtype=np.int64)

    @cached_property
    def inv_array(self) -> np.ndarray:
        return np.array(self.inverse, dtype=np.int64)

    @cached_property
    def identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise ValueError("table has no identity element")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        e = self.identity
        inv = []
        for x in range(self.order):
            ys = [y for y in range(self.order)
                  if self.table[x][y] == e and self.table[y][x] == e]
            if len(ys) != 1:
                raise ValueError(f"element {x} lacks a two-sided inverse")
            inv.append(ys[0])
        return tuple(inv)

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.order)
                     if all(self.table[x][y] == self.table[y][x]
                            for y in range(self.order)))

    @property
    def is_abelian(self) -> bool:
        return len(self.center) == self.order

    def conjugate(self, g: int, x: int) -> int:
        return self.table[self.table[g][x]][self.inverse[g]]

    @cached_property
    def _hexagons(self) -> HexagonTable:
        _check_order(self.order)
        return orbit_table(self)


def _check_order(order: int) -> None:
    if order > CAYLEY_ORDER_CAP:
        raise CapacityError(
            f"orbit enumeration is capped at order {CAYLEY_ORDER_CAP}, got {order}")


def from_abelian(group: AbelianGroup, name: str | None = None) -> CayleyGroup:
    # the cap comes before the table, whose associativity check costs n^3
    _check_order(group.order)
    rows = tuple(tuple(int(v) for v in row) for row in group.mul_array)
    return CayleyGroup(name or group.literal, rows)


def _from_elements(name, elems, compose):
    index = {e: i for i, e in enumerate(elems)}
    rows = tuple(tuple(index[compose(a, b)] for b in elems) for a in elems)
    return CayleyGroup(name, rows)


def symmetric_3() -> CayleyGroup:
    elems = sorted(permutations(range(3)))
    return _from_elements("S3", elems, lambda a, b: tuple(a[b[i]] for i in range(3)))


def alternating_4() -> CayleyGroup:
    def parity(p):
        inv = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        return inv % 2
    elems = sorted(p for p in permutations(range(4)) if parity(p) == 0)
    return _from_elements("A4", elems, lambda a, b: tuple(a[b[i]] for i in range(4)))


def dihedral(rotations: int) -> CayleyGroup:
    # elements r^a s^b with s r = r^-1 s
    elems = [(a, b) for b in range(2) for a in range(rotations)]

    def compose(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % rotations, b1 ^ b2)

    return _from_elements(f"D{rotations}", elems, compose)


def quaternion_8() -> CayleyGroup:
    # (sign, axis): axis 0 is the scalar 1, axes 1..3 are i, j, k
    elems = [(s, a) for a in range(4) for s in (1, -1)]
    cyclic = {(1, 2): 1, (2, 3): 1, (3, 1): 1, (2, 1): -1, (3, 2): -1, (1, 3): -1}

    def compose(x, y):
        s1, a1 = x
        s2, a2 = y
        if a1 == 0:
            return (s1 * s2, a2)
        if a2 == 0:
            return (s1 * s2, a1)
        if a1 == a2:
            return (-s1 * s2, 0)
        return (s1 * s2 * cyclic[(a1, a2)], 6 - a1 - a2)

    return _from_elements("Q8", elems, compose)


BUILTIN_GROUPS = {
    "S3": symmetric_3,
    "D4": lambda: dihedral(4),
    "Q8": quaternion_8,
    "D6": lambda: dihedral(6),
    "A4": alternating_4,
}


def skew_hexagons(g: CayleyGroup) -> HexagonTable:
    """Orbits of G x G under the six maps and conjugation, built once per
    group after the order cap is checked."""
    return g._hexagons


def skew_bound(g: CayleyGroup) -> int:
    """Orbit-count bound 5n^2/8 + 5n over 6, for non-commutative groups."""
    if g.is_abelian:
        raise ValueError("the 5/8 bound needs a non-commutative group")
    n = g.order
    return (5 * n * n + 40 * n) // 48


def burnside_orbit_count(g: CayleyGroup) -> int:
    """Average fixed-pair count over the six maps times the conjugators."""
    n = g.order
    total = 0
    for c in range(n):
        conj = [g.conjugate(c, x) for x in range(n)]
        for u in range(n):
            for v in range(n):
                total += pair_images(g, conj[u], conj[v]).count((u, v))
    count, rem = divmod(total, 6 * n)
    if rem:
        raise AssertionError("fixed-point total must divide evenly")
    return count


def skew_axiom_oracle(g: CayleyGroup, eps: int, nullset: int) -> bool:
    """Reconstruct the skew addition and check the axioms directly.

    z lands in x + y exactly when the orbit of (x, y, eps z) is selected, with
    the usual zero rules.  The check is the one every axiom oracle uses:
    nonemptiness, commutativity of the sums, the zero rules, associativity,
    and distributivity on both sides.
    """
    if eps not in g.center or g.table[eps][eps] != g.identity:
        raise ValueError("the unit must be a central self-inverse element")
    table = skew_hexagons(g)
    if not 0 <= nullset < 1 << table.size:
        raise ValueError("nullset bits outside the orbit range")
    return bool(_axioms_hold(g.mul_array, eps, table.triple_to_hex,
                             _nullset_row(nullset, table.size))[0])
