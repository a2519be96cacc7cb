"""Hexagon orbits over arbitrary finite groups and the skew axiom oracle.

Orbits of G x G live under the six triple-permutation maps together with
simultaneous conjugation.  Nothing here assumes commutativity or orbit size
6.  The skew oracle rebuilds the addition and checks the axioms with the same
table builder and checker as `pastures.axiom_oracle`, which work over any
group table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import CapacityError
from .groups import AbelianGroup
from .pastures import _addition_masks, _check_axioms

CAYLEY_ORDER_CAP = 24
SKEW_ORACLE_CAP = 8


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
    def mul(self) -> np.ndarray:
        return np.array(self.table, dtype=np.int64)

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


def from_abelian(group: AbelianGroup, name: str | None = None) -> CayleyGroup:
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


@dataclass(frozen=True)
class SkewHexagonTable:
    group: CayleyGroup
    orbits: tuple[tuple[tuple[int, int], ...], ...]
    pair_to_orbit: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.orbits)

    def orbit_of_pair(self, u: int, v: int) -> int:
        return int(self.pair_to_orbit[u, v])

    def orbit_of_triple(self, x: int, y: int, z: int) -> int:
        g = self.group
        iz = g.inverse[z]
        return int(self.pair_to_orbit[g.table[x][iz], g.table[y][iz]])

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def _pair_images(g: CayleyGroup, u: int, v: int) -> list[tuple[int, int]]:
    t, iv = g.table, g.inverse
    return [
        (u, v),
        (v, u),
        (t[u][iv[v]], iv[v]),
        (iv[u], t[v][iv[u]]),
        (t[v][iv[u]], iv[u]),
        (iv[v], t[u][iv[v]]),
    ]


def skew_hexagons(g: CayleyGroup, cap: int = CAYLEY_ORDER_CAP) -> SkewHexagonTable:
    n = g.order
    if n > cap:
        raise CapacityError(f"orbit enumeration is capped at order {cap}, got {n}")
    assigned = np.full((n, n), -1, dtype=np.int64)
    orbits = []
    for u0 in range(n):
        for v0 in range(n):
            if assigned[u0, v0] >= 0:
                continue
            oid = len(orbits)
            stack = [(u0, v0)]
            assigned[u0, v0] = oid
            members = []
            while stack:
                u, v = stack.pop()
                members.append((u, v))
                nbrs = _pair_images(g, u, v)
                nbrs += [(g.conjugate(c, u), g.conjugate(c, v)) for c in range(n)]
                for uu, vv in nbrs:
                    if assigned[uu, vv] < 0:
                        assigned[uu, vv] = oid
                        stack.append((uu, vv))
            orbits.append(tuple(sorted(members)))
    assigned.setflags(write=False)
    table = SkewHexagonTable(g, tuple(orbits), assigned)
    if g.is_abelian:
        third_roots = sum(1 for x in range(n) if g.table[g.table[x][x]][x] == g.identity)
        expected, rem = divmod(n * n + 3 * n + 2 * third_roots, 6)
        if rem or table.size != expected:
            raise AssertionError(f"orbit count for {g.name} disagrees with the counting formula")
    return table


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
        for which in range(6):
            for u in range(n):
                for v in range(n):
                    if _pair_images(g, conj[u], conj[v])[which] == (u, v):
                        total += 1
    count, rem = divmod(total, 6 * n)
    if rem:
        raise AssertionError("fixed-point total must divide evenly")
    return count


def skew_axiom_oracle(g: CayleyGroup, eps: int, nullset: int,
                      cap: int = SKEW_ORACLE_CAP) -> bool:
    """Reconstruct the skew addition and check the axioms directly.

    z lands in x + y exactly when the orbit of (x, y, eps z) is selected, with
    the usual zero rules.  The checker is the one `pastures.axiom_oracle`
    uses: nonemptiness, commutativity of the sums, the zero rules,
    associativity, and distributivity on both sides.
    """
    n = g.order
    if n > cap:
        raise CapacityError(f"skew oracle is capped at order {cap}, got {n}")
    if eps not in g.center or g.table[eps][eps] != g.identity:
        raise ValueError("the unit must be a central self-inverse element")
    table = skew_hexagons(g)
    if not 0 <= nullset < 1 << table.size:
        raise ValueError("nullset bits outside the orbit range")
    masks = _addition_masks(
        g.table, eps, lambda x, y, z: (nullset >> table.orbit_of_triple(x, y, z)) & 1)
    return _check_axioms(g.table, eps, masks)
