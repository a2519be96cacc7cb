"""Pastures and their reconstructed multivalued addition.

A pasture is (group, unit, nullset): the unit is a square root of 1 playing
the role of -1, and the nullset is a set of hexagons, stored as a bitset
over hexagon indices.  Addition is reconstructed from the nullset:

    x + y  ==  { z : hexagon of the triple (x, y, unit*z) is in the nullset },
               together with 0 exactly when x = unit*y,

with x + 0 = {x}.  The fast hyperfield test checks two first-order
conditions over the nullset; the axiom oracle rebuilds the whole addition
as a membership tensor, "z lies in x + y" for every carrier triple, and
verifies every hyperfield axiom on it by brute force, at any order.  These
scalar tests and `satisfies_star` are references for the batch kernels; the
field, 0/0 and 4-full verdicts of one pasture are a kernel row
(`batch.pasture_verdicts`) and have no scalar copy.  One membership tensor
and one axiom check serve every group table, commutative or not, and any
number of nullset rows: `axiom_oracle` and `reconstruct_addition` pass one
row, `Kernels.axiom_oracle` a batch, and the skew oracle a Cayley table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

import numpy as np

from .errors import CapacityError
from .groups import AbelianGroup, GroupElement
from .hexagons import HexagonTable, build_table

ORACLE_ORDER_CAP = 9  # read only by perfbench's scalar verdict; goes with ROADMAP item 1
FETVINS_M_CAP = 2
FETVINS_CARRIER_CAP = 6


@dataclass(frozen=True)
class Pasture:
    """A group with a distinguished unit and a bitset of selected hexagons."""

    group: AbelianGroup
    unit: GroupElement
    nullset: int

    def __post_init__(self):
        if self.unit.group != self.group:
            raise ValueError("unit element belongs to a different group")
        if not (self.unit * self.unit).is_identity:
            raise ValueError("unit must square to the identity")
        if self.nullset < 0 or self.nullset >= (1 << self.hex_table.size):
            raise ValueError("nullset bitset out of range for this group's hexagon table")

    @property
    def hex_table(self) -> HexagonTable:
        return build_table(self.group)

    @cached_property
    def unit_index(self) -> int:
        return self.unit.index

    def hex_ids(self) -> tuple[int, ...]:
        return tuple(h for h in range(self.hex_table.size) if (self.nullset >> h) & 1)

    @cached_property
    def pair_selection(self) -> np.ndarray:
        """(n, n) read-only bool: is the hexagon of the pair (x, y) selected."""
        table = self.hex_table
        sel = _nullset_row(self.nullset, table.size)[0][table.pair_to_hex]
        sel.setflags(write=False)
        return sel

    @classmethod
    def from_pairs(cls, group: AbelianGroup, unit: GroupElement, pairs) -> "Pasture":
        """Build from any member pairs of the intended hexagons."""
        table = build_table(group)
        bits = 0
        for u, v in pairs:
            bits |= 1 << table.hex_of_pair(u.index, v.index)
        return cls(group, unit, bits)

    def __repr__(self):
        return (
            f"Pasture({self.group.literal}, unit={self.unit!r}, "
            f"hexagons={{{','.join(map(str, self.hex_ids()))}}})"
        )


# -- named tiny pastures ---------------------------------------------------

def field_f2() -> Pasture:
    """The two-element field: trivial group, empty nullset."""
    g = AbelianGroup(())
    return Pasture(g, g.identity, 0)


def krasner() -> Pasture:
    """The Krasner hyperfield: trivial group, full nullset (1 + 1 = {0, 1})."""
    g = AbelianGroup(())
    return Pasture(g, g.identity, 1)


def field_f3() -> Pasture:
    """The three-element field on Z2 with unit g: 1 + 1 = {-1}."""
    g = AbelianGroup.cyclic(2)
    return Pasture.from_pairs(g, g.element([1]), [(g.identity, g.identity)])


def sign_hyperfield() -> Pasture:
    """The hyperfield of signs on Z2 with unit g: 1 + 1 = {1}."""
    g = AbelianGroup.cyclic(2)
    return Pasture.from_pairs(g, g.element([1]), [(g.identity, g.element([1]))])


# -- reconstructed addition ------------------------------------------------

@dataclass(frozen=True)
class AdditionTable:
    """Total multivalued addition on the carrier {0} + group.

    Carrier index 0 is the zero element; carrier index i+1 is group element
    i.  masks[a][b] is the bitset (over carrier indices) of a + b.
    """

    group: AbelianGroup
    unit: GroupElement
    masks: tuple[tuple[int, ...], ...]

    @property
    def carrier_size(self) -> int:
        return self.group.order + 1

    def sum_set(self, a: int, b: int) -> frozenset[int]:
        m = self.masks[a][b]
        return frozenset(i for i in range(self.carrier_size) if (m >> i) & 1)

    def _label(self, i: int) -> str:
        if i == 0:
            return "0"
        e = self.group.element_by_index(i - 1)
        return "1" if e.is_identity else repr(e)

    def dump_text(self) -> str:
        """Text matrix of the addition table, for debugging."""
        names = [self._label(i) for i in range(self.carrier_size)]
        cells = [[""] + names]
        for a in range(self.carrier_size):
            row = [names[a]]
            for b in range(self.carrier_size):
                row.append("{" + ",".join(names[i] for i in sorted(self.sum_set(a, b))) + "}")
            cells.append(row)
        widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells
        )


# -- the nullset layout: bit h of the bitset is entry h of a bool row, and
# the pair (x, y) reads entry pair_to_hex[x, y] (`Pasture.pair_selection`)

def _nullset_row(nullset: int, size: int) -> np.ndarray:
    """(1, size) bool row of a nullset bitset of any width."""
    raw = np.frombuffer(nullset.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").astype(bool)[None]


def _row_nullset(row: np.ndarray) -> int:
    """The nullset bitset of a 1-D bool row: the inverse of `_nullset_row`."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _membership(table: np.ndarray, eps: int, triple_to_hex: np.ndarray,
                ns: np.ndarray) -> np.ndarray:
    """(S, N, N, N) bool, N = n + 1: B[s, x, y, z] is "z lies in x + y" for row s.

    The group table's rows need not commute.  z lies in x + y exactly when
    the hexagon of the triple (x, y, eps*z) is selected, and 0 exactly when
    x = eps*y; 0 + x = x + 0 = {x}.
    """
    n = len(table)
    neg = table[eps]
    b = np.zeros((len(ns), n + 1, n + 1, n + 1), dtype=bool)
    b[:, 1:, 1:, 1:] = ns[:, triple_to_hex[:, :, neg]]
    b[:, 1:, 1:, 0] = np.arange(n)[:, None] == neg
    carrier = np.arange(n + 1)
    b[:, 0, carrier, carrier] = b[:, carrier, 0, carrier] = True
    return b


def reconstruct_addition(pasture: Pasture) -> AdditionTable:
    """Rebuild the full carrier addition table from the nullset."""
    table = pasture.hex_table
    b = _membership(pasture.group.mul_array, pasture.unit_index, table.triple_to_hex,
                    _nullset_row(pasture.nullset, table.size))[0]
    packed = np.packbits(b, axis=2, bitorder="little")
    return AdditionTable(pasture.group, pasture.unit, tuple(
        tuple(int.from_bytes(cell.tobytes(), "little") for cell in row) for row in packed))


# -- hyperfield tests ------------------------------------------------------

def is_hyperfield_fast(pasture: Pasture) -> bool:
    """First-order test on the nullset, no addition table needed.

    (A) every x != unit heads some selected pair; (B) for every two distinct
    selected pairs (x, y), (z, w) some t makes the two cross pairs
    (tx, unit*tz) and (unit*ty, tw) selected.
    """
    g = pasture.group
    n = g.order
    m = g.mul_array
    eps = pasture.unit_index
    sel = pasture.pair_selection.tolist()
    for x in range(n):
        if x == eps:
            continue
        if not any(sel[x][y] for y in range(n)):
            return False
    selected_pairs = [(x, y) for x in range(n) for y in range(n) if sel[x][y]]
    for x, y in selected_pairs:
        for z, w in selected_pairs:
            if x == z and y == w:
                continue
            ok = False
            for t in range(n):
                tx = int(m[t, x])
                tz = int(m[eps, m[t, z]])
                if not sel[tx][tz]:
                    continue
                ty = int(m[eps, m[t, y]])
                tw = int(m[t, w])
                if sel[ty][tw]:
                    ok = True
                    break
            if not ok:
                return False
    return True


def _axioms_hold(table: np.ndarray, eps: int, triple_to_hex: np.ndarray,
                 ns: np.ndarray) -> np.ndarray:
    """(S,) bool: every hyperfield axiom, by brute force, per nullset row.

    Works over any group table; scaling is checked on both sides wherever
    left and right multiplication differ.  Each row holds its membership
    tensor and two float32 products of it: about 20 (n + 1)^3 bytes.
    """
    n = len(table)
    big = n + 1
    b = _membership(table, eps, triple_to_hex, ns)
    # nonempty and commutative sums, 0 in a + c exactly when a = -c
    ok = b.any(axis=3).all(axis=(1, 2))
    ok &= (b == b.swapaxes(1, 2)).all(axis=(1, 2, 3))
    neg = np.concatenate(([0], table[eps] + 1))
    ok &= (b[..., 0] == (np.arange(big)[:, None] == neg)).all(axis=(1, 2))
    # scaling by any group element, on either side, permutes the membership
    # tensor; its group part is gathered again, as gathers from a view run slower
    bits = ns[:, triple_to_hex[:, :, table[eps]]]
    for t in range(n):
        left, right = table[t], table[:, t]
        for perm in (left,) if (left == right).all() else (left, right):
            ok &= (bits == bits[:, perm][:, :, perm][:, :, :, perm]).all(axis=(1, 2, 3))
    # associativity with the first summand pinned to 1, which is exact: left
    # scaling, checked above, gives (g + h) + k = g((1 + g^-1 h) + g^-1 k) and
    # g + (h + k) = g(1 + (g^-1 h + g^-1 k)), and g = 0 holds since 0 + x = {x}.
    # (1 + h) + k is the union of i + k over i in 1 + h, and 1 + (h + k) that
    # of 1 + j over j in h + k: one product each
    one = 1 + int(table[eps, eps])
    f = b.astype(np.float32)
    lhs = f[:, one] @ f.reshape(len(f), big, big * big)
    rhs = f.reshape(len(f), big * big, big) @ f[:, one]
    ok &= ((lhs > 0).reshape(rhs.shape) == (rhs > 0)).all(axis=(1, 2))
    return ok


def axiom_oracle(pasture: Pasture) -> bool:
    """Brute-force verdict: rebuild addition and check every axiom directly."""
    table = pasture.hex_table
    return bool(_axioms_hold(pasture.group.mul_array, pasture.unit_index, table.triple_to_hex,
                             _nullset_row(pasture.nullset, table.size))[0])


def satisfies_star(pasture: Pasture) -> bool:
    """For all x, y, z, w some t has (tx, ty) and (tz, tw) both selected.

    Quantification is reduced by translation: for all (a, b, c) in G^3 some
    u has (u, ua) and (ub, uc) selected.
    """
    g = pasture.group
    n = g.order
    m = g.mul_array
    sel = pasture.pair_selection.tolist()
    # mask over u of "pair (u, ua) selected", per a
    head = [sum(1 << u for u in range(n) if sel[u][int(m[u, a])]) for a in range(n)]
    for bq in range(n):
        for cq in range(n):
            tail = 0
            for u in range(n):
                if sel[int(m[u, bq])][int(m[u, cq])]:
                    tail |= 1 << u
            if tail == 0:
                return False
            for a in range(n):
                if not head[a] & tail:
                    return False
    return True


def all_pastures(group: AbelianGroup, unit: GroupElement):
    """Every pasture on (group, unit), in nullset order."""
    size = build_table(group).size
    for bits in range(1 << size):
        yield Pasture(group, unit, bits)


# -- linear systems --------------------------------------------------------

def _carrier_product(table: AdditionTable, a: int, x: int) -> int:
    if a == 0 or x == 0:
        return 0
    return int(table.group.mul_array[a - 1, x - 1]) + 1


def _row_sum_mask(table: AdditionTable, row, xs) -> int:
    terms = [_carrier_product(table, a, x) for a, x in zip(row, xs)]
    acc = 1 << terms[0]
    b = table.masks
    for t in terms[1:]:
        nxt = 0
        rest = acc
        while rest:
            low = rest & -rest
            nxt |= b[low.bit_length() - 1][t]
            rest ^= low
        acc = nxt
    return acc


def _check_fetvins_size(table: AdditionTable, m: int) -> None:
    if m < 1:
        raise ValueError(f"a linear system needs at least one equation, got m = {m}")
    if m > FETVINS_M_CAP:
        raise CapacityError(f"linear system solving capped at m = {FETVINS_M_CAP}, got m = {m}")
    if table.carrier_size > FETVINS_CARRIER_CAP:
        raise CapacityError(f"linear system solving capped at carrier size "
                            f"{FETVINS_CARRIER_CAP}, got {table.carrier_size}")


def fetvins_exhaustive(table: AdditionTable, m: int) -> bool:
    """Do all m-equation systems over this carrier have nonzero solutions?

    A system is m homogeneous equations in m+1 unknowns, each row a tuple
    of carrier indices as coefficients.
    """
    _check_fetvins_size(table, m)
    big = table.carrier_size
    vectors = [xs for xs in itertools.product(range(big), repeat=m + 1) if any(xs)]
    # solutions-of-row bitmask over the vector list, then systems are
    # intersections of row masks
    rows = []
    for row in itertools.product(range(big), repeat=m + 1):
        acc = 0
        for k, xs in enumerate(vectors):
            if _row_sum_mask(table, row, xs) & 1:
                acc |= 1 << k
        rows.append(acc)
    return all(reduce(and_, system)
               for system in itertools.combinations_with_replacement(rows, m))
