"""Pastures and their reconstructed multivalued addition.

A pasture is (group, unit, nullset): the unit is a square root of 1 playing
the role of -1, and the nullset is a set of hexagons, stored as a bitset
over hexagon indices.  Addition is reconstructed from the nullset:

    x + y  ==  { z : hexagon of the triple (x, y, unit*z) is in the nullset },
               together with 0 exactly when x = unit*y,

with x + 0 = {x}.  The fast hyperfield test checks two first-order
conditions over the nullset; the axiom oracle rebuilds the whole addition
table and verifies every hyperfield axiom by brute force.  The table builder
and the axiom checker work over any group table, commutative or not, so the
skew oracle runs through them too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError
from .groups import AbelianGroup, GroupElement
from .hexagons import HexagonTable, build_table

ORACLE_ORDER_CAP = 9
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

    def has_hex(self, hid: int) -> bool:
        return bool((self.nullset >> hid) & 1)

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

    # -- index-level views used by every predicate below -------------------

    @cached_property
    def _in_nullset(self) -> tuple[tuple[bool, ...], ...]:
        """(n, n) bool: is the hexagon of pair (x, y) selected."""
        t = self.hex_table
        ns = self.nullset
        n = self.group.order
        p2h = t.pair_to_hex
        return tuple(
            tuple(bool((ns >> int(p2h[x, y])) & 1) for y in range(n)) for x in range(n)
        )

    @cached_property
    def one_plus_minus_one(self) -> tuple[int, ...]:
        """The nonzero elements of 1 + (-1), as element indices: each z whose
        triple (1, unit, unit*z) is selected."""
        eps = self.unit_index
        # the identity has the all-zero residue vector, hence index 0
        hexes = self.hex_table.triple_to_hex[0, eps, self.group.mul_array[eps]]
        return tuple(z for z, h in enumerate(hexes.tolist()) if self.has_hex(h))


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

    @cached_property
    def carrier_negation(self) -> tuple[int, ...]:
        """Carrier permutation sending a to unit*a (0 maps to 0)."""
        m = self.group.mul_array
        e = self.unit.index
        return (0,) + tuple(int(m[e, x]) + 1 for x in range(self.group.order))

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


def _addition_masks(table, eps: int, triple_to_hex,
                    nullset: int) -> tuple[tuple[int, ...], ...]:
    """Carrier masks of the addition over a group table (rows need not commute).

    z lies in x + y exactly when the hexagon of the triple (x, y, eps*z) is in
    the nullset, and 0 exactly when x = eps*y; 0 + x = x + 0 = {x}.
    """
    n = len(table)
    neg = table[eps]
    t2h = triple_to_hex.tolist()
    masks = [tuple(1 << j for j in range(n + 1))]
    for x in range(n):
        row = [1 << (x + 1)]
        for y in range(n):
            acc = 1 if x == neg[y] else 0
            for z in range(n):
                if (nullset >> t2h[x][y][neg[z]]) & 1:
                    acc |= 1 << (z + 1)
            row.append(acc)
        masks.append(tuple(row))
    return tuple(masks)


def reconstruct_addition(pasture: Pasture) -> AdditionTable:
    """Rebuild the full carrier addition table from the nullset."""
    masks = _addition_masks(pasture.group.mul_array.tolist(), pasture.unit_index,
                            pasture.hex_table.triple_to_hex, pasture.nullset)
    return AdditionTable(pasture.group, pasture.unit, masks)


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
    sel = pasture._in_nullset
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


def _permute_mask(mask: int, perm) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def _check_axioms(table, eps: int, masks) -> bool:
    """Every hyperfield axiom on carrier masks built over the group table."""
    n = len(table)
    big = n + 1
    neg = (0,) + tuple(table[eps][x] + 1 for x in range(n))
    # nonempty and commutative sums, 0 in a + c exactly when a = -c
    for a in range(big):
        for c in range(big):
            ac = masks[a][c]
            if ac == 0 or ac != masks[c][a] or bool(ac & 1) != (a == neg[c]):
                return False
    # zero is the hyperaddition's neutral element
    if any(masks[0][j] != 1 << j for j in range(big)):
        return False
    # associativity of the set extension, via per-column union tables
    full = 1 << big
    union = []
    for row in masks:
        t = [0] * full
        for mask in range(1, full):
            low = mask & -mask
            t[mask] = t[mask ^ low] | row[low.bit_length() - 1]
        union.append(t)
    for a in range(big):
        for c in range(big):
            ac = masks[a][c]
            for d in range(big):
                if union[d][ac] != union[a][masks[c][d]]:
                    return False
    # scaling by any group element, on either side, permutes sums
    for s in range(n):
        left = [0] + [table[s][x] + 1 for x in range(n)]
        right = [0] + [table[x][s] + 1 for x in range(n)]
        for perm in (left,) if left == right else (left, right):
            for a in range(big):
                for c in range(big):
                    if masks[perm[a]][perm[c]] != _permute_mask(masks[a][c], perm):
                        return False
    return True


def axiom_oracle(pasture: Pasture) -> bool:
    """Brute-force verdict: rebuild addition and check every axiom directly."""
    g = pasture.group
    _check_oracle_order(g)
    table = reconstruct_addition(pasture)
    return _check_axioms(g.mul_array.tolist(), pasture.unit_index, table.masks)


def is_field(pasture: Pasture) -> bool:
    """A hyperfield is a field exactly when 1 + (-1) = {0}."""
    return not pasture.one_plus_minus_one and is_hyperfield_fast(pasture)


def satisfies_star(pasture: Pasture) -> bool:
    """For all x, y, z, w some t has (tx, ty) and (tz, tw) both selected.

    Quantification is reduced by translation: for all (a, b, c) in G^3 some
    u has (u, ua) and (ub, uc) selected.
    """
    g = pasture.group
    n = g.order
    m = g.mul_array
    sel = pasture._in_nullset
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


def is_4full(pasture: Pasture) -> bool:
    """0 lies in every four-fold sum of nonzero elements (and P is not F2)."""
    g = pasture.group
    if g.order == 1 and pasture.nullset == 0:
        return False
    _check_oracle_order(g)
    table = reconstruct_addition(pasture)
    b = table.masks
    neg = table.carrier_negation
    n = g.order
    negated = [[_permute_mask(b[c][d], neg) for d in range(n + 1)] for c in range(n + 1)]
    # translation-normalized: a = 1; need s in 1+b with -s in c+d
    for bb in range(1, n + 1):
        row = b[1][bb]
        for cc in range(1, n + 1):
            for dd in range(1, n + 1):
                if not row & negated[cc][dd]:
                    return False
    return True


def _check_oracle_order(g: AbelianGroup) -> None:
    if g.order > ORACLE_ORDER_CAP:
        raise CapacityError(f"addition table capped at group order {ORACLE_ORDER_CAP}, "
                            f"{g.literal} has order {g.order}")


def is_zero_over_zero(pasture: Pasture) -> bool:
    """Every x is a ratio r/s of nonzero elements of 1 + (-1)."""
    g = pasture.group
    s_set = pasture.one_plus_minus_one
    m, inv = g.mul_array.tolist(), g.inv_array.tolist()
    return len({m[r][inv[s]] for r in s_set for s in s_set}) == g.order


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
    row_masks: dict[tuple[int, ...], int] = {}
    for row in itertools.product(range(big), repeat=m + 1):
        acc = 0
        for k, xs in enumerate(vectors):
            if _row_sum_mask(table, row, xs) & 1:
                acc |= 1 << k
        row_masks[row] = acc
    rows = list(row_masks.values())
    if m == 1:
        return all(mask for mask in rows)
    for i, ma in enumerate(rows):
        for mb in rows[i:]:
            if not ma & mb:
                return False
    return True
