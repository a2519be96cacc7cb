"""Vectorized predicates over many nullsets of one (group, unit) at once.

Every public method takes a bool matrix NS of shape (samples, #hexagons),
row s being the hexagon-membership bits of one nullset, and returns a bool
vector of per-sample verdicts.  The fast predicates are first-order tests on
the nullset; `axiom_oracle` is the independent judge of them.  It is the
brute-force axiom check in pastures.py, which serves every group table and
every row count, so the scalar and skew oracles run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import AbelianGroup, automorphisms_fixing
from .hexagons import build_table
from .morphisms import hexagon_permutation
from .pastures import _axioms_hold


_BLOCK_ELEMENTS = 1 << 20  # elements of one slab of a kernel's 4-axis tensor


def _all_slabs(lead: int, per: int, holds) -> np.ndarray:
    """Per-row AND of holds(lo, hi) over slabs [lo, hi) of a leading axis of
    `lead` indices, `per` tensor elements each: every slab holds at most
    _BLOCK_ELEMENTS elements, or one index when that alone is more."""
    step = max(1, _BLOCK_ELEMENTS // max(per, 1))
    ok = holds(0, min(step, lead))
    for lo in range(step, lead, step):
        ok &= holds(lo, min(lo + step, lead))
    return ok


@dataclass(frozen=True)
class Kernels:
    group: AbelianGroup
    unit_index: int

    # -- shared index tensors ---------------------------------------------

    @cached_property
    def _m(self) -> np.ndarray:
        return self.group.mul_array

    @cached_property
    def _em(self) -> np.ndarray:
        # multiplication by the unit
        return self._m[self.unit_index]

    @cached_property
    def _hid3(self) -> np.ndarray:
        # hexagon of the triple (x, y, z), shared by every unit of the group;
        # the pair (u, v) is the triple (u, v, 1), and (tu, tv) is (u, v, t^-1)
        return build_table(self.group).triple_to_hex

    @property
    def n_hex(self) -> int:
        return build_table(self.group).size

    def _sums(self, ns: np.ndarray) -> np.ndarray:
        """(n, n, S) words: bit t of [x, y, s] is set iff row s selects the
        hexagon of the triple (x, y, t), so "some t has both hexagons
        selected" is one `&` of two words and a test for nonzero."""
        n = self.group.order
        word = np.dtype(f"uint{max(8, 1 << (n - 1).bit_length())}")
        cols = np.ascontiguousarray(ns.T, dtype=word)  # (hexagons, S): one gather per t
        out = cols[self._hid3[:, :, 0]]
        for t in range(1, n):
            out |= cols[self._hid3[:, :, t]] << word.type(t)
        return out

    # -- fast hyperfield check --------------------------------------------

    def is_hyperfield(self, ns: np.ndarray) -> np.ndarray:
        """Condition A on every row, then condition B one x at a time.

        B asks that any two distinct selected pairs (x, y) and (z, w) have
        some t with hex(x, unit*z, t) and hex(unit*y, w, t) selected.  The
        maps (x, y, z, w) -> (z, w, x, y) and -> (y, x, w, z) fix B, its
        premise and distinctness, so every orbit of that Klein group has a
        member whose x is least, and block x needs only y, z, w >= x.  It
        checks an (m, m, m) block, m = n - x, in z-slabs for the rows still
        alive that select some (x, y); a row leaves as soon as one block
        shows a violation.
        """
        n, em = self.group.order, self._em
        sums = self._sums(ns)
        sel = (sums & 1).astype(bool)  # [x, y, s]: bit 0, t = 1, is the pair (x, y)
        keep = np.arange(n) != self.unit_index
        ok = sel.any(axis=1)[keep].all(axis=0)
        for x in range(n):
            rows = np.flatnonzero(ok & sel[x, x:].any(axis=0))
            if len(rows) == 0:
                continue
            p, s, m = sums.take(rows, axis=2), sel.take(rows, axis=2), n - x
            right = p[em[x:], x:]  # [y, w, a]: hex(unit*y, w, t)

            def holds(lo, hi):
                # [z, y, w, a], z in [x + lo, x + hi): no t has hex(x, unit*z, t)
                # and hex(unit*y, w, t)
                bad = (p[x, em[x + lo:x + hi], None, None] & right) == 0
                bad &= s[x, x:][None, :, None]  # (x, y) selected
                bad &= s[x + lo:x + hi, None, x:]  # (z, w) selected
                if lo == 0:
                    bad[0, np.arange(m), np.arange(m)] = False  # (z, w) = (x, y)
                return ~bad.any(axis=(0, 1, 2))

            ok[rows] = _all_slabs(m, m * m * len(rows), holds)
        return ok

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        return _axioms_hold(self._m, self.unit_index, self._hid3, ns)

    # -- star, 4-full, 0/0, field -----------------------------------------

    def satisfies_star(self, ns: np.ndarray) -> np.ndarray:
        # some u has hex(u, u a) and hex(u b, u c): triples (1, a, t), (b, c, t), t = u^-1
        n, sums = self.group.order, self._sums(ns)

        def holds(lo, hi):  # [a, b, c, s] over a in [lo, hi)
            return ((sums[0, lo:hi, None, None] & sums[None]) != 0).all(axis=(0, 1, 2))

        return _all_slabs(n, n * n * len(ns), holds)

    def is_4full(self, ns: np.ndarray) -> np.ndarray:
        # some t has hex(1, b, unit*t) = hex(unit, unit*b, t) and hex(c, d, t),
        # unless b = unit and c = unit*d
        n, u, em = self.group.order, self.unit_index, self._em
        sums = self._sums(ns)

        def holds(lo, hi):  # [b, c, d, s] over b in [lo, hi)
            hit = (sums[u, em[lo:hi], None, None] & sums[None]) != 0
            if lo <= u < hi:
                hit[u - lo, em, np.arange(n)] = True
            return hit.all(axis=(0, 1, 2))

        ok = _all_slabs(n, n * n * len(ns), holds)
        if n == 1:
            ok &= ns.any(axis=1)  # F2 is excluded by definition
        return ok

    def one_plus_minus_one(self, ns: np.ndarray) -> np.ndarray:
        """(S, n) bool: nonzero membership bits of 1 + (-1)."""
        return ns[:, self._hid3[0, self.unit_index, self._em]]

    def is_zero_over_zero(self, ns: np.ndarray) -> np.ndarray:
        s_mask = self.one_plus_minus_one(ns)
        shifted = s_mask[:, self._m]  # [s, x, z] = s_mask[s, x*z]
        return (s_mask[:, None, :] & shifted).any(axis=2).all(axis=1)

    def is_field(self, ns: np.ndarray) -> np.ndarray:
        out = ~self.one_plus_minus_one(ns).any(axis=1)
        out[out] = self.is_hyperfield(ns[out])
        return out

    # -- symmetry events ---------------------------------------------------

    @cached_property
    def _eps_hex_ids(self) -> np.ndarray:
        return np.unique(self._hid3[self.unit_index, :, 0])

    def all_eps_hexagons(self, ns: np.ndarray) -> np.ndarray:
        return ns[:, self._eps_hex_ids].all(axis=1)

    @cached_property
    def nontrivial_hex_perms(self) -> np.ndarray:
        table = build_table(self.group)
        perms = [
            hexagon_permutation(table, f.images)
            for f in automorphisms_fixing(self.group, self.unit_index)
            if not f.is_identity
        ]
        if not perms:
            return np.zeros((0, table.size), dtype=np.int64)
        return np.array(perms, dtype=np.int64)

    def has_nontrivial_automorphism(self, ns: np.ndarray) -> np.ndarray:
        perms = self.nontrivial_hex_perms
        out = np.zeros(len(ns), dtype=bool)
        for perm in perms:
            out |= (ns == ns[:, perm]).all(axis=1)
        return out

    def event(self, name: str, ns: np.ndarray) -> np.ndarray:
        try:
            fn = _EVENTS[name]
        except KeyError:
            raise ValueError(f"unknown event {name!r}; known: {sorted(_EVENTS)}") from None
        return fn(self, ns)


_EVENTS = {
    "is_hyperfield": Kernels.is_hyperfield,
    "satisfies_star": Kernels.satisfies_star,
    "all_eps_hexagons": Kernels.all_eps_hexagons,
    "has_nontrivial_automorphism": Kernels.has_nontrivial_automorphism,
    "is_field": Kernels.is_field,
}

EVENT_NAMES = tuple(sorted(_EVENTS))


@lru_cache(maxsize=None)
def kernels_for(group: AbelianGroup, unit_index: int) -> Kernels:
    if unit_index != group.inv_array[unit_index]:
        raise ValueError("unit index must denote a self-inverse element")
    return Kernels(group, unit_index)


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Unpack nullset integers into a (len, width) bool matrix."""
    values = np.asarray(values, dtype=np.int64)
    return (values[:, None] >> np.arange(width, dtype=np.int64)) & 1 > 0


def bits_to_ints(bits: np.ndarray) -> np.ndarray:
    width = bits.shape[1]
    weights = np.int64(1) << np.arange(width, dtype=np.int64)
    return bits.astype(np.int64) @ weights
