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


def _exists_t(ns: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(S, I, J) bool: some t has ns[s, left[i, t]] and ns[s, right[j, t]]."""
    # float32 einsum so the any-over-t contraction runs through BLAS
    a = ns[:, left].astype(np.float32)
    b = ns[:, right].astype(np.float32)
    return np.einsum("sit,sjt->sij", a, b, optimize=True) > 0.5


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

    @cached_property
    def _hid3e(self) -> np.ndarray:
        # hexagon of (x, y, unit*z): the membership bit of z in x + y
        return self._hid3[:, :, self._em]

    @property
    def n_hex(self) -> int:
        return build_table(self.group).size

    # -- fast hyperfield check --------------------------------------------

    @cached_property
    def _b_index(self):
        n = self.group.order
        em, hid3 = self._em, self._hid3
        grid = np.arange(n)
        x, z, y, w = np.ix_(grid, grid, grid, grid)
        offdiag = (x != z) | (y != w)  # [x, z, y, w]
        # [x][z, t] = hex(x, unit*z, t) and [(y, w), t] = hex(unit*y, w, t)
        return hid3[:, em], hid3[em].reshape(n * n, n), offdiag

    def is_hyperfield(self, ns: np.ndarray) -> np.ndarray:
        """Condition A on every row, then condition B one x at a time.

        B asks that any two distinct selected pairs (x, y) and (z, w) have
        some t with hex(x, unit*z, t) and hex(unit*y, w, t) selected.  Block
        x holds the first pair's x fixed and builds an (A, n, n^2) tensor
        for the A rows that are still alive and select some (x, y); a row
        leaves as soon as one block shows a violation.
        """
        n = self.group.order
        hb1, hb2, offdiag = self._b_index
        in2 = ns[:, self._hid3[:, :, 0]]  # (S, n, n)
        keep = np.arange(n) != self.unit_index
        ok = in2.any(axis=2)[:, keep].all(axis=1)
        for x in range(n):
            rows = np.flatnonzero(ok & in2[:, x].any(axis=1))
            if len(rows) == 0:
                continue
            sel = in2[rows]
            cross = _exists_t(ns[rows], hb1[x], hb2).reshape(-1, n, n, n)  # [a,z,y,w]
            premise = sel[:, None, x, :, None] & sel[:, :, None, :]
            ok[rows] = ~(premise & ~cross & offdiag[x]).any(axis=(1, 2, 3))
        return ok

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        return _axioms_hold(self._m, self.unit_index, self._hid3, ns)

    # -- star, 4-full, 0/0, field -----------------------------------------

    def satisfies_star(self, ns: np.ndarray) -> np.ndarray:
        # some u has hex(u, u a) and hex(u b, u c): triples (1, a, t), (b, c, t), t = u^-1
        n = self.group.order
        return _exists_t(ns, self._hid3[0], self._hid3.reshape(n * n, n)).all(axis=(1, 2))

    @cached_property
    def _four_index(self):
        n = self.group.order
        em = self._em
        h41 = self._hid3e[0]  # [b, t] = hex(1, b, unit*t)
        grid = np.arange(n)
        b, c, d = np.ix_(grid, grid, grid)
        trivial = (b == self.unit_index) & (c == em[d.reshape(-1)].reshape(1, 1, n))
        return h41, trivial.reshape(1, n, n * n)

    def is_4full(self, ns: np.ndarray) -> np.ndarray:
        n = self.group.order
        h41, trivial = self._four_index
        cross = _exists_t(ns, h41, self._hid3.reshape(n * n, n))  # (S, b, (c,d))
        ok = (cross | trivial).all(axis=(1, 2))
        if n == 1:
            ok &= ns.any(axis=1)  # F2 is excluded by definition
        return ok

    def one_plus_minus_one(self, ns: np.ndarray) -> np.ndarray:
        """(S, n) bool: nonzero membership bits of 1 + (-1)."""
        return ns[:, self._hid3e[0, self.unit_index]]

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
