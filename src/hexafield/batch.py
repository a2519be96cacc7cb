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
from .morphisms import hexagon_permutations
from .pastures import _axioms_hold


# one slab of the kernels' block holds at most this many bytes of words, and
# of bools for condition B: 1 MiB, which stays in cache between the slab's `&`
# and its reduction
_BLOCK_ELEMENTS = 1 << 20


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

    # -- one block, three kernels -----------------------------------------

    def _blocks(self, sums: np.ndarray, planes: bool = False):
        """Yield (a0, w0, t), t[a, b, w, s] = P[1, a0 + a] & P[b, w0 + w].

        P is `_sums(ns)`.  Every word kernel reads this one block,
        M[a, b, w] = t != 0.  Scaling all the coordinates of a test by s
        rotates both of its words by the same permutation of t, and the
        pair (s, sa) is the triple (1, a, s^-1), so every test has a copy
        whose first word is P[1, a]:
        - star: for all (a, b, c) some u has hex(u, ua) and hex(ub, uc)
          selected, so star holds iff M is true everywhere.
        - 4-full: for all (b, c, d) but b = unit, c = unit*d, some t has
          hex(1, b, unit*t) and hex(c, d, t) selected.  Scaled by the unit
          that is M at every (a, b, w) but (unit, unit*w, w).
        - condition B: any two distinct selected pairs (x, y) and (z, w)
          have some t with hex(x, unit*z, t) and hex(unit*y, w, t)
          selected.  The copy with x = 1 has its premises for some s iff
          P[1, y] & P[z, w] != 0.  With Z = unit*z and M_e[Z, y, w] =
          M[Z, unit*y, w], the violation word is M_e[Z, y, w] and the
          premise word is M_e[y, Z, w].  So B fails iff some (Z, y, w)
          other than (unit, y, y), the two equal pairs, has M_e[y, Z, w]
          and not M_e[Z, y, w].  That is 4-full's diagonal, so a 4-full
          nullset passes B.
        The slabs share one buffer of at most _BLOCK_ELEMENTS bytes of
        words.  Star and 4-full slabs hold whole (b, w) planes for as many
        a as fit, else one w split along a, down to one (a, w) when that
        alone is more.  `planes` keeps whole (a, b) planes for condition
        B's transpose: as many w as fit with the two bool arrays per entry
        counted, or one w when that alone is more.
        """
        n, rows = sums.shape[1:]
        if planes:  # whole (a, b) planes, whose two bool arrays count too
            da, dw = n, _BLOCK_ELEMENTS // max(1, n * n * rows * (sums.itemsize + 2))
        else:  # whole (b, w) planes, else one w split along a
            fit = _BLOCK_ELEMENTS // max(1, n * rows * sums.itemsize)  # (a, w) lines
            da, dw = (fit // n, n) if fit >= n else (fit, 1)
        da, dw = min(n, max(1, da)), min(n, max(1, dw))
        buf = np.empty((da, n, dw, rows), dtype=sums.dtype)
        c = sums[0, :, None, None]
        for w0 in range(0, n, dw):
            # hexagons are closed under swapping a pair, so P is symmetric and
            # one w reads the contiguous row P[w]
            q = sums[:, w0:w0 + dw] if dw > 1 else sums[w0, :, None]
            for a0 in range(0, n, da):
                ca = c[a0:a0 + da]
                full = len(ca) == da and q.shape[1] == dw  # only the last a or w may be short
                t = buf if full else buf[:len(ca), :, :q.shape[1]]
                yield a0, w0, np.bitwise_and(ca, q, out=t)

    def is_hyperfield(self, ns: np.ndarray) -> np.ndarray:
        """Condition A on every row, then condition B (see `_blocks`) as one
        transposed comparison per slab of whole (a, b) planes."""
        n, u, em = self.group.order, self.unit_index, self._em
        sums = self._sums(ns)
        ok = (sums & 1).any(axis=1)[np.arange(n) != u].all(axis=0)  # bit 0, t = 1: the pairs
        for _, w0, t in self._blocks(sums, planes=True):
            m = t != 0
            if u:
                m = m[:, em]  # M_e
            bad = m.transpose(1, 0, 2, 3) > m
            diag = np.arange(t.shape[2])
            bad[u, w0 + diag, diag] = False
            ok &= ~bad.any(axis=(0, 1, 2))
        return ok

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        return _axioms_hold(self._m, self.unit_index, self._hid3, ns)

    # -- star, 4-full, 0/0, field -----------------------------------------

    def satisfies_star(self, ns: np.ndarray) -> np.ndarray:
        ok = True
        for _, _, t in self._blocks(self._sums(ns)):
            ok = ok & (t.min(axis=(0, 1, 2)) != 0)
        return ok

    def is_4full(self, ns: np.ndarray) -> np.ndarray:
        n, u, em = self.group.order, self.unit_index, self._em
        ok = True
        for a0, w0, t in self._blocks(self._sums(ns)):
            if a0 <= u < a0 + len(t):
                w = np.arange(t.shape[2])
                t[u - a0, em[w0 + w], w] = ~t.dtype.type(0)  # the excluded (unit, unit*w, w)
            ok = ok & (t.min(axis=(0, 1, 2)) != 0)
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
        autos = automorphisms_fixing(self.group, self.unit_index)
        return hexagon_permutations(build_table(self.group),
                                    autos[(autos != np.arange(self.group.order)).any(axis=1)])

    def has_nontrivial_automorphism(self, ns: np.ndarray) -> np.ndarray:
        # compare 16 columns spread over the hexagons first (automorphisms fix
        # many low ones), then whole rows only where those agree
        cols = np.linspace(0, self.n_hex - 1, 16).astype(np.int64)
        head = ns[:, cols]
        out = np.zeros(len(ns), dtype=bool)
        for perm in self.nontrivial_hex_perms:
            live = np.flatnonzero((head == ns[:, perm[cols]]).all(axis=1))
            out[live] |= (ns[live] == ns[live][:, perm]).all(axis=1)
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
