"""Vectorized predicates over many nullsets of one (group, unit) at once.

Every public method takes a bool matrix NS of shape (samples, #hexagons),
row s being the hexagon-membership bits of one nullset, and returns a bool
vector of per-sample verdicts.  The fast predicates are first-order tests on
the nullset; `axiom_oracle` is the independent judge of them.  It is the
brute-force axiom check in pastures.py, which serves every group table and
every row count, so the scalar and skew oracles run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import AbelianGroup, automorphisms_fixing
from .hexagons import build_table
from .morphisms import hexagon_permutations
from .pastures import _axioms_hold


# one slab of a kernel's 4-axis tensor holds at most this many elements of
# uint8 words, and proportionally fewer of wider words: 1 MiB, which stays in
# cache between the slab's `&` and its `min`, unless one (i, k) pair alone
# holds more.  A condition B slab counts its two bool arrays too.
_BLOCK_ELEMENTS = 1 << 20


def _all_slabs(a: np.ndarray, b: np.ndarray, fix=None) -> np.ndarray:
    """Per-row test that every word of a & b is nonzero.

    a and b broadcast to [i, k, ..., rows], a with one k.  The test runs in
    slabs t = a[i:i + di] & b[:, k:k + dk] that share one buffer: whole
    indices i while they fit in _BLOCK_ELEMENTS bytes, else one i split
    along k, down to one (i, k) when that alone is more.  fix(t, i, k) may
    set words of a slab to all ones first.
    """
    lead, mid, *rest = np.broadcast(a, b).shape
    per = math.prod(rest)
    if per == 0:
        return np.ones(0, dtype=bool)  # no rows
    fit = max(1, _BLOCK_ELEMENTS // (per * a.itemsize))  # (i, k) pairs per slab
    di, dk = (min(lead, fit // mid), mid) if fit >= mid else (1, fit)
    axes = tuple(range(len(rest) + 1))  # all but the rows
    buf = ok = None
    for i in range(0, lead, di):
        for k in range(0, mid, dk):
            ai, bk = a[i:i + di], b[:, k:k + dk]
            if buf is None:
                t = buf = ai & bk
            else:
                t = np.bitwise_and(ai, bk, out=buf[:len(ai), :bk.shape[1]])
            if fix is not None:
                fix(t, i, k)
            if ok is None:
                ok = t.min(axis=axes) != 0
            else:
                ok &= t.min(axis=axes) != 0
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
        """Condition A on every row, then condition B as one symmetric test.

        B asks that any two distinct selected pairs (x, y) and (z, w) have
        some t with hex(x, unit*z, t) and hex(unit*y, w, t) selected.
        Scaling all four coordinates by s rotates both words P[x, unit*z]
        and P[unit*y, w] by the same permutation of t, so every violation
        has a copy with x = 1, and that copy's premises hold for some s iff
        P[1, y] & P[z, w] != 0, since the pair (s, sy) is the triple
        (1, y, s^-1).  With Z = unit*z, c[Z] = P[1, Z], Q[y, w] =
        P[unit*y, w] and M[Z, y, w] = (c[Z] & Q[y, w]) != 0, the violation
        word is M[Z, y, w] and the premise word P[1, y] & P[unit*Z, w] is
        M[y, Z, w].  So B fails iff some (Z, y, w) other than (unit, y, y),
        the two equal pairs, has M[y, Z, w] and not M[Z, y, w].  M is built
        in slabs of whole w whose words, M and comparison hold at most
        _BLOCK_ELEMENTS bytes (or one w), each with its own gather of Q, a
        view when unit = 1.
        """
        n, u, em = self.group.order, self.unit_index, self._em
        sums = self._sums(ns)
        ok = (sums & 1).any(axis=1)[np.arange(n) != u].all(axis=0)  # bit 0, t = 1: the pairs
        c = sums[0, :, None, None]  # [Z, y, w, s]
        per_w = n * n * len(ns) * (sums.itemsize + 2)  # per row: n^2 words, then M and bad
        dw = max(1, _BLOCK_ELEMENTS // max(1, per_w))
        for w in range(0, n, dw):
            q = sums[em, w:w + dw] if u else sums[:, w:w + dw]  # [y, w, s]
            m = (c & q) != 0
            bad = m.transpose(1, 0, 2, 3) > m
            diag = np.arange(bad.shape[2])
            bad[u, w + diag, diag] = False
            ok &= ~bad.any(axis=(0, 1, 2))
        return ok

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        return _axioms_hold(self._m, self.unit_index, self._hid3, ns)

    # -- star, 4-full, 0/0, field -----------------------------------------

    def satisfies_star(self, ns: np.ndarray) -> np.ndarray:
        # some u has hex(u, u a) and hex(u b, u c): triples (1, a, t), (b, c, t), t = u^-1
        sums = self._sums(ns)
        return _all_slabs(sums[0, :, None, None], sums[None])  # [a, b, c, s]

    def is_4full(self, ns: np.ndarray) -> np.ndarray:
        # some t has hex(1, b, unit*t) = hex(unit, unit*b, t) and hex(c, d, t),
        # unless b = unit and c = unit*d
        n, u, em = self.group.order, self.unit_index, self._em
        sums = self._sums(ns)

        def excluded(t, i, k):  # [b, c, d, s]; c = unit*d
            if i <= u < i + len(t):
                c = np.arange(k, k + t.shape[1])
                t[u - i, c - k, em[c]] = ~sums.dtype.type(0)

        ok = _all_slabs(sums[u, em, None, None], sums[None], excluded)
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
