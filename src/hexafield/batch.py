"""Vectorized predicates over many nullsets of one (group, unit) at once.

Every public method takes a bool matrix NS of shape (samples, #hexagons),
row s being the hexagon-membership bits of one nullset, and returns a bool
vector of per-sample verdicts; `verdicts` returns three (hyperfield, 4-full,
star) from one walk of the block.  The fast predicates are first-order tests
on the nullset; `axiom_oracle`, their independent judge, is the brute-force
axiom check of pastures.py: it serves every group table and row count, so
the scalar and skew oracles run the same code, at any order: a batch goes
through it in blocks of rows within a byte budget.  `pasture_verdicts` reads
one pasture's hyperfield, field, 0/0 and 4-full verdicts from one row: the
package has no other copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import AbelianGroup, automorphisms_fixing
from .hexagons import build_table
from .morphisms import hexagon_permutations
from .pastures import Pasture, _axioms_hold, _nullset_row


# bytes in each of the four slab buffers of the kernels' block: 512 KiB, so that
# all four stay in a 2 MiB cache between a slab's `&`, `|` and its reduction.
# The orbit scan's (permutations, K) words take the same budget per array.
_BLOCK_ELEMENTS = 1 << 19


def _packed(ns: np.ndarray) -> np.ndarray:
    """(hexagons, K) words, K = ceil(S / 64) and at least 1: bit j of word k of
    hexagon h is bit h of row 64k + j, and the padding bits are zero."""
    words = np.zeros((ns.shape[1], max(1, (len(ns) + 63) // 64) * 8), dtype=np.uint8)
    # packing along the rows of a contiguous copy is several times faster
    words[:, :(len(ns) + 7) // 8] = np.packbits(np.ascontiguousarray(ns.T), axis=1,
                                                bitorder="little")
    return words.view("<u8")


def _unpacked(words: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` bits of K words as a bool vector, one per row."""
    return np.unpackbits(words.view(np.uint8), count=rows, bitorder="little").view(bool)


def _fold(op: np.ufunc, m: np.ndarray) -> np.ndarray:
    """op over every entry of m, word by word: K words.  Folding the leading
    axis first keeps numpy's inner loops long when K is small."""
    return op.reduce(op.reduce(m, axis=0).reshape(-1, m.shape[-1]), axis=0)


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

    @property
    def row_bytes(self) -> int:
        """Bytes per row that a kernel call may hold: the bool row, its copy, and
        one bit per row in the packed rows, their packing, condition A's pairs
        and the four slab buffers, unless those take 4 * _BLOCK_ELEMENTS bytes."""
        n, h = self.group.order, self.n_hex
        return 2 * h + (2 * h + 5 * n * n + 7) // 8

    # -- one block, three kernels -----------------------------------------

    def _blocks(self, x: np.ndarray):
        """Yield (w0, m, spare), m[a, b, w] = OR_t x[hex(1, a, t)] & x[hex(unit*b, w0 + w, t)].

        x is `_packed(ns)`, so an entry holds one bit per row: some t has
        both hexagons selected.  Let M[a, b, w] be that test on hex(1, a, t)
        and hex(b, w, t); m is a slab of M_e[a, b, w] = M[a, unit*b, w].
        The pair (ru, rv) is the triple (u, v, r^-1), so scaling a test by r
        only moves t, and the pair (r, ra) is the triple (1, a, r^-1), so
        every test has a copy whose first hexagon is hex(1, a, t):
        - star: for all (a, b, c) some u has hex(u, ua) and hex(ub, uc)
          selected, so star holds iff M, and so M_e, is true everywhere.
        - 4-full: for all (b, c, d) but b = unit, c = unit*d, some t has
          hex(1, b, unit*t) and hex(c, d, t) selected.  Scaled by the unit
          that is every entry of M_e but (unit, w, w).
        - condition B: any two distinct selected pairs (x, y) and (z, w)
          have some t with hex(x, unit*z, t) and hex(unit*y, w, t)
          selected.  In the copies with x = 1 and Z = unit*z, the premises
          are M[y, z, w] = M_e[y, Z, w] and the conclusion M_e[Z, y, w].  So
          B fails iff some (Z, y, w) other than (unit, y, y), the two equal
          pairs, has M_e[y, Z, w] and not M_e[Z, y, w]: 4-full's diagonal,
          so a 4-full nullset passes B.
        A slab holds whole (a, b) planes, for B's transpose, for as many w as
        fit in `_BLOCK_ELEMENTS` bytes, or one w.  Four such buffers serve
        every slab: both factors, m and `spare`, free for the reader to use.
        """
        n, k = self.group.order, x.shape[1]
        dw = min(n, max(1, _BLOCK_ELEMENTS // (n * n * k * x.itemsize)))
        bufs = np.empty((4, n * n * dw * k), dtype=x.dtype)
        # [t, a, 1, w, K]: hex(1, a, t), repeated along w so that numpy's `&`
        # runs over whole (w, K) rows; at K = 1 it runs over (b, w) planes
        reps = dw if k > 1 else 1
        first = bufs[0, :n * n * reps * k].reshape(n, n, 1, reps, k)
        first[...] = x[self._hid3[0].T][:, :, None, None]
        for w0 in range(0, n, dw):
            ws = min(dw, n - w0)
            m, spare, second = bufs[1:, :n * n * ws * k].reshape(3, n, n, ws, k)
            np.take(x, self._hid3[self._em, w0:w0 + ws].transpose(2, 0, 1), axis=0,
                    out=second, mode="clip")  # [t, b, w, K]; "clip" fills out unbuffered
            np.bitwise_and(first[0, ..., :ws, :], second[0], out=m)
            for t in range(1, n):
                m |= np.bitwise_and(first[t, ..., :ws, :], second[t], out=spare)
            yield w0, m, spare

    def verdicts(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hyperfield, 4-full, star): condition A, then one walk of `_blocks`
        whose slabs feed condition B, 4-full's AND and the AND over 4-full's
        diagonal (unit, w, w); star is 4-full and that diagonal."""
        u = self.unit_index
        x = _packed(ns)
        pairs = np.bitwise_or.reduce(x[self._hid3[:, :, 0]], axis=1)  # [x]: some (x, y) selected
        hyper = np.bitwise_and.reduce(np.delete(pairs, u, axis=0), axis=0)  # every x but the unit
        full4, diag = np.full((2, x.shape[1]), ~np.uint64(0), dtype=x.dtype)
        for w0, m, bad in self._blocks(x):
            w = np.arange(m.shape[2])
            np.invert(m, out=bad)
            bad &= m.transpose(1, 0, 2, 3)
            bad[u, w0 + w, w] = 0
            hyper &= ~_fold(np.bitwise_or, bad)
            diag &= np.bitwise_and.reduce(m[u, w0 + w, w], axis=0)
            m[u, w0 + w, w] = ~m.dtype.type(0)  # 4-full's excluded (unit, w, w)
            full4 &= _fold(np.bitwise_and, m)
        if self.group.order == 1:
            full4 &= np.bitwise_or.reduce(x, axis=0)  # F2 is excluded by definition
        return tuple(_unpacked(words, len(ns)) for words in (hyper, full4, full4 & diag))

    def is_hyperfield(self, ns: np.ndarray) -> np.ndarray:
        return self.verdicts(ns)[0]

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        """`_axioms_hold` on blocks of rows within 4 * _BLOCK_ELEMENTS bytes, or one row."""
        step = max(1, 4 * _BLOCK_ELEMENTS // (20 * (self.group.order + 1) ** 3))
        return np.concatenate([_axioms_hold(self._m, self.unit_index, self._hid3, ns[lo:lo + step])
                               for lo in range(0, max(1, len(ns)), step)])

    # -- star, 4-full, 0/0, field -----------------------------------------

    def satisfies_star(self, ns: np.ndarray) -> np.ndarray:
        return self.verdicts(ns)[2]

    def is_4full(self, ns: np.ndarray) -> np.ndarray:
        return self.verdicts(ns)[1]

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

    def orbit_scan(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(canon, stab): canon says no image row[perm] under a nontrivial
        automorphism is smaller, read as a number whose bit h is hexagon h;
        stab counts the automorphisms fixing the row, identity included.

        Bit-sliced on `_packed(ns)`, for as many permutations at once as fit
        one (block, K) array in `_BLOCK_ELEMENTS` bytes: the hexagons are
        compared from the top down, `same` keeps the rows whose image agrees
        so far and `less` those whose image is smaller where it first
        differs.  A block stops once no image agrees so far."""
        perms, x = self.nontrivial_hex_perms, _packed(ns)
        rows = _packed(np.ones((len(ns), 1), dtype=bool))[0]  # the padding bits stay clear
        smaller = np.zeros_like(rows)
        stab = np.ones(len(ns), dtype=np.int64)
        step = max(1, _BLOCK_ELEMENTS // rows.nbytes)
        for b0 in range(0, len(perms), step):
            block = perms[b0:b0 + step]
            same = np.repeat(rows[None], len(block), axis=0)
            less = np.zeros_like(same)
            for h in range(x.shape[0] - 1, -1, -1):
                image = x[block[:, h]]
                less |= same & x[h] & ~image
                same &= ~(image ^ x[h])
                if not same.any():
                    break
            smaller |= np.bitwise_or.reduce(less, axis=0)
            live = same[same.any(axis=1)]  # unpacked, each takes a byte per row
            stab += np.unpackbits(live.view(np.uint8), axis=1, count=len(ns),
                                  bitorder="little").sum(axis=0, dtype=np.int64)
        return ~_unpacked(smaller, len(ns)), stab

    def has_nontrivial_automorphism(self, ns: np.ndarray) -> np.ndarray:
        return self.orbit_scan(ns)[1] > 1

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


def pasture_verdicts(pasture: Pasture) -> dict[str, bool]:
    """`check`'s verdicts on one pasture, in its order, from one kernel row:
    is_hyperfield, is_field, is_00 and is_4full.  The row has no order cap
    of its own.  A one-off verdict builds its own `Kernels` (a Pasture's
    unit is self-inverse) instead of filling `kernels_for`'s cache with
    every group it meets; `quotient_hyperfield`, which checks many fields
    on one group, keeps its cached kernels."""
    kernels = Kernels(pasture.group, pasture.unit_index)
    row = _nullset_row(pasture.nullset, kernels.n_hex)
    hyper, full4, _ = (bool(v[0]) for v in kernels.verdicts(row))
    return {
        "is_hyperfield": hyper,
        "is_field": hyper and not kernels.one_plus_minus_one(row).any(),
        "is_00": bool(kernels.is_zero_over_zero(row)[0]),
        "is_4full": full4,
    }


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Unpack nullset integers into a (len, width) bool matrix."""
    if width > 63:
        raise ValueError(f"{width}-bit nullsets do not fit in int64")
    values = np.asarray(values, dtype=np.int64)
    return (values[:, None] >> np.arange(width, dtype=np.int64)) & 1 > 0
