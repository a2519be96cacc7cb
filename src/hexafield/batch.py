"""Vectorized predicates over many nullsets of one (group, unit) at once.

Every public method takes a bool matrix NS of shape (samples, #hexagons),
row s being the hexagon-membership bits of one nullset, and returns a bool
vector of per-sample verdicts; `verdicts` returns three (hyperfield, 4-full,
star) from one walk of the block, over one fundamental domain of its two
involutions (hexagons.py).  The fast predicates are first-order tests
on the nullset; `axiom_oracle`, their independent judge, is the brute-force
axiom check of pastures.py: it serves every group table and row count, so
the scalar and skew oracles run the same code, at any order: it alone cuts a
batch into blocks of rows, at most 64 within a byte budget.  `pasture_verdicts`
reads one pasture's hyperfield, field, 0/0 and 4-full verdicts from one row:
the package has no other copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import AbelianGroup, automorphisms_fixing
from .hexagons import build_table
from .morphisms import hexagon_permutations
from .pastures import Pasture, _axioms_hold, _nullset_row


# bytes in each buffer of the kernels' walk and reducers: 512 KiB, so that a
# block's `&`, `|` and gathers stay in a 2 MiB cache.  A walk holds the domain
# for as many words of rows as fit 16 * _BLOCK_ELEMENTS bytes, or for one word.
# The orbit scan's (permutations, K) words take the same budget per array, and
# the axiom oracle's row blocks (at most 64 rows) four times it.
_BLOCK_ELEMENTS = 1 << 19


def _packed(ns: np.ndarray) -> np.ndarray:
    """(hexagons, K) words, K = ceil(S / 64) and at least 1: bit j of word k of
    hexagon h is bit h of row 64k + j, and the padding bits are zero.

    Rows that are the transpose of a C-contiguous (hexagons, S) array, as
    `lottery.sample_bits` returns them, are packed without a copy."""
    words = np.zeros((ns.shape[1], max(1, (len(ns) + 63) // 64) * 8), dtype=np.uint8)
    # packing along the rows of a contiguous copy is several times faster
    words[:, :(len(ns) + 7) // 8] = np.packbits(np.ascontiguousarray(ns.T), axis=1,
                                                bitorder="little")
    return words.view("<u8")


def _unpacked(words: np.ndarray, rows: int) -> np.ndarray:
    """The first `rows` bits of K words as a bool vector, one per row."""
    return np.unpackbits(words.view(np.uint8), count=rows, bitorder="little").view(bool)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of an int vector, without the import of numpy.ma that
    np.unique, np.isin and np.setdiff1d make on first use (tens of ms)."""
    values = np.sort(values)
    return values[np.concatenate([values[:1] == values[:1], values[1:] != values[:-1]])]


def _and_not(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.bitwise_and(p, ~q, out=out)


def _any(op, d: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """OR over op(d[p], d[q]) for the columns (p, q) of `pairs`: K words.  The
    pairs are gathered in blocks within _BLOCK_ELEMENTS bytes, or one pair."""
    found = np.zeros(d.shape[1], dtype=d.dtype)
    step = max(1, _BLOCK_ELEMENTS // (d.shape[1] * d.itemsize))
    for lo in range(0, pairs.shape[1], step):
        p, q = pairs[:, lo:lo + step]
        left = np.take(d, p, axis=0)
        found |= np.bitwise_or.reduce(op(left, np.take(d, q, axis=0), out=left), axis=0)
    return found


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
    def _table(self):
        return build_table(self.group)

    @cached_property
    def _hid3(self) -> np.ndarray:
        # hexagon of the triple (x, y, z), shared by every unit of the group;
        # the pair (u, v) is the triple (u, v, 1), and (tu, tv) is (u, v, t^-1)
        return self._table.triple_to_hex

    @property
    def n_hex(self) -> int:
        return self._table.size

    @property
    def row_bytes(self) -> int:
        """Bytes per row that a kernel call may hold, past buffers of
        _BLOCK_ELEMENTS bytes each.  With h hexagons, n = |G| and the
        domain's |A| values of a and |P| pairs (b, w): the bool row and its
        transposed copy take 2 h bytes.  In bits: the packed rows and their
        packing 2 h; condition A's pairs n^2; the domain |A| |P|, while a
        call's words fit 16 * _BLOCK_ELEMENTS bytes of it; the walk's first
        factor n |A|; and 2 (|P| + n) for blocks of one pair (b, w) or one
        pair of condition B, and the gathers of 4-full's and star's entries.
        That is 2 h + (2 h + n^2 + (|A| + 2)(|P| + n)) / 8 bytes, rounded up."""
        n, h = self.group.order, self.n_hex
        a, p = self._table.domain_first.shape[1], self._table.domain_second.shape[1]
        return 2 * h + (2 * h + n * n + (a + 2) * (p + n) + 7) // 8

    # -- one walk of the block, three reducers ----------------------------

    def _blocks(self, x: np.ndarray):
        """Yield (k0, d): d[i, k] holds, for the rows of word k0 + k, the
        domain entry i of M[a, b, w] = OR_t x[hex(1, a, t)] & x[hex(b, w, t)].

        x is `_packed(ns)`, so an entry holds one bit per row: some t has
        both hexagons selected.  M does not read the unit, and its two
        involutions σ1 and σ2 (hexagons.py) fix it, so one value per entry
        of the table's fundamental domain stands for every (a, b, w):
        `domain_index` reads M off it.  Per t, the walk ANDs hex(1, a, t),
        broadcast along the pairs, with hex(b, w, t), broadcast along a, and
        ORs the result in, over blocks of pairs (b, w) whose buffers fit
        _BLOCK_ELEMENTS bytes.  The words of a call are walked in groups
        whose domain fits 16 * _BLOCK_ELEMENTS bytes, or one word each; one
        buffer serves every group, so the next group overwrites d.
        """
        first_index, second_index = self._table.domain_first, self._table.domain_second
        n, a, p = first_index.shape[0], first_index.shape[1], second_index.shape[1]
        groups = -(-x.shape[1] * a * p * x.itemsize // (16 * _BLOCK_ELEMENTS))
        width = -(-x.shape[1] // groups)
        step = min(p, max(1, _BLOCK_ELEMENTS // (a * width * x.itemsize)))
        # one buffer holds the domain, the first factor, and a block's second
        # factor and spare, for every group.  glibc raises its mmap and trim
        # thresholds to the largest block freed, so one block lets later calls
        # reuse heap pages; four separate ones page-faulted about 400 times
        # per 4096-row Z13 call, and left the lottery sampler's buffers
        # faulting on every later chunk
        work = np.empty((a * p + n * a + (n + a) * step) * width, dtype=x.dtype)
        for k0 in range(0, x.shape[1], width):
            words = x[:, k0:k0 + width]
            k = words.shape[1]
            d = work[:a * p * k].reshape(a, p, k)
            first = np.take(words, first_index, axis=0, mode="clip",  # "clip" fills `out` unbuffered
                            out=work[a * p * k:(a * p + n * a) * k].reshape(n, a, k))[:, :, None]
            rest = work[(a * p + n * a) * k:]
            for p0 in range(0, p, step):
                pairs = second_index[:, p0:p0 + step]
                s = pairs.shape[1]
                second = np.take(words, pairs, axis=0, mode="clip",
                                 out=rest[:n * s * k].reshape(n, s, k))  # [t, pairs, K]
                block, buf = d[:, p0:p0 + s], rest[n * s * k:(n + a) * s * k].reshape(a, s, k)
                np.bitwise_and(first[0], second[0], out=block)
                for t in range(1, n):
                    block |= np.bitwise_and(first[t], second[t], out=buf)
            yield k0, d.reshape(a * p, k)

    @cached_property
    def _diag(self) -> np.ndarray:
        """Domain entries of 4-full's excluded M_e[unit, y, y], where M_e[a,
        b, w] = M[a, unit*b, w]: σ1 and σ2 map the set {(unit, unit*y, y)}
        onto itself, so these entries stand for it alone.  All lie in the
        domain's row a = unit."""
        index = self._table.domain_index
        return _distinct(index[self.unit_index, self._em, np.arange(self.group.order)])

    @cached_property
    def _unit_row(self) -> tuple[int, int, np.ndarray]:
        """(lo, hi, kept): the unit's row lo:hi of the domain, which holds
        `_diag`, and the entries of that row off `_diag`."""
        p = self._table.domain_second.shape[1]
        lo = self._diag[0] - self._diag[0] % p
        kept = np.ones(p, dtype=bool)
        kept[self._diag - lo] = False
        return lo, lo + p, lo + np.flatnonzero(kept)

    @cached_property
    def _b_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(equal, implied): (2, ·) domain entries that condition B compares.

        B fails iff some (Z, y, w) other than (unit, y, y) has the premise
        M_e[y, Z, w] and not the conclusion M_e[Z, y, w] (`verdicts`).  Off
        (unit, y, y) and (y, unit, y) each (Z, y, w) has its swap (y, Z, w),
        whose premise and conclusion trade places, so B asks those entries
        to be equal: `equal` pairs each entry with the least entry joined
        to it through such pairs.  The other premises, at (Z, unit, Z), are
        4-full's diagonal; `implied` holds them with their conclusions."""
        n, e, m = self.group.order, self.unit_index, self._em
        index = self._table.domain_index
        size = index.max() + 1
        z, y, w = np.indices((n, n, n)).reshape(3, -1)
        off = (z != e) | (y != w)
        z, y, w = z[off], y[off], w[off]
        codes = _distinct(index[y, m[z], w] * size + index[z, m[y], w])
        premise, conclusion = np.divmod(codes, size)
        swapped = conclusion * size + premise
        both = codes[np.minimum(np.searchsorted(codes, swapped), len(codes) - 1)] == swapped
        # each entry's least partner: min-label propagation with shortcuts
        label = np.arange(size)
        p, q = premise[both], conclusion[both]
        while (label[p] != label[q]).any():
            low = np.minimum(label[p], label[q])
            np.minimum.at(label, p, low)
            np.minimum.at(label, q, low)
            label = label[label]
        joined = np.flatnonzero(label != np.arange(size))
        return np.stack([joined, label[joined]]), np.stack([premise[~both], conclusion[~both]])

    def verdicts(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hyperfield, 4-full, star): condition A, then one walk of `_blocks`.

        The pair (ru, rv) is the triple (u, v, r^-1), so scaling a test by r
        only moves t, and the pair (r, ra) is the triple (1, a, r^-1), so
        every test has a copy whose first hexagon is hex(1, a, t).  Let
        M_e[a, b, w] = M[a, unit*b, w]:
        - star: for all (a, b, c) some u has hex(u, ua) and hex(ub, uc)
          selected, so star holds iff M is true everywhere.
        - 4-full: for all (b, c, d) but b = unit, c = unit*d, some t has
          hex(1, b, unit*t) and hex(c, d, t) selected.  Scaled by the unit
          that is every entry of M_e but (unit, w, w), `_diag`.
        - condition B: any two distinct selected pairs (x, y) and (z, w)
          have some t with hex(x, unit*z, t) and hex(unit*y, w, t)
          selected.  In the copies with x = 1 and Z = unit*z, the premises
          are M[y, z, w] = M_e[y, Z, w] and the conclusion M_e[Z, y, w].  So
          B fails iff some (Z, y, w) other than (unit, y, y), the two equal
          pairs, has M_e[y, Z, w] and not M_e[Z, y, w]: `_b_pairs`.  A
          4-full nullset passes B.
        Each reducer reads the domain through the unit's index lists:
        4-full ANDs every entry but `_diag` (`_unit_row`), star ANDs `_diag`
        in as well."""
        u = self.unit_index
        x = _packed(ns)
        pairs = np.bitwise_or.reduce(x[self._hid3[:, :, 0]], axis=1)  # [x]: some (x, y) selected
        hyper = np.bitwise_and.reduce(np.delete(pairs, u, axis=0), axis=0)  # every x but the unit
        full4, diag = np.empty((2, x.shape[1]), dtype=x.dtype)
        lo, hi, kept = self._unit_row
        equal, implied = self._b_pairs
        for k0, d in self._blocks(x):
            words = slice(k0, k0 + d.shape[1])
            full4[words] = (np.bitwise_and.reduce(d[:lo], axis=0) & np.bitwise_and.reduce(d[hi:], axis=0)
                            & np.bitwise_and.reduce(np.take(d, kept, axis=0), axis=0))
            diag[words] = np.bitwise_and.reduce(np.take(d, self._diag, axis=0), axis=0)
            hyper[words] &= ~(_any(np.bitwise_xor, d, equal) | _any(_and_not, d, implied))
        if self.group.order == 1:
            full4 &= np.bitwise_or.reduce(x, axis=0)  # F2 is excluded by definition
        return tuple(_unpacked(words, len(ns)) for words in (hyper, full4, full4 & diag))

    def is_hyperfield(self, ns: np.ndarray) -> np.ndarray:
        return self.verdicts(ns)[0]

    # -- brute-force axiom oracle -----------------------------------------

    def axiom_oracle(self, ns: np.ndarray) -> np.ndarray:
        """`_axioms_hold` on blocks of at most 64 rows within 4 * _BLOCK_ELEMENTS
        bytes, or one row.  On census probe rows, blocks of 41 / 64 / the full
        budget ran 119k / 134k / 92k rows/s at Z9 and 92k / 101k / 63k at Z10
        (one thread, 2-vCPU Xeon VM with 2 MiB L2): full blocks spill it."""
        step = max(1, min(64, 4 * _BLOCK_ELEMENTS // (20 * (self.group.order + 1) ** 3)))
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
        return hexagon_permutations(self._table,
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
