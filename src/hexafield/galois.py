"""Finite fields, quotient pastures F_q mod a subgroup, and the quotient decider."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .batch import Kernels, kernels_for
from .errors import CapacityError
from .groups import AbelianGroup
from .hexagons import build_table
from .morphisms import are_isomorphic
from .pastures import Pasture, _nullset_row, _row_nullset

FIELD_SIZE_CAP = 10 ** 6
DECIDER_ORDER_CAP = 9
# when 1 + (-1) is everything the quartic bound says nothing; still search this far
EXTENDED_SEARCH_FLOOR = 64


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = _prime_factors(q)
    if len(fac) != 1:
        return None
    p = fac[0]
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


@dataclass(frozen=True)
class FiniteField:
    """F_{p^k} as residues mod a monic irreducible; element id = sum c_i p^i."""

    p: int
    k: int
    modulus: tuple[int, ...]  # little-endian incl. leading 1, length k+1
    generator: int

    @property
    def q(self) -> int:
        return self.p ** self.k

    @cached_property
    def _pows(self) -> np.ndarray:
        return self.p ** np.arange(self.k, dtype=np.int64)

    @property
    def neg_one(self) -> int:
        return self.p - 1 if self.p > 2 else 1

    def _digits(self, a) -> np.ndarray:
        """Base-p digits of element ids along a new last axis, little-endian."""
        return (np.asarray(a)[..., None] // self._pows) % self.p

    def add(self, a, b):
        return ((self._digits(a) + self._digits(b)) % self.p) @ self._pows

    def neg(self, a):
        return (-self._digits(a) % self.p) @ self._pows

    def mul(self, a: int, b: int) -> int:
        pa = _id_to_poly(a, self.p, self.k)
        pb = _id_to_poly(b, self.p, self.k)
        return _poly_to_id(_poly_mulmod(pa, pb, self.modulus, self.p), self.p)

    def pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    @cached_property
    def exp_table(self) -> np.ndarray:
        """exp_table[i] = generator^i, length q-1.

        Multiplication by a fixed c is F_p-linear on digit vectors: row i of
        its matrix is the digits of p^i c.  Given g^0 .. g^(m-1), one matrix
        product with c = g^m yields g^m .. g^(2m-1).
        """
        n, p = self.q - 1, self.p
        digits = np.zeros((n, self.k), dtype=np.int64)
        digits[0, 0] = 1
        m, gm = 1, self.generator
        while m < n:
            step = self._digits([self.mul(p ** i, gm) for i in range(self.k)])
            block = min(m, n - m)
            digits[m:m + block] = digits[:block] @ step % p
            m, gm = m + block, self.mul(gm, gm)
        return digits @ self._pows

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        ord_ = self.q - 1
        for r in _prime_factors(self.q - 1):
            while ord_ % r == 0 and self.pow(a, ord_ // r) == 1:
                ord_ //= r
        return ord_


def _id_to_poly(a: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _poly_to_id(coeffs, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return prod[:k] + [0] * (k - len(prod))


def _poly_divides(d: list[int], f: list[int], p: int) -> bool:
    """Does monic d divide monic f over F_p?"""
    rem = list(f)
    dd = len(d) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * d[j]) % p
    return not any(rem[:dd])


def _irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for deg in range(1, k // 2 + 1):
        for m in range(p ** deg):
            d = _id_to_poly(m, p, deg) + [1]
            if _poly_divides(d, f, p):
                return False
    return True


@lru_cache(maxsize=None)
def build_field(p: int, k: int) -> FiniteField:
    if p < 2 or _prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("degree must be positive")
    q = p ** k
    if q > FIELD_SIZE_CAP:
        raise CapacityError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
    for m in range(q):
        f = _id_to_poly(m, p, k) + [1]
        if _irreducible(f, p):
            modulus = tuple(f)
            break
    else:
        raise AssertionError("no irreducible polynomial found")
    field = FiniteField(p, k, modulus, generator=1)
    # 1 has order q - 1 only in F_2
    for cand in range(1, q):
        if field.element_order(cand) == q - 1:
            return FiniteField(p, k, modulus, generator=cand)
    raise AssertionError("no generator found")


@dataclass(frozen=True)
class QuotientSpec:
    field: FiniteField
    index: int

    def __post_init__(self):
        if self.index < 1 or (self.field.q - 1) % self.index:
            raise ValueError(
                f"index {self.index} does not divide {self.field.q - 1}")


def quotient_hyperfield(spec: QuotientSpec) -> Pasture:
    """F_q mod the index-n subgroup of its units, as a pasture on Z_n.

    Class labels are discrete logs mod n for the field's canonical generator;
    the unit is the class of -1; a pair (u, v) is selected when some nonzero
    a in class u and b in class v have a + b = -1.
    """
    fld, n = spec.field, spec.index
    group = AbelianGroup.cyclic(n)
    # raises CapacityError past TABLE_ORDER_CAP before the (n, n) array exists
    table = build_table(group)
    cls = np.full(fld.q, -1, dtype=np.int64)
    cls[fld.exp_table] = np.arange(fld.q - 1) % n
    a_ids = fld.exp_table
    b_ids = fld.add(fld.neg_one, fld.neg(a_ids))
    keep = b_ids != 0
    sel = np.zeros((n, n), dtype=bool)
    sel[cls[a_ids[keep]], cls[b_ids[keep]]] = True
    row = np.zeros(table.size, dtype=bool)
    row[table.pair_to_hex[sel]] = True
    if (row[table.pair_to_hex] != sel).any():
        raise AssertionError("coset sum relation must be constant on a hexagon")
    eps = group.element_by_index(int(cls[fld.neg_one]))
    if not kernels_for(group, eps.index).is_hyperfield(row[None])[0]:
        raise AssertionError("a finite-field quotient must be a hyperfield")
    return Pasture(group, eps, _row_nullset(row))


@dataclass(frozen=True)
class QuotientVerdict:
    status: str  # "quotient", "not_quotient", or "inconclusive_full_sum"
    witness: QuotientSpec | None = None

    def __post_init__(self):
        if (self.status == "quotient") != (self.witness is not None):
            raise ValueError("quotient status must carry its witness")


def one_minus_one_is_everything(pasture: Pasture) -> bool:
    """Does the nonzero part of 1 + (-1) cover the whole group?"""
    kernels = Kernels(pasture.group, pasture.unit_index)
    return bool(kernels.one_plus_minus_one(_nullset_row(pasture.nullset, kernels.n_hex)).all())


def is_quotient_of_finite_field(
        pasture: Pasture, extended_bound: int | None = None) -> QuotientVerdict:
    """Search for (q, n) with pasture isomorphic to F_q mod its index-n subgroup.

    Candidates run over prime powers q with n | q-1 in increasing order, so a
    hit always reports the least q.  When 1 + (-1) misses some element the
    search out to q - 1 = n^4 is exhaustive and a miss is a definite no; when
    it misses nothing the quartic bound does not apply and a miss is only
    inconclusive, however far we looked.  That extended search runs to
    q - 1 = extended_bound, and raises before building any field when the
    last q would exceed FIELD_SIZE_CAP.
    """
    if extended_bound is not None and extended_bound < 0:
        raise ValueError(f"extended bound must be >= 0, got {extended_bound}")
    group = pasture.group
    n = group.order
    if n > DECIDER_ORDER_CAP:
        raise CapacityError(f"decider is capped at order {DECIDER_ORDER_CAP}, got {n}")
    if not group.is_cyclic:
        # every quotient of the cyclic group F_q^x is cyclic
        return QuotientVerdict("not_quotient")
    full_sum = one_minus_one_is_everything(pasture)
    bound = n ** 4
    if full_sum:
        bound = extended_bound if extended_bound is not None else max(bound, EXTENDED_SEARCH_FLOOR)
        if bound + 1 > FIELD_SIZE_CAP:
            raise CapacityError(f"search to q = {bound + 1} exceeds field size cap {FIELD_SIZE_CAP}")
    for q in range(2, bound + 2):
        if (q - 1) % n:
            continue
        pk = factor_prime_power(q)
        if pk is None:
            continue
        spec = QuotientSpec(build_field(*pk), n)
        candidate = quotient_hyperfield(spec)
        if are_isomorphic(pasture, candidate):
            return QuotientVerdict("quotient", spec)
    return QuotientVerdict("inconclusive_full_sum" if full_sum else "not_quotient")
