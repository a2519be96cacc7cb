"""Finite abelian groups in invariant-factor form.

A group is an ordered tuple of invariant factors d1 | d2 | ... | dm (empty
tuple for the trivial group); elements are residue vectors of the same
length.  The lexicographic order on residue vectors fixes the element
indices 0..n-1 that every table in this package relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import CapacityError

# candidate generator tuples times group order that automorphism enumeration
# may take on; the tuples bound |Aut|, so this also bounds the image array
AUTOMORPHISM_WORK_CAP = 1 << 21


@dataclass(frozen=True)
class AbelianGroup:
    """Z_d1 x ... x Z_dm with d1 | d2 | ... | dm, written additively inside."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} is < 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain; {a} does not divide {b}"
                )

    # -- basic structure ---------------------------------------------------

    @cached_property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    @cached_property
    def literal(self) -> str:
        """Round-trippable name, e.g. "Z2xZ4"; the trivial group is "Z1"."""
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    @classmethod
    def from_literal(cls, text: str) -> "AbelianGroup":
        parts = text.strip().split("x")
        factors = []
        for part in parts:
            part = part.strip()
            if not part.startswith("Z") or not part[1:].isdigit():
                raise ValueError(f"bad group literal {text!r}")
            factors.append(int(part[1:]))
        if factors == [1]:
            return cls(())
        return cls(tuple(factors))

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        return cls(()) if n == 1 else cls((n,))

    def __repr__(self):
        return f"AbelianGroup({self.literal})"

    # -- elements ----------------------------------------------------------

    def element(self, residues) -> "GroupElement":
        residues = tuple(int(r) for r in residues)
        if len(residues) != self.rank:
            raise ValueError(
                f"residue vector length {len(residues)} != rank {self.rank} of {self.literal}"
            )
        residues = tuple(r % d for r, d in zip(residues, self.invariant_factors))
        return GroupElement(self, residues)

    @cached_property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element_by_index(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self.literal}")
        residues = []
        for d in reversed(self.invariant_factors):
            residues.append(index % d)
            index //= d
        return GroupElement(self, tuple(reversed(residues)))

    def elements(self):
        """All elements in index (= lexicographic residue) order."""
        for residues in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, residues)

    # -- index-level tables ------------------------------------------------

    @cached_property
    def residue_matrix(self) -> np.ndarray:
        """(order, rank) int array; row i is the residue vector of element i."""
        rows = np.array(
            list(itertools.product(*(range(d) for d in self.invariant_factors))),
            dtype=np.int64,
        )
        return rows.reshape(self.order, self.rank)

    @cached_property
    def _weights(self) -> np.ndarray:
        # mixed-radix place values so index = residues . weights
        ws = []
        w = 1
        for d in reversed(self.invariant_factors):
            ws.append(w)
            w *= d
        return np.array(list(reversed(ws)), dtype=np.int64)

    def index_of(self, residues) -> int:
        return int(
            sum(
                (int(r) % d) * w
                for r, d, w in zip(residues, self.invariant_factors, self._weights)
            )
        )

    @cached_property
    def mul_array(self) -> np.ndarray:
        """(n, n) table of element indices for the group operation."""
        n = self.order
        if self.rank == 0:
            return np.zeros((1, 1), dtype=np.int64)
        r = self.residue_matrix
        dims = np.array(self.invariant_factors, dtype=np.int64)
        summed = (r[:, None, :] + r[None, :, :]) % dims
        return (summed @ self._weights).reshape(n, n)

    @cached_property
    def inv_array(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(1, dtype=np.int64)
        dims = np.array(self.invariant_factors, dtype=np.int64)
        negged = (-self.residue_matrix) % dims
        return negged @ self._weights

    def element_order(self, index: int) -> int:
        e = self.element_by_index(index)
        return lcm(*(d // gcd(d, r) for d, r in zip(self.invariant_factors, e.residues))) if self.rank else 1

    # -- torsion and units -------------------------------------------------

    def torsion_count(self, k: int) -> int:
        """#{g : g^k = 1} by the closed form prod gcd(d_i, k)."""
        if k < 1:
            raise ValueError(f"torsion exponent must be >= 1, got {k}")
        return prod(gcd(d, k) for d in self.invariant_factors)

    def units_of_order_le_2(self) -> tuple["GroupElement", ...]:
        """Candidate distinguished units: the 2-torsion subgroup, in index order."""
        return tuple(g for g in self.elements()
                     if all(2 * r % d == 0 for r, d in zip(g.residues, self.invariant_factors)))

    # -- automorphisms -----------------------------------------------------

    def automorphisms(self) -> tuple["GroupAutomorphism", ...]:
        """Views of the automorphism image array, in row order, built once per group object."""
        return self._automorphism_views

    @cached_property
    def _automorphism_views(self) -> tuple["GroupAutomorphism", ...]:
        return tuple(GroupAutomorphism(self, tuple(row)) for row in _automorphisms(self).tolist())

    def __hash__(self):
        return hash(self.invariant_factors)


@dataclass(frozen=True)
class GroupElement:
    """An element of an AbelianGroup, stored as its residue vector."""

    group: AbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != self.group.rank:
            raise ValueError("residue vector length does not match the group rank")
        for r, d in zip(self.residues, self.group.invariant_factors):
            if not 0 <= r < d:
                raise ValueError(f"residue {r} out of range for factor {d}")

    @cached_property
    def index(self) -> int:
        return self.group.index_of(self.residues)

    @property
    def is_identity(self) -> bool:
        return all(r == 0 for r in self.residues)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(
            self.group,
            tuple((a + b) % d for a, b, d in zip(self.residues, other.residues, self.group.invariant_factors)),
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple((-a) % d for a, d in zip(self.residues, self.group.invariant_factors)),
        )

    def __repr__(self):
        return f"<{','.join(map(str, self.residues))}>" if self.residues else "<>"


def _check_multiplicative(images, src: AbelianGroup, dst: AbelianGroup) -> None:
    """Raise unless every row of images is a multiplicative map src -> dst.

    Checks f(g b) = f(g) f(b) for every b and every g among the standard
    generators and 1; g = 1 forces f(1) = 1, and induction on word length
    then gives f(a b) = f(a) f(b) for every a."""
    images = np.asarray(images, dtype=np.int64)
    if images.shape[-1:] != (src.order,):
        raise ValueError("image table must list an image for every source element")
    gens = np.append(src._weights, 0)  # index of the i-th standard generator, then 1
    lhs = images[..., src.mul_array[gens]]
    if (lhs != dst.mul_array[images[..., gens, None], images[..., None, :]]).any():
        raise ValueError("image table is not multiplicative")


@dataclass(frozen=True)
class GroupAutomorphism:
    """A bijective multiplicative self-map, stored as a full image table."""

    group: AbelianGroup
    images: tuple[int, ...]

    def __post_init__(self):
        n = self.group.order
        if len(self.images) != n or sorted(self.images) != list(range(n)):
            raise ValueError("image table is not a permutation of the group")
        _check_multiplicative(self.images, self.group, self.group)

    @property
    def is_identity(self) -> bool:
        return all(i == j for j, i in enumerate(self.images))

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.group != self.group:
            raise ValueError("element belongs to a different group")
        return self.group.element_by_index(self.images[g.index])

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: x -> self(other(x))."""
        if self.group != other.group:
            raise ValueError("automorphisms of different groups do not compose")
        return GroupAutomorphism(self.group, tuple(self.images[i] for i in other.images))

    def inverse(self) -> "GroupAutomorphism":
        return GroupAutomorphism(self.group, tuple(np.argsort(self.images).tolist()))


@lru_cache(maxsize=None)
def _automorphisms(group: AbelianGroup) -> np.ndarray:
    """Read-only (|Aut|, n) int64 array; row j is the image table of the j-th
    automorphism, ordered as itertools.product orders its generator images."""
    n = group.order
    # an automorphism sends the i-th standard generator to an element of
    # order exactly d_i
    candidates = [[j for j in range(n) if group.element_order(j) == d]
                  for d in group.invariant_factors]
    tuples = prod(len(c) for c in candidates)
    if tuples * n > AUTOMORPHISM_WORK_CAP:
        raise CapacityError(f"automorphisms of {group.literal} would take {tuples} generator "
                            f"tuples x {n} elements; cap is {AUTOMORPHISM_WORK_CAP}")
    gen_images = np.array(list(itertools.product(*candidates)), dtype=np.int64)
    res = group.residue_matrix
    imaged = res @ res[gen_images]  # (tuples, n, rank)
    imaged %= np.array(group.invariant_factors, dtype=np.int64)
    tables = imaged @ group._weights
    tables = tables[(np.sort(tables, axis=1) == np.arange(n)).all(axis=1)]
    _check_multiplicative(tables, group, group)
    tables.flags.writeable = False
    return tables


def automorphisms_fixing(group: AbelianGroup, unit_index: int) -> np.ndarray:
    """Rows of the automorphism image array with f(unit) = unit."""
    autos = _automorphisms(group)
    return autos[autos[:, unit_index] == unit_index]


def abelian_groups_up_to(max_order: int) -> tuple[AbelianGroup, ...]:
    """Every abelian group of order <= max_order, ordered by (order, factors)."""
    found = [()]

    def rec(chain, prod_now):
        # extend a divisibility chain d1 | d2 | ... ; the next factor is a
        # multiple of the last one
        step = chain[-1] if chain else 1
        d = step if chain else 2
        while prod_now * d <= max_order:
            new = chain + (d,)
            found.append(new)
            rec(new, prod_now * d)
            d += step

    rec((), 1)
    groups = [AbelianGroup(f) for f in found]
    groups.sort(key=lambda g: (g.order, g.invariant_factors))
    return tuple(groups)
