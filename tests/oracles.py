"""Single-pasture verdicts read from their definitions on the rebuilt addition.

Each oracle reads `reconstruct_addition(p).masks`, where masks[a][b] is the
bitset of a + b over carrier indices: 0 is zero and i + 1 is group element
i.  They share no code with the batch kernels, whose 4-full, 0/0 and field
verdicts they check.
"""

from hexafield.pastures import axiom_oracle, reconstruct_addition


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def one_plus_minus_one(p) -> int:
    """The carrier bitset of 1 + (-1)."""
    return reconstruct_addition(p).masks[1][p.unit_index + 1]


def is_4full(p) -> bool:
    """0 lies in a + b + c + d for all nonzero a, b, c, d: some s in a + b
    has -s in c + d.  F2 is excluded by definition."""
    g = p.group
    if g.order == 1 and p.nullset == 0:
        return False
    masks = reconstruct_addition(p).masks
    neg = [0] + [int(g.mul_array[p.unit_index, x]) + 1 for x in range(g.order)]
    sums = {masks[a][b] for a in range(1, g.order + 1) for b in range(1, g.order + 1)}
    negated = {sum(1 << neg[i] for i in _members(m)) for m in sums}
    return all(s & t for s in sums for t in negated)


def is_zero_over_zero(p) -> bool:
    """The ratios r/s of nonzero elements r, s of 1 + (-1) cover the group."""
    g = p.group
    nonzero = [i - 1 for i in _members(one_plus_minus_one(p)) if i]
    m, inv = g.mul_array, g.inv_array
    return len({int(m[r, inv[s]]) for r in nonzero for s in nonzero}) == g.order


def is_field(p) -> bool:
    """A hyperfield by the axioms whose 1 + (-1) is {0}."""
    return axiom_oracle(p) and one_plus_minus_one(p) == 1
