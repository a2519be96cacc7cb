"""The four small named hyperfields, their additions and their predicates."""

from hexafield import (field_f2, field_f3, krasner, pasture_verdicts,
                       reconstruct_addition, satisfies_star, sign_hyperfield)

for name, p in [("F2", field_f2()), ("K", krasner()),
                ("F3", field_f3()), ("S", sign_hyperfield())]:
    table = reconstruct_addition(p)
    print(f"== {name}  (group {p.group.literal}, eps index {p.unit_index}, "
          f"nullset {p.nullset:#x})")
    print(table.dump_text())
    verdicts = pasture_verdicts(p)
    print("hyperfield:", verdicts["is_hyperfield"],
          " field:", verdicts["is_field"],
          " 4full:", verdicts["is_4full"],
          " 0/0:", verdicts["is_00"],
          " star:", satisfies_star(p))
    print()

# in the sign hyperfield 1 + (-1) covers the whole carrier
s = sign_hyperfield()
table = reconstruct_addition(s)
print("in S, 1 + (-1) =", sorted(table.sum_set(1, s.unit_index + 1)))
