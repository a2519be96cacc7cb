"""Products of pastures, and when the product of hyperfields stays one."""

from hexafield import (abelian_groups_up_to, all_pastures, field_f2, field_f3,
                       krasner, pasture_verdicts, product,
                       product_theorem_verdict, sign_hyperfield)

named = [("F2", field_f2()), ("K", krasner()),
         ("F3", field_f3()), ("S", sign_hyperfield())]

print(f"{'':<4}" + "".join(f"{n:>6}" for n, _ in named))
for n1, p1 in named:
    row = [f"{n1:<4}"]
    for n2, p2 in named:
        r = product(p1, p2)
        row.append(f"{'yes' if pasture_verdicts(r)['is_hyperfield'] else 'no':>6}")
    print("".join(row))

# the verdict predicts hyperfield-ness without building the product
agreements = 0
hyperfields = []
for g in abelian_groups_up_to(3):
    for unit in g.units_of_order_le_2():
        hyperfields.extend(p for p in all_pastures(g, unit)
                           if pasture_verdicts(p)["is_hyperfield"])
for h1 in hyperfields:
    for h2 in hyperfields:
        assert product_theorem_verdict(h1, h2) == \
            pasture_verdicts(product(h1, h2))["is_hyperfield"]
        agreements += 1
print(f"\nverdict agrees with the built product on all {agreements} ordered pairs")
