"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 capacity error, 64 usage error.
All output is deterministic for a fixed seed and thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .batch import pasture_verdicts
from .errors import CapacityError
from .galois import (QuotientSpec, build_field, factor_prime_power,
                     is_quotient_of_finite_field, quotient_hyperfield)
from .groups import AbelianGroup, GroupElement
from .hexagons import hexagon_count_formula
from .lottery import EVENT_NAMES, LotterySpec, census, class_table, estimate
from .products import product, product_theorem_verdict
from .serialize import (CENSUS_FIELDS, CLASSIFY_FIELDS, census_to_row,
                        classify_row, dumps_pasture, estimate_to_dict,
                        load_pasture_file)
from .skew import BUILTIN_GROUPS, from_abelian, skew_bound, skew_hexagons

USAGE_EXIT = 64

EVENT_ALIASES = {
    "star": "satisfies_star",
    "hyperfield": "is_hyperfield",
    "field": "is_field",
    "alleps": "all_eps_hexagons",
    "auto": "has_nontrivial_automorphism",
}


def _parse_eps(group: AbelianGroup, text: str | None) -> GroupElement:
    if text is None:
        return group.identity
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"epsilon must be comma-separated residues, got {text!r}")
    if group.rank == 0 and parts == [0]:
        return group.identity
    return group.element(parts)


def _write_csv(stream, fields, rows) -> None:
    writer = csv.DictWriter(stream, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def _dump_json(stream, data) -> None:
    stream.write(json.dumps(data, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexafield",
        description="Finite multiplicative groups, hexagon nullsets, and the "
                    "hyperfields they reconstruct.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hexcount", help="number of hexagons over an abelian group")
    p.add_argument("--group", required=True)

    p = sub.add_parser("census", help="exhaustive counts per unit as CSV")
    p.add_argument("--group", required=True)
    p.add_argument("--eps", default=None)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("lottery", help="Monte Carlo estimate of an event probability")
    p.add_argument("--group", required=True)
    p.add_argument("--eps", default=None)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--event", required=True)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("check", help="predicates of a pasture file")
    p.add_argument("--pasture", required=True)

    p = sub.add_parser("quotient", help="quotient of a finite field by a subgroup index")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("isquotient", help="decide whether a pasture is a finite-field quotient")
    p.add_argument("--pasture", required=True)
    p.add_argument("--bound", default="auto")

    p = sub.add_parser("product", help="product pasture of two pasture files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("skewhex", help="hexagon orbit counts over a possibly non-abelian group")
    p.add_argument("--group", required=True)

    p = sub.add_parser("classify", help="isomorphism classes per unit as CSV")
    p.add_argument("--group", required=True)
    p.add_argument("--eps", default=None)
    p.add_argument("--all", action="store_true",
                   help="include classes that are not hyperfields")
    p.add_argument("--threads", type=int, default=None)
    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so every run shares it


def _cmd_hexcount(ns, out):
    group = AbelianGroup.from_literal(ns.group)
    out.write(f"{hexagon_count_formula(group)}\n")


def _group_and_units(ns) -> tuple[AbelianGroup, list[GroupElement]]:
    """--group, and the --eps unit or else every unit of order <= 2."""
    group = AbelianGroup.from_literal(ns.group)
    if ns.eps is not None:
        return group, [_parse_eps(group, ns.eps)]
    return group, list(group.units_of_order_le_2())


def _cmd_census(ns, out):
    group, units = _group_and_units(ns)
    rows = [census_to_row(census(group, u, threads=ns.threads)) for u in units]
    _write_csv(out, CENSUS_FIELDS, rows)


def _cmd_lottery(ns, out):
    group = AbelianGroup.from_literal(ns.group)
    unit = _parse_eps(group, ns.eps)
    event = EVENT_ALIASES.get(ns.event, ns.event)
    if event not in EVENT_NAMES:
        known = ", ".join(sorted(EVENT_NAMES) + sorted(EVENT_ALIASES))
        raise ValueError(f"unknown event {ns.event!r}; known: {known}")
    spec = LotterySpec(group, unit, ns.seed, ns.samples)
    _dump_json(out, estimate_to_dict(estimate(spec, event, threads=ns.threads)))


def _cmd_check(ns, out):
    verdicts = pasture_verdicts(load_pasture_file(ns.pasture))
    out.write(" ".join(f"{k}={str(v).lower()}" for k, v in verdicts.items()) + "\n")


def _cmd_quotient(ns, out):
    pk = factor_prime_power(ns.q)
    if pk is None:
        raise ValueError(f"{ns.q} is not a prime power")
    field = build_field(*pk)
    out.write(dumps_pasture(quotient_hyperfield(QuotientSpec(field, ns.index))))


def _cmd_isquotient(ns, out):
    p = load_pasture_file(ns.pasture)
    if ns.bound == "auto":
        bound = None
    else:
        try:
            bound = int(ns.bound)
        except ValueError:
            raise ValueError(f"--bound must be an integer or 'auto', got {ns.bound!r}")
    verdict = is_quotient_of_finite_field(p, extended_bound=bound)
    data = {"status": verdict.status, "witness": None}
    if verdict.witness is not None:
        data["witness"] = {"q": verdict.witness.field.q,
                           "index": verdict.witness.index}
    _dump_json(out, data)


def _cmd_product(ns, out):
    p1 = load_pasture_file(ns.a)
    p2 = load_pasture_file(ns.b)
    result = product(p1, p2)
    verdicts = pasture_verdicts(result)
    both_hyper = all(pasture_verdicts(p)["is_hyperfield"] for p in (p1, p2))
    extra = {
        "is_hyperfield": verdicts["is_hyperfield"],
        "is_00": verdicts["is_00"],
        "theorem_verdict": product_theorem_verdict(p1, p2) if both_hyper else None,
    }
    out.write(dumps_pasture(result, extra=extra))


def _cmd_skewhex(ns, out):
    if ns.group in BUILTIN_GROUPS:
        g = BUILTIN_GROUPS[ns.group]()
    else:
        g = from_abelian(AbelianGroup.from_literal(ns.group))
    table = skew_hexagons(g)
    _dump_json(out, {
        "group": g.name,
        "order": g.order,
        "orbits": table.size,
        "bound": None if g.is_abelian else skew_bound(g),
        "sizes": list(table.sizes()),
    })


def _cmd_classify(ns, out):
    group, units = _group_and_units(ns)
    rows = []
    for unit in units:
        for row in class_table(group, unit, hyper_only=not ns.all,
                               threads=ns.threads):
            rows.append(classify_row(row))
    _write_csv(out, CLASSIFY_FIELDS, rows)


_COMMANDS = {
    "hexcount": _cmd_hexcount,
    "census": _cmd_census,
    "lottery": _cmd_lottery,
    "check": _cmd_check,
    "quotient": _cmd_quotient,
    "isquotient": _cmd_isquotient,
    "product": _cmd_product,
    "skewhex": _cmd_skewhex,
    "classify": _cmd_classify,
}


def run(argv, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_EXIT
    try:
        _COMMANDS[ns.command](ns, out)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
