"""Acceptance gate: one test per numbered criterion, timed where required."""

import io
import itertools
from time import perf_counter

import oracles

from hexafield.batch import kernels_for
from hexafield.cli import run
from hexafield.galois import (QuotientSpec, build_field, factor_prime_power,
                              is_quotient_of_finite_field,
                              one_minus_one_is_everything, quotient_hyperfield)
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table, hexagon_count_formula
from hexafield.lottery import census, sample_bits, wilson_interval
from hexafield.morphisms import are_isomorphic, pasture_automorphisms
from hexafield.pastures import (all_pastures, axiom_oracle, fetvins_exhaustive,
                                field_f2, field_f3, is_hyperfield_fast, krasner,
                                reconstruct_addition, satisfies_star,
                                sign_hyperfield)
from hexafield.products import product, product_theorem_verdict
from hexafield.serialize import dumps_pasture
from hexafield.skew import (alternating_4, burnside_orbit_count, dihedral,
                            from_abelian, quaternion_8, skew_bound,
                            skew_hexagons, symmetric_3)

SAMPLES = 10_000
SEED = 42


def groups_of_order_up_to(n):
    return abelian_groups_up_to(n)


def every_unit(group):
    return list(group.units_of_order_le_2())


def test_criterion_01_hexagon_count_formula():
    t0 = perf_counter()
    groups = groups_of_order_up_to(16)
    assert len(groups) >= 21
    for g in groups:
        assert build_table(g).size == hexagon_count_formula(g), g.literal
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 01: PASS  formula == enumeration on {len(groups)} "
          f"groups of order <= 16 in {elapsed:.2f}s")


def random_panel():
    """Seeded random nullsets for Z6..Z9, 10^4 per (group, unit)."""
    panel = []
    for lit in ["Z6", "Z7", "Z8", "Z9"]:
        g = AbelianGroup.from_literal(lit)
        width = build_table(g).size
        for unit in every_unit(g):
            bits = sample_bits(SEED, 0, SAMPLES, width)
            panel.append((g, unit, kernels_for(g, unit.index), bits))
    return panel


def test_criterion_02_characterization_equivalence():
    t0 = perf_counter()
    checked = 0
    for g in groups_of_order_up_to(5):
        for unit in every_unit(g):
            for p in all_pastures(g, unit):
                assert is_hyperfield_fast(p) == axiom_oracle(p), \
                    (g.literal, unit.index, p.nullset)
                checked += 1
    random_checked = 0
    for g, unit, kernels, bits in random_panel():
        fast = kernels.is_hyperfield(bits)
        oracle = kernels.axiom_oracle(bits)
        assert (fast == oracle).all(), (g.literal, unit.index)
        random_checked += len(bits)
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 02: PASS  fast check == axiom oracle on {checked} "
          f"exhaustive and {random_checked} random pastures in {elapsed:.1f}s")


def test_criterion_03_star_equivalence():
    checked = 0
    for g in groups_of_order_up_to(5):
        for unit in every_unit(g):
            for p in all_pastures(g, unit):
                if not is_hyperfield_fast(p):
                    continue
                assert satisfies_star(p) == (oracles.is_4full(p)
                                             and oracles.is_zero_over_zero(p)), \
                    (g.literal, unit.index, p.nullset)
                checked += 1
    for g, unit, kernels, bits in random_panel():
        hyper = kernels.is_hyperfield(bits)
        star = kernels.satisfies_star(bits)
        both = kernels.is_4full(bits) & kernels.is_zero_over_zero(bits)
        assert (star[hyper] == both[hyper]).all(), (g.literal, unit.index)
        checked += int(hyper.sum())
    print(f"criterion 03: PASS  star == 4full & 0/0 on {checked} hyperfields")


def test_criterion_04_small_censuses():
    cases = [("Z2", (1,), 3), ("Z2", (0,), 2), ("Z1", (), 2)]
    for lit, residues, want in cases:
        g = AbelianGroup.from_literal(lit)
        unit = g.element(residues)
        hypers = [p for p in all_pastures(g, unit) if axiom_oracle(p)]
        assert len(hypers) == want, (lit, residues)
        assert census(g, unit).hyperfields == want

    t = AbelianGroup.from_literal("Z1")
    trivial = {p.nullset for p in all_pastures(t, t.element(()))
               if axiom_oracle(p)}
    assert trivial == {field_f2().nullset, krasner().nullset}

    for lit, residues, _ in cases:
        g = AbelianGroup.from_literal(lit)
        unit = g.element(residues)
        c = census(g, unit)
        n = g.order
        if n >= 2:
            assert (c.total_pastures - c.hyperfields) * 2 ** n >= c.total_pastures
        for p in all_pastures(g, unit):
            if axiom_oracle(p) and n >= 2:
                assert 6 * bin(p.nullset).count("1") >= n - 1
    print("criterion 04: PASS  censuses (3, 2, {F2, K}) and both lower bounds hold")


def conditional_rates(lit):
    g = AbelianGroup.from_literal(lit)
    k = kernels_for(g, 0)
    bits = sample_bits(SEED, 0, SAMPLES, build_table(g).size)
    hyper = k.is_hyperfield(bits)
    star = k.satisfies_star(bits)
    auto = k.event("has_nontrivial_automorphism", bits)
    n = int(hyper.sum())
    return (int((star & hyper).sum()), int((auto & hyper).sum()), n)


def overlapping(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def test_criterion_05_asymptotic_trends():
    t0 = perf_counter()
    rows = []
    for lit in ["Z5", "Z7", "Z9", "Z11", "Z13"]:
        s, a, n = conditional_rates(lit)
        rows.append((lit, s / n, wilson_interval(s, n),
                     a / n, wilson_interval(a, n)))
    for (_, s1, ci_s1, a1, ci_a1), (_, s2, ci_s2, a2, ci_a2) in \
            itertools.pairwise(rows):
        assert s2 >= s1 or overlapping(ci_s1, ci_s2)
        assert a2 <= a1 or overlapping(ci_a1, ci_a2)

    # small groups: the sampled rates must cover the exhaustive truth
    for lit, ui in [("Z2", 0), ("Z2", 1), ("Z3", 0)]:
        g = AbelianGroup.from_literal(lit)
        unit = g.element_by_index(ui)
        hypers = [p for p in all_pastures(g, unit) if is_hyperfield_fast(p)]
        exact_star = sum(satisfies_star(p) for p in hypers) / len(hypers)
        exact_auto = sum(len(pasture_automorphisms(p)) > 1
                         for p in hypers) / len(hypers)
        k = kernels_for(g, unit.index)
        bits = sample_bits(SEED, 0, SAMPLES, build_table(g).size)
        hyper = k.is_hyperfield(bits)
        n = int(hyper.sum())
        lo, hi = wilson_interval(int((k.satisfies_star(bits) & hyper).sum()), n)
        assert lo <= exact_star <= hi, (lit, ui)
        lo, hi = wilson_interval(
            int((k.event("has_nontrivial_automorphism", bits) & hyper).sum()), n)
        assert lo <= exact_auto <= hi, (lit, ui)
    elapsed = perf_counter() - t0
    assert elapsed < 300.0
    trend = " -> ".join(f"{s:.3f}" for _, s, *_ in rows)
    print(f"criterion 05: PASS  star|hyperfield {trend} in {elapsed:.1f}s")


def test_criterion_06_quotient_soundness():
    t0 = perf_counter()
    pairs = 0
    for q in range(2, 50):
        pk = factor_prime_power(q)
        if pk is None:
            continue
        field = build_field(*pk)
        for n in range(1, 10):
            if (q - 1) % n:
                continue
            pasture = quotient_hyperfield(QuotientSpec(field, n))
            assert axiom_oracle(pasture), (q, n)
            assert is_quotient_of_finite_field(pasture).status == "quotient", (q, n)
            pairs += 1

    assert are_isomorphic(
        quotient_hyperfield(QuotientSpec(build_field(2, 2), 1)), krasner())

    refused = 0
    for lit in ["Z1", "Z2", "Z3"]:
        g = AbelianGroup.from_literal(lit)
        for unit in every_unit(g):
            for p in all_pastures(g, unit):
                v = is_quotient_of_finite_field(p)
                if v.status == "not_quotient":
                    assert not one_minus_one_is_everything(p), \
                        (lit, unit.index, p.nullset)
                    refused += 1
    assert refused > 0
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 06: PASS  {pairs} quotients sound and self-recognized, "
          f"{refused} refusals all in the failed-full-sum branch, {elapsed:.1f}s")


def test_criterion_07_product_theorem():
    hyperfields = []
    for g in groups_of_order_up_to(3):
        for unit in every_unit(g):
            hyperfields.extend(p for p in all_pastures(g, unit)
                               if is_hyperfield_fast(p))
    assert len(hyperfields) == 16
    for h1 in hyperfields:
        for h2 in hyperfields:
            result = product(h1, h2)
            assert product_theorem_verdict(h1, h2) == is_hyperfield_fast(result), \
                (h1, h2)
            if oracles.is_zero_over_zero(h1) and oracles.is_zero_over_zero(h2):
                assert oracles.is_zero_over_zero(result)
    print("criterion 07: PASS  verdict == reality on all 256 ordered pairs")


def test_criterion_08_fetvins():
    checked = 0
    for g in groups_of_order_up_to(4):
        for unit in every_unit(g):
            for p in all_pastures(g, unit):
                if not (is_hyperfield_fast(p) and oracles.is_4full(p)
                        and oracles.is_zero_over_zero(p)):
                    continue
                table = reconstruct_addition(p)
                assert fetvins_exhaustive(table, 1), (g.literal, unit.index, p.nullset)
                assert fetvins_exhaustive(table, 2), (g.literal, unit.index, p.nullset)
                checked += 1
    assert checked > 0
    print(f"criterion 08: PASS  all m in {{1, 2}} systems solvable on "
          f"{checked} 4full & 0/0 hyperfields")


def test_criterion_09_skew_bounds():
    t0 = perf_counter()
    for g in [symmetric_3(), dihedral(4), quaternion_8(), dihedral(6),
              alternating_4()]:
        table = skew_hexagons(g)
        assert table.size <= skew_bound(g), g.name
        assert table.size == burnside_orbit_count(g), g.name
    for lit in ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z2xZ4", "Z3xZ3",
                "Z9", "Z12"]:
        ag = AbelianGroup.from_literal(lit)
        assert skew_hexagons(from_abelian(ag)).size == hexagon_count_formula(ag)
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 09: PASS  noncommutative counts within bound and equal to "
          f"Burnside; abelian wraps match the formula, {elapsed:.1f}s")


def test_criterion_10_thread_determinism(tmp_path, monkeypatch):
    sign_path = tmp_path / "s.json"
    sign_path.write_text(dumps_pasture(sign_hyperfield()), encoding="utf-8")
    f3_path = tmp_path / "f3.json"
    f3_path.write_text(dumps_pasture(field_f3()), encoding="utf-8")
    commands = [
        ["hexcount", "--group", "Z9"],
        ["census", "--group", "Z5"],
        ["lottery", "--group", "Z7", "--event", "star", "--samples", "3000"],
        ["check", "--pasture", str(sign_path)],
        ["quotient", "--q", "9", "--index", "2"],
        ["isquotient", "--pasture", str(f3_path)],
        ["product", "--a", str(f3_path), "--b", str(sign_path)],
        ["skewhex", "--group", "Q8"],
        ["classify", "--group", "Z5"],
    ]
    for argv in commands:
        outputs = []
        for threads in ["1", "4", "8"]:
            monkeypatch.setenv("HEXAFIELD_THREADS", threads)
            out = io.StringIO()
            assert run(argv, stdout=out) == 0, (argv, threads)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1] == outputs[2], argv
    print(f"criterion 10: PASS  {len(commands)} commands byte-identical "
          f"across 1, 4, 8 threads")
