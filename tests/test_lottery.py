import io
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest

from hexafield import lottery
from hexafield.errors import CapacityError
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import build_table
from hexafield.batch import Kernels, kernels_for
from hexafield.cli import run
from hexafield.lottery import (Census, Estimate, LotterySpec, census,
                               class_table, estimate, sample_bits,
                               sample_pasture, thread_count, wilson_interval)
from hexafield.morphisms import canonical_form, pasture_automorphisms
from hexafield.pastures import (_nullset_row, all_pastures, field_f3,
                                is_hyperfield_fast, satisfies_star,
                                sign_hyperfield)

Z2 = AbelianGroup.from_literal("Z2")
Z3 = AbelianGroup.from_literal("Z3")


def spec_for(lit, unit_index, samples, seed=42):
    g = AbelianGroup.from_literal(lit)
    return LotterySpec(g, g.element_by_index(unit_index), seed, samples)


def test_sampling_is_deterministic():
    bits = sample_bits(42, 0, 100, 13)
    again = sample_bits(42, 0, 100, 13)
    assert (bits == again).all()
    # chunk boundaries do not matter: the stream is keyed by sample index
    split = np.concatenate([sample_bits(42, 0, 37, 13), sample_bits(42, 37, 100, 13)])
    assert (bits == split).all()
    assert not (bits == sample_bits(43, 0, 100, 13)).all()


def philox_reference(seed, start, stop, width):
    """One np.random.Philox per sample, unpacked in sample_bits' bit order."""
    words = (width + 63) // 64
    raw = np.empty((stop - start, words), dtype=np.uint64)
    for row, i in enumerate(range(start, stop)):
        # a uint64 key array: a plain list holding an index >= 2^63 goes through float64
        key = np.array([seed % 2**64, i], dtype=np.uint64)
        raw[row] = np.random.Philox(key=key).random_raw(words)
    pos = np.arange(width)
    return (raw[:, pos // 64] >> (pos % 64).astype(np.uint64)) & np.uint64(1) > 0


def test_sampler_matches_numpy_philox():
    lo = int(np.random.default_rng(2024).integers(0, 2**63)) * 2
    windows = [(0, 300), (lo, lo + 300), (2**64 - 300, 2**64)]
    # 1 to 12 words, across the 4- and 8-word block boundaries; 715 is Z64's hexagon
    # count.  The last block holds 2 words at 65 and 128, 3 at 129 and 192, and 4 at
    # 256; 384 ends on a 2-word tail after a full block.
    widths = [1, 4, 35, 64, 65, 128, 129, 192, 256, 257, 384, 715]
    for seed in [0, 1, -3, 2**64 - 1, 2**64 + 5]:
        for start, stop in windows:
            for width in widths:
                got = sample_bits(seed, start, stop, width)
                assert got.shape == (stop - start, width)
                assert (got == philox_reference(seed, start, stop, width)).all(), \
                    (seed, start, width)


def test_sampler_split_is_invisible():
    for width in [4, 257, 715]:
        whole = sample_bits(5, 0, 33000, width)
        for cut in [1, 4095, 4096, 32767, 32768]:
            split = np.concatenate([sample_bits(5, 0, cut, width),
                                    sample_bits(5, cut, 33000, width)])
            assert (split == whole).all(), (width, cut)


def test_sampler_memory_per_row():
    # the rounds run in place on a fixed set of row arrays, and only the words
    # that are read are kept for the unpacking
    def peak(rows, width):
        sample_bits(1, 0, rows, width)  # warm
        tracemalloc.start()
        try:
            sample_bits(1, 0, rows, width)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32768, 4) <= 96 * 32768
    assert peak(4096, 35) <= 0.60 * 2**20
    assert peak(4096, 715) <= 3.77 * 2**20


def test_sampler_range_validation():
    for start, stop in [(-1, 5), (5, 4), (2**64 - 1, 2**64 + 1), (2**64 + 1, 2**64 + 1)]:
        with pytest.raises(ValueError, match=r"0 <= start <= stop <= 2\*\*64"):
            sample_bits(1, start, stop, 8)
    for at in [0, 17, 2**64]:
        empty = sample_bits(1, at, at, 70)
        assert empty.shape == (0, 70) and empty.dtype == bool


def test_sample_pasture_matches_bits():
    spec = spec_for("Z3", 0, 50, seed=7)
    width = build_table(Z3).size
    rows = sample_bits(7, 0, 50, width)
    for i in range(50):
        p = sample_pasture(spec, i)
        assert (_nullset_row(p.nullset, width) == rows[i]).all()


@pytest.mark.parametrize("lit", ["Z17", "Z18", "Z24", "Z64"])
def test_sample_pasture_past_63_hexagons(lit):
    # 57, 64, 109 and 715 hexagons: the nullset is an int of any width, and
    # `_nullset_row` reads back the sampled row
    spec = spec_for(lit, 0, 3, seed=7)
    width = build_table(spec.group).size
    for i in range(3):
        row = _nullset_row(sample_pasture(spec, i).nullset, width)
        assert (row == sample_bits(7, i, i + 1, width)).all(), (lit, i)


def test_bit_frequencies_are_fair():
    # each hexagon bit is an independent fair coin
    width = build_table(AbelianGroup.from_literal("Z9")).size
    freq = sample_bits(42, 0, 100_000, width).mean(axis=0)
    assert freq.min() > 0.49 and freq.max() < 0.51


WILSON_KNOWN = [
    (75, 100, 0.656955364519384, 0.8245478863771232),
    (0, 50, 0.0, 0.07134759913335874),
    (50, 50, 0.9286524008666412, 1.0),
    (1, 10000, 1.7652673601122363e-05, 0.0005662688974013383),
    (372, 1000, 0.34258611396233785, 0.4023935362099642),
    (2218, 10000, 0.21376487778763084, 0.23004877890581357),
    (1, 1, 0.2065493143772374, 1.0),
    (0, 1, 0.0, 0.7934506856227627),
    (4999, 10000, 0.4901021004111254, 0.5096979763885487),
]


def test_wilson_against_known_values():
    for s, n, lo, hi in WILSON_KNOWN:
        got_lo, got_hi = wilson_interval(s, n)
        assert got_lo == pytest.approx(lo, abs=1e-12)
        assert got_hi == pytest.approx(hi, abs=1e-12)


def test_wilson_boundaries_and_ordering():
    for n in [1, 5, 100]:
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
    for s, n in [(0, 7), (3, 7), (7, 7), (250, 1000)]:
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)


def test_estimate_exhaustive_small_groups():
    # (Z2, g): 3 of 4 nullsets are hyperfields; Z2 has 2 hexagons, so 10^4
    # samples hit each of the four about 2500 times
    est = estimate(spec_for("Z2", 1, 10_000), "is_hyperfield")
    assert est.ci_low < 0.75 < est.ci_high
    assert est.p_hat == Fraction(est.successes, 10_000)

    # trivial group: both nullsets give hyperfields
    t = AbelianGroup.from_literal("Z1")
    est = estimate(LotterySpec(t, t.element_by_index(0), 42, 500), "is_hyperfield")
    assert est.successes == 500
    assert est.p_hat == 1
    assert est.ci_high == 1.0


def test_estimate_all_eps_event():
    # eps = g: hexes of (1,1) and (1,g) coincide with the eps-pairs exactly
    # when {hex(eps,x)} has two members, so the event has probability 1/4 on
    # the identity unit and 1/2 on the unit g
    est = estimate(spec_for("Z2", 1, 10_000), "all_eps_hexagons")
    assert est.ci_low < 0.5 < est.ci_high
    est = estimate(spec_for("Z2", 0, 10_000), "all_eps_hexagons")
    assert est.ci_low < 0.25 < est.ci_high


def test_estimate_star_z3():
    est = estimate(spec_for("Z3", 0, 1000), "satisfies_star")
    assert est.successes == 372
    assert (est.ci_low, est.ci_high) == wilson_interval(372, 1000)


def test_estimate_unknown_event():
    with pytest.raises(ValueError):
        estimate(spec_for("Z2", 1, 10), "bogus")


def test_estimate_thread_invariance():
    spec = spec_for("Z5", 0, 20_000)
    one = estimate(spec, "satisfies_star", threads=1)
    four = estimate(spec, "satisfies_star", threads=4)
    assert one == four


def test_estimate_tensor_budget_bounds_chunks(monkeypatch):
    spec = spec_for("Z5", 0, 2000)
    row_bytes = kernels_for(spec.group, 0).row_bytes
    events = ["is_hyperfield", "is_field", "satisfies_star", "all_eps_hexagons"]
    want = {event: estimate(spec, event) for event in events}
    chunk_rows = []
    run_chunks = lottery._run_chunks

    def recording(work, bounds, threads):
        chunk_rows.extend(hi - lo for lo, hi in bounds)
        return run_chunks(work, bounds, threads)

    monkeypatch.setattr(lottery, "_run_chunks", recording)
    assert estimate(spec, "is_hyperfield") == want["is_hyperfield"]
    assert chunk_rows == [2000]  # one default chunk below the budget
    # a budget of 100 samples gives 20 chunks to every event
    monkeypatch.setattr(lottery, "LOTTERY_TENSOR_BYTES", 100 * row_bytes)
    for event in events:
        for threads in [1, 2]:
            chunk_rows.clear()
            assert estimate(spec, event, threads=threads) == want[event]
            assert chunk_rows == [100] * 20, (event, threads)
    monkeypatch.setattr(lottery, "LOTTERY_TENSOR_BYTES", row_bytes - 1)
    chunk_rows.clear()
    for event in events:
        with pytest.raises(CapacityError):
            estimate(spec, event)
    assert chunk_rows == []


def test_row_bytes_formula():
    # the bool row and its transposed copy, then one bit per row in the
    # packed rows, their packing and five (n, n) word arrays:
    # 2 h + (2 h + 5 n^2) / 8 bytes, rounded up
    got = {lit: kernels_for(AbelianGroup.from_literal(lit), 0).row_bytes
           for lit in ["Z1", "Z5", "Z13", "Z17", "Z64", "Z8xZ8"]}
    assert got == {"Z1": 3, "Z5": 32, "Z13": 185, "Z17": 309, "Z64": 4169, "Z8xZ8": 4169}


def test_tensor_budget_keeps_default_chunks_up_to_z16(monkeypatch):
    # at row_bytes per sample the default budget keeps the default chunks
    # up to order 64, where a 4096-row chunk asks for 17 MB; a budget one
    # byte short of a default Z17 chunk takes one row off it
    first_chunk = []

    def layout_only(work, bounds, threads):
        first_chunk.append(bounds[0][1] - bounds[0][0])
        return [0]

    monkeypatch.setattr(lottery, "_run_chunks", layout_only)
    lits = ["Z13", "Z16", "Z17", "Z33", "Z64", "Z8xZ8"]
    for lit in lits:
        estimate(spec_for(lit, 0, 10_000), "is_hyperfield")
    assert first_chunk == [4096] * len(lits)
    z17 = spec_for("Z17", 0, 10_000)
    monkeypatch.setattr(lottery, "LOTTERY_TENSOR_BYTES",
                        4096 * kernels_for(z17.group, 0).row_bytes - 1)
    estimate(z17, "is_hyperfield")
    assert first_chunk[-1] == 4095


def test_chunk_rows_follow_the_width(monkeypatch):
    # at least 2^17 sampled bits and 4096 rows per chunk; a budget of 3213
    # Z17 rows caps every event there and no narrower group, and threads
    # never move the chunks
    layouts = []

    def layout_only(work, bounds, threads):
        layouts.append(bounds)
        return [0]

    monkeypatch.setattr(lottery, "_run_chunks", layout_only)
    z17 = AbelianGroup.from_literal("Z17")
    monkeypatch.setattr(lottery, "LOTTERY_TENSOR_BYTES", 3213 * kernels_for(z17, 0).row_bytes)
    first_rows = {"Z1": 131072, "Z3": 32768, "Z5": 18724, "Z8": 8738, "Z13": 4096, "Z17": 3213}
    for lit, rows in first_rows.items():
        for event in ["satisfies_star", "is_hyperfield", "all_eps_hexagons"]:
            layouts.clear()
            for threads in [1, 2, 4]:
                estimate(spec_for(lit, 0, 200_000), event, threads=threads)
            assert layouts[0] == layouts[1] == layouts[2], (lit, event)
            assert layouts[0][0] == (0, rows), (lit, event)
            assert layouts[0][-1][1] == 200_000


def test_chunk_rows_leave_the_estimate_unchanged(monkeypatch):
    spec = LotterySpec(Z3, Z3.identity, 1, 200_000)
    want = estimate(spec, "satisfies_star", threads=2)
    chunk_rows = []
    run_chunks = lottery._run_chunks

    def recording(work, bounds, threads):
        chunk_rows.extend(hi - lo for lo, hi in bounds)
        return run_chunks(work, bounds, threads)

    monkeypatch.setattr(lottery, "_run_chunks", recording)
    monkeypatch.setattr(lottery, "_CHUNK_BITS", 0)  # 4096 rows, as before the rule
    assert estimate(spec, "satisfies_star", threads=2) == want
    assert chunk_rows == [4096] * 48 + [3392]


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate("is_field", 1, 2, Fraction(1, 3), 0.0, 1.0)
    with pytest.raises(ValueError):
        Estimate("is_field", 1, 2, Fraction(1, 2), 0.6, 1.0)


def test_estimate_validation_survives_optimize():
    script = ("from fractions import Fraction\n"
              "from hexafield.lottery import Estimate\n"
              "try:\n"
              "    Estimate('is_field', 1, 2, Fraction(1, 3), 0.0, 1.0)\n"
              "except ValueError:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr


def test_lottery_spec_validation():
    with pytest.raises(ValueError):
        LotterySpec(Z3, Z3.element_by_index(1), 42, 10)  # order-3 unit
    with pytest.raises(ValueError):
        LotterySpec(Z2, Z2.element_by_index(1), 42, 0)
    with pytest.raises(ValueError):
        LotterySpec(Z2, Z3.element_by_index(0), 42, 10)


def test_census_small_groups():
    got = census(Z2, Z2.element_by_index(1))
    assert got == Census(Z2, Z2.element_by_index(1), 4, 3, 1, 1, 3, 3)
    got = census(Z2, Z2.element_by_index(0))
    assert (got.total_pastures, got.hyperfields, got.fields) == (4, 2, 0)
    assert (got.star_hyperfields, got.iso_classes, got.rigid_count) == (1, 2, 2)
    t = AbelianGroup.from_literal("Z1")
    got = census(t, t.element_by_index(0))
    assert (got.total_pastures, got.hyperfields, got.fields) == (2, 2, 1)


def test_census_z5():
    got = census(AbelianGroup.from_literal("Z5"),
                 AbelianGroup.from_literal("Z5").element_by_index(0))
    assert got.total_pastures == 2 ** 7
    assert got.hyperfields == 43
    assert got.iso_classes == 16
    assert got.rigid_count == 32


def test_census_thread_invariance():
    g = AbelianGroup.from_literal("Z7")
    assert census(g, g.element_by_index(0), threads=1) == \
        census(g, g.element_by_index(0), threads=4)


def test_census_capacity():
    g = AbelianGroup.from_literal("Z16")
    with pytest.raises(CapacityError):
        census(g, g.element_by_index(0))


def test_census_hex_cap_raises_before_any_chunk(monkeypatch):
    # Z11 has 26 hexagons, over the census cap
    def no_chunks(*args):
        raise AssertionError("a chunk ran before the capacity check")

    monkeypatch.setattr(lottery, "_run_chunks", no_chunks)
    g = AbelianGroup.from_literal("Z11")
    assert build_table(g).size > lottery.CENSUS_HEX_CAP
    with pytest.raises(CapacityError):
        census(g, g.element_by_index(0))


def test_pool_is_clamped_to_chunk_count(monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(lottery, "ThreadPoolExecutor", Recording)
    g = AbelianGroup.from_literal("Z8")  # 2^15 nullsets: 8 chunks
    census(g, g.element_by_index(0), threads=64)
    assert sizes == [8]


def test_census_matches_scalar_reference():
    # orbit-weighted counts against the scalar predicates on every pasture
    for g in abelian_groups_up_to(6):
        for unit in g.units_of_order_le_2():
            hyper = [p for p in all_pastures(g, unit) if is_hyperfield_fast(p)]
            want = Census(g, unit, 1 << build_table(g).size, len(hyper),
                          sum(oracles.is_field(p) for p in hyper),
                          sum(satisfies_star(p) for p in hyper),
                          len({canonical_form(p).bits for p in hyper}),
                          sum(len(pasture_automorphisms(p)) == 1 for p in hyper))
            assert census(g, unit) == want, (g.literal, unit)


def test_census_probes_oracle_on_one_percent(monkeypatch):
    rows = {"verdicts": 0, "axiom_oracle": 0}
    lock = threading.Lock()
    for name in rows:
        def counted(self, ns, _name=name, _original=getattr(Kernels, name)):
            with lock:
                rows[_name] += len(ns)
            return _original(self, ns)
        monkeypatch.setattr(Kernels, name, counted)
    g = AbelianGroup.from_literal("Z8")
    census(g, g.element_by_index(0), threads=1)
    assert rows["verdicts"] > 0
    assert rows["axiom_oracle"] * 100 >= rows["verdicts"]
    z2z4 = AbelianGroup.from_literal("Z2xZ4")
    for run_once in [lambda: census(g, g.element_by_index(0), threads=2),
                     lambda: class_table(z2z4, z2z4.element_by_index(0), threads=1),
                     lambda: class_table(z2z4, z2z4.element_by_index(0), threads=2)]:
        rows.update(verdicts=0, axiom_oracle=0)
        run_once()
        assert rows["verdicts"] > 0
        assert rows["axiom_oracle"] * 100 >= rows["verdicts"]


def test_orbit_checks_bite(monkeypatch):
    # Z8 at unit 0 has |Aut| = 4: a stabiliser of 3 divides nothing, and
    # keeping every nullset as a representative covers some of them twice
    scan = Kernels.orbit_scan
    z8 = AbelianGroup.from_literal("Z8")
    for broken, message in [(lambda canon, stab: (canon, stab + 2), "divide"),
                            (lambda canon, stab: (canon | True, stab), "cover")]:
        monkeypatch.setattr(Kernels, "orbit_scan",
                            lambda self, ns, broken=broken: broken(*scan(self, ns)))
        with pytest.raises(AssertionError, match=message):
            census(z8, z8.element_by_index(0), threads=1)


def test_pooled_oracle_probe_still_bites(monkeypatch):
    # flip the hyperfield verdict of the last chunk's first representative,
    # which the probe re-checks: census and classification raise at any
    # thread count, after pooled oracle calls over the same rows
    verdicts, oracle = Kernels.verdicts, Kernels.axiom_oracle
    calls = []

    def nullsets(ns):
        return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                for row in ns]

    def flipped(self, ns):
        hyper, full4, star = verdicts(self, ns)
        if len(ns) and nullsets(ns[:1])[0] >= (1 << ns.shape[1]) - lottery._CHUNK:
            hyper = hyper.copy()
            hyper[0] = not hyper[0]
        return hyper, full4, star

    def recorded(self, ns):
        calls.append(nullsets(ns))
        return oracle(self, ns)

    monkeypatch.setattr(Kernels, "verdicts", flipped)
    monkeypatch.setattr(Kernels, "axiom_oracle", recorded)
    z8, z2z4 = AbelianGroup.from_literal("Z8"), AbelianGroup.from_literal("Z2xZ4")
    runs = [(3, lambda t: census(z8, z8.element_by_index(0), threads=t)),
            (None, lambda t: class_table(z2z4, z2z4.element_by_index(0), threads=t))]
    for most_calls, run_at in runs:
        probed = []
        for threads in (1, 2):
            calls.clear()
            with pytest.raises(RuntimeError, match="axiom oracle"):
                run_at(threads)
            # 41 = ceil(4096 / 100) rows, the most one full chunk probes
            assert calls and max(len(c) for c in calls) <= 41
            assert most_calls is None or len(calls) <= most_calls
            probed.append(sorted(v for c in calls for v in c))
        assert probed[0] == probed[1]


def test_class_table_zero_over_zero_by_chunk(monkeypatch):
    sizes = []
    original = Kernels.is_zero_over_zero

    def recorded(self, ns):
        sizes.append(len(ns))
        return original(self, ns)

    monkeypatch.setattr(Kernels, "is_zero_over_zero", recorded)
    g = AbelianGroup.from_literal("Z2xZ4")  # 9,728 classes on unit 4, in 8 chunks
    rows = class_table(g, g.element_by_index(4), hyper_only=False, threads=1)
    assert len(sizes) == 8
    assert max(sizes) <= lottery._CHUNK and sum(sizes) == len(rows)


def test_census_memory_stays_within_a_chunk():
    # census keeps five counts per chunk, not a column per representative
    for literal in ("Z9", "Z3xZ3"):
        g = AbelianGroup.from_literal(literal)
        census(g, g.element_by_index(0), threads=1)  # warm caches
        tracemalloc.start()
        try:
            census(g, g.element_by_index(0), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (literal, peak)


def test_one_block_walk_per_chunk(monkeypatch):
    # hyperfield, 4-full and star come from one walk of the kernels' block,
    # so a census, classification or lottery chunk walks it once
    counts = {"walks": 0, "chunks": 0}
    blocks, chunks = Kernels._blocks, lottery._chunks

    def counted_blocks(self, x):
        counts["walks"] += 1
        return blocks(self, x)

    def counted_chunks(*args):
        bounds = chunks(*args)
        counts["chunks"] += len(bounds)
        return bounds

    monkeypatch.setattr(Kernels, "_blocks", counted_blocks)
    monkeypatch.setattr(lottery, "_chunks", counted_chunks)
    z8, z2z4 = AbelianGroup.from_literal("Z8"), AbelianGroup.from_literal("Z2xZ4")
    runs = [(8, z8, lambda u: census(z8, u, threads=1)),
            (8, z2z4, lambda u: class_table(z2z4, u, threads=1)),
            # 8738-row chunks at Z8: two full ones and a short third
            (3, z8, lambda u: estimate(LotterySpec(z8, u, 5, 20_000), "is_field", 1)),
            (3, z8, lambda u: estimate(LotterySpec(z8, u, 5, 20_000), "is_hyperfield", 1))]
    for want, g, run_on in runs:
        for unit in g.units_of_order_le_2():
            counts.update(walks=0, chunks=0)
            run_on(unit)
            assert counts == {"walks": want, "chunks": want}, (g.literal, unit.index)


def test_class_table_z2():
    rows = class_table(Z2, Z2.element_by_index(1))
    assert [r.pasture.nullset for r in rows] == [1, 2, 3]
    assert rows[0].pasture == field_f3()
    assert rows[1].pasture == sign_hyperfield()
    for r in rows:
        assert is_hyperfield_fast(r.pasture)
        assert r.is_hyperfield
        assert r.automorphisms == 1  # Z2 has no nontrivial automorphisms
    star_rows = [r for r in rows if r.is_4full and r.is_00]
    assert [r.pasture.nullset for r in star_rows] == [3]
    assert satisfies_star(star_rows[0].pasture)
    assert [r.is_field for r in rows] == [True, False, False]


def test_class_table_rows_are_canonical():
    hyperfield_classes = {("Z2", 1): 3, ("Z2", 0): 2, ("Z3", 0): 7}
    for lit, unit_index in [*hyperfield_classes, ("Z2xZ2", 0), ("Z6", 3)]:
        g = AbelianGroup.from_literal(lit)
        unit = g.element_by_index(unit_index)
        rows = class_table(g, unit, hyper_only=False)
        assert len(rows) == len({canonical_form(p).bits for p in all_pastures(g, unit)})
        for r in rows:
            assert canonical_form(r.pasture).bits == r.pasture.nullset
            assert r.automorphisms == len(pasture_automorphisms(r.pasture))
            assert r.is_hyperfield == is_hyperfield_fast(r.pasture)
        hyper = class_table(g, unit)
        assert hyper == tuple(r for r in rows if r.is_hyperfield)
        if (lit, unit_index) in hyperfield_classes:
            assert len(hyper) == hyperfield_classes[lit, unit_index]


def test_class_table_z3_counts():
    rows = class_table(Z3, Z3.element_by_index(0))
    assert len(rows) == 7
    assert sum(r.automorphisms for r in rows) == 2 * 7 - 2  # two rigid classes
    assert sum(1 for r in rows if r.is_field) == 1  # only the 4-element field
    assert class_table(Z3, Z3.element_by_index(0), threads=4) == rows


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("HEXAFIELD_THREADS", "3")
    assert thread_count() == 3
    assert thread_count(2) == 2
    monkeypatch.delenv("HEXAFIELD_THREADS")
    assert thread_count() >= 1
    with pytest.raises(ValueError):
        thread_count(0)
    for bad in ["abc", "0", "-2", "1.5"]:
        monkeypatch.setenv("HEXAFIELD_THREADS", bad)
        with pytest.raises(ValueError, match=f"HEXAFIELD_THREADS must be a positive integer, "
                                             f"got '{re.escape(bad)}'"):
            thread_count()
        assert thread_count(2) == 2
    monkeypatch.setenv("HEXAFIELD_THREADS", "abc")
    assert run(["lottery", "--group", "Z2", "--event", "star", "--samples", "10"],
               stdout=io.StringIO()) == 1


def test_thread_count_cap(monkeypatch):
    cap = lottery.THREAD_CAP
    assert thread_count(cap) == cap
    with pytest.raises(CapacityError):
        thread_count(cap + 1)
    monkeypatch.setenv("HEXAFIELD_THREADS", str(cap))
    assert thread_count() == cap
    monkeypatch.setenv("HEXAFIELD_THREADS", "20000")
    with pytest.raises(CapacityError):
        thread_count()
    monkeypatch.delenv("HEXAFIELD_THREADS")
    monkeypatch.setattr(lottery.os, "cpu_count", lambda: 4 * cap)
    assert thread_count() == cap  # the machine's count is clamped, not refused
