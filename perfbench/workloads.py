"""The benchmark's workloads: their CLI jobs, their warm-up and their checks.

Every job is an argv for `hexafield.cli.run`.  A job completes `items` units
of work: nullsets for `census`, samples for `lottery`, quotient decisions
for `decide`.  Its `check` returns None when the output is right and a reason
when it is not.  Importing this module imports hexafield, so the caller
times the import as part of set-up.

All calls into hexafield go through the package or module attributes
(`hx.build_table`, `hx.cli.run`), never through names bound here, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hexafield as hx
import hexafield.cli  # not imported by the package itself

THREADS = 2
DEFAULT_SEED = 1
with open(os.path.join(os.path.dirname(__file__), "pinned.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)

CENSUS_JOBS = (("census", "Z8"), ("census", "Z2xZ4"), ("classify", "Z2xZ4"))
LOTTERY_JOBS = (("Z3", "star", 200_000), ("Z13", "hyperfield", 8192))
LOTTERY_CHECK_STRIDE = 1000
DECIDE_GROUPS = ("Z5", "Z6", "Z7", "Z8", "Z9")
DECIDE_PER_UNIT = 3
SKEW_GROUPS = ("S3", "D4", "Q8", "D6", "A4")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    items: int
    check: Callable[[str], str | None]


def job_key(argv) -> str:
    """argv with input files named by their base name: stable across runs."""
    return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)


def with_threads(jobs: list[Job], threads: int) -> list[Job]:
    """The same jobs with another --threads value."""
    out = []
    for job in jobs:
        argv = list(job.argv)
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = str(threads)
        out.append(Job(tuple(argv), job.items, job.check))
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_check(expected: str | None):
    def check(out: str) -> str | None:
        return None if digest(out) == expected else "output differs from the pinned bytes"
    return check


def _also_pinned(check, expected: str | None):
    """For the default seed, the output must also match the pinned bytes."""
    if expected is None:
        return check

    def both(out: str) -> str | None:
        return check(out) or _pinned_check(expected)(out)
    return both


def _rows(group) -> np.ndarray:
    return np.zeros((1, hx.build_table(group).size), dtype=bool)


# -- census --------------------------------------------------------------------

def census_warm_up() -> None:
    for _, literal in CENSUS_JOBS:
        group = hx.AbelianGroup.from_literal(literal)
        for unit in group.units_of_order_le_2():
            k = hx.kernels_for(group, unit.index)
            for predicate in (k.is_hyperfield, k.axiom_oracle, k.satisfies_star,
                              k.has_nontrivial_automorphism, k.is_4full,
                              k.is_zero_over_zero, k.is_field, k.one_plus_minus_one):
                predicate(_rows(group))


def census_jobs(seed: int, workdir: str) -> list[Job]:
    """No seed: the census is exhaustive.  Outputs are pinned bytes."""
    jobs = []
    for command, literal in CENSUS_JOBS:
        group = hx.AbelianGroup.from_literal(literal)
        nullsets = len(group.units_of_order_le_2()) << hx.build_table(group).size
        argv = (command, "--group", literal, "--threads", str(THREADS))
        jobs.append(Job(argv, nullsets, _pinned_check(PINNED["census"].get(job_key(argv)))))
    return jobs


# -- lottery -------------------------------------------------------------------

def lottery_warm_up() -> None:
    for literal, event, _ in LOTTERY_JOBS:
        group = hx.AbelianGroup.from_literal(literal)
        kernels = hx.kernels_for(group, group.identity.index)
        kernels.event(hx.cli.EVENT_ALIASES[event], _rows(group))


def _scalar_verdict(event: str, pasture) -> bool:
    if event == "satisfies_star":
        return hx.satisfies_star(pasture)
    if pasture.group.order <= hx.pastures.ORACLE_ORDER_CAP:
        return hx.axiom_oracle(pasture)
    return hx.is_hyperfield_fast(pasture)


def _lottery_check(group, event: str, seed: int, samples: int):
    """Consistency of the estimate, and every 1000th sample's verdict
    recomputed by the scalar predicate against the batch kernel's."""
    spec = hx.LotterySpec(group, group.identity, seed, samples)
    kernels = hx.kernels_for(group, group.identity.index)
    width = hx.build_table(group).size

    def check(out: str) -> str | None:
        data = json.loads(out)
        succ = data["successes"]
        if (data["event"], data["samples"]) != (event, samples) or not 0 <= succ <= samples:
            return f"unexpected estimate header {data}"
        num, den = map(int, data["p_hat"].split("/"))
        low, high = hx.wilson_interval(succ, samples)
        if num * samples != succ * den or (data["ci_low"], data["ci_high"]) != (low, high):
            return "p_hat or Wilson interval does not match the success count"
        for index in range(0, samples, LOTTERY_CHECK_STRIDE):
            bits = hx.sample_bits(seed, index, index + 1, width)
            batch = bool(kernels.event(event, bits)[0])
            if batch != _scalar_verdict(event, hx.sample_pasture(spec, index)):
                return f"sample {index}: batch and scalar verdicts differ"
        return None
    return check


def lottery_jobs(seed: int, workdir: str) -> list[Job]:
    pinned = PINNED["default_seed"]["lottery"] if seed == DEFAULT_SEED else {}
    jobs = []
    for literal, alias, samples in LOTTERY_JOBS:
        group = hx.AbelianGroup.from_literal(literal)
        event = hx.cli.EVENT_ALIASES[alias]
        argv = ("lottery", "--group", literal, "--event", alias, "--samples",
                str(samples), "--seed", str(seed), "--threads", str(THREADS))
        check = _lottery_check(group, event, seed, samples)
        jobs.append(Job(argv, samples, _also_pinned(check, pinned.get(job_key(argv)))))
    return jobs


# -- decide --------------------------------------------------------------------

def _candidate_qs(n: int) -> list[int]:
    """Prime powers q with n | q - 1, as far as the decider searches on Z_n."""
    bound = max(n ** 4, hx.galois.EXTENDED_SEARCH_FLOOR)
    return [q for q in range(2, bound + 2)
            if (q - 1) % n == 0 and hx.factor_prime_power(q) is not None]


def decide_warm_up() -> None:
    for group in hx.abelian_groups_up_to(9):
        hx.build_table(group)
        group.automorphisms()
    small = hx.abelian_groups_up_to(3)
    for g1 in small:
        for g2 in small:
            hx.product_group(g1, g2)
    for literal in DECIDE_GROUPS:
        for q in _candidate_qs(hx.AbelianGroup.from_literal(literal).order):
            hx.build_field(*hx.factor_prime_power(q))


def _write(workdir: str, name: str, pasture) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hx.dumps_pasture(pasture))
    return path


def _is_field_oracle(pasture) -> bool:
    """Hyperfield by the axioms, and 1 + (-1) = {0} in the rebuilt addition."""
    masks = hx.reconstruct_addition(pasture).masks
    return hx.axiom_oracle(pasture) and masks[1][pasture.unit_index + 1] == 1


def _check_check(pasture):
    kernels = hx.kernels_for(pasture.group, pasture.unit_index)
    row = hx.ints_to_bits(np.array([pasture.nullset]), hx.build_table(pasture.group).size)
    expect = {
        "is_hyperfield": hx.axiom_oracle(pasture),
        "is_field": _is_field_oracle(pasture),
        "is_00": bool(kernels.is_zero_over_zero(row)[0]),
        "is_4full": bool(kernels.is_4full(row)[0]),
    }
    line = " ".join(f"{k}={str(v).lower()}" for k, v in expect.items()) + "\n"
    return lambda out: None if out == line else f"check printed {out!r}, want {line!r}"


def _isquotient_check(pasture, built_from_q: int | None):
    def check(out: str) -> str | None:
        data = json.loads(out)
        status, witness = data["status"], data["witness"]
        if status == "quotient":
            pk = hx.factor_prime_power(witness["q"])
            if witness["index"] != pasture.group.order or pk is None:
                return f"malformed witness {witness}"
            spec = hx.QuotientSpec(hx.build_field(*pk), witness["index"])
            candidate = hx.quotient_hyperfield(spec)
            # on a cyclic group every automorphism fixes the unit, so equal
            # canonical forms are a second, independent isomorphism test
            if not (hx.are_isomorphic(pasture, candidate)
                    and hx.canonical_form(pasture) == hx.canonical_form(candidate)):
                return f"witness {witness} is not isomorphic to the pasture"
            if built_from_q is not None and witness["q"] > built_from_q:
                return f"witness q={witness['q']} is not the least (F_{built_from_q} works)"
            return None
        if built_from_q is not None:
            return f"F_{built_from_q} quotient decided as {status}"
        full = hx.one_minus_one_is_everything(pasture)
        if status != ("inconclusive_full_sum" if full else "not_quotient") or witness:
            return f"status {status} does not fit 1 + (-1)"
        return None
    return check


def _quotient_check(expected):
    def check(out: str) -> str | None:
        got = hx.loads_pasture(out)
        if got != expected or not hx.axiom_oracle(got):
            return "quotient output is not the expected hyperfield"
        return None
    return check


def _product_check(p1, p2):
    def check(out: str) -> str | None:
        data = json.loads(out)
        result = hx.pasture_from_dict(data)
        if result.group.order != p1.group.order * p2.group.order:
            return "product lives on the wrong group"
        if data["is_hyperfield"] != hx.axiom_oracle(result):
            return "is_hyperfield disagrees with the axiom oracle"
        if data["theorem_verdict"] is not None and data["theorem_verdict"] != data["is_hyperfield"]:
            return "product theorem verdict disagrees with the product"
        return None
    return check


def _skew_check(name: str):
    group = hx.BUILTIN_GROUPS[name]()

    def check(out: str) -> str | None:
        data = json.loads(out)
        sizes = data["sizes"]
        if (sum(sizes) != group.order ** 2 or data["orbits"] != len(sizes)
                or data["orbits"] != hx.burnside_orbit_count(group)
                or data["orbits"] > data["bound"]):
            return f"skew orbit counts do not add up for {name}"
        return None
    return check


def decide_inputs(seed: int):
    """Seeded panel: 3 hyperfields per self-inverse unit of Z5..Z9, drawn by
    rejection on the axiom oracle; one F_q mod n quotient per n, with q drawn
    from the first four candidates; two products of small hyperfields."""
    rng = np.random.default_rng(seed)
    panel = []  # (pasture, q it was built from or None)
    for literal in DECIDE_GROUPS:
        group = hx.AbelianGroup.from_literal(literal)
        width = hx.build_table(group).size
        for unit in group.units_of_order_le_2():
            found = 0
            while found < DECIDE_PER_UNIT:
                p = hx.Pasture(group, unit, int(rng.integers(1 << width)))
                if hx.axiom_oracle(p):
                    panel.append((p, None))
                    found += 1
        qs = _candidate_qs(group.order)[:4]
        q = qs[int(rng.integers(len(qs)))]
        spec = hx.QuotientSpec(hx.build_field(*hx.factor_prime_power(q)), group.order)
        panel.append((hx.quotient_hyperfield(spec), q))
    small = [p for g in hx.abelian_groups_up_to(3)
             for u in g.units_of_order_le_2() for p in hx.all_pastures(g, u)
             if hx.axiom_oracle(p)]
    pairs = [(small[int(rng.integers(len(small)))], small[int(rng.integers(len(small)))])
             for _ in range(2)]
    return panel, pairs


def decide_jobs(seed: int, workdir: str) -> list[Job]:
    """Jobs take no --threads: none of these commands has the option."""
    panel, pairs = decide_inputs(seed)
    jobs = []
    for i, (pasture, q) in enumerate(panel):
        path = _write(workdir, f"p{i:02d}.json", pasture)
        jobs.append(Job(("check", "--pasture", path), 0, _check_check(pasture)))
        jobs.append(Job(("isquotient", "--pasture", path), 1,
                        _isquotient_check(pasture, q)))
        if q is not None:
            jobs.append(Job(("quotient", "--q", str(q), "--index", str(pasture.group.order)),
                            0, _quotient_check(pasture)))
    for i, (p1, p2) in enumerate(pairs):
        a = _write(workdir, f"a{i}.json", p1)
        b = _write(workdir, f"b{i}.json", p2)
        jobs.append(Job(("product", "--a", a, "--b", b), 0, _product_check(p1, p2)))
    for name in SKEW_GROUPS:
        jobs.append(Job(("skewhex", "--group", name), 0, _skew_check(name)))
    pinned = PINNED["default_seed"]["decide"] if seed == DEFAULT_SEED else {}
    return [Job(j.argv, j.items, _also_pinned(j.check, pinned.get(job_key(j.argv))))
            for j in jobs]


@dataclass(frozen=True)
class Workload:
    warm_up: Callable[[], None]
    jobs: Callable[[int, str], list[Job]]


WORKLOADS = {
    "census": Workload(census_warm_up, census_jobs),
    "lottery": Workload(lottery_warm_up, lottery_jobs),
    "decide": Workload(decide_warm_up, decide_jobs),
}
