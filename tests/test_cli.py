import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hexafield import galois, lottery, skew
from hexafield.batch import Kernels, kernels_for
from hexafield.cli import run
from hexafield.galois import QuotientSpec, build_field, quotient_hyperfield
from hexafield.groups import AbelianGroup, abelian_groups_up_to
from hexafield.hexagons import TABLE_ORDER_CAP, build_table
from hexafield.pastures import (ORACLE_ORDER_CAP, Pasture, _nullset_row, all_pastures, field_f3,
                                krasner, sign_hyperfield)
from hexafield.serialize import dumps_pasture, loads_pasture


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def write_pasture(tmp_path, pasture, name):
    path = tmp_path / name
    path.write_text(dumps_pasture(pasture), encoding="utf-8")
    return str(path)


def test_hexcount():
    assert invoke("hexcount", "--group", "Z9") == (0, "19\n")
    assert invoke("hexcount", "--group", "Z2xZ4") == (0, "15\n")


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "hexafield.cli", "hexcount", "--group", "Z3"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (done.returncode, done.stdout) == (0, "4\n"), done.stderr


def test_shared_parser_matches_a_fresh_process(capsys, monkeypatch):
    # one parser serves every run; an error must leave nothing behind for
    # the next run, so each argv gives the bytes and exit code of a new process
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    bad = ["lottery", "--group", "Z3", "--samples", "ten"]
    good = ["lottery", "--group", "Z3", "--event", "star", "--samples", "500"]
    for argv in [bad, good, bad]:
        code = run(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hexafield.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 64


def test_check_output_is_exact(tmp_path):
    path = write_pasture(tmp_path, sign_hyperfield(), "s.json")
    code, text = invoke("check", "--pasture", path)
    assert code == 0
    assert text == "is_hyperfield=true is_field=false is_00=true is_4full=false\n"
    path = write_pasture(tmp_path, field_f3(), "f3.json")
    assert invoke("check", "--pasture", path)[1] == \
        "is_hyperfield=true is_field=true is_00=false is_4full=false\n"


def test_check_lines_pinned(tmp_path):
    # every pasture of order <= 5 at every unit, and 50 seed-7 draws at every
    # unit of each group of order 6 to 9; the digest of the lines is the one
    # `check` printed at commit 47d1ab6, from the scalar predicates
    pastures = []
    for g in abelian_groups_up_to(9):
        for unit in g.units_of_order_le_2():
            if g.order <= 5:
                pastures.extend(all_pastures(g, unit))
            else:
                spec = lottery.LotterySpec(g, unit, 7, 50)
                pastures.extend(lottery.sample_pasture(spec, i) for i in range(50))
    assert len(pastures) == 1296
    lines = [invoke("check", "--pasture", write_pasture(tmp_path, p, "p.json"))
             for p in pastures]
    assert {code for code, _ in lines} == {0}
    assert hashlib.sha256("".join(text for _, text in lines).encode()).hexdigest() == \
        "44c7a1215ae226825f8e5ddf1b1f06ffa3850b07909d3736a891e239c5005089"


def test_check_runs_up_to_the_table_cap(tmp_path):
    # one kernel row has no oracle cap; the line is that row's verdicts
    for lit in ["Z64", "Z8xZ8"]:
        g = AbelianGroup.from_literal(lit)
        for unit in g.units_of_order_le_2()[:2]:
            p = lottery.sample_pasture(lottery.LotterySpec(g, unit, 1, 1), 0)
            kernels = Kernels(g, unit.index)
            row = _nullset_row(p.nullset, kernels.n_hex)
            hyper, full4, _ = kernels.verdicts(row)
            field = hyper & ~kernels.one_plus_minus_one(row).any(axis=1)
            want = [("is_hyperfield", hyper), ("is_field", field),
                    ("is_00", kernels.is_zero_over_zero(row)), ("is_4full", full4)]
            line = " ".join(f"{k}={str(bool(v[0])).lower()}" for k, v in want) + "\n"
            path = write_pasture(tmp_path, p, f"{lit}-{unit.index}.json")
            assert invoke("check", "--pasture", path) == (0, line), (lit, unit.index)


def test_check_past_the_table_cap_exits_2_before_any_kernel(tmp_path, monkeypatch, capsys):
    def no_kernel(*args):
        raise AssertionError("a kernel ran before the table cap check")

    monkeypatch.setattr(Kernels, "verdicts", no_kernel)
    path = tmp_path / "z65.json"
    path.write_text(json.dumps({"group": "Z65", "epsilon": [0], "nullset": [[[0], [1]]]}),
                    encoding="utf-8")
    assert invoke("check", "--pasture", str(path)) == (2, "")
    assert capsys.readouterr().err == \
        f"error: hexagon table capped at group order {TABLE_ORDER_CAP}, Z65 has order 65\n"


def test_census_csv_shape():
    code, text = invoke("census", "--group", "Z2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2  # both self-inverse units
    by_eps = {r["epsilon"]: r for r in rows}
    assert by_eps["[1]"]["hyperfields"] == "3"
    assert by_eps["[1]"]["fields"] == "1"
    assert by_eps["[0]"]["hyperfields"] == "2"
    code, text = invoke("census", "--group", "Z2", "--eps", "1")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1 and rows[0]["total_pastures"] == "4"


def test_census_z10():
    # order 10: the 1% probe runs the axiom oracle past order 9, and the
    # hyperfield count is the one in ROADMAP item 5's table
    code, text = invoke("census", "--group", "Z10", "--eps", "0")
    assert code == 0
    assert text.splitlines()[1] == "Z10,[0],4194304,608619,0,515599,152576,607052"


def test_lottery_frozen_run():
    code, text = invoke("lottery", "--group", "Z3", "--event", "star",
                        "--samples", "1000")
    assert code == 0
    doc = json.loads(text)
    assert doc["successes"] == 372
    assert doc["p_hat"] == "93/250"
    assert doc["ci_low"] == 0.34258611396233785
    assert doc["ci_high"] == 0.4023935362099642


def test_lottery_over_sample_cap_exits_2(monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk ran before the capacity check")

    monkeypatch.setattr(lottery, "_run_chunks", no_chunks)
    assert invoke("lottery", "--group", "Z3", "--event", "star",
                  "--samples", "1073741825") == (2, "")


def test_lottery_auto_past_order_16():
    for lit in ["Z32", "Z64", "Z2xZ32", "Z8xZ8"]:
        code, text = invoke("lottery", "--group", lit, "--event", "auto", "--samples", "256")
        assert code == 0, lit
        assert json.loads(text)["samples"] == 256
    # Z2^5 would try 31^5 generator tuples; refused before any is built
    assert invoke("lottery", "--group", "Z2xZ2xZ2xZ2xZ2", "--event", "auto",
                  "--samples", "256") == (2, "")


def test_lottery_alias_matches_full_name():
    assert invoke("lottery", "--group", "Z2", "--eps", "1", "--event", "star",
                  "--samples", "500") == \
        invoke("lottery", "--group", "Z2", "--eps", "1", "--event",
               "satisfies_star", "--samples", "500")


def test_classify_z2():
    code, text = invoke("classify", "--group", "Z2", "--eps", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert [r["is_field"] for r in rows] == ["true", "false", "false"]
    assert all(r["is_hyperfield"] == "true" for r in rows)
    code, text = invoke("classify", "--group", "Z2", "--eps", "1", "--all")
    assert len(list(csv.DictReader(io.StringIO(text)))) == 4


def test_quotient_isquotient_round_trip(tmp_path):
    code, text = invoke("quotient", "--q", "7", "--index", "2")
    assert code == 0
    path = tmp_path / "weak.json"
    path.write_text(text, encoding="utf-8")
    code, text = invoke("isquotient", "--pasture", str(path))
    assert code == 0
    assert json.loads(text) == {"status": "quotient",
                                "witness": {"q": 7, "index": 2}}


def test_isquotient_inconclusive(tmp_path):
    path = write_pasture(tmp_path, sign_hyperfield(), "s.json")
    code, text = invoke("isquotient", "--pasture", path)
    assert json.loads(text) == {"status": "inconclusive_full_sum",
                                "witness": None}
    code, text = invoke("isquotient", "--pasture", path, "--bound", "100")
    assert json.loads(text)["status"] == "inconclusive_full_sum"


def test_isquotient_bound_is_checked(tmp_path, monkeypatch):
    def no_fields(*args):
        raise AssertionError("a field was built before the bound was checked")

    sign = write_pasture(tmp_path, sign_hyperfield(), "s.json")  # a full sum
    f3 = write_pasture(tmp_path, field_f3(), "f3.json")  # not a full sum
    monkeypatch.setattr(galois, "build_field", no_fields)
    assert invoke("isquotient", "--pasture", sign, "--bound", "-5") == (1, "")
    assert invoke("isquotient", "--pasture", f3, "--bound", "-5") == (1, "")
    # the last candidate q = bound + 1 would be over FIELD_SIZE_CAP
    assert invoke("isquotient", "--pasture", sign, "--bound", "1000000") == (2, "")
    assert invoke("isquotient", "--pasture", sign, "--bound", "10000000") == (2, "")
    monkeypatch.undo()
    # the quartic search of a pasture without a full sum ignores the bound
    code, text = invoke("isquotient", "--pasture", f3, "--bound", "10000000")
    assert code == 0
    assert json.loads(text) == {"status": "quotient", "witness": {"q": 3, "index": 2}}


def test_product_output_reparses(tmp_path):
    a = write_pasture(tmp_path, field_f3(), "a.json")
    b = write_pasture(tmp_path, krasner(), "b.json")
    code, text = invoke("product", "--a", a, "--b", b)
    assert code == 0
    doc = json.loads(text)
    assert doc["is_hyperfield"] is True
    assert doc["theorem_verdict"] is True
    back = loads_pasture(text)
    assert isinstance(back, Pasture)
    assert back.group.literal == "Z2"


def test_product_past_the_oracle_cap(tmp_path):
    # a Z5 hyperfield times the sign hyperfield lives on Z10, where the
    # verdict comes from the kernels and must match the product theorem
    z5 = quotient_hyperfield(QuotientSpec(build_field(11, 1), 5))
    a = write_pasture(tmp_path, z5, "a.json")
    b = write_pasture(tmp_path, sign_hyperfield(), "b.json")
    code, text = invoke("product", "--a", a, "--b", b)
    assert code == 0
    doc = json.loads(text)
    assert doc["is_hyperfield"] == doc["theorem_verdict"]
    back = loads_pasture(text)
    assert back.group.literal == "Z10"
    assert loads_pasture(dumps_pasture(back)) == back


def test_product_runs_no_scalar_hyperfield_check(tmp_path, monkeypatch):
    # each hyperfield verdict of `product` is one kernel row; the scalar check
    # took half a minute on the full Z8 x Z8 and Z32 x Z2 pairs.  Digests
    # pinned from the scalar verdicts.
    def scalar(*args):
        raise AssertionError("the scalar hyperfield check ran")

    for name, mod in list(sys.modules.items()):
        if name.startswith("hexafield.") and hasattr(mod, "is_hyperfield_fast"):
            monkeypatch.setattr(mod, "is_hyperfield_fast", scalar)

    def full(lit):
        g = AbelianGroup.from_literal(lit)
        return write_pasture(tmp_path, Pasture(g, g.identity, (1 << build_table(g).size) - 1),
                             f"{lit}.json")

    z5 = write_pasture(tmp_path, quotient_hyperfield(QuotientSpec(build_field(11, 1), 5)),
                       "z5.json")
    sign = write_pasture(tmp_path, sign_hyperfield(), "sign.json")
    f3 = write_pasture(tmp_path, field_f3(), "f3.json")
    k = write_pasture(tmp_path, krasner(), "k.json")
    z8 = full("Z8")
    for a, b, digest in [
        (z8, z8, "cc22497c1a782bc1e668e010bf87c2f56bca55919ffd651bc79c6c14f8d3accc"),
        (full("Z32"), full("Z2"), "aa9a49ebcf105431d293b42a3a5e03b8539220efb208f094b1c4691692be4770"),
        (z5, sign, "584f4409aca0001ebd3da5f4997a567cd33353e73df1714aa5c441017d974c6c"),
        (f3, k, "accf38263c67fa8028f9022162c99275c0c54a8aa02767af7301509b5b90753a"),
        (sign, sign, "496a9d330f5d51a5c4e94c48cf5f2bae8b4daa4d62a8ccfc98374d7e93c795ea"),
    ]:
        code, text = invoke("product", "--a", a, "--b", b)
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, digest), (a, b)


def test_auto_lottery_output_pinned():
    # the `auto` event on 4096 samples at unit 0: Z2xZ2xZ2xZ2 has 20,159
    # nontrivial automorphisms, and Z8xZ8 and Z2xZ32 715 hexagons
    for lit, digest in [
        ("Z2xZ2xZ2xZ2", "187766d1c0beb120a42bc5b8ec80d4379d93a175695adddcab46a1f456acc820"),
        ("Z3xZ3xZ3", "a5471cd75c67ae5a6adfa1d56ed3ab5377a5a0d60225217ab5fb9dff043942f7"),
        ("Z8xZ8", "a5471cd75c67ae5a6adfa1d56ed3ab5377a5a0d60225217ab5fb9dff043942f7"),
        ("Z2xZ32", "a5471cd75c67ae5a6adfa1d56ed3ab5377a5a0d60225217ab5fb9dff043942f7"),
    ]:
        code, text = invoke("lottery", "--group", lit, "--event", "auto", "--samples", "4096",
                            "--seed", "1")
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, digest), lit


def test_skewhex_outputs():
    code, text = invoke("skewhex", "--group", "S3")
    assert code == 0
    doc = json.loads(text)
    assert (doc["order"], doc["orbits"], doc["bound"]) == (6, 5, 8)
    assert sorted(doc["sizes"]) == [1, 2, 6, 9, 18]
    code, text = invoke("skewhex", "--group", "Z6")
    doc = json.loads(text)
    assert (doc["orbits"], doc["bound"]) == (10, None)


def test_usage_errors_are_64():
    assert invoke("hexcount")[0] == 64  # missing --group
    assert invoke("hexcount", "--group", "Z4", "--bogus")[0] == 64
    assert invoke("frobnicate")[0] == 64
    assert invoke()[0] == 64
    assert invoke("--help")[0] == 0
    assert invoke("lottery", "--help")[0] == 0


def test_domain_errors_are_1(tmp_path):
    assert invoke("hexcount", "--group", "Q17")[0] == 1
    assert invoke("quotient", "--q", "12", "--index", "1")[0] == 1
    assert invoke("quotient", "--q", "7", "--index", "4")[0] == 1
    assert invoke("lottery", "--group", "Z3", "--event", "bogus")[0] == 1
    assert invoke("check", "--pasture", str(tmp_path / "nope.json"))[0] == 1
    bad = tmp_path / "bad.json"
    for text in ["{not json", "[]", '{"group": "Z2", "epsilon": [0]}']:
        bad.write_text(text, encoding="utf-8")
        assert invoke("check", "--pasture", str(bad))[0] == 1


def test_capacity_errors_are_2(monkeypatch):
    assert invoke("census", "--group", "Z16")[0] == 2
    assert invoke("skewhex", "--group", "Z5xZ5")[0] == 2
    assert invoke("classify", "--group", "Z9")[0] == 2

    def no_table(*args):
        raise AssertionError("a table was built before the cap check")

    # the caps fire before any Cayley table or field table is built
    monkeypatch.setattr(skew.CayleyGroup, "__post_init__", no_table)
    monkeypatch.setattr(galois.FiniteField, "exp_table", property(no_table))
    assert invoke("skewhex", "--group", "Z400") == (2, "")
    assert invoke("quotient", "--q", "999983", "--index", "999982") == (2, "")


def test_thread_cap_exits_2_before_any_chunk(monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk ran before the thread cap check")

    monkeypatch.setattr(lottery, "_run_chunks", no_chunks)
    over = str(lottery.THREAD_CAP + 1)
    lot = ("lottery", "--group", "Z5", "--event", "star", "--samples", "100000000")
    for args in [lot, ("census", "--group", "Z5"), ("classify", "--group", "Z3")]:
        assert invoke(*args, "--threads", over) == (2, ""), args
        monkeypatch.setenv("HEXAFIELD_THREADS", over)
        assert invoke(*args) == (2, ""), args
        monkeypatch.delenv("HEXAFIELD_THREADS")


def test_thread_flag_is_byte_invariant():
    for args in [("census", "--group", "Z5"),
                 ("lottery", "--group", "Z5", "--event", "hyperfield",
                  "--samples", "2000"),
                 ("classify", "--group", "Z3"),
                 # 8 chunks per unit, so the threads share the chunks
                 ("census", "--group", "Z8"),
                 ("classify", "--group", "Z2xZ4")]:
        one = invoke(*args, "--threads", "1")
        four = invoke(*args, "--threads", "4")
        assert one == four, args


def cache_misses() -> dict[str, int]:
    return {f"{name}.{attr}": obj.cache_info().misses
            for name, mod in list(sys.modules.items()) if name.startswith("hexafield.")
            for attr, obj in vars(mod).items() if hasattr(obj, "cache_info")}


def test_benchmark_jobs_fill_no_cache_after_warm_up():
    # the benchmark's rule: once the warm-up has run every predicate on a
    # zero row (the oracle up to its order cap), its census, classify and
    # lottery jobs miss no lru_cache
    warm = [(AbelianGroup.from_literal(lit), unit.index) for lit in ["Z8", "Z2xZ4"]
            for unit in AbelianGroup.from_literal(lit).units_of_order_le_2()]
    warm += [(AbelianGroup.from_literal(lit), 0) for lit in ["Z3", "Z13"]]
    for group, unit in warm:
        k = kernels_for(group, unit)
        row = np.zeros((1, build_table(group).size), dtype=bool)
        for predicate in (k.is_hyperfield, k.satisfies_star,
                          k.has_nontrivial_automorphism, k.is_4full,
                          k.is_zero_over_zero, k.is_field, k.one_plus_minus_one):
            predicate(row)
        if group.order <= ORACLE_ORDER_CAP:
            k.axiom_oracle(row)
    before = cache_misses()
    assert before
    jobs = [(command, "--group", lit) for command, lit in
            [("census", "Z8"), ("census", "Z2xZ4"), ("classify", "Z2xZ4")]]
    jobs += [("lottery", "--group", lit, "--event", event, "--samples", samples, "--seed", "1")
             for lit, event, samples in [("Z3", "star", "200000"), ("Z13", "hyperfield", "8192")]]
    for job in jobs:
        code, text = invoke(*job, "--threads", "2")
        assert code == 0 and text, job
    assert {k: v for k, v in cache_misses().items() if v != before.get(k, 0)} == {}
