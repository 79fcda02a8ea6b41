import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from optwist import serialize as ser
from optwist.cli import main
from optwist.qcohom import constant_functor, gamma_t
from optwist.twisted import tw_com_fast


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_operad_check_writes_stamped_artifact(tmp_path):
    out = tmp_path / "check.json"
    assert main(["operad", "check", "--spec", "ass", "--max-arity", "3",
                 "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema_version"] == ser.SCHEMA_VERSION
    assert doc["meta"]["truncation"] == 3
    assert doc["meta"]["seed"] == 0
    assert doc["payload"]["failures"] == []


def test_operad_check_free_generators():
    assert main(["operad", "check", "--spec", "free:m:2", "--max-arity", "3"]) == 0
    assert main(["operad", "check", "--spec", "free:m:2,c:3", "--max-arity", "2"]) == 0


def test_bad_operad_spec_is_usage_error():
    assert main(["operad", "check", "--spec", "nope", "--max-arity", "2"]) == 2
    assert main(["operad", "check", "--spec", "free:m", "--max-arity", "2"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    assert main(["tw", "certify-com", "--max-arity", "2", "--frob"]) == 2


@pytest.mark.parametrize("argv", [
    ["operad", "check", "--spec", "com", "--max-arity", "-1"],
    ["tw", "build", "--operad", "com", "--max-arity", "-1"],
    ["tw", "certify-com", "--max-arity", "-1"],
    ["tw", "certify-ass", "--max-arity", "-1"],
    ["sset", "quasi", "--input", "d2", "--dim", "-1"],
    ["sset", "un", "--variance", "left", "--input", "d2", "--dim", "-1"],
    ["qcohom", "--operad", "com", "--coeff", "t", "--degrees", "0..1",
     "--max-arity", "-1"],
    ["gamma", "ext-t", "--target", "t", "--trunc", "-1", "--degrees", "0..1"],
    ["ass", "les-check", "--trunc", "-1", "--top-degree", "1"],
    ["ass", "les-check", "--trunc", "2", "--top-degree", "-1", "--trials", "1"],
    ["ass", "les-check", "--trunc", "2", "--top-degree", "1", "--trials", "-1"],
], ids=lambda argv: " ".join(argv[:2] + [argv[argv.index("-1") - 1]]))
def test_negative_sizes_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be non-negative" in err and "Traceback" not in err


def test_certify_com_trivial_cap():
    assert main(["tw", "certify-com", "--max-arity", "0"]) == 0


def test_certify_ass_prints_hom_counts(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["tw", "certify-ass", "--max-arity", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    # row m=2: C(n+3, 3) for n = 0..2
    assert "1  4  10" in text
    doc = read_json(out)
    assert doc["payload"]["hom_counts"][2] == [1, 4, 10]


def test_tw_build_round_trips(tmp_path):
    out = tmp_path / "tw3.json"
    assert main(["tw", "build", "--operad", "com", "--max-arity", "3",
                 "--out", str(out)]) == 0
    C = ser.load(out)
    D = tw_com_fast(3)
    assert list(C.objects) == list(D.objects)
    assert {k: [t[2] for t in v] for k, v in C.homs.items()} == \
           {k: [t[2] for t in v] for k, v in D.homs.items()}


@pytest.mark.parametrize("out", [None, "tw2.csv"])
def test_tw_build_needs_a_json_out(tmp_path, capsys, out):
    argv = ["tw", "build", "--operad", "com", "--max-arity", "2"]
    if out:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_tampered_dump_is_certified_failure(tmp_path):
    out = tmp_path / "tw2.json"
    main(["tw", "build", "--operad", "com", "--max-arity", "2",
          "--out", str(out)])
    doc = read_json(out)
    doc["payload"]["homs"][0]["arrows"].pop()
    out.write_text(json.dumps(doc))
    with pytest.raises(ser.SchemaError):
        ser.load(out)
    assert main(["ext", "--base", str(out), "--source", "const:1",
                 "--target", "const:1", "--degrees", "0..0"]) == 1


def test_schema_version_mismatch_is_versioned_error(tmp_path):
    out = tmp_path / "tw2.json"
    main(["tw", "build", "--operad", "com", "--max-arity", "2",
          "--out", str(out)])
    doc = read_json(out)
    doc["schema_version"] = 99
    out.write_text(json.dumps(doc))
    with pytest.raises(ser.SchemaError, match="99"):
        ser.load(out)


def test_empty_category_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    E = ser.build_base("empty")
    ser.persist(E, path, ser.make_meta(None, 0, "none", 0), hint="empty")
    E2 = ser.load(path)
    assert E2.objects == () and E2.homs == {}


def test_functor_round_trip_and_file_source(tmp_path):
    path = tmp_path / "t2.json"
    T = gamma_t(2)
    ser.persist(T, path, ser.make_meta(0, 2, "none", 0), hint="gamma:2")
    T2 = ser.load(path)
    assert T2.dims == T.dims and T2.mats == T.mats and T2.p == T.p
    assert main(["ext", "--base", "gamma:2", "--source", f"file:{path}",
                 "--target", "t", "--degrees", "0..1"]) == 0
    # field mismatch between the dump and the requested computation
    assert main(["ext", "--base", "gamma:2", "--source", f"file:{path}",
                 "--target", "t", "--degrees", "0..1",
                 "--field", "fp:101"]) == 2


@pytest.mark.parametrize("tamper", ["drop-matrix", "drop-dim", "bogus-src", "not-a-functor",
                                    "no-mats", "payload-list", "not-json"])
def test_malformed_functor_dump_is_certified_failure(tmp_path, capsys, tamper):
    # loading rebuilds the base and requires exactly its objects, one
    # matrix per arrow of it, and matrices that form a functor; a dump
    # that cannot even be read fails the same way, without a traceback
    path = tmp_path / "t2.json"
    ser.persist(gamma_t(2), path, ser.make_meta(0, 2, "none", 0), hint="gamma:2")
    doc = read_json(path)
    payload = doc["payload"]
    if tamper == "drop-matrix":
        payload["mats"].pop(3)
    elif tamper == "drop-dim":
        payload["dims"].pop(0)
    elif tamper == "not-a-functor":
        entry = next(e for e in payload["mats"]
                     if e["src"] != e["tgt"] and e["matrix"]["entries"])
        entry["matrix"]["entries"][0][2] = 5
    elif tamper == "no-mats":
        del payload["mats"]
    elif tamper == "payload-list":
        doc["payload"] = [payload]
    elif tamper == "bogus-src":
        payload["mats"].append(dict(payload["mats"][0], src=ser.encode(7)))
    path.write_text("{not json" if tamper == "not-json" else json.dumps(doc))
    with pytest.raises(ser.SchemaError):
        ser.load(path)
    capsys.readouterr()
    assert main(["ext", "--base", "gamma:2", "--source", "t",
                 "--target", f"file:{path}", "--degrees", "0..1"]) == 1
    assert "FAIL:" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["no-homs", "payload-list", "bad-hint", "list-hint",
                                    "not-json"])
def test_malformed_category_dump_is_certified_failure(tmp_path, capsys, tamper):
    path = tmp_path / "tw2.json"
    assert main(["tw", "build", "--operad", "com", "--max-arity", "2",
                 "--out", str(path)]) == 0
    doc = read_json(path)
    if tamper == "no-homs":
        del doc["payload"]["homs"]
    elif tamper == "payload-list":
        doc["payload"] = [doc["payload"]]
    elif tamper == "bad-hint":
        doc["payload"]["base"] = "tw:com:x"
    elif tamper == "list-hint":
        doc["payload"]["base"] = ["tw", "com", 2]
    path.write_text("{not json" if tamper == "not-json" else json.dumps(doc))
    with pytest.raises(ser.SchemaError):
        ser.load(path)
    capsys.readouterr()
    assert main(["ext", "--base", str(path), "--source", "const:1",
                 "--target", "const:1", "--degrees", "0..0"]) == 1
    assert "FAIL:" in capsys.readouterr().err


def test_malformed_sset_dump_is_certified_failure(tmp_path, capsys):
    from optwist.sset import boundary_simplex
    path = tmp_path / "bd2.json"
    payload = boundary_simplex(2).to_json()
    del payload["nondegenerate"]
    ser.dump_json(ser.artifact("sset", payload, ser.make_meta(None, 2, "none", 0)), path)
    assert main(["sset", "quasi", "--input", str(path), "--dim", "1"]) == 1
    assert "FAIL:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absent.json", "a-directory"])
def test_dump_path_that_is_not_a_file_is_usage_error(tmp_path, capsys, name):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    assert main(["ext", "--base", "gamma:2", "--source", "t", "--target",
                 f"file:{path}", "--degrees", "0..1"]) == 2
    assert main(["ext", "--base", str(path), "--source", "const:1",
                 "--target", "const:1", "--degrees", "0..0"]) == 2
    assert main(["sset", "quasi", "--input", str(path), "--dim", "1"]) == 2
    assert capsys.readouterr().err.count("usage error") == 3


def test_fractional_entry_in_fp_dump_is_refused(tmp_path, capsys):
    # 205/2 is 52 in F_101; read as int(205/2) % 101 it would be 1, and
    # the tampered dump would load as the constant functor it came from
    path = tmp_path / "const.json"
    ser.persist(constant_functor(ser.build_base("gamma:2"), 101), path,
                ser.make_meta(101, 2, "none", 0), hint="gamma:2")
    doc = read_json(path)
    entry = next(e for e in doc["payload"]["mats"] if e["matrix"]["entries"])
    assert entry["matrix"]["entries"][0][2] == 1
    entry["matrix"]["entries"][0][2] = ser.encode(Fraction(205, 2))
    path.write_text(json.dumps(doc))
    with pytest.raises(ser.SchemaError, match="not an integer"):
        ser.load(path)
    capsys.readouterr()
    assert main(["ext", "--base", "gamma:2", "--source", "t", "--target",
                 f"file:{path}", "--degrees", "0..1", "--field", "fp:101"]) == 1
    assert "FAIL:" in capsys.readouterr().err


def test_sset_quasi_bytes_stable_across_threads(tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.json"
        assert main(["sset", "quasi", "--input", "grid", "--dim", "2",
                     "--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    doc = json.loads(outs[0])
    assert doc["payload"]["counts"] == {"0": "4", "1": "9", "2": "16"} or \
           doc["payload"]["counts"] == {"0": 4, "1": 9, "2": 16}


def test_sset_un_counts_match_simplex_counts(tmp_path):
    out = tmp_path / "un.csv"
    assert main(["sset", "un", "--variance", "right", "--input", "d1",
                 "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version: 1"
    assert any(line.startswith("# seed:") for line in lines)
    assert lines[-2:] == ["1,3", "2,4"]


def test_sset_input_file(tmp_path):
    from optwist.sset import boundary_simplex
    path = tmp_path / "bd2.json"
    X = boundary_simplex(2)
    doc = ser.artifact("sset", X.to_json(), ser.make_meta(None, 2, "none", 0))
    ser.dump_json(doc, path)
    assert main(["sset", "quasi", "--input", str(path), "--dim", "1"]) == 0


def test_ext_backends_agree_through_cli():
    assert main(["ext", "--base", "gamma:2", "--source", "t", "--target", "t",
                 "--degrees", "0..2", "--field", "fp:101",
                 "--backend", "both"]) == 0


def test_ext_usage_errors():
    assert main(["ext", "--base", "gamma:2", "--source", "t",
                 "--target", "eta", "--degrees", "0..1"]) == 2
    assert main(["ext", "--base", "gamma:2", "--source", "t", "--target", "t",
                 "--degrees", "2..0"]) == 2
    assert main(["ext", "--base", "nowhere:9", "--source", "t",
                 "--target", "t", "--degrees", "0..1"]) == 2
    assert main(["ext", "--base", "gamma:2", "--source", "t", "--target", "t",
                 "--degrees", "0..1", "--field", "fp:10"]) == 2


@pytest.mark.parametrize("target", ["t", "rand:7"])
def test_primes_past_2_31_are_refused_up_front(target, capsys):
    # residue products must fit an int64: 2^32 + 15 overflowed them and
    # 2^63 - 25 hung in trial division
    argv = ["ext", "--base", "gamma:3", "--source", "t", "--target", target,
            "--degrees", "0..3", "--field"]
    for p in (4294967311, 9223372036854775783):
        start = time.perf_counter()
        assert main(argv + [f"fp:{p}"]) == 2
        assert time.perf_counter() - start < 1
        assert "below 2^31" in capsys.readouterr().err


def test_largest_admitted_prime_still_computes(tmp_path):
    out = tmp_path / "e.json"
    assert main(["ext", "--base", "gamma:3", "--source", "t", "--target", "t",
                 "--degrees", "0..3", "--field", "fp:2147483647",
                 "--out", str(out)]) == 0
    assert read_json(out)["payload"]["dims"] == {"0": 1, "1": 0, "2": 0, "3": 0}


def test_qcohom_table_with_negative_degree(tmp_path):
    out = tmp_path / "q.json"
    assert main(["qcohom", "--operad", "ass", "--coeff", "const:1",
                 "--degrees=-1..1", "--max-arity", "2", "--field", "fp:101",
                 "--backend", "cover", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["payload"]["table"] == {"-1": 0, "0": 0, "1": 0}
    assert doc["meta"]["field"] == "fp:101"
    assert doc["meta"]["backend"] == "cover"


def test_gamma_ext_t_csv_carries_meta(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gamma", "ext-t", "--target", "t", "--trunc", "2",
                 "--degrees", "0..1", "--field", "fp:101",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# field: fp:101" in text
    assert "# truncation: 2" in text
    assert text.splitlines()[-2:] == ["0,1", "1,0"]


def test_les_check_passes_and_reports(tmp_path):
    out = tmp_path / "les.json"
    assert main(["ass", "les-check", "--trunc", "2", "--top-degree", "2",
                 "--trials", "2", "--seed", "5", "--field", "fp:101",
                 "--out", str(out)]) == 0
    doc = read_json(out)
    assert len(doc["payload"]["results"]) == 4
    assert all(r["all_exact"] for r in doc["payload"]["results"])
    assert doc["meta"]["seed"] == 5


def test_csv_out_needs_tabular_artifact(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["operad", "check", "--spec", "com", "--max-arity", "2",
                 "--out", str(out)]) == 2


def test_rand_spec_defaults_to_run_seed():
    a = main(["ext", "--base", "delta:2", "--source", "rand", "--target",
              "const:1", "--degrees", "0..0", "--field", "fp:101",
              "--seed", "3"])
    b = main(["ext", "--base", "delta:2", "--source", "rand:3", "--target",
              "const:1", "--degrees", "0..0", "--field", "fp:101"])
    assert a == 0 and b == 0


def test_build_base_keeps_one_base_per_hint(tmp_path):
    for hint in ("gamma:2", "delta:3", "tw:com:2", "tw:ass:2", "empty"):
        assert ser.build_base(hint) is ser.build_base(hint)
    assert ser.build_base("gamma:2") is not ser.build_base("gamma:3")
    # a dump reloads as the cached base once its hom sets compare equal
    out = tmp_path / "tw2.json"
    assert main(["tw", "build", "--operad", "com", "--max-arity", "2",
                 "--out", str(out)]) == 0
    assert ser.load(out) is ser.build_base("tw:com:2")


_SERVED_TWICE = [
    ["ext", "--base", "tw:ass:2", "--source", "yon:1", "--target", "rand:5",
     "--degrees", "0..2", "--field", "fp:101"],
    ["ext", "--base", "gamma:2", "--source", "t", "--target", "t",
     "--degrees", "0..2"],
    ["qcohom", "--operad", "ass", "--coeff", "rand:7", "--degrees=-1..1",
     "--max-arity", "2", "--field", "fp:101"],
    ["ass", "les-check", "--trunc", "2", "--top-degree", "2", "--trials", "1",
     "--seed", "3", "--field", "fp:101"],
    ["ext", "--base", "gamma:3", "--source", "yon:2", "--target", "t",
     "--degrees", "0..3"],
    ["ext", "--base", "delta:3", "--source", "yon:1", "--target", "fass",
     "--degrees", "0..3", "--field", "fp:101"],
    ["ext", "--base", "delta:3", "--source", "fass", "--target", "fass",
     "--degrees", "0..1"],
]


@pytest.mark.parametrize("argv", _SERVED_TWICE, ids=lambda a: a[0])
def test_requests_served_twice_match_a_fresh_process(argv, tmp_path):
    # the second in-process run reuses the bases, tables and shared
    # functors of the first; before both, the same request to a higher
    # degree grows the kept resolutions past what the request reads
    fresh = tmp_path / "fresh.json"
    proc = subprocess.run([sys.executable, "-m", "optwist.cli", *argv,
                           "--out", str(fresh)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if "--degrees" in argv:
        i = argv.index("--degrees") + 1
        a, b = argv[i].split("..")
        assert main(argv[:i] + [f"{a}..{int(b) + 2}"] + argv[i + 1:]) == 0
    for name in ("first", "second"):
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
