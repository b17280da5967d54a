import ast
import contextlib
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import pytest

import ndescent
from ndescent import algebra, cli
from ndescent.cli import main
from ndescent.fields import FieldTower
from ndescent.curve import Curve, Point
from ndescent.algebra import RhoTable, Trivialisation, partial, trivialize, validate_rho
from ndescent.geometry import descend
from ndescent import serialize as ser
from oracles import index_pairs, seeded_cochain


def _coboundary_rho(table, field):
    # rho = d(z) for a seeded cochain z with values in K
    return validate_rho(table, partial(table, seeded_cochain(field, 51)).values)


@pytest.fixture(scope="module")
def work(tmp_path_factory, curve, field, table, aux_curve, aux_field):
    """One full command line pipeline, shared by the assertions below."""
    d = tmp_path_factory.mktemp("cli")
    paths = {k: str(d / (k + ".json")) for k in
             ["curve", "curveq", "aux", "torsion", "quadE", "quadC", "rho",
              "csa", "triv", "out", "point2", "rho2", "csa2"]}
    ser.save(paths["curve"], ser.curve_to_json(curve))
    ser.save(paths["curveq"], ser.curve_to_json(Curve(FieldTower.rationals(), 0, -432)))
    ser.save(paths["aux"], ser.curve_to_json(aux_curve))

    ser.save(paths["rho"], ser.rho_to_json(_coboundary_rho(table, field)))

    q = Point(aux_curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    ser.save(paths["point2"], ser.point_to_json(q))

    rc = {}
    rc["torsion"] = main(["torsion", "--curve", paths["curve"], "--out", paths["torsion"]])
    rc["quadE"] = main(["quadrics", "--curve", paths["curve"], "--out", paths["quadE"]])
    rc["quadC"] = main(["quadrics", "--curve", paths["curve"], "--rho", paths["rho"],
                        "--out", paths["quadC"]])
    rc["algebra"] = main(["algebra", "--curve", paths["curve"], "--rho", paths["rho"],
                          "--out", paths["csa"]])
    rc["trivialize"] = main(["trivialize", "--curve", paths["curve"], "--rho", paths["rho"],
                             "--mode", "gamma", "--out", paths["triv"]])
    rc["descend"] = main(["descend", "--curve", paths["curve"], "--rho", paths["rho"],
                          "--triv", paths["triv"], "--out", paths["out"]])
    rc["rho2"] = main(["rho-from-point", "--curve", paths["aux"], "--point", paths["point2"],
                       "--out", paths["rho2"]])
    rc["algebra2"] = main(["algebra", "--curve", paths["aux"], "--rho", paths["rho2"],
                           "--out", paths["csa2"]])
    return d, paths, rc


# sha256 of each file in the pipeline's directory, and of verify's stdout
_PIPELINE_SHA256 = {
    "aux-csa.json": "b4efc8a8eef76116372dfb8344a05341cc48fcc31319586ab91250e66bcc7bea",
    "aux-curve.json": "60008066ed9f921ac13b7117ffa70a3f968edae207623ce288037d2bd9df10ae",
    "aux-descent.json": "5a72abe217e66b409d29a8c029e45aa06a5c21ce1e61d691df901751e66efdbd",
    "aux-point.json": "bf4cf03c26ec270039a8f65bf74dd9bf42a10f68fc70d1e7d101cd2227cd1007",
    "aux-quadC.json": "a70917eab76627676a507492d91d548e34236a954378b52529fea3100a0c7197",
    "aux-quadE.json": "33a429022bacf9ad4da78222526e807f9c5960376a61cb770484deccf94cb4c6",
    "aux-rho.json": "0ad777f238f596decb3a2e477f55401375a11dfea37689b69832f5d8c1ebf879",
    "aux-torsion.json": "201f73905f6d10019d4297c0f5b8662e03312f76058d9d4bc978a8cc77f3b0d4",
    "aux-triv.json": "3d7df406b5765f237e2a65eb59b23560494f1992f164d06dc4d01daeb2636502",
    "aux-user.json": "8f8ccdad05011cad7f32f7664fca5e8732726402f781ff461d094199a4feba57",
    "ref-csa.json": "95abc72b8e0ba05ab1976dfa5d6ee72bbc9d0bca856cf7b2dae3cba3a70d5422",
    "ref-curve.json": "4175ac68b3480c33ea754ffe51805c0b31852268bcac7076634f67d6164e540e",
    "ref-descent.json": "ee09dfdae97d81f55717de256c8e26887f5d0597225ef0c593aa257535de98a6",
    "ref-quadC.json": "612e80a760ebb003775527861905d877479712ac455d0bee149f1afc79c5c766",
    "ref-quadE.json": "8b199c9f01cb5692bbc9aab6453394f373385a92ff427ad44c16eda64c80585a",
    "ref-rho.json": "eef46c44cc55db9e3af2c5f7f0f16cf5078de8dde266dbb979c7597ac777721a",
    "ref-torsion.json": "3569e7a5f2836d66967a208eff3e47b7fd655d86869410424f250147146a759d",
    "ref-triv.json": "d396d0585378e9b603e3c97811f21f81965b6f3933e4edf20c34a6bd6a77205c",
    "ref-user.json": "17d750c54a525cecb67d739d9a7b9adeeb3497614f35848b890e87bb6121d748",
    "verify": "f1b50f2eba24b38262011f1c368413cf85826e8c69851e3d00352a1791576606",
}


def test_cli_pipeline_bytes_are_pinned(curve, field, table, aux_curve, aux_field, tmp_path,
                                       monkeypatch, capsys):
    # a CLI pipeline on both curves, byte for byte: rho from the point
    # (7, 17) on the aux curve and a coboundary rho on the reference
    # curve, then per curve torsion, quadrics with and without --rho,
    # algebra, trivialize in gamma and user mode, descend, and verify of
    # all of them; relative paths keep verify's stdout free of tmp_path
    monkeypatch.chdir(tmp_path)
    ser.save("ref-curve.json", ser.curve_to_json(curve))
    ser.save("ref-rho.json", ser.rho_to_json(_coboundary_rho(table, field)))
    ser.save("aux-curve.json", ser.curve_to_json(aux_curve))
    q = Point(aux_curve, aux_field.from_fraction(7), aux_field.from_fraction(17))
    ser.save("aux-point.json", ser.point_to_json(q))
    assert main(["rho-from-point", "--curve", "aux-curve.json", "--point", "aux-point.json",
                 "--out", "aux-rho.json"]) == 0
    for c, seed in (("ref", 5), ("aux", 3)):
        rho, triv = ("--rho", c + "-rho.json"), c + "-triv.json"
        for command, name, *extra in (("torsion", "torsion"), ("quadrics", "quadE"),
                                      ("quadrics", "quadC", *rho), ("algebra", "csa", *rho),
                                      ("trivialize", "triv", *rho, "--mode", "gamma"),
                                      ("trivialize", "user", *rho, "--mode", "user",
                                       "--triv", triv),
                                      ("descend", "descent", *rho, "--triv", triv,
                                       "--seed", str(seed))):
            assert main([command, "--curve", c + "-curve.json", *extra,
                         "--out", "%s-%s.json" % (c, name)]) == 0
    capsys.readouterr()
    for c in ("ref", "aux"):
        assert main(["verify", "--curve", c + "-curve.json"] +
                    ["%s-%s.json" % (c, name) for name in
                     ("rho", "torsion", "quadE", "quadC", "csa", "triv", "user", "descent")]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.glob("*.json")}
    digests["verify"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _PIPELINE_SHA256


def test_pipeline_return_codes(work):
    _, _, rc = work
    assert rc == {k: 0 for k in rc}


def test_artifact_kinds(work):
    _, paths, _ = work
    kinds = {"torsion": "torsion", "quadE": "quadrics", "quadC": "quadrics",
             "csa": "csa", "triv": "trivialisation", "out": "descent",
             "rho2": "rho", "csa2": "csa"}
    for key, kind in kinds.items():
        assert ser.load(paths[key])["kind"] == kind


def test_verify_everything_passes(work, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["curve"], paths["curve"], paths["torsion"],
               paths["quadE"], paths["quadC"], paths["rho"], paths["csa"],
               paths["triv"], paths["out"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks pass" in out
    assert "FAIL" not in out
    assert out.count("PASS") >= 12
    assert "PASS %s: plane cubic is fixed by the generators up to their determinant" \
        % paths["out"] in out


def test_verify_frees_its_curve_without_gc(work, tmp_path, capsys, monkeypatch):
    # curve._data and CurveData.curve form a cycle; every command unlinks
    # it when it returns, so refcounting alone frees the curve it loaded
    _, paths, _ = work
    curve, rho, out = paths["curve"], paths["rho"], str(tmp_path / "out.json")
    argvs = [["torsion", "--curve", curve, "--out", out],
             ["quadrics", "--curve", curve, "--rho", rho, "--out", out],
             ["algebra", "--curve", curve, "--rho", rho, "--out", out],
             ["rho-from-point", "--curve", paths["aux"], "--point", paths["point2"],
              "--out", out],
             ["trivialize", "--curve", curve, "--rho", rho, "--mode", "gamma", "--out", out],
             ["descend", "--curve", curve, "--rho", rho, "--triv", paths["triv"], "--out", out],
             ["verify", "--curve", curve, rho, paths["triv"], paths["out"]]]
    loaded, real = [], cli._load_curve

    @contextlib.contextmanager
    def load(args):
        with real(args) as data:
            loaded.append(weakref.ref(data.curve))
            yield data
    monkeypatch.setattr(cli, "_load_curve", load)
    gc.disable()
    try:
        for argv in argvs:
            assert main(argv) == 0, argv[0]
            assert loaded[-1]() is None, argv[0]
        assert len(loaded) == len(argvs)
    finally:
        gc.enable()


def test_verify_validates_each_rho_once(work, tmp_path, capsys, monkeypatch):
    # five files carry one rho, and a tampered rho comes twice: each table
    # is validated once, and every file still prints its own rho line
    _, paths, _ = work
    calls = []
    real = algebra._check_rho
    monkeypatch.setattr(algebra, "_check_rho", lambda *a: calls.append(a) or real(*a))
    bad = _tampered_rho(paths, tmp_path)
    rc = main(["verify", "--curve", paths["curve"], paths["rho"], paths["quadC"],
               paths["csa"], paths["triv"], paths["out"], bad, bad])
    out = capsys.readouterr().out
    assert rc == 3
    assert len(calls) == 2
    assert out.count("PASS %s: rho is a symmetric cocycle" % paths["out"]) == 1
    assert out.count("rho is a symmetric cocycle") == 7
    assert out.count("FAIL %s: rho is a symmetric cocycle (('symmetry'" % bad) == 2


def test_verify_decodes_each_table_once(work, tmp_path, capsys, monkeypatch):
    # the good call's five files carry one rho table, twice one structure
    # table, twice the nine matrices of one trivialisation, twice one list
    # of quadric forms, and fields equal to the curve's: it decodes 2 pair
    # tables, 9 matrices and 1 list of forms, and certifies no tower but
    # the curve file's; a second call decodes again, and a csa whose rho
    # differs from rho.json in one entry is decoded and checked on its own
    _, paths, _ = work
    decoded, matrices, forms, levels = [], [], [], []
    for name, calls in (("_decode_pairs", decoded), ("matrix_from_json", matrices),
                        ("quadrics_from_json_forms", forms), ("tower_extend", levels)):
        monkeypatch.setattr(ser, name, lambda *a, real=getattr(ser, name), calls=calls, **k:
                            calls.append(a) or real(*a, **k))
    good = ["verify", "--curve", paths["curve"], paths["rho"], paths["csa"], paths["triv"],
            paths["quadC"], paths["out"]]
    assert main(good) == 0
    assert (len(decoded), len(matrices), len(forms), len(levels)) == (2, 9, 1, 1)
    assert main(good) == 0
    assert (len(decoded), len(matrices), len(forms), len(levels)) == (4, 18, 2, 2)
    capsys.readouterr()
    bad = _tampered_csa(paths, tmp_path)
    assert main(["verify", "--curve", paths["curve"], paths["rho"], bad]) == 3
    out = capsys.readouterr().out
    assert len(decoded) == 7
    assert "PASS %s: rho is a symmetric cocycle" % paths["rho"] in out
    assert "FAIL %s: rho is a symmetric cocycle (('symmetry'" % bad in out


def test_main_builds_its_parser_once_and_runs_the_command_bound_now(work, monkeypatch):
    # the parser holds no data of a call, so main builds it once per
    # process; it looks the command up when it runs, so a patched
    # command is the one that runs
    _, paths, _ = work
    argv = ["verify", "--curve", paths["curve"], paths["curve"]]
    assert main(argv) == 0
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "cmd_verify", lambda args, data: 7)
    assert main(argv) == 7


def test_verify_rebuilds_each_part_once(work, capsys, monkeypatch):
    # the quadrics, algebra and trivialisation files and the descent file
    # carry one rho: its quadrics and algebra are rebuilt once, and the
    # trivialisation the descent embeds is the one of triv.json, so it is
    # certified once; every file still prints its own lines
    _, paths, _ = work
    calls = []
    for module, name in ((cli, "build_csa"), (algebra, "certify_trivialisation"),
                         (cli, "quadrics_for_C")):
        monkeypatch.setattr(module, name, lambda *a, name=name, real=getattr(module, name):
                            calls.append(name) or real(*a))
    files = [paths["quadC"], paths["csa"], paths["triv"], paths["out"]]
    assert main(["verify", "--curve", paths["curve"]] + files) == 0
    out = capsys.readouterr().out
    assert sorted(calls) == ["build_csa", "certify_trivialisation", "quadrics_for_C"]
    assert out.count(": quadrics match recomputation") == 2
    assert out.count(": structure constants certify and match") == 2
    assert out.count(": trivialisation certifies") == 2


def test_verify_reads_e_n_only_for_kinds_that_need_it(work, tmp_path, capsys):
    # a curve file and a point file need no E[n]: over Q, where only 3 of
    # the 9 points of E[3] are rational, both pass; a rho file needs the
    # torsion table and keeps its exit 2
    _, paths, _ = work
    point = str(tmp_path / "pointq.json")
    curveq = ser.curve_from_json(ser.load(paths["curveq"]))
    ser.save(point, ser.point_to_json(Point(curveq, 12, 36)))
    rc = main(["verify", "--curve", paths["curveq"], paths["curveq"], point])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2
    assert main(["verify", "--curve", paths["curveq"], paths["rho"]]) == 2
    assert "rational n-torsion" in capsys.readouterr().err


def test_verify_aux_artifacts(work, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["aux"], paths["aux"], paths["point2"],
               paths["rho2"], paths["csa2"]])
    assert rc == 0
    assert "all checks pass" in capsys.readouterr().out


def test_descend_deterministic(work, tmp_path):
    _, paths, _ = work
    again = str(tmp_path / "again.json")
    rc = main(["descend", "--curve", paths["curve"], "--rho", paths["rho"],
               "--triv", paths["triv"], "--out", again])
    assert rc == 0
    with open(paths["out"], "rb") as f1, open(again, "rb") as f2:
        assert f1.read() == f2.read()


def test_torsion_not_rational_exit_2(work, tmp_path, capsys):
    _, paths, _ = work
    rc = main(["torsion", "--curve", paths["curveq"], "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "found 3 of 9" in capsys.readouterr().err


def _garbage(tmp_path, data=b"{oops"):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    return str(bad)


def _tampered_csa(paths, tmp_path):
    """csa.json with one entry of its rho changed."""
    j = json.loads(open(paths["csa"]).read())
    assert j["rho"]["1,0|0,1"] != ["19", "0"]
    j["rho"]["1,0|0,1"] = ["19", "0"]
    bad = tmp_path / "badcsa.json"
    bad.write_text(json.dumps(j))
    return str(bad)


def _tampered_rho(paths, tmp_path):
    j = json.loads(open(paths["rho"]).read())
    j["values"]["1,0|0,1"] = ["19", "0"]
    bad = tmp_path / "badrho.json"
    bad.write_text(json.dumps(j))
    return str(bad)


def _repeated_key(paths, tmp_path):
    # the text of rho.json with the key "1,0|0,1" twice, a wrong value
    # first: json.load alone keeps the last, the true one
    key = '"1,0|0,1":'
    bad = tmp_path / "repeatedkey.json"
    bad.write_text(open(paths["rho"]).read().replace(key, key + '["23","0"],' + key, 1))
    return str(bad)


def test_garbage_file_exit_1(work, tmp_path, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["curve"], _garbage(tmp_path)])
    assert rc == 1


def test_cross_curve_artifact_exit_1(work, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["aux"], paths["torsion"]])
    assert rc == 1
    assert "different curve" in capsys.readouterr().err


def test_tampered_rho_exit_3(work, tmp_path, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["curve"], _tampered_rho(paths, tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL" in out and "symmetry" in out


def test_tampered_trivialisation_exit_3(work, tmp_path, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["triv"]).read())
    j["matrices"]["1,0"], j["matrices"]["0,1"] = j["matrices"]["0,1"], j["matrices"]["1,0"]
    bad = tmp_path / "badtriv.json"
    bad.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(bad)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL" in out and "multiplicative" in out


def test_tampered_cubic_exit_3(work, tmp_path, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["out"]).read())
    j["plane_curve"]["coeffs"][1] = ["1", "0"]
    bad = tmp_path / "badout.json"
    bad.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(bad)])
    out = capsys.readouterr().out
    assert rc == 3
    # the pencil identities need no sample, and catch the change on their own line
    assert "FAIL %s: plane cubic is fixed by the generators up to their determinant" % bad in out


def test_descend_mismatched_rho_exit_2(work, tmp_path, field, table, capsys):
    d, paths, _ = work
    z = {ij: field.from_fraction(k + 2) for k, ij in enumerate(index_pairs())}
    other = validate_rho(table, partial(table, z).values)
    rhopath = tmp_path / "other.json"
    ser.save(rhopath, ser.rho_to_json(other))
    rc = main(["descend", "--curve", paths["curve"], "--rho", str(rhopath),
               "--triv", paths["triv"], "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "different rho" in capsys.readouterr().err


def test_trivialize_standard_rejects_twist_exit_3(work, tmp_path, capsys):
    _, paths, _ = work
    rc = main(["trivialize", "--curve", paths["curve"], "--rho", paths["rho"],
               "--mode", "standard", "--out", str(tmp_path / "t.json")])
    assert rc == 3


def test_trivialize_user_mode_round_trip(work, tmp_path):
    _, paths, _ = work
    rc = main(["trivialize", "--curve", paths["curve"], "--rho", paths["rho"],
               "--mode", "user", "--triv", paths["triv"],
               "--out", str(tmp_path / "u.json")])
    assert rc == 0
    j = ser.load(str(tmp_path / "u.json"))
    assert j["mode"] == "user"


def test_trivialize_user_mode_rejects_a_bad_gamma_exit_3(work, tmp_path, table, emb, capsys):
    # the embedding's matrices certify for the trivial rho, but the gamma
    # the file carries along, 1 except gamma(T1) = 2, is no coboundary for it
    _, paths, _ = work
    K = table.curve.field
    rho = RhoTable.trivial(table)
    gamma = {ij: K.one() for ij in index_pairs()}
    gamma[(1, 0)] = K.from_fraction(2)
    user = Trivialisation(table, rho, K, dict(emb.matrices), "user", gamma)
    rhopath, userpath = tmp_path / "trivial.json", tmp_path / "user.json"
    ser.save(rhopath, ser.rho_to_json(rho))
    ser.save(userpath, ser.triv_to_json(user))
    rc = main(["trivialize", "--curve", paths["curve"], "--rho", str(rhopath),
               "--mode", "user", "--triv", str(userpath), "--out", str(tmp_path / "u.json")])
    assert rc == 3
    assert "d(gamma) = rho" in capsys.readouterr().err
    assert not (tmp_path / "u.json").exists()


def test_point_not_on_curve_exit_1(work, tmp_path, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["point2"]).read())
    j["x"] = ["1", "0", "0", "0"]
    bad = tmp_path / "badpt.json"
    bad.write_text(json.dumps(j))
    rc = main(["rho-from-point", "--curve", paths["aux"], "--point", str(bad),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "not on the curve" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["torsion", "quadrics"])
def test_unsupported_n_exit_2(work, tmp_path, command, capsys):
    _, paths, _ = work
    rc = main([command, "--curve", paths["curve"], "--n", "4",
               "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert "only odd n" in capsys.readouterr().err


def test_seed_only_on_descend(work, tmp_path):
    # only descend draws points; the other commands take no --seed
    _, paths, _ = work
    with pytest.raises(SystemExit) as exc:
        main(["trivialize", "--curve", paths["curve"], "--rho", paths["rho"],
              "--seed", "5", "--out", str(tmp_path / "t.json")])
    assert exc.value.code == 2


def test_library_imports_only_the_standard_library():
    # every import in src/ndescent names a module of the standard library
    # or of ndescent itself
    pkg = os.path.dirname(os.path.abspath(ndescent.__file__))
    outside = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    tops = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    tops = [node.module.split(".")[0]]
                else:
                    continue
                outside += ["%s: %s" % (name, t) for t in tops
                            if t != "ndescent" and t not in sys.stdlib_module_names]
    assert outside == []


# the checks whose verdicts CurveData.once keeps, by the names they are
# reached through; the first two are the raw checks behind certify_once
_RAW_CHECKS = ("certify_trivialisation", "_cocycle_failure")
_KEPT_CHECKS = _RAW_CHECKS + ("validate_rho", "certify_once", "trivialize", "_cocycle_once",
                              "_check_rho", "build_csa", "quadrics_for_C", "solve_gamma")


def _called_name(node):
    """The name a call is made through (f or obj.f), else None."""
    f = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return getattr(f, "id", None) or getattr(f, "attr", None)


# the decoders of the tables whose decodes CurveData.once keeps
_TABLE_DECODERS = ("_decode_pairs", "matrix_from_json", "quadrics_from_json_forms")


def _verdict_bypasses(tree):
    """(line, what) for each import or call of a raw check, and each
    verdict or decoded table kept in a container of the module's own: a
    value stored by subscript, or by .append, .add, .setdefault, .update
    or .insert, or held in a dict, list or set display, that calls a kept
    check or a table decoder."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "imports " + a.name) for a in node.names
                    if a.name in _RAW_CHECKS]
        if _called_name(node) in _RAW_CHECKS:
            out.append((node.lineno, "calls " + _called_name(node)))
        stored = []
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Subscript) for t in targets):
                stored = [node.value]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("append", "add", "setdefault", "update", "insert"):
            stored = node.args + [k.value for k in node.keywords]
        elif isinstance(node, ast.Dict):
            stored = node.values
        elif isinstance(node, (ast.List, ast.Set)):
            stored = node.elts
        out += [(node.lineno, "keeps a result of " + _called_name(n))
                for v in stored for n in ast.walk(v)
                if _called_name(n) in _KEPT_CHECKS + _TABLE_DECODERS]
    return out


def test_certification_verdicts_have_one_owner():
    # CurveData.once is the one keeper of certification verdicts and of
    # decoded tables: cli and geometry reach the checks through
    # validate_rho, certify_once and trivialize, never call the raw checks
    # behind them, and keep no verdict in a container of their own, and
    # serialize keeps no decoded table in one
    pkg = os.path.dirname(os.path.abspath(ndescent.__file__))
    found = []
    for name in ("cli", "geometry", "serialize"):
        with open(os.path.join(pkg, name + ".py")) as fh:
            found += [(name,) + hit for hit in _verdict_bypasses(ast.parse(fh.read()))]
    assert found == []


_NO_SYMPY = r"""
import json, sys
from ndescent.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("%s failed" % argv[0])
    if "sympy" in sys.modules:
        sys.exit("%s imported sympy" % argv[0])
print("ok")
"""


@pytest.mark.parametrize("name", ["curve", "aux"])
def test_gamma_pipeline_runs_without_sympy(work, tmp_path, name):
    # torsion to verify in gamma mode, in one process per curve: no
    # command imports sympy.  rho comes from the point (7, 17) on the aux
    # curve; the reference curve has no point of infinite order over
    # Q(zeta3), so it takes the coboundary twist the fixture wrote
    _, paths, _ = work
    c = ["--curve", paths[name]]
    w = {k: str(tmp_path / (k + ".json")) for k in ("torsion", "rho", "csa", "triv", "out")}
    if name == "aux":
        steps = [["rho-from-point"] + c + ["--point", paths["point2"], "--out", w["rho"]]]
    else:
        w["rho"], steps = paths["rho"], []
    steps = [["torsion"] + c + ["--out", w["torsion"]]] + steps + [
        ["algebra"] + c + ["--rho", w["rho"], "--out", w["csa"]],
        ["trivialize"] + c + ["--rho", w["rho"], "--mode", "gamma", "--out", w["triv"]],
        ["descend"] + c + ["--rho", w["rho"], "--triv", w["triv"], "--out", w["out"]],
        ["verify"] + c + [w[k] for k in ("rho", "csa", "triv", "out")]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    run = subprocess.run([sys.executable, "-c", _NO_SYMPY, json.dumps(steps)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0 and run.stdout.strip().endswith("ok"), run.stdout + run.stderr


def _other_gamma(j):
    old = j["gamma"]["1,0"]
    j["gamma"]["1,0"] = ["7"] + ["0"] * (len(old) - 1)
    assert j["gamma"]["1,0"] != old


def _incompatible_fields(j):
    # the trivialisation over K(sqrt5) and gamma over K(cbrt7), with their
    # K-valued entries padded to the new degrees: each part parses alone
    def level(name, root, degree):
        return {"name": name, "minpoly": [[root, "0"]] + [["0", "0"]] * (degree - 1)
                + [["1", "0"]]}

    def pad(v, degree):
        return v + ["0"] * (2 * degree - len(v))
    triv = j["trivialisation"]
    triv["field"].append(level("s5", "-5", 2))
    triv["matrices"] = {k: [[pad(e, 2) for e in row] for row in m]
                        for k, m in triv["matrices"].items()}
    triv["gamma"] = {k: pad(g, 2) for k, g in triv["gamma"].items()}
    j["gamma"]["field"].append(level("c7", "-7", 3))
    j["gamma"]["values"] = {k: pad(g, 3) for k, g in j["gamma"]["values"].items()}


def _x4_plus_1_level(j):
    # Q[s]/(s^4 + 1) is a field, but the tower rule certifies only levels
    # of degree <= 3 and prime binomials; the hash is made to match, so
    # only that rule can reject the file
    body = {"field": [{"name": "s", "minpoly": ["1", "0", "0", "0", "1"]}],
            "a": ["0"] * 4, "b": ["-432", "0", "0", "0"]}
    j.update(body, hash=hashlib.sha256(ser.dumps_canonical(body).encode()).hexdigest()[:16])


def _bump(e):
    """Add 1 to the rational coordinate of an element's JSON."""
    e[0] = str(Fraction(e[0]) + 1)


# one-field mutations of CLI-written artifacts: (artifact, mutation, exit
# code).  Loaders reject a wrong key set, mode or seed type (exit 1); the
# checks behind verify reject a well-formed file that does not certify
# (exit 3).  The trivialisation is in gamma mode.
_MUTATIONS = {
    # torsion_table accepts only an odd int n >= 3
    "torsion-n-1": ("torsion", lambda j: j.update(n=1, points=[None]), 1),
    "torsion-n-true": ("torsion", lambda j: j.update(n=True, points=[None]), 1),
    "torsion-n-0": ("torsion", lambda j: j.update(n=0, points=[]), 1),
    "curve-level-x4-plus-1": ("curve", _x4_plus_1_level, 1),
    "csa-rho-missing-pair": ("csa", lambda j: j["rho"].pop("1,0|0,1"), 1),
    "triv-rho-missing-pair": ("triv", lambda j: j["rho"].pop("1,0|0,1"), 1),
    "triv-missing-matrix": ("triv", lambda j: j["matrices"].pop("1,0"), 1),
    "triv-extra-matrix": (
        "triv", lambda j: j["matrices"].update({"7,7": j["matrices"]["1,0"]}), 1),
    "triv-bogus-mode": ("triv", lambda j: j.update(mode="bogus"), 1),
    "triv-gamma-missing": ("triv", lambda j: j["gamma"].pop("1,0"), 1),
    "triv-gamma-other": ("triv", _other_gamma, 3),
    # Q(i) has the degree of the curve's field, so the matrices parse
    "triv-field-not-over-curve": (
        "triv", lambda j: j.update(field=[{"name": "i", "minpoly": ["1", "0", "1"]}]), 1),
    "quadrics-rho-missing-pair": ("quadC", lambda j: j["rho"].pop("1,0|0,1"), 1),
    "quadrics-forms-empty": ("quadC", lambda j: j.update(forms=[]), 1),
    # z_0^2 twice in form 0, a wrong coefficient first
    "quadrics-repeated-term": ("quadC", lambda j: j["forms"][0].insert(0, [0, 0, ["5", "0"]]), 1),
    "descent-quadric-repeated-term": (
        "out", lambda j: j["quadrics"][0].insert(0, [0, 0, ["5", "0"]]), 1),
    "descent-quadrics-empty": ("out", lambda j: j.update(quadrics=[]), 1),
    "descent-quadric-form-empty": ("out", lambda j: j["quadrics"].__setitem__(0, []), 1),
    "descent-fields-incompatible": ("out", _incompatible_fields, 1),
    "descent-seed-str": ("out", lambda j: j.update(seed="x"), 1),
    "descent-triv-missing-matrix": (
        "out", lambda j: j["trivialisation"]["matrices"].pop("1,0"), 1),
    "descent-triv-rho-missing-pair": (
        "out", lambda j: j["trivialisation"]["rho"].pop("1,0|0,1"), 1),
    "descent-csa-rho-missing-pair": ("out", lambda j: j["csa"]["rho"].pop("1,0|0,1"), 1),
    # one entry of the embedded trivialisation, one quadric coefficient
    "descent-triv-matrix-entry": (
        "out", lambda j: _bump(j["trivialisation"]["matrices"]["1,0"][0][1]), 3),
    "descent-quadric-coefficient": ("out", lambda j: _bump(j["quadrics"][0][0][2]), 3),
    # the trivial twist's rho, with the structure constants of the stored one
    "descent-csa-other-rho": (
        "out", lambda j: j["csa"].update(rho={k: ["1", "0"] for k in j["csa"]["rho"]}), 3),
    "descent-report-summary": ("out", lambda j: j["report"].update(summary="bogus"), 3),
    "descent-plane-monomials-int": ("out", lambda j: j["plane_curve"].update(monomials=5), 1),
    "descent-plane-coeffs-int": ("out", lambda j: j["plane_curve"].update(coeffs=5), 1),
    "descent-plane-monomial-int": (
        "out", lambda j: j["plane_curve"]["monomials"].__setitem__(0, 5), 1),
    # Q(i) has the degree of the curve's field, so gamma's values parse
    "descent-gamma-field-not-over-curve": (
        "out", lambda j: j["gamma"].update(field=[{"name": "i", "minpoly": ["1", "0", "1"]}]), 1),
    # rationals have the shape str(Fraction) writes, -?[0-9]+(/[0-9]+)?:
    # no exponent (past the digit limit, or seconds to expand), decimal
    # point, padding or underscore
    "curve-b-exponent": ("curve", lambda j: j["b"].__setitem__(0, "-1e5000"), 1),
    "rho-value-exponent": ("rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, "1e3000000"), 1),
    "rho-value-decimal": ("rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, "0.5"), 1),
    "rho-value-padded": ("rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, " 1 "), 1),
    "rho-value-underscore": ("rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, "1_0"), 1),
    "rho-value-zero-denominator": (
        "rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, "1/0"), 1),
    "rho-value-plus-sign": ("rho", lambda j: j["values"]["1,0|0,1"].__setitem__(0, "+1"), 1),
}


def _mutated(paths, tmp_path, name):
    """A copy of an artifact with the mutation _MUTATIONS[name]."""
    key, mutate, _ = _MUTATIONS[name]
    j = json.loads(open(paths[key]).read())
    mutate(j)
    bad = tmp_path / ("%s.json" % name)
    bad.write_text(json.dumps(j))
    return str(bad)


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_verify_rejects_mutation(work, tmp_path, name, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["curve"], _mutated(paths, tmp_path, name)])
    out, err = capsys.readouterr()
    assert rc == _MUTATIONS[name][2], out + err
    assert "Traceback" not in out + err


_NEGATIVE_PATHS = {
    "garbage": (1, lambda paths, tmp: ["verify", "--curve", paths["curve"], _garbage(tmp)]),
    # past the recursion limit, not UTF-8, past Python's 4,300-digit limit
    "deep-nesting": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _garbage(tmp, b"[" * 200000)]),
    "not-utf8": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _garbage(tmp, b'{"kind": "\xff\xfe"}')]),
    "long-int": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _garbage(tmp, b'{"kind": ' + b"9" * 5000 + b"}")]),
    "torsion-not-rational": (2, lambda paths, tmp: [
        "torsion", "--curve", paths["curveq"], "--out", str(tmp / "t.json")]),
    "n4": (2, lambda paths, tmp: [
        "torsion", "--curve", paths["curve"], "--n", "4", "--out", str(tmp / "t.json")]),
    "tampered-rho": (3, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _tampered_rho(paths, tmp)]),
    # rho.json's table and the csa's rho differ in one entry: decoded apart
    "tampered-csa": (3, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], paths["rho"], _tampered_csa(paths, tmp)]),
    "repeated-json-key": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _repeated_key(paths, tmp)]),
    "empty-matrix": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _damaged(paths, tmp, "triv", "empty-matrix")]),
    "ragged-matrix": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _damaged(paths, tmp, "triv", "ragged-matrix")]),
    "quadric-index-99": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _damaged(paths, tmp, "out", "quadric-99")]),
    "dependent-torsion": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _damaged(paths, tmp, "torsion", "dependent-basis")]),
    "missing-matrix": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _mutated(paths, tmp, "triv-missing-matrix")]),
    "bogus-mode": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _mutated(paths, tmp, "triv-bogus-mode")]),
    "seed-str": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], _mutated(paths, tmp, "descent-seed-str")]),
    "gamma-field-not-over-curve": (1, lambda paths, tmp: [
        "verify", "--curve", paths["curve"],
        _mutated(paths, tmp, "descent-gamma-field-not-over-curve")]),
    "trivialize-user-gamma-other": (3, lambda paths, tmp: [
        "trivialize", "--curve", paths["curve"], "--rho", paths["rho"], "--mode", "user",
        "--triv", _mutated(paths, tmp, "triv-gamma-other"), "--out", str(tmp / "u.json")]),
    "curve-b-exponent": (1, lambda paths, tmp: [
        "torsion", "--curve", _mutated(paths, tmp, "curve-b-exponent"),
        "--out", str(tmp / "t.json")]),
    # a descent file whose part differs from the file before it in one
    # entry: the verdict of the first is not reused for it
    "embedded-triv-differs": (3, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], paths["triv"],
        _mutated(paths, tmp, "descent-triv-matrix-entry")]),
    "embedded-quadrics-differ": (3, lambda paths, tmp: [
        "verify", "--curve", paths["curve"], paths["quadC"],
        _mutated(paths, tmp, "descent-quadric-coefficient")]),
}
# the check the first of the last two files passes and the second fails
_PASS_THEN_FAIL = {"embedded-triv-differs": ("trivialisation certifies", " (('multiplicative'"),
                   "embedded-quadrics-differ": ("quadrics match recomputation", "")}
_NEGATIVE_PATHS.update({name: (1, lambda paths, tmp, name=name: [
    "verify", "--curve", paths["curve"], _mutated(paths, tmp, name)])
    for name in ("quadrics-forms-empty", "descent-quadrics-empty",
                 "descent-quadric-form-empty", "descent-fields-incompatible",
                 "torsion-n-1", "torsion-n-true", "torsion-n-0", "curve-level-x4-plus-1",
                 "rho-value-exponent", "rho-value-decimal", "rho-value-padded",
                 "rho-value-underscore")})


@pytest.mark.parametrize("case", sorted(_NEGATIVE_PATHS))
def test_negative_paths_under_python_O(work, tmp_path, case):
    # the exit codes come from named exceptions, not from asserts, so
    # they hold when python -O strips every assert
    _, paths, _ = work
    code, argv = _NEGATIVE_PATHS[case]
    argv = argv(paths, tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    run = subprocess.run([sys.executable, "-O", "-m", "ndescent.cli"] + argv,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == code, run.stdout + run.stderr
    assert "Traceback" not in run.stderr
    if case in _PASS_THEN_FAIL:
        first, second = argv[-2:]
        check, witness = _PASS_THEN_FAIL[case]
        assert "PASS %s: %s" % (first, check) in run.stdout
        assert "FAIL %s: %s%s" % (second, check, witness) in run.stdout


def test_rho_without_values_exit_1(work, tmp_path, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["rho"]).read())
    del j["values"]
    bad = tmp_path / "novalues.json"
    bad.write_text(json.dumps(j))
    rc = main(["algebra", "--curve", paths["curve"], "--rho", str(bad),
               "--out", str(tmp_path / "a.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "'values'" in err and "Traceback" not in err


def test_tampered_gamma_exit_3(work, tmp_path, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["out"]).read())
    old = j["gamma"]["values"]["1,0"]
    j["gamma"]["values"]["1,0"] = ["7"] + ["0"] * (len(old) - 1)
    assert j["gamma"]["values"]["1,0"] != old
    bad = tmp_path / "badgamma.json"
    bad.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(bad)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL %s: gamma is a coboundary for rho" % bad in out


def test_verify_samples_on_the_trivialisation_field_exit_0(work, tmp_path, curve, table,
                                                           eps, emb, capsys):
    # the golden descent with its trivialisation stored over Q(zeta3, i)
    # and gamma over Q(zeta3): the loader accepts the pair, and verify
    # lifts gamma to the trivialisation's field before its fresh samples,
    # as descend does
    _, paths, _ = work
    rho = RhoTable.trivial(table)
    j = ser.descent_to_json(descend(curve, 3, rho, trivialize(emb, eps, rho), seed=7), curve)
    triv = j["trivialisation"]
    triv["field"].append({"name": "i", "minpoly": [["1", "0"], ["0", "0"], ["1", "0"]]})
    for m in triv["matrices"].values():
        for row in m:
            for e in row:
                e.extend(["0", "0"])
    lifted = tmp_path / "lifted.json"
    lifted.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(lifted)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS %s: fresh samples land on the stored cubic" % lifted in out


def test_reducible_tower_in_curve_file_exit_1(work, tmp_path, capsys):
    # x^2 - 1 factors over Q; the file's hash matches, so only the
    # certification of its tower can reject it
    body = {"field": [{"name": "s", "minpoly": ["-1", "0", "1"]}],
            "a": ["0", "0"], "b": ["-432", "0"]}
    digest = hashlib.sha256(ser.dumps_canonical(body).encode()).hexdigest()[:16]
    bad = tmp_path / "reducible.json"
    ser.save(bad, {"kind": "curve", "hash": digest, **body})
    rc = main(["torsion", "--curve", str(bad), "--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "reducible" in err and "Traceback" not in err


def test_reducible_kummer_level_in_curve_file_exit_1(tmp_path, capsys):
    # x^2 + 3 is irreducible over Q but splits over Q(zeta3), since -3 is
    # a square there; no prime shows it rootless, and its roots lift
    body = {"field": [{"name": "zeta3", "minpoly": ["1", "1", "1"]},
                      {"name": "s", "minpoly": [["3", "0"], ["0", "0"], ["1", "0"]]}],
            "a": ["0", "0", "0", "0"], "b": ["-432", "0", "0", "0"]}
    digest = hashlib.sha256(ser.dumps_canonical(body).encode()).hexdigest()[:16]
    bad = tmp_path / "reducible.json"
    ser.save(bad, {"kind": "curve", "hash": digest, **body})
    rc = main(["verify", "--curve", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "reducible" in err and "Traceback" not in err


@pytest.mark.parametrize("damage,message", [
    ("zero", "one nonzero value per torsion point"),
    ("missing", "one nonzero value per torsion point"),
    ("list", "an object keyed by 'i,j'")])
def test_bad_gamma_value_exit_1(work, tmp_path, damage, message, capsys):
    _, paths, _ = work
    j = json.loads(open(paths["out"]).read())
    values = j["gamma"]["values"]
    if damage == "zero":
        values["1,0"] = ["0"] * len(values["1,0"])
    elif damage == "missing":
        del values["1,0"]
    else:
        j["gamma"]["values"] = list(values.values())
    bad = tmp_path / "gamma.json"
    bad.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err


def _damaged(paths, tmp_path, key, damage):
    """A copy of the artifact paths[key] with one kind of damage."""
    j = json.loads(open(paths[key]).read())
    if damage in ("matrices", "gamma"):
        j[damage] = list(j[damage].values())
    elif damage == "matrix":
        j["matrices"]["1,0"] = 5
    elif damage == "empty-matrix":
        j["matrices"]["1,0"] = []
    elif damage == "ragged-matrix":
        j["matrices"]["1,0"][1].pop()
    elif damage == "points":
        j["points"] = 9
    elif damage == "dependent-basis":  # T1 = T2
        j["points"][3] = j["points"][1]
    elif damage == "quadric-99":
        j["quadrics"][0][0][0] = 99
    elif damage == "quadric-a":
        j["forms"][0][0][0] = "a"
    else:
        j["plane_curve"]["coeffs"].pop()
    bad = tmp_path / ("%s-%s.json" % (key, damage))
    bad.write_text(json.dumps(j))
    return str(bad)


@pytest.mark.parametrize("key,damage,message", [
    ("triv", "matrices", "an object keyed by 'i,j'"),
    ("triv", "gamma", "an object keyed by 'i,j'"),
    ("triv", "matrix", "a list of rows"),
    ("triv", "empty-matrix", "3 rows of 3 entries"),
    ("triv", "ragged-matrix", "3 rows of 3 entries"),
    ("torsion", "points", "n^2 points"),
    ("torsion", "dependent-basis", "not independent"),
    ("out", "quadric-99", "0 <= i <= j < 9"),
    ("quadC", "quadric-a", "0 <= i <= j < 9"),
    ("out", "coeffs", "one coefficient per monomial")])
def test_malformed_artifact_exit_1(work, tmp_path, key, damage, message, capsys):
    _, paths, _ = work
    rc = main(["verify", "--curve", paths["curve"], _damaged(paths, tmp_path, key, damage)])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and "Traceback" not in err


def test_exponent_rational_is_refused_at_once(field):
    # Fraction("1e3000000") alone takes seconds; the loader refuses the
    # shape before any digit is expanded
    start = time.perf_counter()
    with pytest.raises(ser.ParseError, match="p/q"):
        ser.elem_from_json(field, ["1e3000000", "0"])
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("value", [0.5, True, 3], ids=["float", "bool", "int"])
def test_rational_that_is_not_a_string_exit_1(work, tmp_path, value, capsys):
    # rationals are stored as "p/q" strings: a JSON number or bool is a
    # parse error, not a value (0.5 would be read as a binary float and
    # true as 1)
    _, paths, _ = work
    j = json.loads(open(paths["rho"]).read())
    j["values"]["1,0|0,1"][0] = value
    bad = tmp_path / "rho.json"
    bad.write_text(json.dumps(j))
    rc = main(["verify", "--curve", paths["curve"], str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "stored as strings" in err and "Traceback" not in err


# -- loader fuzz: every artifact kind, mutated deterministically -----------

_INDEX_KEY = re.compile(r"\d+,\d+(\|\d+,\d+)?")


def _fuzz_paths(j, path=()):
    """The key paths of the nodes the fuzz mutates: the root, every value
    of an object with named keys, the first value of an object keyed by
    torsion indices, and the first non-null entry of a list."""
    yield path
    if isinstance(j, dict):
        keys = sorted(j)
        if keys and all(_INDEX_KEY.fullmatch(k) for k in keys):
            keys = keys[:1]
        for k in keys:
            yield from _fuzz_paths(j[k], path + (k,))
    elif isinstance(j, list):
        for k, v in enumerate(j):
            if v is not None:
                yield from _fuzz_paths(v, path + (k,))
                break


def _replaced(j, path, value):
    """A copy of j with the node at path replaced by value."""
    if not path:
        return value
    out = json.loads(json.dumps(j))
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def _fuzz_mutations(j):
    """(name, mutated copy, whether a coordinate got a wrong type) for
    each fuzz path: a deleted key, a wrong JSON type, an index out of
    range and a ragged list, wherever they apply.  A coordinate is a
    string in a list; it is replaced by a number and by a bool."""
    for path in _fuzz_paths(j):
        node = j
        for k in path:
            node = node[k]
        name = "/".join(map(str, path)) or "root"
        coordinate = isinstance(node, str) and bool(path) and isinstance(path[-1], int)
        if coordinate:
            yield name + ":number", _replaced(j, path, 5), True
            yield name + ":bool", _replaced(j, path, True), True
        else:
            yield name + ":type", _replaced(j, path, 5 if isinstance(node, str) else "x"), False
        if isinstance(node, dict) and node:
            first = sorted(node)[0]
            yield (name + ":delete",
                   _replaced(j, path, {k: v for k, v in node.items() if k != first}), False)
            if _INDEX_KEY.fullmatch(first):
                renamed = {("9" + k[1:] if k == first else k): v for k, v in node.items()}
                yield name + ":range", _replaced(j, path, renamed), False
        elif isinstance(node, list) and node:
            yield name + ":ragged", _replaced(j, path, node[:-1]), False
        elif type(node) is int:
            yield name + ":range", _replaced(j, path, 99), False


# artifact of the work fixture -> the curve file it belongs to, for all
# eight kinds; the trivialisation is in gamma mode
_FUZZED = {"curve": "curve", "point2": "aux", "torsion": "curve", "rho": "curve",
           "csa": "curve", "triv": "curve", "quadC": "curve", "out": "curve"}


@pytest.fixture(scope="module")
def fuzz_cases(work):
    """(name, argv, whether it must exit 1) for every fuzz mutation: each
    mutated file goes through verify, and a mutated point file also
    through rho-from-point."""
    d, paths, _ = work
    fuzz = d / "fuzz"
    fuzz.mkdir()
    cases = []
    for key, curve_key in _FUZZED.items():
        with open(paths[key]) as fh:
            original = json.load(fh)
        for k, (name, mutated, coordinate) in enumerate(_fuzz_mutations(original)):
            path = str(fuzz / ("%s-%d.json" % (key, k)))
            with open(path, "w") as fh:
                json.dump(mutated, fh)
            curve = path if key == "curve" else paths[curve_key]
            cases.append(("%s %s" % (key, name), ["verify", "--curve", curve, path],
                          coordinate))
            if key == "point2":
                cases.append(("%s %s rho-from-point" % (key, name),
                              ["rho-from-point", "--curve", curve, "--point", path,
                               "--out", str(fuzz / "rho.json")], coordinate))
    return cases


def _cache_curves(cli_module):
    """Load each distinct curve file once: the fuzz mutates artifacts,
    and recomputing the torsion and G-basis per case would dominate."""
    real, cache = cli_module._load_curve, {}

    @contextlib.contextmanager
    def load(args):
        with open(args.curve, "rb") as fh:
            key = (fh.read(), args.n)
        if key not in cache:
            with real(args) as data:
                cache[key] = data
        data = cache[key]
        data.curve._data[args.n] = data  # the real loader unlinks it on exit
        yield data
    return load


def test_loader_fuzz_every_artifact_kind(fuzz_cases, monkeypatch, capsys):
    kinds = {name.split()[0] for name, _, _ in fuzz_cases}
    assert kinds == set(_FUZZED) and 200 <= len(fuzz_cases) <= 500
    monkeypatch.setattr(cli, "_load_curve", _cache_curves(cli))
    wrong = []
    for name, argv, coordinate in fuzz_cases:
        rc = main(argv)
        out, err = capsys.readouterr()
        if rc not in ((1,) if coordinate else (1, 2, 3)) or "Traceback" in out + err:
            wrong.append((name, rc))
    assert wrong == []


_FUZZ_UNDER_O = r"""
import json, sys, traceback
from ndescent import cli
from test_cli import _cache_curves

if not sys.flags.optimize:
    sys.exit("run under python -O")
cli._load_curve = _cache_curves(cli)
wrong = []
for name, argv, coordinate in json.load(open(sys.argv[1])):
    try:
        rc = cli.main(argv)
    except Exception:
        rc = traceback.format_exc()
    if rc not in ((1,) if coordinate else (1, 2, 3)):
        wrong.append((name, rc))
print(json.dumps(wrong))
"""


def test_loader_fuzz_under_python_O(fuzz_cases, tmp_path):
    listing = tmp_path / "cases.json"
    listing.write_text(json.dumps(fuzz_cases))
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndescent.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", _FUZZ_UNDER_O, str(listing)],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
