import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fourspace import catalog as cat
from fourspace import exactmat
from fourspace.cli import main
from fourspace.exactmat import QQ, PrimeField
from fourspace.homdim import CASE_SPECS, hom_dim, hom_vector
from fourspace.modules import module_direct_sum, module_from_record, module_to_record
from fourspace.oracle import hom_oracle
from fourspace.verify import disguised_sum

from case_edit import edited_case, flipped_sign

GF = PrimeField(32003)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_module(tmp_path, module, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(module_to_record(module)))
    return str(path)


# -- catalog ---------------------------------------------------------------


def test_catalog_smallest_projective(capsys):
    code, out, _ = run(capsys, "catalog", "P(0,0)")
    rec = json.loads(out)
    assert code == 0
    assert rec["dim_vector"] == [1, 0, 0, 0, 0]
    assert all(rec[s]["cols"] == 0 for s in "ABCD")


def test_catalog_homogeneous_tube_module(capsys):
    code, out, _ = run(capsys, "catalog", "R(1,5)")
    rec = json.loads(out)
    assert code == 0
    assert rec["A"]["entries"] == ["1", "0"]
    assert rec["B"]["entries"] == ["0", "1"]
    assert rec["C"]["entries"] == ["1", "1"]
    assert rec["D"]["entries"] == ["5", "1"]


def test_catalog_rejects_special_lambda(capsys):
    code, out, err = run(capsys, "catalog", "R(1,0)")
    assert code != 0
    assert err.startswith("error: invalid-params:")
    assert "R(s,2,0)" in err


def test_catalog_output_reloads_as_module(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "I(2,3)", "--field", "prime:7")
    rec = json.loads(out)
    m = module_from_record(rec)  # dim_vector key must be ignored
    assert m == cat.build(cat.I(2, 3), PrimeField(7))


def test_module_file_roundtrip_is_identical(capsys):
    code, out, _ = run(capsys, "catalog", "R(0,3,inf)")
    rec = json.loads(out)
    m = module_from_record(rec)
    again = module_to_record(m)
    rec.pop("dim_vector")
    assert again == rec


# -- homdim ---------------------------------------------------------------


def test_homdim_explicit_descriptors(capsys, tmp_path):
    path = write_module(tmp_path, cat.build(cat.I(0, 0), GF))
    code, out, _ = run(capsys, "homdim", path, "I(0,0)", "P(0,0)")
    assert code == 0
    assert out.splitlines() == ["I(0,0)\t1", "P(0,0)\t0"]


def test_homdim_all_agrees_with_oracle_mode(capsys, tmp_path):
    path = write_module(tmp_path, cat.build(cat.R(1, PrimeField(7).coerce(2)), PrimeField(7)))
    # 8 reduces to 1 in GF(7), an exceptional value: the sweep drops it
    args = ["homdim", path, "--all", "--max-n", "1", "--max-l", "1", "--lambda", "2",
            "--lambda", "8"]
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args, "--oracle")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert len(out_a.splitlines()) == 33
    labels = [line.split("\t")[0] for line in out_a.splitlines()]
    assert [x for x in labels if x.startswith("R(") and x.count(",") == 1] == ["R(1,2)"]


def test_homdim_oracle_too_large_target_is_one_line_each_time(capsys, tmp_path):
    # --oracle reads its targets through the sweep's per-process cache; a
    # target too large to build raises every time, as no raise is kept
    path = write_module(tmp_path, cat.build(cat.R(1, GF.coerce(2)), GF))
    _, small, _ = run(capsys, "homdim", path, "P(1,1)")
    for _ in range(2):
        code, out, err = run(capsys, "homdim", path, "P(1,1)", "P(100000000,0)", "--oracle")
        assert code == 1 and out == small
        assert len(err.splitlines()) == 1 and err.startswith("error: too-large:")


def test_a_module_too_large_to_build_is_one_line(capsys, tmp_path, monkeypatch):
    # each block of P(200,0) fits in 10^6 bytes, its [A B C D] does not:
    # catalog prints no entry of it, and --oracle prints the lines before it
    path = write_module(tmp_path, cat.build(cat.R(1, GF.coerce(2)), GF))
    _, small, _ = run(capsys, "homdim", path, "P(1,1)")
    monkeypatch.setattr(exactmat, "_MEMORY", 10**6)
    code, out, err = run(capsys, "catalog", "P(200,0)", "--field", "prime:7")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: too-large:")
    code, out, err = run(capsys, "homdim", path, "P(1,1)", "P(200,0)", "--oracle")
    assert code == 1 and out == small
    assert len(err.splitlines()) == 1 and err.startswith("error: too-large:")


def test_homdim_too_tall_module_file_is_one_line(capsys, tmp_path, monkeypatch):
    # letters of 10^5 rows and no columns hold no entry, yet each row is
    # built: the record is refused for its rows before any is
    monkeypatch.setattr(exactmat, "_MEMORY", 10**6)
    tall = {"rows": 10**5, "cols": 0, "entries": []}
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"field_spec": QQ.spec(), **dict.fromkeys("ABCD", tall)}))
    code, out, err = run(capsys, "homdim", str(path), "I(0,0)")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: too-large:")


def test_homdim_all_matches_hom_dim_on_disguised_sum(capsys, tmp_path):
    m = disguised_sum(GF, [cat.R(2, GF.coerce(5)), cat.P(2, 1), cat.I(1, 3)], random.Random(6))
    path = write_module(tmp_path, m)
    code, out, _ = run(capsys, "homdim", path, "--all", "--max-n", "6", "--max-l", "4",
                       "--lambda", "2", "--lambda", "5")
    descs = cat.enumerate_descriptors(cat.EnumerationBounds(6, 4, (2, 5)))
    assert code == 0
    assert out.splitlines() == [f"{d.label()}\t{hom_dim(m, d)}" for d in descs]


@pytest.mark.parametrize("flags", [["--max-n", "2"], ["--oracle"], ["--oracle", "--max-l", "1"]],
                         ids=" ".join)
def test_homdim_descriptors_may_follow_a_flag(capsys, tmp_path, flags):
    # argparse alone matches the descriptors, empty, before the first flag
    # and calls the rest unrecognized: the descriptors must read the same
    # after the flags, before them and around them
    path = write_module(tmp_path, cat.build(cat.R(1, GF.coerce(2)), GF))
    descs = ["P(1,0)", "I(2,1)", "R(1,2)"]
    first = run(capsys, "homdim", path, *descs, *flags)
    assert first[0] == 0 and len(first[1].splitlines()) == len(descs) and not first[2]
    assert run(capsys, "homdim", path, *flags, *descs) == first
    assert run(capsys, "homdim", path, descs[0], *flags, *descs[1:]) == first


def test_homdim_requires_descriptors(capsys, tmp_path):
    path = write_module(tmp_path, cat.build(cat.P(0, 0), GF))
    code, _, err = run(capsys, "homdim", path)
    assert code != 0 and err.startswith("error: parse-error:")


def test_homdim_rejects_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "homdim", str(path), "I(0,0)")
    assert code != 0 and err.startswith("error: parse-error:")


def test_homdim_missing_file(capsys):
    code, _, err = run(capsys, "homdim", "/nonexistent/m.json", "I(0,0)")
    assert code != 0 and err.startswith("error: io-error:")


# -- decompose ---------------------------------------------------------------


def test_decompose_repeated_summand(capsys, tmp_path):
    m = module_direct_sum(cat.build(cat.P(1, 0), GF), cat.build(cat.P(1, 0), GF))
    path = write_module(tmp_path, m)
    code, out, _ = run(capsys, "decompose", path, "--max-n", "2", "--max-l", "1")
    assert code == 0
    assert out.strip() == "2 × P(1,0)"


def test_decompose_missing_lambda_is_an_error(capsys, tmp_path):
    path = write_module(tmp_path, cat.build(cat.R(1, GF.coerce(2)), GF))
    code, _, err = run(capsys, "decompose", path,
                       "--max-n", "1", "--max-l", "1", "--lambda", "5")
    assert code != 0
    assert err.startswith("error: incomplete-candidates:")
    assert "residual hom vector" in err


def test_decompose_multiline_output_order(capsys, tmp_path):
    m = module_direct_sum(cat.build(cat.I(1, 1), GF), cat.build(cat.P(0, 3), GF))
    path = write_module(tmp_path, m)
    code, out, _ = run(capsys, "decompose", path, "--max-n", "1", "--max-l", "1")
    assert code == 0
    assert out.splitlines() == ["1 × P(0,3)", "1 × I(1,1)"]


# -- verify ---------------------------------------------------------------


def test_verify_zero_trials_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "0", "--max-n", "0", "--max-l", "0")
    assert code == 0 and out.startswith("all agree")


def test_verify_small_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "2", "--max-n", "1",
                       "--max-l", "1", "--seed", "7")
    assert code == 0 and "all agree" in out


def test_verify_catches_misplaced_block(capsys):
    # off-by-one: the B block of the first pattern row drifts one cell right
    head = [list(row) for row in CASE_SPECS["P0"]["head"]]
    assert head[0][2] == ("B", 1) and head[0][3] is None
    head[0][2], head[0][3] = None, ("B", 1)
    with edited_case("P0", head=head):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--max-n", "1",
                           "--max-l", "1", "--seed", "7")
    assert code != 0
    assert "mismatch" in out


def test_verify_mismatch_line_replays(capsys):
    # the R_EVEN sign flip of acceptance criterion 9
    with flipped_sign("R_EVEN", "head", 0, 0):
        code, out, _ = run(capsys, "verify", "--trials", "4", "--max-n", "2",
                           "--max-l", "2", "--seed", "0")
        assert code != 0
        line = next(x for x in out.splitlines() if x.startswith("mismatch"))
        found = re.fullmatch(r"mismatch trial=\d+ desc=(\S+) formula=(\d+) oracle=(\d+) "
                             r"dim=\[[\d, ]*\] module=(\{.*\})", line)
        assert found, line
        label, formula, oracle, record = found.groups()
        module = module_from_record(json.loads(record))
        desc = cat.parse_descriptor(label, module.field)
        assert hom_vector(module, [desc]) == [int(formula)]
    assert hom_oracle(module, cat.build(desc, module.field)) == int(oracle)
    assert formula != oracle


def test_bad_field_spec(capsys):
    code, _, err = run(capsys, "catalog", "P(0,0)", "--field", "prime:6")
    assert code != 0 and err.startswith("error: parse-error:")


def test_bad_lambda_flag(capsys, tmp_path):
    path = write_module(tmp_path, cat.build(cat.P(0, 0), GF))
    code, _, err = run(capsys, "homdim", path, "--all", "--max-n", "0",
                       "--max-l", "0", "--lambda", "x")
    assert code != 0 and err.startswith("error: parse-error:")


@pytest.mark.parametrize("command", ["verify", "homdim", "decompose"])
def test_lambda_inf_reads_like_lambda_0(capsys, tmp_path, command):
    # inf, like 0 and 1, is a point of the exceptional tubes, which every
    # enumeration holds: the flag adds no homogeneous tube and is no error
    path = write_module(tmp_path, cat.build(cat.R(0, 2, cat.INF), GF))
    head = {"verify": ["verify", "--trials", "2"], "homdim": ["homdim", path, "--all"],
            "decompose": ["decompose", path]}[command]
    outs = []
    for lam in ("inf", "0"):
        code, out, err = run(capsys, *head, "--max-n", "2", "--max-l", "2", "--lambda", lam)
        assert (code, err) == (0, ""), lam
        outs.append(out)
    assert outs[0] == outs[1] != ""


def test_help_exits_zero(capsys):
    # usage errors raise inside main; --help is no error and still exits
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fourspace verify")


# -- error paths ---------------------------------------------------------------


def test_closed_stdout_is_one_io_error_line():
    # like `fourspace catalog 'P(40,0)' | head -1`: the ~150 kB record
    # overflows the pipe, so a write meets the closed reader
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fourspace.cli", "catalog", "P(40,0)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: io-error:")


ERROR_CASES = [
    ("invalid-params", ["catalog", "R(1,0)"]),
    ("invalid-params", ["catalog", "X(1,0)"]),
    ("invalid-params", ["catalog", "R(1,8)", "--field", "prime:7"]),
    ("invalid-params", ["homdim", "{module}", "R(1,inf)"]),
    ("parse-error", ["catalog", "P(0,0)", "--field", "prime:6"]),
    ("parse-error", ["catalog", "P(0,0)", "--field", "reals"]),
    ("parse-error", ["catalog", "P(0,0)", "--field", "prime:x"]),
    ("parse-error", ["homdim", "{module}"]),
    ("parse-error", ["homdim", "{bad_json}", "I(0,0)"]),
    ("parse-error", ["homdim", "{bad_record}", "I(0,0)"]),
    ("parse-error", ["homdim", "{loose_record}", "I(0,0)"]),
    ("parse-error", ["homdim", "{module}", "R(1,3)", "--all"]),
    ("parse-error", ["homdim", "{module}", "--all", "R(1,3)"]),
    ("parse-error", ["homdim", "{module}", "--oracle", "--bogus", "R(1,3)"]),
    ("parse-error", ["homdim", "{zero_denominator}", "I(0,0)"]),
    ("parse-error", ["decompose", "{zero_denominator}"]),
    ("parse-error", ["homdim", "{module}", "--all", "--lambda", "x"]),
    # a zero denominator is a malformed literal, not an exceptional point
    ("parse-error", ["homdim", "{past_bounds}", "--all", "--lambda", "1/0"]),
    ("parse-error", ["decompose", "{past_bounds}", "--lambda", "1/0"]),
    ("io-error", ["homdim", "/nonexistent/m.json", "I(0,0)"]),
    ("incomplete-candidates",
     ["decompose", "{module}", "--max-n", "1", "--max-l", "1", "--lambda", "5"]),
    # I(3,1) + I(2,1) has the hom vector of I(2,0) on every target in bounds
    ("incomplete-candidates", ["decompose", "{past_bounds}", "--max-n", "2", "--max-l", "1"]),
    ("parse-error", ["homdim", "{prime_string}", "I(0,0)"]),
    ("parse-error", ["verify", "--prime", "4"]),
    ("parse-error", ["verify", "--trials", "-1"]),
    # usage errors: argparse's own messages, on the same one line
    ("parse-error", ["verify", "--trials", "x"]),
    ("parse-error", ["homdim"]),
    ("parse-error", ["frobnicate"]),
    ("parse-error", ["decompose", "{module}", "--max-n", "-1"]),
    ("parse-error", ["homdim", "{module}", "--all", "--max-l", "-1"]),
    # the first allocation (an n x n identity) fails at once
    ("too-large", ["catalog", "P(100000000,0)"]),
]


# what the line must name, where the code alone does not pin it
ERROR_DETAILS = {
    # the lam as typed and the field it reduces in, not the residue 1
    "catalog R(1,8) --field prime:7": "lambda 8 reduces to 1 in GF(7)",
    # inf names the exceptional rows; it is not a literal of the field
    "homdim {module} R(1,inf)": "error: invalid-params: R(l,inf) is exceptional",
    "homdim {loose_record} I(0,0)": "matrix record A: rows 3.9 is not an integer",
    # the descriptors are not dropped for the sweep
    "homdim {module} R(1,3) --all": "give descriptor arguments or --all, not both",
    "homdim {module} --all R(1,3)": "give descriptor arguments or --all, not both",
    "homdim {module} --oracle --bogus R(1,3)": "unrecognized arguments: --bogus R(1,3)",
    "catalog P(0,0) --field prime:x": "is not an integer",
    # a JSON string is not a characteristic, and 7 is not out of range
    "homdim {prime_string} I(0,0)": "is not an integer",
    # --all stands in for the descriptors, so the line ends naming the file
    "homdim": "required: module_file\n",
}


@pytest.mark.parametrize("code, argv", ERROR_CASES, ids=[" ".join(a) for _, a in ERROR_CASES])
def test_error_is_one_coded_line(capsys, tmp_path, code, argv):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{broken")
    bad_record = tmp_path / "record.json"
    bad_record.write_text(json.dumps({"field_spec": "rationals"}))
    record = module_to_record(cat.build(cat.P(1, 0), QQ))
    record["A"]["entries"][0] = "1/0"
    zero_denominator = tmp_path / "zero.json"
    zero_denominator.write_text(json.dumps(record))
    # "rows": 3.9 would be read as 3 rows
    record = module_to_record(cat.build(cat.P(1, 0), QQ))
    record["A"]["rows"] += 0.9
    loose_record = tmp_path / "loose.json"
    loose_record.write_text(json.dumps(record))
    record = module_to_record(cat.build(cat.P(1, 0), PrimeField(7)))
    record["field_spec"] = {"prime": "7"}
    prime_string = tmp_path / "prime_string.json"
    prime_string.write_text(json.dumps(record))
    paths = {
        "module": write_module(tmp_path, cat.build(cat.R(1, GF.coerce(2)), GF)),
        "bad_json": str(bad_json),
        "bad_record": str(bad_record),
        "zero_denominator": str(zero_denominator),
        "loose_record": str(loose_record),
        "prime_string": str(prime_string),
        "past_bounds": write_module(tmp_path, module_direct_sum(
            cat.build(cat.I(3, 1), QQ), cat.build(cat.I(2, 1), QQ)), "past.json"),
    }
    status, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert status != 0
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(f"error: {code}:")
    assert ERROR_DETAILS.get(" ".join(argv), "") in err
