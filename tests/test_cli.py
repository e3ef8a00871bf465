import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autocomplexity
from autocomplexity import (
    ComplexityProvider,
    ComplexityQuery,
    ResultCache,
    Word,
    certificate_to_json,
    compute,
    distribution_table,
)
from autocomplexity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_complexity_command(capsys):
    code, out, _ = run(capsys, "complexity", "010010010010")
    assert code == 0 and "= 3" in out
    code, out, _ = run(capsys, "complexity", "00", "--kind", "ane")
    assert code == 0 and "A_Ne(00) = 1" in out
    code, out, _ = run(capsys, "complexity", "")
    assert code == 0 and "= 1" in out


def test_complexity_det_kinds(capsys):
    code, out, _ = run(capsys, "complexity", "0001", "--kind", "aminus", "--alphabet", "2")
    assert code == 0 and "A-(0001) = 2" in out
    code, out, _ = run(capsys, "complexity", "0001", "--kind", "a", "--alphabet", "2")
    assert code == 0 and "A(0001) = 3" in out


def test_conditional_command(capsys):
    code, out, _ = run(capsys, "conditional", "012301230123", "012345012345")
    assert code == 0 and "= 2" in out
    code, out, _ = run(capsys, "conditional", "01", "00", "--alphabet-y", "2")
    assert code == 0 and "= 2" in out
    code, out, _ = run(capsys, "conditional", "0101", "0101")
    assert code == 0 and "= 1" in out


def test_certificate_check_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "conditional", "012301230123", "012345012345",
        "--certificate", str(cert_path),
    )
    assert code == 0 and cert_path.exists()
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 0 and out.startswith("OK")

    # tamper with the claim: drop an edge so verification fails
    doc = json.loads(cert_path.read_text())
    doc["nfa"]["edges"] = doc["nfa"]["edges"][:-1]
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 6 and out.startswith("FAILED")


def test_export_dot(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(capsys, "complexity", "0101", "--certificate", str(cert_path))
    code, out, _ = run(capsys, "export-dot", str(cert_path))
    assert code == 0 and out.startswith("digraph {") and "doublecircle" in out


def test_metric_and_verify_metric(capsys):
    code, out, _ = run(capsys, "metric", "j", "00001000", "00001001")
    assert code == 0 and "0.46" in out
    code, out, _ = run(capsys, "verify-metric", "--n", "3", "--kind", "jmax")
    assert code == 0 and "0 violations" in out


def test_table_formats(capsys):
    code, out, _ = run(capsys, "table", "--n", "3")
    assert code == 0 and "[9]" in out
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "n,q1,q2,mode"
    code, out, _ = run(capsys, "table", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[-1]["counts"] == [3, 1]


def test_table_requires_mode(capsys):
    code, _, err = run(capsys, "table")
    assert code == 2 and "needs --n or --sample" in err


def test_table_sampling(capsys):
    code, out, _ = run(
        capsys, "table", "--sample", "5", "--samples", "50", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["samples"] == 50 and sum(row["counts"]) == 50


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4")
    assert code == 0
    pairs = json.loads(out)
    assert ["0000", "0001"] in pairs and len(pairs) == 7


def test_search_emergent_command(capsys):
    code, out, _ = run(capsys, "search-emergent", "--max-len", "5")
    assert code == 0 and "0 word(s)" in out
    # the square of 0001000 needs more than 500 nodes: unknown, not "0 found"
    code, out, err = run(capsys, "search-emergent", "--max-len", "7", "--budget", "500")
    assert code == 4 and "search budget exhausted" in err
    assert "word(s)" not in out


def test_sparse_command(capsys):
    code, out, _ = run(capsys, "sparse", "0000110", "0010100")
    assert code == 0
    assert "A_Ne(0000110 | 0010100) = 3" in out
    assert "not-unique" in out
    assert "sparse witness that is not a unique-acceptance witness: yes" in out


def test_cache_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "complexity", "0101", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
    assert code == 0 and "1 cached result(s)" in out
    code, out, _ = run(capsys, "cache", "compact", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 2


def test_cache_audit_names_unproven_records(tmp_path, capsys):
    (tmp_path / "results.tsv").write_text(
        # a valid 3-state witness within the cap, served by a hit, though A(0000) = 1
        "unique\t0000@1\t-\t3\t0,1,2,2,2\n"
        # a forged record: also a valid 3-state witness, though A(00000) = 1
        "unique\t00000@1\t-\t3\t0,0,0,0,1,2\n"
        "unique\t0101@2\t-\t2\t0,1,0,1,0\n"
        "unique\t0101@2\t-\t5\t0,1,2,3,4\n"
        "exact\t0101@2\t-\t1\t0,0,0,0,0\n"
    )
    code, out, _ = run(capsys, "cache", "audit", "--cache-dir", str(tmp_path))
    assert code == 6
    lines = out.splitlines()
    assert lines[0] == "line 1: unique 0000@1 - 3 0,1,2,2,2: not minimal: the value is 1"
    assert lines[1] == "line 2: unique 00000@1 - 3 0,0,0,0,1,2: not minimal: the value is 1"
    assert lines[2] == "line 4: unique 0101@2 - 5 0,1,2,3,4: the value is above the cap of 3"
    assert lines[3].startswith("line 5: exact 0101@2 - 1 0,0,0,0,0: the certificate fails")
    assert lines[4].startswith("4 of 5 cached record(s) failed")
    # the audit writes nothing
    assert len((tmp_path / "results.tsv").read_text().splitlines()) == 5


def test_record_of_a_factor_is_no_lower_bound(tmp_path, capsys):
    (tmp_path / "results.tsv").write_text("unique\t0000@1\t-\t3\t0,1,2,2,2\n")
    code, out, _ = run(capsys, "complexity", "00000", "--max-states", "2", "--cache-dir", str(tmp_path))
    assert code == 0 and "A_Nu(00000) = 1" in out


def test_rows_that_cannot_be_served_are_refused(capsys):
    for argv, name in (
        (("table", "--sample", "-2", "--samples", "3"), "n"),
        (("table", "--sample", "5", "--samples", "0"), "samples"),
        (("table", "--n", "-1"), "n_max"),
        (("classify", "--n", "-1"), "n"),
        (("verify-metric", "--n", "-1", "--kind", "j"), "n"),
        (("search-emergent", "--max-len", "-1"), "max_len"),
        (("search-emergent", "--max-len", "3", "--alphabet", "0"), "alphabet_size"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"{name} must be at least" in err, argv


def test_cache_audit_passes_a_filled_cache(tmp_path, capsys):
    distribution_table(4, ComplexityProvider(ResultCache(tmp_path)))
    code, out, _ = run(capsys, "cache", "audit", "--cache-dir", str(tmp_path))
    records = len((tmp_path / "results.tsv").read_text().splitlines())
    assert code == 0 and records > 0
    assert out.startswith(f"{records} cached record(s) verified and minimal")


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AUTOCOMPLEXITY_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "complexity", "0101")
    assert code == 0
    code, out, _ = run(capsys, "cache", "stats")
    assert code == 0 and "1 cached result(s)" in out


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "complexity", "01a1")
    assert code == 3 and "error" in err
    code, _, err = run(capsys, "complexity", "012", "--alphabet", "2")
    assert code == 3 and "symbol 2 out of range" in err
    code, _, err = run(capsys, "conditional", "01", "02", "--alphabet-y", "2")
    assert code == 3 and "symbol 2 out of range" in err
    code, _, err = run(capsys, "complexity", "00110100101101", "--budget", "50")
    assert code == 4
    code, _, err = run(capsys, "complexity", "0110", "--budget", "-5")
    assert code == 4
    code, _, err = run(capsys, "complexity", "0001000", "--max-states", "3")
    assert code == 4
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["verify-metric", "--n", "4", "--kind", "jmax"])
    sys.stdout.close()  # the sink main left for the final flush
    assert code == 0
    assert capsys.readouterr().err == ""


def test_capacity_exit_code(tmp_path, capsys):
    # an exact-kind certificate too large for the subset construction
    cert = {
        "kind": "exact",
        "target": [0, 1],
        "alphabet": {"target_size": 2},
        "nfa": {
            "states": 25,
            "start": 0,
            "accepts": [2],
            "edges": [[0, 0, 1], [1, 1, 2]],
        },
        "claimed_states": 25,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "check", str(path))
    assert code == 5


def test_determinism_same_invocation(capsys):
    one = run(capsys, "table", "--n", "3", "--format", "csv")
    two = run(capsys, "table", "--n", "3", "--format", "csv")
    assert one == two


# run in a fresh interpreter: the command lines, then, as the last line,
# per command [argv[0], exit code, whether NumPy is loaded]
NUMPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import autocomplexity
from autocomplexity.cli import main
report = [["import", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_only_verify_metric_loads_numpy(tmp_path):
    cert = tmp_path / "cert.json"
    query = ComplexityQuery("unique", Word.parse("0110"))
    cert.write_text(certificate_to_json(compute(query).certificate))
    commands = [
        ["complexity", "0110"],
        ["conditional", "01", "10"],
        ["metric", "j", "0110", "0101"],
        ["table", "--n", "5"],
        ["table", "--sample", "6", "--samples", "20"],
        ["classify", "--n", "5"],
        ["classify", "--n", "5", "--audit"],
        ["sparse", "0110"],
        ["search-emergent", "--max-len", "4"],
        ["check", str(cert)],
        ["export-dot", str(cert)],
        ["cache", "stats", "--cache-dir", str(tmp_path / "cache")],
        # last: once loaded, NumPy stays in sys.modules
        ["verify-metric", "--n", "5", "--kind", "jnum"],
    ]
    src = str(Path(autocomplexity.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "AUTOCOMPLEXITY_CACHE_DIR"}
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, src, json.dumps(commands)],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report[0] == ["import", 0, False]
    assert report[1:-1] == [[argv[0], 0, False] for argv in commands[:-1]]
    assert report[-1] == ["verify-metric", 0, True]
