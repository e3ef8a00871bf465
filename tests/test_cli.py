import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autocomplexity
from autocomplexity import (
    KIND_COND_UNIQUE,
    ComplexityProvider,
    ComplexityQuery,
    ResultCache,
    Word,
    certificate_to_json,
    compute,
    distribution_table,
    format_table,
    slow_words,
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


def test_check_refuses_a_condition_of_another_length(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "conditional", "0110", "0100", "--certificate", str(cert_path))
    assert code == 0
    doc = json.loads(cert_path.read_text())
    doc["condition"] = doc["condition"][:-1]
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(cert_path))
    assert code == 3 and "equal length" in err


def test_export_dot(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(capsys, "complexity", "0101", "--certificate", str(cert_path))
    code, out, _ = run(capsys, "export-dot", str(cert_path))
    assert code == 0 and out.startswith("digraph {") and "doublecircle" in out


def test_complexity_stats_and_dot_to_stdout(capsys, monkeypatch):
    monkeypatch.delenv("AUTOCOMPLEXITY_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "complexity", "0110", "--stats", "--dot", "-")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "A_Nu(0110) = 3"
    assert lines[1].startswith("explored 40 nodes in ")
    assert lines[2] == "digraph {" and lines[-1] == "}" and "doublecircle" in out


def test_metric_and_verify_metric(capsys):
    code, out, _ = run(capsys, "metric", "j", "00001000", "00001001")
    assert code == 0 and "0.46" in out
    code, out, _ = run(capsys, "verify-metric", "--n", "3", "--kind", "jmax")
    assert code == 0 and "0 violations" in out


def test_verify_metric_prints_each_violation(capsys):
    code, out, _ = run(capsys, "verify-metric", "--n", "8", "--kind", "jmax")
    lines = out.splitlines()
    assert code == 6
    assert lines[0] == "jmax on length-8 representatives (128 words): 28 violations"
    assert lines[1] == "  triangle: 00100100 00100011 01010100 1.0 0.8613531161467861"
    assert len(lines) == 29


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


def test_table_refuses_both_modes(capsys):
    """``--n`` and ``--sample`` ask for different tables; given both, the
    command prints neither."""
    code, out, err = run(capsys, "table", "--n", "3", "--sample", "4", "--samples", "5")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: table takes --n or --sample, not both"]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-0.5"])
def test_verify_metric_refuses_a_tolerance_that_is_no_finite_bound(capsys, tolerance):
    """A NaN tolerance would report no violation, an infinite one every
    pair and a negative one every diagonal entry: each is a usage error."""
    code, out, err = run(capsys, "verify-metric", "--n", "4", "--kind", "jnum", f"--tolerance={tolerance}")
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "tolerance" in line


@pytest.mark.parametrize("tolerance", ["-inf", "-1e-3", "-0.5", "nan"])
def test_verify_metric_reads_a_negative_tolerance_after_a_space(capsys, tolerance):
    """``--tolerance -inf`` is the option's value, not an option: it gets
    the one-line tolerance error, as ``--tolerance=-inf`` does."""
    code, out, err = run(capsys, "verify-metric", "--n", "4", "--kind", "jnum", "--tolerance", tolerance)
    assert (code, out, err) == (
        2, "", f"error: the tolerance must be a finite number >= 0, not {float(tolerance)}\n",
    )


@pytest.mark.parametrize("tolerance", ["0", "1e-6"])
def test_verify_metric_takes_a_tolerance_after_a_space(capsys, tolerance):
    code, out, _ = run(capsys, "verify-metric", "--n", "4", "--kind", "jnum", "--tolerance", tolerance)
    assert code == 0 and "0 violations" in out


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


def test_search_emergent_prints_each_word(capsys):
    code, out, _ = run(capsys, "search-emergent", "--max-len", "7")
    assert code == 0
    assert out.splitlines() == ["0001000", "1 word(s) with emergent simplicity up to length 7"]


def test_budget_bounds_each_batch_of_a_table(tmp_path, capsys):
    """On ``table`` one budget spans a batch, the search of a whole row,
    not each value: a budget above the nodes of every pair of row 6
    searched alone, but one short of the row's batch, exits 4."""
    ground = list(slow_words(6, 2))
    single = max(compute(ComplexityQuery(KIND_COND_UNIQUE, x, y)).explored for y in ground for x in ground)
    provider = ComplexityProvider()
    provider.conditional_row(ground)
    batch = provider.nodes
    assert single < batch - 1
    code, out, err = run(capsys, "table", "--n", "6", "--budget", str(batch - 1), "--cache-dir", str(tmp_path / "a"))
    assert (code, out) == (4, "") and "search budget exhausted" in err
    code, out, _ = run(capsys, "table", "--n", "6", "--budget", str(batch), "--cache-dir", str(tmp_path / "b"))
    assert code == 0 and out == format_table(distribution_table(6))


def test_sparse_command(capsys):
    code, out, _ = run(capsys, "sparse", "0000110", "0010100")
    assert code == 0
    assert "A_Ne(0000110 | 0010100) = 3" in out
    assert "not-unique" in out
    assert "sparse witness that is not a unique-acceptance witness: yes" in out


def test_sparse_command_without_a_sparse_non_unique_witness(capsys):
    code, out, _ = run(capsys, "sparse", "0101")
    assert code == 0 and out.startswith("A_Ne(0101) = 2, A_Nu(0101) = 2\n")
    assert out.endswith("sparse witness that is not a unique-acceptance witness: no\n")


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


@pytest.mark.parametrize("argv", [
    ("complexity", "01", "--alphabet", "0"),
    ("complexity", "01", "--alphabet", "11"),
    ("conditional", "01", "01", "--alphabet-x", "0"),
    ("conditional", "01", "01", "--alphabet-x", "11"),
    ("conditional", "01", "01", "--alphabet-y", "-1"),
    ("conditional", "01", "01", "--alphabet-y", "11"),
    ("search-emergent", "--max-len", "2", "--alphabet", "0"),
    ("search-emergent", "--max-len", "2", "--alphabet", "11"),
])
def test_alphabet_options_outside_one_to_ten_are_usage_errors(capsys, argv):
    """Command-line words are digit strings, so every alphabet option takes
    1..10 only, and a value outside is refused the same way on every
    command: exit 2 and no output."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", argv
    assert f"alphabet_size must be at least 1 and at most 10, not {argv[-1]}" in err, argv


def test_python_dash_m_runs_the_command_line():
    """``python -m autocomplexity`` runs the CLI from a checkout with the
    sources on ``PYTHONPATH``, exit code and output included."""
    src = str(Path(autocomplexity.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "AUTOCOMPLEXITY_CACHE_DIR"}
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, "-m", "autocomplexity", "complexity", "0110"],
        capture_output=True, text=True, env=env,
    )
    assert (done.returncode, done.stdout) == (0, "A_Nu(0110) = 3\n")
    done = subprocess.run(
        [sys.executable, "-m", "autocomplexity", "complexity", "01", "--alphabet", "0"],
        capture_output=True, text=True, env=env,
    )
    assert (done.returncode, done.stdout) == (2, "")


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


@pytest.mark.parametrize("text", ["\u0660\u0661\u0661", "\uff10\uff11", "\u00b2", "\U0001d7ce\U0001d7cf"])
def test_non_ascii_digits_exit_3_with_one_error_line(capsys, text):
    code, out, err = run(capsys, "complexity", text)
    assert code == 3 and out == "", out
    assert err.startswith("error: ") and "digits 0-9" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("conditional", "01", "011"),
    ("sparse", "01", "011"),
    ("metric", "jnum", "01", "011"),
], ids=lambda argv: argv[0])
def test_words_of_unequal_length_are_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", out
    assert err.startswith("error: ") and "equal length" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ("check", "{dir}"),
    ("export-dot", "{dir}"),
    ("complexity", "01", "--certificate", "{dir}"),
    ("complexity", "0101", "--cache-dir", "{file}"),
    ("table", "--n", "3", "--cache-dir", "{file}"),
    ("cache", "compact", "--cache-dir", "{file}"),
    ("cache", "stats", "--cache-dir", "{file}"),
    ("cache", "audit", "--cache-dir", "{file}"),
    ("cache", "clear", "--cache-dir", "{file}"),
    ("complexity", "0101", "--cache-dir", "{below_file}"),
    ("cache", "compact", "--cache-dir", "{below_file}"),
    ("cache", "stats", "--cache-dir", "{below_file}"),
    ("cache", "audit", "--cache-dir", "{below_file}"),
    ("cache", "clear", "--cache-dir", "{below_file}"),
    ("check", "{not_ascii}"),
    ("export-dot", "{not_ascii}"),
], ids=lambda argv: "-".join(arg.strip("{}-") for arg in argv))
def test_file_errors_exit_3_with_one_error_line(tmp_path, capsys, argv):
    """A path that cannot be read or written, a cache directory that is a
    file or lies below one and a certificate that is not ASCII each end the
    command with exit 3 and one ``error:`` line, as a missing certificate
    file does."""
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "not_ascii": tmp_path / "cert.json"}
    paths["below_file"] = paths["file"] / "sub"
    paths["dir"].mkdir()
    paths["file"].write_text("")
    paths["not_ascii"].write_bytes(b'{"kind": "unique\xe9"}')
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 3, argv
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert paths["file"].read_text() == ""


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


def test_check_of_a_huge_state_count_keeps_no_slot_per_state(tmp_path, capsys):
    """The walk count steps only from the states that have edges, so a
    unique certificate for ``01`` that claims 10^30 states is checked, not
    refused with a traceback or a list of 10^30 slots. ``export-dot`` writes
    a line for the start, the accepts and the states an edge names only:
    the start marker, q0 and q1."""
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "complexity", "01", "--certificate", str(cert_path))
    assert code == 0
    doc = json.loads(cert_path.read_text())
    assert doc["kind"] == "unique"
    doc["nfa"]["states"] = doc["claimed_states"] = 10**30
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(cert_path))
    assert code == 0 and out.startswith(f"OK: unique witness with {10**30} state(s) for 01")
    code, out, _ = run(capsys, "export-dot", str(cert_path))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines() if "[shape=" in line] == ["__start", "q0", "q1"]


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



@pytest.mark.parametrize(
    "changes",
    [
        {"target": [0.2, 1.3, 1.9, 0.0], "claimed_states": 3.99},
        {"target": "0110", "start": False},
    ],
    ids=["floats", "string-and-bool"],
)
@pytest.mark.parametrize("command", ["check", "export-dot"])
def test_a_certificate_field_that_is_no_json_integer_exits_3(tmp_path, capsys, command, changes):
    """Floats that truncate to the ``0110`` certificate's fields, and a digit
    string and a bool that convert to them, make the document malformed."""
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "complexity", "0110", "--certificate", str(cert_path))
    assert code == 0
    doc = json.loads(cert_path.read_text())
    for field, value in changes.items():
        (doc["nfa"] if field == "start" else doc)[field] = value
    cert_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(cert_path))
    assert code == 3 and out == "" and "is not an integer" in err
