"""End-to-end command-line behaviour and exit codes."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from treeshift.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "a.json"
    code = run(["generate", "--n", "1", "--kappa", "0", "--q", "linear",
                "--out", str(out)])
    assert code == 0
    return out


def test_generate_then_verify(artifact_path, capsys):
    assert run(["verify", str(artifact_path)]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out


def test_wide_series_width_document_verifies(tmp_path, capsys):
    """At width 1e-8 the M_s enclosures of mixed q are wide relative to
    M_-3 and M_-4, yet the document generate writes verifies: each identity
    record is decided exactly, whatever the widths of the enclosures."""
    out = tmp_path / "wide.json"
    assert run(["generate", "--n", "3", "--kappa", "inf", "--q", "mixed", "--width", "1e-8",
                "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    assert "verification PASSED" in capsys.readouterr().out


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["generate", "--n", "1", "--kappa", "1", "--q", "mixed", "--out", str(a)])
    run(["generate", "--n", "1", "--kappa", "1", "--q", "mixed", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_domain_check_divergent_power(artifact_path, capsys):
    code = run(["domain-check", str(artifact_path), "--power", "2"])
    assert code == 0  # the query itself succeeds
    out = capsys.readouterr().out
    assert "NOT densely defined" in out


def test_domain_check_convergent_power(artifact_path, capsys):
    assert run(["domain-check", str(artifact_path), "--power", "1"]) == 0
    assert "is densely defined" in capsys.readouterr().out


def test_verify_corrupted_artifact_exits_1(artifact_path, tmp_path, capsys):
    doc = json.loads(artifact_path.read_text())
    entry = doc["weights"]["branch_first"][2]
    entry["w2"] = [str(Fraction(x) * Fraction(1001, 1000)) for x in entry["w2"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "v(3,1)" in out


def test_report_json(artifact_path, tmp_path):
    out = tmp_path / "report.json"
    assert run(["report", str(artifact_path), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert "cc_max_residual" in payload and "h_positive_on_support" in payload
    assert payload["consist6_residuals"]["v(0)"] is not None
    # one entry per vertex class: (i, 1) stands for every (i, j) of its chain
    assert "v(1,1)" in payload["consist6_residuals"]
    assert "v(1,2)" not in payload["consist6_residuals"]


def test_report_csv(artifact_path, tmp_path):
    out = tmp_path / "report.csv"
    assert run(["report", str(artifact_path), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,passed,vertex,residual,detail"
    assert len(lines) > 5


def test_partial_sums_csv(artifact_path, tmp_path):
    out = tmp_path / "sums.csv"
    assert run([
        "partial-sums", str(artifact_path), "--exponent", "2", "--count", "50",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,term,partial_sum,term_exact,partial_sum_exact"
    assert len(lines) == 51
    # terms of sum alpha_i q_i^2 with alpha_i = 1/i^3: exactly 1/i
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "1" and first[4] == "1"
    third = lines[3].split(",")
    assert third[3] == "1/3"
    # partial sums are the harmonic numbers
    assert third[4] == "11/6"


def test_partial_sums_stop_at_the_number_cap(tmp_path, capsys):
    """The exact partial sums of mixed q pass MAX_RATIONAL_BITS at row 197
    of the (1, 3, mixed) document (66,498 bits): --count 197 exits 2 before
    writing, in under 1 s, naming the row, --count 196 writes every row,
    and so does the default count of 100."""
    doc, out = tmp_path / "mixed.json", tmp_path / "sums.csv"
    assert run(["generate", "--n", "1", "--kappa", "3", "--q", "mixed", "--out", str(doc)]) == 0
    sums = ["partial-sums", str(doc), "--exponent", "1", "--out", str(out)]
    started = time.monotonic()
    assert run(sums + ["--count", "197"]) == 2
    assert time.monotonic() - started < 1
    assert "row 197 has an exact cell over MAX_RATIONAL_BITS" in capsys.readouterr().err
    assert not out.exists()
    assert run(sums + ["--count", "196"]) == 0
    assert len(out.read_text().splitlines()) == 197
    assert run(sums) == 0
    assert len(out.read_text().splitlines()) == 101


@pytest.mark.parametrize("prefix, exponent, row", [
    (None, 1_000_000_000, 2),  # q_2 = 2: 2^(10^9)
    (["3"], 30_000_000, 1),  # q_1 = 3: 3^(3 * 10^7)
], ids=["mixed", "prefix-3"])
def test_partial_sums_refuse_a_huge_exponent_before_the_power(tmp_path, capsys, prefix,
                                                              exponent, row):
    """A cell whose numerator or denominator must pass MAX_RATIONAL_BITS,
    bounded from below by bit lengths alone, is refused before q_i^e is
    built, at the row the full computation names (where these requests took
    8 and 21 s)."""
    doc, out = tmp_path / "mixed.json", tmp_path / "sums.csv"
    assert run(["generate", "--n", "1", "--kappa", "3", "--q", "mixed", "--out", str(doc)]) == 0
    if prefix is not None:
        edited = json.loads(doc.read_text())
        edited["request"]["q"] = {"tail": "linear", "prefix": prefix}
        doc.write_text(json.dumps(edited))
    started = time.monotonic()
    assert run(["partial-sums", str(doc), "--exponent", str(exponent), "--count", "5",
                "--out", str(out)]) == 2
    assert time.monotonic() - started < 0.5
    assert f"row {row} has an exact cell over MAX_RATIONAL_BITS" in capsys.readouterr().err
    assert not out.exists()


def test_json_integer_past_the_digit_cap_refused(artifact_path, tmp_path, capsys):
    """Importing treeshift raises the int <-> str digit limit only to the
    library's own cap (rationals._MAX_DIGITS): a 30,000-digit JSON integer is
    refused, not parsed in quadratic time, and verify exits 2 on it."""
    from treeshift.rationals import _MAX_DIGITS

    with pytest.raises(ValueError):
        json.loads("9" * 30_000)
    assert json.loads("9" * _MAX_DIGITS) == 10**_MAX_DIGITS - 1
    text = artifact_path.read_text()
    bad = tmp_path / "digits.json"
    bad.write_text(text.replace('"max_depth": 30', '"max_depth": ' + "9" * 30_000, 1))
    assert bad.read_text() != text
    assert run(["verify", str(bad)]) == 2
    assert "integer string conversion" in capsys.readouterr().err


def test_report_csv_quotes_fields_with_commas(tmp_path):
    """A branch vertex such as v(3,2), or a detail holding a comma, stays
    one quoted field: each row reads back as the five fields of its record."""
    import csv

    from treeshift.construct import verify

    doc_path, out = tmp_path / "mixed.json", tmp_path / "report.csv"
    assert run(["generate", "--n", "1", "--kappa", "3", "--q", "mixed", "--out", str(doc_path)]) == 0
    doc = json.loads(doc_path.read_text())
    doc["weights"]["branch_tail"][2]["w2"] = "4"
    doc_path.write_text(json.dumps(doc))
    assert run(["report", str(doc_path), "--format", "csv", "--out", str(out)]) == 1
    rows = list(csv.reader(out.read_text().splitlines()))
    expected = [[r.name, str(int(r.passed)), r.vertex or "", r.residual or "", r.detail]
                for r in verify(doc).records]
    assert rows == [["name", "passed", "vertex", "residual", "detail"], *expected]
    assert ["v(3,2)"] == [row[2] for row in rows if row[0] == "weight-reconstruction"]
    assert any("," in row[4] for row in rows)


def test_partial_sums_stop_at_the_digit_cap(tmp_path, capsys):
    """On linear q no cell reaches MAX_RATIONAL_BITS before row 22,709, but
    the file grows about quadratically in the rows (--count 12000 wrote
    126 MB in 31 s): once the exact cells pass MAX_CSV_DIGITS, at row 3,394
    of the (1, 3, linear) document, the command exits 2 naming that row
    before anything is written.  The default count still writes."""
    doc, out = tmp_path / "linear.json", tmp_path / "sums.csv"
    assert run(["generate", "--n", "1", "--kappa", "3", "--out", str(doc)]) == 0
    sums = ["partial-sums", str(doc), "--exponent", "1", "--out", str(out)]
    started = time.monotonic()
    assert run(sums + ["--count", "12000"]) == 2
    assert time.monotonic() - started < 2
    assert "row 3394 takes the exact cells past MAX_CSV_DIGITS" in capsys.readouterr().err
    assert not out.exists()
    assert run(sums) == 0
    assert len(out.read_text().splitlines()) == 101


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--n", "1"])  # --out missing
    assert exc.value.code == 2


def test_verify_checks_whole_window(artifact_path, tmp_path):
    """verify has no window flags: a corrupted branch outside a narrower
    window still fails, and a window flag is a usage error."""
    doc = json.loads(artifact_path.read_text())
    entry = doc["weights"]["branch_first"][4]
    entry["w2"] = [str(Fraction(x) * 2) for x in entry["w2"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["verify", str(bad), "--max-branch", "2"])
    assert exc.value.code == 2


def test_power_cap_exit_2(artifact_path):
    assert run(["domain-check", str(artifact_path), "--power", "99"]) == 2


def test_missing_file_exit_2(tmp_path):
    assert run(["verify", str(tmp_path / "nope.json")]) == 2


def test_no_certificate_exit_3(artifact_path, tmp_path):
    # a bounded base sequence can never witness the unbounded-sup requirement
    doc = json.loads(artifact_path.read_text())
    doc["request"]["q"] = {"tail": "constant", "prefix": ["7"]}
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(doc))
    assert run(["domain-check", str(flat), "--power", "1"]) == 3


def test_unknown_q_family_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--n", "1", "--q", "cubic", "--out", "x.json"])
    assert exc.value.code == 2


def test_window_flags(tmp_path):
    out = tmp_path / "small.json"
    assert run([
        "generate", "--n", "1", "--kappa", "inf", "--q", "linear",
        "--max-trunk", "4", "--max-branch", "12", "--max-depth", "6",
        "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["window"] == {"max_trunk": 4, "max_branch": 12, "max_depth": 6}
    assert len(doc["weights"]["branch_first"]) == 12
    assert run(["verify", str(out)]) == 0


def test_verify_malformed_document_exits_1(artifact_path, tmp_path, capsys):
    doc = json.loads(artifact_path.read_text())
    del doc["window"]
    bad = tmp_path / "nowindow.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] parse-artifact (window: missing)" in out


def test_report_malformed_document_exits_1(artifact_path, tmp_path, capsys):
    doc = json.loads(artifact_path.read_text())
    del doc["certificates"]
    bad = tmp_path / "nocerts.json"
    bad.write_text(json.dumps(doc))
    assert run(["report", str(bad), "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert "parse-artifact,0,,,certificates.nd: missing" in out


def test_other_fixed_constant_rejected(artifact_path, tmp_path, capsys):
    doc = json.loads(artifact_path.read_text())
    doc["request"]["cert"]["dyadic_bits"] = 100000
    bad = tmp_path / "bits.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    assert "[FAIL] parse-request (cert.dyadic_bits: 100000" in capsys.readouterr().out
    assert run(["domain-check", str(bad), "--power", "1"]) == 2
    assert "cert.dyadic_bits" in capsys.readouterr().err


def test_nonpositive_width_exit_2(tmp_path):
    out = tmp_path / "w.json"
    assert run(["generate", "--n", "1", "--width", "-3", "--out", str(out)]) == 2
    assert not out.exists()


def test_table_number_past_exponent_range_exit_2(tmp_path, capsys, monkeypatch):
    """A request whose document would state a table exponent that verify
    does not read is refused with exit 2, naming the table and the index,
    and nothing is written.  The CLI takes no prefix, so the test gives
    "linear" one."""
    from treeshift import cli
    from treeshift.series import SequenceSpec, Tail

    monkeypatch.setattr(cli, "LINEAR_Q", SequenceSpec(Tail.LINEAR, prefix=(Fraction(10**3276),)))
    out = tmp_path / "e.json"
    assert run(["generate", "--n", "3", "--kappa", "3", "--q", "linear", "--max-trunk", "3",
                "--max-branch", "8", "--max-depth", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "measures.mixtures (shift 3) atom mass at i = 1: exponent -19693 over 19688" in err
    assert not out.exists()


def test_unreachable_width_exit_2(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["generate", "--n", "1", "--kappa", "3", "--q", "mixed", "--max-trunk", "3",
                "--max-branch", "12", "--max-depth", "4", "--width", "1e-20",
                "--out", str(out)]) == 2
    assert "series_width 1E-20 not reached" in capsys.readouterr().err
    assert not out.exists()


def test_unreachable_threshold_exit_2(tmp_path, capsys):
    out = tmp_path / "t.json"
    started = time.monotonic()
    assert run(["generate", "--n", "1", "--kappa", "3", "--q", "linear", "--max-trunk", "3",
                "--max-branch", "12", "--max-depth", "4", "--threshold", "1000000",
                "--out", str(out)]) == 2
    assert time.monotonic() - started < 1
    assert "divergence_threshold 1000000 not reached" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("domain-check", ["--power", "1"]),
    ("partial-sums", ["--exponent", "1", "--out", "sums.csv"]),
])
def test_missing_request_key_exit_2(artifact_path, tmp_path, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(artifact_path.read_text())
    del doc["request"]["cert"]["series_width"]
    Path("nowidth.json").write_text(json.dumps(doc))
    assert run([command, "nowidth.json", *flags]) == 2
    assert "cert.series_width" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("domain-check", ["--power", "1"]),
    ("partial-sums", ["--exponent", "1", "--out", "sums.csv"]),
])
@pytest.mark.parametrize("doc, message", [
    ([], "not a JSON object"),
    ({"schema": "treeshift-artifact/1"}, "request: missing"),
], ids=["list", "no-request"])
def test_rules_of_shapeless_document_exit_2(tmp_path, monkeypatch, capsys, command, flags,
                                            doc, message):
    monkeypatch.chdir(tmp_path)
    Path("doc.json").write_text(json.dumps(doc))
    assert run([command, "doc.json", *flags]) == 2
    assert message in capsys.readouterr().err
    assert not Path("sums.csv").exists()
