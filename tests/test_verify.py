import pytest

import gfenum.verify as verify
from gfenum.verify import (
    ReferenceEntry,
    ReferenceFormatError,
    VerificationReport,
    default_data_path,
    load_reference,
    resolve_data_path,
    run_all,
)

from literals import P20

_HUGE = "1" * 5000
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def reference_lines():
    return default_data_path().read_text(encoding="utf-8").splitlines()


def failing_ids(report):
    return [r.claim_id for r in report.results if not r.ok]


def mutate_payload(payload: str) -> str:
    """Bump the first numeric component so the claim must fail."""
    head, sep, tail = payload.partition(",")
    if "." in head or "e" in head or "E" in head:
        return f"{float(head) + 1.0}{sep}{tail}"
    return f"{int(head) + 1}{sep}{tail}"


class TestReferenceFile:
    def test_the_verification_report_has_no_test_only_methods(self):
        assert not hasattr(VerificationReport, "failing_ids")

    def test_shipped_set_passes(self):
        report = run_all()
        assert report.ok
        assert report.failed == 0

    def test_shipped_set_is_large_enough(self):
        entries = load_reference(default_data_path())
        table = [e for e in entries if e.claim_id.startswith("table1:")]
        sequences = {e.claim_id: e for e in entries if e.kind == "sequence"}
        assert len(table) >= 64
        assert sum(len(sequences[f"seq:{s}"].payload.split(",")) for s in "PVF") == 60
        assert sum(1 for cid in sequences if cid.startswith("tally:")) == 8
        assert sum(1 for e in entries if e.claim_id.startswith(("mzv:", "const:"))) >= 6

    def test_underlined_entries_are_marked_saturated(self):
        entries = {e.claim_id: e for e in load_reference(default_data_path())}
        assert entries["table1:m12:u00"].kind == "saturated_bound"
        assert entries["table1:m13:u10"].kind == "saturated_bound"
        assert entries["table1:m14:u00"].kind == "saturated_bound"
        assert entries["table1:m13:u12"].kind == "exact_value"
        assert entries["table1:m14:u12"].kind == "exact_value"

    def test_report_is_ordered_by_claim_id(self):
        report = run_all()
        ids = [r.claim_id for r in report.results]
        assert ids == sorted(ids)

    def test_notes_mention_predictions(self):
        report = run_all()
        assert any("beta(15,10)=28" in note for note in report.notes)

    def test_prediction_note_is_read_from_the_engine(self, monkeypatch):
        prefix = "predictions with no independent check: "
        assert run_all().notes[0] == prefix + "beta(15,10)=28, beta(16,12)=28, beta(19,16)=25"
        real_table = verify.beta_table

        class Shifted:
            """The real table with beta(15, 10) raised by one."""

            def __init__(self, max_m):
                self.table = real_table(max_m)

            def get(self, m, u):
                return self.table.get(m, u) + ((m, u) == (15, 10))

            def tally_terms(self, m):
                return self.table.tally_terms(m)

        monkeypatch.setattr(verify, "beta_table", Shifted)
        report = run_all()
        assert report.notes[0] == prefix + "beta(15,10)=29, beta(16,12)=28, beta(19,16)=25"


class TestMutations:
    def test_every_single_mutation_fails_exactly_one_claim(self, tmp_path):
        lines = reference_lines()
        claim_rows = [
            (i, line.split("\t")) for i, line in enumerate(lines)
            if line and not line.startswith("#")
        ]
        assert len(claim_rows) == 91
        target = tmp_path / "mutated.tsv"
        for index, fields in claim_rows:
            mutated = list(lines)
            broken = fields[:3] + [mutate_payload(fields[3])]
            mutated[index] = "\t".join(broken)
            target.write_text("\n".join(mutated) + "\n", encoding="utf-8")
            report = run_all(target)
            assert failing_ids(report) == [fields[0]], fields[0]

    def test_environment_variable_override(self, tmp_path, monkeypatch):
        lines = reference_lines()
        index = next(i for i, line in enumerate(lines) if line.startswith("seq:P"))
        fields = lines[index].split("\t")
        lines[index] = "\t".join(fields[:3] + [mutate_payload(fields[3])])
        target = tmp_path / "env.tsv"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("GFENUM_DATA", str(target))
        assert resolve_data_path() == target
        report = run_all()
        assert failing_ids(report) == ["seq:P"]

    def test_explicit_path_wins_over_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GFENUM_DATA", str(tmp_path / "missing.tsv"))
        report = run_all(default_data_path())
        assert report.ok


class TestFileFormat:
    def test_wrong_field_count_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("seq:P\tsomewhere\tsequence\n", encoding="utf-8")
        with pytest.raises(ValueError, match="4 tab-separated"):
            load_reference(bad)

    def test_unknown_kind_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("seq:P\tsomewhere\tguess\t1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown claim kind"):
            load_reference(bad)

    def test_a_file_that_is_not_utf8_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff")
        with pytest.raises(ReferenceFormatError, match="bad.tsv: not UTF-8"):
            load_reference(bad)

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        marked = tmp_path / "bom.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + default_data_path().read_bytes())
        assert load_reference(marked) == load_reference(default_data_path())
        report = run_all(marked)
        assert report.ok and report.passed == 91

    @pytest.mark.parametrize("text", ["", "# comment\n\n"], ids=["empty", "comments-only"])
    def test_a_file_without_claims_is_rejected(self, tmp_path, text):
        bare = tmp_path / "bare.tsv"
        bare.write_text(text, encoding="utf-8")
        with pytest.raises(ReferenceFormatError, match="bare.tsv: no claims"):
            load_reference(bare)

    def test_comments_and_blanks_are_skipped(self, tmp_path):
        ok = tmp_path / "ok.tsv"
        ok.write_text("# comment\n\nconst:r\tx\tdecimal_constant\t1.38027756909761,1e-12\n")
        entries = load_reference(ok)
        assert entries == [
            ReferenceEntry("const:r", "x", "decimal_constant", "1.38027756909761,1e-12")
        ]

    def test_unrecognized_claim_id_fails_the_claim(self, tmp_path):
        data = tmp_path / "odd.tsv"
        data.write_text("nonsense:claim\tx\texact_value\t1\n", encoding="utf-8")
        report = run_all(data)
        assert failing_ids(report) == ["nonsense:claim"]
        assert report.results[0].actual == "unrecognized claim id"

    @pytest.mark.parametrize(
        "line",
        [
            "table1:m05:u02\tx\texact_value\t2",
            "tally:m16\tx\tsequence\t17,27,38,46,42,28,8,1",
            "mzv:D:w23:d07\tx\texact_value\t4",
            "mzv:M:w12:d04\tx\texact_value\t0",
        ],
    )
    def test_a_claim_id_with_non_ascii_digits_is_unrecognized(self, tmp_path, line):
        claim_id, rest = line.split("\t", 1)
        kind, _, numbers = claim_id.partition(":")
        # the same claim with its indices in Arabic-Indic digits, which int() would read
        arabic_indic = f"{kind}:{numbers.translate(_ARABIC_INDIC)}"
        data = tmp_path / "digits.tsv"
        data.write_text(f"{line}\n{arabic_indic}\t{rest}\n", encoding="utf-8")
        report = run_all(data)
        assert report.passed == 1
        (bad,) = [r for r in report.results if not r.ok]
        assert (bad.claim_id, bad.actual) == (arabic_indic, "unrecognized claim id")


class TestClaimKinds:
    def test_lower_bound_passes_at_or_below_and_fails_above(self, tmp_path):
        # beta(12, 6) = 15
        data = tmp_path / "bounds.tsv"
        data.write_text("table1:m12:u06\tx\tlower_bound\t14\n", encoding="utf-8")
        assert run_all(data).ok
        data.write_text("table1:m12:u06\tx\tlower_bound\t15\n", encoding="utf-8")
        assert run_all(data).ok
        data.write_text("table1:m12:u06\tx\tlower_bound\t16\n", encoding="utf-8")
        report = run_all(data)
        assert failing_ids(report) == ["table1:m12:u06"]
        assert (report.results[0].expected, report.results[0].actual) == ("16", "15")


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "line",
        [
            "seq:P\tx\tsequence\t1,1,x",
            "const:r\tx\tdecimal_constant\t1.38027756909761",
            "table1:m12:u06\tx\texact_value\tfifteen",
            "table1:m12:u06\tx\tsequence\t15",
            "seq:P\tx\tlower_bound\t5",
            # a value or tolerance that is not finite, or a negative tolerance
            "const:C\tx\tdecimal_constant\t99.0,inf",
            "const:C\tx\tdecimal_constant\tinf,inf",
            "const:C\tx\tdecimal_constant\t1.06,nan",
            "const:C\tx\tdecimal_constant\t1.06,-1e-3",
            # an empty field, or an integer field int() reads but is not -?[0-9]+
            "seq:P\tx\tsequence\t1,," + ",".join(map(str, P20[1:])),
            "seq:P\tx\tsequence\t," + ",".join(map(str, P20)),
            "seq:P\tx\tsequence\t" + ",".join(map(str, P20)) + ",",
            "seq:P\tx\tsequence\t" + ", ".join(map(str, P20)),
            "table1:m12:u06\tx\texact_value\t1_5",
            "table1:m12:u06\tx\texact_value\t 15",
            "table1:m12:u06\tx\texact_value\t+15",
            "table1:m12:u06\tx\texact_value\t\u0661\u0665",
            "table1:m12:u06\tx\tlower_bound\t1_0",
        ],
    )
    def test_an_unparsable_or_mismatched_payload_fails_only_its_claim(self, tmp_path, line):
        data = tmp_path / "payload.tsv"
        good = "table1:m12:u06\tx\texact_value\t15"
        data.write_text(f"{good}\n{line}\n", encoding="utf-8")
        report = run_all(data)
        assert report.passed == 1
        bad = [r for r in report.results if not r.ok]
        assert len(bad) == 1 and bad[0].claim_id == line.split("\t")[0]
        assert bad[0].actual.startswith("malformed claim")

    @pytest.mark.parametrize(
        "line",
        [
            "table1:m30:u02\tx\texact_value\t1",
            "table1:m05:u07\tx\texact_value\t0",
            "tally:m25\tx\tsequence\t1,2",
            "mzv:D:w40:d01\tx\texact_value\t1",
            # an index of 5,000 digits, past the 4,300 digits int() reads by default
            pytest.param(f"table1:m{_HUGE}:u02\tx\texact_value\t1", id="table1:m<huge>:u02"),
            pytest.param(f"table1:m05:u{_HUGE}\tx\texact_value\t1", id="table1:m05:u<huge>"),
            pytest.param(f"tally:m{_HUGE}\tx\tsequence\t1", id="tally:m<huge>"),
            pytest.param(f"mzv:D:w{_HUGE}:d01\tx\texact_value\t1", id="mzv:D:w<huge>:d01"),
            pytest.param(f"mzv:M:w05:d{_HUGE}\tx\texact_value\t1", id="mzv:M:w05:d<huge>"),
        ],
    )
    def test_a_claim_past_the_engine_horizon_fails_only_its_claim(self, tmp_path, line):
        data = tmp_path / "horizon.tsv"
        data.write_text(f"table1:m12:u06\tx\texact_value\t15\n{line}\n", encoding="utf-8")
        report = run_all(data)
        assert report.passed == 1
        bad = [r for r in report.results if not r.ok]
        assert len(bad) == 1 and bad[0].claim_id == line.split("\t")[0]
        assert bad[0].actual.startswith("outside the engine horizon: ")

    def test_leading_zeros_do_not_count_toward_an_index_length(self, tmp_path):
        data = tmp_path / "zeros.tsv"
        data.write_text(f"table1:m{'0' * 5000}12:u06\tx\texact_value\t15\n", encoding="utf-8")
        assert run_all(data).ok

    def test_an_unknown_identity_fails_its_claim(self, tmp_path):
        data = tmp_path / "identity.tsv"
        data.write_text("identity:no-such-identity\tx\texact_value\t1\n", encoding="utf-8")
        report = run_all(data)
        assert failing_ids(report) == ["identity:no-such-identity"]
        assert report.results[0].actual == "unrecognized claim id"
