"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "svt-av1" in out
        assert "game1" in out
        assert "fig16" in out


class TestEncode:
    def test_encode_report(self, capsys):
        code = main([
            "encode", "--codec", "x264", "--video", "cat",
            "--crf", "30", "--preset", "8", "--frames", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "insn per cycle" in out
        assert "x264" in out

    def test_bad_codec_rejected(self):
        with pytest.raises(SystemExit):
            main(["encode", "--codec", "rav1e"])


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "vbench" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestValidate:
    def test_fig08_claims_pass(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        code = main(["validate", "--experiment", "fig08",
                     "--skip-invariants"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] tage-beats-gshare" in out
        assert "claims passed" in out

    def test_invariants_run_and_report(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        code = main(["validate", "--experiment", "fig08",
                     "--invariant-cases", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulator invariants" in out
        assert "tage-fold-reference" in out

    def test_json_report_and_artifact(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_FAST", "1")
        report_path = tmp_path / "claims.json"
        code = main([
            "validate", "--experiment", "fig08", "--skip-invariants",
            "--json", "--out", str(report_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["claims"] >= 1
        on_disk = json.loads(report_path.read_text())
        assert on_disk["claims"] == payload["claims"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "--experiment", "table1"])

    def test_experiment_validate_flag_records_provenance(
        self, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_FAST", "1")
        code = main(["experiment", "fig08", "--validate", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        claims = payload["provenance"]["claims"]
        assert [c["claim_id"] for c in claims] == ["tage-beats-gshare"]
        assert claims[0]["status"] == "pass"
        assert payload["provenance"]["telemetry"]["claims"]["pass"] == 1


class TestWorkersArgument:
    """--workers: 0 is an error at the CLI boundary, 'auto' is the one
    spelling of one-worker-per-core (the old CLI documented 0 as auto
    while the engine treated it as an error — three layers, three
    semantics)."""

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_invalid_workers_rejected_with_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "table1", "--workers", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "auto" in err

    def test_auto_accepted(self, capsys):
        assert main(["experiment", "table1", "--workers", "auto"]) == 0
