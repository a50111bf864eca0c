"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_choices(self):
        args = build_parser().parse_args(["tables", "3"])
        assert args.which == "3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "9"])

    def test_app_commands_require_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jit"])
        # analyze's app became optional (--domain analyzes a whole suite),
        # so bare `analyze` is a runtime error instead of a parse error.
        assert main(["analyze"]) == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--domain", "bogus"])

    def test_profile_requires_target_and_valid_clock(self):
        args = build_parser().parse_args(["profile", "sor", "--clock", "virtual"])
        assert args.target == "sor" and args.clock == "virtual"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "sor", "--clock", "wall"])

    def test_fidelity_rejects_unknown_domain(self):
        args = build_parser().parse_args(["fidelity"])
        assert args.domain == "embedded" and not args.full
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fidelity", "--domain", "bogus"])


class TestCommands:
    def test_apps_lists_suite(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "164.gzip" in out and "whetstone" in out
        assert "datasets:" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Candidate Search" in out and "Virtual Machine" in out

    def test_analyze_app(self, capsys):
        assert main(["analyze", "sor"]) == 0
        out = capsys.readouterr().out
        assert "ASIP ratio" in out
        assert "break-even" in out

    def test_analyze_app_rejects_jobs_without_domain(self, capsys):
        # Only a suite shards; one app would silently run serially.
        assert main(["analyze", "sor", "--jobs", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--domain" in captured.err
        assert main(["analyze", "sor", "--jobs", "1"]) == 0
        assert "ASIP ratio" in capsys.readouterr().out

    def test_timeline_app(self, capsys):
        assert main(["timeline", "sor"]) == 0
        out = capsys.readouterr().out
        assert "bitstream" in out
        assert "dedicated-host break-even" in out

    def test_jit_app(self, capsys):
        assert main(["jit", "sor"]) == 0
        out = capsys.readouterr().out
        assert "patched output identical: True" in out

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            main(["analyze", "999.bogus"])


@pytest.mark.trace_smoke
class TestTraceCommands:
    def test_jit_trace_round_trip(self, tmp_path, capsys):
        """One embedded app, traced end to end, then replayed."""
        import re

        from repro import obs

        trace_file = tmp_path / "out.jsonl"
        assert main(["jit", "sor", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"wrote" in out
        # Each implemented candidate is one CAD run and one ICAP load.
        implemented = int(re.search(r"custom instructions: (\d+)", out).group(1))
        assert implemented > 0
        assert not obs.tracing_enabled()

        records = obs.read_jsonl(trace_file)
        assert obs.validate_trace(records) == []
        names = {r.name for r in records}
        assert "search" in names and "icap.reconfigure" in names
        assert set(obs.TABLE3_SPAN_NAMES) <= names

        assert main(["profile", str(trace_file), "--tree"]) == 0
        out = capsys.readouterr().out
        stages, rest = out.split("\n\n", 1)
        assert "Per-stage times" in stages
        for label in ("C2V", "Syn", "Xst", "Tra", "Map", "PAR", "Bitgen"):
            assert label in stages
        spans = {
            m.group(1): int(m.group(2))
            for m in re.finditer(
                r"^(\S+(?: \[\S+\])?)\s+(\d+)\s", stages, re.M
            )
        }
        assert spans["cad.implement"] == implemented
        assert spans["ICAP [icap.reconfigure]"] == implemented
        tree = rest.split("profile (real time)", 1)[1]
        assert "pipeline.run" in tree

    def test_trace_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "", "span_id": 1, "t0": 0, "t1": 1}\n')
        assert main(["profile", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_chrome_export(self, tmp_path, capsys):
        import json

        from repro import obs

        trace_file = tmp_path / "out.jsonl"
        tracer = obs.Tracer()
        with tracer.span("cad.map") as sp:
            sp.set_attr("virtual_seconds", 40.0)
        obs.export_tracer(tracer, trace_file)

        chrome_file = tmp_path / "chrome.json"
        assert main(["profile", str(trace_file), "--chrome", str(chrome_file)]) == 0
        doc = json.loads(chrome_file.read_text())
        assert doc["traceEvents"][0]["name"] == "Map"

    def test_profile_app_collapsed_stdout(self, capsys):
        """The end-to-end pipeline profiled on the virtual clock carries
        one collapsed frame per Table III CAD stage."""
        from repro import obs

        assert main(["profile", "sor", "--clock", "virtual",
                     "--collapsed", "-", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "Hot paths (virtual time)" in out
        assert "profile (virtual time)" in out  # --tree section
        assert not obs.tracing_enabled()  # switched back off after the run
        collapsed = [l for l in out.splitlines() if ";" in l and l[-1].isdigit()]
        for stage in obs.TABLE3_SPAN_NAMES:
            assert any(stage in line for line in collapsed), stage


class TestTraceEdgeCases:
    def test_trace_replays_empty_span_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage times" in out

    def test_chrome_export_of_zero_duration_span(self, tmp_path):
        import json

        trace_file = tmp_path / "zero.jsonl"
        trace_file.write_text(
            json.dumps(
                {
                    "name": "cad.map",
                    "span_id": 1,
                    "parent_id": None,
                    "t0": 2.5,
                    "t1": 2.5,
                    "thread": 0,
                    "attrs": {"virtual_seconds": 40.0},
                }
            )
            + "\n"
        )
        chrome_file = tmp_path / "chrome.json"
        assert main(["profile", str(trace_file), "--chrome", str(chrome_file)]) == 0
        (event,) = json.loads(chrome_file.read_text())["traceEvents"]
        assert event["name"] == "Map"
        assert event["dur"] == 0.0
        assert event["ts"] == pytest.approx(2.5e6)


class TestProfileCommand:
    @pytest.fixture()
    def saved_trace(self, tmp_path):
        from repro import obs

        tracer = obs.Tracer()
        with tracer.span("pipeline"):
            with tracer.span("cad.map") as sp:
                sp.set_attr("virtual_seconds", 40.0)
        trace_file = tmp_path / "trace.jsonl"
        obs.export_tracer(tracer, trace_file)
        return trace_file

    def test_profile_from_saved_trace(self, saved_trace, capsys):
        assert main(["profile", str(saved_trace), "--clock", "virtual",
                     "--collapsed", "-"]) == 0
        out = capsys.readouterr().out
        assert "Hot paths (virtual time)" in out
        assert "pipeline;cad.map 40000000" in out

    def test_profile_collapsed_to_file(self, saved_trace, tmp_path, capsys):
        collapsed = tmp_path / "stacks.txt"
        assert main(["profile", str(saved_trace), "--clock", "virtual",
                     "--collapsed", str(collapsed)]) == 0
        assert "wrote 1 collapsed stacks" in capsys.readouterr().out
        assert collapsed.read_text() == "pipeline;cad.map 40000000\n"

    def test_profile_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["profile", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err
        # Well-formed JSON, but a span whose parent is not in the trace.
        bad.write_text(
            '{"name": "cad.map", "span_id": 2, "parent_id": 9, '
            '"t0": 0, "t1": 1}\n'
        )
        assert main(["profile", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "invalid trace: span 2 ('cad.map'): unknown parent_id 9" in (
            captured.err
        )
        assert captured.out == ""
        # A path that exists but is not a readable file.
        assert main(["profile", str(tmp_path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_profile_of_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 0
        assert "nothing to profile" in capsys.readouterr().out


class TestHeatCommand:
    """The heat-annotated IR listing, printed by ``repro vmprof``."""

    def test_heat_annotates_kernel_blocks(self, capsys):
        assert main(["vmprof", "sor"]) == 0
        out = capsys.readouterr().out
        assert "Blocks by virtual cycles" in out
        assert "Top opcodes" in out
        assert "[kernel]" in out
        assert "define" in out  # annotated IR listing

    def test_heat_unknown_function(self, capsys):
        assert main(["vmprof", "sor", "--function", "nope"]) == 1
        assert "no function" in capsys.readouterr().err


class TestFidelityCommand:
    def test_fidelity_writes_report(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "BENCH_fidelity_embedded.json"
        assert main(["fidelity", "--domain", "embedded",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Fidelity vs. paper" in out
        assert f"wrote fidelity report: {out_file}" in out
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True and doc["failed"] == 0
