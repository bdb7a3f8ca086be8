"""CLI smoke tests (everything runs at tiny scale)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    def test_version(self, capsys):
        # argparse's version action prints and exits 0.
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip() != "repro"

    def test_version_matches_package(self, capsys):
        from repro import repro_version

        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == \
            f"repro {repro_version()}"

    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "qsort" in out
        assert "gshare" in out
        assert "E6" in out

    def test_simulate(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "crc", "--scale", "tiny",
            "--predictor", "gshare", "--entries", "256",
            "--sfp", "--pgu",
        )
        assert code == 0
        assert "mispredicts" in out
        assert "squashed" in out

    @pytest.mark.parametrize("predictor", ["tage", "static", "perfect"])
    def test_simulate_predictors_without_an_entries_knob(
        self, capsys, predictor
    ):
        code, out = run_cli(
            capsys, "simulate", "crc", "--scale", "tiny",
            "--predictor", predictor, "--core", "fast",
        )
        assert code == 0
        assert "mispredicts" in out

    def test_simulate_baseline(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "crc", "--scale", "tiny", "--baseline"
        )
        assert code == 0

    def test_run_experiment(self, capsys):
        code, out = run_cli(
            capsys, "run-experiment", "E3", "--scale", "tiny",
            "--workloads", "crc,grep",
        )
        assert code == 0
        assert "[E3]" in out

    def test_characterise(self, capsys):
        code, out = run_cli(
            capsys, "characterise", "grep", "--scale", "tiny"
        )
        assert code == 0
        assert "region_fraction" in out

    def test_disasm(self, capsys):
        code, out = run_cli(
            capsys, "disasm", "crc", "--function", "main",
            "--scale", "tiny",
        )
        assert code == 0
        assert "cmp" in out

    def test_disasm_unknown_function(self, capsys):
        code = main(["disasm", "crc", "--function", "ghost"])
        assert code == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


#: Flag -> (dest, default, choices, type, action) shared by the
#: subcommands that simulate.
_SIM_FLAGS = {
    "--core": ("core", None, ("object", "fast", "numpy"), None, "store"),
    "--metrics": ("metrics", None, None, None, "store"),
    "--trace": ("trace", None, None, None, "store"),
    "--record": ("record", False, None, None, "store_true"),
    "--store": ("store", None, None, None, "store"),
}
#: ... and by the experiment runners.
_EXPERIMENT_FLAGS = {
    **_SIM_FLAGS,
    "--scale": ("scale", "small", ("tiny", "small", "ref"), None, "store"),
    "--fast": ("fast", False, None, None, "store_true"),
    "--workloads": ("workloads", None, None, None, "store"),
    "--workers": ("workers", None, None, int, "store"),
    "--format": ("format", "table", ("table", "csv", "json"), None,
                 "store"),
    "--output": ("output", None, None, None, "store"),
}


def _subcommand_flags(name):
    import argparse

    from repro.cli import build_parser

    kinds = {
        argparse._StoreAction: "store",
        argparse._StoreTrueAction: "store_true",
    }
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {}
    for action in sub.choices[name]._actions:
        if action.dest == "help":
            continue
        key = action.option_strings[0] if action.option_strings else (
            action.dest
        )
        choices = action.choices
        flags[key] = (
            action.dest, action.default,
            tuple(choices) if choices is not None else None,
            action.type, kinds[type(action)],
        )
    return flags


class TestParserFlags:
    """Each simulating subcommand keeps its exact flag set."""

    @pytest.mark.parametrize("name", ["run", "run-experiment"])
    def test_run(self, name):
        assert _subcommand_flags(name) == {
            **_EXPERIMENT_FLAGS,
            "id": ("id", None, None, None, "store"),
        }

    def test_run_all(self):
        assert _subcommand_flags("run-all") == _EXPERIMENT_FLAGS

    def test_simulate(self):
        from repro.predictors import available_predictors
        from repro.workloads import workload_names

        assert _subcommand_flags("simulate") == {
            **_SIM_FLAGS,
            "workload": ("workload", None, tuple(workload_names()), None,
                         "store"),
            "--predictor": ("predictor", "gshare",
                            tuple(available_predictors()), None, "store"),
            "--entries": ("entries", 4096, None, int, "store"),
            "--scale": ("scale", "small", ("tiny", "small", "ref"), None,
                        "store"),
            "--distance": ("distance", 4, None, int, "store"),
            "--sfp": ("sfp", False, None, None, "store_true"),
            "--pgu": ("pgu", False, None, None, "store_true"),
            "--baseline": ("baseline", False, None, None, "store_true"),
        }


class TestAnalyzeCommand:
    def test_analyze(self, capsys):
        code, out = run_cli(capsys, "analyze", "grep", "--regions")
        assert code == 0
        assert "regions" in out
        assert "mean_guard_distance" in out

    def test_analyze_baseline(self, capsys):
        code, out = run_cli(capsys, "analyze", "crc", "--baseline")
        assert code == 0
        assert "regions                0" in out

    def test_analyze_predflow_summary(self, capsys):
        code, out = run_cli(capsys, "analyze", "crc")
        assert code == 0
        assert "predflow @ distance 4" in out
        assert "sfp_coverage_bound" in out

    def test_analyze_branches_table(self, capsys):
        code, out = run_cli(capsys, "analyze", "crc", "--branches")
        assert code == 0
        assert "verdict" in out
        assert "always" in out or "never" in out

    def test_analyze_json(self, capsys):
        import json

        code, out = run_cli(
            capsys, "analyze", "crc", "--json", "--distance", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["workload"] == "crc"
        assert payload["distance"] == 6
        assert payload["compile_config"] == "hyperblock"
        assert "summary" in payload and "regions" in payload
        branches = payload["functions"][0]["branches"]
        assert all("sfp_verdict" in b for b in branches)

    def test_analyze_h2p_join(self, capsys):
        import json

        code, out = run_cli(
            capsys, "analyze", "crc", "--h2p", "--top", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["h2p"]) <= 3
        row = payload["h2p"][0]
        assert row["mispredictions"] >= 0
        assert row["static"] is None or "sfp_verdict" in row["static"]


class TestLintCommand:
    def test_lint_text(self, capsys):
        code, out = run_cli(capsys, "lint", "crc", "--scale", "tiny")
        assert code == 0
        assert "crc:" in out
        assert "0 error(s)" in out

    def test_lint_json(self, capsys):
        import json

        code, out = run_cli(capsys, "lint", "crc", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["error"] == 0
        names = [entry["program"] for entry in payload["programs"]]
        assert names == ["crc"]

    def test_lint_min_severity_filters_text(self, capsys):
        code, out = run_cli(
            capsys, "lint", "crc", "--min-severity", "error"
        )
        assert code == 0
        assert "RPA005" not in out

    def test_lint_baseline(self, capsys):
        code, out = run_cli(capsys, "lint", "crc", "--baseline")
        assert code == 0

    def test_lint_unknown_workload(self, capsys):
        code = main(["lint", "bogus"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown workload" in err

    def test_lint_metrics_jsonl(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "lint.jsonl"
        code, _ = run_cli(
            capsys, "lint", "crc", "--metrics", str(metrics)
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in metrics.read_text().splitlines()
            if line
        ]
        spans = [e for e in events if e.get("event") == "span"]
        assert any(e["name"] == "lint" for e in spans)
        assert any(e["name"] == "lint-run" for e in spans)
        snapshots = [e for e in events if e.get("event") == "metrics"]
        counters = snapshots[-1]["counters"]
        assert counters["analysis.programs"] == 1
        assert counters["analysis.functions"] >= 1
        assert counters["analysis.instructions"] > 10


class TestHotspotsAndExport:
    def test_hotspots(self, capsys):
        code, out = run_cli(
            capsys, "hotspots", "crc", "--scale", "tiny", "--limit", "3"
        )
        assert code == 0
        assert "misp" in out

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "run-experiment", "E3", "--scale", "tiny",
            "--workloads", "crc", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("distance,")

    def test_output_dir(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "run-experiment", "E3", "--scale", "tiny",
            "--workloads", "crc", "--format", "json",
            "--output", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "e3.json").exists()


class TestProfileCommand:
    def test_profile_table(self, capsys):
        code, out = run_cli(
            capsys, "profile", "crc", "--scale", "tiny",
            "--entries", "256", "--sfp", "--pgu", "--top", "3",
        )
        assert code == 0
        assert "mispredicting branches" in out
        assert "H2P" in out
        assert "sfp" in out
        assert "pgu" in out

    def test_profile_json_reconciles(self, capsys):
        import json

        code, out = run_cli(
            capsys, "profile", "crc", "--scale", "tiny",
            "--entries", "256", "--sfp", "--pgu", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        simulated = payload["simulated"]
        totals = payload["attribution"]["totals"]
        assert totals["events"] == simulated["branches"]
        assert totals["mispredictions"] == simulated["mispredictions"]
        assert totals["filtered"] == simulated["squashed"]
        assert payload["attribution"]["sites"]

    def test_profile_markdown(self, capsys):
        code, out = run_cli(
            capsys, "profile", "qsort", "--scale", "tiny",
            "--entries", "256", "--markdown",
        )
        assert code == 0
        assert out.startswith("# qsort (tiny)")
        assert "## Top" in out

    def test_profile_baseline(self, capsys):
        code, out = run_cli(
            capsys, "profile", "crc", "--scale", "tiny",
            "--baseline", "--entries", "256",
        )
        assert code == 0
        assert "baseline" in out

    def test_profile_events_roundtrip(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        code, out = run_cli(
            capsys, "profile", "crc", "--scale", "tiny",
            "--entries", "256", "--sfp", "--pgu",
            "--rate", "8", "--seed", "2", "--events", str(events),
            "--markdown",
        )
        assert code == 0
        code, report = run_cli(
            capsys, "telemetry-report", str(events), "--profile"
        )
        assert code == 0
        # The replayed report carries the same numbers as the live one
        # (headings differ: the live render knows the predictor).
        assert out.split("\n", 2)[2] == report.split("\n", 2)[2]

    def test_telemetry_report_profile_rejects_metrics_file(
            self, capsys, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"event": "metrics"}\n')
        code = main(["telemetry-report", str(path), "--profile"])
        err = capsys.readouterr().err
        assert code == 1
        assert "profile-header" in err
