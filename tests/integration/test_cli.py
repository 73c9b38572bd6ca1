"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.layout.io import layout_to_json


@pytest.fixture
def layout_file(tmp_path, small_layout):
    path = tmp_path / "chip.json"
    path.write_text(layout_to_json(small_layout), encoding="utf-8")
    return path


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--cells", "5", "--nets", "4", "--seed", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["cells"]) == 5
        assert len(data["nets"]) == 4

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", "--cells", "6", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 6

    def test_generate_deterministic(self, capsys):
        main(["generate", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestRoute:
    def test_route_basic(self, layout_file, capsys):
        assert main(["route", str(layout_file)]) == 0
        out = capsys.readouterr().out
        assert "global routing" in out
        assert "len/hpwl" in out

    def test_route_two_pass(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--strategy", "two-pass"]) == 0
        assert "two-pass" in capsys.readouterr().out

    def test_route_with_detail(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--detail"]) == 0
        assert "detailed routing" in capsys.readouterr().out

    def test_route_ascii(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--ascii"]) == 0
        assert "#" in capsys.readouterr().out

    def test_route_svg(self, layout_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        assert main(["route", str(layout_file), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_route_aggressive_mode(self, layout_file):
        assert main(["route", str(layout_file), "--mode", "aggressive"]) == 0

    def test_route_inverted_corner(self, layout_file):
        assert main(["route", str(layout_file), "--inverted-corner"]) == 0

    def test_route_refine(self, layout_file):
        assert main(["route", str(layout_file), "--refine"]) == 0

    def test_route_two_pass_with_extra_passes(self, layout_file):
        assert main(["route", str(layout_file), "--strategy", "two-pass",
                     "--passes", "3"]) == 0

    def test_route_report(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--report", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "nets by wirelength" in out
        assert "detailed routing" in out

    def test_route_skip_unroutable(self, layout_file):
        assert main(["route", str(layout_file), "--skip-unroutable"]) == 0

    def test_route_negotiated(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--strategy", "negotiated"]) == 0
        out = capsys.readouterr().out
        assert "negotiated congestion" in out
        assert "negotiation" in out

    def test_route_timing_driven(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--strategy",
                     "timing-driven"]) == 0
        assert "timing" in capsys.readouterr().out

    def test_legacy_alias_flags_removed(self, layout_file, capsys):
        # --two-pass / --negotiate were removed; argparse now rejects
        # them as unknown flags (usage error, not a routing run).
        with pytest.raises(SystemExit):
            main(["route", str(layout_file), "--two-pass"])
        with pytest.raises(SystemExit):
            main(["route", str(layout_file), "--negotiate", "2"])

    def test_bad_workers_fails_cleanly(self, layout_file, capsys):
        # Nets route in one process: --workers is no route flag (a
        # usage error), only a serve flag.
        with pytest.raises(SystemExit):
            main(["route", str(layout_file), "--workers", "2"])
        assert "error:" in capsys.readouterr().err

    def test_bad_layout_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["route", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineCli:
    """The route subcommand is a thin shim over repro.api."""

    def test_strategy_flag_two_pass(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--strategy", "two-pass"]) == 0
        assert "two-pass" in capsys.readouterr().out

    def test_strategy_flag_negotiated(self, layout_file, capsys):
        assert main(["route", str(layout_file), "--strategy", "negotiated"]) == 0
        assert "negotiated congestion" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self, layout_file, capsys):
        with pytest.raises(SystemExit):
            main(["route", str(layout_file), "--strategy", "fancy"])
        assert "invalid choice" in capsys.readouterr().err

    def test_json_out_round_trips(self, layout_file, tmp_path, capsys):
        from repro.api import RouteResult

        out = tmp_path / "result.json"
        assert main(["route", str(layout_file), "--json-out", str(out)]) == 0
        result = RouteResult.from_json(out.read_text())
        assert result.strategy == "single"
        assert result.route.routed_count > 0
        assert result.verified

    def test_request_file_drives_route(self, layout_file, tmp_path, capsys):
        from repro.api import RouteRequest, RouteResult

        request = RouteRequest(
            layout_path=str(layout_file),
            strategy="negotiated",
            strategy_params={"max_iterations": 3},
        )
        request_path = tmp_path / "request.json"
        request_path.write_text(request.to_json(), encoding="utf-8")
        out = tmp_path / "result.json"
        assert main(["route", "--request", str(request_path),
                     "--json-out", str(out)]) == 0
        assert "negotiated congestion" in capsys.readouterr().out
        result = RouteResult.from_json(out.read_text())
        assert result.strategy == "negotiated"

    def test_request_excludes_layout_argument(self, layout_file, tmp_path, capsys):
        from repro.api import RouteRequest

        request_path = tmp_path / "request.json"
        request_path.write_text(
            RouteRequest(layout_path=str(layout_file)).to_json(), encoding="utf-8"
        )
        assert main(["route", str(layout_file),
                     "--request", str(request_path)]) == 1
        assert "not both" in capsys.readouterr().err

    def test_layout_or_request_required(self, capsys):
        assert main(["route"]) == 1
        assert "required" in capsys.readouterr().err

    def test_cli_routes_match_library_pipeline(self, layout_file, tmp_path, capsys):
        """Integration check: the CLI and the library produce one route."""
        from repro.api import RouteRequest, RouteResult, RoutingPipeline
        from repro.layout.io import layout_from_json

        out = tmp_path / "result.json"
        assert main(["route", str(layout_file), "--json-out", str(out)]) == 0
        cli_result = RouteResult.from_json(out.read_text())
        layout = layout_from_json(layout_file.read_text())
        lib_result = RoutingPipeline().run(RouteRequest(layout=layout))
        assert {
            name: [p.points for p in tree.paths]
            for name, tree in cli_result.route.trees.items()
        } == {
            name: [p.points for p in tree.paths]
            for name, tree in lib_result.route.trees.items()
        }

    def test_no_verify_flag(self, layout_file, tmp_path, capsys):
        from repro.api import RouteResult

        out = tmp_path / "result.json"
        assert main(["route", str(layout_file), "--no-verify",
                     "--json-out", str(out)]) == 0
        assert not RouteResult.from_json(out.read_text()).verified

    def test_json_out_stdout_is_pure_json(self, layout_file, capsys):
        from repro.api import RouteResult

        assert main(["route", str(layout_file), "--json-out", "-"]) == 0
        # stdout must be a parseable result document, no tables mixed in
        result = RouteResult.from_json(capsys.readouterr().out)
        assert result.strategy == "single"

    def test_request_rejects_routing_flags(self, layout_file, tmp_path, capsys):
        from repro.api import RouteRequest

        request_path = tmp_path / "request.json"
        request_path.write_text(
            RouteRequest(layout_path=str(layout_file)).to_json(), encoding="utf-8"
        )
        assert main(["route", "--request", str(request_path), "--no-verify",
                     "--report"]) == 1
        err = capsys.readouterr().err
        assert "--no-verify" in err and "--report" in err and "request file" in err


class TestRender:
    def test_render(self, layout_file, capsys):
        assert main(["render", str(layout_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("+")
        assert "#" in out

    def test_render_width(self, layout_file, capsys):
        assert main(["render", str(layout_file), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert max(len(line) for line in out.splitlines()) == 42


class TestStrategiesCli:
    """The strategies subcommand publishes the registry's describe()."""

    def test_table_lists_every_builtin(self, capsys):
        from repro.api.strategies import BUILTIN_STRATEGIES

        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_STRATEGIES:
            assert name in out
        assert "delay_weight: float = 0.5" in out

    def test_json_matches_registry_describe(self, capsys):
        from repro.api.registry import DEFAULT_REGISTRY

        assert main(["strategies", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == DEFAULT_REGISTRY.describe()


class TestConformanceCli:
    """The conformance subcommand drives the scenario harness."""

    def test_quick_run_on_corpus_subset(self, capsys):
        assert main(["conformance", "--quick", "--only", "single-cell-*",
                     "--strategies", "single"]) == 0
        out = capsys.readouterr().out
        assert "conformance (quick matrix)" in out
        assert "single-cell-s67" in out
        assert "0 failed" in out

    def test_json_report_artifact(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "conformance_report.json"
        assert main(["conformance", "--quick", "--only", "min-separation-*",
                     "--json-out", str(report_path)]) == 0
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["cases"]
        assert {c["strategy"] for c in document["cases"]} == {
            "single", "two-pass", "negotiated", "timing-driven"
        }

    def test_json_stdout_is_pure_json(self, capsys):
        import json

        assert main(["conformance", "--quick", "--only", "zero-nets-*",
                     "--json-out", "-"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True

    def test_no_matching_scenarios_fails_cleanly(self, capsys):
        assert main(["conformance", "--only", "no-such-scene-*"]) == 1
        assert "no corpus scenarios match" in capsys.readouterr().err

    def test_custom_corpus_directory(self, tmp_path, capsys):
        from repro.scenarios import build_scenario, save_scenario

        save_scenario(build_scenario("single-cell", seed=4), tmp_path)
        assert main(["conformance", "--quick", "--corpus", str(tmp_path),
                     "--strategies", "single"]) == 0
        assert "single-cell-s4" in capsys.readouterr().out

    def test_write_corpus_regenerates(self, tmp_path, capsys):
        assert main(["conformance", "--write-corpus",
                     "--corpus", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().err
        assert sorted(tmp_path.glob("*.json"))

    def test_write_corpus_rejects_run_flags(self, tmp_path, capsys):
        assert main(["conformance", "--write-corpus", "--quick",
                     "--corpus", str(tmp_path)]) == 1
        assert "incompatible with --write-corpus" in capsys.readouterr().err
