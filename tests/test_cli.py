"""Integration tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.core import CONDITIONS
from repro.core.serialize import save_history
from repro.runtime import RunSpec, execute
from repro.workloads import figure1
from tests.conftest import simple_history


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    save_history(figure1(), str(path))
    return str(path)


@pytest.fixture
def torn_file(tmp_path):
    h = simple_history(
        [
            (1, 0, "w x 1, w y 1", 0.0, 1.0),
            (2, 1, "r x 1, r y 0", 2.0, 3.0),
        ]
    )
    path = tmp_path / "torn.json"
    save_history(h, str(path))
    return str(path)


class TestCheck:
    def test_consistent_history(self, fig1_file, capsys):
        assert main(["check", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "m-sequential consistency" in out
        assert "HOLDS" in out and "VIOLATED" not in out

    def test_violation_reported(self, torn_file, capsys):
        assert main(["check", torn_file]) == 0  # non-strict
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        # The refutation the check returned prints under the verdict.
        lines = out.splitlines()
        at = next(
            i for i, line in enumerate(lines)
            if line.startswith("m-sequential consistency")
        )
        assert lines[at + 1] == (
            "    m-sc violated: illegal triple (D 4.6): m#2 reads 'y' from "
            "m#0, but m#1 overwrites it and is ordered strictly between "
            "them"
        )

    def test_strict_exit_code(self, torn_file):
        assert main(["check", "--strict", torn_file]) == 1

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_exact_method(self, fig1_file):
        assert main(["check", "--method", "exact", fig1_file]) == 0

    def test_constrained_method_refuses_per_condition(self, tmp_path, capsys):
        # Concurrent updates from three processes: no OO/WW-constraint.
        history = execute(RunSpec(protocol="msc", n=3, ops=4, seed=2)).history
        path = tmp_path / "msc.json"
        save_history(history, str(path))
        assert main(["check", "--method", "constrained", str(path)]) == 0
        out = capsys.readouterr().out
        for row in CONDITIONS.values():
            assert f"{row.title:<28} (refused: history does not satisfy" in out

    def test_every_table_row_reports_its_refutation(self, torn_file, capsys):
        assert main(["check", torn_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        for row in CONDITIONS.values():
            at = next(
                i for i, line in enumerate(lines) if line.startswith(row.title)
            )
            assert "VIOLATED" in lines[at], row.name
            assert lines[at + 1].startswith(f"    {row.name} violated: ")

    @pytest.mark.parametrize("window", ["-3", "0"])
    def test_non_positive_window_is_an_error(self, fig1_file, window, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", fig1_file, "--window", window])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_untimed_history_skips_timed_conditions(self, tmp_path, capsys):
        h = simple_history([(1, 0, "w x 1"), (2, 1, "r x 1")])
        path = tmp_path / "untimed.json"
        save_history(h, str(path))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out


class TestDemo:
    @pytest.mark.parametrize(
        "protocol",
        ["msc", "mlin", "aggregate", "server", "causal", "lock", "aw"],
    )
    def test_each_protocol_demo_verifies(self, protocol, capsys):
        code = main(
            [
                "demo",
                "--protocol",
                protocol,
                "--ops",
                "3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "holds: True" in out or "consistent: True" in out


class TestRun:
    def spec_file(self, tmp_path, **fields):
        from repro.runtime import RunSpec

        payload = {"protocol": "msc", "ops": 3, "seed": 1}
        payload.update(fields)
        path = tmp_path / "spec.json"
        RunSpec.from_dict(payload).save(str(path))
        return str(path)

    def test_run_executes_a_spec_file(self, tmp_path, capsys):
        assert main(["run", self.spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "msc/random seed=1" in out
        assert "-> ok" in out

    def test_run_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "artifact.json"
        code = main(
            ["run", self.spec_file(tmp_path), "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True and payload["protocol"] == "msc"

    def test_run_json_output(self, tmp_path, capsys):
        assert main(["run", self.spec_file(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["history"]["mops"]

    def test_run_missing_spec_file(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_invalid_spec_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"protocol": "paxos"}')
        assert main(["run", str(path)]) == 2
        assert "unknown protocol" in capsys.readouterr().err


class TestServe:
    @pytest.mark.parametrize(
        "flags", [["--workers", "0"], ["--queue-depth", "0"]]
    )
    def test_invalid_config_is_an_error_not_a_traceback(
        self, flags, tmp_path, capsys, monkeypatch
    ):
        from repro.serve import ServeDaemon

        def never(daemon):
            pytest.fail("serve started with an invalid config")

        monkeypatch.setattr(ServeDaemon, "serve_forever", never)
        argv = ["serve", "--port", "0", "--store", str(tmp_path), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestChaosChoices:
    def test_chaos_accepts_every_crash_tolerant_protocol(self):
        from repro.__main__ import build_parser
        from repro.runtime import crash_tolerant_protocols

        parser = build_parser()
        eligible = sorted(crash_tolerant_protocols())
        assert len(eligible) >= 4
        for name in eligible:
            args = parser.parse_args(["chaos", "--protocol", name])
            assert args.protocol == name

    def test_chaos_rejects_non_crash_tolerant_protocol(self, capsys):
        from repro.__main__ import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["chaos", "--protocol", "causal"])
        assert "invalid choice" in capsys.readouterr().err


class TestFigures:
    def test_figures_render(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "stale" in out

