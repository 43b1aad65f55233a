"""Command-line interface tests (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main

MINMAX_C = """
int minmax(int a[], int n, int out[]) {
    int min = a[0]; int max = min; int i = 1;
    while (i < n) {
        int u = a[i]; int v = a[i+1];
        if (u > v) { if (u > max) max = u; if (v < min) min = v; }
        else       { if (v > max) max = v; if (u < min) min = u; }
        i = i + 2;
    }
    out[0] = min; out[1] = max; return 0;
}
"""

FIGURE2_IR = """
function loop
CL.0:
    (I1) C  cr7=r12,r0
    (I2) BF CL.9,cr7,0x2/gt
BL2:
    (I3) LR r30=r12
CL.9:
    (I4) AI r29=r29,2
    (I5) C  cr4=r29,r27
    (I6) BT CL.0,cr4,0x1/lt
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "minmax.c"
    path.write_text(MINMAX_C)
    return str(path)


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "loop.ir"
    path.write_text(FIGURE2_IR)
    return str(path)


class TestCompile:
    def test_prints_assembly(self, c_file, capsys):
        assert main(["compile", c_file]) == 0
        out = capsys.readouterr().out
        assert "function minmax" in out
        assert "motions" in out

    def test_level_selection(self, c_file, capsys):
        main(["compile", c_file, "--level", "none"])
        out = capsys.readouterr().out
        assert "0 useful + 0 speculative" in out

    def test_machine_selection(self, c_file, capsys):
        assert main(["compile", c_file, "--machine", "ss4"]) == 0

    def test_function_filter(self, c_file, capsys):
        main(["compile", c_file, "--function", "nope"])
        assert "function" not in capsys.readouterr().out

    def test_ctr_flag(self, tmp_path, capsys):
        path = tmp_path / "sum.c"
        path.write_text("int f(int a[], int n) { int s = 0; int i = 0;"
                        " while (i < n) { s += a[i]; i++; } return s; }")
        main(["compile", str(path), "--ctr"])
        assert "BDNZ" in capsys.readouterr().out


class TestRun:
    def test_runs_and_reports(self, c_file, capsys):
        assert main(["run", c_file, "minmax",
                     "5,-3,8,1,9,0", "5", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "return value: 0" in out
        assert "array arg 1: [-3, 9]" in out
        assert "cycles:" in out

    def test_scalar_args(self, tmp_path, capsys):
        path = tmp_path / "add.c"
        path.write_text("int add(int x, int y) { return x + y; }")
        main(["run", str(path), "add", "20", "22"])
        assert "return value: 42" in capsys.readouterr().out


class TestSchedule:
    def test_schedules_ir(self, ir_file, capsys):
        assert main(["schedule", ir_file, "--level", "useful"]) == 0
        out = capsys.readouterr().out
        assert "function loop" in out
        assert "Motion" in out


class TestDot:
    @pytest.mark.parametrize("graph", ["cfg", "cspdg", "ddg"])
    def test_graphs(self, c_file, graph, capsys):
        assert main(["dot", c_file, "--graph", graph]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.rstrip().endswith("}")

    def test_cfg_with_instructions(self, c_file, capsys):
        main(["dot", c_file, "--instructions"])
        assert "\\l" in capsys.readouterr().out


class TestStats:
    def test_prints_paper_style_report(self, c_file, capsys):
        assert main(["stats", c_file]) == 0
        out = capsys.readouterr().out
        assert "scheduling report" in out
        assert "function minmax" in out
        assert "speculation rate" in out
        assert "ready-list pressure" in out
        assert "phase times (ms)" in out

    def test_respects_level_and_machine(self, c_file, capsys):
        assert main(["stats", c_file, "--level", "useful",
                     "--machine", "ss2"]) == 0
        out = capsys.readouterr().out
        assert "machine ss2, level useful" in out
        assert "speculative motions performed         0" in out


class TestTraceOutputs:
    def test_jsonl_trace(self, c_file, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["compile", c_file, "--trace-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        kinds = [json.loads(line)["ev"] for line in lines]
        assert kinds[0] == "function_begin"
        assert "issue" in kinds and "motion" in kinds

    def test_jsonl_round_trips_to_typed_events(self, c_file, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        main(["compile", c_file, "--trace-out", str(path)])
        events = list(read_jsonl(str(path)))
        assert events[0].kind == "function_begin"
        assert any(e.kind == "motion" and e.speculative for e in events)

    def test_chrome_trace(self, c_file, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["stats", c_file, "--trace-chrome", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e.get("cat") == "issue" for e in doc["traceEvents"])

    def test_both_sinks_together(self, c_file, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        assert main(["compile", c_file, "--trace-out", str(jsonl),
                     "--trace-chrome", str(chrome)]) == 0
        assert jsonl.read_text()
        json.loads(chrome.read_text())


class TestFuzzMetrics:
    def test_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["fuzz", "--n", "2", "--seed", "7",
                     "--metrics-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["master_seed"] == 7
        assert doc["attempted"] == 2
        assert [p["index"] for p in doc["programs"]] == [0, 1]
        for program in doc["programs"]:
            assert {"motions_useful", "motions_speculative",
                    "spec_rejected", "ready_mean",
                    "ready_max"} <= set(program)


class TestMissingInputFiles:
    """Satellite fix: one-line stderr error + exit 2, never a traceback."""

    COMMANDS = [
        ["compile", "{path}"],
        ["run", "{path}", "minmax", "1,2", "2", "0,0"],
        ["schedule", "{path}"],
        ["dot", "{path}"],
        ["verify", "{path}"],
        ["stats", "{path}"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_missing_file(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such.c")
        argv = [a.format(path=missing) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read")
        assert missing in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")


class TestMalformedIR:
    """Satellite fix: a :class:`repro.ir.parser.ParseError` surfaces as a
    located one-line stderr message with exit 2, never a traceback."""

    def test_unknown_mnemonic_with_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text("function f\nCL.0:\n    BOGUS r1=r2,r3\n")
        assert main(["schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3, col 5:")
        assert "unknown mnemonic 'BOGUS'" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_bad_operand_is_located(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text("function f\nCL.0:\n    A r1=zz,r3\n")
        assert main(["schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3, col 7" in err
        assert "not a register name" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_function_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ir"
        path.write_text("CL.0:\n    NOP\n")
        assert main(["schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "'function <name>'" in err


class TestBadCheckpointResume:
    """Satellite fix: ``fuzz --resume`` on a damaged checkpoint is a
    one-line stderr error with exit 2, never a traceback."""

    def _resume(self, path):
        return ["fuzz", "--n", "2", "--seed", "7", "--no-shrink",
                "--resume", str(path)]

    def _v2_header(self):
        return {"version": 2, "master_seed": 7, "n": 2,
                "machines": ["rs6k", "scalar", "ss2"], "shrink": False,
                "collect_metrics": False}

    def _write_header(self, path, header):
        path.write_text(json.dumps(header) + "\n")

    def _expect_one_line_error(self, capsys, *needles):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        for needle in needles:
            assert needle in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_truncated_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self._v2_header())[:40])
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "corrupt checkpoint",
                                    str(path))

    def test_missing_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "cannot read checkpoint",
                                    str(path))

    def test_wrong_schema_missing_field(self, tmp_path, capsys):
        header = self._v2_header()
        del header["shrink"]
        path = tmp_path / "campaign.json"
        self._write_header(path, header)
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "does not match the v2 schema",
                                    "'shrink'")

    def test_wrong_schema_bad_type(self, tmp_path, capsys):
        header = self._v2_header()
        header["machines"] = "rs6k"
        path = tmp_path / "campaign.json"
        self._write_header(path, header)
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "does not match the v2 schema",
                                    "'machines'", "should be list")

    def test_bool_is_not_a_program_count(self, tmp_path, capsys):
        header = self._v2_header()
        header["n"] = True
        path = tmp_path / "campaign.json"
        self._write_header(path, header)
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "does not match the v2 schema",
                                    "'n'", "should be int")

    def test_different_campaign(self, tmp_path, capsys):
        header = self._v2_header()
        header["master_seed"] = 8
        path = tmp_path / "campaign.json"
        self._write_header(path, header)
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "different campaign",
                                    "master_seed")

    def test_v1_document_is_unsupported(self, tmp_path, capsys):
        """The single-document v1 format is no longer read."""
        state = {**self._v2_header(), "version": 1, "done": [0, 1],
                 "failures": [], "quarantined": [], "metric_summaries": []}
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(state))
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "unsupported version 1")

    def test_torn_final_wal_line_is_tolerated(self, tmp_path, capsys):
        """ISSUE satellite: a v2 checkpoint whose *final* entry was torn
        by a crash resumes cleanly -- the torn index just re-runs."""
        entry = {"done": 0, "failure": None, "quarantined": None,
                 "metrics": None}
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self._v2_header()) + "\n"
                        + json.dumps(entry) + "\n"
                        + '{"done": 1, "fail')  # torn by kill -9
        assert main(self._resume(path)) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_torn_nonfinal_wal_line_stays_exit_2(self, tmp_path, capsys):
        entry = {"done": 1, "failure": None, "quarantined": None,
                 "metrics": None}
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self._v2_header()) + "\n"
                        + '{"done": 0, "fail\n'
                        + json.dumps(entry) + "\n")
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "corrupt checkpoint",
                                    "line 2")

    def test_wal_entry_wrong_shape_is_a_schema_error(self, tmp_path,
                                                     capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self._v2_header()) + "\n"
                        + '{"index": 0}\n')
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "does not match the v2 schema",
                                    "not a program entry")

    def test_v2_header_missing_field(self, tmp_path, capsys):
        header = self._v2_header()
        del header["machines"]
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(header) + "\n")
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "does not match the v2 schema",
                                    "'machines'")

    def test_unsupported_version(self, tmp_path, capsys):
        header = self._v2_header()
        header["version"] = 3
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(header) + "\n")
        assert main(self._resume(path)) == 2
        self._expect_one_line_error(capsys, "unsupported version", "3")


class TestUnknownMachine:
    """Satellite fix (PR 8): ``--machine``/``--machines`` with an unknown
    name is a one-line stderr error listing the available machines, exit
    2, never an argparse usage dump or a traceback -- uniformly across
    every command that takes a machine."""

    COMMANDS = [
        ["compile", "{path}", "--machine", "bogus"],
        ["run", "{path}", "minmax", "1,2", "2", "0,0",
         "--machine", "bogus"],
        ["schedule", "{path}", "--machine", "bogus"],
        ["dot", "{path}", "--machine", "bogus"],
        ["verify", "{path}", "--machine", "bogus"],
        ["stats", "{path}", "--machine", "bogus"],
        ["serve", "--machine", "bogus"],
        ["chaos", "--n", "1", "--machine", "bogus"],
        ["fuzz", "--n", "1", "--machines", "rs6k,bogus"],
        ["scorecard", "--machines", "bogus"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_unknown_machine(self, argv, c_file, capsys):
        argv = [a.format(path=c_file) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: unknown machine 'bogus'")
        assert "available:" in err
        assert "rs6k" in err and "xdp" in err  # the zoo is listed
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_known_machines_still_parse(self, c_file):
        # no argparse choices= left behind: every zoo name is accepted
        from repro.machine.configs import ZOO

        for name in ZOO:
            assert main(["compile", c_file, "--machine", name,
                         "--level", "none"]) == 0


class TestScorecardCommand:
    def test_fast_single_machine_matrix(self, capsys):
        assert main(["scorecard", "--machines", "ss1"]) == 0
        out = capsys.readouterr().out
        assert "machine ss1 [ok]" in out
        assert "minmax" in out


class TestChaosCommand:
    def test_smoke_sweep_exits_zero(self, capsys):
        assert main(["chaos", "--n", "2", "--seed", "1991"]) == 0
        out = capsys.readouterr().out
        assert "chaos: 2 fault plans, seed 1991" in out
        assert "ok" in out

    def test_verbose_prints_every_case(self, capsys):
        assert main(["chaos", "--n", "2", "--seed", "1991",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.count("seed ") >= 2
        assert "->" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])
