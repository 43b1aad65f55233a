"""The cross-model scorecard: structure, gates, determinism, golden, CLI.

``tests/golden/scorecard.json`` is the whole 150-cell matrix (five
programs x ten machines x three levels), byte for byte as ``python -m
repro scorecard --out`` writes it: any cycle count, instruction count,
buffer drain, BSP bound or flag that moves is a behaviour change someone
must sign off on with ``pytest --update-goldens``.  Here the rs6k row is
replayed; CI replays all ten machines under two hash seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.programs import MINMAX_WORKLOAD
from repro.bench.scorecard import (
    SCORECARD_WORKLOADS,
    Scorecard,
    ScorecardCell,
    format_scorecard,
    run_scorecard,
)

#: a single-program, single-machine card: enough structure, fast to run
FAST = dict(machines=("ss2",), workloads=(MINMAX_WORKLOAD,))

#: the full-zoo matrix, as ``repro scorecard --out`` writes it
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "scorecard.json"


class TestMatrixStructure:
    def test_one_cell_per_program_machine_level(self):
        card = run_scorecard(**FAST)
        assert len(card.cells) == 1 * 1 * 3
        assert card.programs == ("minmax",)
        assert card.levels == ("none", "useful", "speculative")

    def test_every_gate_passes_on_the_shipped_compiler(self):
        card = run_scorecard(**FAST)
        assert card.ok
        for cell in card.cells:
            assert cell.verified
            assert cell.order_ok
            assert cell.oracle_ok
            assert cell.bsp_ok
            assert cell.cycles >= cell.bsp_lower_bound

    def test_scheduling_helps_on_minmax(self):
        card = run_scorecard(**FAST)
        none = card.cell("minmax", "ss2", "none").cycles
        spec = card.cell("minmax", "ss2", "speculative").cycles
        assert spec <= none

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError, match="bogus"):
            run_scorecard(machines=("bogus",))


class TestDeterminism:
    def test_json_is_byte_stable(self):
        first = run_scorecard(**FAST).to_json()
        second = run_scorecard(**FAST).to_json()
        assert first == second

    def test_json_round_trips(self):
        card = run_scorecard(**FAST)
        payload = json.loads(card.to_json())
        assert payload["ok"] is True
        assert payload["machines"] == ["ss2"]
        assert len(payload["cells"]) == 3

    def test_golden_rs6k_matrix(self, request):
        if request.config.getoption("--update-goldens"):
            GOLDEN.write_text(run_scorecard().to_json())
        golden = json.loads(GOLDEN.read_text())
        assert len(golden["machines"]) == 10 and len(golden["cells"]) == 150
        rows = [c for c in golden["cells"] if c["machine"] == "rs6k"]
        expected = dict(golden, machines=["rs6k"], cells=rows)
        card = run_scorecard(machines=("rs6k",),
                             workloads=SCORECARD_WORKLOADS)
        assert card.to_json() == (
            json.dumps(expected, indent=2, sort_keys=True) + "\n"), (
            "the rs6k row differs from tests/golden/scorecard.json; if "
            "the change is intended, rerun with --update-goldens")


class TestFailurePropagation:
    def _card_with_failure(self) -> Scorecard:
        card = Scorecard(seed=1, machines=("rs6k",), programs=("p",),
                         levels=("none",))
        card.cells.append(ScorecardCell(
            program="p", machine="rs6k", level="none",
            failures=["simulated 1 cycles beat the BSP lower bound 10"]))
        return card

    def test_failing_cell_fails_the_card(self):
        card = self._card_with_failure()
        assert not card.ok
        assert card.failures == [
            "[p/rs6k/none] simulated 1 cycles beat the BSP lower bound 10"]

    def test_rendered_table_surfaces_failures(self):
        card = self._card_with_failure()
        text = format_scorecard(card)
        assert "FAIL" in text
        assert "beat the BSP lower bound" in text


class TestCLI:
    def test_writes_json_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        code = main(["scorecard", "--machines", "ss2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "machine ss2 [ok]" in printed
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["machines"] == ["ss2"]

    def test_unknown_machine_is_one_line_exit_2(self, capsys):
        code = main(["scorecard", "--machines", "rs6k,bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown machine 'bogus'" in err
        assert "rs6k" in err  # lists what is available
        assert "Traceback" not in err

    def test_verbose_prints_cells(self, capsys):
        code = main(["scorecard", "--machines", "ss1", "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "minmax/ss1/speculative" in out
