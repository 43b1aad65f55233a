"""Dependence-state (ready list) bookkeeping tests, through the calls the
global block pass makes: ``indices`` once per pass, ``sync`` before it
reads the ``blocked`` and ``earliest`` arrays, ``mark_issued_idx`` and
``mark_prefulfilled`` as instructions complete, ``begin_block`` between
passes."""

from repro.ir import parse_function
from repro.machine import rs6k
from repro.pdg import build_block_ddg
from repro.pdg.data_deps import DepEdge, DepKind
from repro.sched import DenseDependenceState


def make_state():
    """A fresh state over one block, and the block's dense indices."""
    func = parse_function("""
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
""")
    block = func.block("a")
    machine = rs6k()
    ddg = build_block_ddg(block, machine)
    state = DenseDependenceState(ddg, machine)
    state.begin_block()
    return block, state, state.indices(block.instrs)


def view(state):
    """What a scan point reads: the arrays after a sync."""
    state.sync()
    return state.blocked, state.earliest


def test_initially_only_roots_ready():
    block, state, (load, ai, cmp_i, bt) = make_state()
    blocked, earliest = view(state)
    assert blocked[load] == 0
    assert blocked[ai] and blocked[cmp_i] and blocked[bt]
    assert not any(earliest)


def test_issue_unlocks_successors_with_weights():
    block, state, (load, ai, cmp_i, bt) = make_state()
    state.mark_issued_idx(load, 0)
    blocked, earliest = view(state)
    assert blocked[ai] == 0
    assert earliest[ai] == 2  # exec 1 + load delay 1
    state.mark_issued_idx(ai, 2)
    assert view(state)[1][cmp_i] == 3
    state.mark_issued_idx(cmp_i, 3)
    assert view(state)[1][bt] == 7  # 3 + exec 1 + compare delay 3


def test_prefulfilled_is_timing_neutral():
    block, state, (load, ai, cmp_i, bt) = make_state()
    state.mark_prefulfilled(block.instrs[0])
    blocked, earliest = view(state)
    assert blocked[ai] == 0
    assert earliest[ai] == 0


def test_begin_block_clears_timing_but_not_fulfilment():
    block, state, (load, ai, cmp_i, bt) = make_state()
    state.mark_issued_idx(load, 5)
    state.begin_block()
    blocked, earliest = view(state)
    assert blocked[ai] == 0          # the load stays fulfilled
    assert earliest[ai] == 0


def test_carry_shifts_previous_starts():
    block, state, (load, ai, cmp_i, bt) = make_state()
    state.mark_issued_idx(cmp_i, 4)
    # previous pass was 5 cycles long: cmp looks issued at cycle -1, so
    # the branch still owes 3 of its 4 separation cycles
    state.begin_block(carry_cycles=5)
    state.mark_prefulfilled(block.instrs[0])
    state.mark_prefulfilled(block.instrs[1])
    assert view(state)[1][bt] == 3


def test_carry_expires_after_one_block():
    block, state, (load, ai, cmp_i, bt) = make_state()
    state.mark_issued_idx(cmp_i, 4)
    state.begin_block(carry_cycles=5)
    state.begin_block(carry_cycles=1)
    assert view(state)[1][bt] == 0  # two blocks later: neutral


# -- DDG-version cache invalidation ------------------------------------------

def test_version_bump_drops_derived_caches():
    block, state, (load, ai, cmp_i, bt) = make_state()
    instrs = block.instrs
    # warm the caches: bt is blocked only by cmp_i (and transitively)
    state.mark_issued_idx(load, 0)
    state.mark_issued_idx(ai, 2)
    assert view(state)[0][bt]
    assert state.invalidations == 0
    # a mid-region mutation (what renaming/duplication do) bumps version
    before = state.ddg.version
    state.ddg.add_edge(instrs[0], instrs[3], DepKind.ANTI, 0)
    assert state.ddg.version > before
    # the next sync rebinds: counters rebuilt exactly once, fulfilment
    # and issue cycles kept
    blocked, earliest = view(state)
    assert blocked[bt] == 1                  # only cmp_i still owed
    state.mark_issued_idx(cmp_i, 3)
    blocked, earliest = view(state)
    assert blocked[bt] == 0
    assert earliest[bt] == 7                 # flow edge still dominates
    assert state.invalidations == 1


def test_resync_folds_carried_starts():
    """A rebind in the middle of a pass recomputes earliest starts from
    the carried issue cycles of the previous pass too."""
    block, state, (load, ai, cmp_i, bt) = make_state()
    instrs = block.instrs
    state.mark_issued_idx(load, 0)
    state.mark_issued_idx(ai, 2)
    state.mark_issued_idx(cmp_i, 4)
    state.begin_block(carry_cycles=5)
    state.ddg.add_edge(instrs[1], instrs[3], DepKind.ANTI, 0)
    blocked, earliest = view(state)
    assert state.invalidations == 1
    assert blocked[bt] == 0
    assert earliest[bt] == 3                 # cmp_i at -1, plus 4


def test_new_edge_visible_after_invalidation():
    func = parse_function("""
function g
a:
    LI r1=1
    LI r2=2
""")
    block = func.block("a")
    machine = rs6k()
    ddg = build_block_ddg(block, machine)
    state = DenseDependenceState(ddg, machine)
    state.begin_block()
    one, two = state.indices(block.instrs)
    # independent at first: both are ready roots
    blocked, _ = view(state)
    assert blocked[one] == 0 and blocked[two] == 0
    ddg.add_edge(*block.instrs, DepKind.FLOW, 0)
    # version resync makes the new constraint visible immediately
    assert view(state)[0][two] == 1
    state.mark_issued_idx(one, 0)
    blocked, earliest = view(state)
    assert blocked[two] == 0
    assert earliest[two] == 1    # exec time of LI
    assert state.invalidations == 1


def test_mutation_without_version_bump_serves_stale_answers():
    """The documented failure mode: a graph mutation that bypasses
    ``add_edge``/``remove_edge`` (and so never bumps ``version``) leaves
    the incremental caches stale -- queries keep answering from the old
    edge set until something legitimate bumps the version."""
    block, state, (load, ai, cmp_i, bt) = make_state()
    instrs = block.instrs
    assert view(state)[0][load] == 0
    # sneak an edge in behind the graph's back: no version bump
    rogue = DepEdge(instrs[2], instrs[0], DepKind.ANTI, 0, None)
    state.ddg._preds[id(instrs[0])].append(rogue)
    state.ddg._succs[id(instrs[2])].append(rogue)
    assert view(state)[0][load] == 0         # stale: rogue edge invisible
    # any honest mutation resyncs and the rogue edge takes effect
    state.ddg.add_edge(instrs[1], instrs[3], DepKind.ANTI, 0)
    assert view(state)[0][load] == 1
    assert state.invalidations == 1
