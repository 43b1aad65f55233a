"""The opcode table of the RS/6K-flavoured IR.

Every opcode carries the static properties the scheduler and the machine
model need:

* ``unit`` -- which functional-unit *type* executes it (Section 2 models a
  superscalar machine as ``m`` unit types with ``n_i`` units each),
* ``cycles`` -- default execution time in cycles (the machine model may
  override per-opcode times, e.g. for multi-cycle multiply/divide),
* behavioural flags used by the global scheduler's legality rules
  (Section 5.1): calls are never moved beyond basic-block boundaries,
  stores are never scheduled speculatively, branches are never reordered.

The mnemonics mirror the paper's Figure 2 pseudo-code (``L``, ``LU``, ``C``,
``BF``, ``AI``, ``LR``, ...) extended with enough arithmetic, logical and
floating point operations to compile realistic kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class UnitType(Enum):
    """Functional-unit types of the parametric machine model."""

    FXU = "fixed"  # fixed point unit
    FPU = "float"  # floating point unit
    BRU = "branch"  # branch unit

    #: position in declaration order (0, 1, 2): a list index, so per-unit
    #: tables of the scheduler and the simulator never hash the member
    #: (``Enum.__hash__`` is Python code)
    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnitType.{self.name}"


for _index, _unit in enumerate(UnitType):
    _unit.index = _index
del _index, _unit


@dataclass(frozen=True, slots=True)
class OpcodeInfo:
    """Static description of one opcode."""

    mnemonic: str
    unit: UnitType
    cycles: int = 1
    #: reads memory
    is_load: bool = False
    #: writes memory
    is_store: bool = False
    #: any branch (conditional, unconditional, call, return)
    is_branch: bool = False
    #: conditional branch (tests a CR bit)
    is_conditional: bool = False
    #: subroutine call -- barrier for global motion, clobbers memory
    is_call: bool = False
    #: compare instructions get the compare->branch delay treatment
    is_compare: bool = False
    #: may the instruction be moved beyond basic-block boundaries at all?
    can_move_globally: bool = True
    #: may the instruction be executed speculatively (moved above a branch
    #: it was control dependent on)?
    can_speculate: bool = True


class Opcode(Enum):
    """All opcodes, with their :class:`OpcodeInfo` as value."""

    # ------------------------------------------------------------------ #
    # Fixed point loads / stores.                                        #
    # ------------------------------------------------------------------ #
    #: load word: ``L rd=sym(rb,d)``
    L = OpcodeInfo("L", UnitType.FXU, is_load=True, can_speculate=True)
    #: load with update (post-increment base): ``LU rd,rb=sym(rb,d)``
    LU = OpcodeInfo("LU", UnitType.FXU, is_load=True, can_speculate=True)
    #: store word: ``ST rs=>sym(rb,d)`` -- never speculated (Section 5.1)
    ST = OpcodeInfo(
        "ST", UnitType.FXU, is_store=True, can_speculate=False
    )
    #: store with update: ``STU rs,rb=>sym(rb,d)``
    STU = OpcodeInfo(
        "STU", UnitType.FXU, is_store=True, can_speculate=False
    )

    # ------------------------------------------------------------------ #
    # Fixed point computation.                                           #
    # ------------------------------------------------------------------ #
    LI = OpcodeInfo("LI", UnitType.FXU)  # load immediate: LI rd=imm
    LR = OpcodeInfo("LR", UnitType.FXU)  # register move:  LR rd=rs
    A = OpcodeInfo("A", UnitType.FXU)  # add:            A rd=ra,rb
    AI = OpcodeInfo("AI", UnitType.FXU)  # add immediate:  AI rd=ra,imm
    S = OpcodeInfo("S", UnitType.FXU)  # subtract:       S rd=ra,rb
    SI = OpcodeInfo("SI", UnitType.FXU)  # subtract imm:   SI rd=ra,imm
    MUL = OpcodeInfo("MUL", UnitType.FXU, cycles=5)  # multiply
    DIV = OpcodeInfo("DIV", UnitType.FXU, cycles=19)  # divide
    REM = OpcodeInfo("REM", UnitType.FXU, cycles=19)  # remainder
    AND = OpcodeInfo("AND", UnitType.FXU)
    ANDI = OpcodeInfo("ANDI", UnitType.FXU)
    OR = OpcodeInfo("OR", UnitType.FXU)
    ORI = OpcodeInfo("ORI", UnitType.FXU)
    XOR = OpcodeInfo("XOR", UnitType.FXU)
    XORI = OpcodeInfo("XORI", UnitType.FXU)
    SL = OpcodeInfo("SL", UnitType.FXU)  # shift left logical (by imm)
    SR = OpcodeInfo("SR", UnitType.FXU)  # shift right logical (by imm)
    SRA = OpcodeInfo("SRA", UnitType.FXU)  # shift right arithmetic (by imm)
    NEG = OpcodeInfo("NEG", UnitType.FXU)
    NOT = OpcodeInfo("NOT", UnitType.FXU)
    #: fixed point compare: ``C crd=ra,rb`` (3-cycle delay to its branch)
    C = OpcodeInfo("C", UnitType.FXU, is_compare=True)
    #: fixed point compare immediate: ``CI crd=ra,imm``
    CI = OpcodeInfo("CI", UnitType.FXU, is_compare=True)

    # ------------------------------------------------------------------ #
    # Floating point.                                                    #
    # ------------------------------------------------------------------ #
    FL = OpcodeInfo("FL", UnitType.FPU, is_load=True)
    FST = OpcodeInfo("FST", UnitType.FPU, is_store=True, can_speculate=False)
    FMR = OpcodeInfo("FMR", UnitType.FPU)
    FA = OpcodeInfo("FA", UnitType.FPU)
    FS = OpcodeInfo("FS", UnitType.FPU)
    FM = OpcodeInfo("FM", UnitType.FPU)
    FD = OpcodeInfo("FD", UnitType.FPU, cycles=17)
    #: floating point compare (5-cycle delay to its branch)
    FC = OpcodeInfo("FC", UnitType.FPU, is_compare=True)

    # ------------------------------------------------------------------ #
    # Counter register support (footnote 3).                             #
    # ------------------------------------------------------------------ #
    MTCTR = OpcodeInfo("MTCTR", UnitType.FXU)  # move GPR to CTR
    #: decrement CTR, branch if CTR != 0 -- the "single instruction" loop
    #: close of footnote 3; disabled for the paper's running example.
    BDNZ = OpcodeInfo(
        "BDNZ",
        UnitType.BRU,
        is_branch=True,
        is_conditional=True,
        can_move_globally=False,
        can_speculate=False,
    )

    # ------------------------------------------------------------------ #
    # Branches.  Branches are never moved: the global scheduler preserves #
    # the original order of branches (Section 5.1).                       #
    # ------------------------------------------------------------------ #
    B = OpcodeInfo(
        "B", UnitType.BRU, is_branch=True,
        can_move_globally=False, can_speculate=False,
    )
    BT = OpcodeInfo(
        "BT", UnitType.BRU, is_branch=True, is_conditional=True,
        can_move_globally=False, can_speculate=False,
    )
    BF = OpcodeInfo(
        "BF", UnitType.BRU, is_branch=True, is_conditional=True,
        can_move_globally=False, can_speculate=False,
    )
    #: call: barrier -- "there are instructions that are never moved beyond
    #: basic block boundaries, like calls to subroutines" (Section 5.1).
    CALL = OpcodeInfo(
        "CALL", UnitType.BRU, is_branch=False, is_call=True,
        can_move_globally=False, can_speculate=False,
    )
    RET = OpcodeInfo(
        "RET", UnitType.BRU, is_branch=True,
        can_move_globally=False, can_speculate=False,
    )
    NOP = OpcodeInfo("NOP", UnitType.FXU)

    # Convenience accessors are plain per-member attributes, filled in
    # right after the class body (below).  They used to be @property
    # wrappers over ``self.value``, but every access then paid two
    # descriptor calls, and flags like ``is_branch``/``touches_memory``
    # are read millions of times per compile -- the properties were one
    # of the hottest rows in pipeline profiles.  The attributes are
    # declared here so type checkers and readers see the surface:
    info: OpcodeInfo
    #: position in the table, for dispatch through a tuple indexed by it
    index: int
    mnemonic: str
    unit: UnitType
    is_load: bool
    is_store: bool
    is_branch: bool
    is_conditional: bool
    is_call: bool
    is_compare: bool
    #: loads, stores and calls participate in memory disambiguation
    touches_memory: bool
    can_move_globally: bool
    can_speculate: bool
    #: must the instruction end its basic block?
    is_terminator: bool


for _index, _op in enumerate(Opcode):
    _info = _op.value
    _op.info = _info
    _op.index = _index
    _op.mnemonic = _info.mnemonic
    _op.unit = _info.unit
    _op.is_load = _info.is_load
    _op.is_store = _info.is_store
    _op.is_branch = _info.is_branch
    _op.is_conditional = _info.is_conditional
    _op.is_call = _info.is_call
    _op.is_compare = _info.is_compare
    _op.touches_memory = _info.is_load or _info.is_store or _info.is_call
    _op.can_move_globally = _info.can_move_globally
    _op.can_speculate = _info.can_speculate
    _op.is_terminator = _info.is_branch
del _index, _op, _info


#: mnemonic -> Opcode lookup used by the assembly parser.
MNEMONIC_TO_OPCODE: dict[str, Opcode] = {op.mnemonic: op for op in Opcode}
