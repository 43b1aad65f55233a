"""Operands of the RS/6K-flavoured intermediate representation.

The paper (Section 2) assumes a RISC machine whose only memory-referencing
instructions are loads and stores, with all computation done in registers,
and an *unbounded* supply of symbolic registers (register allocation happens
after scheduling and is out of scope).  We therefore model registers as
immutable (class, index) pairs drawn from an unbounded index space.

Register classes follow the RS/6000:

* ``GPR`` -- fixed-point general purpose registers (``r0``, ``r1``, ...),
* ``FPR`` -- floating point registers (``f0``, ...),
* ``CR``  -- condition registers (``cr0``...); compares define them and
  conditional branches test one of their bits,
* ``CTR`` -- the special counter register of footnote 3 of the paper.

Condition-register values are bit masks.  The paper's branch syntax
``BF CL.4,cr7,0x2/gt`` tests bit ``0x2`` (the *greater-than* bit) of ``cr7``;
we use the same encoding (``LT = 0x1``, ``GT = 0x2``, ``EQ = 0x4``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class RegClass(Enum):
    """Architectural register classes."""

    GPR = "r"
    FPR = "f"
    CR = "cr"
    CTR = "ctr"

    #: position in declaration order: a list index, so per-class counters
    #: never hash the member (``Enum.__hash__`` is Python code)
    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


for _index, _rclass in enumerate(RegClass):
    _rclass.index = _index
del _index, _rclass


#: Condition-register bit masks, matching the paper's ``0x1/lt`` notation.
CR_LT = 0x1
CR_GT = 0x2
CR_EQ = 0x4

#: Human-readable names for condition bits, used by the printer/parser.
CR_BIT_NAMES = {CR_LT: "lt", CR_GT: "gt", CR_EQ: "eq"}
CR_NAME_BITS = {name: bit for bit, name in CR_BIT_NAMES.items()}


@dataclass(frozen=True, slots=True)
class Reg:
    """An immutable register operand.

    Registers compare and hash by (class, index), so they can be used freely
    as dictionary keys in dependence and liveness sets.  Indices are
    unbounded: the front end hands out *symbolic* registers from a counter,
    and nothing in the scheduler distinguishes them from "real" ones.
    """

    rclass: RegClass
    index: int
    #: cached ``hash((rclass, index))`` -- registers are the dominant dict
    #: key of the dependence and liveness layers, and hashing the enum
    #: member on every lookup showed up at the top of pipeline profiles
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"register index must be >= 0, got {self.index}")
        object.__setattr__(self, "_hash", hash((self.rclass, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        """Assembly name, e.g. ``r31``, ``f2``, ``cr7``, ``ctr``."""
        if self.rclass is RegClass.CTR:
            return "ctr"
        return f"{self.rclass.value}{self.index}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Reg({self.name})"


def gpr(index: int) -> Reg:
    """Shorthand for a general-purpose (fixed point) register."""
    return Reg(RegClass.GPR, index)


def fpr(index: int) -> Reg:
    """Shorthand for a floating point register."""
    return Reg(RegClass.FPR, index)


def cr(index: int) -> Reg:
    """Shorthand for a condition register."""
    return Reg(RegClass.CR, index)


#: The (single) counter register.
CTR = Reg(RegClass.CTR, 0)


@dataclass(frozen=True, slots=True)
class MemRef:
    """A base+displacement memory reference, ``sym(base,disp)`` in Figure 2.

    ``width`` is the access width in bytes; it participates in memory
    disambiguation (two references with the same symbolic base value whose
    ``[disp, disp+width)`` byte ranges do not overlap are independent).
    ``symbol`` is a purely cosmetic annotation (the array name in Figure 2).
    """

    base: Reg
    disp: int
    width: int = 4
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.base.rclass is not RegClass.GPR:
            raise ValueError(f"memory base must be a GPR, got {self.base}")
        if self.width <= 0:
            raise ValueError(f"access width must be positive, got {self.width}")

    def byte_range(self) -> tuple[int, int]:
        """Half-open byte interval touched relative to the base register."""
        return (self.disp, self.disp + self.width)

    def __str__(self) -> str:
        sym = self.symbol or ""
        return f"{sym}({self.base},{self.disp})"


def parse_reg(text: str) -> Reg:
    """Parse a register name such as ``r31``, ``f0``, ``cr7`` or ``ctr``.

    Raises ``ValueError`` for anything else.
    """
    text = text.strip()
    if text == "ctr":
        return CTR
    for rclass in (RegClass.CR, RegClass.FPR, RegClass.GPR):
        prefix = rclass.value
        if text.startswith(prefix) and text[len(prefix) :].isdigit():
            return Reg(rclass, int(text[len(prefix) :]))
    raise ValueError(f"not a register name: {text!r}")
