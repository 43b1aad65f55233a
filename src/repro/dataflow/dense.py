"""Function-wide register interning: ``Reg`` -> dense bit position.

The dense liveness solve and the scheduler's live-on-exit tracker speak
the same bitmask dialect: a register is a bit position, a register set is
an int.  :class:`RegTable` owns the ``Reg -> bit`` dict for one function so
the interning pass happens once and every downstream mask is directly
comparable.

The dict uses the exact convention of the PR-5 tracker
(:class:`repro.sched.speculation.LiveOnExitTracker`): the next bit is
``len(dict)``.  That makes the table's dict directly shareable as the
``regbit`` half of the driver's ``intern_cache`` -- trackers may intern
*new* registers behind the table's back, so the reverse row is re-synced
lazily from the dict (insertion order == bit order) before materializing.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.operand import Reg

#: byte value -> tuple of set bit offsets; masks materialize byte-at-a-time
#: through this table instead of a quadratic lowest-bit-clear loop (every
#: ``mask ^= mask & -mask`` step reallocates the whole big int)
BYTE_BITS = [tuple(b for b in range(8) if (v >> b) & 1) for v in range(256)]


class RegTable:
    """Append-only ``Reg`` <-> dense bit interning for one function."""

    __slots__ = ("bit", "mask", "_regs")

    def __init__(self, bit: dict[Reg, int] | None = None):
        #: Reg -> bit position; shareable with the scheduler's intern cache
        self.bit: dict[Reg, int] = {} if bit is None else bit
        #: Reg -> ``1 << bit`` single-bit mask.  A lazily-filled cache for
        #: the interning hot loops: one dict hit replaces a lookup plus a
        #: fresh big-int shift.  May trail ``bit`` (trackers intern behind
        #: the table's back), so readers fall back to ``bit`` on a miss.
        self.mask: dict[Reg, int] = {}
        self._regs: list[Reg] = []

    def __len__(self) -> int:
        return len(self.bit)

    def mask_of(self, regs: Iterable[Reg]) -> int:
        """The int bitmask of a register set (interning new registers)."""
        bit = self.bit
        masks = self.mask
        mask = 0
        for reg in regs:
            m = masks.get(reg)
            if m is None:
                b = bit.get(reg)
                if b is None:
                    b = bit[reg] = len(bit)
                m = masks[reg] = 1 << b
            mask |= m
        return mask

    def _row(self) -> list[Reg]:
        """bit position -> Reg, re-synced if the shared dict grew."""
        regs = self._regs
        if len(regs) != len(self.bit):
            # bits are assigned as len(dict), so insertion order IS bit order
            regs[:] = self.bit
        return regs

    def regs_of(self, mask: int) -> set[Reg]:
        """Materialize a bitmask back into a set of registers."""
        out: set[Reg] = set()
        if not mask:
            return out
        regs = self._row()
        add = out.add
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        for base, byte in enumerate(data):
            if byte:
                base8 = base << 3
                for b in BYTE_BITS[byte]:
                    add(regs[base8 + b])
        return out
