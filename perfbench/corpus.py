"""Seeded program corpora and the check that scheduling kept semantics.

A corpus is drawn from the program's own generator
(``verify.generator.generate_program``).  Generated sizes spread from
about 100 to 7,000 source characters with a long tail, so a plain
random draw of a few hundred programs moves the corpus's total compile
work by several percent from seed to seed.  Programs are therefore
drawn into fixed strata of source length, the same number per stratum
for every seed; the seed decides which programs fill them.
"""

from __future__ import annotations

import bisect
import random

from repro.compiler import CompileResult, CompiledUnit
from repro.lang.lower import lower_program
from repro.lang.parser import parse_c
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program

#: upper edges of the source-length strata (characters); programs
#: longer than the last edge (about the 99th percentile) are not drawn
STRATA = (357, 539, 725, 919, 1136, 1465, 2125, 3000, 4200)


def stratified(seed: int, per_stratum: int, strata=STRATA) -> list:
    """``per_stratum`` generated programs in every stratum, in a seeded
    random order (so any prefix of the corpus mixes all sizes)."""
    need = [per_stratum] * len(strata)
    chosen = []
    index = 0
    while any(need):
        program = generate_program(derive_seed(seed, index))
        index += 1
        slot = bisect.bisect_left(strata, len(program.source))
        if slot < len(strata) and need[slot]:
            need[slot] -= 1
            chosen.append(program)
    random.Random(seed).shuffle(chosen)
    return chosen


#: upper edges of five source-length strata, about equally likely among
#: programs of at most 1,300 characters (69% of them): short programs
#: for the fuzz campaigns, so that a run holds about a hundred of them,
#: and for the serve daemon's cold compiles, where one long program
#: holds up the requests queued behind it
SHORT_STRATA = (375, 578, 785, 1010, 1300)


def balanced_campaigns(seed: int):
    """Yield fuzz-campaign master seeds, drawn in order from ``seed``,
    whose programs ``derive_seed(master, i)`` fall one in each stratum
    of :data:`SHORT_STRATA` -- so every campaign carries the same
    spread of program sizes."""
    size = len(SHORT_STRATA)
    candidate = 0
    while True:
        master = derive_seed(seed, candidate)
        candidate += 1
        slots: set[int] = set()
        for i in range(size):
            slot = bisect.bisect_left(SHORT_STRATA, len(generate_program(
                derive_seed(master, i)).source))
            if slot == size or slot in slots:
                break
            slots.add(slot)
        else:
            yield master


def unscheduled(source: str, machine) -> CompileResult:
    """The program lowered but neither transformed nor scheduled."""
    units = {name: CompiledUnit(compiled=compiled, machine=machine,
                                report=None)
             for name, compiled in lower_program(parse_c(source)).items()}
    return CompileResult(units=units, level=None, machine=machine)


def observe(run) -> tuple:
    """What a caller can observe of one run: the return value, the final
    arrays and the helper-call sequence."""
    return (run.return_value, run.arrays, list(run.execution.calls))


def check_semantics(result, program, compiled: CompileResult, label: str):
    """Run the scheduled unit and its unscheduled lowering on the
    program's arguments on the same executor; returns the scheduled run.
    Differences are reported through ``result.check``."""
    run = compiled.run(program.entry, *copy_args(program.entry_args))
    base = unscheduled(program.source, compiled.machine).run(
        program.entry, *copy_args(program.entry_args))
    result.check(observe(run) == observe(base),
                 f"{label}: scheduled run {observe(run)[0]} differs from "
                 f"the unscheduled lowering {observe(base)[0]}")
    return run


def copy_args(args) -> list:
    """Fresh copies of the array arguments: a run writes into them."""
    return [list(a) if isinstance(a, list) else a for a in args]
