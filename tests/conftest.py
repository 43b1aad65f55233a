"""Shared fixtures: the paper's Figure 2 program, golden files, helpers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ir import Function, parse_function

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/golden/* from the current compiler output "
             "instead of comparing against it")


@pytest.fixture
def golden(request):
    """Compare ``text`` against ``tests/golden/<name>`` (or rewrite it
    under ``--update-goldens``)."""
    update = request.config.getoption("--update-goldens")

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        if update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"golden file {path} missing; run pytest --update-goldens")
        expected = path.read_text()
        assert text == expected, (
            f"output differs from golden {name}; if the change is "
            f"intended, rerun with --update-goldens")

    return check

#: The RS/6K pseudo-code of the paper's Figure 2 (the minmax loop), with
#: the paper's instruction numbers I1-I20 and basic blocks BL1-BL10.
FIGURE2 = """
function minmax_loop
CL.0:
    (I1)  L     r12=a(r31,4)       ; load u
    (I2)  LU    r0,r31=a(r31,8)    ; load v and increment index
    (I3)  C     cr7=r12,r0         ; u > v
    (I4)  BF    CL.4,cr7,0x2/gt
BL2:
    (I5)  C     cr6=r12,r30        ; u > max
    (I6)  BF    CL.6,cr6,0x2/gt
BL3:
    (I7)  LR    r30=r12            ; max = u
CL.6:
    (I8)  C     cr7=r0,r28         ; v < min
    (I9)  BF    CL.9,cr7,0x1/lt
BL5:
    (I10) LR    r28=r0             ; min = v
    (I11) B     CL.9
CL.4:
    (I12) C     cr6=r0,r30         ; v > max
    (I13) BF    CL.11,cr6,0x2/gt
BL7:
    (I14) LR    r30=r0             ; max = v
CL.11:
    (I15) C     cr7=r12,r28        ; u < min
    (I16) BF    CL.9,cr7,0x1/lt
BL9:
    (I17) LR    r28=r12            ; min = u
CL.9:
    (I18) AI    r29=r29,2          ; i = i+2
    (I19) C     cr4=r29,r27        ; i < n
    (I20) BT    CL.0,cr4,0x1/lt
"""

#: paper block name (Figure 3/4) -> label in FIGURE2
PAPER_BLOCKS = {
    "BL1": "CL.0", "BL2": "BL2", "BL3": "BL3", "BL4": "CL.6",
    "BL5": "BL5", "BL6": "CL.4", "BL7": "BL7", "BL8": "CL.11",
    "BL9": "BL9", "BL10": "CL.9",
}


@pytest.fixture
def figure2() -> Function:
    """A fresh parse of the Figure 2 loop."""
    return parse_function(FIGURE2)


def block_uids(func: Function) -> dict[str, list[int]]:
    """Map block label -> instruction uids in order (schedule shape)."""
    return {b.label: [ins.uid for ins in b.instrs] for b in func.blocks}


def dag_function(rng, n_blocks: int) -> Function:
    """A loop-free function over blocks ``B0``..``B{n-1}`` whose forward
    CFG is random: each block but the last falls through, jumps or
    branches to a later block, every block keeps a predecessor, and the
    last returns.  Block ``Bi`` defines ``r{i+1}``."""
    lines = ["function dag"]
    entered = {0}
    for i in range(n_blocks):
        lines += [f"B{i}:", f"    LI r{i + 1}={i}"]
        if i == n_blocks - 1:
            lines.append("    RET")
            break
        kind = rng.choice(("fall", "jump", "branch") if i + 1 in entered
                          else ("fall", "branch"))
        if kind != "fall":
            target = rng.randrange(i + 1, n_blocks)
            entered.add(target)
            lines.append(f"    B B{target}" if kind == "jump"
                         else f"    BF B{target},cr0,0x1/lt")
        if kind != "jump":
            entered.add(i + 1)
    return parse_function("\n".join(lines))
