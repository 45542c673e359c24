"""Per-instruction register use/def sets, shared by liveness analysis and
the symbolic evaluator.

The ABI facts encoded here mirror the synthetic toolchain's convention:
arguments in R1..R3, result in R0, locals callee-saved, R14/R15 and CTR
caller-clobbered, LR written by calls on the fixed-length architectures.
"""

from repro.isa.insn import (
    LOAD_MNEMONICS,
    PCREL_LOAD_MNEMONICS,
    STORE_MNEMONICS,
)
from repro.isa.registers import CTR, LR, R0, SP, TOC

ARG_REGS = frozenset({1, 2, 3})
#: Registers a call may clobber (beyond what the callee saves).
CALL_CLOBBERS = frozenset({R0, 1, 2, 3, 14, 15, CTR, LR})
#: Registers conventionally live at any function exit.
EXIT_LIVE = frozenset({R0, SP, TOC})

_ARITH3 = frozenset({"add", "sub", "mul", "and", "or", "xor", "shl", "shr"})


def uses_defs(insn, call_pushes_ra=True):
    """Returns (uses, defs) register sets for one instruction."""
    m = insn.mnemonic
    ops = insn.operands

    if m == "mov":
        return {ops[1]}, {ops[0]}
    if m in ("movi", "lis", "adrp", "leapc") or m in PCREL_LOAD_MNEMONICS:
        return set(), {ops[0]}
    if m in ("addis", "addi", "shli", "shri"):
        return {ops[1]}, {ops[0]}
    if m in _ARITH3:
        return {ops[1], ops[2]}, {ops[0]}
    if m == "inc":
        return {ops[0]}, {ops[0]}
    if m in LOAD_MNEMONICS:
        return {ops[1].base}, {ops[0]}
    if m in STORE_MNEMONICS:
        return {ops[0], ops[1].base}, set()
    if m == "push":
        return {ops[0], SP}, {SP}
    if m == "pop":
        return {SP}, {ops[0], SP}
    if m in ("jmp", "jmp.s"):
        return set(), set()
    if m in ("beq", "bne", "blt", "bge", "bgt", "ble"):
        return {ops[0], ops[1]}, set()
    if m == "jmpr":
        return {ops[0]}, set()
    if m == "call":
        uses = set(ARG_REGS) | {SP, TOC}
        defs = set(CALL_CLOBBERS)
        if call_pushes_ra:
            defs.discard(LR)
        return uses, defs
    if m == "callr":
        uses = set(ARG_REGS) | {SP, TOC, ops[0]}
        defs = set(CALL_CLOBBERS)
        if call_pushes_ra:
            defs.discard(LR)
        return uses, defs
    if m == "ret":
        uses = {R0, SP}
        if not call_pushes_ra:
            uses.add(LR)
        return uses, set()
    if m == "syscall":
        return {R0}, {R0}
    if m in ("trap", "nop"):
        return set(), set()
    raise KeyError(f"no use/def model for mnemonic {m!r}")
