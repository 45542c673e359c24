"""Register file shared by all synthetic architectures.

All three architectures use the same register indices so that the CPU
interpreter, liveness analysis and slicing code are architecture-neutral.
Which registers an architecture actually *uses* (and with what role) is a
property of its :class:`~repro.isa.archspec.ArchSpec` and of the code
generator:

* ``R0``–``R15`` — general purpose registers.
* ``SP`` — stack pointer.
* ``LR`` — link register (ppc64/aarch64 call return address; unused as a
  link register on x86, where ``call`` pushes the return address).
* ``TOC`` — table-of-contents register (ppc64 ``r2``); position-independent
  ppc64 code addresses data and long-trampoline targets relative to it.
* ``CTR`` — count/target register (ppc64 ``ctr``/``tar``); indirect branches
  on ppc64 move the target here first (``mtspr``/``bctr`` in the paper's
  Table 2 trampoline).
"""

R0, R1, R2, R3, R4, R5, R6, R7 = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)
SP = 16
LR = 17
TOC = 18
CTR = 19

NUM_REGS = 20

GPRS = tuple(range(16))

_NAMES = {
    **{i: f"r{i}" for i in range(16)},
    SP: "sp",
    LR: "lr",
    TOC: "toc",
    CTR: "ctr",
}

_BY_NAME = {name: idx for idx, name in _NAMES.items()}


def reg_name(index):
    """Human-readable name for a register index."""
    return _NAMES.get(index, f"?{index}")


def reg_index(name):
    """Register index for a name such as ``"r3"`` or ``"sp"``."""
    return _BY_NAME[name]
