"""The CPU interpreter.

Executes binary code directly from emulated memory bytes.  This is what
makes the strong rewrite test (Section 8) meaningful: after rewriting, the
original ``.text`` is filled with illegal bytes, so any control flow that
the rewriter failed to intercept faults immediately instead of silently
executing stale code.

Execution is tiered:

* **per-step tier** — each decoded instruction is compiled once into a
  Python closure keyed by address; repeated execution (loops) runs the
  closure without re-decoding.  :meth:`CPU.step` (lockstep/differential
  use) always runs here, and :meth:`CPU.run` falls back to it when
  ``engine="step"`` is selected or a *step-granularity*
  :class:`~repro.obs.flight.FlightRecorder` is attached (per-transfer
  block events demand per-step execution).
* **superblock tier** — the default for :meth:`CPU.run`.  At first
  execution of an address, the run of instructions from that address up
  to the next indirect or kernel transfer (or watch-region boundary, or
  :data:`SUPERBLOCK_CAP`) is fused into one generated block function:
  straight-line register/memory operations are inlined as Python source
  and everything else calls its per-step closure.  Direct branches and
  calls are followed; ``callr``/``jmpr``/``ret`` end the trace through
  their per-step closures, so generated code never speculates on a
  register-held target.  A block is dispatched once per entry with
  pre-computed instruction/cycle deltas, so straight-line runs skip
  per-step bookkeeping entirely.

Demotions away from the fused tier are never silent: a manual
:meth:`CPU.step` on a superblock CPU and a step-granularity recorder
attach each count a cause in :attr:`CPU.demotions` (mirrored to the
machine's metrics as ``engine.demoted`` and traced as an
``engine-demoted`` event).  The default block-granularity
:class:`~repro.obs.flight.FlightRecorder` *rides* the fused tier — one
ring entry per block dispatch with exact trampoline-hit recovery — and
an attached :class:`~repro.obs.engine.EngineTelemetry` observes
fuse/compile/dispatch activity without demoting.  Generated code does
not depend on any observer, so attaching or detaching telemetry keeps
the block cache.  Block-cache invalidations are counted by cause in
:attr:`CPU.invalidations` (``invalidate_code``, ``watch-region``,
``recorder-attach``).  The ``is None`` discipline keeps the detached
observer tax to two boolean tests per block dispatch (budgeted under 2%
by the throughput bench).

Accounting stays *exact* across tiers (and with observers attached): cycle costs follow
:class:`repro.machine.costs.CostModel` (including :attr:`CostModel.insn`
per executed instruction), i-cache misses are modeled per line actually
crossed inside a block, watch-region transitions are counted once per
(region-homogeneous) block, and faults — step limit, unmapped access,
illegal instruction, kernel errors — leave the same ``icount``,
``cycles`` and ``pc`` as per-step execution, down to the instruction.
"""

import itertools
import re
import struct
from time import perf_counter

from repro.isa.insn import LOAD_SIZES, SIGNED_LOADS, STORE_SIZES
from repro.isa.registers import LR, NUM_REGS, SP
from repro.machine.costs import CostModel
from repro.util.errors import (
    DecodingError,
    IllegalInstructionFault,
    MachineFault,
    UnmappedMemoryFault,
)

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
#: The 64-bit mask as it appears in generated superblock source.
_MASK_SRC = "0xffffffffffffffff"

#: Default dynamic-instruction budget per run.
DEFAULT_STEP_LIMIT = 80_000_000

#: Known execution-engine tiers, in preference order.
ENGINES = ("superblock", "step")

#: Upper bound on instructions fused into one superblock.  A straight
#: line longer than this is split; exactness is unaffected, because the
#: follow-on block resumes accounting at the split point.
SUPERBLOCK_CAP = 128

#: Mnemonics that end a superblock: anything whose closure can move the
#: pc non-sequentially or enter the kernel (which may redirect the pc,
#: stop the machine, or raise).
_TRANSFERS = frozenset({
    "jmp", "jmp.s", "beq", "bne", "blt", "bge", "bgt", "ble",
    "jmpr", "call", "callr", "ret", "trap", "syscall",
})

#: Indirect transfers: each ends its trace and returns to dispatch.
_INDIRECT = frozenset({"jmpr", "callr", "ret"})

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
}

#: Straight-line arithmetic fused as infix source inside superblocks.
_ARITH_SRC = {"add": "+", "sub": "-", "mul": "*", "and": "&",
              "or": "|", "xor": "^"}

_COND = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bgt": lambda a, b: a > b,
    "ble": lambda a, b: a <= b,
}

#: Comparison operators as they appear in generated loop-block source.
_COND_SRC = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">=",
             "bgt": ">", "ble": "<="}

#: Unique filename suffix per generated superblock (fault forensics
#: match tracebacks against the block's filename).
_block_ids = itertools.count()

#: Guest-register references in generated superblock source, promoted
#: to frame locals (``r[3]`` -> ``v3``) by the allocation pass.
_REG_REF = re.compile(r"\br\[(\d+)\]")
#: A per-step-closure call statement in generated source (these lines
#: operate on the shared register list, not the frame locals).
_CLOSURE_CALL = re.compile(r"^c\d+\(\)$")

#: Pre-compiled memory accessors bound into generated superblocks:
#: ``u{size}``/``g{size}`` unpack unsigned/signed little-endian
#: integers, ``p{size}`` packs them — measurably faster than slicing
#: plus ``int.from_bytes``/``to_bytes`` on the hot path.
_MEM_OPS = {}
for _size, _u, _g in ((1, "B", "b"), (2, "H", "h"),
                      (4, "I", "i"), (8, "Q", "q")):
    _MEM_OPS[f"u{_size}"] = struct.Struct("<" + _u).unpack_from
    _MEM_OPS[f"g{_size}"] = struct.Struct("<" + _g).unpack_from
    _MEM_OPS[f"p{_size}"] = struct.Struct("<" + _u).pack_into
del _size, _u, _g


def _inline_src(insn, msize):
    """Python source lines for one straight-line instruction inside a
    superblock, or ``None`` when it must run via its per-step closure.

    The emitted source mirrors the per-step closures statement for
    statement — including fault messages — so the two tiers are
    byte-identical in outputs and in every counter.  Names bound in the
    generated scope: ``s`` (the CPU), ``r`` (the register file), ``d``
    (memory bytes), ``UF`` (:class:`UnmappedMemoryFault`), and the
    :data:`_MEM_OPS` accessors (``u8``/``g4``/``p2``...).  Inlined operations deliberately do
    *not* update ``s.pc``; the block seals the pc once at its end, and
    fault recovery (:meth:`CPU._fault_index`) restores the exact pc of
    a faulting instruction from the block's line map.
    """
    m = insn.mnemonic
    ops = insn.operands
    addr = insn.addr
    M = _MASK_SRC

    if m == "nop":
        return []
    if m == "mov":
        rd, ra = ops
        return [f"r[{rd}] = r[{ra}]"]
    if m == "movi":
        rd, imm = ops
        return [f"r[{rd}] = {imm & _MASK}"]
    if m == "lis":
        rd, imm = ops
        return [f"r[{rd}] = {(imm << 16) & _MASK}"]
    if m == "addis":
        rd, ra, imm = ops
        return [f"r[{rd}] = (r[{ra}] + ({imm << 16})) & {M}"]
    if m == "adrp":
        rd, imm = ops
        return [f"r[{rd}] = {((addr & ~0xFFF) + (imm << 12)) & _MASK}"]
    if m == "addi":
        rd, ra, imm = ops
        return [f"r[{rd}] = (r[{ra}] + ({imm})) & {M}"]
    if m in _ARITH_SRC:
        rd, ra, rb = ops
        return [f"r[{rd}] = (r[{ra}] {_ARITH_SRC[m]} r[{rb}]) & {M}"]
    if m == "shl":
        rd, ra, rb = ops
        return [f"r[{rd}] = (r[{ra}] << (r[{rb}] & 63)) & {M}"]
    if m == "shr":
        rd, ra, rb = ops
        return [f"r[{rd}] = (r[{ra}] >> (r[{rb}] & 63)) & {M}"]
    if m == "shli":
        rd, ra, imm = ops
        return [f"r[{rd}] = (r[{ra}] << {imm & 63}) & {M}"]
    if m == "shri":
        rd, ra, imm = ops
        return [f"r[{rd}] = r[{ra}] >> {imm & 63}"]
    if m == "inc":
        (rd,) = ops
        return [f"r[{rd}] = (r[{rd}] + 1) & {M}"]
    if m in LOAD_SIZES and not m.startswith("ldpc"):
        rd, mem_op = ops
        size = LOAD_SIZES[m]
        lines = [
            f"a = (r[{mem_op.base}] + ({mem_op.disp})) & {M}",
            f'if a + {size} > {msize}: raise UF(f"load at {{a:#x}} '
            f'(pc={addr:#x})", pc={addr})',
        ]
        if m in SIGNED_LOADS:
            # A signed unpack plus the 64-bit mask is the same value
            # the per-step closure's manual sign extension produces.
            lines.append(f"r[{rd}] = g{size}(d, a)[0] & {M}")
        else:
            lines.append(f"r[{rd}] = u{size}(d, a)[0]")
        return lines
    if m in STORE_SIZES:
        rs, mem_op = ops
        size = STORE_SIZES[m]
        vmask = (1 << (size * 8)) - 1
        value = f"r[{rs}]" if size == 8 else f"r[{rs}] & {vmask}"
        return [
            f"a = (r[{mem_op.base}] + ({mem_op.disp})) & {M}",
            f'if a + {size} > {msize}: raise UF(f"store at {{a:#x}} '
            f'(pc={addr:#x})", pc={addr})',
            f"p{size}(d, a, {value})",
        ]
    if m.startswith("ldpc"):
        rd, disp = ops
        size = LOAD_SIZES[m]
        a = addr + disp
        if a < 0 or a + size > msize:
            return None   # always-faulting: keep the closure's raise
        return [f"r[{rd}] = u{size}(d, {a})[0]"]
    if m == "leapc":
        rd, disp = ops
        return [f"r[{rd}] = {(addr + disp) & _MASK}"]
    if m == "push":
        (rs,) = ops
        return [
            f"a = (r[{SP}] - 8) & {M}",
            f'if a + 8 > {msize}: '
            f'raise UF(f"push at {{a:#x}}", pc={addr})',
            f"p8(d, a, r[{rs}])",
            f"r[{SP}] = a",
        ]
    if m == "pop":
        (rd,) = ops
        return [
            f"a = r[{SP}]",
            f'if a + 8 > {msize}: '
            f'raise UF(f"pop at {{a:#x}}", pc={addr})',
            f"r[{rd}] = u8(d, a)[0]",
            f"r[{SP}] = (a + 8) & {M}",
        ]
    return None


class CPU:
    """One hardware thread executing from a :class:`Memory`."""

    def __init__(self, memory, spec, kernel, costs=None,
                 step_limit=DEFAULT_STEP_LIMIT, engine="superblock"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known tiers: "
                + ", ".join(ENGINES))
        self.memory = memory
        self.spec = spec
        self.kernel = kernel
        self.costs = costs or CostModel.default()
        self.step_limit = step_limit
        #: Execution engine for :meth:`run`: ``"superblock"`` (default)
        #: or ``"step"`` (always per-instruction).  A step-granularity
        #: FlightRecorder forces the per-step tier regardless of this
        #: setting — counted in :attr:`demotions`, never silent.
        self.engine = engine

        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.icount = 0
        self.running = False
        self.exit_code = None

        # Counters surfaced to the evaluation harness.
        self.taken_branches = 0
        self.icache_misses = 0
        self.transitions = 0

        #: Optional :class:`repro.obs.flight.FlightRecorder`; None keeps
        #: the hot loop at a single identity test per step.
        self.flight = None
        #: Optional :class:`repro.obs.engine.EngineTelemetry`; None
        #: keeps the dispatch loop at two boolean tests per block.
        self.telemetry = None
        #: Demotions away from the fused tier, by cause (always
        #: counted, telemetry attached or not).
        self.demotions = {}
        #: Block-cache invalidations that dropped fused blocks, by
        #: cause (always counted, telemetry attached or not).
        self.invalidations = {}
        #: Optional ``fn(cause)`` invoked on every demotion — the
        #: Machine wires this to its metrics/tracer so demotions are
        #: never silent.
        self.on_demote = None
        self._step_demoted = False

        self._compiled = {}
        self._ends = {}
        #: decoded Instruction per address (feeds the superblock fuser)
        self._insns = {}
        #: superblock start address -> block record (see _build_block)
        self._blocks = {}
        self._watch_regions = None

    # -- public API --------------------------------------------------------

    @property
    def watch_regions(self):
        """Optional pair of (lo, hi) address regions; transitions between
        them are counted (used to measure .text <-> .instr bouncing)."""
        return self._watch_regions

    @watch_regions.setter
    def watch_regions(self, regions):
        # Superblocks are fused with watch-region boundaries baked in,
        # so changing the regions invalidates every block.
        self._watch_regions = regions
        if self._blocks:
            self._invalidate_cause("watch-region")

    def invalidate_code(self):
        """Drop compiled closures and fused superblocks (call after
        writing to code memory)."""
        self._compiled.clear()
        self._ends.clear()
        self._insns.clear()
        if self._blocks:
            self._invalidate_cause("invalidate_code")

    def attach_telemetry(self, telemetry):
        """Wire an :class:`~repro.obs.engine.EngineTelemetry` in (or
        out, with ``None``).

        Fused blocks do not depend on the observer, so the block cache
        is kept.  Pre-attach demotion/invalidation tallies are folded
        into the collector so nothing is lost.
        """
        if telemetry is self.telemetry:
            return
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.engine = self.engine
            telemetry.seed(self.demotions, self.invalidations)

    def _demote(self, cause):
        """Count one demotion away from the fused tier, by cause, and
        signal it (telemetry mirror plus the machine's ``on_demote``
        metrics/event hook)."""
        self.demotions[cause] = self.demotions.get(cause, 0) + 1
        t = self.telemetry
        if t is not None:
            t.record_demotion(cause)
        cb = self.on_demote
        if cb is not None:
            cb(cause)

    def _invalidate_cause(self, cause):
        """Drop every fused block and count why."""
        self._blocks.clear()
        self.invalidations[cause] = \
            self.invalidations.get(cause, 0) + 1
        t = self.telemetry
        if t is not None:
            t.record_invalidation(cause)

    def step(self):
        """Execute exactly one instruction (lockstep/differential use).

        Always runs the per-step tier and skips the run loop's
        icache/watch/flight accounting; callers own whatever bookkeeping
        they need.  On a superblock CPU the first manual step counts a
        ``manual-step`` demotion (once per CPU), so fused-tier escapes
        are visible in the engine observatory.
        """
        if not self._step_demoted and self.engine == "superblock":
            self._step_demoted = True
            self._demote("manual-step")
        pc = self.pc
        fn = self._compiled.get(pc)
        if fn is None:
            fn = self._compile(pc)
            self._compiled[pc] = fn
        fn()
        self.icount += 1
        self.cycles += self.costs.insn

    def run(self, entry=None, step_limit=None):
        """Execute until an exit syscall; returns the exit code.

        Dispatches fused superblocks unless ``engine="step"`` was
        selected or a step-granularity flight recorder is attached
        (block-granularity recorders and engine telemetry ride the
        fused tier); the last strides of a run approaching its step
        limit always finish per-step, so the limit fault lands on the
        exact instruction.  ``icount`` is committed in a ``finally`` so
        faulting runs report exactly the instructions that completed.
        """
        if entry is not None:
            self.pc = entry
        limit = step_limit if step_limit is not None else self.step_limit
        compiled = self._compiled
        compile_one = self._compile
        costs = self.costs
        insn_cost = costs.insn
        icache_on = costs.icache_enabled
        if icache_on:
            line_bits = costs.icache_line_bits
            nlines = costs.icache_lines
            miss_cost = costs.icache_miss
            tags = [-1] * nlines
            mask = nlines - 1
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
            prev_region = -1
        flight = self.flight
        if flight is not None:
            ends = self._ends
            fsites = flight.tramp_sites
            flight.record_block(self.pc, self.cycles)
        self.running = True
        steps = 0
        try:
            if self.engine == "superblock" and (
                    flight is None or flight.granularity == "block"):
                blocks = self._blocks
                build = self._build_block
                telem = self.telemetry
                observe = telem is not None or flight is not None
                tstats = telem.block_stats if telem is not None else None
                decoded = self._insns
                if icache_on:
                    # Segmented dispatch: one tag check per i-cache
                    # line actually crossed inside the block, charged
                    # before its instructions run — exactly the
                    # per-step order.
                    while self.running:
                        b = blocks.get(self.pc)
                        if b is None:
                            b = build(self.pc)
                        n = b[1]
                        if steps + n >= limit:
                            break
                        if watch:
                            region = b[2]
                            if region is not None \
                                    and region != prev_region:
                                if prev_region != -1:
                                    self.transitions += 1
                                prev_region = region
                        if observe:
                            pc0 = self.pc
                            c0 = self.cycles
                            steps0 = steps
                        for line, idx, seg_fns, seg_n, seg_cyc in b[3]:
                            if tags[idx] != line:
                                tags[idx] = line
                                self.cycles += miss_cost
                                self.icache_misses += 1
                            k = 0
                            try:
                                for fn in seg_fns:
                                    fn()
                                    k += 1
                            except BaseException:
                                steps += k
                                self.cycles += k * insn_cost
                                raise
                            steps += seg_n
                            self.cycles += seg_cyc
                        if observe:
                            done = steps - steps0
                            if tstats is not None:
                                st = tstats.get(pc0)
                                if st is None:
                                    tstats[pc0] = \
                                        [1, done, self.cycles - c0]
                                else:
                                    st[0] += 1
                                    st[1] += done
                                    st[2] += self.cycles - c0
                                if done == n and decoded[
                                        b[4][-1]].mnemonic in _INDIRECT:
                                    telem.indirect_exits += 1
                            if flight is not None:
                                flight.record_superblock(
                                    b, self.pc, done, self.cycles)
                else:
                    while self.running:
                        b = blocks.get(self.pc)
                        if b is None:
                            b = build(self.pc)
                        n = b[1]
                        if steps + n >= limit:
                            break
                        if watch:
                            region = b[2]
                            if region is not None \
                                    and region != prev_region:
                                if prev_region != -1:
                                    self.transitions += 1
                                prev_region = region
                        if observe:
                            pc0 = self.pc
                            c0 = self.cycles
                        try:
                            # Fused blocks take the remaining step
                            # budget (loop blocks iterate internally
                            # until it nears exhaustion) and return
                            # the number of instructions executed.
                            done = b[0](limit - steps)
                        except BaseException as exc:
                            done = self._fault_index(b, exc)
                            steps += done
                            self.cycles += done * insn_cost
                            raise
                        steps += done
                        self.cycles += done * insn_cost
                        if observe:
                            if tstats is not None:
                                st = tstats.get(pc0)
                                if st is None:
                                    tstats[pc0] = \
                                        [1, done, self.cycles - c0]
                                else:
                                    st[0] += 1
                                    st[1] += done
                                    st[2] += self.cycles - c0
                                if done == n and decoded[
                                        b[4][-1]].mnemonic in _INDIRECT:
                                    telem.indirect_exits += 1
                            if flight is not None:
                                flight.record_superblock(
                                    b, self.pc, done, self.cycles)
            # Per-step tier: flight recording, engine="step", and the
            # final strides of a run approaching its step limit.
            while self.running:
                pc = self.pc
                fn = compiled.get(pc)
                if fn is None:
                    fn = compile_one(pc)
                    compiled[pc] = fn
                if icache_on:
                    line = pc >> line_bits
                    idx = line & mask
                    if tags[idx] != line:
                        tags[idx] = line
                        self.cycles += miss_cost
                        self.icache_misses += 1
                if watch:
                    if a_lo <= pc < a_hi:
                        region = 0
                    elif b_lo <= pc < b_hi:
                        region = 1
                    else:
                        region = prev_region
                    if region != prev_region:
                        if prev_region != -1:
                            self.transitions += 1
                        prev_region = region
                fn()
                steps += 1
                self.cycles += insn_cost
                if flight is not None:
                    if pc in fsites:
                        flight.tramp_hit(pc)
                    npc = self.pc
                    if npc != ends[pc]:
                        flight.record_block(npc, self.cycles)
                if steps >= limit:
                    raise MachineFault(
                        f"step limit of {limit} exceeded "
                        f"at pc={self.pc:#x}",
                        pc=self.pc,
                    )
        finally:
            # Committed even when a fault propagates, so failed runs
            # report exactly the instructions that completed.
            self.icount += steps
        return self.exit_code

    # -- closure compiler --------------------------------------------------

    def _compile(self, addr):
        data = self.memory.data
        msize = self.memory.size
        if addr < 0 or addr >= msize:
            raise UnmappedMemoryFault(f"fetch at {addr:#x}", pc=addr)
        try:
            insn = self.spec.decode(data, addr, addr=addr)
        except DecodingError as exc:
            raise IllegalInstructionFault(
                f"illegal instruction at {addr:#x}: {exc}", pc=addr
            )
        self._ends[addr] = addr + insn.length
        self._insns[addr] = insn
        return self._make_closure(insn, data, msize)

    # -- superblock fuser --------------------------------------------------

    def _build_block(self, addr):
        """Fuse the execution trace starting at ``addr`` into a
        superblock.

        Trace formation (the default): decoding follows the
        *fall-through* of conditional branches (emitted as side exits)
        and follows unconditional ``jmp``s (their taken-branch cost is
        inlined), so a whole loop — head test, body, backward latch —
        fuses into one block.  A branch or jmp targeting the trace's
        own start closes it into a *loop trace* that iterates inside
        the generated function.  Direct ``call``s are followed into
        the callee (the return address is a compile-time constant).
        Traces end at indirect and kernel transfers (``jmpr``/
        ``callr``/``ret``/``trap``/``syscall``), which run their
        per-step closures as the block's last instruction, at
        :data:`SUPERBLOCK_CAP`, at watch-region boundaries, and at
        unfetchable addresses.

        Under an i-cache cost model the trace is instead cut at *any*
        control transfer, because the segmented dispatch below must
        see a strictly sequential closure list to charge misses in
        per-step order.

        The block record is a tuple ``(fn, n, region, segs, addrs,
        linemap, filename)``:

        * ``fn`` — the fused block function; called with the remaining
          step budget, returns the number of instructions executed;
        * ``n`` — instructions per full pass through the trace (early
          side exits return less; loop traces return accumulated
          totals);
        * ``region`` — the watch-region class shared by every
          instruction: traces are cut at watch-region boundaries, so a
          single entry check reproduces the per-step transition count;
        * ``segs`` — per-i-cache-line segments ``(line, set_index,
          closures, n, cycles)``, built only under an i-cache cost
          model, so misses are charged per line actually crossed;
        * ``addrs``/``linemap``/``filename`` — fault forensics: the
          instruction addresses plus the generated-source line ->
          ``(index, restore_pc)`` map that reconstructs exact partial
          accounting when a block faults mid-flight;
        * ``alloc``/``nowb`` — the guest registers promoted to frame
          locals by :meth:`_fuse` and the closure-call lines where a
          fault must not write those locals back.
        """
        telem = self.telemetry
        t0 = perf_counter() if telem is not None else 0.0
        compiled = self._compiled
        decoded = self._insns
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
        trace = not self.costs.icache_enabled
        reason = None   # why the trace ended (telemetry trace shape)
        items = []      # (kind, insn, closure)
        addrs = []
        region = None
        a = addr
        while True:
            fn = compiled.get(a)
            if fn is None:
                try:
                    fn = self._compile(a)
                except MachineFault:
                    if not items:
                        raise   # faulting first fetch: as per-step
                    reason = "unfetchable"
                    break       # seal here; the next dispatch faults
                compiled[a] = fn
            insn = decoded[a]
            if watch:
                r = (0 if a_lo <= a < a_hi
                     else 1 if b_lo <= a < b_hi else None)
                if not items:
                    region = r
                elif r != region:
                    reason = "watch-boundary"
                    break       # watch-region boundary ends the trace
            mn = insn.mnemonic
            addrs.append(a)
            if mn in _COND and trace:
                target = a + insn.operands[2]
                if target == addr:
                    items.append(("condclose", insn, None))
                    reason = "loop-cond"
                    break
                items.append(("cond", insn, None))
                a += insn.length
            elif mn in ("jmp", "jmp.s") and trace:
                target = a + insn.operands[0]
                if target == addr:
                    items.append(("jmpclose", insn, None))
                    reason = "loop-jmp"
                    break
                items.append(("jmp", insn, None))
                a = target
            elif mn == "call" and trace:
                # Direct call: the return address is a compile-time
                # constant, so the push/link inlines and the trace
                # continues into the callee.
                items.append(("call", insn, None))
                a = a + insn.operands[0]
            elif mn in _TRANSFERS:
                items.append(("end", insn, fn))
                reason = f"transfer:{mn}"
                break
            else:
                items.append(("s", insn, fn))
                a += insn.length
            if len(items) >= SUPERBLOCK_CAP:
                break
        n = len(items)
        if self.costs.icache_enabled:
            # Segment the block by i-cache line, grouping consecutive
            # runs of equal lines: the first instruction of a run can
            # miss, the rest are guaranteed hits (nothing else touches
            # the set in between), which is exactly the per-step check
            # sequence.
            insn_cost = self.costs.insn
            line_bits = self.costs.icache_line_bits
            mask = self.costs.icache_lines - 1
            groups = []
            for (_, _, fn), ia in zip(items, addrs):
                line = ia >> line_bits
                if groups and groups[-1][0] == line:
                    groups[-1][2].append(fn)
                else:
                    groups.append([line, line & mask, [fn]])
            segs = tuple(
                (line, idx, tuple(seg), len(seg), len(seg) * insn_cost)
                for line, idx, seg in groups
            )
            fused = linemap = filename = None
            alloc, nowb = (), frozenset()
            fuse_stats = (n, 0)   # every insn runs via its closure
        else:
            segs = None
            fused, linemap, filename, alloc, nowb, fuse_stats = \
                self._fuse(items, addrs)
        block = (fused, n, region, segs, tuple(addrs),
                 linemap, filename, alloc, nowb)
        self._blocks[addr] = block
        if telem is not None:
            telem.record_compile(
                addr, n,
                loop=items[-1][0] in ("condclose", "jmpclose"),
                reason=reason if reason is not None else "cap",
                seconds=perf_counter() - t0,
                closure_insns=fuse_stats[0],
                source_lines=fuse_stats[1],
                alloc_regs=len(alloc))
        return block

    def _fuse(self, items, addrs):
        """Generate the fused block function for a trace.

        Inlinable instructions become Python source; the rest call
        their per-step closures (bound as default-argument locals).
        The generated function takes the remaining step budget and
        returns the number of instructions it executed.  Two shapes:

        * a *plain trace* runs each instruction at most once.
          Conditional branches become side exits (taken path sets the
          pc, accounts the branch, and returns its instruction count);
          followed jmps and calls inline their taken-branch
          accounting; the end either calls a terminator closure or
          seals ``s.pc`` once.
        * a *loop trace* — closed by a branch or ``jmp`` back to the
          trace's own start — wraps the same body in ``while True``,
          deferring taken-branch accounting to frame-local counters
          (``done`` instructions retired in finished passes, ``t``
          taken branches, ``u`` followed calls), flushed at every
          exit.  Hot loops re-enter the generated ``while`` without
          touching the dispatch loop at all, which is where
          superblocks beat per-step execution by a wide margin.  The
          closing branch stops iterating when one more pass would
          reach the step budget.

        Returns ``(function, linemap, filename, alloc, nowb,
        (closure_insns, source_lines))``.
        ``linemap`` maps generated line numbers to ``(index,
        restore_pc)``: ``index`` is the number of instructions
        completed *within the current pass* when that line raises
        (total = frame-local ``done`` + ``index``), and ``restore_pc``
        marks lines where the faulting instruction's pc must be
        re-established (kernel-entering closures and post-branch
        bookkeeping manage ``s.pc`` themselves).  ``alloc`` lists the
        guest registers promoted to frame locals and ``nowb`` the line
        numbers of closure calls, where fault recovery must *not*
        write the (stale) locals back over the register file.
        """
        msize = self.memory.size
        costs = self.costs
        tb_cost = costs.taken_branch
        call_cost = costs.call
        pushes = self.spec.call_pushes_return_address
        names = [("s", self), ("r", self.regs),
                 ("d", self.memory.data),
                 ("UF", UnmappedMemoryFault)]
        names.extend(_MEM_OPS.items())
        n = len(items)
        last_kind = items[-1][0]
        loop = last_kind in ("condclose", "jmpclose")
        start = addrs[0]
        kinds = {kind for kind, _, _ in items}
        # Deferred cost counters for loop traces: taken branches (t)
        # and calls (u); flushed at every exit and on fault.  A loop
        # trace always has its closing branch, so ``t`` is always
        # present.
        counters = []
        if loop:
            counters.append(("t", tb_cost))
            if "call" in kinds:
                counters.append(("u", call_cost))
        flush_lines = []
        if counters:
            flush_lines.append(
                "s.cycles += "
                + " + ".join(f"{c} * {cost}" for c, cost in counters))
            flush_lines.append(
                "s.taken_branches += "
                + " + ".join(c for c, _ in counters))

        body = []   # (source line, linemap entry or None)

        def emit(indent, text, entry=None):
            body.append(("    " * indent + text, entry))

        def emit_flush(depth, entry):
            for text in flush_lines:
                emit(depth, text, entry)

        def emit_compare(depth, insn, k):
            ra, rb, _ = insn.operands
            emit(depth, f"x = r[{ra}]", (k, True))
            emit(depth, f"y = r[{rb}]", (k, True))
            emit(depth, f"if x >= {_SIGN}: x -= {1 << 64}", (k, True))
            emit(depth, f"if y >= {_SIGN}: y -= {1 << 64}", (k, True))
            emit(depth, f"if x {_COND_SRC[insn.mnemonic]} y:",
                 (k, True))

        depth = 2 if loop else 1
        if loop:
            emit(1, "done = 0")
            for c, _ in counters:
                emit(1, f"{c} = 0")
            emit(1, "while True:")
        for k, (kind, insn, closure) in enumerate(items):
            if kind == "s":
                lines = _inline_src(insn, msize)
                if lines is None:
                    names.append((f"c{k}", closure))
                    emit(depth, f"c{k}()", (k, True))
                else:
                    for line in lines:
                        emit(depth, line, (k, True))
            elif kind == "cond":
                target = insn.addr + insn.operands[2]
                emit_compare(depth, insn, k)
                emit(depth + 1, f"s.pc = {target}", (k + 1, False))
                if loop:
                    emit(depth + 1, "t += 1", (k + 1, False))
                    emit_flush(depth + 1, (k + 1, False))
                    emit(depth + 1, f"return done + {k + 1}",
                         (k + 1, False))
                else:
                    emit(depth + 1, f"s.cycles += {tb_cost}",
                         (k + 1, False))
                    emit(depth + 1, "s.taken_branches += 1",
                         (k + 1, False))
                    emit(depth + 1, f"return {k + 1}")
            elif kind == "jmp":
                # Followed unconditional jmp: only its cost remains.
                if loop:
                    emit(depth, "t += 1", (k + 1, True))
                else:
                    emit(depth, f"s.cycles += {tb_cost}", (k + 1, True))
                    emit(depth, "s.taken_branches += 1", (k + 1, True))
            elif kind == "call":
                nxt = insn.addr + insn.length
                if pushes:
                    emit(depth, f"a = (r[{SP}] - 8) & {_MASK_SRC}",
                         (k, True))
                    emit(depth,
                         f'if a + 8 > {msize}: raise UF(f"call at '
                         f'{{a:#x}}", pc={insn.addr})', (k, True))
                    emit(depth, f"p8(d, a, {nxt})", (k, True))
                    emit(depth, f"r[{SP}] = a", (k, True))
                else:
                    emit(depth, f"r[{LR}] = {nxt}", (k, True))
                if loop:
                    emit(depth, "u += 1", (k + 1, True))
                else:
                    emit(depth, f"s.cycles += {call_cost}",
                         (k + 1, True))
                    emit(depth, "s.taken_branches += 1", (k + 1, True))
            elif kind == "end":
                names.append((f"c{k}", closure))
                emit(1, f"c{k}()",
                     (k, insn.mnemonic not in ("trap", "syscall")))
                emit(1, f"return {n}")
            elif kind == "condclose":
                emit_compare(2, insn, k)
                emit(3, "t += 1", (n, False))
                emit(3, f"done += {n}", (n, False))
                emit(3, f"if done + {n} < budget:", (0, False))
                emit(4, "continue", (0, False))
                emit(3, f"s.pc = {start}", (0, False))
                emit_flush(3, (0, False))
                emit(3, "return done", (0, False))
                emit(2, f"s.pc = {insn.addr + insn.length}", (n, False))
                emit(2, f"done += {n}", (n, False))
                emit_flush(2, (0, False))
                emit(2, "return done", (0, False))
            elif kind == "jmpclose":
                emit(2, "t += 1", (n, False))
                emit(2, f"done += {n}", (n, False))
                emit(2, f"if done + {n} < budget:", (0, False))
                emit(3, "continue", (0, False))
                emit(2, f"s.pc = {start}", (0, False))
                emit_flush(2, (0, False))
                emit(2, "return done", (0, False))
        if last_kind not in ("condclose", "jmpclose", "end"):
            # Trace cut mid-stream (cap, watch boundary, unfetchable
            # next address): seal the pc of the not-taken continuation
            # once for the whole pass.
            kind, last_insn, _ = items[-1]
            if kind in ("s", "cond"):
                seal = last_insn.addr + last_insn.length
            else:   # a followed jmp/call
                seal = last_insn.addr + last_insn.operands[0]
            emit(1, f"s.pc = {seal}", (n, False))
            emit(1, f"return {n}")
        # Register allocation: every guest register the generated code
        # touches becomes a frame local (``r[3]`` -> ``v3``), loaded
        # once at entry, written back at every exit and around closure
        # calls (closures operate on the shared ``r`` list).  Inside a
        # loop trace the registers live in locals across iterations,
        # which is the single biggest throughput lever.  At any fault
        # point the locals *are* the architectural register state;
        # :meth:`_fault_index` writes them back — except when the
        # fault came from inside a closure (``nowb`` lines), where the
        # pre-flushed ``r`` list already carries the closure's partial
        # effects and the locals are stale.
        alloc = tuple(sorted({int(g) for text, _ in body
                              for g in _REG_REF.findall(text)}))
        nowb = set()
        if alloc:
            load = "; ".join(f"v{i} = r[{i}]" for i in alloc)
            store = "; ".join(f"r[{i}] = v{i}" for i in alloc)
            head = 1 + len(counters) if loop else 0
            out = list(body[:head])
            out.append(("    " + load, None))
            if loop:
                out.append(body[head])      # the ``while True:`` line
                head += 1
            for text, entry in body[head:]:
                stripped = text.lstrip()
                indent = text[:len(text) - len(stripped)]
                if _CLOSURE_CALL.match(stripped):
                    out.append((indent + store, None))
                    out.append((text, entry))
                    nowb.add(len(out) + 1)  # final line number
                    out.append((indent + load, None))
                elif stripped.startswith("return"):
                    out.append((indent + store, None))
                    out.append((text, entry))
                else:
                    out.append((_REG_REF.sub(r"v\1", text), entry))
            body = out
        header = ("def _sb(budget, "
                  + ", ".join(f"{nm}=_{nm}" for nm, _ in names) + "):")
        src = header + "\n" + "\n".join(
            text for text, _ in body) + "\n"
        linemap = {}
        for i, (_, entry) in enumerate(body):
            if entry is not None:
                linemap[i + 2] = entry
        filename = (f"<superblock {start:#x}+{n}"
                    f" #{next(_block_ids)}>")
        namespace = {f"_{nm}": value for nm, value in names}
        exec(compile(src, filename, "exec"), namespace)
        closures = sum(1 for nm, _ in names
                       if nm[0] == "c" and nm[1:].isdigit())
        return (namespace["_sb"], linemap, filename, alloc,
                frozenset(nowb), (closures, len(body)))

    def _fault_index(self, block, exc):
        """How many instructions of ``block`` completed before ``exc``.

        Recovered from the traceback's line in the generated source
        plus the generated frame's locals (loop blocks keep their
        iteration progress in ``done``/``t``), so the happy path
        carries no per-instruction bookkeeping at all.  Pending
        taken-branch accounting is flushed here, and the faulting
        instruction's pc is re-established where the per-step tier
        would have it, matching that tier bit for bit.
        """
        linemap = block[5]
        addrs = block[4]
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if frame.f_code.co_filename == block[6]:
                idx, restore = linemap.get(tb.tb_lineno, (0, False))
                locs = frame.f_locals
                t = locs.get("t", 0)
                u = locs.get("u", 0)
                if t or u:
                    self.cycles += (t * self.costs.taken_branch
                                    + u * self.costs.call)
                    self.taken_branches += t + u
                if block[7] and tb.tb_lineno not in block[8]:
                    # The frame locals are the architectural register
                    # state at the fault point (closure-call lines
                    # excepted: there the pre-flushed register file is
                    # authoritative and the locals are stale).
                    regs = self.regs
                    for i in block[7]:
                        name = f"v{i}"
                        if name in locs:
                            regs[i] = locs[name]
                if restore and idx < len(addrs):
                    self.pc = addrs[idx]
                return locs.get("done", 0) + idx
            tb = tb.tb_next
        return 0

    def _make_closure(self, insn, data, msize):
        self_ = self
        regs = self.regs
        m = insn.mnemonic
        ops = insn.operands
        addr = insn.addr
        nxt = addr + insn.length
        tb_cost = self.costs.taken_branch
        call_cost = self.costs.call
        ret_cost = self.costs.ret

        if m == "nop":
            def fn():
                self_.pc = nxt
            return fn

        if m == "mov":
            rd, ra = ops

            def fn():
                regs[rd] = regs[ra]
                self_.pc = nxt
            return fn

        if m == "movi":
            rd, imm = ops
            value = imm & _MASK

            def fn():
                regs[rd] = value
                self_.pc = nxt
            return fn

        if m == "lis":
            rd, imm = ops
            value = (imm << 16) & _MASK

            def fn():
                regs[rd] = value
                self_.pc = nxt
            return fn

        if m == "addis":
            rd, ra, imm = ops
            delta = imm << 16

            def fn():
                regs[rd] = (regs[ra] + delta) & _MASK
                self_.pc = nxt
            return fn

        if m == "adrp":
            rd, imm = ops
            value = ((addr & ~0xFFF) + (imm << 12)) & _MASK

            def fn():
                regs[rd] = value
                self_.pc = nxt
            return fn

        if m == "addi":
            rd, ra, imm = ops

            def fn():
                regs[rd] = (regs[ra] + imm) & _MASK
                self_.pc = nxt
            return fn

        if m in _ARITH:
            rd, ra, rb = ops
            op = _ARITH[m]

            def fn():
                regs[rd] = op(regs[ra], regs[rb]) & _MASK
                self_.pc = nxt
            return fn

        if m == "shli":
            rd, ra, imm = ops
            sh = imm & 63

            def fn():
                regs[rd] = (regs[ra] << sh) & _MASK
                self_.pc = nxt
            return fn

        if m == "shri":
            rd, ra, imm = ops
            sh = imm & 63

            def fn():
                regs[rd] = regs[ra] >> sh
                self_.pc = nxt
            return fn

        if m == "inc":
            (rd,) = ops

            def fn():
                regs[rd] = (regs[rd] + 1) & _MASK
                self_.pc = nxt
            return fn

        if m in LOAD_SIZES and not m.startswith("ldpc"):
            rd, mem_op = ops
            base = mem_op.base
            disp = mem_op.disp
            size = LOAD_SIZES[m]
            signed = m in SIGNED_LOADS
            bits = size * 8
            sign_bit = 1 << (bits - 1)
            wrap = 1 << bits

            def fn():
                a = (regs[base] + disp) & _MASK
                if a + size > msize:
                    raise UnmappedMemoryFault(
                        f"load at {a:#x} (pc={addr:#x})", pc=addr
                    )
                v = int.from_bytes(data[a:a + size], "little")
                if signed and v & sign_bit:
                    v = (v - wrap) & _MASK
                regs[rd] = v
                self_.pc = nxt
            return fn

        if m in STORE_SIZES:
            rs, mem_op = ops
            base = mem_op.base
            disp = mem_op.disp
            size = STORE_SIZES[m]
            vmask = (1 << (size * 8)) - 1

            def fn():
                a = (regs[base] + disp) & _MASK
                if a + size > msize:
                    raise UnmappedMemoryFault(
                        f"store at {a:#x} (pc={addr:#x})", pc=addr
                    )
                data[a:a + size] = (regs[rs] & vmask).to_bytes(size, "little")
                self_.pc = nxt
            return fn

        if m.startswith("ldpc"):
            rd, disp = ops
            size = LOAD_SIZES[m]
            a = addr + disp
            # The operands are compile-time constants, so the bounds
            # check runs once here instead of on every execution; an
            # out-of-range target keeps its exact runtime-fault
            # behaviour via an always-raising closure.
            if a < 0 or a + size > msize:
                def fn():
                    raise UnmappedMemoryFault(
                        f"pc-relative load at {a:#x}", pc=addr
                    )
                return fn
            hi = a + size

            def fn():
                regs[rd] = int.from_bytes(data[a:hi], "little")
                self_.pc = nxt
            return fn

        if m == "leapc":
            rd, disp = ops
            value = (addr + disp) & _MASK

            def fn():
                regs[rd] = value
                self_.pc = nxt
            return fn

        if m == "push":
            (rs,) = ops

            def fn():
                sp = (regs[SP] - 8) & _MASK
                if sp + 8 > msize:
                    raise UnmappedMemoryFault(f"push at {sp:#x}", pc=addr)
                data[sp:sp + 8] = regs[rs].to_bytes(8, "little")
                regs[SP] = sp
                self_.pc = nxt
            return fn

        if m == "pop":
            (rd,) = ops

            def fn():
                sp = regs[SP]
                if sp + 8 > msize:
                    raise UnmappedMemoryFault(f"pop at {sp:#x}", pc=addr)
                regs[rd] = int.from_bytes(data[sp:sp + 8], "little")
                regs[SP] = (sp + 8) & _MASK
                self_.pc = nxt
            return fn

        if m in ("jmp", "jmp.s"):
            target = addr + ops[0]

            def fn():
                self_.pc = target
                self_.cycles += tb_cost
                self_.taken_branches += 1
            return fn

        if m in _COND:
            ra, rb, disp = ops
            target = addr + disp
            cond = _COND[m]

            def fn():
                x = regs[ra]
                y = regs[rb]
                if x >= _SIGN:
                    x -= 1 << 64
                if y >= _SIGN:
                    y -= 1 << 64
                if cond(x, y):
                    self_.pc = target
                    self_.cycles += tb_cost
                    self_.taken_branches += 1
                else:
                    self_.pc = nxt
            return fn

        if m == "jmpr":
            (rt,) = ops

            def fn():
                self_.pc = regs[rt]
                self_.cycles += tb_cost
                self_.taken_branches += 1
            return fn

        if m == "call":
            target = addr + ops[0]
            if self.spec.call_pushes_return_address:
                def fn():
                    sp = (regs[SP] - 8) & _MASK
                    if sp + 8 > msize:
                        raise UnmappedMemoryFault(f"call at {sp:#x}", pc=addr)
                    data[sp:sp + 8] = nxt.to_bytes(8, "little")
                    regs[SP] = sp
                    self_.pc = target
                    self_.cycles += call_cost
                    self_.taken_branches += 1
            else:
                def fn():
                    regs[LR] = nxt
                    self_.pc = target
                    self_.cycles += call_cost
                    self_.taken_branches += 1
            return fn

        if m == "callr":
            (rt,) = ops
            if self.spec.call_pushes_return_address:
                def fn():
                    sp = (regs[SP] - 8) & _MASK
                    if sp + 8 > msize:
                        raise UnmappedMemoryFault(f"callr at {sp:#x}", pc=addr)
                    data[sp:sp + 8] = nxt.to_bytes(8, "little")
                    regs[SP] = sp
                    self_.pc = regs[rt]
                    self_.cycles += call_cost
                    self_.taken_branches += 1
            else:
                def fn():
                    regs[LR] = nxt
                    self_.pc = regs[rt]
                    self_.cycles += call_cost
                    self_.taken_branches += 1
            return fn

        if m == "ret":
            if self.spec.call_pushes_return_address:
                def fn():
                    sp = regs[SP]
                    if sp + 8 > msize:
                        raise UnmappedMemoryFault(f"ret at {sp:#x}", pc=addr)
                    self_.pc = int.from_bytes(data[sp:sp + 8], "little")
                    regs[SP] = (sp + 8) & _MASK
                    self_.cycles += ret_cost
                    self_.taken_branches += 1
            else:
                def fn():
                    self_.pc = regs[LR]
                    self_.cycles += ret_cost
                    self_.taken_branches += 1
            return fn

        if m == "trap":
            def fn():
                self_.pc = addr
                self_.kernel.handle_trap(self_)
            return fn

        if m == "syscall":
            (num,) = ops

            def fn():
                self_.pc = addr
                self_.kernel.syscall(self_, num)
                if self_.running and self_.pc == addr:
                    self_.pc = nxt
            return fn

        raise IllegalInstructionFault(
            f"unimplemented mnemonic {m} at {addr:#x}", pc=addr
        )
