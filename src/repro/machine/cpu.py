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
  execution of an address, the trace from that address up to the
  next indirect or kernel transfer (or watch-region boundary, or
  :data:`SUPERBLOCK_CAP`) is formed, following fall-throughs, direct
  ``jmp``s and direct ``call``s; ``callr``/``jmpr``/``ret`` end the
  trace through their per-step closures, so no code ever speculates
  on a register-held target.  The trace runs in two tiers:

  - *tier 0* chains the trace's existing per-step closures: nothing
    is compiled, a conditional branch ends a chain segment and a
    ``pc`` check after it is the side exit;
  - *tier 1* fuses the trace into one generated block function:
    straight-line register/memory operations are inlined as Python
    source with guest registers in frame locals, everything else
    calls its per-step closure, and a trace closed by a branch back
    to its head iterates inside the function.

  The dispatch loop counts tier-0 dispatches per trace head and
  promotes a head to tier 1 at :data:`PROMOTE_AFTER`, so compile time
  is spent only on traces that come back.  Either way a block is
  dispatched once per entry with pre-computed instruction/cycle
  deltas, so straight-line runs skip per-step bookkeeping.  Under an
  i-cache cost model blocks stay in tier 0, cut at every transfer.

Demotions away from the superblock tier are never silent: a manual
:meth:`CPU.step` on a superblock CPU and a step-granularity recorder
attach each count a cause in :attr:`CPU.demotions` (mirrored to the
machine's metrics as ``engine.demoted`` and traced as an
``engine-demoted`` event).  The default block-granularity
:class:`~repro.obs.flight.FlightRecorder` *rides* both block tiers —
one ring entry per block dispatch with exact trampoline-hit recovery —
and an attached :class:`~repro.obs.engine.EngineTelemetry` observes
trace-build/promotion/dispatch activity without demoting.  Blocks do
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

#: Dispatches of a trace head before the trace is promoted from tier 0
#: (its per-step closures, chained) to tier 1 (fused and compiled): the
#: first ``PROMOTE_AFTER - 1`` dispatches run in tier 0, so 1 fuses
#: every trace at first sight.
#:
#: Ski-rental break-even: fusing costs about 33-42 us per fused
#: instruction and a tier-0 instruction about 0.44-0.66 us (the 57
#: unscaled SPEC-like runs on a 2-core x86-64 VM;
#: ``bench_emulator_throughput`` prints both), so a trace repays its
#: compile after about 60-85 passes.  The benchmark balance can sit
#: lower, because a loop trace promoted early iterates inside its
#: generated ``while`` from then on: ``long-run`` (few hot loops)
#: wants early promotion, ``spec-sweep`` (many short-lived traces)
#: late.  Verified at 64 over 10 alternating pairs against the engine
#: that fused every trace at first sight: ``wall_s`` -63% on
#: spec-sweep and -17% on long-run.  Neighbouring values were tried
#: with 2-3 runs each, too few to rank them against 64.
PROMOTE_AFTER = 64

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


def _wrapped(dst, expr, how):
    """``dst = expr`` reduced to 64 bits by a guarded fix-up: for a
    small-int result this is about twice as fast as ``& mask`` with the
    three-digit mask.  ``how``: ``"+"`` for a sum of two 64-bit values,
    ``"-"`` for such a difference, ``"<<"`` for a left shift."""
    fix = {"+": f"> {_MASK_SRC}: {dst} -= {1 << 64}",
           "-": f"< 0: {dst} += {1 << 64}",
           "<<": f"> {_MASK_SRC}: {dst} &= {_MASK_SRC}"}[how]
    return [f"{dst} = {expr}", f"if {dst} {fix}"]


def _add_imm(dst, src, imm):
    """``dst = (src + imm) & mask`` as source lines; ``imm`` is an
    encoded immediate or displacement, so ``|imm| < 2**64``."""
    if not imm:
        return [f"{dst} = {src}"]
    if imm > 0:
        return _wrapped(dst, f"{src} + {imm}", "+")
    return _wrapped(dst, f"{src} - {-imm}", "-")


def _inline_src(insn, msize, v):
    """Python source lines for one straight-line instruction inside a
    superblock, or ``None`` when it must run via its per-step closure.

    The emitted source mirrors the per-step closures statement for
    statement — including fault messages — so the two tiers are
    byte-identical in outputs and in every counter.  Guest registers
    are frame locals named by ``v(i)``, which also records ``i`` for
    allocation.  Other names bound in the generated scope: ``s`` (the
    CPU), ``d`` (memory bytes), ``UF`` (:class:`UnmappedMemoryFault`),
    and the :data:`_MEM_OPS` accessors (``u8``/``g4``/``p2``...).
    Inlined operations deliberately do *not* update ``s.pc``; the
    block seals the pc once at its end, and fault recovery
    (:meth:`CPU._fault_index`) restores the exact pc of a faulting
    instruction from the block's line map.
    """
    m = insn.mnemonic
    ops = insn.operands
    addr = insn.addr
    M = _MASK_SRC

    if m == "nop":
        return []
    if m == "mov":
        rd, ra = ops
        return [f"{v(rd)} = {v(ra)}"]
    if m == "movi":
        rd, imm = ops
        return [f"{v(rd)} = {imm & _MASK}"]
    if m == "lis":
        rd, imm = ops
        return [f"{v(rd)} = {(imm << 16) & _MASK}"]
    if m == "addis":
        rd, ra, imm = ops
        return _add_imm(v(rd), v(ra), imm << 16)
    if m == "adrp":
        rd, imm = ops
        return [f"{v(rd)} = {((addr & ~0xFFF) + (imm << 12)) & _MASK}"]
    if m == "addi":
        rd, ra, imm = ops
        return _add_imm(v(rd), v(ra), imm)
    if m in ("add", "sub"):
        rd, ra, rb = ops
        return _wrapped(v(rd), f"{v(ra)} {_ARITH_SRC[m]} {v(rb)}",
                        _ARITH_SRC[m])
    if m in ("and", "or", "xor"):
        # Registers always hold values in [0, 2**64), and so does any
        # bitwise combination of two of them: no mask needed.
        rd, ra, rb = ops
        return [f"{v(rd)} = {v(ra)} {_ARITH_SRC[m]} {v(rb)}"]
    if m == "mul":
        rd, ra, rb = ops
        return [f"{v(rd)} = ({v(ra)} * {v(rb)}) & {M}"]
    if m == "shl":
        rd, ra, rb = ops
        return _wrapped(v(rd), f"{v(ra)} << ({v(rb)} & 63)", "<<")
    if m == "shr":
        rd, ra, rb = ops
        return [f"{v(rd)} = {v(ra)} >> ({v(rb)} & 63)"]
    if m == "shli":
        rd, ra, imm = ops
        return _wrapped(v(rd), f"{v(ra)} << {imm & 63}", "<<")
    if m == "shri":
        rd, ra, imm = ops
        return [f"{v(rd)} = {v(ra)} >> {imm & 63}"]
    if m == "inc":
        (rd,) = ops
        return _add_imm(v(rd), v(rd), 1)
    if m in LOAD_SIZES and not m.startswith("ldpc") or m in STORE_SIZES:
        reg, mem_op = ops
        load = m in LOAD_SIZES
        size = LOAD_SIZES[m] if load else STORE_SIZES[m]
        # A zero displacement addresses through the (already in-range)
        # base register itself; the bounds check compares against a
        # folded constant.
        a = v(mem_op.base)
        lines = []
        if mem_op.disp:
            lines = _add_imm("a", a, mem_op.disp)
            a = "a"
        lines.append(f'if {a} > {msize - size}: raise UF(f"'
                     f'{"load" if load else "store"} at {{{a}:#x}} '
                     f'(pc={addr:#x})", pc={addr})')
        if not load:
            value = v(reg) if size == 8 else \
                f"{v(reg)} & {(1 << (size * 8)) - 1}"
            lines.append(f"p{size}(d, {a}, {value})")
        elif m in SIGNED_LOADS:
            # A signed unpack plus the 64-bit mask is the same value
            # the per-step closure's manual sign extension produces.
            lines.append(f"{v(reg)} = g{size}(d, {a})[0] & {M}")
        else:
            lines.append(f"{v(reg)} = u{size}(d, {a})[0]")
        return lines
    if m.startswith("ldpc"):
        rd, disp = ops
        size = LOAD_SIZES[m]
        a = addr + disp
        if a < 0 or a + size > msize:
            return None   # always-faulting: keep the closure's raise
        return [f"{v(rd)} = u{size}(d, {a})[0]"]
    if m == "leapc":
        rd, disp = ops
        return [f"{v(rd)} = {(addr + disp) & _MASK}"]
    if m == "push":
        (rs,) = ops
        return _add_imm("a", v(SP), -8) + [
            f'if a > {msize - 8}: '
            f'raise UF(f"push at {{a:#x}}", pc={addr})',
            f"p8(d, a, {v(rs)})",
            f"{v(SP)} = a",
        ]
    if m == "pop":
        (rd,) = ops
        return [
            f"a = {v(SP)}",
            f'if a > {msize - 8}: '
            f'raise UF(f"pop at {{a:#x}}", pc={addr})',
            f"{v(rd)} = u8(d, a)[0]",
        ] + _add_imm(v(SP), "a", 8)
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
        #: Demotions away from the superblock tier, by cause (always
        #: counted, telemetry attached or not).
        self.demotions = {}
        #: Block-cache invalidations that dropped cached blocks, by
        #: cause (always counted, telemetry attached or not).
        self.invalidations = {}
        #: Optional ``fn(cause)`` invoked on every demotion — the
        #: Machine wires this to its metrics/tracer so demotions are
        #: never silent.
        self.on_demote = None
        self._step_demoted = False

        self._compiled = {}
        self._ends = {}
        #: decoded Instruction per address (feeds trace formation)
        self._insns = {}
        #: superblock start address -> block record (see _build_block)
        self._blocks = {}
        #: tier-0 trace head -> [dispatches left before promotion,
        #: the formed trace]
        self._heat = {}
        self._watch_regions = None

    # -- public API --------------------------------------------------------

    @property
    def watch_regions(self):
        """Optional pair of (lo, hi) address regions; transitions between
        them are counted (used to measure .text <-> .instr bouncing)."""
        return self._watch_regions

    @watch_regions.setter
    def watch_regions(self, regions):
        # Traces are formed with watch-region boundaries baked in,
        # so changing the regions invalidates every block.
        self._watch_regions = regions
        if self._blocks:
            self._invalidate_cause("watch-region")

    def invalidate_code(self):
        """Drop compiled closures and cached superblocks (call after
        writing to code memory)."""
        if self._blocks:
            self._invalidate_cause("invalidate_code")
        self.release_code()

    def release_code(self):
        """Drop every cached closure and block, counting nothing.

        Closures and blocks refer back to the CPU, so for a CPU that
        will not run again this frees them without waiting for the
        cycle collector."""
        self._compiled.clear()
        self._ends.clear()
        self._insns.clear()
        self._blocks.clear()
        self._heat.clear()

    def attach_telemetry(self, telemetry):
        """Wire an :class:`~repro.obs.engine.EngineTelemetry` in (or
        out, with ``None``).

        Blocks do not depend on the observer, so the block cache
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
        """Count one demotion away from the superblock tier, by cause, and
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
        """Drop every cached block and count why."""
        self._blocks.clear()
        self._heat.clear()
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
        ``manual-step`` demotion (once per CPU), so superblock escapes
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

        Dispatches superblocks unless ``engine="step"`` was
        selected or a step-granularity flight recorder is attached
        (block-granularity recorders and engine telemetry ride the
        superblock tier); the last strides of a run approaching its step
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
                heat = self._heat
                build = self._build_block
                promote = self._promote
                telem = self.telemetry
                observe = telem is not None or flight is not None
                tstats = telem.block_stats if telem is not None else None
                decoded = self._insns
                while self.running:
                    pc0 = self.pc
                    b = blocks.get(pc0)
                    if b is None:
                        b = build(pc0)
                    n = b[1]
                    if steps + n >= limit:
                        break
                    if watch:
                        region = b[2]
                        if region is not None and region != prev_region:
                            if prev_region != -1:
                                self.transitions += 1
                            prev_region = region
                    if observe:
                        c0 = self.cycles
                    fused = b[0]
                    if fused is not None:
                        try:
                            # Fused blocks take the remaining step
                            # budget (loop blocks iterate internally
                            # until it nears exhaustion) and return
                            # the number of instructions executed.
                            done = fused(limit - steps)
                        except BaseException as exc:
                            done = self._fault_index(b, exc)
                            steps += done
                            self.cycles += done * insn_cost
                            raise
                        steps += done
                        self.cycles += done * insn_cost
                    else:
                        # Tier 0: the chain's closures, segment by
                        # segment.  An i-cache tag check per segment
                        # is charged before its instructions run —
                        # exactly the per-step order.
                        steps0 = steps
                        for line, idx, fns, seg_n, seg_cyc, nxt in b[3]:
                            if icache_on and tags[idx] != line:
                                tags[idx] = line
                                self.cycles += miss_cost
                                self.icache_misses += 1
                            k = 0
                            try:
                                for fn in fns:
                                    fn()
                                    k += 1
                            except BaseException:
                                steps += k
                                self.cycles += k * insn_cost
                                raise
                            steps += seg_n
                            self.cycles += seg_cyc
                            if self.pc != nxt:
                                break   # side exit (or the chain's end)
                        done = steps - steps0
                        hot = heat.get(pc0)
                        if hot is not None:
                            hot[0] -= 1
                            if not hot[0]:
                                del heat[pc0]
                                promote(pc0, hot[1], b[4], b[2])
                    if observe:
                        if tstats is not None:
                            st = tstats.get(pc0)
                            if st is None:
                                tstats[pc0] = [1, done, self.cycles - c0]
                            else:
                                st[0] += 1
                                st[1] += done
                                st[2] += self.cycles - c0
                            if fused is None:
                                telem.tier0_insns += done
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

    # -- superblock tiers --------------------------------------------------

    def _build_block(self, addr):
        """Form the execution trace starting at ``addr`` and cache its
        tier-0 block record, a closure chain (or, with
        :data:`PROMOTE_AFTER` at 1, its tier-1 fused block at once).

        Trace formation (the default): decoding follows the
        *fall-through* of conditional branches (side exits) and
        follows unconditional ``jmp``s, so a whole loop — head test,
        body, backward latch — lands in one trace.  A branch or jmp
        targeting the trace's own start closes it into a *loop
        trace*.  Direct ``call``s are followed into the callee (the
        return address is a compile-time constant).  Traces end at
        indirect and kernel transfers (``jmpr``/``callr``/``ret``/
        ``trap``/``syscall``), which run their per-step closures as
        the block's last instruction, at :data:`SUPERBLOCK_CAP`, at
        watch-region boundaries, and at unfetchable addresses.

        Under an i-cache cost model the trace is instead cut at *any*
        control transfer, because tier 0 must see a strictly
        sequential closure list to charge misses in per-step order,
        and the block is never promoted.  Otherwise a new trace
        starts :data:`PROMOTE_AFTER` − 1 dispatches from promotion,
        kept in ``_heat`` with the formed trace that :meth:`_promote`
        fuses.

        The block record is a tuple ``(fn, n, region, segs, addrs,
        linemap, filename, alloc, nowb)``:

        * ``fn`` — the fused function (``None`` in tier 0); called
          with the remaining step budget, returns the number of
          instructions executed;
        * ``n`` — instructions per full pass through the trace (early
          side exits return less; loop traces return accumulated
          totals);
        * ``region`` — the watch-region class shared by every
          instruction: traces are cut at watch-region boundaries, so a
          single entry check reproduces the per-step transition count;
        * ``segs`` — the tier-0 chain (``None`` once fused): segments
          ``(line, set_index, closures, n, cycles, next_pc)``, cut
          after every conditional branch and, under an i-cache cost
          model, at every i-cache line change, so misses are charged
          per line actually crossed; ``pc != next_pc`` after a segment
          is the side exit;
        * ``addrs``/``linemap``/``filename`` — fault forensics: the
          instruction addresses plus the generated-source line ->
          ``(index, restore_pc)`` map that reconstructs exact partial
          accounting when a fused block faults mid-flight;
        * ``alloc``/``nowb`` — the guest registers promoted to frame
          locals by :meth:`_fuse` and the closure-call lines where a
          fault must not write those locals back.
        """
        telem = self.telemetry
        compiled = self._compiled
        decoded = self._insns
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
        costs = self.costs
        icache = costs.icache_enabled
        reason = "cap"  # why the trace ended (telemetry trace shape)
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
            if mn in _COND and not icache:
                target = a + insn.operands[2]
                if target == addr:
                    items.append(("condclose", insn, fn))
                    reason = "loop-cond"
                    break
                items.append(("cond", insn, fn))
                a += insn.length
            elif mn in ("jmp", "jmp.s") and not icache:
                target = a + insn.operands[0]
                if target == addr:
                    items.append(("jmpclose", insn, fn))
                    reason = "loop-jmp"
                    break
                items.append(("jmp", insn, fn))
                a = target
            elif mn == "call" and not icache:
                # Direct call: the return address is a compile-time
                # constant, so the push/link inlines and the trace
                # continues into the callee.
                items.append(("call", insn, fn))
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
        if telem is not None:
            telem.record_trace(addr, n, loop=reason.startswith("loop"),
                               reason=reason)
        addrs = tuple(addrs)
        if not icache and PROMOTE_AFTER <= 1:
            return self._promote(addr, items, addrs, region)
        # Tier 0: the trace's own per-step closures, grouped into
        # segments (see ``segs`` above).
        line_bits = costs.icache_line_bits
        groups = []     # (line, first address, closures)
        cut = True
        for kind, insn, fn in items:
            line = insn.addr >> line_bits if icache else 0
            if cut or line != groups[-1][0]:
                groups.append((line, insn.addr, []))
            groups[-1][2].append(fn)
            cut = kind == "cond"
        nexts = [g[1] for g in groups[1:]] + [None]
        mask = costs.icache_lines - 1
        segs = tuple(
            (line, line & mask, tuple(fns), len(fns),
             len(fns) * costs.insn, nxt)
            for (line, _, fns), nxt in zip(groups, nexts))
        block = (None, n, region, segs, addrs, None, None,
                 (), frozenset())
        self._blocks[addr] = block
        if not icache:
            self._heat[addr] = [PROMOTE_AFTER - 1, items]
        return block

    def _promote(self, addr, items, addrs, region):
        """Fuse a formed trace into its tier-1 block and cache it."""
        t0 = perf_counter()
        fused, linemap, filename, alloc, nowb, (closures, lines) = \
            self._fuse(items, addrs)
        block = (fused, len(items), region, None, addrs, linemap,
                 filename, alloc, nowb)
        self._blocks[addr] = block
        telem = self.telemetry
        if telem is not None:
            telem.record_compile(
                addr, len(items), seconds=perf_counter() - t0,
                closure_insns=closures, source_lines=lines,
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
          the end either calls a terminator closure or seals ``s.pc``
          once.
        * a *loop trace* — closed by a branch or ``jmp`` back to the
          trace's own start — wraps the same body in ``while True``
          and counts finished passes in the frame-local ``p``.  Hot
          loops re-enter the generated ``while`` without touching the
          dispatch loop at all, which is where superblocks beat
          per-step execution by a wide margin.  The closing branch
          stops iterating when one more pass would reach the step
          budget.

        Taken-branch accounting costs nothing on the way: the costs of
        followed jmps and calls (and, per loop pass, of the closing
        branch) are compile-time constants, added to ``s.cycles`` and
        ``s.taken_branches`` once at each exit.

        Register allocation happens while emitting: every guest
        register the source names becomes a frame local (``v3`` for
        register 3), loaded once at entry and written back to the
        register file ``r`` before every return and closure call
        (closures operate on the shared list), then reloaded after
        the call.  Inside a loop trace the registers live in locals
        across iterations, which is the single biggest throughput
        lever.

        Returns ``(function, linemap, filename, alloc, nowb,
        (closure_insns, source_lines))``.
        ``linemap`` maps generated line numbers to ``(index,
        restore_pc, cycles, branches, pass_cycles, pass_branches)``:
        ``index`` is the number of instructions completed *within the
        current pass* when that line raises (total = ``p`` passes of
        ``n`` + ``index``), ``restore_pc`` marks lines where the
        faulting instruction's pc must be re-established
        (kernel-entering closures and post-branch bookkeeping manage
        ``s.pc`` themselves), and the costs are those owed within the
        pass and per finished pass.  ``alloc`` lists the
        guest registers promoted to frame locals and ``nowb`` the line
        numbers of closure calls: at any other fault point the locals
        *are* the architectural register state and
        :meth:`_fault_index` writes them back, but a faulting closure
        has already left its partial effects in ``r``, so there the
        locals are stale.
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
        # Taken-branch costs are compile-time constants, paid only at
        # exits: (cycles, branches) of one loop pass that closes (its
        # followed jmps and calls plus the closing branch), and
        # ``pend``, those owed within the pass at the current emission
        # point.  Linemap entries carry both for fault recovery.
        per_pass = (0, 0)
        if loop:
            jumps = sum(kind in ("jmp", "condclose", "jmpclose")
                        for kind, _, _ in items)
            calls = sum(kind == "call" for kind, _, _ in items)
            per_pass = (jumps * tb_cost + calls * call_cost,
                        jumps + calls)
        pend = [0, 0]

        # (indent, source line, linemap entry or None, role): the role
        # marks where register traffic goes once ``alloc`` is known —
        # "load" (entry), "ret" (store first), "call" (store, then
        # reload), "tail" (a closure call right before the return).
        body = []
        alloc = set()

        def v(i):
            alloc.add(i)
            return f"v{i}"

        def emit(indent, text, entry=None, role=None):
            if entry is not None:
                entry = (*entry, *pend)
            body.append((indent, text, entry, role))

        def emit_exit(depth, pc, cycles, branches, done):
            # Leave with ``p`` finished loop passes plus ``done``
            # instructions and the given costs of the current pass
            # (``done`` None: settle the costs and carry on).
            if pc is not None:
                emit(depth, f"s.pc = {pc}")
            if loop:
                cycles = f"p * {per_pass[0]} + {cycles}"
                branches = f"p * {per_pass[1]} + {branches}"
                done = f"p * {n} + {done}"
            if branches:
                emit(depth, f"s.cycles += {cycles}")
                emit(depth, f"s.taken_branches += {branches}")
            if done is not None:
                emit(depth, f"return {done}", role="ret")

        def emit_compare(depth, insn, k):
            ra, rb, _ = insn.operands
            op = _COND_SRC[insn.mnemonic]
            prev = items[k - 1][1] if k else None
            if (prev is not None and prev.mnemonic == "movi"
                    and prev.operands[0] == rb != ra):
                # ``rb`` was just set to a constant ``c``: the signed
                # test becomes an unsigned range test on ``ra`` alone.
                c = prev.operands[1] & _MASK
                if op in ("==", "!="):
                    emit(depth, f"if {v(ra)} {op} {c}:", (k, True))
                    return
                c -= (c >= _SIGN) << 64
                t = c + (op in (">", "<="))   # signed x >= t, or x < t
                lo, hi, neg = ((t, _SIGN, False) if t >= 0
                               else (_SIGN, t + (1 << 64), True))
                neg ^= op in ("<", "<=")
                emit(depth, f"if {'not ' * neg}{lo} <= {v(ra)} < {hi}:",
                     (k, True))
                return
            emit(depth, f"x = {v(ra)}", (k, True))
            emit(depth, f"y = {v(rb)}", (k, True))
            emit(depth, f"if x >= {_SIGN}: x -= {1 << 64}", (k, True))
            emit(depth, f"if y >= {_SIGN}: y -= {1 << 64}", (k, True))
            emit(depth, f"if x {op} y:", (k, True))

        depth = 2 if loop else 1
        if loop:
            # ``p`` counts finished passes; ``q`` passes stay within
            # the step budget.
            emit(1, "p = 0")
            emit(1, f"q = (budget - 1) // {n}")
        emit(1, "", role="load")
        if loop:
            emit(1, "while True:")
        for k, (kind, insn, closure) in enumerate(items):
            if kind == "s":
                lines = _inline_src(insn, msize, v)
                if lines is None:
                    names.append((f"c{k}", closure))
                    emit(depth, f"c{k}()", (k, True), "call")
                else:
                    for line in lines:
                        emit(depth, line, (k, True))
            elif kind == "cond":
                emit_compare(depth, insn, k)
                emit_exit(depth + 1, insn.addr + insn.operands[2],
                          pend[0] + tb_cost, pend[1] + 1, k + 1)
            elif kind == "jmp":
                # Followed unconditional jmp: only its cost remains.
                pend[0] += tb_cost
                pend[1] += 1
            elif kind == "call":
                nxt = insn.addr + insn.length
                if pushes:
                    for line in _add_imm("a", v(SP), -8) + [
                            f'if a > {msize - 8}: raise UF(f"call at '
                            f'{{a:#x}}", pc={insn.addr})',
                            f"p8(d, a, {nxt})", f"{v(SP)} = a"]:
                        emit(depth, line, (k, True))
                else:
                    emit(depth, f"{v(LR)} = {nxt}", (k, True))
                pend[0] += call_cost
                pend[1] += 1
            elif kind == "end":
                # The terminator may enter the kernel: settle first.
                emit_exit(1, None, *pend, None)
                pend[:] = [0, 0]
                names.append((f"c{k}", closure))
                emit(1, f"c{k}()",
                     (k, insn.mnemonic not in ("trap", "syscall")),
                     "tail")
                emit(1, f"return {n}")
            else:   # the closing branch: "condclose" or "jmpclose"
                inner = 2
                if kind == "condclose":
                    emit_compare(2, insn, k)
                    inner = 3
                emit(inner, "p += 1")
                emit(inner, "if p < q:")
                emit(inner + 1, "continue")
                emit_exit(inner, start, 0, 0, 0)
                if kind == "condclose":   # the not-taken fall-out
                    emit_exit(2, insn.addr + insn.length, *pend, n)
        if last_kind not in ("condclose", "jmpclose", "end"):
            # Trace cut mid-stream (cap, watch boundary, unfetchable
            # next address): seal the pc of the not-taken continuation
            # once for the whole pass.
            kind, last_insn, _ = items[-1]
            if kind in ("s", "cond"):
                seal = last_insn.addr + last_insn.length
            else:   # a followed jmp/call
                seal = last_insn.addr + last_insn.operands[0]
            emit_exit(1, seal, *pend, n)
        alloc = tuple(sorted(alloc))
        load = "; ".join(f"v{i} = r[{i}]" for i in alloc)
        store = "; ".join(f"r[{i}] = v{i}" for i in alloc)
        src = ["def _sb(budget, "
               + ", ".join(f"{nm}=_{nm}" for nm, _ in names) + "):"]
        linemap = {}
        nowb = set()
        for indent, text, entry, role in body:
            pad = "    " * indent
            if role is not None and alloc:
                if role == "load":
                    src.append(pad + load)
                    continue
                src.append(pad + store)
            if text:
                src.append(pad + text)
            if entry is not None:
                linemap[len(src)] = (*entry, *per_pass)
            if role in ("call", "tail") and alloc:
                nowb.add(len(src))
                if role == "call":
                    src.append(pad + load)
        filename = (f"<superblock {start:#x}+{n}"
                    f" #{next(_block_ids)}>")
        namespace = {f"_{nm}": value for nm, value in names}
        exec(compile("\n".join(src) + "\n", filename, "exec"), namespace)
        closures = sum(1 for nm, _ in names
                       if nm[0] == "c" and nm[1:].isdigit())
        # Popped, not read: the namespace is the function's globals,
        # so leaving the function in it would make a reference cycle.
        return (namespace.pop("_sb"), linemap, filename, alloc,
                frozenset(nowb), (closures, len(src) - 1))

    def _fault_index(self, block, exc):
        """How many instructions of ``block`` completed before ``exc``.

        Recovered from the traceback's line in the generated source
        plus the generated frame's locals (loop blocks keep their
        finished passes in ``p``), so the happy path
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
                idx, restore, owed, owed_n, pass_c, pass_n = \
                    linemap.get(tb.tb_lineno, (0, False, 0, 0, 0, 0))
                locs = frame.f_locals
                passes = locs.get("p", 0)
                self.cycles += owed + passes * pass_c
                self.taken_branches += owed_n + passes * pass_n
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
                return passes * block[1] + idx
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
