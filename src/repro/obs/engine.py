"""The engine observatory: superblock JIT telemetry.

The superblock tier makes the emulator fast; this module makes it
*legible*.  An :class:`EngineTelemetry` attached to a
:class:`repro.machine.Machine` is fed by the superblock tier at three
moments:

* **trace build** — every trace formed into a tier-0 closure chain:
  its shape (length, loop closure, why the trace ended);
* **promotion** — every trace fused and compiled into tier 1:
  compile wall seconds and codegen-pass accounting (instructions
  inlined as source vs routed through per-step closures, registers
  promoted to frame locals, generated source lines);
* **dispatch time** — per-block execution counts with exact
  instruction and cycle attribution (one entry/instructions/cycles
  triple per block start address), the instructions that ran in
  tier 0, block-cache hit accounting, and a count of the indirect
  transfers that ended a dispatched trace.

Generated blocks do not depend on the collector, so attaching keeps
the block cache.  Detached CPUs pay only the established ``is None``
discipline: two boolean tests per *block dispatch* (not per
instruction), held under the 2% budget by
``benchmarks/bench_emulator_throughput.py``.

Demotions away from the superblock tier (a step-granularity
:class:`~repro.obs.flight.FlightRecorder` attach, a manual
:meth:`~repro.machine.cpu.CPU.step`) and block-cache invalidations
(``invalidate_code``, watch-region change, recorder attach) are
counted by cause on the CPU whether or not telemetry is attached, and
mirrored here when it is.

Everything reads out as a schema-versioned :data:`EngineReport/v3
<ENGINE_REPORT_SCHEMA>` document — hot-block top-N, trace shape, tier
split, compile-vs-execute time split — rendered by
:func:`render_engine_report` and surfaced as ``repro engine report``.
"""

import json

from repro.obs.metrics import Histogram

#: Schema tag; bump when a field changes meaning.
ENGINE_REPORT_SCHEMA = "EngineReport/v3"

#: Default number of hot blocks a report ranks.
DEFAULT_TOP = 10


class EngineTelemetry:
    """JIT telemetry collector for one machine's superblock tier
    (or several runs on one machine — counters accumulate).

    The CPU feeds it at compile and dispatch time; it never feeds
    the CPU.  All recording is pure observation: results, fault-time
    state, and every ``RunResult`` counter stay bit-identical to an
    unobserved run.
    """

    enabled = True

    def __init__(self, top_blocks=DEFAULT_TOP):
        #: block start pc -> [entries, instructions, cycles]
        self.block_stats = {}
        #: executed ``callr``/``jmpr``/``ret`` that ended a dispatched
        #: trace (indirect targets are resolved by dispatch, never
        #: speculated inside a trace)
        self.indirect_exits = 0
        #: dispatched instructions that ran in tier 0 (the rest of
        #: :attr:`block_instructions` ran fused)
        self.tier0_insns = 0
        self.top_blocks = top_blocks

        # -- trace-build and promotion accounting
        #: traces formed into tier-0 closure chains
        self.traces = 0
        #: traces promoted to tier 1 (fused and compiled)
        self.compiles = 0
        self.compile_seconds = 0.0
        self.insns_fused = 0
        self.inlined_insns = 0
        self.closure_insns = 0
        self.alloc_regs = 0
        self.source_lines = 0
        self.loop_blocks = 0
        self.trace_lengths = Histogram("engine.trace_length")
        #: why traces ended: reason -> count
        self.ends_by_reason = {}

        # -- lifecycle accounting (mirrors of the CPU's own dicts)
        self.demotions = {}
        self.invalidations = {}

        # -- wall-clock split
        self.runs = 0
        self.run_seconds = 0.0

        #: the attached CPU's engine name (set at attach time)
        self.engine = None

    # -- wiring -------------------------------------------------------------

    def attach(self, machine):
        """Wire this collector into a machine's CPU.

        Attaching keeps the block cache (blocks built before the
        attach are dispatched and attributed, but their builds were
        not observed) and the superblock tier keeps running — telemetry
        never demotes.
        """
        machine.telemetry = self
        machine.cpu.attach_telemetry(self)
        return self

    def seed(self, demotions, invalidations):
        """Fold the CPU's pre-attach demotion/invalidation tallies in
        (the CPU counts by cause whether or not telemetry is attached)."""
        for cause, n in demotions.items():
            self.demotions[cause] = self.demotions.get(cause, 0) + n
        for cause, n in invalidations.items():
            self.invalidations[cause] = \
                self.invalidations.get(cause, 0) + n

    # -- hooks (called from the CPU when attached) --------------------------

    def record_trace(self, start, n, loop, reason):
        """One trace formed into a tier-0 closure chain."""
        self.traces += 1
        if loop:
            self.loop_blocks += 1
        self.trace_lengths.observe(n)
        self.ends_by_reason[reason] = \
            self.ends_by_reason.get(reason, 0) + 1

    def record_compile(self, start, n, seconds, closure_insns,
                       source_lines, alloc_regs):
        """One trace promoted: fused and compiled into tier 1."""
        self.compiles += 1
        self.compile_seconds += seconds
        self.insns_fused += n
        self.closure_insns += closure_insns
        self.inlined_insns += n - closure_insns
        self.source_lines += source_lines
        self.alloc_regs += alloc_regs

    def record_demotion(self, cause):
        self.demotions[cause] = self.demotions.get(cause, 0) + 1

    def record_invalidation(self, cause):
        self.invalidations[cause] = self.invalidations.get(cause, 0) + 1

    def record_run(self, seconds):
        """Wall seconds of one :meth:`~repro.machine.Machine.run`."""
        self.runs += 1
        self.run_seconds += seconds

    # -- reading ------------------------------------------------------------

    # The names ``perfbench`` reads for its ``machine.jit.guard_checks``
    # and ``guard_miss_frac`` metrics: every indirect target is checked
    # by dispatch, and every such check leaves its trace, the outcome a
    # guard miss once had.
    guard_checks = guard_misses = property(
        lambda self: self.indirect_exits)

    @property
    def dispatches(self):
        return sum(s[0] for s in self.block_stats.values())

    @property
    def block_instructions(self):
        return sum(s[1] for s in self.block_stats.values())

    def hot_blocks(self, top=None):
        """Top-N blocks by attributed cycles:
        ``[{pc, entries, instructions, cycles, cycle_share}, ...]``."""
        top = self.top_blocks if top is None else top
        total = sum(s[2] for s in self.block_stats.values())
        ranked = sorted(self.block_stats.items(),
                        key=lambda kv: (-kv[1][2], kv[0]))
        return [
            {"pc": pc, "entries": st[0], "instructions": st[1],
             "cycles": st[2],
             "cycle_share": (st[2] / total) if total else 0.0}
            for pc, st in ranked[:top]
        ]

    def report(self, top=None):
        """The schema-versioned ``EngineReport/v3`` document."""
        top = self.top_blocks if top is None else top
        execute = max(0.0, self.run_seconds - self.compile_seconds)
        instructions = self.block_instructions
        return {
            "schema": ENGINE_REPORT_SCHEMA,
            "engine": self.engine,
            "blocks": {
                "compiled": self.compiles,
                "dispatches": self.dispatches,
                "instructions": instructions,
                "cycles": sum(s[2] for s in self.block_stats.values()),
                "indirect_exits": self.indirect_exits,
            },
            "tiers": {
                "traces": self.traces,
                "promoted": self.compiles,
                "tier0_instructions": self.tier0_insns,
                "fused_instructions": instructions - self.tier0_insns,
            },
            "hot_blocks": self.hot_blocks(top),
            "trace_shape": {
                "lengths": self.trace_lengths.summary(),
                "loop_blocks": self.loop_blocks,
                "ends_by_reason": dict(sorted(
                    self.ends_by_reason.items())),
            },
            "compile": {
                "blocks": self.compiles,
                "seconds": self.compile_seconds,
                "insns_fused": self.insns_fused,
                "inlined_insns": self.inlined_insns,
                "closure_insns": self.closure_insns,
                "alloc_regs": self.alloc_regs,
                "source_lines": self.source_lines,
            },
            "cache": {
                # Every dispatch either hit the block cache or built
                # a trace (promotion replaces a record after a hit).
                "hits": max(0, self.dispatches - self.traces),
                "traces": self.traces,
                "compiles": self.compiles,
                "invalidations": dict(sorted(
                    self.invalidations.items())),
            },
            "demotions": dict(sorted(self.demotions.items())),
            "time_split": {
                "runs": self.runs,
                "run_seconds": self.run_seconds,
                "compile_seconds": self.compile_seconds,
                "execute_seconds": execute,
                "compile_fraction": (
                    self.compile_seconds / self.run_seconds
                    if self.run_seconds else None),
            },
        }

    def to_dict(self):
        return self.report()

    def to_json(self, indent=None):
        return json.dumps(self.report(), indent=indent)

    def __repr__(self):
        return (f"<EngineTelemetry blocks={self.compiles} "
                f"dispatches={self.dispatches}>")


def render_engine_report(source, top=None):
    """Human-readable engine report (the JIT sibling of
    :func:`repro.obs.flight.render_flight_report`).

    ``source`` is an :class:`EngineTelemetry` or an already-built
    ``EngineReport/v3`` dict.
    """
    r = source.report(top) if hasattr(source, "report") else source
    lines = [f"engine report ({r['engine'] or '?'})", "-" * 64]

    b = r["blocks"]
    lines.append(
        f"blocks            : {b['compiled']} compiled, "
        f"{b['dispatches']} dispatches, "
        f"{b['instructions']:,} instructions, {b['cycles']:,} cycles, "
        f"{b['indirect_exits']} indirect exits"
    )

    tiers = r["tiers"]
    lines.append(
        f"tiers             : promoted {tiers['promoted']} of "
        f"{tiers['traces']} traces; "
        f"{tiers['tier0_instructions']:,} insns in tier 0, "
        f"{tiers['fused_instructions']:,} fused"
    )

    shape = r["trace_shape"]
    lens = shape["lengths"]
    if lens["count"]:
        lines.append(
            f"trace shape       : mean {lens['mean']:.1f} insns, "
            f"max {lens['max']}, {shape['loop_blocks']} loop trace(s)"
        )
    if shape["ends_by_reason"]:
        lines.append("  ends by reason  : " + ", ".join(
            f"{reason}={count}" for reason, count in
            shape["ends_by_reason"].items()))

    c = r["compile"]
    split = r["time_split"]
    if split["run_seconds"]:
        lines.append(
            f"time split        : compile {c['seconds'] * 1e3:.2f}ms / "
            f"run {split['run_seconds'] * 1e3:.2f}ms "
            f"({split['compile_fraction']:.1%} compiling)"
        )
    else:
        lines.append(f"compile           : {c['seconds'] * 1e3:.2f}ms")
    lines.append(
        f"codegen           : {c['inlined_insns']} inlined + "
        f"{c['closure_insns']} closure insns over "
        f"{c['source_lines']} source lines, "
        f"{c['alloc_regs']} regs promoted"
    )

    cache = r["cache"]
    inval = cache["invalidations"]
    lines.append(
        f"block cache       : {cache['hits']} hits, "
        f"{cache['traces']} traces, {cache['compiles']} compiles"
        + (", invalidated " + ", ".join(
            f"{cause}={n}" for cause, n in inval.items())
           if inval else "")
    )
    if r["demotions"]:
        lines.append("demotions         : " + ", ".join(
            f"{cause}={n}" for cause, n in r["demotions"].items()))

    for row in r["hot_blocks"]:
        lines.append(
            f"  hot block       : {row['pc']:#10x}  "
            f"x{row['entries']:<8} {row['instructions']:>10,} insns  "
            f"{row['cycles']:>10,} cyc  ({row['cycle_share']:.1%})"
        )

    return "\n".join(lines)
