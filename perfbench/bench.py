"""The repository benchmark: workloads, the timed run and the traced run.

An *operation* is one rewrite or one emulated run.  Every run's
``(exit, output)`` is compared with :func:`repro.toolchain.interpret`
of the IR program, never with another emulator run.  An operation
fails when the rewrite is refused (a ``ReproError``) or crashes (any
other exception), when the run faults or crashes, or when the run's
``(exit, output)`` differs from the interpreter's ("wrong-output").  A
wrong output is the only *silent* failure and makes the result
incorrect.

One pass runs every operation of a workload once, in the order
``spec2017``/``evaluate_tool`` and ``repro rewrite --run`` use: run the
original, then per tool ``make_tool(...).rewrite`` and ``run_binary``
of the output.  A timed run repeats passes; the deterministic figures
(cycle overhead, coverage, size, failures) come from the first pass and
every later pass must reproduce them exactly.
"""

import dataclasses
import gc
import inspect
import json
import math
import resource
import statistics
from time import perf_counter
from typing import NamedTuple

from probes import (
    DecodeProbe,
    span_seconds,
    stage_names,
    stage_self_seconds,
    telemetry_class,
    telemetry_counts,
)

from repro.core import CountingInstrumentation
from repro.eval.harness import make_tool, runtime_for
from repro.isa import ARCH_NAMES, get_arch
from repro.machine import run_binary
from repro.obs import Tracer, content_digest
from repro.toolchain import compile_program, interpret
from repro.toolchain import workloads as wl
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRng

TABLE3_TOOLS = ("srbi", "dir", "jt", "func-ptr", "ir-lowering")
APP_TOOLS = ("dir", "jt", "func-ptr", "ir-lowering")
#: Tools that are not the incremental rewriter; their whole rewrite
#: wall is the ``baselines`` layer.
BASELINE_TOOLS = ("srbi", "ir-lowering")
APP_SPECS = {"libxul_like": wl.firefox_spec,
             "libcuda_like": wl.libcuda_spec,
             "docker_like": wl.docker_spec}

#: Every run makes at least this many passes: later passes must repeat
#: the first, and each operation's latency is its median over passes.
MIN_PASSES = 2
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclasses.dataclass(frozen=True)
class Subject:
    """One program personality on one architecture."""

    program: str
    arch: str
    tools: tuple
    #: multiplier on the personality's ``main_reps``
    reps_scale: int = 1
    #: rewrite with block-counting instrumentation instead of empty
    counting: bool = False

    @property
    def label(self):
        return f"{self.program}@{self.arch}"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    subjects: tuple
    #: seconds one pass takes on the reference host (2-core x86-64,
    #: CPython 3.11); sets how many passes fill ``--seconds``
    pass_seconds: float


def _spec_subjects(pairs, tools, **kw):
    return tuple(Subject(name, arch, tools, **kw) for arch, name in pairs)


#: Programs are fixed so that figures from different seeds compare; the
#: seed picks each program's link order (see :func:`link_order`).
WORKLOADS = {w.name: w for w in (
    # Table 3: short runs over many distinct blocks; emulator block build
    # and JIT compile dominate.  Two C++-exception programs carry the
    # paper-expected srbi/ir-lowering refusals; ppc64 602.sgcc_s has an
    # analysis-resistant jump table (coverage below 100%).
    Workload("spec-sweep", _spec_subjects((
        ("x86", "623.xalancbmk_s"), ("x86", "605.mcf_s"),
        ("ppc64", "602.sgcc_s"), ("ppc64", "603.bwaves_s"),
        ("aarch64", "620.omnetpp_s"), ("aarch64", "657.xz_s"),
    ), TABLE3_TOOLS), pass_seconds=16.0),
    # Sections 8.2/9: the largest binaries.  Each stand-in sits on one or
    # two architectures (all nine app/arch pairs take ~50 s per pass):
    # docker_like on x86, where Go rewriting works, and on aarch64, where
    # its fixed-length-ISA fault shows.  Large-binary rewrites outnumber
    # docker_like's, so the latency median is a large binary's.
    Workload("app-rewrite", (
        Subject("libxul_like", "x86", APP_TOOLS),
        Subject("libcuda_like", "ppc64", APP_TOOLS),
        Subject("docker_like", "x86", APP_TOOLS),
        Subject("docker_like", "aarch64", APP_TOOLS),
    ), pass_seconds=15.0),
    # Millions of instructions per run through a few hot blocks: the JIT
    # pays for itself and execute time matches or exceeds compile time.
    Workload("long-run", _spec_subjects((
        ("x86", "605.mcf_s"), ("x86", "619.lbm_s"),
        ("ppc64", "619.lbm_s"), ("ppc64", "603.bwaves_s"),
        ("aarch64", "605.mcf_s"), ("aarch64", "644.nab_s"),
    ), ("jt",), reps_scale=15, counting=True), pass_seconds=8.0),
)}

#: Failures expected at this commit, as (program, arch, tool, reason);
#: ``*`` matches any arch and tool ``original`` is the original run.
KNOWN_FAILURES = (
    # Paper-expected refusals: srbi and IR lowering reject C++
    # exceptions (Table 3); IR lowering rejects Rust metadata, symbol
    # versioning and Go function tables (Sections 8.2 and 9).
    ("620.omnetpp_s", "*", "srbi", "refused"),
    ("620.omnetpp_s", "*", "ir-lowering", "refused"),
    ("623.xalancbmk_s", "*", "srbi", "refused"),
    ("623.xalancbmk_s", "*", "ir-lowering", "refused"),
    # IR lowering is all-or-nothing: one unanalyzable jump table refuses
    # the whole binary.
    ("602.sgcc_s", "ppc64", "ir-lowering", "refused"),
    ("602.sgcc_s", "aarch64", "ir-lowering", "refused"),
    ("libxul_like", "*", "ir-lowering", "refused"),
    ("libcuda_like", "*", "ir-lowering", "refused"),
    ("docker_like", "*", "ir-lowering", "refused"),
    # Generator defect: docker_like's entry+1 function pointer lands
    # mid-instruction on fixed-length ISAs, so the original faults
    # (illegal instruction), its dir/jt rewrites fault too, and
    # func-ptr's pointer analysis raises KeyError.
    ("docker_like", "ppc64", "original", "faulted"),
    ("docker_like", "ppc64", "dir", "faulted"),
    ("docker_like", "ppc64", "jt", "faulted"),
    ("docker_like", "ppc64", "func-ptr", "crashed"),
    ("docker_like", "aarch64", "original", "faulted"),
    ("docker_like", "aarch64", "dir", "faulted"),
    ("docker_like", "aarch64", "jt", "faulted"),
    ("docker_like", "aarch64", "func-ptr", "crashed"),
)


def is_known(failure):
    return any(p == failure["program"] and a in ("*", failure["arch"])
               and t == failure["tool"] and r == failure["reason"]
               for p, a, t, r in KNOWN_FAILURES)


# -- inputs -------------------------------------------------------------------

@dataclasses.dataclass
class Program:
    subject: Subject
    binary: object
    reference: tuple
    #: PIE build and its reference (SPEC programs rewritten by
    #: ir-lowering, as Table 3 compiles them with -pie for Egalito)
    pie_binary: object = None
    pie_reference: tuple = None


def workload_spec(subject, pie=False):
    """The generator spec of one subject (the paper's own program)."""
    if subject.program in APP_SPECS:
        spec = APP_SPECS[subject.program]()
    else:
        spec = wl.spec_workload(subject.program, subject.arch, pie=pie)
    return dataclasses.replace(
        spec, main_reps=spec.main_reps * subject.reps_scale)


def link_order(program, seed, subject):
    """The program with its functions in a seeded link order.

    The seed permutes code layout and changes nothing else: every seed
    runs the same programs, so figures from different seeds compare,
    while addresses, branch encodings and block boundaries in the binary
    differ.
    """
    functions = list(program.functions)
    DeterministicRng(f"perfbench:{seed}:{subject.label}").shuffle(functions)
    return dataclasses.replace(program, functions=functions)


def build_inputs(workload, seed, layer_seconds):
    """Generate, compile and interpret every program of one draw.

    ``layer_seconds`` accumulates ``toolchain.build`` and
    ``toolchain.interp`` host seconds.
    """
    programs = []
    for subject in workload.subjects:
        variants = [False]
        if "ir-lowering" in subject.tools \
                and subject.program not in APP_SPECS:
            variants.append(True)
        built = []
        for pie in variants:
            t0 = perf_counter()
            program = link_order(
                wl.generate_program(workload_spec(subject, pie)),
                seed, subject)
            binary = compile_program(program, subject.arch)
            t1 = perf_counter()
            reference = interpret(program)
            t2 = perf_counter()
            layer_seconds["toolchain.build"] += t1 - t0
            layer_seconds["toolchain.interp"] += t2 - t1
            built.append((binary, (reference[0], list(reference[1]))))
        pie_binary, pie_reference = built[1] if len(built) > 1 \
            else (None, None)
        programs.append(Program(subject, built[0][0], built[0][1],
                                pie_binary, pie_reference))
    return programs


@dataclasses.dataclass
class Inputs:
    programs: list
    #: seconds of each set-up (import counted once in each), scaled to
    #: the reference host
    setup_times: list
    #: the same in host seconds
    setup_host: list
    #: ``toolchain.build``/``toolchain.interp`` seconds of the last set-up
    layers: dict
    #: set-up checks that failed
    problems: list


def set_up(workload, seed, repeats=SETUP_REPEATS, import_s=0.0):
    """Build one draw ``repeats`` times; every build must be identical.

    Each set-up is scaled by a yardstick run just before and after it.
    """
    times, host, digests = [], [], []
    for _ in range(repeats):
        layers = {"toolchain.build": 0.0, "toolchain.interp": 0.0}
        before = yardstick()
        t0 = perf_counter()
        programs = build_inputs(workload, seed, layers)
        host.append(import_s + perf_counter() - t0)
        times.append(host[-1] * speed_scale(before, yardstick()))
        digests.append(input_digests(programs))
    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("set-up is not deterministic: repeated builds of "
                        "one seed differ")
    return Inputs(programs, times, host, layers, problems)


def input_digests(programs):
    """Content digests of every input binary, in draw order."""
    out = []
    for prog in programs:
        out.append(content_digest(prog.binary))
        if prog.pie_binary is not None:
            out.append(content_digest(prog.pie_binary))
    return out


# -- one pass -----------------------------------------------------------------

#: Yardstick seconds on a quiet reference host (2-core x86-64 VM,
#: CPython 3.11); host times are scaled to this speed.
YARDSTICK_REFERENCE_S = 0.02


def yardstick():
    """Seconds a fixed piece of Python work takes right now.

    The work looks like the program's own hot paths (generate source,
    ``compile`` and ``exec`` it, call small functions over lists and
    dicts) but runs no program code, so it measures the host, not the
    program.  On a shared VM the host's speed for such work swings by up
    to 2x within seconds; consecutive readings agree within a few
    percent, so a reading just before and just after an operation gives
    the host's speed during it.
    """
    t0 = perf_counter()
    for k in range(6):
        src = "\n".join(
            f"def f{i}(r, m):\n"
            f"    a = r[{i % 8}] + {k}\n"
            f"    if a > m.get({i}, 3):\n"
            f"        r[{(i + 1) % 8}] = a & 0xffff\n"
            f"    return a" for i in range(40))
        namespace = {}
        exec(compile(src, f"<yardstick {k}>", "exec"), namespace)
        regs, table = [0] * 8, {}
        fns = [namespace[f"f{i}"] for i in range(40)]
        for _ in range(60):
            for fn in fns:
                table[fn(regs, table) & 63] = 1
    return perf_counter() - t0


def speed_scale(before, after):
    """Factor from host seconds to reference-host seconds for work done
    between two yardstick readings."""
    return 2 * YARDSTICK_REFERENCE_S / (before + after)


class Pass(NamedTuple):
    #: host seconds of the pass, yardstick readings excluded
    wall: float
    #: op records; each record's ``scale`` converts its host seconds to
    #: seconds on the reference host
    records: list
    #: the pass's operations in reference-host seconds
    ref_wall: float


def _observer_kwargs():
    """Which observers ``run_binary`` still accepts."""
    params = inspect.signature(run_binary).parameters
    return {name for name in ("tracer", "telemetry") if name in params}


class PassRunner:
    """Runs passes over one draw, timed (no observers) or traced."""

    def __init__(self, programs, trace=False):
        self.programs = programs
        self.trace = trace
        self.stages = stage_names() if trace else ()
        self.probe = DecodeProbe() if trace else None
        self.telemetry_cls = telemetry_class(self.probe) if trace \
            else None
        self.run_kwargs = _observer_kwargs() if trace else set()

    # Each op returns one record; ``det`` is what must repeat exactly.

    def _rewrite(self, prog, tool, binary):
        traced = self.trace and tool not in BASELINE_TOOLS
        tracer = Tracer() if traced else None
        instrumentation = CountingInstrumentation() \
            if prog.subject.counting else None
        rec = {"kind": "rewrite", "tool": tool}
        if self.probe is not None:
            self.probe.layer = "core"
        t0 = perf_counter()
        try:
            rewriter = make_tool(tool, instrumentation=instrumentation)
            if tracer is not None:
                rewriter.tracer = tracer
            rewritten, report = rewriter.rewrite(binary)
        except ReproError as exc:
            rec.update(status="refused", detail=_describe(exc))
            rewriter = rewritten = report = None
        except Exception as exc:  # a crash is a failed op, not a stop
            rec.update(status="crashed", detail=_describe(exc))
            rewriter = rewritten = report = None
        rec["seconds"] = perf_counter() - t0
        self._mark(rec)
        if report is not None:
            trampolines = getattr(report, "trampolines", None) or {}
            rec.update(
                status="ok",
                coverage=report.coverage,
                size_increase=report.size_increase,
                functions=getattr(report, "total_functions", 0),
                relocated=getattr(report, "relocated_functions", 0),
                trampolines=sum(trampolines.values()),
            )
            rec["det"] = (rec["coverage"], rec["size_increase"],
                          rec["functions"], rec["relocated"],
                          rec["trampolines"])
        else:
            rec["det"] = (rec["status"], rec["detail"])
        if tracer is not None:
            rec["stages"] = stage_self_seconds(tracer, self.stages)
        return rec, rewriter, rewritten

    def _run(self, prog, tool, rewriter, binary, reference):
        rec = {"kind": "run", "tool": tool}
        kwargs = {}
        tracer = telemetry = None
        if "tracer" in self.run_kwargs:
            tracer = kwargs["tracer"] = Tracer()
        if "telemetry" in self.run_kwargs \
                and self.telemetry_cls is not None:
            telemetry = kwargs["telemetry"] = self.telemetry_cls()
        if self.probe is not None:
            self.probe.layer = "machine"
        t0 = perf_counter()
        try:
            runtime = runtime_for(tool, rewriter, binary) \
                if rewriter is not None else None
            result = run_binary(binary, runtime_lib=runtime, **kwargs)
        except ReproError as exc:
            rec.update(status="faulted", detail=_describe(exc))
            result = None
        except Exception as exc:  # a crash is a failed op, not a stop
            rec.update(status="crashed", detail=_describe(exc))
            result = None
        rec["seconds"] = perf_counter() - t0
        if self.probe is not None:
            self.probe.flush()
            self.probe.layer = "other"
        self._mark(rec)
        if result is not None:
            got = (result.exit_code, list(result.output))
            rec.update(
                status="ok" if got == reference else "wrong-output",
                icount=result.icount, cycles=result.cycles,
                traps=result.counters.get("traps", 0),
                ra_translations=result.counters.get("ra_translations", 0),
            )
            if rec["status"] == "wrong-output":
                rec["detail"] = (f"got exit {got[0]} with "
                                 f"{len(got[1])} values, interpreter "
                                 f"exit {reference[0]} with "
                                 f"{len(reference[1])} values")
            rec["det"] = (rec["status"], result.icount, result.cycles,
                          got[0], tuple(got[1]))
        else:
            rec["det"] = (rec["status"], rec["detail"])
        if tracer is not None:
            rec["machine_run_s"] = span_seconds(tracer, "machine-run")
        if telemetry is not None:
            rec["jit"] = telemetry_counts(telemetry)
        return rec

    def run_pass(self):
        """One pass; returns a :class:`Pass`."""
        gc.collect()
        if self.probe is not None:
            self.probe.install(get_arch(a) for a in ARCH_NAMES)
        records = []
        self._yard, self._yard_seconds = yardstick(), 0.0
        t0 = perf_counter()
        try:
            for prog in self.programs:
                records += self._subject_ops(prog)
        finally:
            wall = perf_counter() - t0 - self._yard_seconds
            if self.probe is not None:
                self.probe.remove()
        return Pass(wall, records,
                    sum(r["seconds"] * r["scale"] for r in records))

    def _mark(self, rec):
        """Read the yardstick right after an operation; the operation's
        scale comes from the readings just before and after it."""
        t0 = perf_counter()
        after = yardstick()
        self._yard_seconds += perf_counter() - t0
        rec["scale"] = speed_scale(self._yard, after)
        self._yard = after

    def _subject_ops(self, prog):
        subject = prog.subject
        tag = {"program": subject.program, "arch": subject.arch}
        out = []
        base = self._run(prog, "original", None, prog.binary,
                         prog.reference)
        out.append(base)
        pie_base = None
        if prog.pie_binary is not None:
            pie_base = self._run(prog, "original-pie", None,
                                 prog.pie_binary, prog.pie_reference)
            out.append(pie_base)
        for tool in subject.tools:
            binary, reference, against = prog.binary, prog.reference, base
            if tool == "ir-lowering" and pie_base is not None:
                binary, reference = prog.pie_binary, prog.pie_reference
                against = pie_base
            rw, rewriter, rewritten = self._rewrite(prog, tool, binary)
            out.append(rw)
            if rewritten is None:
                continue
            run = self._run(prog, tool, rewriter, rewritten, reference)
            if run["status"] == "ok" and against["status"] == "ok":
                run["overhead"] = run["cycles"] / against["cycles"]
                run["rewrite"] = rw
            out.append(run)
        for rec in out:
            rec.update(tag)
        return out


def _describe(exc):
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"[:160]


# -- statistics ---------------------------------------------------------------

def quantile(samples, q):
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics instead of one of them:
    operation latencies come in clusters (one per program and tool), and
    a single order statistic jumps between clusters when noise reorders
    two neighbours.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples):
    """``(label, value)`` of a latency tail: the highest integer
    percentile with at least ten samples beyond its nearest rank.  Below
    20 samples none at or above the median qualifies and the tail is the
    slowest sample ("max"), estimated as the ``n/(n+1)`` quantile.  Both
    use :func:`quantile`."""
    n = len(samples)
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return f"p{q}", quantile(samples, q / 100)
    return "max", quantile(samples, n / (n + 1))


def passes_for(workload, seconds):
    """Passes a run makes: enough to fill ``seconds`` on the reference
    host.  The count depends on the arguments only, never on the host's
    speed on the day, so every run of a workload has the same samples."""
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def op_rows(passes):
    """One row per operation: its median time over all passes, on the
    host and scaled to the reference host."""
    rows = []
    for i, rec in enumerate(passes[0].records):
        ops = [p.records[i] for p in passes]
        rows.append({
            "program": rec["program"], "arch": rec["arch"],
            "tool": rec["tool"], "op": rec["kind"], "status": rec["status"],
            "host_ms": round(statistics.median(
                r["seconds"] for r in ops) * 1e3, 3),
            "ms": round(statistics.median(
                r["seconds"] * r["scale"] for r in ops) * 1e3, 3)})
    return rows


def failures(records, workload):
    return [{"workload": workload, "program": r["program"],
             "arch": r["arch"], "tool": r["tool"], "op": r["kind"],
             "reason": r["status"], "detail": r.get("detail", "")}
            for r in records if r["status"] != "ok"]


def end_to_end(passes, setup_times):
    """The end-to-end metrics of a timed run.

    ``passes`` is a list of :class:`Pass` over the same operations; a
    latency sample is one operation's median over the passes, and
    deterministic figures come from the first pass.  Host times are
    scaled to the reference host by each operation's yardstick scale.
    """
    first = passes[0].records

    def latencies(kind):
        return [statistics.median(p.records[i]["seconds"]
                                  * p.records[i]["scale"] for p in passes)
                * 1e3 for i, r in enumerate(first)
                if r["kind"] == kind and r["status"] == "ok"]

    rewrites = latencies("rewrite")
    run_ms = latencies("run")
    runs = [r for p in passes for r in p.records
            if r["kind"] == "run" and r["status"] == "ok"]
    passing = [r for r in first if "overhead" in r]
    rewrite_tail = tail(rewrites)
    run_tail = tail(run_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.ref_wall for p in passes), "s"),
        "rewrite_p50_ms": (quantile(rewrites, 0.5), "ms"),
        "rewrite_tail_ms": (rewrite_tail[1], "ms"),
        "run_p50_ms": (quantile(run_ms, 0.5), "ms"),
        "run_tail_ms": (run_tail[1], "ms"),
        "emulated_mips": (sum(r["icount"] for r in runs)
                          / sum(r["seconds"] * r["scale"] for r in runs)
                          / 1e6, "Minsn/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "pass_frac": (sum(r["status"] == "ok" for r in first) / len(first),
                      "frac"),
        "overhead_pct": ((math.exp(statistics.fmean(
            math.log(r["overhead"]) for r in passing)) - 1) * 100,
            "%sim-cycles"),
        "coverage_pct": (statistics.fmean(
            r["rewrite"]["coverage"] for r in passing) * 100, "%functions"),
        "size_increase_pct": (statistics.fmean(
            r["rewrite"]["size_increase"] for r in passing) * 100,
            "%bytes"),
    }
    tails = {
        "rewrite_tail_ms": {"percentile": rewrite_tail[0],
                            "operations": len(rewrites)},
        "run_tail_ms": {"percentile": run_tail[0],
                        "operations": len(run_ms)},
        "passes": len(passes),
    }
    return metrics, tails


def per_layer(untraced, traced, setup_layers, probe):
    """The per-layer metrics of a traced run, per traced pass.

    ``untraced``/``traced`` are lists of :class:`Pass`.  Layer times are
    host seconds; only ``trace.overhead_frac`` compares passes, so it
    alone is scaled by the yardstick.
    """
    n = len(traced)
    records = [r for p in traced for r in p.records]
    rewrites = [r for r in records if r["kind"] == "rewrite"]
    runs = [r for r in records if r["kind"] == "run"]
    done_runs = [r for r in runs if "icount" in r]
    reports = [r for r in rewrites if r["status"] == "ok"]

    def per_pass(value):
        return None if value is None else value / n

    stages = stage_names()
    stage_total = {s: 0.0 for s in stages}
    incremental_wall = 0.0
    for r in rewrites:
        if r["tool"] in BASELINE_TOOLS:
            continue
        incremental_wall += r["seconds"]
        for s, sec in r.get("stages", {}).items():
            stage_total[s] = stage_total.get(s, 0.0) + sec
    baseline_wall = sum(r["seconds"] for r in rewrites
                        if r["tool"] in BASELINE_TOOLS)
    run_wall = sum(r["seconds"] for r in runs)
    spans = [r.get("machine_run_s") for r in runs]
    machine_run = None if None in spans else sum(spans)
    jit = _sum_jit(runs)
    decode_calls = probe.calls if probe is not None else {}

    out = {}
    out["toolchain.build_s"] = setup_layers["toolchain.build"]
    out["toolchain.interp_s"] = setup_layers["toolchain.interp"]
    for name in ("cfg-construction", "funcptr-analysis",
                 "degradation-planning", "cfl-computation",
                 "trampoline-placement", "relocation",
                 "trampoline-installation", "funcptr-redirection",
                 "emit-layout"):
        layer = "analysis" if name in ("cfg-construction",
                                       "funcptr-analysis") else "core"
        out[f"{layer}.{name}_s"] = per_pass(
            stage_total[name] if name in stage_total else None)
    out["core.unattributed_s"] = per_pass(
        incremental_wall - sum(stage_total.values()))
    out["baselines.rewrite_s"] = per_pass(baseline_wall)
    out["isa.decode.core_calls"] = per_pass(decode_calls.get("core", 0))
    out["isa.decode.machine_calls"] = per_pass(
        decode_calls.get("machine", 0))
    out["isa.decode_s"] = per_pass(probe.seconds if probe else None)
    out["machine.setup_s"] = per_pass(
        None if machine_run is None else run_wall - machine_run)
    out["machine.run_s"] = per_pass(machine_run)
    out["machine.insns"] = per_pass(sum(r["icount"] for r in done_runs))
    out["machine.jit.compile_s"] = per_pass(jit["compile_s"])
    out["machine.jit.compiles"] = per_pass(jit["compiles"])
    out["machine.jit.insns_fused"] = per_pass(jit["insns_fused"])
    out["machine.jit.payback"] = _ratio(jit["block_insns"],
                                        jit["insns_fused"])
    out["machine.jit.guard_checks"] = per_pass(jit["guard_checks"])
    out["machine.jit.guard_miss_frac"] = _ratio(jit["guard_misses"],
                                                jit["guard_checks"])
    execute = None
    if machine_run is not None:
        execute = machine_run - (jit["compile_s"] or 0.0) \
            - (probe.machine_outside_compile if probe else 0.0)
    out["machine.execute_s"] = per_pass(execute)
    out["core.functions"] = per_pass(sum(r["functions"] for r in reports))
    out["core.relocated_functions"] = per_pass(
        sum(r["relocated"] for r in reports))
    out["core.trampolines"] = per_pass(
        sum(r["trampolines"] for r in reports))
    out["machine.traps"] = per_pass(sum(r["traps"] for r in done_runs))
    out["machine.ra_translations"] = per_pass(
        sum(r["ra_translations"] for r in done_runs))
    out["trace.overhead_frac"] = (
        statistics.median(p.ref_wall for p in traced)
        / statistics.median(p.ref_wall for p in untraced) - 1)
    layers = sum(r["seconds"] for r in records)
    out["trace.attributed_frac"] = layers / sum(p.wall for p in traced)
    return out


def _sum_jit(runs):
    keys = ("compile_s", "compiles", "insns_fused", "block_insns",
            "guard_checks", "guard_misses")
    totals = dict.fromkeys(keys, 0)
    for r in runs:
        counts = r.get("jit")
        for key in keys:
            value = counts.get(key) if counts is not None else None
            if value is None or totals[key] is None:
                totals[key] = None
            else:
                totals[key] += value
    return totals


def _ratio(num, den):
    if num is None or not den:
        return None
    return num / den


#: Unit of every count and ratio among the per-layer metrics; every
#: other per-layer metric is host seconds.
LAYER_UNITS = {
    "isa.decode.core_calls": "calls",
    "isa.decode.machine_calls": "calls",
    "machine.insns": "insns",
    "machine.jit.compiles": "blocks",
    "machine.jit.insns_fused": "insns",
    "machine.jit.payback": "insns/insn",
    "machine.jit.guard_checks": "checks",
    "machine.jit.guard_miss_frac": "frac",
    "core.functions": "functions",
    "core.relocated_functions": "functions",
    "core.trampolines": "trampolines",
    "machine.traps": "traps",
    "machine.ra_translations": "translations",
    "trace.overhead_frac": "frac",
    "trace.attributed_frac": "frac",
}


def layer_unit(name):
    return LAYER_UNITS.get(name, "s")


# -- one run ------------------------------------------------------------------

def execute(workload, seed, seconds, trace, import_s=0.0, inputs=None):
    """One benchmark run; returns ``(result, lines, exit_code)``.

    ``result`` is the JSON result object, ``lines`` the human-readable
    report.  The timed run (``trace`` false) makes whole passes with no
    observers; the traced run alternates untraced and traced passes over
    the same draw.  ``inputs`` reuses an already built draw.
    """
    if inputs is None:
        inputs = set_up(workload, seed, repeats=1 if trace
                        else SETUP_REPEATS, import_s=import_s)
    problems = list(inputs.problems)
    lines = []
    timed = PassRunner(inputs.programs)
    first = timed.run_pass()
    total = passes_for(workload, seconds)
    if trace:
        traced_runner = PassRunner(inputs.programs, trace=True)
        untraced, traced = [first], []
        for i in range(1, max(2, total)):
            if i % 2:
                traced.append(traced_runner.run_pass())
            else:
                untraced.append(timed.run_pass())
        passes = untraced + traced
    else:
        passes = [first] + [timed.run_pass() for _ in range(total - 1)]

    reference = [r["det"] for r in first.records]
    if any([r["det"] for r in p.records] != reference for p in passes):
        problems.append("passes differ: a repeated operation gave another "
                        "result")
    else:
        lines += ["op " + json.dumps(row) for row in op_rows(passes)]
    fails = failures(first.records, workload.name)
    for f in fails:
        f["known"] = is_known(f)
        lines.append("failure " + json.dumps(f))
    problems += [f"silent wrong output: {f['program']}@{f['arch']} "
                 f"{f['tool']}: {f['detail']}"
                 for f in fails if f["reason"] == "wrong-output"]
    unexpected = sum(1 for f in fails if not f["known"])

    if trace:
        values = per_layer(untraced, traced, inputs.layers,
                           traced_runner.probe)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in values.items()}
        traced_ops = [r for p in traced for r in p.records]
        traced_wall = sum(p.wall for p in traced)
        lines.append("shares " + json.dumps({
            kind: round(sum(r["seconds"] for r in traced_ops
                            if r["kind"] == kind) / traced_wall, 4)
            for kind in ("rewrite", "run")}))
        absent = sorted(n for n, v in values.items() if v is None)
        if absent:
            lines.append("absent " + json.dumps(absent))
        if values["trace.attributed_frac"] < 0.95:
            problems.append("traced layers cover only "
                            f"{values['trace.attributed_frac']:.1%} of "
                            "traced wall time")
    else:
        values, tails = end_to_end(passes, inputs.setup_times)
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in values.items()}
        lines.append("tails " + json.dumps(tails))

    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"metric {name:34s} {value:>14s} {m['unit']}")
    lines += ["CHECK FAILED: " + p for p in problems]
    ops = sum(len(p.records) for p in passes)
    lines.append("host " + json.dumps({
        "passes": len(passes), "operations": ops,
        "pass_host_s": [round(p.wall, 3) for p in passes],
        "speed_scale": [round(p.ref_wall / p.wall, 4) for p in passes],
        "setup_host_s": [round(t, 3) for t in inputs.setup_host]}))
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": unexpected * len(passes),
        "metrics": metrics,
    }
    return result, lines, 0 if not problems else 1
