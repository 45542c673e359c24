"""The performance observatory: persisted benchmark history plus a
regression sentinel.

The paper's claims are quantitative (Table 3 overhead, Fig. 1 layout
cost), so perf must be a *trajectory*, not a throwaway number.  This
module gives every measured run a durable, comparable identity:

* :class:`PerfSample` — one rewrite's performance record under a shared
  schema: per-stage wall times (the :data:`~repro.core.rewriter
  .PIPELINE_STAGES` spans), per-stage and whole-rewrite peak traced
  memory, artifact-cache accounting, trampoline/trap counts, and the
  emulated machine's instruction/cycle totals.
* :class:`EnvFingerprint` — python/platform/cpu/git-sha identity stamped
  on every sample so baselines never mix machines or commits.
* :class:`BenchHistory` — the append-only, schema-versioned store behind
  ``BENCH_history.json``; atomic writes, corrupt and foreign entries
  skipped (counted) on load but preserved on append.
* :class:`RegressionSentinel` — grades the latest sample against a
  rolling baseline (median of the last N same-fingerprint samples of the
  same workload/arch/mode) with per-metric-kind thresholds; ``fail``
  findings are the CI gate behind ``repro perf check``.

Everything is stdlib-only, like the rest of :mod:`repro.obs`.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.obs.store import atomic_write_text, parse_entries
from repro.obs.trace import format_bytes

#: Schema tags; bump the version when a field changes meaning.
PERF_SAMPLE_SCHEMA = "PerfSample/v1"
HISTORY_SCHEMA = "BENCH_history/v1"
BENCH_RECORD_SCHEMA = "BENCH_record/v1"
TREND_SCHEMA = "PerfTrend/v1"

DEFAULT_HISTORY = "BENCH_history.json"

#: Severity ladder for sentinel findings.
SEVERITIES = ("ok", "info", "warn", "fail")


# -- environment fingerprint ------------------------------------------------


class EnvFingerprint:
    """Where a sample came from: enough identity to refuse comparing
    apples to oranges, small enough to stamp on every record."""

    __slots__ = ("python", "platform", "cpus", "git_sha")

    def __init__(self, python, platform, cpus, git_sha=None):
        self.python = python
        self.platform = platform
        self.cpus = cpus
        self.git_sha = git_sha

    @classmethod
    def collect(cls, git_sha=None):
        """The running interpreter's fingerprint (git sha best-effort)."""
        if git_sha is None:
            git_sha = _git_sha()
        return cls(
            python="%d.%d.%d" % sys.version_info[:3],
            platform=f"{platform.system()}-{platform.machine()}",
            cpus=os.cpu_count() or 1,
            git_sha=git_sha,
        )

    @property
    def key(self):
        """Baseline-grouping identity: same machine shape + interpreter.

        The git sha is deliberately *not* part of the key — the whole
        point of the history is comparing across commits."""
        return (self.python, self.platform, self.cpus)

    def to_dict(self):
        out = {"python": self.python, "platform": self.platform,
               "cpus": self.cpus}
        if self.git_sha:
            out["git_sha"] = self.git_sha
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(python=data["python"], platform=data["platform"],
                   cpus=data["cpus"], git_sha=data.get("git_sha"))

    def __eq__(self, other):
        return (isinstance(other, EnvFingerprint)
                and self.key == other.key
                and self.git_sha == other.git_sha)

    def __repr__(self):
        sha = self.git_sha or "?"
        return (f"<EnvFingerprint py{self.python} {self.platform} "
                f"x{self.cpus} @{sha}>")


def _git_sha():
    """Short HEAD sha of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def stamp_record(record, fingerprint=None):
    """Stamp one benchmark JSON row with schema + fingerprint.

    The shared helper behind every ``bench_*.py`` machine-readable
    record (``benchmarks/conftest.py`` routes all of them through here),
    so BENCH_*.json rows are self-describing and baseline-attributable.
    """
    if fingerprint is None:
        fingerprint = EnvFingerprint.collect()
    stamped = {"schema": BENCH_RECORD_SCHEMA,
               "fingerprint": fingerprint.to_dict()}
    stamped.update(record)
    return stamped


# -- the sample schema ------------------------------------------------------


class PerfSample:
    """One measured rewrite (and optionally its emulated run), under the
    shared schema every history entry and bench record speaks."""

    __slots__ = ("workload", "arch", "mode", "total_seconds",
                 "stage_seconds", "stage_mem_peak", "mem_peak",
                 "cache_hits", "cache_misses", "trampolines", "traps",
                 "instructions", "cycles", "engine_compile_seconds",
                 "fingerprint", "unix_time")

    def __init__(self, workload, arch, mode, total_seconds,
                 stage_seconds=None, stage_mem_peak=None, mem_peak=None,
                 cache_hits=0, cache_misses=0, trampolines=None,
                 traps=0, instructions=None, cycles=None,
                 engine_compile_seconds=None, fingerprint=None,
                 unix_time=None):
        self.workload = workload
        self.arch = arch
        self.mode = mode
        self.total_seconds = total_seconds
        #: per-stage wall seconds, keyed by PIPELINE_STAGES span name
        self.stage_seconds = dict(stage_seconds or {})
        #: per-stage peak traced bytes (empty when memory accounting off)
        self.stage_mem_peak = dict(stage_mem_peak or {})
        self.mem_peak = mem_peak
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.trampolines = dict(trampolines or {})
        self.traps = traps
        self.instructions = instructions
        self.cycles = cycles
        #: engine-observatory field (optional, stays within /v1: old
        #: readers tolerate its absence, new readers its presence)
        self.engine_compile_seconds = engine_compile_seconds
        self.fingerprint = fingerprint or EnvFingerprint.collect()
        self.unix_time = time.time() if unix_time is None else unix_time

    @property
    def key(self):
        """What a baseline must share: (workload, arch, mode)."""
        return (self.workload, self.arch, self.mode)

    @classmethod
    def from_rewrite(cls, trace, metrics, report, workload, arch, mode,
                     total_seconds, instructions=None, cycles=None,
                     engine_compile_seconds=None, fingerprint=None):
        """Build a sample off one observed rewrite: the tracer's
        ``rewrite`` span supplies per-stage times and memory peaks, the
        metrics registry the cache accounting, the
        :class:`~repro.core.rewriter.RewriteReport` the trampoline/trap
        shape, and an optional machine run the dynamic totals."""
        root = trace.finish() if hasattr(trace, "finish") else trace
        rewrite_span = (root.find("rewrite") or root) \
            if root is not None else None
        stage_seconds = {}
        stage_mem = {}
        mem_peak = None
        if rewrite_span is not None:
            mem_peak = rewrite_span.mem_peak
            for stage in rewrite_span.children:
                stage_seconds[stage.name] = stage.duration
                if stage.mem_peak is not None:
                    stage_mem[stage.name] = stage.mem_peak
        counters = (metrics.counter_values()
                    if hasattr(metrics, "counter_values") else {})
        return cls(
            workload=workload, arch=arch, mode=str(mode),
            total_seconds=total_seconds,
            stage_seconds=stage_seconds,
            stage_mem_peak=stage_mem,
            mem_peak=mem_peak,
            cache_hits=counters.get("cache.hits", 0),
            cache_misses=counters.get("cache.misses", 0),
            trampolines=dict(getattr(report, "trampolines", {}) or {}),
            traps=getattr(report, "traps", 0),
            instructions=instructions,
            cycles=cycles,
            engine_compile_seconds=engine_compile_seconds,
            fingerprint=fingerprint,
        )

    def to_dict(self):
        out = {
            "schema": PERF_SAMPLE_SCHEMA,
            "workload": self.workload,
            "arch": self.arch,
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "trampolines": dict(self.trampolines),
            "traps": self.traps,
            "fingerprint": self.fingerprint.to_dict(),
            "unix_time": self.unix_time,
        }
        if self.stage_mem_peak:
            out["stage_mem_peak"] = dict(self.stage_mem_peak)
        if self.mem_peak is not None:
            out["mem_peak"] = self.mem_peak
        if self.instructions is not None:
            out["instructions"] = self.instructions
        if self.cycles is not None:
            out["cycles"] = self.cycles
        if self.engine_compile_seconds is not None:
            out["engine_compile_seconds"] = self.engine_compile_seconds
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse one history entry; raises ValueError on corrupt or
        foreign input (wrong shape, missing schema, alien schema).
        Keys this reader does not know — such as the retired engine
        guard rate older histories carry — are ignored."""
        if not isinstance(data, dict):
            raise ValueError(f"not a sample object: {type(data).__name__}")
        schema = data.get("schema", "")
        if not isinstance(schema, str) \
                or not schema.startswith("PerfSample/"):
            raise ValueError(f"foreign schema {schema!r}")
        try:
            return cls(
                workload=data["workload"],
                arch=data["arch"],
                mode=data["mode"],
                total_seconds=float(data["total_seconds"]),
                stage_seconds=dict(data.get("stage_seconds", {})),
                stage_mem_peak=dict(data.get("stage_mem_peak", {})),
                mem_peak=data.get("mem_peak"),
                cache_hits=data.get("cache_hits", 0),
                cache_misses=data.get("cache_misses", 0),
                trampolines=dict(data.get("trampolines", {})),
                traps=data.get("traps", 0),
                instructions=data.get("instructions"),
                cycles=data.get("cycles"),
                engine_compile_seconds=data.get(
                    "engine_compile_seconds"),
                fingerprint=EnvFingerprint.from_dict(
                    data["fingerprint"]),
                unix_time=data.get("unix_time", 0.0),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"corrupt sample: {exc}")

    def __repr__(self):
        return (f"<PerfSample {self.workload}/{self.arch}/{self.mode} "
                f"{self.total_seconds * 1e3:.1f}ms>")


# -- the history store ------------------------------------------------------


class BenchHistory:
    """Append-only store behind ``BENCH_history.json``.

    The document is ``{"schema": "BENCH_history/v1", "samples": [...]}``.
    Writes are atomic and loading skips — and counts on :attr:`skipped`
    — entries that are corrupt or carry a foreign schema, while
    appending preserves those raw entries verbatim, so a newer writer
    never destroys an older (or future) reader's data: the shared obs
    persistence discipline of :mod:`repro.obs.store` (the receipt
    ledger speaks it too).  An unparseable *document* starts a fresh
    history rather than crashing.
    """

    def __init__(self, path=DEFAULT_HISTORY):
        self.path = path
        #: corrupt/foreign entries seen by the most recent load()
        self.skipped = 0

    def _read_raw(self):
        try:
            with open(self.path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            return []
        except (OSError, json.JSONDecodeError):
            return None   # unreadable document (distinct from empty)
        if not isinstance(doc, dict):
            return None
        samples = doc.get("samples")
        return samples if isinstance(samples, list) else None

    def load(self):
        """Every parseable :class:`PerfSample`, oldest first."""
        raw = self._read_raw()
        if raw is None:
            self.skipped = 1 if os.path.exists(self.path) else 0
            return []
        samples, self.skipped = parse_entries(raw, PerfSample.from_dict)
        return samples

    def append(self, sample):
        """Append one sample and atomically rewrite the document."""
        raw = self._read_raw()
        if raw is None:
            raw = []
        raw.append(sample.to_dict())
        doc = {"schema": HISTORY_SCHEMA, "samples": raw}
        return atomic_write_text(self.path, json.dumps(doc, indent=2),
                                 prefix=".bench-history-")


# -- the regression sentinel ------------------------------------------------

#: (warn, fail) relative-increase thresholds per metric kind.  Wall
#: times and memory are noisy (GC, allocator, machine load) so their
#: gates are loose; emulated instruction/cycle/trampoline counts are
#: deterministic so theirs are tight.
THRESHOLDS = {
    "time": (0.30, 0.75),
    "mem": (0.25, 0.60),
    "count": (0.02, 0.10),
}

#: Noise floors: a baseline below the floor is graded against the floor
#: instead, so a 0.2ms stage doubling to 0.4ms never trips the gate.
FLOORS = {
    "time": 0.002,       # 2 ms
    "mem": 256 * 1024,   # 256 KiB
    "count": 64,
}


def newest_per_key(samples):
    """The newest sample of every distinct (workload, arch, mode) key,
    in first-appearance order.

    ``repro perf check --each`` grades each of these against its own
    rolling baseline, so a history holding both rewrite samples and
    emulator-throughput samples gates every family, not just whichever
    happened to be appended last.
    """
    newest = {}
    for sample in samples:
        newest[sample.key] = sample
    return list(newest.values())


def sample_metrics(sample):
    """``{metric name: (kind, value)}`` for everything the sentinel
    grades in one sample."""
    out = {"total_seconds": ("time", sample.total_seconds)}
    for stage, seconds in sample.stage_seconds.items():
        out[f"stage.{stage}.seconds"] = ("time", seconds)
    if sample.mem_peak is not None:
        out["mem_peak"] = ("mem", sample.mem_peak)
    for stage, peak in sample.stage_mem_peak.items():
        out[f"stage.{stage}.mem_peak"] = ("mem", peak)
    if sample.instructions is not None:
        out["instructions"] = ("count", sample.instructions)
    if sample.cycles is not None:
        out["cycles"] = ("count", sample.cycles)
    if sample.trampolines:
        out["trampolines.total"] = \
            ("count", sum(sample.trampolines.values()))
    out["traps"] = ("count", sample.traps)
    if sample.engine_compile_seconds is not None:
        out["engine.compile_seconds"] = \
            ("time", sample.engine_compile_seconds)
    return out


class Finding:
    """One graded metric comparison."""

    __slots__ = ("metric", "severity", "baseline", "latest", "increase",
                 "note")

    def __init__(self, metric, severity, baseline=None, latest=None,
                 increase=None, note=""):
        self.metric = metric
        self.severity = severity
        self.baseline = baseline
        self.latest = latest
        self.increase = increase
        self.note = note

    def __repr__(self):
        return f"<Finding {self.severity}: {self.metric} {self.note}>"


class SentinelReport:
    """The sentinel's verdict on one candidate sample."""

    __slots__ = ("grade", "findings", "candidate", "baseline_size",
                 "window")

    def __init__(self, grade, findings, candidate=None, baseline_size=0,
                 window=0):
        self.grade = grade
        self.findings = findings
        self.candidate = candidate
        self.baseline_size = baseline_size
        self.window = window

    @property
    def failed(self):
        return self.grade == "fail"


class RegressionSentinel:
    """Grades the newest sample against a rolling same-fingerprint
    baseline.

    The baseline for a candidate is the *median*, per metric, of the
    last ``window`` earlier samples sharing the candidate's
    workload/arch/mode key **and** environment fingerprint key — mixed
    machines or interpreters never pollute it.  Histories with fewer
    than ``min_baseline`` eligible samples grade ``info`` (insufficient
    history) and can never fail, so a fresh checkout's first run is
    quiet.
    """

    def __init__(self, window=5, min_baseline=1,
                 thresholds=None, floors=None):
        self.window = window
        self.min_baseline = max(1, min_baseline)
        self.thresholds = dict(THRESHOLDS, **(thresholds or {}))
        self.floors = dict(FLOORS, **(floors or {}))

    def baseline_pool(self, samples, candidate):
        """Earlier same-key, same-fingerprint samples (newest last)."""
        pool = [s for s in samples
                if s is not candidate
                and s.key == candidate.key
                and s.fingerprint.key == candidate.fingerprint.key]
        return pool[-self.window:]

    def check(self, samples, candidate=None):
        """Grade ``candidate`` (default: the newest sample) against its
        rolling baseline; returns a :class:`SentinelReport`."""
        samples = list(samples)
        if not samples:
            return SentinelReport(
                "info",
                [Finding("history", "info", note="no samples recorded")],
                window=self.window,
            )
        if candidate is None:
            candidate = samples[-1]
        pool = self.baseline_pool(samples, candidate)
        if len(pool) < self.min_baseline:
            return SentinelReport(
                "info",
                [Finding(
                    "history", "info",
                    note=(f"insufficient history: {len(pool)} baseline "
                          f"sample(s), need {self.min_baseline} with "
                          f"the same workload/arch/mode and "
                          f"fingerprint"),
                )],
                candidate=candidate, baseline_size=len(pool),
                window=self.window,
            )
        findings = []
        latest = sample_metrics(candidate)
        pool_metrics = [sample_metrics(s) for s in pool]
        for metric, (kind, value) in sorted(latest.items()):
            history = [pm[metric][1] for pm in pool_metrics
                       if metric in pm and pm[metric][0] == kind]
            if not history:
                continue
            baseline = statistics.median(history)
            warn_thr, fail_thr = self.thresholds[kind]
            floor = self.floors[kind]
            increase = (value - baseline) / max(baseline, floor)
            if increase >= fail_thr:
                severity = "fail"
            elif increase >= warn_thr:
                severity = "warn"
            elif increase <= -warn_thr:
                severity = "info"   # a big improvement is worth a line
            else:
                continue
            findings.append(Finding(
                metric, severity, baseline=baseline, latest=value,
                increase=increase,
                note=("improved" if increase < 0 else
                      f"+{increase:.0%} over baseline "
                      f"(warn {warn_thr:.0%} / fail {fail_thr:.0%})"),
            ))
        findings.sort(key=lambda f: (-SEVERITIES.index(f.severity),
                                     -(f.increase or 0)))
        grade = max((f.severity for f in findings),
                    key=SEVERITIES.index, default="ok")
        return SentinelReport(grade, findings, candidate=candidate,
                              baseline_size=len(pool),
                              window=self.window)


# -- rendering --------------------------------------------------------------


def _fmt_metric(metric, value):
    if value is None:
        return "-"
    if metric.endswith("seconds"):
        return f"{value * 1e3:.2f}ms"
    if "mem" in metric:
        return format_bytes(value)
    return f"{value:,.0f}" if value == int(value) else f"{value:,.2f}"


def render_sentinel_report(report):
    """Human-readable verdict for ``repro perf check``."""
    lines = []
    if report.candidate is not None:
        workload, arch, mode = report.candidate.key
        lines.append(
            f"perf check: {workload}/{arch}/{mode} vs median of "
            f"{report.baseline_size} baseline sample(s) "
            f"(window {report.window})"
        )
    else:
        lines.append("perf check")
    if not report.findings:
        lines.append("  all metrics within thresholds")
    for f in report.findings:
        if f.baseline is None and f.latest is None:
            lines.append(f"  [{f.severity:<4}] {f.metric}: {f.note}")
        else:
            lines.append(
                f"  [{f.severity:<4}] {f.metric}: "
                f"{_fmt_metric(f.metric, f.baseline)} -> "
                f"{_fmt_metric(f.metric, f.latest)}  {f.note}"
            )
    lines.append(f"grade: {report.grade.upper()}")
    return "\n".join(lines)


def trend_document(samples, window=8):
    """The machine-readable twin of :func:`render_trend` — the body of
    ``repro perf report --json``.

    One schema-tagged document: every workload/arch/mode key with its
    sample count, distinct fingerprint count, and the last ``window``
    samples as full :meth:`PerfSample.to_dict` rows, so CI and external
    tooling consume the history without scraping the table."""
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    keys = []
    for key in sorted(by_key):
        workload, arch, mode = key
        group = by_key[key]
        keys.append({
            "workload": workload,
            "arch": arch,
            "mode": mode,
            "samples": len(group),
            "fingerprints": len({s.fingerprint.key for s in group}),
            "rows": [s.to_dict() for s in group[-window:]],
        })
    return {"schema": TREND_SCHEMA, "samples": len(samples),
            "window": window, "keys": keys}


def render_trend(samples, window=8):
    """A per-workload trend table across the history — the body of
    ``repro perf report``."""
    if not samples:
        return "(empty history)"
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    lines = [f"perf history — {len(samples)} sample(s), "
             f"{len(by_key)} workload key(s)"]
    for key in sorted(by_key):
        workload, arch, mode = key
        rows = by_key[key][-window:]
        fingerprints = {s.fingerprint.key for s in by_key[key]}
        lines.append("")
        lines.append(f"{workload}/{arch}/{mode}  "
                     f"({len(by_key[key])} sample(s), "
                     f"{len(fingerprints)} fingerprint(s))")
        lines.append(f"  {'#':>3}  {'git':<8} {'total':>9}  "
                     f"{'mem peak':>9}  {'cycles':>12}  "
                     f"{'cache h/m':>10}  {'traps':>6}")
        base = len(by_key[key]) - len(rows)
        for i, s in enumerate(rows):
            sha = s.fingerprint.git_sha or "-"
            cycles = f"{s.cycles:,}" if s.cycles is not None else "-"
            lines.append(
                f"  {base + i + 1:>3}  {sha:<8} "
                f"{s.total_seconds * 1e3:>7.1f}ms  "
                f"{format_bytes(s.mem_peak) or '-':>9}  "
                f"{cycles:>12}  "
                f"{s.cache_hits}/{s.cache_misses:<5}  "
                f"{s.traps:>6}"
            )
    return "\n".join(lines)
