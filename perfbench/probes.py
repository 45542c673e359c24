"""Observers for the traced run, all attached from the benchmark's side.

Nothing here edits ``src/``: the traced run reads the ``Tracer`` spans
and ``EngineTelemetry`` counters the system already emits, and counts
instruction decodes by shadowing ``decode`` on the three ``ArchSpec``
singletons for the duration of the traced passes.  Every observer field
is looked up with a default, so a later change that deletes a mechanism
(speculation guards, telemetry, a pipeline stage) turns the matching
metric into ``None`` ("absent") instead of crashing the benchmark.
"""

from time import perf_counter


def stage_names():
    """The rewrite pipeline's stage span names (empty when the pipeline
    no longer publishes them)."""
    try:
        from repro.core.rewriter import PIPELINE_STAGES
    except ImportError:
        return ()
    return tuple(PIPELINE_STAGES)


def stage_self_seconds(tracer, stages):
    """``{stage: seconds}`` for one traced rewrite.

    A stage's time is its span's duration minus any stage span nested
    inside it, so stages never double count.  Per-function work-item
    spans inside a stage stay part of that stage.
    """
    out = {}
    root = getattr(tracer, "root", None)
    if root is None:
        return out
    stage_set = set(stages)

    def nested_stage_time(span):
        total = 0.0
        for child in span.children:
            if child.name in stage_set:
                total += child.duration
            else:
                total += nested_stage_time(child)
        return total

    for span in root.iter_spans():
        if span.name in stage_set:
            own = span.duration - nested_stage_time(span)
            out[span.name] = out.get(span.name, 0.0) + own
    return out


def span_seconds(tracer, name):
    """Duration of the first span called ``name``, or None."""
    find = getattr(tracer, "find", None)
    span = find(name) if find is not None else None
    return span.duration if span is not None else None


class DecodeProbe:
    """Counts ``ArchSpec.decode`` calls and time by enclosing layer.

    The benchmark sets :attr:`layer` around each call into a layer.
    Machine-layer decodes are kept as ``(start, seconds)`` until the
    next JIT compile ends, so :meth:`split_compile` can tell decodes
    made inside block compilation (already part of compile time) from
    decodes made elsewhere in the run.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.layer = "other"
        self.calls = {}
        self.seconds = 0.0
        #: machine-layer decode seconds not inside a JIT compile
        self.machine_outside_compile = 0.0
        self._pending = []
        self._patched = []

    def install(self, specs):
        for spec in specs:
            if "decode" in vars(spec):
                continue
            spec.decode = self._wrap(spec.decode)
            self._patched.append(spec)
        return self

    def remove(self):
        for spec in self._patched:
            del spec.decode
        self._patched = []
        self.flush()

    def _wrap(self, decode):
        clock = self.clock

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return decode(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer = self.layer
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.seconds += dt
                if layer == "machine":
                    self._pending.append((t0, dt))

        return counted

    def split_compile(self, compile_end, compile_seconds):
        """A JIT compile spanning ``compile_seconds`` just ended at
        ``compile_end``: decodes that started inside it belong to it."""
        start = compile_end - compile_seconds
        for t0, dt in self._pending:
            if t0 < start:
                self.machine_outside_compile += dt
        self._pending = []

    def flush(self):
        """Decodes since the last compile happened outside any compile."""
        for _, dt in self._pending:
            self.machine_outside_compile += dt
        self._pending = []


def telemetry_class(probe):
    """An ``EngineTelemetry`` that also tells ``probe`` when each JIT
    compile ended, or None when the system has no engine telemetry."""
    try:
        from repro.obs import EngineTelemetry
    except ImportError:
        return None

    class CompileSplitTelemetry(EngineTelemetry):
        def record_compile(self, *args, **kwargs):
            seconds = kwargs.get("seconds")
            if seconds is not None:
                probe.split_compile(probe.clock(), seconds)
            return super().record_compile(*args, **kwargs)

    return CompileSplitTelemetry


def telemetry_counts(telemetry):
    """The JIT counters one run's telemetry holds; a field the engine no
    longer has comes back as None."""
    if telemetry is None:
        return {}
    fields = {"compile_s": "compile_seconds", "compiles": "compiles",
              "insns_fused": "insns_fused",
              "block_insns": "block_instructions",
              "guard_checks": "guard_checks",
              "guard_misses": "guard_misses"}
    return {key: getattr(telemetry, name, None)
            for key, name in fields.items()}
