"""The performance observatory: sample schema, fingerprints, the
append-only history store, the regression sentinel, and the ``repro
perf`` CLI surface."""

import json
import os

import pytest

from repro.cli import EXIT_PERF_REGRESSION, main
from repro.obs import (
    BenchHistory,
    EnvFingerprint,
    Metrics,
    PerfSample,
    RegressionSentinel,
    Tracer,
    render_sentinel_report,
    render_trend,
    stamp_record,
    trend_document,
)
from repro.obs.observatory import (
    BENCH_RECORD_SCHEMA,
    HISTORY_SCHEMA,
    PERF_SAMPLE_SCHEMA,
    TREND_SCHEMA,
    sample_metrics,
)

FP = EnvFingerprint("3.11.0", "Linux-x86_64", 8, git_sha="abc1234")
OTHER_FP = EnvFingerprint("3.12.0", "Darwin-arm64", 10, git_sha="beef")


def make_sample(total=0.100, cfg=0.050, cycles=10_000, mem=8_000_000,
                fingerprint=FP, workload="602.sgcc_s", mode="jt"):
    return PerfSample(
        workload, "x86", mode, total,
        stage_seconds={"cfg-construction": cfg, "relocation": 0.030},
        stage_mem_peak={"cfg-construction": mem},
        mem_peak=mem,
        cache_hits=4, cache_misses=2,
        trampolines={"direct": 12, "hop": 3}, traps=1,
        instructions=5_000, cycles=cycles,
        fingerprint=fingerprint, unix_time=1.0,
    )


class TestEnvFingerprint:
    def test_collect_describes_this_interpreter(self):
        fp = EnvFingerprint.collect()
        import sys
        assert fp.python.startswith("%d.%d" % sys.version_info[:2])
        assert fp.cpus >= 1
        assert "-" in fp.platform

    def test_round_trip(self):
        fp = EnvFingerprint.from_dict(FP.to_dict())
        assert fp == FP
        assert fp.git_sha == "abc1234"

    def test_key_ignores_git_sha(self):
        moved = EnvFingerprint("3.11.0", "Linux-x86_64", 8,
                               git_sha="other")
        assert moved.key == FP.key
        assert moved != FP   # equality still sees the sha

    def test_missing_sha_serializes_compactly(self):
        fp = EnvFingerprint("3.11.0", "Linux-x86_64", 8)
        assert "git_sha" not in fp.to_dict()
        assert EnvFingerprint.from_dict(fp.to_dict()).git_sha is None


class TestPerfSample:
    def test_round_trip_is_lossless(self):
        s = make_sample()
        rebuilt = PerfSample.from_dict(s.to_dict())
        assert rebuilt.to_dict() == s.to_dict()
        assert rebuilt.key == s.key
        assert rebuilt.fingerprint == s.fingerprint
        assert rebuilt.stage_mem_peak == s.stage_mem_peak

    def test_schema_is_stamped(self):
        assert make_sample().to_dict()["schema"] == PERF_SAMPLE_SCHEMA

    def test_foreign_schema_rejected(self):
        with pytest.raises(ValueError, match="foreign schema"):
            PerfSample.from_dict({"schema": "Alien/v9", "workload": "w"})
        with pytest.raises(ValueError):
            PerfSample.from_dict({"workload": "w"})   # no schema at all
        with pytest.raises(ValueError):
            PerfSample.from_dict("not even a dict")

    def test_corrupt_sample_rejected(self):
        data = make_sample().to_dict()
        del data["workload"]
        with pytest.raises(ValueError, match="corrupt sample"):
            PerfSample.from_dict(data)

    def test_optional_fields_stay_optional(self):
        s = PerfSample("w", "x86", "jt", 0.1, fingerprint=FP)
        data = s.to_dict()
        assert "mem_peak" not in data
        assert "cycles" not in data
        rebuilt = PerfSample.from_dict(data)
        assert rebuilt.mem_peak is None
        assert rebuilt.cycles is None

    def test_from_rewrite_reads_stage_spans_and_memory(self):
        tr = Tracer(name="rewrite:test", memory=True)
        with tr.span("rewrite", mode="jt"):
            with tr.span("cfg-construction"):
                blob = bytearray(1_000_000)
            with tr.span("relocation"):
                pass
            del blob
        metrics = Metrics()
        metrics.inc("cache.hits", 7)
        metrics.inc("cache.misses", 3)

        class Report:
            trampolines = {"direct": 5}
            traps = 2

        s = PerfSample.from_rewrite(
            tr, metrics, Report(), workload="w", arch="x86", mode="jt",
            total_seconds=0.5, instructions=100, cycles=200,
            fingerprint=FP,
        )
        assert set(s.stage_seconds) == {"cfg-construction", "relocation"}
        assert s.stage_mem_peak["cfg-construction"] >= 1_000_000
        assert s.mem_peak >= s.stage_mem_peak["cfg-construction"]
        assert (s.cache_hits, s.cache_misses) == (7, 3)
        assert s.trampolines == {"direct": 5}
        assert (s.instructions, s.cycles) == (100, 200)


class TestBenchHistory:
    def test_append_then_load(self, tmp_path):
        h = BenchHistory(str(tmp_path / "BENCH_history.json"))
        h.append(make_sample(total=0.1))
        h.append(make_sample(total=0.2))
        samples = h.load()
        assert [s.total_seconds for s in samples] == [0.1, 0.2]
        assert h.skipped == 0
        doc = json.loads((tmp_path / "BENCH_history.json").read_text())
        assert doc["schema"] == HISTORY_SCHEMA
        assert len(doc["samples"]) == 2

    def test_corrupt_and_foreign_entries_skipped_with_counter(
            self, tmp_path):
        path = tmp_path / "h.json"
        h = BenchHistory(str(path))
        h.append(make_sample())
        doc = json.loads(path.read_text())
        doc["samples"] += [{"schema": "Alien/v1"}, 42,
                           {"schema": PERF_SAMPLE_SCHEMA}]  # missing keys
        path.write_text(json.dumps(doc))
        samples = h.load()
        assert len(samples) == 1
        assert h.skipped == 3

    def test_foreign_entries_preserved_on_append(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(
            {"schema": HISTORY_SCHEMA,
             "samples": [{"schema": "Future/v7", "payload": 1}]}))
        h = BenchHistory(str(path))
        h.append(make_sample())
        raw = json.loads(path.read_text())["samples"]
        assert raw[0] == {"schema": "Future/v7", "payload": 1}
        assert raw[1]["schema"] == PERF_SAMPLE_SCHEMA

    def test_unreadable_document_starts_fresh(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{ not json")
        h = BenchHistory(str(path))
        assert h.load() == []
        assert h.skipped == 1
        h.append(make_sample())
        assert len(h.load()) == 1

    def test_missing_file_is_empty_not_error(self, tmp_path):
        h = BenchHistory(str(tmp_path / "nope.json"))
        assert h.load() == []
        assert h.skipped == 0

    def test_append_is_atomic_no_temp_residue(self, tmp_path):
        h = BenchHistory(str(tmp_path / "h.json"))
        h.append(make_sample())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]


class TestRegressionSentinel:
    def test_stable_history_grades_ok(self):
        samples = [make_sample() for _ in range(4)]
        report = RegressionSentinel().check(samples)
        assert report.grade == "ok"
        assert not report.failed
        assert "within thresholds" in render_sentinel_report(report)

    def test_inflated_stage_time_fails_and_names_the_metric(self):
        samples = [make_sample() for _ in range(3)]
        samples.append(make_sample(total=0.4, cfg=0.3))
        report = RegressionSentinel().check(samples)
        assert report.failed
        failing = [f.metric for f in report.findings
                   if f.severity == "fail"]
        assert "stage.cfg-construction.seconds" in failing
        assert "total_seconds" in failing
        rendered = render_sentinel_report(report)
        assert "stage.cfg-construction.seconds" in rendered
        assert "FAIL" in rendered

    def test_counter_metrics_have_tight_thresholds(self):
        samples = [make_sample() for _ in range(3)]
        samples.append(make_sample(cycles=11_500))   # +15%
        report = RegressionSentinel().check(samples)
        assert report.failed
        assert any(f.metric == "cycles" and f.severity == "fail"
                   for f in report.findings)

    def test_memory_regression_detected(self):
        samples = [make_sample() for _ in range(3)]
        samples.append(make_sample(mem=16_000_000))   # 2x
        report = RegressionSentinel().check(samples)
        assert report.failed
        assert any("mem_peak" in f.metric for f in report.findings)

    def test_mixed_fingerprints_excluded_from_baseline(self):
        # Three fast samples from another machine must not make this
        # machine's first sample look like a regression.
        samples = [make_sample(total=0.01, cfg=0.005,
                               fingerprint=OTHER_FP) for _ in range(3)]
        samples.append(make_sample(total=0.2, cfg=0.1))
        report = RegressionSentinel().check(samples)
        assert report.grade == "info"
        assert report.baseline_size == 0
        assert "insufficient history" in report.findings[0].note

    def test_small_histories_never_fail(self):
        sentinel = RegressionSentinel(min_baseline=2)
        assert sentinel.check([]).grade == "info"
        assert sentinel.check([make_sample()]).grade == "info"
        two = [make_sample(), make_sample(total=9.9, cfg=9.0)]
        report = sentinel.check(two)   # 1 baseline sample < min 2
        assert report.grade == "info"
        assert not report.failed

    def test_window_bounds_the_baseline(self):
        old = [make_sample(total=1.0, cfg=0.9) for _ in range(10)]
        recent = [make_sample() for _ in range(5)]
        report = RegressionSentinel(window=5).check(
            old + recent + [make_sample()])
        # Median over the last 5 (all fast) — no regression, and the
        # slow ancient samples are outside the window.
        assert report.grade == "ok"
        assert report.baseline_size == 5

    def test_noise_floor_damps_tiny_baselines(self):
        # A 0.2ms stage tripling stays under every threshold because the
        # ratio is taken against the 2ms floor, not the 0.2ms baseline.
        fast = [make_sample(cfg=0.0002) for _ in range(3)]
        fast.append(make_sample(cfg=0.0006))
        report = RegressionSentinel().check(fast)
        assert not any(f.metric == "stage.cfg-construction.seconds"
                       and f.severity in ("warn", "fail")
                       for f in report.findings)

    def test_improvement_is_reported_as_info(self):
        samples = [make_sample() for _ in range(3)]
        samples.append(make_sample(total=0.02, cfg=0.01))
        report = RegressionSentinel().check(samples)
        assert report.grade == "info"
        assert any(f.note == "improved" for f in report.findings)

    def test_sample_metrics_shape(self):
        metrics = sample_metrics(make_sample())
        assert metrics["total_seconds"][0] == "time"
        assert metrics["mem_peak"][0] == "mem"
        assert metrics["cycles"][0] == "count"
        assert metrics["trampolines.total"] == ("count", 15)


class TestRendering:
    def test_trend_table_lists_samples_per_key(self):
        samples = [make_sample(), make_sample(mode="dir")]
        out = render_trend(samples)
        assert "602.sgcc_s/x86/jt" in out
        assert "602.sgcc_s/x86/dir" in out
        assert "mem peak" in out

    def test_trend_of_empty_history(self):
        assert render_trend([]) == "(empty history)"

    def test_trend_of_single_sample(self):
        out = render_trend([make_sample(total=0.1)])
        assert "1 sample(s)" in out
        assert "602.sgcc_s/x86/jt" in out
        assert "abc1234" in out   # the sample's git sha is listed

    def test_trend_window_larger_than_history(self):
        samples = [make_sample(total=0.1), make_sample(total=0.2)]
        out = render_trend(samples, window=100)
        # Every sample renders once; the oversized window neither
        # crashes nor pads phantom rows.
        assert "2 sample(s)" in out
        assert out.count("abc1234") == 2

    def test_sentinel_report_of_empty_history_renders(self):
        report = RegressionSentinel().check([])
        out = render_sentinel_report(report)
        assert out.startswith("perf check")
        assert "INFO" in out

    def test_sentinel_report_of_single_sample_renders(self):
        report = RegressionSentinel().check([make_sample()])
        out = render_sentinel_report(report)
        assert "602.sgcc_s/x86/jt" in out
        assert "insufficient history" in out
        assert "INFO" in out

    def test_sentinel_window_larger_than_history(self):
        samples = [make_sample() for _ in range(4)]
        report = RegressionSentinel(window=100).check(samples)
        assert report.grade == "ok"
        assert report.baseline_size == 3   # all of the history, once
        assert "within thresholds" in render_sentinel_report(report)

    def test_stamp_record_adds_schema_and_fingerprint(self):
        stamped = stamp_record({"cycles": 5}, fingerprint=FP)
        assert stamped["schema"] == BENCH_RECORD_SCHEMA
        assert stamped["fingerprint"]["python"] == "3.11.0"
        assert stamped["cycles"] == 5


class TestTrendDocument:
    def test_groups_by_key_with_full_sample_rows(self):
        samples = [make_sample(), make_sample(total=0.2),
                   make_sample(mode="dir")]
        doc = trend_document(samples)
        assert doc["schema"] == TREND_SCHEMA
        assert doc["samples"] == 3
        assert [k["mode"] for k in doc["keys"]] == ["dir", "jt"]
        jt = doc["keys"][1]
        assert jt["samples"] == 2 and jt["fingerprints"] == 1
        # Rows are the machine twin of the table: full sample dicts.
        assert [r["total_seconds"] for r in jt["rows"]] == [0.1, 0.2]
        assert all(r["schema"] == PERF_SAMPLE_SCHEMA
                   for r in jt["rows"])

    def test_window_truncates_rows_not_counts(self):
        samples = [make_sample(total=t / 10) for t in range(1, 6)]
        doc = trend_document(samples, window=2)
        key = doc["keys"][0]
        assert key["samples"] == 5
        assert [r["total_seconds"] for r in key["rows"]] == [0.4, 0.5]

    def test_empty_history(self):
        doc = trend_document([])
        assert doc["samples"] == 0 and doc["keys"] == []


class TestPerfCli:
    def _record(self, history, extra=()):
        return main(["perf", "record", "--history", history,
                     "--workload", "619.lbm_s", *extra])

    def test_record_report_check_round_trip(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_history.json")
        assert self._record(history) == 0
        assert self._record(history) == 0
        samples = BenchHistory(history).load()
        assert len(samples) == 2
        assert all(s.to_dict()["schema"] == PERF_SAMPLE_SCHEMA
                   for s in samples)
        assert all(s.fingerprint.key == samples[0].fingerprint.key
                   for s in samples)
        assert len(samples[0].stage_seconds) == 9
        assert samples[0].mem_peak is not None
        assert samples[0].cycles is not None

        assert main(["perf", "report", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "619.lbm_s/x86/jt" in out

        # --json emits the machine twin of the table, parseable whole.
        assert main(["perf", "report", "--history", history,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == TREND_SCHEMA
        assert doc["samples"] == 2
        assert doc["keys"][0]["workload"] == "619.lbm_s"
        assert len(doc["keys"][0]["rows"]) == 2

        # Grade a second sample whose timings repeat the first: the
        # check's pass must not hinge on two live-timed rewrites
        # agreeing on a shared host.  test_check_flags_an_inflated_stage
        # covers the failing grade.
        doc = json.loads(open(history).read())
        first, second = doc["samples"]
        for key in ("total_seconds", "stage_seconds",
                    "engine_compile_seconds"):
            if key in first:
                second[key] = first[key]
        json.dump(doc, open(history, "w"))
        assert main(["perf", "check", "--history", history]) == 0

    def test_check_flags_an_inflated_stage(self, tmp_path, capsys):
        history = str(tmp_path / "h.json")
        assert self._record(history, ["--no-run"]) == 0
        assert self._record(history, ["--no-run"]) == 0
        doc = json.loads(open(history).read())
        latest = doc["samples"][-1]
        latest["stage_seconds"]["cfg-construction"] = \
            latest["stage_seconds"]["cfg-construction"] * 50 + 1.0
        latest["total_seconds"] += 1.0
        json.dump(doc, open(history, "w"))
        code = main(["perf", "check", "--history", history])
        out = capsys.readouterr().out
        assert code == EXIT_PERF_REGRESSION
        assert "stage.cfg-construction.seconds" in out

    def test_check_on_empty_history_is_quiet(self, tmp_path, capsys):
        history = str(tmp_path / "missing.json")
        assert main(["perf", "check", "--history", history]) == 0
        assert "no samples" in capsys.readouterr().out

    def test_corrupt_history_reported_but_not_fatal(self, tmp_path,
                                                    capsys):
        history = tmp_path / "h.json"
        history.write_text(json.dumps(
            {"schema": HISTORY_SCHEMA, "samples": ["junk"]}))
        assert main(["perf", "check", "--history", str(history)]) == 0
        assert "skipped" in capsys.readouterr().err

    def test_record_without_memory_accounting(self, tmp_path):
        history = str(tmp_path / "h.json")
        assert self._record(history, ["--no-run", "--no-mem"]) == 0
        sample = BenchHistory(history).load()[0]
        assert sample.mem_peak is None
        assert sample.cycles is None
        assert sample.stage_mem_peak == {}
