"""The benchmark's workloads over the public API of ``repro``.

Every workload runs whole *rounds* until ``seconds`` have passed (at
least two, so round identity is checked).  A round loads the saved
pipeline afresh and feeds it the same input, after a garbage collection
and with the encoder and word-vector caches cleared, so each round pays
what a fresh process pays.

Closed-loop replay times are per-slice medians over the rounds, each
round's times scaled by the host speed measured around it
(hostspeed.py); paced serving latency is each alert's median over the
rounds, unscaled.

Operations are windows.  A window fails when it was degraded, when one
of its records was shed, or when its verdict differs from the reference
replay; a whole-run check that fails (window counts, alert validity,
round identity, fit identity in traced runs) raises :class:`CheckFailed`
and the run prints no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from repro.core import (LogSynergy, LogSynergyModel, LogSynergyTrainer,
                        SystemFeaturizer)
from repro.deploy.pattern_library import PatternLibrary
from repro.embedding import clear_word_vector_cache
from repro.embedding.encoder import SentenceEncoder
from repro.embedding.pretrained import load_pretrained_encoder
from repro.llm.interpreter import EventInterpreter
from repro.nn import OpProfiler
from repro.obs import MetricsRegistry, use_registry
from repro.parsing.template_store import TemplateStore
from repro.runtime import (OFFER_OK, InferenceRuntime, ShardRouter,
                           WorkerSupervisor, render_reports)
import repro.core.pipeline as core_pipeline
import repro.parsing.drain as drain_module

import inputs
from hostspeed import HostSpeed
from pipeline_cache import cached_pipeline
from reference import f1_score, percentile, window_table, windows_covering
from tracing import LayerTracer

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "CheckFailed"]

clock = time.perf_counter

REPEAT_LINES = 20_000           # replay-repeat: one thunderbird stream
FLEET_LINES_PER_SYSTEM = 1_700  # replay-fleet: 6 x 1,700 = 10,200 lines
SERVE_LINES_PER_SYSTEM = 3_500  # serve-fleet: 6 x 3,500 = 21,000 lines
SERVE_RATE = 1_000.0            # serve-fleet: lines/s, open loop
# serve-fleet serves one fixed stream: see README.md, "Why serve-fleet
# serves a fixed stream".
SERVE_SEED = 7920
SERVE_MAX_LATENCY = 0.05        # `repro serve` default latency trigger
MAX_BATCH = 16                  # `repro serve` / `replay` default batch
FLEET_SHARDS = 2                # at most nproc shards on a 2-core host
MIN_ROUNDS = 2
SEGMENT_LINES = 250             # slice of a closed-loop round timed apart
# f1 is scored on this seed's input: see README.md, "Why f1 has its own input".
EVAL_SEED = 0

END_TO_END = {"lines_per_s": "1/s", "p50_ms": "ms", "p95_ms": "ms",
              "f1": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "parsing.ingest_calls": "count", "parsing.parses_per_line": "ratio",
    "parsing.ingest_s": "s", "parsing.mask_s": "s",
    "parsing.templates": "count",
    "deploy.gate_hit_ratio": "ratio", "deploy.lookup_s": "s",
    "deploy.model_ratio": "ratio",
    "llm.interpret_calls": "count", "llm.interpret_s": "s",
    "embedding.encode_calls": "count", "embedding.encode_s": "s",
    "core.detect_s": "s", "core.report_s": "s",
    "core.forward_calls": "count", "core.forward_rows": "count",
    "core.forward_s": "s", "core.forward_share": "ratio",
    "runtime.submit_self_s": "s", "runtime.batches": "count",
    "runtime.batch_windows": "count", "runtime.score_batch_s": "s",
    "runtime.drain_s": "s", "runtime.shard_skew": "ratio",
    "runtime.proc.start_s": "s", "runtime.proc.broadcast_bytes": "bytes",
    "runtime.proc.lines_per_s": "1/s",
    "runtime.proc.parent_cpu_s": "s", "runtime.proc.worker_cpu_s": "s",
    "serve.generator_lag_p99_ms": "ms",
    "fit.parse_s": "s", "fit.interpret_s": "s", "fit.embed_s": "s",
    "fit.train_s": "s", "train.steps": "count", "train.step_ms": "ms",
    "nn.forward_s": "s", "nn.backward_s": "s",
    "obs.registry_overhead": "ratio", "trace.overhead": "ratio",
}


class CheckFailed(RuntimeError):
    """A whole-run correctness check failed; the run has no result."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Shared measurement helpers
# ---------------------------------------------------------------------------

def _fresh_round() -> None:
    """What every round starts from: no garbage, no cached encoder or
    word vectors (loading a pipeline trains both afresh)."""
    load_pretrained_encoder.cache_clear()
    clear_word_vector_cache()
    gc.collect()


def _rounds(seconds: float, run_round) -> tuple[list, list[float]]:
    """Whole rounds until ``seconds`` have passed, at least MIN_ROUNDS,
    and each round's host speed factor (see hostspeed.py), from the
    reference computation timed before every round and after the last."""
    host = HostSpeed()
    results = []
    started = clock()
    while len(results) < MIN_ROUNDS or clock() - started < seconds:
        _fresh_round()
        host.sample()
        results.append(run_round())
    _fresh_round()
    host.sample()
    return results, host.factors()


def _hwm_mb(status_path: str) -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(status_path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


def _children_hwm_mb() -> float:
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            total += _hwm_mb(f"/proc/{child.pid}/status")
        except OSError:
            continue  # already exited
    return total


def _self_hwm_mb() -> float:
    # ru_maxrss is the process's own peak, in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclasses.dataclass
class ServeRound:
    """One pass of a stream through a freshly loaded runtime."""

    setup_s: float
    start_s: float        # process executor: start + warm-up barrier
    run_s: float
    loop_end: float       # clock after the last submit, before the drain
    end: float            # clock after the drain (and stop)
    reports: list
    alert_at: dict        # window id -> clock time its report was handed over
    sent_at: list         # per line: submit time (closed) or due time (paced)
    lag_s: list           # per line: send time minus due time (paced only)
    shed: list            # stream indices of records the runtime shed
    windows_seen: int
    model_invocations: int
    library_hits: int
    children_mb: float
    templates: int        # events in the served store after the round
    broadcast_bytes: float  # the process executor's weight arena size


def _serve_round(pipeline_dir: Path, records: list, *, executor: str,
                 shards: int, max_latency: float | None = None,
                 rate: float | None = None) -> ServeRound:
    """Load the pipeline, build and start the runtime, feed ``records``.

    Closed loop (``rate=None``) submits as fast as the runtime accepts;
    open loop sends line ``i`` at ``start + i / rate`` whatever happens.
    ``executor`` is ``sync``, ``thread`` or ``process``.  For the process
    executor, set-up ends after an empty drain: a barrier that returns
    once every worker is forked, attached to the weight broadcast and
    warm.
    """
    alert_at: dict[str, float] = {}

    def on_report(report) -> None:
        alert_at.setdefault(report.metadata.get("window_id"), clock())

    started = clock()
    model = LogSynergy.load_pipeline(str(pipeline_dir))
    runtime = InferenceRuntime.from_model(
        model, executor=executor, shards=shards,
        window=inputs.WINDOW, step=inputs.STEP, max_batch=MAX_BATCH,
        max_latency=max_latency, backpressure="block", on_report=on_report)
    built = clock()
    if executor != "sync":
        runtime.start()
    if executor == "process":
        runtime.drain()
    setup_s = clock() - started
    start_s = setup_s - (built - started)

    sent_at = [0.0] * len(records)
    lag_s: list[float] = []
    shed: list[int] = []
    begin = clock()
    if rate is None:
        # Closed loop: on the sync engine each line is processed (pumped)
        # before the next is sent; the other executors accept lines as
        # fast as their shard queues take them.
        pump = runtime.pump if executor == "sync" else (lambda: None)
        for index, record in enumerate(records):
            sent_at[index] = clock()
            if runtime.submit(record) != OFFER_OK:
                shed.append(index)
            pump()
    else:
        interval = 1.0 / rate
        for index, record in enumerate(records):
            due = begin + index * interval
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
            sent_at[index] = due
            lag_s.append(now - due)
            if runtime.submit(record) != OFFER_OK:
                shed.append(index)
    loop_end = clock()
    children_mb = 0.0
    if executor == "thread":
        reports = runtime.stop()
    else:
        reports = runtime.drain()
    if executor == "process":
        children_mb = _children_hwm_mb()
        reports += runtime.stop()
    end = clock()
    stats = runtime.stats
    broadcast = runtime.registry.metrics().get("runtime.proc.broadcast_bytes")
    shed_count = stats.records_rejected + stats.records_dropped
    _check(shed_count == len(shed),
           f"runtime counted {shed_count} shed records, submit reported "
           f"{len(shed)}")
    return ServeRound(setup_s, start_s, end - begin, loop_end, end, reports,
                      alert_at, sent_at, lag_s, shed, stats.windows_seen,
                      stats.model_invocations, stats.library_hits,
                      children_mb, _templates(model, [model.target_system]),
                      broadcast.value if broadcast is not None else 0.0)


def _verdicts(round_: ServeRound, records: list, table: dict) -> tuple[set, set]:
    """(alerted window ids, failed window ids) after the whole-run checks."""
    _check(round_.windows_seen == len(table),
           f"runtime saw {round_.windows_seen} windows, the input makes "
           f"{len(table)}")
    ids = [report.metadata.get("window_id") for report in round_.reports]
    _check(len(ids) == len(set(ids)), "a window was reported twice")
    unknown = [window_id for window_id in ids if window_id not in table]
    _check(not unknown, f"reports for windows the input lacks: {unknown[:3]}")
    alerted, failed = set(), set()
    for report, window_id in zip(round_.reports, ids):
        if report.metadata.get("degraded"):
            failed.add(window_id)
            continue
        _check(report.is_anomalous and report.score > report.threshold,
               f"window {window_id} reported without exceeding the threshold")
        alerted.add(window_id)
    failed |= windows_covering(records, round_.shed, inputs.WINDOW,
                               inputs.STEP)
    return alerted, failed


def _check_same_output(first: list, other: list, *, exact: bool) -> None:
    """Rounds over one input must render the same reports.

    Without a latency trigger batches are cut by size alone, so rounds
    are byte-identical.  With one, batch composition follows timing, and
    float32 scores may differ in their last bits with the rows they were
    batched with; verdicts must still match and scores agree to 1e-5.
    """
    if exact:
        _check(render_reports(other) == render_reports(first),
               "rounds over the same input rendered different reports")
        return

    def verdicts(reports) -> dict:
        return {report.metadata.get("window_id"):
                (report.is_anomalous, bool(report.metadata.get("degraded")),
                 report.score) for report in reports}

    expected, actual = verdicts(first), verdicts(other)
    _check(expected.keys() == actual.keys() and all(
        expected[key][:2] == actual[key][:2]
        and abs(expected[key][2] - actual[key][2]) <= 1e-5
        for key in expected),
        "rounds over the same input reported different verdicts")


def _segment_times(round_: ServeRound) -> list[float]:
    """Durations of a closed-loop round's consecutive SEGMENT_LINES-line
    slices, then of its final drain."""
    marks = [*round_.sent_at[::SEGMENT_LINES], round_.loop_end]
    return [after - before for before, after in zip(marks, marks[1:])] + [
        round_.end - round_.loop_end]


def _submit_ms(round_: ServeRound) -> list[float]:
    """How long the caller waited for each line to be taken in."""
    marks = [*round_.sent_at, round_.loop_end]
    return [(after - before) * 1e3 for before, after in zip(marks, marks[1:])]


def _scaled(times: list[float], factor: float) -> list[float]:
    """CPU-bound times of one round, at the reference host speed."""
    return [value / factor for value in times]


def _column_median(rows: list[list[float]]) -> list[float]:
    """Per position, the median over the rounds (rows of equal length)."""
    return [statistics.median(column) for column in zip(*rows)]


def _alert_latencies_ms(round_: ServeRound, alerted: set,
                        table: dict) -> dict[str, float]:
    """Per alerted window: its report's arrival minus its last line's
    send time (submit time closed-loop, due time open-loop)."""
    return {window_id: (round_.alert_at[window_id]
                        - round_.sent_at[table[window_id].last]) * 1e3
            for window_id in alerted}


def _serving_pipeline(root: Path) -> Path:
    def fit():
        sources, target, train = inputs.serving_fit_inputs()
        return LogSynergy(inputs.FAST_CONFIG).fit(sources, target, train)

    return cached_pipeline(root / ".perfbench_cache", root / "src",
                           inputs.FAST_CONFIG, inputs.SERVING_RECIPE, fit)


# ---------------------------------------------------------------------------
# Serving workloads (replay-repeat, replay-fleet, serve-fleet)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServingSpec:
    records: Callable[[int], list]
    executor: str
    shards: int
    max_latency: float | None = None
    rate: float | None = None
    # (executor, shards) of an untimed closed-loop replay of the same
    # records whose verdicts every timed round must match.
    reference: tuple[str, int] | None = None


SERVING = {
    "replay-repeat": ServingSpec(
        lambda seed: inputs.repeat_stream(seed, REPEAT_LINES),
        executor="sync", shards=1),
    "replay-fleet": ServingSpec(
        lambda seed: inputs.fleet_stream(seed, FLEET_LINES_PER_SYSTEM),
        executor="sync", shards=1, reference=("process", FLEET_SHARDS)),
    "serve-fleet": ServingSpec(
        lambda seed: inputs.fleet_stream(SERVE_SEED, SERVE_LINES_PER_SYSTEM),
        executor="process", shards=FLEET_SHARDS,
        max_latency=SERVE_MAX_LATENCY, rate=SERVE_RATE, reference=("sync", 1)),
}


def run_serving(spec: ServingSpec, root: Path, seed: int, seconds: float,
                trace: bool) -> dict:
    pipeline_dir = _serving_pipeline(root)
    records = spec.records(seed)
    table = window_table(records, inputs.WINDOW, inputs.STEP)
    if trace:
        return _trace_serving(spec, pipeline_dir, records, table)
    reference = None
    if spec.reference is not None:
        executor, shards = spec.reference
        _fresh_round()
        reference, _ = _verdicts(
            _serve_round(pipeline_dir, records, executor=executor,
                         shards=shards), records, table)

    rounds, factors = _rounds(seconds, lambda: _serve_round(
        pipeline_dir, records, executor=spec.executor, shards=spec.shards,
        max_latency=spec.max_latency, rate=spec.rate))
    failed = 0
    alert_ms: list[dict] = []
    for round_ in rounds:
        _check_same_output(rounds[0].reports, round_.reports,
                           exact=spec.max_latency is None)
        alerted, failed_ids = _verdicts(round_, records, table)
        if reference is not None:
            failed_ids |= alerted ^ reference
        failed += len(failed_ids)
        alert_ms.append(_alert_latencies_ms(round_, alerted, table))
    _check(bool(alert_ms[0]), "no window raised an alert")
    if spec.rate is None:
        # Closed loop on one thread: each slice of a round does the same
        # work in every round, so per-slice medians over the rounds sum to
        # a round with the host's bursts filtered out, and the per-line
        # medians give the caller's wait for each line.  Both are CPU-bound
        # and are scaled to the reference host speed round by round.
        round_s = sum(_column_median([_scaled(_segment_times(r), factor)
                                      for r, factor in zip(rounds, factors)]))
        latencies = _column_median([_scaled(_submit_ms(r), factor)
                                    for r, factor in zip(rounds, factors)])
    else:
        # Open loop: the schedule fixes the round's length and much of
        # each alert's wait, so neither is scaled; each alert's latency is
        # its median over the rounds.
        round_s = statistics.median(r.run_s for r in rounds)
        latencies = [statistics.median(per_round[window_id]
                                       for per_round in alert_ms)
                     for window_id in alert_ms[0]]
    peak = _self_hwm_mb() + max(round_.children_mb for round_ in rounds)
    print(f"perfbench: {len(rounds)} rounds, host factors "
          f"{min(factors):.3f}-{max(factors):.3f}", file=sys.stderr)
    return _result(
        attempted=len(table) * len(rounds), failed=failed,
        metrics={
            "lines_per_s": len(records) / round_s,
            "p50_ms": percentile(latencies, 50),
            "p95_ms": percentile(latencies, 95),
            "f1": _quality_f1(spec, pipeline_dir),
            "setup_s": statistics.median(
                r.setup_s / factor for r, factor in zip(rounds, factors)),
            "peak_rss_mb": peak,
        }, units=END_TO_END)


def _quality_f1(spec: ServingSpec, pipeline_dir: Path) -> float:
    """Alert F1 of a sync replay of the fixed EVAL_SEED stream."""
    _fresh_round()
    records = spec.records(EVAL_SEED)
    table = window_table(records, inputs.WINDOW, inputs.STEP)
    alerted, _ = _verdicts(
        _serve_round(pipeline_dir, records, executor="sync", shards=1),
        records, table)
    return f1_score(alerted, {window_id for window_id, window in table.items()
                              if window.label})


def _wrap_program_layers(tracer: LayerTracer) -> None:
    """The online path's layers, each at its public entry point."""
    tracer.wrap(TemplateStore, "ingest", "parsing.ingest")
    tracer.wrap(drain_module, "mask_message", "parsing.mask")
    tracer.wrap(PatternLibrary, "lookup", "deploy.lookup")
    tracer.wrap(EventInterpreter, "interpret_event", "llm.interpret")
    tracer.wrap(SentenceEncoder, "encode", "embedding.encode")
    tracer.wrap(LogSynergy, "detect_stream_batch", "core.detect")
    tracer.wrap(core_pipeline, "build_report", "core.report")
    tracer.wrap(LogSynergyModel, "predict_proba", "core.forward",
                count=lambda args, result: len(args[1]))
    tracer.wrap(InferenceRuntime, "submit", "runtime.submit")
    tracer.wrap(WorkerSupervisor, "score_batch", "runtime.score_batch",
                count=lambda args, result: len(args[1]))
    tracer.wrap(InferenceRuntime, "drain", "runtime.drain")
    tracer.wrap(InferenceRuntime, "stop", "runtime.drain")


def _layer_metrics(tracer: LayerTracer, lines: int, round_s: float) -> dict:
    calls, total, own = tracer.calls, tracer.total, tracer.self_time
    return {
        "parsing.ingest_calls": calls["parsing.ingest"],
        "parsing.parses_per_line": calls["parsing.ingest"] / lines,
        "parsing.ingest_s": total["parsing.ingest"],
        "parsing.mask_s": total["parsing.mask"],
        "deploy.lookup_s": total["deploy.lookup"],
        "llm.interpret_calls": calls["llm.interpret"],
        "llm.interpret_s": total["llm.interpret"],
        "embedding.encode_calls": calls["embedding.encode"],
        "embedding.encode_s": total["embedding.encode"],
        "core.detect_s": own["core.detect"],
        "core.report_s": total["core.report"],
        "core.forward_calls": calls["core.forward"],
        "core.forward_rows": tracer.counts["core.forward"],
        "core.forward_s": total["core.forward"],
        "core.forward_share": total["core.forward"] / round_s,
        "runtime.submit_self_s": own["runtime.submit"],
        "runtime.batches": calls["runtime.score_batch"],
        "runtime.batch_windows": tracer.counts["runtime.score_batch"],
        "runtime.score_batch_s": total["runtime.score_batch"],
        "runtime.drain_s": total["runtime.drain"],
    }


def _templates(model: LogSynergy, systems) -> int:
    # The pipeline has no public accessor for its stores; this is the one
    # InferenceRuntime.from_model itself uses.
    return sum(len(model._featurizer(name).store.event_ids)
               for name in systems)


def _trace_serving(spec: ServingSpec, pipeline_dir: Path, records: list,
                   table: dict) -> dict:
    """Per-layer metrics: program layers from an in-process traced round
    on the sync engine at the workload's shard count; ``runtime.proc.*``
    and the generator lag from an untraced round on the process executor
    (the workload's own, or the one its reference replay uses)."""
    def sync_round() -> ServeRound:
        _fresh_round()
        return _serve_round(pipeline_dir, records, executor="sync",
                            shards=spec.shards)

    def traced_round() -> tuple[LayerTracer, ServeRound]:
        with LayerTracer() as tracer:
            _wrap_program_layers(tracer)
            return tracer, sync_round()

    def registry_round() -> float:
        with use_registry(MetricsRegistry()):
            return sync_round().run_s

    # Each ratio compares the faster of two rounds of either kind.
    plain = min(sync_round().run_s for _ in range(MIN_ROUNDS))
    tracer, traced = min((traced_round() for _ in range(MIN_ROUNDS)),
                         key=lambda pair: pair[1].run_s)
    registry_s = min(registry_round() for _ in range(MIN_ROUNDS))
    _, failed = _verdicts(traced, records, table)
    windows = traced.windows_seen
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(_layer_metrics(tracer, len(records), traced.run_s))
    metrics.update({
        "parsing.templates": traced.templates,
        "deploy.gate_hit_ratio": traced.library_hits / windows,
        "deploy.model_ratio": traced.model_invocations / windows,
        "obs.registry_overhead": registry_s / plain,
        "trace.overhead": traced.run_s / plain,
    })
    if spec.executor == "process":
        metrics.update(_trace_process(pipeline_dir, records, spec.shards,
                                      spec.max_latency, spec.rate))
    elif spec.reference is not None and spec.reference[0] == "process":
        metrics.update(_trace_process(pipeline_dir, records,
                                      spec.reference[1], None, None))
    else:
        metrics["runtime.shard_skew"] = _shard_skew(records, spec.shards)
    return _result(attempted=windows, failed=len(failed), metrics=metrics,
                   units=PER_LAYER)


def _shard_skew(records: list, shards: int) -> float:
    """Busiest shard's lines over the mean, under the runtime's routing."""
    router = ShardRouter(shards)
    lines = [0] * shards
    for record in records:
        lines[router.shard_of(record.system)] += 1
    return max(lines) * shards / len(records)


def _trace_process(pipeline_dir: Path, records: list, shards: int,
                   max_latency: float | None, rate: float | None) -> dict:
    """Parent-side timings and registry numbers of one process round."""
    _fresh_round()
    parent_cpu = _cpu_seconds(resource.RUSAGE_SELF)
    worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN)
    round_ = _serve_round(pipeline_dir, records, executor="process",
                          shards=shards, max_latency=max_latency, rate=rate)
    lag_ms = [lag * 1e3 for lag in round_.lag_s]
    return {
        "runtime.proc.start_s": round_.start_s,
        "runtime.proc.lines_per_s": len(records) / round_.run_s,
        "runtime.shard_skew": _shard_skew(records, shards),
        "runtime.proc.broadcast_bytes": round_.broadcast_bytes,
        "runtime.proc.parent_cpu_s": _cpu_seconds(resource.RUSAGE_SELF) - parent_cpu,
        "runtime.proc.worker_cpu_s": _cpu_seconds(resource.RUSAGE_CHILDREN) - worker_cpu,
        "serve.generator_lag_p99_ms": percentile(lag_ms, 99) if lag_ms else 0.0,
    }


# ---------------------------------------------------------------------------
# The offline phase, traced in replay-fleet's traced run
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FitRound:
    fit_s: float
    predict_s: float
    steps: int
    nonfinite: int
    weights: str          # SHA-256 of the fitted model's state dict
    predicted: frozenset  # held-out windows predicted anomalous
    templates: int        # events in all systems' stores after the fit


def _fit_round(sources, target, train, test, *, registry: bool = True,
               profiler: OpProfiler | None = None) -> FitRound:
    """Build a pipeline, fit it, and predict the held-out set.

    The trainer counts non-finite batches only into an installed
    registry, so rounds run under one unless ``registry`` is false.
    """
    model = LogSynergy(inputs.FAST_CONFIG)
    metrics = MetricsRegistry() if registry else None
    with contextlib.ExitStack() as scope:
        if metrics is not None:
            scope.enter_context(use_registry(metrics))
        if profiler is not None:
            scope.enter_context(profiler)
        begin = clock()
        model.fit(sources, target, train)
        end = clock()
    predictions = model.predict(test)
    predict_s = clock() - end
    digest = hashlib.sha256()
    for name, array in sorted(model.model.state_dict().items()):
        digest.update(name.encode())
        digest.update(array.tobytes())
    nonfinite = (int(metrics.counter("trainer.nonfinite_batches").value)
                 if metrics is not None else 0)
    return FitRound(
        end - begin, predict_s, model.trainer.global_step, nonfinite,
        digest.hexdigest(),
        frozenset(int(i) for i in predictions.nonzero()[0]),
        _templates(model, [*sources, target]))


def _distinct_lines(*window_lists) -> int:
    """Generated lines behind windows (overlapping windows share lines)."""
    return len({id(record) for windows in window_lists
                for window in windows for record in window.records})


def _trace_fit(sources, target, train, test) -> dict:
    """The offline phase's layers from four seeded fits of the same
    inputs (two plain, one traced, one without a registry), which must
    all yield byte-identical weights and the same held-out predictions."""
    def fit_round(**kwargs) -> FitRound:
        _fresh_round()
        return _fit_round(sources, target, train, test, **kwargs)

    plain_rounds = [fit_round() for _ in range(MIN_ROUNDS)]
    profiler = OpProfiler()
    with LayerTracer() as tracer:
        _wrap_program_layers(tracer)
        tracer.wrap(SystemFeaturizer, "parse_sequences", "fit.parse")
        tracer.wrap(SystemFeaturizer, "interpret_events", "fit.interpret")
        tracer.wrap(SystemFeaturizer, "embed_events", "fit.embed")
        tracer.wrap(LogSynergyTrainer, "fit", "fit.train")
        traced = fit_round(profiler=profiler)
    without_registry = fit_round(registry=False)
    fits = [*plain_rounds, traced, without_registry]
    _check(len({fit.weights for fit in fits}) == 1,
           "seeded fits of the same inputs produced different weights")
    _check(len({fit.predicted for fit in fits}) == 1,
           "seeded fits of the same inputs predicted differently")
    plain_s = min(fit.fit_s for fit in plain_rounds)
    lines = _distinct_lines(*sources.values(), train, test)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(_layer_metrics(tracer, lines,
                                  traced.fit_s + traced.predict_s))
    total = tracer.total
    metrics.update({
        "parsing.templates": traced.templates,
        "fit.parse_s": total["fit.parse"],
        "fit.interpret_s": total["fit.interpret"],
        "fit.embed_s": total["fit.embed"],
        "fit.train_s": total["fit.train"],
        "train.steps": traced.steps,
        "train.step_ms": total["fit.train"] * 1e3 / traced.steps,
        "nn.forward_s": sum(stat.forward_self_seconds
                            for stat in profiler.stats.values()),
        "nn.backward_s": sum(stat.backward_seconds
                             for stat in profiler.stats.values()),
        "obs.registry_overhead": plain_s / without_registry.fit_s,
        "trace.overhead": traced.fit_s / plain_s,
    })
    return _result(attempted=traced.steps, failed=traced.nonfinite,
                   metrics=metrics, units=PER_LAYER)


# ---------------------------------------------------------------------------

def _result(*, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    _check(set(metrics) == set(units), "metric set does not match its table")
    return {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


# The offline phase's layers, which replay-fleet's traced run measures:
# a fit workload of its own was dropped because its times did not hold
# steady (see README.md).
FIT_LAYERS = ("fit.parse_s", "fit.interpret_s", "fit.embed_s", "fit.train_s",
              "train.steps", "train.step_ms", "nn.forward_s", "nn.backward_s")


def run_workload(name: str, root: Path, seed: int, seconds: float,
                 trace: bool) -> dict:
    result = run_serving(SERVING[name], root, seed, seconds, trace)
    if trace and name == "replay-fleet":
        fit = _trace_fit(*inputs.fit_inputs(seed))["metrics"]
        result["metrics"].update({key: fit[key] for key in FIT_LAYERS})
    return result


WORKLOADS = tuple(SERVING)
