"""The three simrec workloads, their end-to-end metrics and their gates.

Every workload is a closed loop with one caller in one thread: the next
training step or request starts when the previous one has returned.  The
workload seed picks the generated corpora and the training seed; the
library sees only those corpora.  Library functions are always called
through their module (``corpus.generate_synthetic``, never a name imported
into this file), so the tracer's wrappers see every call.

Times are read from the process CPU clock (``time.process_time``).  The
benchmark is one thread that waits on nothing, so on an idle machine that
clock agrees with the wall clock; on a shared virtual machine it leaves out
the time the host gives to other guests, which otherwise doubles single
requests at random.  Rates are medians over many short samples (one
training step, a window of requests), so a burst of contention moves them
less than it moves a single total.  Every timed interval is then put on a
reference machine by a ``SpeedProbe`` sampled next to it, because the speed
of a shared machine flips within a second.  Only ``train_wall_s``, printed
but not gated, is raw wall-clock time.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
from simrec import corpus, distill, evalkit, heads, hetgraph
from simrec import tensorcore as tc
from simrec.corpus import SyntheticConfig
from simrec.distill import TrainConfig
from simrec.encoder import EncoderConfig
from simrec.hetgraph import GraphOptions

import layers
from tracer import Tracer

# The acceptance targets (cls F1 0.95, ext F1 0.85) need about 30 epochs.
# Three epochs left held-out ext F1 as low as 0.175 on one seed in 116; four
# epochs lift the seeds that were weakest at three to 0.41 or more, while an
# untrained model scores at most 0.07.  The gate asks for clear learning
# with room for unlucky seeds; tests/test_acceptance.py keeps guarding the
# 30-epoch targets.
TARGET_CLS_F1 = 0.95
TARGET_EXT_F1 = 0.85
LEARNED_EXT_F1 = 0.15
SETUP_SAMPLES = 15  # set-ups per untraced run at least; setup_s is their median
MIN_REPEATS = 2  # the determinism gate compares repeats within one run
RATE_WINDOW = 50  # requests per throughput sample
PROBE_EVERY = 5  # requests between speed-probe samples
PROBE_NEIGHBOURS = 4  # probe samples on each side that give the local speed
REFERENCE_PROBE_S = 0.5e-3  # one probe sample's time on the reference machine
cpu_clock = time.process_time
FIXTURE_SEED = 0  # predict-serve always serves the same trained model

# Corpus streams drawn from one seed.
TRAIN_STREAM, DEV_STREAM, REQUEST_STREAM = 0, 1, 2


@dataclass(frozen=True)
class TrainSpec:
    """One training configuration: corpus sizes, model and schedule."""

    n_train: int
    n_dev: int
    encoder: EncoderConfig
    train: TrainConfig  # its seed is replaced by the workload seed
    label_emb_dim: int

    def __post_init__(self) -> None:
        # Every batch is full, so every timed step does the same work.
        if self.n_train % self.train.batch_size:
            raise ValueError("n_train must be a multiple of the batch size")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: TrainSpec
    n_requests: int  # held-out sentences per serving pass
    gate_quality: bool  # require held-out extraction F1 of a trained model
    serve_from_disk: bool  # serve a saved fixture through load_selected
    # A train workload serves its held-out sentences through the selected
    # model only, or through all three trained models.
    serve_selected: bool = True


# The README / acceptance configuration, four epochs long.
SMALL = TrainSpec(
    n_train=400,
    n_dev=100,
    encoder=EncoderConfig(d_model=32, n_selfattn_layers=2, n_gat_layers=1,
                          edge_emb_dim=8, max_tokens=20, max_positions=24),
    train=TrainConfig(epochs=4, batch_size=4, learning_rate=2e-3, alpha=0.3,
                      lambda_mode="increase"),
    label_emb_dim=16,
)

# Library defaults (EncoderConfig(), TrainConfig(), label-emb 100) with the
# --no-definitions ablation, for one short epoch.
WIDE = TrainSpec(
    n_train=192,
    n_dev=10,
    encoder=EncoderConfig(use_gloss_fusion=False),
    train=TrainConfig(epochs=1),
    label_emb_dim=100,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-small", SMALL, n_requests=1000, gate_quality=True,
                 serve_from_disk=False),
        Workload("train-wide", WIDE, n_requests=200, gate_quality=False,
                 serve_from_disk=False, serve_selected=False),
        Workload("predict-serve", SMALL, n_requests=500, gate_quality=True,
                 serve_from_disk=True),
    )
}


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((24, 24)) * 0.1


class SpeedProbe:
    """Samples how fast the machine runs a fixed piece of work right now.

    On a shared 2-vCPU machine the same work was seen to flip between two
    speeds 1.6 times apart, each held from half a second to a few seconds.
    The probe's work (small numpy products and an interpreter loop) uses no
    simrec code, so a change to simrec cannot move it.  ``reference_s``
    scales each timed interval by the probe samples taken nearest to it,
    which puts it on one reference machine, on which a sample takes
    REFERENCE_PROBE_S.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # CPU clock at the start of each sample
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = cpu_clock()
            a = _PROBE_MATRIX
            for _ in range(30):
                a = np.tanh(a @ a.T) + _PROBE_MATRIX
            x = 0
            for i in range(4000):
                x += i & 7
            self.starts.append(t0)
            self.samples.append(cpu_clock() - t0)

    def factor(self) -> float:
        """Reference seconds per measured second, over the whole run."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    def local_factor(self, t: float) -> float:
        """Reference seconds per measured second around CPU time ``t``."""
        i = bisect.bisect(self.starts, t)
        near = self.samples[max(i - PROBE_NEIGHBOURS, 0):i + PROBE_NEIGHBOURS]
        return REFERENCE_PROBE_S / statistics.median(near)

    def reference_s(self, start: float, end: float) -> float:
        """CPU time from ``start`` to ``end`` on the reference machine.

        Probe samples inside the interval are left out, and each piece
        between them is scaled by the speed measured around it.
        """
        i = bisect.bisect_left(self.starts, start)
        total, t = 0.0, start
        while i < len(self.starts) and self.starts[i] < end:
            total += (self.starts[i] - t) * self.local_factor(t)
            t = self.starts[i] + self.samples[i]
            i += 1
        return total + (end - t) * self.local_factor(t)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def balanced_corpus(n: int, seed: int) -> list:
    """``n`` synthetic sentences spread evenly over (length, label) strata.

    The generator draws template and label at random, so a plain sample's
    token count and simile share drift with the seed and move the timings
    with them.  Drawing a pool and taking sentences round-robin from each
    stratum fixes both; words, pairs and order still follow the seed.
    """
    pool = corpus.generate_synthetic(SyntheticConfig(n_sentences=2 * n + 100, seed=seed))
    strata: dict[tuple[int, str], list] = {}
    for sent in pool:
        strata.setdefault((len(sent.tokens), sent.label), []).append(sent)
    keys = sorted(strata)
    picked = []
    for i in range(n):
        members = strata[keys[i % len(keys)]]
        if i // len(keys) >= len(members):
            raise RuntimeError(f"seed {seed}: stratum {keys[i % len(keys)]} too small")
        picked.append(members[i // len(keys)])
    order = np.random.default_rng(seed).permutation(n)
    return [picked[i] for i in order]


def held_out(n: int, seed: int) -> list:
    return balanced_corpus(n, sub_seed(seed, REQUEST_STREAM))


@dataclass
class TrainingSetup:
    train: list
    dev: list
    vocab: object
    bundle: distill.ModelBundle


def setup_training(spec: TrainSpec, seed: int) -> TrainingSetup:
    """Corpus generation, vocabulary and ``build_bundle``."""
    train = balanced_corpus(spec.n_train, sub_seed(seed, TRAIN_STREAM))
    dev = balanced_corpus(spec.n_dev, sub_seed(seed, DEV_STREAM))
    vocab = corpus.build_vocab(train)
    bundle = distill.build_bundle(vocab, spec.encoder, np.random.default_rng(seed),
                                  label_emb_dim=spec.label_emb_dim)
    return TrainingSetup(train, dev, vocab, bundle)


# ---------------------------------------------------------------------------
# training and serving
# ---------------------------------------------------------------------------

@dataclass
class TrainRun:
    log: list[dict]
    wall_s: float  # the whole train() call, dev evaluation included
    call_s: float  # the same in reference seconds, probe samples left out
    step_s: list[float]  # reference seconds of each step that follows another
    steps_per_batch: int  # sentence x model forward+backward passes
    batches: int
    selected: str

    @property
    def steps_per_s(self) -> float:
        return self.steps_per_batch / statistics.median(self.step_s)


def train_once(spec: TrainSpec, setup: TrainingSetup, seed: int, probe: SpeedProbe,
               tracer: Tracer | None = None) -> TrainRun:
    """One fixed-length ``distill.train`` call, then dev selection.

    ``ParamStore.adam_step`` is wrapped to stamp the end of every training
    step, and to sample the speed probe there: each model takes one Adam
    step per batch, so every ``n_models``-th call closes one.  The first step
    of each epoch is not sampled, because its interval also holds graph
    building or the previous epoch's dev evaluation.
    """
    config = replace(spec.train, seed=seed)
    bundle = setup.bundle
    n_models = len(bundle.models)
    stamps: list[tuple[float, float]] = []  # (end of a step, start of the next)
    adam_step = tc.ParamStore.adam_step
    calls = 0

    def stamped_adam_step(store, *args, **kwargs):
        nonlocal calls
        adam_step(store, *args, **kwargs)
        calls += 1
        if calls % n_models == 0:
            end = cpu_clock()
            probe.sample()
            stamps.append((end, cpu_clock()))

    if tracer is not None:
        tracer.step_id, tracer.models_per_step = 0, n_models
    tc.ParamStore.adam_step = stamped_adam_step
    try:
        t0, c0 = time.perf_counter(), cpu_clock()
        result = distill.train(bundle, setup.train, setup.dev, config)
        wall, cpu = time.perf_counter() - t0, cpu_clock() - c0
    finally:
        tc.ParamStore.adam_step = adam_step
        if tracer is not None:
            tracer.step_id = -1
    selected, _ = distill.select_best(bundle, setup.dev)
    per_epoch = len(setup.train) // config.batch_size
    step_s = [probe.reference_s(stamps[i - 1][1], stamps[i][0])
              for i in range(1, len(stamps)) if i % per_epoch]
    return TrainRun(
        log=result.epoch_logs,
        wall_s=wall,
        call_s=probe.reference_s(c0, c0 + cpu),
        step_s=step_s,
        steps_per_batch=config.batch_size * n_models,
        batches=config.epochs * per_epoch,
        selected=selected,
    )


@dataclass
class ServeRun:
    predictions: list  # SpanPrediction, or None for a failed request
    latencies_s: list[float]  # reference seconds
    failed: int

    @property
    def sent_per_s(self) -> float:
        return windowed_rate(self.latencies_s)

    def records(self) -> list:
        return [p.to_record() if p is not None else None for p in self.predictions]


def windowed_rate(latencies: list[float]) -> float:
    """Requests per second: the median over windows of RATE_WINDOW requests."""
    lat = np.asarray(latencies)
    n = len(lat) // RATE_WINDOW
    if n == 0:
        return float(len(lat) / lat.sum())
    return float(np.median(RATE_WINDOW / lat[: n * RATE_WINDOW].reshape(n, -1).sum(axis=1)))


def serve(model, vocab, options: GraphOptions, requests: list, probe: SpeedProbe,
          tracer: Tracer | None = None) -> ServeRun:
    """``build_graph`` and ``heads.predict`` per sentence, one at a time.

    The speed probe is sampled between requests, every PROBE_EVERY of them,
    and PROBE_NEIGHBOURS times before and after the pass.
    """
    predictions, spans = [], []
    failed = 0
    probe.sample(PROBE_NEIGHBOURS)
    for i, sent in enumerate(requests):
        if tracer is not None:
            tracer.step_id = i
        t0 = cpu_clock()
        try:
            graph = hetgraph.build_graph(sent, vocab, options)
            pred = heads.predict(model, sent, graph, vocab)
        except Exception:  # a failed request is counted and the loop goes on
            spans.append((t0, cpu_clock()))
            failed += 1
            if failed == 1:
                traceback.print_exc()
            predictions.append(None)
            continue
        spans.append((t0, cpu_clock()))
        predictions.append(pred)
        if (i + 1) % PROBE_EVERY == 0:
            probe.sample()
    probe.sample(PROBE_NEIGHBOURS)
    if tracer is not None:
        tracer.step_id = -1
    return ServeRun(predictions, [probe.reference_s(*span) for span in spans], failed)


def f1_scores(run: ServeRun, requests: list) -> tuple[float, float]:
    """Classification and extraction F1 of served predictions against gold."""
    preds = [p if p is not None else heads.SpanPrediction("literal", 0.0)
             for p in run.predictions]
    cls = evalkit.score_classification([p.label for p in preds], [s.label for s in requests])
    ext = evalkit.score_extraction([p.spans for p in preds],
                                   [heads.spans_from_tags(list(s.tags)) for s in requests])
    return cls.f1, ext.f1


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_finite(log: list[dict]) -> str | None:
    for record in log:
        for name, value in record["losses"].items():
            if not math.isfinite(value):
                return f"epoch {record['epoch']}: loss of model {name} is {value!r}"
    return None


def gate_identical(first, second, what: str) -> str | None:
    """Bit-identical comparison through the exact float repr of JSON."""
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    if a == b:
        return None
    at = next(i for i, (x, y) in enumerate(zip(a + "\0", b + "\0")) if x != y)
    return f"{what} differ at character {at}: {a[max(at - 30, 0):at + 30]!r}"


def gate_quality(ext_f1: float) -> str | None:
    if ext_f1 >= LEARNED_EXT_F1:
        return None
    return f"held-out ext F1 {ext_f1:.4f} below {LEARNED_EXT_F1}"


def gate_no_failures(failed: int, attempted: int) -> str | None:
    return None if failed == 0 else f"{failed} of {attempted} operations failed"


def _first_failure(results) -> str | None:
    return next((r for r in results if r is not None), None)


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

@dataclass
class Report:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer_metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    gates: dict[str, str | None] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return all(v is None for v in self.gates.values())


class _RunClock:
    """Allows another repeat only if one as long as the last still fits.

    Call ``room_for_another`` once before every repeat.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.last = time.perf_counter()

    def room_for_another(self) -> bool:
        now = time.perf_counter()
        took, self.last = now - self.last, now
        return now - self.start + took <= self.seconds


class _Timer:
    """Times set-ups in reference seconds, with probe samples on each side."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.samples: list[float] = []

    def run(self, fn, *args):
        self.probe.sample(PROBE_NEIGHBOURS)
        t0 = cpu_clock()
        out = fn(*args)
        t1 = cpu_clock()
        self.probe.sample(PROBE_NEIGHBOURS)
        self.samples.append(self.probe.reference_s(t0, t1))
        return out


def _percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, q))


def _training_metrics(report: Report, trains: list[TrainRun]) -> None:
    steps = [s for t in trains for s in t.step_s]
    m = report.metrics
    m["train_steps_per_s"] = (trains[0].steps_per_batch / statistics.median(steps), "1/s")
    m["train_call_s"] = (statistics.median(t.call_s for t in trains), "s")
    m["train_wall_s"] = (statistics.median(t.wall_s for t in trains), "s")
    report.info["train_calls"] = len(trains)
    report.info["step_samples"] = len(steps)


def _serving_metrics(report: Report, serves: list[ServeRun]) -> None:
    lat = [x for s in serves for x in s.latencies_s]
    m = report.metrics
    m["predict_sent_per_s"] = (windowed_rate(lat), "1/s")
    m["predict_p50_ms"] = (_percentile_ms(lat, 50), "ms")
    m["predict_p99_ms"] = (_percentile_ms(lat, 99), "ms")
    report.info["requests"] = len(lat)
    report.info["simile_share"] = sum(
        p is not None and p.label == "simile" for s in serves for p in s.predictions) / len(lat)
    report.info["requests_beyond_p99"] = sum(
        1 for x in lat if x * 1e3 > m["predict_p99_ms"][0])


def _finish(report: Report, setups: _Timer, cls_f1: float, ext_f1: float) -> None:
    m = report.metrics
    m["setup_s"] = (statistics.median(setups.samples), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m["cls_f1"] = (cls_f1, "ratio")
    m["ext_f1"] = (ext_f1, "ratio")
    m["error_rate"] = (report.failed / report.attempted, "ratio")
    report.info["acceptance_targets_reached"] = (
        cls_f1 >= TARGET_CLS_F1 and ext_f1 >= TARGET_EXT_F1)
    report.info["setup_samples"] = len(setups.samples)
    report.info["speed_factor"] = setups.probe.factor()
    report.info["probe_samples"] = len(setups.probe.samples)
    report.gates["no_failures"] = gate_no_failures(report.failed, report.attempted)


def run_training(workload: Workload, seed: int, seconds: float, trace: bool) -> Report:
    """train-small / train-wide: set up, train, select, serve held-out sentences.

    Every repeat sets up from scratch, trains, selects on dev, and serves the
    held-out sentences through the selected model, like ``simrec predict``;
    F1 is that model's.  A model that predicts a simile runs the tagger as
    well, so the serving cost follows how often it does.  train-wide's short
    run learns nothing: each model answers one label for every sentence, so
    it serves through all three models, and its cost hinges on no single
    one.  Untraced, repeats run until ``seconds`` have passed,
    at least two for the determinism gate.  Traced, one untraced repeat is
    followed by one traced repeat, which also proves tracing changes nothing.
    """
    spec = workload.spec
    report = Report()
    probe = SpeedProbe()
    setups = _Timer(probe)

    def setup():
        return setup_training(spec, seed), held_out(workload.n_requests, seed)

    if not trace:
        for _ in range(SETUP_SAMPLES - MIN_REPEATS):
            setups.run(setup)
    trains: list[TrainRun] = []
    serves: list[ServeRun] = []
    logs, records = [], []
    tracer = None
    clock = _RunClock(seconds)
    while (not trace and clock.room_for_another()) or len(trains) < MIN_REPEATS:
        if trace and trains:
            tracer = Tracer()
            tracer.install()
        try:
            st, requests = setups.run(setup)
            tr = train_once(spec, st, seed, probe, tracer)
            served = [tr.selected] if workload.serve_selected else list(st.bundle.models)
            runs = {name: serve(st.bundle.models[name], st.vocab, GraphOptions(), requests,
                                probe, tracer)
                    for name in served}
        finally:
            if tracer is not None:
                tracer.uninstall()
        trains.append(tr)
        serves.extend(runs.values())
        logs.append(tr.log)
        records.append({name: sv.records() for name, sv in runs.items()})
        report.attempted += tr.batches + sum(len(sv.predictions) for sv in runs.values())
        report.failed += sum(sv.failed for sv in runs.values())
        if len(trains) == 1:
            cls_f1, ext_f1 = f1_scores(runs[tr.selected], requests)
            report.info["selected"] = tr.selected
        del st, runs  # one bundle alive at a time
    report.gates["finite_losses"] = _first_failure(gate_finite(lg) for lg in logs)
    report.gates["deterministic"] = _first_failure(
        [gate_identical(logs[0], lg, "loss logs") for lg in logs[1:]]
        + [gate_identical(records[0], r, "predictions") for r in records[1:]])
    if workload.gate_quality:
        report.gates["learned"] = gate_quality(ext_f1)
    _finish(report, setups, cls_f1, ext_f1)
    if trace:
        report.gates["span_coverage"] = layers.gate_coverage(tracer, workload.name)
        report.layer_metrics = layers.layer_metrics(
            tracer, workload.name, trains[-1].batches * trains[-1].steps_per_batch,
            trains[-1].steps_per_s / trains[0].steps_per_s)
    else:
        _training_metrics(report, trains)
        _serving_metrics(report, serves)
    return report


def run_predict_serve(workload: Workload, seed: int, seconds: float, trace: bool,
                      workdir: str) -> Report:
    """Train the fixture, save it, then serve it from disk like ``simrec predict``.

    The fixture is the train-small configuration trained on FIXTURE_SEED, so
    every run serves the same model; the workload seed picks the requests.
    The fixture's training is what train_steps_per_s and train_call_s report
    here.  Each pass loads the selected model and the request corpus
    (setup_s) and serves every request once; passes repeat until ``seconds``
    have passed.  Every pass must answer exactly as the in-memory fixture.
    """
    spec = workload.spec
    report = Report()
    probe = SpeedProbe()
    st = setup_training(spec, FIXTURE_SEED)
    requests = held_out(workload.n_requests, seed)
    fixture = train_once(spec, st, FIXTURE_SEED, probe)
    reference = serve(st.bundle.models[fixture.selected], st.vocab, GraphOptions(),
                      requests, probe)
    report.attempted += fixture.batches + len(requests)
    report.failed += reference.failed
    report.info["selected"] = fixture.selected
    model_dir = os.path.join(workdir, "model")
    request_path = os.path.join(workdir, "requests.jsonl")
    distill.save_bundle(st.bundle, model_dir, GraphOptions(), selected=fixture.selected)
    corpus.save_corpus(request_path, requests)
    del st

    def load():
        _, model, vocab, options = distill.load_selected(model_dir)
        return model, vocab, options, corpus.load_corpus(request_path)

    setups = _Timer(probe)
    serves: list[ServeRun] = []
    tracer = None
    min_passes = MIN_REPEATS if trace else SETUP_SAMPLES
    clock = _RunClock(seconds)
    while (not trace and clock.room_for_another()) or len(serves) < min_passes:
        if trace and serves:
            tracer = Tracer()
            tracer.install()
        try:
            model, vocab, options, loaded = setups.run(load)
            sv = serve(model, vocab, options, loaded, probe, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        serves.append(sv)
        report.attempted += len(loaded)
        report.failed += sv.failed
    report.gates["finite_losses"] = gate_finite(fixture.log)
    expected = reference.records()
    report.gates["deterministic"] = _first_failure(
        gate_identical(expected, sv.records(), "served predictions") for sv in serves)
    cls_f1, ext_f1 = f1_scores(serves[0], requests)
    if workload.gate_quality:
        report.gates["learned"] = gate_quality(ext_f1)
    _finish(report, setups, cls_f1, ext_f1)
    if trace:
        report.gates["span_coverage"] = layers.gate_coverage(tracer, workload.name)
        report.layer_metrics = layers.layer_metrics(
            tracer, workload.name, len(requests),
            serves[-1].sent_per_s / serves[0].sent_per_s)
    else:
        _training_metrics(report, [fixture])
        _serving_metrics(report, serves)
    return report


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> Report:
    workload = WORKLOADS[name]
    if not workload.serve_from_disk:
        return run_training(workload, seed, seconds, trace)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        return run_predict_serve(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
