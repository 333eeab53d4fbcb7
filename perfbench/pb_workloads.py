"""The benchmark's three workloads, each with its own reference check.

Every workload is built here from the topology's own spouts and bolts,
with its settings pinned in this file (not borrowed from the figure
runners), so a change to a figure's defaults cannot move the benchmark.
The ``seed`` reaches the spout, broker and cluster constructors.

A workload runs in four steps, which the worker times separately:
``setup`` (build, pack, schedule, launch, ``wait_until_running``, timed
step by step),
``warmup`` (untimed), ``run_window`` (the fixed simulated window, timed
lap by lap) and ``verify`` (drain, then compare against a reference
computed here).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.api.config_keys import TopologyConfigKeys as Keys
from repro.api.topology import TopologyBuilder
from repro.autoscale import AutoscaleConfigKeys as AKeys
from repro.autoscale.keygroups import DEFAULT_KEY_GROUPS, KeyGroupGrouping
from repro.common.config import Config
from repro.common.resources import Resource
from repro.common.units import GB
from repro.core.heron import HeronCluster
from repro.simulation.cluster import Cluster
from repro.workloads.corpus import DEFAULT_CORPUS_SIZE, corpus
from repro.workloads.elastic import KeyGroupCountBolt, ScheduledWordSpout
from repro.workloads.external import KafkaBroker, RedisServer
from repro.workloads.kafka_redis import (AggregateBolt, FilterBolt,
                                         KafkaSpout, RedisSinkBolt)
from repro.workloads.wordcount import CountBolt, WordSpout

#: One reference check: (name, passed, detail).
Check = Tuple[str, bool, str]


def _digest(payload) -> str:
    """Stable fingerprint of a JSON-serialisable reference result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(name: str, ok: bool, detail: str) -> Check:
    return (name, bool(ok), detail)


class Workload:
    """Shared plumbing; subclasses build the topology and the checks."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster: HeronCluster = None  # type: ignore[assignment]
        self.handle = None

    def instances(self, component: str) -> List:
        """Live instances of one component, in task order."""
        runtime = self.handle._runtime
        return [runtime.instances[key] for key in sorted(runtime.instances)
                if key[0] == component]

    #: Fixed simulated window, run in LAPS equal steps. A lap takes about
    #: 0.05 s of wall time, short enough to run at one host speed.
    WINDOW_S = 0.0
    LAPS = 1

    def _launch(self, topology, lap: Callable[[], None]) -> None:
        """Submit (pack, schedule, launch) and wait until running, calling
        ``lap`` once the topology and cluster are built and after each
        step."""
        lap()
        self.handle = self.cluster.submit_topology(topology)
        lap()
        self.handle.wait_until_running()
        lap()

    def warmup(self) -> None:
        """Untimed simulated time before the measured window."""

    def run_window(self, lap: Callable[[], None]) -> None:
        """Simulate the window, calling ``lap`` after each step. The last
        step ends exactly where one ``run_for(WINDOW_S)`` would."""
        sim = self.cluster.sim
        start = sim.now
        for k in range(1, self.LAPS + 1):
            sim.run_until(start + self.WINDOW_S if k == self.LAPS
                          else start + self.WINDOW_S * k / self.LAPS)
            lap()


class WordCount(Workload):
    """The paper's acked WordCount (Figs. 2-13) at parallelism 10 on YARN.

    Closed loop: counted acking with ``max_spout_pending`` bounds the
    tuples in flight, so a slower engine is offered less load.
    """

    name = "wordcount"
    PARALLELISM = 10
    CORPUS = 45_000
    MACHINE = Resource(cpu=8, ram=28 * GB, disk=500 * GB)
    MACHINES = 7
    #: Long enough for every spout's latency reservoir (compacted once it
    #: holds 1024 samples, 2.1-2.3 simulated seconds in) to reach the
    #: steady state a long-running topology is in.
    WARMUP_S = 2.4
    WINDOW_S = 1.0
    LAPS = 32
    DRAIN_STEP_S = 0.05
    DRAIN_LIMIT_S = 2.0

    def setup(self, lap: Callable[[], None]) -> None:
        cfg = Config()
        cfg.set(Keys.ACKING_ENABLED, True)
        cfg.set(Keys.ACK_TRACKING, "counted")
        cfg.set(Keys.MAX_SPOUT_PENDING, 20_000)
        cfg.set(Keys.CACHE_DRAIN_FREQUENCY_MS, 10.0)
        cfg.set(Keys.BATCH_SIZE, 1000)
        cfg.set(Keys.SAMPLE_CAP, 24)
        cfg.set(Keys.INSTANCES_PER_CONTAINER, 4)
        cfg.set(Keys.MEMPOOL_ENABLED, True)
        cfg.set(Keys.LAZY_DESERIALIZATION, True)
        builder = TopologyBuilder("wordcount")
        builder.set_spout("word", WordSpout(self.CORPUS, seed=self.seed),
                          self.PARALLELISM)
        builder.set_bolt("count", CountBolt(), self.PARALLELISM) \
            .fields_grouping("word", fields=["word"])
        self.cluster = HeronCluster.on_yarn(
            machines=self.MACHINES, machine_resource=self.MACHINE,
            seed=self.seed)
        self._launch(builder.build(cfg), lap)

    def warmup(self) -> None:
        self.cluster.run_for(self.WARMUP_S)

    def completed(self) -> float:
        return self.handle.totals()["acked"]

    def sim_metrics(self) -> Dict[str, float]:
        latency = self.handle.latency_stats()
        return {
            "sim_latency_p50_ms": latency.percentile(0.50) * 1e3,
            "sim_latency_p99_ms": latency.percentile(0.99) * 1e3,
            "sim_latency_weight": latency.count,
        }

    def verify(self) -> Tuple[List[Check], str, float, float]:
        handle, cluster = self.handle, self.cluster
        handle.deactivate()
        waited = 0.0
        totals = handle.totals()
        while (totals["acked"] + totals["failed"] < totals["emitted"]
               and waited < self.DRAIN_LIMIT_S):
            cluster.run_for(self.DRAIN_STEP_S)
            waited += self.DRAIN_STEP_S
            totals = handle.totals()
        emitted, acked, failed = (totals["emitted"], totals["acked"],
                                  totals["failed"])
        counts: Counter = Counter()
        for inst in self.instances("count"):
            counts.update(inst.user.counts)
        counted = math.fsum(counts.values())
        checks = [
            _check("acked equals emitted after drain", acked == emitted,
                   f"acked={acked:.0f} emitted={emitted:.0f}"),
            _check("no failed tuples", failed == 0, f"failed={failed:.0f}"),
            _check("count bolts' weighted totals equal tuples emitted",
                   math.isclose(counted, emitted, rel_tol=1e-9),
                   f"counted={counted:.3f} emitted={emitted:.0f}"),
        ]
        digest = _digest({"emitted": emitted, "acked": acked,
                          "counts": sorted((w, repr(c))
                                           for w, c in counts.items())})
        lost = failed + max(0.0, emitted - acked)
        return checks, digest, emitted, lost


class SeededBroker(KafkaBroker):
    """A Kafka broker whose event stream depends on the workload seed.

    The stock broker's records are a pure function of the sequence
    number; shifting the sequence by a seed-derived offset changes keys,
    kinds (and so the filter's decisions) and values per seed.
    """

    def __init__(self, events_per_sec: float, seed: int) -> None:
        super().__init__(events_per_sec, seed=seed)
        self._shift = seed * 1_000_003

    def make_event(self, sequence: int) -> List:
        return super().make_event(sequence + self._shift)


class KafkaCluster(Workload):
    """The Fig. 14 Kafka -> filter -> aggregate -> Redis topology at 336
    instances on a 4-rack cluster, acks off.

    Open loop: the broker produces at a fixed rate whether or not the
    spouts keep up; ``sim_input_lag`` is how far fetching trails it.
    """

    name = "kafka_cluster"
    SPOUTS = 96
    FILTERS = 96
    AGGREGATORS = 96
    SINKS = 48
    EVENTS_PER_S = 10e6 / 60.0
    RACKS = 4
    MACHINES_PER_RACK = 8
    MACHINE = Resource(cpu=24, ram=72 * GB, disk=1000 * GB)
    WARMUP_S = 0.1
    WINDOW_S = 0.3
    LAPS = 60
    DRAIN_STEP_S = 0.05
    DRAIN_LIMIT_S = 1.0

    def setup(self, lap: Callable[[], None]) -> None:
        cfg = Config()
        cfg.set(Keys.ACKING_ENABLED, False)
        cfg.set(Keys.SAMPLE_CAP, 24)
        cfg.set(Keys.BATCH_SIZE, 1000)
        cfg.set(Keys.INSTANCES_PER_CONTAINER, 4)
        self.broker = SeededBroker(self.EVENTS_PER_S, self.seed)
        self.redis = RedisServer()
        builder = TopologyBuilder("kafka-redis")
        builder.set_spout("kafka", KafkaSpout(self.broker, self.SPOUTS),
                          self.SPOUTS)
        builder.set_bolt("filter", FilterBolt(), self.FILTERS) \
            .shuffle_grouping("kafka")
        builder.set_bolt("aggregate", AggregateBolt(), self.AGGREGATORS) \
            .fields_grouping("filter", fields=["key"])
        builder.set_bolt("sink", RedisSinkBolt(self.redis), self.SINKS) \
            .shuffle_grouping("aggregate")
        racked = Cluster.racked(self.RACKS, self.MACHINES_PER_RACK,
                                self.MACHINE)
        self.cluster = HeronCluster.on_yarn(cluster=racked, seed=self.seed)
        self._launch(builder.build(cfg), lap)

    def warmup(self) -> None:
        self.cluster.run_for(self.WARMUP_S)

    def completed(self) -> float:
        return self.handle.snapshot()["sink"]["executed"]

    def sim_metrics(self) -> Dict[str, float]:
        now = self.cluster.now
        lag = sum(inst.user._consumer.available(now)
                  for inst in self.instances("kafka"))
        return {"sim_input_lag": float(lag)}

    @staticmethod
    def _conserved(snap) -> bool:
        return (snap["kafka"]["emitted"] == snap["filter"]["executed"]
                and snap["filter"]["emitted"] == snap["aggregate"]["executed"]
                and snap["aggregate"]["emitted"] == snap["sink"]["executed"])

    def verify(self) -> Tuple[List[Check], str, float, float]:
        self.handle.deactivate()
        waited = 0.0
        snap = self.handle.snapshot()
        while not self._conserved(snap) and waited < self.DRAIN_LIMIT_S:
            self.cluster.run_for(self.DRAIN_STEP_S)
            waited += self.DRAIN_STEP_S
            snap = self.handle.snapshot()
        fetched = float(self.broker.total_fetched)
        kafka, filt = snap["kafka"], snap["filter"]
        agg, sink = snap["aggregate"], snap["sink"]
        aggregators = [inst.user for inst in self.instances("aggregate")]
        windows = sum(user._emitted_windows for user in aggregators)
        expected: Dict[str, float] = {}
        totals_ok = True
        for user in aggregators:
            keys = [f"agg-{user._task_id}-{n}"
                    for n in range(1, user._emitted_windows + 1)]
            values = [self.redis.store.get(key) for key in keys]
            if any(v is None for v in values):
                totals_ok = False
                continue
            # Each record carries the task's running total, which only
            # grows: records must be ordered and never exceed the total.
            if values != sorted(values) or \
                    (values and values[-1] > user._running_total):
                totals_ok = False
            expected.update(zip(keys, values))
        checks = [
            _check("fetched = spout emitted = filter executed",
                   fetched == kafka["emitted"] == filt["executed"],
                   f"fetched={fetched:.0f} spout={kafka['emitted']:.0f} "
                   f"filter={filt['executed']:.0f}"),
            _check("filter emitted = aggregate executed",
                   filt["emitted"] == agg["executed"],
                   f"{filt['emitted']:.0f} vs {agg['executed']:.0f}"),
            _check("aggregate emitted = sink executed = redis records",
                   agg["emitted"] == sink["executed"]
                   == self.redis.records_written == windows,
                   f"aggregate={agg['emitted']:.0f} "
                   f"sink={sink['executed']:.0f} "
                   f"redis={self.redis.records_written} windows={windows}"),
            _check("redis holds exactly the aggregate records, in order",
                   totals_ok and set(self.redis.store) == set(expected),
                   f"keys={len(self.redis.store)} "
                   f"records emitted={windows}"),
        ]
        digest = _digest({"stages": snap, "fetched": fetched,
                          "store": sorted((k, repr(v))
                                          for k, v in expected.items())})
        lost = ((kafka["emitted"] - filt["executed"])
                + (filt["emitted"] - agg["executed"])
                + (agg["emitted"] - sink["executed"]))
        return checks, digest, fetched, abs(lost)


#: Knuth multiplicative constant of StatefulWordSpout's word-at-offset.
_MIX = 2654435761


class ElasticCheckpoint(Workload):
    """The elastic stateful WordCount diurnal sweep: checkpoints every
    0.2 s while the autoscaler rescales the ``count`` bolt up and down.

    Open loop: the spouts follow a fixed load schedule (per spout task:
    1k tuples/s, 8k from t=2 s, 1k from t=5 s, stream ends at t=7 s).
    """

    name = "elastic_checkpoint"
    SCHEDULE = [(0.0, 1_000.0), (2.0, 8_000.0), (5.0, 1_000.0)]
    DRAIN_AT = 7.0
    END_AT = 9.5
    SPOUTS = 2
    INITIAL_COUNTS = 2
    MAX_COUNTS = 8
    COUNT_COST = 2e-4
    MACHINES = 8
    POLL_S = 0.01
    #: Polls per timed lap.
    LAP_POLLS = 10

    @classmethod
    def total_per_spout(cls) -> int:
        bounds = [start for start, _ in cls.SCHEDULE[1:]] + [cls.DRAIN_AT]
        return int(sum(rate * (end - start) for (start, rate), end
                       in zip(cls.SCHEDULE, bounds)))

    def setup(self, lap: Callable[[], None]) -> None:
        cfg = (Config()
               .set(Keys.ACKING_ENABLED, False)
               .set(Keys.BATCH_SIZE, 50)
               .set(Keys.SAMPLE_CAP, 0)
               .set(Keys.INSTANCES_PER_CONTAINER, 2)
               .set(Keys.CHECKPOINT_ENABLED, True)
               .set(Keys.CHECKPOINT_INTERVAL_SECS, 0.2)
               .set(Keys.METRICS_REPORT_INTERVAL_SECS, 0.25)
               .set(Keys.METRICS_FORWARD_INTERVAL_SECS, 0.25)
               .set(AKeys.AUTOSCALE_ENABLED, True)
               .set(AKeys.AUTOSCALE_INTERVAL_SECS, 0.5)
               .set(AKeys.COOLDOWN_SECS, 2.0)
               .set(AKeys.QUEUE_HIGH_WATERMARK, 40.0)
               .set(AKeys.QUEUE_LOW_WATERMARK, 2.0)
               .set(AKeys.MIN_PARALLELISM, self.INITIAL_COUNTS)
               .set(AKeys.MAX_PARALLELISM, self.MAX_COUNTS))
        builder = TopologyBuilder("elastic-wordcount")
        builder.set_spout(
            "word", ScheduledWordSpout(self.SCHEDULE,
                                       total_tuples=self.total_per_spout(),
                                       seed=self.seed), self.SPOUTS)
        builder.set_bolt(
            "count", KeyGroupCountBolt(DEFAULT_KEY_GROUPS, self.COUNT_COST),
            self.INITIAL_COUNTS) \
            .grouping("word", KeyGroupGrouping(["word"], DEFAULT_KEY_GROUPS))
        self.cluster = HeronCluster.on_yarn(machines=self.MACHINES,
                                            seed=self.seed)
        self._launch(builder.build(cfg), lap)
        self._checkpoints0 = self.handle.checkpoint_stats()

    def run_window(self, lap: Callable[[], None]) -> None:
        # Poll the counters on a fixed simulated tick: the longest run of
        # ticks in which the count bolt made no progress while tuples were
        # outstanding is the rescale/restore pause.
        cluster, handle = self.cluster, self.handle
        last_executed = -1.0
        last_progress = cluster.now
        longest = 0.0
        polls = 0
        while cluster.now < self.END_AT - 1e-9:
            cluster.run_for(self.POLL_S)
            polls += 1
            if polls % self.LAP_POLLS == 0:
                lap()
            snap = handle.snapshot()
            executed = snap["count"]["executed"]
            if executed > last_executed:
                last_executed = executed
                last_progress = cluster.now
            elif (cluster.now < self.DRAIN_AT
                  or snap["word"]["emitted"] > executed):
                longest = max(longest, cluster.now - last_progress)
        if polls % self.LAP_POLLS:
            lap()
        self._stall = longest

    def _final_counts(self) -> Counter:
        counts: Counter = Counter()
        for inst in self.instances("count"):
            counts.update(inst.user.counts)
        return counts

    def completed(self) -> float:
        return math.fsum(self._final_counts().values())

    def sim_metrics(self) -> Dict[str, float]:
        checkpoints = self.handle.checkpoint_stats()
        return {
            "sim_stall_ms": self._stall * 1e3,
            "sim_rescales": self.handle.autoscaler_stats()["rescales"],
            "sim_restores": float(checkpoints["restores"]
                                  - self._checkpoints0["restores"]),
        }

    def reference_counts(self) -> Counter:
        """Replay every emitted offset through the spouts' word-at-offset
        function (same formula as StatefulWordSpout, re-derived here)."""
        words = corpus(DEFAULT_CORPUS_SIZE)
        size = len(words)
        reference: Counter = Counter()
        for inst in self.instances("word"):
            salt = (self.seed << 16) ^ (inst.task_id * _MIX)
            reference.update(words[((offset * _MIX) ^ salt) % size]
                             for offset in range(inst.user.offset))
        return reference

    def verify(self) -> Tuple[List[Check], str, float, float]:
        counts = self._final_counts()
        reference = self.reference_counts()
        offsets = [inst.user.offset for inst in self.instances("word")]
        offered = float(self.total_per_spout() * self.SPOUTS)
        deviation = sum(abs(counts.get(w, 0) - reference.get(w, 0))
                        for w in set(counts) | set(reference))
        checks = [
            _check("every offered tuple was emitted",
                   offsets == [self.total_per_spout()] * self.SPOUTS,
                   f"offsets={offsets}"),
            _check("final counts equal the replayed reference",
                   counts == reference,
                   f"deviation={deviation:g} over {offered:.0f} tuples"),
        ]
        digest = _digest(sorted((w, repr(c)) for w, c in counts.items()))
        return checks, digest, offered, float(deviation)


WORKLOADS = {cls.name: cls
             for cls in (WordCount, KafkaCluster, ElasticCheckpoint)}
