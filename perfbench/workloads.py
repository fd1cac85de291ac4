"""The benchmark's three workloads, driven through ``XQuerySession``.

Every workload is a closed loop with one client.  It runs whole rounds;
a round holds every operation kind of the workload once:

* ``xmark_read`` — the eight read queries, one after another, in a
  seeded shuffled order (``session.run`` + ``QueryResult.to_xml``).
* ``xmark_batch`` — the same eight queries as one ``run_many`` batch on
  the default tier, plus serializing every result.
* ``rw_mix`` — an engine lookup by person id and a replace commit on the
  mid-size document, Q8, Q9 and Q13 beside it, then a SQLite lookup and
  a replace commit on the tiny document.

Only time spent inside the program's public calls is counted; output
checks run between operations, outside every timed span.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice

from repro import XQuerySession
from repro.obs.flight import query_fingerprint
from repro.xmark.generator import generate_xml
from repro.xmark.queries import DOCUMENT, EXTRA_QUERIES, QUERIES
from repro.xml import attribute, element, text

import measure
from measure import SpanParts
from oracle import XMarkModel, canonical_xml

#: The read set: the paper's figure queries plus five further XMark
#: queries.  Q7 (≈0.9 s warm at sf 0.1) is left out: it sits past the
#: recorder's 0.5 s tail-sampling threshold.
QUERY_NAMES = ("Q8", "Q9", "Q13", "Q1", "Q6", "Q15", "Q17", "Q19")
FIGURE_QUERIES = ("Q8", "Q9", "Q13")
QUERY_TEXT = {name: {**QUERIES, **EXTRA_QUERIES}[name] for name in QUERY_NAMES}
MID_URI = DOCUMENT
TINY_URI = "tiny.xml"

#: The kernels an ``engine.kernel.*`` span can name for the read set.
KERNELS = ("children", "concat", "count", "data", "elementnodes",
           "expand_variable", "filter_by_index", "gather_blocks", "roots",
           "select", "select_children", "sort", "subtrees_dfs", "text_const",
           "textnodes", "tree_key_sets", "xnode")
#: Query kinds with per-query layer metrics.
LAYER_QUERIES = QUERY_NAMES + ("lookup",)
#: How far a traced round's parts may miss its untraced wall time.
PARTS_TOLERANCE = 0.2
#: Scale of the tiny document SQLite serves.
TINY_SCALE = 0.0005
#: Untraced runs go on past ``seconds`` (by at most half) until this many
#: rounds, so that the 75th percentile of round times has ten samples
#: beyond it.
MIN_ROUNDS = 40

_FIRST = ("Ada", "Edsger", "Grace", "Barbara", "Donald", "Frances", "Tony")
_LAST = ("Lovelace", "Dijkstra", "Hopper", "Liskov", "Knuth", "Allen", "Hoare")


def lookup_query(uri: str, person_id: str) -> str:
    return (f'for $p in document("{uri}")/site/people/person '
            f'where $p/@id = "{person_id}" return $p/name')


def locate_person(doc, position: int) -> tuple[int, int]:
    """Left endpoints of ``<people>`` and of its ``position``-th child.

    The public encoding addresses nodes only by left endpoint, so the
    caller scans the interval rows for them.
    """
    rows = doc.encoded.tuples
    for index, row in enumerate(rows):
        if row[0] == "<people>":
            break
    else:
        raise LookupError("document has no <people>")
    people = rows[index]
    seen = -1
    boundary = -1
    for row in islice(rows, index + 1, None):
        if row[1] > people[2]:
            break
        if row[1] > boundary:  # the next child of <people>
            seen += 1
            boundary = row[2]
            if seen == position:
                return people[1], row[1]
    raise LookupError(f"<people> has no child {position}")


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    mid_scale: float = 0.1
    setups: int = 3
    #: Stop after this many rounds even before ``seconds`` (short mode).
    max_rounds: int | None = None


class Workload:
    """Shared set-up, measurement loop and bookkeeping."""

    name = ""
    #: Nearest-rank percentiles of the tail metrics: with ``MIN_ROUNDS``
    #: rounds at least ten samples lie beyond each (see README).
    read_tail_percent = 96.0
    round_tail_percent = 75.0
    #: Operation kinds whose samples make up ``read_tail_ms``.
    engine_reads: tuple[str, ...] = QUERY_NAMES

    def __init__(self, config: Config):
        self.config = config
        self.rng = random.Random(config.seed)
        self.cpus = os.cpu_count() or 1
        self.mid_xml = generate_xml(config.mid_scale, seed=config.seed)
        self.mid = XMarkModel(self.mid_xml)
        self.session: XQuerySession | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.round_seconds: list[float] = []
        self.setup_seconds: list[float] = []
        self.setup_layers: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, list[float]] = defaultdict(list)
        self.kernel_ms: Counter = Counter()
        self.kernel_tuples: Counter = Counter()
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.traced_round_count = 0
        self.serial_samples: dict[str, list[float]] = defaultdict(list)
        self.result_bytes: dict[str, int] = {}
        self.plan_cache: Counter = Counter()
        self.brownout_max = 0
        self.batch_tiers: Counter = Counter()
        self.gc_seconds = 0.0
        self.gc_full = 0
        self._gc_started = 0.0
        self._round_time = 0.0

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Set up ``config.setups`` times; keep the last session."""
        for attempt in range(self.config.setups):
            self._parse_seconds = 0.0
            started = time.perf_counter()
            session = self.setup_once()
            self.setup_seconds.append(time.perf_counter() - started)
            self.setup_layers["xml.parse_s"].append(self._parse_seconds)
            self.check_setup(session)
            if attempt < self.config.setups - 1:
                session.close()
                gc.collect()
            else:
                self.session = session
        if self.config.trace:
            self.trace_warmup()

    def setup_once(self) -> XQuerySession:
        raise NotImplementedError

    def check_setup(self, session: XQuerySession) -> None:
        """Checks on the set-up's own first-run outputs (untimed)."""

    def trace_warmup(self) -> None:
        """Untimed work a traced run needs before its first round."""

    def _add(self, session: XQuerySession, uri: str, xml_text: str) -> None:
        started = time.perf_counter()
        session.add_document(uri, xml_text)
        self._parse_seconds += time.perf_counter() - started

    def _first_runs(self, session: XQuerySession, runs) -> dict[str, str]:
        """First run of each distinct query; returns outputs by kind."""
        outputs = {}
        prepare = 0.0
        for kind, query, backend in runs:
            outputs[kind] = session.run(query, backend=backend).to_xml()
            prepare += session.recorder.records(limit=1)[0].phases.get(
                "prepare", 0.0)
        self.setup_layers["backend.prepare_s"].append(prepare)
        return outputs

    # -- measurement -------------------------------------------------------------

    def measure(self) -> None:
        """Untraced rounds; with ``trace``, then as long again traced.

        Traced reads feed observed cardinalities back to the plan cache,
        which may evict plans, so traced and untraced reads never
        interleave: the untraced phase is what the end-to-end metrics
        and the flight-record layer metrics describe.
        """
        session = self.session
        self.sampled_in_setup = self._sampled_total()
        self.sheds_before = session.admission.snapshot()["sheds_total"]
        seconds = self.config.seconds
        self.tracing = False
        if self.config.trace:
            seconds /= 2
            gc.callbacks.append(self._gc_callback)
        try:
            self._loop(seconds,
                       0 if self.config.trace else MIN_ROUNDS)
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
        self.rss_mb = measure.peak_rss_mb()
        self.sampled = self._sampled_total() - self.sampled_in_setup
        self.sampled_traced = 0
        if self.config.trace:
            self.tracing = True
            self._loop(seconds, 0)
            self.sampled_traced = self._sampled_total() - self.sampled \
                - self.sampled_in_setup
        self.sheds = session.admission.snapshot()["sheds_total"] \
            - self.sheds_before

    def _gc_callback(self, phase: str, info: dict) -> None:
        """Times the program's garbage collections (traced runs only)."""
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_seconds += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_full += 1

    def _sampled_total(self) -> int:
        return self.session.recorder.stats()["tail_sampled_total"]

    def _loop(self, seconds: float, min_rounds: int) -> None:
        started = time.perf_counter()
        rounds = 0
        while True:
            self._round_time = 0.0
            self.round()
            if self.tracing:
                self.traced_round_count += 1
            else:
                self.round_seconds.append(self._round_time)
            rounds += 1
            if self.config.max_rounds is not None:
                if rounds >= self.config.max_rounds:
                    break
            else:
                elapsed = time.perf_counter() - started
                if elapsed >= seconds and (rounds >= min_rounds
                                           or elapsed >= 1.5 * seconds):
                    break

    def round(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- operations ----------------------------------------------------------------

    def _fail(self, kind: str, reason: str) -> None:
        self.failed[kind] += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {reason}")

    def _check(self, kind: str, output: str, expected) -> None:
        if canonical_xml(output) != expected:
            self.wrong.append(kind)

    def _note_brownout(self) -> None:
        level = self.session.admission.brownout.index
        self.brownout_max = max(self.brownout_max, level)

    def read(self, kind: str, query: str, expected, backend: str = "engine"
             ) -> None:
        """One ``run`` + ``to_xml``, traced in the traced phase.

        ``expected`` is a zero-argument callable giving the canonical
        expected result.
        """
        session = self.session
        self.attempted[kind] += 1
        try:
            started = time.perf_counter()
            result = session.run(query, backend=backend, trace=self.tracing)
            ran = time.perf_counter()
            output = result.to_xml()
            done = time.perf_counter()
        except Exception as error:  # counted as a failed operation
            self._fail(kind, f"{type(error).__name__}: {error}")
            return
        finally:
            self._note_brownout()
        if result.backend != backend or result.degradations:
            self._fail(kind, f"answered by {result.backend!r} "
                             f"(degradations {result.degradations!r})")
            return
        wall = done - started
        if self.tracing:
            self._note_trace(kind, result, wall, backend)
        else:
            self.samples[kind].append(wall)
            self._round_time += wall
            record = session.recorder.records(limit=1)[0]
            self._note_record(kind, record, ran - started, done - ran, output)
        self._check(kind, output, expected())

    def _note_record(self, kind: str, record, run_seconds: float,
                     serialize_seconds: float, output: str) -> None:
        phases = record.phases
        layer = self.layer
        layer["compile"].append(phases.get("compile", 0.0))
        layer["prepare"].append(phases.get("prepare", 0.0))
        layer["overhead"].append(run_seconds - sum(phases.values()))
        layer["execute." + kind].append(phases.get("execute", 0.0))
        layer["serialize." + kind].append(serialize_seconds)
        self.result_bytes[kind] = len(output.encode("utf-8"))
        if record.plan_cache is not None:
            self.plan_cache[record.plan_cache] += 1

    def _note_trace(self, kind: str, result, wall: float,
                    backend: str) -> None:
        parts = SpanParts(result.trace)
        self.traced[kind].append(wall)
        for name, seconds in parts.kernel_seconds.items():
            self.kernel_ms[name] += seconds * 1e3
        for name, tuples in parts.kernel_tuples.items():
            self.kernel_tuples[name] += tuples
        execute = parts.phases["execute"]
        if backend == "sqlite":
            self.layer["sql.translate"].append(
                execute - parts.statement_seconds)
            self.layer["sql.statement"].append(parts.statement_seconds)
            self.layer["sql.statements"].append(parts.statements)
        else:
            self.layer["engine.evaluate"].append(execute - parts.kernel_total)

    def untraced_reference(self, kind: str) -> list[float]:
        """Untraced wall times that a traced kind's parts should sum to."""
        return self.samples[kind]

    def commit(self, kind: str, uri: str, model: XMarkModel) -> None:
        """Replace one person: ``delete_subtree`` + ``insert_child``."""
        session = self.session
        person_id = self.rng.choice(model.person_ids)
        position = model.person_position(person_id)
        node, replacement = self._new_person(person_id)
        self.attempted[kind] += 1
        try:
            started = time.perf_counter()
            doc = session.updatable(uri)
            people_left, person_left = locate_person(doc, position)
            located = time.perf_counter()
            edited = doc.delete_subtree(person_left).insert_child(
                people_left, position, node)
            built = time.perf_counter()
            session.apply_update(uri, edited)
            done = time.perf_counter()
        except Exception as error:  # counted as a failed operation
            self._fail(kind, f"{type(error).__name__}: {error}")
            return
        model.replace_person(person_id, replacement)
        wall = done - started
        self.samples[kind].append(wall)
        self._round_time += wall
        update = session.recorder.updates(limit=1)[0]
        prefix = "update." if uri == MID_URI else "update.sql."
        self.layer[prefix + "locate"].append(located - started)
        self.layer[prefix + "build"].append(built - located)
        self.layer[prefix + "commit"].append(done - built)
        self.layer[prefix + "lock_hold"].append(update.lock_hold_seconds)
        self.layer[prefix + "delta_rows"].append(update.delta_rows)
        self.layer[prefix + "relabels"].append(1 if update.relabeled else 0)

    def _new_person(self, person_id: str):
        name = f"{self.rng.choice(_FIRST)} {self.rng.choice(_LAST)}"
        email = f"mailto:{person_id}.{self.rng.randrange(10**6)}@example.org"
        node = element("person", (
            attribute("id", person_id),
            element("name", (text(name),)),
            element("emailaddress", (text(email),)),
        ))
        replacement = ET.Element("person", {"id": person_id})
        ET.SubElement(replacement, "name").text = name
        ET.SubElement(replacement, "emailaddress").text = email
        return node, replacement

    # -- results ---------------------------------------------------------------

    @property
    def correct(self) -> bool:
        return not self.wrong

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The metrics every workload reports (BENCHMARK.json ``end_to_end``)."""
        reads = [s for kind in self.engine_reads for s in self.samples[kind]]
        completed = sum(len(v) for v in self.samples.values())
        busy = sum(self.round_seconds)
        return {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "ops_per_s": (completed / busy if busy else 0.0, "1/s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
            "q8_p50_ms": (measure.median_ms(self.samples["Q8"]), "ms"),
            "q9_p50_ms": (measure.median_ms(self.samples["Q9"]), "ms"),
            "q13_p50_ms": (measure.median_ms(self.samples["Q13"]), "ms"),
            "read_tail_ms": (measure.percentile_ms(
                reads, self.read_tail_percent), "ms"),
            "round_p50_ms": (measure.median_ms(self.round_seconds), "ms"),
            "round_tail_ms": (measure.percentile_ms(
                self.round_seconds, self.round_tail_percent), "ms"),
        }

    def operation_latencies(self) -> dict[str, tuple[float, str]]:
        """Per-kind latencies beyond the shared list, printed by name."""
        return {}

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics (BENCHMARK.json ``per_layer``)."""
        layer = self.layer
        rounds = max(1, self.traced_round_count)
        med = statistics.median

        def ms(key: str) -> float:
            return measure.median_ms(layer.get(key, []))

        def setup(key: str) -> float:
            values = self.setup_layers.get(key)
            return med(values) if values else 0.0

        hits = self.plan_cache.get("hit", 0)
        looked_up = hits + self.plan_cache.get("miss", 0)
        metrics: dict[str, tuple[float, str]] = {
            "xml.parse_s": (setup("xml.parse_s"), "s"),
            "backend.prepare_s": (setup("backend.prepare_s"), "s"),
            "procpool.start_s": (setup("procpool.start_s"), "s"),
            "compile_ms": (measure.mean(layer["compile"]) * 1e3, "ms"),
            "plan_cache.hit_ratio": (hits / looked_up if looked_up else 0.0,
                                     "ratio"),
            "prepare_ms": (measure.mean(layer["prepare"]) * 1e3, "ms"),
            "session.overhead_ms": (measure.mean(layer["overhead"]) * 1e3,
                                    "ms"),
        }
        for kind in LAYER_QUERIES:
            metrics[f"execute_ms.{kind}"] = (ms("execute." + kind), "ms")
            metrics[f"serialize_ms.{kind}"] = (ms("serialize." + kind), "ms")
            metrics[f"result_bytes.{kind}"] = (
                float(self.result_bytes.get(kind, 0)), "bytes")
        metrics["engine.evaluate_ms"] = (
            sum(layer["engine.evaluate"]) * 1e3 / rounds, "ms")
        for kernel in KERNELS:
            metrics[f"engine.kernel.{kernel}.self_ms"] = (
                self.kernel_ms.get(kernel, 0.0) / rounds, "ms")
            metrics[f"engine.kernel.{kernel}.tuples"] = (
                self.kernel_tuples.get(kernel, 0) / rounds, "count")
        untraced_rounds = max(1, len(self.round_seconds))
        metrics["gc.pause_ms"] = (self.gc_seconds * 1e3 / untraced_rounds,
                                  "ms")
        metrics["gc.full_collections"] = (self.gc_full / untraced_rounds,
                                          "count")
        metrics.update(self.procpool_layers())
        for key in ("locate", "build", "commit", "lock_hold"):
            metrics[f"update.{key}_ms"] = (ms("update." + key), "ms")
        metrics["update.delta_rows"] = (
            measure.mean(layer["update.delta_rows"]), "count")
        metrics["update.relabels"] = (
            float(sum(layer["update.relabels"])
                  + sum(layer["update.sql.relabels"])), "count")
        metrics["update.sql.commit_ms"] = (ms("update.sql.commit"), "ms")
        metrics["sql.translate_ms"] = (ms("sql.translate"), "ms")
        metrics["sql.statement_ms"] = (ms("sql.statement"), "ms")
        metrics["sql.statements"] = (
            med(layer["sql.statements"]) if layer["sql.statements"] else 0.0,
            "count")
        overhead, error = self.trace_check()
        metrics["trace.overhead_ms"] = (overhead, "ms")
        metrics["trace.parts_error"] = (error, "ratio")
        return metrics

    def procpool_layers(self) -> dict[str, tuple[float, str]]:
        return {"procpool.serial_sum_ms": (0.0, "ms"),
                "procpool.tier_share": (0.0, "ratio")}

    def trace_check(self) -> tuple[float, float]:
        """Tracing overhead per round and the parts-versus-wall error.

        A traced read's layer parts sum to its traced wall time by
        construction.  The check adds up, over the round's read kinds,
        the median traced and the median untraced wall times; the error
        is the share by which the traced sum (the parts) misses the
        untraced one (tolerance in README).
        """
        traced = untraced = 0.0
        for kind, walls in self.traced.items():
            reference = self.untraced_reference(kind)
            if reference:
                traced += statistics.median(walls)
                untraced += statistics.median(reference)
        if not untraced:
            return 0.0, 0.0
        return (traced - untraced) * 1e3, abs(traced - untraced) / untraced

    def health(self) -> dict[str, object]:
        clean = (self.brownout_max == 0 and self.sampled == 0
                 and self.sheds == 0)
        health: dict[str, object] = {
            "cpu_count": self.cpus,
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "brownout_max": self.brownout_max,
            "tail_sampled": self.sampled,
            "tail_sampled_traced": self.sampled_traced,
            "tail_sampled_in_setup": self.sampled_in_setup,
            "sheds": self.sheds,
            "batch_tiers": dict(self.batch_tiers),
            "rounds": len(self.round_seconds),
            "clean": clean,
            "wrong": Counter(self.wrong),
            "errors": self.errors,
        }
        if self.config.trace:
            health["trace_parts_within_tolerance"] = \
                self.trace_check()[1] <= PARTS_TOLERANCE
        return health


class XMarkRead(Workload):
    """Serial warm reads of the eight queries on the mid-size document."""

    name = "xmark_read"

    def __init__(self, config: Config):
        super().__init__(config)
        self.expected = {name: self.mid.expected(name) for name in QUERY_NAMES}

    def setup_once(self) -> XQuerySession:
        session = XQuerySession()
        self._add(session, MID_URI, self.mid_xml)
        self._setup_outputs = self._first_runs(
            session, [(name, QUERY_TEXT[name], "engine")
                      for name in QUERY_NAMES])
        return session

    def check_setup(self, session) -> None:
        for name, output in self._setup_outputs.items():
            self._check(name, output, self.expected[name])

    def round(self) -> None:
        for name in self.rng.sample(QUERY_NAMES, len(QUERY_NAMES)):
            self.read(name, QUERY_TEXT[name], lambda n=name: self.expected[n])


class XMarkBatch(XMarkRead):
    """The same queries as ``run_many`` batches on the default tier."""

    name = "xmark_batch"

    def setup_once(self) -> XQuerySession:
        session = XQuerySession()
        self._add(session, MID_URI, self.mid_xml)
        started = time.perf_counter()
        results = session.run_many([QUERY_TEXT[n] for n in QUERY_NAMES],
                                   max_workers=self.cpus)
        self._setup_outputs = {name: result.to_xml()
                               for name, result in zip(QUERY_NAMES, results)}
        self.setup_layers["procpool.start_s"].append(
            time.perf_counter() - started)
        self.setup_layers["backend.prepare_s"].append(sum(
            record.phases.get("prepare", 0.0)
            for record in session.recorder.records(limit=len(QUERY_NAMES))))
        return session

    def trace_warmup(self) -> None:
        # The in-process comparison passes need the engine's own encoding.
        for name in QUERY_NAMES:
            self.session.run(QUERY_TEXT[name], backend="engine").to_xml()

    def round(self) -> None:
        # One fixed order: the order decides which queries share a worker,
        # so a shuffled batch would be several kinds of operation.
        names = QUERY_NAMES
        if self.tracing:
            # The process tier is not traced across the process boundary:
            # the traced phase runs the same batch serially in-process.
            for name in names:
                self.read(name, QUERY_TEXT[name],
                          lambda n=name: self.expected[n])
            return
        queries = [QUERY_TEXT[name] for name in names]
        session = self.session
        for name in names:
            self.attempted[name] += 1
        started = time.perf_counter()
        results = session.run_many(queries, max_workers=self.cpus,
                                   return_errors=True)
        outputs = []
        serialize = []
        for result in results:
            begun = time.perf_counter()
            outputs.append(None if isinstance(result, BaseException)
                           else result.to_xml())
            serialize.append(time.perf_counter() - begun)
        self._round_time = time.perf_counter() - started
        self._note_brownout()
        records = {record.fingerprint: record for record in
                   session.recorder.records(limit=len(queries))}
        tiers = Counter()
        for name, query, result, output, seconds in zip(
                names, queries, results, outputs, serialize):
            if isinstance(result, BaseException):
                self._fail(name, f"{type(result).__name__}: {result}")
                continue
            tiers[result.backend] += 1
            if result.backend not in ("engine", "procpool") \
                    or result.degradations:
                self._fail(name, f"answered by {result.backend!r}")
                continue
            record = records[query_fingerprint(query)]
            self.samples[name].append(record.wall_seconds + seconds)
            self._note_record(name, record, record.wall_seconds, seconds,
                              output)
            self._check(name, output, self.expected[name])
        self.batch_tiers["+".join(sorted(tiers))] += 1
        if self.config.trace:
            self._serial_pass(names)

    def _serial_pass(self, names: tuple[str, ...]) -> None:
        """The same batch run serially in-process, untraced (not a round)."""
        session = self.session
        total = 0.0
        for name in names:
            started = time.perf_counter()
            session.run(QUERY_TEXT[name], backend="engine").to_xml()
            seconds = time.perf_counter() - started
            self.serial_samples[name].append(seconds)
            total += seconds
        self.layer["procpool.serial_sum"].append(total)

    def untraced_reference(self, kind: str) -> list[float]:
        return self.serial_samples[kind]

    def operation_latencies(self) -> dict[str, tuple[float, str]]:
        return {"batch_p50_ms": (measure.median_ms(self.round_seconds), "ms"),
                "batch_tail_ms": (measure.percentile_ms(
                    self.round_seconds, self.round_tail_percent), "ms")}

    def procpool_layers(self) -> dict[str, tuple[float, str]]:
        answered = sum(self.batch_tiers.values()) * len(QUERY_NAMES)
        by_process = sum(count * len(QUERY_NAMES)
                         for tiers, count in self.batch_tiers.items()
                         if tiers == "procpool")
        return {
            "procpool.serial_sum_ms": (
                measure.median_ms(self.layer["procpool.serial_sum"]), "ms"),
            "procpool.tier_share": (by_process / answered if answered else 0.0,
                                    "ratio"),
        }


class RWMix(Workload):
    """Lookups and figure queries beside replace commits; SQLite on a tiny doc."""

    name = "rw_mix"
    read_tail_percent = 93.0
    engine_reads = ("lookup",) + FIGURE_QUERIES

    def __init__(self, config: Config):
        super().__init__(config)
        self.tiny_xml = generate_xml(TINY_SCALE, seed=config.seed + 1000)
        self.tiny = XMarkModel(self.tiny_xml)
        self._expected: dict[str, object] = {}

    def _figure_expected(self, name: str):
        if name not in self._expected:
            self._expected[name] = self.mid.expected(name)
        return self._expected[name]

    def setup_once(self) -> XQuerySession:
        session = XQuerySession()
        self._add(session, MID_URI, self.mid_xml)
        self._add(session, TINY_URI, self.tiny_xml)
        mid_id = self.mid.person_ids[0]
        tiny_id = self.tiny.person_ids[0]
        runs = [("lookup", lookup_query(MID_URI, mid_id), "engine"),
                ("sql_lookup", lookup_query(TINY_URI, tiny_id), "sqlite")]
        runs += [(name, QUERY_TEXT[name], "engine") for name in FIGURE_QUERIES]
        self._setup_ids = (mid_id, tiny_id)
        self._setup_outputs = self._first_runs(session, runs)
        started = time.perf_counter()
        session.updatable(MID_URI)
        session.updatable(TINY_URI)
        self.setup_layers["backend.prepare_s"][-1] += \
            time.perf_counter() - started
        return session

    def check_setup(self, session) -> None:
        outputs = self._setup_outputs
        mid_id, tiny_id = self._setup_ids
        self._check("lookup", outputs["lookup"],
                    self.mid.expected("lookup", mid_id))
        self._check("sql_lookup", outputs["sql_lookup"],
                    self.tiny.expected("lookup", tiny_id))
        for name in FIGURE_QUERIES:
            self._check(name, outputs[name], self._figure_expected(name))

    def round(self) -> None:
        person_id = self.rng.choice(self.mid.person_ids)
        self.read("lookup", lookup_query(MID_URI, person_id),
                  lambda: self.mid.expected("lookup", person_id))
        self.commit("write", MID_URI, self.mid)
        self._expected.pop("Q8", None)
        self._expected.pop("Q9", None)
        for name in FIGURE_QUERIES:
            self.read(name, QUERY_TEXT[name],
                      lambda n=name: self._figure_expected(n))
        tiny_id = self.rng.choice(self.tiny.person_ids)
        self.read("sql_lookup", lookup_query(TINY_URI, tiny_id),
                  lambda: self.tiny.expected("lookup", tiny_id),
                  backend="sqlite")
        self.commit("sql_write", TINY_URI, self.tiny)

    def operation_latencies(self) -> dict[str, tuple[float, str]]:
        samples = self.samples
        return {
            "read_p50_ms": (measure.median_ms(samples["lookup"]), "ms"),
            "sql_read_p50_ms": (measure.median_ms(samples["sql_lookup"]), "ms"),
            "write_p50_ms": (measure.median_ms(samples["write"]), "ms"),
            "write_tail_ms": (measure.percentile_ms(
                samples["write"], self.round_tail_percent), "ms"),
            "sql_write_p50_ms": (measure.median_ms(samples["sql_write"]),
                                 "ms"),
        }


WORKLOADS = {cls.name: cls for cls in (XMarkRead, XMarkBatch, RWMix)}
