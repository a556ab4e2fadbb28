"""Benchmark of the encsearch build, query and update paths.

    python3 perfbench/run.py --workload build|query|update --seed N \
        --seconds S --trace 0|1 [--size bench|roadmap|toy]

Runs one workload for S seconds of whole rounds against the public
``encsearch`` API, checks every answer, and prints the metrics, one per line
with its unit, then one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: OpenBLAS's default of
# one thread per core was the largest source of run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import resource
import shutil
import sys
import time
import zlib
from contextlib import nullcontext
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "encsearch" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: encsearch sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from encsearch import (  # noqa: E402
    Document,
    EncSearchError,
    Pipeline,
    PipelineConfig,
    save_forest,
    synthetic_corpus,
)
from encsearch.metrics import precision  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

# Corpus sizes.  "bench" is what the benchmark runs; "roadmap" is the size of
# the ROADMAP baseline, too slow for the run budget (see README); "toy" is
# for the smoke check.
SIZES = {
    "bench": {"n_docs": 1000, "n_keywords": 1000, "n_owners": 10},
    "roadmap": {"n_docs": 2000, "n_keywords": 2000, "n_owners": 20},
    "toy": {"n_docs": 120, "n_keywords": 150, "n_owners": 4},
}
PARTITIONS = 4
SIGMA = 0.05
K = 10
QUERY_KEYWORDS = 10
# The corpus and the pipeline config keep seed 0 whatever --seed is: their
# seed decides the partitioning, and with it every cost (see README).
CORPUS_SEED = 0
SETUP_REPEATS = 4
# Save and load are ten times cheaper than a build and vary more from call to
# call, so the outsourcing path saves and loads each built index this often.
PERSIST_REPEATS = 3
# Operations per round.  Runs stop after whole rounds, and rounds this large
# keep the query count of a run inside one band of TAIL_PERCENTILES over a
# wide range of machine speeds, so query_tail_ms is the same percentile on
# every run.
CHECK_QUERIES = 50      # build: queries asked of both pipelines
QUERY_ROUND = 500       # query
UPDATE_ROUND = 30       # update: insert/delete pairs, each update then a query
QUERY_BATCH = 500       # queries drawn from sample_queries at a time
PROBE_DOCS = 6          # build, query: inserted, then deleted, every round
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
WORKLOADS = ("build", "query", "update")
FAILED = object()        # what Run.op returns for an operation that raised


def derive(seed: int, tag: str) -> int:
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0x7FFFFFFF


def config() -> PipelineConfig:
    return PipelineConfig(s=PARTITIONS, sigma=SIGMA, seed=CORPUS_SEED)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def holds_exactly(pipeline, live: set[int]) -> bool:
    """Every live doc id is a leaf of exactly one server tree, and no other
    id is.  The leaves are found by walking the encrypted trees."""
    ids = [n.doc_id for t in pipeline.server.trees for n in t.preorder() if n.is_leaf]
    return len(ids) == len(live) and set(ids) == live


def query_stream(pipeline, seed: int):
    for batch in itertools.count():
        yield from pipeline.sample_queries(
            QUERY_BATCH, QUERY_KEYWORDS, seed=derive(seed, f"queries{batch}")
        )


def fresh_docs(size: str, seed: int):
    """New documents from the corpus generator, with ids the corpus never used."""
    spec = SIZES[size]
    next_id = spec["n_docs"]
    for chunk in itertools.count():
        for d in synthetic_corpus(**spec, seed=derive(seed, f"docs{chunk}")):
            yield Document(next_id, d.owner_id, d.counts)
            next_id += 1


class Run:
    """One benchmark run: times every call into the pipeline, counts
    attempted and failed operations, and records every check."""

    def __init__(self, size: str, tracer: tracing.Tracer | None, tmp: Path):
        self.size = size
        self.tracer = tracer
        self.tmp = tmp
        self.times: dict[str, list[float]] = {}
        self.setup_times: list[float] = []
        self.precisions: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.run_dir_bytes_per_doc = 0.0
        self._dirs = itertools.count()

    def op(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` as one timed operation; FAILED if it raised."""
        self.attempted += 1
        ctx = self.tracer.span(kind, kind=kind) if self.tracer else nullcontext()
        with ctx as span:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except EncSearchError as exc:
                print(f"# {kind} failed: {exc}")
                self.failed += 1
                return FAILED
            self.times.setdefault(kind, []).append(time.perf_counter() - start)
            if span is not None and kind in ("insert", "delete"):
                span.counts["touched"] = result.touched_nodes
        return result

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"# check failed: {what}")
            self.correct = False

    # -- operations with their checks --------------------------------------

    def save_and_load(self, pipeline, live: set[int], repeats: int = 1):
        """Save to a fresh directory and load it back, ``repeats`` times;
        the last loaded pipeline, or None if a save or load failed.  Every
        loaded server forest must hold exactly ``live``."""
        for _ in range(repeats):
            loaded = None
            out = self.tmp / f"run{next(self._dirs)}"
            if self.op("save", pipeline.save, out) is not FAILED:
                self.run_dir_bytes_per_doc = dir_bytes(out) / len(live)
                loaded = self.op("load", Pipeline.load, out)
                if loaded is FAILED:
                    loaded = None
                else:
                    self.check(holds_exactly(loaded, live), "loaded forest holds the live doc ids")
            shutil.rmtree(out, ignore_errors=True)
        return loaded

    def build_save_load(self, docs):
        """The outsourcing path: build, then save and load the index
        PERSIST_REPEATS times."""
        built = self.op("build", Pipeline.build, docs, config())
        if built is FAILED:
            return None, None
        ids = {d.doc_id for d in docs}
        self.check(holds_exactly(built, ids), "every doc id is one server leaf")
        return built, self.save_and_load(built, ids, PERSIST_REPEATS)

    def query(self, pipeline, q, want=None):
        """One query; checked against the brute-force ranking, or against
        ``want`` when given."""
        res = self.op("query", pipeline.query, q.keywords, K, alphas=q.alphas)
        if res is FAILED:
            return None
        if want is None:
            want = oracle.ranking(pipeline, q, K)
        self.check(oracle.same_answer(res.results, want), f"answer to {sorted(q.keywords)}")
        exact = [d for d, _ in pipeline.exact_search(q.keywords, K)]
        self.precisions.append(precision([d for d, _ in res.results], exact))
        return res.results

    def insert(self, pipeline, doc, live: set[int]) -> None:
        if self.op("insert", pipeline.insert_document, doc) is not FAILED:
            live.add(doc.doc_id)
        self.check(holds_exactly(pipeline, live), f"forest after inserting {doc.doc_id}")

    def delete(self, pipeline, doc_id: int, live: set[int]) -> None:
        if self.op("delete", pipeline.delete_document, doc_id) is not FAILED:
            live.discard(doc_id)
        self.check(holds_exactly(pipeline, live), f"forest after deleting {doc_id}")

    def probe_updates(self, pipeline, new_docs, live: set[int]) -> None:
        """Insert a few fresh documents, then delete them again."""
        docs = list(itertools.islice(new_docs, PROBE_DOCS))
        for doc in docs:
            self.insert(pipeline, doc, live)
        for doc in docs:
            self.delete(pipeline, doc.doc_id, live)
        gc.collect()  # the replaced trees are cycles; queries after a probe should not pay for them

    # -- set-up ----------------------------------------------------------------

    def setup(self, workload: str):
        """Repeat the workload's set-up; keep the last one's result."""
        result = None
        for _ in range(SETUP_REPEATS):
            # Free the previous index first.  Trees are reference cycles, so
            # only the cyclic collector frees them; collecting here keeps
            # earlier set-ups out of the serving process's peak RSS.
            result = None
            gc.collect()
            start = time.perf_counter()
            docs = synthetic_corpus(**SIZES[self.size], seed=CORPUS_SEED)
            if workload == "build":
                result = docs, None
            else:
                built, loaded = self.build_save_load(docs)
                if loaded is None:
                    raise SystemExit("perfbench: set-up failed to build the index")
                del built
                result = docs, loaded
            self.setup_times.append(time.perf_counter() - start)
        return result


def run_build(run: Run, seed: int, seconds: float):
    docs, _ = run.setup("build")
    probe_docs = fresh_docs(run.size, derive(seed, "probe"))
    start = time.perf_counter()
    for rnd in itertools.count():
        built, loaded = run.build_save_load(docs)
        if loaded is not None:
            checks = built.sample_queries(
                CHECK_QUERIES, QUERY_KEYWORDS, seed=derive(seed, f"check{rnd}")
            )
            for q in checks:
                want = run.query(built, q)
                if want is not None:
                    run.query(loaded, q, want)
            run.probe_updates(loaded, probe_docs, {d.doc_id for d in docs})
        serving = loaded
        del built, loaded
        gc.collect()  # as in set-up: one round's index is gone before the next
        if time.perf_counter() - start >= seconds:
            break
    if serving is None:
        raise SystemExit("perfbench: the last build round left no loaded index")
    return serving, {d.doc_id for d in docs}


def run_query(run: Run, seed: int, seconds: float):
    docs, serving = run.setup("query")
    live = {d.doc_id for d in docs}
    stream = query_stream(serving, seed)
    probe_docs = fresh_docs(run.size, derive(seed, "probe"))
    start = time.perf_counter()
    while True:
        for q in itertools.islice(stream, QUERY_ROUND):
            run.query(serving, q)
        run.probe_updates(serving, probe_docs, live)
        if time.perf_counter() - start >= seconds:
            break
    return serving, live


def run_update(run: Run, seed: int, seconds: float):
    docs, serving = run.setup("update")
    live = {d.doc_id for d in docs}
    stream = query_stream(serving, seed)
    new_docs = fresh_docs(run.size, seed)
    rng = np.random.default_rng(derive(seed, "deletes"))
    start = time.perf_counter()
    while True:
        for _ in range(UPDATE_ROUND):
            run.insert(serving, next(new_docs), live)
            run.query(serving, next(stream))
            victims = sorted(live)
            run.delete(serving, victims[int(rng.integers(len(victims)))], live)
            run.query(serving, next(stream))
        run.save_and_load(serving, live)  # persist the batch, as `encsearch update` does
        if time.perf_counter() - start >= seconds:
            break
    return serving, live


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it;
    the median when there are fewer than forty samples."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.percentile(values, 50.0))


def end_to_end(run: Run, serving, live: set[int]) -> dict:
    def ms(kind: str) -> float:
        return 1e3 * median(run.times[kind])

    server_file = run.tmp / "server.bin"
    save_forest(serving.server.trees, server_file)
    pct, tail_s = tail(run.times["query"])
    print(f"# query_tail_ms is p{pct:g} of {len(run.times['query'])} queries")
    values = {
        "setup_s": (median(run.setup_times), "s"),
        "build_s": (median(run.times["build"]), "s"),
        "save_s": (median(run.times["save"]), "s"),
        "load_s": (median(run.times["load"]), "s"),
        "server_bytes_per_doc": (server_file.stat().st_size / len(live), "B"),
        "run_dir_bytes_per_doc": (run.run_dir_bytes_per_doc, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "query_p50_ms": (ms("query"), "ms"),
        "query_tail_ms": (1e3 * tail_s, "ms"),
        "precision_at_k": (float(np.mean(run.precisions)), "ratio"),
        "insert_p50_ms": (ms("insert"), "ms"),
        "delete_p50_ms": (ms("delete"), "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "bench") -> dict:
    """Run one workload and return its result object."""
    out_dir = HERE / "out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    run = Run(size, tracer, tmp)
    try:
        if tracer:
            tracer.install()
        body = {"build": run_build, "query": run_query, "update": run_update}[workload]
        serving, live = body(run, seed, seconds)
        e2e = end_to_end(run, serving, live)
        metrics = e2e
        if tracer:
            metrics = tracing.layer_metrics(tracer, workload, serving.server.trees)
            tracer.write(
                out_dir / f"trace-{workload}-seed{seed}.json",
                {"workload": workload, "seed": seed, "size": size,
                 "end_to_end": e2e, "per_layer": metrics},
            )
            print("# traced end-to-end: " + ", ".join(
                f"{n}={e2e[n]['value']:.6g}" for n in ("query_p50_ms", "build_s")))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']:14.6g} {m['unit']}")
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    line = json.dumps(result)
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (results / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
