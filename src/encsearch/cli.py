"""Command-line surface: build, search, tune, bench, update, inspect.

Every subcommand is a thin shell over an engine or benchmark operation; flag
names mirror the scheme parameters (--s, --sigma, --k, --t, --U-ratio,
--omega, --R).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import benchmarks, padding
from .corpus import document_from_record, load_corpus, synthetic_corpus
from .engine import Pipeline, PipelineConfig
from .errors import EncSearchError


def _default_out() -> str:
    return os.environ.get("ENCSEARCH_OUT", "run")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, help="partition count (default: ~1000 keywords each)")
    p.add_argument("--sigma", type=float, help="pseudo-keyword noise std")
    p.add_argument("--U-ratio", dest="u_ratio", type=float,
                   help="pseudo dimensions per partition as a fraction in [0, 1] of real ones")
    p.add_argument("--omega", type=int, help="nonzero pseudo entries per vector")
    p.add_argument("--R", dest="probe_count", type=int, help="probe queries for leaf ordering")
    p.add_argument("--seed", type=int)


def _config(cls, args):
    """A ``cls`` of the flags given; the others keep the dataclass defaults."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if getattr(args, f.name, None) is not None})


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise EncSearchError(f"--grid {spec!r}: expected LO:HI:STEP") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise EncSearchError(f"--grid {spec!r}: LO, HI and STEP must be finite")
    if step <= 0:
        raise EncSearchError(f"--grid {spec!r}: STEP must be positive")
    grid = []
    v = lo
    while v <= hi + 1e-12:
        grid.append(round(v, 10))
        v += step
    return grid


def cmd_build(args) -> int:
    config = _config(PipelineConfig, args)
    if args.synthetic:
        try:
            n_docs, n_kw, n_owners = (int(x) for x in args.synthetic.split(":"))
        except ValueError:
            raise EncSearchError(
                f"--synthetic {args.synthetic!r}: expected DOCS:KEYWORDS:OWNERS"
            ) from None
        docs = synthetic_corpus(n_docs, n_kw, n_owners, seed=config.seed)
    elif args.corpus:
        docs = load_corpus(args.corpus)
    else:
        print("build: need --corpus or --synthetic", file=sys.stderr)
        return 2
    pipeline = Pipeline.build(docs, config)
    pipeline.save(args.out)
    print(f"built {pipeline.s} partition(s) over {len(pipeline.pset.assignments)} docs, "
          f"dictionary size {len(pipeline.pset.home)}; artifacts in {args.out}/")
    return 0


def cmd_search(args) -> int:
    pipeline = Pipeline.load(args.run)
    keywords = [w.strip() for w in args.keywords.split(",") if w.strip()]
    res = pipeline.query(keywords, k=args.k, t=args.t)
    for rank, (doc_id, score) in enumerate(res.results, 1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    print(f"# partitions={sorted(res.visited)} visited={res.visited} "
          f"elapsed={res.elapsed:.4f}s", file=sys.stderr)
    return 0


def cmd_tune(args) -> int:
    grid = _parse_grid(args.grid)
    pipeline = Pipeline.load(args.run)
    queries = pipeline.sample_queries(args.queries, seed=args.seed)
    report = padding.optimize_noise(pipeline, grid, args.k, queries)
    # Beside the run directory, not in it: the next save replaces that whole.
    out = Path(args.out) if args.out else Path(args.run).resolve().parent
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "fig3_equilibrium.csv")
    print(f"sigma*={report.sigma_star:g} f={report.best_f:.2f} "
          f"discriminator_accuracy={report.discriminator_accuracy_at_star:.3f}")
    print(f"wrote {out / 'fig3_equilibrium.csv'}")
    return 0


def cmd_bench(args) -> int:
    cfg = _config(benchmarks.BenchmarkConfig, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.what in ("orders", "all"):
        for st in benchmarks.bench_tree_orders(cfg, out):
            print(f"{st.name}: mean visited {st.mean_visited:.1f}, "
                  f"variance {st.var_visited:.1f}, mean time {st.mean_time*1e3:.3f} ms")
    if args.what in ("forest", "all"):
        sp = benchmarks.bench_forest_speedup(cfg, out)
        print(f"forest speedup: visited x{sp.visited_ratio:.2f}, wall clock x{sp.time_ratio:.2f} "
              f"(theoretical eta {sp.theoretical_eta:.1f})")
    if args.what in ("scaling", "all"):
        sizes = [int(x) for x in args.sizes.split(",")]
        for row in benchmarks.bench_scaling(cfg, sizes, out):
            print(row)
    if args.what in ("update", "all"):
        ub = benchmarks.bench_update(cfg, out_dir=out)
        print(f"update: forest {ub.forest_mean_touched:.1f} vs single {ub.single_mean_touched:.1f} "
              f"touched nodes (ratio {ub.per_update_ratio:.3f}, "
              f"theoretical {ub.theoretical_per_update:.3f})")
    return 0


def cmd_update(args) -> int:
    if args.insert is not None:
        try:
            rec = json.loads(Path(args.insert).read_text())
        except json.JSONDecodeError as exc:
            raise EncSearchError(f"{args.insert}: invalid JSON ({exc})") from None
        doc = document_from_record(rec, args.insert)
    pipeline = Pipeline.load(args.run)
    if args.delete is not None:
        report = pipeline.delete_document(args.delete)
        print(f"deleted doc {report.doc_id} from partition {report.partition} "
              f"(touched {report.touched_nodes} nodes, re-encrypted {report.encrypted_rows} rows, "
              f"rebuilt={report.rebuilt})")
    else:
        report = pipeline.insert_document(doc)
        print(f"inserted doc {report.doc_id} into partition {report.partition} "
              f"(touched {report.touched_nodes} nodes, re-encrypted {report.encrypted_rows} rows, "
              f"rebuilt={report.rebuilt})")
    pipeline.save(args.run)
    return 0


def cmd_inspect(args) -> int:
    pipeline = Pipeline.load(args.run)
    info = {
        "documents": len(pipeline.pset.assignments),
        "dictionary": len(pipeline.pset.home),
        "partitions": pipeline.s,
        "sub_dictionary_sizes": pipeline.pset.sizes,
        "pseudo_dims": [m.pseudo_count for m in pipeline.noise],
        "sigma": [m.sigma for m in pipeline.noise],
        "tree_depths": [t.depth() for t in pipeline.trees],
        "tree_leaves": [len(t.leaves) for t in pipeline.trees],
    }
    print(json.dumps(info, indent=2))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encsearch",
        description="Multi-owner encrypted ranked search: build, query and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="corpus -> encrypted forest + keys")
    p.add_argument("--corpus", help="JSONL corpus (doc_id, owner_id, text|terms)")
    p.add_argument("--synthetic", help="generate a corpus: DOCS:KEYWORDS:OWNERS")
    p.add_argument("--out", default=_default_out())
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="keywords -> top-k document ids")
    p.add_argument("--run", default=_default_out())
    p.add_argument("--keywords", required=True, help="comma separated")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--t", type=int, default=None, help="partitions to search")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("tune", help="sigma sweep -> equilibrium CSV")
    p.add_argument("--run", default=_default_out())
    p.add_argument("--grid", default="0.01:0.2:0.01", help="LO:HI:STEP")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="directory for fig3_equilibrium.csv (default: the run directory's parent)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("bench", help="search/update benchmarks -> CSV")
    p.add_argument("what", choices=["orders", "forest", "scaling", "update", "all"])
    p.add_argument("--n-docs", type=int)
    p.add_argument("--n-keywords", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--query-keywords", type=int)
    p.add_argument("--mean-len", type=int)
    p.add_argument("--zipf-a", type=float)
    p.add_argument("--sizes", default="250,500,1000,2000")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("update", help="insert or delete a document")
    p.add_argument("--run", default=_default_out())
    change = p.add_mutually_exclusive_group(required=True)
    change.add_argument("--insert", help="path to a JSON document record")
    change.add_argument("--delete", type=int, help="doc_id to delete")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("inspect", help="dump partition/dictionary stats")
    p.add_argument("--run", default=_default_out())
    p.set_defaults(func=cmd_inspect)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` (key=value lines) into flags.

    Config values are inserted right after the subcommand so explicit flags
    given on the command line take precedence."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv) or argv[i + 1].startswith("-"):
        raise EncSearchError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    extra: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        extra.extend([f"--{key.strip().replace('_', '-')}", val.strip()])
    return rest[:1] + extra + rest[1:]


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(_apply_config_file(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors, --help
        return int(exc.code or 0)
    except (EncSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
