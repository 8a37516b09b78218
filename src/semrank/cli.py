"""Command-line front end.

Exit codes: 0 on success, 1 for command-line usage errors, 2 for runtime
failures (bad parameter values, I/O problems, non-convergence, or any other
exception a command raises).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .compression import CompressionConfig, greedy_select
from .datagen import SyntheticDataset, SyntheticDatasetSpec, composite_query, generate_clusters
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    export_report,
    report_to_csv,
    report_to_json,
    run_experiment_bundle,
    sweep_lambda,
    sweep_to_csv,
    sweep_to_json,
)
from .candidates import top_n_candidates
from .fileio import load_dataset, load_graph, save_dataset, save_graph
from .graph import PprConfig, SeedVector, normalize_adjacency, personalized_pagerank
from .hybrid import HybridConfig, build_result, rank_hybrid
from .plotting import emit_bundle_plot


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; this CLI reserves 2 for
    # runtime failures, so usage errors are remapped to exit code 1.
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_dataset_flags(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("--data", metavar="PATH", help="dataset file to load instead of generating")
    parser.add_argument("--num-points", type=int, default=200, help="points to generate (default 200)")
    parser.add_argument("--dim", type=int, default=2, help="embedding dimension (default 2)")
    parser.add_argument("--clusters", type=int, default=5, help="number of clusters (default 5)")
    parser.add_argument("--cluster-std", type=float, default=0.5, help="blob standard deviation (default 0.5)")
    parser.add_argument("--separation", type=float, default=5.0, help="minimum centroid distance (default 5.0)")
    parser.add_argument("--seed", type=int, default=42, help="rng seed (default 42)")


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph-k", type=int, default=5, help="knn out-degree (default 5)")
    parser.add_argument(
        "--symbolic-mode",
        choices=("none", "sparse", "dense"),
        default="sparse",
        help="symbolic edge augmentation (default sparse)",
    )
    parser.add_argument("--threshold", type=float, default=0.85, help="dense-mode similarity threshold (default 0.85)")
    parser.add_argument("--symbolic-m", type=int, default=2, help="sparse-mode links per head (default 2)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")


def _dataset_spec(args: argparse.Namespace) -> SyntheticDatasetSpec:
    return SyntheticDatasetSpec(
        num_points=args.num_points,
        dim=args.dim,
        num_clusters=args.clusters,
        cluster_std=args.cluster_std,
        separation=args.separation,
        rng_seed=args.seed,
    )


def _load_or_generate(args: argparse.Namespace) -> tuple[SyntheticDataset, SyntheticDatasetSpec]:
    """The dataset to run on, and the spec the config echo reports for it.

    A loaded file's spec takes its size, dimension and cluster count from
    the file; the remaining fields echo the flags.
    """
    if not getattr(args, "data", None):
        spec = _dataset_spec(args)
        return generate_clusters(spec), spec
    dataset = load_dataset(args.data)
    spec = replace(
        _dataset_spec(args),
        num_points=len(dataset.points),
        dim=dataset.points[0].dim if dataset.points else args.dim,
        num_clusters=len(set(dataset.labels.values())),
    )
    return dataset, spec


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _single_result_report(result, config: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(results=(result,), config=config, runtimes_ms={})


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_clusters(_dataset_spec(args))
    save_dataset(dataset, args.out)
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    dataset, spec = _load_or_generate(args)
    query = composite_query(dataset, args.seed)
    pool = top_n_candidates(query, dataset.points, args.pool_size)
    trace = greedy_select(pool, CompressionConfig(k=args.k, lam=args.lam))
    result = build_result(
        "semantic_compression", list(zip(trace.chosen, trace.marginal_gains)), dataset.by_id, query
    )
    config = ExperimentConfig(dataset=spec, pool_size=args.pool_size, k=args.k, lam=args.lam)
    report = _single_result_report(result, config)
    _write(report_to_csv(report) if args.format == "csv" else report_to_json(report), args.out)
    return 0


def _cmd_build_graph(args: argparse.Namespace) -> int:
    from .experiments import build_experiment_graph

    dataset, spec = _load_or_generate(args)
    # Only the graph fields matter here; pool_size/k are pinned to 1 so the
    # carrier config validates for datasets of any size.
    config = ExperimentConfig(
        dataset=spec,
        pool_size=1,
        k=1,
        graph_k=args.graph_k,
        symbolic_mode=args.symbolic_mode,
        symbolic_threshold=args.threshold,
        symbolic_m=args.symbolic_m,
    )
    graph = build_experiment_graph(config, dataset)
    save_graph(graph, args.out)
    return 0


def _cmd_ppr(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    seed_ids = [piece for piece in args.seeds.split(",") if piece]
    seed = SeedVector.uniform(graph.node_ids, seed_ids)
    config = PprConfig(alpha=args.alpha)
    scores = personalized_pagerank(normalize_adjacency(graph), seed, config)
    ranked = sorted(scores, key=lambda pair: (-pair[1], pair[0]))
    if args.format == "csv":
        lines = ["node,score"] + [f"{node_id},{score:.6f}" for node_id, score in ranked]
        text = "\n".join(lines) + "\n"
    else:
        import json

        text = json.dumps([{"node": node_id, "score": score} for node_id, score in ranked], indent=2) + "\n"
    _write(text, args.out)
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    from .experiments import build_experiment_graph

    dataset, spec = _load_or_generate(args)
    config = ExperimentConfig(
        dataset=spec,
        pool_size=args.pool_size,
        k=args.k,
        graph_k=args.graph_k,
        symbolic_mode=args.symbolic_mode,
        symbolic_threshold=args.threshold,
        symbolic_m=args.symbolic_m,
        ppr=PprConfig(alpha=args.alpha),
        beta=args.beta,
    )
    query = composite_query(dataset, args.seed)
    pool = top_n_candidates(query, dataset.points, args.pool_size)
    graph = build_experiment_graph(config, dataset)
    seed = SeedVector.uniform(graph.node_ids, pool.ids[: min(config.seed_size, len(pool))])
    result = rank_hybrid(pool, graph, seed, config.ppr, HybridConfig(beta=args.beta, k=args.k))
    report = _single_result_report(result, config)
    _write(report_to_csv(report) if args.format == "csv" else report_to_json(report), args.out)
    return 0


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=_dataset_spec(args),
        pool_size=args.pool_size,
        k=args.k,
        lam=args.lam,
        graph_k=args.graph_k,
        symbolic_mode=args.symbolic_mode,
        symbolic_threshold=args.threshold,
        symbolic_m=args.symbolic_m,
        ppr=PprConfig(alpha=args.alpha),
        beta=args.beta,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    bundle = run_experiment_bundle(_experiment_config(args))
    if args.out and args.out != "-":
        export_report(bundle.report, args.format, args.out)
    else:
        _write(report_to_csv(bundle.report) if args.format == "csv" else report_to_json(bundle.report), None)
    if args.plot:
        emit_bundle_plot(bundle, args.plot)
    return 0


def _cmd_sweep_lambda(args: argparse.Namespace) -> int:
    lambdas = [float(piece) for piece in args.lambdas.split(",") if piece]
    config = _experiment_config(args)
    points = sweep_lambda(config, lambdas, args.runs)
    _write(sweep_to_csv(points) if args.format == "csv" else sweep_to_json(points), args.out)
    return 0


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="semrank", description="retrieval experiments over embedded corpora")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    generate = commands.add_parser("generate", help="write a synthetic clustered dataset")
    _add_dataset_flags(generate, with_input=False)
    generate.add_argument("--out", metavar="PATH", required=True, help="dataset file to write")
    generate.set_defaults(handler=_cmd_generate)

    compress = commands.add_parser("compress", help="coverage+diversity selection from a candidate pool")
    _add_dataset_flags(compress)
    compress.add_argument("--pool-size", type=int, default=50, help="candidate pool size (default 50)")
    compress.add_argument("--k", type=int, default=10, help="items to select (default 10)")
    compress.add_argument("--lambda", dest="lam", type=float, default=0.25, help="diversity weight (default 0.25)")
    _add_output_flags(compress)
    compress.set_defaults(handler=_cmd_compress)

    build_graph = commands.add_parser("build-graph", help="build a knn graph with optional symbolic edges")
    _add_dataset_flags(build_graph)
    _add_graph_flags(build_graph)
    build_graph.add_argument("--out", metavar="PATH", required=True, help="graph file to write")
    build_graph.set_defaults(handler=_cmd_build_graph)

    ppr = commands.add_parser("ppr", help="personalized pagerank over a saved graph")
    ppr.add_argument("--graph", metavar="PATH", required=True, help="graph file to load")
    ppr.add_argument("--seeds", required=True, help="comma-separated seed node ids")
    ppr.add_argument("--alpha", type=float, default=0.15, help="restart weight (default 0.15)")
    _add_output_flags(ppr)
    ppr.set_defaults(handler=_cmd_ppr)

    retrieve = commands.add_parser("retrieve", help="hybrid retrieval blending vector and graph scores")
    _add_dataset_flags(retrieve)
    retrieve.add_argument("--pool-size", type=int, default=50, help="candidate pool size (default 50)")
    retrieve.add_argument("--k", type=int, default=10, help="items to retrieve (default 10)")
    retrieve.add_argument("--beta", type=float, default=0.5, help="graph blend weight (default 0.5)")
    retrieve.add_argument("--alpha", type=float, default=0.15, help="restart weight (default 0.15)")
    _add_graph_flags(retrieve)
    _add_output_flags(retrieve)
    retrieve.set_defaults(handler=_cmd_retrieve)

    experiment = commands.add_parser("experiment", help="run the three-method benchmark")
    _add_dataset_flags(experiment, with_input=False)
    experiment.add_argument("--pool-size", type=int, default=50, help="candidate pool size (default 50)")
    experiment.add_argument("--k", type=int, default=10, help="items per method (default 10)")
    experiment.add_argument("--lambda", dest="lam", type=float, default=0.25, help="diversity weight (default 0.25)")
    experiment.add_argument("--beta", type=float, default=1.0, help="graph blend weight (default 1.0)")
    experiment.add_argument("--alpha", type=float, default=0.15, help="restart weight (default 0.15)")
    _add_graph_flags(experiment)
    _add_output_flags(experiment)
    experiment.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")
    experiment.set_defaults(handler=_cmd_experiment)

    sweep = commands.add_parser("sweep-lambda", help="sweep the diversity weight over seeded runs")
    _add_dataset_flags(sweep, with_input=False)
    sweep.add_argument("--pool-size", type=int, default=50, help="candidate pool size (default 50)")
    sweep.add_argument("--k", type=int, default=10, help="items to select (default 10)")
    sweep.add_argument(
        "--lambdas",
        default="0,0.25,0.5,1,2,4",
        help="comma-separated diversity weights (default 0,0.25,0.5,1,2,4)",
    )
    sweep.add_argument("--runs", type=int, default=20, help="number of seeded runs to average (default 20)")
    # The sweep overrides the diversity weight per point; the base config
    # still needs a value, so the flag exists but stays undocumented.
    sweep.add_argument("--lambda", dest="lam", type=float, default=0.25, help=argparse.SUPPRESS)
    sweep.add_argument("--beta", type=float, default=1.0, help=argparse.SUPPRESS)
    sweep.add_argument("--alpha", type=float, default=0.15, help=argparse.SUPPRESS)
    sweep.add_argument("--graph-k", type=int, default=5, help=argparse.SUPPRESS)
    sweep.add_argument("--symbolic-mode", choices=("none", "sparse", "dense"), default="sparse", help=argparse.SUPPRESS)
    sweep.add_argument("--threshold", type=float, default=0.85, help=argparse.SUPPRESS)
    sweep.add_argument("--symbolic-m", type=int, default=2, help=argparse.SUPPRESS)
    _add_output_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep_lambda)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return int(args.handler(args))
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        # str() of a KeyError quotes its message; print the message itself.
        text = exc.args[0] if len(exc.args) == 1 and isinstance(exc.args[0], str) else str(exc)
        print(f"error: {text or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
