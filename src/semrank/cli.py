"""Command-line front end.

Exit codes: 0 on success, 1 for command-line usage errors, 2 for runtime
failures (bad parameter values, I/O problems, non-convergence, or any other
exception a command raises).

Every command's ``ExperimentConfig`` comes from :func:`_config`, and
``compress``, ``retrieve`` and ``build-graph`` call the stage functions that
``experiment`` runs, so each gives what its stage gives inside ``experiment``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .candidates import CandidatePool, top_n_candidates
from .datagen import SyntheticDataset, SyntheticDatasetSpec, composite_query, generate_clusters
from .experiments import (
    SYMBOLIC_MODES,
    ExperimentConfig,
    ExperimentReport,
    build_experiment_graph,
    compress,
    graph_rank,
    report_to_csv,
    report_to_json,
    run_experiment_bundle,
    sweep_lambda,
    sweep_to_csv,
    sweep_to_json,
)
from .fileio import load_dataset, load_graph, save_dataset, save_graph
from .geometry import ranked
from .graph import PprConfig, SeedVector, normalize_adjacency, ppr_mass
from .plotting import emit_bundle_plot


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; this CLI reserves 2 for
    # runtime failures, so usage errors are remapped to exit code 1.
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_flag(parser: argparse.ArgumentParser, flag: str, default: object, what: str, **kwargs: object) -> None:
    """``flag``, parsed with the type of its ``default``, which its help names."""
    parser.add_argument(flag, type=type(default), default=default, help=f"{what} (default %(default)s)", **kwargs)


def _add_dataset_flags(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("--data", metavar="PATH", help="dataset file to load instead of generating")
    spec = SyntheticDatasetSpec
    _add_flag(parser, "--num-points", spec.num_points, "points to generate")
    _add_flag(parser, "--dim", spec.dim, "embedding dimension")
    _add_flag(parser, "--clusters", spec.num_clusters, "number of clusters")
    _add_flag(parser, "--cluster-std", spec.cluster_std, "blob standard deviation")
    _add_flag(parser, "--separation", spec.separation, "minimum centroid distance")
    _add_flag(parser, "--seed", spec.rng_seed, "rng seed")


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    config = ExperimentConfig
    _add_flag(parser, "--graph-k", config.graph_k, "knn out-degree")
    _add_flag(parser, "--symbolic-mode", config.symbolic_mode, "symbolic edge augmentation", choices=SYMBOLIC_MODES)
    _add_flag(
        parser, "--threshold", config.symbolic_threshold, "dense-mode similarity threshold", dest="symbolic_threshold"
    )
    _add_flag(parser, "--symbolic-m", config.symbolic_m, "sparse-mode links per head")


def _add_selection_flags(parser: argparse.ArgumentParser, k_help: str, with_lambda: bool = False) -> None:
    config = ExperimentConfig
    _add_flag(parser, "--pool-size", config.pool_size, "candidate pool size")
    _add_flag(parser, "--k", config.k, k_help)
    if with_lambda:
        _add_flag(parser, "--lambda", config.lam, "diversity weight", dest="lam")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    _add_flag(parser, "--format", "csv", "output format", choices=("csv", "json"))
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


def _config(args: argparse.Namespace, spec: SyntheticDatasetSpec) -> ExperimentConfig:
    """The command's config: each field from the flag whose ``dest`` has its
    name, ``--alpha`` as the PPR restart weight, and any field the command
    has no flag for at its default."""
    values = {field.name: getattr(args, field.name) for field in fields(ExperimentConfig) if hasattr(args, field.name)}
    if hasattr(args, "alpha"):
        values["ppr"] = PprConfig(alpha=args.alpha)
    return ExperimentConfig(**values, dataset=spec)


def _pool(args: argparse.Namespace) -> tuple[SyntheticDataset, ExperimentConfig, CandidatePool]:
    """The dataset, the validated config and the query's candidate pool."""
    dataset, spec = _load_or_generate(args)
    config = _config(args, spec)
    pool = top_n_candidates(composite_query(dataset, args.seed), dataset.points, config.pool_size)
    return dataset, config, pool


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _write_report(args: argparse.Namespace, report: ExperimentReport) -> None:
    _write(report_to_csv(report) if args.format == "csv" else report_to_json(report), args.out)


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_clusters(_dataset_spec(args))
    save_dataset(dataset, args.out)
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    dataset, config, pool = _pool(args)
    result = compress(dataset, pool, config.k, config.lam)
    _write_report(args, ExperimentReport(results=(result,), config=config, runtimes_ms={}))
    return 0


def _cmd_build_graph(args: argparse.Namespace) -> int:
    dataset, spec = _load_or_generate(args)
    save_graph(build_experiment_graph(_config(args, spec), dataset), args.out)
    return 0


def _cmd_ppr(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    seed_ids = [piece for piece in args.seeds.split(",") if piece]
    seed = SeedVector.uniform(graph.node_ids, seed_ids)
    config = PprConfig(alpha=args.alpha)
    mass = ppr_mass(normalize_adjacency(graph), seed, config)
    ranking = [(graph.node_ids[i], float(mass[i])) for i in ranked(mass, graph.nodes.id_ranks)]
    if args.format == "csv":
        lines = ["node,score"] + [f"{node_id},{score:.6f}" for node_id, score in ranking]
        text = "\n".join(lines) + "\n"
    else:
        import json

        text = json.dumps([{"node": node_id, "score": score} for node_id, score in ranking], indent=2) + "\n"
    _write(text, args.out)
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    dataset, config, pool = _pool(args)
    result = graph_rank(config, pool, build_experiment_graph(config, dataset))
    _write_report(args, ExperimentReport(results=(result,), config=config, runtimes_ms={}))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    bundle = run_experiment_bundle(_config(args, _dataset_spec(args)))
    # Plotted first, so a dataset that cannot be plotted leaves no report.
    if args.plot:
        emit_bundle_plot(bundle, args.plot)
    _write_report(args, bundle.report)
    return 0


def _cmd_sweep_lambda(args: argparse.Namespace) -> int:
    lambdas = [float(piece) for piece in args.lambdas.split(",") if piece]
    points = sweep_lambda(_config(args, _dataset_spec(args)), lambdas, args.runs)
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
    _add_selection_flags(compress, "items to select", with_lambda=True)
    _add_output_flags(compress)
    compress.set_defaults(handler=_cmd_compress)

    build_graph = commands.add_parser("build-graph", help="build a knn graph with optional symbolic edges")
    _add_dataset_flags(build_graph)
    _add_graph_flags(build_graph)
    build_graph.add_argument("--out", metavar="PATH", required=True, help="graph file to write")
    # Only the graph fields matter here; pool_size/k are pinned to 1 so the
    # carrier config validates for datasets of any size.
    build_graph.set_defaults(handler=_cmd_build_graph, pool_size=1, k=1)

    ppr = commands.add_parser("ppr", help="personalized pagerank over a saved graph")
    ppr.add_argument("--graph", metavar="PATH", required=True, help="graph file to load")
    ppr.add_argument("--seeds", required=True, help="comma-separated seed node ids")
    _add_flag(ppr, "--alpha", PprConfig.alpha, "restart weight")
    _add_output_flags(ppr)
    ppr.set_defaults(handler=_cmd_ppr)

    retrieve = commands.add_parser("retrieve", help="hybrid retrieval blending vector and graph scores")
    _add_dataset_flags(retrieve)
    _add_selection_flags(retrieve, "items to retrieve")
    # Blends both channels by default, unlike the pure-graph config default.
    _add_flag(retrieve, "--beta", 0.5, "graph blend weight")
    _add_flag(retrieve, "--alpha", PprConfig.alpha, "restart weight")
    _add_graph_flags(retrieve)
    _add_output_flags(retrieve)
    retrieve.set_defaults(handler=_cmd_retrieve)

    experiment = commands.add_parser("experiment", help="run the three-method benchmark")
    _add_dataset_flags(experiment, with_input=False)
    _add_selection_flags(experiment, "items per method", with_lambda=True)
    _add_flag(experiment, "--beta", ExperimentConfig.beta, "graph blend weight")
    _add_flag(experiment, "--alpha", PprConfig.alpha, "restart weight")
    _add_graph_flags(experiment)
    _add_output_flags(experiment)
    experiment.add_argument("--plot", metavar="PATH", help="also write an SVG rendering")
    experiment.set_defaults(handler=_cmd_experiment)

    sweep = commands.add_parser("sweep-lambda", help="sweep the diversity weight over seeded runs")
    _add_dataset_flags(sweep, with_input=False)
    _add_selection_flags(sweep, "items to select")
    _add_flag(sweep, "--lambdas", "0,0.25,0.5,1,2,4", "comma-separated diversity weights")
    _add_flag(sweep, "--runs", 20, "number of seeded runs to average")
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
