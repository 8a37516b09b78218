"""The CLI's observable surface, pinned: output bytes, error paths, flags.

The digests, messages and flag tables below were recorded from the build
in which each command wired its own pipeline stages and config, so moving
the commands onto shared stages and one config builder must not move a
byte, a message or a flag.
"""

import argparse
import hashlib
import json
from dataclasses import asdict

import pytest

from semrank.cli import _build_parser, main
from semrank.datagen import SyntheticDatasetSpec
from semrank.experiments import ExperimentConfig
from semrank.graph import PprConfig

_DATA = ["--num-points", "30", "--clusters", "3", "--seed", "7"]
_SMALL = [*_DATA, "--pool-size", "10", "--k", "3", "--graph-k", "3"]
# sweep-lambda never builds a graph, so it takes no graph flags.
_SWEEP = [*_DATA, "--pool-size", "10", "--k", "3"]
# Placeholders for the files the ``files`` fixture writes: a 30-point and a
# 250-point dataset, a graph over the 30 points, a graph whose row for "a"
# sums past the float range, and an output path.
_D30, _D250, _GRAPH, _OVERFLOW, _OUT = "{d30}", "{d250}", "{graph}", "{overflow}", "{out}"

# Command line -> SHA-256 of its output (``--out`` file, else stdout).
_OUTPUT_DIGESTS = {
    ("compress", *_DATA, "--pool-size", "10", "--k", "3"):
        "d715c6297f1d91a65523d2ef723b761c7ec8bebbf8a168228cc3b6f2ccff341c",
    ("compress", *_DATA, "--pool-size", "10", "--k", "3", "--format", "json"):
        "092005bb0fa32c7227f2d513264e580d583143cf4b8f543114212150f12d0faa",
    ("compress", "--lambda", "0.5", "--out", _OUT): "69d06ebf70556ed08308172f0e73181e363b333f9f1ee2398f6401dbe679b599",
    ("compress", "--data", _D30, "--pool-size", "10", "--k", "3", "--lambda", "1"):
        "be40f19064246cb16df1a2121be1b7eba154f173902eefc6cf1e76ce96a4f8f4",
    ("compress", "--data", _D30, "--pool-size", "10", "--k", "3", "--format", "json"):
        "d9554af8b9da65fa04788b0fac240e94685abea65d663e5f717b94ed904b28d2",
    ("compress", "--data", _D250, "--pool-size", "220", "--k", "5"):
        "12f16cb64c5984d58e805be3e3430e76b3ee13db25a5d0b693123cb39b183953",
    ("compress", "--data", _D250, "--pool-size", "220", "--k", "5", "--format", "json"):
        "c24014f9eb7a222290cad08e9d4ed6ed857c745ca72fdd70f1d1562071732f7a",
    ("retrieve", *_SMALL): "f2f4b8e3ceb8f250ecc58a85d6e1027bce92871eb5400d3f35224dac847f36fc",
    ("retrieve", *_SMALL, "--format", "json"): "658e9363c1d8fab6cba1d45d218025e43c02f32ca4b29ccb2275bfd81743ae31",
    ("retrieve", *_SMALL, "--beta", "1.0"): "de7830662f6f9fd08c82e8a690ff1f956b12878b6a800214829e6ca34f55e0f7",
    ("retrieve", *_SMALL, "--beta", "1.0", "--format", "json", "--out", _OUT):
        "daa8e0f5c85dfe4f078b7cbf2485d80354031ba05526266124b9bdcacbfe0558",
    ("retrieve", "--symbolic-mode", "dense", "--threshold", "0.6", "--alpha", "0.3"):
        "d9de75863a85223feb39d0235dcbb90689fb1c6068e9cc28c5bdea50280463ad",
    ("retrieve", "--data", _D30, "--pool-size", "10", "--k", "3", "--symbolic-mode", "none"):
        "ee2381f34b2bb1e992cce5caa6d73af0c894d25f8e4fe853d552559f89823669",
    ("retrieve", "--data", _D30, "--pool-size", "10", "--k", "3", "--format", "json"):
        "671c0f1558278e6c87e5544cefba57be9145c21a6b6a02059d20664216123c8f",
    ("retrieve", "--data", _D250, "--pool-size", "220", "--k", "5"):
        "40dc67478697d644c6bde18f1f039843b2d77f02234a388061317e5c7934267d",
    ("retrieve", "--data", _D250, "--pool-size", "220", "--k", "5", "--format", "json"):
        "ad82d30d1494b037fa59a1f95e2d43bdef41b299a15f9843c9be6df90e6945fe",
    ("experiment", *_SMALL): "da15e0e07a3baeb009623610800f361c6c8d657dba7078aaf459846284a5fece",
    ("experiment", *_SMALL, "--lambda", "1", "--beta", "0.5", "--out", _OUT):
        "928d357427bfbc04a31f0e36e389675dad167a0eec59080e5d46c37418bcf445",
    ("experiment", "--symbolic-mode", "dense", "--threshold", "0.6", "--symbolic-m", "3"):
        "e19ed468ac42f6898cd49a03a9478faf81c98d45bcce8ba58de29123598d5264",
    ("experiment", *_SMALL, "--format", "json"): "b2d2cabd8ab1587f69703b8af7b5be0f584b934ebc88d1f2113ba8f505c4ed72",
    ("experiment", *_SMALL, "--format", "json", "--alpha", "0.3", "--out", _OUT):
        "3b8979b117e5d81ebe9172ded2f163935d442e51311c32c1e03a16be98f81420",
    ("sweep-lambda", *_SWEEP, "--lambdas", "0,0.5,2", "--runs", "2"):
        "85cfd83df08fdc846ececdd8b709bebf33c752ee3ee2231263f5d019044e1aa7",
    ("sweep-lambda", *_SWEEP, "--lambdas", "0,0.5,2", "--runs", "2", "--format", "json"):
        "9a418420ea9ef7c18f19f5e86f265a026b0f00591e6399ae896555eca650aeb7",
    ("sweep-lambda", "--lambdas", "0.25,4", "--runs", "3", "--out", _OUT):
        "11188766db203ca85f604ce25f8aeb9dada2cce321b5b7e77915f0bd9d79649a",
    ("ppr", "--graph", _GRAPH, "--seeds", "p00,p01"):
        "45e718f40136c89ce3a3d36a70e7bf850ae6f24fc3f14fe1e634fd0c0024266f",
    ("ppr", "--graph", _GRAPH, "--seeds", "p03", "--alpha", "0.3", "--format", "json"):
        "a83ed2323699ddd0341b3a8205be459a1368961eb8b98b06843f519156513563",
    ("ppr", "--graph", _GRAPH, "--seeds", "p00,p07,", "--format", "json", "--out", _OUT):
        "ac7dfaed8db7f0c9838b769e20ef090a513680c1938f75f2db69fbd526a909c8",
}

# Command line -> (exit code, stderr), for each command's failure paths.
# ``{tmp}`` stands for the directory holding the fixture's files.
_ERRORS = {
    (): (1, "semrank: error: the following arguments are required: COMMAND\n"),
    ("experiment", "--bogus"): (1, "semrank: error: unrecognized arguments: --bogus\n"),
    ("experiment", "--symbolic-mode", "ultra"):
        (1, "semrank experiment: error: argument --symbolic-mode: invalid choice: 'ultra' (choose from "
         "'none', 'sparse', 'dense')\n"),
    ("generate", *_DATA): (1, "semrank generate: error: the following arguments are required: --out\n"),
    ("generate", "--num-points", "40", "--clusters", "40", "--out", _OUT):
        (2, "error: could not place centroid 9 at separation 5.0 after 1000 attempts\n"),
    ("generate", "--num-points", "0", "--out", _OUT): (2, "error: num_points must be >= 1, got 0\n"),
    ("generate", "--seed", "-1", "--out", _OUT): (2, "error: rng_seed must be >= 0, got -1\n"),
    ("generate", "--cluster-std", "1e-10", "--separation", "1e-10", "--out", _OUT):
        (2, "error: could not sample a non-zero point: cluster_std 1e-10 and separation 1e-10 are too small "
         "against the zero-norm floor 1e-09\n"),
    ("compress", *_DATA, "--pool-size", "10", "--k", "3", "--lambda", "-1"):
        (2, "error: diversity weight must be finite and >= 0, got -1.0\n"),
    ("compress", *_DATA, "--pool-size", "12", "--k", "12", "--lambda", "1e308"):
        (2, "error: diversity weight must be <= 1e+100, got 1e+308\n"),
    ("compress", "--data", "{tmp}/missing.tsv"):
        (2, "error: [Errno 2] No such file or directory: '{tmp}/missing.tsv'\n"),
    ("compress", "--num-points", "x"): (1, "semrank compress: error: argument --num-points: invalid int value: 'x'\n"),
    ("build-graph", *_DATA, "--graph-k", "0", "--out", _OUT): (2, "error: k must be >= 1, got 0\n"),
    ("build-graph", *_DATA, "--symbolic-m", "0", "--out", _OUT): (2, "error: m must be >= 1, got 0\n"),
    ("build-graph", "--data", "{tmp}/missing.tsv", "--out", _OUT):
        (2, "error: [Errno 2] No such file or directory: '{tmp}/missing.tsv'\n"),
    ("ppr", "--graph", "{tmp}/missing.tsv", "--seeds", "p00"):
        (2, "error: [Errno 2] No such file or directory: '{tmp}/missing.tsv'\n"),
    ("ppr", "--graph", _GRAPH, "--seeds", "zz"): (2, "error: seed node 'zz' is not in the graph\n"),
    ("ppr", "--graph", _OVERFLOW, "--seeds", "a"):
        (2, "error: out-edge weights of 'a' do not sum to a finite value\n"),
    ("ppr", "--graph", _GRAPH, "--seeds", ","): (2, "error: uniform seed needs at least one node\n"),
    ("ppr", "--graph", _GRAPH, "--seeds", "p00", "--alpha", "1.5"):
        (2, "error: alpha must lie strictly between 0 and 1, got 1.5\n"),
    ("retrieve", *_DATA, "--pool-size", "5", "--k", "10"): (2, "error: k must lie in [1, pool_size], got 10\n"),
    ("retrieve", *_DATA): (2, "error: pool_size must lie in [1, num_points], got 50\n"),
    ("retrieve", *_SMALL, "--beta", "1.5"): (2, "error: beta must lie in [0, 1], got 1.5\n"),
    ("retrieve", *_SMALL, "--graph-k", "0"): (2, "error: k must be >= 1, got 0\n"),
    ("retrieve", "--data", _D30, "--pool-size", "40"): (2, "error: pool_size must lie in [1, num_points], got 40\n"),
    ("experiment", *_DATA, "--pool-size", "5", "--k", "10"): (2, "error: k must lie in [1, pool_size], got 10\n"),
    ("experiment", *_DATA): (2, "error: pool_size must lie in [1, num_points], got 50\n"),
    ("experiment", *_SMALL, "--beta", "-0.5"): (2, "error: beta must lie in [0, 1], got -0.5\n"),
    ("experiment", *_SMALL, "--lambda", "-1"):
        (2, "error: experiment stage 'semantic_compression' failed: diversity weight must be finite "
         "and >= 0, got -1.0\n"),
    ("experiment", *_SMALL, "--lambda", "1e308"):
        (2, "error: experiment stage 'semantic_compression' failed: diversity weight must be <= 1e+100, "
         "got 1e+308\n"),
    ("experiment", *_SMALL, "--alpha", "0"): (2, "error: alpha must lie strictly between 0 and 1, got 0.0\n"),
    ("sweep-lambda", *_SWEEP, "--lambdas", ","): (2, "error: sweep needs at least one diversity weight\n"),
    ("sweep-lambda", *_SWEEP, "--runs", "0"): (2, "error: runs must be >= 1, got 0\n"),
    ("sweep-lambda", *_SWEEP, "--lambdas", "0,x"): (2, "error: could not convert string to float: 'x'\n"),
    ("sweep-lambda", *_DATA, "--pool-size", "5", "--k", "10"): (2, "error: k must lie in [1, pool_size], got 10\n"),
    ("sweep-lambda", *_SWEEP, "--lambdas", "-1"): (2, "error: diversity weight must be finite and >= 0, got -1.0\n"),
    ("sweep-lambda", *_SWEEP, "--lambdas", "0,1e308"): (2, "error: diversity weight must be <= 1e+100, got 1e+308\n"),
    ("sweep-lambda", *_SWEEP, "--graph-k", "3"): (1, "semrank: error: unrecognized arguments: --graph-k 3\n"),
    ("sweep-lambda", *_SWEEP, "--beta", "5"): (1, "semrank: error: unrecognized arguments: --beta 5\n"),
}

# Subcommand -> {option string: default}, every flag it accepts.
_FLAGS = {
    "generate": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--num-points": 200, "--dim": 2, "--clusters": 5,
        "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--out": None,
    },
    "compress": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--data": None, "--num-points": 200, "--dim": 2,
        "--clusters": 5, "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--pool-size": 50, "--k": 10,
        "--lambda": 0.25, "--format": "csv", "--out": None,
    },
    "build-graph": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--data": None, "--num-points": 200, "--dim": 2,
        "--clusters": 5, "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--graph-k": 5,
        "--symbolic-mode": "sparse", "--threshold": 0.85, "--symbolic-m": 2, "--out": None,
    },
    "ppr": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--graph": None, "--seeds": None, "--alpha": 0.15,
        "--format": "csv", "--out": None,
    },
    "retrieve": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--data": None, "--num-points": 200, "--dim": 2,
        "--clusters": 5, "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--pool-size": 50, "--k": 10,
        "--beta": 0.5, "--alpha": 0.15, "--graph-k": 5, "--symbolic-mode": "sparse", "--threshold": 0.85,
        "--symbolic-m": 2, "--format": "csv", "--out": None,
    },
    "experiment": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--num-points": 200, "--dim": 2, "--clusters": 5,
        "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--pool-size": 50, "--k": 10, "--lambda": 0.25,
        "--beta": 1.0, "--alpha": 0.15, "--graph-k": 5, "--symbolic-mode": "sparse", "--threshold": 0.85,
        "--symbolic-m": 2, "--format": "csv", "--out": None, "--plot": None,
    },
    "sweep-lambda": {
        "-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS, "--num-points": 200, "--dim": 2, "--clusters": 5,
        "--cluster-std": 0.5, "--separation": 5.0, "--seed": 42, "--pool-size": 50, "--k": 10,
        "--lambdas": "0,0.25,0.5,1,2,4", "--runs": 20, "--format": "csv", "--out": None,
    },
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    paths = {"tmp": str(tmp), "out": str(tmp / "out.txt")}
    for name, flags in (("d30", _DATA), ("d250", ["--num-points", "250", "--dim", "3", "--clusters", "4"])):
        paths[name] = str(tmp / f"{name}.tsv")
        assert main(["generate", *flags, "--out", paths[name]]) == 0
    paths["graph"] = str(tmp / "graph.tsv")
    assert main(["build-graph", *_DATA, "--graph-k", "3", "--out", paths["graph"]]) == 0
    paths["overflow"] = str(tmp / "overflow.tsv")
    edges = "a\tb\t1e308\tknn\na\tc\t1e308\tknn\nb\ta\t1.0\tknn\n"
    (tmp / "overflow.tsv").write_text(f"#nodes 3 #dim 1\na\t1.0\nb\t2.0\nc\t3.0\n{edges}", encoding="utf-8")
    return paths


def _argv(argv, files):
    return [arg.format(**files) for arg in argv]


def _output(argv, files, capsys):
    """The bytes a command writes; JSON reports have their timings zeroed."""
    capsys.readouterr()
    assert main(_argv(argv, files)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if _OUT in argv:
        assert captured.out == ""
        with open(files["out"], "rb") as handle:
            data = handle.read()
    else:
        data = captured.out.encode("utf-8")
    if argv[0] == "experiment" and "json" in argv:
        payload = json.loads(data)
        assert payload["runtimes_ms"]
        payload["runtimes_ms"] = dict.fromkeys(payload["runtimes_ms"], 0.0)
        data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    elif argv[0] in ("compress", "retrieve") and "json" in argv:
        assert json.loads(data)["runtimes_ms"] == {}
    return data


def _subcommands():
    action = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_table(parser):
    return {option: action.default for action in parser._actions for option in action.option_strings}


@pytest.mark.parametrize("argv", list(_OUTPUT_DIGESTS), ids=" ".join)
def test_output_bytes_are_unchanged(argv, files, capsys):
    assert hashlib.sha256(_output(argv, files, capsys)).hexdigest() == _OUTPUT_DIGESTS[argv]


@pytest.mark.parametrize("argv", list(_ERRORS), ids=lambda argv: " ".join(argv) or "(none)")
def test_error_paths_are_unchanged(argv, files, capsys):
    capsys.readouterr()
    code = main(_argv(argv, files))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (code, captured.err.replace(files["tmp"], "{tmp}")) == _ERRORS[argv]


def test_every_command_accepts_the_same_flags():
    assert {name: _flag_table(parser) for name, parser in _subcommands().items()} == _FLAGS


# Per command, every flag that feeds the config set off its default, and
# the config fields those values should set.
_GRAPH_FLAGS = [
    "--beta", "0.7", "--alpha", "0.2", "--graph-k", "4", "--symbolic-mode", "dense", "--threshold", "0.6",
    "--symbolic-m", "3",
]
_GRAPH_FIELDS = {
    "beta": 0.7,
    "ppr": PprConfig(alpha=0.2),
    "graph_k": 4,
    "symbolic_mode": "dense",
    "symbolic_threshold": 0.6,
    "symbolic_m": 3,
}
_CONFIG_FLAGS = {
    "compress": (["--pool-size", "12", "--k", "4", "--lambda", "0.5"], {"pool_size": 12, "k": 4, "lam": 0.5}),
    "retrieve": (["--pool-size", "12", "--k", "4", *_GRAPH_FLAGS], {"pool_size": 12, "k": 4, **_GRAPH_FIELDS}),
    "experiment": (
        ["--pool-size", "12", "--k", "4", "--lambda", "0.5", *_GRAPH_FLAGS],
        {"pool_size": 12, "k": 4, "lam": 0.5, **_GRAPH_FIELDS},
    ),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
def test_config_echo_maps_every_flag_to_its_field(command, capsys):
    flags, fields = _CONFIG_FLAGS[command]
    spec = ["--num-points", "40", "--dim", "3", "--clusters", "4", "--cluster-std", "0.4", "--separation", "4.0"]
    assert main([command, *spec, "--seed", "9", *flags, "--format", "json"]) == 0
    dataset = SyntheticDatasetSpec(num_points=40, dim=3, num_clusters=4, cluster_std=0.4, separation=4.0, rng_seed=9)
    expected = ExperimentConfig(dataset=dataset, **fields)
    assert json.loads(capsys.readouterr().out)["config"] == asdict(expected)
