import json
import re
import shutil

import pytest

from encsearch import benchmarks, cli
from encsearch.benchmarks import BenchmarkConfig
from encsearch.cli import _parse_grid, main
from encsearch.engine import PipelineConfig
from encsearch.errors import EncSearchError


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = main(
        ["build", "--synthetic", "30:60:3", "--s", "2", "--sigma", "0",
         "--U-ratio", "0", "--R", "50", "--out", str(out)]
    )
    assert rc == 0
    return out


def test_parse_grid():
    assert _parse_grid("0.01:0.03:0.01") == [0.01, 0.02, 0.03]
    assert _parse_grid("0.1:0.1:0.1") == [0.1]


@pytest.mark.parametrize("grid, message", [
    ("a:b", "expected LO:HI:STEP"),
    ("0.1:0.2", "expected LO:HI:STEP"),
    ("0.1:0.2:0.1:0.3", "expected LO:HI:STEP"),
    ("0.1:x:0.1", "expected LO:HI:STEP"),
    ("0.1:nan:0.1", "must be finite"),
    ("-inf:0.2:0.1", "must be finite"),
    ("0.1:0.2:inf", "must be finite"),
    ("0.1:0.2:0", "STEP must be positive"),
    ("0.1:0.2:-0.05", "STEP must be positive"),
])
def test_tune_rejects_bad_grid_before_loading(tmp_path, capsys, grid, message):
    """A malformed, non-finite or non-advancing grid fails with a message
    before the run directory, absent here, is read."""
    assert main(["tune", "--run", str(tmp_path / "absent"), f"--grid={grid}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --grid {grid!r}: ") and message in err


def test_build_writes_artifacts(run_dir):
    assert sorted(f.name for f in run_dir.iterdir()) == [
        "config.json", "forest_enc.bin", "forest_plain.bin", "keys.bin", "partitions.json",
        "weights.bin",
    ]


def test_build_requires_corpus_source(capsys):
    assert main(["build"]) == 2
    assert "need --corpus or --synthetic" in capsys.readouterr().err


def test_search(run_dir, capsys):
    rc = main(["search", "--run", str(run_dir), "--keywords", "kw00,kw01", "--k", "5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    rank, doc_id, score = out[0].split("\t")
    assert rank == "1"
    int(doc_id)
    float(score)


def test_search_missing_run(tmp_path, capsys):
    rc = main(["search", "--run", str(tmp_path / "nope"), "--keywords", "kw00"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_inspect(run_dir, capsys):
    assert main(["inspect", "--run", str(run_dir)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["documents"] == 30
    assert info["partitions"] == 2
    assert len(info["tree_depths"]) == 2


@pytest.mark.parametrize("name", ["config.json", "partitions.json"])
def test_inspect_damaged_run_prints_error(run_dir, tmp_path, capsys, name):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    text = (copy / name).read_text()
    (copy / name).write_text(text[: len(text) // 2])
    assert main(["inspect", "--run", str(copy)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {copy / name}")


def test_update_insert_and_delete(run_dir, tmp_path, capsys):
    rec = tmp_path / "doc.json"
    rec.write_text(json.dumps({"doc_id": 900, "owner_id": 1, "terms": ["kw00", "kw01"]}))
    assert main(["update", "--run", str(run_dir), "--insert", str(rec)]) == 0
    inserted = capsys.readouterr().out
    assert "inserted doc 900" in inserted
    assert main(["update", "--run", str(run_dir), "--delete", "900"]) == 0
    deleted = capsys.readouterr().out
    assert "deleted doc 900" in deleted

    def rows(out):
        return int(re.search(r"re-encrypted (\d+) rows", out)[1])

    # The insert re-encrypts the whole tree, the delete only its path rows.
    assert rows(inserted) > rows(deleted)


def test_tune_writes_csv(run_dir, capsys):
    rc = main(["tune", "--run", str(run_dir), "--grid", "0.0:0.1:0.1",
               "--k", "5", "--queries", "3"])
    assert rc == 0
    csv = run_dir.parent / "fig3_equilibrium.csv"
    out = capsys.readouterr().out
    assert "sigma*=" in out and f"wrote {csv}" in out
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("sigma,")
    assert len(lines) == 3


@pytest.mark.parametrize("queries", ["0", "-3"])
def test_tune_rejects_no_queries(run_dir, tmp_path, capsys, queries):
    out = tmp_path / "tune"
    assert main(["tune", "--run", str(run_dir), "--grid", "0.05:0.05:0.05", "--k", "5",
                 "--queries", queries, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: count and n_keywords must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--sigma", "nan"), ("--omega", "-1"), ("--U-ratio", "nan"), ("--U-ratio", "inf"),
    ("--U-ratio", "1.5"), ("--U-ratio", "1e9"),
])
def test_build_rejects_bad_noise_settings(tmp_path, capsys, flag, value):
    """An error line, not NaN scores or a numpy traceback, and no run
    directory."""
    run = tmp_path / "run"
    argv = ["build", "--synthetic", "60:80:3", "--s", "2", flag, value, "--out", str(run)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err and err.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == []


def test_tune_csv_survives_update(tmp_path, capsys):
    """tune writes beside the run directory, which the next save replaces."""
    run = tmp_path / "run"
    assert main(["build", "--synthetic", "30:60:3", "--s", "2", "--R", "50", "--out", str(run)]) == 0
    assert main(["tune", "--run", str(run), "--grid", "0.05:0.05:0.05", "--k", "5",
                 "--queries", "3"]) == 0
    assert main(["update", "--run", str(run), "--delete", "3"]) == 0
    assert (tmp_path / "fig3_equilibrium.csv").read_text().startswith("sigma,")
    assert not (run / "fig3_equilibrium.csv").exists()


def test_bench_orders(tmp_path, capsys):
    rc = main(["bench", "orders", "--n-docs", "40", "--n-keywords", "80",
               "--queries", "10", "--query-keywords", "3", "--k", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "mlsb:" in capsys.readouterr().out
    assert (tmp_path / "fig4_tree_speed.csv").exists()


@pytest.mark.parametrize("flag", ["--n-docs", "--s"])
def test_bench_rejects_a_zero_setting(tmp_path, capsys, flag):
    """--s 0 used to run with s=4, and --n-docs 0 to end in a traceback."""
    out = tmp_path / "bench"
    argv = ["bench", "update", "--n-docs", "60", "--n-keywords", "60", "--queries", "5",
            flag, "0", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: all benchmark parameters must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--synthetic", "30:60:3"],
    ["tune", "--grid", "0.05:0.05:0.05", "--queries", "3", "--k", "3"],
    ["bench", "update", "--n-docs", "40", "--n-keywords", "40", "--queries", "5"],
])
def test_negative_seed_prints_one_error(run_dir, tmp_path, capsys, argv):
    """Each of these used to end in a numpy traceback; build and bench also
    write nothing."""
    out = tmp_path / "out"
    run = ["--run", str(run_dir)] if argv[0] == "tune" else []
    assert main(argv + run + ["--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    (["build", "--synthetic", "10:20:2"], PipelineConfig()),
    (["build", "--synthetic", "10:20:2", "--s", "3", "--R", "20", "--seed", "2"],
     PipelineConfig(s=3, probe_count=20, seed=2)),
    (["bench", "update"], BenchmarkConfig()),
    (["bench", "update", "--s", "2", "--zipf-a", "1.5"], BenchmarkConfig(s=2, zipf_a=1.5)),
])
def test_flags_left_out_keep_the_dataclass_defaults(tmp_path, monkeypatch, argv, want):
    seen = []

    def stop(config):
        seen.append(config)
        raise EncSearchError("stop")

    monkeypatch.setattr(cli.Pipeline, "build", lambda docs, config: stop(config))
    monkeypatch.setattr(benchmarks, "bench_update", lambda config, out_dir: stop(config))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert seen == [want]


def test_config_file_expansion(tmp_path, capsys):
    cfg = tmp_path / "build.cfg"
    cfg.write_text("# comment\nsynthetic=10:20:2\nsigma=0\nU-ratio=0\nR=20\n")
    out = tmp_path / "run"
    rc = main(["build", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert "10 docs" in capsys.readouterr().out
    assert (out / "config.json").exists()


def test_usage_error_exit_code(capsys):
    assert main(["bench", "nonsense"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["build", "--config"], "error: --config needs a file path"),
    (["build", "--config", "--s", "2"], "error: --config needs a file path"),
    (["build", "--config", "absent.cfg"], "error: [Errno 2] No such file or directory: 'absent.cfg'"),
    (["build", "--synthetic", "20:30"], "error: --synthetic '20:30': expected DOCS:KEYWORDS:OWNERS"),
    (["build", "--synthetic", "a:b:c"], "error: --synthetic 'a:b:c': expected DOCS:KEYWORDS:OWNERS"),
])
def test_bad_build_input_prints_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv[:1] + ["--out", str(tmp_path / "run")] + argv[1:]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change", [[], ["--insert", "doc.json", "--delete", "3"]])
def test_update_needs_exactly_one_change(run_dir, capsys, change):
    assert main(["update", "--run", str(run_dir)] + change) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("record, message", [
    ({"owner_id": 1, "terms": ["kw00"]}, "record lacks ['doc_id']"),
    ({"doc_id": 1.5, "owner_id": 1, "terms": ["kw00"]}, "doc_id 1.5 and owner_id 1 must be 64-bit integers"),
])
def test_update_insert_bad_record_prints_error(run_dir, tmp_path, capsys, record, message):
    rec = tmp_path / "doc.json"
    rec.write_text(json.dumps(record))
    assert main(["update", "--run", str(run_dir), "--insert", str(rec)]) == 1
    assert capsys.readouterr().err == f"error: {rec}: {message}\n"


def test_build_from_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"doc_id": 10, "owner_id": 1, "text": "Cats chase mice."}\n'
        '{"doc_id": 11, "owner_id": 1, "terms": ["dogs", "chase", "cats"]}\n'
        '{"doc_id": 20, "owner_id": 2, "text": "Mice eat cheese, cheese and more cheese"}\n'
        '{"doc_id": 21, "owner_id": 2, "terms": ["birds", "sing"]}\n'
    )
    run = tmp_path / "run"
    assert main(["build", "--corpus", str(corpus), "--s", "2", "--R", "20", "--out", str(run)]) == 0
    assert "over 4 docs" in capsys.readouterr().out
    assert main(["search", "--run", str(run), "--keywords", "cheese", "--k", "1"]) == 0
    assert capsys.readouterr().out.split("\t")[1] == "20"


def test_build_rejects_float_doc_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"doc_id": 1, "owner_id": 1, "text": "a b"}\n'
                      '{"doc_id": 1.5, "owner_id": 1, "text": "b c"}\n')
    run = tmp_path / "run"
    assert main(["build", "--corpus", str(corpus), "--out", str(run)]) == 1
    assert capsys.readouterr().err == f"error: {corpus}:2: doc_id 1.5 and owner_id 1 must be 64-bit integers\n"
    assert not run.exists()


def test_search_on_damaged_older_run_prints_error(run_dir, tmp_path, capsys):
    """A run whose forest_plain.bin is in the older ESF2 format fails with
    one error line naming the file, not a traceback."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / "forest_plain.bin"
    path.write_bytes(b"ESF2" + path.read_bytes()[4:])
    assert main(["search", "--run", str(run), "--keywords", "kw00", "--k", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not a forest file (magic b'ESF2', expected b'ESF4')\n"
    )


@pytest.mark.parametrize("member", [5, [1, 2, 3], ["a", 1]])
def test_search_on_run_with_bad_member_prints_error(run_dir, tmp_path, capsys, member):
    """A partitions.json member that is no [doc id, owner id] pair of
    integers fails with one error line naming the file."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / "partitions.json"
    payload = json.loads(path.read_text())
    payload["members"][0][0] = member
    path.write_text(json.dumps(payload))
    assert main(["search", "--run", str(run), "--keywords", "kw00", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: members holds {member!r}") and err.count("\n") == 1
