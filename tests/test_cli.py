import ast
import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fractalforms.cache import Cache
from fractalforms.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_dict,
    load_config,
    parse_config_text,
)
from fractalforms import besov, cli, networks, reporting, treewalk
from fractalforms.geometry import vertex_graph
from fractalforms.kinds import FractalKind
from fractalforms.cli import _build_parser, main, run
from fractalforms.reporting import ExperimentReport, experiment_id, fmt_float
from fractalforms.treewalk import WalkParams, build_tables, ctrw_truncation_bias


# ---------------------------------------------------------------------------
# config

def test_config_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.kind == "sg"
    assert cfg.level_cap() == 12


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(lam=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(lam=0.5, c=0.6).validate()
    with pytest.raises(ConfigError):
        RunConfig(kind="torus").validate()
    with pytest.raises(ConfigError):
        RunConfig(beta_grid=(1.0,)).validate()  # below the admissible window
    with pytest.raises(ConfigError):
        RunConfig(seed=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(samples=1).validate()  # one path has no standard error
    with pytest.raises(ConfigError):
        RunConfig(mc_samples=1).validate()
    with pytest.raises(ConfigError):
        RunConfig(depth_cut=1).validate()
    # a config may lower the level caps 12/7, never raise them
    with pytest.raises(ConfigError):
        RunConfig(level_cap_sg=13).validate()
    with pytest.raises(ConfigError):
        RunConfig(kind="sc", level_cap_sc=8).validate()


def test_parse_config_text_reads_every_value_type():
    text = ("kind=sc\nlam=0.7\nc=0.2\nbeta_grid=1.9,2.0\nseed=9\n"
            "samples=1234\nout_dir=x/y\ncache_dir=z\n")
    assert parse_config_text(text) == RunConfig(
        kind="sc", lam=0.7, c=0.2, beta_grid=(1.9, 2.0), seed=9,
        samples=1234, out_dir="x/y", cache_dir="z",
    )


def test_parse_config_text_none_c():
    for raw in ("none", ""):
        cfg = parse_config_text(f"c={raw}\n")
        assert cfg.c is None
        assert cfg == RunConfig(c=None)


def test_parse_config_text_comments_and_errors():
    cfg = parse_config_text("# comment\nkind = sc\nlam=0.25\n\n")
    assert cfg.kind == "sc"
    assert cfg.lam == 0.25
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 3")
    with pytest.raises(ConfigError):
        parse_config_text("lam")
    with pytest.raises(ConfigError):
        parse_config_text("lam = banana")


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("kind = sc\nseed = 4\n")
    cfg = load_config(p)
    assert cfg.kind == "sc"
    assert cfg.seed == 4


def test_apply_overrides_flags_win_and_none_ignored():
    cfg = RunConfig(seed=1, lam=0.5)
    out = apply_overrides(cfg, seed=7, lam=None)
    assert out.seed == 7
    assert out.lam == 0.5
    with pytest.raises(ConfigError):
        apply_overrides(cfg, lam=2.0)


def test_config_dict_serializable():
    d = config_dict(RunConfig(beta_grid=(1.9, 2.2)), ("kind", "beta_grid"))
    json.dumps(d, sort_keys=True)
    assert d == {"kind": "sg", "beta_grid": [1.9, 2.2]}


# ---------------------------------------------------------------------------
# cache

GRAPH_ARRAYS = ("xn", "yn", "edges", "corners")


def _assert_same_graph(got, want):
    assert (got.kind, got.level) == (want.kind, want.level)
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_cache_roundtrip_and_counters(tmp_path):
    cache = Cache(tmp_path)
    key = ("sg", 3, "vertex-graph", 1)
    assert cache.get(key) is None
    assert cache.misses == 1
    built = cache.get_or_build(key, lambda: vertex_graph(FractalKind.SG, 3))
    _assert_same_graph(built, vertex_graph(FractalKind.SG, 3))
    again = cache.get_or_build(key, lambda: replace(built, xn=built.xn[::-1].copy()))
    _assert_same_graph(again, built)
    assert cache.hits == 1


def test_cache_checksum_mismatch_rebuilds_with_warning(tmp_path):
    cache = Cache(tmp_path)
    key = ("sg", 2, "vertex-graph", 1)
    vg = vertex_graph(FractalKind.SG, 2)
    cache.put(key, vg)
    (entry,) = Path(tmp_path).iterdir()
    entry.write_bytes(b"garbage")
    with pytest.warns(RuntimeWarning):
        got = cache.get(key)
    assert got is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rebuilt = cache.get_or_build(key, lambda: vg)
    assert rebuilt is vg
    # the rebuild repaired the entry
    _assert_same_graph(cache.get(key), vg)


def test_cache_flipped_byte_in_an_array_rebuilds_with_warning(tmp_path):
    # the zip member's CRC-32 catches a change that leaves the file well-formed
    cache = Cache(tmp_path)
    key = ("sc", 3, "vertex-graph", 1)
    vg = vertex_graph(FractalKind.SC, 3)
    cache.put(key, vg)
    (entry,) = Path(tmp_path).iterdir()
    blob = bytearray(entry.read_bytes())
    at = bytes(blob).find(vg.edges.tobytes()) + vg.edges.nbytes // 2
    blob[at] ^= 0x01
    entry.write_bytes(bytes(blob))
    with pytest.warns(RuntimeWarning, match="CRC"):
        rebuilt = cache.get_or_build(key, lambda: vertex_graph(FractalKind.SC, 3))
    assert cache.misses == 1
    _assert_same_graph(cache.get(key), rebuilt)


@pytest.mark.parametrize("name, bad", [
    ("corners", lambda a: a.astype(np.int64)),
    ("edges", lambda a: a[:, :2].copy()),
    ("yn", lambda a: a[:-1].copy()),
    ("xn", lambda a: np.array(list(a), dtype=object)),
])
def test_cache_refuses_arrays_vertex_graph_does_not_build(tmp_path, name, bad):
    cache = Cache(tmp_path)
    key = ("sc", 2, "vertex-graph", 1)
    vg = vertex_graph(FractalKind.SC, 2)
    cache.put(key, replace(vg, **{name: bad(getattr(vg, name))}))
    with pytest.warns(RuntimeWarning, match="failed to load"):
        assert cache.get(key) is None
    assert cache.misses == 1


def test_cache_refuses_edge_multiplicities_other_than_one_or_two(tmp_path):
    cache = Cache(tmp_path)
    key = ("sc", 2, "vertex-graph", 1)
    vg = vertex_graph(FractalKind.SC, 2)
    edges = vg.edges.copy()
    edges[0, 2] = 3
    cache.put(key, replace(vg, edges=edges))
    with pytest.warns(RuntimeWarning, match="multiplicities hold a value outside"):
        assert cache.get(key) is None


def test_cache_loads_sc_graphs_as_built(tmp_path):
    cache = Cache(tmp_path)
    for n in range(1, 6):
        vg = vertex_graph(FractalKind.SC, n)
        cache.put(("sc", n, "vertex-graph", 1), vg)
        _assert_same_graph(cache.get(("sc", n, "vertex-graph", 1)), vg)
    assert (cache.hits, cache.misses) == (5, 0)


def test_cache_version_and_kind_isolation(tmp_path):
    cache = Cache(tmp_path)
    v1 = vertex_graph(FractalKind.SG, 1)
    v2 = replace(v1, xn=v1.xn[::-1].copy())
    carpet = vertex_graph(FractalKind.SC, 1)
    cache.put(("sg", 1, "vertex-graph", 1), v1)
    cache.put(("sg", 1, "vertex-graph", 2), v2)
    cache.put(("sc", 1, "vertex-graph", 1), carpet)
    _assert_same_graph(cache.get(("sg", 1, "vertex-graph", 1)), v1)
    _assert_same_graph(cache.get(("sg", 1, "vertex-graph", 2)), v2)
    _assert_same_graph(cache.get(("sc", 1, "vertex-graph", 1)), carpet)


# ---------------------------------------------------------------------------
# reporting

def test_fmt_float_17_significant_digits():
    assert fmt_float(1.0 / 3.0) == f"{1.0/3.0:.17g}"
    assert fmt_float(3) == "3"
    assert fmt_float("x") == "x"


def test_experiment_id_ignores_output_locations():
    snap = {"subcommand": "resistance", "kind": "sg", "out_dir": "a", "cache_dir": "b"}
    other = dict(snap, out_dir="elsewhere", cache_dir="c2")
    assert experiment_id("resistance", snap) == experiment_id("resistance", other)
    changed = dict(snap, kind="sc")
    assert experiment_id("resistance", snap) != experiment_id("resistance", changed)


def test_report_requires_rows_xor_tree(tmp_path):
    with pytest.raises(ValueError):
        ExperimentReport(
            experiment="x", config_snapshot={}, columns=("a",), rows=[(1,)], tree={"y": 1}
        )


def test_report_csv_and_meta(tmp_path):
    rep = ExperimentReport(
        experiment="demo-1",
        config_snapshot={"seed": 0},
        columns=("n", "value"),
        rows=[(1, 0.5), (2, 0.25)],
    )
    data_path, meta_path = rep.write(tmp_path)
    text = Path(data_path).read_bytes()
    assert text.startswith(b"n,value\r\n")
    assert b"0.5" in text
    meta = json.loads(Path(meta_path).read_text())
    assert meta["experiment"] == "demo-1"
    assert "git_hash" in meta["provenance"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("inf")])
def test_report_csv_refuses_non_finite_floats_before_creating_files(tmp_path, bad):
    rep = ExperimentReport("demo", {"seed": 0}, columns=("n", "value"), rows=[(1, 0.5), (2, bad)])
    with pytest.raises(reporting.NonFiniteResultError, match="demo: value = "):
        rep.write(tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_json_refuses_non_finite_floats_leaving_no_file(tmp_path, bad):
    # the tree is streamed into a temporary file, which goes with the error
    rep = ExperimentReport("demo", {"seed": 0}, tree={"a": [0.5, {"b": bad}]})
    with pytest.raises(reporting.NonFiniteResultError, match="demo: "):
        rep.write(tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


def test_report_csv_failing_mid_write_leaves_no_file(tmp_path):
    # the header and first row are written before the second row raises
    rep = ExperimentReport("demo", {"seed": 0}, columns=("n", "value"),
                           rows=[(1, 0.5), (2, _Unprintable())])
    with pytest.raises(RuntimeError, match="no text"):
        rep.write(tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "value, error", [(float("nan"), reporting.NonFiniteResultError), (object(), TypeError)],
    ids=["nan", "object"],
)
def test_report_unwritable_provenance_leaves_no_file(tmp_path, value, error):
    # the meta is encoded before the data file: RFC 8259 has no NaN there either
    rep = ExperimentReport("demo", {"seed": 0}, columns=("n",), rows=[(1,)],
                           provenance={"x": value})
    with pytest.raises(error):
        rep.write(tmp_path / "out")
    assert list(tmp_path.rglob("*")) == []


def test_report_json_streams_the_bytes_dumps_gives(tmp_path):
    tree = {"z": [0.1, 1e-300, 2.5e17], "a": {"\u00e9t\u00e9": [1, True, None, "\u2202"]}}
    rep = ExperimentReport("demo", {"seed": 0}, tree=tree)
    data_path, meta_path = rep.write(tmp_path)
    text = json.dumps(tree, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
    assert data_path.read_bytes() == text.encode("utf-8")
    assert sorted(tmp_path.iterdir()) == sorted([data_path, meta_path])


# ---------------------------------------------------------------------------
# CLI end to end

def _git(cwd, *args):
    """Run git in `cwd` with no user or system configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
    return subprocess.run(
        ["git", "-c", "user.name=Test", "-c", "user.email=test@example.com",
         "-c", "init.defaultBranch=main", *args],
        cwd=cwd, env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()


def _rev_parse(start):
    """What git itself resolves HEAD to from `start`, or "unknown"."""
    argv = ["git", "-C", str(start), "rev-parse", "HEAD"]
    out = subprocess.run(argv, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@pytest.fixture
def processes(monkeypatch):
    """The argument lists of the processes started through `subprocess.run`,
    which still run; git's lookup variables are cleared."""
    for name in ("GIT_DIR", *reporting._GIT_SEARCH_ENV):
        monkeypatch.delenv(name, raising=False)
    calls = []
    real = subprocess.run

    def counting(argv, **kwargs):
        calls.append(argv)
        return real(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    reporting.git_hash.cache_clear()
    yield calls
    reporting.git_hash.cache_clear()


def test_git_hash_reads_the_package_checkout_without_a_process(tmp_path, processes):
    want = _rev_parse(Path(reporting.__file__).resolve().parent)
    processes.clear()
    reports = [ExperimentReport("demo", {"seed": k}, columns=("a",), rows=[(k,)]) for k in range(2)]
    metas = [r.write(tmp_path / str(k))[1] for k, r in enumerate(reports)]
    assert processes == []
    assert [json.loads(m.read_text())["provenance"]["git_hash"] for m in metas] == [want, want]
    assert reporting.git_hash.cache_info().misses == 1  # resolved once per process


@pytest.fixture
def repo(tmp_path):
    """A git repository with one commit and a package directory two levels down."""
    top = tmp_path / "repo"
    (top / "src" / "pkg").mkdir(parents=True)
    (top / "src" / "pkg" / "mod.py").write_text("")
    _git(tmp_path, "init", "-q", str(top))
    _git(top, "add", ".")
    _git(top, "commit", "-q", "-m", "first")
    return top


@pytest.mark.parametrize(
    "layout, moved",
    [
        ("loose", False),
        ("packed", False),
        ("loose-over-packed", True),
        ("detached", True),
        ("worktree", True),
        ("git-dir-env", False),
    ],
)
def test_git_hash_reads_head_as_git_does(repo, processes, monkeypatch, layout, moved):
    # `moved`: HEAD is no longer the first commit on main
    start = repo / "src" / "pkg"
    first = _rev_parse(start)
    if layout == "packed":
        _git(repo, "pack-refs", "--all")
        assert not (repo / ".git" / "refs" / "heads" / "main").exists()
    elif layout == "loose-over-packed":
        # the loose ref is newer than the packed one and wins
        _git(repo, "pack-refs", "--all")
        _git(repo, "commit", "-q", "--allow-empty", "-m", "second")
    elif layout == "detached":
        _git(repo, "commit", "-q", "--allow-empty", "-m", "second")
        _git(repo, "checkout", "-q", "--detach", "HEAD~1")
        _git(repo, "commit", "-q", "--allow-empty", "-m", "third")
    elif layout == "worktree":
        # a branch of its own, one commit past main, with its refs packed in
        # the main repository
        _git(repo, "worktree", "add", "-q", "-b", "side", str(repo.parent / "wt"))
        _git(repo.parent / "wt", "commit", "-q", "--allow-empty", "-m", "side")
        _git(repo, "pack-refs", "--all")
        start = repo.parent / "wt" / "src" / "pkg"
        assert (repo.parent / "wt" / ".git").is_file()
    elif layout == "git-dir-env":
        # relative to the package directory, as `git -C` takes it
        monkeypatch.setenv("GIT_DIR", "../../.git")
    want = _rev_parse(start)
    assert len(want) == 40 and (want != first) == moved
    processes.clear()
    assert reporting._head_commit(start) == want
    assert processes == []


@pytest.mark.parametrize(
    "case, resolves",
    [("missing-ref", False), ("symref-chain", True), ("other-owner", False), ("ceiling", True)],
)
def test_git_hash_falls_back_to_git_where_the_files_do_not_settle_head(
    repo, processes, monkeypatch, case, resolves
):
    start = repo / "src" / "pkg"
    if case == "missing-ref":
        (repo / ".git" / "HEAD").write_text("ref: refs/heads/nowhere\n")
    elif case == "symref-chain":
        # HEAD -> alias -> main, which only git itself follows
        (repo / ".git" / "refs" / "heads" / "alias").write_text("ref: refs/heads/main\n")
        (repo / ".git" / "HEAD").write_text("ref: refs/heads/alias\n")
    elif case == "other-owner":
        # git refuses a checkout another user owns (safe.directory)
        if os.geteuid() != 0:
            pytest.skip("only root can give the checkout to another user")
        os.chown(repo, 65534, -1)
    else:
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(repo.parent))
    want = _rev_parse(start)
    assert (want != "unknown") == resolves
    processes.clear()
    assert reporting._head_commit(start) == want
    assert processes == [["git", "-C", str(start), "rev-parse", "HEAD"]]


def test_git_hash_unknown_where_git_dir_names_no_repository(tmp_path, processes, monkeypatch):
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-repo"))
    assert reporting.git_hash() == "unknown"


def test_carpet_runs_load_no_csgraph_and_start_no_process(tmp_path):
    # in a fresh interpreter, so no other test has loaded csgraph; a started
    # process is recorded and refused
    script = textwrap.dedent(
        """
        import json, subprocess, sys
        calls = []

        class Refused(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                calls.append(args)
                raise OSError("no process may start")

        subprocess.Popen = Refused
        from fractalforms.cli import main
        codes = [
            main(argv + ["--out", sys.argv[1]])
            for argv in (
                ["resistance", "--kind", "sc", "--levels", "1..3"],
                ["harnack", "--kind", "sc", "--levels", "3", "--trials", "2"],
            )
        ]
        print(json.dumps([codes, calls, "scipy.sparse.csgraph" in sys.modules]))
        """
    )
    src = Path(reporting.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    )
    codes, calls, csgraph_loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0] and calls == [] and not csgraph_loaded


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def _run(tmp_path, *args):
    """Run the CLI; every JSON file in the output directory must parse strictly."""
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    argv = list(args) + ["--out", str(out), "--cache", str(cache)]
    rc = main(argv)
    for path in sorted(Path(out).glob("*.json")):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    return rc, out


def _csv_bytes(out_dir):
    files = sorted(Path(out_dir).glob("*.csv"))
    assert files, f"no CSV under {out_dir}"
    return files[0].read_bytes()


def test_cli_resistance_sg_deterministic(tmp_path):
    rc, out = _run(tmp_path, "resistance", "--kind", "sg", "--levels", "1..3")
    assert rc == 0
    first = _csv_bytes(out)
    rc2, _ = _run(tmp_path, "resistance", "--kind", "sg", "--levels", "1..3")
    assert rc2 == 0
    assert _csv_bytes(out) == first
    header = first.split(b"\r\n")[0].decode()
    assert header.split(",")[0] == "n"


def test_cli_resistance_values(tmp_path):
    rc, out = _run(tmp_path, "resistance", "--kind", "sg", "--levels", "1..2")
    assert rc == 0
    lines = _csv_bytes(out).decode().strip().split("\r\n")
    assert lines[0] == "n,RnV,ratio,rho_hat,closed_form"
    rows = [ln.split(",") for ln in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert float(rows[1][1]) == pytest.approx((5.0 / 3.0) ** 2 - 1.0, rel=1e-12)
    assert [float(r[4]) for r in rows] == [2.0 / 3.0, 16.0 / 9.0]


def test_cli_walkdim_sg(tmp_path):
    rc, out = _run(tmp_path, "walkdim", "--kind", "sg", "--levels", "1..4")
    assert rc == 0
    lines = _csv_bytes(out).decode().strip().split("\r\n")
    last = lines[-1].split(",")
    beta_hat = float(last[-1])
    assert beta_hat == pytest.approx(np.log(5) / np.log(2), abs=1e-9)


def test_cli_energy_sc_strips(tmp_path):
    rc, out = _run(tmp_path, "energy", "--kind", "sc", "--levels", "1..2")
    assert rc == 0
    lines = _csv_bytes(out).decode().strip().split("\r\n")
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(6.0 / 7.0, rel=1e-12)
    assert float(row1[2]) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_cli_walk_json_schema(tmp_path):
    rc, out = _run(
        tmp_path, "walk", "--lambda", "0.5", "--c", "0.25",
        "--samples", "400", "--depth-cut", "6", "--m", "1",
    )
    assert rc == 0
    jf = sorted(p for p in Path(out).glob("*.json") if not p.name.endswith("meta.json"))
    data = json.loads(jf[0].read_text())
    assert set(data) >= {"lambda", "c", "G_oo", "F", "hit_dist", "lifetime"}
    assert set(data["G_oo"]) == {"exact_lo", "exact_hi", "mc", "stderr"}
    assert data["G_oo"]["exact_lo"] <= 2.0 <= data["G_oo"]["exact_hi"]
    assert data["hit_dist"]["m"] == 1
    assert len(data["hit_dist"]["freqs"]) == 3
    assert data["lifetime"]["closed_form"] == pytest.approx(8.0 / 9.0)


def test_cli_walk_seeded_rerun_identical(tmp_path):
    args = ("walk", "--lambda", "0.5", "--c", "0.25", "--samples", "300",
            "--depth-cut", "6", "--m", "1", "--seed", "3")
    rc, out = _run(tmp_path, *args)
    assert rc == 0
    jf = sorted(p for p in Path(out).glob("*.json") if not p.name.endswith("meta.json"))
    first = jf[0].read_bytes()
    rc2, _ = _run(tmp_path, *args)
    assert rc2 == 0
    assert jf[0].read_bytes() == first


# sha256 of the walk data file, recorded from the walk tables that sorted one
# global list of directed edges before they were built level by level
WALK_DATA_DIGEST = "ee118880b182f868fa266fe215e6aee75bb533fbf9861eace092caedf2b3b0ca"

# sha256 of each subcommand's data file at seed 1, by argument list.  The rows
# run in order on one cache directory, which no subcommand reads or writes.
# The first eleven rows are the benchmark workloads (copied, not imported, so
# Tier-1 does not depend on the harness); goodfn and kernel are the
# subcommands no workload runs.  The *.meta.json sidecars hold a timestamp and
# the git hash and are not pinned.  The carpet resistance and goodfn rows were
# recorded again when the plate came to be solved on one quadrant: R_2 moved
# by one ulp and the level-3 potential by at most 4.8e-15.  The carpet rows
# at levels 5..6 and of walkdim were recorded while that quadrant was still
# masked out of the whole graph, before it was built directly.
DATA_DIGESTS = (
    (("resistance", "--kind", "sc", "--levels", "1..4"),
     "56bb93c3c7e3abf149c591c5c2c937320e2b1489f34d052caed23edce0b5e5b3"),
    (("harnack", "--kind", "sc", "--levels", "3,4", "--trials", "20"),
     "18c321363f347a408e54df944855c38260e413634b048e4be7616eb52fd4a8ef"),
    (("resistance", "--kind", "sc", "--levels", "1..4"),
     "56bb93c3c7e3abf149c591c5c2c937320e2b1489f34d052caed23edce0b5e5b3"),
    (("energy", "--kind", "sg", "--levels", "1..8"),
     "3cb1479185c35e60f42b92f7c83bf1fd464dd93dd7e239c00b7ce2019785892f"),
    (("walkdim", "--kind", "sg", "--levels", "1..8"),
     "8a55a5d6354abc8be0b1636368362e1f02fe997f573d85d9fbd0465cb94193e2"),
    (("mosco", "--depth", "7"),
     "3279eda461bc9460bfb3477804f3c3503fd3d1ac6701c130c266311e00c0a5c1"),
    (("trace", "--depth", "7"),
     "f2e9aa85692e8f3a61e1f9052855f50a8f928a2e6ed3b58c2a1e93476b188ec5"),
    (("besov", "--kind", "sg", "--depth", "6"),
     "fe41523b6670d6fa5c473144641141f39b47787712cad669c1ed67209e4c51ba"),
    (("energy", "--kind", "sc", "--levels", "1..4"),
     "9fae53ed24fab4948a0bfbd4c04f5e8bbee7472ce44a64bfe56535c1fa3e7896"),
    (("walk", "--lambda", "0.5", "--c", "0.25", "--samples", "20000", "--depth-cut", "10"),
     "8beece0d3869b116539907fbad07b6d60279a73f2993f7440b0607d1d65688ad"),
    (("walk", "--lambda", "0.8", "--c", "0.5", "--samples", "50000", "--depth-cut", "10",
      "--m", "3"),
     "e93d84d6d6c1dd5f4b82786162c36de664b6e40f407aebe1a1ecc2432403b168"),
    (("goodfn", "--kind", "sc", "--level", "3"),
     "b7127abc25eacf9d47d87029c0bf7a44c002373652e8db65852b0dfa5d21af6b"),
    (("kernel",),
     "6da9739e5c6817b98c401b143359700f05139abcd3ff672a162cfd5a1b9a3cbf"),
    (("resistance", "--kind", "sc", "--levels", "5..6"),
     "af7d9245a462aa41c82890cc5345ac29202948e18894b132eca7e709196105e0"),
    (("walkdim", "--kind", "sc", "--levels", "1..4"),
     "1adb1fa466e2245dd6eb462af1f3a9a42e31336b9d08cf5390b654cd7fe258a4"),
    (("walk", "--lambda", "0.5", "--c", "0.25", "--samples", "300", "--depth-cut", "6"),
     WALK_DATA_DIGEST),
)


def _manifest_row(tmp_path, k, args):
    """Run row k of the manifest at seed 1: its data file and that file's sha256."""
    out = tmp_path / "out" / str(k)
    rc = main([*args, "--seed", "1", "--out", str(out), "--cache", str(tmp_path / "cache")])
    data = [p for p in sorted(out.iterdir()) if not p.name.endswith(".meta.json")]
    assert rc == 0 and len(data) == 1, args
    return data[0], hashlib.sha256(data[0].read_bytes()).hexdigest()


def test_cli_data_files_are_pinned(tmp_path):
    moved = []
    for k, (args, digest) in enumerate(DATA_DIGESTS):
        path, got = _manifest_row(tmp_path, k, args)
        if got != digest:
            moved.append(f"{' '.join(args)} -> {path.name}: {got}")
    assert not moved, "data files moved:\n" + "\n".join(moved)


def test_cli_runs_look_no_vertex_up_by_its_coordinates(tmp_path):
    # every run reads its vertex ids from the corner table: no package module
    # defines or reads a coordinate lookup (the references `ids_of` and
    # `id_of` live in tests/oracles.py), and one call of each subcommand in
    # the manifest still writes its pinned bytes
    lookups = {"ids_of", "id_of"}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {getattr(node, a, None) for node in ast.walk(tree) for a in ("name", "attr", "id")}
        assert not names & lookups, f"{path.name} defines or reads {sorted(names & lookups)}"
    done = set()
    for k, (args, digest) in enumerate(DATA_DIGESTS):
        if args[0] not in done:
            done.add(args[0])
            assert _manifest_row(tmp_path, k, args)[1] == digest, args
    assert len(done) == 10


def test_cli_walk_first_hit_law_runs_at_depth_cut(tmp_path):
    treewalk._tables.cache_clear()
    rc, _ = _run(tmp_path, "walk", "--lambda", "0.5", "--c", "0.25",
                 "--samples", "300", "--depth-cut", "6", "--m", "1")
    assert rc == 0
    p = WalkParams(lam=0.5, C1=RunConfig().C1, C2=RunConfig().C2, depth_cut=6)
    hits = build_tables.cache_info().hits
    build_tables(p)  # the one table the walk built, first hits included
    assert build_tables.cache_info().hits == hits + 1
    build_tables(replace(p, depth_cut=10))  # no depth-10 table was built
    assert build_tables.cache_info().hits == hits + 1


def test_cli_walk_m_beyond_depth_cut_exit_2(tmp_path):
    rc, _ = _run(tmp_path, "walk", "--samples", "100", "--depth-cut", "6", "--m", "6")
    assert rc == 2


@pytest.mark.parametrize("depth_cut, m", [("2", "1"), ("3", "1"), ("6", "6"), ("6", "0")])
def test_cli_walk_checks_arguments_before_any_work(tmp_path, monkeypatch, depth_cut, m):
    # depth cuts 2 and 3 leave no room for the F table's words of length 3
    def no_work(*args, **kwargs):
        raise AssertionError("walk started work before checking its arguments")

    monkeypatch.setattr(cli, "green_oo", no_work)
    rc, out = _run(tmp_path, "walk", "--samples", "100", "--depth-cut", depth_cut, "--m", m)
    assert rc == 2
    assert not Path(out).exists()


def test_cli_walk_closures_certified_without_factoring(tmp_path):
    treewalk._closure_solves.cache_clear()  # a cached closure logs nothing
    rc, out = _run(tmp_path, "walk", "--lambda", "0.5", "--c", "0.25",
                   "--samples", "300", "--depth-cut", "6", "--m", "1")
    assert rc == 0
    solver = _walk_files(out)[0]["provenance"]["solver"]
    assert solver["method"] == "radial"
    assert (solver["factorizations"], solver["solves"]) == (0, 2)
    assert 0.0 < solver["max_residual"] <= 1e-12


def test_cli_walk_cached_closures_log_their_certificate(tmp_path):
    # the second walk reads its closures from the cache: no new solve, but
    # the same method and the residual its brackets are widened by
    treewalk._closure_solves.cache_clear()
    args = ("walk", "--lambda", "0.5", "--c", "0.25",
            "--samples", "300", "--depth-cut", "6", "--m", "1")
    solvers = []
    for run_dir in ("first", "second"):
        rc, out = _run(tmp_path / run_dir, *args)
        assert rc == 0
        solvers.append(_walk_files(out)[0]["provenance"]["solver"])
    first, second = solvers
    assert first["method"] == second["method"] == "radial"
    assert first["max_residual"] == second["max_residual"] > 0.0
    assert (first["solves"], second["solves"]) == (2, 0)


def test_cli_invalid_config_exit_2(tmp_path):
    rc, _ = _run(tmp_path, "walk", "--lambda", "1.5")
    assert rc == 2


@pytest.mark.parametrize("key", ["C1", "C2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_weight_in_config_exit_2(tmp_path, key, value):
    # nan <= 0 is False: a bare sign check let nan through to the solver
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfgf)
    rc, out = _run(tmp_path, "walk", "--config", str(cfgf), "--samples", "100", "--depth-cut", "6")
    assert rc == 2
    assert not Path(out).exists()


def test_cli_level_cap_exit_3(tmp_path):
    rc, _ = _run(tmp_path, "resistance", "--kind", "sc", "--levels", "1..9")
    assert rc == 3


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_walk_depth_cap_exit_3_without_data(tmp_path, source):
    depth = str(treewalk.DEPTH_CAP + 1)
    if source == "flag":
        args = ("walk", "--depth-cut", depth)
    else:
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"depth_cut = {depth}\n")
        args = ("walk", "--config", str(cfgf))
    rc, out = _run(tmp_path, *args)
    assert rc == 3
    assert not Path(out).exists()


def test_cli_non_finite_result_exit_4_without_data(tmp_path, monkeypatch):
    def nan_walk(cfg, opts):
        return cli._report("walk", cfg, opts, tree={"mean": float("nan")})

    walk = cli._SUBCOMMANDS["walk"]._replace(handler=nan_walk)
    monkeypatch.setitem(cli._SUBCOMMANDS, "walk", walk)
    rc, out = _run(tmp_path, "walk")
    assert rc == 4
    assert not list(Path(out).glob("*.json"))


@pytest.mark.parametrize("beta", ["150", "170", "200"])
def test_cli_besov_overflow_exit_4_without_data(tmp_path, beta):
    # 150 and 170: the Monte Carlo variance overflows, so the beta reads
    # (inf, inf); 200: the weight 2^(beta n) / 3^n itself overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = _run(tmp_path, "besov", "--kind", "sg", "--depth", "6", "--beta-grid", beta)
    assert rc == 4
    assert not Path(out).exists()
    # the critical-exponent warning is the only one: no numpy overflow note
    assert [str(w.message) for w in caught if "critical exponent" not in str(w.message)] == []


@pytest.mark.parametrize(
    "flag", [("--i", "2", "--gamma", "170"), ("--gamma", "700")], ids=["i", "gamma"]
)
def test_cli_kernel_overflow_exit_4_without_data(tmp_path, flag):
    # C_i = 3^(2 gamma i) is an exact int too large for a float; it reads
    # inf, as a_i does.  Both words stay below besov.KERNEL_DEPTH_CAP.
    rc, out = _run(tmp_path, "kernel", *flag)
    assert rc == 4
    assert not Path(out).exists()


def test_cli_kernel_words_below_the_cap_run(tmp_path):
    rc, out = _run(tmp_path, "kernel", "--gamma", "100")
    assert rc == 0
    row = _csv_bytes(out).decode().split("\r\n")[1].split(",")
    assert len(row[4]) == len(row[5]) == 1313


def test_cli_besov_level_cap_covers_the_test_function_level(tmp_path):
    # the sampling depth 2 is within the cap, but the good function is
    # built at level max(depth, 4) = 4
    rc, out = _run(tmp_path, "besov", "--kind", "sc", "--level-cap", "3", "--depth", "2")
    assert rc == 3
    assert not Path(out).exists()


def test_cli_bad_function_exit_2(tmp_path):
    rc, _ = _run(tmp_path, "walkdim", "--kind", "sg", "--levels", "1..3",
                 "--function", "nonsense:1")
    assert rc == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sg\nseed = 11\n")
    rc, out = _run(tmp_path, "harnack", "--config", str(cfgf),
                   "--levels", "3", "--trials", "2", "--seed", "5")
    assert rc == 0
    meta = sorted(Path(out).glob("*meta.json"))[0]
    body = json.loads(meta.read_text())
    assert body["config"]["seed"] == 5
    # the walk's own flags win too, and the meta's config holds what ran,
    # whether a value came from a flag or from the config file
    walk_keys = ("lam", "c", "samples", "depth_cut")
    cfgf.write_text("lam = 0.7\nsamples = 300\n")
    for flags, ran in (
        (("--lambda", "0.8", "--c", "0.5", "--samples", "300", "--depth-cut", "6"),
         (0.8, 0.5, 300, 6)),
        (("--depth-cut", "6"), (0.7, None, 300, 6)),
    ):
        rc, out = _run(tmp_path / str(ran[0]), "walk", "--config", str(cfgf), *flags)
        assert rc == 0
        meta, data_path = _walk_files(out)
        assert tuple(meta["config"][k] for k in walk_keys) == ran
        assert not set(walk_keys) & set(meta["config"]["options"])
        assert json.loads(data_path.read_text())["lambda"] == ran[0]


def _data_file(out):
    (path,) = (p for p in Path(out).iterdir() if not p.name.endswith(".meta.json"))
    return path.name, path.read_bytes()


@pytest.mark.parametrize(
    "args", [("goodfn", "--level", "2"), ("harnack", "--levels", "3", "--trials", "2")],
    ids=["goodfn", "harnack"],
)
def test_cli_carpet_subcommands_need_no_kind(tmp_path, args):
    # the carpet is the one fractal they run on: --kind sc names it again
    rc, bare = _run(tmp_path / "bare", *args)
    rc2, named = _run(tmp_path / "named", *args, "--kind", "sc")
    assert rc == rc2 == 0
    assert _data_file(bare) == _data_file(named)


@pytest.mark.parametrize("floats", [1, 3000, 20000], ids=["one-trial-blocks", "uneven-blocks", "two-blocks-at-level-4"])
def test_cli_harnack_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, floats):
    # each level's trials are drawn and solved in blocks; a trial reads the
    # same draws and the same ratio bits however the trials are split
    args = ("harnack", "--levels", "3,4", "--trials", "20", "--seed", "3")
    want = _data_file(_run(tmp_path / "default", *args)[1])
    monkeypatch.setattr(cli, "_HARNACK_RHS_FLOATS", floats)
    assert _data_file(_run(tmp_path / "split", *args)[1]) == want


class _WholeGraphBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "args, builds",
    [(("harnack", "--levels", "3,4", "--trials", "2"), False),
     (("energy", "--kind", "sc", "--levels", "1..4"), False),
     (("goodfn", "--level", "2"), True)],
    ids=["harnack", "energy-sc", "goodfn"],
)
def test_cli_carpet_runs_build_the_whole_graph_only_for_goodfn(tmp_path, monkeypatch, args, builds):
    def refuse(*a, **kw):
        raise _WholeGraphBuilt

    for module in [m for name, m in sys.modules.items() if name.startswith("fractalforms")]:
        for name in ("vertex_graph", "cached_vertex_graph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    if builds:
        with pytest.raises(_WholeGraphBuilt):
            _run(tmp_path, *args)
    else:
        assert _run(tmp_path, *args)[0] == 0


def test_cli_harnack_runs_on_the_carpet_under_a_gasket_config(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sg\n")
    rc, out = _run(tmp_path, "harnack", "--config", str(cfgf), "--levels", "3", "--trials", "2")
    assert rc == 0
    meta = json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())
    assert meta["config"]["kind"] == "sc"


@pytest.mark.parametrize(
    "args", [("harnack", "--levels", "3", "--trials", "2"), ("goodfn", "--level", "2")],
    ids=["harnack", "goodfn"],
)
def test_cli_carpet_runs_ignore_a_gasket_beta_grid(tmp_path, args):
    # 2.2 lies in the gasket's window, not the carpet's, and neither reads it
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sg\nbeta_grid = 2.2\n")
    rc, out = _run(tmp_path / "config", *args, "--config", str(cfgf))
    assert rc == 0
    meta = json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())
    assert meta["config"]["kind"] == "sc" and "beta_grid" not in meta["config"]
    assert _data_file(out) == _data_file(_run(tmp_path / "bare", *args)[1])


def test_cli_energy_id_ignores_the_seed(tmp_path):
    args = ("energy", "--kind", "sg", "--levels", "1..3")
    files = [_data_file(_run(tmp_path / seed, *args, "--seed", seed)[1]) for seed in ("5", "6")]
    assert files[0] == files[1]


def test_cli_walk_id_ignores_the_config_kind(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sc\n")
    args = ("walk", "--samples", "300", "--depth-cut", "6")
    bare = _data_file(_run(tmp_path / "bare", *args)[1])
    assert _data_file(_run(tmp_path / "config", *args, "--config", str(cfgf))[1]) == bare


def test_cli_resistance_timing_moves_no_id(tmp_path, capsys):
    args = ("resistance", "--kind", "sg", "--levels", "1..2")
    bare = _data_file(_run(tmp_path / "bare", *args)[1])
    capsys.readouterr()
    assert _data_file(_run(tmp_path / "timed", *args, "--timing")[1]) == bare
    assert capsys.readouterr().err.startswith("resistance: 2 levels in ")


# one manifest row per subcommand: the row, its arguments that set no config
# key, and the config keys it sets; every row runs at seed 1
_READ_CASES = (
    (("resistance", "--kind", "sc", "--levels", "1..4"), ("--levels", "1..4"), {"kind": "sc"}),
    (("walkdim", "--kind", "sg", "--levels", "1..8"), ("--levels", "1..8"), {}),
    (("energy", "--kind", "sc", "--levels", "1..4"), ("--levels", "1..4"), {"kind": "sc"}),
    (("goodfn", "--kind", "sc", "--level", "3"), ("--level", "3"), {}),
    (("harnack", "--kind", "sc", "--levels", "3,4", "--trials", "20"),
     ("--levels", "3,4", "--trials", "20"), {}),
    (("besov", "--kind", "sg", "--depth", "6"), ("--depth", "6"), {}),
    (("mosco", "--depth", "7"), ("--depth", "7"), {}),
    (("walk", "--lambda", "0.5", "--c", "0.25", "--samples", "300", "--depth-cut", "6"), (),
     {"c": 0.25, "samples": 300, "depth_cut": 6}),
    (("trace", "--depth", "7"), ("--depth", "7"), {}),
    (("kernel",), (), {}),
)

# a valid value for each key but kind and out_dir, other than its default
# and than the value a case sets
_OTHER_VALUES = {
    "level_cap_sg": 11, "level_cap_sc": 6, "beta_grid": (2.0,), "lam": 0.7, "C1": 2.0,
    "C2": 3.0, "c": 0.2, "samples": 250, "mc_samples": 360, "depth_cut": 7, "seed": 9,
    "cache_dir": "elsewhere",
}


def _run_config(tmp_path, name, args, values):
    """Run `args` under a config file of `values`: the data file and the meta."""
    cfgf = tmp_path / f"{name}.cfg"
    cfgf.write_text("".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in values.items()
    ))
    rc, out = _run(tmp_path / name, *args, "--config", str(cfgf))
    assert rc == 0, (name, values)
    return _data_file(out), json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())


class _Reads:
    """A RunConfig that records the names read from it."""

    def __init__(self, cfg):
        self.cfg, self.names = cfg, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.cfg, name)


@pytest.mark.parametrize("row, args, values", _READ_CASES, ids=[r[0] for r, _, _ in _READ_CASES])
def test_cli_handlers_read_what_the_table_lists(tmp_path, monkeypatch, row, args, values):
    # the handler reads the table's keys, and kind and its level cap where
    # it runs on a fractal; the meta's config holds those keys and out_dir,
    # and the data file is the manifest row's
    sub = cli._SUBCOMMANDS[row[0]]
    seen = _Reads(None)

    def recording(cfg, opts):
        seen.cfg = cfg
        return sub.handler(seen, opts)

    real_report = cli._report
    monkeypatch.setitem(cli._SUBCOMMANDS, row[0], sub._replace(handler=recording))
    monkeypatch.setattr(cli, "_report", lambda name, cfg, *a, **kw: real_report(
        name, cfg.cfg if isinstance(cfg, _Reads) else cfg, *a, **kw))
    (_, data), meta = _run_config(tmp_path, "row", (row[0], *args), {"seed": 1, **values})
    fractal = {"kind", "fractal_kind", "level_cap"}
    assert seen.names - fractal == set(sub.keys)
    assert bool(seen.names & fractal) == bool(sub.kinds)
    kind = values.get("kind", sub.kinds[0] if sub.kinds else None)
    own = {"kind", f"level_cap_{kind}"} if sub.kinds else set()
    assert set(meta["config"]) == own | set(sub.keys) | {"out_dir", "subcommand", "options"}
    assert hashlib.sha256(data).hexdigest() == dict(DATA_DIGESTS)[row]


@pytest.mark.parametrize("row, args, values", _READ_CASES, ids=[r[0] for r, _, _ in _READ_CASES])
def test_cli_only_the_keys_a_run_reads_move_its_file(tmp_path, row, args, values):
    # every key the run does not read set to another valid value leaves the
    # file name and bytes as they are; each key it reads moves the name
    sub = cli._SUBCOMMANDS[row[0]]
    base = {"seed": 1, **values}
    kind = base.get("kind", sub.kinds[0] if sub.kinds else "sg")
    reads = set(cli._read_keys(row[0], kind))
    unread = {k: v for k, v in _OTHER_VALUES.items() if k not in reads}
    if "kind" not in reads or len(sub.kinds) == 1:  # the fractal it does not run on
        unread["kind"] = "sc" if kind == "sg" else "sg"
    argv = (row[0], *args)
    first, _ = _run_config(tmp_path, "base", argv, base)
    assert _run_config(tmp_path, "unread", argv, {**base, **unread})[0] == first
    for key in reads - {"kind", "out_dir"}:
        moved, _ = _run_config(tmp_path, key, argv, {**base, key: _OTHER_VALUES[key]})
        assert moved[0] != first[0], key


def test_cli_run_folds_the_flags_as_main_does(tmp_path):
    argv = ["walk", "--lambda", "0.8", "--c", "0.5", "--samples", "300", "--depth-cut", "6",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    meta, data_path = _walk_files(tmp_path / "out")
    report = run("walk", RunConfig(), _build_parser().parse_args(argv))
    assert report.config_snapshot == meta["config"]
    assert data_path.name == f"{report.experiment_id}.json"


def test_cli_builds_one_parser_per_process(tmp_path):
    cli._build_parser.cache_clear()
    for k in range(2):
        rc, _ = _run(tmp_path / str(k), "resistance", "--kind", "sg", "--levels", "1..2")
        assert rc == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cli_levels_run_in_ascending_order(tmp_path):
    rc, shuffled = _run(tmp_path / "shuffled", "resistance", "--kind", "sg", "--levels", "3,1,2")
    rc2, ordered = _run(tmp_path / "ordered", "resistance", "--kind", "sg", "--levels", "1..3")
    assert rc == rc2 == 0
    assert _csv_bytes(shuffled) == _csv_bytes(ordered)


def test_cli_besov_beta_grid_flag_beats_config(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sg\nbeta_grid = 1.7\nmc_samples = 240\n")
    base = ["besov", "--config", str(cfgf), "--depth", "2", "--function", "x"]
    for flag, beta in ((["--beta-grid", "2.2"], 2.2), ([], 1.7)):
        rc, out = _run(tmp_path / str(beta), *base, *flag)
        assert rc == 0
        rows = _csv_bytes(out).decode().strip().split("\r\n")[1:]
        assert [float(r.split(",")[0]) for r in rows] == [beta]


@pytest.mark.parametrize(
    "function, depth, used",
    [("harmonic:0,1,0", 6, 246), ("x", 12, 240)],
    ids=["graph", "callable"],
)
def test_cli_besov_meta_records_the_sampling(tmp_path, function, depth, used):
    # graph data samples at its own level (6), a coordinate function at the
    # gasket's default depth (12); 250 % depth samples are not drawn
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("kind = sg\nmc_samples = 250\n")
    rc, out = _run(tmp_path, "besov", "--config", str(cfgf), "--depth", "6", "--function", function)
    assert rc == 0
    meta = json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())
    assert meta["provenance"]["mc"] == {"depth": depth, "samples_used": used}
    assert "samples_used" not in _csv_bytes(out).decode()


def test_cli_walkdim_sc_solves_each_level_once(tmp_path):
    levels = [1, 2, 3, 4]
    rc, out = _run(tmp_path, "walkdim", "--kind", "sc", "--levels", "1..4")
    assert rc == 0
    meta = json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())
    assert meta["provenance"]["solver"]["factorizations"] == len(levels)


class _WritesSentinel:
    """Unpickling this creates the file at `path`."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _check_resistance_leaves_the_cache_alone(tmp_path, monkeypatch, plant, runs=1):
    # --cache still parses, but the carpet plate is solved on a quadrant built
    # directly: a run runs nothing planted in the cache directory, reads and
    # writes nothing there, and writes the bytes of a run without --cache
    monkeypatch.chdir(tmp_path)  # where a run without --cache would put one
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    plant(cache_dir)

    def refuse(*args, **kwargs):
        raise AssertionError("a run used the cache")

    monkeypatch.setattr(Cache, "get", refuse)
    monkeypatch.setattr(Cache, "put", refuse)
    planted = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
    argv = ["resistance", "--kind", "sc", "--levels", "1..3", "--seed", "1"]
    outs = []
    for i in range(runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", f"out{i}", "--cache", str(cache_dir)]) == 0
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == planted
        outs.append(_csv_bytes(tmp_path / f"out{i}"))
    assert main([*argv, "--out", "clean"]) == 0
    assert not (tmp_path / RunConfig().cache_dir).exists()
    assert outs == [_csv_bytes(tmp_path / "clean")] * runs


def test_cli_cache_reused_across_runs(tmp_path, monkeypatch):
    # well-formed entries for every level the run solves stay as put, unread,
    # across two runs, and both runs write the same bytes
    def plant(cache_dir):
        for n in (1, 2, 3):
            Cache(cache_dir).put(("sc", n, "vertex-graph", 5), vertex_graph(FractalKind.SC, n))

    _check_resistance_leaves_the_cache_alone(tmp_path, monkeypatch, plant, runs=2)


def test_cli_cache_runs_nothing_planted_in_it(tmp_path, monkeypatch):
    sentinel = tmp_path / "sentinel"

    def plant(cache_dir):
        # an entry in the old pickle layout with a matching checksum sidecar
        blob = pickle.dumps(_WritesSentinel(sentinel))
        (cache_dir / "sc-1-vertex-graph-v3.pkl").write_bytes(blob)
        (cache_dir / "sc-1-vertex-graph-v3.sha256").write_text(hashlib.sha256(blob).hexdigest() + "\n")
        # an entry under the last name the cache used whose array holds the same object
        np.savez(cache_dir / "sc-2-vertex-graph-v5.npz", xn=np.array([_WritesSentinel(sentinel)], dtype=object))
        # a well-formed entry of the old five-array layout, tag 4, with every edge
        # multiplicity set to 1: read, it would move the level-1 resistance
        vg = vertex_graph(FractalKind.SC, 1)
        five = {name: getattr(vg, name) for name in GRAPH_ARRAYS}
        five["edges"] = np.column_stack([vg.edges[:, :2], np.ones(len(vg.edges), dtype=np.int64)])
        five["addr_packed"] = np.arange(vg.n_vertices, dtype=np.int64)
        np.savez(cache_dir / "sc-1-vertex-graph-v4.npz", **five)

    _check_resistance_leaves_the_cache_alone(tmp_path, monkeypatch, plant)
    assert not sentinel.exists()


@pytest.mark.parametrize("name, at", [("edges", (0, 1)), ("corners", (5, 3))])
def test_cli_cache_refuses_ids_outside_the_graph(tmp_path, monkeypatch, name, at):
    # a well-formed entry whose ids a run would index out of range with
    def plant(cache_dir):
        vg = vertex_graph(FractalKind.SC, 2)
        bad = getattr(vg, name).copy()
        bad[at] = 10 ** 6 if name == "edges" else vg.n_vertices
        np.savez(cache_dir / "sc-2-vertex-graph-v5.npz",
                 **{a: getattr(vg, a) for a in GRAPH_ARRAYS} | {name: bad})

    _check_resistance_leaves_the_cache_alone(tmp_path, monkeypatch, plant)


def test_cli_gasket_resistance_leaves_the_cache_dir_uncreated(tmp_path):
    rc, _ = _run(tmp_path, "resistance", "--kind", "sg", "--levels", "1..2")
    assert rc == 0
    assert not (tmp_path / "cache").exists()


def test_cli_solver_failure_exit_4(tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(networks.spla, "splu", singular)
    rc, out = _run(tmp_path, "resistance", "--kind", "sc", "--levels", "1..2")
    assert rc == 4
    assert not list(Path(out).glob("*.csv"))


def test_cli_solver_provenance_only_in_meta(tmp_path):
    argv = ["resistance", "--kind", "sc", "--levels", "1..3"]
    rc, out = _run(tmp_path, *argv)
    assert rc == 0
    meta = json.loads(sorted(Path(out).glob("*meta.json"))[0].read_text())
    solver = meta["provenance"]["solver"]
    assert solver["method"] == "splu"
    assert (solver["factorizations"], solver["solves"]) == (3, 3)
    assert 0.0 <= solver["max_residual"] <= 1e-12
    # the same run with the solver record dropped writes the same data bytes
    report = run("resistance", RunConfig(kind="sc", cache_dir=str(tmp_path / "cache")),
                 _build_parser().parse_args(argv))
    del report.provenance["solver"]
    plain = report.write(tmp_path / "plain")
    assert "solver" not in json.loads(plain[1].read_text())["provenance"]
    assert plain[0].read_bytes() == _csv_bytes(out)


@pytest.mark.parametrize("key", ["threads = 2", "a = 1.0", "solver_tol = 1e-9"])
def test_cli_removed_config_keys_exit_2(tmp_path, key):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"kind = sg\n{key}\n")
    rc, out = _run(tmp_path, "resistance", "--config", str(cfgf), "--levels", "1..2")
    assert rc == 2
    assert not Path(out).exists()


# each subcommand's level, depth or step argument at its boundary values:
# (0, negative, nan, inf, malformed) exit 2 and one past the cap exits 3
_BOUNDARY_FLAGS = (
    ("resistance --kind sg --levels", "13", "1..x"),
    ("walkdim --kind sg --levels", "13", "1,,2"),
    ("energy --kind sg --levels", "13", "3.."),
    ("goodfn --kind sc --level", "8", "3,4"),
    ("harnack --kind sc --levels", "8", "3;4"),
    ("besov --kind sg --depth", "13", "6x"),
    ("mosco --depth", "13", "6.5"),
    ("walk --depth-cut", "14", "6,7"),
    ("trace --depth", "13", "--"),
    ("kernel --i", "40", "1e3"),
)
EXIT_CODES = (
    ("resistance --levels x", 2),
    ("besov --beta-grid abc", 2),
    ("besov --beta-grid -1", 2),
    ("mosco --boundary 0,1", 2),
    ("energy --boundary 0,nan,1", 2),
    ("energy --kind sg --levels 13 --level-cap 13", 2),
    ("goodfn --kind sc --level 8 --level-cap 8", 2),
    ("besov --beta-grid nan", 2),
    ("besov --beta-grid inf", 2),
    ("mosco --points -2", 2),
    ("mosco --points 0", 2),
    ("harnack --kind sc --levels 3 --trials 0", 2),
    ("harnack --kind sc --levels 3 --trials -1", 2),
    ("kernel --x 0", 2),
    ("kernel --y 0", 2),
    ("kernel --x 0a --y 01", 2),
    ("kernel --x 01 --y 0-", 2),
    ("walk --samples 1", 2),
    ("walk --samples 0", 2),
    # the seed is one uint64 word of the walk's Philox key
    ("walk --samples 100 --depth-cut 6 --seed 18446744073709551616", 2),
    # a repeated level would make the fits across levels singular
    ("resistance --kind sg --levels 2,2,2", 2),
    ("walkdim --kind sg --levels 3,3,3", 2),
    # a constant boundary has energy 0 at every level
    ("walkdim --kind sg --levels 1..4 --function harmonic:1,1,1", 2),
    ("energy --kind sg --levels 1,2,1", 2),
    ("harnack --kind sc --levels 3,3", 2),
    # --kind offers only the fractals a subcommand runs on, and walk and
    # kernel, which run on neither, take no --kind or --level-cap
    ("goodfn --kind sg", 2),
    ("mosco --kind sc", 2),
    ("walk --kind sg", 2),
    ("kernel --level-cap 3", 2),
    # energy on the carpet reads no boundary
    ("energy --kind sc --boundary 0,1,0", 2),
    # (3 lam)^-6 overflows a float
    ("walk --lambda 1e-320 --samples 200 --depth-cut 6", 2),
    # (3 lam)^-6 is a float, but the closures' 3^6 tail resistors are not
    ("walk --lambda 3e-52 --samples 200 --depth-cut 6", 2),
    ("walk --lambda 2e-52 --samples 200 --depth-cut 6", 2),
    *(
        (f"{flag} {value}", 2)
        for flag, _, malformed in _BOUNDARY_FLAGS
        for value in ("0", "-1", "nan", "inf", malformed)
    ),
    *((f"{flag} {above}", 3) for flag, above, _ in _BOUNDARY_FLAGS),
    # a one-fractal subcommand's --level-cap lowers that fractal's cap
    ("harnack --level-cap 3 --levels 4", 3),
    ("kernel --i 1000", 3),
    ("kernel --i 99", 3),
    ("kernel --gamma 2000", 3),
    # the caps on sizes, checked before any work
    (f"mosco --points {cli.POINTS_CAP + 1}", 3),
    ("mosco --points 99999999999999999999", 3),
    (f"harnack --levels 3 --trials {cli.TRIALS_CAP + 1}", 3),
    ("harnack --levels 3 --trials 99999999999999999999", 3),
    (f"walk --samples {treewalk.SAMPLES_CAP + 1} --depth-cut 6", 3),
    ("walk --samples 99999999999999999999 --depth-cut 6", 3),
    # the exact energies of a boundary this large overflow a float: the run
    # ends as kernel's C_i does, with no data file
    ("energy --kind sg --boundary 1e200,0,0", 4),
    ("mosco --boundary 1e200,0,0", 4),
    ("walkdim --kind sg --function harmonic:1e200,0,0", 4),
    ("trace --function harmonic:1e200,0,0", 4),
    ("besov --kind sg --function harmonic:1e200,0,0", 4),
)


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=[argv for argv, _ in EXIT_CODES])
def test_cli_bad_arguments_exit_2_without_data(tmp_path, capsys, argv, code):
    """Each row ends in its documented exit code, with no traceback, no
    numpy warning and no data file; argparse's own refusals exit 2 through
    SystemExit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc, out = _run(tmp_path, *argv.split())
        except SystemExit as e:
            rc, out = e.code, tmp_path / "out"
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err
    assert not Path(out).exists()
    # an overflow reads inf without numpy's note on the way
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "args, key, cap",
    [(("walk", "--depth-cut", "6"), "samples", treewalk.SAMPLES_CAP),
     (("besov", "--kind", "sg"), "mc_samples", besov.MC_SAMPLES_CAP)],
    ids=["walk", "besov"],
)
def test_cli_sample_caps_in_a_config_exit_3_without_data(tmp_path, capsys, args, key, cap):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"{key} = {cap + 1}\n")
    rc, out = _run(tmp_path, *args, "--config", str(cfgf))
    assert rc == 3
    assert f"beyond the cap {cap}" in capsys.readouterr().err
    assert not Path(out).exists()


def test_cli_walk_weight_overflowing_the_vertex_conductance_exit_2(tmp_path, capsys):
    # C1 (3 * 0.3)^-6 overflows a float: the closures used to read nan with
    # numpy's warning and exit 4
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("C1 = 1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = _run(tmp_path, "walk", "--config", str(cfgf), "--lambda", "0.3",
                       "--samples", "200", "--depth-cut", "6")
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "overflows a float at C1 = 1e+308" in err
    assert not Path(out).exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_cli_besov_too_few_mc_samples_exit_2_without_data(tmp_path, capsys):
    # 5 samples cannot give each of the 6 strata at depth 6 the two its
    # variance needs
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("mc_samples = 5\n")
    rc, out = _run(tmp_path, "besov", "--kind", "sg", "--config", str(cfgf))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "mc_samples: need at least two samples per stratum, got 5 for 6 strata" in err
    assert not Path(out).exists()


# full-length words (91 digits at the default i, gamma) whose only fault is
# one character that int() reads as a digit or that is no digit at all
_KERNEL_WORDS = "0" * 91, "0" + "1" * 90


@pytest.mark.parametrize(
    "flag, bad",
    [("--x", "0" * 90 + "\u0661"), ("--y", "\uff10" + "1" * 90), ("--x", "0a" + "0" * 89)],
    ids=["x-arabic-indic-one", "y-fullwidth-zero", "x-letter"],
)
def test_cli_kernel_names_the_word_with_a_non_ternary_digit(tmp_path, capsys, flag, bad):
    x, y = (bad, _KERNEL_WORDS[1]) if flag == "--x" else (_KERNEL_WORDS[0], bad)
    rc, out = _run(tmp_path, "kernel", "--x", x, "--y", y)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flag} takes the digits 0, 1 and 2 only" in err
    assert not Path(out).exists()
    # the same words with the fault mended are accepted
    assert _run(tmp_path, "kernel", "--x", _KERNEL_WORDS[0], "--y", _KERNEL_WORDS[1])[0] == 0


def test_cli_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "walk", "--threads", "2")
    assert exc.value.code == 2


def _walk_files(out):
    meta = sorted(Path(out).glob("*meta.json"))
    data = sorted(p for p in Path(out).glob("*.json") if not p.name.endswith("meta.json"))
    return json.loads(meta[0].read_text()), data[0]


def test_cli_walk_mc_provenance_only_in_meta(tmp_path, capsys):
    rc, out = _run(tmp_path, "walk", "--lambda", "0.5", "--c", "0.25",
                   "--samples", "300", "--depth-cut", "6", "--m", "1")
    assert rc == 0
    meta, data_path = _walk_files(out)
    bias = ctrw_truncation_bias(WalkParams(lam=0.5, c=0.25), 6)
    assert meta["provenance"]["mc"] == {
        "green_oo": {"paths": 300, "overflowed": 0},
        "hit_dist": {"paths": 300, "overflowed": 0},
        "lifetime": {"paths": 300, "overflowed": 0, "truncation_bias": bias},
    }
    assert 0.0 < bias < 1e-4
    assert "overflowed" not in data_path.read_text()
    assert "step_cap" not in capsys.readouterr().err


def test_cli_walk_reports_cut_paths_on_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "WalkParams", functools.partial(WalkParams, step_cap=3))
    rc, out = _run(tmp_path, "walk", "--lambda", "0.9", "--c", "0.1",
                   "--samples", "200", "--depth-cut", "6", "--m", "1")
    assert rc == 0
    mc = _walk_files(out)[0]["provenance"]["mc"]
    assert all(mc[name]["overflowed"] > 0 for name in ("green_oo", "hit_dist", "lifetime"))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "step_cap 3" in err[0]
