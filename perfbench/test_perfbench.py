"""Tests for the benchmark's own code: checks, self-time arithmetic, metric
names and span wrapping.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import copy
import io
import contextlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# output checks reject perturbed outputs


def resistance_rows(scale_last: float = 1.0):
    ref = list(checks.SC_RNV_REFERENCE)
    ref[-1] *= scale_last
    return [{"n": str(n), "RnV": fmt(r)} for n, r in enumerate(ref, 1)]


def test_resistance_reference_accepts_recorded_values():
    assert all(c.ok for c in checks.check_resistance(resistance_rows()))


def test_resistance_off_by_1e6_fails():
    got = {c.name: c.ok for c in checks.check_resistance(resistance_rows(1 + 1e-6))}
    assert got["resistance.reference"] is False


def test_resistance_growth_outside_band_fails():
    rows = resistance_rows()
    rows[-1]["RnV"] = fmt(float(rows[-2]["RnV"]) * 1.6)
    got = {c.name: c.ok for c in checks.check_resistance(rows)}
    assert got["resistance.growth"] is False


def test_harnack_ratio_below_one_fails():
    rows = [{"ratio": "1.2"}, {"ratio": "0.999"}]
    assert not checks.check_harnack(rows, 2).ok
    assert checks.check_harnack([{"ratio": "1.2"}, {"ratio": "1"}], 2).ok
    assert not checks.check_harnack([{"ratio": "inf"}, {"ratio": "1"}], 2).ok


def sg_energy_rows(n_max=8):
    rows = []
    for n in range(1, n_max + 1):
        q = 0.6**n
        rows.append({"n": str(n), "Bn": fmt(2 * q), "En": "2", "An": fmt(4 / 3 * (q - q * q))})
    return rows


def test_sg_energy_closed_forms():
    rows = sg_energy_rows()
    assert all(c.ok for c in checks.check_sg_energy(rows))
    rows[3]["Bn"] = fmt(float(rows[3]["Bn"]) * (1 + 1e-9))
    got = {c.name: c.ok for c in checks.check_sg_energy(rows)}
    assert got == {"energy.Bn": False, "energy.En": True, "energy.An": True}


def test_strip_energy_closed_forms():
    rows = [{"n": str(n), "strip_pointwise": fmt((6 / 7) ** n), "cantor_strip": fmt((2 / 3) ** n)} for n in range(1, 5)]
    assert all(c.ok for c in checks.check_sc_strip(rows))
    rows[0]["cantor_strip"] = fmt(2 / 3 + 1e-9)
    assert [c.ok for c in checks.check_sc_strip(rows)] == [True, False]


def test_walkdim_trace_besov():
    beta = fmt(math.log(5) / math.log(2))
    assert checks.check_walkdim([{"beta_hat": ""}, {"beta_hat": beta}]).ok
    assert not checks.check_walkdim([{"beta_hat": fmt(float(beta) + 1e-8)}]).ok
    assert not checks.check_walkdim([{"beta_hat": ""}]).ok
    assert checks.check_trace([{"dominated": "1"}]).ok
    assert not checks.check_trace([{"dominated": "0"}]).ok
    assert checks.check_besov([{"ratio": "1.3"}, {"ratio": "0.03"}]).ok
    assert not checks.check_besov([{"ratio": "51"}]).ok
    assert not checks.check_besov([{"ratio": ""}]).ok


def walk_tree(lam=0.5, c=0.25):
    target = 1 / (1 - lam)
    return {
        "G_oo": {"exact_lo": target - 0.01, "exact_hi": target + 1e-9, "mc": target + 0.01, "stderr": 0.01},
        "F": [{"x": x, "lower": lam ** len(x) - 0.01, "upper": lam ** len(x) + 1e-9} for x in ("0", "1", "02")],
        "hit_dist": {"m": 2, "freqs": [1 / 9] * 9},
        "lifetime": {"mean": 1 / (3 * (1 - lam) * (1 - c)), "stderr": 0.01, "closed_form": 0.0},
    }


def test_walk_checks_accept_a_good_tree():
    assert all(c.ok for c in checks.check_walk(walk_tree(), 0.5, 0.25))


@pytest.mark.parametrize(
    "name, edit",
    [
        ("walk.green_bracket", lambda t: t["G_oo"].update(exact_hi=1.999)),
        ("walk.green_mc", lambda t: t["G_oo"].update(mc=2.05)),
        ("walk.F_brackets", lambda t: t["F"][2].update(upper=0.2499)),
        ("walk.lifetime", lambda t: t["lifetime"].update(mean=t["lifetime"]["mean"] + 0.05)),
        ("walk.hit_freqs_sum", lambda t: t["hit_dist"]["freqs"].__setitem__(0, 0.2)),
    ],
)
def test_walk_bracket_that_misses_fails(name, edit):
    tree = copy.deepcopy(walk_tree())
    edit(tree)
    got = {c.name: c.ok for c in checks.check_walk(tree, 0.5, 0.25)}
    assert got.pop(name) is False
    assert all(got.values())


def test_flipped_byte_fails_determinism():
    ref = {"0-energy/e.csv": b"n,Bn\r\n1,1.2\r\n", "1-walk/w.json": b'{"a": 1}\n'}
    assert all(c.ok for c in checks.compare_outputs(ref, dict(ref)))
    flipped = dict(ref)
    blob = bytearray(ref["0-energy/e.csv"])
    blob[7] ^= 0x01
    flipped["0-energy/e.csv"] = bytes(blob)
    assert [c.ok for c in checks.compare_outputs(ref, flipped)] == [False, True]
    assert not all(c.ok for c in checks.compare_outputs(ref, {"0-energy/e.csv": ref["0-energy/e.csv"]}))


def test_data_files_skip_meta(tmp_path):
    (tmp_path / "0-x").mkdir()
    (tmp_path / "0-x" / "a.csv").write_bytes(b"1")
    (tmp_path / "0-x" / "a.meta.json").write_bytes(b"{}")
    assert checks.data_files(tmp_path) == {"0-x/a.csv": b"1"}


def test_unreadable_output_is_one_failed_check():
    got = checks.run_checks("carpet", [None, None, None], WORKLOADS["carpet"].ops)
    assert [c.ok for c in got] == [False]


def test_checks_pass_on_real_gasket_outputs(tmp_path):
    import fractalforms.cli as cli

    files = []
    for k, argv in enumerate(
        (["energy", "--kind", "sg", "--levels", "1..5"], ["energy", "--kind", "sc", "--levels", "1..3"])
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([*argv, "--seed", "3", "--out", str(tmp_path / str(k))]) == 0
        files.append(Path(next(p for p in buf.getvalue().split() if not p.endswith(".meta.json"))))
    assert all(c.ok for c in checks.check_sg_energy(checks.read_csv(files[0])))
    assert all(c.ok for c in checks.check_sc_strip(checks.read_csv(files[1])))


# ---------------------------------------------------------------------------
# self time


def span(name, start, end, parent, post=None):
    return {"name": name, "start": start, "end": end, "post": post or end, "parent": parent, "pass": 0}


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0, post=4.5),  # counting after the call is nobody's time
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("b", 7.0, 7.5, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 3.5 - 1 - 0.5, 2.0, 1.0, 1.0, 0.5])
    agg = tracer.aggregate(spans)
    assert agg["b"] == pytest.approx({"calls": 2, "self_s": 1.5, "total_s": 1.5})
    assert agg["root"]["total_s"] == pytest.approx(10.0)


def test_child_overhanging_its_parent_is_clipped():
    spans = [span("p", 0.0, 2.0, None), span("c", 1.0, 2.0, 0, post=3.0)]
    assert tracer.self_times(spans) == pytest.approx([1.0, 1.0])


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = [m.name for m in tracer.LAYER_METRICS] + ["setup_s", "wall_s", "peak_rss_mb"]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_every_metric_the_runner_prints():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layer = {m.name: (m.unit, m.better) for m in tracer.LAYER_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layer
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# wrapping


def test_missing_function_is_a_missing_span_not_a_zero():
    tr = tracer.Tracer(0)
    assert not tracer.wrap(tr, "geometry.vertex_graph", "fractalforms.geometry", "no_such_builder")
    values, missing = tracer.layer_metrics(tr)
    for name in ("geometry.vertex_graph.self_s", "geometry.vertex_graph.calls", "geometry.vertex_graph.vertices"):
        assert name not in values
        assert name in missing
    assert values["geometry.cell_graph.calls"] == 0  # present but not called: a real zero


def test_wrapper_rebinds_every_imported_name():
    import fractalforms.harmonic as harmonic
    import fractalforms.networks as networks
    import fractalforms.treewalk as treewalk

    orig = networks.solve_dirichlet
    tr = tracer.Tracer(0)
    try:
        assert tracer.wrap(tr, "networks.solve_dirichlet", "fractalforms.networks", "solve_dirichlet",
                           tracer._solve_dirichlet)
        wrapper = networks.solve_dirichlet
        assert wrapper is not orig
        assert harmonic.solve_dirichlet is wrapper and treewalk.solve_dirichlet is wrapper
        u, _ = harmonic.solve_dirichlet(3, [0, 1], [1, 2], [1.0, 1.0], [0, 2], [0.0, 1.0])
        assert u[1] == pytest.approx(0.5)
    finally:
        tracer.rebind(networks.solve_dirichlet, orig)
    assert harmonic.solve_dirichlet is orig
    values, missing = tracer.layer_metrics(tr)
    assert values["networks.solve_dirichlet.calls"] == 1
    assert values["networks.solve_dirichlet.dense_calls"] == 1
    assert values["networks.solve_dirichlet.nodes"] == 3
    assert not missing


def test_failing_counting_hook_marks_its_metrics_missing():
    import fractalforms.geometry as geometry
    from fractalforms.kinds import FractalKind

    def bad_hook(tr, span, args, result, missed):
        raise KeyError("renamed field")

    orig = geometry.cell_graph
    tr = tracer.Tracer(0)
    try:
        tracer.wrap(tr, "geometry.cell_graph", "fractalforms.geometry", "cell_graph", bad_hook)
        assert geometry.cell_graph(FractalKind.SG, 1).n_cells == 3
    finally:
        tracer.rebind(geometry.cell_graph, orig)
    values, missing = tracer.layer_metrics(tr)
    assert "geometry.cell_graph.cells" in missing and "geometry.cell_graph.cells" not in values


# ---------------------------------------------------------------------------
# statistics


def test_quartiles_and_tail_percentile():
    assert run.quartiles([2.0]) == (2.0, 2.0)
    assert run.tail_percentile(list(range(19))) is None
    p, v = run.tail_percentile([float(i) for i in range(1, 101)])
    assert p == 90 and v == 90.0
