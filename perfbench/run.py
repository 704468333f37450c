"""fractalforms benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload carpet --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36   # every workload, seed 1

Runs passes of the workload one after another, each in a fresh interpreter,
for `--seconds` (at least MIN_PASSES, or twice that with --trace 1).  Every
pass gets new empty output and cache directories and the same seed, and
every output is checked: closed forms, brackets, recorded values, and
byte-identical data files across passes.

--trace 0 reports the end-to-end metrics, medians over passes:
  setup_s      fresh interpreter to toolkit imported and inputs made
  wall_s       first subcommand start to last subcommand end
  peak_rss_mb  ru_maxrss of the pass process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracer.py), plus process.cpu_s of the
untraced passes and tracing.overhead_s, the traced minus the untraced wall_s.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (for `--workload all`, metric names get
the workload as prefix).  Full results, and the spans of traced
passes, are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import Check, compare_outputs, data_files, run_checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no pass starts that would end past this, whatever MIN_PASSES says


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def tail_percentile(xs: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples above it."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = math.ceil(len(xs) * p / 100 - 1e-9)  # 1-based rank of the percentile
        if len(xs) - rank >= 10:
            best = (p, sorted(xs)[rank - 1])
    return best


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def environment_record() -> dict | None:
    """Import the toolkit once in a child (this also compiles its bytecode) and
    return the environment record, or None when the toolkit cannot be imported."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--env"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, pass_dir: Path, pass_id: int, traced: bool) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
        "--dir", str(pass_dir), "--pass-id", str(pass_id),
    ]
    if traced:
        cmd.append("--trace")
    pass_dir.mkdir(parents=True)
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    result_path = pass_dir / "pass.json"
    if proc.returncode != 0 or not result_path.exists():
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["t_ready"] - t_spawn
    result["traced"] = traced
    return result


def judge_pass(workload: str, result: dict | None, pass_dir: Path) -> tuple[list[Check], dict[str, bytes]]:
    """Operation outcomes and output checks of one pass, and its data files."""
    ops = WORKLOADS[workload].ops
    if result is None:
        return [Check(f"op.{op[0]}", False, "pass process failed") for op in ops], {}
    checks = [
        Check(f"op.{r['argv'][0]}", r["rc"] == 0 and r["error"] is None, r["error"] or f"exit {r['rc']}")
        for r in result["ops"]
    ]
    files = [Path(r["data_file"]) if r["data_file"] else None for r in result["ops"]]
    checks += run_checks(workload, files, ops)
    return checks, data_files(pass_dir / "out")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment_record()
    if env is None:
        raise RuntimeError("the toolkit could not be imported from src/")

    passes, checks, spans = [], [], []
    reference = None
    t0 = time.monotonic()
    last = 0.0
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    while True:
        # start a pass only if it should end inside the window, once enough ran
        elapsed = time.monotonic() - t0
        if passes and elapsed + last > (seconds if len(passes) >= min_passes else RUN_BUDGET_S):
            break
        k = len(passes)
        traced = trace and k % 2 == 1
        pass_dir = work / f"pass{k}"
        t_pass = time.monotonic()
        result = run_pass(workload, seed, pass_dir, k, traced)
        last = time.monotonic() - t_pass
        pass_checks, outputs = judge_pass(workload, result, pass_dir)
        if reference is None and result is not None:
            reference = outputs
        elif reference is not None:
            # same seed, fresh directories: data files must not change, traced or not
            pass_checks += compare_outputs(reference, outputs)
        checks += [c._replace(name=f"pass{k}.{c.name}") for c in pass_checks]
        shutil.rmtree(pass_dir)
        if result is not None:
            spans += result.pop("spans", [])
            result.pop("ops")
        passes.append(result)
    return {"work": work, "env": env, "passes": passes, "checks": checks, "spans": spans}


def summarize(workload: str, seed: int, trace: bool, data: dict) -> dict:
    ok = [p for p in data["passes"] if p is not None]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    failed = sum(not c.ok for c in data["checks"])
    out = {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": len(data["checks"]),
        "failed": failed,
        "metrics": {},
    }
    if not plain:
        return out
    if not trace:
        for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")):
            out["metrics"][name] = {"value": median([p[name] for p in plain]), "unit": unit}
        return out
    if not traced:
        return out
    import tracer

    units = {m.name: m.unit for m in tracer.LAYER_METRICS}
    names = sorted({k for p in traced for k in p["layers"]})
    for name in names:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        out["metrics"][name] = {"value": median(values), "unit": units.get(name, "")}
    out["metrics"]["process.cpu_s"] = {"value": median([p["cpu_s"] for p in plain]), "unit": "s"}
    overhead = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    out["metrics"]["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def report(workload: str, seed: int, trace: bool, data: dict, result: dict) -> list[str]:
    env = data["env"]
    ok = [p for p in data["passes"] if p is not None]
    lines = [
        f"workload {workload}: {WORKLOADS[workload].why}",
        f"seed {seed}, trace {int(trace)}, passes {len(data['passes'])} "
        f"({sum(p['traced'] for p in ok)} traced, {len(data['passes']) - len(ok)} failed)",
        "env " + " ".join(f"{k}={env[k]}" for k in sorted(env)),
    ]
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("cpu_s", "s")):
        for label, group in (("", [p for p in ok if not p["traced"]]), ("traced ", [p for p in ok if p["traced"]])):
            xs = [p[name] for p in group]
            if not xs:
                continue
            q1, q3 = quartiles(xs)
            tail = tail_percentile(xs)
            tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile (p50 needs 20 passes)"
            lines.append(
                f"{label}{name:<12} median {median(xs):.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                f"{tail_text}  n={len(xs)}"
            )
    lines.append(
        f"fail_ratio   {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / max(result['attempted'], 1):.4g} (failed/attempted operations)"
    )
    for c in data["checks"]:
        if not c.ok:
            lines.append(f"FAILED {c.name}: {c.detail.strip().splitlines()[-1] if c.detail.strip() else ''}")
    if trace:
        missing = sorted({m for p in ok if p["traced"] for m in p["missing"]})
        if missing:
            lines.append("missing spans (metric not measured): " + ", ".join(missing))
        for name, m in result["metrics"].items():
            lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, save result.json and print the report of one workload; return its result."""
    data = run(workload, seed, seconds, trace)
    result = summarize(workload, seed, trace, data)
    (data["work"] / "result.json").write_text(
        json.dumps(
            {
                "result": result,
                "env": data["env"],
                "passes": data["passes"],
                "failed_checks": [c._asdict() for c in data["checks"] if not c.ok],
                "spans": data["spans"],
            }
        ),
        encoding="utf-8",
    )
    for line in report(workload, seed, trace, data, result):
        print(line)
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one line for all workloads: metric names get the workload as prefix
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
