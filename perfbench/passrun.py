"""One benchmark pass: a fresh interpreter runs a workload's subcommands.

    python3 perfbench/passrun.py --workload carpet --seed 1 --dir DIR [--trace]
    python3 perfbench/passrun.py --env

The pass imports `fractalforms.cli` from the checkout's `src/`, makes its
inputs (argument lists, an empty output and cache directory), then calls
`fractalforms.cli.main` once per operation.  It writes `DIR/pass.json` with
CLOCK_MONOTONIC timestamps, so the parent can time the set-up from before
the interpreter started.  With `--trace` the toolkit's public functions are
wrapped and the spans and per-layer values go into `pass.json` too.
`--env` only imports the toolkit and prints the environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_toolkit():
    import fractalforms.cli as cli

    here = Path(cli.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise ImportError(f"fractalforms imported from {here}, not from {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> dict:
    """Call the CLI in-process; the data file is the printed path that is not a sidecar."""
    buf = io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        rc = e.code
    except Exception:  # an operation that raises is a failed operation
        error = traceback.format_exc()
    printed = buf.getvalue().split()
    data = [p for p in printed if not p.endswith(".meta.json")]
    return {
        "argv": argv,
        "rc": rc,
        "error": error,
        "data_file": data[0] if len(data) == 1 else None,
    }


def run_pass(workload: str, seed: int, pass_dir: Path, pass_id: int, trace: bool) -> dict:
    cli = import_toolkit()
    from workloads import WORKLOADS

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(pass_id)
        tracing.install(tracer)
    cache = pass_dir / "cache"
    cache.mkdir(parents=True)
    argvs = []
    for k, op in enumerate(WORKLOADS[workload].ops):
        out = pass_dir / "out" / f"{k}-{op[0]}"
        out.mkdir(parents=True)
        argvs.append([*op, "--seed", str(seed), "--out", str(out), "--cache", str(cache)])
    t_ready = clock()

    ops = []
    cpu0, t_first = cpu_s(), clock()
    for argv in argvs:
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        ops.append(run_op(cli, argv))
        if tracer:
            tracer.close(span)
            tracer.finish(span)
    t_last, cpu1 = clock(), cpu_s()

    result = {
        "t_ready": t_ready,
        "wall_s": t_last - t_first,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer:
        result["layers"], result["missing"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--dir", type=Path)
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--env", action="store_true")
    args = p.parse_args()
    if args.env:
        import_toolkit()
        from envinfo import environment

        print(json.dumps(environment(ROOT), sort_keys=True))
        return 0
    result = run_pass(args.workload, args.seed, args.dir, args.pass_id, args.trace)
    (args.dir / "pass.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
