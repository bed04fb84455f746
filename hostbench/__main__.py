"""Command line: ``python -m hostbench run | repeat | spec``.

``run`` is what ``BENCHMARK.json`` names.  The driver appends
``--workload W --seed N --seconds S --trace 0|1`` and reads the last line
of standard output; without ``--workload`` every workload runs and the
last line is the whole record.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SRC


def _run_args(parser: argparse.ArgumentParser) -> None:
    from .metrics import RUN_SECONDS

    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed passes repeat for this long (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and the probes, report per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workloads (smoke tests only)")


def _workloads(args) -> list[str]:
    from .workloads import WORKLOADS

    if args.workload is None:
        return list(WORKLOADS)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {list(WORKLOADS)}")
    return [args.workload]


def cmd_run(args) -> int:
    from . import runner

    names = _workloads(args)
    result = runner.run_set(
        names, args.seed, args.seconds, args.scale, bool(args.trace), args.spans_out
    )
    print(runner.render(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    if args.workload:
        last = runner.contract_line(result["workloads"][args.workload], bool(args.trace))
    else:
        last = {
            "hygiene": result["hygiene"],
            "workloads": {
                n: runner.contract_line(r, bool(args.trace))
                for n, r in result["workloads"].items()
            },
        }
    print(json.dumps(last))
    return 0


def cmd_repeat(args) -> int:
    from . import runner

    names = _workloads(args)
    sets = [
        runner.run_set(names, args.seed, args.seconds, args.scale, bool(args.trace))
        for _ in range(2)
    ]
    for i, result in enumerate(sets, start=1):
        print(f"---- set {i} ----")
        print(runner.render(result))
    print("---- set 1 vs set 2 ----")
    lines, ok = runner.compare(*sets)
    print("\n".join(lines))
    print("repeat: PASS" if ok else "repeat: FAIL (a metric moved by more than its bound)")
    return 0 if ok else 1


def cmd_worker(args) -> int:
    if args.mode == "probes":
        from .probes import run_probes

        values, notes = run_probes()
        out = {"values": values, "notes": notes}
    else:
        from .worker import work

        out = work(
            args.workload, args.seed, args.seconds, args.scale, args.mode,
            args.started, args.spans_out,
        )
    print(json.dumps(out))
    return 0


def cmd_spec(_args) -> int:
    from .metrics import benchmark_spec

    print(json.dumps(benchmark_spec(), indent=2))
    return 0


def main(argv=None) -> int:
    # the program under test is not installed: it runs from the checkout
    # (every command imports it; the worker does so inside its timed set-up)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    parser = argparse.ArgumentParser(prog="python -m hostbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark and print every metric")
    _run_args(run)
    run.add_argument("--out", help="also write the full record as JSON here")
    run.add_argument("--spans-out", metavar="PREFIX",
                     help="write each traced pass's spans to PREFIX.<workload>.jsonl")
    run.set_defaults(fn=cmd_run)

    repeat = sub.add_parser("repeat", help="two sets of the same tree, compared")
    _run_args(repeat)
    repeat.set_defaults(fn=cmd_repeat)

    spec = sub.add_parser("spec", help="print BENCHMARK.json")
    spec.set_defaults(fn=cmd_spec)

    worker = sub.add_parser("worker")  # internal: one measuring process
    worker.add_argument("--workload")
    worker.add_argument("--mode", choices=("setup", "timed", "traced", "probes"), required=True)
    worker.add_argument("--seed", type=int, default=1)
    worker.add_argument("--seconds", type=float, default=0.0)
    worker.add_argument("--scale", type=float, default=1.0)
    worker.add_argument("--started", type=float, default=0.0)
    worker.add_argument("--spans-out")
    worker.set_defaults(fn=cmd_worker)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
