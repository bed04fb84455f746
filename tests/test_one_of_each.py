"""One of each: deleted alternatives and their knobs stay deleted.

Each entry of :data:`DELETED` is a group of regular expressions that must
match no line of the repository, the paths the search is limited to
(``None``: everywhere) and the paths it skips.  The skipped paths are the
records that tell the story of a deletion (the change log, the roadmap,
bench records), hostbench where it still speaks of a name for its own
reasons, and this file, which has to spell every name.  A path
matches an exclusion when it is that file or lies under that directory.

The files searched are the repository's own: ``git ls-files`` (tracked
and untracked, ignored ones left out) when git can list them, else every
file under the root outside dot-directories (``.github`` aside) and
``__pycache__``.
"""

import os
import re
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.relpath(os.path.abspath(__file__), ROOT).replace(os.sep, "/")

_RECORDS = ("CHANGES.md", "ROADMAP.md", "bench_results")
#: the code, its tests and benchmarks, and the documents that describe it
_CODE_AND_DOCS = (
    "src", "tests", "benchmarks", "examples", "hostbench", ".github",
    "DESIGN.md", "README.md", "EXPERIMENTS.md",
)

#: a JSON decode, unless of one of the ledger's SQL JSON columns
JSON_DECODE = r"json\.loads?\((?!\w+(\[|\.pop\()\"(meta|values|violations|fields)_json\")"

#: (patterns, searched paths or None, excluded paths)
DELETED = [
    # one flow allocator: the vector one and its selector
    (("REPRO_SIM_FLOWS", "flows_vec", "--flows"),
     None, ("CHANGES.md", "hostbench")),
    # the calendar event core; the event-log tracer
    (("calendar_queue", "CalendarSimulator", "NULL_TRACER"),
     None, _RECORDS),
    # one span pipeline; bench records hold simulated results only
    ((r"repro\.trace", r"from \.+trace", "wall_clock_s", "record_wall_clock",
      "--wall-reps", "--wall-tol", r"obs\.history"),
     None, (*_RECORDS, "hostbench")),
    # one loop over the bench suites; one figure table
    (("run_sweep_parallel", "run_engine_suite", "run_figure_suite",
      "run_scale_suite", "run_adaptive_suite", "def fig2a", "_plan_fig"),
     None, (*_RECORDS, "hostbench")),
    # one analysis over spans: no causal graph, no lifecycle report
    (("CausalGraph", "CausalEvent", "build_graph", r"obs\.report",
      "RequestLifecycle", "publish_critical_path", r"critpath\.", r"sim\.resources"),
     None, (*_RECORDS, "hostbench")),
    # no gate objects: a sequence number per (peer, tag) on the engine
    ((r"class Gate\b", r"\.gates\b", "note_submit", "next_seq"),
     None, (*_RECORDS, "hostbench")),
    # no numpy under src/
    (("import numpy", r"np\.polyfit"), ("src",), ()),
    # one wire for faulted and fault-free runs
    (("transmit_eager", "_deliver_eager", r"_attach\b"),
     None, (*_RECORDS, "hostbench")),
    # wrappers from the driver; one owner per count; no strategy-file copies
    (("make_pw", "segments_packed", "splits_done", "whole_sends",
      r"strategies/greedy\.py", r"strategies/aggreg\.py"),
     None, (*_RECORDS, "hostbench")),
    # the send request is the segment; a match is a plain tuple
    ((r"class Segment\b", "MatchAction", "_action_for"),
     None, _RECORDS),
    # an idle pump parks in its own frame
    (("_pump_parked", "_pump_woke"),
     None, _RECORDS),
    # the adaptive pair: one epoch clock, one record per rail, no knobs
    (("_advance_epochs", "_refreeze", "_publish_ratios", "DEFAULT_CANDIDATES",
      "DEFAULT_EPOCH_US", r"\.last_end_us", r"\.refreezes"),
     None, _RECORDS),
    # one owner per fact: no unread tally, no second home for a pin or a cost
    (("commit_rails", "inline_poll", r"[Ss]trategy\.rails\b",
      r"\brx_packets\b", r"\btx_eager_(packets|bytes)\b", r"\btx_dma_(transfers|bytes)\b",
      r"\bpackets_carried\b", r"\b(posted|unexpected|wildcard)_hits\b", r"\b_packed_total\b",
      r"\bdma_post_cost\b", r"[Dd]river\.wire_size\b"),
     _CODE_AND_DOCS, ()),
    # a yielded request is the mpi layer's only wait; lane results are the
    # fan-out's AllOf value, not a side list
    ((r"def (send|recv)\(self", r"yield from \S+\.(send|recv)\(", r"\bep\.(send|recv)\b",
      r"out\[lane\]"),
     _CODE_AND_DOCS, ()),
    # a rail's driver is data: one Driver class, the API a RailSpec field
    # (the registry test names the per-API classes to check they are gone)
    ((r"(MX|Elan|GM|Sisci|TCP)Driver", "register_driver", "driver_class", "make_driver",
      "available_drivers", r"drivers\.registry", r"drivers\.(mx|gm|elan|sisci|tcp)\b",
      "api_name"),
     _CODE_AND_DOCS, ("tests/drivers/test_registry.py",)),
    # a channel is one int, ``tag * n_nodes + peer``, on both sides
    ((r"\bchan = \(", r"dict\[tuple\[int, int\], int\]", r"Chan = tuple"),
     ("src/repro/core",), ()),
    # one reader of JSON files, ``util/config.py::read_json_objects`` (the
    # ledger's SQL JSON columns are not files) ...
    ((JSON_DECODE, "UnicodeDecodeError", "JSONDecodeError"),
     ("src/repro",), ("src/repro/util/config.py",)),
    # ... and one span file, the span stream
    (("to_jsonl", "write_jsonl", "--jsonl"), _CODE_AND_DOCS, ()),
    # one span recorder, in memory: a span stream is written once, after
    # the run, and never spilled, replayed or adopted by a session
    (("StreamingTracer", r"stream[-_]window", r"\b_retain\b", r"\b_on_close\b",
      r"def lifecycle_report\(self"),
     _CODE_AND_DOCS, ()),
]


def _under(path, prefixes):
    return any(path == p or path.startswith(p + "/") for p in prefixes)


def offenders(files, deleted=DELETED):
    """``[(path, line number, pattern)]`` of every line a group forbids;
    ``files`` is ``(path, text)`` pairs, paths relative with ``/``."""
    groups = [
        ([re.compile(p) for p in patterns], where, (*excluded, HERE))
        for patterns, where, excluded in deleted
    ]
    found = []
    for path, text in files:
        for patterns, where, excluded in groups:
            if where is not None and not _under(path, where):
                continue
            if _under(path, excluded):
                continue
            for n, line in enumerate(text.splitlines(), 1):
                found += [(path, n, p.pattern) for p in patterns if p.search(line)]
    return found


def _repo_paths():
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z", "-co", "--exclude-standard"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        return sorted({p for p in out.decode().split("\0") if p})
    except (OSError, subprocess.CalledProcessError):
        paths = []
        for top, dirs, names in os.walk(ROOT):
            dirs[:] = [
                d for d in dirs
                if d == ".github" or not (d.startswith(".") or d == "__pycache__")
            ]
            rel = os.path.relpath(top, ROOT)
            paths += [os.path.normpath(os.path.join(rel, n)).replace(os.sep, "/") for n in names]
        return sorted(paths)


def _repo_files():
    for path in _repo_paths():
        try:
            with open(os.path.join(ROOT, path), "rb") as f:
                data = f.read()
        except OSError:  # listed but deleted in the working tree
            continue
        if b"\0" not in data:  # text only, as grep reads it
            yield path, data.decode("utf-8", "replace")


def test_deleted_names_stay_deleted():
    assert offenders(_repo_files()) == []


@pytest.mark.parametrize("path, found", [
    ("src/repro/sim/engine.py", True),
    ("tests/sim/test_engine.py", True),
    ("hostbench/workloads.py", True),  # calendar names are searched there too
    ("CHANGES.md", False),
    ("bench_results/BENCH_baseline.json", False),
])
def test_a_planted_deleted_name_is_found(path, found):
    planted = [(path, "x = 1\nfrom repro.sim import CalendarSimulator\n")]
    assert offenders(planted) == ([(path, 2, "CalendarSimulator")] if found else [])


@pytest.mark.parametrize("line, found", [
    ("if lean and strategy.rails is not None:", r"[Ss]trategy\.rails\b"),
    ("self.nic.tx_eager_packets += 1", r"\btx_eager_(packets|bytes)\b"),
    ("table.wildcard_hits == 1", r"\b(posted|unexpected|wildcard)_hits\b"),
    ("cost = driver.dma_post_cost()", r"\bdma_post_cost\b"),
    ("size = driver.wire_size(pw)", r"[Dd]river\.wire_size\b"),
    ("n = len(spec.rails)", None),
    ("wire += entry.wire_size(header_bytes)", None),
])
def test_the_one_owner_names_are_specific(line, found):
    planted = [("src/repro/core/scheduler.py", line + "\n")]
    assert offenders(planted) == ([("src/repro/core/scheduler.py", 1, found)] if found else [])


@pytest.mark.parametrize("path, line, found", [
    ("src/repro/obs/perf.py", "data = json.load(fh)", True),
    ("src/repro/faults/plan.py", "data = json.loads(text)", True),
    ("src/repro/util/config.py", "doc = json.loads(text)", False),
    ("src/repro/obs/ledger.py", 'meta = json.loads(row["meta_json"])', False),
    ("src/repro/obs/ledger.py", 'd["meta"] = json.loads(d.pop("meta_json"))', False),
    ("src/repro/obs/ledger.py", "doc = json.loads(first_line)", True),
])
def test_a_json_file_is_read_in_one_place(path, line, found):
    planted = [(path, line + "\n")]
    assert offenders(planted) == ([(path, 1, JSON_DECODE)] if found else [])


def test_a_group_limited_to_src_skips_the_rest():
    planted = [("src/repro/x.py", "import numpy\n"), ("benchmarks/x.py", "import numpy\n")]
    assert offenders(planted) == [("src/repro/x.py", 1, "import numpy")]
