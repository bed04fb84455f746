"""Diff two benchmark records and gate on simulated-result drift.

The regression policy mirrors what the record stores (see
:mod:`repro.obs.perf`):

* **simulated results** (latency, bandwidth, throughput of every point)
  are deterministic — the same code must reproduce them exactly.  They
  are compared with a tiny relative tolerance (float-format slack only,
  ``sim_rel_tol``) and **gate** the verdict.  Missing or extra points
  gate too: a curve that silently loses a size is a regression in
  coverage;
* **host time** is not in a record at all: wall clock is measured from
  outside by ``hostbench/``, never compared here;
* **metrics snapshots** (idle-poll tax, sweep counts …) are
  deterministic but refactor-sensitive, so headline counters are
  reported for context and excluded from the gate;
* records from **different platform specs** are incomparable: the gate
  fails fast on a ``spec_sha256`` mismatch instead of producing
  plausible-looking deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..util.tables import Table
from .perf import SIM_FIELDS, BenchRecord, point_key

__all__ = ["Delta", "CompareReport", "compare_records", "delta_table"]

#: default relative tolerance for deterministic simulated results —
#: allows float re-formatting, not behaviour change.
SIM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Delta:
    """One compared quantity across two runs."""

    bench: str
    label: str  # curve / sub-series, "" when not applicable
    quantity: str  # e.g. "bandwidth_MBps", a metrics-snapshot name
    baseline: Optional[float]
    current: Optional[float]
    gated: bool  # participates in the pass/fail verdict
    ok: bool

    @property
    def rel_delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class CompareReport:
    """Outcome of comparing a current run against a baseline."""

    baseline_name: str
    current_name: str
    spec_match: bool
    deltas: list[Delta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[Delta]:
        return [d for d in self.deltas if d.gated and not d.ok]

    @property
    def regressions(self) -> list[Delta]:
        """Everything out of tolerance, gated or not (for reporting)."""
        return [d for d in self.deltas if not d.ok]

    @property
    def ok(self) -> bool:
        return self.spec_match and not self.failures

    def summary(self) -> str:
        gated = [d for d in self.deltas if d.gated]
        lines = [
            f"compared {self.current_name!r} against baseline {self.baseline_name!r}:"
            f" {len(gated)} gated quantities, {len(self.deltas) - len(gated)}"
            f" report-only",
        ]
        lines.extend(f"  note: {n}" for n in self.notes)
        if not self.spec_match:
            lines.append("  FAIL: platform specs differ — records are not comparable")
        for d in self.failures:
            lines.append(
                f"  FAIL: {d.bench} {d.label} {d.quantity}:"
                f" {_fmt(d.baseline)} -> {_fmt(d.current)}"
                f" ({_fmt_rel(d.rel_delta)})"
            )
        soft = [d for d in self.regressions if not d.gated]
        for d in soft:
            lines.append(
                f"  warn (report-only): {d.bench} {d.label} {d.quantity}:"
                f" {_fmt(d.baseline)} -> {_fmt(d.current)} ({_fmt_rel(d.rel_delta)})"
            )
        lines.append("verdict: PASS" if self.ok else "verdict: FAIL")
        return "\n".join(lines)


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return "missing"
    return f"{v:.6g}"


def _fmt_rel(rel: Optional[float]) -> str:
    if rel is None:
        return "n/a"
    if rel == float("inf"):
        return "inf"
    return f"{rel:+.2%}"


def _within(baseline: float, current: float, rel_tol: float) -> bool:
    if baseline == current:
        return True
    scale = max(abs(baseline), abs(current))
    return abs(current - baseline) <= rel_tol * scale


def compare_records(
    baseline: BenchRecord,
    current: BenchRecord,
    sim_rel_tol: float = SIM_REL_TOL,
) -> CompareReport:
    """Compare ``current`` against ``baseline`` point by point."""
    report = CompareReport(
        baseline_name=baseline.name,
        current_name=current.name,
        spec_match=baseline.spec_sha256 == current.spec_sha256,
    )
    if baseline.backend != current.backend and (baseline.backend or current.backend):
        # Simulated results must still match bit-for-bit (backends are
        # pop-order identical).
        report.notes.append(
            "kernel backend differs: baseline="
            f"{baseline.backend or 'unrecorded'}"
            f" current={current.backend or 'unrecorded'}"
        )

    # -- simulated points (gated) -------------------------------------------
    base_points = {point_key(p): p for p in baseline.points}
    cur_points = {point_key(p): p for p in current.points}
    for key in sorted(set(base_points) | set(cur_points), key=str):
        bp, cp = base_points.get(key), cur_points.get(key)
        kind, bench, curve, strategy, size = key[:5]
        window = key[7]
        label = " ".join(x for x in (curve, strategy) if x) or kind
        label = f"{label} @{size}" + (f" w{window}" if window else "")
        fields = [f for f in SIM_FIELDS if f in (bp or cp or {})]
        if bp is None or cp is None:
            side = "current run" if cp is None else "baseline"
            # a vanished (or novel) point trips the gate via ok=False rows
            for fname in fields:
                src = bp if bp is not None else cp
                report.deltas.append(
                    Delta(
                        bench=bench,
                        label=label,
                        quantity=fname,
                        baseline=None if bp is None else float(bp[fname]),
                        current=None if cp is None else float(cp[fname]),
                        gated=True,
                        ok=False,
                    )
                )
            report.notes.append(f"point {bench} {label} missing from {side}")
            continue
        for fname in fields:
            if fname not in bp or fname not in cp:
                continue
            b, c = float(bp[fname]), float(cp[fname])
            report.deltas.append(
                Delta(
                    bench=bench,
                    label=label,
                    quantity=fname,
                    baseline=b,
                    current=c,
                    gated=True,
                    ok=_within(b, c, sim_rel_tol),
                )
            )

    # -- headline metrics counters (report-only context) --------------------
    for counter in _headline_counters(baseline.metrics, current.metrics):
        b, c = counter
        name = b[0] if b is not None else c[0]
        bval = None if b is None else b[1]
        cval = None if c is None else c[1]
        report.deltas.append(
            Delta(
                bench="metrics",
                label="",
                quantity=name,
                baseline=bval,
                current=cval,
                gated=False,
                ok=bval == cval,
            )
        )
    return report


def _headline_counters(base: Mapping[str, object], cur: Mapping[str, object]):
    """Scalar (non-histogram) snapshot entries present in either record."""
    for name in sorted(set(base) | set(cur)):
        b, c = base.get(name), cur.get(name)
        if isinstance(b, dict) or isinstance(c, dict):
            continue  # histograms carry too much detail for the summary
        yield (
            None if b is None else (name, float(b)),  # type: ignore[arg-type]
            None if c is None else (name, float(c)),  # type: ignore[arg-type]
        )


def delta_table(report: CompareReport, only_regressions: bool = False) -> Table:
    """Render the comparison as a per-point delta table."""
    table = Table(
        ["bench", "point", "quantity", "baseline", "current", "delta", "gate", "ok"],
        title="Per-point deltas",
        precision=4,
    )
    for d in report.deltas:
        if only_regressions and d.ok:
            continue
        table.add_row(
            d.bench,
            d.label,
            d.quantity,
            _fmt(d.baseline),
            _fmt(d.current),
            _fmt_rel(d.rel_delta),
            "gate" if d.gated else "report",
            "ok" if d.ok else "FAIL" if d.gated else "warn",
        )
    return table
