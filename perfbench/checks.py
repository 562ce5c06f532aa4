"""Output checks. Every reference is computed at run time from the program's
own public calls, so the checks stay valid when internals change."""

from __future__ import annotations

import math


class Checks:
    """Tally of named pass/fail outcomes; ``error_rate`` is failed / attempted."""

    def __init__(self) -> None:
        self.outcomes: list[tuple[str, bool]] = []

    def record(self, name: str, ok: bool) -> None:
        self.outcomes.append((name, bool(ok)))

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.outcomes if not ok]

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


def strided(items: list, limit: int) -> list:
    """At most ``limit`` items, evenly spaced, keeping the first."""
    step = max(1, -(-len(items) // limit))
    return items[::step]


def check_scalar_spec(checks: Checks, ss, spec, prefix, keys: list) -> None:
    """(a) Batched ``encode_stream`` matches per-packet ``encode_u64``, the
    scalar specification, in query answers and in snapshot bytes."""
    for scheme in ("sc-lsb", "instant"):
        batch = ss.experiment.build_sketch(scheme, spec)
        batch.encode_stream(prefix)
        scalar = ss.experiment.build_sketch(scheme, spec)
        for key in prefix.tolist():
            scalar.encode_u64(key)
        label = f"{scheme}.bits{spec.counter_bits}"
        checks.record(
            f"scalar-spec.answers.{label}", batch.query_many(keys) == scalar.query_many(keys)
        )
        checks.record(
            f"scalar-spec.state.{label}", ss.dump_bytes(batch) == ss.dump_bytes(scalar)
        )


def check_totals(checks: Checks, sketches: dict, packets: int) -> None:
    """(b) Per row, sc-lsb keeps ``row_total + lsb_discard == packets``;
    the schemes without share-time discards keep ``row_total == packets``."""
    for scheme, sketch in sketches.items():
        for row in range(sketch.config.rows):
            total = sketch.row_total(row)
            if scheme == "sc-lsb":
                total += sketch.lsb_discard(row)
            checks.record(f"row-total.{scheme}.{row}", total == packets)


def check_never_under(checks: Checks, truths: list, estimates: list) -> None:
    """(c) Count-Min never reports less than the exact count."""
    checks.record(
        "count-min.never-under",
        len(truths) == len(estimates) and all(e >= t for t, e in zip(truths, estimates)),
    )


def check_repeatable(checks: Checks, name: str, row_sets: list) -> None:
    """(d) Repeated ``run_experiment`` calls give identical, finite rows."""
    if len(row_sets) > 1:
        checks.record(
            f"experiment.repeatable.{name}", all(rows == row_sets[0] for rows in row_sets)
        )
    checks.record(
        f"experiment.finite.{name}",
        bool(row_sets[0])
        and all(math.isfinite(float(row["value"])) for rows in row_sets for row in rows),
    )


def check_snapshot(checks: Checks, ss, sketches: dict, keys: list) -> None:
    """(e) A snapshot round trip answers the same queries as the original."""
    for scheme, sketch in sketches.items():
        restored = ss.load_bytes(ss.dump_bytes(sketch))
        checks.record(
            f"snapshot.answers.{scheme}",
            restored.query_many(keys) == sketch.query_many(keys),
        )
