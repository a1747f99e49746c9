"""Mining-impact accounting for degradation decisions.

Stepping down the ladder is not free: Table III shows the *same* PCA
mining pipeline detects 64% of true anomalies over IPLoM's parse but
11% over SLCT's (with a 74.5% false-alarm rate), and Finding 6 shows
fragmentation errors — the exact shape the Passthrough parser produces —
are the most destructive kind.  The
:class:`MiningImpactLedger` makes that cost explicit: every ladder
transition is annotated with the estimated change in parsing accuracy,
anomaly-detection rate, and false-alarm rate between the rung being
left and the rung being entered.

Estimates come from a reference table seeded with this repo's measured
Table III reproduction (see ``EXPERIMENTS.md``), and can be replaced by
live measurements via :meth:`MiningImpactLedger.calibrate`, which runs
the real RQ3 harness (:func:`~repro.evaluation.mining_impact.
evaluate_mining_impact`) over a labelled HDFS dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.evaluation.mining_impact import (
    TABLE3_CONFIGS,
    evaluate_mining_impact,
    table3_parser_factory,
)


@dataclass(frozen=True)
class ImpactEstimate:
    """Expected mining quality when parsing with one ladder rung.

    ``source`` is ``"reference"`` for table-seeded values and
    ``"measured"`` after :meth:`MiningImpactLedger.calibrate` replaced
    them with a live Table III run.
    """

    parser: str
    parsing_accuracy: float
    detection_rate: float
    false_alarm_rate: float
    source: str = "reference"

    def describe(self) -> str:
        return (
            f"{self.parser}: accuracy {self.parsing_accuracy:.2f}, "
            f"detects {self.detection_rate:.0%} of anomalies, "
            f"{self.false_alarm_rate:.1%} false alarms [{self.source}]"
        )


#: Reference rows.  SLCT/LogSig/IPLoM/GroundTruth come from this repo's
#: measured Table III reproduction; LKE is estimated (the paper excludes
#: it from RQ3 because it cannot parse the volume — Finding 3 — so we
#: extrapolate from its RQ1 accuracy band); Drain is estimated from the
#: "Tools and Benchmarks" accuracy band, a notch under IPLoM on HDFS;
#: Passthrough is estimated from the Finding 6 fragment ablation
#: (exact-signature templates fragment parameterized events, the most
#: damaging error shape).
REFERENCE_IMPACT: dict[str, ImpactEstimate] = {
    est.parser: est
    for est in (
        ImpactEstimate("GroundTruth", 1.00, 0.53, 0.000),
        ImpactEstimate("LKE", 0.91, 0.55, 0.030, source="estimate"),
        ImpactEstimate("LogSig", 0.86, 0.55, 0.025),
        ImpactEstimate("IPLoM", 0.99, 0.64, 0.000),
        ImpactEstimate("Drain", 0.97, 0.61, 0.005, source="estimate"),
        ImpactEstimate("SLCT", 0.82, 0.11, 0.745),
        ImpactEstimate("Passthrough", 0.35, 0.05, 0.900, source="estimate"),
    )
}


@dataclass(frozen=True)
class TransitionCost:
    """Estimated mining-quality delta of one ladder transition."""

    from_estimate: ImpactEstimate
    to_estimate: ImpactEstimate

    @property
    def accuracy_delta(self) -> float:
        return (
            self.to_estimate.parsing_accuracy
            - self.from_estimate.parsing_accuracy
        )

    @property
    def detection_delta(self) -> float:
        return (
            self.to_estimate.detection_rate
            - self.from_estimate.detection_rate
        )

    @property
    def false_alarm_delta(self) -> float:
        return (
            self.to_estimate.false_alarm_rate
            - self.from_estimate.false_alarm_rate
        )

    def describe(self) -> str:
        return (
            f"{self.from_estimate.parser} -> {self.to_estimate.parser}: "
            f"accuracy {self.accuracy_delta:+.2f}, "
            f"detection {self.detection_delta:+.0%}, "
            f"false alarms {self.false_alarm_delta:+.1%} "
            f"(now: {self.to_estimate.describe()})"
        )


class MiningImpactLedger:
    """Accumulates the estimated mining cost of every ladder transition.

    Args:
        estimates: per-parser quality rows; defaults to a copy of
            :data:`REFERENCE_IMPACT`.
    """

    def __init__(
        self, estimates: dict[str, ImpactEstimate] | None = None
    ) -> None:
        self.estimates = dict(
            estimates if estimates is not None else REFERENCE_IMPACT
        )
        self.entries: list[tuple[int, TransitionCost]] = []

    def estimate_for(self, parser: str) -> ImpactEstimate:
        try:
            return self.estimates[parser]
        except KeyError:
            raise ValidationError(
                f"no mining-impact estimate for parser {parser!r}; "
                f"known: {sorted(self.estimates)}"
            ) from None

    def cost(self, from_parser: str, to_parser: str) -> TransitionCost:
        return TransitionCost(
            from_estimate=self.estimate_for(from_parser),
            to_estimate=self.estimate_for(to_parser),
        )

    def record(
        self, sequence: int, from_parser: str, to_parser: str
    ) -> TransitionCost:
        """Account one transition; returns the cost for the event record."""
        cost = self.cost(from_parser, to_parser)
        self.entries.append((sequence, cost))
        return cost

    def calibrate(self, dataset, seed: int | None = None) -> None:
        """Replace reference rows with a live Table III measurement.

        Runs the RQ3 pipeline (parse + PCA detection) once per parser
        that has a Table III configuration over *dataset* (an
        :class:`~repro.datasets.hdfs.HdfsSessionDataset`).  Expensive —
        meant for offline calibration, not the hot path.
        """
        for parser_name in TABLE3_CONFIGS:
            parser = table3_parser_factory(parser_name, seed=seed)
            row = evaluate_mining_impact(parser, dataset)
            self.estimates[parser_name] = ImpactEstimate(
                parser=parser_name,
                parsing_accuracy=row.parsing_accuracy,
                detection_rate=row.detection_rate,
                false_alarm_rate=row.false_alarm_rate,
                source="measured",
            )

    @property
    def total_detection_delta(self) -> float:
        return sum(cost.detection_delta for _, cost in self.entries)

    def describe(self) -> str:
        if not self.entries:
            return "mining-impact ledger: no degradations recorded"
        lines = ["mining-impact ledger:"]
        lines.extend(
            f"  #{sequence} {cost.describe()}"
            for sequence, cost in self.entries
        )
        lines.append(
            f"  net estimated anomaly-detection change: "
            f"{self.total_detection_delta:+.0%}"
        )
        return "\n".join(lines)
