"""Bit-survivability experiments.

A trial embeds a known payload into one channel of a carrier, applies that
channel's own scrubber (so channels are assessed without interference),
re-extracts, and records which bits came back unchanged. Repeating the same
payload over many independently randomized trials yields per-trial and
per-bit survival statistics; a channel is dead when survival matches what
coin flipping would produce.

The robust-pair channel is the exception: it exists to defeat a scrubber
that only re-randomizes single consecutive pairs, so its trials apply the
full geometric scrub (facet, vertex, and normal passes together).
"""
from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bits import BitSequence
from .channels import CHANNELS, ChannelId, as_carrier, capacity, embed, extract
from .model import StlModel
from .sanitize import RandomSource


def derive_seed(*parts) -> int:
    """Deterministic 64-bit substream seed from arbitrary labels.

    Hash-based so results do not depend on process-level hash
    randomization.
    """
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class TrialConfig:
    channel: ChannelId
    carrier: StlModel  # or, for a text channel, a RawAsciiDocument
    payload_bits: int = 1024
    trials: int = 100
    seed: int | None = None

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.payload_bits < 0:
            raise ValueError("payload_bits must be >= 0")
        cap = capacity(self.carrier, self.channel)
        if self.payload_bits > cap:
            raise ValueError(
                f"payload_bits {self.payload_bits} exceeds capacity {cap} "
                f"of the {self.channel.value} channel"
            )


@dataclass(frozen=True)
class TrialOutcome:
    """Survival row of one trial.

    survived[i] is True when extracted bit i equals payload bit i.
    arrangement_unchanged is the vertex channel's second view: whether the
    facet's physical rotation state itself survived, independent of what
    any encoding would decode.
    """

    survived: np.ndarray
    arrangement_unchanged: np.ndarray | None = None


@dataclass(frozen=True)
class SurvivalMatrix:
    cells: np.ndarray  # (trials, payload_bits) bool, True = survived
    payload: BitSequence


@dataclass(frozen=True)
class SurvivalStats:
    per_trial_survival_pct: np.ndarray
    mean_pct: float | None
    variance_pct2: float | None  # population variance of per-trial percentages
    per_bit_survival_pct: np.ndarray
    per_bit_by_value: dict[int, np.ndarray]
    arrangement_mean_pct: float | None = None
    # extracted-ones minus payload-ones per trial; a codebook protocol keyed
    # on the global 0/1 balance survives only if this stays pinned near zero
    ones_drift_per_trial: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def _experiment_payload(cfg: TrialConfig) -> BitSequence:
    if cfg.seed is None:
        return BitSequence.random(cfg.payload_bits, RandomSource.crypto())
    return BitSequence.random(
        cfg.payload_bits, RandomSource.seeded(derive_seed(cfg.seed, "payload"))
    )


def _trial_rng(cfg: TrialConfig, trial_index: int) -> RandomSource:
    if cfg.seed is None:
        return RandomSource.crypto()
    return RandomSource.seeded(derive_seed(cfg.seed, "trial", trial_index))


def run_trial(
    cfg: TrialConfig,
    trial_index: int,
    payload: BitSequence | None = None,
) -> TrialOutcome:
    """Embed, scrub, extract, and score one trial.

    payload defaults to the seed-derived experiment payload; pass the same
    object for every trial of an experiment.
    """
    if payload is None:
        payload = _experiment_payload(cfg)
    rng = _trial_rng(cfg, trial_index)

    embedded = embed(cfg.carrier, cfg.channel, payload)
    scrubbed = CHANNELS[cfg.channel].scrub(embedded, rng)
    extracted = extract(scrubbed, cfg.channel, len(payload))
    survived = np.array(extracted.bits, dtype=np.int8) == np.array(payload.bits, dtype=np.int8)

    arrangement = None
    if cfg.channel is ChannelId.VERTEX:
        # a rotation keeps which facets are degenerate, so the carrier's
        # cached mask gives the embedded model's slots
        carrier = as_carrier(cfg.carrier, ChannelId.VERTEX)
        usable = CHANNELS[ChannelId.VERTEX].slots(carrier)[: len(payload)]
        same = embedded.vertices[usable] == scrubbed.vertices[usable]
        arrangement = same.all(axis=(1, 2))
    return TrialOutcome(survived=survived, arrangement_unchanged=arrangement)


def run_experiment(cfg: TrialConfig) -> tuple[SurvivalMatrix, SurvivalStats]:
    """Run all trials with the same payload and independent randomness.

    A text channel's carrier is turned into its RawAsciiDocument once,
    here, rather than by every trial's embed.
    """
    if CHANNELS[cfg.channel].text:
        cfg = replace(cfg, carrier=as_carrier(cfg.carrier, cfg.channel))
    cfg.validate()
    payload = _experiment_payload(cfg)
    rows = np.zeros((cfg.trials, cfg.payload_bits), dtype=bool)
    arrangement_rows = []
    for t in range(cfg.trials):
        outcome = run_trial(cfg, t, payload=payload)
        rows[t] = outcome.survived
        if outcome.arrangement_unchanged is not None:
            arrangement_rows.append(outcome.arrangement_unchanged)
    matrix = SurvivalMatrix(cells=rows, payload=payload)
    return matrix, compute_stats(matrix, arrangement_rows or None)


def compute_stats(matrix: SurvivalMatrix, arrangement_rows=None) -> SurvivalStats:
    cells = matrix.cells
    trials, bits = cells.shape
    if bits == 0:
        return SurvivalStats(
            per_trial_survival_pct=np.zeros(0),
            mean_pct=None,
            variance_pct2=None,
            per_bit_survival_pct=np.zeros(0),
            per_bit_by_value={0: np.zeros(0), 1: np.zeros(0)},
            ones_drift_per_trial=np.zeros(trials, dtype=int),
        )
    per_trial = cells.mean(axis=1) * 100.0
    per_bit = cells.mean(axis=0) * 100.0
    payload = np.asarray(matrix.payload.bits)
    extracted = np.where(cells, payload, 1 - payload)
    drift = extracted.sum(axis=1) - int(payload.sum())
    arrangement_mean = None
    if arrangement_rows:
        arrangement_mean = float(
            np.mean([row.mean() for row in arrangement_rows]) * 100.0
        )
    return SurvivalStats(
        per_trial_survival_pct=per_trial,
        mean_pct=float(per_trial.mean()),
        variance_pct2=float(per_trial.var()),
        per_bit_survival_pct=per_bit,
        per_bit_by_value={value: per_bit[payload == value] for value in (0, 1)},
        arrangement_mean_pct=arrangement_mean,
        ones_drift_per_trial=drift,
    )


def emit_csv(matrix: SurvivalMatrix, stats: SurvivalStats, path) -> tuple[Path, Path]:
    """Write matrix.csv (one row per trial, 1 = survived) and stats.csv
    (per-bit position, payload bit value, survival percent) under path."""
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials, bits = matrix.cells.shape

    matrix_path = out_dir / "matrix.csv"
    with matrix_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial"] + [f"bit_{i}" for i in range(bits)])
        for t in range(trials):
            writer.writerow([t] + [int(c) for c in matrix.cells[t]])

    stats_path = out_dir / "stats.csv"
    with stats_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bit", "payload_bit", "survival_pct"])
        for i in range(bits):
            writer.writerow([i, matrix.payload[i], repr(float(stats.per_bit_survival_pct[i]))])

    return matrix_path, stats_path


def _bin_counts(values, by_value=None) -> dict[int, Counter]:
    """1-percentage-point histogram bins keyed by series label."""
    if by_value is None:
        return {None: Counter(int(math.floor(v)) for v in values)}
    return {
        label: Counter(int(math.floor(v)) for v in series)
        for label, series in by_value.items()
    }


def _render_chart(x0, title, series, width=420, height=260) -> list[str]:
    colors = {None: "#4878a8", 0: "#4878a8", 1: "#d0804a"}
    all_bins = sorted({b for counter in series.values() for b in counter})
    parts = [
        f'<text x="{x0 + width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{title}</text>'
    ]
    if not all_bins:
        parts.append(
            f'<text x="{x0 + width / 2:.0f}" y="{height / 2:.0f}" '
            f'text-anchor="middle" font-size="11">no data</text>'
        )
        return parts
    lo, hi = all_bins[0], all_bins[-1]
    nbins = hi - lo + 1
    peak = max(max(c.values()) for c in series.values() if c)
    plot_h, base_y, pad = height - 70, height - 40, 8
    bin_w = (width - 2 * pad) / nbins
    bar_w = bin_w / max(len(series), 1)
    for s_idx, (label, counter) in enumerate(sorted(series.items(), key=lambda kv: str(kv[0]))):
        name = "all" if label is None else f"payload_{label}"
        for b, count in sorted(counter.items()):
            bar_h = plot_h * count / peak
            x = x0 + pad + (b - lo) * bin_w + s_idx * bar_w
            y = base_y - bar_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(bar_w - 1, 1):.1f}" '
                f'height="{bar_h:.1f}" fill="{colors.get(label, "#888")}" '
                f'data-series="{name}" data-bin="{b}" data-count="{count}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{y - 2:.1f}" text-anchor="middle" '
                f'font-size="8">{count}</text>'
            )
    # axis tick labels on the bin range
    for b in (lo, hi):
        x = x0 + pad + (b - lo) * bin_w + bin_w / 2
        parts.append(
            f'<text x="{x:.1f}" y="{base_y + 14:.0f}" text-anchor="middle" '
            f'font-size="9">{b}%</text>'
        )
    if len(series) > 1:
        for s_idx, label in enumerate(sorted(series, key=str)):
            parts.append(
                f'<rect x="{x0 + pad + s_idx * 90:.0f}" y="{height - 18}" width="10" '
                f'height="10" fill="{colors.get(label, "#888")}"/>'
            )
            parts.append(
                f'<text x="{x0 + pad + s_idx * 90 + 14:.0f}" y="{height - 9}" '
                f'font-size="9">payload bit {label}</text>'
            )
    return parts


def emit_histogram(stats: SurvivalStats, path) -> Path:
    """Write a self-contained SVG with the per-trial survival histogram and
    the per-bit survival histogram (split by payload bit value). Every bar
    carries its count both as a text label and as a data-count attribute."""
    out_path = Path(path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    width, height = 880, 280
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    body += _render_chart(
        0,
        "Per-trial survival (1 pp bins)",
        _bin_counts(stats.per_trial_survival_pct),
    )
    body += _render_chart(
        440,
        "Per-bit survival by payload value",
        _bin_counts(None, by_value=stats.per_bit_by_value),
    )
    body.append("</svg>")
    out_path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return out_path


@dataclass(frozen=True)
class Gate:
    name: str
    passed: bool
    detail: str


# Expected ranges for the scrubbed channels: survival must look like coin
# flipping (the vertex channel's per-value split is the known 1/3 vs 2/3
# bias of a two-state encoding over three rotation states).
FACET_MEAN_RANGE = (48.5, 51.5)
FACET_VARIANCE_RANGE = (1.3, 3.2)
VERTEX_MEAN_RANGE = (48.0, 52.0)
VERTEX_VALUE1_TARGET = 100.0 / 3.0
VERTEX_VALUE0_TARGET = 200.0 / 3.0
VERTEX_VALUE_TOLERANCE_PP = 2.5
ROBUST_MEAN_RANGE = (45.0, 55.0)


def _range_gate(name: str, value: float, lo: float, hi: float) -> Gate:
    return Gate(name, lo <= value <= hi, f"{value:.3f} vs [{lo}, {hi}]")


def statistical_gates(channel: ChannelId, stats: SurvivalStats) -> list[Gate]:
    """Pass/fail checks that the scrubber left no usable signal."""
    if stats.mean_pct is None:
        return []
    gates = []
    if channel is ChannelId.FACET:
        gates.append(_range_gate("mean survival pct", stats.mean_pct, *FACET_MEAN_RANGE))
        gates.append(
            _range_gate("variance of per-trial pct", stats.variance_pct2, *FACET_VARIANCE_RANGE)
        )
    elif channel is ChannelId.VERTEX:
        gates.append(_range_gate("mean survival pct", stats.mean_pct, *VERTEX_MEAN_RANGE))
        for value, target in ((1, VERTEX_VALUE1_TARGET), (0, VERTEX_VALUE0_TARGET)):
            series = stats.per_bit_by_value.get(value)
            if series is not None and len(series):
                mean = float(np.mean(series))
                gates.append(
                    _range_gate(
                        f"per-bit mean, payload {value}",
                        mean,
                        target - VERTEX_VALUE_TOLERANCE_PP,
                        target + VERTEX_VALUE_TOLERANCE_PP,
                    )
                )
    elif channel is ChannelId.ROBUST_PAIR:
        gates.append(_range_gate("mean survival pct", stats.mean_pct, *ROBUST_MEAN_RANGE))
    return gates
