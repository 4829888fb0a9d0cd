"""Bit-survivability experiments.

A trial embeds a known payload into one channel of a carrier, applies the
scrubber of that channel's ``CHANNELS`` entry (so channels are assessed
without interference), re-extracts, and records which bits came back
unchanged. Repeating the same payload over many independently randomized
trials yields per-trial and per-bit survival statistics, which the
entry's gates judge: a channel is dead when survival matches what coin
flipping would produce, or when every slot reads 0.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .bits import BitSequence
from .channels import CHANNELS, ChannelId, as_carrier, capacity, embed, extract
from .errors import CapacityExceededError
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

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


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
    mean_pct: float
    variance_pct2: float  # population variance of per-trial percentages
    per_bit_survival_pct: np.ndarray
    payload: np.ndarray  # the payload bit at each position, int64
    per_bit_by_value: dict[int, np.ndarray]
    # extracted-ones minus payload-ones per trial; a codebook protocol keyed
    # on the global 0/1 balance survives only if this stays pinned near zero
    ones_drift_per_trial: np.ndarray
    arrangement_mean_pct: float | None = None  # vertex channel only


def _source(cfg: TrialConfig, *labels) -> RandomSource:
    """Fresh OS randomness for an unseeded experiment, else the substream
    that labels name under the experiment's seed."""
    if cfg.seed is None:
        return RandomSource.crypto()
    return RandomSource.seeded(derive_seed(cfg.seed, *labels))


def run_trial(
    cfg: TrialConfig,
    trial_index: int,
    payload: BitSequence | None = None,
    embedded=None,
) -> TrialOutcome:
    """Embed, scrub, extract, and score one trial.

    payload defaults to the seed-derived experiment payload, and embedded
    to the carrier with payload embedded in the channel; pass the same
    objects for every trial of an experiment.
    """
    if payload is None:
        payload = BitSequence.random(cfg.payload_bits, _source(cfg, "payload"))
    if embedded is None:
        embedded = embed(cfg.carrier, cfg.channel, payload)
    rng = _source(cfg, "trial", trial_index)
    scrubbed = CHANNELS[cfg.channel].scrub(embedded, rng)
    try:
        extracted = np.asarray(extract(scrubbed, cfg.channel, len(payload)))
    except CapacityExceededError:
        # a scrub can remove slots: a shuffle can pair repeated facets, and
        # the canonical text indents no `solid` line. Each missing bit reads
        # 0, the state scrubbing leaves
        extracted = np.zeros(len(payload), dtype=np.uint8)
        held = capacity(scrubbed, cfg.channel)
        extracted[:held] = extract(scrubbed, cfg.channel, held)
    survived = extracted == np.asarray(payload)

    arrangement = None
    if cfg.channel is ChannelId.VERTEX:
        # a rotation keeps which facets are degenerate, so the embedded
        # model's slots are the scrubbed model's, whose mask it carried
        usable = CHANNELS[ChannelId.VERTEX].slots(scrubbed)[: len(payload)]
        same = embedded.vertices[usable] == scrubbed.vertices[usable]
        arrangement = same.all(axis=(1, 2))
    return TrialOutcome(survived=survived, arrangement_unchanged=arrangement)


def run_experiment(cfg: TrialConfig) -> tuple[SurvivalMatrix, SurvivalStats]:
    """Run all trials with the same payload and independent randomness.

    The carrier is turned into the channel's carrier kind and the payload
    embedded once, here; every trial scrubs that same embedded carrier. A
    payload that does not fit raises the channel's CapacityExceededError
    before the first trial.
    """
    cfg = replace(cfg, carrier=as_carrier(cfg.carrier, cfg.channel))
    payload = BitSequence.random(cfg.payload_bits, _source(cfg, "payload"))
    embedded = embed(cfg.carrier, cfg.channel, payload)
    rows = np.zeros((cfg.trials, cfg.payload_bits), dtype=bool)
    arrangement_rows = []
    for t in range(cfg.trials):
        outcome = run_trial(cfg, t, payload=payload, embedded=embedded)
        rows[t] = outcome.survived
        if outcome.arrangement_unchanged is not None:
            arrangement_rows.append(outcome.arrangement_unchanged)
    matrix = SurvivalMatrix(cells=rows, payload=payload)
    return matrix, compute_stats(matrix, arrangement_rows or None)


def compute_stats(matrix: SurvivalMatrix, arrangement_rows=None) -> SurvivalStats:
    cells = matrix.cells
    if 0 in cells.shape:
        raise ValueError(f"a survival matrix needs a trial and a bit, got shape {cells.shape}")
    per_trial = cells.mean(axis=1) * 100.0
    per_bit = cells.mean(axis=0) * 100.0
    payload = np.asarray(matrix.payload, dtype=np.int64)  # signed: 1 - payload must not wrap
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
        payload=payload,
        per_bit_by_value={value: per_bit[payload == value] for value in (0, 1)},
        arrangement_mean_pct=arrangement_mean,
        ones_drift_per_trial=drift,
    )


def _csv(rows) -> bytes:
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("ascii")


def _bin_counts(by_label: dict) -> dict[int | None, Counter]:
    """1-percentage-point histogram bins of each series, keyed by its label."""
    return {
        label: Counter(int(math.floor(v)) for v in series)
        for label, series in by_label.items()
    }


def _render_chart(x0, title, series) -> list[str]:
    width, height = 420, 260
    colors = {None: "#4878a8", 0: "#4878a8", 1: "#d0804a"}
    all_bins = sorted({b for counter in series.values() for b in counter})
    parts = [
        f'<text x="{x0 + width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{title}</text>'
    ]
    lo, hi = all_bins[0], all_bins[-1]
    nbins = hi - lo + 1
    peak = max(max(c.values()) for c in series.values() if c)
    plot_h, base_y, pad = height - 70, height - 40, 8
    bin_w = (width - 2 * pad) / nbins
    bar_w = bin_w / len(series)
    for s_idx, (label, counter) in enumerate(sorted(series.items(), key=lambda kv: str(kv[0]))):
        name = "all" if label is None else f"payload_{label}"
        for b, count in sorted(counter.items()):
            bar_h = plot_h * count / peak
            x = x0 + pad + (b - lo) * bin_w + s_idx * bar_w
            y = base_y - bar_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(bar_w - 1, 1):.1f}" '
                f'height="{bar_h:.1f}" fill="{colors[label]}" '
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
                f'height="10" fill="{colors[label]}"/>'
            )
            parts.append(
                f'<text x="{x0 + pad + s_idx * 90 + 14:.0f}" y="{height - 9}" '
                f'font-size="9">payload bit {label}</text>'
            )
    return parts


def result_files(matrix: SurvivalMatrix, stats: SurvivalStats) -> dict[str, bytes]:
    """An experiment's result files by name.

    matrix.csv has one row per trial (1 = survived); stats.csv gives each
    bit position its payload bit and survival percent; histogram.svg is a
    self-contained SVG with the per-trial survival histogram and the
    per-bit survival histogram split by payload bit value, every bar
    carrying its count both as a text label and as a data-count attribute.
    """
    bits = matrix.cells.shape[1]
    width, height = 880, 280
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    svg += _render_chart(
        0,
        "Per-trial survival (1 pp bins)",
        _bin_counts({None: stats.per_trial_survival_pct}),
    )
    svg += _render_chart(
        440,
        "Per-bit survival by payload value",
        _bin_counts(stats.per_bit_by_value),
    )
    svg.append("</svg>")
    return {
        "matrix.csv": _csv(
            [["trial"] + [f"bit_{i}" for i in range(bits)]]
            + [[t] + row for t, row in enumerate(matrix.cells.astype(np.uint8).tolist())]
        ),
        "stats.csv": _csv(
            [["bit", "payload_bit", "survival_pct"]]
            + [
                [i, matrix.payload[i], repr(float(stats.per_bit_survival_pct[i]))]
                for i in range(bits)
            ]
        ),
        "histogram.svg": ("\n".join(svg) + "\n").encode("utf-8"),
    }


@dataclass(frozen=True)
class Gate:
    name: str
    passed: bool
    detail: str


def _statistic(stats: SurvivalStats, name: str) -> float | None:
    """The statistic a gate checks; None for a value the payload lacks."""
    if name == "mean survival pct":
        return stats.mean_pct
    if name == "variance of per-trial pct":
        return stats.variance_pct2
    series = stats.per_bit_by_value[int(name.removeprefix("per-bit mean, payload "))]
    return float(np.mean(series)) if len(series) else None


def _erased_gate(stats: SurvivalStats) -> Gate:
    """Every slot reads 0 after the scrubber: each payload-0 bit survives
    every trial and each payload-1 bit none, so per_bit_by_value[0].min() is
    100 and per_bit_by_value[1].max() is 0 wherever that value occurs. The
    detail names the first bit that breaks it."""
    expected = np.where(stats.payload == 0, 100.0, 0.0)
    broken = np.flatnonzero(stats.per_bit_survival_pct != expected)
    if len(broken) == 0:
        return Gate("every bit reads 0", True, f"all {len(expected)} bits in every trial")
    i = int(broken[0])
    return Gate(
        "every bit reads 0",
        False,
        f"bit {i}, payload {stats.payload[i]}, survives "
        f"{stats.per_bit_survival_pct[i]:.3f} %",
    )


def statistical_gates(channel: ChannelId, stats: SurvivalStats) -> list[Gate]:
    """Pass/fail checks that the scrubber left no usable signal: the
    channel's gate ranges in order, or the exact gate when it has none."""
    ranges = CHANNELS[channel].gates
    if ranges is None:
        return [_erased_gate(stats)]
    gates = []
    for name, (lo, hi) in ranges.items():
        value = _statistic(stats, name)
        if value is not None:  # a payload need not hold both values
            gates.append(Gate(name, lo <= value <= hi, f"{value:.3f} vs [{lo}, {hi}]"))
    return gates
