#!/usr/bin/env python3
"""Reproduce the headline survivability statistics.

Embeds the same random 1024-bit sequence 100 times, scrubs the channel
under test, and scores which bits survive. The facet channel lands at 50 %
survival with variance near 2; the vertex channel also averages 50 % but
splits into peaks at 33.3 % and 66.7 % once bits are grouped by payload
value, the signature bias of a binary encoding over three rotation states.

Writes matrix.csv, stats.csv, and histogram.svg per channel under
demo-results/.
"""
from pathlib import Path

import numpy as np

from stlstego import (
    ChannelId,
    TrialConfig,
    generate_test_mesh,
    result_files,
    run_experiment,
)

carrier = generate_test_mesh(4)
print(f"carrier: icosphere, {len(carrier)} facets\n")

out_root = Path("demo-results")
for channel in (ChannelId.FACET, ChannelId.VERTEX):
    cfg = TrialConfig(channel=channel, carrier=carrier, payload_bits=1024, trials=100, seed=2024)
    matrix, stats = run_experiment(cfg)

    print(f"{channel.value} channel:")
    print(f"  mean per-trial survival : {stats.mean_pct:.2f} %")
    print(f"  variance                : {stats.variance_pct2:.2f}")
    for value in (1, 0):
        series = stats.per_bit_by_value[value]
        print(f"  per-bit mean, payload {value} : {float(np.mean(series)):.2f} %")
    if stats.arrangement_mean_pct is not None:
        print(f"  rotation states intact  : {stats.arrangement_mean_pct:.2f} %")

    out_dir = out_root / channel.value
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in result_files(matrix, stats).items():
        (out_dir / name).write_bytes(data)
    print(f"  wrote {out_dir}/matrix.csv, stats.csv, histogram.svg\n")
