"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -v to see them).

Statistical criteria run seeded where the criterion allows reproducible
randomness; the preimage-resistance check draws from the OS entropy pool by
design, so it carries the usual 1 % false-reject rate of its alpha level.
"""
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from conftest import LUCY_TEXT, random_model, tagged_model, unit_facet
from scalar_reference import geometry_key, is_degenerate, model_from_facets
from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    RawAsciiDocument,
    StlFormat,
    StlModel,
    TrialConfig,
    capacity,
    embed,
    extract,
    generate_test_mesh,
    parse_ascii,
    parse_binary,
    parse_bytes,
    run_experiment,
    sanitize_all,
    sanitize_facet_channel,
    sanitize_normal_channel,
    serialize,
    write_binary,
    write_canonical_ascii,
)

SEED = 11


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def facet_run(icosphere4):
    start = time.perf_counter()
    cfg = TrialConfig(
        channel=ChannelId.FACET, carrier=icosphere4, payload_bits=1024, trials=100, seed=SEED
    )
    matrix, stats = run_experiment(cfg)
    return stats, time.perf_counter() - start


@pytest.fixture(scope="module")
def vertex_run(icosphere4):
    cfg = TrialConfig(
        channel=ChannelId.VERTEX, carrier=icosphere4, payload_bits=1024, trials=100, seed=SEED
    )
    _, stats = run_experiment(cfg)
    return stats


def test_01_facet_channel_survivability(facet_run):
    stats, elapsed = facet_run
    ok = (
        48.5 <= stats.mean_pct <= 51.5
        and 1.3 <= stats.variance_pct2 <= 3.2
        and elapsed < 60.0
    )
    report(
        "1 facet survivability",
        ok,
        f"mean={stats.mean_pct:.3f}% var={stats.variance_pct2:.3f} runtime={elapsed:.1f}s",
    )


def test_02_vertex_value_bias_peaks(vertex_run):
    mean_ones = float(np.mean(vertex_run.per_bit_by_value[1]))
    mean_zeros = float(np.mean(vertex_run.per_bit_by_value[0]))
    ok = abs(mean_ones - 100 / 3) <= 2.5 and abs(mean_zeros - 200 / 3) <= 2.5
    report(
        "2 vertex bias peaks",
        ok,
        f"payload-1 bits={mean_ones:.2f}% (target 33.33), payload-0 bits={mean_zeros:.2f}% (target 66.67)",
    )


def test_03_vertex_aggregate_mean(vertex_run):
    ok = 48.0 <= vertex_run.mean_pct <= 52.0
    report("3 vertex aggregate", ok, f"mean={vertex_run.mean_pct:.3f}%")


def test_04_codec_round_trips(icosphere2):
    rng = random.Random(SEED)
    doc_carrier = RawAsciiDocument(write_canonical_ascii(generate_test_mesh(1)))
    failures = 0
    runs = 0
    for channel in ChannelId:
        carrier = doc_carrier if channel in (ChannelId.NUMBER, ChannelId.WHITESPACE) else icosphere2
        cap = capacity(carrier, channel)
        for _ in range(50):
            payload = BitSequence(rng.randrange(2) for _ in range(cap))
            runs += 1
            if extract(embed(carrier, channel, payload), channel, cap) != payload:
                failures += 1
    report("4 codec round trips", failures == 0, f"{runs} runs, {failures} failures")


def test_05_geometry_preservation():
    rng = random.Random(SEED)
    carriers = [
        generate_test_mesh(0),
        generate_test_mesh(1),
        random_model(24, seed=100, attributes=True),
        random_model(61, seed=101),
        random_model(10, seed=102),
    ]
    channels = list(ChannelId)
    violations = 0
    for run in range(50):
        model = carriers[run % len(carriers)]
        channel = channels[run % len(channels)]
        fmt = StlFormat.ASCII if run % 2 else StlFormat.BINARY
        if channel in (ChannelId.NUMBER, ChannelId.WHITESPACE):
            doc = RawAsciiDocument(write_canonical_ascii(model))
            payload = BitSequence(rng.randrange(2) for _ in range(capacity(doc, channel)))
            data = embed(doc, channel, payload).text.encode()
        else:
            payload = BitSequence(rng.randrange(2) for _ in range(capacity(model, channel)))
            data = serialize(embed(model, channel, payload), fmt)
        out, _ = sanitize_all(data, RandomSource.seeded(rng.randrange(2**62)))
        before = Counter(map(geometry_key, model.facets))
        after = Counter(map(geometry_key, parse_bytes(out).facets))
        if before != after:
            violations += 1
    report("5 geometry preservation", violations == 0, f"50 runs, {violations} violations")


def test_06_normal_recomputation_oracle():
    rng = random.Random(SEED)
    facets = []
    while len(facets) < 10_000:
        coords = [
            tuple(float(np.float32(rng.uniform(-100, 100))) for _ in range(3))
            for _ in range(3)
        ]
        from stlstego import Facet

        f = Facet(v1=coords[0], v2=coords[1], v3=coords[2])
        if not is_degenerate(f):
            e1 = np.subtract(coords[1], coords[0], dtype=np.float64)
            e2 = np.subtract(coords[2], coords[0], dtype=np.float64)
            if np.linalg.norm(np.cross(e1, e2)) > 0:
                facets.append(f)
    model = model_from_facets(facets=tuple(facets))
    cleaned = sanitize_normal_channel(model)
    worst = 0.0
    for f in cleaned.facets:
        e1 = np.subtract(f.v2, f.v1, dtype=np.float64)
        e2 = np.subtract(f.v3, f.v1, dtype=np.float64)
        expected = np.cross(e1, e2)
        expected = expected / np.linalg.norm(expected)
        err = float(np.linalg.norm(np.asarray(f.normal) - expected) / np.linalg.norm(expected))
        worst = max(worst, err)
    report("6 normal oracle", worst < 1e-6, f"10000 facets, max relative error {worst:.2e}")


def test_07_fisher_yates_uniformity():
    model = tagged_model(4)
    rng = RandomSource.seeded(SEED)
    counts = Counter()
    for _ in range(24_000):
        out = sanitize_facet_channel(model, rng)
        counts[tuple(f.attribute for f in out.facets)] += 1
    observed = [counts[perm] for perm in sorted(counts)]
    ok_support = len(observed) == 24
    result = sps.chisquare(observed)
    ok = ok_support and result.pvalue > 0.01
    report(
        "7 Fisher-Yates uniformity",
        ok,
        f"24 permutations, chi2={result.statistic:.2f}, p={result.pvalue:.4f}",
    )


def test_08_robust_codebook_disrupted(icosphere4):
    cfg = TrialConfig(
        channel=ChannelId.ROBUST_PAIR,
        carrier=icosphere4,
        payload_bits=1024,
        trials=100,
        seed=SEED,
    )
    _, stats = run_experiment(cfg)
    ok = 45.0 <= stats.mean_pct <= 55.0
    report("8 robust codebook disruption", ok, f"mean={stats.mean_pct:.3f}%")


def test_09_implicit_channel_erasure():
    rng = random.Random(SEED)
    all_zero = True
    checks = 0
    for carrier_text in (write_canonical_ascii(generate_test_mesh(1)), LUCY_TEXT):
        doc = RawAsciiDocument(carrier_text)
        for channel in (ChannelId.NUMBER, ChannelId.WHITESPACE):
            cap = capacity(doc, channel)
            payload = BitSequence(rng.randrange(2) for _ in range(cap))
            stego_text = embed(doc, channel, payload).text
            out, _ = sanitize_all(
                stego_text.encode(), RandomSource.seeded(rng.randrange(2**62))
            )
            out_doc = RawAsciiDocument(out.decode())
            bits = extract(out_doc, channel, capacity(out_doc, channel))
            checks += 1
            if any(bits):
                all_zero = False
    report(
        "9 implicit channel erasure",
        all_zero,
        f"{checks} carrier/channel combos decode all-zero after scrub",
    )


def test_10_preimage_resistance_proxy(icosphere2):
    payload = BitSequence.random(128, RandomSource.seeded(SEED))
    table = []
    for p in (payload, payload.complement()):
        ones = 0
        total = 0
        for _ in range(200):
            stego = write_binary(embed(icosphere2, ChannelId.FACET, p))
            out, _ = sanitize_all(stego, RandomSource.crypto())
            bits = extract(parse_binary(out), ChannelId.FACET, 128)
            ones += sum(bits)
            total += len(bits)
        table.append([total - ones, ones])
    result = sps.chi2_contingency(table)
    ok = result.pvalue > 0.01
    report(
        "10 preimage resistance proxy",
        ok,
        f"bit counts {table}, chi2 p={result.pvalue:.4f} (indistinguishable at alpha=0.01)",
    )


def _binary_fixtures():
    fixtures = [
        StlModel(solid_name="empty"),
        model_from_facets("single", (unit_facet(),)),
        tagged_model(4),
        tagged_model(9),
        parse_ascii(LUCY_TEXT),
        generate_test_mesh(0),
        generate_test_mesh(1),
        generate_test_mesh(2),
    ]
    for seed in range(6):
        fixtures.append(random_model(seed * 7 + 1, seed=seed, attributes=bool(seed % 2)))
    from scalar_reference import vec3
    from stlstego import Facet

    degenerate = Facet(v1=vec3(1, 1, 1), v2=vec3(1, 1, 1), v3=vec3(2, 2, 2))
    collinear = Facet(v1=vec3(0, 0, 0), v2=vec3(1, 0, 0), v3=vec3(3, 0, 0))
    fixtures.append(model_from_facets("degenerate", (degenerate, unit_facet())))
    fixtures.append(model_from_facets("collinear", (collinear,)))
    fixtures.append(model_from_facets("attrs", (unit_facet(0xBEEF),)))
    fixtures.append(random_model(33, seed=9, attributes=True))
    fixtures.append(random_model(2, seed=10))
    fixtures.append(generate_test_mesh(3))
    return fixtures


def test_11_format_fidelity():
    fixtures = _binary_fixtures()
    assert len(fixtures) >= 20
    binary_ok = 0
    ascii_ok = 0
    for model in fixtures:
        data = write_binary(model)
        if write_binary(parse_binary(data)) == data:
            binary_ok += 1
        first = write_canonical_ascii(model)
        if write_canonical_ascii(parse_ascii(first)) == first:
            ascii_ok += 1
    ok = binary_ok == len(fixtures) and ascii_ok == len(fixtures)
    report(
        "11 format fidelity",
        ok,
        f"{binary_ok}/{len(fixtures)} binary byte-identical, {ascii_ok}/{len(fixtures)} ascii idempotent",
    )
