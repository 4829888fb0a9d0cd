import csv
import dataclasses
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import stats as sps

from stlstego import (
    BitSequence,
    ChannelId,
    RandomSource,
    SurvivalMatrix,
    TrialConfig,
    compute_stats,
    emit_csv,
    emit_histogram,
    generate_test_mesh,
    run_experiment,
    run_trial,
    sanitize_vertex_channel,
    statistical_gates,
)
from stlstego import channels, model
from stlstego.evaluation import derive_seed


@pytest.fixture(scope="module")
def small_carrier():
    return generate_test_mesh(2)


@pytest.fixture(scope="module")
def vertex_experiment(icosphere4):
    cfg = TrialConfig(
        channel=ChannelId.VERTEX, carrier=icosphere4, payload_bits=1024, trials=100, seed=11
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def facet_experiment(icosphere4):
    cfg = TrialConfig(
        channel=ChannelId.FACET, carrier=icosphere4, payload_bits=1024, trials=100, seed=11
    )
    return run_experiment(cfg)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "trial", 0) == derive_seed(1, "trial", 0)
    assert derive_seed(1, "trial", 0) != derive_seed(1, "trial", 1)
    assert derive_seed(1, "payload") != derive_seed(2, "payload")


@pytest.mark.parametrize("channel", list(ChannelId))
def test_noop_sanitizer_keeps_every_bit(channel, small_carrier, monkeypatch):
    noop = dataclasses.replace(channels.CHANNELS[channel], scrub=lambda carrier, rng: carrier)
    monkeypatch.setitem(channels.CHANNELS, channel, noop)
    cfg = TrialConfig(channel=channel, carrier=small_carrier, payload_bits=40, trials=1, seed=3)
    outcome = run_trial(cfg, 0)
    assert outcome.survived.all()


@pytest.mark.parametrize(
    "channel, scrubber",
    [
        (ChannelId.FACET, "sanitize_facet_channel"),
        (ChannelId.VERTEX, "sanitize_vertex_channel"),
        (ChannelId.NORMAL, "sanitize_normal_channel"),
        (ChannelId.ROBUST_PAIR, "sanitize_model"),
    ],
)
def test_trial_scrubber_is_looked_up_when_called(channel, scrubber, small_carrier, monkeypatch):
    # a wrapper installed on the module function, as a profiler does, sees the call
    original = getattr(channels, scrubber)
    calls = []

    def wrapped(*args):
        calls.append(channel)
        return original(*args)

    monkeypatch.setattr(channels, scrubber, wrapped)
    cfg = TrialConfig(channel=channel, carrier=small_carrier, payload_bits=8, trials=1, seed=4)
    run_trial(cfg, 0)
    assert calls == [channel]


def test_trial_rows_are_reproducible(small_carrier):
    cfg = TrialConfig(channel=ChannelId.FACET, carrier=small_carrier, payload_bits=64, trials=5, seed=9)
    a = run_trial(cfg, 2)
    b = run_trial(cfg, 2)
    assert np.array_equal(a.survived, b.survived)
    c = run_trial(cfg, 3)
    assert not np.array_equal(a.survived, c.survived)


def test_validation_rejects_bad_configs(small_carrier):
    with pytest.raises(ValueError, match="trials"):
        TrialConfig(ChannelId.FACET, small_carrier, payload_bits=8, trials=0).validate()
    with pytest.raises(ValueError, match="capacity"):
        TrialConfig(ChannelId.FACET, small_carrier, payload_bits=10_000).validate()


def test_degenerate_empty_experiment(small_carrier):
    cfg = TrialConfig(channel=ChannelId.FACET, carrier=small_carrier, payload_bits=0, trials=1, seed=1)
    matrix, stats = run_experiment(cfg)
    assert matrix.cells.shape == (1, 0)
    assert stats.mean_pct is None
    assert stats.variance_pct2 is None


class TestFacetStats:
    def test_mean_and_variance(self, facet_experiment):
        _, stats = facet_experiment
        assert 48.5 <= stats.mean_pct <= 51.5
        assert 1.3 <= stats.variance_pct2 <= 3.2

    def test_per_bit_survival_is_binomial_half(self, facet_experiment):
        # counts of survived trials per bit against Binomial(100, 1/2)
        matrix, _ = facet_experiment
        counts = matrix.cells.sum(axis=0)
        dist = sps.binom(matrix.cells.shape[0], 0.5)
        lo, hi = 40, 60
        edges = list(range(lo, hi + 1))
        observed = [np.sum(counts < lo)]
        expected = [dist.cdf(lo - 1)]
        for k in edges:
            observed.append(np.sum(counts == k))
            expected.append(dist.pmf(k))
        observed.append(np.sum(counts > hi))
        expected.append(dist.sf(hi))
        expected = np.asarray(expected) * counts.size
        result = sps.chisquare(observed, f_exp=expected)
        assert result.pvalue > 0.01

    def test_gates_pass(self, facet_experiment):
        _, stats = facet_experiment
        assert all(g.passed for g in statistical_gates(ChannelId.FACET, stats))

    def test_ones_drift_randomized_not_pinned(self, facet_experiment):
        # a codebook keyed on the global 0/1 balance dies with the payload:
        # the count drifts trial to trial instead of staying at zero
        matrix, stats = facet_experiment
        drift = stats.ones_drift_per_trial
        assert len(drift) == 100
        # random extraction reads bits/2 ones on average, so the drift is
        # centred on bits/2 - ones of the payload, not on zero
        ones, bits = sum(matrix.payload.bits), len(matrix.payload)
        assert abs(float(drift.mean()) + (ones - bits / 2)) < 10.0
        assert float(drift.std()) > 5.0


class TestVertexStats:
    def test_mean_and_variance(self, vertex_experiment):
        _, stats = vertex_experiment
        assert 48.0 <= stats.mean_pct <= 52.0
        assert 1.4 <= stats.variance_pct2 <= 3.4

    def test_bias_peaks_by_payload_value(self, vertex_experiment):
        _, stats = vertex_experiment
        mean_ones = float(np.mean(stats.per_bit_by_value[1]))
        mean_zeros = float(np.mean(stats.per_bit_by_value[0]))
        assert abs(mean_ones - 100 / 3) < 2.5
        assert abs(mean_zeros - 200 / 3) < 2.5

    def test_arrangement_metric_near_one_third(self, vertex_experiment):
        _, stats = vertex_experiment
        assert abs(stats.arrangement_mean_pct - 100 / 3) < 3.0

    def test_gates_pass(self, vertex_experiment):
        _, stats = vertex_experiment
        assert all(g.passed for g in statistical_gates(ChannelId.VERTEX, stats))


class TestCsvOutput:
    def make_small(self):
        cells = np.array([[True, False, True], [True, True, False]])
        payload = BitSequence((1, 0, 1))
        matrix = SurvivalMatrix(cells=cells, payload=payload)
        return matrix, compute_stats(matrix)

    def test_matrix_layout(self, tmp_path):
        matrix, stats = self.make_small()
        matrix_path, stats_path = emit_csv(matrix, stats, tmp_path)
        lines = matrix_path.read_text().splitlines()
        assert lines[0] == "trial,bit_0,bit_1,bit_2"
        assert lines[1] == "0,1,0,1"
        assert lines[2] == "1,1,1,0"
        assert len(lines) == 3

    def test_row_sums_match_per_trial_percentages(self, tmp_path):
        matrix, stats = self.make_small()
        matrix_path, _ = emit_csv(matrix, stats, tmp_path)
        with matrix_path.open() as fh:
            rows = list(csv.DictReader(fh))
        for t, row in enumerate(rows):
            cells = [int(row[f"bit_{i}"]) for i in range(3)]
            assert sum(cells) / 3 * 100 == stats.per_trial_survival_pct[t]

    def test_stats_round_trip_exactly(self, tmp_path):
        matrix, stats = self.make_small()
        _, stats_path = emit_csv(matrix, stats, tmp_path)
        with stats_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["bit"]) for r in rows] == [0, 1, 2]
        assert [int(r["payload_bit"]) for r in rows] == [1, 0, 1]
        assert [float(r["survival_pct"]) for r in rows] == list(stats.per_bit_survival_pct)

    def test_identical_seed_gives_identical_files(self, tmp_path, small_carrier):
        cfg = TrialConfig(
            channel=ChannelId.VERTEX, carrier=small_carrier, payload_bits=50, trials=10, seed=77
        )
        outputs = []
        for name in ("a", "b"):
            matrix, stats = run_experiment(cfg)
            mp, sp = emit_csv(matrix, stats, tmp_path / name)
            outputs.append((mp.read_bytes(), sp.read_bytes()))
        assert outputs[0] == outputs[1]


class TestHistogram:
    def rects(self, path):
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(path).getroot()
        return root.findall(".//svg:rect[@data-count]", ns)

    def test_degenerate_single_bar(self, tmp_path):
        cells = np.ones((4, 10), dtype=bool)
        matrix = SurvivalMatrix(cells=cells, payload=BitSequence([1] * 10))
        stats = compute_stats(matrix)
        path = emit_histogram(stats, tmp_path / "h.svg")
        bars = [r for r in self.rects(path) if r.get("data-series") == "all"]
        assert len(bars) == 1
        assert bars[0].get("data-bin") == "100"
        assert bars[0].get("data-count") == "4"

    def test_facet_histogram_unimodal_near_fifty(self, tmp_path, facet_experiment):
        _, stats = facet_experiment
        path = emit_histogram(stats, tmp_path / "facet.svg")
        bars = [r for r in self.rects(path) if r.get("data-series") == "all"]
        assert sum(int(b.get("data-count")) for b in bars) == 100
        modal = max(bars, key=lambda b: int(b.get("data-count")))
        assert 47 <= int(modal.get("data-bin")) <= 52

    def test_vertex_histogram_bimodal_by_value(self, tmp_path, vertex_experiment):
        _, stats = vertex_experiment
        path = emit_histogram(stats, tmp_path / "vertex.svg")
        for series, target in (("payload_1", 33), ("payload_0", 67)):
            bars = [r for r in self.rects(path) if r.get("data-series") == series]
            assert bars
            total = sum(int(b.get("data-count")) for b in bars)
            center = (
                sum(int(b.get("data-bin")) * int(b.get("data-count")) for b in bars) / total
            )
            assert abs(center - target) < 3.0

    def test_empty_stats_render(self, tmp_path):
        matrix = SurvivalMatrix(cells=np.zeros((1, 0), dtype=bool), payload=BitSequence(()))
        path = emit_histogram(compute_stats(matrix), tmp_path / "empty.svg")
        assert ET.parse(path).getroot() is not None


def test_robust_pair_uses_full_scrub(small_carrier):
    cfg = TrialConfig(
        channel=ChannelId.ROBUST_PAIR, carrier=small_carrier, payload_bits=64, trials=40, seed=21
    )
    _, stats = run_experiment(cfg)
    # the canonical-form scheme dies under the combined passes
    assert 35.0 <= stats.mean_pct <= 65.0


def test_gates_fail_on_biased_stats():
    cells = np.ones((10, 20), dtype=bool)  # 100 % survival
    matrix = SurvivalMatrix(cells=cells, payload=BitSequence([0, 1] * 10))
    stats = compute_stats(matrix)
    gates = statistical_gates(ChannelId.FACET, stats)
    assert gates and not any(g.passed for g in gates)


@pytest.fixture
def keyed_carrier():
    carrier = generate_test_mesh(2)
    carrier.geometry_keys, carrier.degenerate  # computed before any counting
    return carrier


@pytest.fixture
def counted_rotations(keyed_carrier, monkeypatch):
    """The sign of every extreme_rotation call, in channels and model."""
    calls = []
    original = model.extreme_rotation

    def counted(vertices, sign):
        calls.append(sign)
        return original(vertices, sign)

    monkeypatch.setattr(model, "extreme_rotation", counted)
    monkeypatch.setattr(channels, "extreme_rotation", counted)
    return calls


def test_a_facet_trial_computes_keys_once(keyed_carrier, counted_rotations):
    cfg = TrialConfig(channel=ChannelId.FACET, carrier=keyed_carrier, payload_bits=64, seed=3)
    run_trial(cfg, 0)
    assert counted_rotations == [-1]  # for the scrubbed model


def test_a_vertex_embed_computes_no_keys(keyed_carrier, counted_rotations):
    channels.embed(keyed_carrier, ChannelId.VERTEX, BitSequence([1, 0] * 32))
    assert -1 not in counted_rotations


def test_vertex_trials_reuse_the_carriers_degenerate_mask(keyed_carrier, monkeypatch):
    calls = []
    original = model.degenerate

    def counted(vertices):
        calls.append(len(vertices))
        return original(vertices)

    monkeypatch.setattr(model, "degenerate", counted)
    payload = BitSequence([1, 0, 0] * 30)
    cfg = TrialConfig(channel=ChannelId.VERTEX, carrier=keyed_carrier, payload_bits=90, seed=5)
    outcomes = [run_trial(cfg, t, payload=payload) for t in range(4)]
    assert len(calls) == 4  # one per scrubbed model, none for an embedded one

    # the arrangement view equals one read off each embedded model's own slots
    for t, outcome in enumerate(outcomes):
        embedded = channels.embed(keyed_carrier, ChannelId.VERTEX, payload)
        rng = RandomSource.seeded(derive_seed(5, "trial", t))
        scrubbed = sanitize_vertex_channel(embedded, rng)
        usable = np.flatnonzero(~original(embedded.vertices))[: len(payload)]
        same = (embedded.vertices[usable] == scrubbed.vertices[usable]).all(axis=(1, 2))
        assert outcome.arrangement_unchanged.tolist() == same.tolist()
