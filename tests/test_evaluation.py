import csv
import dataclasses
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import stats as sps

from stlstego import (
    BitSequence,
    CapacityExceededError,
    ChannelId,
    RandomSource,
    RawAsciiDocument,
    SurvivalMatrix,
    TrialConfig,
    compute_stats,
    generate_test_mesh,
    result_files,
    run_experiment,
    run_trial,
    sanitize_vertex_channel,
    statistical_gates,
    write_canonical_ascii,
)
from stlstego import capacity, channels, evaluation, model, sanitize
from stlstego.evaluation import derive_seed
from zoo import dirty_export


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
    # a wrapper installed on the pass in stlstego.sanitize, as a profiler or a
    # mutant does, sees the trial's call
    original = getattr(sanitize, scrubber)
    calls = []

    def wrapped(*args):
        calls.append(channel)
        return original(*args)

    monkeypatch.setattr(sanitize, scrubber, wrapped)
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


def test_validation_rejects_bad_configs(small_carrier, monkeypatch):
    with pytest.raises(ValueError, match="trials"):
        TrialConfig(ChannelId.FACET, small_carrier, payload_bits=8, trials=0)
    with pytest.raises(ValueError, match="payload_bits"):
        TrialConfig(ChannelId.FACET, small_carrier, payload_bits=-1)
    with pytest.raises(ValueError, match="payload_bits"):
        TrialConfig(ChannelId.FACET, small_carrier, payload_bits=0, trials=1)
    # capacity is the channel's own check, made by the experiment's one
    # embed before the first trial
    held = capacity(small_carrier, ChannelId.FACET)
    cfg = TrialConfig(ChannelId.FACET, small_carrier, payload_bits=10_000, trials=2, seed=1)
    trials = []
    monkeypatch.setattr(evaluation, "run_trial", lambda *args, **kwargs: trials.append(args))
    with pytest.raises(
        CapacityExceededError,
        match=f"^payload needs 10000 bits but the facet channel holds {held}$",
    ):
        run_experiment(cfg)
    assert trials == []


@pytest.mark.parametrize(
    "channel",
    [ChannelId.FACET, ChannelId.VERTEX, ChannelId.NORMAL, ChannelId.ROBUST_PAIR, ChannelId.NUMBER],
)
def test_an_experiment_embeds_once(channel, small_carrier, monkeypatch):
    # every trial scrubs the one embedded carrier, and reads as a trial
    # that embeds for itself
    calls = []

    def counted(*args):
        calls.append(args[1])
        return channels.embed(*args)

    monkeypatch.setattr(evaluation, "embed", counted)
    cfg = TrialConfig(channel=channel, carrier=small_carrier, payload_bits=48, trials=4, seed=8)
    matrix, stats = run_experiment(cfg)
    assert calls == [channel]
    outcomes = [run_trial(cfg, t) for t in range(cfg.trials)]
    assert np.array_equal(matrix.cells, [o.survived for o in outcomes])
    arrangement = [o.arrangement_unchanged for o in outcomes if o.arrangement_unchanged is not None]
    assert stats.arrangement_mean_pct == compute_stats(matrix, arrangement).arrangement_mean_pct


def test_an_unseeded_experiment_draws_a_fresh_payload(small_carrier):
    cfg = TrialConfig(channel=ChannelId.FACET, carrier=small_carrier, payload_bits=64, trials=2)
    first, stats = run_experiment(cfg)
    second, _ = run_experiment(cfg)
    assert first.cells.shape == second.cells.shape == (2, 64)
    assert 0 <= stats.mean_pct <= 100
    assert first.payload != second.payload  # equal with probability 2**-64


def test_degenerate_empty_experiment():
    # an experiment needs a trial and a bit; an empty matrix has no statistics
    for trials, bits in ((1, 0), (0, 3)):
        cells = np.zeros((trials, bits), dtype=bool)
        matrix = SurvivalMatrix(cells=cells, payload=BitSequence([1] * bits))
        with pytest.raises(ValueError, match="needs a trial and a bit"):
            compute_stats(matrix)


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

    def test_matrix_layout(self):
        matrix, stats = self.make_small()
        lines = result_files(matrix, stats)["matrix.csv"].decode().splitlines()
        assert lines[0] == "trial,bit_0,bit_1,bit_2"
        assert lines[1] == "0,1,0,1"
        assert lines[2] == "1,1,1,0"
        assert len(lines) == 3

    def test_row_sums_match_per_trial_percentages(self):
        matrix, stats = self.make_small()
        text = result_files(matrix, stats)["matrix.csv"].decode()
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        for t, row in enumerate(rows):
            cells = [int(row[f"bit_{i}"]) for i in range(3)]
            assert sum(cells) / 3 * 100 == stats.per_trial_survival_pct[t]

    def test_stats_round_trip_exactly(self):
        matrix, stats = self.make_small()
        text = result_files(matrix, stats)["stats.csv"].decode()
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [int(r["bit"]) for r in rows] == [0, 1, 2]
        assert [int(r["payload_bit"]) for r in rows] == [1, 0, 1]
        assert [float(r["survival_pct"]) for r in rows] == list(stats.per_bit_survival_pct)

    def test_identical_seed_gives_identical_files(self, small_carrier):
        cfg = TrialConfig(
            channel=ChannelId.VERTEX, carrier=small_carrier, payload_bits=50, trials=10, seed=77
        )
        outputs = []
        for _ in ("a", "b"):
            matrix, stats = run_experiment(cfg)
            files = result_files(matrix, stats)
            outputs.append((files["matrix.csv"], files["stats.csv"]))
        assert outputs[0] == outputs[1]


class TestHistogram:
    def rects(self, matrix, stats):
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.fromstring(result_files(matrix, stats)["histogram.svg"])
        return root.findall(".//svg:rect[@data-count]", ns)

    def test_degenerate_single_bar(self):
        cells = np.ones((4, 10), dtype=bool)
        matrix = SurvivalMatrix(cells=cells, payload=BitSequence([1] * 10))
        stats = compute_stats(matrix)
        bars = [r for r in self.rects(matrix, stats) if r.get("data-series") == "all"]
        assert len(bars) == 1
        assert bars[0].get("data-bin") == "100"
        assert bars[0].get("data-count") == "4"

    def test_facet_histogram_unimodal_near_fifty(self, facet_experiment):
        bars = [r for r in self.rects(*facet_experiment) if r.get("data-series") == "all"]
        assert sum(int(b.get("data-count")) for b in bars) == 100
        modal = max(bars, key=lambda b: int(b.get("data-count")))
        assert 47 <= int(modal.get("data-bin")) <= 52

    def test_vertex_histogram_bimodal_by_value(self, vertex_experiment):
        rects = self.rects(*vertex_experiment)
        for series, target in (("payload_1", 33), ("payload_0", 67)):
            bars = [r for r in rects if r.get("data-series") == series]
            assert bars
            total = sum(int(b.get("data-count")) for b in bars)
            center = (
                sum(int(b.get("data-bin")) * int(b.get("data-count")) for b in bars) / total
            )
            assert abs(center - target) < 3.0

    def test_empty_stats_render(self):
        # no statistics, so nothing to render: the matrix is refused first
        matrix = SurvivalMatrix(cells=np.zeros((1, 0), dtype=bool), payload=BitSequence(()))
        with pytest.raises(ValueError, match="needs a trial and a bit"):
            compute_stats(matrix)


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


def test_each_channel_entry_holds_its_gate_ranges_in_order():
    # the ranges sized for 1,024 bits x 100 trials, as float expressions
    # whose digits the gate details print
    gates = {channel: channels.CHANNELS[channel].gates for channel in ChannelId}
    assert list(gates[ChannelId.FACET].items()) == [
        ("mean survival pct", (48.5, 51.5)),
        ("variance of per-trial pct", (1.3, 3.2)),
    ]
    assert list(gates[ChannelId.VERTEX].items()) == [
        ("mean survival pct", (48.0, 52.0)),
        ("per-bit mean, payload 1", (100.0 / 3.0 - 2.5, 100.0 / 3.0 + 2.5)),
        ("per-bit mean, payload 0", (200.0 / 3.0 - 2.5, 200.0 / 3.0 + 2.5)),
    ]
    assert list(gates[ChannelId.ROBUST_PAIR].items()) == [("mean survival pct", (45.0, 55.0))]
    for channel in (ChannelId.NORMAL, ChannelId.NUMBER, ChannelId.WHITESPACE):
        assert gates[channel] is None


_VERTEX_VALUE_RANGES = {
    0: "vs [64.16666666666667, 69.16666666666667]",
    1: "vs [30.833333333333336, 35.833333333333336]",
}


@pytest.mark.parametrize(
    "channel, expected",
    [
        (ChannelId.FACET, [
            ("mean survival pct", False, "58.000 vs [48.5, 51.5]"),
            ("variance of per-trial pct", False, "23.500 vs [1.3, 3.2]"),
        ]),
        (ChannelId.VERTEX, [
            ("mean survival pct", False, "53.000 vs [48.0, 52.0]"),
            ("per-bit mean, payload 1", False, f"30.667 {_VERTEX_VALUE_RANGES[1]}"),
            ("per-bit mean, payload 0", True, f"66.400 {_VERTEX_VALUE_RANGES[0]}"),
        ]),
        (ChannelId.NORMAL, [("every bit reads 0", True, "all 40 bits in every trial")]),
        (ChannelId.NUMBER, [("every bit reads 0", True, "all 40 bits in every trial")]),
        (ChannelId.WHITESPACE, [("every bit reads 0", True, "all 40 bits in every trial")]),
        (ChannelId.ROBUST_PAIR, [("mean survival pct", True, "49.500 vs [45.0, 55.0]")]),
    ],
)
def test_gates_of_a_small_seeded_experiment(small_carrier, channel, expected):
    # sized for 1,024 x 100, the random channels' gates can fail at 40 x 5
    cfg = TrialConfig(channel=channel, carrier=small_carrier, payload_bits=40, trials=5, seed=4)
    _, stats = run_experiment(cfg)
    gates = statistical_gates(channel, stats)
    assert [(g.name, g.passed, g.detail) for g in gates] == expected


@pytest.mark.parametrize("value, survival", [(0, "65.500"), (1, "32.000")])
def test_a_one_valued_vertex_payload_has_no_gate_for_the_other_value(
    small_carrier, value, survival
):
    payload = BitSequence([value] * 40)
    cfg = TrialConfig(
        channel=ChannelId.VERTEX, carrier=small_carrier, payload_bits=40, trials=5, seed=4
    )
    rows = np.array([run_trial(cfg, t, payload=payload).survived for t in range(5)])
    gates = statistical_gates(ChannelId.VERTEX, compute_stats(SurvivalMatrix(rows, payload)))
    assert [(g.name, g.passed, g.detail) for g in gates] == [
        ("mean survival pct", False, f"{survival} vs [48.0, 52.0]"),
        (f"per-bit mean, payload {value}", True, f"{survival} {_VERTEX_VALUE_RANGES[value]}"),
    ]


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
    # the embedded and the scrubbed model are permutations of the carrier
    # and take its keys
    assert counted_rotations == []


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
    # the carrier's mask, computed before counting, is carried by the
    # rotations that make each embedded and each scrubbed model
    assert calls == []

    # the arrangement view equals one read off each embedded model's own slots
    for t, outcome in enumerate(outcomes):
        embedded = channels.embed(keyed_carrier, ChannelId.VERTEX, payload)
        rng = RandomSource.seeded(derive_seed(5, "trial", t))
        scrubbed = sanitize_vertex_channel(embedded, rng)
        usable = np.flatnonzero(~original(embedded.vertices))[: len(payload)]
        same = (embedded.vertices[usable] == scrubbed.vertices[usable]).all(axis=(1, 2))
        assert outcome.arrangement_unchanged.tolist() == same.tolist()


def _indented_solid_line() -> RawAsciiDocument:
    text = write_canonical_ascii(generate_test_mesh(2))
    return RawAsciiDocument("  " + text)


@pytest.mark.parametrize(
    "channel, carrier, bits, trials",
    [
        # a shuffle can pair two repeated facets, which removes a slot
        (ChannelId.FACET, lambda: RawAsciiDocument(dirty_export(1, 2000)[1]), 879, 20),
        # the canonical text indents no `solid` line
        (ChannelId.WHITESPACE, _indented_solid_line, None, 4),
    ],
    ids=["facet", "whitespace"],
)
def test_a_scrub_that_removes_slots_scores_each_missing_one_as_0(channel, carrier, bits, trials):
    carrier = carrier()
    bits = bits or capacity(carrier, channel)
    cfg = TrialConfig(channel=channel, carrier=carrier, payload_bits=bits, trials=trials, seed=9)
    matrix, stats = run_experiment(cfg)
    embedded = channels.embed(carrier, channel, matrix.payload)
    short = 0
    for t in range(trials):
        scrubbed = channels.CHANNELS[channel].scrub(
            embedded, RandomSource.seeded(derive_seed(9, "trial", t))
        )
        held = min(capacity(scrubbed, channel), bits)
        short += held < bits
        read = np.zeros(bits, dtype=np.uint8)
        read[:held] = channels.extract(scrubbed, channel, held)
        assert matrix.cells[t].tolist() == (read == matrix.payload.bits).tolist()
    assert short
    if channel is ChannelId.WHITESPACE:
        assert [g.passed for g in statistical_gates(channel, stats)] == [True]
