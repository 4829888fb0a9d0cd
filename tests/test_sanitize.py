import os
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import LUCY_TEXT, random_model, tagged_model, unit_facet
from scalar_reference import (
    fisher_yates_order,
    geometry_key,
    model_from_facets,
    unit_rhr_normal,
    vec3,
    with_facets,
)
from stlstego import (
    BitSequence,
    ChannelId,
    Facet,
    RandomSource,
    SanitizeReport,
    StlFormat,
    capacity,
    extract,
    parse_bytes,
    sanitize_all,
    sanitize_facet_channel,
    sanitize_model,
    sanitize_normal_channel,
    sanitize_vertex_channel,
    serialize,
    write_binary,
    write_canonical_ascii,
)
from stlstego import sanitize


class ScriptedRng:
    """Deterministic stand-in for RandomSource in semantics tests."""

    def __init__(self, values):
        self.values = list(values)

    def randbelow(self, n):
        v = self.values.pop(0)
        assert 0 <= v < n
        return v

    def randbelow_many(self, bounds):
        return np.array([self.randbelow(n) for n in bounds], dtype=np.int64)


def oracle_unit_normal(v1, v2, v3):
    # independent implementation: numpy vector algebra end to end
    e1 = np.subtract(v2, v1, dtype=np.float64)
    e2 = np.subtract(v3, v1, dtype=np.float64)
    n = np.cross(e1, e2)
    return n / np.linalg.norm(n)


class TestFacetShuffle:
    def test_single_facet_unchanged(self):
        model = model_from_facets(facets=(unit_facet(),))
        assert sanitize_facet_channel(model, RandomSource.seeded(1)) == model

    def test_no_facets_unchanged(self):
        model = model_from_facets()
        assert sanitize_facet_channel(model, RandomSource.seeded(1)) == model

    def test_multiset_preserved_exactly(self):
        model = random_model(50, seed=2, attributes=True)
        out = sanitize_facet_channel(model, RandomSource.seeded(3))
        assert Counter(out.facets) == Counter(model.facets)
        assert out.facets != model.facets  # 50 facets: identity is absurdly unlikely

    def test_facet_contents_untouched(self):
        model = tagged_model(10)
        out = sanitize_facet_channel(model, RandomSource.seeded(4))
        assert sorted(f.attribute for f in out.facets) == list(range(10))
        for f in out.facets:
            assert f == model.facets[f.attribute]

    def test_permutation_frequencies_roughly_uniform(self):
        # 3 facets, 6 permutations; the full census lives in the acceptance suite
        model = tagged_model(3)
        rng = RandomSource.seeded(5)
        counts = Counter()
        for _ in range(6000):
            out = sanitize_facet_channel(model, rng)
            counts[tuple(f.attribute for f in out.facets)] += 1
        assert len(counts) == 6
        assert all(abs(c - 1000) < 150 for c in counts.values())


def _check_order(n, draws):
    draws = np.asarray(draws, dtype=np.int64)
    expected = fisher_yates_order(n, draws.tolist())
    assert np.array_equal(sanitize._fisher_yates(n, draws), expected), (n, draws)


class TestFisherYatesOrder:
    """The loop-free order against the swap loop, on the same draws."""

    @pytest.mark.parametrize("n", range(71))
    def test_random_draws(self, n):
        rng = random.Random(n)
        for _ in range(20):
            _check_order(n, [rng.randrange(i + 1) for i in range(n - 1, 0, -1)])

    @pytest.mark.parametrize("n", range(71))
    def test_extreme_draws(self, n):
        steps = np.arange(n - 1, 0, -1)
        _check_order(n, np.zeros(len(steps)))  # every step swaps with position 0
        _check_order(n, steps)  # no step swaps: j_i = i
        _check_order(n, steps - 1)  # one chain as long as n: j_i = i - 1

    def test_the_largest_built_in_carrier(self):
        n = 81_920
        _check_order(n, RandomSource.seeded(6).randbelow_many(np.arange(n, 1, -1)))


class TestVertexRotation:
    def test_rotate_left_semantics(self):
        a, b, c = vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0)
        model = model_from_facets(facets=(Facet(v1=a, v2=b, v3=c),))
        out = sanitize_vertex_channel(model, ScriptedRng([0]))
        assert out.facets[0].vertices == (b, c, a)

    def test_rotate_right_semantics(self):
        a, b, c = vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0)
        model = model_from_facets(facets=(Facet(v1=a, v2=b, v3=c),))
        out = sanitize_vertex_channel(model, ScriptedRng([1]))
        assert out.facets[0].vertices == (c, a, b)

    def test_none_keeps_order(self):
        model = model_from_facets(facets=(unit_facet(),))
        out = sanitize_vertex_channel(model, ScriptedRng([2]))
        assert out == model

    def test_three_states_each_one_third(self):
        model = model_from_facets(facets=(unit_facet(),))
        rng = RandomSource.seeded(6)
        counts = Counter()
        for _ in range(9999):
            out = sanitize_vertex_channel(model, rng)
            counts[out.facets[0].vertices] += 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 9999 - 1 / 3) < 0.05

    def test_max_first_probability_independent_of_input_state(self):
        # whatever rotation goes in, P(max listed first) comes out 1/3
        a, b, c = vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0)
        rng = RandomSource.seeded(7)
        for start in ((a, b, c), (b, c, a), (c, a, b)):
            model = model_from_facets(facets=(Facet(v1=start[0], v2=start[1], v3=start[2]),))
            hits = 0
            runs = 3000
            for _ in range(runs):
                out = sanitize_vertex_channel(model, rng)
                verts = out.facets[0].vertices
                hits += verts[0] == max(verts)
            assert abs(hits / runs - 1 / 3) < 0.05

    def test_normals_and_coordinates_untouched(self):
        model = random_model(20, seed=8, attributes=True)
        out = sanitize_vertex_channel(model, RandomSource.seeded(9))
        for before, after in zip(model.facets, out.facets):
            assert after.normal == before.normal
            assert after.attribute == before.attribute
            assert sorted(after.vertices) == sorted(before.vertices)


class TestNormalRecompute:
    def test_flipped_normal_restored(self):
        f = replace(unit_facet(), normal=(0.0, 0.0, -1.0))
        out = sanitize_normal_channel(model_from_facets(facets=(f,)))
        assert out.facets[0].normal == (0.0, 0.0, 1.0)

    def test_idempotent(self):
        model = random_model(30, seed=10)
        once = sanitize_normal_channel(model)
        assert sanitize_normal_channel(once) == once

    def test_degenerate_gets_zero_normal(self):
        collinear = Facet(v1=vec3(0, 0, 0), v2=vec3(1, 0, 0), v3=vec3(2, 0, 0))
        out = sanitize_normal_channel(model_from_facets(facets=(collinear,)))
        assert out.facets[0].normal == (0.0, 0.0, 0.0)

    def test_attributes_zeroed(self):
        model = tagged_model(5)
        out = sanitize_normal_channel(model)
        assert all(f.attribute == 0 for f in out.facets)

    def test_matches_independent_oracle(self):
        rng = random.Random(11)
        model = random_model(300, seed=11)
        out = sanitize_normal_channel(model)
        for f in out.facets:
            expected = oracle_unit_normal(*f.vertices)
            err = np.linalg.norm(np.asarray(f.normal) - expected)
            assert err / np.linalg.norm(expected) < 1e-6


class TestSanitizeAll:
    def test_empty_solid(self):
        out, report = sanitize_all(b"solid empty\nendsolid empty\n", RandomSource.seeded(1))
        assert parse_bytes(out).facets == ()
        assert report.facets_shuffled == 0
        assert report.vertices_rotated == 0
        assert report.normals_recomputed == 0
        assert report.attributes_zeroed == 0
        assert report.format_written is StlFormat.ASCII

    def test_the_default_randomness_is_fresh_on_each_run(self):
        data = write_binary(random_model(40, seed=12, attributes=True))
        first, _ = sanitize_all(data)
        second, _ = sanitize_all(data)
        assert first != second  # equal only if both draw the same one of 40! orders
        assert sorted(parse_bytes(first).geometry_keys.tolist()) == sorted(
            parse_bytes(second).geometry_keys.tolist()
        )

    def test_geometry_preserved_and_idempotent(self):
        model = random_model(40, seed=12, attributes=True)
        data = write_binary(model)
        out1, report1 = sanitize_all(data, RandomSource.seeded(13))
        out2, report2 = sanitize_all(out1, RandomSource.seeded(14))
        for out in (out1, out2):
            parsed = parse_bytes(out)
            assert Counter(map(geometry_key, parsed.facets)) == Counter(
                map(geometry_key, model.facets)
            )
        assert report1.facets_shuffled == report2.facets_shuffled == 40
        assert report1.attributes_zeroed > 0
        assert report2.attributes_zeroed == 0  # first pass cleared them

    def test_report_is_read_off_input_and_output(self):
        model = random_model(40, seed=12, attributes=True)
        point = model.facets[0].v1
        data = write_binary(with_facets(model, model.facets + (Facet(point, point, point),)))
        reports = {sanitize_all(data, RandomSource.seeded(seed))[1] for seed in range(5)}
        assert reports == {SanitizeReport(41, 40, 40, 40, StlFormat.BINARY)}

    def test_a_signed_zero_vertex_counts_as_rotated(self):
        # (-0.0, 0, 0) == (0, 0, 0), but rotating the list moves its bytes
        facet = Facet(v1=(-0.0, 0.0, 0.0), v2=(0.0, 0.0, 0.0), v3=(0.0, 0.0, 0.0))
        data = write_binary(model_from_facets(facets=(facet,)))
        runs = [sanitize_all(data, RandomSource.seeded(seed)) for seed in range(6)]
        assert {report.vertices_rotated for _, report in runs} == {1}
        assert len({out for out, _ in runs}) == 3

    def test_preserve_and_override_formats(self):
        model = random_model(5, seed=15)
        ascii_bytes = write_canonical_ascii(model).encode()
        out, report = sanitize_all(ascii_bytes, RandomSource.seeded(16))
        assert report.format_written is StlFormat.ASCII
        assert out.startswith(b"solid")
        out, report = sanitize_all(
            ascii_bytes, RandomSource.seeded(17), output_format=StlFormat.BINARY
        )
        assert report.format_written is StlFormat.BINARY
        assert parse_bytes(out).source_format is StlFormat.BINARY

    def test_lucy_fixture_all_channels_extractable_after(self):
        out, _ = sanitize_all(LUCY_TEXT.encode(), RandomSource.seeded(18))
        model = parse_bytes(out)
        assert extract(model, ChannelId.FACET, capacity(model, ChannelId.FACET)) is not None
        assert extract(model, ChannelId.NORMAL, 2) == BitSequence((0, 0))

    def test_normals_recomputed_counts_normals_written(self):
        # zero area under the input rotation, nonzero under the other two
        v1, v2, v3 = (
            tuple(float(np.float32(c)) for c in v)
            for v in ((1e20, 1.0000001, 1e20), (0.1, 3e-20, 1.0), (2.0, 1e-30, 1.0))
        )
        assert unit_rhr_normal(v1, v2, v3) is None
        data = write_binary(model_from_facets(facets=(Facet(v1=v1, v2=v2, v3=v3),)))
        for seed in range(5):
            out, report = sanitize_all(data, RandomSource.seeded(seed))
            written = parse_bytes(out).facets[0].normal != (0.0, 0.0, 0.0)
            assert report.normals_recomputed == int(written)

    def test_parse_error_propagates(self):
        with pytest.raises(Exception):
            sanitize_all(b"not an stl at all", RandomSource.seeded(19))

    def test_randomness_consumption_is_content_independent(self):
        # same facet count, same seed, different content: identical decisions
        m1 = tagged_model(12)
        m2 = random_model(12, seed=20, attributes=False)
        m2 = with_facets(m2, (replace(f, attribute=i) for i, f in enumerate(m2.facets)))
        perm1 = [
            f.attribute
            for f in sanitize_facet_channel(m1, RandomSource.seeded(21)).facets
        ]
        perm2 = [
            f.attribute
            for f in sanitize_facet_channel(m2, RandomSource.seeded(21)).facets
        ]
        assert perm1 == perm2

        def rotation_pattern(model, seed):
            out = sanitize_vertex_channel(model, RandomSource.seeded(seed))
            pattern = []
            for before, after in zip(model.facets, out.facets):
                pattern.append(
                    (before.v1, before.v2, before.v3).index(after.v1)
                )
            return pattern

        assert rotation_pattern(m1, 22) == rotation_pattern(m2, 22)


def test_sanitize_model_composes_all_three_passes():
    model = tagged_model(8)
    out = sanitize_model(model, RandomSource.seeded(23))
    assert Counter(map(geometry_key, out.facets)) == Counter(
        map(geometry_key, model.facets)
    )
    assert all(f.attribute == 0 for f in out.facets)
    for f in out.facets:
        n = unit_rhr_normal(*f.vertices)
        assert max(abs(a - b) for a, b in zip(n, f.normal)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 41, 5120])
@pytest.mark.parametrize("fmt", [StlFormat.BINARY, StlFormat.ASCII], ids=["binary", "ascii"])
@pytest.mark.parametrize("source", ["crypto", "seeded"])
def test_sanitize_all_draws_fixed_bounds_in_order(monkeypatch, n, fmt, source):
    # wrapped at class level, as the benchmark's tracer counts draws
    bounds, calls = [], []
    randbelow_many = RandomSource.__dict__["randbelow_many"]
    randbelow = RandomSource.__dict__["randbelow"]

    def counted_many(rng, ks):
        bounds.extend(np.asarray(ks).tolist())
        return randbelow_many(rng, ks)

    def counted(rng, k):
        calls.append(k)
        return randbelow(rng, k)

    monkeypatch.setattr(RandomSource, "randbelow_many", counted_many)
    monkeypatch.setattr(RandomSource, "randbelow", counted)
    rng = RandomSource.crypto() if source == "crypto" else RandomSource.seeded(n)
    sanitize_all(serialize(tagged_model(n), fmt), rng)
    assert bounds == [*range(n, 1, -1), *[3] * n]
    # the tracer's view: a crypto source draws each bound in its own call
    assert calls == (bounds if source == "crypto" else [])


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 1])
def test_seeded_randbelow_reads_the_bulk_stream(seed):
    # one draw per call reads the words one bulk call reads, in the same
    # order, until a word is rejected; these bounds reject a word at odds of
    # at most 2**-16. A numpy integer bound too.
    bounds = [1, 2, 3, 7, 1000, 81920, 2**32 - 1, 2**32, np.int64(81920)] * 25
    single, bulk = RandomSource.seeded(seed), RandomSource.seeded(seed)
    drawn = [single.randbelow(k) for k in bounds]
    assert drawn == bulk.randbelow_many(bounds).tolist()
    assert all(type(x) is int for x in drawn)
    assert single._rng.getstate() == bulk._rng.getstate()


class StubWords:
    """Stands in for a seeded source's generator: getrandbits(32 * m) returns
    the next m scripted 32-bit words, lowest word first."""

    def __init__(self, *words):
        self.words = list(words)
        self.requests = []

    def getrandbits(self, k):
        self.requests.append(k)
        assert k // 32 <= len(self.words), "more words read than scripted"
        taken, self.words = self.words[: k // 32], self.words[k // 32 :]
        return sum(w << (32 * i) for i, w in enumerate(taken))


class TestBulkDraws:
    """Lemire's multiply-shift over a seeded source's 32-bit words."""

    @staticmethod
    def source(*words):
        source = RandomSource.seeded(0)
        source._rng = StubWords(*words)
        return source

    @pytest.mark.parametrize("b", [3, 7, 2**31 + 1])
    def test_rejection_threshold_is_exact(self, b):
        floor = 2**32 % b
        inverse = pow(b, -1, 2**32)  # word * b has low 32 bits k for word = k * inverse
        below, at = (floor - 1) * inverse % 2**32, floor * inverse % 2**32
        draws = self.source(below, at, at)
        # the first word is rejected and only its position draws again
        assert draws.randbelow_many([b, b]).tolist() == [at * b >> 32] * 2
        assert draws._rng.requests == [64, 32]
        assert draws._rng.words == []

    @staticmethod
    def reference(bounds, rng):
        """The kernel with Python ints: each round reads one word per pending
        position, in position order, and keeps the rejected ones pending."""
        out, pending = [None] * len(bounds), list(range(len(bounds)))
        while pending:
            words, retry = rng.getrandbits(32 * len(pending)), []
            for k, i in enumerate(pending):
                product = (words >> 32 * k & 0xFFFFFFFF) * bounds[i]
                if product % 2**32 >= 2**32 % bounds[i]:
                    out[i] = product >> 32
                else:
                    retry.append(i)
            pending = retry
        return out

    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 1])
    def test_matches_the_scalar_reference(self, seed):
        # 2**31 + 1 rejects almost half of all words, so many rounds run
        bounds = [2**31 + 1] * 300 + [1, 2, 3, 7, 81920, 2**32 - 1, 2**32] * 20
        reference, source = random.Random(seed), RandomSource.seeded(seed)
        assert source.randbelow_many(bounds).tolist() == self.reference(bounds, reference)
        assert source._rng.getstate() == reference.getstate()

    def test_extreme_bounds(self):
        draws = self.source(0, 1, 2**32 - 1, 2**32 - 1)
        assert draws.randbelow_many([1, 2**32, 2**32, 1]).tolist() == [0, 1, 2**32 - 1, 0]

    @pytest.mark.parametrize("source", ["crypto", "seeded"])
    def test_empty_bounds_draw_nothing(self, source):
        draws = RandomSource.crypto() if source == "crypto" else self.source()
        out = draws.randbelow_many(np.arange(0))
        assert out.shape == (0,)
        if source == "seeded":
            assert draws._rng.requests == []

    @pytest.mark.parametrize("b", [0, -1, 2**32 + 1, 2**64])
    @pytest.mark.parametrize("source", ["crypto", "seeded"])
    def test_bounds_out_of_range_raise(self, source, b):
        draws = RandomSource.crypto() if source == "crypto" else RandomSource.seeded(1)
        state = draws._rng.getstate() if source == "seeded" else None
        with pytest.raises(ValueError, match=r"bounds must lie in \[1, 2\*\*32\]"):
            draws.randbelow_many([5, b])
        with pytest.raises(ValueError, match=r"bounds must lie in \[1, 2\*\*32\]"):
            draws.randbelow(b)
        if source == "seeded":  # raised before any word is read
            assert draws._rng.getstate() == state

    @pytest.mark.parametrize("source", ["crypto", "seeded"])
    def test_float_bounds_raise(self, source):
        # one array check decides for both sources: a float or a bool bound
        # raises, a numpy integer draws
        draws = RandomSource.crypto() if source == "crypto" else RandomSource.seeded(1)
        with pytest.raises(ValueError, match=r"bounds must lie in \[1, 2\*\*32\]"):
            draws.randbelow_many([5, 2.5])
        for b in (2.0, True):
            with pytest.raises(ValueError, match=r"bounds must lie in \[1, 2\*\*32\]"):
                draws.randbelow(b)
        assert 0 <= draws.randbelow(np.int64(5)) < 5

    @pytest.mark.parametrize("bounds", [[5, True], [True, 5], [5, np.True_]])
    @pytest.mark.parametrize("source", ["crypto", "seeded"])
    def test_a_bool_among_int_bounds_raises(self, source, bounds):
        # asarray promotes such a list to ints, reading True as bound 1
        draws = RandomSource.crypto() if source == "crypto" else RandomSource.seeded(1)
        state = draws._rng.getstate() if source == "seeded" else None
        with pytest.raises(ValueError, match=r"^bounds must lie in \[1, 2\*\*32\]$"):
            draws.randbelow_many(bounds)
        if source == "seeded":  # raised before any word is read
            assert draws._rng.getstate() == state

    @pytest.mark.parametrize("source", ["crypto", "seeded"])
    def test_bounds_at_the_ends_draw(self, source):
        draws = RandomSource.crypto() if source == "crypto" else RandomSource.seeded(1)
        assert draws.randbelow(1) == 0
        assert 0 <= draws.randbelow(2**32) < 2**32
        first, last = draws.randbelow_many([1, 2**32]).tolist()
        assert first == 0 and 0 <= last < 2**32

    def test_one_seed_gives_one_stream_and_state(self):
        bounds = np.concatenate([np.arange(5000, 1, -1), np.full(5000, 3), [2**32, 1]])
        a, b = RandomSource.seeded(29), RandomSource.seeded(29)
        assert a.randbelow_many(bounds).tolist() == b.randbelow_many(bounds).tolist()
        assert a._rng.getstate() == b._rng.getstate()
        assert a.randbelow(1000) == b.randbelow(1000)

    @pytest.mark.parametrize("n", [3, 7])
    def test_seeded_draws_are_uniform(self, n):
        draws = RandomSource.seeded(31).randbelow_many(np.full(3000 * n, n))
        counts = np.bincount(draws, minlength=n)
        assert len(counts) == n
        assert chisquare(counts).pvalue > 1e-4


def test_random_source_kinds():
    assert repr(RandomSource.seeded(42)) == "RandomSource(seeded)"
    crypto = RandomSource.crypto()
    assert repr(crypto) == "RandomSource(cryptographic)"
    draws = {crypto.randbelow(1000) for _ in range(50)}
    assert len(draws) > 1


class TestCryptoDraws:
    """Lemire's bounded draws over a stubbed word source."""

    @staticmethod
    def source(monkeypatch, *block):
        refills = []

        def words():
            refills.append(1)
            return block

        monkeypatch.setattr(sanitize, "_urandom_words", words)
        return RandomSource.crypto(), refills

    @pytest.mark.parametrize("n", [3, 7, 1001])
    def test_rejection_threshold_is_exact(self, monkeypatch, n):
        floor = 2**64 % n
        inverse = pow(n, -1, 2**64)  # word * n has low 64 bits k for word = k * inverse
        below, at = (floor - 1) * inverse % 2**64, floor * inverse % 2**64
        draws, refills = self.source(monkeypatch, below, at)
        assert draws.randbelow(n) == at * n >> 64  # `below` rejected, `at` accepted
        assert len(refills) == 1
        draws.randbelow(n)  # both words were used up
        assert len(refills) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 81920, 2**32])
    def test_result_is_below_n(self, monkeypatch, n):
        draws, _ = self.source(monkeypatch, 0, 1, 2**63, 2**64 - 2, 2**64 - 1)
        assert all(0 <= draws.randbelow(n) < n for _ in range(50))

    def test_the_at_fork_hook_discards_the_buffer(self, monkeypatch):
        # randbelow(2**32) is a word's high 32 bits, here 0, 1, ..., 7
        draws, refills = self.source(monkeypatch, *(k << 32 for k in range(8)))
        draws.randbelow(2**32)
        sanitize._drop_buffered_words()
        assert draws.randbelow(2**32) == 0  # refilled, not the next buffered word
        assert len(refills) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_draws_fresh_words(self):
        rng = RandomSource.crypto()
        rng.randbelow(2**32)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report its next draw and leave at once
            os.write(write, rng.randbelow(2**32).to_bytes(8, "little"))
            os._exit(0)
        os.close(write)
        child = int.from_bytes(os.read(read, 8), "little")
        os.close(read)
        os.waitpid(pid, 0)
        assert child != rng.randbelow(2**32)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_two_children_of_a_half_used_buffer_draw_apart(self):
        rng = RandomSource.crypto()
        for _ in range(sanitize._BLOCK // 2):
            rng.randbelow(2**32)  # 2**32 rejects nothing: one word per draw

        def next_words():
            return b"".join(rng.randbelow(2**32).to_bytes(8, "little") for _ in range(4))

        children = []
        for _ in range(2):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: report its next four draws and leave at once
                os.write(write, next_words())
                os._exit(0)
            os.close(write)
            children.append(os.read(read, 32))
            os.close(read)
            os.waitpid(pid, 0)
        assert len(set(children) | {next_words()}) == 3

    @pytest.mark.chance(1e-4)
    @pytest.mark.parametrize("n", [3, 7])
    def test_crypto_draws_are_uniform(self, n):
        # chi-square goodness of fit; alpha 1e-4 per bound
        rng = RandomSource.crypto()
        counts = np.bincount([rng.randbelow(n) for _ in range(3000 * n)], minlength=n)
        assert len(counts) == n
        assert chisquare(counts).pvalue > 1e-4
