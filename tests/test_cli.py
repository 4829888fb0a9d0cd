import os
import re
import stat

import pytest

from conftest import slot_texts
from stlstego import (
    ChannelId,
    RawAsciiDocument,
    StlFormat,
    channels,
    cli,
    evaluation,
    generate_test_mesh,
    parse_bytes,
    sanitize,
    serialize,
    stl_io,
)
from stlstego.cli import main


def run_cli(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture
def carrier_ascii(tmp_path):
    path = tmp_path / "carrier.stl"
    path.write_bytes(serialize(generate_test_mesh(2), StlFormat.ASCII))
    return path


@pytest.fixture
def carrier_binary(tmp_path):
    path = tmp_path / "carrier_bin.stl"
    path.write_bytes(serialize(generate_test_mesh(2), StlFormat.BINARY))
    return path


class TestGenMesh:
    def test_writes_icosahedron(self, tmp_path, capsys):
        out = tmp_path / "ico.stl"
        assert run_cli(["gen-mesh", "--subdivisions", 0, "-o", out]) == 0
        model = parse_bytes(out.read_bytes())
        assert len(model) == 20
        assert model.source_format is StlFormat.ASCII

    def test_binary_output(self, tmp_path):
        out = tmp_path / "ico.stl"
        assert run_cli(["gen-mesh", "--subdivisions", 1, "--format", "binary", "-o", out]) == 0
        assert parse_bytes(out.read_bytes()).source_format is StlFormat.BINARY


class TestCapacity:
    def test_ascii_lists_all_channels(self, carrier_ascii, capsys):
        assert run_cli(["capacity", carrier_ascii]) == 0
        out = capsys.readouterr().out
        assert "facet" in out and "160" in out
        assert "vertex" in out and "320" in out
        assert "unavailable" not in out

    def test_binary_marks_text_channels_unavailable(self, carrier_binary, capsys):
        assert run_cli(["capacity", carrier_binary]) == 0
        out = capsys.readouterr().out
        assert out.count("unavailable") == 2

    def test_garbage_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.stl"
        bad.write_bytes(b"garbage bytes")
        assert run_cli(["capacity", bad]) == 2

    def test_reads_each_distinct_token_once(self, carrier_ascii, capsys, monkeypatch):
        doc = RawAsciiDocument(carrier_ascii.read_text())
        tokens = slot_texts(doc, doc.number_spans)
        seen = []
        original = stl_io.parse_float32s

        def counted(batch, lines=None):
            seen.extend(batch)
            return original(batch, lines)

        monkeypatch.setattr(stl_io, "parse_float32s", counted)
        assert run_cli(["capacity", carrier_ascii]) == 0
        assert sorted(seen) == sorted(set(tokens))
        assert capsys.readouterr().out == (
            "channel        capacity\n"
            "facet               160\n"
            "vertex              320\n"
            "normal              320\n"
            "number             3840\n"
            "whitespace         2240\n"
            "robust-pair          80\n"
        )


PAYLOAD_HEX = "a5f00f5a"


class TestEmbedExtract:
    @pytest.mark.parametrize(
        "channel", ["facet", "vertex", "normal", "robust-pair", "number", "whitespace"]
    )
    def test_round_trip_every_channel(self, channel, carrier_ascii, tmp_path, capsys):
        stego = tmp_path / "stego.stl"
        payload_out = tmp_path / "payload.bin"
        assert (
            run_cli(
                ["embed", carrier_ascii, "--channel", channel, "--payload-hex",
                 PAYLOAD_HEX, "-o", stego]
            )
            == 0
        )
        assert (
            run_cli(
                ["extract", stego, "--channel", channel, "--bits", 32, "-o", payload_out]
            )
            == 0
        )
        assert payload_out.read_bytes() == bytes.fromhex(PAYLOAD_HEX)

    def test_payload_file_input(self, carrier_ascii, tmp_path):
        payload = tmp_path / "secret.bin"
        payload.write_bytes(b"\xde\xad\xbe\xef")
        stego = tmp_path / "stego.stl"
        out = tmp_path / "out.bin"
        assert run_cli(["embed", carrier_ascii, "--channel", "facet", "--payload", payload, "-o", stego]) == 0
        assert run_cli(["extract", stego, "--channel", "facet", "--bits", 32, "-o", out]) == 0
        assert out.read_bytes() == b"\xde\xad\xbe\xef"

    def test_extract_to_stdout(self, carrier_ascii, tmp_path, capsysbinary):
        stego = tmp_path / "stego.stl"
        run_cli(["embed", carrier_ascii, "--channel", "vertex", "--payload-hex", "ff00", "-o", stego])
        assert run_cli(["extract", stego, "--channel", "vertex", "--bits", 16]) == 0
        assert capsysbinary.readouterr().out == b"\xff\x00"

    @pytest.mark.parametrize(
        "verb_args",
        [
            ["embed", "--channel", "number", "--payload-hex", "ff"],
            ["extract", "--channel", "whitespace"],
        ],
        ids=["embed-number", "extract-whitespace"],
    )
    def test_text_channel_needs_ascii_carrier(self, verb_args, carrier_binary, tmp_path):
        verb, *options = verb_args
        code = run_cli([verb, carrier_binary, *options, "-o", tmp_path / "x.stl"])
        assert code == 3

    def test_text_channel_refuses_binary_output(self, carrier_ascii, tmp_path):
        code = run_cli(
            ["embed", carrier_ascii, "--channel", "whitespace", "--payload-hex", "ff",
             "--format", "binary", "-o", tmp_path / "x.stl"]
        )
        assert code == 2

    def test_text_channel_names_the_line_of_a_truncated_file(
        self, carrier_ascii, tmp_path, capsys, monkeypatch
    ):
        truncated = tmp_path / "truncated.stl"
        truncated.write_bytes(carrier_ascii.read_bytes()[:300])
        explained = []
        original = stl_io._explain_rejection

        def counted(text):
            explained.append(len(text))
            return original(text)

        monkeypatch.setattr(stl_io, "_explain_rejection", counted)
        assert run_cli(["extract", truncated, "--channel", "number"]) == 2
        assert re.search(r"line \d+: ", capsys.readouterr().err)
        assert explained == [300]  # the malformed text is read once

    def test_capacity_exceeded(self, carrier_ascii, tmp_path):
        code = run_cli(
            ["embed", carrier_ascii, "--channel", "facet",
             "--payload-hex", "00" * 100, "-o", tmp_path / "x.stl"]
        )
        assert code == 3
        assert not (tmp_path / "x.stl").exists()

    def test_number_payload_survives_in_raw_text(self, lucy_text, tmp_path):
        src = tmp_path / "lucy.stl"
        src.write_text(lucy_text)
        stego = tmp_path / "stego.stl"
        assert run_cli(["embed", src, "--channel", "number", "--payload-hex", "abcd",
                        "--bits", 16, "-o", stego]) == 0
        text = stego.read_text()
        # untouched regions of the raw file survive verbatim
        assert "endsolid StanfordLucy" in text
        assert text.count("facet normal") == 2


class TestSanitize:
    def test_breaks_embedded_payload(self, carrier_ascii, tmp_path, capsysbinary):
        stego = tmp_path / "stego.stl"
        clean = tmp_path / "clean.stl"
        run_cli(["embed", carrier_ascii, "--channel", "facet",
                 "--payload-hex", "ab" * 20, "-o", stego])
        assert run_cli(["sanitize", stego, "-o", clean]) == 0
        run_cli(["extract", clean, "--channel", "facet", "--bits", 160])
        extracted = capsysbinary.readouterr().out
        original = bytes.fromhex("ab" * 20)
        agreement = sum(
            (a ^ b ^ 0xFF).bit_count() for a, b in zip(extracted, original)
        ) / 160
        assert 0.25 <= agreement <= 0.75

    def test_seed_is_not_a_sanitize_option(self, carrier_ascii, tmp_path, capsys):
        # the one seeding option is --insecure-seed, whose name says the output is unsafe
        code = run_cli(["sanitize", carrier_ascii, "--seed", 5, "-o", tmp_path / "x.stl"])
        assert code == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "x.stl").exists()

    def test_insecure_seed_needs_a_value(self, carrier_ascii, tmp_path):
        code = run_cli(["sanitize", carrier_ascii, "-o", tmp_path / "x.stl", "--insecure-seed"])
        assert code == 1
        assert not (tmp_path / "x.stl").exists()

    def test_seeded_run_is_deterministic(self, carrier_ascii, tmp_path):
        outs = []
        for name in ("a.stl", "b.stl"):
            path = tmp_path / name
            assert run_cli(["sanitize", carrier_ascii, "--insecure-seed", 5, "-o", path]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_format_override(self, carrier_ascii, tmp_path):
        out = tmp_path / "clean.stl"
        assert run_cli(["sanitize", carrier_ascii, "--format", "binary", "-o", out]) == 0
        assert parse_bytes(out.read_bytes()).source_format is StlFormat.BINARY

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_output_mode_follows_umask(self, umask, mode, tmp_path):
        mesh = tmp_path / "mesh.stl"
        clean = tmp_path / "clean.stl"
        old = os.umask(umask)
        try:
            assert run_cli(["gen-mesh", "--subdivisions", 0, "-o", mesh]) == 0
            assert run_cli(["sanitize", mesh, "-o", clean]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(mesh.stat().st_mode) == mode
        assert stat.S_IMODE(clean.stat().st_mode) == mode

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_writes_never_change_the_process_umask(self, umask, mode, tmp_path, monkeypatch):
        # a file another thread creates during the write must get the
        # process umask, so the CLI must not set it, even for a moment
        def umask_changed(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        mesh = tmp_path / "mesh.stl"
        clean = tmp_path / "clean.stl"
        old = os.umask(umask)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", umask_changed)
                assert run_cli(["gen-mesh", "--subdivisions", 0, "-o", mesh]) == 0
                assert run_cli(["sanitize", mesh, "-o", clean]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(mesh.stat().st_mode) == mode
        assert stat.S_IMODE(clean.stat().st_mode) == mode

    def test_a_failed_replace_leaves_the_target_and_no_temporary(
        self, carrier_ascii, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "clean.stl"
        out.write_bytes(b"earlier output")

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        assert run_cli(["sanitize", carrier_ascii, "-o", out]) == 1
        assert capsys.readouterr().err == f"stlstego: error: cannot replace {out}\n"
        assert out.read_bytes() == b"earlier output"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_partial_output_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.stl"
        bad.write_bytes(b"solid truncated\n  facet normal 0 0 1\n")
        out = tmp_path / "clean.stl"
        assert run_cli(["sanitize", bad, "-o", out]) == 2
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        assert "line 3: unexpected end of input, expected 'outer loop'" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_reports_and_passes_gates(self, carrier_ascii, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = run_cli(
            ["evaluate", carrier_ascii, "--channel", "vertex", "--bits", 160,
             "--trials", 60, "--seed", 11, "-o", out_dir]
        )
        stdout = capsys.readouterr().out
        assert (out_dir / "matrix.csv").exists()
        assert (out_dir / "stats.csv").exists()
        assert (out_dir / "histogram.svg").exists()
        assert "mean survival" in stdout
        assert "gate" in stdout
        assert code == 0

    def test_a_failed_render_leaves_earlier_results(self, carrier_ascii, tmp_path, monkeypatch):
        # every file is rendered before the first is written
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        stale = {name: f"stale {name}".encode() for name in ("matrix.csv", "stats.csv", "histogram.svg")}
        for name, data in stale.items():
            (out_dir / name).write_bytes(data)

        def broken(*args, **kwargs):
            raise RuntimeError("chart failed")

        monkeypatch.setattr(evaluation, "_render_chart", broken)
        with pytest.raises(RuntimeError, match="chart failed"):
            run_cli(["evaluate", carrier_ascii, "--channel", "facet", "--bits", 16,
                     "--trials", 2, "--seed", 5, "-o", out_dir])
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == stale

    def test_capacity_is_computed_once(self, carrier_ascii, tmp_path, monkeypatch):
        # once per experiment, by the check inside its one embed: neither the
        # experiment nor a trial calls capacity() as well
        calls = []
        original = channels.capacity

        def counted(carrier, channel):
            calls.append(channel)
            return original(carrier, channel)

        for module in (channels, evaluation, cli):
            monkeypatch.setattr(module, "capacity", counted, raising=False)
        code = run_cli(
            ["evaluate", carrier_ascii, "--channel", "robust-pair", "--bits", 16,
             "--trials", 2, "--seed", 5, "-o", tmp_path / "r"]
        )
        assert code in (0, 1)  # two trials may fail a gate
        assert calls == []

    def test_a_pass_replaced_in_sanitize_is_the_one_evaluated(self, tmp_path, monkeypatch, capsys):
        # the identity normal pass, installed only where sanitize_all finds it,
        # leaks every payload-1 bit through the trials
        monkeypatch.setattr(sanitize, "sanitize_normal_channel", lambda model: model)
        code = run_cli(["evaluate", "--channel", "normal", "--bits", 64, "--trials", 4,
                        "--seed", 5, "-o", tmp_path / "r"])
        assert code == 1
        assert "gate FAIL: every bit reads 0" in capsys.readouterr().out

    def test_capacity_error_exit_code(self, carrier_ascii, tmp_path, capsys):
        code = run_cli(
            ["evaluate", carrier_ascii, "--channel", "facet", "--bits", 100000,
             "--trials", 2, "-o", tmp_path / "r"]
        )
        assert code == 3
        assert "payload needs 100000 bits but the facet channel holds" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_reads_the_file_that_capacity_reads(self, carrier_ascii, tmp_path, capsys):
        # without indents the whitespace channel holds nothing, for evaluate as for capacity
        flat = tmp_path / "flat.stl"
        flat.write_text(re.sub(r"(?m)^[ \t]+", "", carrier_ascii.read_text()))
        assert run_cli(["capacity", flat]) == 0
        assert "whitespace            0\n" in capsys.readouterr().out
        code = run_cli(["evaluate", flat, "--channel", "whitespace", "--bits", 8,
                        "--trials", 2, "--seed", 5, "-o", tmp_path / "r"])
        assert code == 3
        assert "payload needs 8 bits but the whitespace channel holds 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_an_error_inside_a_trial_propagates(self, carrier_ascii, tmp_path, monkeypatch):
        # only a CapacityExceededError is a capacity error, exit 3
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(evaluation, "extract", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run_cli(["evaluate", carrier_ascii, "--channel", "facet", "--bits", 16,
                     "--trials", 2, "--seed", 5, "-o", tmp_path / "r"])
        assert not (tmp_path / "r").exists()


class TestUsageErrors:
    def test_no_arguments(self):
        assert run_cli([]) == 1

    def test_unknown_channel(self, carrier_ascii, tmp_path):
        assert run_cli(["embed", carrier_ascii, "--channel", "bogus",
                        "--payload-hex", "ff", "-o", tmp_path / "x.stl"]) == 1

    def test_missing_input_file(self, tmp_path):
        assert run_cli(["capacity", tmp_path / "nope.stl"]) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["sanitize", "{ascii}", "-o", "{dir}"],
            ["evaluate", "{ascii}", "--channel", "facet", "--bits", "8", "--trials", "2",
             "--seed", "1", "-o", "{file}"],
            ["sanitize", "{ascii}", "-o", "{file}/x.stl"],
            ["capacity", "{dir}"],
        ],
        ids=["sanitize-to-directory", "evaluate-to-file", "sanitize-under-file",
             "capacity-of-directory"],
    )
    def test_unusable_path(self, args, carrier_ascii, tmp_path, capsys):
        # an OS error on a path is one line on stderr and exit 1, as a missing file is
        directory = tmp_path / "dir"
        directory.mkdir()
        (directory / "kept.txt").write_bytes(b"kept")
        file = tmp_path / "file"
        file.write_bytes(b"earlier output")
        argv = [a.format(ascii=carrier_ascii, dir=directory, file=file) for a in args]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("stlstego: error: [Errno ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert file.read_bytes() == b"earlier output"
        assert [p.name for p in directory.iterdir()] == ["kept.txt"]
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["extract", "{ascii}", "--channel", "facet", "--bits", "-1", "-o", "{out}"],
            ["embed", "{ascii}", "--channel", "facet", "--payload-hex", "cafe", "--bits", "-3",
             "-o", "{out}"],
            ["gen-mesh", "--subdivisions", "9", "-o", "{out}"],
            ["evaluate", "--channel", "facet", "--trials", "0", "-o", "{out}"],
            ["evaluate", "--channel", "facet", "--bits", "-4", "-o", "{out}"],
            ["evaluate", "--channel", "facet", "--bits", "0", "--trials", "1", "--seed", "1",
             "-o", "{out}"],
        ],
        ids=["extract-bits", "embed-bits", "gen-mesh-subdivisions", "evaluate-trials",
             "evaluate-bits", "evaluate-zero-bits"],
    )
    def test_out_of_range_count(self, args, carrier_ascii, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli([a.format(ascii=carrier_ascii, out=out) for a in args]) == 1
        err = capsys.readouterr().err
        assert "error: argument" in err
        assert not out.exists()

    def test_bad_hex_payload(self, carrier_ascii, tmp_path):
        assert run_cli(["embed", carrier_ascii, "--channel", "facet",
                        "--payload-hex", "zz", "-o", tmp_path / "x.stl"]) == 2
