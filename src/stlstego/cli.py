"""Command-line front end.

Exit codes: 0 success (for evaluate, all statistical gates passed), 1 usage
error, 2 parse or format error, 3 capacity or channel-availability error.
File outputs are written atomically (temp file plus rename), so a failing
run never leaves a partial file behind.
"""
from __future__ import annotations

import argparse
import os
import secrets
import sys
from pathlib import Path

from .bits import BitSequence
from .channels import CHANNELS, ChannelId, capacity, embed, extract, load_carrier
from .errors import (
    CapacityExceededError,
    ChannelUnavailableError,
    StlParseError,
    UnrecognizedFormatError,
)
from .evaluation import TrialConfig, emit_csv, emit_histogram, run_experiment, statistical_gates
from .icosphere import generate_test_mesh
from .model import StlFormat
from .sanitize import RandomSource, sanitize_all
from .stl_io import parse_bytes, serialize

_CHANNEL_NAMES = [c.value for c in ChannelId]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    def count(text: str) -> int:
        if (value := int(text)) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="stlstego", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-mesh", help="generate an icosphere test carrier")
    p.add_argument("--subdivisions", type=int, choices=range(7), default=4, help="20*4**n facets")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["ascii", "binary"], default="ascii")

    p = sub.add_parser("capacity", help="per-channel capacity of a file")
    p.add_argument("input")

    p = sub.add_parser("embed", help="hide payload bits in one channel")
    p.add_argument("input")
    p.add_argument("--channel", choices=_CHANNEL_NAMES, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--payload", help="file of payload bytes, bits taken MSB-first")
    group.add_argument("--payload-hex", help="payload as a hex string")
    p.add_argument("--bits", type=_at_least(0), help="payload bits (default: all of them)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["ascii", "binary", "preserve"], default="preserve")

    p = sub.add_parser("extract", help="read payload bits back from one channel")
    p.add_argument("input")
    p.add_argument("--channel", choices=_CHANNEL_NAMES, required=True)
    p.add_argument("--bits", type=_at_least(0), help="bit count (default: full channel capacity)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("sanitize", help="scrub every channel of a file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=["ascii", "binary", "preserve"], default="preserve")
    p.add_argument("--seed", type=int, help="deterministic randomness (evaluation only)")
    p.add_argument(
        "--insecure-seed",
        action="store_true",
        help="acknowledge that seeded sanitizing is reproducible and therefore unsafe",
    )

    p = sub.add_parser("evaluate", help="bit-survivability experiment on one channel")
    p.add_argument("input", nargs="?", help="carrier STL (default: built-in icosphere)")
    p.add_argument("--channel", choices=_CHANNEL_NAMES, required=True)
    p.add_argument("--bits", type=_at_least(1), default=1024)
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", default="eval-out", help="output directory")

    return parser


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # created as open() creates a file, so the umask (and any default ACL)
    # sets its mode; O_EXCL never reuses an existing file
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_gen_mesh(args) -> int:
    model = generate_test_mesh(args.subdivisions)
    fmt = StlFormat(args.format)
    _write_atomic(Path(args.output), serialize(model, fmt))
    print(f"wrote {args.output}: {len(model)} facets, {fmt.value}", file=sys.stderr)
    return 0


def _cmd_capacity(args) -> int:
    carrier = load_carrier(Path(args.input).read_bytes())
    print(f"{'channel':<12} {'capacity':>10}")
    for channel in ChannelId:
        try:
            bits = capacity(carrier, channel)
        except ChannelUnavailableError:
            bits = "unavailable"
        print(f"{channel.value:<12} {bits:>10}")
    return 0


def _load_payload(args) -> BitSequence:
    if args.payload_hex is not None:
        try:
            data = bytes.fromhex(args.payload_hex)
        except ValueError as exc:
            raise StlParseError(f"bad hex payload: {exc}") from None
    else:
        data = Path(args.payload).read_bytes()
    return BitSequence.from_bytes(data, args.bits)


def _cmd_embed(args) -> int:
    channel = ChannelId(args.channel)
    payload = _load_payload(args)
    carrier = load_carrier(Path(args.input).read_bytes())
    text = CHANNELS[channel].text
    if text and args.format == "binary":
        raise StlParseError(
            f"{channel.value} payloads live in the ASCII text; binary output would erase them"
        )
    stego = embed(carrier, channel, payload)
    if text:
        out = stego.text.encode("ascii")
    else:
        fmt = stego.source_format if args.format == "preserve" else StlFormat(args.format)
        out = serialize(stego, fmt)
    _write_atomic(Path(args.output), out)
    print(f"embedded {len(payload)} bits in {channel.value} channel", file=sys.stderr)
    return 0


def _cmd_extract(args) -> int:
    channel = ChannelId(args.channel)
    carrier = load_carrier(Path(args.input).read_bytes())
    k = args.bits if args.bits is not None else capacity(carrier, channel)
    bits = extract(carrier, channel, k)
    payload = bits.to_bytes()
    if args.output:
        _write_atomic(Path(args.output), payload)
    else:
        sys.stdout.buffer.write(payload)
    print(f"extracted {k} bits from {channel.value} channel", file=sys.stderr)
    return 0


def _cmd_sanitize(args) -> int:
    if args.seed is not None and not args.insecure_seed:
        raise _UsageError("--seed requires --insecure-seed (seeded output is reproducible)")
    rng = RandomSource.seeded(args.seed) if args.seed is not None else RandomSource.crypto()
    data = Path(args.input).read_bytes()
    fmt = None if args.format == "preserve" else StlFormat(args.format)
    out, report = sanitize_all(data, rng, output_format=fmt)
    _write_atomic(Path(args.output), out)
    print(
        f"sanitized {args.input}: {report.facets_shuffled} facets shuffled, "
        f"{report.vertices_rotated} rotated, {report.normals_recomputed} normals "
        f"recomputed, {report.attributes_zeroed} attributes zeroed, "
        f"written as {report.format_written.value}",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args) -> int:
    if args.input:
        carrier = parse_bytes(Path(args.input).read_bytes())
    else:
        carrier = generate_test_mesh(4)
    channel = ChannelId(args.channel)
    cfg = TrialConfig(
        channel=channel,
        carrier=carrier,
        payload_bits=args.bits,
        trials=args.trials,
        seed=args.seed,
    )
    try:
        matrix, stats = run_experiment(cfg)
    except ValueError as exc:  # run_experiment validates cfg first
        raise CapacityExceededError(str(exc)) from None
    out_dir = Path(args.output)
    emit_csv(matrix, stats, out_dir)
    emit_histogram(stats, out_dir / "histogram.svg")

    print(f"channel       : {channel.value}")
    print(f"trials x bits : {cfg.trials} x {cfg.payload_bits}")
    print(f"mean survival : {stats.mean_pct:.3f} %")
    print(f"variance      : {stats.variance_pct2:.3f}")
    for value in (0, 1):
        series = stats.per_bit_by_value[value]
        if len(series):
            print(f"per-bit mean, payload {value}: {float(series.mean()):.3f} %")
    if stats.arrangement_mean_pct is not None:
        print(f"arrangement unchanged : {stats.arrangement_mean_pct:.3f} %")
    if len(stats.ones_drift_per_trial):
        drift = stats.ones_drift_per_trial
        print(f"ones-count drift      : mean {drift.mean():+.2f}, sd {drift.std():.2f}")
    gates = statistical_gates(channel, stats)
    failed = [g for g in gates if not g.passed]
    for gate in gates:
        print(f"gate {'PASS' if gate.passed else 'FAIL'}: {gate.name} ({gate.detail})")
    print(f"results in {out_dir}/")
    return 1 if failed else 0


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-mesh": _cmd_gen_mesh,
        "capacity": _cmd_capacity,
        "embed": _cmd_embed,
        "extract": _cmd_extract,
        "sanitize": _cmd_sanitize,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.verb](args)
    except _UsageError as exc:
        print(f"stlstego: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"stlstego: error: {exc}", file=sys.stderr)
        return 1
    except (StlParseError, UnrecognizedFormatError, UnicodeDecodeError) as exc:
        print(f"stlstego: error: {exc}", file=sys.stderr)
        return 2
    except (CapacityExceededError, ChannelUnavailableError) as exc:
        print(f"stlstego: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
