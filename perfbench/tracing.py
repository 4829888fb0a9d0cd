"""Spans around the calls into each stlstego module, and the per-layer
metrics derived from them.

`Tracer.install` replaces the package's public functions with wrappers
defined here, in every stlstego module that holds a reference to them, so
calls between modules are recorded too; `uninstall` puts the originals
back. Nothing inside the package changes. A span is (name, start, end,
parent, op id, attributes, RNG draws); a layer's self time is its span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _nbytes(args, result):
    return {"bytes": len(args[0])}


def _channel(args, result):
    return {"channel": args[1].value}


def _trial_channel(args, result):
    return {"channel": args[0].channel.value}


def _verb(args, result):
    return {"verb": args[0][0]}


def _pieces(args, result):
    # the piece count is private state; report 0 if a refactor renames it
    return {"pieces": len(getattr(args[0], "_pieces", ()))}


# (module, attribute, span name, attributes of the call)
_FUNCTIONS = [
    ("stl_io", "detect_format", "stl_io.detect_format", _nbytes),
    ("stl_io", "parse_ascii", "stl_io.parse_ascii", _nbytes),
    ("stl_io", "parse_binary", "stl_io.parse_binary", _nbytes),
    ("stl_io", "parse_bytes", "stl_io.parse_bytes", None),
    ("stl_io", "write_canonical_ascii", "stl_io.write_canonical_ascii", None),
    ("stl_io", "write_binary", "stl_io.write_binary", None),
    ("stl_io", "serialize", "stl_io.serialize", None),
    ("sanitize", "sanitize_all", "sanitize.sanitize_all", None),
    ("sanitize", "sanitize_model", "sanitize.sanitize_model", None),
    ("sanitize", "sanitize_facet_channel", "sanitize.shuffle", None),
    ("sanitize", "sanitize_vertex_channel", "sanitize.rotate", None),
    ("sanitize", "sanitize_normal_channel", "sanitize.normals", None),
    ("channels", "capacity", "channels.capacity", _channel),
    ("channels", "embed", "channels.embed", _channel),
    ("channels", "extract", "channels.extract", _channel),
    ("evaluation", "run_trial", "evaluation.run_trial", _trial_channel),
    ("evaluation", "compute_stats", "evaluation.compute_stats", None),
    ("evaluation", "statistical_gates", "evaluation.statistical_gates", None),
    ("cli", "main", "cli.main", _verb),
]

# (module, class, attribute, span name, attributes of the call)
_METHODS = [
    ("rawdoc", "RawAsciiDocument", "__init__", "rawdoc.build", _pieces),
    ("rawdoc", "RawAsciiDocument", "with_number_tokens", "rawdoc.rewrite", None),
    ("rawdoc", "RawAsciiDocument", "with_indent_runs", "rawdoc.rewrite", None),
    ("bits", "BitSequence", "__init__", "bits", None),
    ("bits", "BitSequence", "from_bytes", "bits", None),
    ("bits", "BitSequence", "to_bytes", "bits", None),
    ("bits", "BitSequence", "random", "bits", None),
]


class Tracer:
    """Records spans in memory while installed; `op` names the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.draws = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, None, tracer.draws]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                span[6] = tracer.draws - span[6]
                if attrs is not None:
                    span[5] = attrs(args, result)

        return traced

    def install(self) -> None:
        import stlstego
        # load every module, so that each one's references get wrapped
        from stlstego import bits, channels, cli, evaluation, rawdoc, sanitize, stl_io  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "stlstego" or n.startswith("stlstego.")]
        for mod, attr, name, attrs in _FUNCTIONS:
            original = getattr(getattr(stlstego, mod), attr)
            wrapped = self._wrap(name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for mod, cls_name, attr, name, attrs in _METHODS:
            cls = getattr(getattr(stlstego, mod), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, attrs)))
            else:
                self._set(cls, attr, self._wrap(name, raw, attrs))

        randbelow = sanitize.RandomSource.__dict__["randbelow"]

        def counted(rng, n):
            self.draws += 1
            return randbelow(rng, n)

        self._set(sanitize.RandomSource, "randbelow", counted)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# --- per-layer metrics -------------------------------------------------------

MODEL_CHANNELS = ("facet", "vertex", "normal", "robust-pair")
CHANNELS = ("facet", "vertex", "normal", "number", "whitespace", "robust-pair")
CLI_VERBS = ("sanitize", "capacity", "embed", "extract")

_SELF_BUCKETS = {
    "stl_io.detect_format": "stl_io.detect_s",
    "stl_io.parse_binary": "stl_io.parse_binary_s",
    "stl_io.write_canonical_ascii": "stl_io.write_ascii_s",
    "stl_io.write_binary": "stl_io.write_binary_s",
    "sanitize.shuffle": "sanitize.shuffle_s",
    "sanitize.rotate": "sanitize.rotate_s",
    "sanitize.normals": "sanitize.normals_s",
    "sanitize.sanitize_all": "sanitize.glue_s",
    "rawdoc.build": "rawdoc.build_s",
    "rawdoc.rewrite": "rawdoc.rewrite_s",
    "evaluation.compute_stats": "evaluation.stats_s",
    "evaluation.statistical_gates": "evaluation.gates_s",
    "bits": "bits.s",
    "cli.main": "cli.overhead_s",
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [
        "stl_io.detect_s", "stl_io.parse_ascii_s", "stl_io.parse_ascii_mb_s",
        "stl_io.parse_binary_s", "stl_io.parse_binary_mb_s", "stl_io.write_ascii_s",
        "stl_io.write_binary_s", "stl_io.parse_peak_x",
        "floatfmt.tokens", "floatfmt.unique_share", "floatfmt.parse_s", "floatfmt.format_s",
        "sanitize.shuffle_s", "sanitize.rotate_s", "sanitize.normals_s", "sanitize.glue_s",
        "sanitize.rng_draws", "sanitize.rng_s",
        "rawdoc.build_s", "rawdoc.rewrite_s", "rawdoc.pieces",
    ]
    for ch in CHANNELS:
        names += [f"channels.{ch}.capacity_s", f"channels.{ch}.embed_s", f"channels.{ch}.extract_s"]
    names += [f"evaluation.{ch}.trial_ms" for ch in MODEL_CHANNELS]
    names += ["evaluation.stats_s", "evaluation.gates_s", "bits.s"]
    names += [f"cli.{verb}_s" for verb in CLI_VERBS] + ["cli.overhead_s", "trace.overhead_pct"]
    return names


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass; those not derived from spans read 0.

    `_s` metrics are seconds of self time per pass. The parse done inside
    format detection counts as detection. `evaluation.<ch>.trial_ms` is the
    mean wall time of one trial, `cli.<verb>_s` the wall time of that verb
    per pass, and `cli.overhead_s` what `cli.main` spends outside the
    library calls it makes (argparse, file read, atomic write).
    """
    out = dict.fromkeys(metric_names(), 0.0)
    own = self_times(spans)
    parse_bytes = defaultdict(int)
    trials = defaultdict(list)
    for i, (name, start, end, parent, op, attrs, draws) in enumerate(spans):
        if name == "stl_io.parse_ascii":
            in_detect = parent >= 0 and spans[parent][0] == "stl_io.detect_format"
            key = "stl_io.detect_s" if in_detect else "stl_io.parse_ascii_s"
            if not in_detect:
                parse_bytes["ascii"] += attrs["bytes"]
        elif name.startswith("channels."):
            key = f"channels.{attrs['channel']}.{name.split('.')[1]}_s"
        else:
            key = _SELF_BUCKETS.get(name)
        if key is not None:
            out[key] += own[i]
        if name == "stl_io.parse_binary":
            parse_bytes["binary"] += attrs["bytes"]
        elif name == "evaluation.run_trial":
            trials[attrs["channel"]].append(end - start)
        elif name == "cli.main":
            out[f"cli.{attrs['verb']}_s"] += end - start
        elif name == "rawdoc.build":
            out["rawdoc.pieces"] += attrs["pieces"]
    for fmt in ("ascii", "binary"):
        seconds = out[f"stl_io.parse_{fmt}_s"]
        out[f"stl_io.parse_{fmt}_mb_s"] = parse_bytes[fmt] / 1e6 / seconds if seconds else 0.0
    for ch, durations in trials.items():
        out[f"evaluation.{ch}.trial_ms"] = statistics.fmean(durations) * 1e3
    return out


def sanitize_draws(spans: list) -> dict[int, int]:
    """RNG draws of the sanitize_all call of each op."""
    draws = defaultdict(int)
    for name, _, _, _, op, _, n in spans:
        if name == "sanitize.sanitize_all":
            draws[op] += n
    return draws
