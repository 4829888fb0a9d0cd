"""Seeded benchmark inputs: stego STL files and a plan of the ops to run.

Geometry comes only from `stlstego.generate_test_mesh`. Everything else is
drawn from the seed: facet order, the payloads of the facet, vertex and
normal channels, attribute words, number notation, indentation, line
endings, headers and names. The files are written with numpy here, not
with the program's writers, and the values the checks need are stored
next to them.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from verify import (
    INDENT_WIDTHS,
    RECORD,
    canonical_rows,
    channel_capacities,
    extreme_vertex,
    lex_less,
    positional,
    rhr_normals,
    rotate_to,
    sorted_rows,
)

# Files per subdivision level in one pass. A pass takes 6 to 16 s on a
# 2-vCPU Xeon VM, so a 12 s run is one pass, and ten seeded runs of every
# workload, twice over, fit in an hour even when that machine runs at half
# speed. The sanitize passes hold ten files and stego-text 25 verbs, so the
# percentile op_tail_ms reports falls in a fixed size class. The small
# plans are the smoke test's: the smallest size of each workload.
SANITIZE_ASCII = {3: 8, 4: 1, 5: 1}
SANITIZE_BINARY = {4: 7, 5: 2, 6: 1}
STEGO_TEXT = {3: 4, 4: 1}
SMALL = {"sanitize-ascii": {3: 2}, "sanitize-binary": {4: 2}, "stego-text": {3: 1}}
# Trials per channel. The facet variance gate needs the most: with 250
# trials its false-alarm rate is about 0.05 % per run; the other gates
# are several standard deviations from their bounds at 10 trials.
SURVIVAL_TRIALS = {"facet": 250, "vertex": 20, "normal": 20, "robust-pair": 20}
SMALL_SURVIVAL_TRIALS = {"facet": 250, "vertex": 10, "normal": 10, "robust-pair": 10}
PAYLOAD_BITS = 1024
# Share of the files of each size that take the slower variant: CRLF line
# endings in ASCII, a header starting with "solid " in binary. The count per
# size is fixed (rounded half up), only which files take it is seeded, so
# every seed measures the same mix.
CRLF_SHARE = 1 / 3
SOLID_HEADER_SHARE = 1 / 2

_NAME_WORDS = ("bracket", "Housing", "gear", "Mount", "clip", "hinge")


def build(workload: str, seed: int, work: Path, small: bool = False) -> dict:
    """Write the inputs of one workload under `work` and return its plan."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    maker = _Maker(work, rng)
    if workload == "sanitize-ascii":
        plan = maker.sanitize("ascii", SMALL[workload] if small else SANITIZE_ASCII)
    elif workload == "sanitize-binary":
        plan = maker.sanitize("binary", SMALL[workload] if small else SANITIZE_BINARY)
    elif workload == "stego-text":
        plan = maker.stego_text(SMALL[workload] if small else STEGO_TEXT)
    elif workload == "survival":
        plan = maker.survival(SMALL_SURVIVAL_TRIALS if small else SURVIVAL_TRIALS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan.update(workload=workload, seed=seed, work=str(work))
    (work / "plan.json").write_text(json.dumps(plan))
    return plan


def _binary_stl(header: str, vertices, normals, attrs) -> bytes:
    records = np.zeros(len(vertices), dtype=RECORD)
    records["normal"] = normals
    records["v1"], records["v2"], records["v3"] = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    records["attr"] = attrs
    head = header.encode("ascii")[:80].ljust(80, b"\x00")
    return head + struct.pack("<I", len(vertices)) + records.tobytes()


class _Maker:
    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.meshes: dict[int, np.ndarray] = {}
        self.count = 0
        (work / "out").mkdir(parents=True, exist_ok=True)

    def mesh(self, level: int) -> np.ndarray:
        if level not in self.meshes:
            from stlstego import generate_test_mesh

            model = generate_test_mesh(level)
            self.meshes[level] = np.array([f.vertices for f in model.facets], dtype=np.float32)
        return self.meshes[level]

    def path(self, stem: str) -> str:
        self.count += 1
        return str(self.work / f"{self.count:03d}-{stem}")

    def name(self) -> str:
        word = _NAME_WORDS[self.rng.integers(len(_NAME_WORDS))]
        return f"{word} {self.rng.integers(1000)} rev-{'abc'[self.rng.integers(3)]}"

    def stego_model(self, level: int):
        """Vertices and normals of a mesh carrying random payloads in the
        facet, vertex and normal channels, in a random facet order."""
        rng = self.rng
        v = self.mesh(level)
        v = v[rng.permutation(len(v))]
        # facet channel: bit 1 puts the greater canonical facet of a pair first
        rows = canonical_rows(v)
        half = len(v) // 2
        greater_first = lex_less(rows[1 : 2 * half : 2], rows[0 : 2 * half : 2])
        swap = np.flatnonzero(greater_first != rng.integers(0, 2, half).astype(bool))
        order = np.arange(len(v))
        order[2 * swap], order[2 * swap + 1] = 2 * swap + 1, 2 * swap
        v = v[order]
        # vertex channel: bit 1 lists the largest vertex first, bit 0 the smallest
        bits = rng.integers(0, 2, len(v)).astype(bool)
        v = rotate_to(v, np.where(bits, extreme_vertex(v, True), extreme_vertex(v, False)))
        # normal channel: bit 1 stores the negated right-hand-rule normal
        normals = rhr_normals(v)
        flip = rng.integers(0, 2, len(v)).astype(bool)
        normals[flip] = np.float32(0.0) - normals[flip]
        return v, normals

    def ascii_file(self, level: int, crlf: bool) -> dict:
        rng = self.rng
        v, normals = self.stego_model(level)
        n = len(v)
        values = np.concatenate([normals[:, None, :], v], axis=1).reshape(n, 12)
        unique, inverse = np.unique(values.reshape(-1), return_inverse=True)
        standard = np.array([positional(u) for u in unique], dtype=object)
        scientific = np.array(
            [np.format_float_scientific(u, unique=True, trim="-") for u in unique], dtype=object
        )
        scientific_bit = rng.integers(0, 2, inverse.size).astype(bool)
        tokens = np.where(scientific_bit, scientific[inverse], standard[inverse]).reshape(n, 12)
        tab = rng.integers(0, 2, (n, 7)).tolist()
        indents = [(" " * w, "\t" * w) for w in INDENT_WIDTHS]
        name = self.name()
        lines = [f"solid {name}"]
        for row, tabs in zip(tokens.tolist(), tab):
            i = [indents[k][t] for k, t in enumerate(tabs)]
            lines += [
                f"{i[0]}facet normal {row[0]} {row[1]} {row[2]}",
                f"{i[1]}outer loop",
                f"{i[2]}vertex {row[3]} {row[4]} {row[5]}",
                f"{i[3]}vertex {row[6]} {row[7]} {row[8]}",
                f"{i[4]}vertex {row[9]} {row[10]} {row[11]}",
                f"{i[5]}endloop",
                f"{i[6]}endfacet",
            ]
        lines.append(f"endsolid {name}")
        eol = "\r\n" if crlf else "\n"
        path = self.path(f"ico{level}.stl")
        Path(path).write_bytes((eol.join(lines) + eol).encode("ascii"))
        return {"path": path, "facets": n, "vertices": v, "values": values,
                "variant": "crlf" if crlf else "lf"}

    def binary_file(self, level: int, solid: bool) -> dict:
        rng = self.rng
        v, normals = self.stego_model(level)
        attrs = rng.integers(1, 1 << 16, len(v))
        name = self.name()
        # Many CAD exporters start the binary header with "solid ", which
        # makes format detection try the ASCII reading first.
        header = f"solid {name}".ljust(80) if solid else name
        path = self.path(f"ico{level}.stl")
        Path(path).write_bytes(_binary_stl(header, v, normals, attrs))
        return {"path": path, "facets": len(v), "vertices": v,
                "variant": "solid-header" if solid else "plain-header"}

    def expect_rows(self, made: dict) -> str:
        path = made["path"] + ".rows.npy"
        np.save(path, sorted_rows(canonical_rows(made["vertices"])))
        return path

    def layout(self, files: dict[int, int], share: float) -> list[tuple[int, bool]]:
        """(level, slower variant) of each file, in a seeded order."""
        jobs = [(level, i < int(count * share + 0.5))
                for level, count in files.items() for i in range(count)]
        return [jobs[k] for k in self.rng.permutation(len(jobs))]

    def sanitize(self, fmt: str, files: dict[int, int]) -> dict:
        make = self.ascii_file if fmt == "ascii" else self.binary_file
        share = CRLF_SHARE if fmt == "ascii" else SOLID_HEADER_SHARE
        # the warm-up file takes the slower variant, so its path has run once
        warm = make(min(files), True)
        ops = []
        for level, variant in self.layout(files, share):
            made = make(level, variant)
            output = self.out("{p}", len(ops))
            ops.append({
                "kind": "sanitize",
                "argv": ["sanitize", made["path"], "-o", output],
                "input": made["path"],
                "output": output,
                "facets": made["facets"],
                "variant": made["variant"],
                "format": fmt,
                "expect": self.expect_rows(made),
            })
        return {
            "ops": ops,
            "warmup": {"kind": "sanitize", "argv": ["sanitize", warm["path"], "-o",
                                                    str(self.work / "out" / "warm.stl")],
                       "input": warm["path"], "facets": warm["facets"]},
            "text_inputs": [op["input"] for op in ops] if fmt == "ascii" else [],
            "largest": max(ops, key=lambda op: op["facets"])["input"],
        }

    def out(self, p: str, slot: int, stem: str = "out") -> str:
        return str(self.work / "out" / f"p{p}-{slot:03d}-{stem}")

    def payload(self, bits: int) -> str:
        path = self.path("payload.bin")
        Path(path).write_bytes(self.rng.bytes((bits + 7) // 8))
        return path

    def stego_text(self, files: dict[int, int]) -> dict:
        ops, sources = [], []
        for level, crlf in self.layout(files, CRLF_SHARE):
            made = self.ascii_file(level, crlf)
            src, n = made["path"], made["facets"]
            sources.append(src)
            values = made["path"] + ".values.npy"
            np.save(values, made["values"])
            k_num, k_ws = 12 * n, 7 * n
            num_payload, ws_payload = self.payload(k_num), self.payload(k_ws)
            slot = len(ops)
            num_doc, num_bits = self.out("{p}", slot, "number.stl"), self.out("{p}", slot, "number.bin")
            ws_doc, ws_bits = self.out("{p}", slot, "space.stl"), self.out("{p}", slot, "space.bin")
            common = {"facets": n, "values": values, "variant": made["variant"]}
            ops += [
                {"kind": "capacity", "argv": ["capacity", src], "input": src,
                 "capacity": channel_capacities(made["vertices"]), **common},
                {"kind": "embed", "argv": ["embed", src, "--channel", "number", "--payload",
                                           num_payload, "--bits", str(k_num), "-o", num_doc],
                 "input": src, "output": num_doc,
                 "carries": {"number": [num_payload, k_num]}, **common},
                {"kind": "extract", "argv": ["extract", num_doc, "--channel", "number",
                                             "--bits", str(k_num), "-o", num_bits],
                 "input": num_doc, "output": num_bits, "payload": [num_payload, k_num],
                 **common},
                {"kind": "embed", "argv": ["embed", num_doc, "--channel", "whitespace",
                                           "--payload", ws_payload, "--bits", str(k_ws),
                                           "-o", ws_doc],
                 "input": num_doc, "output": ws_doc,
                 "carries": {"number": [num_payload, k_num], "whitespace": [ws_payload, k_ws]},
                 **common},
                {"kind": "extract", "argv": ["extract", ws_doc, "--channel", "whitespace",
                                             "--bits", str(k_ws), "-o", ws_bits],
                 "input": ws_doc, "output": ws_bits, "payload": [ws_payload, k_ws], **common},
            ]
        smallest = min(range(len(sources)), key=lambda i: ops[5 * i]["facets"])
        return {"ops": ops, "warmup": ops[5 * smallest], "text_inputs": sources,
                "largest": max(ops, key=lambda op: op["facets"])["input"]}

    def survival(self, trials: dict[str, int]) -> dict:
        v = self.mesh(4)
        carrier = self.path("carrier.stl")
        Path(carrier).write_bytes(_binary_stl("icosphere_4", v, rhr_normals(v), 0))
        experiments = [
            {"channel": str(channel), "trials": trials[channel], "bits": PAYLOAD_BITS,
             "seed": int(self.rng.integers(1 << 32))}
            for channel in self.rng.permutation(sorted(trials))
        ]
        return {"carrier": carrier, "carrier_bytes": 84 + 50 * len(v), "facets": len(v),
                "experiments": experiments, "warmup_seed": int(self.rng.integers(1 << 32)),
                "text_inputs": [], "largest": None}
