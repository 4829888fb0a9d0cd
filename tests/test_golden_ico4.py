"""Golden hashes of seeded experiments at the survival benchmark's size.

The 5,120-facet icosphere, 1,024 bits x 20 trials, for each model channel:
the payload and survival matrix, and each result file's bytes. The hashes
were recorded before facets compared by geometry rank and before
`result_files` built its rows in bulk; both changes keep every byte.
"""
import hashlib

import pytest

from stlstego import ChannelId, TrialConfig, generate_test_mesh, result_files, run_experiment


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def carrier():
    return generate_test_mesh(4)


GOLDEN = {
    ChannelId.FACET: ("d8bf6c77c4e2d164", {
        "matrix.csv": "ddaf6847dcb214f7", "stats.csv": "e98a1d121944d9fd",
        "histogram.svg": "13e4470144a19255"}),
    ChannelId.VERTEX: ("7272e911ba4b645e", {
        "matrix.csv": "86ed84a8a0d162d7", "stats.csv": "e48551318dd3e20f",
        "histogram.svg": "f80c29962b3bcc65"}),
    ChannelId.NORMAL: ("2fc5281939a7da19", {
        "matrix.csv": "9e6ee883c6fbd91d", "stats.csv": "485ec1112adedccb",
        "histogram.svg": "39827a9cb5235f64"}),
    ChannelId.ROBUST_PAIR: ("0265afb52892a89f", {
        "matrix.csv": "512c06f8ff271f61", "stats.csv": "1e7ed3bc9fd53c03",
        "histogram.svg": "541d95002de02269"}),
}


@pytest.mark.parametrize("channel", list(GOLDEN), ids=lambda c: c.value)
def test_seeded_experiment_at_benchmark_size(channel, carrier):
    cfg = TrialConfig(channel=channel, carrier=carrier, payload_bits=1024, trials=20, seed=104)
    matrix, stats = run_experiment(cfg)
    cells, files = GOLDEN[channel]
    assert digest(bytes(matrix.payload.bits) + matrix.cells.tobytes()) == cells
    assert {name: digest(data) for name, data in result_files(matrix, stats).items()} == files
