"""The CLI gives the golden corpus byte for byte: every vector's exit code,
stdout, stderr and the sha256 of each file it writes.  A change that moves
bits by design rewrites the corpus with ``python3 tests/golden.py``."""

import time

import golden


def test_the_corpus_holds_every_vector():
    assert [tuple(entry["argv"]) for entry in golden.load()] == golden.VECTORS


def test_every_vector_replays_its_outcome():
    start = time.perf_counter()
    outcomes = golden.replay(golden.VECTORS)
    assert time.perf_counter() - start < 5.0
    for expected, outcome in zip(golden.load(), outcomes):
        assert outcome == expected, expected["argv"]
