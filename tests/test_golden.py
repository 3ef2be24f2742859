"""Every bit of a fixed corpus of reports, against recorded digests.

See `golden.py` for the corpus and for how the digests are recorded.
"""

import json

import pytest

from golden import GOLDEN, corpus, digest, platform_probe


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests():
    return [(case, digest(rep)) for case, rep in corpus()]


def test_corpus_is_the_recorded_one(golden, digests):
    assert [case for case, _ in digests] == golden["cases"]


def test_report_bits_match_the_recorded_digests(golden, digests):
    probe = platform_probe()
    entry = golden["platforms"].get(probe)
    if entry is None:
        recorded = {key: value["recorded_with"] for key, value in golden["platforms"].items()}
        pytest.skip(f"the numpy/BLAS primitives round differently here (probe {probe}); recorded: {recorded}")
    expected = dict(zip(golden["cases"], entry["digests"]))
    drifted = [case for case, value in digests if expected.get(case) != value]
    assert not drifted, f"{len(drifted)} of {len(digests)} reports drifted, first: {drifted[:8]}"
