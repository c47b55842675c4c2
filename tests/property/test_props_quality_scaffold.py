"""Hypothesis properties for the quality utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seqio.quality import (
    decode_phred,
    encode_phred,
    quality_filter,
    trim_tail,
)
from repro.seqio.records import FastqRecord

scores_strategy = st.lists(st.integers(0, 93), min_size=0, max_size=60)


@given(scores_strategy)
def test_phred_roundtrip(scores):
    assert decode_phred(encode_phred(scores)).tolist() == scores


@given(scores_strategy, st.integers(0, 93))
def test_trim_is_prefix(scores, threshold):
    rec = FastqRecord("r", "A" * len(scores), encode_phred(scores))
    out = trim_tail(rec, threshold)
    assert len(out) <= len(rec)
    assert rec.sequence.startswith(out.sequence)
    assert rec.quality.startswith(out.quality)


@given(scores_strategy, st.integers(0, 93))
def test_trim_idempotent(scores, threshold):
    rec = FastqRecord("r", "A" * len(scores), encode_phred(scores))
    once = trim_tail(rec, threshold)
    twice = trim_tail(once, threshold)
    assert once == twice


@given(scores_strategy)
def test_trim_removes_only_below_threshold_suffix_mass(scores):
    """The trimmed suffix must have mean quality below the threshold
    (otherwise trimming it could not have maximized the running sum)."""
    threshold = 20
    rec = FastqRecord("r", "A" * len(scores), encode_phred(scores))
    out = trim_tail(rec, threshold)
    cut = len(out)
    tail = scores[cut:]
    if tail:
        assert sum(threshold - q for q in tail) > 0


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(0, 93), st.integers(10, 50)),
        min_size=0,
        max_size=12,
    ),
    st.floats(0, 40),
)
def test_quality_filter_kept_subset_order_preserved(read_specs, min_q):
    records = [
        FastqRecord(f"r{i}", "A" * n, encode_phred([q] * n))
        for i, (q, n) in enumerate(read_specs)
    ]
    kept, stats = quality_filter(records, min_mean_quality=min_q, min_length=1)
    names = [r.name for r in kept]
    original_order = [r.name for r in records if r.name in set(names)]
    assert names == original_order
    assert stats.n_kept + stats.n_dropped_quality + stats.n_dropped_length == stats.n_in

