"""Which contexts each unit sends together: the two it needs, in the order it asked for them singly."""

import pytest

from conftest import BatchRecorder, Recorder
from ctxlens.backends import ConstantBackend, FlakyBackend
from ctxlens.boosting import BoostConfig, cad_step, generate, taboo_step
from ctxlens.decoding import DecodingStrategy
from ctxlens.detection import LSD_LCL_SHORT_LEN, LsdsConfig, lsd_lcl_oracle_label, lsds
from ctxlens.dist import TokenDistribution
from ctxlens.errors import BackendError
from ctxlens.probe import PrefixGrid, damcl, mcl

KEEP_ALL = DecodingStrategy.nucleus(1.0)
S = tuple(range(1, 41))


def test_lsds_sends_the_short_suffix_with_the_full_context():
    rec = BatchRecorder()
    lsds(S, LsdsConfig(short_len=8), rec)
    assert rec.batches == [[S[-8:], S]]


def test_lsd_lcl_oracle_fetches_its_short_suffix_after_checking_the_target():
    # The target is checked against the full context's vocab before the short suffix is asked for.
    rec = BatchRecorder()
    lsd_lcl_oracle_label(S, 0, rec)
    assert rec.batches == []
    assert rec.calls == [S, S[-LSD_LCL_SHORT_LEN:]]


def test_taboo_step_batches_only_a_context_it_can_score():
    rec = BatchRecorder()
    cfg = BoostConfig(lam=2.0, short_len=8)
    taboo_step(S, cfg, rec)
    taboo_step(S[:8], cfg, rec)
    assert rec.batches == [[S, S[-8:]]]
    assert rec.calls == [S, S[-8:], S[:8]]


@pytest.mark.parametrize("prompt", [S, S[:3]])
def test_cad_sends_each_step_as_one_batch(prompt):
    rec = BatchRecorder()
    out = generate(prompt, 3, "cad", BoostConfig(lam=2.0, short_len=8), seed=1, backend=rec)
    contexts = [prompt + tuple(out.tokens[:k]) for k in range(3)]
    assert rec.batches == [[ctx, ctx[-8:]] for ctx in contexts]
    cad_step(S, 0.5, KEEP_ALL, rec, short_len=8)
    assert rec.batches[-1] == [S, S[-8:]]


def test_cad_step_fetches_only_the_distribution_it_is_not_handed():
    rec = BatchRecorder()
    full, short = Recorder().next_token_distribution(S), Recorder().next_token_distribution(S[-8:])
    cad_step(S, 0.5, KEEP_ALL, rec, short_len=8, raw_full=full)
    cad_step(S, 0.5, KEEP_ALL, rec, short_len=8, raw_short=short)
    cad_step(S, 0.5, KEEP_ALL, rec, short_len=8, raw_full=full, raw_short=short)
    assert (rec.batches, rec.calls) == ([], [S[-8:], S])


def test_damcl_sends_the_reference_with_the_first_grid_point():
    rec = BatchRecorder()
    res = damcl(S, KEEP_ALL, "jsd", 0.0, PrefixGrid(start=8, step=8), rec)
    assert rec.batches == [[S, S[-8:]]]
    # The walk takes the first point from the batch and fetches the rest one at a time.
    assert rec.calls == [S, S[-8:]] + [S[-ell:] for ell in (16, 24, 32, 40)][: len(res.trace) - 1]
    assert [ell for ell, _ in res.trace] == [8, 16, 24, 32, 40][: len(res.trace)]


def test_a_bare_backend_sees_the_calls_a_unit_made_one_at_a_time():
    rec = Recorder()
    lsds(S, LsdsConfig(short_len=8), rec)
    damcl(S, KEEP_ALL, "jsd", 1.0, PrefixGrid(start=8, step=8), rec)
    assert rec.calls == [S[-8:], S, S, S[-8:]]


def test_mcl_sends_nothing_together():
    rec = BatchRecorder()
    mcl(S, 0, 0.0, PrefixGrid(start=8, step=8), rec)
    assert rec.batches == []


@pytest.mark.parametrize("fail_after, partial_trace", [(0, None), (1, [])])
def test_damcl_failure_tells_the_reference_from_the_first_point(fail_after, partial_trace):
    # The failure report's partial_trace is null before the walk and [] at its first point.
    flaky = FlakyBackend(ConstantBackend(TokenDistribution.uniform(4)), fail_after=fail_after)
    with pytest.raises(BackendError) as err:
        damcl(S, KEEP_ALL, "jsd", 0.0, PrefixGrid(start=8, step=8), flaky)
    assert (err.value.batch_index, err.value.partial_trace) == (fail_after, partial_trace)
