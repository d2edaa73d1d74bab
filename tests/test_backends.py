"""Mock backends, the suffix-probe helper, the wrappers, and the per-unit memo."""

import multiprocessing
import sys
import threading
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, BatchRecorder, Recorder
from ctxlens.backends import (
    CachedBackend,
    ConstantBackend,
    DelayedBackend,
    FlakyBackend,
    MockTokenizer,
    PlantedDependencyBackend,
    PlantedLastTokenBackend,
    SwitchBackend,
    parse_mock_spec,
    prefix_distribution,
    prefix_distributions,
)
from ctxlens.backends import mock as mock_module
from ctxlens.dist import TokenDistribution
from ctxlens.errors import BackendError, UsageError


def _req(tokens):
    return tuple(tokens)


class TestConstantBackend:
    def test_always_returns_same_distribution(self):
        d = TokenDistribution.from_probs([0.25, 0.75])
        b = ConstantBackend(d)
        for tokens in ([1], [1, 2, 3], [0] * 40):
            assert b.next_token_distribution(_req(tokens)).same_values(d)
        assert b.calls == 3


class TestSwitchBackend:
    def test_switches_on_suffix_length(self):
        lo = TokenDistribution.point_mass(0, vocab_size=3)
        hi = TokenDistribution.point_mass(2, vocab_size=3)
        b = SwitchBackend(cutoff=5, below=lo, at_or_above=hi)
        assert b.next_token_distribution(_req([1] * 4)).same_values(lo)
        assert b.next_token_distribution(_req([1] * 5)).same_values(hi)
        assert b.next_token_distribution(_req([1] * 6)).same_values(hi)


class TestPlantedBackends:
    def test_confident_once_suffix_covers_dependency(self):
        b = PlantedDependencyBackend(dependency_length=40, answer_token=7, vocab_size=64)
        short = b.next_token_distribution(_req([1] * 39))
        full = b.next_token_distribution(_req([1] * 40))
        assert short.entry(7) == pytest.approx(1.0 / 64)
        assert full.entry(7) > 0.5
        assert int(np.argmax(full.probs)) == 7

    def test_referential_transparency(self):
        b = PlantedDependencyBackend(dependency_length=10, answer_token=3, vocab_size=16)
        a = b.next_token_distribution(_req([2] * 10))
        c = b.next_token_distribution(_req([2] * 10))
        assert a.same_values(c)

    def test_last_token_sets_dependency_depth(self):
        b = PlantedLastTokenBackend(answer_token=5, vocab_size=256)
        tokens = [9] * 99 + [30]
        # Suffix of 29 does not reach the planted depth, 30 does.
        shallow = b.next_token_distribution(_req(tokens[-29:]))
        deep = b.next_token_distribution(_req(tokens[-30:]))
        assert shallow.entry(5) == pytest.approx(1.0 / 256)
        assert deep.entry(5) > 0.5


class TestPrefixDistribution:
    def test_sends_exact_suffix(self):
        seen = []

        class Recorder:
            vocab_size = 4
            eos_token_id = None

            def next_token_distribution(self, tokens):
                seen.append(tokens)
                return TokenDistribution.uniform(4)

        s = (5, 6, 7, 8)
        prefix_distribution(s, 2, Recorder())
        assert seen[0] == (7, 8)

    @PROPERTY
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=64), st.data())
    def test_same_request_for_array_tuple_and_list(self, tokens, data):
        ell = data.draw(st.integers(1, len(tokens)))
        seen = []

        class Recorder:
            vocab_size = 2
            eos_token_id = None

            def next_token_distribution(self, tokens):
                seen.append(tokens)
                return TokenDistribution.uniform(2)

        for s in (array("i", tokens), tuple(tokens), list(tokens)):
            prefix_distribution(s, ell, Recorder())
        assert seen[0] == seen[1] == seen[2] == tuple(tokens[-ell:])
        assert all(type(t) is int for suffix in seen for t in suffix)

    def test_rejects_out_of_range_lengths(self):
        b = ConstantBackend(TokenDistribution.uniform(2))
        with pytest.raises(ValueError):
            prefix_distribution((1, 2, 3), 0, b)
        with pytest.raises(ValueError):
            prefix_distribution((1, 2, 3), 4, b)

    def test_full_length_is_identity_slice(self):
        hit = TokenDistribution.point_mass(1, vocab_size=4)
        b = SwitchBackend(cutoff=3, below=TokenDistribution.uniform(4), at_or_above=hit)
        out = prefix_distribution((1, 2, 3), 3, b)
        assert out.same_values(hit)


class TestPrefixDistributions:
    def test_a_backend_without_the_batch_member_gets_one_call_per_length_in_order(self):
        rec = Recorder()
        got = prefix_distributions(array("i", [5, 6, 7, 8]), [2, 4, 2], rec)
        assert rec.calls == [(7, 8), (5, 6, 7, 8), (7, 8)]
        assert got == [rec._made[(7, 8)], rec._made[(5, 6, 7, 8)], rec._made[(7, 8)]]

    def test_the_batch_member_gets_every_context_at_once(self):
        rec = BatchRecorder()
        prefix_distributions((5, 6, 7, 8), (4, 1), rec)
        assert rec.batches == [[(5, 6, 7, 8), (8,)]]

    def test_a_length_out_of_range_sends_nothing(self):
        rec = BatchRecorder()
        with pytest.raises(ValueError):
            prefix_distributions((1, 2, 3), (3, 4), rec)
        assert rec.calls == []

    def test_a_failure_names_its_position(self):
        flaky = FlakyBackend(ConstantBackend(TokenDistribution.uniform(2)), fail_after=1)
        with pytest.raises(BackendError) as err:
            prefix_distributions((1, 2, 3), (3, 1, 2), flaky)
        assert (err.value.batch_index, flaky.attempts) == (1, 2)


class TestCachedBackend:
    def test_differential_against_uncached(self, rng):
        plain = PlantedLastTokenBackend(answer_token=3, vocab_size=32)
        inner = PlantedLastTokenBackend(answer_token=3, vocab_size=32)
        wrapped = CachedBackend(inner)
        pool = [tuple(int(t) for t in rng.integers(0, 32, size=rng.integers(1, 12))) for _ in range(40)]
        asked = set()
        for _ in range(1000):
            tokens = pool[int(rng.integers(0, len(pool)))]
            asked.add(tokens)
            a = plain.next_token_distribution(_req(tokens))
            b = wrapped.next_token_distribution(_req(tokens))
            assert a.same_values(b)
        assert inner.calls == len(asked)

    def test_each_distinct_suffix_reaches_upstream_once(self):
        inner = ConstantBackend(TokenDistribution.uniform(2))
        b = CachedBackend(inner)
        for tokens in ([1], [2], [1], [2]):
            b.next_token_distribution(_req(tokens))
        assert inner.calls == 2

    def test_failed_call_is_not_remembered(self):
        inner = ConstantBackend(TokenDistribution.uniform(2))
        b = CachedBackend(FlakyBackend(inner, fail_first=1))
        with pytest.raises(BackendError):
            b.next_token_distribution(_req([1]))
        assert b.next_token_distribution(_req([1])).vocab_size == 2
        assert inner.calls == 1

    def test_delegates_metadata(self):
        inner = ConstantBackend(TokenDistribution.uniform(8), eos_token_id=7)
        b = CachedBackend(inner)
        assert b.vocab_size == 8
        assert b.eos_token_id == 7
        assert b.inner is inner

    @PROPERTY
    @given(
        st.lists(st.lists(st.sampled_from([(1,), (2,), (1, 2), (3, 1, 2), (4, 4, 4, 4)]), max_size=6), max_size=5),
        st.one_of(st.just(float("inf")), st.integers(0, 4)),
        st.booleans(),
    )
    def test_batches_match_single_calls(self, batches, longest_kept, inner_batches):
        inner = BatchRecorder() if inner_batches else Recorder()
        memo, single = CachedBackend(inner), CachedBackend(Recorder())
        memo.longest_kept = single.longest_kept = longest_kept
        for contexts in batches:
            held, sent = set(memo._store), len(inner.calls)
            got = memo.next_token_distributions(contexts)
            assert got == [inner._made[c] for c in contexts]  # the objects the upstream made
            assert all(a.same_values(single.next_token_distribution(c)) for a, c in zip(got, contexts))
            unseen = list(dict.fromkeys(c for c in contexts if c not in held))
            assert inner.calls[sent:] == unseen  # each unseen context once, in first-seen order
            if inner_batches and unseen:
                assert inner.batches[-1] == unseen
            assert all(len(c) <= longest_kept for c in memo._store)
        # A context asked twice in one batch goes upstream once, even where the memo does not keep it.
        assert len(inner.calls) <= len(single.inner.calls)
        assert not inner_batches or all(inner.batches)  # a batch the memo holds sends nothing

    def test_a_failure_names_its_position_in_the_callers_batch(self):
        inner = ConstantBackend(TokenDistribution.uniform(2))
        memo = CachedBackend(FlakyBackend(inner, fail_after=2))
        memo.next_token_distribution((1,))
        with pytest.raises(BackendError) as err:
            # (1,) is held and (2,) is asked twice, so the flaky backend sees (2,) then (3,).
            memo.next_token_distributions([(1,), (2,), (2,), (3,)])
        assert err.value.batch_index == 3
        assert memo.next_token_distributions([(2,), (1,)])[0] is memo.next_token_distribution((2,))

    def test_a_failed_batch_keeps_what_arrived_before_the_failure(self):
        class FailsAfterFirst(BatchRecorder):
            def next_token_distributions(self, contexts):
                err = BackendError("down")
                err.fetched = [self.next_token_distribution(contexts[0])]
                raise err

        inner = FailsAfterFirst()
        memo = CachedBackend(inner)
        with pytest.raises(BackendError) as err:
            memo.next_token_distributions([(1,), (1,), (2,)])
        assert err.value.fetched == [inner._made[(1,)]] * 2 and err.value.batch_index == 2
        # A later call finds the context that arrived, as it would after two single calls.
        assert memo.next_token_distribution((1,)) is inner._made[(1,)] and inner.calls == [(1,)]


class TestFlakyBackend:
    def test_fail_first_then_recovers(self):
        b = FlakyBackend(ConstantBackend(TokenDistribution.uniform(2)), fail_first=2)
        for _ in range(2):
            with pytest.raises(BackendError):
                b.next_token_distribution(_req([1]))
        out = b.next_token_distribution(_req([1]))
        assert out.vocab_size == 2

    def test_fail_after_outage(self):
        b = FlakyBackend(ConstantBackend(TokenDistribution.uniform(2)), fail_after=3)
        for _ in range(3):
            b.next_token_distribution(_req([1]))
        with pytest.raises(BackendError):
            b.next_token_distribution(_req([1]))
        with pytest.raises(BackendError):
            b.next_token_distribution(_req([1]))

    def test_counters_are_exact_across_forked_processes(self):
        # Four processes on two cores: a lost update between them would show in either count.
        flaky = FlakyBackend(ConstantBackend(TokenDistribution.uniform(2)), fail_after=1000)

        def call_500_times():
            for _ in range(500):
                try:
                    flaky.next_token_distribution(_req([1]))
                except BackendError:
                    pass

        workers = [multiprocessing.get_context("fork").Process(target=call_500_times) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert [worker.exitcode for worker in workers] == [0] * 4
        assert (flaky.attempts, flaky.inner.calls) == (2000, 1000)

    def test_counters_are_exact_across_threads(self):
        # Eight threads switching every 10 us: a lost update would show in the count.
        backend = ConstantBackend(TokenDistribution.uniform(2))

        def call_500_times():
            for _ in range(500):
                backend.next_token_distribution(_req([1]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call_500_times) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert backend.calls == 4000


class TestDelayedBackend:
    def test_sleeps_per_token(self):
        import time

        inner = ConstantBackend(TokenDistribution.uniform(2))
        b = DelayedBackend(inner, per_call_s=0.0, per_token_s=0.001)
        start = time.perf_counter()
        b.next_token_distribution(_req([1] * 20))
        assert time.perf_counter() - start >= 0.02

    def test_a_batch_sleeps_once_for_its_longest_context(self, monkeypatch):
        slept = []
        monkeypatch.setattr(mock_module.time, "sleep", slept.append)
        rec = Recorder()
        b = DelayedBackend(rec, per_call_s=0.004, per_token_s=0.001)
        got = b.next_token_distributions([(1, 2), (1, 2, 3, 4, 5), (1,)])
        assert slept == [0.004 + 0.001 * 5]
        assert rec.calls == [(1, 2), (1, 2, 3, 4, 5), (1,)]
        assert got == [rec._made[c] for c in rec.calls]
        assert b.next_token_distributions([]) == [] and len(slept) == 1


class TestMockTokenizer:
    def test_roundtrip_shape(self):
        tok = MockTokenizer(vocab_size=256)
        ids = tok.tokenize("hello world")
        assert len(ids) == 2
        assert all(0 <= t < 256 for t in ids)

    def test_numbers_split_per_digit(self):
        tok = MockTokenizer(vocab_size=256)
        ids = tok.tokenize("code 407")
        assert ids[-3:] == [4, 0, 7]

    def test_deterministic(self):
        tok = MockTokenizer(vocab_size=256)
        assert tok.tokenize("alpha beta 12") == tok.tokenize("alpha beta 12")

    def test_detokenize_is_printable(self):
        tok = MockTokenizer(vocab_size=64)
        text = tok.detokenize([1, 2, 3])
        assert isinstance(text, str) and text


class TestParseMockSpec:
    def test_planted_spec(self):
        b = parse_mock_spec("planted:d=40,answer=7,vocab=64")
        assert isinstance(b, PlantedDependencyBackend)
        assert b.vocab_size == 64
        assert b.dependency_length == 40

    def test_planted_last_spec(self):
        b = parse_mock_spec("planted_last:answer=5,vocab=256")
        assert isinstance(b, PlantedLastTokenBackend)

    def test_uniform_spec_with_latency(self):
        b = parse_mock_spec("uniform:vocab=10,eos=3,latency_ms=0")
        assert b.vocab_size == 10
        assert b.eos_token_id == 3

    def test_latency_wraps_in_delay(self):
        b = parse_mock_spec("uniform:vocab=4,token_latency_us=100")
        assert isinstance(b, DelayedBackend)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UsageError):
            parse_mock_spec("wat:vocab=4")

    def test_unknown_param_rejected(self):
        with pytest.raises(UsageError):
            parse_mock_spec("uniform:vocab=4,bogus=1")

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("uniform:vocab=4,latency_ms=-5", "latency_ms"),
            ("uniform:vocab=4,latency_ms=nan", "latency_ms"),
            ("uniform:vocab=4,latency_ms=inf", "latency_ms"),
            ("uniform:vocab=4,latency_ms=1e300", "latency_ms"),
            ("uniform:vocab=4,latency_ms=3600001", "latency_ms"),
            ("planted_last:vocab=64,token_latency_us=-3,latency_ms=1", "token_latency_us"),
            ("planted:vocab=64,token_latency_us=inf", "token_latency_us"),
            ("planted:vocab=64,token_latency_us=1e300", "token_latency_us"),
            ("planted:vocab=64,token_latency_us=1000001", "token_latency_us"),
            ("uniform:vocab=0", "vocab"),
            ("uniform:vocab=-2", "vocab"),
            ("planted:vocab=1", "vocab"),
            ("planted_last:vocab=1", "vocab"),
        ],
    )
    def test_out_of_range_values_are_usage_errors_naming_the_key(self, spec, key):
        with pytest.raises(UsageError, match=f"'{key}'"):
            parse_mock_spec(spec)

    def test_the_least_and_greatest_values_are_accepted(self):
        assert parse_mock_spec("uniform:vocab=1,latency_ms=0,token_latency_us=0").vocab_size == 1
        slowest = parse_mock_spec("uniform:vocab=1,latency_ms=3.6e6,token_latency_us=1e6")
        assert (slowest.per_call_s, slowest.per_token_s) == (3600.0, 1.0)
        assert parse_mock_spec("planted:vocab=2,answer=1").vocab_size == 2
