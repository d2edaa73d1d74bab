"""Corpus loading, bucketed slice sampling, and synthetic retrieval tasks."""

import json
from array import array

import pytest

from conftest import write_jsonl
from ctxlens.backends import MockTokenizer
from ctxlens.corpus import (
    DEFAULT_BUCKETS,
    Document,
    SequenceSample,
    default_filler_tokens,
    gen_longeval,
    gen_niah,
    load_jsonl,
    load_sequences_jsonl,
    sample_sequences,
    synth_sample,
)
from ctxlens.detection import LONG, SHORT
from ctxlens.errors import DataError

TOKENIZER = MockTokenizer(vocab_size=512)


class TestDefaultBuckets:
    def test_shape(self):
        assert DEFAULT_BUCKETS[0] == (32, 100)
        assert DEFAULT_BUCKETS[1] == (100, 200)
        assert DEFAULT_BUCKETS[-1] == (900, 1000)
        assert len(DEFAULT_BUCKETS) == 10


class TestLoadJsonl:
    def test_reads_documents_in_order(self, tmp_path):
        path = write_jsonl(
            tmp_path / "docs.jsonl",
            [
                {"id": "a", "text": "hello world"},
                {"id": "b", "tokens": [1, 2, 3]},
            ],
        )
        docs, errors = load_jsonl(path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert tuple(docs[1].tokens) == (1, 2, 3)
        assert errors == []

    def test_gold_is_kept_as_text(self, tmp_path):
        path = write_jsonl(
            tmp_path / "prompts.jsonl",
            [
                {"id": "a", "tokens": [1], "gold": "the answer"},
                {"id": "b", "tokens": [2], "gold": 42},
                {"id": "c", "tokens": [3], "gold": None},
                {"id": "d", "tokens": [4]},
            ],
        )
        docs, _ = load_jsonl(path)
        assert [d.gold for d in docs] == ["the answer", "42", None, None]

    def test_text_fields_are_strings_or_numbers(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a", "text": 5, "gold": 1.5}\n'
            '{"id": "b", "tokens": [1], "text": null}\n'
            '{"id": "c", "text": ["x"]}\n'
            '{"id": "d", "text": "x", "gold": false}\n'
            '{"id": "e", "text": {"x": 1}}\n'
            '5\n'
        )
        docs, errors = load_jsonl(path)
        assert [(d.doc_id, d.text, d.gold) for d in docs] == [("a", "5", "1.5"), ("b", None, None)]
        assert errors == [
            {"line": 3, "error": "text must be a string or a number, not ['x']"},
            {"line": 4, "error": "gold must be a string or a number, not False"},
            {"line": 5, "error": "text must be a string or a number, not {'x': 1}"},
            {"line": 6, "error": "expected a JSON object, not int"},
        ]

    def test_id_is_a_string_or_a_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"id": "a", "text": "x"}\n'
            '{"id": 7, "text": "x"}\n'
            '{"id": null, "text": "x"}\n'
            '{"id": true, "text": "x"}\n'
            '{"id": [1, 2], "text": "x"}\n'
            '{"id": {"a": 1}, "text": "x"}\n'
        )
        docs, errors = load_jsonl(path)
        assert [d.doc_id for d in docs] == ["a", "7"]
        assert errors == [
            {"line": 3, "error": "id must be a string or a number, not None"},
            {"line": 4, "error": "id must be a string or a number, not True"},
            {"line": 5, "error": "id must be a string or a number, not [1, 2]"},
            {"line": 6, "error": "id must be a string or a number, not {'a': 1}"},
        ]

    def test_malformed_lines_become_error_records(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            json.dumps({"id": "ok", "text": "x"})
            + "\nnot json\n"
            + json.dumps({"no_id": True})
            + "\n"
        )
        docs, errors = load_jsonl(path)
        assert len(docs) == 1
        assert [e["line"] for e in errors] == [2, 3]

    def test_document_with_neither_text_nor_tokens_is_an_error_record(self, tmp_path):
        path = write_jsonl(tmp_path / "docs.jsonl", [{"id": "ok", "tokens": [1]}, {"id": "empty", "gold": "g"}])
        docs, errors = load_jsonl(path)
        assert [doc.doc_id for doc in docs] == ["ok"]
        assert errors == [{"line": 2, "error": "\"need 'text' or 'tokens'\""}]

    def test_no_valid_documents_is_an_error(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(DataError):
            load_jsonl(path)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(DataError):
            load_jsonl(tmp_path / "absent.jsonl")


class TestLoadSequencesJsonl:
    def test_round_trip_through_to_record(self, tmp_path):
        sample = SequenceSample(
            seq_id="s1",
            tokens=(1, 2, 3),
            next_token=4,
            doc_id="d",
            bucket=(32, 100),
            label=SHORT,
        )
        path = write_jsonl(tmp_path / "seqs.jsonl", [sample.to_record()])
        loaded, errors = load_sequences_jsonl(path)
        assert errors == []
        assert loaded[0] == sample

    def test_next_token_and_label_optional(self, tmp_path):
        path = write_jsonl(tmp_path / "seqs.jsonl", [{"seq_id": "s", "tokens": [5, 6]}])
        loaded, _ = load_sequences_jsonl(path)
        assert loaded[0].next_token is None
        assert loaded[0].label is None
        assert loaded[0].bucket == (2, 3)

    @pytest.mark.parametrize("bad", ['"Long"', '"SHORT"', "5", "true", '""'])
    def test_label_other_than_short_long_or_null_is_an_error_record(self, tmp_path, bad):
        path = tmp_path / "seqs.jsonl"
        path.write_text(
            '{"seq_id": "a", "tokens": [1], "label": "short"}\n'
            '{"seq_id": "b", "tokens": [1], "label": "long"}\n'
            '{"seq_id": "c", "tokens": [1], "label": null}\n'
            f'{{"seq_id": "d", "tokens": [1], "label": {bad}}}\n'
        )
        loaded, errors = load_sequences_jsonl(path)
        assert [s.label for s in loaded] == [SHORT, LONG, None]
        assert [e["line"] for e in errors] == [4]

    def test_ids_are_strings_or_numbers_and_absent_ones_fall_back(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        path.write_text(
            '{"seq_id": "a", "tokens": [1], "doc_id": 3}\n'
            '{"id": 4.5, "tokens": [1]}\n'
            '{"tokens": [1]}\n'
            '{"seq_id": null, "tokens": [1]}\n'
            '{"id": [1, 2], "tokens": [1]}\n'
            '{"seq_id": "b", "tokens": [1], "doc_id": {"a": 1}}\n'
            '{"seq_id": "c", "tokens": [1], "doc_id": false}\n'
        )
        loaded, errors = load_sequences_jsonl(path)
        assert [(s.seq_id, s.doc_id) for s in loaded] == [("a", "3"), ("4.5", ""), ("line3", "")]
        assert errors == [
            {"line": 4, "error": "seq_id must be a string or a number, not None"},
            {"line": 5, "error": "id must be a string or a number, not [1, 2]"},
            {"line": 6, "error": "doc_id must be a string or a number, not {'a': 1}"},
            {"line": 7, "error": "doc_id must be a string or a number, not False"},
        ]

    def test_empty_tokens_rejected_per_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "seqs.jsonl",
            [{"seq_id": "bad", "tokens": []}, {"seq_id": "ok", "tokens": [1]}],
        )
        loaded, errors = load_sequences_jsonl(path)
        assert [s.seq_id for s in loaded] == ["ok"]
        assert len(errors) == 1


BAD_TOKEN_LINES = {
    "float": '"tokens": [1, 1.5]',
    "string": '"tokens": [1, "7"]',
    "null": '"tokens": [1, null]',
    "above int32": '"tokens": [1, 2147483648]',
    "below int32": '"tokens": [-2147483649, 1]',
    "NaN token": '"tokens": [1, NaN]',
    "NaN elsewhere": '"tokens": [1, 2], "score": NaN',
    "true": '"tokens": [1, true]',
    "false": '"tokens": [false, 1]',
}


class TestTokenIds:
    @pytest.mark.parametrize("id_key, load", [("id", load_jsonl), ("seq_id", load_sequences_jsonl)])
    @pytest.mark.parametrize("bad", sorted(BAD_TOKEN_LINES))
    def test_non_int32_token_is_an_error_record(self, tmp_path, id_key, load, bad):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            f'{{"{id_key}": "ok", "tokens": [3, 4]}}\n{{"{id_key}": "bad", {BAD_TOKEN_LINES[bad]}}}\n'
        )
        rows, errors = load(path)
        assert len(rows) == 1
        assert [e["line"] for e in errors] == [2]

    @pytest.mark.parametrize("bad", ["1.5", '"7"', "true", "2147483648"])
    def test_non_int32_next_token_is_an_error_record(self, tmp_path, bad):
        path = tmp_path / "seqs.jsonl"
        path.write_text(
            f'{{"seq_id": "ok", "tokens": [3], "next_token": 4}}\n'
            f'{{"seq_id": "bad", "tokens": [3], "next_token": {bad}}}\n'
        )
        rows, errors = load_sequences_jsonl(path)
        assert [s.next_token for s in rows] == [4]
        assert [e["line"] for e in errors] == [2]

    @pytest.mark.parametrize(
        "bad", ['[1.5, "7"]', "[true, 9, 10]", "[true, 9]", '["7", 8]', "[1, 2, 3]", "[1]", "[]", '"12"',
                "[2147483648, 1]"]
    )
    def test_bucket_other_than_two_int32_integers_is_an_error_record(self, tmp_path, bad):
        path = tmp_path / "seqs.jsonl"
        path.write_text(
            '{"seq_id": "ok", "tokens": [3], "bucket": [1, 2]}\n'
            '{"seq_id": "none", "tokens": [3], "bucket": null}\n'
            f'{{"seq_id": "bad", "tokens": [3], "bucket": {bad}}}\n'
        )
        rows, errors = load_sequences_jsonl(path)
        assert [s.bucket for s in rows] == [(1, 2), (1, 2)]
        assert [e["line"] for e in errors] == [3]

    @pytest.mark.parametrize("id_key, load", [("id", load_jsonl), ("seq_id", load_sequences_jsonl)])
    def test_true_and_false_outside_tokens_still_load(self, tmp_path, id_key, load):
        path = tmp_path / "rows.jsonl"
        path.write_text(f'{{"{id_key}": "true", "tokens": [1, 0], "doc_id": "false", "flag": true}}\n')
        rows, errors = load(path)
        assert errors == []
        assert list(rows[0].tokens) == [1, 0]

    def test_loaded_and_constructed_tokens_are_int32_arrays(self, tmp_path):
        path = write_jsonl(tmp_path / "rows.jsonl", [{"id": "a", "seq_id": "a", "tokens": [1, 2, 3]}])
        held = [
            load_jsonl(path)[0][0].tokens,
            load_sequences_jsonl(path)[0][0].tokens,
            Document(doc_id="d", tokens=[1, 2]).tokens,
            SequenceSample(seq_id="s", tokens=(1, 2), next_token=None, doc_id="d", bucket=(2, 3)).tokens,
            sample_sequences(list(range(200)), n_per_bucket=1, rng_seed=0)[0][0].tokens,
            gen_niah(default_filler_tokens(TOKENIZER, 300), TOKENIZER, total_len=300, needle_pos=50).tokens,
        ]
        for tokens in held:
            assert type(tokens) is array
            assert tokens.typecode == "i"
            assert tokens.itemsize == 4


class TestSampleSequences:
    DOC = list(range(1500))  # unique values make slices self-describing

    def test_counts_and_lengths_per_bucket(self):
        samples, warnings = sample_sequences(self.DOC, n_per_bucket=3, rng_seed=7)
        assert warnings == []
        assert len(samples) == 3 * len(DEFAULT_BUCKETS)
        for s in samples:
            lo, hi = s.bucket
            assert lo <= len(s.tokens) < hi

    def test_slices_are_contiguous_with_correct_next_token(self):
        samples, _ = sample_sequences(self.DOC, n_per_bucket=2, rng_seed=3)
        for s in samples:
            first = s.tokens[0]
            assert list(s.tokens) == self.DOC[first : first + len(s.tokens)]
            assert s.next_token == s.tokens[-1] + 1

    def test_deterministic_for_seed(self):
        a, _ = sample_sequences(self.DOC, n_per_bucket=2, rng_seed=11)
        b, _ = sample_sequences(self.DOC, n_per_bucket=2, rng_seed=11)
        assert a == b
        c, _ = sample_sequences(self.DOC, n_per_bucket=2, rng_seed=12)
        assert a != c

    def test_bucket_counts_hold_across_seeds(self):
        doc = list(range(1100))
        for seed in range(100):
            samples, _ = sample_sequences(doc, n_per_bucket=1, rng_seed=seed)
            per_bucket = {}
            for s in samples:
                per_bucket[s.bucket] = per_bucket.get(s.bucket, 0) + 1
            assert per_bucket == {b: 1 for b in DEFAULT_BUCKETS}

    def test_short_document_skips_unfillable_buckets(self):
        doc = list(range(150))
        samples, warnings = sample_sequences(doc, n_per_bucket=2, rng_seed=0)
        filled = {s.bucket for s in samples}
        assert filled == {(32, 100), (100, 200)}
        assert len(warnings) == 8
        assert all("skipped" in w["warning"] for w in warnings)
        # The partially coverable bucket caps lengths at what the doc allows.
        for s in samples:
            if s.bucket == (100, 200):
                assert len(s.tokens) <= 149

    def test_every_sequence_keeps_its_next_token_inside_the_document(self):
        doc = list(range(40))
        samples, _ = sample_sequences(doc, n_per_bucket=50, buckets=((32, 41),), rng_seed=1)
        assert all(s.next_token == s.tokens[-1] + 1 for s in samples)
        assert max(len(s.tokens) for s in samples) == 39
        assert any(s.next_token == 39 for s in samples)

    def test_bad_arguments(self):
        with pytest.raises(DataError):
            sample_sequences(self.DOC, n_per_bucket=0)
        with pytest.raises(DataError):
            sample_sequences(self.DOC, n_per_bucket=1, buckets=((0, 10),))
        with pytest.raises(DataError):
            sample_sequences(self.DOC, n_per_bucket=1, buckets=((10, 10),))

    def test_seq_ids_carry_provenance(self):
        samples, _ = sample_sequences(self.DOC, n_per_bucket=2, rng_seed=0, doc_id="mydoc")
        assert samples[0].seq_id == "mydoc/b32-100/0"
        assert samples[1].seq_id == "mydoc/b32-100/1"


class TestGenNiah:
    def test_structure_and_ground_truth(self):
        filler = default_filler_tokens(TOKENIZER, 300)
        sample = gen_niah(filler, TOKENIZER, rng_seed=5, total_len=300, needle_pos=50)
        assert len(sample.tokens) == 300
        # The needle statement sits exactly at needle_pos.
        digits = [t for t in sample.tokens[50 : 50 + 10]][4:]
        assert all(0 <= d <= 9 for d in digits)
        assert sample.next_token == digits[0]
        assert tuple(sample.tokens[50:54]) == tuple(TOKENIZER.tokenize("The magic number is"))
        # The query closes the prompt.
        query = TOKENIZER.tokenize("The magic number mentioned in the provided text is")
        assert tuple(sample.tokens[-len(query) :]) == tuple(query)
        assert sample.label == LONG

    def test_needle_near_end_is_short(self):
        filler = default_filler_tokens(TOKENIZER, 300)
        assert gen_niah(filler, TOKENIZER, rng_seed=5, total_len=300, needle_pos=270, window=32).label == SHORT

    def test_label_matches_distance_rule(self):
        filler = default_filler_tokens(TOKENIZER, 400)
        for pos in (10, 150, 250, 280):
            for window in (32, 64):
                expected = SHORT if 300 - pos <= window else LONG
                sample = gen_niah(filler, TOKENIZER, rng_seed=1, total_len=300, needle_pos=pos, window=window)
                assert sample.label == expected

    def test_deterministic_for_seed(self):
        spec = dict(total_len=200, needle_pos=20)
        filler = default_filler_tokens(TOKENIZER, 200)
        a = gen_niah(filler, TOKENIZER, rng_seed=9, **spec)
        b = gen_niah(filler, TOKENIZER, rng_seed=9, **spec)
        assert a == b
        c = gen_niah(filler, TOKENIZER, rng_seed=10, **spec)
        assert a.tokens != c.tokens

    def test_needle_query_collision_rejected(self):
        filler = default_filler_tokens(TOKENIZER, 60)
        with pytest.raises(DataError):
            gen_niah(filler, TOKENIZER, total_len=60, needle_pos=55)

    def test_insufficient_filler_rejected(self):
        with pytest.raises(DataError):
            gen_niah([1, 2, 3], TOKENIZER, total_len=300, needle_pos=50)


class TestGenLongeval:
    def test_structure_and_ground_truth(self):
        sample = gen_longeval(TOKENIZER, rng_seed=4, total_len=300, answer_line_distance=3)
        assert len(sample.tokens) <= 300
        assert sample.next_token is not None
        assert 0 <= sample.next_token <= 9
        assert sample.label in (SHORT, LONG)

    def test_last_line_is_short_far_line_is_long(self):
        near = gen_longeval(TOKENIZER, rng_seed=2, total_len=400, answer_line_distance=1, window=32)
        assert near.label == SHORT

        far = gen_longeval(TOKENIZER, rng_seed=2, total_len=400, answer_line_distance=20, window=32)
        assert far.label == LONG

    def test_deterministic_for_seed(self):
        a = gen_longeval(TOKENIZER, rng_seed=8, total_len=200, answer_line_distance=2)
        b = gen_longeval(TOKENIZER, rng_seed=8, total_len=200, answer_line_distance=2)
        assert a == b

    def test_too_small_total_rejected(self):
        with pytest.raises(DataError):
            gen_longeval(TOKENIZER, total_len=10, answer_line_distance=1)

    def test_distance_beyond_line_count_rejected(self):
        with pytest.raises(DataError):
            gen_longeval(TOKENIZER, total_len=100, answer_line_distance=99)


class TestSynthSample:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="unknown synthetic kind 'sorting'"):
            synth_sample("sorting", 10, 32, 6, TOKENIZER, seed=0)

    def test_bad_sizes_rejected(self):
        filler = default_filler_tokens(TOKENIZER, 10)
        with pytest.raises(DataError, match="total_len must be >= 1"):
            gen_niah(filler, TOKENIZER, total_len=0, needle_pos=0)
        with pytest.raises(DataError, match="window must be >= 1"):
            gen_niah(filler, TOKENIZER, total_len=10, needle_pos=0, window=0)
        with pytest.raises(DataError, match="total_len must be >= 1"):
            gen_longeval(TOKENIZER, total_len=0, answer_line_distance=1)
        with pytest.raises(DataError, match="window must be >= 1"):
            gen_longeval(TOKENIZER, total_len=10, answer_line_distance=1, window=0)
        with pytest.raises(DataError, match="window must be >= 1"):
            synth_sample("longeval", 300, 0, 6, TOKENIZER, seed=0)
        with pytest.raises(DataError, match="digits must be >= 1"):
            gen_niah(filler, TOKENIZER, total_len=10, needle_pos=0, digits=0)

    @pytest.mark.parametrize("total_len", [200, 500])
    def test_longeval_queries_a_line_that_was_built(self, total_len):
        # With one token per character the query takes more than 12 tokens, so a line count
        # estimated from the length alone could exceed the lines the prompt holds.
        class CharTokenizer:
            def tokenize(self, text):
                return [ord(ch) for ch in text]

        for seed in range(30):
            sample = synth_sample("longeval", total_len, 32, 6, CharTokenizer(), seed=seed)
            assert len(sample.tokens) <= total_len

    @pytest.mark.parametrize("kind, doc_id", [("niah", "niah"), ("longeval", "longeval")])
    def test_sample_has_the_drawn_layout(self, kind, doc_id):
        sample = synth_sample(kind, 300, 64, 4, TOKENIZER, seed=21)
        assert sample.doc_id == doc_id
        assert sample.label in (SHORT, LONG)
        assert sample == synth_sample(kind, 300, 64, 4, TOKENIZER, seed=21)
        if kind == "niah":
            assert len(sample.tokens) == 300

