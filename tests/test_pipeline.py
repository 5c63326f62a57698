"""Synthetic corpus, config, orchestration, reports, and the CLI contract."""

import json
import re
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from claimforge.cli import main as cli_main
from claimforge.generator import DOMAINS
from claimforge.numerics import NonFiniteError, Tensor
from claimforge.pipeline import (
    CorpusRecord,
    PipelineConfig,
    read_corpus,
    read_jsonl,
    run_pipeline,
    synth_corpus,
    write_corpus,
)
from claimforge.pipeline.run import usable_cores
from claimforge.pipeline.synth import DOMAIN_POOLS
from claimforge.textcore import Vocabulary

DATA = Path(__file__).parent / "data"


GEOMETRY = dict(model_dim=16, num_heads=2, head_dim=8, num_layers=1,
                max_seq_len=256, max_gen_len=8, top_k=3)


FLOAT_KEYS = [f.name for f in fields(PipelineConfig) if f.type == "float"]


def compact_config(**kw):
    return PipelineConfig(**{**GEOMETRY, **kw})


class TestSynthCorpus:
    def test_uniform_allocation_seed0_size60(self):
        corpus = synth_corpus(0, 60)
        per_domain = {}
        for rec in corpus.records:
            per_domain[rec.domain] = per_domain.get(rec.domain, 0) + 1
        assert per_domain == {d: 12 for d in DOMAINS}

    def test_byte_identical_across_runs(self, tmp_path):
        for run in ("a", "b"):
            corpus = synth_corpus(3, 20)
            write_corpus(tmp_path / f"{run}.jsonl", corpus.records)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_domain_pool_overlap_below_20_percent(self):
        pools = DOMAIN_POOLS
        names = list(pools)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                overlap = len(set(pools[a]) & set(pools[b]))
                assert overlap < 0.2 * len(pools[a])

    def test_one_prior_art_record_per_domain(self):
        corpus = synth_corpus(0, 15, domains=3)
        assert [rec.id for rec in corpus.prior_art] == ["prior000", "prior100", "prior200"]
        assert [rec.domain for rec in corpus.prior_art] == list(DOMAINS[:3])

    def test_size_too_small_rejected(self):
        with pytest.raises(ValueError, match="size"):
            synth_corpus(0, 14)

    def test_records_carry_training_data(self):
        corpus = synth_corpus(1, 15)
        for rec in corpus.records:
            assert len(rec.relationship_pairs) == 4
            assert len(rec.corruption_tuples) == 2
            assert rec.claims and rec.description
            assert rec.figure_count >= 1


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        records = synth_corpus(2, 15).records[:5]
        path = tmp_path / "c.jsonl"
        write_corpus(path, records)
        loaded = read_corpus(path)
        assert [r.id for r in loaded] == [r.id for r in records]
        assert loaded[0].to_json() == records[0].to_json()

    def test_duplicate_id_rejected_on_write(self, tmp_path):
        rec = CorpusRecord(id="x", description="text")
        with pytest.raises(ValueError, match="duplicate"):
            write_corpus(tmp_path / "d.jsonl", [rec, rec])

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "description": "ok"}\n\nnot json\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad JSON: "):
            read_corpus(path)

    def test_read_jsonl_numbers_the_nonblank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n[2]\n"three"\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, [2]), (5, "three")]

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError, match="description"):
            CorpusRecord(id="x", description="")

    @pytest.mark.parametrize("field, value", [
        ("id", 7),
        ("description", ["a gear"]),
        ("claims", "1. A gear assembly comprising a shaft."),
        ("claims", ["1. A gear.", 2]),
        ("figure_count", "3"),
        ("figure_count", 2.0),
        ("figure_count", True),
        ("relationship_pairs", {"claim_text": "a", "doc_text": "b"}),
        ("relationship_pairs", ["a"]),
        ("corruption_tuples", [["a", "b", "c"]]),
        ("relationship_pairs", [{"claim_text": "a"}]),
        ("relationship_pairs", [{"claim_text": 7, "doc_text": "b"}]),
        ("relationship_pairs", [{"claim_text": "a", "doc_text": "b", "label": "same"}]),
        ("relationship_pairs", [{"claim_text": "a", "doc_text": "b", "label": ["x"]}]),
        ("corruption_tuples", [{"reference": "a", "better": "b"}]),
        ("corruption_tuples", [{"reference": "a", "better": 2, "worse": "c"}]),
        ("office", "EPO"),
    ])
    def test_wrongly_typed_field_rejected_with_location(self, tmp_path, field, value):
        # a string of claims used to be read as one claim per character
        row = {"id": "a", "description": "A gear.", field: value}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "ok", "description": "ok"}) + "\n"
                        + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f":2: .*{field}"):
            read_corpus(path)

    def test_jurisdiction_key_ignored_and_not_written(self, tmp_path):
        # the corpora written before the field was dropped carry it on every line
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a", "description": "A gear.",
                                    "jurisdiction": "EPO"}) + "\n")
        (rec,) = read_corpus(path)
        assert "jurisdiction" not in json.loads(rec.to_json())


    @pytest.mark.parametrize("domain", ["aerospace", 7, "Mechanical"])
    def test_unknown_domain_rejected_with_location(self, tmp_path, capsys, domain):
        # train-gen used to die on such a record with a bare KeyError or
        # tuple.index message, and pipeline to accept it
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "ok", "description": "A gear.",
                                    "domain": DOMAINS[0]}) + "\n"
                        + json.dumps({"id": "a", "description": "A gear.",
                                      "domain": domain}) + "\n")
        with pytest.raises(ValueError, match=f":2: .*domain must be one of .*{domain!r}"):
            read_corpus(path)
        code = cli_main(["--out", str(tmp_path / "o"), "train-gen", "--corpus", str(path)])
        assert code == 1
        assert f"{path}:2:" in capsys.readouterr().err

    def test_known_domains_and_null_accepted(self):
        for domain in (*DOMAINS, None):
            assert CorpusRecord(id="x", description="d", domain=domain).domain == domain

    def test_known_relationship_labels_and_null_accepted(self):
        from claimforge.similarity import RELATIONSHIP_GROUPS
        pairs = [{"claim_text": "a", "doc_text": "b", "label": label}
                 for label in (*RELATIONSHIP_GROUPS, None)]
        pairs.append({"claim_text": "a", "doc_text": "b"})
        rec = CorpusRecord(id="x", description="d", relationship_pairs=pairs)
        assert rec.relationship_pairs == pairs

class TestPipelineConfig:
    def test_file_roundtrip(self, tmp_path):
        from dataclasses import fields
        values = dict(model_dim=16, num_heads=2, head_dim=8, num_layers=1, max_seq_len=256,
                      vocab_cap=500, sim_temperature=0.2, aux_weight=0.25, max_gen_len=8,
                      batch_size=2, lr=0.001, weight_decay=0.0, grad_clip=2.5, gamma=0.05,
                      t0=100.0, top_k=3, seed=9)
        assert values.keys() == {f.name for f in fields(PipelineConfig)}
        path = tmp_path / "p.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert PipelineConfig.from_file(path) == PipelineConfig(**values)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("nope = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.from_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("# comment\n\nmodel_dim = 32  # inline\nnum_heads=4\nhead_dim = 8\n")
        cfg = PipelineConfig.from_file(path)
        assert (cfg.model_dim, cfg.num_heads, cfg.head_dim) == (32, 4, 8)

    @pytest.mark.parametrize("kw, key, reason", [
        (dict(max_gen_len=0), "max_gen_len", "must be at least 1"),
        (dict(max_seq_len=10, max_gen_len=8), "max_gen_len", "\\+ 2"),
        (dict(top_k=-1), "top_k", "must be non-negative, got -1"),
        (dict(batch_size=0), "batch_size", "must be at least 1, got 0"),
        (dict(grad_clip=0.0), "grad_clip", "must be positive, got 0.0"),
        (dict(grad_clip=-1.0), "grad_clip", "must be positive, got -1.0"),
        (dict(lr=-1.0), "lr", "must be non-negative, got -1.0"),
        (dict(weight_decay=-5.0), "weight_decay", "must be non-negative, got -5.0"),
        (dict(num_heads=3), "num_heads", "\\* head_dim must equal model_dim"),
    ])
    def test_invalid_combination_rejected(self, tmp_path, kw, key, reason):
        with pytest.raises(ValueError, match=f"^{key} {reason}"):
            compact_config(**kw)
        path = tmp_path / "p.cfg"
        path.write_text("".join(f"{k} = {value}\n" for k, value in kw.items()))
        line = list(kw).index(key) + 1
        with pytest.raises(ValueError, match=f"p.cfg:{line}: config key '{key}' {reason}"):
            PipelineConfig.from_file(path)

    def test_rule_broken_by_a_default_names_the_file(self, tmp_path):
        # max_gen_len keeps its default, 32, which max_seq_len = 10 leaves no room for
        path = tmp_path / "p.cfg"
        path.write_text("# geometry\nmax_seq_len = 10\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: max_gen_len \\+ 2 "
                                             f"must be below max_seq_len"):
            PipelineConfig.from_file(path)

    def test_smallest_valid_combination_accepted(self):
        cfg = compact_config(max_seq_len=11, max_gen_len=8, top_k=0, batch_size=1, lr=0.0,
                             weight_decay=0.0)
        assert (cfg.max_seq_len, cfg.max_gen_len, cfg.top_k) == (11, 8, 0)
        assert (cfg.batch_size, cfg.lr, cfg.weight_decay) == (1, 0.0, 0.0)

    @pytest.mark.parametrize("line", ["model_dim = abc", "lr = fast", "seed = 1.5"])
    def test_unparsable_value_names_line_and_key(self, tmp_path, line):
        path = tmp_path / "p.cfg"
        path.write_text("# geometry\n" + line + "\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"p.cfg:2: config key '{key}': cannot parse"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        # these used to load: lr = nan trained until a softmax input went
        # non-finite, and gamma = inf wrote "tau": 0.0 in every report
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            compact_config(**{key: float(value)})
        path = tmp_path / "p.cfg"
        path.write_text(f"# training\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"p.cfg:2: config key '{key}' must be finite"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("key", ["chunk_centering", "chunk_scale", "adapter_rank",
                                     "base_margin", "adapt_strength", "verbatim_mode",
                                     "level3_tau_threshold"])
    def test_deleted_keys_rejected(self, tmp_path, key):
        path = tmp_path / "p.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            PipelineConfig.from_file(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        # the last value used to win without a word: this file loaded model_dim 32
        path = tmp_path / "p.cfg"
        path.write_text("model_dim = 16\n# geometry\nnum_heads = 2\nmodel_dim = 32\n")
        with pytest.raises(ValueError) as exc:
            PipelineConfig.from_file(path)
        message = str(exc.value)
        assert message.startswith(f"{path}:4: config key 'model_dim'")
        assert "line 1" in message

    def test_workers_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("workers = 2\n")
        with pytest.raises(ValueError, match="unknown config key 'workers'"):
            PipelineConfig.from_file(path)


class TestRunPipeline:
    def test_golden_file_byte_exact(self, tmp_path):
        result = run_pipeline(DATA / "golden_corpus.jsonl",
                              DATA / "golden_prior_art.jsonl",
                              tmp_path, compact_config(), seed=0)
        assert not result.failures
        got = result.report_path.read_bytes()
        expected = (DATA / "golden_report.jsonl").read_bytes()
        assert got == expected

    def test_each_stage1_text_encoded_once(self, tmp_path, monkeypatch):
        from claimforge.pipeline import run as pipeline_run
        seen = []
        encode = pipeline_run.encode_sequence

        def counting(ids, *args, **kwargs):
            seen.append(tuple(ids))
            return encode(ids, *args, **kwargs)

        monkeypatch.setattr(pipeline_run, "encode_sequence", counting)
        result = run_pipeline(DATA / "golden_corpus.jsonl",
                              DATA / "golden_prior_art.jsonl",
                              tmp_path, compact_config(), seed=0)
        assert result.report_path.read_bytes() == (DATA / "golden_report.jsonl").read_bytes()
        assert seen
        assert len(seen) == len(set(seen))

    def test_memo_holds_only_prior_art(self, tmp_path, monkeypatch):
        from claimforge.pipeline import run as pipeline_run
        from claimforge.similarity import ChunkFeatures
        memos = []
        process = pipeline_run.process_document

        def capturing(rec, prior_art, models, config, memo, stage2):
            memos.append(memo)
            return process(rec, prior_art, models, config, memo, stage2)

        monkeypatch.setattr(pipeline_run, "process_document", capturing)
        result = run_pipeline(DATA / "golden_corpus.jsonl",
                              DATA / "golden_prior_art.jsonl",
                              tmp_path, compact_config(), seed=0)
        assert result.report_path.read_bytes() == (DATA / "golden_report.jsonl").read_bytes()
        memo = memos[0]
        assert all(m is memo for m in memos)
        assert type(memo) is dict
        prior_art = read_corpus(DATA / "golden_prior_art.jsonl")
        assert list(memo) == [pa.id for pa in prior_art]
        seen_ids = {s["doc_chunk_id"] for r in result.reports for s in r["top_similarity"]}
        chunk_ids = set()
        for pa_id, chunks in memo.items():
            assert chunks
            for chunk_id, features in chunks:
                assert chunk_id.startswith(f"{pa_id}/[")
                assert isinstance(features, ChunkFeatures)
                chunk_ids.add(chunk_id)
        assert seen_ids <= chunk_ids

    def test_prior_art_longer_than_the_encoder_is_encoded_in_pieces(self, tmp_path):
        # every record was skipped: "sequence length 293 exceeds max_seq_len 256"
        from dataclasses import replace
        from claimforge.pipeline.run import (chunk_record, claim_similarities, load_models,
                                             record_texts)
        corpus = synth_corpus(0, 15)
        pa = corpus.prior_art[0]
        long_pa = replace(pa, description=" ".join([pa.description] * 4))
        write_corpus(tmp_path / "c.jsonl", corpus.records)
        write_corpus(tmp_path / "p.jsonl", [long_pa])
        config = compact_config()
        result = run_pipeline(tmp_path / "c.jsonl", tmp_path / "p.jsonl", tmp_path / "out",
                              config, seed=0)
        assert (len(result.reports), len(result.failures)) == (15, 0)

        models = load_models(record_texts(corpus.records + [long_pa]), config, seed=0)
        memo = {}
        claim_similarities(corpus.records[0], [long_pa], models, memo)
        _, _, _, chunks = chunk_record(long_pa, models.vocab)
        assert max(len(c) for c in chunks) > config.max_seq_len
        spans = [tuple(map(int, re.fullmatch(rf"{pa.id}/\[(\d+),(\d+)\)", chunk_id).groups()))
                 for chunk_id, _ in memo[pa.id]]
        # the pieces are at most max_seq_len, in order, and cover the chunks
        assert all(0 < e - s <= config.max_seq_len for s, e in spans)
        assert [s for s, _ in spans[1:]] == [e for _, e in spans[:-1]]
        assert (spans[0][0], spans[-1][1]) == (chunks[0].start_token, chunks[-1].end_token)
        assert {c.end_token for c in chunks} <= {e for _, e in spans}

    def test_inference_builds_no_tape(self, tmp_path, monkeypatch):
        from claimforge.numerics import Tensor
        from_op = Tensor._from_op.__func__
        counts = {"nodes": 0, "taped": 0}

        def counting(cls, data, parents, backward_fn):
            out = from_op(cls, data, parents, backward_fn)
            counts["nodes"] += 1
            if out.requires_grad or out.grad is not None or out._parents or out._backward:
                counts["taped"] += 1
            return out

        monkeypatch.setattr(Tensor, "_from_op", classmethod(counting))
        result = run_pipeline(DATA / "golden_corpus.jsonl",
                              DATA / "golden_prior_art.jsonl",
                              tmp_path, compact_config(), seed=0)
        assert result.report_path.read_bytes() == (DATA / "golden_report.jsonl").read_bytes()
        assert counts["nodes"] > 0
        assert counts["taped"] == 0

    def test_training_after_pipeline_gets_correct_gradients(self, tmp_path):
        from claimforge.generator import GeneratorSample
        from claimforge.generator.train import _sample_loss
        from claimforge.numerics import Rng, backward
        from claimforge.pipeline.run import build_models
        from claimforge.textcore import Vocabulary

        records = read_corpus(DATA / "golden_corpus.jsonl")
        records[-1].figure_count = -1  # this record raises inside process_document
        write_corpus(tmp_path / "c.jsonl", records)
        result = run_pipeline(tmp_path / "c.jsonl", DATA / "golden_prior_art.jsonl",
                              tmp_path / "out", compact_config(), seed=0)
        assert [f["doc_id"] for f in result.failures] == [records[-1].id]

        rec = records[0]
        vocab = Vocabulary.build([rec.description] + rec.claims, cap=512)
        models = build_models(vocab, compact_config(), seed=1)
        for t in models.adapter_bank.params.values():  # B starts at zero; make deltas matter
            t.data = Rng(2, ("b",)).normal(t.data.shape, 0.1)
        sample = GeneratorSample(rec.id, vocab.encode_text(rec.description),
                                 vocab.encode_text(rec.claims[0]), rec.domain)
        model, bank, clf = models.generator, models.adapter_bank, models.classifier
        checked = {name: params[name] for name, params in (
            ("adapter/software/l0/wq/B", bank.params),
            ("adapter/software/l0/wv/C", bank.params),
            ("dec/l0/attn/wq", model.params),
            ("domain/w2", clf.params),
        )}

        def loss():
            return _sample_loss(sample, model, bank, clf)

        grads = backward(loss(), checked)
        step = 1e-5
        for name, param in checked.items():
            original = param.data
            for j in Rng(4, (name,)).integers(0, original.size, size=5):
                values = []
                for sign in (1.0, -1.0):
                    param.data = original.copy()
                    param.data.reshape(-1)[j] += sign * step
                    values.append(loss().item())
                param.data = original
                numeric = (values[0] - values[1]) / (2.0 * step)
                analytic = grads[name].reshape(-1)[j]
                assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric)), (name, j)

    def test_rerun_byte_identical(self, tmp_path):
        corpus = synth_corpus(5, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:4])
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:2])
        r1 = run_pipeline(tmp_path / "c.jsonl", tmp_path / "p.jsonl",
                          tmp_path / "run1", compact_config(), seed=0)
        r2 = run_pipeline(tmp_path / "c.jsonl", tmp_path / "p.jsonl",
                          tmp_path / "run2", compact_config(), seed=0)
        assert r1.report_path.read_bytes() == r2.report_path.read_bytes()

    def test_empty_prior_art_still_runs_stages_2_and_3(self, tmp_path):
        corpus = synth_corpus(6, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:2])
        result = run_pipeline(tmp_path / "c.jsonl", None, tmp_path / "out",
                              compact_config(), seed=0)
        assert not result.failures
        for report in result.reports:
            assert report["top_similarity"] == []
            assert report["generated_claims"]
            assert len(report["quality"]["aspect_scores"]) == 5

    def test_five_aspect_scores_in_unit_interval(self, tmp_path):
        corpus = synth_corpus(7, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:3])
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:1])
        result = run_pipeline(tmp_path / "c.jsonl", tmp_path / "p.jsonl",
                              tmp_path / "out", compact_config(), seed=0)
        for report in result.reports:
            scores = report["quality"]["aspect_scores"]
            assert len(scores) == 5
            assert all(0.0 < v < 1.0 for v in scores.values())

    def test_stage_timestamps_monotone(self, tmp_path):
        corpus = synth_corpus(8, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:3])
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:1])
        result = run_pipeline(tmp_path / "c.jsonl", tmp_path / "p.jsonl",
                              tmp_path / "out", compact_config(), seed=0)
        rows = [json.loads(line)
                for line in result.timings_path.read_text().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"doc_id", "stage1_seconds", "stage2_seconds", "stage3_seconds",
                                "stage2_thread"}
            assert all(row[f"stage{i}_seconds"] >= 0 for i in (1, 2, 3))
            assert row["stage2_thread"] == "main"  # the test geometry keeps stage 2 inline

    def test_non_finite_similarity_ends_the_run_and_writes_no_report(self, tmp_path,
                                                                     monkeypatch):
        # a NonFiniteError used to skip every record as a bad input, and exit 1
        from claimforge.pipeline import run as run_module
        build = run_module.build_models

        def poisoned(*args):
            models = build(*args)
            models.head_bank.params["sim/phi/b2"].data[0] = np.nan
            return models

        monkeypatch.setattr(run_module, "build_models", poisoned)
        with pytest.raises(NonFiniteError, match="non-finite value in softmax input"):
            run_pipeline(DATA / "golden_corpus.jsonl", DATA / "golden_prior_art.jsonl",
                         tmp_path, compact_config(), seed=0)
        assert not (tmp_path / "report.jsonl").exists()
        assert cli_main(["--config", str(_write_config(tmp_path / "c.cfg")), "--seed", "0",
                         "--out", str(tmp_path / "o"), "pipeline",
                         "--corpus", str(DATA / "golden_corpus.jsonl"),
                         "--prior-art", str(DATA / "golden_prior_art.jsonl")]) == 2
        assert not (tmp_path / "o" / "report.jsonl").exists()

    def test_failure_isolation(self, tmp_path):
        records = read_corpus(DATA / "golden_corpus.jsonl")
        # structural corruption leaves every token count untouched, so the
        # corpus-derived vocabulary (and all other documents) are unchanged
        records[-1].figure_count = -1
        write_corpus(tmp_path / "c.jsonl", records)
        result = run_pipeline(tmp_path / "c.jsonl",
                              DATA / "golden_prior_art.jsonl",
                              tmp_path / "out", compact_config(), seed=0)
        assert [f["doc_id"] for f in result.failures] == [records[-1].id]
        golden_lines = (DATA / "golden_report.jsonl").read_text().splitlines()
        got_lines = result.report_path.read_text().splitlines()
        # clean documents match the golden run line for line
        assert got_lines[:len(records) - 1] == golden_lines[:len(records) - 1]
        skipped = json.loads(got_lines[-1])
        assert skipped["skipped"]["doc_id"] == records[-1].id

    def test_checkpoint_dimension_mismatch(self, tmp_path):
        from claimforge.numerics import save_checkpoint
        save_checkpoint(tmp_path / "m.ckpt", {"enc/embed": np.zeros((10, 32))})
        with pytest.raises(ValueError, match="32.*16|16.*32"):
            corpus = synth_corpus(9, 15)
            write_corpus(tmp_path / "c.jsonl", corpus.records[:1])
            run_pipeline(tmp_path / "c.jsonl", None, tmp_path / "out",
                         compact_config(), seed=0,
                         checkpoint_path=tmp_path / "m.ckpt")


@pytest.mark.skipif(usable_cores() < 2, reason="stage 2 takes a worker thread only with a second core")
class TestStageTwoWorker:
    """Stage 2 on a worker thread, ahead of stages 1 and 3, with the caller's
    thread taking the generations the worker has not started, writes the
    inline run's bytes."""

    @staticmethod
    def run(out, config, monkeypatch, worker=None, corpus=DATA / "golden_corpus.jsonl",
            prior_art=DATA / "golden_prior_art.jsonl"):
        """One run with the worker forced on or off, or as the gate decides
        (``worker=None``); returns (result, one (description ids, thread) pair
        per ``generate`` call)."""
        from claimforge.pipeline import run as run_module
        generate, calls = run_module.generate, []

        def recording(description_ids, *args, **kwargs):
            calls.append((tuple(description_ids), threading.get_ident()))
            return generate(description_ids, *args, **kwargs)

        with monkeypatch.context() as patch:
            # The gate reads the BLAS thread count from the environment; the
            # test process's own BLAS keeps the count it started with, which
            # the compared runs share.
            patch.setenv("OPENBLAS_NUM_THREADS", "1")
            if worker is not None:
                patch.setattr(run_module, "STAGE2_WORKER_MIN_DIM", 0 if worker else 10 ** 9)
            patch.setattr(run_module, "generate", recording)
            return run_pipeline(corpus, prior_art, out, config, seed=0), calls

    @staticmethod
    def assert_shared(calls, generations):
        """``generate`` ran once for each of ``generations`` records, and the
        worker ran at least one of them."""
        assert len(calls) == len({ids for ids, _ in calls}) == generations
        assert any(thread != threading.get_ident() for _, thread in calls)

    @staticmethod
    def write_records(tmp_path, count):
        """``count`` synthetic records and one prior-art record, written; returns
        the records and the ``run`` arguments that read them."""
        corpus = synth_corpus(8, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:count])
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:1])
        return corpus.records[:count], dict(corpus=tmp_path / "c.jsonl",
                                            prior_art=tmp_path / "p.jsonl")

    @staticmethod
    def fail_last(monkeypatch, records, error, release):
        """Make the last record's generation raise ``error`` and set
        ``release``; returns the threads it ran on."""
        from claimforge.pipeline import run as run_module
        generate_claim, raised_on = run_module.generate_claim, []

        def failing(rec, *args):
            if rec.id != records[-1].id:
                return generate_claim(rec, *args)
            raised_on.append(threading.get_ident())
            release.set()
            raise error(f"no claim for {rec.id}")

        monkeypatch.setattr(run_module, "generate_claim", failing)
        return raised_on

    @staticmethod
    def hold_worker(monkeypatch, release, stage1="claim_similarities"):
        """Hold the worker inside its first decode step until ``release`` is
        set. The caller's thread enters ``stage1``, a stage-1 step of
        ``run_module``, only once the worker is held, so it finds the first
        record's job running and takes the last record's."""
        from claimforge.generator import decode
        from claimforge.pipeline import run as run_module
        step, stage1_step = decode.decoder_logits, getattr(run_module, stage1)
        held, main = threading.Event(), threading.get_ident()

        def holding_step(*args, **kwargs):
            if threading.get_ident() != main and not held.is_set():
                held.set()
                release.wait(timeout=30)
            return step(*args, **kwargs)

        def after_hold(*args):
            held.wait(timeout=30)
            return stage1_step(*args)

        monkeypatch.setattr(decode, "decoder_logits", holding_step)
        monkeypatch.setattr(run_module, stage1, after_hold)

    def test_worker_reproduces_the_golden_report(self, tmp_path, monkeypatch):
        # Slow decode steps, and a pause after each record, keep a generation
        # live on the worker while the caller's thread is between records, and
        # a short switch interval interleaves the two threads' bytecode;
        # neither thread may switch the process-wide grad flag back on under
        # the other, or leave it off after the run.
        from claimforge.generator import decode
        from claimforge.pipeline import run as run_module
        step, process = decode.decoder_logits, run_module.process_document
        from_op, taped = Tensor._from_op.__func__, []

        def slow_step(*args, **kwargs):
            time.sleep(0.002)
            return step(*args, **kwargs)

        def pausing(*args):
            out = process(*args)
            time.sleep(0.005)
            return out

        def counting(cls, data, parents, backward_fn):
            out = from_op(cls, data, parents, backward_fn)
            if out.requires_grad or out._parents or out._backward:
                taped.append(out)
            return out

        monkeypatch.setattr(decode, "decoder_logits", slow_step)
        monkeypatch.setattr(run_module, "process_document", pausing)
        monkeypatch.setattr(Tensor, "_from_op", classmethod(counting))
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result, calls = self.run(tmp_path, compact_config(), monkeypatch, worker=True)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert result.report_path.read_bytes() == (DATA / "golden_report.jsonl").read_bytes()
        self.assert_shared(calls, 3)
        assert not taped
        assert len(result.timings_path.read_text().splitlines()) == len(result.reports)
        assert threading.active_count() == before
        assert (Tensor(np.ones(2), requires_grad=True) * 2.0)._backward is not None

    def test_slow_worker_leaves_generations_to_the_caller(self, tmp_path, monkeypatch):
        # Decode steps slowed on the worker alone: the caller's thread, which
        # would otherwise wait, runs some records' generations, and the bytes
        # stay those of a run on one thread.
        from claimforge.generator import decode
        _, files = self.write_records(tmp_path, 5)
        self.run(tmp_path / "inline", compact_config(), monkeypatch, worker=False, **files)
        step, main = decode.decoder_logits, threading.get_ident()

        def slow_on_worker(*args, **kwargs):
            if threading.get_ident() != main:
                time.sleep(0.01)
            return step(*args, **kwargs)

        monkeypatch.setattr(decode, "decoder_logits", slow_on_worker)
        result, calls = self.run(tmp_path / "shared", compact_config(), monkeypatch,
                                 worker=True, **files)
        self.assert_shared(calls, 5)
        assert main in {thread for _, thread in calls}
        for name in ("report.jsonl", "summary.txt"):
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes())
        threads = [json.loads(line)["stage2_thread"]
                   for line in result.timings_path.read_text().splitlines()]
        assert sorted(set(threads)) == ["main", "worker"]
        assert threads.count("main") == sum(thread == main for _, thread in calls)

    def test_paper_geometry_overlapped_equals_inline(self, tmp_path, monkeypatch):
        corpus = synth_corpus(5, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:3])
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:2])
        files = dict(corpus=tmp_path / "c.jsonl", prior_art=tmp_path / "p.jsonl")
        inline, inline_calls = self.run(tmp_path / "inline", PipelineConfig(), monkeypatch,
                                        worker=False, **files)
        # the default width takes the worker with the gate where it is
        _, calls = self.run(tmp_path / "overlap", PipelineConfig(), monkeypatch, **files)
        assert {thread for _, thread in inline_calls} == {threading.get_ident()}
        self.assert_shared(calls, 3)
        assert len(inline.reports) == 3
        for name in ("report.jsonl", "summary.txt"):
            assert ((tmp_path / "overlap" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes())

    def test_failing_records_give_the_inline_rows(self, tmp_path, monkeypatch):
        from claimforge.pipeline import run as run_module
        corpus = synth_corpus(8, 15)
        records = corpus.records[:5]
        write_corpus(tmp_path / "clean.jsonl", records)
        write_corpus(tmp_path / "p.jsonl", corpus.prior_art[:1])
        records[1].figure_count = -1  # raises in stage 1, after its generation was submitted
        write_corpus(tmp_path / "c.jsonl", records)
        files = dict(corpus=tmp_path / "c.jsonl", prior_art=tmp_path / "p.jsonl")
        clean, _ = self.run(tmp_path / "clean", compact_config(), monkeypatch, worker=False,
                            corpus=tmp_path / "clean.jsonl", prior_art=files["prior_art"])
        generate_claim = run_module.generate_claim

        def failing(rec, *args):
            if rec.id == records[3].id:
                raise ValueError(f"no claim for {rec.id}")
            return generate_claim(rec, *args)

        monkeypatch.setattr(run_module, "generate_claim", failing)
        rows, runs = {}, {}
        for worker in (False, True):
            result, runs[worker] = self.run(tmp_path / f"out{worker}", compact_config(),
                                            monkeypatch, worker=worker, **files)
            assert [f["doc_id"] for f in result.failures] == [records[1].id, records[3].id]
            rows[worker] = result.report_path.read_text().splitlines()
        # records 0, 2 and 4 generate; record 1's job, submitted before its
        # stage 1 failed, may also run, on either thread, but not twice
        calls = runs[True]
        assert len(calls) == len({ids for ids, _ in calls})
        assert {ids for ids, _ in runs[False]} <= {ids for ids, _ in calls}
        assert any(thread != threading.get_ident() for _, thread in calls)
        assert rows[True] == rows[False]
        kept = [line for i, line in enumerate(clean.report_path.read_text().splitlines())
                if i not in (1, 3)]
        assert rows[True][:3] == kept

    def test_stolen_value_error_skips_its_own_record(self, tmp_path, monkeypatch):
        records, files = self.write_records(tmp_path, 4)
        release = threading.Event()
        raised_on = self.fail_last(monkeypatch, records, ValueError, release)
        inline, _ = self.run(tmp_path / "inline", compact_config(), monkeypatch, worker=False,
                             **files)
        release.clear()  # set by the inline run's failure
        self.hold_worker(monkeypatch, release)
        result, calls = self.run(tmp_path / "shared", compact_config(), monkeypatch,
                                 worker=True, **files)
        # raised inline, then on the caller's thread while the worker was held
        assert raised_on == [threading.get_ident()] * 2
        assert [f["doc_id"] for f in result.failures] == [records[-1].id]
        assert result.report_path.read_bytes() == inline.report_path.read_bytes()
        self.assert_shared(calls, 3)

    def test_stolen_non_finite_error_ends_the_run_and_joins_the_worker(self, tmp_path,
                                                                       monkeypatch):
        from claimforge.pipeline import run as run_module
        records, files = self.write_records(tmp_path, 4)
        release = threading.Event()
        raised_on = self.fail_last(monkeypatch, records, NonFiniteError, release)
        self.hold_worker(monkeypatch, release)
        score_pair, scored = run_module.score_pair, []

        def scoring(*args):
            scored.append(args)
            return score_pair(*args)

        monkeypatch.setattr(run_module, "score_pair", scoring)
        before = threading.active_count()
        with pytest.raises(NonFiniteError, match=f"no claim for {records[-1].id}"):
            self.run(tmp_path / "out", compact_config(), monkeypatch, worker=True, **files)
        # taken at the first record, it ends the run at its own, the last
        assert raised_on == [threading.get_ident()]
        assert len(scored) == len(records) - 1
        assert threading.active_count() == before
        assert (Tensor(np.ones(2), requires_grad=True) * 2.0)._backward is not None
        assert not (tmp_path / "out" / "report.jsonl").exists()

    def test_stolen_non_finite_error_of_a_skipped_record_is_dropped(self, tmp_path,
                                                                     monkeypatch):
        # The caller's thread takes the last record's generation, which raises,
        # while the worker is held; that record then fails stage 1, so its
        # error is never asked for, as inline, where its generation never runs.
        records, _ = self.write_records(tmp_path, 4)
        records[-1].figure_count = -1
        write_corpus(tmp_path / "c.jsonl", records)
        files = dict(corpus=tmp_path / "c.jsonl", prior_art=tmp_path / "p.jsonl")
        release = threading.Event()
        raised_on = self.fail_last(monkeypatch, records, NonFiniteError, release)
        inline, _ = self.run(tmp_path / "inline", compact_config(), monkeypatch, worker=False,
                             **files)
        assert not raised_on
        self.hold_worker(monkeypatch, release)
        before = threading.active_count()
        result, calls = self.run(tmp_path / "shared", compact_config(), monkeypatch,
                                 worker=True, **files)
        assert raised_on == [threading.get_ident()]
        assert [f["doc_id"] for f in result.failures] == [records[-1].id]
        assert result.report_path.read_text().count('"skipped"') == 1
        assert result.report_path.read_bytes() == inline.report_path.read_bytes()
        self.assert_shared(calls, 3)
        assert threading.active_count() == before

    def test_a_run_stopped_at_its_first_record_submits_no_generation(self, tmp_path,
                                                                     monkeypatch):
        # bench/setup_probe.py times set-up by stopping the run at its first
        # record; jobs submitted before it would make leaving the run wait for
        # a generation, which set-up would then be charged for.
        from claimforge.pipeline import run as run_module

        class FirstDocument(BaseException):
            """Not an Exception, so ``run_pipeline`` does not isolate it."""

        def stop(*args):
            raise FirstDocument

        start, started = threading.Thread.start, []

        def recording_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(run_module, "process_document", stop)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before, calls = threading.active_count(), []
        monkeypatch.setattr(run_module, "generate", lambda *args, **kw: calls.append(args))
        with pytest.raises(FirstDocument):
            self.run(tmp_path, compact_config(), monkeypatch, worker=True)
        # the gate held: the decoder was drawn on a worker, and no stage-2 one started
        assert [name.split("_")[0] for name in started] == ["init"]
        assert not calls
        assert threading.active_count() == before

    def test_non_finite_generation_ends_the_run_and_joins_the_worker(self, tmp_path,
                                                                     monkeypatch):
        from claimforge.pipeline import run as run_module
        records = read_corpus(DATA / "golden_corpus.jsonl")
        generate_claim = run_module.generate_claim

        def poisoned(rec, *args):
            if rec.id == records[1].id:
                raise NonFiniteError("non-finite value in decoder logits")
            return generate_claim(rec, *args)

        monkeypatch.setattr(run_module, "generate_claim", poisoned)
        before = threading.active_count()
        with pytest.raises(NonFiniteError, match="decoder logits"):
            self.run(tmp_path, compact_config(), monkeypatch, worker=True)
        assert threading.active_count() == before
        assert (Tensor(np.ones(2), requires_grad=True) * 2.0)._backward is not None
        assert not (tmp_path / "report.jsonl").exists()

    def test_skipped_records_are_not_generated(self, tmp_path, monkeypatch):
        # Records 0 and 1 fail stage 1 while the worker is held inside record
        # 0's generation: that started job runs to its end, record 1's is
        # dropped before any thread starts it, and record 2's runs.
        from claimforge.pipeline import run as run_module
        records, _ = self.write_records(tmp_path, 3)
        for rec in records[:2]:
            rec.figure_count = -1
        write_corpus(tmp_path / "c.jsonl", records)
        files = dict(corpus=tmp_path / "c.jsonl", prior_art=tmp_path / "p.jsonl")
        texts = run_module.record_texts(records + read_corpus(files["prior_art"]))
        vocab = Vocabulary.build(texts, cap=compact_config().vocab_cap)
        ids = [tuple(vocab.encode_text(rec.description)) for rec in records]
        inline, inline_calls = self.run(tmp_path / "inline", compact_config(), monkeypatch,
                                        worker=False, **files)
        release = threading.Event()
        self.hold_worker(monkeypatch, release, stage1="chunk_record")
        chunk_record = run_module.chunk_record

        def chunking(rec, vocab):
            try:
                return chunk_record(rec, vocab)
            finally:
                if rec.id == records[1].id:
                    release.set()  # record 1's stage 1 has raised

        monkeypatch.setattr(run_module, "chunk_record", chunking)
        before = threading.active_count()
        result, calls = self.run(tmp_path / "shared", compact_config(), monkeypatch,
                                 worker=True, **files)
        assert [i for i, _ in inline_calls] == [ids[2]]
        assert [i for i, _ in calls] == [ids[0], ids[2]]
        assert calls[0][1] != threading.get_ident()
        assert [f["doc_id"] for f in result.failures] == [records[0].id, records[1].id]
        for name in ("report.jsonl", "summary.txt"):
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes())
        assert threading.active_count() == before


class TestStageTwoGate:
    """Where ``run_pipeline`` takes the stage-2 worker."""

    @pytest.mark.parametrize("env, pays", [
        ({}, False),                                        # OpenBLAS: one thread per core
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "4"}, False),
    ])
    def test_worker_only_with_one_blas_thread(self, monkeypatch, env, pays):
        from claimforge.pipeline import run as run_module
        for var in run_module.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(run_module, "usable_cores", lambda: 2)
        assert run_module.stage2_worker_pays(PipelineConfig()) is pays
        assert run_module.stage2_worker_pays(compact_config()) is False
        monkeypatch.setattr(run_module, "usable_cores", lambda: 1)
        assert run_module.stage2_worker_pays(PipelineConfig()) is False

    @pytest.mark.parametrize("v2, v1, cores", [
        (None, None, "all"),
        ("max 100000\n", None, "all"),
        ("150000 100000\n", None, 1),
        ("50000 100000\n", None, 1),
        ("400000 100000\n", None, "all"),
        (None, ("-1\n", "100000\n"), "all"),
        (None, ("200000\n", "100000\n"), 2),
        ("garbled\n", ("100000\n", "100000\n"), 1),
    ])
    def test_cpu_quota_caps_the_affinity_mask(self, tmp_path, monkeypatch, v2, v1, cores):
        from claimforge.pipeline import run as run_module
        monkeypatch.setattr(run_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        files = {"cpu.max": v2, "quota": v1 and v1[0], "period": v1 and v1[1]}
        for name, text in files.items():
            if text is not None:
                (tmp_path / name).write_text(text)
        monkeypatch.setattr(run_module, "CPU_QUOTA_FILES", (
            (tmp_path / "cpu.max", tmp_path / "cpu.max"),
            (tmp_path / "quota", tmp_path / "period")))
        assert run_module.usable_cores() == (4 if cores == "all" else cores)


class TestThreadedModelDraw:
    """A fresh model whose decoder substream is drawn on a worker thread is the
    model drawn on one thread, tensor for tensor and byte for byte."""

    CONFIG = dict(model_dim=128, head_dim=16)  # the narrowest width that takes the worker

    @staticmethod
    def texts():
        from claimforge.pipeline.run import record_texts
        return record_texts(read_corpus(DATA / "golden_corpus.jsonl"))

    @classmethod
    def draw(cls, monkeypatch, threaded):
        """Fresh models over the golden corpus at ``CONFIG``, with the draw's gate
        forced on or off; returns them and the thread of each
        ``GeneratorModel.init`` call."""
        from claimforge.generator import GeneratorModel
        from claimforge.pipeline import run as run_module
        init, threads = GeneratorModel.init, []

        def recording(*args):
            threads.append(threading.get_ident())
            return init(*args)

        with monkeypatch.context() as patch:
            patch.setattr(run_module, "stage2_worker_pays", lambda config: threaded)
            patch.setattr(GeneratorModel, "init", recording)
            models = run_module.load_models(cls.texts(), PipelineConfig(**cls.CONFIG), seed=0)
        return models, threads

    def test_threaded_draw_equals_inline(self, tmp_path, monkeypatch):
        from claimforge.pipeline.run import all_params, save_models
        before, params, threads = threading.active_count(), {}, {}
        for threaded in (False, True):
            models, threads[threaded] = self.draw(monkeypatch, threaded)
            params[threaded] = all_params(models)
            save_models(models, tmp_path / str(threaded))
        assert threads[False] == [threading.get_ident()]
        assert len(threads[True]) == 1 and threads[True][0] != threading.get_ident()
        assert threading.active_count() == before
        assert list(params[True]) == list(params[False])
        for name, arr in params[False].items():
            got = params[True][name]
            assert got.dtype == arr.dtype and np.array_equal(got, arr), name
        for name in ("model.ckpt", "vocab.txt"):
            assert ((tmp_path / "True" / name).read_bytes()
                    == (tmp_path / "False" / name).read_bytes())

    @pytest.mark.parametrize("owner", ["GeneratorModel", "EvaluatorModel"])
    def test_a_raising_draw_propagates_and_joins_the_worker(self, monkeypatch, owner):
        # the decoder raises on the worker, or the evaluator on the caller's
        # thread while the worker draws
        from claimforge.pipeline import run as run_module
        cls = getattr(run_module, owner)

        def failing(*args):
            raise ValueError(f"no {owner} today")

        monkeypatch.setattr(cls, "init", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"no {owner} today"):
            self.draw(monkeypatch, threaded=True)
        assert threading.active_count() == before

    def test_checkpoint_and_test_geometry_start_no_thread(self, tmp_path, monkeypatch):
        from claimforge.pipeline import run as run_module
        models, _ = self.draw(monkeypatch, threaded=False)
        ckpt = run_module.save_models(models, tmp_path / "m")

        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(run_module, "usable_cores", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert run_module.stage2_worker_pays(PipelineConfig(**self.CONFIG))
        run_module.load_models([], PipelineConfig(**self.CONFIG), seed=0, checkpoint_path=ckpt)
        assert not run_module.stage2_worker_pays(compact_config())
        run_module.load_models(self.texts(), compact_config(), seed=0)
        # a whole run at the test geometry: stage 2 without a worker is the
        # same path with no job submitted, each generation run at its result
        result = run_pipeline(DATA / "golden_corpus.jsonl", DATA / "golden_prior_art.jsonl",
                              tmp_path / "run", compact_config(), seed=0)
        assert result.report_path.read_bytes() == (DATA / "golden_report.jsonl").read_bytes()
        rows = result.timings_path.read_text().splitlines()
        assert len(rows) == 3 and all(json.loads(row)["stage2_thread"] == "main" for row in rows)

    def test_default_blas_threads_draw_inline(self, monkeypatch):
        # the draw was measured with one BLAS thread only; with OpenBLAS's
        # default the caller's QR would share the two cores with the worker
        from claimforge.pipeline import run as run_module
        for var in run_module.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(run_module, "usable_cores", lambda: 2)

        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        run_module.load_models(self.texts(), PipelineConfig(**self.CONFIG), seed=0)


class TestCli:
    def test_no_arguments_usage_exit_1(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_subcommand_exit_1(self):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_input_exit_1(self, tmp_path):
        assert cli_main(["--out", str(tmp_path), "chunk",
                         "--corpus", str(tmp_path / "missing.jsonl")]) == 1

    def test_synth_then_metrics_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["--seed", "0", "--out", str(out),
                         "synth", "--size", "15"]) == 0
        assert (out / "corpus.jsonl").exists()
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"reference": "a b c d",
                                     "generated": "a b c d"}) + "\n")
        assert cli_main(["--out", str(out), "metrics",
                         "--pairs", str(pairs)]) == 0
        row = json.loads((out / "metrics.jsonl").read_text())
        assert row["bleu"] == pytest.approx(1.0)

    def test_metrics_reproduces_the_pipeline_metrics_block(self, tmp_path):
        corpus = synth_corpus(0, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records)
        result = run_pipeline(tmp_path / "c.jsonl", None, tmp_path / "run", compact_config(),
                              seed=0)
        claims = {rec.id: rec.claims[0] for rec in corpus.records}
        lines = [json.dumps({"reference": claims[report["doc_id"]],
                             "generated": report["generated_claims"][0]})
                 for report in result.reports]
        (tmp_path / "pairs.jsonl").write_text("\n".join(lines) + "\n")
        assert cli_main(["--out", str(tmp_path), "metrics",
                         "--pairs", str(tmp_path / "pairs.jsonl")]) == 0
        rows = [json.loads(line)
                for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == len(result.reports) == 15
        for row, report in zip(rows, result.reports):
            assert {"rouge_l": row["rouge_l"], "bleu": row["bleu"]} == report["metrics"]

    def test_config_checkpoint_mismatch_names_both_values(self, tmp_path, capsys):
        from claimforge.numerics import save_checkpoint
        corpus = synth_corpus(0, 15)
        write_corpus(tmp_path / "c.jsonl", corpus.records[:1])
        save_checkpoint(tmp_path / "m.ckpt", {"enc/embed": np.zeros((10, 32))})
        code = cli_main(["--config", str(_write_config(tmp_path / "p.cfg")),
                         "--out", str(tmp_path / "o"),
                         "generate", "--corpus", str(tmp_path / "c.jsonl"),
                         "--checkpoint", str(tmp_path / "m.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "32" in err and "16" in err

    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["--seed", "4", "--out", str(out_a),
                         "synth", "--size", "15"]) == 0
        monkeypatch.setenv("CLAIMFORGE_SEED", "4")
        assert cli_main(["--out", str(out_b), "synth", "--size", "15"]) == 0
        assert (out_a / "corpus.jsonl").read_bytes() == \
            (out_b / "corpus.jsonl").read_bytes()

    def test_non_finite_config_value_exits_1_naming_the_key(self, tmp_path, capsys):
        write_corpus(tmp_path / "c.jsonl", synth_corpus(0, 15).records[:1])
        config = _write_config(tmp_path / "p.cfg", gamma="inf")
        assert cli_main(["--config", str(config), "--out", str(tmp_path / "o"),
                         "pipeline", "--corpus", str(tmp_path / "c.jsonl")]) == 1
        assert f"{config}:8: config key 'gamma' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.jsonl").exists()

    @pytest.mark.parametrize("exc, message", [
        (NonFiniteError("non-finite value in softmax input"),
         "internal invariant violation: non-finite value in softmax input"),
        (AssertionError("broken invariant"), "internal invariant violation: broken invariant"),
        # any other exception used to leave main with a traceback
        (ZeroDivisionError("float division by zero"),
         "internal error: ZeroDivisionError: float division by zero"),
    ])
    def test_internal_error_exits_2(self, tmp_path, capsys, monkeypatch, exc, message):
        # NonFiniteError is a ValueError: it used to exit 1 as an input error
        import claimforge.cli as cli

        def fail(args, config, seed):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "synth", fail)
        assert cli_main(["--out", str(tmp_path), "synth"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_non_integer_env_seed_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLAIMFORGE_SEED", "seven")
        assert cli_main(["--out", str(tmp_path), "synth", "--size", "15"]) == 1
        assert "CLAIMFORGE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "metrics"])
    @pytest.mark.parametrize("line, match", [
        ('{"reference": "a", "generated": "b"', "bad JSON"),
        ('["a", "b"]', "JSON object with string"),
        ('{"reference": "a"}', "JSON object with string"),
        ('{"reference": 3, "generated": "b"}', "JSON object with string"),
        ('{"reference": "a", "generated": ["b"]}', "JSON object with string"),
        ('{"reference": "a", "generated": "b", "domain": "aerospace"}', "domain must be one of"),
    ])
    def test_bad_pairs_row_named_with_location(self, tmp_path, capsys, command, line, match):
        # these used to exit with a bare JSON or tuple.index message, or a traceback
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"reference": "a b", "generated": "a c",
                                     "domain": DOMAINS[1]}) + "\n" + line + "\n")
        assert cli_main(["--out", str(tmp_path / "o"), command, "--pairs", str(pairs)]) == 1
        err = capsys.readouterr().err
        assert f"{pairs}:2: " in err
        assert match in err


def _write_config(path, **kw):
    """A config file of the test geometry, with ``kw`` on top."""
    path.write_text("".join(f"{key} = {value}\n" for key, value in {**GEOMETRY, **kw}.items()))
    return path


class TestModelCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        from claimforge.pipeline.run import all_params, load_models, record_texts, save_models
        records = read_corpus(DATA / "golden_corpus.jsonl")
        saved = load_models(record_texts(records), compact_config(), seed=0)
        ckpt = save_models(saved, tmp_path / "m")
        # another seed and no texts: every tensor and the vocabulary come from disk
        loaded = load_models([], compact_config(), seed=7, checkpoint_path=ckpt)
        tokens = [saved.vocab.token(i) for i in range(len(saved.vocab))]
        assert [loaded.vocab.token(i) for i in range(len(loaded.vocab))] == tokens
        want, got = all_params(saved), all_params(loaded)
        assert got.keys() == want.keys()
        for name, arr in want.items():
            assert np.array_equal(got[name], arr.astype(np.float32)), name

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_strict_load_names_the_tensor(self, tmp_path, capsys, change):
        from claimforge.numerics import load_checkpoint, save_checkpoint
        from claimforge.pipeline.run import load_models, record_texts, save_models
        records = read_corpus(DATA / "golden_corpus.jsonl")
        ckpt = save_models(load_models(record_texts(records), compact_config(), seed=0),
                           tmp_path / "m")
        tensors = load_checkpoint(ckpt)
        if change == "missing":
            name = "sim/h3/wk"
            del tensors[name]
        else:
            name = "sim/h9/wk"
            tensors[name] = np.zeros((16, 8))
        save_checkpoint(ckpt, tensors)
        with pytest.raises(ValueError, match=name):
            load_models([], compact_config(), seed=0, checkpoint_path=ckpt)
        code = cli_main(["--config", str(_write_config(tmp_path / "c.cfg")),
                         "--seed", "0", "--out", str(tmp_path / "o"), "pipeline",
                         "--corpus", str(DATA / "golden_corpus.jsonl"),
                         "--checkpoint", str(ckpt)])
        assert code == 1
        assert name in capsys.readouterr().err

    def test_checkpointed_load_draws_no_random_model(self, tmp_path, monkeypatch):
        # the load used to draw a whole random model and then overwrite every tensor
        from claimforge.numerics import Rng, load_checkpoint
        from claimforge.pipeline.run import all_params, load_models, record_texts, save_models
        records = read_corpus(DATA / "golden_corpus.jsonl")
        ckpt = save_models(load_models(record_texts(records), compact_config(), seed=0),
                           tmp_path / "m")

        def no_draw(*args, **kwargs):
            raise AssertionError("a checkpointed load drew from an Rng")

        monkeypatch.setattr(Rng, "normal", no_draw)
        loaded = all_params(load_models([], compact_config(), seed=0, checkpoint_path=ckpt))
        want = load_checkpoint(ckpt)
        assert loaded.keys() == want.keys()
        for name, arr in want.items():
            assert np.array_equal(loaded[name], arr), name


class TestCliStages:
    @pytest.mark.parametrize("setting, message", [
        (dict(batch_size=0), "8: config key 'batch_size' must be at least 1, got 0"),
        (dict(grad_clip=-1.0), "8: config key 'grad_clip' must be positive, got -1.0"),
    ])
    def test_out_of_range_training_setting_exits_1(self, tmp_path, capsys, setting, message):
        # batch_size = 0 died in train-gen with a ZeroDivisionError traceback,
        # and grad_clip = -1 trained with every gradient flipped
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, synth_corpus(0, 15).records)
        out = tmp_path / "o"
        config = _write_config(tmp_path / "c.cfg", **setting)
        assert cli_main(["--config", str(config), "--out", str(out), "train-gen",
                         "--corpus", str(corpus), "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert f"error: {config}:{message}" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("setting, line, message", [
        # num_heads = 3 loaded, and build_models rejected it after the corpus was read
        (dict(num_heads=3), 2,
         "config key 'num_heads' * head_dim must equal model_dim: 3 * 8 != 16"),
        # these loaded, and then every record was skipped: the schedule was
        # built inside each record, model_dim = 0 divided by zero, and an odd
        # width broke the sinusoidal position table
        (dict(gamma=0), 8, "config key 'gamma' must be positive, got 0.0"),
        (dict(t0=-1), 8, "config key 't0' must be non-negative, got -1.0"),
        (dict(model_dim=15, num_heads=3, head_dim=5), 1,
         "config key 'model_dim' must be a positive even number, got 15"),
        (dict(model_dim=0), 1, "config key 'model_dim' must be a positive even number, got 0"),
        # this loaded, and the vocabulary rejected it after the corpus was read
        (dict(vocab_cap=0), 8, "config key 'vocab_cap' must be at least 5, got 0"),
    ])
    def test_bad_setting_rejected_before_the_corpus_is_read(self, tmp_path, capsys, setting,
                                                           line, message):
        config = _write_config(tmp_path / "c.cfg", **setting)
        assert cli_main(["--config", str(config), "--out", str(tmp_path / "o"), "pipeline",
                         "--corpus", str(tmp_path / "missing.jsonl")]) == 1
        assert f"error: {config}:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.jsonl").exists()

    def test_evaluate_skips_only_the_pair_it_cannot_score(self, tmp_path, capsys):
        # an unscorable pair used to end the run before any row was written
        pairs = tmp_path / "pairs.jsonl"
        good = {"reference": "a first claim", "generated": "a second claim",
                "domain": DOMAINS[2]}
        pairs.write_text(json.dumps(good) + "\n"
                         + json.dumps({"reference": "", "generated": ""}) + "\n")
        code = cli_main(["--config", str(_write_config(tmp_path / "c.cfg")), "--seed", "0",
                         "--out", str(tmp_path / "o"), "evaluate", "--pairs", str(pairs)])
        assert code == 1
        assert f"{pairs}:2: empty claim pair" in capsys.readouterr().err
        rows = [json.loads(line)
                for line in (tmp_path / "o" / "quality.jsonl").read_text().splitlines()]
        assert [(r["reference"], r["generated"]) for r in rows] == \
            [(good["reference"], good["generated"])]
        assert len(rows[0]["aspect_scores"]) == 5

    @pytest.mark.parametrize("command", ["train-sim", "train-eval"])
    def test_trainer_writes_its_loss_curve(self, tmp_path, capsys, command):
        cfg = str(_write_config(tmp_path / "c.cfg"))
        corpus = str(tmp_path / "syn" / "corpus.jsonl")
        assert cli_main(["--config", cfg, "--seed", "0", "--out", str(tmp_path / "syn"),
                         "synth", "--size", "15"]) == 0
        assert cli_main(["--config", cfg, "--seed", "0", "--out", str(tmp_path / "t"),
                         command, "--corpus", corpus, "--epochs", "1"]) == 0
        rows = [json.loads(line)
                for line in (tmp_path / "t" / "train_log.jsonl").read_text().splitlines()]
        assert rows and [row["step"] for row in rows] == list(range(len(rows)))
        assert all(set(row) == {"step", "loss", "grad_norm"} for row in rows)
        # the printed curve runs from the first logged loss to the last
        printed = capsys.readouterr().out
        assert f"loss {rows[0]['loss']:.4f} -> {rows[-1]['loss']:.4f}" in printed

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command, flag", [("train-sim", "--epochs"),
                                               ("train-gen", "--steps"),
                                               ("train-eval", "--epochs")])
    def test_no_training_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        # these used to write an untrained checkpoint and die on history[0]
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, synth_corpus(0, 15).records)
        code = cli_main(["--config", str(_write_config(tmp_path / "c.cfg")),
                         "--out", str(tmp_path / "o"), command, "--corpus", str(corpus),
                         f"{flag}={value}"])
        assert code == 1
        assert f"error: {flag[2:]} must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_train_eval_counts_only_the_tuples_it_can_rank(self, tmp_path, capsys, monkeypatch):
        # a tuple whose better and worse encode alike used to count, and could never rank
        import claimforge.cli as cli
        from claimforge.textcore import Vocabulary
        tuples = [{"reference": "1. A gear comprising a shaft.",
                   "better": "1. A gear comprising a shaft.", "worse": "shaft a gear"},
                  {"reference": "1. A gear.", "better": "A gear.", "worse": "a gear ."},
                  {"reference": "1. A valve comprising a spring.",
                   "better": "1. A valve comprising a spring.", "worse": "a spring valve"}]
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, [CorpusRecord(id="a", description="A gear and a valve.",
                                           domain=DOMAINS[1], corruption_tuples=tuples)])
        scored, real = [], cli.ordering_accuracy

        def accuracy(tuples, *models):
            scored.append((tuples, real(tuples, *models)))
            return scored[-1][1]

        monkeypatch.setattr(cli, "ordering_accuracy", accuracy)
        assert cli_main(["--config", str(_write_config(tmp_path / "c.cfg")), "--seed", "0",
                         "--out", str(tmp_path / "o"), "train-eval", "--corpus", str(corpus),
                         "--epochs", "1"]) == 0
        vocab = Vocabulary.load(tmp_path / "o" / "vocab.txt")
        usable = [tuple(vocab.encode_text(t[k]) for k in ("reference", "better", "worse"))
                  + (DOMAINS[1],) for t in (tuples[0], tuples[2])]
        [(got, acc)] = scored
        assert got == usable
        printed = capsys.readouterr().out
        assert "trained evaluator on 2 tuples;" in printed
        assert f"train ordering accuracy {acc:.3f};" in printed

    def test_train_sim_without_usable_pairs_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        pairs = [{"claim_text": "", "doc_text": "A gear."},
                 {"claim_text": "A gear.", "doc_text": " "}]
        write_corpus(corpus, [CorpusRecord(id="a", description="A gear.",
                                           relationship_pairs=pairs)])
        assert cli_main(["--config", str(_write_config(tmp_path / "c.cfg")),
                         "--out", str(tmp_path / "o"), "train-sim",
                         "--corpus", str(corpus)]) == 1
        assert "error: corpus has no relationship-labeled pairs" in capsys.readouterr().err

    def test_trained_checkpoints_reach_the_pipeline(self, tmp_path):
        cfg = str(_write_config(tmp_path / "c.cfg"))

        def run(out, *argv):
            return cli_main(["--config", cfg, "--seed", "0", "--out", str(tmp_path / out),
                             *argv])

        corpus = str(tmp_path / "syn" / "corpus.jsonl")
        assert run("syn", "synth", "--size", "15") == 0
        assert run("sim", "train-sim", "--corpus", corpus, "--epochs", "1") == 0
        assert run("gen", "train-gen", "--corpus", corpus, "--steps", "5",
                   "--checkpoint", str(tmp_path / "sim" / "model.ckpt")) == 0
        assert run("ev", "train-eval", "--corpus", corpus, "--epochs", "1",
                   "--checkpoint", str(tmp_path / "gen" / "model.ckpt")) == 0
        prior = str(tmp_path / "syn" / "prior_art.jsonl")
        assert run("run", "pipeline", "--corpus", corpus, "--prior-art", prior,
                   "--checkpoint", str(tmp_path / "ev" / "model.ckpt")) == 0
        assert run("untrained", "pipeline", "--corpus", corpus, "--prior-art", prior) == 0
        truth = {rec.id: rec.domain for rec in read_corpus(corpus)}

        def correct_labels(out):
            rows = [json.loads(line)
                    for line in (tmp_path / out / "report.jsonl").read_text().splitlines()]
            assert len(rows) == 15
            assert not [row for row in rows if "skipped" in row]
            return sum(row["domain_label"] == truth[row["doc_id"]] for row in rows)

        assert correct_labels("run") > correct_labels("untrained")

    def test_generate_matches_the_pipeline_report(self, tmp_path):
        # both run stage 2 through pipeline.run.generate_claim
        from claimforge.pipeline.run import load_models, record_texts, save_models
        corpus, prior = DATA / "golden_corpus.jsonl", DATA / "golden_prior_art.jsonl"
        ckpt = save_models(load_models(record_texts(read_corpus(corpus)), compact_config(),
                                       seed=0), tmp_path / "m")
        cfg = str(_write_config(tmp_path / "c.cfg"))
        for command, extra in (("pipeline", ["--prior-art", str(prior)]), ("generate", [])):
            assert cli_main(["--config", cfg, "--out", str(tmp_path / "o"), command,
                             "--corpus", str(corpus), "--checkpoint", str(ckpt), *extra]) == 0
        report = [json.loads(line)
                  for line in (tmp_path / "o" / "report.jsonl").read_text().splitlines()]
        rows = [json.loads(line)
                for line in (tmp_path / "o" / "generations.jsonl").read_text().splitlines()]
        assert [row["doc_id"] for row in rows] == [r["doc_id"] for r in report]
        for row, expected in zip(rows, report):
            assert row["domain_label"] == expected["domain_label"]
            assert row["domain_mixture"] == expected["domain_mixture"]
            assert row["generated"] == expected["generated_claims"][0]

    def test_fresh_generate_matches_a_fresh_pipeline(self, tmp_path):
        # generate built its vocabulary with the relationship-pair texts too,
        # so all 20 rows differed from the pipeline's
        cfg = str(_write_config(tmp_path / "c.cfg"))

        def run(*argv):
            return cli_main(["--config", cfg, "--seed", "3", "--out", str(tmp_path), *argv])

        assert run("synth", "--size", "20") == 0
        corpus = str(tmp_path / "corpus.jsonl")
        assert run("pipeline", "--corpus", corpus) == 0
        assert run("generate", "--corpus", corpus) == 0
        report = [json.loads(line)
                  for line in (tmp_path / "report.jsonl").read_text().splitlines()]
        rows = [json.loads(line)
                for line in (tmp_path / "generations.jsonl").read_text().splitlines()]
        assert len(rows) == len(report) == 20
        for row, expected in zip(rows, report):
            assert row["doc_id"] == expected["doc_id"]
            assert row["domain_label"] == expected["domain_label"]
            assert row["domain_mixture"] == expected["domain_mixture"]
            assert row["generated"] == expected["generated_claims"][0]

    def test_subnormal_temperature_exits_1(self, tmp_path, capsys):
        # 1 / 5e-324 is inf: train-sim used to exit 2, an internal invariant violation
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, synth_corpus(0, 15).records)
        config = _write_config(tmp_path / "c.cfg", sim_temperature="5e-324")
        assert cli_main(["--config", str(config), "--out", str(tmp_path / "o"), "train-sim",
                         "--corpus", str(corpus), "--epochs", "1"]) == 1
        assert (f"error: {config}:8: config key 'sim_temperature' must be positive with a "
                f"finite reciprocal, got 5e-324") in capsys.readouterr().err

    def test_chunk_and_similarity_match_the_golden_report(self, tmp_path):
        config = compact_config()
        cfg = str(_write_config(tmp_path / "c.cfg"))
        corpus, prior = str(DATA / "golden_corpus.jsonl"), str(DATA / "golden_prior_art.jsonl")
        golden = [json.loads(line)
                  for line in (DATA / "golden_report.jsonl").read_text().splitlines()]
        assert cli_main(["--config", cfg, "--seed", "0", "--out", str(tmp_path),
                         "chunk", "--corpus", corpus]) == 0
        assert cli_main(["--config", cfg, "--seed", "0", "--out", str(tmp_path),
                         "similarity", "--corpus", corpus, "--prior-art", prior]) == 0
        chunk_rows = [json.loads(line)
                      for line in (tmp_path / "chunks.jsonl").read_text().splitlines()]
        sim_rows = [json.loads(line)
                    for line in (tmp_path / "similarity.jsonl").read_text().splitlines()]
        assert [row["doc_id"] for row in chunk_rows] == [g["doc_id"] for g in golden]
        for row, expected in zip(chunk_rows, golden):
            assert row["chunks"] == expected["chunks"]
            assert row["complexity"] == expected["complexity"]
            assert row["target_size"] == expected["target_chunk_size"]
            mine = [r for r in sim_rows
                    if r["claim_chunk_id"].split("/")[0] == expected["doc_id"]]
            mine.sort(key=lambda r: (-r["similarity"], r["claim_chunk_id"], r["doc_chunk_id"]))
            assert mine[:config.top_k] == expected["top_similarity"]
