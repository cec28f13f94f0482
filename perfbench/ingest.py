"""`ingest`: build_index over the seeded corpus, one small upsert batch
(replaced plus new docs) through `lifecycle.upsert_docs`, then a freshly
opened engine must see the new versions.

The build layers (tokenize, shuffle, finalize, codec encode) and the
merge layer do almost all their work here and none in `query`/`serve`;
a small delta next to a big base exposes the whole-index rewrite that
`merge_indexes` does."""

from __future__ import annotations

import shutil
import statistics
import sys
import time

import numpy as np
import pyarrow as pa

from common import (
    MAX_LINES,
    MIN_LINES,
    Outcome,
    Workload,
    build,
    content_bytes,
    ensure_corpus,
    index_bytes,
    read_corpus,
)
from spans import per_request

N_REPLACE = 16
N_NEW = 16
#: full builds per iteration (a build is several times cheaper than the
#: upsert, so several build samples per run steady build_files_per_s)
BUILDS_PER_ITERATION = 4
#: postings sampled from the built index for the codec probe
CODEC_SAMPLE_TERMS = 512


class Ingest(Workload):
    name = "ingest"
    #: smaller than the query corpus: the upsert's merge rewrites every
    #: term partition (about 17 s for 300 docs at one CPU, 30 s for
    #: 1000), and every traced run includes this suite
    DOCS = 300

    def setup(self) -> None:
        import ray.data

        from chearch_ray.pipelines.build import build_index

        self.paths, self.gen_s = ensure_corpus(self.seed, self.docs)
        self.corpus = read_corpus(self.paths)
        self.corpus_bytes = content_bytes(self.corpus)
        self.batch, self.markers, self.ids, self.old_terms = self._upsert_batch()
        # warm-up: one small build starts the Ray Data workers the
        # measured builds reuse
        warm = self.dir / "warm"
        build_index(ray.data.from_arrow(self.corpus.slice(0, 64)), str(warm), self.cfg,
                    resume=False)
        shutil.rmtree(warm, ignore_errors=True)

    def _upsert_batch(self):
        """Seeded upsert batch: N_REPLACE corpus docs get new content
        (same repo/path/commit, hence the same doc id) and N_NEW docs
        are new.  Every upserted doc carries a unique marker token; each
        replaced doc also gets a term of its OLD content that the new
        content lacks, so a check can see the old version is gone."""
        from chearch_ray.functions.hashing import doc_id_from_keys
        from chearch_ray.functions.tokenizer import tokenize
        from chearch_ray.sources.corpus import synthetic_corpus

        n = len(self.corpus)
        rng = np.random.default_rng([self.seed, 1])
        rows = np.sort(rng.choice(n, size=min(N_REPLACE, n), replace=False))
        extra = synthetic_corpus(n + N_NEW + len(rows), self.seed, MIN_LINES, MAX_LINES,
                                 row_range=(n, n + N_NEW + len(rows)))
        replaced = self.corpus.take(pa.array(rows)).select(extra.column_names)
        replaced = replaced.set_column(
            replaced.schema.get_field_index("content"), "content",
            extra["content"].slice(N_NEW, len(rows)))
        batch = pa.concat_tables([replaced, extra.slice(0, N_NEW)])
        markers = [f"upsert{self.seed}x{j}" for j in range(len(batch))]
        content = [c + f"\n{m};" for c, m in zip(batch["content"].to_pylist(), markers)]
        batch = batch.set_column(batch.schema.get_field_index("content"), "content",
                                 pa.array(content))
        ids = doc_id_from_keys(batch["repo"].to_pylist(), batch["path"].to_pylist(),
                               batch["commit"].to_pylist())
        batch = batch.append_column("doc_id", pa.array(ids, type=pa.uint64()))
        old_tokens = tokenize(self.corpus["content"].take(pa.array(rows))).to_pylist()
        new_tokens = tokenize(batch["content"]).to_pylist()
        old_terms = [next(t for t in old if t not in set(new))
                     for old, new in zip(old_tokens, new_tokens)]
        return batch, markers, [int(i) for i in ids], old_terms

    def _check_upserted(self, index_dir) -> bool:
        """New versions visible, old versions gone, doc count right."""
        from chearch_ray import ast
        from chearch_ray.state.engine import QueryEngine

        eng = QueryEngine(str(index_dir), use_actors=False)
        n_rep = len(self.old_terms)
        got = [eng.manifest.num_docs]
        want = [len(self.corpus) + len(self.ids) - n_rep]
        for j, (marker, doc) in enumerate(zip(self.markers, self.ids)):
            got.append(eng.search_boolean(ast.Term(marker))["doc_id"].to_pylist())
            want.append([doc])
            if j < n_rep:
                old = eng.search_boolean(ast.Term(self.old_terms[j]), limit=len(self.corpus) + 1)
                got.append(doc in set(old["doc_id"].to_pylist()))
                want.append(False)
        return self.checker.same(got, want)

    def measure(self, seconds: float) -> Outcome:
        from chearch_ray import ast
        from chearch_ray.pipelines.lifecycle import upsert_docs
        from chearch_ray.state.engine import QueryEngine

        out = Outcome()
        build_rate, visible_s, ratio = [], [], []
        base = self.dir / "base"
        t_start = time.perf_counter()
        while True:
            out.attempted += BUILDS_PER_ITERATION + 1
            try:
                for _ in range(BUILDS_PER_ITERATION):
                    manifest, build_s = build(self.paths, base, self.cfg)
                    if not self.checker.same([manifest.num_docs], [len(self.corpus)]):
                        out.failed += 1
                    build_rate.append(len(self.corpus) / build_s)
                ratio.append(sum(index_bytes(base).values()) / self.corpus_bytes)
                t0 = time.perf_counter()
                upsert_docs(str(base), self.batch, self.cfg, scratch_dir=str(self.dir / "upsert"))
                eng = QueryEngine(str(base), use_actors=False)
                probe = eng.search(ast.Term(self.markers[0]), k=1)["doc_id"].to_pylist()
                visible_s.append(time.perf_counter() - t0)
                if probe != [self.ids[0]] or not self._check_upserted(base):
                    out.failed += 1
            except Exception as exc:  # a failed op is counted, the run goes on
                print(f"ingest op failed: {exc!r}", file=sys.stderr)
                out.failed += 1
            if time.perf_counter() - t_start >= seconds:
                break
        if not build_rate or not visible_s:
            raise RuntimeError("no ingest iteration completed")
        out.metrics = {
            "throughput_per_s": (statistics.median(build_rate), "1/s", len(build_rate)),
            "latency_p50_ms": (statistics.median(visible_s) * 1e3, "ms", len(visible_s)),
            "index_bytes_per_corpus_byte": (statistics.median(ratio), "ratio", len(ratio)),
        }
        out.detail = {
            "build_files_per_s": {"value": statistics.median(build_rate), "unit": "1/s",
                                  "samples": len(build_rate)},
            "update_visible_s": {"value": statistics.median(visible_s), "unit": "s",
                                 "samples": len(visible_s)},
            "corpus_docs": len(self.corpus),
            "corpus_bytes": self.corpus_bytes,
            "upsert_batch": {"replaced": N_REPLACE, "new": N_NEW},
        }
        return out

    def layers(self, tracer, seconds: float) -> tuple[dict, dict]:
        """Traced build + codec + segment + merge probe over the same
        corpus and upsert batch (one iteration: each step is seconds
        long)."""
        import ray.data

        from chearch_ray.functions.codec import decode_postings_any, encode_postings_bulk
        from chearch_ray.functions.tokenizer import tokenize
        from chearch_ray.pipelines.build import build_index
        from chearch_ray.pipelines.merge import merge_indexes
        from chearch_ray.stages.tokenize import TokenizeCorpus
        from chearch_ray.state.engine import QueryEngine
        from chearch_ray.state.segment import PostingsPartReader, postings_rel_path

        cfg = self.cfg
        base, delta, merged = self.dir / "base", self.dir / "delta", self.dir / "merged"
        tokens = rows_out = bytes_out = 0
        stage = TokenizeCorpus(cfg, frozenset())
        t_root = time.perf_counter()
        tracer.new_request()
        with tracer.span("ingest.iteration"):
            for rb in self.corpus.to_batches(max_chunksize=cfg.tokenize_batch_size):
                batch = pa.Table.from_batches([rb])
                with tracer.span("tokenizer.tokenize"):
                    lists = tokenize(batch["content"], lowercase=cfg.lowercase,
                                     split_subtokens=cfg.split_subtokens,
                                     split_regex=cfg.token_split_regex)
                tokens += len(lists.values)
                with tracer.span("stages.tokenize"):
                    runs = stage(batch)
                rows_out += runs.num_rows
                bytes_out += runs.nbytes
            with tracer.span("build.build_index"):
                manifest, build_s = build(self.paths, base, cfg)
            with tracer.span("segment.read"):
                readers = [PostingsPartReader(str(base / postings_rel_path(p["part"])), cfg)
                           for p in manifest.postings_parts]
                rng = np.random.default_rng([self.seed, 3])
                keys = [(r, t) for r in readers for t in sorted(r.terms)]
                pick = rng.choice(len(keys), size=min(CODEC_SAMPLE_TERMS, len(keys)),
                                  replace=False)
                encs = [keys[i][0].encoded(keys[i][1]) for i in sorted(pick)]
            with tracer.span("codec.decode"):
                decoded = [decode_postings_any(e, cfg.block_size, cfg.codec) for e in encs]
            docs = np.concatenate([d for d, _ in decoded])
            tfs = np.concatenate([t for _, t in decoded])
            bounds = np.concatenate([[0], np.cumsum([len(d) for d, _ in decoded])])
            with tracer.span("codec.encode"):
                bulk = encode_postings_bulk(docs, tfs, bounds, cfg.block_size)
            with tracer.span("segment.open"):
                QueryEngine(str(base), use_actors=False)
            sizes = index_bytes(base)
            with tracer.span("merge.delta_build"):
                build_index(ray.data.from_arrow(self.batch), str(delta), cfg, resume=False)
            with tracer.span("merge.merge"):
                merge_indexes([str(base), str(delta)], str(merged),
                              drop_ids=[{"lo": np.asarray(self.ids, dtype=np.uint64),
                                         "hi": None}, None])
        wall = time.perf_counter() - t_root
        ok = self._check_upserted(merged)
        rewritten = sum(index_bytes(merged).values())
        delta_bytes = sum(index_bytes(delta).values())
        busy = per_request(tracer.spans)[tracer.request_id]
        # the untraced work: what the measured loop runs (build, upsert)
        untraced = busy["build.build_index"] + busy["merge.delta_build"] + busy["merge.merge"]
        summary = {"root": "ingest.iteration", "ops": 1, "traced_s": wall,
                   "untraced_s": untraced,
                   "failed": 0 if ok and manifest.num_docs == len(self.corpus) else 1}
        return {
            "tokenizer.busy_s": (busy["tokenizer.tokenize"], "s"),
            "tokenizer.tokens": (tokens, "count"),
            "stages.tokenize.busy_s": (busy["stages.tokenize"], "s"),
            "stages.tokenize.rows_out": (rows_out, "count"),
            "stages.tokenize.bytes_out": (bytes_out, "bytes"),
            "build.wall_s": (build_s, "s"),
            "build.shuffle_finalize_s": (build_s - busy["stages.tokenize"], "s"),
            "codec.encode_s": (busy["codec.encode"], "s"),
            "codec.decode_s": (busy["codec.decode"], "s"),
            "codec.bytes_per_posting": (
                (len(bulk["doc_blob_buf"]) + len(bulk["tf_blob_buf"])) / max(len(docs), 1),
                "bytes"),
            "segment.index_bytes.postings": (sizes["postings"], "bytes"),
            "segment.index_bytes.positions": (sizes["positions"], "bytes"),
            "segment.index_bytes.docmap": (sizes["docmap"], "bytes"),
            "segment.index_bytes.stats": (sizes["stats"], "bytes"),
            "segment.open_s": (busy["segment.open"], "s"),
            "merge.delta_build_s": (busy["merge.delta_build"], "s"),
            "merge.merge_s": (busy["merge.merge"], "s"),
            "merge.bytes_rewritten": (rewritten, "bytes"),
            "merge.write_amplification": (rewritten / max(delta_bytes, 1), "ratio"),
        }, summary
