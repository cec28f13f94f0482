"""Segment searcher: boolean set algebra + BM25 top-k scoring.

Reference mapping: one PartitionManager per locale with a resident
segment (searchindex.chpl:5-28) becomes a SegmentSearcher — a plain
class designed to be wrapped in a Ray actor (state is loaded once in
__init__, queries are method calls).  Queries scatter-gather across
searcher groups like the reference's serial query iterator
(searchindex.chpl:86-119); scoring is new capability the reference
declares as TODO (docs/TODO.txt:9-10 "TF-IDF", "global document
count").

A SegmentSearcher holds one doc-segment or several as ONE row space:
row off_j + o is ordinal o of its j-th segment (segment-major), and a
term's postings are its segments' lists concatenated in that order
(`PostingsPartReader`).  Every operator runs once over the whole
space.  Rows are not in external-id order across segments, so every
ordering breaks score ties on the EXTERNAL key, never on the row:
`_tie_key` is the one source of tie keys (the row's rank in the
searcher's external-key order, the identity for one segment).

Scoring semantics (shared with oracle.py — rank identity requires
bit-identical float64 ops):

    candidates(d)  = boolean set algebra over the query tree
    score(d)       = sum over unique query terms t (first-seen order)
                     with d in postings(t) of
                       idf_t * (tf*(k1+1)) / (tf + k1*(1-b+b*dl/avgdl))
    idf_t          = ln(1 + (N - df_t + 0.5) / (df_t + 0.5))
    global order   = (score desc, doc_id asc)

Skip-block laziness: conjunctive evaluation decodes the smaller AND
side fully and PROBES every other term through its skip index
(`probe_tfs` — only blocks straddling a candidate are decoded),
mirroring the reference's lazy block iteration
(memorysegment.chpl:41-55, documentidpool.chpl:84).  Pure
disjunctions additionally get exact MaxScore pruning from the
block-max tf metadata.  `decode_stats` counts blocks decoded vs
total so tests can assert the skipping actually happens.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from chearch_ray import ast
from chearch_ray.config import EngineConfig
from chearch_ray.functions.codec import block_span, decode_blocks, decode_postings
from chearch_ray.pipelines.lifecycle import load_tombstone_ids
from chearch_ray.state.segment import (_POS_CACHE_MAX, DocmapReader,  # noqa: F401
                                       PostingsPartReader, _string_view, docmap_rel_path,
                                       postings_rel_path)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)

# positional verification (`_window_survivors`): most bytes one
# window's presence table may take; larger windows, and sparse ones,
# run as batched searchsorted instead
_WINDOW_TABLE_BUDGET_BYTES = 256 << 20
#: metadata-filter predicates cached per searcher; an entry can hold one
#: uint64 per doc (128 MiB per 2^24-doc segment)
_FILTER_CACHE_MAX = 64

RESULT_META_COLUMNS = ("repo", "path", "commit", "lang")


def bm25_idf(n_docs: int, df: int) -> float:
    """ln(1 + (N - df + 0.5)/(df + 0.5)) — the Lucene/standard variant;
    keep in sync with oracle.py and the driver oracle SQL."""
    import math

    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_component(
    tf: np.ndarray, dl: np.ndarray, idf: float, avgdl: float, k1: float, b: float
) -> np.ndarray:
    """Vectorized per-term score contribution; operation order is part
    of the rank-identity contract (oracle.py mirrors it exactly)."""
    return idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def sorted_member_mask(sorted_arr: np.ndarray,
                       values: np.ndarray) -> np.ndarray:
    """Boolean mask over `values`: which are members of the SORTED
    `sorted_arr`.  The one place the searchsorted/clip/compare idiom
    lives — every membership filter shares its empty-array and
    clipping edge handling."""
    if len(sorted_arr) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos_c = np.minimum(pos, len(sorted_arr) - 1)
    return sorted_arr[pos_c] == values


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique arrays via binary-search
    probing of the smaller into the larger — O(min · log max), vs
    np.intersect1d's O((m+n) log(m+n)) concat-sort.  The asymmetric
    case (rare AND hot term) is the common conjunctive query."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 0:
        return a
    idx = np.searchsorted(b, a)
    idx_c = np.minimum(idx, len(b) - 1)
    return a[b[idx_c] == a]


def topk_order(scores: np.ndarray, doc_ids: np.ndarray, k: int) -> np.ndarray:
    """indices of the top-k by (score desc, doc_id asc), deterministic.

    The argpartition pre-cut keeps EVERY candidate scoring >= the k-th
    largest score (not an arbitrary slack window): ties at the
    threshold must all reach the exact sort or doc_id tie-breaking
    would pick arbitrary winners."""
    if k <= 0 or len(scores) == 0:
        return np.empty(0, dtype=np.int64)
    if len(scores) > 4 * k:
        kth = np.partition(-scores, k - 1)[k - 1]  # negated k-th largest
        cand = np.flatnonzero(-scores <= kth)  # score >= threshold, ties included
        order = cand[np.lexsort((doc_ids[cand], -scores[cand]))]
    else:
        order = np.lexsort((doc_ids, -scores))
    return order[:k]


def collapse_order(codes: np.ndarray, scores: np.ndarray, keys: np.ndarray,
                   k: int) -> np.ndarray:
    """indices of the top-k GROUP representatives: each distinct code's
    best row under (score desc, key asc), then the top-k of those in
    the same order.  ONE integer lexsort — group code, then the rank
    key — puts each group's best first in its run.  Exact at every
    merge level (segment, group, engine): a group's representative is
    the best of the representatives shipped from below, and if k groups
    beat group G in one part, their representatives beat G's overall."""
    if len(scores) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((keys, -scores, codes))
    cs = codes[order]
    reps = order[np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])]
    return reps[topk_order(scores[reps], keys[reps], k)]


def column_codes(arr: "pa.ChunkedArray") -> np.ndarray:
    """int32 dictionary codes of an Arrow column (nulls get their own
    code) — integer group keys for collapse_order.  Arrow's
    dictionary_encode stays in C++, where a numpy unique over Python
    strings would dominate the whole query."""
    import pyarrow.compute as pc

    enc = pc.dictionary_encode(arr.combine_chunks(), null_encoding="encode")
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int32)


_SCORE_FIELD = pa.field("score", pa.float64())


def _result_layouts(docmap_schema: pa.Schema | None, wide: bool) -> dict:
    """(scored, with_meta) -> (the docmap columns one take gathers,
    the score column's index or None, the typed empty result).  A
    result is the id columns ((doc_id_hi,) doc_id), then score when
    scored, then RESULT_META_COLUMNS with metadata, typed as in the
    docmap files (uint64 ids and string metadata without a docmap)."""
    ids = ("doc_id_hi", "doc_id") if wide else ("doc_id",)
    if docmap_schema is None:
        docmap_schema = pa.schema([(n, pa.uint64()) for n in ids]
                                  + [(n, pa.string()) for n in RESULT_META_COLUMNS])
    out = {}
    for scored in (True, False):
        for with_meta in (True, False):
            columns = ids + RESULT_META_COLUMNS if with_meta else ids
            fields = [docmap_schema.field(n) for n in columns]
            if scored:
                fields.insert(len(ids), _SCORE_FIELD)
            out[scored, with_meta] = (columns, len(ids) if scored else None,
                                      pa.schema(fields).empty_table())
    return out


class SegmentSearcher:
    """Holds one doc-segment (`seg` an int) or several (`seg` a list)
    as one row space: every term-shard postings file of each, fused per
    shard, and their docmaps, concatenated.  Designed for
    `ray.remote` — everything loads once per actor (reference:
    locale-resident index, searchindex.chpl:30-53)."""

    def __init__(self, index_dir: str, seg: int | list[int], cfg: EngineConfig):
        self.cfg = cfg
        self.segs = [int(seg)] if isinstance(seg, (int, np.integer)) else [int(s) for s in seg]
        # tombstones (pipelines.lifecycle.delete_docs): loaded ONCE at
        # construction — an engine opened before a delete keeps its
        # snapshot (the reference's MVCC-lite snapshot filter,
        # memorysegment.chpl:299, generalized to persistent segments).
        # BM25 stats (df/N/avgdl) intentionally stay those of the
        # manifest until compaction, the standard live-docs contract.
        dead = load_tombstone_ids(index_dir)
        docmaps, sizes, deleted = [], [], []
        for s in self.segs:
            path = os.path.join(index_dir, docmap_rel_path(s))
            if not os.path.exists(path):
                sizes.append(0)
                continue
            dm = DocmapReader(path)
            if dead is not None:
                # a segment's tombstones, as rows of the group's space
                ords = dm.ordinals_for(dead["hi"], dead["lo"])
                deleted.append(np.unique(ords[ords >= 0]).astype(np.uint64)
                               + np.uint64(sum(sizes)))
            sizes.append(len(dm.doc_ids))
            docmaps.append(dm)
        #: row offset of each segment, and the row count after the last
        self.row_offsets = np.cumsum([0] + sizes).astype(np.uint64)
        self.docmap = DocmapReader.concat(docmaps) if docmaps else None
        self._layouts = _result_layouts(None if self.docmap is None else self.docmap.schema,
                                        cfg.doc_id_bits == 128)
        #: collapse field -> int32 group code per row, on first use
        self._collapse_codes: dict[str, np.ndarray] = {}
        self.deleted = np.concatenate(deleted) if deleted else _EMPTY_U64
        self.shards: dict[int, PostingsPartReader] = {}
        for shard in range(cfg.num_term_shards):
            parts = [(path, off) for s, off in zip(self.segs, self.row_offsets.tolist())
                     if os.path.exists(path := os.path.join(
                         index_dir, postings_rel_path(cfg.part_id(s, shard))))]
            if parts:
                self.shards[shard] = PostingsPartReader(
                    [p for p, _ in parts], cfg, [o for _, o in parts])
        self._decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._enc_cache: dict[str, object] = {}
        self._blk_cache: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self._first_pos_cache: dict[str, np.ndarray] = {}
        self._filter_cache: dict[tuple, np.ndarray] = {}
        # decode telemetry: proves skip blocks actually skip (the
        # reference's whole query model is lazy block iteration,
        # memorysegment.chpl:41-55) — tests assert blocks_decoded <<
        # blocks_total on selective ANDs against hot terms.
        self.decode_stats = {"blocks_decoded": 0, "blocks_total": 0, "full_decodes": 0}
        from chearch_ray.functions.hashing import TermSharder

        self._sharder = TermSharder(cfg.num_term_shards)

    # ----------------------------------------------------------- postings
    def _postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(docmap ordinals ascending, tfs) for a term; empty arrays
        when the term is unknown (NullOperand analogue,
        memorysegment.chpl:314-317)."""
        hit = self._decoded.get(term)
        if hit is not None:
            return hit
        enc = self._encoded(term)
        if enc is None:
            out = (_EMPTY_U64, _EMPTY_U64)
        else:
            self.decode_stats["full_decodes"] += 1
            out = decode_postings(enc, self.cfg.block_size)
        if len(self._decoded) > 4096:  # bound the decode cache
            self._decoded.clear()
        self._decoded[term] = out
        return out

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(external doc ids, tfs) for a term, in posting order: a
        conformance helper for tests, doc_id_bits=64 only (a wide id is
        a (hi, lo) pair)."""
        if self.cfg.doc_id_bits == 128:
            raise ValueError("postings() returns 64-bit doc ids; "
                             "this index has doc_id_bits=128")
        ords, tfs = self._postings(term)
        return (self.docmap.external_ids(ords)[1] if len(ords) else ords), tfs

    def _posting_index(self, term: str, doc_id: int, doc_hi: int | None) -> int | None:
        """index of external doc (`doc_hi`, `doc_id`) in `term`'s
        postings; None when the doc does not contain the term"""
        if self.docmap is None:
            return None
        ordv = self.docmap.ordinals_for(
            None if doc_hi is None else np.array([doc_hi]), np.array([doc_id]))[0]
        if ordv < 0:
            return None
        docs, _ = self._postings(term)
        i = int(np.searchsorted(docs, np.uint64(ordv)))
        return i if i < len(docs) and docs[i] == ordv else None

    def df(self, term: str) -> int:
        reader = self.shards.get(self._sharder.shard_of(term))
        return 0 if reader is None else reader.df(term)

    def _encoded(self, term: str):
        """cached EncodedPostings (metadata + blobs, NO decode)."""
        if term in self._enc_cache:
            return self._enc_cache[term]
        reader = self.shards.get(self._sharder.shard_of(term))
        enc = reader.encoded(term) if reader is not None else None
        if len(self._enc_cache) > 4096:
            self._enc_cache.clear()
        self._enc_cache[term] = enc
        return enc

    # ----------------------------------------------------- skip probing
    def probe_tfs(self, term: str, probes: np.ndarray) -> np.ndarray:
        """tf of each probe doc in `term`'s postings (0 = absent),
        decoding ONLY the skip blocks whose [prev block_last, block_last]
        range straddles a probe — the galloping block iteration of the
        reference (documentidpool.chpl:84, memorysegment.chpl:41-55).
        Falls back to one full decode (cached) when the probe set
        touches most blocks anyway."""
        out = np.zeros(len(probes), dtype=np.uint64)
        if len(probes) == 0:
            return out

        def _probe_into(docs: np.ndarray, tfs: np.ndarray) -> np.ndarray:
            if len(docs) == 0:
                return out
            pos = np.searchsorted(docs, probes)
            pos_c = np.minimum(pos, len(docs) - 1)
            mask = docs[pos_c] == probes
            out[mask] = tfs[pos_c[mask]]
            return out

        hit = self._decoded.get(term)
        if hit is not None:
            return _probe_into(*hit)
        enc = self._encoded(term)
        if enc is None or enc.count == 0:
            return out
        n_blocks = len(enc.block_last)
        self.decode_stats["blocks_total"] += n_blocks
        if len(probes) * 2 >= enc.count:
            # dense probe set (e.g. scoring a hot term's own postings):
            # it will touch nearly every block — decode once and skip
            # the per-probe block mapping entirely
            self.decode_stats["blocks_decoded"] += n_blocks
            return _probe_into(*self._postings(term))
        needed = np.unique(np.searchsorted(enc.block_last, probes, side="left"))
        needed = needed[needed < n_blocks]
        if len(needed) == 0:  # every probe is past the last posting
            return out
        if len(needed) * 2 >= n_blocks:
            # probes hit most blocks — a single full decode is cheaper
            # than per-block bookkeeping, and it warms the list cache
            self.decode_stats["blocks_decoded"] += n_blocks
            return _probe_into(*self._postings(term))
        docs, tfs = self._decode_blocks_cached(term, enc, needed)
        return _probe_into(docs, tfs)

    def _decode_blocks_cached(
        self, term: str, enc, needed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """decode the given sorted block ids through the per-term block
        cache (cache misses counted in decode_stats)."""
        cache = self._blk_cache.setdefault(term, {})
        miss = np.array([b for b in needed.tolist() if b not in cache], dtype=np.int64)
        if len(miss):
            self.decode_stats["blocks_decoded"] += len(miss)
            d, t = decode_blocks(enc, miss, self.cfg.block_size)
            bounds = np.concatenate(
                [[0], np.cumsum(block_span(enc, miss, self.cfg.block_size)[1])]).astype(np.int64)
            for i, b in enumerate(miss.tolist()):
                cache[b] = (d[bounds[i] : bounds[i + 1]], t[bounds[i] : bounds[i + 1]])
        if sum(len(c) for c in self._blk_cache.values()) > 1 << 16:
            keep = self._blk_cache.pop(term)
            self._blk_cache.clear()
            self._blk_cache[term] = keep
        parts = [cache[b] for b in needed.tolist()]
        docs = np.concatenate([p[0] for p in parts])
        tfs = np.concatenate([p[1] for p in parts])
        return docs, tfs

    # ------------------------------------------------------ boolean mode
    def _node_df_estimate(self, node: ast.Node) -> int:
        """upper-bound result size, from df metadata only (no decode) —
        drives which AND side is evaluated vs probed."""
        if isinstance(node, ast.Term):
            return self.df(str(node.term))
        if isinstance(node, ast.AndNot):
            return self._node_df_estimate(node.a)
        a = self._node_df_estimate(node.a)
        b = self._node_df_estimate(node.b)
        return min(a, b) if isinstance(node, ast.And) else a + b

    def _probe_node(self, node: ast.Node, probes: np.ndarray) -> np.ndarray:
        """membership mask of `probes` (sorted unique doc ids) in the
        node's result set, fully lazy: Term probes via skip blocks,
        And/Or combine masks with short-circuit narrowing — no full
        posting-list decode anywhere on the probe side."""
        if isinstance(node, ast.Term):
            return self.probe_tfs(str(node.term), probes) > 0
        mask_a = self._probe_node(node.a, probes)
        if isinstance(node, ast.AndNot):
            if not mask_a.any():
                return mask_a
            sub = self._probe_node(node.b, probes[mask_a])
            result = np.zeros(len(probes), dtype=bool)
            result[np.flatnonzero(mask_a)[~sub]] = True
            return result
        if isinstance(node, ast.And):
            if not mask_a.any():
                return mask_a
            sub = self._probe_node(node.b, probes[mask_a])
            result = np.zeros(len(probes), dtype=bool)
            result[np.flatnonzero(mask_a)[sub]] = True
            return result
        rem = ~mask_a
        if rem.any():
            sub = self._probe_node(node.b, probes[rem])
            mask_a = mask_a.copy()
            mask_a[np.flatnonzero(rem)[sub]] = True
        return mask_a

    def _eval_sets(self, node: ast.Node) -> np.ndarray:
        if isinstance(node, ast.Term):
            return self._postings(str(node.term))[0]
        if isinstance(node, ast.AndNot):
            # positive-anchored: decode a, skip-block-probe b on a's
            # docs — the negative side is never decoded in full
            docs = self._eval_sets(node.a)
            if len(docs) == 0:
                return docs
            return docs[~self._probe_node(node.b, docs)]
        if isinstance(node, ast.And):
            # evaluate the smaller side fully; probe the other side via
            # skip blocks (rare-AND-hot never decodes the hot list)
            small, big = node.a, node.b
            if self._node_df_estimate(big) < self._node_df_estimate(small):
                small, big = big, small
            docs = self._eval_sets(small)
            if len(docs) == 0:
                return docs
            return docs[self._probe_node(big, docs)]
        # flat multi-way union for pure disjunctions (prefix expansions
        # produce deep Or chains; 1 sort beats n-1 pairwise merges)
        if ast.is_disjunctive(node):
            terms = ast.terms_of(node)
            if len(terms) > 2:
                arrs = [self._postings(str(t))[0] for t in terms]
                return np.unique(np.concatenate(arrs))
        a = self._eval_sets(node.a)
        b = self._eval_sets(node.b)
        return np.union1d(a, b)

    def _tie_key(self, rows: np.ndarray) -> np.ndarray:
        """The ONE source of score-tie keys: each row's rank in external
        key order.  Rows of several segments are not in external-id
        order, so a tie broken on the rows themselves would pick the
        wrong winners."""
        return self.docmap.tie_rank(rows)

    def _not_deleted(self, docs: np.ndarray) -> np.ndarray:
        """boolean keep-mask over `docs` against the tombstone set."""
        if len(self.deleted) == 0 or len(docs) == 0:
            return np.ones(len(docs), dtype=bool)
        pos = np.searchsorted(self.deleted, docs)
        pos_c = np.minimum(pos, len(self.deleted) - 1)
        return self.deleted[pos_c] != docs

    def explain_rows(self, terms: list[str], doc_lo, doc_hi=None) -> pa.Table:
        """Scoring evidence for the docs RESIDENT in this searcher:
        one row per (doc, term) with tf > 0 — columns (doc_id
        [, doc_id_hi], term, tf, dl).  Probes ride the same skip-block
        machinery as scoring (probe_tfs: only straddling blocks
        decode); docs from other segments and deleted docs contribute
        nothing, so the engine can fan the SAME id list out to every
        searcher.  The engine joins idf/df and computes contributions
        driver-side (QueryEngine.explain)."""
        lo = np.asarray(doc_lo, dtype=np.uint64)
        hi = None if doc_hi is None else np.asarray(doc_hi, dtype=np.uint64)
        dm = self.docmap
        # a docmap-less segment (empty corpus) holds no evidence
        ords = dm.ordinals_for(hi, lo) if dm is not None else np.full(len(lo), -1)
        present = ords >= 0
        if len(self.deleted):
            present[present] = self._not_deleted(ords[present].astype(np.uint64))
        probes = ords[present].astype(np.uint64)
        out_lo = lo[present]
        out_hi = hi[present] if self.cfg.doc_id_bits == 128 else None
        dl = dm.doc_len[probes] if len(probes) else np.empty(0, np.float64)
        cols_lo, cols_hi, cols_term, cols_tf, cols_dl = [], [], [], [], []
        for term in terms:
            tf = self.probe_tfs(str(term), probes)
            m = tf > 0
            if not m.any():
                continue
            cols_lo.append(out_lo[m])
            if out_hi is not None:
                cols_hi.append(out_hi[m])
            cols_term.extend([str(term)] * int(m.sum()))
            cols_tf.append(tf[m])
            cols_dl.append(dl[m])
        cat = (lambda xs, dt: np.concatenate(xs).astype(dt)
               if xs else np.empty(0, dtype=dt))
        out = {"doc_id": pa.array(cat(cols_lo, np.uint64), type=pa.uint64())}
        if out_hi is not None:
            out["doc_id_hi"] = pa.array(cat(cols_hi, np.uint64), type=pa.uint64())
        out["term"] = pa.array(cols_term, type=pa.string())
        out["tf"] = pa.array(cat(cols_tf, np.int64), type=pa.int64())
        out["dl"] = pa.array(cat(cols_dl, np.int64), type=pa.int64())
        return pa.table(out)

    def _candidates(self, node: ast.Node, flt: dict | None = None) -> np.ndarray:
        """_eval_sets minus tombstoned docs, narrowed to the metadata
        predicate `flt` when given — the single candidate source for
        every non-fast-path search mode."""
        docs = self._eval_sets(node)
        if len(self.deleted):
            docs = docs[self._not_deleted(docs)]
        if flt is not None:
            docs = intersect_sorted(docs, self._filter_allowed(flt))
        return docs

    def _after_mask(
        self, docs: np.ndarray, scores: np.ndarray, after: tuple
    ) -> np.ndarray:
        """True where (score, external doc key) sorts STRICTLY after
        the cursor in the global (score desc, key asc) order — the
        search_after qualification predicate, applied inside the
        searcher so its top-k and MaxScore thresholds run over
        qualifying docs only.  Cursor scores are deterministic floats
        produced by this same engine, so float equality at the tie
        boundary is exact.  `after` is (score, doc_id) in 64-bit mode
        and (score, doc_id_hi, doc_id) in doc_id_bits=128 mode; the
        (rare) score-tie rows qualify when their external key sorts
        after the cursor's."""
        s_c = float(after[0])
        mask = scores < s_c
        eq = np.flatnonzero(scores == s_c)
        if len(eq):
            cut = self.docmap.rank_cut([after[1]] if len(after) == 3 else None, [after[-1]])
            mask[eq] = self._tie_key(docs[eq]) >= cut
        return mask

    def search_boolean(self, node: ast.Node, limit: int | None = None,
                       with_meta: bool = True, flt: dict | None = None) -> pa.Table:
        """Doc-level boolean retrieval, capped at partition_limit per
        segment (reference search.chpl:17): each segment's ascending
        doc_id run, in segment order.  `flt` restricts the match set by
        docmap metadata before the cap."""
        docs = self._candidates(node, flt)
        cap = limit if limit is not None else self.cfg.partition_limit
        # rows are segment-major: keep the first `cap` of each segment
        first = np.searchsorted(docs, self.row_offsets[:-1])
        seg = np.searchsorted(self.row_offsets, docs, side="right") - 1
        docs = docs[np.arange(len(docs)) - first[seg] < cap]
        return self._project(docs, scores=None, with_meta=with_meta)

    def count(self, node: ast.Node, flt: dict | None = None) -> int:
        """Exact LIVE match count (the Lucene IndexSearcher.count
        analogue) — NEVER capped by partition_limit (a count is an
        aggregate over the full match set, not a result window), and
        the segment ships ONE integer, not ids.  `flt` restricts the
        counted set by docmap metadata."""
        return int(len(self._candidates(node, flt)))

    def facet_histogram(self, node: ast.Node, bucket_width: int) -> pa.Table:
        """Numeric histogram aggregation over ALL matching docs'
        lengths (not the partition_limit result window — aggregations
        summarize the full match set): (bucket_lo = floor(doc_len /
        width) * width, n) partial counts for this segment.  Only
        histogram rows cross the wire; the engine merges partials."""
        docs = self._candidates(node)
        if len(docs) == 0 or self.docmap is None:
            return pa.table({"bucket_lo": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        dl = self.docmap.lengths_for(docs).astype(np.int64)
        uniq, counts = np.unique((dl // bucket_width) * bucket_width,
                                 return_counts=True)
        return pa.table({"bucket_lo": pa.array(uniq, type=pa.int64()),
                         "n": pa.array(counts.astype(np.int64), type=pa.int64())})

    def facet_stats(self, node: ast.Node, by: str,
                    flt: dict | None = None) -> pa.Table:
        """Per-facet doc_len statistics over the FULL match set (the
        Elasticsearch stats-aggregation analogue, engine extension
        §2.10): one partial row per distinct `by` value with (n,
        sum_dl, min_dl, max_dl) — integers, so the engine's merge
        (sum/sum/min/max) is exact.  Grouping runs in Arrow's C++
        group_by over the candidate docs' docmap columns; like
        facet_histogram this covers every matching doc, not the
        partition_limit result window."""
        # the `by` column's type comes from the docmap schema — a
        # hardcoded string would break the engine's concat when a
        # zero-match segment meets typed partials on a numeric facet
        by_type = (self.docmap.schema.field(by).type
                   if self.docmap is not None else pa.string())
        empty = pa.table({
            by: pa.array([], type=by_type),
            "n": pa.array([], type=pa.int64()),
            "sum_dl": pa.array([], type=pa.int64()),
            "min_dl": pa.array([], type=pa.int64()),
            "max_dl": pa.array([], type=pa.int64()),
        })
        if self.docmap is None:
            return empty
        docs = self._candidates(node, flt)
        if len(docs) == 0:
            return empty
        dl = self.docmap.lengths_for(docs).astype(np.int64)
        t = pa.table({by: self.docmap.column_arrow_for(docs, by),
                      "dl": pa.array(dl, type=pa.int64())})
        agg = t.group_by(by, use_threads=False).aggregate(
            [("dl", "count"), ("dl", "sum"), ("dl", "min"), ("dl", "max")])
        return pa.table({
            by: agg[by],
            "n": agg["dl_count"].cast(pa.int64()),
            "sum_dl": agg["dl_sum"].cast(pa.int64()),
            "min_dl": agg["dl_min"].cast(pa.int64()),
            "max_dl": agg["dl_max"].cast(pa.int64()),
        })

    # ------------------------------------------------- metadata filters
    def _filter_allowed(self, flt: dict[str, list]) -> np.ndarray:
        """Sorted ordinal array of the docmap rows matching a metadata
        predicate: a column's values list holds plain values (IN
        semantics) and/or range spec tuples ("range", lo|None, hi|None,
        lo_incl, hi_incl) — OR within a column, AND across columns.  Range bounds arrive as strings
        from the grammar and are typed from the docmap schema (numeric
        columns compare numerically, strings lexicographically).
        Computed once per predicate per actor (the docmap is
        actor-resident state, so this is a vectorized scan of local
        Arrow columns, never a network fetch) and cached like the
        postings caches.  A segment without a docmap allows nothing."""
        if self.docmap is None:
            return _EMPTY_U64
        key = tuple(sorted((c, tuple(v)) for c, v in flt.items()))
        cached = self._filter_cache.get(key)
        if cached is not None:
            return cached
        import pyarrow.compute as pc

        def bound(col: str, t: pa.DataType, s):
            try:
                if pa.types.is_integer(t):
                    return int(s)
                if pa.types.is_floating(t):
                    return float(s)
            except (TypeError, ValueError):
                raise ValueError(
                    f"range bound {s!r} is not valid for numeric filter "
                    f"column {col!r} ({t})") from None
            return str(s)

        mask = np.ones(len(self.docmap.doc_ids), dtype=bool)
        for col, values in flt.items():
            arr = self.docmap.table[col]
            ranges = [v for v in values
                      if isinstance(v, tuple) and v and v[0] == "range"]
            plain = [v for v in values if v not in ranges]
            hit = None
            if plain:
                hit = pc.is_in(arr, value_set=pa.array(list(plain)))
            for _, lo, hi, lo_incl, hi_incl in ranges:
                if lo is None and hi is None:
                    # the grammar rejects this shape; guard the
                    # programmatic API with the same clear error
                    # rather than an opaque kernel TypeError
                    raise ValueError(
                        f"range filter on {col!r} needs at least one bound")
                conds = []
                if lo is not None:
                    op = pc.greater_equal if lo_incl else pc.greater
                    conds.append(op(arr, bound(col, arr.type, lo)))
                if hi is not None:
                    op = pc.less_equal if hi_incl else pc.less
                    conds.append(op(arr, bound(col, arr.type, hi)))
                rng = conds[0] if len(conds) == 1 else pc.and_kleene(*conds)
                hit = rng if hit is None else pc.or_kleene(hit, rng)
            if hit is None:  # empty values list == IN () == nothing
                mask[:] = False
                continue
            mask &= pc.fill_null(hit, False).to_numpy(zero_copy_only=False)
        allowed = np.flatnonzero(mask).astype(np.uint64)
        if len(self._filter_cache) >= _FILTER_CACHE_MAX:
            self._filter_cache.clear()
        self._filter_cache[key] = allowed
        return allowed

    # the filtered form by its old name (perfbench/query.py calls it)
    def search_bm25_filtered(self, node, k, idfs, avgdl, flt, with_meta=True):
        return self.search_bm25(node, k, idfs, avgdl, with_meta=with_meta, flt=flt)

    def max_tf(self, term: str) -> int:
        reader = self.shards.get(self._sharder.shard_of(term))
        return 0 if reader is None else reader.max_tf(term)

    # --------------------------------------------------------- BM25 mode
    def search_bm25(
        self,
        node: ast.Node,
        k: int,
        idfs: dict[str, float],
        avgdl: float,
        after: tuple | None = None,
        with_meta: bool = True,
        flt: dict[str, list] | None = None,
    ) -> pa.Table:
        """BM25 top-k.  `after` = cursor pagination: restrict to docs
        sorting strictly after (score, key) in the global order (see
        _after_mask) and return the searcher's top-k of THAT set — the
        global merge over per-group qualifying top-k is exact, so
        page-n queries keep every fast path instead of the exhaustive
        all-candidates gather.

        `flt` restricts results to docs matching the metadata
        predicate (_filter_allowed).  The filter narrows the CANDIDATE
        set before scoring/top-k (a post-filtered unrestricted top-k
        would drop qualifying docs); scores stay the global-stats BM25
        of the unfiltered engine, so a doc's score is identical with
        and without a filter.  Filtered queries take MaxScore (which
        builds its thresholds from qualifying docs only) or the
        generic eval+score path, never the term/AND fast paths.

        `with_meta=False` returns the ids and scores alone (the one
        docmap take gathers only the id columns) for callers that only
        consume (doc_id, score) — the TCP text and snippet frames, and
        search_with_snippets which re-reads text from the docstore
        sidecar instead of the docmap."""
        if self.docmap is None:
            return self._project(_EMPTY_U64, scores=np.empty(0), with_meta=with_meta)
        allowed = None
        if flt is not None:
            # the qualifying live docs, computed once for either route
            allowed = self._filter_allowed(flt)
            if len(self.deleted):
                allowed = allowed[self._not_deleted(allowed)]
        if (
            self.cfg.use_maxscore
            # live-docs: exact top-k needs deleted docs out BEFORE
            # threshold accumulation — `allowed` has them out already,
            # otherwise route to the generic candidates path
            and (allowed is not None or len(self.deleted) == 0)
            and isinstance(node, ast.Or)
            and ast.is_disjunctive(node)
        ):
            terms = [str(t) for t in ast.terms_of(node)]
            if len(terms) >= 2:
                docs, scores = self._maxscore_disjunctive(
                    terms, k, idfs, avgdl, allowed=allowed, after=after
                )
                return self._project(docs, scores=scores, with_meta=with_meta)
        if allowed is None and isinstance(node, ast.Term):
            # a term's candidates ARE its postings — the generic path
            # would searchsorted the list into itself to re-find tfs
            term = str(node.term)
            docs, tfs = self._postings(term)
            if len(self.deleted):
                keep = self._not_deleted(docs)
                docs, tfs = docs[keep], tfs[keep]
            if len(docs) == 0:
                return self._project(docs, scores=np.empty(0), with_meta=with_meta)
            cfg = self.cfg
            scores = bm25_component(
                tfs.astype(np.float64), self.docmap.lengths_for(docs),
                idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b,
            )
            if after is not None:
                keep = self._after_mask(docs, scores, after)
                docs, scores = docs[keep], scores[keep]
            order = topk_order(scores, self._tie_key(docs), k)
            return self._project(docs[order], scores=scores[order], with_meta=with_meta)
        if allowed is None and isinstance(node, ast.And) and ast.is_conjunctive(node):
            # pure AND: evaluate and score in one pass — the tfs found
            # while intersecting are exactly the tfs scoring needs, so
            # no term is probed twice.  Float-identical to the generic
            # path (every candidate has tf > 0 in every term, and the
            # accumulation runs in the same query-term order).
            terms = [str(t) for t in ast.terms_of(node)]
            docs, tf_by_term = self._conjunctive_eval(terms)
            if len(self.deleted) and len(docs):
                keep = self._not_deleted(docs)
                docs = docs[keep]
                tf_by_term = {t: v[keep] for t, v in tf_by_term.items()}
            if len(docs) == 0:
                return self._project(docs, scores=np.empty(0), with_meta=with_meta)
            cfg = self.cfg
            dl_all = self.docmap.lengths_for(docs)
            scores = np.zeros(len(docs), dtype=np.float64)
            for term in terms:
                scores += bm25_component(
                    tf_by_term[term].astype(np.float64), dl_all,
                    idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b,
                )
            if after is not None:
                keep = self._after_mask(docs, scores, after)
                docs, scores = docs[keep], scores[keep]
            order = topk_order(scores, self._tie_key(docs), k)
            return self._project(docs[order], scores=scores[order], with_meta=with_meta)
        candidates = self._candidates(node)
        if allowed is not None:
            candidates = intersect_sorted(candidates, allowed)
        if len(candidates) == 0:
            return self._project(candidates, scores=np.empty(0), with_meta=with_meta)
        scores = self._score_docs(candidates, [str(t) for t in ast.terms_of(node)], idfs, avgdl)
        if after is not None:
            keep = self._after_mask(candidates, scores, after)
            candidates, scores = candidates[keep], scores[keep]
        order = topk_order(scores, self._tie_key(candidates), k)
        return self._project(candidates[order], scores=scores[order], with_meta=with_meta)

    def _score_union(
        self, terms: list[str], idfs: dict[str, float], avgdl: float,
        min_count: int = 1, flt: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, match_counts, scores) over the live UNION of the
        terms' posting lists, via one sorted unique + per-term
        scatter-add that REUSES the tfs decoded for the union instead
        of re-probing every term (skip-block probes pay per-block
        bookkeeping a full-union visit never amortizes).  Docs below
        `min_count` matching terms are dropped BEFORE scoring (msm
        with a high m scores only the small survivor set, not the
        whole union).  Per-doc accumulation runs in the terms' list
        order — float-identical to _score_docs on the same docs.  A
        doc's multiplicity in the concatenation IS its matching-term
        count (one posting per (term, doc))."""
        cfg = self.cfg
        arrs = [self._postings(t) for t in terms]
        nonempty = [d for d, _ in arrs if len(d)]
        if not nonempty:
            e = _EMPTY_U64
            return e, np.empty(0, dtype=np.int64), np.empty(0)
        docs, counts = np.unique(np.concatenate(nonempty),
                                 return_counts=True)
        if min_count > 1:
            sel = counts >= min_count
            docs, counts = docs[sel], counts[sel]
        if flt is not None:
            # metadata filter narrows the candidate set BEFORE
            # scoring (counts are per-doc term membership — filter
            # cannot change them); keep counts aligned via membership
            ok = sorted_member_mask(self._filter_allowed(flt), docs)
            docs, counts = docs[ok], counts[ok]
        if len(self.deleted):
            keep = self._not_deleted(docs)
            docs, counts = docs[keep], counts[keep]
        if len(docs) == 0:
            return docs, counts, np.empty(0)
        dl_all = self.docmap.lengths_for(docs)
        scores = np.zeros(len(docs), dtype=np.float64)
        for (d, tf), term in zip(arrs, terms):
            if len(d) == 0:
                continue
            ok = sorted_member_mask(docs, d)  # filtered/deleted fell out
            at = np.searchsorted(docs, d[ok])
            scores[at] += bm25_component(
                tf[ok].astype(np.float64), dl_all[at],
                idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b,
            )
        return docs, counts, scores

    def search_span_first(self, term: str, limit_pos: int, k: int,
                          idfs: dict[str, float], avgdl: float,
                          with_meta: bool = True,
                          flt: dict | None = None) -> pa.Table:
        """BM25 top-k over docs whose FIRST occurrence of `term` sits
        at token position < `limit_pos` (the Lucene SpanFirstQuery
        analogue, engine extension §2.10) — 'the term appears in the
        opening N tokens'.  First positions gather from the cached
        flat positions mirror (positions within a posting are
        ascending canonical order, so each cell's first element IS
        the minimum); scoring is the standard single-term BM25 over
        the surviving docs."""
        if not self.cfg.store_positions:
            raise ValueError(
                "span-first queries require an index built with "
                "store_positions=True")
        if self.docmap is None:
            return self._project(_EMPTY_U64, scores=np.empty(0),
                                 with_meta=with_meta)
        docs, tfs = self._postings(term)
        if len(docs) == 0:
            return self._project(docs, scores=np.empty(0),
                                 with_meta=with_meta)
        first = self._first_pos_cache.get(term)
        if first is None:
            reader = self.shards.get(self._sharder.shard_of(term))
            res = (reader.positions_rows_flat(term, np.arange(len(docs)))
                   if reader is not None else None)
            if res is None:
                raise ValueError(
                    f"span_first({term!r}): positions unavailable — the "
                    "index was built without positional data")
            lengths, flat = res
            starts = np.concatenate([[0], np.cumsum(lengths)])[:-1]
            first = flat[starts]
            # positions are immutable per searcher; memoize the firsts
            # (one int64 per posting) so repeat span-first queries on
            # a hot term skip the flat gather entirely
            if len(self._first_pos_cache) >= _POS_CACHE_MAX:
                self._first_pos_cache.clear()
            self._first_pos_cache[term] = first
        sel = first < limit_pos
        docs, tfs = docs[sel], tfs[sel]
        if flt is not None and len(docs):
            ok = sorted_member_mask(self._filter_allowed(flt), docs)
            docs, tfs = docs[ok], tfs[ok]
        if len(self.deleted) and len(docs):
            keep = self._not_deleted(docs)
            docs, tfs = docs[keep], tfs[keep]
        if len(docs) == 0:
            return self._project(docs, scores=np.empty(0),
                                 with_meta=with_meta)
        cfg = self.cfg
        scores = bm25_component(
            tfs.astype(np.float64), self.docmap.lengths_for(docs),
            idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b,
        )
        order = topk_order(scores, self._tie_key(docs), k)
        return self._project(docs[order], scores=scores[order],
                             with_meta=with_meta)

    def search_dismax(self, terms: list[str], tie: float, k: int,
                      idfs: dict[str, float], avgdl: float,
                      with_meta: bool = True,
                      flt: dict | None = None) -> pa.Table:
        """Disjunction-max BM25 top-k (the Lucene DisjunctionMaxQuery
        analogue, engine extension §2.10): score(d) = max_t contrib_t
        + tie * (sum_t contrib_t - max_t contrib_t) over the OR
        candidate set.  tie=0 is pure best-field max; tie=1 recovers
        the plain disjunctive sum.  Same union scatter machinery as
        _score_union, tracking the per-doc max alongside the sum
        (contribs are positive — idf > 0, tf > 0 — so a zero init is
        a correct max identity)."""
        if self.docmap is None:
            return self._project(_EMPTY_U64, scores=np.empty(0),
                                 with_meta=with_meta)
        cfg = self.cfg
        arrs = [self._postings(t) for t in terms]
        nonempty = [d for d, _ in arrs if len(d)]
        if not nonempty:
            return self._project(_EMPTY_U64, scores=np.empty(0),
                                 with_meta=with_meta)
        docs = np.unique(np.concatenate(nonempty))
        if flt is not None:
            docs = intersect_sorted(docs, self._filter_allowed(flt))
        if len(self.deleted):
            docs = docs[self._not_deleted(docs)]
        if len(docs) == 0:
            return self._project(docs, scores=np.empty(0),
                                 with_meta=with_meta)
        dl_all = self.docmap.lengths_for(docs)
        sums = np.zeros(len(docs), dtype=np.float64)
        maxs = np.zeros(len(docs), dtype=np.float64)
        for (d, tf), term in zip(arrs, terms):
            if len(d) == 0:
                continue
            ok = sorted_member_mask(docs, d)
            at = np.searchsorted(docs, d[ok])
            comp = bm25_component(
                tf[ok].astype(np.float64), dl_all[at],
                idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b,
            )
            sums[at] += comp
            # `at` is duplicate-free within a term (one posting per
            # doc), so plain fancy-index max beats ufunc.at's slow
            # buffered loop
            maxs[at] = np.maximum(maxs[at], comp)
        scores = maxs + tie * (sums - maxs)
        order = topk_order(scores, self._tie_key(docs), k)
        return self._project(docs[order], scores=scores[order],
                             with_meta=with_meta)

    def search_msm(self, terms: list[str], m: int, k: int,
                   idfs: dict[str, float], avgdl: float,
                   with_meta: bool = True,
                   flt: dict | None = None) -> pa.Table:
        """BM25 top-k over docs matching at least `m` of the DISTINCT
        query `terms` — Lucene's minimum_should_match over a
        disjunction (engine extension, §2.10).  m == 1 admits exactly
        the OR candidate set; m == len(terms) exactly the AND set.
        Scores are the standard sum of the present terms'
        contributions (_score_union — float-identical to the generic
        disjunctive path on the same candidates).  `flt` narrows the
        candidate set by docmap metadata (scores unchanged — the
        search_bm25_filtered contract)."""
        if self.docmap is None:
            return self._project(_EMPTY_U64, scores=np.empty(0),
                                 with_meta=with_meta)
        docs, _, scores = self._score_union(terms, idfs, avgdl,
                                            min_count=m, flt=flt)
        if len(docs) == 0:
            return self._project(docs, scores=np.empty(0),
                                 with_meta=with_meta)
        order = topk_order(scores, self._tie_key(docs), k)
        return self._project(docs[order], scores=scores[order],
                             with_meta=with_meta)

    def search_collapse(self, node: ast.Node, field: str, k: int,
                        idfs: dict[str, float], avgdl: float,
                        with_meta: bool = True,
                        flt: dict | None = None) -> pa.Table:
        """Field-collapsed BM25 (Lucene's collapse, engine extension
        §2.10): group the query's candidates by a docmap metadata
        column, keep each group's best-ranked doc under the global
        result order (score desc, doc asc), and return this searcher's
        top-k group representatives.  Shipping only per-group group
        bests is EXACT for the global collapsed top-k (collapse_order's
        argument)."""
        if self.docmap is None:
            return self._project(_EMPTY_U64, scores=np.empty(0),
                                 with_meta=with_meta)
        if ast.is_disjunctive(node):
            # pure-OR fast path: union + scatter-add reuses the
            # decoded tfs (float-identical to the generic path)
            cands, _, scores = self._score_union(
                [str(t) for t in ast.terms_of(node)], idfs, avgdl,
                flt=flt)
        else:
            cands = self._candidates(node, flt)
            scores = (self._score_docs(
                cands, [str(t) for t in ast.terms_of(node)], idfs, avgdl)
                if len(cands) else np.empty(0))
        if len(cands) == 0:
            return self._project(cands, scores=np.empty(0),
                                 with_meta=with_meta)
        codes = self._collapse_codes.get(field)
        if codes is None:
            codes = self._collapse_codes[field] = column_codes(self.docmap.table[field])
        sel = collapse_order(codes[cands], scores, self._tie_key(cands), k)
        return self._project(cands[sel], scores=scores[sel],
                             with_meta=with_meta)

    def _conjunctive_eval(
        self, terms: list[str]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """intersection docs of `terms` and each term's tf aligned to
        the surviving docs.  Decodes the rarest term fully, then
        narrows by skip-block probing the others in ascending-df order
        (the lazy AND shape of _eval_sets, keeping the tfs it finds)."""
        order = sorted(terms, key=lambda t: self.df(t))
        docs, tf0 = self._postings(order[0])
        tf_by_term: dict[str, np.ndarray] = {order[0]: tf0}
        for term in order[1:]:
            if len(docs) == 0:
                break
            tf_all = self.probe_tfs(term, docs)
            keep = tf_all > 0
            docs = docs[keep]
            for t in tf_by_term:
                tf_by_term[t] = tf_by_term[t][keep]
            tf_by_term[term] = tf_all[keep]
        if len(docs) == 0:
            return docs, {t: np.empty(0, dtype=np.uint64) for t in terms}
        return docs, tf_by_term

    def _score_docs(
        self,
        docs: np.ndarray,
        terms: list[str],
        idfs: dict[str, float],
        avgdl: float,
        known_tfs: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Full BM25 score of `docs` over every query term — identical
        float semantics to the candidate-scoring loop in search_bm25.
        `known_tfs` maps a term to its tf array already aligned with
        `docs` (MaxScore passes the expansion term's decoded tfs so it
        isn't re-probed for its own docs); values are identical to what
        probe_tfs would return, so the floats don't move."""
        cfg = self.cfg
        dl_all = self.docmap.lengths_for(docs)
        scores = np.zeros(len(docs), dtype=np.float64)
        for term in terms:
            if known_tfs is not None and term in known_tfs:
                tf_all = known_tfs[term]
            else:
                # skip-block probe: a hot term contributes tf for the
                # few candidate docs without decoding its full list
                tf_all = self.probe_tfs(term, docs)
            mask = tf_all > 0
            if not mask.any():
                continue
            tf = tf_all[mask].astype(np.float64)
            scores[mask] += bm25_component(
                tf, dl_all[mask], idfs.get(term, 0.0), avgdl, cfg.k1, cfg.b
            )
        return scores

    def _term_docs_blockmax(
        self, term: str, idf: float, carry_ub: float, kth: float | None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Docs of `term` from only the skip blocks whose BLOCK-MAX
        score upper bound (idf * block_max_tf component with the
        dl-independent 1-b bound) plus `carry_ub` can still reach the
        current k-th score.  `carry_ub` is the WAND carry for a doc
        introduced HERE: full UB of every not-yet-expanded term plus,
        for each already-expanded term, the max UB of the blocks that
        were SKIPPED there (an unseen doc can only hide in skipped
        blocks of expanded terms).

        Returns (docs, tfs, max skipped-block UB of this term) — the
        tfs ride along so the caller scores this term without
        re-probing it; the last value feeds later terms' carry.
        Exact: a doc living solely in dropped blocks scores strictly
        below kth, so it can neither enter nor tie into the top-k."""
        enc = self._encoded(term)
        if enc is None or enc.count == 0:
            return _EMPTY_U64, _EMPTY_U64, 0.0
        n_blocks = len(enc.block_last)
        if kth is None:
            docs, tfs = self._postings(term)
            return docs, tfs, 0.0
        cfg = self.cfg
        btf = enc.block_max_tf.astype(np.float64)
        block_ub = idf * (btf * (cfg.k1 + 1.0)) / (btf + cfg.k1 * (1.0 - cfg.b))
        keep_mask = block_ub + carry_ub >= kth
        keep = np.flatnonzero(keep_mask)
        self.decode_stats["blocks_total"] += n_blocks
        if len(keep) * 2 >= n_blocks:
            self.decode_stats["blocks_decoded"] += n_blocks
            docs, tfs = self._postings(term)
            return docs, tfs, 0.0
        skipped_max = float(block_ub[~keep_mask].max()) if len(keep) < n_blocks else 0.0
        # decode through the block cache so any later probes of this
        # term reuse these blocks instead of re-decoding them
        docs, tfs = self._decode_blocks_cached(term, enc, keep.astype(np.int64))
        return docs, tfs, skipped_max

    def _maxscore_disjunctive(
        self, terms: list[str], k: int, idfs: dict[str, float], avgdl: float,
        allowed: np.ndarray | None = None, after: tuple | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact MaxScore pruning for pure disjunctions (north-star
        block-max machinery): terms are processed in descending
        score-upper-bound order (UB from the skip blocks' max tf, with
        the dl-independent bound 1-b+b*dl/avgdl >= 1-b); once the
        summed UB of unprocessed terms falls strictly below the k-th
        best score, no unseen document can enter the top-k, so their
        postings are never decoded.  Result is IDENTICAL to the
        exhaustive path (strict < keeps doc_id tie-breaks exact).

        `allowed` (sorted): restrict candidates to this doc set BEFORE
        accumulation — the metadata-filter fast path.  Exactness is
        preserved: excluded docs never enter the candidate pool, so
        the k-th threshold is built from qualifying docs only, and the
        term/block upper bounds remain valid bounds for every unseen
        qualifying doc (a lower kth only ever prunes LESS).

        `after` (cursor pagination, ROADMAP #21): qualification here
        depends on the EXACT score (score < cursor score, or tie with
        a later key), which is only known after accumulation — so
        every expanded doc still enters the candidate pool, but the
        k-th threshold and the final selection consider qualifying
        docs only.  Exactness at the pruning boundary: a doc pruned by
        `remaining_ub < kth` or left in a skipped block has full score
        strictly below the k-th best QUALIFYING score, so whether or
        not it qualifies it cannot enter (or tie into) the qualifying
        top-k; a lower qualifying kth only ever prunes less than the
        page-one threshold would."""
        cfg = self.cfg
        ubs = []
        for t in terms:
            mtf = float(self.max_tf(t))
            ub = (
                idfs.get(t, 0.0) * (mtf * (cfg.k1 + 1.0)) / (mtf + cfg.k1 * (1.0 - cfg.b))
                if mtf > 0
                else 0.0
            )
            ubs.append(ub)
        # expansion order: UB desc.  Scoring ALWAYS runs in the
        # original query-term order — float accumulation order is part
        # of the oracle rank-identity contract.
        score_terms = list(terms)
        order = sorted(range(len(terms)), key=lambda i: -ubs[i])
        terms = [terms[i] for i in order]
        ubs = np.array([ubs[i] for i in order])

        cand = _EMPTY_U64
        cand_scores = np.empty(0, dtype=np.float64)
        # qualifying mask (cursor mode only): which candidates sort
        # after the cursor — thresholds and the final top-k use these
        cand_q = None if after is None else np.empty(0, dtype=bool)
        skipped_carry = 0.0  # Σ over expanded terms of max skipped-block UB
        for e in range(len(terms)):
            remaining_ub = float(ubs[e:].sum()) + skipped_carry
            kth = None
            if cand_q is None:
                if len(cand) >= k:
                    kth = float(cand_scores[topk_order(cand_scores, self._tie_key(cand), k)[-1]])
            else:
                sub = np.flatnonzero(cand_q)
                if len(sub) >= k:
                    sel = topk_order(cand_scores[sub], self._tie_key(cand[sub]), k)
                    kth = float(cand_scores[sub[sel[-1]]])
            if kth is not None and remaining_ub < kth:
                break
            # block-max refinement: within a term that must still be
            # expanded, decode only blocks that can beat the current
            # k-th score (WAND-style, exactness argument in
            # _term_docs_blockmax)
            docs_e, tfs_e, skipped_max = self._term_docs_blockmax(
                terms[e],
                idfs.get(terms[e], 0.0),
                float(ubs[e + 1 :].sum()) + skipped_carry,
                kth,
            )
            skipped_carry += skipped_max
            if allowed is not None:
                ok = sorted_member_mask(allowed, docs_e)
                docs_e, tfs_e = docs_e[ok], tfs_e[ok]
            if len(docs_e) == 0:
                continue
            if len(cand):
                new_mask = ~np.isin(docs_e, cand, assume_unique=True)
                new = docs_e[new_mask]
                tf_new = tfs_e[new_mask]
            else:
                new, tf_new = docs_e, tfs_e
            if len(new):
                # the expansion term's tfs were just decoded — hand
                # them to the scorer so it probes one term fewer
                new_scores = self._score_docs(
                    new, score_terms, idfs, avgdl, known_tfs={terms[e]: tf_new}
                )
                cand = np.concatenate([cand, new])
                cand_scores = np.concatenate([cand_scores, new_scores])
                srt = np.argsort(cand, kind="stable")
                cand, cand_scores = cand[srt], cand_scores[srt]
                if cand_q is not None:
                    new_q = self._after_mask(new, new_scores, after)
                    cand_q = np.concatenate([cand_q, new_q])[srt]
        if cand_q is not None:
            sub = np.flatnonzero(cand_q)
            sel = topk_order(cand_scores[sub], self._tie_key(cand[sub]), k)
            return cand[sub][sel], cand_scores[sub][sel]
        sel = topk_order(cand_scores, self._tie_key(cand), k)
        return cand[sel], cand_scores[sel]

    # -------------------------------------------------------- projection
    def _project(self, doc_ids: np.ndarray, scores: np.ndarray | None,
                 with_meta: bool = True) -> pa.Table:
        """The single exit of every result-returning operator: the rows
        of `doc_ids` (docmap ordinals) as (doc_id_hi,) doc_id[, score]
        plus, when `with_meta` is True, the docmap metadata columns.
        The ids and metadata come from ONE docmap take (`meta_for`)
        for the rows the operator kept (late materialization); zero
        rows return the call shape's prebuilt typed empty table."""
        columns, score_at, empty = self._layouts[scores is not None, with_meta]
        if len(doc_ids) == 0:
            return empty
        t = self.docmap.meta_for(doc_ids, columns)
        if score_at is None:
            return t
        return t.add_column(score_at, _SCORE_FIELD, pa.array(scores, type=pa.float64()))

    # --------------------------------------------------------- positions
    def _posting_positions(self, term: str, doc_id: int, doc_hi: int | None):
        """the positions of one posting, `term` in external doc
        (`doc_hi`, `doc_id`), as an int64 array (empty when the index
        stores none); None when the doc does not contain the term.
        The one-posting read of `positions` and `first_position`: one
        row of `positions_rows_flat`."""
        i = self._posting_index(term, doc_id, doc_hi)
        if i is None:
            return None
        reader = self.shards[self._sharder.shard_of(term)]
        res = reader.positions_rows_flat(term, np.array([i], dtype=np.int64))
        return np.empty(0, dtype=np.int64) if res is None else res[1]

    def positions(self, term: str, doc_id: int, doc_hi: int | None = None) -> list[int]:
        """Per-occurrence token positions (reference textLocation
        analogue) of external doc (`doc_hi`, `doc_id`), for conformance
        checks."""
        pos = self._posting_positions(term, doc_id, doc_hi)
        return [] if pos is None else pos.tolist()

    def first_position(self, term: str, doc_id: int, doc_hi: int | None = None):
        """First token position of `term` in `doc_id`, 0 when the doc
        matches but positions are not stored, None when the doc does
        not contain the term (serving-layer helper).  In wide-id mode
        pass the external pair (`doc_hi`, `doc_id`)."""
        pos = self._posting_positions(term, doc_id, doc_hi)
        if pos is None:
            return None
        return int(pos[0]) if len(pos) else 0

    # ------------------------------------------------ phrase and proximity
    def search_phrase(
        self,
        terms: list[str],
        k: int,
        idfs: dict[str, float],
        avgdl: float,
        with_meta: bool = True,
    ) -> pa.Table:
        """Exact phrase match using the stored position lists (the
        positions are the engine-level generalization of the
        reference's per-posting textLocation, documentid.chpl:17-18):
        candidates = conjunction of all terms; a candidate survives if
        for some start position p, term i appears at p+i for every i.
        Survivors are BM25-scored over the phrase terms (same float
        contract as search_bm25)."""
        # NB max_positions_per_doc truncation can hide matches past the
        # cap — phrase recall is only exact with the cap disabled.
        windows = [(t, i, i) for i, t in enumerate(terms[1:], 1)]
        docs, scores = self._positional_topk(terms, k, idfs, avgdl, terms[:1], windows)
        return self._project(docs, scores=scores, with_meta=with_meta)

    def search_near(
        self,
        term_a: str,
        term_b: str,
        slop: int,
        ordered: bool,
        k: int,
        idfs: dict[str, float],
        avgdl: float,
        with_meta: bool = True,
    ) -> pa.Table:
        """Proximity (NEAR/slop) query over the stored position lists —
        the unordered/ordered generalization of search_phrase for two
        terms (positions are the engine-level form of the reference's
        per-posting textLocation, documentid.chpl:17-18).  A candidate
        (= conjunction of both terms) survives when some occurrence
        pair (pa, pb) has |pb - pa| <= slop (unordered) or
        1 <= pb - pa <= slop (ordered); for term_a == term_b the pair
        is two distinct occurrences.  Survivors are BM25-scored over
        the query terms (same float contract as search_bm25), and
        verification runs lazily in final ranking order with the exact
        early exit search_phrase uses.  QueryEngine validates
        slop >= 1."""
        lo = 1 if ordered or term_a == term_b else -slop
        docs, scores = self._positional_topk([term_a, term_b], k, idfs, avgdl,
                                             [term_a], [(term_b, lo, slop)])
        return self._project(docs, scores=scores, with_meta=with_meta)

    def search_near_all(
        self,
        terms: list[str],
        slop: int,
        k: int,
        idfs: dict[str, float],
        avgdl: float,
        with_meta: bool = True,
    ) -> pa.Table:
        """N-term unordered proximity (span-near): a candidate (=
        conjunction of all terms) survives when some window of
        positions [q, q+slop] contains at least one occurrence of
        EVERY term — i.e. an occurrence choice with max − min <= slop.
        Exactness of the anchored check: a valid choice's minimum
        occurrence q is itself an occurrence, and its window contains
        every chosen occurrence; conversely any anchor window
        satisfying all terms is such a choice.  Duplicate terms are
        deduplicated (no multiplicity requirement); one distinct term
        matches every candidate.  Survivors are BM25-scored over the
        unique terms and verified lazily in final ranking order with
        search_phrase's exact early exit.  QueryEngine validates
        slop >= 1."""
        terms = list(dict.fromkeys(terms))
        windows = [(t, 0, slop) for t in terms] if len(terms) > 1 else []
        docs, scores = self._positional_topk(terms, k, idfs, avgdl, terms, windows)
        return self._project(docs, scores=scores, with_meta=with_meta)

    def _positional_topk(
        self, terms: list[str], k: int, idfs: dict[str, float], avgdl: float,
        anchor_terms: list[str], windows: list[tuple[str, int, int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """(docs, scores) of the first <= k candidates, in ranking
        order, that pass `_window_survivors(…, anchor_terms, windows)`.
        Candidates are the conjunction of `terms`, BM25-scored over
        the unique terms in first-seen order (oracle float contract: a
        repeated term must not contribute twice), and verified lazily
        in final ranking order (`_lazy_rank_verify`)."""
        if self.docmap is None or not terms:
            return _EMPTY_U64, np.empty(0)
        if not self.cfg.store_positions:
            raise ValueError("phrase and NEAR queries require an index built "
                             "with store_positions=True")
        candidates, scores = self._conjunctive_scored(
            list(dict.fromkeys(terms)), idfs, avgdl
        )
        return self._lazy_rank_verify(
            candidates, scores, k,
            lambda cand: self._window_survivors(cand, anchor_terms, windows),
        )

    def _conjunctive_scored(
        self, uniq_terms: list[str], idfs: dict[str, float], avgdl: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """candidates + BM25 scores of a pure term conjunction in ONE
        pass: the tfs found while intersecting (_conjunctive_eval) are
        exactly the tfs scoring needs, so no term probes twice.
        Float-identical to _score_docs over the same candidates —
        every conjunctive candidate has tf > 0 in every term, so the
        masked accumulation degenerates to this unmasked one in the
        same term order."""
        candidates, tf_by_term = self._conjunctive_eval(uniq_terms)
        if len(self.deleted) and len(candidates):
            keep = self._not_deleted(candidates)
            candidates = candidates[keep]
            tf_by_term = {t: v[keep] for t, v in tf_by_term.items()}
        if len(candidates) == 0:
            return candidates, np.empty(0)
        cfg = self.cfg
        dl_all = self.docmap.lengths_for(candidates)
        scores = np.zeros(len(candidates), dtype=np.float64)
        for t in uniq_terms:
            scores += bm25_component(
                tf_by_term[t].astype(np.float64), dl_all,
                idfs.get(t, 0.0), avgdl, cfg.k1, cfg.b,
            )
        return candidates, scores

    def _lazy_rank_verify(
        self, candidates: np.ndarray, scores: np.ndarray, k: int, verify
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-ordered lazy verification shared by phrase/NEAR: run
        `verify` (candidate docs -> surviving row indices) in final
        ranking order (score desc, doc asc) in geometrically growing
        chunks.  Once k survivors exist, every unverified candidate
        ranks strictly after the k-th survivor — exact early exit.
        Hot-term phrases verify ~k docs instead of the whole
        conjunction.  The ranking itself is lazy too: a full lexsort
        of 25k candidates costs ~5x the verify chunk, so the exact
        (score desc, doc asc) prefix is materialized only as deep as
        the verify loop actually reaches — argpartition to the needed
        depth, then include EVERY candidate tied with the boundary
        score and sort just those (candidates outside the tie set
        score strictly below the boundary, so the prefix is exact
        whatever the tie-break).  Returns (docs, scores) of the first
        <= k survivors."""
        n = len(candidates)
        ties = self._tie_key(candidates)
        rank: np.ndarray | None = None
        rank_len = 0  # leading entries of `rank` that are exact
        kept_docs: list[np.ndarray] = []
        kept_scores: list[np.ndarray] = []
        # first chunk sized to the ask (hot phrases survive verification
        # at ~100%, so a 256-doc first chunk did 4x the position work
        # k=10 needs); geometric growth keeps the sparse-match worst
        # case at one extra round
        total, start, chunk = 0, 0, max(4 * k, 64)
        while start < n and total < k:
            need = min(n, start + chunk)
            if need > rank_len:
                if need * 4 >= n:
                    rank, rank_len = np.lexsort((ties, -scores)), n
                else:
                    part = np.argpartition(-scores, need - 1)[:need]
                    boundary = scores[part].min()
                    ii = np.flatnonzero(scores >= boundary)
                    order = np.lexsort((ties[ii], -scores[ii]))
                    rank, rank_len = ii[order], len(ii)
            sel = rank[start : start + chunk]
            rows = verify(candidates[sel])
            if len(rows):
                kept_docs.append(candidates[sel][rows])
                kept_scores.append(scores[sel][rows])
                total += len(rows)
            start += chunk
            chunk *= 2
        if total == 0:
            return _EMPTY_U64, np.empty(0)
        docs = np.concatenate(kept_docs)[:k]
        return docs, np.concatenate(kept_scores)[: len(docs)]

    def _posting_row_indices(self, term: str, docs: np.ndarray) -> np.ndarray:
        """posting-list row index of each doc (docs must all be present
        in the term's postings).  Sparse doc sets resolve through the
        skip index + per-block cached decode — the phrase path never
        full-decodes a hot term just to find candidate row offsets."""
        hit = self._decoded.get(term)
        if hit is not None:
            return np.searchsorted(hit[0], docs)
        enc = self._encoded(term)
        if enc is None or len(docs) * 2 >= enc.count:
            return np.searchsorted(self._postings(term)[0], docs)
        blocks = np.searchsorted(enc.block_last, docs, side="left")
        self.decode_stats["blocks_total"] += len(enc.block_last)
        needed = np.unique(blocks)
        concat_docs, _ = self._decode_blocks_cached(term, enc, needed.astype(np.int64))
        first, counts = block_span(enc, needed, self.cfg.block_size)
        bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        pos = np.searchsorted(concat_docs, docs)
        which = np.searchsorted(bounds, pos, side="right") - 1
        return first[which] + (pos - bounds[which])

    def _window_survivors(
        self, candidates: np.ndarray, anchor_terms: list[str],
        windows: list[tuple[str, int, int]],
    ) -> np.ndarray:
        """The one positional verification: ascending ROW indices into
        `candidates` (any order; every candidate holds every term) of
        the candidates with some occurrence p of an `anchor_terms` term
        such that, for EVERY window (t, lo, hi), term t occurs in
        [p + lo, p + hi].  No windows: every candidate survives.

        Occurrences are gathered once per distinct term (lazy: only the
        skip blocks the candidate rows live in decode) and packed into
        one integer key row * stride + reach + pos, as the reference
        packs textLocation << 24 | documentIndex into one operand
        (documentid.chpl:40-42); `reach` on both sides of a row keeps
        every window inside it.  Windows run in order, each against the
        anchors still alive, so survivors shrink window by window.  Per
        window one density rule picks the strategy: a table over the
        m * stride key space with every cell marked whose window holds
        a key of t (one gather per anchor), or two batched searchsorted
        calls into t's sorted keys."""
        m = len(candidates)
        if not windows:
            return np.arange(m, dtype=np.int64)
        occ: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for t in dict.fromkeys([*anchor_terms, *(w[0] for w in windows)]):
            reader = self.shards.get(self._sharder.shard_of(t))
            res = (reader.positions_rows_flat(t, self._posting_row_indices(t, candidates))
                   if reader is not None else None)
            if res is None or len(res[1]) == 0:
                return _EMPTY_I64  # positions unavailable -> no exact match
            occ[t] = res  # (lengths, positions ascending per row)
        reach = max(max(hi, -lo) for _, lo, hi in windows)
        stride = 2 * reach + int(max(v.max() for _, v in occ.values())) + 1
        base = np.arange(m, dtype=np.int64) * stride + reach
        # ascending per term: rows ascend, positions ascend within a row
        keys = {t: np.repeat(base, lengths) + vals for t, (lengths, vals) in occ.items()}
        anchors = np.concatenate([keys[t] for t in anchor_terms])
        if len(anchor_terms) > 1:
            anchors.sort()
        size = m * stride
        for t, lo, hi in windows:
            kt = keys[t]
            # the density rule: the table takes a byte per cell and
            # eight per mark; zeroing a byte costs a tiny fraction of a
            # binary search, so it runs while it takes <= 256 bytes per
            # key checked (sparse keys search instead), within the budget
            table_bytes = size + 8 * len(kt) * (hi - lo + 1)
            if table_bytes <= min(_WINDOW_TABLE_BUDGET_BYTES,
                                  256 * (len(anchors) + len(kt))):
                # cell c is marked when some key of t lies in [c + lo, c + hi]
                marked = np.zeros(size, dtype=bool)
                marked[(kt[:, None] - np.arange(lo, hi + 1)).ravel()] = True
                hit = marked[anchors]
            else:
                hit = (np.searchsorted(kt, anchors + lo, side="left")
                       < np.searchsorted(kt, anchors + hi, side="right"))
            anchors = anchors[hit]
            if len(anchors) == 0:
                return _EMPTY_I64
        rows = anchors // stride
        # anchors sorted -> rows sorted; run-detect instead of np.unique
        return rows[np.concatenate([[True], rows[1:] != rows[:-1]])]


class SearcherGroup:
    """N doc-segments resident in ONE actor (VERDICT r01 item 8): at
    10^12 docs the 2^24-doc segment cap implies ~6e4 segments
    (config.py scale note) — one actor per segment would mean 6e4
    actors.  QueryEngine fans out to groups instead of segments: by
    default one group per Ray node that has a CPU (the reference's one
    index shard per locale), or `max_actors` groups when that is given,
    never more groups than segments.  An actorless engine holds one
    in-process group over every segment.

    A group holds ONE SegmentSearcher over all its segments, a single
    row space with one copy of the postings, so every operator runs
    once per group: no per-segment searchers, no merge of their hits.

    The call surface is generic — the searcher's operator is named by
    string, like the reference's one `query` entry per segment
    (search.chpl:40-60) under one scatter-gather merge point
    (searchindex.chpl:109-112):

    * `topk(name, k, …)`: a top-k operator's table, metadata projected
      for its k winners only (`topk_many` runs a batch in one call);
    * `concat(name, …)`: an operator's table over the group's segments,
      segment-major (boolean, explain, facets);
    * `count`, `first_position`, `node_id`."""

    def __init__(self, index_dir: str, segs: list[int], cfg: EngineConfig):
        self.searcher = SegmentSearcher(index_dir, list(segs), cfg)

    def node_id(self) -> str:
        """The Ray node hosting this group — the 'locale id' analogue;
        lets callers verify placement spans a cluster's workers."""
        import ray

        return ray.get_runtime_context().get_node_id()

    # --------------------------------------------------------- top-k
    def topk(self, name: str, k: int, with_meta: bool = True, **kw) -> pa.Table:
        """SegmentSearcher top-k operator `name` (keyword arguments
        `kw`) over the group: its k winners as a table."""
        return getattr(self.searcher, name)(k=k, with_meta=with_meta, **kw)

    def topk_many(self, name: str, k: int, calls: list[dict]) -> list[pa.Table]:
        """`topk` once per keyword set in `calls`: a batch of queries in
        one call, one table per query."""
        return [self.topk(name, k, **kw) for kw in calls]

    # perfbench calls these two by name on group actors
    def search_bm25(self, node, k, idfs, avgdl, with_meta=True) -> pa.Table:
        return self.topk("search_bm25", k, with_meta, node=node, idfs=idfs, avgdl=avgdl)

    def search_bm25_filtered(self, node, k, idfs, avgdl, flt, with_meta=True) -> pa.Table:
        return self.topk("search_bm25", k, with_meta, node=node, idfs=idfs, avgdl=avgdl,
                         flt=flt)

    # ------------------------------------------------ whole match sets
    def concat(self, name: str, *args, **kw) -> pa.Table:
        """SegmentSearcher operator `name` over the group's segments:
        one table, its rows segment-major."""
        return getattr(self.searcher, name)(*args, **kw)

    def count(self, node, flt=None) -> int:
        return self.searcher.count(node, flt=flt)

    def first_position(self, term: str, doc_id: int, doc_hi: int | None = None):
        return self.searcher.first_position(term, doc_id, doc_hi=doc_hi)
