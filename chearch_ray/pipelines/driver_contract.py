"""Driver-contract implementations (__ray_entry__.py backend).

Each query returns a pyarrow Table / pandas DataFrame whose columns
match the companion oracle SQL in ORACLE_SQL by NAME (the driver's
compare sorts columns by name and value-hashes).  Ray is initialised
by the caller; nothing here calls ray.init().

Index builds are cached per sf_dir under /tmp (keyed by path + input
file size) — `build_index` short-circuits on a committed manifest, so
repeated queries() calls reuse the index.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from chearch_ray import ast
from chearch_ray.config import EngineConfig
from chearch_ray.pipelines.build import build_index
from chearch_ray.sources.corpus import read_documents_corpus
from chearch_ray.state.engine import QueryEngine
from chearch_ray.state.segment import MANIFEST_VERSION


def _ts_between(column: str, d1: str, d2: str):
    """pyarrow row filter `d1 <= column < d2` for read_parquet(filter=):
    the static date window pushes into the scan (row-group pruning +
    row filtering at the read — at 100 TB only matching row groups
    leave storage).  The downstream vectorized window re-applies for
    exactness on arbitrary sources."""
    import datetime as _dt

    lo = pa.scalar(_dt.datetime.fromisoformat(d1), type=pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime.fromisoformat(d2), type=pa.timestamp("us"))
    return (pc.field(column) >= lo) & (pc.field(column) < hi)

DRIVER_CFG = EngineConfig(num_segments=2, num_term_shards=4)

#: SQL tokenizer fragment — must match functions.tokenizer default mode
TOK_CTE = (
    "tok AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9_]+'), x -> x <> '')) AS term FROM documents)"
)

K1, B = DRIVER_CFG.k1, DRIVER_CFG.b

#: LRU cache of live actor engines.  BOUNDED: every cached engine
#: holds SearcherGroup actors whose fractional-CPU reservations are
#: permanent while cached — with one engine per index flavor (main /
#: wide / deleted / per-field) an unbounded cache accumulates enough
#: reservations to starve Ray Data task stages outright on small CPU
#: budgets (observed: a 4-cpu pytest session deadlocked inside
#: ivf_build once 6 cached actors held 3.0 CPUs).  Evicted engines
#: have their actors killed; a later hit on the same index just
#: reopens it (segment load is the only cost).
_ENGINES: "dict[str, QueryEngine]" = {}
#: max live actor engines (fielded search needs its two field engines
#: resident at once, plus headroom for the main engine)
_ENGINE_CACHE_CAP = 3


def _cache_engine(key: str, eng: QueryEngine) -> None:
    while len(_ENGINES) >= _ENGINE_CACHE_CAP:
        old_key = next(iter(_ENGINES))
        _ENGINES.pop(old_key).close()
    _ENGINES[key] = eng


def _cached_engine(key: str) -> QueryEngine | None:
    eng = _ENGINES.pop(key, None)
    if eng is not None:
        _ENGINES[key] = eng  # refresh LRU position
    return eng


def _index_dir_for(sf_dir: str) -> str:
    doc_path = os.path.join(sf_dir, "documents.parquet")
    # key includes the engine config AND the on-disk format version so
    # cached indexes invalidate when DRIVER_CFG or the segment format
    # changes between rounds (fmt2 = packed positions blobs)
    key = (f"{os.path.abspath(sf_dir)}:{os.path.getsize(doc_path)}:{DRIVER_CFG}:fmt2"
           f":v{MANIFEST_VERSION}")
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join("/tmp", "chearch_ray_driver_cache", f"idx-{tag}")


def engine_for(sf_dir: str) -> QueryEngine:
    index_dir = _index_dir_for(sf_dir)
    eng = _cached_engine(index_dir)
    if eng is None:
        build_index(read_documents_corpus(sf_dir), index_dir, DRIVER_CFG)
        eng = QueryEngine(index_dir, use_actors=True)
        _cache_engine(index_dir, eng)
    return eng


def _term_stats(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    return pq.read_table(os.path.join(eng.index_dir, eng.manifest.term_stats_path))


# ------------------------------------------------------------ queries
def q_token_counts(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import TokenStats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(TokenStats(), batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_corpus_stats(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    m = eng.manifest
    return pa.table(
        {
            "num_docs": pa.array([m.num_docs], type=pa.int64()),
            "total_tokens": pa.array([m.total_tokens], type=pa.int64()),
            "avgdl": pa.array([m.avgdl], type=pa.float64()),
        }
    )


def q_term_df(sf_dir: str) -> pa.Table:
    t = _term_stats(sf_dir)
    return pa.table({"term": t["term"], "df": t["df"].cast(pa.int64())})


def q_top_terms(sf_dir: str) -> pa.Table:
    t = _term_stats(sf_dir)
    df = t["df"].to_numpy().astype(np.int64)
    terms = t["term"].to_pylist()
    order = sorted(range(len(terms)), key=lambda i: (-df[i], terms[i]))[:20]
    return pa.table(
        {
            "term": pa.array([terms[i] for i in order]),
            "df": pa.array([int(df[i]) for i in order], type=pa.int64()),
        }
    )


def q_postings_cardinality(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    n = sum(p["n_postings"] for p in eng.manifest.postings_parts)
    return pa.table({"n_postings": pa.array([n], type=pa.int64())})


BOOL_AND_TERMS = ("merge", "sort")
BOOL_OR_TERMS = ("window", "stream")
BM25_TERM = "merge"
BM25_AND_TERMS = ("hash", "join")
BM25_OR_TERMS = ("batch", "index")


def _bool_result(eng: QueryEngine, node: ast.Node) -> pa.Table:
    t = eng.search_boolean(node)
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


def q_boolean_and(sf_dir: str) -> pa.Table:
    a, b = BOOL_AND_TERMS
    return _bool_result(engine_for(sf_dir), ast.And(ast.Term(a), ast.Term(b)))


def q_boolean_or(sf_dir: str) -> pa.Table:
    a, b = BOOL_OR_TERMS
    return _bool_result(engine_for(sf_dir), ast.Or(ast.Term(a), ast.Term(b)))


#: negation — engine extension (§2.10): `window -stream` = docs with
#: `window` minus docs with `stream`; evaluation is positive-anchored
#: (the negative side is skip-block PROBED on the positive doc set,
#: never decoded in full).  EXCEPT mirrors it exactly in SQL.
BOOL_NOT_QUERY = "window -stream"
BM25_NOT_TERMS = ("batch", "merge")  # score `batch`, exclude docs with `merge`


def q_boolean_not(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.search_boolean(BOOL_NOT_QUERY, default_op="and")
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


def q_bm25_not(sf_dir: str) -> pa.Table:
    pos, neg = BM25_NOT_TERMS
    return _ranked(engine_for(sf_dir).search(ast.AndNot(ast.Term(pos), ast.Term(neg)), k=10))


#: prefix (wildcard) query — engine extension (§2.10): `s*` expands
#: against the engine's resident sorted vocabulary (one bisect) into
#: an Or chain before planning; AND'd with a plain term it exercises
#: both the expansion and the conjunction path end-to-end through the
#: string parser (`parse_query` -> Prefix leaf -> QueryEngine._plan).
PREFIX_QUERY = "s* merge"


def q_prefix_boolean(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.search_boolean(PREFIX_QUERY, default_op="and")
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


#: fuzzy query — engine extension (§2.10): `part~2` expands against
#: the vocabulary by exact unit-cost Levenshtein (DuckDB-identical
#: semantics) into a sorted Or chain before planning; at sf scale it
#: expands to {fast, part, sort, spark}, so the row exercises a real
#: 4-way disjunction reached purely through the fuzzy machinery.  The
#: oracle mirrors the expansion with `levenshtein(term, ...) <= 2`
#: over the same tokenization — no term list is hardcoded on either
#: side.
FUZZY_TERM, FUZZY_DIST = "part", 2


def q_fuzzy_bm25(sf_dir: str) -> pa.Table:
    from chearch_ray.state.engine import parse_query

    eng = engine_for(sf_dir)
    return _ranked(eng.search(parse_query(f"{FUZZY_TERM}~{FUZZY_DIST}"), k=10))


#: leading-wildcard (suffix) query — engine extension (§2.10): `*rt`
#: expands against the vocabulary into a sorted Or chain before
#: planning (at sf scale: {part, sort} — a 2-way disjunction reached
#: purely through the suffix machinery).  The row BUILDS the
#: reversed-term dictionary sidecar first (idempotent), so the driver
#: checks the web-scale rterm-range-predicate path
#: (state/suffixdict.py), not the vocabulary-scan fallback; the oracle
#: mirrors the expansion with `term LIKE '%rt'` over the same
#: tokenization — no term list is hardcoded on either side.
SUFFIX_QUERY = "rt"


def q_suffix_wildcard_bm25(sf_dir: str) -> pa.Table:
    """ONE driver row covering BOTH new wildcard machineries (the
    50-slot window is full: pq_knn's fresh exact oracle needs its
    slot this round): `*rt OR t*e` routes the suffix leaf through the
    reversed-term sidecar AND the infix leaf through the anchor
    dictionary in the same disjunctive BM25 — at sf scale the union
    expansion is {part, sort} ∪ {table, the}.  The sidecar is built
    in-row (idempotent) so the driver checks the rterm-range scale
    path, not the scan fallback."""
    from chearch_ray.state.engine import parse_query
    from chearch_ray.state.suffixdict import suffix_dictionary_exists

    eng = engine_for(sf_dir)
    if not suffix_dictionary_exists(os.path.join(eng.index_dir, "suffix")):
        eng.build_suffix_dictionary()
    q = f"*{SUFFIX_QUERY} {WILDCARD_HEAD}*{WILDCARD_TAIL}"
    return _ranked(eng.search(parse_query(q, default_op="or"), k=10))


#: regexp term query — engine extension (§2.10, the Lucene
#: RegexpQuery analogue): `/s[ot][a-z]*/` expands against the
#: vocabulary by Python-re fullmatch over the RE2-agreeing syntax
#: subset (at sf scale: {sort, stream} — a disjunction reached purely
#: through the regexp machinery), routed through expand_prefix's
#: bisect on the extracted literal prefix ('s'), so the driver checks
#: the literal-prefix route, not only the full vocabulary scan.
#: The oracle mirrors the expansion with `regexp_full_match(term,
#: pattern)` over the same tokenization — no term list is hardcoded
#: on either side, and the subset restriction
#: (queryparse.validate_regexp) is what makes re and RE2 agree.
REGEXP_PATTERN = "s[ot][a-z]*"


def q_regexp_bm25(sf_dir: str) -> pa.Table:
    from chearch_ray.state.engine import parse_query

    eng = engine_for(sf_dir)
    return _ranked(eng.search(parse_query(f"/{REGEXP_PATTERN}/"), k=10))


#: minimum-should-match — engine extension (§2.10, Lucene's
#: minimum_should_match): docs containing at least 2 of the 4 query
#: terms, scored by the standard sum of the PRESENT terms' BM25
#: contributions.  The oracle admits candidates with a
#: count(DISTINCT term) >= m HAVING-style subquery and scores with
#: the shared BM25 body — no candidate list on either side.
MSM_TERMS = ("merge", "sort", "window", "stream")
MSM_M = 2


def q_msm_bm25(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    return _ranked(eng.search_msm(MSM_TERMS, MSM_M, k=10))


#: exact hit counting — engine extension (§2.10, the Lucene
#: IndexSearcher.count analogue): segments ship ONE integer each,
#: never windowed by partition_limit; one row checks the AND, OR,
#: AndNot and phrase-bearing node shapes at once.
def q_hit_counts(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    return pa.table({
        "and_n": pa.array([eng.count("merge sort", default_op="and")],
                          type=pa.int64()),
        "or_n": pa.array([eng.count("window stream", default_op="or")],
                         type=pa.int64()),
        "not_n": pa.array([eng.count("window -stream", default_op="and")],
                          type=pa.int64()),
        "phrase_n": pa.array(
            [eng.count('"table hash" merge', default_op="and")],
            type=pa.int64()),
    })


#: facet stats — engine extension (§2.10, the Elasticsearch
#: stats-aggregation analogue): per-lang doc_len statistics over the
#: FULL boolean match set; segments ship integer partials, the mean
#: is one float64 division (sum::DOUBLE / n::DOUBLE on both sides).
def q_facet_stats(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.facet_stats(" ".join(BOOL_OR_TERMS), by="lang",
                        default_op="or")
    return pa.table({
        "lang": t["lang"],
        "n": t["n"],
        "sum_dl": t["sum_dl"],
        "min_dl": t["min_dl"],
        "max_dl": t["max_dl"],
        "mean_dl": t["mean_dl"],
    })


#: disjunction-max — engine extension (§2.10, Lucene's
#: DisjunctionMaxQuery): score = best term contribution + tie * the
#: rest; the oracle swaps the scored CTE's aggregate to
#: max(c) + tie*(sum(c)-max(c)) over the same contrib rows.
DISMAX_TERMS = ("batch", "index", "merge")
DISMAX_TIE = 0.3


def q_dismax_bm25(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    return _ranked(eng.search_dismax(DISMAX_TERMS, tie=DISMAX_TIE, k=10))


#: span-first — engine extension (§2.10, Lucene's SpanFirstQuery):
#: the term's FIRST occurrence must fall in the opening N tokens.
#: Engine positions are 0-based; ptok.ord is 1-based
#: (generate_subscripts), so `first < N` mirrors as `min(ord) <= N`.
SPANFIRST_TERM, SPANFIRST_POS = "merge", 12


def q_span_first(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    return _ranked(eng.search_span_first(SPANFIRST_TERM, SPANFIRST_POS, k=10))


#: field collapsing — engine extension (§2.10, Lucene's collapse /
#: field grouping): the best-ranked doc per distinct `lang`, top-k
#: GROUPS in global (score desc, doc_id asc) order.  Segments ship
#: only per-segment group bests (exactness argument in
#: SegmentSearcher.search_collapse).  k=4 < the 5 langs at sf scale,
#: so the group cut is exercised.  The oracle collapses the shared
#: BM25 body with a per-lang row_number window.
COLLAPSE_FIELD, COLLAPSE_K = "lang", 4


def q_collapse_by_lang(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.search_collapse(" ".join(BM25_OR_TERMS), field=COLLAPSE_FIELD,
                            k=COLLAPSE_K)
    return pa.table({
        "rank": pa.array(range(1, len(t) + 1), type=pa.int64()),
        "doc_id": t["doc_id"].cast(pa.int64()),
        "lang": t["lang"],
    })


#: collapse × metadata filter — the composition law: collapse of the
#: FILTERED ranked list (candidates narrow before grouping, scores
#: unchanged).  k=2 < the 3 allowed langs, exercising both cuts.
COLLAPSE_FLT_LANGS = ("en", "de", "zh")


def q_collapse_filtered(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.search_collapse(" ".join(BM25_OR_TERMS), field=COLLAPSE_FIELD,
                            k=2, filter={"lang": list(COLLAPSE_FLT_LANGS)})
    return pa.table({
        "rank": pa.array(range(1, len(t) + 1), type=pa.int64()),
        "doc_id": t["doc_id"].cast(pa.int64()),
        "lang": t["lang"],
    })


#: Lucene-style scoring explain: one row per (top-k doc, matching
#: term) with the integer evidence (tf, dl, df) the BM25 formula
#: consumed — the oracle reproduces the rows from the same CTEs the
#: BM25 mirror ranks with.  Float columns (idf/contrib/score) are
#: exercised by the pytest oracle (test_explain_matches_oracle), not
#: hashed here, mirroring how every _ranked row drops its score.
def q_explain_bm25(sf_dir: str) -> pa.Table:
    eng = engine_for(sf_dir)
    t = eng.explain(ast.Or(ast.Term(BM25_OR_TERMS[0]),
                           ast.Term(BM25_OR_TERMS[1])), k=10)
    return pa.table({
        "rank": t["rank"],
        "doc_id": t["doc_id"].cast(pa.int64()),
        "term": t["term"],
        "tf": t["tf"],
        "dl": t["dl"],
        "df": t["df"],
    })


#: single-star INFIX wildcard `t*e` — the both-sides-anchored case:
#: expands through the more selective anchor's dictionary with a
#: vectorized post-filter on the other side (at sf scale: {table,
#: the}).  The oracle mirrors the expansion with `LIKE 't%e'` (LIKE's
#: sequential consumption gives the same non-overlapping-halves
#: semantics as the engine's len >= |head|+|tail| check).
WILDCARD_HEAD, WILDCARD_TAIL = "t", "e"


#: wide-id (doc_id_bits=128) driver row — ROADMAP #12.  The documents
#: table's 64-bit ids are split into adversarially COLLIDING (hi, lo)
#: pairs: hi = doc_id % WIDE_SPLIT, lo = doc_id // WIDE_SPLIT, so every
#: lo-64 value is shared by up to WIDE_SPLIT distinct documents — the
#: exact input a 64-bit id space cannot represent.  The oracle mirrors
#: the split in SQL, making the whole ordinal machinery
#: (hashing.doc_id_wide_from_keys is bypassed: explicit columns win)
#: rows+schema+hash checkable.
WIDE_SPLIT = 5
WIDE_CFG = EngineConfig(num_segments=2, num_term_shards=4, doc_id_bits=128)


def _wide_corpus(sf_dir: str):
    ds = read_documents_corpus(sf_dir)

    def split_ids(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy().astype(np.uint64)
        batch = batch.drop_columns(["doc_id"])
        batch = batch.append_column("doc_id", pa.array(did // WIDE_SPLIT, type=pa.uint64()))
        return batch.append_column("doc_id_hi", pa.array(did % WIDE_SPLIT, type=pa.uint64()))

    return ds.map_batches(split_ids, batch_format="pyarrow")


def wide_engine_for(sf_dir: str) -> QueryEngine:
    doc_path = os.path.join(sf_dir, "documents.parquet")
    key = (f"{os.path.abspath(sf_dir)}:{os.path.getsize(doc_path)}:{WIDE_CFG}:wide:fmt2"
           f":v{MANIFEST_VERSION}")
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    index_dir = os.path.join("/tmp", "chearch_ray_driver_cache", f"idx-{tag}")
    eng = _cached_engine(index_dir)
    if eng is None:
        build_index(_wide_corpus(sf_dir), index_dir, WIDE_CFG)
        eng = QueryEngine(index_dir, use_actors=True)
        _cache_engine(index_dir, eng)
    return eng


def q_wide_id_boolean(sf_dir: str) -> pa.Table:
    a, b = BOOL_AND_TERMS
    t = wide_engine_for(sf_dir).search_boolean(ast.And(ast.Term(a), ast.Term(b)))
    return pa.table(
        {
            "doc_id_hi": t["doc_id_hi"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
        }
    )


def _ranked(table: pa.Table) -> pa.Table:
    return pa.table(
        {
            "rank": pa.array(range(1, len(table) + 1), type=pa.int64()),
            "doc_id": table["doc_id"].cast(pa.int64()),
        }
    )


def q_bm25_single(sf_dir: str) -> pa.Table:
    return _ranked(engine_for(sf_dir).search(ast.Term(BM25_TERM), k=10))


def q_bm25_page2(sf_dir: str) -> pa.Table:
    """cursor pagination: page 1's last row feeds search_after, whose
    page 2 must be rank-identical to the oracle's OFFSET window."""
    eng = engine_for(sf_dir)
    page1 = eng.search(ast.Term(BM25_TERM), k=10)
    cursor = (page1["score"][-1].as_py(), page1["doc_id"][-1].as_py())
    return _ranked(eng.search_after(ast.Term(BM25_TERM), cursor, k=10))


def q_bm25_and(sf_dir: str) -> pa.Table:
    a, b = BM25_AND_TERMS
    return _ranked(engine_for(sf_dir).search(ast.And(ast.Term(a), ast.Term(b)), k=10))


def q_bm25_or(sf_dir: str) -> pa.Table:
    a, b = BM25_OR_TERMS
    return _ranked(engine_for(sf_dir).search(ast.Or(ast.Term(a), ast.Term(b)), k=10))


#: mixed tree: (merge OR window) AND sort
BM25_TREE_TERMS = ("merge", "window", "sort")


def q_bm25_tree(sf_dir: str) -> pa.Table:
    a, b, c = BM25_TREE_TERMS
    tree = ast.And(ast.Or(ast.Term(a), ast.Term(b)), ast.Term(c))
    return _ranked(engine_for(sf_dir).search(tree, k=10))


#: phrase query terms — "table hash" is a frequent adjacent bigram in
#: the synthetic documents corpus (present at every sf)
PHRASE_TERMS = ("table", "hash")


#: metadata-filtered search (engine extension): the docmap carries
#: (repo, path, commit, lang) per doc, and `QueryEngine.search(...,
#: filter={"lang": [...]})` narrows the CANDIDATE set before top-k —
#: a post-filter of the unrestricted top-k would drop qualifying docs.
#: Scores are unchanged (global corpus stats), mirrored in SQL by a
#: lang predicate on the candidate CTE only.
FILTER_LANGS = ("es", "de")
BM25_FILTERED_TERMS = ("merge", "sort")


def q_bm25_filtered(sf_dir: str) -> pa.Table:
    a, b = BM25_FILTERED_TERMS
    return _ranked(
        engine_for(sf_dir).search(
            ast.Or(ast.Term(a), ast.Term(b)), k=10, filter={"lang": list(FILTER_LANGS)}
        )
    )


def q_boolean_filtered(sf_dir: str) -> pa.Table:
    a, b = BOOL_AND_TERMS
    t = engine_for(sf_dir).search_boolean(
        ast.And(ast.Term(a), ast.Term(b)), filter={"lang": list(FILTER_LANGS)}
    )
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


#: fielded search (state/engine.FieldedEngine): one index per field
#: over the same doc ids, scores combined as Σ w_f · bm25_f — here the
#: documents table's `text` and `source` columns, source weighted 2x.
FIELD_WEIGHTS = {"text": 1.0, "source": 2.0}
FIELD_QUERIES = {"text": ("merge", "sort"), "source": ("src3",)}


def field_engine_for(sf_dir: str, column: str) -> QueryEngine:
    """second cached index over a non-default document column."""
    base = _index_dir_for(sf_dir)
    fdir = f"{base}-field-{column}"
    eng = _cached_engine(fdir)
    if eng is None:
        if not os.path.exists(os.path.join(fdir, "manifest.json")):
            build_index(
                read_documents_corpus(sf_dir, content_column=column), fdir, DRIVER_CFG
            )
        eng = QueryEngine(fdir, use_actors=True)
        _cache_engine(fdir, eng)
    return eng


def q_fielded_search(sf_dir: str) -> pa.Table:
    from chearch_ray.state.engine import FieldedEngine

    fe = FieldedEngine(
        {"text": engine_for(sf_dir), "source": field_engine_for(sf_dir, "source")},
        weights=FIELD_WEIGHTS,
    )
    t = fe.search(
        {
            "text": ast.Or(ast.Term(FIELD_QUERIES["text"][0]), ast.Term(FIELD_QUERIES["text"][1])),
            "source": ast.Term(FIELD_QUERIES["source"][0]),
        },
        k=10,
    )
    return _ranked(t)


#: DocStore (state/docstore.py): id-keyed document fetch from a hash-
#: partitioned hive store — the search -> fetch serving loop.
DOCSTORE_IDS = (3, 42, 77, 123, 456)


def q_docstore_fetch(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.state.docstore import docstore_build, docstore_fetch

    store = _index_dir_for(sf_dir) + "-docstore"
    if not os.path.exists(store):
        ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        docstore_build(ds, store)
    return docstore_fetch(store, list(DOCSTORE_IDS))


#: MoreLikeThis (engine extension): the source doc's unique terms rank
#: by tf·idf against the index stats (ties: term asc); the top
#: MLT_TERMS become a BM25 Or query.  Ask for k+1 and drop the source
#: doc — exact vs SQL whether or not the source makes the top k+1.
MLT_SRC, MLT_TERMS, MLT_K = 42, 5, 10


def q_more_like_this(sf_dir: str) -> pa.Table:
    import pyarrow.parquet as _pq

    eng = engine_for(sf_dir)
    doc = _pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"],
        filters=[("doc_id", "=", MLT_SRC)],
    )
    t = eng.more_like_this(doc["text"][0].as_py(), n_terms=MLT_TERMS, k=MLT_K + 1)
    keep = [i for i, d in enumerate(t["doc_id"].to_pylist()) if d != MLT_SRC][:MLT_K]
    return _ranked(t.take(pa.array(keep, type=pa.int64())))


def q_phrase(sf_dir: str) -> pa.Table:
    return _ranked(engine_for(sf_dir).search_phrase(" ".join(PHRASE_TERMS), k=10))


#: grammar query string (functions/queryparse.py): parens override
#: the OR<AND precedence, a quoted phrase is an exact-positional
#: boolean leaf, NOT anchors to the conjunction — one row exercising
#: the recursive-descent parser AND the engine's phrase-in-boolean
#: set-algebra path end-to-end.  The SQL mirror composes the same
#: set ops over the shared tokenization CTEs.
PARSED_QUERY = '(merge OR sort) AND "table hash" AND NOT stream'


def q_parsed_query(sf_dir: str) -> pa.Table:
    t = engine_for(sf_dir).search_boolean(PARSED_QUERY)
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


#: proximity query parameters — common corpus terms so both rows are
#: non-empty at every sf
NEAR_TERMS = ("sort", "merge")
NEAR_SLOP = 3
NEAR_ORD_TERMS = ("hash", "join")
NEAR_ORD_SLOP = 4


def q_near(sf_dir: str) -> pa.Table:
    return _ranked(
        engine_for(sf_dir).search_near(*NEAR_TERMS, slop=NEAR_SLOP, k=10)
    )


def q_near_ordered(sf_dir: str) -> pa.Table:
    return _ranked(
        engine_for(sf_dir).search_near(
            *NEAR_ORD_TERMS, slop=NEAR_ORD_SLOP, ordered=True, k=10
        )
    )


#: N-term unordered proximity: all three terms inside one
#: (slop+1)-position window (occurrence choice with max − min <= slop)
NEAR_ALL_TERMS = ("merge", "sort", "key")
NEAR_ALL_SLOP = 6


def q_near_all(sf_dir: str) -> pa.Table:
    return _ranked(
        engine_for(sf_dir).search_near_all(list(NEAR_ALL_TERMS), slop=NEAR_ALL_SLOP, k=10)
    )


#: exact all-pairs threshold — the embeddings tables are random
#: vectors (max pairwise cosine ~0.51 at sf0.01, ~0.60 at sf0.1), so a
#: non-empty, exact-checkable answer needs a low threshold; at low
#: thresholds the EXACT brute-force join is the honest operator (LSH
#: recall is fundamentally < 1 there) and it is what the oracle pins.
EMB_NEARDUP_THRESHOLD = 0.45


def q_embedding_neardup(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.similarity import embedding_allpairs_exact

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    out = embedding_allpairs_exact(ds, threshold=EMB_NEARDUP_THRESHOLD).to_pandas()
    # pair ids only: both engines agree on >= threshold membership
    # (margins are ~1e-3, float noise ~1e-15) but not on the cosine
    # DOUBLE bit pattern (different summation orders)
    out = out[["doc_a", "doc_b"]].sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.table(
        {
            "doc_a": pa.array(out["doc_a"].astype("int64")),
            "doc_b": pa.array(out["doc_b"].astype("int64")),
        }
    )


#: exact Jaccard join threshold: the documents corpus plants near-dup
#: pairs at J >= 0.9 with the next-highest true pair at ~0.07 — 0.5
#: selects exactly the planted set with wide margins on both sides
JACCARD_JOIN_THRESHOLD = 0.5


def q_jaccard_pairs(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.dedup import jaccard_similarity_join

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = jaccard_similarity_join(ds, threshold=JACCARD_JOIN_THRESHOLD).to_pandas()
    if len(out.columns) == 0:
        return pa.table(
            {
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.table(
        {
            "doc_a": pa.array(out["doc_a"].astype("int64")),
            "doc_b": pa.array(out["doc_b"].astype("int64")),
            "jaccard": pa.array(out["jaccard"], type=pa.float64()),
        }
    )


def q_neardup_keep(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.dedup import neardup_keep

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = neardup_keep(ds, threshold=JACCARD_JOIN_THRESHOLD).to_pandas()
    if len(out.columns) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "keep_id": pa.array([], type=pa.int64()),
            }
        )
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"].astype("int64")),
            "keep_id": pa.array(out["keep_id"].astype("int64")),
        }
    )


def q_missing_term(sf_dir: str) -> pa.Table:
    t = engine_for(sf_dir).search_boolean(ast.Term("__never_present__"))
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


def q_dedup_exact(sf_dir: str) -> pa.Table:
    import ray.data
    from ray.data.aggregate import Min

    from chearch_ray.stages.dedup import add_content_sha

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    with_sha = ds.map_batches(add_content_sha, batch_format="pyarrow")
    kept = with_sha.groupby("content_sha").aggregate(Min("doc_id", alias_name="doc_id"))
    pdf = kept.to_pandas()[["doc_id"]]
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_dedup_incremental(sf_dir: str) -> pa.Table:
    """incremental-ingest dedup: the 'new shard' (doc_id % 3 != 0) is
    checked against the 'already-ingested' fingerprint store
    (doc_id % 3 == 0); one coarse sha-partitioned shuffle of
    fingerprints, full-sha membership per partition."""
    import ray.data
    from functools import partial

    from chearch_ray.stages.dedup import dedup_against_store

    docs = os.path.join(sf_dir, "documents.parquet")

    def _mod3(batch: pa.Table, want_zero: bool) -> pa.Table:
        keep = (batch["doc_id"].to_numpy() % 3 == 0) == want_zero
        return batch.filter(pa.array(keep))

    new = ray.data.read_parquet(docs, columns=["doc_id", "text"]).map_batches(
        partial(_mod3, want_zero=False), batch_format="pyarrow")
    seen = ray.data.read_parquet(docs, columns=["text", "doc_id"]).map_batches(
        partial(_mod3, want_zero=True), batch_format="pyarrow")
    out = dedup_against_store(new, seen).to_pandas()[["doc_id", "content_sha"]]
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True), preserve_index=False)


def q_content_sha(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.dedup import add_content_sha

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(add_content_sha, batch_format="pyarrow").select_columns(
        ["doc_id", "content_sha"]
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_lang_counts(sf_dir: str) -> pa.Table:
    import ray.data
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["lang"])
    out = ds.groupby("lang").aggregate(Count(alias_name="n"))
    pdf = out.to_pandas()
    pdf["n"] = pdf["n"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


#: hybrid retrieval: fuse this many candidates from each retriever
HYBRID_LIST_K = 30

#: Count-Min point-query key set (fixed, deterministic)
CM_QUERY_USERS = tuple(range(20))


def q_cm_counts(sf_dir: str) -> pa.Table:
    """Count-Min sketch over events.user_id (depth 4 x width 2048),
    point estimates for 20 fixed users — deterministic integer
    multiplicative hashes, so the DuckDB oracle reproduces every
    counter (and therefore every min-estimate) exactly."""
    import ray.data

    from chearch_ray.stages.sketch import cm_point_estimates, cm_sketch

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    sk = cm_sketch(ds, "user_id")
    keys = np.array(CM_QUERY_USERS, dtype=np.int64)
    est = cm_point_estimates(sk, keys)
    return pa.table({
        "user_id": pa.array(keys, type=pa.int64()),
        "est": pa.array(est, type=pa.int64()),
    })

#: deterministic multi-line derived corpus for the boilerplate-removal
#: row (the base documents are single-line): body re-wrapped at 8
#: words/line, a shared header on even doc_ids, a shared footer on
#: doc_id % 3 == 0.  Written to disk (media_features pattern) so the
#: SQL oracle reads the SAME table the Ray pipeline consumes.
LINEDOC_TABLE_PATH = "/tmp/chearch_ray_driver_cache/linedocs-8w-42.parquet"
LINEDOC_HEADER = "shared navigation header generated by pipeline"
LINEDOC_FOOTER = "shared footer all rights reserved"


def _linedoc_table(sf_dir: str) -> pa.Table:
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids = docs["doc_id"].to_pylist()
    out = []
    for i, t in zip(ids, docs["text"].to_pylist()):
        words = t.split()
        lines = [" ".join(words[j : j + 8]) for j in range(0, len(words), 8)]
        if i % 2 == 0:
            lines = [LINEDOC_HEADER] + lines
        if i % 3 == 0:
            lines = lines + [LINEDOC_FOOTER]
        out.append("\n".join(lines))
    t = pa.table({"doc_id": docs["doc_id"], "text": pa.array(out, type=pa.string())})
    os.makedirs(os.path.dirname(LINEDOC_TABLE_PATH), exist_ok=True)
    tmp = f"{LINEDOC_TABLE_PATH}.tmp-{os.getpid()}"
    pq.write_table(t, tmp)
    os.replace(tmp, LINEDOC_TABLE_PATH)
    return t


def q_line_dedup(sf_dir: str) -> pa.Table:
    """boilerplate line removal over the derived multi-line corpus:
    every line in >= 50 distinct docs (the injected header/footer)
    disappears; unique body lines survive in order."""
    import ray.data

    from chearch_ray.stages.dedup import boilerplate_line_dedup

    t = _linedoc_table(sf_dir)
    out = boilerplate_line_dedup(
        ray.data.from_arrow(t).repartition(4), min_docs=50
    )
    got = pa.concat_tables(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    return got.sort_by("doc_id")


def q_hybrid_rrf(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: BM25 top-30 (inverted index) fused with
    cosine-kNN top-30 (dense embeddings, vec_id == doc_id in the
    testdata) by Reciprocal Rank Fusion, output top-10 (rank, doc_id).
    Both candidate lists come from the distributed retrievers; the
    fusion is a bounded merge of <= 60 rows."""
    import ray.data

    from chearch_ray.stages.similarity import knn_brute_force, reciprocal_rank_fusion

    eng = engine_for(sf_dir)
    bm = eng.search(BM25_TERM, k=HYBRID_LIST_K)["doc_id"].to_numpy().astype(np.int64)
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    first = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qvec = np.asarray(
        first.filter(pa.compute.equal(first["vec_id"], 0))["embedding"][0].as_py(),
        dtype=np.float64,
    )[None, :]
    ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    knn = knn_brute_force(ds, qvec, k=HYBRID_LIST_K)["vec_id"].to_numpy().astype(np.int64)
    return reciprocal_rank_fusion([bm, knn], k=10)


def q_knn_cosine(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.similarity import knn_brute_force

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    first = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qvec = np.asarray(
        first.filter(pa.compute.equal(first["vec_id"], 0))["embedding"][0].as_py(),
        dtype=np.float64,
    )[None, :]
    ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    out = knn_brute_force(ds, qvec, k=10)
    return pa.table(
        {
            "rank": pa.array(range(1, len(out) + 1), type=pa.int64()),
            "vec_id": out["vec_id"].cast(pa.int64()),
        }
    )


#: IVF driver row: three query vectors, nprobe = ALL centroids — full
#: probing makes IVF exactly brute-force kNN, so the partition-routing
#: machinery itself is value-checked against the SQL oracle
IVF_QUERY_IDS = (0, 1, 2)
IVF_CENTROIDS = 8


def q_ivf_knn(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.similarity import ivf_build, ivf_search

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    first = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qmat = np.asarray(
        [
            first.filter(pa.compute.equal(first["vec_id"], q))["embedding"][0].as_py()
            for q in IVF_QUERY_IDS
        ],
        dtype=np.float64,
    )
    ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    centroids, assigned = ivf_build(ds, n_centroids=IVF_CENTROIDS, sample_size=2048)
    out = ivf_search(
        assigned.materialize(), centroids, qmat, k=10, nprobe=IVF_CENTROIDS
    )
    qid = out["query_id"].to_numpy()
    rank = np.concatenate([np.arange(1, (qid == q).sum() + 1) for q in sorted(set(qid.tolist()))])
    order = np.argsort(qid, kind="stable")
    return pa.table(
        {
            "query_id": pa.array(qid[order].astype(np.int64), type=pa.int64()),
            "rank": pa.array(rank, type=pa.int64()),
            "vec_id": out["vec_id"].take(pa.array(order, type=pa.int64())).cast(pa.int64()),
        }
    )


def q_windowed_agg(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.events import windowed_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )
    pdf = windowed_aggregate(ds, window_sec=300).to_pandas()
    pdf["n_events"] = pdf["n_events"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_hopping_window(sf_dir: str) -> pa.Table:
    """hopping windows (300 s window, 100 s hop): each event counts in
    three windows; replication is map-side, the shuffle ships
    combiner rows."""
    import ray.data

    from chearch_ray.stages.events import hopping_window_aggregate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )
    pdf = hopping_window_aggregate(ds, window_sec=300, hop_sec=100).to_pandas()
    pdf["n_events"] = pdf["n_events"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


#: funnel steps for the driver row — deep alternation so the row has
#: real attrition at sf scale (every user completes any shallow
#: funnel; this one drops ~20% by step 10)
FUNNEL_STEPS = ("purchase", "error") * 5


def _funnel_sql(steps) -> str:
    ctes = [f"s0 AS (SELECT user_id, min(epoch_us(ts))::BIGINT AS t FROM events "
            f"WHERE event_type = '{steps[0]}' GROUP BY user_id)"]
    for i in range(1, len(steps)):
        ctes.append(
            f"s{i} AS (SELECT e.user_id, min(epoch_us(e.ts))::BIGINT AS t "
            f"FROM events e JOIN s{i - 1} USING (user_id) "
            f"WHERE e.event_type = '{steps[i]}' AND epoch_us(e.ts) > s{i - 1}.t "
            f"GROUP BY e.user_id)")
    selects = [
        f"SELECT {i}::BIGINT AS step_index, '{s}' AS step, "
        f"count(*)::BIGINT AS n_users FROM s{i}"
        for i, s in enumerate(steps)
    ]
    return "WITH " + ", ".join(ctes) + "\n" + "\nUNION ALL\n".join(selects)


def q_funnel(sf_dir: str) -> pa.Table:
    """ordered funnel: users completing view -> click (strictly after)
    -> purchase; one user-hash shuffle, vectorized per-step scatters."""
    import ray.data

    from chearch_ray.stages.events import funnel

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "user_id", "event_type"],
    )
    out = funnel(ds, list(FUNNEL_STEPS)).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values("step_index").reset_index(drop=True), preserve_index=False)


def q_retention(sf_dir: str) -> pa.Table:
    """daily cohort retention: (cohort day, k days later, active
    users); per-user state stays inside one user-hash partition."""
    import ray.data

    from chearch_ray.stages.events import retention

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "user_id"])
    out = retention(ds, period_sec=86_400).to_pandas()
    out["n_active"] = out["n_active"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values(["cohort", "k"]).reset_index(drop=True), preserve_index=False)


def q_sessionize(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.events import sessionize

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    return pa.Table.from_pandas(sessionize(ds, gap_sec=1800).to_pandas(), preserve_index=False)


def q_running_windows(sf_dir: str) -> pa.Table:
    """ordered per-key window functions (row_number, running sum,
    lag gap) — one coarse shuffle + segmented scans, one row out per
    row in."""
    import ray.data

    from chearch_ray.stages.events import running_windows

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    return pa.Table.from_pandas(running_windows(ds).to_pandas(), preserve_index=False)


def q_bpeish_tokens(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.events import bpeish_token_count

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(bpeish_token_count, batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_asof_join(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.events import asof_join

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    return pa.Table.from_pandas(asof_join(ds).to_pandas(), preserve_index=False)


#: chunking parameters for the driver row (stride = 24 over ~50-130
#: token docs -> several chunks per doc)
CHUNK_TOKENS, CHUNK_OVERLAP = 32, 8
#: deterministic-sample keep rate
SAMPLE_RATE = 0.25


#: sequence-packing bin budget (tokens per training context window)
PACK_MAX_TOKENS = 512

#: per-language quota for the domain-mixing sampler
SAMPLE_QUOTA = 40


#: snippet window (tokens each side of the first hit)
SNIPPET_WINDOW = 2


#: KMV sketch size for the distinct-users row (64 < the 150 distinct
#: users at sf0.01, so the ESTIMATOR path is what the oracle checks)
KMV_USERS_K = 64


def q_pq_knn(sf_dir: str) -> pa.Table:
    """PQ (product quantization) ANN: train sub-codebooks, encode the
    embeddings table to 8-byte codes, ADC-shortlist + exact re-rank
    for the IVF_QUERY_IDS queries.  refine_k = corpus size makes the
    re-rank exactly brute-force cosine (the ivf_knn full-probe trick,
    VERDICT r4 #2), so the whole train -> encode -> ADC -> rerank
    machinery is value-checked against the SQL cosine-rank oracle;
    lossy-shortlist recall is pinned by test_pq_recall_and_determinism."""
    import ray.data

    from chearch_ray.stages.similarity import pq_encode, pq_search_refined, pq_train

    path = os.path.join(sf_dir, "embeddings.parquet")
    first = pq.read_table(path, columns=["vec_id", "embedding"])
    qmat = np.asarray(
        [
            first.filter(pa.compute.equal(first["vec_id"], q))["embedding"][0].as_py()
            for q in IVF_QUERY_IDS
        ],
        dtype=np.float64,
    )
    n = first.num_rows
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    books = pq_train(ds, m=8, n_codes=64)
    codes = pq_encode(ds, books).materialize()
    out = pq_search_refined(codes, books, ds, qmat, k=10, refine_k=n)
    qid = out["query_id"].to_numpy()
    rank = np.concatenate(
        [np.arange(1, (qid == q).sum() + 1) for q in sorted(set(qid.tolist()))]
    )
    order = np.argsort(qid, kind="stable")
    return pa.table(
        {
            "query_id": pa.array(qid[order].astype(np.int64), type=pa.int64()),
            "rank": pa.array(rank, type=pa.int64()),
            "vec_id": out["vec_id"].take(pa.array(order, type=pa.int64())).cast(pa.int64()),
        }
    )


def q_kmv_distinct_users(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.sketch import kmv_distinct

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id"])
    est = kmv_distinct(ds, "user_id", k=KMV_USERS_K)
    return pa.table({"n_distinct_est": pa.array([est], type=pa.int64())})


def q_normalize_text(sf_dir: str) -> pa.Table:
    """whitespace + case canonicalization (the pass before dedup)."""
    import ray.data

    from chearch_ray.stages.textstats import normalize_text

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(normalize_text, batch_format="pyarrow")
    return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)


#: significant-terms foreground query — the match set of this term is
#: the foreground; the oracle recomputes fg/bg document frequencies
#: and the integer cross-multiplied proportion-difference score in SQL
SIGTERM_FG_TERM = "spark"
SIGTERM_K = 20


def q_significant_terms(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import significant_terms

    eng = engine_for(sf_dir)
    # uncapped: the foreground must be EVERY matching doc, not the
    # partition_limit result window (which silently truncates above
    # 2048/segment and would diverge from the SQL oracle — ADVICE r3)
    fg = eng.search_boolean(
        ast.Term(SIGTERM_FG_TERM), limit=eng.manifest.num_docs
    )["doc_id"].to_numpy()
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return significant_terms(
        docs, fg, _term_stats(sf_dir), eng.manifest.num_docs, k=SIGTERM_K
    )


def q_frequent_terms(sf_dir: str) -> pa.Table:
    """exact heavy hitters (terms with >= 1/200 of all occurrences):
    bounded-state candidates + broadcast exact verify, no term
    groupby."""
    import ray.data

    from chearch_ray.stages.textstats import frequent_terms

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    return frequent_terms(ds, denom=200)


def q_kmv_distinct_by_type(sf_dir: str) -> pa.Table:
    """grouped KMV sketch: distinct-user estimate per event_type (k=64
    < 150 true distinct, so the integer estimate formula is exercised,
    not the exact small-set path)."""
    import ray.data

    from chearch_ray.stages.sketch import kmv_distinct_by

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    return kmv_distinct_by(ds, "user_id", by="event_type", k=KMV_USERS_K)


#: misspelling fed to the did-you-mean row ("merge" at distance 1)
SUGGEST_QUERY = "merrge"


def q_suggest(sf_dir: str) -> pa.Table:
    return engine_for(sf_dir).suggest(SUGGEST_QUERY, max_distance=2, k=5)


def q_suggest_indexed(sf_dir: str) -> pa.Table:
    """did-you-mean served from the SymSpell deletion-neighborhood
    index (variant-key lookups over probed hash-prefix partitions, no
    vocabulary scan) — same oracle as the scan-path `suggest` row, so
    the driver checks the two paths agree exactly."""
    import tempfile

    from chearch_ray.state.suggest import build_suggest_index, suggest_from_index

    eng = engine_for(sf_dir)
    sdir = tempfile.mkdtemp(prefix="suggest_idx_")
    build_suggest_index(eng._stats_path, sdir, max_distance=2)
    return suggest_from_index(sdir, eng._stats_path, SUGGEST_QUERY, 2, 5)


#: quantiles requested from the events value distribution
QUANTILE_QS = (0.25, 0.5, 0.9, 0.99)


def q_pricing_summary(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import pricing_summary

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount", "l_tax", "l_shipdate"],
    )
    return pa.Table.from_pandas(pricing_summary(ds).to_pandas(), preserve_index=False)


#: interval-join parameters: all purchases within an hour AFTER a view
#: by the same user (attribution window)
INTERVAL_JOIN_TYPES = ("view", "purchase")
INTERVAL_JOIN_WINDOW_SEC = 3600


def q_interval_join(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.events import interval_join

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    a, b = INTERVAL_JOIN_TYPES
    out = interval_join(ds, a, b, INTERVAL_JOIN_WINDOW_SEC).to_pandas()
    out = out.sort_values(["a_id", "b_id"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_distinct_users_by_type(sf_dir: str) -> pa.Table:
    """EXACT count(DISTINCT user_id) per event_type — the exact
    companion of the KMV sketch rows (kmv_distinct_by_type answers
    approximately); blocks pre-reduce to unique pairs, the merge is
    gated (driver below the limit, one pair-keyed exchange above)."""
    import ray.data

    from chearch_ray.stages.sketch import exact_distinct_by

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    out = exact_distinct_by(ds, "user_id", "event_type")
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_tfidf_keywords(sf_dir: str) -> pa.Table:
    """top-3 TF-IDF keywords per document: (df, N) come from the
    PREBUILT index term stats (computed once at build — reference
    TODO docs/TODO.txt:5), broadcast once per actor; score =
    tf * ln(N/df) with the exact SQL operation order so floats are
    bit-identical.  df==N terms (idf 0) carry no signal and are
    excluded on both sides."""
    import ray.data

    from chearch_ray.stages.textstats import tfidf_keywords

    eng = engine_for(sf_dir)
    stats = _term_stats(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = tfidf_keywords(
        ds, pa.table({"term": stats["term"], "df": stats["df"].cast(pa.int64())}),
        int(eng.manifest.num_docs), k=3,
    ).to_pandas()
    out = out.sort_values(["doc_id", "rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


#: directed containment threshold — one-sided near-dup (excerpt /
#: boilerplate-block) detection the symmetric Jaccard row misses
CONTAINMENT_THRESHOLD = 0.6


def q_containment_pairs(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.dedup import containment_join

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = containment_join(docs, threshold=CONTAINMENT_THRESHOLD).to_pandas()
    out["doc_a"] = out["doc_a"].astype("int64")
    out["doc_b"] = out["doc_b"].astype("int64")
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_rollup_docs(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(lang, source) over documents: counts + char
    sums at every prefix level, 'ALL' sentinels in rolled-up keys
    (the synthetic corpus never contains 'ALL' as a lang/source)."""
    import ray.data

    from chearch_ray.pipelines.analytics import rollup_counts

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "source", "n_chars"],
    )
    out = rollup_counts(ds, ["lang", "source"], sum_columns=["n_chars"])
    out = out.rename_columns(["lang", "source", "n_docs", "chars_total"])
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_cube_docs(sf_dir: str) -> pa.Table:
    """GROUP BY CUBE(lang, source): all four grouping sets in the same
    one-pass partial emission as the rollup row (adds the (source)
    marginal the rollup lacks)."""
    import ray.data

    from chearch_ray.pipelines.analytics import rollup_counts

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "source", "n_chars"],
    )
    out = rollup_counts(ds, ["lang", "source"], sum_columns=["n_chars"],
                        mode="cube")
    out = out.rename_columns(["lang", "source", "n_docs", "chars_total"])
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_top_orders_per_cust(sf_dir: str) -> pa.Table:
    """window-rank top-N per group (row_number <= 3): each customer's
    3 biggest orders by (totalprice cents desc, orderkey asc) — the
    generic top_per_group two-level prune applied to a relational
    table instead of the quality corpus."""
    import ray.data

    from chearch_ray.pipelines.analytics import _cents
    from chearch_ray.stages.sample import top_per_group

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "doc_id": b["o_orderkey"].cast(pa.int64()),
                "total_cents": pa.array(
                    _cents(b["o_totalprice"].to_numpy().astype(np.float64)),
                    type=pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    out = top_per_group(orders, "o_custkey", "total_cents", n=3).to_pandas()
    out = out.rename(columns={"doc_id": "o_orderkey"})
    out = out.sort_values(["o_custkey", "rn"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_local_supplier_volume(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import local_supplier_volume

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=_ts_between("o_orderdate", "1996-01-01", "1997-01-01"),
    )
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    out = local_supplier_volume(lineitem, orders, customer, supplier, nation, region)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_returned_item_revenue(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import returned_item_revenue

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
        filter=pc.field("l_returnflag") == "R",  # pruned at the read
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=_ts_between("o_orderdate", "1996-10-01", "1997-01-01"),
    )
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    )
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    out = returned_item_revenue(lineitem, orders, customer, nation)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_promo_revenue(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import promo_revenue

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=_ts_between("l_shipdate", "1996-09-01", "1996-10-01"),
    )
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    out = promo_revenue(lineitem, part)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_revenue_by_nation(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import revenue_by_nation

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    out = revenue_by_nation(orders, customer, nation)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_forecast_revenue(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import forecast_revenue

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        filter=_ts_between("l_shipdate", "2001-01-01", "2002-01-01"),
    )
    return pa.Table.from_pandas(forecast_revenue(ds).to_pandas(), preserve_index=False)


def q_shipping_priority(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.pipelines.analytics import shipping_priority

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    return shipping_priority(lineitem, orders, customer)


def q_order_priority(sf_dir: str) -> pa.Table:
    """EXISTS semi-join: orders with >= 1 returned lineitem, per
    priority."""
    import ray.data

    from chearch_ray.pipelines.analytics import returned_order_priority

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag"],
    )
    out = returned_order_priority(orders, lineitem)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_inactive_customers(sf_dir: str) -> pa.Table:
    """NOT EXISTS anti-join: customers with no orders, per segment."""
    import ray.data

    from chearch_ray.pipelines.analytics import inactive_customer_segments

    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
    )
    out = inactive_customer_segments(customer, orders, since="1998-01-01")
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_pii_scrub(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import PiiScrub

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(PiiScrub(), batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


#: raw regex scan over the corpus (stages/codesearch.py): the
#: pre-index query against a source-code table.  Both sides are RE2
#: (Arrow kernels and DuckDB's regexp functions), so the mirrors are
#: bit-exact.
GREP_PATTERN = "(merge|sort) (table|index)"
REGEX_COUNT_PATTERN = "(scan|hash)[a-z ]*join"
REGEX_EXTRACT_PATTERN = "(?:scan|hash)[a-z ]*join"


def q_grep_lines(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.codesearch import grep

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = grep(ds, GREP_PATTERN)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_regex_count(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.codesearch import regex_count

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = regex_count(ds, REGEX_COUNT_PATTERN, extract=REGEX_EXTRACT_PATTERN)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_top_bigrams(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import top_bigrams

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return top_bigrams(ds, k=20)


def q_pmi_bigrams(sf_dir: str) -> pa.Table:
    """top-20 collocations by PMI (min bigram count 5): bigram-vocab
    groupby + broadcast candidate-unigram exact counts; the reported
    pmi's libm ln is bit-identical to DuckDB's."""
    import ray.data

    from chearch_ray.stages.textstats import pmi_bigrams

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return pmi_bigrams(ds, k=20, min_count=5)


def q_group_quantiles(sf_dir: str) -> pa.Table:
    """per-event-type exact quantiles: every (group, q) selection job
    narrows simultaneously in shared histogram passes."""
    import ray.data

    from chearch_ray.stages.events import _round_half_away
    from chearch_ray.stages.sketch import exact_group_quantiles

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _round_half_away(batch["value"].to_numpy().astype(np.float64) * 100)
        return pa.table({"event_type": batch["event_type"],
                         "cents": pa.array(cents, type=pa.int64())})

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    ).map_batches(to_cents, batch_format="pyarrow")
    return exact_group_quantiles(ds, "cents", QUANTILE_QS, by="event_type")


def q_value_quantiles(sf_dir: str) -> pa.Table:
    """exact discrete quantiles of events.value (integer cents, the
    same round-half-away mirror as windowed_agg) via distributed
    histogram narrowing — no global sort."""
    import ray.data

    from chearch_ray.stages.events import _round_half_away
    from chearch_ray.stages.sketch import exact_quantiles

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _round_half_away(batch["value"].to_numpy().astype(np.float64) * 100)
        return pa.table({"cents": pa.array(cents, type=pa.int64())})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    return exact_quantiles(
        ds.map_batches(to_cents, batch_format="pyarrow"), "cents", list(QUANTILE_QS)
    )


def q_facets(sf_dir: str) -> pa.Table:
    """faceted search: boolean hits for the flagship term grouped by
    the docmap's lang metadata (counts over the result window; the
    sf0.01 result set is far under the per-segment cap, so the SQL
    mirror is exact)."""
    return engine_for(sf_dir).facet_counts(BM25_TERM, column="lang")

#: replacement text for the upsert driver row (deterministic, so the
#: SQL mirror is a CASE expression)
UPSERT_TEXT = "merge sort pipeline upserted"


def _upserted_engine_for(sf_dir: str) -> QueryEngine:
    """index with every doc_id % 10 == 0 document REPLACED via
    upsert_docs (content -> UPSERT_TEXT), built once and disk-cached
    like the deleted-docs flavor."""
    import shutil

    engine_for(sf_dir)  # ensure the base index exists on disk
    base = _index_dir_for(sf_dir)
    udir = base + "-upsert"
    eng = _cached_engine(udir)
    if eng is None:
        if not os.path.exists(os.path.join(udir, "manifest.json")):
            import ray.data

            shutil.rmtree(udir, ignore_errors=True)
            shutil.copytree(base, udir)
            docs = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "lang", "source", "text"],
            )
            ids = docs["doc_id"].to_numpy()
            repl = docs.filter(pa.array(ids % 10 == 0))
            repl = repl.set_column(
                repl.column_names.index("text"), "text",
                pa.array([UPSERT_TEXT] * len(repl), type=pa.string()))
            from chearch_ray.pipelines.lifecycle import upsert_docs
            from chearch_ray.sources.corpus import documents_batch_to_corpus

            upsert_docs(udir, documents_batch_to_corpus(repl), DRIVER_CFG)
        eng = QueryEngine(udir, use_actors=True)
        _cache_engine(udir, eng)
    return eng


def q_upsert_bm25(sf_dir: str) -> pa.Table:
    """BM25 top-10 on an index where every doc_id %% 10 == 0 document
    was REPLACED through the upsert path (delta build + per-input-drop
    merge); the oracle recomputes BM25 over the CASE-updated corpus,
    so stats (df/avgdl), scores and ranks all reflect the update."""
    return _ranked(_upserted_engine_for(sf_dir).search(ast.Term(BM25_TERM), k=10))


def q_lm_score(sf_dir: str) -> pa.Table:
    """perplexity-proxy LM filter: corpus-trained top-4096 unigram
    model, integer micro-nat per-token log-probs summed per doc."""
    import ray.data

    from chearch_ray.stages.textstats import lm_score

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = lm_score(ds).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True), preserve_index=False)


def q_facet_hist(sf_dir: str) -> pa.Table:
    """numeric histogram aggregation: doc-length buckets (32 tokens)
    over every doc matching the flagship term; segments ship histogram
    partials only."""
    out = engine_for(sf_dir).facet_histogram(BM25_TERM, bucket_width=32)
    return pa.table({"bucket_lo": out["bucket_lo"],
                     "n": out["n"].cast(pa.int64())})


#: per-language quota in the composed training pipeline
TP_QUOTA = 60


def q_training_pipeline(sf_dir: str) -> pa.Table:
    """flagship composition: repetition filter -> exact dedup -> per
    -language quota sample -> sequence packing (pipelines/training.py),
    mirrored stage-for-stage by one SQL chain."""
    import ray.data

    from chearch_ray.pipelines.training import prepare_training_data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang", "text"]
    )
    out = prepare_training_data(
        ds, group_column="lang", quota=TP_QUOTA, max_tokens=PACK_MAX_TOKENS
    ).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q_snippets(sf_dir: str) -> pa.Table:
    """BM25 top-10 for the flagship term -> pruned corpus read of just
    those docs -> vectorized snippet extraction (first-hit ordinal +
    5-token context)."""
    import ray
    import ray.data

    from chearch_ray.stages.snippets import extract_snippets

    eng = engine_for(sf_dir)
    ids = np.sort(eng.search(ast.Term(BM25_TERM), k=10)["doc_id"].to_numpy().astype(np.int64))
    ids_ref = ray.put(ids)

    def _filter_ids(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref) if not isinstance(ids_ref, np.ndarray) else ids_ref
        d = batch["doc_id"].to_numpy().astype(np.int64)
        pos = np.searchsorted(want, d)
        pos_c = np.minimum(pos, len(want) - 1)
        return batch.filter(pa.array(want[pos_c] == d))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = extract_snippets(
        ds.map_batches(_filter_ids, batch_format="pyarrow"),
        term=BM25_TERM,
        window=SNIPPET_WINDOW,
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_search_snippets(sf_dir: str) -> pa.Table:
    """The serving composition behind the 0xFE wire frame: BM25 top-10
    OR over BOOL_OR_TERMS + docstore fetch + earliest-any-term
    ±SNIPPET_WINDOW-token snippet (engine.search_with_snippets).
    Exercises the docstore sidecar end-to-end (build is resumable and
    cached with the driver index)."""
    from chearch_ray.state.docstore import build_docstore, has_docstore

    eng = engine_for(sf_dir)
    if not has_docstore(eng.index_dir):
        build_docstore(read_documents_corpus(sf_dir), eng.index_dir)
    t = eng.search_with_snippets(
        f"{BM25_OR_TERMS[0]} {BM25_OR_TERMS[1]}", k=10,
        window=SNIPPET_WINDOW, default_op="or")
    # rank (not raw float score) — the BM25 oracle family's contract:
    # engine order is already (score desc, doc_id asc)
    return pa.table({
        "rank": pa.array(np.arange(1, len(t) + 1), type=pa.int64()),
        "doc_id": t["doc_id"].cast(pa.int64()),
        "pos": t["pos"],
        "snippet": t["snippet"],
    })


def q_repetition_filter(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import RepetitionStats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(RepetitionStats(), batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_quota_sample(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.sample import quota_sample_per_group

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"])
    out = quota_sample_per_group(ds, group_column="lang", quota=SAMPLE_QUOTA).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q_pack_sequences(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.pack import pack_sequences

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = pack_sequences(ds, max_tokens=PACK_MAX_TOKENS).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q_pack_sequences_hash(sf_dir: str) -> pa.Table:
    """order="hash": pack in Knuth-multiplicative-hash order (the
    deterministic pretraining shuffle) — SQL mirror is the same
    running-sum window over the HUGEINT hash key."""
    import ray.data

    from chearch_ray.stages.pack import pack_sequences

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = pack_sequences(ds, max_tokens=PACK_MAX_TOKENS, order="hash").to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q_ivfpq_refine(sf_dir: str) -> pa.Table:
    """IVF-PQ (residual/IVFADC coding) shortlist + exact re-rank.
    Full probing + a full-corpus shortlist make the refine stage
    exactly brute-force kNN, so the whole residual-encode -> routed
    ADC -> exact-rerank machinery is value-checked against SQL."""
    import ray.data

    from chearch_ray.stages.similarity import ivfpq_build, ivfpq_search_refined

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    first = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qmat = np.asarray(
        [
            first.filter(pa.compute.equal(first["vec_id"], q))["embedding"][0].as_py()
            for q in IVF_QUERY_IDS
        ],
        dtype=np.float64,
    )
    n = first.num_rows
    ds = ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
    cents, books, codes = ivfpq_build(ds, n_centroids=IVF_CENTROIDS, m=8,
                                      n_codes=64, sample_size=2048, residual=True)
    out = ivfpq_search_refined(
        codes.materialize(), cents, books, ds, qmat, k=10,
        nprobe=IVF_CENTROIDS, refine_k=n, residual=True,
    )
    qid = out["query_id"].to_numpy()
    rank = np.concatenate([np.arange(1, (qid == q).sum() + 1) for q in sorted(set(qid.tolist()))])
    order = np.argsort(qid, kind="stable")
    return pa.table(
        {
            "query_id": pa.array(qid[order].astype(np.int64), type=pa.int64()),
            "rank": pa.array(rank, type=pa.int64()),
            "vec_id": out["vec_id"].take(pa.array(order, type=pa.int64())).cast(pa.int64()),
        }
    )


#: deterministic split ratios; bound literals are computed in Python
#: so the SQL mirror compares against the SAME integers
SPLIT_RATIOS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_hash_split(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.sample import hash_split

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = hash_split(ds, SPLIT_RATIOS).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


#: decontamination: benchmark = docs with doc_id < DECON_BENCH_MAX,
#: word 5-grams, flag at >= 1 distinct shared shingle
DECON_BENCH_MAX = 10
DECON_W = 5


def q_decontaminate(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.decontaminate import decontaminate, shingle_hash_set

    doc_path = os.path.join(sf_dir, "documents.parquet")
    bench = pq.read_table(
        doc_path, columns=["doc_id", "text"],
        filters=[("doc_id", "<", DECON_BENCH_MAX)],
    )
    hashes = shingle_hash_set(bench, w=DECON_W)
    ds = ray.data.read_parquet(doc_path, columns=["doc_id", "text"])
    out = decontaminate(ds, hashes, w=DECON_W, min_overlap=1).to_pandas()
    return pa.Table.from_pandas(out, preserve_index=False)


def q_chunk_documents(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import chunk_documents
    from functools import partial

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(
        partial(chunk_documents, chunk_tokens=CHUNK_TOKENS, overlap=CHUNK_OVERLAP),
        batch_format="pyarrow",
        batch_size=1024,
    ).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_deterministic_sample(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import deterministic_sample
    from functools import partial

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(
        partial(deterministic_sample, rate=SAMPLE_RATE), batch_format="pyarrow"
    ).to_pandas()
    return pa.table({"doc_id": pa.array(out["doc_id"].astype("int64"))})


# --------------------------- rows-only (not SQL-expressible) queries
#: document deletes (pipelines/lifecycle.py): tombstone a COPY of the
#: cached index (the shared engine keeps its snapshot), then search —
#: deleted docs must vanish from results while surviving docs keep
#: their exact pre-delete scores (live-docs contract; BM25 stats stay
#: the manifest's until compaction, which the SQL mirror reproduces by
#: computing stats over the FULL corpus and excluding deleted ids from
#: candidates only).
DELETE_MOD, DELETE_REMAINDER = 7, 3


def _deleted_engine_for(sf_dir: str) -> QueryEngine:
    import shutil

    import pyarrow.parquet as _pq

    from chearch_ray.pipelines.lifecycle import delete_docs

    engine_for(sf_dir)  # ensure the base index is built
    base = _index_dir_for(sf_dir)
    ddir = base + "-del"
    eng = _cached_engine(ddir)
    if eng is None:
        if not os.path.exists(os.path.join(ddir, "manifest.json")):
            shutil.rmtree(ddir, ignore_errors=True)
            shutil.copytree(base, ddir)
            ids = _pq.read_table(
                os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
            )["doc_id"].to_numpy()
            delete_docs(ddir, ids[ids % DELETE_MOD == DELETE_REMAINDER].astype("uint64"))
        eng = QueryEngine(ddir, use_actors=True)
        _cache_engine(ddir, eng)
    return eng


def q_boolean_deleted(sf_dir: str) -> pa.Table:
    a, b = BOOL_AND_TERMS
    t = _deleted_engine_for(sf_dir).search_boolean(ast.And(ast.Term(a), ast.Term(b)))
    return pa.table({"doc_id": t["doc_id"].cast(pa.int64())})


def q_bm25_deleted(sf_dir: str) -> pa.Table:
    a, b = BM25_FILTERED_TERMS
    return _ranked(_deleted_engine_for(sf_dir).search(ast.Or(ast.Term(a), ast.Term(b)), k=10))


#: exact substring dedup: drop docs whose token w-grams first appear
#: in a lower-doc_id document (stages/dedup.substring_dedup)
SUBSTR_W = 8


def q_substring_dedup(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.dedup import substring_dedup

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = substring_dedup(ds, w=SUBSTR_W)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_minhash_pairs(sf_dir: str) -> pa.Table:
    """MinHash+LSH candidate pairs, EXACT-oracled (the SQL mirror
    reproduces the 128 wrapping-uint64 permutations, band bucket folds
    and est_jaccard bit-for-bit).  Pair ids cast to int64 — the corpus
    ids are small, and the oracle's BIGINT columns must match."""
    import ray.data

    from chearch_ray.stages.dedup import minhash_dedup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = minhash_dedup_pairs(ds, threshold=0.5)
    pdf = out.to_pandas()
    pdf["doc_a"] = pdf["doc_a"].astype("int64")
    pdf["doc_b"] = pdf["doc_b"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_simhash_pairs(sf_dir: str) -> pa.Table:
    """SimHash near-dup pairs, EXACT-oracled (per-bit majority +
    band buckets + bit_count hamming mirrored in SQL).  Pair ids cast
    to int64 to match the oracle's BIGINT columns."""
    import ray.data

    from chearch_ray.stages.dedup import simhash_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    pdf = simhash_pairs(ds, max_hamming=3).to_pandas()
    pdf["doc_a"] = pdf["doc_a"].astype("int64")
    pdf["doc_b"] = pdf["doc_b"].astype("int64")
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_langid(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import LangId

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(LangId(), batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_quality(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.textstats import QualityScore

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(QualityScore(), batch_format="pyarrow", batch_size=1024)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_quality_gate(sf_dir: str) -> pa.Table:
    """per-language quality gate: keep docs at or above their
    language's EXACT median quality (integer micro-units; histogram
    narrowing, no global sort)."""
    import ray.data

    from chearch_ray.pipelines.training import quality_gate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "text"],
    )
    out = quality_gate(ds, by="lang", q=0.5).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True), preserve_index=False)


def q_top_quality_per_lang(sf_dir: str) -> pa.Table:
    """per-group MERIT cap: each language's top-5 docs by quality
    (integer micro-units), map-side pruned, one coarse shuffle."""
    import ray.data
    from functools import partial

    from chearch_ray.pipelines.training import _gate_score_rows
    from chearch_ray.stages.sample import top_per_group

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "text"],
    ).map_batches(partial(_gate_score_rows, by="lang"), batch_format="pyarrow")
    out = top_per_group(ds, "lang", "q_int", n=5).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values(["lang", "rn"]).reset_index(drop=True), preserve_index=False)


def q_weighted_sample(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.sample import weighted_sample
    from chearch_ray.stages.textstats import QualityScore

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    scored = ds.map_batches(QualityScore(), batch_format="pyarrow", batch_size=1024)
    out = weighted_sample(scored).select_columns(["doc_id", "quality", "keep"])
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_fingerprint(sf_dir: str) -> pa.Table:
    """winnowing-style doc fingerprint (min rolling hash over FNV
    token-trigram windows).  EXACT-oracled: the DuckDB mirror folds
    the same FNV-1a per token (recursive CTE over bytes, HUGEINT
    mod-2^64 arithmetic) and the same window/min/xor rules.  The
    uint64 fingerprint ships as its int64 BIT PATTERN on both sides so
    the driver's integer canonicalization hashes identically."""
    import ray.data

    from chearch_ray.stages.textstats import Fingerprint

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(Fingerprint(), batch_format="pyarrow", batch_size=1024)
    pdf = out.to_pandas()
    pdf["fingerprint"] = pdf["fingerprint"].to_numpy().view(np.int64)
    return pa.Table.from_pandas(pdf, preserve_index=False)


#: deterministic on-disk copies of the synthesized media tables; the
#: media_* oracle SQLs read these files, making the rows EXACT-checked
#: queries (payload_sha / payload_bytes via DuckDB sha256).  The
#: content depends only on the (n, kind, seed) constants — never on
#: sf_dir — so fixed paths cannot go stale across data scales.
MEDIA_TABLE_PATH = "/tmp/chearch_ray_driver_cache/media-64-image-42.parquet"
VIDEO_TABLE_PATH = "/tmp/chearch_ray_driver_cache/media-48-video-7.parquet"


def _media_table_on_disk(n: int, kind: str, seed: int, path: str) -> pa.Table:
    """Synthesize the media fixture and mirror it to `path` for the
    DuckDB oracle.  Written unconditionally (atomic replace): an
    exists-check would serve a stale cached table if the synthesizer
    ever changes."""
    from chearch_ray.stages.multimodal import synthesize_media_table

    media = synthesize_media_table(n, kind=kind, seed=seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(media, tmp)
    os.replace(tmp, path)
    return media


def q_media_features(sf_dir: str) -> pa.Table:
    import ray.data

    from chearch_ray.stages.multimodal import extract_media_features

    media = _media_table_on_disk(64, "image", 42, MEDIA_TABLE_PATH)
    out = extract_media_features(ray.data.from_arrow(media), backend="stub")
    pdf = out.to_pandas().drop(columns=["features"])
    return pa.Table.from_pandas(pdf, preserve_index=False)


def _urldoc_table(sf_dir: str) -> pa.Table:
    """documents with deterministically injected URL tokens (the base
    corpus carries none).  The injection is a pure function of
    (doc_id, text), so the DuckDB mirror reconstructs the identical
    table INLINE from the `documents` view (see the domain_counts
    oracle SQL) — no cached side file, so query and oracle can never
    disagree on data scale."""
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = []
    for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        extra = []
        if i % 3 == 0:
            extra.append(f"http://site{i % 37}.example.com/p{i}")
        if i % 7 == 0:
            extra.append(f"https://cdn{i % 11}.example.org/x?q={i}")
        if i % 13 == 0:
            extra.append("http://MIXED.Case.Net/skip")  # domain class is
            # lowercase-only: the capture stops at the first uppercase
            # char on BOTH sides (RE2 here and in DuckDB)
        out.append(" ".join([t] + extra) if extra else t)
    return pa.table({"doc_id": docs["doc_id"],
                     "text": pa.array(out, type=pa.string())})


def q_domain_counts(sf_dir: str) -> pa.Table:
    """URL domain histogram over the derived URL-bearing corpus."""
    import ray.data

    from chearch_ray.stages.textstats import domain_counts

    t = _urldoc_table(sf_dir)
    return domain_counts(ray.data.from_arrow(t).repartition(4))


def q_parsed_filter_query(sf_dir: str) -> pa.Table:
    """grammar query WITH Lucene field:value filters: `lang:es lang:de
    merge OR sort` == BM25 over (merge OR sort) filtered to the two
    langs — must equal the programmatic bm25_filtered row's oracle."""
    q = f"lang:{FILTER_LANGS[0]} lang:{FILTER_LANGS[1]} " \
        f"{BM25_FILTERED_TERMS[0]} OR {BM25_FILTERED_TERMS[1]}"
    return _ranked(engine_for(sf_dir).search_parsed(q, k=10))


#: Lucene bracket RANGE filter through the grammar: doc_len is the
#: docmap's indexed token count (uint32 — the searcher types the
#:  bounds from the docmap schema, so the comparison is numeric, not
#: lexicographic), and the oracle mirrors it with the same dl CTE the
#: BM25 mirror already computes.  Scores are unchanged by the filter;
#: top-k is taken over the restricted candidate set.
RANGE_DL = (30, 70)


def q_range_filter_query(sf_dir: str) -> pa.Table:
    lo, hi = RANGE_DL
    q = f"doc_len:[{lo} TO {hi}] " \
        f"{BM25_FILTERED_TERMS[0]} OR {BM25_FILTERED_TERMS[1]}"
    return _ranked(engine_for(sf_dir).search_parsed(q, k=10))


def q_value_quantiles_cont(sf_dir: str) -> pa.Table:
    """SQL percentile_cont over event value cents: exact adjacent
    order statistics + ONE identical float interpolation expression
    both sides."""
    import ray.data

    from chearch_ray.stages.sketch import quantiles_cont

    from chearch_ray.stages.events import _round_half_away

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _round_half_away(batch["value"].to_numpy().astype(np.float64) * 100)
        return pa.table({"cents": pa.array(cents, type=pa.int64())})

    def mk():
        ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                                   columns=["value"])
        return ds.map_batches(to_cents, batch_format="pyarrow")

    return quantiles_cont(mk, "cents", qs=(0.25, 0.5, 0.9))


def q_docs_intersect(sf_dir: str) -> pa.Table:
    """SQL INTERSECT: doc ids both in lang 'en' and source 'src7'."""
    import ray.data

    from chearch_ray.stages.joins import set_op_keys

    docs = lambda: ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source"])
    a = docs().map_batches(
        lambda b: b.filter(pc.equal(b["lang"], "en")).select(["doc_id"]),
        batch_format="pyarrow")
    b = docs().map_batches(
        lambda t: t.filter(pc.equal(t["source"], "src7")).select(["doc_id"]),
        batch_format="pyarrow")
    return set_op_keys(a, b, on="doc_id", op="intersect")


def q_docs_except(sf_dir: str) -> pa.Table:
    """SQL EXCEPT: lang-'en' doc ids not in source 'src7'."""
    import ray.data

    from chearch_ray.stages.joins import set_op_keys

    docs = lambda: ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source"])
    a = docs().map_batches(
        lambda b: b.filter(pc.equal(b["lang"], "en")).select(["doc_id"]),
        batch_format="pyarrow")
    b = docs().map_batches(
        lambda t: t.filter(pc.equal(t["source"], "src7")).select(["doc_id"]),
        batch_format="pyarrow")
    return set_op_keys(a, b, on="doc_id", op="except")


def q_monthly_revenue(sf_dir: str) -> pa.Table:
    """date_trunc('month') revenue aggregation (calendar-exact)."""
    import ray.data

    from chearch_ray.pipelines.analytics import _gated_group_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_extendedprice", "l_discount"])

    from chearch_ray.stages.events import _round_half_away

    def month_partial(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"]
        if isinstance(ship, pa.ChunkedArray):
            ship = ship.combine_chunks()
        us = np.asarray(ship.cast(pa.int64()))
        months = us.astype("datetime64[us]").astype("datetime64[M]")
        year = months.astype("datetime64[Y]").astype(np.int64) + 1970
        month = (months.astype(np.int64) % 12) + 1
        price = b["l_extendedprice"].to_numpy().astype(np.float64)
        disc = b["l_discount"].to_numpy().astype(np.float64)
        t = pa.table({"year": pa.array(year, type=pa.int64()),
                      "month": pa.array(month, type=pa.int64()),
                      "n_items": pa.array(np.ones(len(b), dtype=np.int64)),
                      "rev_cents": pa.array(
                          _round_half_away(price * (1.0 - disc) * 100),
                          type=pa.int64())})
        agg = t.group_by(["year", "month"], use_threads=False).aggregate(
            [("n_items", "sum"), ("rev_cents", "sum")])
        return agg.rename_columns(["year", "month", "n_items", "rev_cents"])

    out = _gated_group_sum(ds.map_batches(month_partial, batch_format="pyarrow"),
                           ["year", "month"], ["n_items", "rev_cents"])
    if out is None or not len(out):
        return pa.table({"year": pa.array([], type=pa.int64()),
                         "month": pa.array([], type=pa.int64()),
                         "n_items": pa.array([], type=pa.int64()),
                         "rev_cents": pa.array([], type=pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[("year", "ascending"),
                                                    ("month", "ascending")]))


def q_synonym_bm25(sf_dir: str) -> pa.Table:
    """query-time synonym expansion: 'merge' with synonym 'join' ==
    BM25 OR over both terms."""
    return _ranked(engine_for(sf_dir).search_with_synonyms(
        ast.Term("merge"), {"merge": ["join"]}, k=10))


def q_boosted_bm25(sf_dir: str) -> pa.Table:
    """per-term ^boost: merge^2 OR sort — the boost multiplies merge's
    idf (Lucene semantics, linear in the contribution)."""
    return _ranked(engine_for(sf_dir).search_parsed("merge^2 OR sort", k=10))


def q_qty_percent_rank(sf_dir: str) -> pa.Table:
    """PERCENT_RANK over the distinct (returnflag, quantity) set."""
    import ray.data

    from chearch_ray.pipelines.analytics import percent_rank_values

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity"])
    return percent_rank_values(ds, by="l_returnflag", value_col="l_quantity")


def q_order_ntile(sf_dir: str) -> pa.Table:
    """NTILE(4) of order totalprice cents summarized per bucket
    (count + boundary order statistics; no global sort)."""
    import ray.data

    from chearch_ray.stages.events import _round_half_away
    from chearch_ray.stages.sketch import ntile_summary

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _round_half_away(batch["o_totalprice"].to_numpy()
                                 .astype(np.float64) * 100)
        return pa.table({"cents": pa.array(cents, type=pa.int64())})

    def mk():
        ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                                   columns=["o_totalprice"])
        return ds.map_batches(to_cents, batch_format="pyarrow")

    return ntile_summary(mk, "cents", n_tiles=4)


def q_qty_price_regression(sf_dir: str) -> pa.Table:
    """least-squares slope/intercept of price-on-quantity (exact
    HUGEINT moments, one mirrored float expression pair)."""
    import ray.data

    from chearch_ray.pipelines.analytics import least_squares_cents

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_quantity", "l_extendedprice"])
    return least_squares_cents(ds, x="l_quantity", y="l_extendedprice")


def q_group_quantiles_cont(sf_dir: str) -> pa.Table:
    """per-group percentile_cont of events.value cents (exact order
    stats + one mirrored float interpolation)."""
    import ray.data

    from chearch_ray.stages.events import _round_half_away
    from chearch_ray.stages.sketch import exact_group_quantiles_cont

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = _round_half_away(batch["value"].to_numpy().astype(np.float64) * 100)
        return pa.table({"event_type": batch["event_type"],
                         "cents": pa.array(cents, type=pa.int64())})

    def mk():
        ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                                   columns=["event_type", "value"])
        return ds.map_batches(to_cents, batch_format="pyarrow")

    return exact_group_quantiles_cont(mk, "cents", qs=(0.5, 0.9),
                                      by="event_type")


RERANK_TERMS = ("merge", "sort")
RERANK_CANDIDATES = 30
RERANK_K = 10


class _OverlapRerank:
    """Actor-pool rerank stage (the batched model-inference shape with
    a deterministic stand-in scorer): per candidate doc, the number of
    DISTINCT query terms present.  Tokenization is the index tokenizer
    (vectorized), so the count is exact vs the TOK_CTE mirror."""

    def __init__(self, terms: tuple, ids):
        import numpy as _np

        self.terms = tuple(terms)
        self.ids = _np.sort(_np.asarray(ids, dtype=_np.int64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from chearch_ray.functions.tokenizer import explode, tokenize

        ids = batch["doc_id"].to_numpy().astype(np.int64)
        m = np.isin(ids, self.ids)
        batch = batch.filter(pa.array(m))
        if len(batch) == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_matched": pa.array([], type=pa.int64())})
        toks = tokenize(batch["text"])
        flat, rows, _ = explode(toks)
        tok_np = np.asarray(flat, dtype=object)
        n = np.zeros(len(batch), dtype=np.int64)
        for t in self.terms:
            hit_rows = np.unique(rows[tok_np == t])
            n[hit_rows] += 1
        return pa.table({"doc_id": batch["doc_id"].cast(pa.int64()),
                         "n_matched": pa.array(n, type=pa.int64())})


def q_rerank(sf_dir: str) -> pa.Table:
    """retrieve -> fetch -> rerank: BM25 OR top-30 candidates, an
    actor-pool overlap scorer over the documents table, final order
    (n_matched desc, score desc, doc_id asc) top-10 — the two-stage
    retrieval shape with a deterministic (SQL-mirrorable) reranker."""
    import ray.data

    a, b = RERANK_TERMS
    t = engine_for(sf_dir).search(ast.Or(ast.Term(a), ast.Term(b)),
                                  k=RERANK_CANDIDATES)
    ids = t["doc_id"].to_numpy().astype(np.int64)
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    # fractional CPUs: the engine's own searcher actors hold 0.5 CPU
    # each, so a full-CPU actor pool can deadlock a small (4-cpu test)
    # session — same sizing rule as SearcherGroup
    scored = docs.map_batches(
        _OverlapRerank,
        fn_constructor_kwargs={"terms": RERANK_TERMS, "ids": ids},
        batch_format="pyarrow",
        concurrency=2,
        num_cpus=0.25,
    )
    parts = [x for x in scored.iter_batches(batch_size=None,
                                            batch_format="pyarrow") if len(x)]
    nm = pa.concat_tables(parts) if parts else pa.table(
        {"doc_id": pa.array([], type=pa.int64()),
         "n_matched": pa.array([], type=pa.int64())})
    lut = dict(zip(nm["doc_id"].to_pylist(), nm["n_matched"].to_pylist()))
    matched = np.array([lut.get(int(d), 0) for d in ids], dtype=np.int64)
    scores = t["score"].to_numpy()
    order = np.lexsort((ids, -scores, -matched))[:RERANK_K]
    return pa.table({
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        "doc_id": pa.array(ids[order], type=pa.int64()),
        "n_matched": pa.array(matched[order], type=pa.int64()),
    })


def q_qty_dense_rank(sf_dir: str) -> pa.Table:
    """DENSE_RANK of quantity within returnflag (distinct value set)."""
    import ray.data

    from chearch_ray.pipelines.analytics import dense_rank_values

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity"])
    return dense_rank_values(ds, by="l_returnflag", value_col="l_quantity")


def q_media_resize(sf_dir: str) -> pa.Table:
    """actor-pool resize over opaque media payloads (stub decode):
    fit-in-box metadata + deterministic stride-sampled payload,
    EXACT-checked via sha256 of the resized bytes (the DuckDB oracle
    reconstructs the same stride sample from the on-disk fixture)."""
    import hashlib

    import ray.data

    from chearch_ray.stages.multimodal import resize_media

    media = _media_table_on_disk(64, "image", 42, MEDIA_TABLE_PATH)
    out = resize_media(ray.data.from_arrow(media), max_side=32)
    pdf = out.to_pandas()
    pdf["payload_bytes"] = pdf["payload"].map(len)
    pdf["payload_sha"] = pdf["payload"].map(
        lambda p: hashlib.sha256(p).hexdigest())
    return pa.Table.from_pandas(
        pdf.drop(columns=["payload"]).sort_values("media_id",
                                                  ignore_index=True),
        preserve_index=False)


def q_media_frames(sf_dir: str) -> pa.Table:
    """actor-pool frame sampling (explode shape): n evenly spaced
    stub frames per video payload, EXACT-checked via sha256 of each
    frame's bytes (the DuckDB oracle slices the same spans from the
    on-disk fixture)."""
    import hashlib

    import ray.data

    from chearch_ray.stages.multimodal import sample_frames

    media = _media_table_on_disk(48, "video", 7, VIDEO_TABLE_PATH)
    out = sample_frames(ray.data.from_arrow(media), n_frames=4)
    pdf = out.to_pandas()
    pdf["payload_bytes"] = pdf["payload"].map(len)
    pdf["payload_sha"] = pdf["payload"].map(
        lambda p: hashlib.sha256(p).hexdigest())
    return pa.Table.from_pandas(
        pdf.drop(columns=["payload"]).sort_values(["media_id", "frame_no"],
                                                  ignore_index=True),
        preserve_index=False)


def q_order_count_distribution(sf_dir: str) -> pa.Table:
    """TPC-H Q13 shape: LEFT OUTER order-count histogram including the
    zero bucket."""
    import ray.data

    from chearch_ray.pipelines.analytics import order_count_distribution

    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    return order_count_distribution(customer, orders)


def q_top_supplier(sf_dir: str) -> pa.Table:
    """TPC-H Q15 shape: supplier(s) with MAX revenue in a quarter
    (aggregate + equals-max, ties kept)."""
    import ray.data

    from chearch_ray.pipelines.analytics import top_revenue_suppliers

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=_ts_between("l_shipdate", "1996-01-01", "1996-04-01"))
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"])
    return top_revenue_suppliers(lineitem, supplier)


def q_large_volume_orders(sf_dir: str) -> pa.Table:
    """TPC-H Q18 shape: HAVING SUM(qty) > t, join customer, top-100 by
    (totalprice desc, orderkey asc)."""
    import ray.data

    from chearch_ray.pipelines.analytics import large_volume_orders

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"])
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"])
    return large_volume_orders(lineitem, orders, customer)


def q_disjunctive_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape: OR of (brand, qty window, size window)
    conjunctions across the lineitem x part dimension join."""
    import ray.data

    from chearch_ray.pipelines.analytics import disjunctive_revenue

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"])
    return disjunctive_revenue(lineitem, part)


def q_wealthy_inactive(sf_dir: str) -> pa.Table:
    """TPC-H Q22 shape: scalar positive-balance-average subquery (exact
    int64 cross-multiplication on both sides) + NOT EXISTS anti-join,
    per market segment."""
    import ray.data

    from chearch_ray.pipelines.analytics import wealthy_inactive_customers

    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"])
    return wealthy_inactive_customers(customer, orders)


def q_event_value_stats(sf_dir: str) -> pa.Table:
    """grouped descriptive statistics (n/sum/mean/var_pop) with the
    exact-int-sums-then-one-float-expression contract."""
    import ray.data

    from chearch_ray.pipelines.analytics import grouped_value_stats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "value"])
    return grouped_value_stats(ds, "event_type", "value")


def q_qty_discount_corr(sf_dir: str) -> pa.Table:
    """Pearson correlation from exact integer moment sums (HUGEINT on
    the SQL side, Python ints here), one identical float expression
    both sides."""
    import ray.data

    from chearch_ray.pipelines.analytics import pearson_corr_cents

    ds = ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                               columns=["l_quantity", "l_discount"])
    return pearson_corr_cents(ds, "l_quantity", "l_discount")


#: the documents table's fixed source enumeration (TESTDATA.md;
#: identical across scale factors) — pivot column sets must be known
#: up front at scale, not discovered
PIVOT_SOURCES = [f"src{i}" for i in range(20)]


def q_lang_source_pivot(sf_dir: str) -> pa.Table:
    """crosstab: one row per lang, one count column per source."""
    import ray.data

    from chearch_ray.pipelines.analytics import pivot_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "source"])
    return pivot_counts(ds, "lang", "source", PIVOT_SOURCES)


def q_props_field_agg(sf_dir: str) -> pa.Table:
    """JSON integer-field extraction (RE2 scale path vs real
    json_extract in the mirror) + per-type n/sum/min/max."""
    import ray.data

    from chearch_ray.pipelines.analytics import json_int_field_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "props"])
    return json_int_field_agg(ds, "props", "k", by="event_type")


def q_mode_source_by_lang(sf_dir: str) -> pa.Table:
    """categorical mode per group (ties -> smallest value)."""
    import ray.data

    from chearch_ray.pipelines.analytics import mode_per_group

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "source"])
    return mode_per_group(ds, "lang", "source")


def q_event_value_hist(sf_dir: str) -> pa.Table:
    """fixed-width binned histogram (floor(value/width) mirrored
    verbatim)."""
    import ray.data

    from chearch_ray.pipelines.analytics import value_histogram

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["value"])
    return value_histogram(ds, "value", 25.0)


def q_sources_concat_by_lang(sf_dir: str) -> pa.Table:
    """ordered collect: sorted distinct sources per lang, joined."""
    import ray.data

    from chearch_ray.pipelines.analytics import sorted_distinct_concat

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "source"])
    return sorted_distinct_concat(ds, "lang", "source")


def q_brand_supplier_counts(sf_dir: str) -> pa.Table:
    """TPC-H Q16 shape: count(DISTINCT supplier) per brand across the
    part dimension join."""
    import ray.data

    from chearch_ray.pipelines.analytics import brand_supplier_counts

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"])
    return brand_supplier_counts(lineitem, part)


def q_part_revenue_concentration(sf_dir: str) -> pa.Table:
    """TPC-H Q11 shape: HAVING SUM > fraction of a global scalar
    subquery, compared in exact int64 cross-multiplication."""
    import ray.data

    from chearch_ray.pipelines.analytics import part_revenue_concentration

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount"])
    return part_revenue_concentration(lineitem, num=1, denom=1800)


def q_unpivot_sources(sf_dir: str) -> pa.Table:
    """UNPIVOT round-trip: melt the lang x source crosstab back to
    long form (the SQL mirror literally uses UNPIVOT)."""
    import ray.data

    from chearch_ray.pipelines.analytics import melt, pivot_counts

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "source"])
    wide = pivot_counts(ds, "lang", "source", PIVOT_SOURCES)
    long = melt(ray.data.from_arrow(wide), "lang",
                [f"n_{v}" for v in PIVOT_SOURCES] + ["total"])
    out = pa.Table.from_pandas(long.to_pandas(), preserve_index=False)
    return out.take(pc.sort_indices(out, sort_keys=[("lang", "ascending"),
                                                    ("variable", "ascending")]))


def q_event_lag_gaps(sf_dir: str) -> pa.Table:
    """LAG() OVER (PARTITION BY user ORDER BY ts): microseconds since
    each user's previous event (first events drop, as SQL LAG NULLs)."""
    import ray.data

    from chearch_ray.stages.events import event_lag_gaps

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts"])
    out = event_lag_gaps(ds).to_pandas().sort_values("event_id",
                                                     ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_grouping_sets_docs(sf_dir: str) -> pa.Table:
    """GROUP BY GROUPING SETS ((lang), (source)): exactly the two
    marginals, same one-pass partial emission as ROLLUP/CUBE."""
    import ray.data

    from chearch_ray.pipelines.analytics import rollup_counts

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "source", "n_chars"],
    )
    out = rollup_counts(ds, ["lang", "source"], sum_columns=["n_chars"],
                        mode="sets", sets=[("lang",), ("source",)])
    out = out.rename_columns(["lang", "source", "n_docs", "chars_total"])
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_revenue_by_year(sf_dir: str) -> pa.Table:
    """date-part aggregation: revenue per calendar ship year."""
    import ray.data

    from chearch_ray.pipelines.analytics import revenue_by_year

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_extendedprice", "l_discount"])
    return revenue_by_year(ds)


def q_latest_event_per_user(sf_dir: str) -> pa.Table:
    """latest-record dedup: each user's most recent event
    (row_number() = 1 over ts desc, event_id desc)."""
    import ray.data

    from chearch_ray.stages.events import latest_event_per_user

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"])
    out = latest_event_per_user(ds).to_pandas().sort_values(
        "user_id", ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_volume_shipping(sf_dir: str) -> pa.Table:
    """TPC-H Q7 shape: revenue between two nations by direction × year."""
    import ray.data

    from chearch_ray.pipelines.analytics import volume_shipping

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"])
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"])
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    return volume_shipping(lineitem, orders, customer, supplier, nation)


def q_product_type_profit(sf_dir: str) -> pa.Table:
    """TPC-H Q9 shape (adapted: no partsupp — revenue as profit)."""
    import ray.data

    from chearch_ray.pipelines.analytics import product_type_profit

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"])
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    return product_type_profit(lineitem, part, supplier, nation)


def q_late_shipment_priority(sf_dir: str) -> pa.Table:
    """TPC-H Q12 shape (adapted: late = shipdate ≥ orderdate + 60d,
    grouped by linestatus)."""
    import ray.data

    from chearch_ray.pipelines.analytics import late_shipment_priority

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=_ts_between("l_shipdate", "1996-01-01", "1998-01-01"))
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    return late_shipment_priority(lineitem, orders)


def q_market_share(sf_dir: str) -> pa.Table:
    """TPC-H Q8 shape: per-year revenue share of one supplier nation."""
    import ray.data

    from chearch_ray.pipelines.analytics import market_share

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"])
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    return market_share(lineitem, orders, customer, supplier, part,
                        nation, region)


def q_small_qty_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q17 shape: correlated per-part AVG-quantity gate."""
    import ray.data

    from chearch_ray.pipelines.analytics import small_qty_revenue

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_brand"])
    return small_qty_revenue(lineitem, part)


def q_promo_part_suppliers(sf_dir: str) -> pa.Table:
    """TPC-H Q20 shape (adapted): nested quantity test 2·window > total."""
    import ray.data

    from chearch_ray.pipelines.analytics import promo_part_suppliers

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    return promo_part_suppliers(lineitem, supplier, part, nation)


def q_min_cost_supplier(sf_dir: str) -> pa.Table:
    """TPC-H Q2 shape (adapted): per-part correlated-min supplier."""
    import ray.data

    from chearch_ray.pipelines.analytics import min_cost_supplier

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_size", "p_type"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    return min_cost_supplier(lineitem, supplier, part, nation, region)


def q_waiting_orders_suppliers(sf_dir: str) -> pa.Table:
    """TPC-H Q21 shape (adapted): sole returned supplier on multi-
    supplier 'F' orders."""
    import ray.data

    from chearch_ray.pipelines.analytics import waiting_orders_suppliers

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus"],
        filter=pc.field("o_orderstatus") == "F")  # pruned at the read
    supplier = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    return waiting_orders_suppliers(lineitem, orders, supplier, nation)


def q_event_moving_sum(sf_dir: str) -> pa.Table:
    """windowed-frame aggregate: ROWS BETWEEN 3 PRECEDING AND CURRENT
    ROW sum/count per user, exact integer cents."""
    import ray.data

    from chearch_ray.stages.events import event_moving_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "value"])
    out = event_moving_sum(ds, window_rows=4).to_pandas().sort_values(
        "event_id", ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_orders_page(sf_dir: str) -> pa.Table:
    """distributed ORDER BY … LIMIT 50 OFFSET 100 page export."""
    import ray.data

    from chearch_ray.pipelines.analytics import ordered_page

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return ordered_page(
        ds, sort_keys=[("o_orderdate", "ascending"),
                       ("o_orderkey", "ascending")],
        limit=50, offset=100,
        columns=["o_orderkey", "o_custkey", "o_orderdate"])


# Every driver query, by name.  Registration order carries no meaning:
# QUERIES (below) is the order the driver sees.
_REGISTRY = {
    "order_count_distribution": q_order_count_distribution,
    "top_supplier": q_top_supplier,
    "large_volume_orders": q_large_volume_orders,
    "disjunctive_revenue": q_disjunctive_revenue,
    "wealthy_inactive": q_wealthy_inactive,
    "event_value_stats": q_event_value_stats,
    "qty_discount_corr": q_qty_discount_corr,
    "lang_source_pivot": q_lang_source_pivot,
    "props_field_agg": q_props_field_agg,
    "mode_source_by_lang": q_mode_source_by_lang,
    "event_value_hist": q_event_value_hist,
    "sources_concat_by_lang": q_sources_concat_by_lang,
    "brand_supplier_counts": q_brand_supplier_counts,
    "part_revenue_concentration": q_part_revenue_concentration,
    "unpivot_sources": q_unpivot_sources,
    "event_lag_gaps": q_event_lag_gaps,
    "grouping_sets_docs": q_grouping_sets_docs,
    "revenue_by_year": q_revenue_by_year,
    "latest_event_per_user": q_latest_event_per_user,
    "volume_shipping": q_volume_shipping,
    "product_type_profit": q_product_type_profit,
    "late_shipment_priority": q_late_shipment_priority,
    "market_share": q_market_share,
    "small_qty_revenue": q_small_qty_revenue,
    "promo_part_suppliers": q_promo_part_suppliers,
    "min_cost_supplier": q_min_cost_supplier,
    "waiting_orders_suppliers": q_waiting_orders_suppliers,
    "event_moving_sum": q_event_moving_sum,
    "orders_page": q_orders_page,
    "domain_counts": q_domain_counts,
    "qty_dense_rank": q_qty_dense_rank,
    "parsed_filter_query": q_parsed_filter_query,
    "value_quantiles_cont": q_value_quantiles_cont,
    "rerank": q_rerank,
    "group_quantiles_cont": q_group_quantiles_cont,
    "docs_intersect": q_docs_intersect,
    "docs_except": q_docs_except,
    "monthly_revenue": q_monthly_revenue,
    "qty_price_regression": q_qty_price_regression,
    "order_ntile": q_order_ntile,
    "synonym_bm25": q_synonym_bm25,
    "boosted_bm25": q_boosted_bm25,
    "qty_percent_rank": q_qty_percent_rank,
    "media_resize": q_media_resize,
    "media_frames": q_media_frames,
    "search_snippets": q_search_snippets,
    "range_filter_query": q_range_filter_query,
    "suffix_wildcard_bm25": q_suffix_wildcard_bm25,
    "explain_bm25": q_explain_bm25,
    "pq_knn": q_pq_knn,
    "regexp_bm25": q_regexp_bm25,
    "msm_bm25": q_msm_bm25,
    "collapse_by_lang": q_collapse_by_lang,
    "hit_counts": q_hit_counts,
    "dismax_bm25": q_dismax_bm25,
    "span_first": q_span_first,
    "collapse_filtered": q_collapse_filtered,
    "facet_stats": q_facet_stats,
    "fingerprint": q_fingerprint,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "bm25_single": q_bm25_single,
    "hybrid_rrf": q_hybrid_rrf,
    "line_dedup": q_line_dedup,
    "cm_counts": q_cm_counts,
    "parsed_query": q_parsed_query,
    "local_supplier_volume": q_local_supplier_volume,
    "returned_item_revenue": q_returned_item_revenue,
    "promo_revenue": q_promo_revenue,
    "rollup_docs": q_rollup_docs,
    "cube_docs": q_cube_docs,
    "top_orders_per_cust": q_top_orders_per_cust,
    "containment_pairs": q_containment_pairs,
    "tfidf_keywords": q_tfidf_keywords,
    "distinct_users_by_type": q_distinct_users_by_type,
    "interval_join": q_interval_join,
    "decontaminate": q_decontaminate,
    "substring_dedup": q_substring_dedup,
    "hash_split": q_hash_split,
    "weighted_sample": q_weighted_sample,
    "quota_sample": q_quota_sample,
    "repetition_filter": q_repetition_filter,
    "snippets": q_snippets,
    "facets": q_facets,
    "facet_hist": q_facet_hist,
    "lm_score": q_lm_score,
    "kmv_distinct_users": q_kmv_distinct_users,
    "kmv_distinct_by_type": q_kmv_distinct_by_type,
    "frequent_terms": q_frequent_terms,
    "significant_terms": q_significant_terms,
    "normalize_text": q_normalize_text,
    "suggest": q_suggest,
    "suggest_indexed": q_suggest_indexed,
    "value_quantiles": q_value_quantiles,
    "group_quantiles": q_group_quantiles,
    "grep_lines": q_grep_lines,
    "regex_count": q_regex_count,
    "top_bigrams": q_top_bigrams,
    "pmi_bigrams": q_pmi_bigrams,
    "pii_scrub": q_pii_scrub,
    "pricing_summary": q_pricing_summary,
    "forecast_revenue": q_forecast_revenue,
    "shipping_priority": q_shipping_priority,
    "order_priority": q_order_priority,
    "inactive_customers": q_inactive_customers,
    "revenue_by_nation": q_revenue_by_nation,
    "training_pipeline": q_training_pipeline,
    "chunk_documents": q_chunk_documents,
    "deterministic_sample": q_deterministic_sample,
    "quality_gate": q_quality_gate,
    "top_quality_per_lang": q_top_quality_per_lang,
    "corpus_stats": q_corpus_stats,
    "term_df": q_term_df,
    "boolean_and": q_boolean_and,
    "boolean_or": q_boolean_or,
    "bm25_and": q_bm25_and,
    "bm25_or": q_bm25_or,
    "near": q_near,
    "wide_id_boolean": q_wide_id_boolean,
    "sessionize": q_sessionize,
    "dedup_exact": q_dedup_exact,
    "top_terms": q_top_terms,
    "postings_cardinality": q_postings_cardinality,
    "prefix_boolean": q_prefix_boolean,
    "boolean_not": q_boolean_not,
    "bm25_not": q_bm25_not,
    "bm25_page2": q_bm25_page2,
    "upsert_bm25": q_upsert_bm25,
    "fuzzy_bm25": q_fuzzy_bm25,
    "bm25_tree": q_bm25_tree,
    "more_like_this": q_more_like_this,
    "fielded_search": q_fielded_search,
    "docstore_fetch": q_docstore_fetch,
    "bm25_filtered": q_bm25_filtered,
    "boolean_filtered": q_boolean_filtered,
    "boolean_deleted": q_boolean_deleted,
    "bm25_deleted": q_bm25_deleted,
    "missing_term": q_missing_term,
    "dedup_incremental": q_dedup_incremental,
    "content_sha": q_content_sha,
    "lang_counts": q_lang_counts,
    "ivf_knn": q_ivf_knn,
    "ivfpq_refine": q_ivfpq_refine,
    "near_ordered": q_near_ordered,
    "near_all": q_near_all,
    "windowed_agg": q_windowed_agg,
    "hopping_window": q_hopping_window,
    "funnel": q_funnel,
    "retention": q_retention,
    "running_windows": q_running_windows,
    "bpeish_tokens": q_bpeish_tokens,
    "asof_join": q_asof_join,
    "embedding_neardup": q_embedding_neardup,
    "jaccard_pairs": q_jaccard_pairs,
    "neardup_keep": q_neardup_keep,
    "pack_sequences": q_pack_sequences,
    "pack_sequences_hash": q_pack_sequences_hash,
    "token_counts": q_token_counts,
    "phrase": q_phrase,
    "knn_cosine": q_knn_cosine,
    "langid": q_langid,
    "quality": q_quality,
    "media_features": q_media_features,
}


def _driver_checked() -> set[str]:
    """Names value-checked by any committed CORRECTNESS_r*.json.  A row
    whose every recorded run errored (no oracle, crash) counts as
    unchecked: it was never value-verified."""
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    checked: set[str] = set()
    for path in sorted(glob.glob(os.path.join(repo, "CORRECTNESS_r*.json"))):
        with open(path) as f:
            for name, row in json.load(f).items():
                if not (isinstance(row, dict) and row.get("err")):
                    checked.add(name)
    return checked


# DRIVER ROTATION — the driver harness checks the FIRST 50 entries of
# QUERIES (insertion order).  The order is derived here, at import,
# from the committed CORRECTNESS_r*.json files: never-checked rows
# first, then already-checked ones, each group by name.  A new
# correctness record therefore rotates the window by itself.
_CHECKED = _driver_checked()
QUERIES = dict(sorted(_REGISTRY.items(), key=lambda kv: (kv[0] in _CHECKED, kv[0])))


# ---------------------------------------------------------- oracle SQL
#: positional tokenization CTEs (1-based ord; adjacency b.ord=a.ord+1
#: matches the engine's 0-based positions exactly)
POS_TOK_CTE = (
    "ptoks AS (SELECT doc_id, list_filter(regexp_split_to_array(lower(text), "
    "'[^a-z0-9_]+'), x -> x <> '') AS ts FROM documents), "
    "ptok AS (SELECT doc_id, unnest(ts) AS term, generate_subscripts(ts, 1) AS ord "
    "FROM ptoks)"
)


def _phrase_cand_sql(terms: tuple[str, ...]) -> str:
    """docs containing the exact phrase: joins ptok against itself once
    per phrase position."""
    joins, conds = [], [f"t0.term = '{terms[0]}'"]
    for i in range(1, len(terms)):
        joins.append(
            f"JOIN ptok t{i} ON t{i}.doc_id = t0.doc_id AND t{i}.ord = t0.ord + {i}"
        )
        conds.append(f"t{i}.term = '{terms[i]}'")
    return (
        f"SELECT DISTINCT t0.doc_id FROM ptok t0 {' '.join(joins)} "
        f"WHERE {' AND '.join(conds)}"
    )


def _near_cand_sql(a: str, b: str, slop: int, ordered: bool) -> str:
    """docs where `b` occurs within `slop` positions of `a` (ord is
    1-based sequential, so ord differences equal the engine's 0-based
    position differences)."""
    window = (
        f"tb.ord - ta.ord BETWEEN 1 AND {slop}"
        if ordered
        else f"abs(tb.ord - ta.ord) <= {slop} AND tb.ord <> ta.ord"
    )
    return (
        f"SELECT DISTINCT ta.doc_id FROM ptok ta "
        f"JOIN ptok tb ON tb.doc_id = ta.doc_id AND {window} "
        f"WHERE ta.term = '{a}' AND tb.term = '{b}'"
    )


def _bm25_sql(terms: tuple[str, ...], mode: str, k: int = 10, cand_sql: str | None = None,
              extra_ctes: str = "", offset: int = 0, term_sql: str | None = None,
              final_sql: str | None = None,
              score_expr: str = "sum(c)") -> str:
    # term_sql: a SELECT yielding the scoring-term set (e.g. a fuzzy
    # levenshtein expansion) in place of a literal term list
    # final_sql: replaces the default ranked-CTE tail after `scored`
    # (e.g. the collapse row's per-group row_number selection)
    # score_expr: the per-doc aggregate over contribs c (dismax uses
    # max(c) + tie * (sum(c) - max(c)))
    term_list = term_sql if term_sql is not None else ", ".join(f"'{t}'" for t in terms)
    if cand_sql is not None:
        cand = cand_sql
    elif mode == "and":
        cand = " INTERSECT ".join(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{t}'" for t in terms
        )
    else:
        cand = f"SELECT DISTINCT doc_id FROM tok WHERE term IN ({term_list})"
    extra = f"{extra_ctes}," if extra_ctes else ""
    tail = (final_sql if final_sql is not None
            else _BM25_DEFAULT_TAIL.format(offset=offset, k=k))
    return f"""
WITH {TOK_CTE}, {extra}
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ({term_list}) GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
cand AS ({cand}),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s
  WHERE tf.doc_id IN (SELECT doc_id FROM cand)
),
scored AS (SELECT doc_id, {score_expr} AS score FROM contrib GROUP BY doc_id){tail}
"""


_BM25_DEFAULT_TAIL = """,
ranked AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk, doc_id
           FROM scored)
SELECT (rk - {offset})::BIGINT AS rank, doc_id
FROM ranked WHERE rk > {offset} AND rk <= {offset} + {k} ORDER BY rk"""


def _quality_sql() -> str:
    """Mirror of stages.textstats.QualityScore, term by term, in the
    SAME float64 evaluation order (left-assoc additions) for hash
    identity."""
    return f"""
WITH qtoks AS (SELECT doc_id, length(text)::DOUBLE AS n_chars,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'), x -> x <> '') AS ts
       FROM documents),
qtok AS (SELECT doc_id, unnest(ts) AS term FROM qtoks),
agg AS (SELECT doc_id, count(*)::DOUBLE AS n_tokens,
               count(DISTINCT term)::DOUBLE AS n_distinct,
               sum(length(term))::DOUBLE AS sum_tok_len
        FROM qtok GROUP BY doc_id),
j AS (SELECT t.doc_id, t.n_chars,
             coalesce(a.n_tokens, 0) AS n_tokens,
             coalesce(a.n_distinct, 0) AS n_distinct,
             coalesce(a.sum_tok_len, 0) AS sum_tok_len
      FROM qtoks t LEFT JOIN agg a ON t.doc_id = a.doc_id),
m AS (SELECT doc_id, n_tokens,
             CASE WHEN n_tokens > 0 THEN n_distinct / n_tokens ELSE 0 END AS ttr,
             CASE WHEN n_chars > 0 THEN sum_tok_len / n_chars ELSE 0 END AS alpha_ratio,
             CASE WHEN n_tokens > 0 THEN sum_tok_len / n_tokens ELSE 0 END AS mean_token_len
      FROM j)
SELECT doc_id, n_tokens::BIGINT AS n_tokens, ttr, alpha_ratio, mean_token_len,
       0.25 * least(greatest(n_tokens / 64.0, 0.0), 1.0)
         + 0.25 * ttr + 0.25 * alpha_ratio
         + 0.25 * least(greatest(mean_token_len / 6.0, 0.0), 1.0) AS quality
FROM m
"""


def _langid_sql() -> str:
    """Mirror of stages.textstats.LangId: stopword-hit scores per
    language, argmax with the Python dict's first-wins tie order
    (en, es, fr, de, code)."""
    from chearch_ray.stages.textstats import _CODE_TOKENS, _STOPWORDS

    langs = list(_STOPWORDS) + ["code"]
    tables = dict(_STOPWORDS, code=_CODE_TOKENS)
    hit_cols = ",\n               ".join(
        f"sum(CASE WHEN term IN ({', '.join(repr(w) for w in sorted(tables[lang]))}) "
        f"THEN 1 ELSE 0 END)::DOUBLE AS h_{lang}"
        for lang in langs
    )
    score_cols = ", ".join(f"coalesce(a.h_{lang}, 0) / greatest(coalesce(a.n_tokens, 0), 1) AS s_{lang}" for lang in langs)
    all_scores = ", ".join(f"s_{lang}" for lang in langs)
    # first-wins argmax: lang i wins if >= every later lang's score
    pred_cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(f"s_{lang} >= s_{later}" for later in langs[i + 1 :])
        pred_cases.append(f"WHEN {conds} THEN '{lang}'")
    return f"""
WITH ltoks AS (SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'), x -> x <> '') AS ts
       FROM documents),
ltok AS (SELECT doc_id, unnest(ts) AS term FROM ltoks),
agg AS (SELECT doc_id, count(*)::DOUBLE AS n_tokens,
               {hit_cols}
        FROM ltok GROUP BY doc_id),
s AS (SELECT t.doc_id, {score_cols}
      FROM ltoks t LEFT JOIN agg a ON t.doc_id = a.doc_id)
SELECT doc_id,
       CASE WHEN greatest({all_scores}) <= 0 THEN 'unknown'
            {' '.join(pred_cases)}
            ELSE '{langs[-1]}' END AS lang_pred,
       greatest({all_scores}) AS lang_score
FROM s
"""


#: shared CTE: positional tokens + FNV-1a uint64 token hashes (the
#: recursive CTE folds each unique token's bytes with HUGEINT
#: mod-2^64 arithmetic — exactly numpy uint64 wraparound).  Feeds the
#: fingerprint / minhash_pairs / simhash_pairs oracles.
_FNV_TOKS_CTE = """
docs_t AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     t -> t <> '') AS toks
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(toks) AS tok, generate_subscripts(toks, 1) AS pos
  FROM docs_t
),
uniq AS (SELECT DISTINCT tok FROM toks),
fnv AS (
  WITH RECURSIVE r AS (
    SELECT tok, 0 AS i, CAST(14695981039346656037 AS HUGEINT) AS h FROM uniq
    UNION ALL
    SELECT tok, i + 1,
           (xor(h, CAST(ord(substr(tok, i + 1, 1)) AS HUGEINT))
             * 1099511628211) % CAST(18446744073709551616 AS HUGEINT)
    FROM r WHERE i < length(tok)
  )
  SELECT tok, h FROM r WHERE i = length(tok)
),
th AS (SELECT t.doc_id, t.pos, f.h FROM toks t JOIN fnv f USING (tok))
"""

#: trigram rolling-hash windows over th (Horner fold with the FNV
#: prime, stepwise mod 2^64 == numpy uint64 wrap) — the shared shingle
#: hash of Fingerprint and MinHashSignatures (_doc_shingle_hashes)
_WINS_CTE = """
wins AS (
  SELECT a.doc_id,
         ( ((a.h * 1099511628211 % CAST(18446744073709551616 AS HUGEINT))
             * 1099511628211 % CAST(18446744073709551616 AS HUGEINT))
           + (b.h * 1099511628211 % CAST(18446744073709551616 AS HUGEINT))
           + c.h
         ) % CAST(18446744073709551616 AS HUGEINT) AS win
  FROM th a
  JOIN th b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN th c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
)
"""


def _minhash_perm_values() -> str:
    """the 128 (a, b) universal-family constants of
    MinHashSignatures(seed=42), as HUGEINT literals for the oracle."""
    from chearch_ray.stages.dedup import MinHashSignatures

    st = MinHashSignatures()
    return ",\n    ".join(
        f"({j}, CAST({int(a)} AS HUGEINT), CAST({int(b)} AS HUGEINT))"
        for j, (a, b) in enumerate(zip(st.a, st.b)))


_POW2_VALUES = ",\n    ".join(
    f"({b}, CAST({1 << b} AS HUGEINT))" for b in range(64))
_BANDPOW_VALUES = ",\n    ".join(
    f"({b}, CAST({1 << (16 * b)} AS HUGEINT))" for b in range(4))


ORACLE_SQL = {
    "token_counts": f"""
WITH {TOK_CTE},
agg AS (
  SELECT doc_id, count(term)::BIGINT AS n_tokens,
         count(DISTINCT term)::BIGINT AS n_distinct,
         sum(CASE WHEN term IN ('the','and','of','a','to','in','is','for','on','with')
             THEN 1 ELSE 0 END)::BIGINT AS n_stopwords
  FROM tok GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_distinct, 0) AS n_distinct,
       coalesce(a.n_stopwords, 0) AS n_stopwords
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
""",
    "corpus_stats": f"""
WITH {TOK_CTE},
agg AS (SELECT count(*)::BIGINT AS total_tokens FROM tok)
SELECT (SELECT count(*) FROM documents)::BIGINT AS num_docs,
       agg.total_tokens,
       agg.total_tokens::DOUBLE / (SELECT count(*) FROM documents) AS avgdl
FROM agg
""",
    "term_df": f"""
WITH {TOK_CTE}
SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
""",
    "top_terms": f"""
WITH {TOK_CTE}
SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
ORDER BY df DESC, term LIMIT 20
""",
    "postings_cardinality": f"""
WITH {TOK_CTE}
SELECT count(*)::BIGINT AS n_postings FROM (SELECT DISTINCT doc_id, term FROM tok)
""",
    "boolean_and": f"""
WITH {TOK_CTE}
SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[0]}'
INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[1]}'
""",
    "boolean_or": f"""
WITH {TOK_CTE}
SELECT DISTINCT doc_id FROM tok WHERE term IN ('{BOOL_OR_TERMS[0]}', '{BOOL_OR_TERMS[1]}')
""",
    "prefix_boolean": f"""
WITH {TOK_CTE}
SELECT DISTINCT doc_id FROM tok WHERE term LIKE 's%'
INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = 'merge'
""",
    "boolean_not": f"""
WITH {TOK_CTE}
SELECT DISTINCT doc_id FROM tok WHERE term = 'window'
EXCEPT SELECT DISTINCT doc_id FROM tok WHERE term = 'stream'
""",
    "bm25_not": _bm25_sql(
        (BM25_NOT_TERMS[0],),
        "not",
        cand_sql=(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{BM25_NOT_TERMS[0]}' "
            f"EXCEPT SELECT DISTINCT doc_id FROM tok WHERE term = '{BM25_NOT_TERMS[1]}'"
        ),
    ),
    "wide_id_boolean": f"""
WITH {TOK_CTE},
hits AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[0]}'
  INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[1]}')
SELECT (doc_id % {WIDE_SPLIT})::BIGINT AS doc_id_hi,
       (doc_id // {WIDE_SPLIT})::BIGINT AS doc_id
FROM hits
""",
    "bm25_single": _bm25_sql((BM25_TERM,), "or"),
    "bm25_page2": _bm25_sql((BM25_TERM,), "or", offset=10),
    # same BM25 body over the CASE-updated corpus: the `documents`
    # CTE shadows the view (main.documents = the original), so df /
    # avgdl / scores all reflect the upsert
    "upsert_bm25": _bm25_sql((BM25_TERM,), "or").replace(
        "WITH ",
        "WITH documents AS (SELECT doc_id, CASE WHEN doc_id % 10 = 0 "
        f"THEN '{UPSERT_TEXT}' ELSE text END AS text FROM main.documents), ",
        1,
    ),
    "bm25_and": _bm25_sql(BM25_AND_TERMS, "and"),
    "bm25_or": _bm25_sql(BM25_OR_TERMS, "or"),
    "fuzzy_bm25": _bm25_sql(
        (),
        "or",
        term_sql=(
            "SELECT DISTINCT term FROM tok "
            f"WHERE levenshtein(term, '{FUZZY_TERM}') <= {FUZZY_DIST}"
        ),
    ),
    # suffix + infix wildcard expansions mirrored by LIKE over the
    # same tokenization — '%rt' for the reversed-dictionary suffix
    # route, 't%e' for the anchor-dictionary infix route (LIKE's
    # sequential consumption == the engine's non-overlapping-halves
    # len >= |head|+|tail| check); union == the engine's Or of the
    # two expanded chains
    "suffix_wildcard_bm25": _bm25_sql(
        (),
        "or",
        term_sql=(
            f"SELECT DISTINCT term FROM tok WHERE term LIKE '%{SUFFIX_QUERY}' "
            f"OR term LIKE '{WILDCARD_HEAD}%{WILDCARD_TAIL}'"
        ),
    ),
    # regexp expansion mirrored by RE2 fullmatch over the same
    # tokenization — the validate_regexp syntax subset is exactly
    # where Python re (the engine's expansion) and RE2 agree
    "regexp_bm25": _bm25_sql(
        (),
        "or",
        term_sql=(
            "SELECT DISTINCT term FROM tok "
            f"WHERE regexp_full_match(term, '{REGEXP_PATTERN}')"
        ),
    ),
    # disjunction-max: same contrib rows, best-match aggregate
    "dismax_bm25": _bm25_sql(
        DISMAX_TERMS,
        "or",
        score_expr=f"max(c) + {DISMAX_TIE} * (sum(c) - max(c))",
    ),
    # span-first: single-term BM25 over docs whose first occurrence
    # sits in the opening window (ord is 1-based, engine 0-based)
    "span_first": _bm25_sql(
        (SPANFIRST_TERM,),
        "or",
        extra_ctes=POS_TOK_CTE,
        cand_sql=(
            "SELECT doc_id FROM (SELECT doc_id, min(ord) AS mp FROM ptok "
            f"WHERE term = '{SPANFIRST_TERM}' GROUP BY doc_id) "
            f"WHERE mp <= {SPANFIRST_POS}"
        ),
    ),
    # hit counts: one count(*) per node shape over the same set
    # algebra the boolean rows use; the phrase count reuses the
    # positional phrase candidates
    "hit_counts": f"""
WITH {POS_TOK_CTE},
a AS (SELECT DISTINCT doc_id FROM ptok WHERE term = '{BOOL_AND_TERMS[0]}'
      INTERSECT SELECT DISTINCT doc_id FROM ptok WHERE term = '{BOOL_AND_TERMS[1]}'),
o AS (SELECT DISTINCT doc_id FROM ptok WHERE term = '{BOOL_OR_TERMS[0]}'
      UNION SELECT DISTINCT doc_id FROM ptok WHERE term = '{BOOL_OR_TERMS[1]}'),
nn AS (SELECT DISTINCT doc_id FROM ptok WHERE term = 'window'
       EXCEPT SELECT DISTINCT doc_id FROM ptok WHERE term = 'stream'),
p AS (SELECT DISTINCT doc_id FROM (
        {_phrase_cand_sql(PHRASE_TERMS)}
        INTERSECT SELECT DISTINCT doc_id FROM ptok WHERE term = 'merge'))
SELECT (SELECT count(*) FROM a)::BIGINT AS and_n,
       (SELECT count(*) FROM o)::BIGINT AS or_n,
       (SELECT count(*) FROM nn)::BIGINT AS not_n,
       (SELECT count(*) FROM p)::BIGINT AS phrase_n
""",
    # field collapsing: the shared BM25 body, then one row per lang
    # (row_number per-lang window, score desc / doc asc) and the top-k
    # group representatives in global order
    "collapse_by_lang": _bm25_sql(
        BM25_OR_TERMS,
        "or",
        final_sql=f""",
coll AS (SELECT doc_id, score, lang FROM (
           SELECT s.doc_id, s.score, d.lang,
                  row_number() OVER (PARTITION BY d.lang
                                     ORDER BY s.score DESC, s.doc_id) AS rn
           FROM scored s JOIN documents d USING (doc_id))
         WHERE rn = 1),
ranked AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk,
                  doc_id, lang FROM coll)
SELECT rk::BIGINT AS rank, doc_id::BIGINT AS doc_id, lang
FROM ranked WHERE rk <= {COLLAPSE_K} ORDER BY rk""",
    ),
    # facet stats: per-lang doc_len stats over the boolean match set;
    # dl == the engine's doc_len == token count per doc
    "facet_stats": f"""
WITH {TOK_CTE},
cand AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_OR_TERMS[0]}'
         UNION SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_OR_TERMS[1]}'),
dlc AS (SELECT doc_id, count(*)::BIGINT AS dl FROM tok GROUP BY doc_id)
SELECT d.lang, count(*)::BIGINT AS n, sum(dl)::BIGINT AS sum_dl,
       min(dl)::BIGINT AS min_dl, max(dl)::BIGINT AS max_dl,
       sum(dl)::DOUBLE / count(*)::DOUBLE AS mean_dl
FROM cand JOIN dlc USING (doc_id) JOIN documents d USING (doc_id)
GROUP BY d.lang ORDER BY d.lang
""",
    # collapse × filter: candidates restricted to the allowed langs
    # BEFORE grouping; scores stay global-stats BM25
    "collapse_filtered": _bm25_sql(
        BM25_OR_TERMS,
        "or",
        cand_sql=(
            "SELECT DISTINCT t.doc_id FROM tok t "
            "JOIN documents d USING (doc_id) WHERE t.term IN ("
            + ", ".join(f"'{t}'" for t in BM25_OR_TERMS)
            + ") AND d.lang IN ("
            + ", ".join(f"'{l}'" for l in COLLAPSE_FLT_LANGS) + ")"
        ),
        final_sql=""",
coll AS (SELECT doc_id, score, lang FROM (
           SELECT s.doc_id, s.score, d.lang,
                  row_number() OVER (PARTITION BY d.lang
                                     ORDER BY s.score DESC, s.doc_id) AS rn
           FROM scored s JOIN documents d USING (doc_id))
         WHERE rn = 1),
ranked AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk,
                  doc_id, lang FROM coll)
SELECT rk::BIGINT AS rank, doc_id::BIGINT AS doc_id, lang
FROM ranked WHERE rk <= 2 ORDER BY rk""",
    ),
    # minimum-should-match candidates = docs with >= m distinct query
    # terms; scoring stays the shared BM25 body over ALL present terms
    "msm_bm25": _bm25_sql(
        MSM_TERMS,
        "or",
        cand_sql=(
            "SELECT doc_id FROM (SELECT doc_id, count(DISTINCT term) AS c "
            "FROM tok WHERE term IN ("
            + ", ".join(f"'{t}'" for t in MSM_TERMS)
            + f") GROUP BY doc_id) WHERE c >= {MSM_M}"
        ),
    ),
    # scoring explain: the BM25 mirror's own CTEs re-emitted as
    # per-(doc, term) evidence rows — tf/dl/df are the integers the
    # formula consumed; float idf/contrib stay pytest-verified
    # (test_explain_matches_oracle) like every _ranked row's score
    "explain_bm25": f"""
WITH {TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('{BM25_OR_TERMS[0]}', '{BM25_OR_TERMS[1]}') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
ranked AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk, doc_id
           FROM scored)
SELECT r.rk::BIGINT AS rank, r.doc_id, t.term,
       t.tf::BIGINT AS tf, d.dl::BIGINT AS dl, f.df::BIGINT AS df
FROM ranked r JOIN tf t ON r.doc_id = t.doc_id
JOIN dl d ON r.doc_id = d.doc_id JOIN df f ON t.term = f.term
WHERE r.rk <= 10 ORDER BY r.rk, t.term
""",
    # grammar bracket-range filter: same BM25 body, candidates
    # restricted to docs whose token count (the docmap's doc_len) lies
    # in the closed interval — dl is the CTE the mirror already builds
    "range_filter_query": _bm25_sql(
        BM25_FILTERED_TERMS,
        "or",
        cand_sql=(
            f"SELECT DISTINCT t.doc_id FROM tok t JOIN dl ON t.doc_id = dl.doc_id "
            f"WHERE t.term IN ('{BM25_FILTERED_TERMS[0]}', '{BM25_FILTERED_TERMS[1]}') "
            f"AND dl.dl >= {RANGE_DL[0]} AND dl.dl <= {RANGE_DL[1]}"
        ),
    ),
    "bm25_tree": _bm25_sql(
        BM25_TREE_TERMS,
        "tree",
        cand_sql=(
            f"SELECT doc_id FROM (SELECT DISTINCT doc_id FROM tok WHERE term IN "
            f"('{BM25_TREE_TERMS[0]}', '{BM25_TREE_TERMS[1]}') "
            f"INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = '{BM25_TREE_TERMS[2]}')"
        ),
    ),
    "docstore_fetch": f"""
SELECT * FROM documents WHERE doc_id IN {DOCSTORE_IDS} ORDER BY doc_id
""",
    "fielded_search": f"""
WITH {TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('{FIELD_QUERIES["text"][0]}', '{FIELD_QUERIES["text"][1]}') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
tscore AS (
  SELECT tf.doc_id, sum(
    ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
      * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s
  GROUP BY tf.doc_id),
stok AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(source),
         '[^a-z0-9_]+'), x -> x <> '')) AS term FROM documents),
sdl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
        FROM documents d LEFT JOIN stok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
sstats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                  (SELECT sum(dl) FROM sdl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
stf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM stok
        WHERE term = '{FIELD_QUERIES["source"][0]}' GROUP BY doc_id, term),
sdf AS (SELECT term, count(*)::DOUBLE AS df FROM stf GROUP BY term),
sscore AS (
  SELECT stf.doc_id, sum(
    ln(1 + (s.n - sdf.df + 0.5) / (sdf.df + 0.5))
      * (stf.tf * ({K1} + 1)) / (stf.tf + {K1} * (1 - {B} + {B} * sdl.dl / s.avgdl))) AS score
  FROM stf JOIN sdf USING (term) JOIN sdl ON stf.doc_id = sdl.doc_id, sstats s
  GROUP BY stf.doc_id),
combined AS (
  SELECT coalesce(t.doc_id, u.doc_id) AS doc_id,
         {FIELD_WEIGHTS["text"]} * coalesce(t.score, 0) + {FIELD_WEIGHTS["source"]} * coalesce(u.score, 0) AS score
  FROM tscore t FULL OUTER JOIN sscore u ON t.doc_id = u.doc_id)
SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rank, doc_id
FROM combined ORDER BY score DESC, doc_id LIMIT 10
""",
    "more_like_this": f"""
WITH {TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
srctf AS (SELECT term, count(*)::DOUBLE AS tf FROM tok WHERE doc_id = {MLT_SRC} GROUP BY term),
alldf AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY term),
sel AS (SELECT s.term
        FROM srctf s JOIN alldf d USING (term), stats
        ORDER BY s.tf * ln(1 + (stats.n - d.df + 0.5) / (d.df + 0.5)) DESC, s.term
        LIMIT {MLT_TERMS}),
tfq AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
        WHERE term IN (SELECT term FROM sel) GROUP BY doc_id, term),
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tfq GROUP BY term),
contrib AS (
  SELECT tfq.doc_id,
         ln(1 + (s.n - dfq.df + 0.5) / (dfq.df + 0.5))
           * (tfq.tf * ({K1} + 1)) / (tfq.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tfq JOIN dfq USING (term) JOIN dl ON tfq.doc_id = dl.doc_id, stats s
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rank, doc_id
FROM scored WHERE doc_id <> {MLT_SRC} ORDER BY score DESC, doc_id LIMIT {MLT_K}
""",
    "bm25_filtered": _bm25_sql(
        BM25_FILTERED_TERMS,
        "or",
        cand_sql=(
            f"SELECT DISTINCT t.doc_id FROM tok t JOIN documents d USING (doc_id) "
            f"WHERE t.term IN ('{BM25_FILTERED_TERMS[0]}', '{BM25_FILTERED_TERMS[1]}') "
            f"AND d.lang IN ('{FILTER_LANGS[0]}', '{FILTER_LANGS[1]}')"
        ),
    ),
    # percentile_cont as manual interpolation over exact order stats —
    # the SAME float64 expression as stages.sketch.quantiles_cont
    "value_quantiles_cont": """
WITH v AS (SELECT round(value * 100)::BIGINT AS c FROM events),
s AS (SELECT c, row_number() OVER (ORDER BY c) - 1 AS r FROM v),
n AS (SELECT count(*)::BIGINT AS n FROM v)
SELECT 0.25::DOUBLE AS q,
       lo.c::DOUBLE + ((n.n - 1) * 0.25::DOUBLE - floor((n.n - 1) * 0.25::DOUBLE)) * (hi.c::DOUBLE - lo.c::DOUBLE) AS value
FROM n, s lo, s hi
WHERE lo.r = floor((n.n - 1) * 0.25::DOUBLE)::BIGINT
  AND hi.r = least(floor((n.n - 1) * 0.25::DOUBLE)::BIGINT + 1, n.n - 1)
UNION ALL
SELECT 0.5::DOUBLE AS q,
       lo.c::DOUBLE + ((n.n - 1) * 0.5::DOUBLE - floor((n.n - 1) * 0.5::DOUBLE)) * (hi.c::DOUBLE - lo.c::DOUBLE) AS value
FROM n, s lo, s hi
WHERE lo.r = floor((n.n - 1) * 0.5::DOUBLE)::BIGINT
  AND hi.r = least(floor((n.n - 1) * 0.5::DOUBLE)::BIGINT + 1, n.n - 1)
UNION ALL
SELECT 0.9::DOUBLE AS q,
       lo.c::DOUBLE + ((n.n - 1) * 0.9::DOUBLE - floor((n.n - 1) * 0.9::DOUBLE)) * (hi.c::DOUBLE - lo.c::DOUBLE) AS value
FROM n, s lo, s hi
WHERE lo.r = floor((n.n - 1) * 0.9::DOUBLE)::BIGINT
  AND hi.r = least(floor((n.n - 1) * 0.9::DOUBLE)::BIGINT + 1, n.n - 1)
ORDER BY q
""",
    # PERCENT_RANK over distinct values — the dense position scaled
    # by ONE float division of exact ints (identical both sides)
    "qty_percent_rank": """
WITH d AS (SELECT DISTINCT l_returnflag,
                  round(l_quantity * 100)::BIGINT AS value_cents
           FROM lineitem),
r AS (SELECT l_returnflag, value_cents,
             row_number() OVER (PARTITION BY l_returnflag
                                ORDER BY value_cents) AS rnk,
             count(*) OVER (PARTITION BY l_returnflag) AS n
      FROM d)
SELECT l_returnflag, value_cents,
       CASE WHEN n > 1
            THEN (rnk - 1)::DOUBLE / (n - 1)::DOUBLE ELSE 0.0 END
         AS pct_rank
FROM r ORDER BY l_returnflag, value_cents
""",
    # synonym expansion == plain OR over the variant set
    "synonym_bm25": _bm25_sql(("merge", "join"), "or"),
    # ^boost multiplies that term's idf: ((ln·boost)·num)/den — the
    # same left-assoc float order as bm25_component with idf' = idf·w
    "boosted_bm25": f"""
WITH {TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('merge', 'sort') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (CASE WHEN tf.term = 'merge' THEN 2.0 ELSE 1.0 END)
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
ranked AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk, doc_id
           FROM scored)
SELECT rk::BIGINT AS rank, doc_id FROM ranked WHERE rk <= 10 ORDER BY rk
""",
    # NTILE(4) bucket summary — tie-break-independent
    "order_ntile": """
WITH v AS (SELECT round(o_totalprice * 100)::BIGINT AS c,
                  o_orderkey
           FROM orders),
t AS (SELECT c, ntile(4) OVER (ORDER BY c, o_orderkey) AS tile FROM v)
SELECT tile::BIGINT AS tile, count(*)::BIGINT AS n_rows,
       min(c)::BIGINT AS min_value, max(c)::BIGINT AS max_value
FROM t GROUP BY 1 ORDER BY 1
""",
    # least squares from HUGEINT moments — the SAME two float
    # expressions as analytics.least_squares_cents
    "qty_price_regression": """
WITH m AS (
  SELECT count(*)::HUGEINT AS n,
         sum(round(l_quantity * 100)::BIGINT)::HUGEINT AS sx,
         sum(round(l_extendedprice * 100)::BIGINT)::HUGEINT AS sy,
         sum((round(l_quantity * 100)::BIGINT)::HUGEINT
             * (round(l_quantity * 100)::BIGINT)::HUGEINT) AS sxx,
         sum((round(l_quantity * 100)::BIGINT)::HUGEINT
             * (round(l_extendedprice * 100)::BIGINT)::HUGEINT) AS sxy
  FROM lineitem
)
SELECT n::BIGINT AS n,
       ((n * sxy - sx * sy)::DOUBLE / (n * sxx - sx * sx)::DOUBLE) AS slope,
       ((sy::DOUBLE - ((n * sxy - sx * sy)::DOUBLE / (n * sxx - sx * sx)::DOUBLE)
         * sx::DOUBLE) / n::DOUBLE) AS intercept
FROM m
""",
    # SQL set operations over key sets
    "docs_intersect": """
SELECT doc_id FROM documents WHERE lang = 'en'
INTERSECT
SELECT doc_id FROM documents WHERE source = 'src7'
ORDER BY doc_id
""",
    "docs_except": """
SELECT doc_id FROM documents WHERE lang = 'en'
EXCEPT
SELECT doc_id FROM documents WHERE source = 'src7'
ORDER BY doc_id
""",
    # date_trunc('month') aggregation — calendar-exact both sides
    "monthly_revenue": """
SELECT year(l_shipdate)::BIGINT AS year, month(l_shipdate)::BIGINT AS month,
       count(*)::BIGINT AS n_items,
       sum(round(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT
         AS rev_cents
FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
""",
    # per-group percentile_cont: manual interpolation over per-group
    # ranked values — the SAME float64 expression as the Ray side
    "group_quantiles_cont": """
WITH v AS (SELECT event_type, round(value * 100)::BIGINT AS c FROM events),
s AS (SELECT event_type, c,
             row_number() OVER (PARTITION BY event_type ORDER BY c) - 1 AS r
      FROM v),
g AS (SELECT event_type, count(*)::BIGINT AS n FROM v GROUP BY 1)
SELECT g.event_type, 0.5::DOUBLE AS q,
       lo.c::DOUBLE + ((g.n - 1) * 0.5::DOUBLE - floor((g.n - 1) * 0.5::DOUBLE)) * (hi.c::DOUBLE - lo.c::DOUBLE) AS value
FROM g
JOIN s lo ON lo.event_type = g.event_type
         AND lo.r = floor((g.n - 1) * 0.5::DOUBLE)::BIGINT
JOIN s hi ON hi.event_type = g.event_type
         AND hi.r = least(floor((g.n - 1) * 0.5::DOUBLE)::BIGINT + 1, g.n - 1)
UNION ALL
SELECT g.event_type, 0.9::DOUBLE AS q,
       lo.c::DOUBLE + ((g.n - 1) * 0.9::DOUBLE - floor((g.n - 1) * 0.9::DOUBLE)) * (hi.c::DOUBLE - lo.c::DOUBLE) AS value
FROM g
JOIN s lo ON lo.event_type = g.event_type
         AND lo.r = floor((g.n - 1) * 0.9::DOUBLE)::BIGINT
JOIN s hi ON hi.event_type = g.event_type
         AND hi.r = least(floor((g.n - 1) * 0.9::DOUBLE)::BIGINT + 1, g.n - 1)
ORDER BY event_type, q
""",
    # retrieve->rerank: the SAME BM25 CTE body as _bm25_sql (exact
    # float contract), then (n_matched desc, score desc, doc_id) top-10
    "rerank": f"""
WITH {TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('{RERANK_TERMS[0]}', '{RERANK_TERMS[1]}') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s
),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
top AS (SELECT doc_id, score,
               row_number() OVER (ORDER BY score DESC, doc_id) AS rk
        FROM scored),
cand AS (SELECT doc_id, score FROM top WHERE rk <= {RERANK_CANDIDATES}),
matched AS (SELECT doc_id, count(DISTINCT term)::BIGINT AS n_matched
            FROM tok WHERE term IN ('{RERANK_TERMS[0]}', '{RERANK_TERMS[1]}')
            GROUP BY doc_id)
SELECT row_number() OVER (ORDER BY m.n_matched DESC, c.score DESC, c.doc_id)::BIGINT
         AS rank,
       c.doc_id, m.n_matched
FROM cand c JOIN matched m USING (doc_id)
ORDER BY rank LIMIT {RERANK_K}
""",
    # same oracle as bm25_filtered — the grammar string must compile to
    # the identical (node, filter) pair
    "parsed_filter_query": _bm25_sql(
        BM25_FILTERED_TERMS,
        "or",
        cand_sql=(
            f"SELECT DISTINCT t.doc_id FROM tok t JOIN documents d USING (doc_id) "
            f"WHERE t.term IN ('{BM25_FILTERED_TERMS[0]}', '{BM25_FILTERED_TERMS[1]}') "
            f"AND d.lang IN ('{FILTER_LANGS[0]}', '{FILTER_LANGS[1]}')"
        ),
    ),
    "boolean_filtered": f"""
WITH {TOK_CTE},
i AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[0]}'
      INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[1]}')
SELECT i.doc_id FROM i JOIN documents d ON i.doc_id = d.doc_id
WHERE d.lang IN ('{FILTER_LANGS[0]}', '{FILTER_LANGS[1]}')
""",
    "boolean_deleted": f"""
WITH {TOK_CTE},
i AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[0]}'
      INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term = '{BOOL_AND_TERMS[1]}')
SELECT doc_id FROM i WHERE doc_id % {DELETE_MOD} <> {DELETE_REMAINDER}
""",
    "bm25_deleted": _bm25_sql(
        BM25_FILTERED_TERMS,
        "or",
        cand_sql=(
            f"SELECT DISTINCT doc_id FROM tok "
            f"WHERE term IN ('{BM25_FILTERED_TERMS[0]}', '{BM25_FILTERED_TERMS[1]}') "
            f"AND doc_id % {DELETE_MOD} <> {DELETE_REMAINDER}"
        ),
    ),
    "missing_term": f"""
WITH {TOK_CTE}
SELECT doc_id FROM tok WHERE term = '__never_present__'
""",
    "phrase": _bm25_sql(
        PHRASE_TERMS,
        "phrase",
        cand_sql=_phrase_cand_sql(PHRASE_TERMS),
        extra_ctes=POS_TOK_CTE,
    ),
    # mirrors PARSED_QUERY = '(merge OR sort) AND "table hash" AND NOT
    # stream' — same set ops over the shared positional tokenization
    "parsed_query": f"""
WITH {POS_TOK_CTE}
SELECT DISTINCT doc_id FROM (
  SELECT doc_id FROM (
    SELECT DISTINCT doc_id FROM ptok WHERE term IN ('merge', 'sort')
    INTERSECT
    {_phrase_cand_sql(("table", "hash"))}
  )
  EXCEPT
  SELECT DISTINCT doc_id FROM ptok WHERE term = 'stream'
)
""",
    "near": _bm25_sql(
        NEAR_TERMS,
        "near",
        cand_sql=_near_cand_sql(*NEAR_TERMS, NEAR_SLOP, False),
        extra_ctes=POS_TOK_CTE,
    ),
    "near_ordered": _bm25_sql(
        NEAR_ORD_TERMS,
        "near",
        cand_sql=_near_cand_sql(*NEAR_ORD_TERMS, NEAR_ORD_SLOP, True),
        extra_ctes=POS_TOK_CTE,
    ),
    "near_all": _bm25_sql(
        NEAR_ALL_TERMS,
        "near",
        cand_sql=(
            f"SELECT DISTINCT ta.doc_id FROM ptok ta "
            f"JOIN ptok tb ON tb.doc_id = ta.doc_id "
            f"JOIN ptok tc ON tc.doc_id = ta.doc_id "
            f"WHERE ta.term = '{NEAR_ALL_TERMS[0]}' "
            f"AND tb.term = '{NEAR_ALL_TERMS[1]}' "
            f"AND tc.term = '{NEAR_ALL_TERMS[2]}' "
            f"AND greatest(ta.ord, tb.ord, tc.ord) "
            f"- least(ta.ord, tb.ord, tc.ord) <= {NEAR_ALL_SLOP}"
        ),
        extra_ctes=POS_TOK_CTE,
    ),
    "media_features": f"""
SELECT media_id, kind, sha256(decode(payload)) AS payload_sha,
       octet_length(payload)::BIGINT AS payload_bytes
FROM read_parquet('{MEDIA_TABLE_PATH}')
""",
    # stub resize reconstructed in SQL: fit-in-box dims (floor, min
    # side clamp 1) and the stride sample idx = (i*plen)//n_out over
    # the ASCII payload — byte-identical to MediaResize._resize_stub
    "media_resize": f"""
WITH m AS (
  SELECT media_id, kind, format, width::BIGINT AS w, height::BIGINT AS h,
         duration_ms, decode(payload) AS s,
         octet_length(payload)::BIGINT AS plen
  FROM read_parquet('{MEDIA_TABLE_PATH}')
), dims AS (
  SELECT *, greatest(1, CAST(floor(w * least(1.0, 32.0 / greatest(greatest(w, h), 1))) AS BIGINT)) AS new_w,
            greatest(1, CAST(floor(h * least(1.0, 32.0 / greatest(greatest(w, h), 1))) AS BIGINT)) AS new_h
  FROM m
), sized AS (
  SELECT *, CASE WHEN w <= 0 OR h <= 0 OR plen = 0 THEN 0
                 ELSE greatest(1, CAST(floor(plen * (new_w * new_h) / (w * h)) AS BIGINT)) END AS n_out
  FROM dims
), exploded AS (
  SELECT media_id, kind, format, new_w, new_h, duration_ms, plen, n_out, s,
         unnest(generate_series(0, n_out - 1)) AS i
  FROM sized
)
SELECT media_id, kind, format, new_w::INT AS width, new_h::INT AS height,
       duration_ms,
       sha256(string_agg(substr(s, CAST((i * plen) // n_out AS BIGINT) + 1, 1),
                         '' ORDER BY i)) AS payload_sha,
       n_out AS payload_bytes
FROM exploded
GROUP BY media_id, kind, format, new_w, new_h, duration_ms, n_out
""",
    # stub frame sampling reconstructed in SQL: span = max(1, plen//4),
    # frame f = payload[f*span:(f+1)*span], stamp = dur*f//4 —
    # byte-identical to FrameSample.__call__
    "media_frames": f"""
WITH v AS (
  SELECT media_id, duration_ms::BIGINT AS dur, decode(payload) AS s,
         greatest(1, octet_length(payload)::BIGINT // 4) AS span
  FROM read_parquet('{VIDEO_TABLE_PATH}') WHERE kind = 'video'
)
SELECT media_id, i::INT AS frame_no,
       CAST(greatest(dur, 0) * i // 4 AS INT) AS frame_ms,
       sha256(substr(s, i * span + 1, span)) AS payload_sha,
       length(substr(s, i * span + 1, span))::BIGINT AS payload_bytes
FROM v, generate_series(0, 3) AS g(i)
""",
    # winnowing fingerprint: FNV-1a per token folded in a recursive
    # CTE (HUGEINT mod-2^64 == numpy uint64 wraparound), trigram
    # window hash h0*P^2 + h1*P + h2 stepwise-mod, min per doc; docs
    # with 1-2 tokens xor their token hashes; 0 tokens -> 0.  Output
    # is the int64 BIT PATTERN of the uint64 value (both sides).
    "fingerprint": f"""
WITH {_FNV_TOKS_CTE},
{_WINS_CTE},
mins AS (SELECT doc_id, min(win) AS v FROM wins GROUP BY doc_id),
xors AS (
  SELECT doc_id, bit_xor(h) AS v
  FROM th GROUP BY doc_id HAVING count(*) < 3
),
fp AS (
  SELECT d.doc_id, COALESCE(m.v, x.v, CAST(0 AS HUGEINT)) AS v
  FROM documents d
  LEFT JOIN mins m ON m.doc_id = d.doc_id
  LEFT JOIN xors x ON x.doc_id = d.doc_id
)
SELECT doc_id,
       CAST(CASE WHEN v >= CAST(9223372036854775808 AS HUGEINT)
                 THEN v - CAST(18446744073709551616 AS HUGEINT)
                 ELSE v END AS BIGINT) AS fingerprint
FROM fp
""",
    # MinHash+LSH near-dup pairs, EXACT mirror: 128 (a*x+b) mod 2^64
    # permutations over the trigram shingle hashes (x = win mod
    # 2^61-1), min per (doc, perm); candidates = equal Horner bucket
    # fold of any 4-row band; est_jaccard = matching coords / 128.0
    # (a power of two — the double is exact); threshold 0.5
    "minhash_pairs": f"""
WITH {_FNV_TOKS_CTE},
{_WINS_CTE},
xs AS (SELECT doc_id, win % CAST(2305843009213693951 AS HUGEINT) AS x FROM wins),
perms(j, a, b) AS (VALUES
    {_minhash_perm_values()}
),
sig AS (
  SELECT doc_id, p.j,
         min((p.a * xs.x % CAST(18446744073709551616 AS HUGEINT) + p.b)
             % CAST(18446744073709551616 AS HUGEINT)) AS s
  FROM xs, perms p GROUP BY doc_id, p.j
),
bvals AS (
  SELECT doc_id, j // 4 AS band, list(s ORDER BY j) AS v
  FROM sig GROUP BY doc_id, j // 4
),
bkeys AS (
  SELECT doc_id, band,
    (( (( (v[1] * 1099511628211 + v[2]) % CAST(18446744073709551616 AS HUGEINT) )
        * 1099511628211 + v[3]) % CAST(18446744073709551616 AS HUGEINT) )
     * 1099511628211 + v[4]) % CAST(18446744073709551616 AS HUGEINT) AS bucket
  FROM bvals
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bkeys a JOIN bkeys b
    ON a.band = b.band AND a.bucket = b.bucket AND a.doc_id < b.doc_id
)
SELECT c.doc_a, c.doc_b,
       sum(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END) / 128.0 AS est_jaccard
FROM cand c
JOIN sig sa ON sa.doc_id = c.doc_a
JOIN sig sb ON sb.doc_id = c.doc_b AND sb.j = sa.j
GROUP BY c.doc_a, c.doc_b
HAVING sum(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END) / 128.0 >= 0.5
""",
    # SimHash near-dup pairs, EXACT mirror: per-bit majority over
    # token-occurrence FNV hashes -> 64-bit simhash; candidates share
    # any 16-bit band; hamming = bit_count over int64 bit patterns
    "simhash_pairs": f"""
WITH {_FNV_TOKS_CTE},
pows(bit, p) AS (VALUES
    {_POW2_VALUES}
),
bits AS (
  SELECT t.doc_id, pw.bit,
         sum(CASE WHEN (t.h // pw.p) % 2 = 1 THEN 1 ELSE 0 END) AS s,
         count(*) AS c
  FROM th t, pows pw
  GROUP BY t.doc_id, pw.bit
),
sims AS (
  SELECT b.doc_id,
         sum(CASE WHEN 2 * b.s > b.c THEN pw.p ELSE CAST(0 AS HUGEINT) END) AS sh
  FROM bits b JOIN pows pw USING (bit)
  GROUP BY b.doc_id
),
bandpow(band, bp) AS (VALUES
    {_BANDPOW_VALUES}
),
bnd AS (
  SELECT s.doc_id, b.band, (s.sh // b.bp) % 65536 AS bucket, s.sh
  FROM sims s, bandpow b
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b, a.sh AS ha, b.sh AS hb
  FROM bnd a JOIN bnd b
    ON a.band = b.band AND a.bucket = b.bucket AND a.doc_id < b.doc_id
),
ham AS (
  SELECT doc_a, doc_b,
         bit_count(xor(
           CAST(CASE WHEN ha >= CAST(9223372036854775808 AS HUGEINT)
                     THEN ha - CAST(18446744073709551616 AS HUGEINT)
                     ELSE ha END AS BIGINT),
           CAST(CASE WHEN hb >= CAST(9223372036854775808 AS HUGEINT)
                     THEN hb - CAST(18446744073709551616 AS HUGEINT)
                     ELSE hb END AS BIGINT)))::BIGINT AS hamming
  FROM cand
)
SELECT doc_a, doc_b, hamming FROM ham WHERE hamming <= 3
""",
    "dedup_exact": "SELECT min(doc_id)::BIGINT AS doc_id FROM documents GROUP BY sha256(text)",
    "dedup_incremental": """
SELECT n.doc_id, sha256(n.text) AS content_sha
FROM documents n
WHERE n.doc_id % 3 <> 0
  AND NOT EXISTS (SELECT 1 FROM documents s
                  WHERE s.doc_id % 3 = 0 AND s.text = n.text)
ORDER BY n.doc_id
""",
    "content_sha": "SELECT doc_id, sha256(text) AS content_sha FROM documents",
    "lang_counts": "SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang",
    "quality": _quality_sql(),
    "quality_gate": f"""
WITH q AS ({_quality_sql()}),
qq AS (SELECT d.lang, q.doc_id,
              CAST(round(q.quality * 1000000) AS BIGINT) AS q_int
       FROM q JOIN documents d ON q.doc_id = d.doc_id),
med AS (SELECT lang, quantile_disc(q_int, 0.5) AS m FROM qq GROUP BY lang)
SELECT qq.doc_id, qq.lang, qq.q_int
FROM qq JOIN med ON qq.lang = med.lang
WHERE qq.q_int >= med.m
ORDER BY qq.doc_id
""",
    "top_quality_per_lang": f"""
WITH q AS ({_quality_sql()}),
qq AS (SELECT d.lang, q.doc_id,
              CAST(round(q.quality * 1000000) AS BIGINT) AS q_int
       FROM q JOIN documents d ON q.doc_id = d.doc_id),
r AS (SELECT lang, doc_id, q_int,
             row_number() OVER (PARTITION BY lang
                                ORDER BY q_int DESC, doc_id) AS rn
      FROM qq)
SELECT lang, doc_id, q_int, rn::BIGINT AS rn FROM r WHERE rn <= 5
ORDER BY lang, rn
""",
    "weighted_sample": f"""
WITH q AS ({_quality_sql()})
SELECT doc_id, quality,
       ((doc_id::HUGEINT * 6364136223846793005) % 18446744073709551616)::DOUBLE
         < quality * 18446744073709551616.0 AS keep
FROM q
""",
    "langid": _langid_sql(),
    "windowed_agg": """
SELECT (epoch_us(ts) // 300000000) * 300 AS window_start,
       event_type,
       count(*)::BIGINT AS n_events,
       sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS sum_cents
FROM events GROUP BY 1, 2
""",
    "hopping_window": """
WITH ev AS (SELECT epoch_us(ts)::BIGINT AS us, event_type,
                   CAST(round(value * 100) AS BIGINT) AS cents FROM events),
hops AS (SELECT unnest(range(0, 3))::BIGINT AS i),
x AS (SELECT (ev.us // 100000000) * 100000000 - hops.i * 100000000 AS s_us,
             ev.event_type, ev.cents, ev.us
      FROM ev CROSS JOIN hops)
SELECT s_us // 1000000 AS window_start, event_type,
       count(*)::BIGINT AS n_events, sum(cents)::BIGINT AS sum_cents
FROM x WHERE s_us > us - 300000000 AND s_us >= 0
GROUP BY 1, 2
""",
    "funnel": _funnel_sql(FUNNEL_STEPS),
    "retention": """
WITH p AS (SELECT user_id, epoch_us(ts) // 86400000000 AS per FROM events),
f AS (SELECT user_id, min(per)::BIGINT AS cohort FROM p GROUP BY user_id),
a AS (SELECT DISTINCT p.user_id, f.cohort, (p.per - f.cohort)::BIGINT AS k
      FROM p JOIN f USING (user_id))
SELECT cohort, k, count(*)::BIGINT AS n_active FROM a GROUP BY cohort, k
ORDER BY cohort, k
""",
    "sessionize": """
WITH o AS (
  SELECT user_id, event_id, value, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_us
  FROM events),
marked AS (
  SELECT *, CASE WHEN prev_us IS NULL OR us - prev_us > 1800000000 THEN 1 ELSE 0 END AS new_s
  FROM o),
sess AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY us, event_id
                             ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked)
SELECT user_id, session_id::BIGINT AS session_id,
       min(us)::BIGINT AS session_start_us,
       max(us)::BIGINT AS session_end_us,
       count(*)::BIGINT AS n_events,
       sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS sum_cents
FROM sess GROUP BY user_id, session_id
""",
    "running_windows": """
SELECT event_id, user_id, epoch_us(ts)::BIGINT AS ts_us,
       row_number() OVER w::BIGINT AS rn,
       sum(CAST(round(value * 100) AS BIGINT))
         OVER (w ROWS UNBOUNDED PRECEDING)::BIGINT AS run_sum_cents,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1)::BIGINT AS prev_gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
""",
    "asof_join": """
SELECT l.event_id, l.user_id, epoch_us(l.ts)::BIGINT AS ts_us, l.value,
       (SELECT r.value FROM events r
        WHERE r.user_id = l.user_id AND r.event_type = 'view' AND r.ts < l.ts
        ORDER BY r.ts DESC, r.event_id DESC LIMIT 1) AS asof_value
FROM events l WHERE l.event_type = 'purchase'
""",
    "bpeish_tokens": r"""
SELECT doc_id,
       length(regexp_extract_all(text,
         '''(?:[sdmt]|ll|ve|re)| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+'))::BIGINT
         AS n_bpeish
FROM documents
""",
    "embedding_neardup": f"""
SELECT a.vec_id::BIGINT AS doc_a, b.vec_id::BIGINT AS doc_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {EMB_NEARDUP_THRESHOLD}
""",
    "jaccard_pairs": f"""
WITH {POS_TOK_CTE},
sh AS (SELECT DISTINCT t0.doc_id, t0.term || ' ' || t1.term || ' ' || t2.term AS shingle
       FROM ptok t0 JOIN ptok t1 ON t1.doc_id = t0.doc_id AND t1.ord = t0.ord + 1
                    JOIN ptok t2 ON t2.doc_id = t0.doc_id AND t2.ord = t0.ord + 2),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*)::BIGINT AS i
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT da::BIGINT AS doc_a, db::BIGINT AS doc_b,
       i::DOUBLE / (sa.n + sb.n - i) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = da JOIN sz sb ON sb.doc_id = db
WHERE i::DOUBLE / (sa.n + sb.n - i) >= {JACCARD_JOIN_THRESHOLD}
""",
    "distinct_users_by_type": """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_distinct
FROM events GROUP BY event_type ORDER BY event_type
""",
    "interval_join": f"""
SELECT a.event_id::BIGINT AS a_id, b.event_id::BIGINT AS b_id,
       (epoch_us(b.ts) - epoch_us(a.ts))::BIGINT AS gap_us
FROM events a JOIN events b ON a.user_id = b.user_id
WHERE a.event_type = '{INTERVAL_JOIN_TYPES[0]}'
  AND b.event_type = '{INTERVAL_JOIN_TYPES[1]}'
  AND b.ts >= a.ts
  AND epoch_us(b.ts) - epoch_us(a.ts) <= {INTERVAL_JOIN_WINDOW_SEC}::BIGINT * 1000000
ORDER BY a_id, b_id
""",
    # TF-IDF keyword extraction — score = tf * ln(N/df), identical
    # operation order both sides (int->double, divide, ln, multiply);
    # df==N (idf 0) rows excluded on both sides
    "tfidf_keywords": f"""
WITH {TOK_CTE},
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term),
n AS (SELECT count(*)::BIGINT AS n FROM documents),
s AS (SELECT tf.doc_id, tf.term, tf.tf * ln(n.n::DOUBLE / df.df) AS score
      FROM tf JOIN df USING (term) CROSS JOIN n
      WHERE df.df < n.n),
r AS (SELECT doc_id, term, score,
             row_number() OVER (PARTITION BY doc_id
                                ORDER BY score DESC, term) AS rank
      FROM s)
SELECT doc_id, term, rank::BIGINT AS rank, score FROM r WHERE rank <= 3
ORDER BY doc_id, rank
""",
    # directed containment |Sa ∩ Sb| / |Sa| — same shingle CTEs as
    # jaccard_pairs, same single int/int double division both sides
    "containment_pairs": f"""
WITH {POS_TOK_CTE},
sh AS (SELECT DISTINCT t0.doc_id, t0.term || ' ' || t1.term || ' ' || t2.term AS shingle
       FROM ptok t0 JOIN ptok t1 ON t1.doc_id = t0.doc_id AND t1.ord = t0.ord + 1
                    JOIN ptok t2 ON t2.doc_id = t0.doc_id AND t2.ord = t0.ord + 2),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*)::BIGINT AS i
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id <> b.doc_id
          GROUP BY 1, 2)
SELECT da::BIGINT AS doc_a, db::BIGINT AS doc_b,
       i::DOUBLE / sa.n AS containment
FROM inter JOIN sz sa ON sa.doc_id = da
WHERE i::DOUBLE / sa.n >= {CONTAINMENT_THRESHOLD}
ORDER BY doc_a, doc_b
""",
    "neardup_keep": f"""
WITH RECURSIVE {POS_TOK_CTE},
sh AS (SELECT DISTINCT t0.doc_id, t0.term || ' ' || t1.term || ' ' || t2.term AS shingle
       FROM ptok t0 JOIN ptok t1 ON t1.doc_id = t0.doc_id AND t1.ord = t0.ord + 1
                    JOIN ptok t2 ON t2.doc_id = t0.doc_id AND t2.ord = t0.ord + 2),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*)::BIGINT AS i
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
pairs AS (SELECT da, db FROM inter JOIN sz sa ON sa.doc_id = da
          JOIN sz sb ON sb.doc_id = db
          WHERE i::DOUBLE / (sa.n + sb.n - i) >= {JACCARD_JOIN_THRESHOLD}),
edges AS (SELECT da AS u, db AS v FROM pairs UNION SELECT db, da FROM pairs),
reach(u, v) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM edges)
  UNION
  SELECT e.u, r.v FROM edges e JOIN reach r ON r.u = e.v
)
SELECT u::BIGINT AS doc_id, min(v)::BIGINT AS keep_id FROM reach GROUP BY u
""",
    "pack_sequences": f"""
WITH tc AS (SELECT doc_id,
       len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
           x -> x <> ''))::BIGINT AS n_tokens FROM documents),
p AS (SELECT doc_id, n_tokens,
      (sum(n_tokens) OVER (ORDER BY doc_id) - n_tokens) AS pre FROM tc)
SELECT doc_id, n_tokens, (pre // {PACK_MAX_TOKENS})::BIGINT AS bin,
       (pre % {PACK_MAX_TOKENS})::BIGINT AS bin_offset
FROM p
""",
    "hash_split": f"""
WITH h AS (SELECT doc_id,
    (doc_id::HUGEINT * 6364136223846793005) % 18446744073709551616::HUGEINT AS hv
    FROM documents)
SELECT doc_id::BIGINT AS doc_id,
       CASE WHEN hv < {int(np.cumsum([SPLIT_RATIOS['train']])[0] * 2**64)}::HUGEINT THEN 'train'
            WHEN hv < {int(np.cumsum([SPLIT_RATIOS['train'], SPLIT_RATIOS['val']])[1] * 2**64)}::HUGEINT THEN 'val'
            ELSE 'test' END AS split
FROM h
""",
    "decontaminate": f"""
WITH {POS_TOK_CTE},
ng0 AS (SELECT doc_id, term,
        {', '.join(f'lead(term, {j}) OVER (PARTITION BY doc_id ORDER BY ord) AS t{j}' for j in range(1, DECON_W))}
        FROM ptok),
ng AS (SELECT doc_id,
       {" || ' ' || ".join(["term"] + [f"t{j}" for j in range(1, DECON_W)])} AS g
       FROM ng0 WHERE t{DECON_W - 1} IS NOT NULL),
ngd AS (SELECT DISTINCT doc_id, g FROM ng),
bench AS (SELECT DISTINCT g FROM ng WHERE doc_id < {DECON_BENCH_MAX}),
cnt AS (SELECT doc_id, count(*)::BIGINT AS n_shingles FROM ngd GROUP BY doc_id),
ov AS (SELECT n.doc_id, count(*)::BIGINT AS n_overlap
       FROM ngd n JOIN bench b ON n.g = b.g GROUP BY n.doc_id)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(c.n_shingles, 0)::BIGINT AS n_shingles,
       coalesce(o.n_overlap, 0)::BIGINT AS n_overlap,
       coalesce(o.n_overlap, 0) >= 1 AS contaminated
FROM documents d
LEFT JOIN cnt c ON d.doc_id = c.doc_id
LEFT JOIN ov o ON d.doc_id = o.doc_id
""",
    "substring_dedup": f"""
WITH {POS_TOK_CTE},
ng0 AS (SELECT doc_id, term,
        {', '.join(f'lead(term, {j}) OVER (PARTITION BY doc_id ORDER BY ord) AS t{j}' for j in range(1, SUBSTR_W))}
        FROM ptok),
ng AS (SELECT doc_id,
       {" || ' ' || ".join(["term"] + [f"t{j}" for j in range(1, SUBSTR_W)])} AS g
       FROM ng0 WHERE t{SUBSTR_W - 1} IS NOT NULL),
ngd AS (SELECT DISTINCT doc_id, g FROM ng),
firsts AS (SELECT g, min(doc_id) AS fd, count(*) AS n FROM ngd GROUP BY g),
cnt AS (SELECT doc_id, count(*)::BIGINT AS n_grams FROM ngd GROUP BY doc_id),
dup AS (SELECT d.doc_id,
        sum(CASE WHEN f.n >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup_grams,
        max(CASE WHEN f.fd < d.doc_id THEN 1 ELSE 0 END) AS flagged
        FROM ngd d JOIN firsts f ON d.g = f.g GROUP BY d.doc_id)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(c.n_grams, 0)::BIGINT AS n_grams,
       coalesce(u.n_dup_grams, 0)::BIGINT AS n_dup_grams,
       coalesce(u.flagged, 0) = 0 AS keep
FROM documents d
LEFT JOIN cnt c ON d.doc_id = c.doc_id
LEFT JOIN dup u ON d.doc_id = u.doc_id
""",
    "pack_sequences_hash": f"""
WITH tc AS (SELECT doc_id,
       len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
           x -> x <> ''))::BIGINT AS n_tokens FROM documents),
p AS (SELECT doc_id, n_tokens,
      (sum(n_tokens) OVER (ORDER BY
          (doc_id::HUGEINT * 6364136223846793005) % 18446744073709551616
      ) - n_tokens) AS pre FROM tc)
SELECT doc_id, n_tokens, (pre // {PACK_MAX_TOKENS})::BIGINT AS bin,
       (pre % {PACK_MAX_TOKENS})::BIGINT AS bin_offset
FROM p
""",
    # the 0xFE search-and-display composition: BM25 OR top-10 rank +
    # earliest-any-term ±window snippet over the docstore text — the
    # anchor is min(first occurrence) across BOTH query terms
    "search_snippets": f"""
WITH {TOK_CTE}, {POS_TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('{BM25_OR_TERMS[0]}', '{BM25_OR_TERMS[1]}') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
topk AS (SELECT row_number() OVER (ORDER BY score DESC, doc_id) AS rk, doc_id
         FROM scored ORDER BY score DESC, doc_id LIMIT 10),
first AS (SELECT doc_id, min(ord) - 1 AS pos FROM ptok
          WHERE term IN ('{BM25_OR_TERMS[0]}', '{BM25_OR_TERMS[1]}')
            AND doc_id IN (SELECT doc_id FROM topk)
          GROUP BY doc_id)
SELECT t.rk::BIGINT AS rank, f.doc_id, f.pos::BIGINT AS pos,
       string_agg(p.term, ' ' ORDER BY p.ord) AS snippet
FROM topk t JOIN first f ON t.doc_id = f.doc_id
     JOIN ptok p ON p.doc_id = f.doc_id
     AND p.ord - 1 BETWEEN f.pos - {SNIPPET_WINDOW} AND f.pos + {SNIPPET_WINDOW}
GROUP BY t.rk, f.doc_id, f.pos
""",
    "snippets": f"""
WITH {TOK_CTE}, {POS_TOK_CTE},
dl AS (SELECT d.doc_id, count(t.term)::DOUBLE AS dl
       FROM documents d LEFT JOIN tok t ON d.doc_id = t.doc_id GROUP BY d.doc_id),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                 (SELECT sum(dl) FROM dl) / (SELECT count(*) FROM documents)::DOUBLE AS avgdl),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       WHERE term IN ('{BM25_TERM}') GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
           * (tf.tf * ({K1} + 1)) / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl ON tf.doc_id = dl.doc_id, stats s),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
topk AS (SELECT doc_id FROM scored ORDER BY score DESC, doc_id LIMIT 10),
first AS (SELECT doc_id, min(ord) - 1 AS pos FROM ptok
          WHERE term = '{BM25_TERM}' AND doc_id IN (SELECT doc_id FROM topk)
          GROUP BY doc_id)
SELECT f.doc_id, f.pos::BIGINT AS pos,
       string_agg(p.term, ' ' ORDER BY p.ord) AS snippet
FROM first f JOIN ptok p ON p.doc_id = f.doc_id
     AND p.ord - 1 BETWEEN f.pos - {SNIPPET_WINDOW} AND f.pos + {SNIPPET_WINDOW}
GROUP BY f.doc_id, f.pos
""",
    "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       count(*)::BIGINT AS count_order,
       sum(CAST(round(l_quantity * 100) AS BIGINT))::BIGINT AS sum_qty_cents,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT AS sum_base_cents,
       sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT))::BIGINT AS sum_disc_cents,
       sum(CAST(round(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100) AS BIGINT))::BIGINT AS sum_charge_cents
FROM lineitem WHERE l_shipdate <= TIMESTAMP '2001-06-30 00:00:00'
GROUP BY l_returnflag, l_linestatus
""",
    "revenue_by_nation": """
SELECT n.n_name, count(*)::BIGINT AS n_orders,
       sum(CAST(round(o.o_totalprice * 100) AS BIGINT))::BIGINT AS total_cents
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
""",
    # GROUP BY ROLLUP mirror — 'ALL' sentinels match the Ray side's
    # subtotal rows (lang/source are never NULL in the corpus)
    "rollup_docs": """
SELECT coalesce(lang, 'ALL') AS lang, coalesce(source, 'ALL') AS source,
       count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS chars_total
FROM documents
GROUP BY ROLLUP(lang, source)
ORDER BY lang, source
""",
    "cube_docs": """
SELECT coalesce(lang, 'ALL') AS lang, coalesce(source, 'ALL') AS source,
       count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS chars_total
FROM documents
GROUP BY CUBE(lang, source)
ORDER BY lang, source
""",
    "top_orders_per_cust": """
SELECT o_custkey::BIGINT AS o_custkey, o_orderkey::BIGINT AS o_orderkey,
       total_cents, rn::BIGINT AS rn
FROM (
  SELECT o_custkey, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents,
         row_number() OVER (
           PARTITION BY o_custkey
           ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey
         ) AS rn
  FROM orders
)
WHERE rn <= 3
ORDER BY o_custkey, rn
""",
    # TPC-H Q5 shape — same per-row integer-cent rounding as the Ray
    # pipeline, so the grouped sums are exact
    "local_supplier_volume": """
SELECT n.n_name,
       sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT))::BIGINT AS revenue_cents
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = 'ASIA'
  AND c.c_nationkey = s.s_nationkey
  AND o.o_orderdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND o.o_orderdate <  TIMESTAMP '1997-01-01 00:00:00'
GROUP BY n.n_name
ORDER BY revenue_cents DESC, n_name
""",
    # TPC-H Q10 shape — top-20 by (revenue desc, custkey asc), exact
    "returned_item_revenue": """
SELECT c.c_custkey::BIGINT AS c_custkey, c.c_name,
       sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT))::BIGINT AS revenue_cents,
       CAST(round(c.c_acctbal * 100) AS BIGINT)::BIGINT AS acctbal_cents,
       n.n_name
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE l.l_returnflag = 'R'
  AND o.o_orderdate >= TIMESTAMP '1996-10-01 00:00:00'
  AND o.o_orderdate <  TIMESTAMP '1997-01-01 00:00:00'
GROUP BY c.c_custkey, c.c_name, c.c_acctbal, n.n_name
ORDER BY revenue_cents DESC, c_custkey LIMIT 20
""",
    # TPC-H Q14 shape — exact integer-cent sums; promo_pct is the one
    # float division 100*promo/total of the two exact BIGINTs, so the
    # double math is bit-identical on both sides
    "promo_revenue": """
WITH j AS (
  SELECT CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT) AS cents,
         (p.p_type = 'PROMO') AS is_promo
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  WHERE l.l_shipdate >= TIMESTAMP '1996-09-01 00:00:00'
    AND l.l_shipdate <  TIMESTAMP '1996-10-01 00:00:00'
)
SELECT coalesce(sum(CASE WHEN is_promo THEN cents END), 0)::BIGINT AS promo_cents,
       coalesce(sum(cents), 0)::BIGINT AS total_cents,
       CASE WHEN coalesce(sum(cents), 0) = 0 THEN 0.0
            ELSE 100.0 * coalesce(sum(CASE WHEN is_promo THEN cents END), 0)::DOUBLE
                 / sum(cents)::DOUBLE END AS promo_pct
FROM j
""",
    "forecast_revenue": """
SELECT coalesce(sum(CAST(round(l_extendedprice * l_discount * 100) AS BIGINT)), 0)::BIGINT AS revenue_cents,
       count(*)::BIGINT AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '2001-01-01 00:00:00'
  AND l_shipdate <  TIMESTAMP '2002-01-01 00:00:00'
  AND l_discount >= 0.05 - 1e-9 AND l_discount <= 0.07 + 1e-9
  AND l_quantity < 24
""",
    "shipping_priority": """
SELECT l.l_orderkey::BIGINT AS l_orderkey,
       sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT))::BIGINT AS revenue_cents,
       o.o_orderdate, o.o_orderpriority
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1998-06-01 00:00:00'
  AND l.l_shipdate  > TIMESTAMP '1998-06-01 00:00:00'
GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY revenue_cents DESC, l_orderkey LIMIT 10
""",
    "order_priority": """
SELECT o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS total_cents
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
""",
    "inactive_customers": """
SELECT c_mktsegment,
       count(*)::BIGINT AS n_customers,
       sum(CAST(round(c_acctbal * 100) AS BIGINT))::BIGINT AS acctbal_cents
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '1998-01-01 00:00:00')
GROUP BY c_mktsegment
""",
    "pii_scrub": r"""
WITH s1 AS (SELECT doc_id,
  length(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT AS n_email,
  regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t1
  FROM documents),
s2 AS (SELECT doc_id, n_email,
  length(regexp_extract_all(t1, '[0-9]{6,}'))::BIGINT AS n_number,
  regexp_replace(t1, '[0-9]{6,}', '<NUM>', 'g') AS scrubbed FROM s1)
SELECT doc_id, n_email, n_number, scrubbed FROM s2
""",
    "grep_lines": f"""
WITH s AS (SELECT doc_id, string_split(text, chr(10)) AS lines FROM documents)
SELECT doc_id, g.i::BIGINT AS line_no, lines[g.i] AS line
FROM s, LATERAL (SELECT unnest(generate_series(1, len(lines))) AS i) g
WHERE regexp_matches(lines[g.i], '{GREP_PATTERN}')
""",
    "regex_count": f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{REGEX_COUNT_PATTERN}'))::BIGINT AS n_matches,
       regexp_extract(text, '{REGEX_EXTRACT_PATTERN}', 0) AS first_match
FROM documents
""",
    "top_bigrams": f"""
WITH {POS_TOK_CTE},
bg AS (SELECT a.term ta, b.term tb FROM ptok a JOIN ptok b
       ON b.doc_id = a.doc_id AND b.ord = a.ord + 1)
SELECT ta, tb, count(*)::BIGINT AS n FROM bg GROUP BY ta, tb
ORDER BY n DESC, ta, tb LIMIT 20
""",
    "pmi_bigrams": f"""
WITH {POS_TOK_CTE},
bg AS (SELECT a.term ta, b.term tb, count(*)::BIGINT AS n_ab
       FROM ptok a JOIN ptok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
       GROUP BY a.term, b.term HAVING count(*) >= 5),
tot AS (SELECT count(*)::BIGINT AS n FROM ptok),
tbg AS (SELECT count(*)::BIGINT AS n FROM ptok a JOIN ptok b
        ON b.doc_id = a.doc_id AND b.ord = a.ord + 1),
uni AS (SELECT term, count(*)::BIGINT AS n FROM ptok GROUP BY term)
SELECT bg.ta, bg.tb, bg.n_ab, ua.n AS n_a, ub.n AS n_b,
       ln((CAST(bg.n_ab AS DOUBLE) / (SELECT n FROM tbg)) /
          ((CAST(ua.n AS DOUBLE) / (SELECT n FROM tot))
           * (CAST(ub.n AS DOUBLE) / (SELECT n FROM tot)))) AS pmi
FROM bg JOIN uni ua ON ua.term = bg.ta JOIN uni ub ON ub.term = bg.tb
ORDER BY CAST(bg.n_ab AS DOUBLE)
         / (CAST(ua.n AS DOUBLE) * CAST(ub.n AS DOUBLE)) DESC, bg.ta, bg.tb
LIMIT 20
""",
    "value_quantiles": "\nUNION ALL\n".join(
        f"SELECT {q}::DOUBLE AS q, quantile_disc(CAST(round(value * 100) AS BIGINT), {q})::BIGINT"
        f" AS cents FROM events"
        for q in QUANTILE_QS
    ),
    "group_quantiles": "\nUNION ALL\n".join(
        f"SELECT event_type, {q}::DOUBLE AS q,"
        f" quantile_disc(CAST(round(value * 100) AS BIGINT), {q})::BIGINT AS cents"
        f" FROM events GROUP BY event_type"
        for q in QUANTILE_QS
    ),
    "suggest": f"""
WITH {TOK_CTE},
v AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term)
SELECT term AS suggestion, levenshtein(term, '{SUGGEST_QUERY}')::BIGINT AS dist, df
FROM v WHERE levenshtein(term, '{SUGGEST_QUERY}') <= 2
ORDER BY dist, df DESC, term LIMIT 5
""",
    "suggest_indexed": f"""
WITH {TOK_CTE},
v AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term)
SELECT term AS suggestion, levenshtein(term, '{SUGGEST_QUERY}')::BIGINT AS dist, df
FROM v WHERE levenshtein(term, '{SUGGEST_QUERY}') <= 2
ORDER BY dist, df DESC, term LIMIT 5
""",
    "kmv_distinct_users": f"""
WITH h AS (SELECT DISTINCT (user_id::HUGEINT * 6364136223846793005)
                           % 18446744073709551616::HUGEINT AS hv FROM events),
k AS (SELECT hv FROM h ORDER BY hv LIMIT {KMV_USERS_K}),
agg AS (SELECT count(*)::BIGINT AS n, max(hv) AS kth FROM k)
SELECT CASE WHEN (SELECT n FROM agg) < {KMV_USERS_K} THEN (SELECT n FROM agg)
       ELSE ((({KMV_USERS_K} - 1)::HUGEINT * 18446744073709551616::HUGEINT)
             // (SELECT kth FROM agg))::BIGINT END AS n_distinct_est
""",
    "normalize_text": r"""
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(lower(text),
         '[\t\r\n\f\v]', ' ', 'g'), ' {2,}', ' ', 'g'),
         '^ +| +$', '', 'g') AS norm
FROM documents
""",
    "frequent_terms": f"""
WITH {TOK_CTE},
tot AS (SELECT count(*)::BIGINT AS n FROM tok),
c AS (SELECT term, count(*)::BIGINT AS n FROM tok GROUP BY term)
SELECT term, n FROM c WHERE n * 200 >= (SELECT n FROM tot)
""",
    "significant_terms": f"""
WITH {TOK_CTE},
fg AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{SIGTERM_FG_TERM}'),
cnt AS (SELECT (SELECT count(*) FROM fg)::BIGINT AS fg_n,
               (SELECT count(*) FROM documents)::BIGINT AS bg_n),
fgdf AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS fg_df FROM tok
         WHERE doc_id IN (SELECT doc_id FROM fg) GROUP BY term),
bgdf AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS bg_df FROM tok GROUP BY term)
SELECT f.term, f.fg_df, b.bg_df,
       (f.fg_df * cnt.bg_n - b.bg_df * cnt.fg_n)::BIGINT AS score
FROM fgdf f JOIN bgdf b USING (term), cnt
ORDER BY score DESC, f.term LIMIT {SIGTERM_K}
""",
    "kmv_distinct_by_type": f"""
WITH h AS (SELECT DISTINCT event_type,
                  (user_id::HUGEINT * 6364136223846793005)
                  % 18446744073709551616::HUGEINT AS hv FROM events),
r AS (SELECT event_type, hv,
             row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn
      FROM h),
agg AS (SELECT event_type, count(*)::BIGINT AS n, max(hv) AS kth
        FROM r WHERE rn <= {KMV_USERS_K} GROUP BY event_type)
SELECT event_type,
       CASE WHEN n < {KMV_USERS_K} THEN n
            ELSE ((({KMV_USERS_K} - 1)::HUGEINT * 18446744073709551616::HUGEINT)
                  // kth)::BIGINT END AS n_distinct_est
FROM agg
""",
    "facets": f"""
WITH {TOK_CTE},
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{BM25_TERM}')
SELECT d.lang, count(*)::BIGINT AS n
FROM hits h JOIN documents d ON d.doc_id = h.doc_id
GROUP BY d.lang
""",
    "facet_hist": f"""
WITH {TOK_CTE},
dl AS (SELECT doc_id, count(*)::BIGINT AS n_tok FROM tok GROUP BY doc_id),
hits AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{BM25_TERM}')
SELECT (dl.n_tok // 32) * 32 AS bucket_lo, count(*)::BIGINT AS n
FROM dl JOIN hits USING (doc_id)
GROUP BY 1 ORDER BY 1
""",
    "lm_score": f"""
WITH {TOK_CTE},
tot AS (SELECT count(*)::BIGINT AS n FROM tok),
c AS (SELECT term, count(*)::BIGINT AS n FROM tok GROUP BY term),
v AS (SELECT term, n FROM c ORDER BY n DESC, term LIMIT 4096),
lp AS (SELECT t.doc_id,
              CAST(round(ln(coalesce(v.n, 0.5) / (SELECT n FROM tot))
                         * 1000000) AS BIGINT) AS lpi
       FROM tok t LEFT JOIN v ON v.term = t.term)
SELECT doc_id, count(*)::BIGINT AS n_tokens,
       sum(lpi)::BIGINT AS logp_sum_micro
FROM lp GROUP BY doc_id ORDER BY doc_id
""",
    "training_pipeline": f"""
WITH l AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents),
lc AS (SELECT doc_id, line, count(*)::BIGINT c, length(line)::BIGINT len
       FROM l GROUP BY doc_id, line),
lagg AS (SELECT doc_id, sum(c)::BIGINT n_lines,
                sum(CASE WHEN c > 1 THEN c ELSE 0 END)::BIGINT n_dup_lines,
                sum(CASE WHEN c > 1 THEN c * len ELSE 0 END)::BIGINT dup_line_chars
         FROM lc GROUP BY doc_id),
tok AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
        x -> x <> '')) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT cnt FROM tok GROUP BY doc_id, term),
tt AS (SELECT doc_id, max(cnt)::BIGINT top_tf, sum(cnt)::BIGINT n_tokens FROM tf GROUP BY doc_id),
keepset AS (SELECT d.doc_id, d.lang, d.text FROM documents d
            JOIN lagg ON lagg.doc_id = d.doc_id LEFT JOIN tt ON tt.doc_id = d.doc_id
            WHERE 10 * lagg.n_dup_lines <= 3 * lagg.n_lines
              AND 5 * lagg.dup_line_chars <= length(d.text)
              AND (coalesce(tt.n_tokens, 0) < 8
                   OR 4 * coalesce(tt.top_tf, 0) <= coalesce(tt.n_tokens, 0))),
winners AS (SELECT min(doc_id)::BIGINT AS doc_id FROM keepset GROUP BY sha256(text)),
surv AS (SELECT k.doc_id, k.lang FROM keepset k JOIN winners USING (doc_id)),
samp AS (SELECT doc_id FROM (
   SELECT doc_id, row_number() OVER (PARTITION BY lang
     ORDER BY (doc_id::HUGEINT * 6364136223846793005) % 18446744073709551616::HUGEINT,
              doc_id) AS rn
   FROM surv) WHERE rn <= {TP_QUOTA}),
tc AS (SELECT s.doc_id, coalesce(tt.n_tokens, 0) AS n_tokens
       FROM samp s LEFT JOIN tt ON tt.doc_id = s.doc_id),
p AS (SELECT doc_id, n_tokens,
      (sum(n_tokens) OVER (ORDER BY doc_id) - n_tokens) AS pre FROM tc)
SELECT doc_id, n_tokens, (pre // {PACK_MAX_TOKENS})::BIGINT AS bin,
       (pre % {PACK_MAX_TOKENS})::BIGINT AS bin_offset
FROM p
""",
    "repetition_filter": """
WITH l AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents),
lc AS (SELECT doc_id, line, count(*)::BIGINT c, length(line)::BIGINT len
       FROM l GROUP BY doc_id, line),
lagg AS (SELECT doc_id, sum(c)::BIGINT n_lines,
                sum(CASE WHEN c > 1 THEN c ELSE 0 END)::BIGINT n_dup_lines,
                sum(CASE WHEN c > 1 THEN c * len ELSE 0 END)::BIGINT dup_line_chars
         FROM lc GROUP BY doc_id),
tok AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
        x -> x <> '')) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT cnt FROM tok GROUP BY doc_id, term),
tt AS (SELECT doc_id, max(cnt)::BIGINT top_tf, sum(cnt)::BIGINT n_tokens FROM tf GROUP BY doc_id)
SELECT d.doc_id, length(d.text)::BIGINT AS n_chars, lagg.n_lines, lagg.n_dup_lines,
       lagg.dup_line_chars, coalesce(tt.n_tokens, 0) AS n_tokens,
       coalesce(tt.top_tf, 0) AS top_tf,
       length(regexp_extract_all(d.text, '#'))::BIGINT AS n_hash,
       length(regexp_extract_all(d.text, '\\.\\.\\.'))::BIGINT AS n_ellipsis,
       (10 * lagg.n_dup_lines <= 3 * lagg.n_lines
        AND 5 * lagg.dup_line_chars <= length(d.text)
        AND (coalesce(tt.n_tokens, 0) < 8
             OR 4 * coalesce(tt.top_tf, 0) <= coalesce(tt.n_tokens, 0))) AS keep
FROM documents d JOIN lagg ON lagg.doc_id = d.doc_id
LEFT JOIN tt ON tt.doc_id = d.doc_id
""",
    "quota_sample": f"""
SELECT lang, doc_id, rn FROM (
  SELECT lang, doc_id, row_number() OVER (
    PARTITION BY lang
    ORDER BY (doc_id::HUGEINT * 6364136223846793005) % 18446744073709551616::HUGEINT,
             doc_id) AS rn
  FROM documents) WHERE rn <= {SAMPLE_QUOTA}
""",
    "chunk_documents": f"""
WITH dt AS (SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                                       x -> x <> '') AS ts FROM documents),
g AS (SELECT doc_id, ts, unnest(generate_series(0, len(ts) - 1, {CHUNK_TOKENS - CHUNK_OVERLAP})) AS start
      FROM dt WHERE len(ts) > 0)
SELECT doc_id, (start // {CHUNK_TOKENS - CHUNK_OVERLAP})::BIGINT AS chunk_id,
       start::BIGINT AS start_tok,
       least({CHUNK_TOKENS}, len(ts) - start)::BIGINT AS n_tokens,
       array_to_string(ts[start + 1 : least(start + {CHUNK_TOKENS}, len(ts))], ' ') AS chunk_text
FROM g
""",
    "deterministic_sample": (
        "SELECT doc_id FROM documents WHERE substr(sha256(text), 1, 8) < "
        f"'{'%08x' % int(SAMPLE_RATE * (1 << 32))}'"
    ),
    "knn_cosine": """
WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)
SELECT row_number() OVER (
         ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id) AS rank,
       e.vec_id
FROM embeddings e, q
ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
LIMIT 10
""",
    # RRF: 1.0/(60+rank) contributions, bm25-list-then-knn-list
    # addition order mirrors reciprocal_rank_fusion exactly (one
    # float64 add either way, so scores are bit-identical)
    "hybrid_rrf": f"""
WITH b AS (SELECT rank AS brank, doc_id
           FROM ({_bm25_sql((BM25_TERM,), "or", k=HYBRID_LIST_K)})),
v AS (SELECT row_number() OVER (
         ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id) AS vrank,
       e.vec_id AS doc_id
      FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
      QUALIFY vrank <= {HYBRID_LIST_K}),
fused AS (SELECT coalesce(b.doc_id, v.doc_id) AS doc_id,
                 coalesce(1.0 / (60 + brank), 0) + coalesce(1.0 / (60 + vrank), 0) AS rrf
          FROM b FULL OUTER JOIN v ON b.doc_id = v.doc_id)
SELECT row_number() OVER (ORDER BY rrf DESC, doc_id)::BIGINT AS rank,
       doc_id::BIGINT AS doc_id
FROM fused ORDER BY rrf DESC, doc_id LIMIT 10
""",
    # Count-Min mirror: cell_i(k) = (k * A_i mod 2^64) >> 53 in HUGEINT
    # integer arithmetic (the KMV trick), estimate = least over the 4
    # rows of the cell's total count — bit-identical to cm_sketch
    "cm_counts": f"""
WITH qk AS (SELECT unnest(range(0, {len(CM_QUERY_USERS)}))::BIGINT AS user_id),
cells AS (SELECT user_id,
  ((user_id::HUGEINT * 11400714819323198485::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c0,
  ((user_id::HUGEINT * 14029467366897019727::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c1,
  ((user_id::HUGEINT * 18397679294719823053::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c2,
  ((user_id::HUGEINT * 11562461410679940143::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c3
  FROM events),
qc AS (SELECT user_id,
  ((user_id::HUGEINT * 11400714819323198485::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c0,
  ((user_id::HUGEINT * 14029467366897019727::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c1,
  ((user_id::HUGEINT * 18397679294719823053::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c2,
  ((user_id::HUGEINT * 11562461410679940143::HUGEINT) % 18446744073709551616::HUGEINT) // 9007199254740992 AS c3
  FROM qk)
SELECT q.user_id,
  least((SELECT count(*) FROM cells e WHERE e.c0 = q.c0),
        (SELECT count(*) FROM cells e WHERE e.c1 = q.c1),
        (SELECT count(*) FROM cells e WHERE e.c2 = q.c2),
        (SELECT count(*) FROM cells e WHERE e.c3 = q.c3))::BIGINT AS est
FROM qc q ORDER BY q.user_id
""",
    # reads the deterministic on-disk derived table the Ray pipeline
    # consumed (media_features pattern); a line in >= 50 distinct docs
    # is removed everywhere, survivors keep their order
    "line_dedup": f"""
WITH src AS (SELECT doc_id, text FROM read_parquet('{LINEDOC_TABLE_PATH}')),
ln AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line,
              generate_subscripts(string_split(text, chr(10)), 1) AS ord
       FROM src),
freq AS (SELECT line, count(DISTINCT doc_id)::BIGINT AS n FROM ln GROUP BY line),
keep AS (SELECT l.doc_id, l.ord, l.line
         FROM ln l JOIN freq f USING (line) WHERE f.n < 50)
SELECT s.doc_id,
       coalesce(string_agg(k.line, chr(10) ORDER BY k.ord), '') AS text
FROM src s LEFT JOIN keep k USING (doc_id)
GROUP BY s.doc_id ORDER BY s.doc_id
""",
    "ivf_knn": f"""
WITH qs AS (SELECT vec_id AS query_id, embedding FROM embeddings
            WHERE vec_id IN {IVF_QUERY_IDS}),
ranked AS (
  SELECT q.query_id,
         row_number() OVER (PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id) AS rank,
         e.vec_id
  FROM embeddings e CROSS JOIN qs q)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id::BIGINT AS vec_id
FROM ranked WHERE rank <= 10
""",
    # exact because q_pq_knn sets refine_k = corpus size: the PQ ADC
    # pass orders a full-corpus shortlist and exact_rerank re-scores
    # every row with true cosine (same full-probe trick as ivf_knn)
    "pq_knn": f"""
WITH qs AS (SELECT vec_id AS query_id, embedding FROM embeddings
            WHERE vec_id IN {IVF_QUERY_IDS}),
ranked AS (
  SELECT q.query_id,
         row_number() OVER (PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id) AS rank,
         e.vec_id
  FROM embeddings e CROSS JOIN qs q)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id::BIGINT AS vec_id
FROM ranked WHERE rank <= 10
""",
    "ivfpq_refine": f"""
WITH qs AS (SELECT vec_id AS query_id, embedding FROM embeddings
            WHERE vec_id IN {IVF_QUERY_IDS}),
ranked AS (
  SELECT q.query_id,
         row_number() OVER (PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id) AS rank,
         e.vec_id
  FROM embeddings e CROSS JOIN qs q)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id::BIGINT AS vec_id
FROM ranked WHERE rank <= 10
""",
    "order_count_distribution": """
SELECT c_count, count(*)::BIGINT AS custdist
FROM (SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
""",
    "top_supplier": """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         sum(round(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT AS total_cents
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
  GROUP BY l_suppkey)
SELECT s.s_suppkey::BIGINT AS s_suppkey, s.s_name, r.total_cents
FROM supplier s JOIN rev r ON s.s_suppkey = r.s_suppkey
WHERE r.total_cents = (SELECT max(total_cents) FROM rev)
ORDER BY s_suppkey
""",
    "large_volume_orders": """
WITH big AS (
  SELECT l_orderkey, sum(round(l_quantity * 100)::BIGINT)::BIGINT AS sum_qty_cents
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(round(l_quantity * 100)::BIGINT) > 30000)
SELECT c_name, o_custkey::BIGINT AS o_custkey, o_orderkey::BIGINT AS o_orderkey,
       round(o_totalprice * 100)::BIGINT AS total_cents, sum_qty_cents
FROM orders JOIN customer ON c_custkey = o_custkey
            JOIN big ON big.l_orderkey = o_orderkey
ORDER BY total_cents DESC, o_orderkey ASC
LIMIT 100
""",
    "disjunctive_revenue": """
SELECT count(*)::BIGINT AS n_items,
       sum(round(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT AS rev_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
   OR (p_brand = 'Brand#2' AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
   OR (p_brand = 'Brand#3' AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15)
""",
    "wealthy_inactive": """
WITH pos AS (
  SELECT sum(round(c_acctbal * 100)::BIGINT) AS s, count(*)::BIGINT AS n
  FROM customer WHERE c_acctbal > 0)
SELECT c_mktsegment, count(*)::BIGINT AS n_customers,
       sum(round(c_acctbal * 100)::BIGINT)::BIGINT AS acctbal_cents
FROM customer, pos
WHERE round(c_acctbal * 100)::BIGINT * pos.n > pos.s
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderdate >= DATE '1999-01-01')
GROUP BY c_mktsegment
ORDER BY c_mktsegment
""",
    "event_value_stats": """
WITH g AS (
  SELECT event_type, count(*)::BIGINT AS n,
         sum(round(value * 100)::BIGINT)::BIGINT AS sum_cents,
         sum((round(value * 100)::BIGINT) * (round(value * 100)::BIGINT))::BIGINT
           AS sumsq_cents2
  FROM events GROUP BY event_type)
SELECT event_type, n, sum_cents, sumsq_cents2,
       sum_cents / n / 100.0 AS mean_value,
       sumsq_cents2 / n / 10000.0
         - (sum_cents / n / 100.0) * (sum_cents / n / 100.0) AS var_pop
FROM g ORDER BY event_type
""",
    "qty_discount_corr": """
WITH m AS (
  SELECT count(*)::HUGEINT AS n,
         sum(round(l_quantity * 100)::BIGINT)::HUGEINT AS sx,
         sum(round(l_discount * 100)::BIGINT)::HUGEINT AS sy,
         sum((round(l_quantity * 100)::BIGINT)
             * (round(l_quantity * 100)::BIGINT))::HUGEINT AS sxx,
         sum((round(l_discount * 100)::BIGINT)
             * (round(l_discount * 100)::BIGINT))::HUGEINT AS syy,
         sum((round(l_quantity * 100)::BIGINT)
             * (round(l_discount * 100)::BIGINT))::HUGEINT AS sxy
  FROM lineitem)
SELECT n::BIGINT AS n, sx::BIGINT AS sx_cents, sy::BIGINT AS sy_cents,
       ((n * sxy - sx * sy)::DOUBLE)
         / (sqrt((n * sxx - sx * sx)::DOUBLE)
            * sqrt((n * syy - sy * sy)::DOUBLE)) AS corr
FROM m
""",
    "lang_source_pivot": (
        "SELECT lang, "
        + ", ".join(
            f"sum(CASE WHEN source = '{v}' THEN 1 ELSE 0 END)::BIGINT AS n_{v}"
            for v in PIVOT_SOURCES)
        + ", count(*)::BIGINT AS total FROM documents GROUP BY lang ORDER BY lang"
    ),
    "props_field_agg": """
SELECT event_type,
       count(json_extract_string(props, '$.k'))::BIGINT AS n_with_field,
       sum(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS sum_field,
       min(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS min_field,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT AS max_field
FROM events GROUP BY event_type ORDER BY event_type
""",
    "mode_source_by_lang": """
SELECT lang, source AS mode_value, n::BIGINT AS n_occurrences
FROM (SELECT lang, source, count(*) AS n,
             row_number() OVER (PARTITION BY lang
                                ORDER BY count(*) DESC, source ASC) AS rn
      FROM documents GROUP BY lang, source)
WHERE rn = 1 ORDER BY lang
""",
    "event_value_hist": """
SELECT floor(value / 25.0)::BIGINT AS bin, count(*)::BIGINT AS n_rows,
       sum(round(value * 100)::BIGINT)::BIGINT AS sum_cents
FROM events GROUP BY 1 ORDER BY 1
""",
    "sources_concat_by_lang": """
SELECT lang, count(DISTINCT source)::BIGINT AS n_distinct,
       string_agg(DISTINCT source, ',' ORDER BY source) AS concat_values
FROM documents GROUP BY lang ORDER BY lang
""",
    "brand_supplier_counts": """
SELECT p_brand, count(DISTINCT l_suppkey)::BIGINT AS n_suppliers
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY p_brand ORDER BY p_brand
""",
    "part_revenue_concentration": """
WITH pr AS (
  SELECT l_partkey,
         sum(round(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT
           AS rev_cents
  FROM lineitem GROUP BY l_partkey),
tot AS (SELECT sum(rev_cents)::BIGINT AS t FROM pr)
SELECT l_partkey::BIGINT AS l_partkey, rev_cents
FROM pr, tot
WHERE rev_cents * 1800 > t * 1
ORDER BY rev_cents DESC, l_partkey ASC
""",
    "unpivot_sources": (
        "SELECT lang, variable, value FROM (SELECT lang, "
        + ", ".join(
            f"sum(CASE WHEN source = '{v}' THEN 1 ELSE 0 END)::BIGINT AS n_{v}"
            for v in PIVOT_SOURCES)
        + ", count(*)::BIGINT AS total FROM documents GROUP BY lang) "
        + "UNPIVOT (value FOR variable IN ("
        + ", ".join(f"n_{v}" for v in PIVOT_SOURCES)
        + ", total)) ORDER BY lang, variable"
    ),
    "event_lag_gaps": """
SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
       (epoch_us(ts) - epoch_us(prev_ts))::BIGINT AS gap_us
FROM (SELECT event_id, user_id, ts,
             lag(ts) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_ts
      FROM events)
WHERE prev_ts IS NOT NULL
ORDER BY event_id
""",
    "grouping_sets_docs": """
SELECT coalesce(lang, 'ALL') AS lang, coalesce(source, 'ALL') AS source,
       count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS chars_total
FROM documents
GROUP BY GROUPING SETS ((lang), (source))
ORDER BY lang, source
""",
    "revenue_by_year": """
SELECT year(l_shipdate)::BIGINT AS year, count(*)::BIGINT AS n_items,
       sum(round(l_extendedprice * (1 - l_discount) * 100)::BIGINT)::BIGINT
         AS rev_cents
FROM lineitem GROUP BY 1 ORDER BY 1
""",
    "latest_event_per_user": """
SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
       ts, event_type
FROM (SELECT event_id, user_id, ts, event_type,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id
""",
    # TPC-H Q7 shape — either direction between the two nations, exact
    # integer-cent sums, calendar year() ≡ numpy datetime64[Y]
    "volume_shipping": """
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
       year(l.l_shipdate)::BIGINT AS l_year,
       sum(round(l.l_extendedprice * (1 - l.l_discount) * 100)::BIGINT)::BIGINT
         AS rev_cents
FROM supplier s
JOIN lineitem l ON s.s_suppkey = l.l_suppkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
WHERE (n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
   OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1')
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
""",
    # TPC-H Q9 shape (adapted: no partsupp table, so profit is the
    # integer-cent revenue; the LIKE + multi-join + nation×year group
    # is Q9's)
    "product_type_profit": """
SELECT n.n_name, year(l.l_shipdate)::BIGINT AS o_year,
       sum(round(l.l_extendedprice * (1 - l.l_discount) * 100)::BIGINT)::BIGINT
         AS profit_cents
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE p.p_name LIKE '%red%'
GROUP BY 1, 2 ORDER BY n_name, o_year DESC
""",
    # TPC-H Q12 shape (adapted: no shipmode/commitdate — late means
    # shipdate >= orderdate + 60 days; group by linestatus)
    "late_shipment_priority": """
SELECT l.l_linestatus,
       sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END)::BIGINT AS high_count,
       sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END)::BIGINT AS low_count
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND l.l_shipdate <  TIMESTAMP '1998-01-01 00:00:00'
  AND l.l_shipdate >= o.o_orderdate + INTERVAL 60 DAY
GROUP BY 1 ORDER BY 1
""",
    # TPC-H Q8 shape — mkt_share is ONE double division of two exact
    # BIGINT sums, bit-identical on both sides
    "market_share": """
WITH j AS (
  SELECT year(o.o_orderdate) AS o_year,
         round(l.l_extendedprice * (1 - l.l_discount) * 100)::BIGINT AS rev_cents,
         s.s_nationkey
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation cn ON cn.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = cn.n_regionkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  WHERE r.r_name = 'ASIA' AND p.p_type = 'PROMO'
),
g AS (
  SELECT o_year,
         sum(CASE WHEN s_nationkey = (SELECT n_nationkey FROM nation
                                      WHERE n_name = 'NATION_3')
                  THEN rev_cents ELSE 0 END)::BIGINT AS nation_cents,
         sum(rev_cents)::BIGINT AS total_cents
  FROM j GROUP BY o_year
)
SELECT o_year::BIGINT AS o_year, nation_cents, total_cents,
       nation_cents::DOUBLE / total_cents::DOUBLE AS mkt_share
FROM g ORDER BY o_year
""",
    # TPC-H Q17 shape — the 0.2·avg gate as exact integer
    # cross-multiplication (5·qty·count < sum_qty), quantity in cents
    "small_qty_revenue": """
WITH li AS (
  SELECT l.l_partkey, round(l.l_quantity * 100)::BIGINT AS qty_c,
         round(l.l_extendedprice * 100)::BIGINT AS price_c
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE p.p_brand = 'Brand#5'
),
g AS (SELECT l_partkey, sum(qty_c)::BIGINT AS sum_qty_c,
             count(*)::BIGINT AS cnt
      FROM li GROUP BY 1)
SELECT coalesce(sum(li.price_c), 0)::BIGINT AS rev_cents,
       count(*)::BIGINT AS n_lines
FROM li JOIN g USING (l_partkey)
WHERE 5 * li.qty_c * g.cnt < g.sum_qty_c
""",
    # TPC-H Q20 shape (adapted: no ps_availqty — nested test is
    # 2·window-qty > total-qty per (part, supplier) pair, exact ints)
    "promo_part_suppliers": """
WITH li AS (
  SELECT l.l_partkey, l.l_suppkey,
         round(l.l_quantity * 100)::BIGINT AS qty_c,
         CASE WHEN l.l_shipdate >= TIMESTAMP '1997-01-01 00:00:00'
               AND l.l_shipdate <  TIMESTAMP '1998-01-01 00:00:00'
              THEN round(l.l_quantity * 100)::BIGINT ELSE 0 END AS win_c
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE p.p_name LIKE 'red%'
),
g AS (SELECT l_partkey, l_suppkey, sum(win_c)::BIGINT AS win_c,
             sum(qty_c)::BIGINT AS tot_c
      FROM li GROUP BY 1, 2),
hot AS (SELECT DISTINCT l_suppkey FROM g WHERE 2 * win_c > tot_c)
SELECT s.s_suppkey::BIGINT AS s_suppkey, s.s_name
FROM supplier s
JOIN hot ON hot.l_suppkey = s.s_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE n.n_name = 'NATION_1'
ORDER BY s_name, s_suppkey
""",
    # TPC-H Q2 shape (adapted: no ps_supplycost — cost is the pair's
    # total revenue cents; correlated min per part, ties to the
    # smaller suppkey)
    "min_cost_supplier": """
WITH pk AS (SELECT p_partkey FROM part
            WHERE p_size = 10 AND p_type = 'SMALL'),
rs AS (SELECT s.s_suppkey, s.s_name,
              round(s.s_acctbal * 100)::BIGINT AS s_acctbal_cents, n.n_name
       FROM supplier s
       JOIN nation n ON n.n_nationkey = s.s_nationkey
       JOIN region r ON r.r_regionkey = n.n_regionkey
       WHERE r.r_name = 'EUROPE'),
cost AS (SELECT l.l_partkey, l.l_suppkey,
                sum(round(l.l_extendedprice * (1 - l.l_discount) * 100)::BIGINT)::BIGINT
                  AS cost_cents
         FROM lineitem l
         JOIN pk ON pk.p_partkey = l.l_partkey
         JOIN rs ON rs.s_suppkey = l.l_suppkey
         GROUP BY 1, 2),
win AS (SELECT l_partkey, l_suppkey, cost_cents,
               row_number() OVER (PARTITION BY l_partkey
                                  ORDER BY cost_cents, l_suppkey) AS rn
        FROM cost)
SELECT rs.s_acctbal_cents, rs.s_name, rs.n_name,
       w.l_partkey::BIGINT AS p_partkey, w.l_suppkey::BIGINT AS s_suppkey,
       w.cost_cents
FROM win w JOIN rs ON rs.s_suppkey = w.l_suppkey
WHERE w.rn = 1
ORDER BY s_acctbal_cents DESC, n_name, s_name, p_partkey
LIMIT 100
""",
    # TPC-H Q21 shape (adapted: no receipt/commit dates — "waiting"
    # line = returnflag 'R'; EXISTS(other supplier) AND NOT
    # EXISTS(other returned supplier) on 'F' orders)
    "waiting_orders_suppliers": """
WITH fo AS (SELECT o_orderkey FROM orders WHERE o_orderstatus = 'F'),
per AS (
  SELECT l.l_orderkey,
         count(DISTINCT l.l_suppkey) AS n_supp,
         count(DISTINCT CASE WHEN l.l_returnflag = 'R'
                             THEN l.l_suppkey END) AS n_r,
         max(CASE WHEN l.l_returnflag = 'R' THEN l.l_suppkey END) AS r_supp
  FROM lineitem l JOIN fo ON fo.o_orderkey = l.l_orderkey
  GROUP BY 1
),
sel AS (SELECT r_supp AS s_suppkey, count(*)::BIGINT AS numwait
        FROM per WHERE n_supp >= 2 AND n_r = 1 GROUP BY 1)
SELECT s.s_name, sel.s_suppkey::BIGINT AS s_suppkey, sel.numwait
FROM sel
JOIN supplier s ON s.s_suppkey = sel.s_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE n.n_name = 'NATION_2'
ORDER BY numwait DESC, s_name, s_suppkey
LIMIT 100
""",
    # windowed-frame aggregate — exact integer-cent frame sums
    "event_moving_sum": """
SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
       sum(round(value * 100)::BIGINT) OVER w::BIGINT AS w_sum_cents,
       count(*) OVER w::BIGINT AS w_count
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
ORDER BY event_id
""",
    # distributed ORDER BY ... LIMIT/OFFSET page
    "orders_page": """
SELECT o_orderkey::BIGINT AS o_orderkey, o_custkey::BIGINT AS o_custkey,
       o_orderdate
FROM orders ORDER BY o_orderdate, o_orderkey LIMIT 50 OFFSET 100
""",
    # URL domain histogram — identical RE2 patterns on both sides; the
    # URL injection is reconstructed INLINE from `documents` (the same
    # pure function of (doc_id, text) as _urldoc_table), so the oracle
    # is pinned to the suite's own scale with no cached side file
    "domain_counts": """
WITH urldocs AS (
  SELECT text
    || CASE WHEN doc_id % 3 = 0
            THEN ' http://site' || (doc_id % 37)::VARCHAR
                 || '.example.com/p' || doc_id::VARCHAR ELSE '' END
    || CASE WHEN doc_id % 7 = 0
            THEN ' https://cdn' || (doc_id % 11)::VARCHAR
                 || '.example.org/x?q=' || doc_id::VARCHAR ELSE '' END
    || CASE WHEN doc_id % 13 = 0
            THEN ' http://MIXED.Case.Net/skip' ELSE '' END AS text
  FROM documents
),
toks AS (
  SELECT unnest(regexp_split_to_array(text, '\\s+')) AS tok
  FROM urldocs
),
urls AS (
  SELECT regexp_extract(tok, '^https?://([a-z0-9.-]+)', 1) AS domain
  FROM toks WHERE regexp_matches(tok, '^https?://')
)
SELECT domain, count(*)::BIGINT AS n FROM urls WHERE domain <> ''
GROUP BY 1 ORDER BY n DESC, domain
""",
    # DENSE_RANK over the distinct (group, value) set == the window
    # function over the full table
    "qty_dense_rank": """
SELECT DISTINCT l_returnflag,
       round(l_quantity * 100)::BIGINT AS value_cents,
       dense_rank() OVER (PARTITION BY l_returnflag
                          ORDER BY round(l_quantity * 100)::BIGINT)::BIGINT
         AS rnk
FROM lineitem ORDER BY l_returnflag, value_cents
""",
}


def flagship_entry() -> pa.Table:
    """Build the index over sf0.001 and run the flagship BM25 search."""
    sf_dir = "/root/testdata/sf0.001"
    eng = engine_for(sf_dir)
    return eng.search(ast.Or(ast.Term("merge"), ast.Term("sort")), k=10)
