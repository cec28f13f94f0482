"""Unit tests for the pure kernels: tokenizer, hashing, posting codec."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chearch_ray.functions import codec
from chearch_ray.functions.hashing import (
    TermSharder,
    doc_id_from_keys,
    murmur3_finalize32,
    sha256_hex,
    term_hash64,
)
from chearch_ray.functions.tokenizer import explode, token_counts, tokenize


# ------------------------------------------------------------- tokenizer
def test_tokenize_basic():
    col = pa.array(["def Foo_bar(x):\n  return x+1", "", None, "a b  c"])
    lists = tokenize(col)
    assert lists.to_pylist() == [
        ["def", "foo_bar", "x", "return", "x", "1"],
        [],
        [],
        ["a", "b", "c"],
    ]


def test_tokenize_subtokens():
    col = pa.array(["camelCaseVar snake_case_var XMLHttp"])
    lists = tokenize(col, split_subtokens=True)
    assert lists.to_pylist() == [
        ["camel", "case", "var", "snake", "case", "var", "xml", "http"]
    ]


def test_tokenize_matches_duckdb_split():
    """Default mode must be replicable by DuckDB regexp_split_to_array
    (this is what the driver oracle SQL uses)."""
    import duckdb

    texts = ["The quick! brown_fox.jumps", "x=1; y = x*2 // comment", "émoji ☃ text"]
    lists = tokenize(pa.array(texts)).to_pylist()
    con = duckdb.connect()
    for text, ours in zip(texts, lists):
        sql = con.execute(
            "select list_filter(regexp_split_to_array(lower(?), '[^a-z0-9_]+'), x -> x <> '')",
            [text],
        ).fetchone()[0]
        assert sql == ours, text


def test_token_counts_and_explode():
    lists = tokenize(pa.array(["a b a", "c", ""]))
    assert token_counts(lists).tolist() == [3, 1, 0]
    values, rows, positions = explode(lists)
    assert values.to_pylist() == ["a", "b", "a", "c"]
    assert rows.tolist() == [0, 0, 0, 1]
    assert positions.tolist() == [0, 1, 2, 0]


def test_explode_on_sliced_array():
    lists = tokenize(pa.array(["a b", "c d", "e"])).slice(1, 2)
    values, rows, positions = explode(lists)
    assert values.to_pylist() == ["c", "d", "e"]
    assert rows.tolist() == [0, 0, 1]
    assert positions.tolist() == [0, 1, 0]


# --------------------------------------------------------------- hashing
def test_murmur3_finalizer_known_values():
    # finalizer properties: deterministic, 32-bit, avalanche != identity
    assert murmur3_finalize32(0) == 0
    assert murmur3_finalize32(1) != 1
    assert 0 <= murmur3_finalize32(0xDEADBEEF) < 2**32


def test_doc_id_stability_and_uniqueness():
    ids1 = doc_id_from_keys(["r1", "r1", "r2"], ["a", "b", "a"], ["c", "c", "c"])
    ids2 = doc_id_from_keys(["r1", "r1", "r2"], ["a", "b", "a"], ["c", "c", "c"])
    assert ids1.dtype == np.uint64
    assert (ids1 == ids2).all()
    assert len(set(ids1.tolist())) == 3
    # separator prevents (repo='a', path='bc') colliding with ('ab','c')
    a = doc_id_from_keys(["a"], ["bc"], ["x"])
    b = doc_id_from_keys(["ab"], ["c"], ["x"])
    assert a[0] != b[0]


def test_term_sharder():
    sh = TermSharder(8)
    terms = pa.array(["def", "return", "def", "x", "def"])
    shards = sh.shards(terms)
    assert shards.tolist()[0] == shards.tolist()[2] == shards.tolist()[4]
    assert all(0 <= s < 8 for s in shards.tolist())
    assert sh.shard_of("def") == term_hash64("def") % 8


def test_sha256_matches_duckdb():
    import duckdb

    texts = ["hello", "", "ünïcode"]
    ours = sha256_hex(pa.array(texts)).to_pylist()
    con = duckdb.connect()
    for t, o in zip(texts, ours):
        assert con.execute("select sha256(?)", [t]).fetchone()[0] == o


# ----------------------------------------------------------------- codec
def _leb128_reference(buf: bytes, count: int | None = None) -> list[int]:
    """Byte-at-a-time LEB128 decoder: the spec the vectorized one
    must agree with."""
    out, val, shift = [], 0, 0
    for byte in buf:
        if count is not None and len(out) == count:
            break
        val |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            out.append(val)
            val, shift = 0, 0
    return out


# every LEB128 width from 1 byte (0, 127) to 10 bytes (2^63, 2^64-1)
_WIDTH_EDGES = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**35, 2**56 - 1,
                2**56, 2**63 - 1, 2**63, 2**64 - 1]
_u64_mixed = st.one_of(
    st.sampled_from(_WIDTH_EDGES),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@given(st.lists(_u64_mixed, max_size=100), st.data())
@settings(max_examples=300)
def test_varint_roundtrip(values, data):
    enc = codec.varint_encode(np.array(values, dtype=np.uint64))
    assert codec.varint_decode(enc, len(values)).tolist() == values
    assert codec.varint_decode(enc).tolist() == _leb128_reference(enc) == values
    # count smaller than the number of values: only a prefix is read
    count = data.draw(st.integers(min_value=0, max_value=len(values)))
    assert codec.varint_decode(enc, count).tolist() == values[:count]


@given(st.lists(_u64_mixed, min_size=1, max_size=40),
       st.lists(_u64_mixed, min_size=1, max_size=5), st.data())
@settings(max_examples=200)
def test_varint_decode_offset_view(values, prefix, data):
    """decode_block/decode_blocks pass a uint8 view that starts mid-
    buffer (a block's byte range) and has trailing bytes of the next
    block after `count` values."""
    head = codec.varint_encode(np.array(prefix, dtype=np.uint64))
    body = codec.varint_encode(np.array(values, dtype=np.uint64))
    whole = np.frombuffer(head + body + b"\x85\x01\x07", dtype=np.uint8)
    view = whole[len(head):]
    assert view.base is not None and view.ctypes.data > whole.ctypes.data
    count = data.draw(st.integers(min_value=1, max_value=len(values)))
    got = codec.varint_decode(view, count)
    assert got.tolist() == _leb128_reference(bytes(view), count) == values[:count]
    assert got.dtype == np.uint64


def test_varint_decode_single_byte_fast_path():
    """A stream of 1-byte values (tf blobs) returns the bytes widened,
    including when more bytes follow the requested prefix."""
    vals = np.arange(128, dtype=np.uint64)
    enc = codec.varint_encode(vals)
    assert len(enc) == len(vals)
    assert codec.varint_decode(enc).tolist() == vals.tolist()
    got = codec.varint_decode(enc + codec.varint_encode(np.array([2**40], np.uint64)), 128)
    assert got.dtype == np.uint64 and got.tolist() == vals.tolist()
    # a multi-byte value past `count` must not be read
    assert codec.varint_decode(b"\x03\x04\x80\x80\x01", 2).tolist() == [3, 4]


@pytest.mark.parametrize(
    "buf,count",
    [
        (b"\x80", None),  # no terminating byte at all
        (b"\x80\x80", 1),
        (b"\x05\x80", None),  # ends inside the second value
        (b"\x05", 2),  # fewer terminated values than requested
        (codec.varint_encode(np.array([1, 2**63], np.uint64))[:-1], 2),
    ],
)
def test_varint_decode_truncated_raises(buf, count):
    with pytest.raises(ValueError, match="^truncated varint stream: "):
        codec.varint_decode(buf, count)


def test_varint_decode_empty():
    assert codec.varint_decode(b"").tolist() == []
    assert codec.varint_decode(b"", 0).tolist() == []
    assert codec.varint_decode(b"\x05\x06", 0).tolist() == []
    assert codec.varint_decode(b"").dtype == np.uint64


def test_decode_postings_truncated_blob_raises():
    """A tf blob short of `count` values used to decode short and
    misalign docs against tfs."""
    enc = codec.encode_postings(np.arange(1, 10, dtype=np.uint64) * 1000,
                                np.ones(9, dtype=np.uint64))
    enc.tf_blob = enc.tf_blob[:-1]
    with pytest.raises(ValueError, match="truncated varint stream"):
        codec.decode_postings(enc)


def test_varint_lengths():
    arr = np.array([0, 127, 128, 2**14 - 1, 2**14, 2**63], dtype=np.uint64)
    lens = codec.varint_byte_lengths(arr)
    assert lens.tolist() == [1, 1, 2, 2, 3, 10]
    enc = codec.varint_encode(arr)
    assert len(enc) == lens.sum()


@st.composite
def sorted_unique_u64(draw):
    vals = draw(
        st.lists(st.integers(min_value=0, max_value=2**63), unique=True, min_size=0, max_size=600)
    )
    return sorted(vals)


@given(sorted_unique_u64(), st.sampled_from([4, 128]))
@settings(max_examples=100)
def test_postings_roundtrip(doc_ids, block_size):
    docs = np.array(doc_ids, dtype=np.uint64)
    tfs = (docs % np.uint64(17)) + np.uint64(1)
    enc = codec.encode_postings(docs, tfs, block_size=block_size)
    d, t = codec.decode_postings(enc, block_size=block_size)
    assert d.tolist() == doc_ids
    assert t.tolist() == tfs.tolist()
    # per-block decode agrees with full decode
    out_d, out_t = [], []
    for blk in range(len(enc.block_last)):
        bd, bt = codec.decode_block(enc, blk, block_size=block_size)
        out_d += bd.tolist()
        out_t += bt.tolist()
    assert out_d == doc_ids
    assert out_t == tfs.tolist()


def test_postings_block_metadata():
    docs = np.arange(0, 1000, 3, dtype=np.uint64)
    tfs = np.ones(len(docs), dtype=np.uint64)
    tfs[200] = 99
    enc = codec.encode_postings(docs, tfs, block_size=128)
    assert enc.count == len(docs)
    n_blocks = (len(docs) + 127) // 128
    assert len(enc.block_last) == n_blocks
    assert enc.block_last[-1] == docs[-1]
    assert enc.block_max_tf[200 // 128] == 99
    assert max(enc.block_max_tf[i] for i in range(n_blocks) if i != 200 // 128) == 1


def test_postings_empty():
    enc = codec.encode_postings(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
    d, t = codec.decode_postings(enc)
    assert len(d) == 0 and len(t) == 0


def test_decode_block_out_of_range():
    enc = codec.encode_postings(np.array([1, 2], dtype=np.uint64), np.array([1, 1], dtype=np.uint64))
    with pytest.raises(IndexError):
        codec.decode_block(enc, 5)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=2**40)),
        min_size=0,
        max_size=300,
    ),
    st.sampled_from([4, 128]),
)
@settings(max_examples=60)
def test_bulk_encode_matches_per_term(pairs, block_size):
    """encode_postings_bulk must produce byte/metadata-identical output
    to per-term encode_postings."""
    # build sorted (term, doc) postings with unique doc per term
    by_term = {}
    for t, d in pairs:
        by_term.setdefault(t, set()).add(d)
    terms = sorted(by_term)
    doc_list, bounds = [], [0]
    for t in terms:
        docs = sorted(by_term[t])
        doc_list.extend(docs)
        bounds.append(len(doc_list))
    doc = np.array(doc_list, dtype=np.uint64)
    tf = (doc % np.uint64(13)) + np.uint64(1)
    bulk = codec.encode_postings_bulk(doc, tf, np.array(bounds, dtype=np.int64), block_size)
    for i, t in enumerate(terms):
        s, e = bounds[i], bounds[i + 1]
        enc = codec.encode_postings(doc[s:e], tf[s:e], block_size=block_size)
        assert bulk["counts"][i] == enc.count
        assert bulk["doc_blob_buf"][bulk["doc_blob_offsets"][i]:bulk["doc_blob_offsets"][i+1]] == enc.doc_blob
        assert bulk["tf_blob_buf"][bulk["tf_blob_offsets"][i]:bulk["tf_blob_offsets"][i+1]] == enc.tf_blob
        ls, le = bulk["block_list_offsets"][i], bulk["block_list_offsets"][i + 1]
        assert bulk["block_last"][ls:le].tolist() == enc.block_last.tolist()
        assert bulk["block_max_tf"][ls:le].tolist() == enc.block_max_tf.tolist()
        assert bulk["block_doc_off"][ls:le].tolist() == enc.block_doc_off.tolist()
        assert bulk["block_tf_off"][ls:le].tolist() == enc.block_tf_off.tolist()


def test_sharded_corpus_generation_identical():
    """write_corpus_parquet's row_range sharding must concatenate to
    the same table as whole-corpus generation (bench determinism)."""
    from chearch_ray.sources.corpus import synthetic_corpus

    whole = synthetic_corpus(30, seed=42)
    parts = [synthetic_corpus(30, seed=42, row_range=(lo, min(30, lo + 7))) for lo in range(0, 30, 7)]
    assert pa.concat_tables(parts).equals(whole)


def _regex_tokenize_reference(texts):
    """pure regex reference for the fast-path equivalence test."""
    import re

    return [[t for t in re.split(r"[^a-z0-9_]+", s.lower()) if t] for s in texts]


@given(st.lists(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60), max_size=20))
@settings(max_examples=150)
def test_ascii_fast_path_matches_regex(texts):
    lists = tokenize(pa.array(texts, type=pa.string()))
    assert lists.to_pylist() == _regex_tokenize_reference(texts)


def test_ascii_fast_path_on_sliced_input():
    arr = pa.array(["abc def", "Foo-Bar_9", "", "x!y"]).slice(1, 3)
    assert tokenize(arr).to_pylist() == [["foo", "bar_9"], [], ["x", "y"]]


def test_non_ascii_falls_back_to_regex_path():
    texts = ["Émile zola", "plain ascii"]
    lists = tokenize(pa.array(texts))
    # unicode lowering handled by the regex path ('É' -> 'é' separator)
    assert lists.to_pylist() == [["mile", "zola"], ["plain", "ascii"]]


# ----------------------------------------------- decode_blocks property
def test_decode_blocks_matches_full_decode_property():
    """any subset of skip blocks decodes to the matching slices of the
    full decode (hypothesis-driven)."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from chearch_ray.functions.codec import decode_blocks, decode_postings, encode_postings

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 400),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def run(n, seed, data):
        rng = np.random.default_rng(seed)
        docs = np.cumsum(rng.integers(1, 1 << 40, size=n, dtype=np.uint64)).astype(np.uint64)
        tfs = rng.integers(1, 200, size=n, dtype=np.uint64)
        bs = 16
        enc = encode_postings(docs, tfs, block_size=bs)
        full_docs, full_tfs = decode_postings(enc, bs)
        np.testing.assert_array_equal(full_docs, docs)
        n_blocks = len(enc.block_last)
        subset = sorted(
            data.draw(
                st.sets(st.integers(0, n_blocks - 1), min_size=1, max_size=n_blocks)
            )
        )
        got_d, got_t = decode_blocks(enc, np.array(subset, dtype=np.int64), bs)
        want_d = np.concatenate(
            [docs[b * bs : (b + 1) * bs] for b in subset]
        )
        want_t = np.concatenate([tfs[b * bs : (b + 1) * bs] for b in subset])
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_t, want_t)

    run()


# ---------------------------------------- property tests: new kernels
def test_moving_partition_property():
    """_moving_partition == pandas rolling sum/count per user for
    random frames (hypothesis over sizes/values/users)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from chearch_ray.stages.events import _moving_partition, _round_half_away

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 5),          # user
                              st.integers(0, 10**9),      # ts us
                              st.floats(-100, 100, allow_nan=False)),
                    min_size=1, max_size=60),
           st.integers(1, 6))
    def check(rows, w):
        tbl = pa.table({
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "value": pa.array([r[2] for r in rows], type=pa.float64()),
        })
        got = _moving_partition(tbl, w).to_pandas().sort_values(
            "event_id", ignore_index=True)
        df = tbl.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                         ignore_index=True)
        df["c"] = _round_half_away(df["value"].to_numpy() * 100)
        g = df.groupby("user_id")["c"]
        df["w_sum_cents"] = g.rolling(w, min_periods=1).sum().reset_index(
            level=0, drop=True).astype(np.int64)
        df["w_count"] = g.rolling(w, min_periods=1).count().reset_index(
            level=0, drop=True).astype(np.int64)
        want = df[["event_id", "user_id", "w_sum_cents", "w_count"]
                  ].sort_values("event_id", ignore_index=True)
        pd.testing.assert_frame_equal(got, want)

    check()


def test_dense_rank_algebra_property():
    """the driver dense-rank algebra (sorted distinct pairs +
    segment-start accumulate) == pandas Series.rank(method='dense')."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import numpy as np
    import pandas as pd

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.integers(-50, 50)),
                    min_size=1, max_size=80))
    def check(pairs):
        df = pd.DataFrame(pairs, columns=["g", "v"]).drop_duplicates()
        df = df.sort_values(["g", "v"], ignore_index=True)
        keys = df["g"].to_numpy()
        i = np.arange(len(df), dtype=np.int64)
        new_grp = np.ones(len(df), dtype=bool)
        new_grp[1:] = keys[1:] != keys[:-1]
        grp_start = np.maximum.accumulate(np.where(new_grp, i, 0))
        got = i - grp_start + 1
        want = df.groupby("g")["v"].rank(method="dense").astype(np.int64)
        assert (got == want.to_numpy()).all()

    check()


def test_set_op_semantics_property():
    """set_op_keys distinct/sort/membership algebra == python set ops
    (pure kernel level: per-block distinct + np.isin membership)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import numpy as np

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 30), max_size=60),
           st.lists(st.integers(0, 30), max_size=60))
    def check(a, b):
        aa = np.array(sorted(set(a)), dtype=np.int64)
        bb = np.unique(np.array(b, dtype=np.int64)) if b else np.empty(0, np.int64)
        inter = aa[np.isin(aa, bb)]
        exc = aa[~np.isin(aa, bb)]
        assert set(inter.tolist()) == set(a) & set(b)
        assert set(exc.tolist()) == set(a) - set(b)
        assert len(inter) + len(exc) == len(set(a))

    check()


def test_decode_stats_pinned_for_fixed_queries(ray_session, tmp_path):
    """The decoder changes how blocks are decoded, never which: for a
    fixed index and query set (skip-block probes, MaxScore top-k,
    positions) the searcher's block counters stay at these values."""
    import ray.data

    from chearch_ray import ast
    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.state.engine import QueryEngine

    n = 1200
    corpus = pa.table({
        "repo": ["r"] * n, "path": [f"f{i}.py" for i in range(n)],
        "commit": ["c"] * n, "lang": ["py"] * n,
        "content": [f"hotterm filler{i % 50} "
                    + ("raregem " if i % 97 == 0 else "")
                    + ("bterm" if i % 7 == 0 else "") for i in range(n)],
    })
    root = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus), root,
                EngineConfig(num_segments=2, num_term_shards=2, block_size=16))
    eng = QueryEngine(root, use_actors=False)
    sizes = [
        len(eng.search_boolean(ast.And(ast.Term("raregem"), ast.Term("hotterm")))),
        len(eng.search("raregem hotterm", k=5, default_op="and")),
        len(eng.search("bterm OR hotterm", k=10)),
        len(eng.search_phrase("hotterm filler7", k=5)),
    ]
    assert sizes == [13, 5, 10, 5]
    totals = {k: eng._group.searcher.decode_stats[k]
              for k in ("blocks_decoded", "blocks_total", "full_decodes")}
    # one searcher over both segments: a full decode covers a term's
    # whole group list, where each segment's searcher decoded its own
    assert totals == {"blocks_decoded": 89, "blocks_total": 228, "full_decodes": 4}
