"""Wire protocol facade, batch query path, embedding near-dup,
multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.conformance import MemoryIndex
from chearch_ray.functions import chasm
from chearch_ray.serve import (
    MAX_RESPONSE_RECORDS,
    WIRE_RECORD_BYTES,
    WireServer,
    build_request,
    decode_response,
)


# ----------------------------------------------------------- wire proto
@pytest.fixture()
def server():
    idx = MemoryIndex()
    idx.add_document([(2, 6), (3, 15)], 10)
    idx.add_document([(2, 6)], 15)
    return WireServer(idx)


def _program(*ops):
    buf = chasm.InstructionBuffer(256)
    w = chasm.InstructionWriter(buf)
    for op in ops:
        if isinstance(op, int):
            w.write_push_term(op)
        elif op == "and":
            w.write_and()
        else:
            w.write_or()
    return buf.to_bytes()


def test_wire_roundtrip_helloworld(server):
    req = build_request(_program(2, 3, "and"))
    assert req[0] == 3  # 2 PUSH + 1 AND
    resp = server.handle(req)
    assert len(resp) % WIRE_RECORD_BYTES == 0
    rows = decode_response(resp)
    assert [(r.term, r.text_location, r.external_doc_id) for r in rows] == [
        (3, 15, 10),
        (2, 6, 10),
    ]


def test_wire_response_cap(server):
    for i in range(20):
        server.index.add_document([(7, 0)], 1000 + i)
    resp = server.handle(build_request(_program(7)))
    assert len(resp) == MAX_RESPONSE_RECORDS * WIRE_RECORD_BYTES


def test_wire_missing_term_empty(server):
    assert server.handle(build_request(_program(999))) == b""


def test_wire_oversized_request_rejected(server):
    with pytest.raises(ValueError):
        server.handle(bytes([1]) + b"\x01" * 300)


# --------------------------------------------------------- batch search
def test_search_many_matches_single(ray_session, tmp_path):
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(150, seed=42)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "idx"), cfg)
    eng = QueryEngine(str(tmp_path / "idx"), use_actors=False)
    queries = ["def", "return if", ast.And(ast.Term("def"), ast.Term("return"))]
    batch = eng.search_many(queries, k=5)
    for qid, q in enumerate(queries):
        single = eng.search(q, k=5)
        part = batch.filter(pa.compute.equal(batch["query_id"], qid))
        assert part["doc_id"].to_pylist() == single["doc_id"].to_pylist(), q
        assert part["score"].to_pylist() == single["score"].to_pylist(), q


# ------------------------------------------------- embedding near-dups
def test_embedding_neardup_pairs(ray_session):
    import ray.data

    from chearch_ray.stages.similarity import embedding_neardup_pairs

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((80, 32))
    mat[50] = mat[7] + 1e-3 * rng.standard_normal(32)  # near dup
    mat[60] = mat[7]  # exact dup
    table = pa.table(
        {
            "vec_id": pa.array(range(80), type=pa.int64()),
            "embedding": pa.array(mat.tolist(), type=pa.list_(pa.float32())),
        }
    )
    pairs = embedding_neardup_pairs(
        ray.data.from_arrow(table), dim=32, threshold=0.99
    ).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (7, 50) in found and (7, 60) in found and (50, 60) in found
    assert all(c >= 0.99 for c in pairs["cosine"])


# ------------------------------------------------------------ multimodal
def test_media_feature_extract_stub(ray_session):
    import ray.data

    from chearch_ray.stages.multimodal import (
        MediaFeatureExtract,
        extract_media_features,
        synthesize_media_table,
    )

    media = synthesize_media_table(32, kind="image", seed=42)
    out = extract_media_features(ray.data.from_arrow(media), backend="stub").to_pandas()
    assert len(out) == 32
    feats = np.stack(out.sort_values("media_id")["features"].to_numpy())
    assert feats.shape == (32, MediaFeatureExtract.FEATURE_DIM)
    np.testing.assert_allclose(feats.sum(axis=1), 1.0, rtol=1e-5)
    # determinism
    out2 = extract_media_features(ray.data.from_arrow(media), backend="stub").to_pandas()
    assert sorted(out["payload_sha"]) == sorted(out2["payload_sha"])


def test_media_real_backend_raises():
    from chearch_ray.stages.multimodal import MediaFeatureExtract, synthesize_media_table

    try:
        import PIL  # noqa: F401

        pytest.skip("Pillow present: the pil backend is live "
                    "(covered by test_media_pil_backend_real_decode)")
    except ImportError:
        pass
    # no Pillow in the runtime: requesting the real backend must fail
    # LOUDLY at construction, never fall back to fake features
    with pytest.raises(NotImplementedError):
        MediaFeatureExtract(backend="pil")
    with pytest.raises(ValueError):
        MediaFeatureExtract(backend="nope")
    # ffmpeg stays construction-ok / call-raising (no import to gate)
    stage = MediaFeatureExtract(backend="ffmpeg")
    with pytest.raises(NotImplementedError):
        stage(synthesize_media_table(2))


def test_wire_engine_over_built_index(ray_session, tmp_path):
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.oracle import OracleIndex
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import WireEngine, build_request, decode_response
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.sources.queries import term_id32
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(120, seed=42)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "widx"), cfg)
    eng = QueryEngine(str(tmp_path / "widx"), use_actors=False)
    oracle = OracleIndex(corpus, cfg)
    wire = WireEngine(eng)

    term = max(oracle.postings, key=lambda t: len(oracle.postings[t]))
    tid = term_id32(term)
    req = build_request(_program(tid))
    rows = decode_response(wire.handle(req))
    assert 0 < len(rows) <= 8
    expect_docs = oracle.boolean_search(ast.Term(term))[: len(rows)]
    assert [r.external_doc_id for r in rows] == expect_docs
    for r in rows:
        assert r.term == tid
        doc_positions = oracle.positions[term][r.external_doc_id]
        assert r.text_location == min(doc_positions[0], 255)

    # AND of two hot terms through the wire
    t2 = sorted(oracle.postings, key=lambda t: -len(oracle.postings[t]))[1]
    req2 = build_request(_program(term_id32(t2), tid, "and"))
    rows2 = decode_response(wire.handle(req2))
    and_docs = oracle.boolean_search(ast.And(ast.Term(t2), ast.Term(term)))
    assert {r.external_doc_id for r in rows2} <= set(and_docs)
    # unknown term id -> empty
    assert wire.handle(build_request(_program(12345))) == b""


def test_online_indexer_ingest_flush_query(ray_session, tmp_path):
    from chearch_ray.config import EngineConfig
    from chearch_ray.sources.corpus import synth_row
    from chearch_ray.state.engine import QueryEngine
    from chearch_ray.state.online import OnlineIndexer

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    idx = OnlineIndexer(cfg, flush_threshold=50)
    for i in range(50):
        assert idx.enqueue_index_request(synth_row(i, seed=42))
    assert not idx.enqueue_index_request(synth_row(50, seed=42))  # full
    assert idx.pending() == 50

    pre = idx.search_buffered("def return", k=5)
    manifest = idx.flush(str(tmp_path / "online"))
    assert manifest.num_docs == 50 and idx.pending() == 0

    eng = QueryEngine(str(tmp_path / "online"), use_actors=False)
    post = eng.search("def return", k=5)
    assert post["doc_id"].to_pylist() == [d for d, _ in pre]
    assert post["score"].to_pylist() == [s for _, s in pre]

    idx.mark_complete_for_indexer()
    assert idx.wait_for_indexer()
    with pytest.raises(RuntimeError):
        idx.enqueue_index_request(synth_row(0))


def test_online_indexer_as_actor(ray_session, tmp_path):
    import ray

    from chearch_ray.config import EngineConfig
    from chearch_ray.sources.corpus import synth_row
    from chearch_ray.state.online import OnlineIndexer

    actor = ray.remote(num_cpus=0.5)(OnlineIndexer).remote(
        EngineConfig(num_segments=1, num_term_shards=2), 100
    )
    ray.get([actor.enqueue_index_request.remote(synth_row(i)) for i in range(20)])
    assert ray.get(actor.pending.remote()) == 20
    # flush inside an actor would need its own Ray context; drain to
    # the driver instead (serving-shard pattern)
    ray.kill(actor)


def test_merge_indexes_byte_identical_to_full_build(ray_session, tmp_path):
    """Split corpus into halves, build each, merge — partition files
    must be byte-identical to the from-scratch union build."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.pipelines.merge import merge_indexes
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=3, block_size=16)
    full = synthetic_corpus(120, seed=42)
    a, b = full.slice(0, 60), full.slice(60, 60)
    build_index(ray.data.from_arrow(a), str(tmp_path / "a"), cfg)
    build_index(ray.data.from_arrow(b), str(tmp_path / "b"), cfg)
    m_full = build_index(ray.data.from_arrow(full), str(tmp_path / "full"), cfg)
    m_merged = merge_indexes([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "merged"))

    assert m_merged.num_docs == m_full.num_docs
    assert m_merged.avgdl == m_full.avgdl
    assert {p["part"]: p["sha"] for p in m_merged.postings_parts} == {
        p["part"]: p["sha"] for p in m_full.postings_parts
    }
    assert {p["part"]: p["sha"] for p in m_merged.docmap_parts} == {
        p["part"]: p["sha"] for p in m_full.docmap_parts
    }
    # and it searches
    eng = QueryEngine(str(tmp_path / "merged"), use_actors=False)
    assert len(eng.search("def return", k=5)) == 5


def test_merge_rejects_duplicate_docs(ray_session, tmp_path):
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.pipelines.merge import merge_indexes
    from chearch_ray.sources.corpus import synthetic_corpus

    cfg = EngineConfig(num_segments=1, num_term_shards=2)
    c = synthetic_corpus(20, seed=42)
    build_index(ray.data.from_arrow(c), str(tmp_path / "x"), cfg)
    build_index(ray.data.from_arrow(c), str(tmp_path / "y"), cfg)  # same docs
    with pytest.raises(Exception, match="duplicate doc ids"):
        merge_indexes([str(tmp_path / "x"), str(tmp_path / "y")], str(tmp_path / "z"))


def test_online_flush_roll(ray_session, tmp_path):
    from chearch_ray.config import EngineConfig
    from chearch_ray.sources.corpus import synth_row
    from chearch_ray.state.engine import QueryEngine
    from chearch_ray.state.online import OnlineIndexer

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    main = str(tmp_path / "main")
    idx = OnlineIndexer(cfg, flush_threshold=1000)
    for i in range(30):
        idx.enqueue_index_request(synth_row(i, seed=42))
    m1 = idx.flush_roll(main, scratch_dir=str(tmp_path / "s1"))
    assert m1.num_docs == 30
    for i in range(30, 50):
        idx.enqueue_index_request(synth_row(i, seed=42))
    m2 = idx.flush_roll(main, scratch_dir=str(tmp_path / "s2"))
    assert m2.num_docs == 50
    eng = QueryEngine(main, use_actors=False)
    assert eng.n_docs == 50
    assert len(eng.search("def", k=5)) > 0


# ------------------------------------------------------- TCP transport
def test_tcp_server_golden_helloworld(server):
    """Real socket round-trip of the golden helloworld query
    (chearch_srv.chpl:20-72 + util/query_client.py:12-45)."""
    from chearch_ray.serve import TcpQueryServer, query_over_socket

    srv = TcpQueryServer(server, port=0).start_background()
    try:
        rows = query_over_socket("127.0.0.1", srv.port, _program(2, 3, "and"))
        assert [(r.term, r.text_location, r.external_doc_id) for r in rows] == [
            (3, 15, 10),
            (2, 6, 10),
        ]
        # missing term -> empty response on the same server
        assert query_over_socket("127.0.0.1", srv.port, _program(999), timeout=2.0) == []
    finally:
        srv.stop()


def test_tcp_server_multiple_requests_one_connection(server):
    """The connection stays open across requests, like the libev loop."""
    import socket

    from chearch_ray.serve import TcpQueryServer, build_request

    srv = TcpQueryServer(server, port=0).start_background()
    try:
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            sock.settimeout(5)
            for _ in range(3):
                sock.sendall(build_request(_program(2, 3, "and")))
                data = sock.recv(4096)
                rows = decode_response(data)
                assert [(r.term, r.external_doc_id) for r in rows] == [(3, 10), (2, 10)]
    finally:
        srv.stop()


def test_tcp_server_over_scale_engine(ray_session, tmp_path):
    """TCP transport over a built Parquet index via WireEngine: CHASM
    term-id queries resolve against the real index over a socket."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import TcpQueryServer, WireEngine, query_over_socket
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.sources.queries import term_id32
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    build_index(ray.data.from_arrow(synthetic_corpus(120, seed=42)), str(tmp_path / "t"), cfg)
    eng = QueryEngine(str(tmp_path / "t"), use_actors=False)
    try:
        srv = TcpQueryServer(WireEngine(eng), port=0).start_background()
        try:
            rows = query_over_socket("127.0.0.1", srv.port, _program(term_id32("def")))
            assert rows  # "def" is everywhere in the synthetic code corpus
            expected = eng.search_boolean(ast.Term("def"))["doc_id"].to_pylist()
            assert [r.external_doc_id for r in rows] == expected[: len(rows)]
            assert all(r.term == term_id32("def") for r in rows)
        finally:
            srv.stop()
    finally:
        eng.close()


def test_tcp_server_concurrent_connections(server):
    """A slow query on one connection must not head-of-line-block a
    fast query on another: handler work dispatches to the worker
    thread pool (the reference forks >= 4 children sharing the listen
    socket, tcp/tcp_server.c:24)."""
    import threading
    import time

    from chearch_ray.serve import TcpQueryServer, query_over_socket

    class SlowFirstHandler:
        """delays the FIRST request it sees by 1s; later ones are fast."""

        def __init__(self, inner):
            self.inner = inner
            self._first = threading.Event()

        def handle(self, request: bytes) -> bytes:
            if not self._first.is_set():
                self._first.set()
                time.sleep(1.0)
            return self.inner.handle(request)

    srv = TcpQueryServer(SlowFirstHandler(server), port=0).start_background()
    done: dict[str, float] = {}
    try:
        def slow():
            query_over_socket("127.0.0.1", srv.port, _program(2, 3, "and"), timeout=5.0)
            done["slow"] = time.perf_counter()

        def fast():
            time.sleep(0.2)  # let the slow request arrive first
            query_over_socket("127.0.0.1", srv.port, _program(2, 3, "and"), timeout=5.0)
            done["fast"] = time.perf_counter()

        ts = threading.Thread(target=slow), threading.Thread(target=fast)
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=10)
        assert "slow" in done and "fast" in done
        assert done["fast"] < done["slow"], "fast query waited behind the slow one"
    finally:
        srv.stop()


# ------------------------------------------- pipelined v2 transport
def test_pipelined_v2_golden_and_order(server):
    """v2 framing returns the SAME records as v1 for the golden query,
    batches many programs on one connection, and reports malformed
    requests per-id instead of dropping the connection."""
    from chearch_ray.serve import TcpQueryServer, query_pipelined

    srv = TcpQueryServer(server, port=0, pipelined=True).start_background()
    try:
        programs = [_program(2, 3, "and"), _program(999), _program(2, 3, "and")]
        out = query_pipelined("127.0.0.1", srv.port, programs)
        for rows in (out[0], out[2]):
            assert [(r.term, r.text_location, r.external_doc_id) for r in rows] == [
                (3, 15, 10),
                (2, 6, 10),
            ]
        assert out[1] == []  # unknown term: clean empty response
        # malformed payload -> status=1 -> None, connection survives
        import socket
        import struct

        from chearch_ray.serve import V2_REQ, V2_RESP, build_request_v2, decode_response

        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            bad = b"\x07\x01"  # count byte says 7, payload has 1 op
            sock.sendall(V2_REQ.pack(0, len(bad)) + bad)
            sock.sendall(build_request_v2(1, _program(2, 3, "and")))
            seen = {}
            buf = b""
            while len(seen) < 2:
                chunk = sock.recv(4096)
                assert chunk, "server closed the connection on a malformed v2 request"
                buf += chunk
                while len(buf) >= V2_RESP.size:
                    rid, status, ln = V2_RESP.unpack(buf[: V2_RESP.size])
                    if len(buf) < V2_RESP.size + ln:
                        break
                    seen[rid] = (status, buf[V2_RESP.size : V2_RESP.size + ln])
                    buf = buf[V2_RESP.size + ln :]
            assert seen[0][0] == 1 and seen[0][1] == b""
            assert seen[1][0] == 0 and len(decode_response(seen[1][1])) == 2
    finally:
        srv.stop()


def test_pipelined_v2_slow_query_does_not_convoy(server):
    """two requests on ONE connection: the slow first request must not
    delay the fast second one — its response arrives first."""
    import threading
    import time

    from chearch_ray.serve import TcpQueryServer, V2_RESP, build_request_v2

    class SlowFirst:
        def __init__(self, inner):
            self.inner = inner
            self._first = threading.Event()

        def handle(self, request: bytes) -> bytes:
            if not self._first.is_set():
                self._first.set()
                time.sleep(0.8)
            return self.inner.handle(request)

    srv = TcpQueryServer(SlowFirst(server), port=0, pipelined=True).start_background()
    try:
        import socket

        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            sock.sendall(build_request_v2(7, _program(2, 3, "and")))
            time.sleep(0.1)  # ensure the slow one is picked up first
            sock.sendall(build_request_v2(8, _program(2, 3, "and")))
            first_header = b""
            while len(first_header) < V2_RESP.size:
                first_header += sock.recv(V2_RESP.size - len(first_header))
            rid, status, ln = V2_RESP.unpack(first_header)
            assert rid == 8, "fast request should complete first on the wire"
    finally:
        srv.stop()


# ----------------------------------------------- tiered merge policy
def test_tiered_policy_rewrite_amplification():
    """Pure policy simulation: across N same-size flushes the live-set
    size stays logarithmic and total rewritten docs are O(N log N) —
    the reason tiered beats merge-into-main (O(N^2))."""
    from chearch_ray.state.tiered import pick_merge_group, size_class

    fanout, base = 4, 10
    live: list[int] = []
    rewritten = 0
    n_flushes = 256
    for _ in range(n_flushes):
        live.append(10)
        while (g := pick_merge_group(live, fanout, base)) is not None:
            merged = sum(live[i] for i in g)
            rewritten += merged
            live = [n for i, n in enumerate(live) if i not in set(g)]
            live.append(merged)
    total_docs = n_flushes * 10
    assert sum(live) == total_docs
    # live count bounded by fanout per class x class count (log_4 256 = 4)
    assert len(live) <= (fanout - 1) * (size_class(total_docs, base, fanout) + 1)
    # each doc rewritten ~log_fanout(N) times, far below N/2 (main-merge)
    assert rewritten <= total_docs * (size_class(total_docs, base, fanout) + 1)
    assert rewritten < total_docs * n_flushes / 8


def test_tiered_index_set_collapse_byte_identical(ray_session, tmp_path):
    """Flush 5 slices through TieredIndexSet (fanout=2 so merges
    actually trigger), collapse, and compare part shas to a one-shot
    build over the union corpus."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine
    from chearch_ray.state.tiered import TieredIndexSet

    cfg = EngineConfig(num_segments=2, num_term_shards=3, block_size=16)
    full = synthetic_corpus(150, seed=43)
    tis = TieredIndexSet(str(tmp_path / "tiers"), fanout=2, base_docs=40)
    for i in range(5):
        d = str(tmp_path / f"flush{i}")
        build_index(ray.data.from_arrow(full.slice(i * 30, 30)), d, cfg)
        tis.add(d)
    assert tis.merge_log, "fanout=2 over 5 flushes must merge"
    assert 1 <= len(tis.live_dirs()) < 5
    m_full = build_index(ray.data.from_arrow(full), str(tmp_path / "full"), cfg)
    m_col = tis.collapse(str(tmp_path / "serving"))
    assert m_col.num_docs == m_full.num_docs
    assert {p["part"]: p["sha"] for p in m_col.postings_parts} == {
        p["part"]: p["sha"] for p in m_full.postings_parts
    }
    assert {p["part"]: p["sha"] for p in m_col.docmap_parts} == {
        p["part"]: p["sha"] for p in m_full.docmap_parts
    }
    eng = QueryEngine(str(tmp_path / "serving"), use_actors=False)
    assert len(eng.search("def return", k=5)) == 5


def test_online_flush_tiered_matches_batch_build(ray_session, tmp_path):
    """OnlineIndexer.flush_tiered: three buffer flushes through a
    TieredIndexSet collapse to part shas identical to one batch build
    over all enqueued rows."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.online import OnlineIndexer
    from chearch_ray.state.tiered import TieredIndexSet

    cfg = EngineConfig(num_segments=2, num_term_shards=3, block_size=16)
    corpus = synthetic_corpus(90, seed=47)
    tis = TieredIndexSet(str(tmp_path / "tiers"), fanout=2, base_docs=25)
    idx = OnlineIndexer(cfg, flush_threshold=30)
    rows = corpus.to_pylist()
    for i, row in enumerate(rows):
        assert idx.enqueue_index_request(row) or True
        if (i + 1) % 30 == 0:
            idx.flush_tiered(tis)
    assert idx.pending() == 0
    m_full = build_index(ray.data.from_arrow(corpus), str(tmp_path / "full"), cfg)
    m_col = tis.collapse(str(tmp_path / "serving"))
    assert m_col.num_docs == m_full.num_docs
    assert {p["part"]: p["sha"] for p in m_col.postings_parts} == {
        p["part"]: p["sha"] for p in m_full.postings_parts
    }


def test_tiered_index_set_reopen_resumes_counter(ray_session, tmp_path):
    """Reopening an existing tiered root must resume the name counter
    past every existing idx-*/merge-* directory: a fresh instance used
    to restart at 0 and shutil.move the next flush INSIDE the occupied
    live/idx-00000001 (silent data loss — ADVICE r3)."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.tiered import TieredIndexSet

    cfg = EngineConfig(num_segments=1, num_term_shards=2, block_size=16)
    full = synthetic_corpus(60, seed=51)
    root = str(tmp_path / "tiers")
    tis = TieredIndexSet(root, fanout=4, base_docs=1_000_000)
    d0 = str(tmp_path / "flush0")
    build_index(ray.data.from_arrow(full.slice(0, 30)), d0, cfg)
    tis.add(d0)
    assert len(tis.live_dirs()) == 1

    # process restart: a NEW instance over the same root
    tis2 = TieredIndexSet(root, fanout=4, base_docs=1_000_000)
    assert tis2._counter >= 1
    d1 = str(tmp_path / "flush1")
    build_index(ray.data.from_arrow(full.slice(30, 30)), d1, cfg)
    tis2.add(d1)
    dirs = tis2.live_dirs()
    assert len(dirs) == 2, f"restart lost a flush: {dirs}"
    # no nesting: neither live dir contains the other
    names = [d.rsplit("/", 1)[1] for d in dirs]
    assert len(set(names)) == 2
    m = tis2.collapse(str(tmp_path / "serving"))
    assert m.num_docs == 60


def test_pipelined_v2_internal_error_answers_per_id(server):
    """A handler exception that is NOT ValueError must still answer
    the request id with an error status — the v2 connection stays
    open, so a swallowed exception used to leave the client blocked
    on the pending id forever (ADVICE r3)."""
    import socket

    from chearch_ray.serve import TcpQueryServer, V2_RESP, build_request_v2

    class ExplodingHandler:
        def __init__(self, inner):
            self.inner = inner

        def handle(self, request: bytes) -> bytes:
            if request == b"\xff":
                raise RuntimeError("internal failure")
            return self.inner.handle(request)

    srv = TcpQueryServer(ExplodingHandler(server), port=0,
                         pipelined=True).start_background()
    try:
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            sock.sendall(V2_RESP.pack(0, 0, 0)[:0] + b"")  # no-op
            from chearch_ray.serve import V2_REQ

            sock.sendall(V2_REQ.pack(5, 1) + b"\xff")       # explodes
            sock.sendall(build_request_v2(6, _program(2, 3, "and")))
            seen = {}
            buf = b""
            sock.settimeout(5)
            while len(seen) < 2:
                chunk = sock.recv(4096)
                assert chunk, "server closed the connection on an internal error"
                buf += chunk
                while len(buf) >= V2_RESP.size:
                    rid, status, ln = V2_RESP.unpack(buf[: V2_RESP.size])
                    if len(buf) < V2_RESP.size + ln:
                        break
                    seen[rid] = status
                    buf = buf[V2_RESP.size + ln:]
            assert seen[5] == 1, "exploding request must answer with error status"
            assert seen[6] == 0, "healthy request must still succeed"
    finally:
        srv.stop()


def test_wire_client_persistent_and_inline_route(ray_session, tmp_path):
    """WireClient holds one connection across queries (the reference
    client's own shape) and returns the same records as the
    reconnect-per-request client; a small actorless index auto-routes
    the v1 loop inline (no executor hop)."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import (
        TcpQueryServer,
        WireClient,
        WireEngine,
        query_over_socket,
    )
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.sources.queries import term_id32
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    build_index(ray.data.from_arrow(synthetic_corpus(120, seed=42)), str(tmp_path / "t"), cfg)
    eng = QueryEngine(str(tmp_path / "t"), use_actors=False)
    try:
        handler = WireEngine(eng)
        assert handler.prefers_inline  # small + actorless
        srv = TcpQueryServer(handler, port=0).start_background()
        assert srv.inline
        try:
            progs = [_program(term_id32("def")), _program(term_id32("return")),
                     _program(term_id32("def"), term_id32("return"), "and")]
            with WireClient("127.0.0.1", srv.port) as cli:
                for p in progs:  # several queries, ONE connection
                    got = cli.query(p)
                    want = query_over_socket("127.0.0.1", srv.port, p)
                    assert [(r.term, r.external_doc_id) for r in got] == [
                        (r.term, r.external_doc_id) for r in want
                    ]
                    assert got, "known terms must match"
        finally:
            srv.stop()
    finally:
        eng.close()


def test_wire_engine_id_only_projection_matches_full(ray_session, tmp_path):
    """The wire handler's with_meta=False / limit-8 boolean fast path
    must return exactly the ids the full projection returns."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    build_index(ray.data.from_arrow(synthetic_corpus(120, seed=42)), str(tmp_path / "t"), cfg)
    eng = QueryEngine(str(tmp_path / "t"), use_actors=False)
    try:
        full = eng.search_boolean(ast.Term("def"))
        lean = eng.search_boolean(ast.Term("def"), with_meta=False, limit=8)
        assert lean.column_names == ["doc_id"]
        # a per-segment limit of L guarantees exactly the first L rows
        # of the GLOBAL ascending merge — all the 8-record wire
        # response can ever consume
        assert lean["doc_id"].to_pylist()[:8] == full["doc_id"].to_pylist()[:8]
        assert len(lean) == min(16, len(full))  # 8 per segment x 2
    finally:
        eng.close()


def test_compile_wire_query_roundtrip(ray_session, tmp_path):
    """grammar query string -> CHASM wire bytes -> WireEngine over a
    built index: the doc set must equal the engine's own boolean
    evaluation of the same string (up to the wire's result window)."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import (WireEngine, build_request,
                                   compile_wire_query, decode_response)
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(120, seed=42)
    build_index(ray.data.from_arrow(corpus), str(tmp_path / "cwq"), cfg)
    eng = QueryEngine(str(tmp_path / "cwq"), use_actors=False)
    wire = WireEngine(eng)

    q = "(def OR class) AND return"
    prog = compile_wire_query(q)
    rows = decode_response(wire.handle(build_request(prog)))
    got = sorted({r.external_doc_id for r in rows})
    want = sorted(eng.search_boolean(q, limit=10**9)["doc_id"].to_pylist())
    # wire responses are record-capped; got must be a prefix-closed subset
    assert got and set(got) <= set(want)
    if len(rows) < 8:  # uncapped -> exact set
        assert got == want


def test_compile_wire_query_rejects_extensions():
    from chearch_ray.serve import compile_wire_query

    for q in ("def AND NOT class", "pre* AND def", "part~2", '"def return"'):
        with pytest.raises(ValueError):
            compile_wire_query(q)


def test_tcp_text_query_frames(ray_session, tmp_path):
    """TEXT frames over the v2 pipelined transport: the query string
    (grammar + field:value filters) parses server-side; (doc_id,
    score) records come back length-framed and equal the engine's own
    search_parsed, interleaved with CHASM frames on the same socket."""
    import socket

    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.serve import (TcpQueryServer, V2_OK, V2_RESP, WireEngine,
                                   build_request_v2, build_text_request_v2,
                                   decode_response, decode_text_response,
                                   query_text_pipelined)
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.sources.queries import term_id32
    from chearch_ray.state.engine import QueryEngine

    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    build_index(ray.data.from_arrow(synthetic_corpus(150, seed=42)),
                str(tmp_path / "t"), cfg)
    eng = QueryEngine(str(tmp_path / "t"), use_actors=False)
    try:
        srv = TcpQueryServer(WireEngine(eng), port=0,
                             pipelined=True).start_background()
        try:
            queries = ["def return", "lang:py def OR class", "return -def",
                       "doc_len:[5 TO 30] def OR return", "*urn def"]
            out = query_text_pipelined("127.0.0.1", srv.port, queries, k=10)
            for q, got in zip(queries, out):
                want = eng.search_parsed(q, k=10)
                assert got == list(zip(want["doc_id"].to_pylist(),
                                       want["score"].to_pylist()))
            assert len(out[0]) > 0 and len(out[1]) > 0
            # malformed text query -> status=1 (None), connection lives
            bad = query_text_pipelined("127.0.0.1", srv.port,
                                       ["lang:py"], k=10)
            assert bad == [None]
            # mixed CHASM + TEXT frames on ONE socket
            from chearch_ray.functions import chasm

            buf = chasm.InstructionBuffer(16)
            w = chasm.InstructionWriter(buf)
            w.write_push_term(term_id32("def"))
            prog = buf.to_bytes()
            with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
                sock.sendall(build_request_v2(0, prog)
                             + build_text_request_v2(1, "def return", 5))
                got = {}

                def read_exactly(n):
                    b = b""
                    while len(b) < n:
                        c = sock.recv(n - len(b))
                        assert c, "server closed"
                        b += c
                    return b

                while len(got) < 2:
                    rid, status, ln = V2_RESP.unpack(read_exactly(V2_RESP.size))
                    payload = read_exactly(ln) if ln else b""
                    assert status == V2_OK
                    got[rid] = payload
            assert [r.external_doc_id for r in decode_response(got[0])] \
                == eng.search_boolean(ast.Term("def"), with_meta=False,
                                      limit=8)["doc_id"].to_pylist()[:8]
            want = eng.search_parsed("def return", k=5)
            assert decode_text_response(got[1]) == list(
                zip(want["doc_id"].to_pylist(), want["score"].to_pylist()))
        finally:
            srv.stop()
    finally:
        eng.close()


def test_tcp_server_survives_malformed_frames(server):
    """random garbage payloads (both transports) must never wedge the
    server: v2 answers status=1 per id (or the connection drops), v1
    drops the connection — and a fresh valid query still works after."""
    import random
    import socket
    import struct

    from chearch_ray.serve import (TcpQueryServer, V2_RESP,
                                   query_over_socket, query_pipelined)

    rng = random.Random(7)

    srv1 = TcpQueryServer(server, port=0).start_background()
    try:
        for _ in range(5):
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 60)))
            with socket.create_connection(("127.0.0.1", srv1.port),
                                          timeout=5) as s:
                s.sendall(junk)
                s.settimeout(1.0)
                try:
                    s.recv(256)  # either data or clean close
                except socket.timeout:
                    pass
        # server still serves valid v1 frames afterwards
        rows = query_over_socket("127.0.0.1", srv1.port, _program(2, 3, "and"))
        assert rows
    finally:
        srv1.stop()

    srv2 = TcpQueryServer(server, port=0, pipelined=True).start_background()
    try:
        with socket.create_connection(("127.0.0.1", srv2.port), timeout=5) as s:
            for rid in range(6):
                junk = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
                s.sendall(struct.pack(">IH", rid, len(junk)) + junk)
            s.settimeout(5.0)
            got = {}

            def read_exactly(n):
                b = b""
                while len(b) < n:
                    c = s.recv(n - len(b))
                    assert c, "server closed mid-frame"
                    b += c
                return b

            while len(got) < 6:
                rid, status, ln = V2_RESP.unpack(read_exactly(V2_RESP.size))
                payload = read_exactly(ln) if ln else b""
                got[rid] = status
            assert set(got) == set(range(6))
            assert all(st == 1 for st in got.values())
        # the same listener still answers a valid pipelined batch
        out = query_pipelined("127.0.0.1", srv2.port, [_program(2, 3, "and")])
        assert out[0]
    finally:
        srv2.stop()
