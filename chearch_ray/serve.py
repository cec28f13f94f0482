"""Query-serving facade: the reference's binary wire protocol.

Reimplements the TCP server's request handling contract
(chearch_srv.chpl:20-72; client contract util/query_client.py:12-45):

* request  = 1 byte instruction count + CHASM opcode bytes (a PUSH
  carries a 4-byte big-endian term), total <= 256 bytes;
* response = up to MAX_RESPONSE_RECORDS (8) records of 13 bytes each:
  term:4 BE + textLocation:1 + externalDocId:8 BE.

The reference serves from forked OS processes sharing a libev socket
loop (chearch_srv.chpl:74-103, tcp/tcp_server.c:24); here the same
byte contract is served by `TcpQueryServer`, an asyncio socket server
over a handler (conformance `WireServer` or scale-engine
`WireEngine`).  Request framing mirrors the reference exactly: one
recv per request frame (<= 257 bytes), one response write per
request, connection kept open for further requests.
"""

from __future__ import annotations

from chearch_ray import ast
from chearch_ray.conformance.memory_index import MemoryIndex, QueryResult
from chearch_ray.functions import chasm

#: chearch_srv.chpl:39-40 — at most 8 records per response
MAX_RESPONSE_RECORDS = 8
#: chearch_srv.chpl:23 — request payload cap
MAX_REQUEST_BYTES = 256
WIRE_RECORD_BYTES = 13


def parse_request(request: bytes) -> bytes:
    """request frame -> CHASM program bytes (validates the count byte
    the way handle_received_data does: the reference copies exactly
    `count` instructions, so a frame whose payload encodes a different
    number is malformed)."""
    if len(request) < 1:
        raise ValueError("empty request")
    count = request[0]
    program = request[1:]
    if len(program) > MAX_REQUEST_BYTES:
        raise ValueError(f"request too large: {len(program)} > {MAX_REQUEST_BYTES}")
    buf = chasm.InstructionBuffer(data=program)
    buf.rewind()
    reader = chasm.InstructionReader(buf)
    n = 0
    try:
        while reader.has_more():
            op = reader.read_op()
            n += 1
            if op == chasm.OP_PUSH:
                reader.read_term()
            if op == chasm.OP_HALT:
                break
    except IndexError as exc:
        raise ValueError("truncated CHASM program") from exc
    if n != count:
        raise ValueError(f"instruction count mismatch: header says {count}, payload has {n}")
    return program


def encode_response(results: list[QueryResult]) -> bytes:
    out = b"".join(r.to_wire() for r in results[:MAX_RESPONSE_RECORDS])
    return out


def decode_response(data: bytes) -> list[QueryResult]:
    if len(data) % WIRE_RECORD_BYTES:
        raise ValueError("torn response")
    return [
        QueryResult.from_wire(data[i : i + WIRE_RECORD_BYTES])
        for i in range(0, len(data), WIRE_RECORD_BYTES)
    ]


def build_request(program: bytes) -> bytes:
    """CHASM program -> request frame (instruction count prefix, as the
    python client builds it)."""
    buf = chasm.InstructionBuffer(data=program)
    buf.rewind()
    reader = chasm.InstructionReader(buf)
    n = 0
    while reader.has_more():
        op = reader.read_op()
        n += 1
        if op == chasm.OP_PUSH:
            reader.read_term()
        if op == chasm.OP_HALT:
            break
    return bytes([n]) + program


def compile_wire_query(query: str, default_op: str = "and",
                       size: int = 256) -> bytes:
    """Text query -> CHASM postfix program bytes, ready for
    build_request: the full path from the user-facing query language
    (grammar or flat — state/engine.parse_query routes) to the
    reference's wire format (chasm.chpl:10-13).  Only Term/And/Or
    trees compile — the engine extensions (prefix, fuzzy, negation,
    phrase) never appear on the wire (ast.py docstrings), so they
    raise here with a pointer at the engine-side entry points.  Terms
    map to uint32 ids via the stable term hash (the reference engine
    is integer-termed, search.chpl:7)."""
    from chearch_ray.sources.queries import _int_tree
    from chearch_ray.state.engine import parse_query

    node = parse_query(query, default_op=default_op)

    def check(n: ast.Node) -> None:
        if isinstance(n, ast.Term):
            return
        if isinstance(n, (ast.And, ast.Or)):
            check(n.a)
            check(n.b)
            return
        raise ValueError(
            f"{type(n).__name__} is an engine-side extension and has no "
            "CHASM opcode — query it via QueryEngine.search/search_boolean"
        )

    check(node)
    return chasm.emit_chasm(_int_tree(node), size=size)


class WireServer:
    """Serving handler over the conformance MemoryIndex — byte-level
    equivalent of handle_received_data (chearch_srv.chpl:20-72)."""

    def __init__(self, index: MemoryIndex):
        self.index = index

    def handle(self, request: bytes) -> bytes:
        program = parse_request(request)
        results = self.index.query_chasm(program)
        return encode_response(results)


class WireEngine:
    """Serving adapter over the scale engine (state/engine.QueryEngine):
    the same request/response byte contract, served from the built
    Parquet index instead of the in-memory conformance index.

    Adaptation notes (documented divergence from the reference):
    * CHASM terms are uint32 ids; they resolve to index terms via the
      stable term-id hash (sources/queries.term_id32) over the index
      vocabulary.  Unknown ids behave as missing terms (0 rows).
    * Result rows are posting-level (term id, first position capped at
      255, doc id) like the reference, but ordered by ASCENDING doc id
      — the scale engine's canonical order — rather than the
      reference's newest-first insertion order (SURVEY.md §2.6 O1).
    """

    #: below this many docs an actorless engine answers in well under a
    #: millisecond, so TcpQueryServer auto-routes its v1 loop inline
    #: (no executor hop) — chasing the reference's single-locale
    #: latency claim (README.md:30)
    SMALL_INDEX_DOCS = 1_000_000

    #: text/snippet-response LRU entries.  Sound because a QueryEngine
    #: instance is immutable: it snapshots one manifest (tombstones
    #: included) at construction — deletes/merges produce a NEW
    #: manifest and a new engine, hence a new WireEngine and cache.
    #: The Lucene/ES query-cache analogue for hot serving traffic.
    TEXT_CACHE_SIZE = 4096
    #: byte budget on the same cache: text responses are tiny
    #: (k <= 255 records x 16 B), but SNIPPET responses run to
    #: ~17.7 KB each (k=64 x 276 B), so an entry cap alone would let
    #: a snippet-heavy workload grow the cache to ~72 MB — per
    #: serve_multiprocess child.  Whichever bound trips first evicts.
    TEXT_CACHE_BYTES = 8 * 1024 * 1024

    def __init__(self, engine, text_cache_size: int | None = None):
        from collections import OrderedDict

        from chearch_ray import ast as ast_mod
        from chearch_ray.sources.queries import term_id32

        self._ast = ast_mod
        self.engine = engine
        self._term_by_id = {term_id32(t): t for t in engine._df}
        self.prefers_inline = (
            not engine.use_actors and engine.n_docs <= self.SMALL_INDEX_DOCS
        )
        self._text_cache: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._text_cache_size = (self.TEXT_CACHE_SIZE if text_cache_size is None
                                 else text_cache_size)
        self._text_cache_bytes = 0
        self._text_cache_lock = __import__("threading").Lock()

    # one home for the cache protocol — _handle_text and
    # _handle_snippet share eviction/locking semantics by construction
    def _cache_get(self, key) -> bytes | None:
        with self._text_cache_lock:
            hit = self._text_cache.get(key)
            if hit is not None:
                self._text_cache.move_to_end(key)
            return hit

    def _cache_put(self, key, resp: bytes) -> None:
        with self._text_cache_lock:
            old = self._text_cache.get(key)
            if old is not None:
                self._text_cache_bytes -= len(old)
            self._text_cache[key] = resp
            self._text_cache.move_to_end(key)
            self._text_cache_bytes += len(resp)
            while self._text_cache and (
                    len(self._text_cache) > self._text_cache_size
                    or self._text_cache_bytes > self.TEXT_CACHE_BYTES):
                _, dropped = self._text_cache.popitem(last=False)
                self._text_cache_bytes -= len(dropped)

    def _resolve(self, node):
        ast_mod = self._ast
        if isinstance(node, ast_mod.Term):
            term = self._term_by_id.get(int(node.term))
            return ast_mod.Term(term if term is not None else f"__unknown_{node.term}__")
        cls = ast_mod.And if isinstance(node, ast_mod.And) else ast_mod.Or
        return cls(self._resolve(node.a), self._resolve(node.b))

    def _match_terms(self, node):
        """Query terms in the merge emit order (A side first — the
        last-pushed operand, FIXTURES.md §1)."""
        return [str(t) for t in self._ast.terms_of(node)]

    def handle(self, request: bytes) -> bytes:
        from chearch_ray.functions import chasm as chasm_mod
        from chearch_ray.sources.queries import term_id32

        if request and request[0] == TEXT_MAGIC:
            return self._handle_text(request)
        if request and request[0] == SNIPPET_MAGIC:
            return self._handle_snippet(request)
        program = parse_request(request)
        int_tree = chasm_mod.parse_chasm(program)
        tree = self._resolve(int_tree)
        # the response caps at MAX_RESPONSE_RECORDS and records come
        # from ascending-doc order, so docs beyond the first 8 per
        # segment can never contribute (every matching doc yields >= 1
        # record) — skip projecting the full partition_limit window
        t = self.engine.search_boolean(
            tree,
            limit=min(MAX_RESPONSE_RECORDS, self.engine.cfg.partition_limit),
            with_meta=False,
        )
        docs = t["doc_id"].to_pylist()
        # wide-id indexes project the external (hi, lo) pair; the
        # 13-byte wire record carries the LOW word (the reference's
        # externalDocId is 8 bytes) but position lookups resolve
        # through the full pair
        his = (
            t["doc_id_hi"].to_pylist()
            if "doc_id_hi" in t.column_names
            else [None] * len(docs)
        )
        terms = self._match_terms(tree)
        records: list[QueryResult] = []
        for doc, hi in zip(docs, his):
            for term in terms:
                first = self.engine.first_position(term, doc, doc_hi=hi)
                if first is None:
                    continue
                records.append(
                    QueryResult(
                        term=term_id32(term),
                        text_location=min(first, 255),
                        external_doc_id=int(doc),
                    )
                )
                if len(records) >= MAX_RESPONSE_RECORDS:
                    return encode_response(records)
        return encode_response(records)

    def _handle_text(self, request: bytes) -> bytes:
        """TEXT frame (0xFF | k | utf-8 query): BM25 through the full
        grammar incl. `field:value` filters; 16-byte (doc_id, score)
        records.  Wide-id indexes serve the LOW word, like v1.

        Hot queries answer from a per-WireEngine LRU (the engine is an
        immutable manifest snapshot, so entries can never go stale —
        see TEXT_CACHE_SIZE).  The uncached floor is the BM25 scoring
        data floor itself (profiled: postings intersection + doc-
        length gather), reported separately by the bench's
        tcp_text_distinct_qps row."""
        if len(request) < 3:
            raise ValueError("truncated text request")
        k = request[1]
        if k < 1:
            raise ValueError("k must be >= 1")
        try:
            query = request[2:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("text request is not utf-8") from exc
        key = (k, query)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        t = self.engine.search_parsed(query, k=k, with_meta=False)
        resp = encode_text_response(t["doc_id"].to_pylist(),
                                    t["score"].to_pylist())
        self._cache_put(key, resp)
        return resp

    def _handle_snippet(self, request: bytes) -> bytes:
        """SNIPPET frame (0xFE | k | window | utf-8 query): the
        search-and-display path — BM25 through the full grammar, then
        a docstore fetch of just the k hits and a ±window-token
        snippet anchored at the earliest first occurrence of any
        query term (engine.search_with_snippets).  Response records
        are variable-length: doc_id u64 BE + score f64 BE + pos i32
        BE + len u8 + snippet utf-8 (truncated to 255 bytes on a
        character boundary).  Wide-id indexes serve the LOW word,
        like the text frames.  Requires the index to carry a docstore
        sidecar (state/docstore.py) — without one the request answers
        as malformed, the connection stays up.  k caps at 64 so the
        worst-case response stays far inside the v2 u16 length field.
        Cached in the same immutable-manifest LRU as text frames."""
        if len(request) < 4:
            raise ValueError("truncated snippet request")
        k, window = request[1], request[2]
        if not (1 <= k <= MAX_SNIPPET_K):
            raise ValueError(f"snippet k must be in [1, {MAX_SNIPPET_K}]")
        if window > MAX_SNIPPET_WINDOW:
            raise ValueError(f"window must be <= {MAX_SNIPPET_WINDOW}")
        try:
            query = request[3:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("snippet request is not utf-8") from exc
        key = (SNIPPET_MAGIC, k, window, query)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        t = self.engine.search_with_snippets(query, k=k, window=window)
        out = []
        for d, s, p, snip in zip(t["doc_id"].to_pylist(),
                                 t["score"].to_pylist(),
                                 t["pos"].to_pylist(),
                                 t["snippet"].to_pylist()):
            raw = snip.encode("utf-8")
            if len(raw) > 255:
                # drop a torn trailing char entirely — decode/ignore
                # eats the partial sequence and nothing else
                raw = raw[:255].decode("utf-8", "ignore").encode("utf-8")
            out.append(SNIPPET_HEAD.pack(int(d), float(s), int(p), len(raw)) + raw)
        resp = b"".join(out)
        self._cache_put(key, resp)
        return resp


# --------------------------------------------------------- TCP transport
class TcpQueryServer:
    """Real network transport for the wire protocol: an asyncio socket
    server mirroring the reference's libev loop (chearch_srv.chpl:
    74-103, request handling :20-72).

    * one `recv` per request frame (the reference reads a single
      <= 257-byte buffer and rejects spanning requests);
    * the handler's response bytes are written back in one send;
    * the connection stays open for more requests (libev keeps the
      watcher registered); a malformed frame closes it (the reference
      just error-logs, but a broken framing state is unrecoverable on
      a stream socket).

    `handler` is anything with .handle(bytes) -> bytes (WireServer /
    WireEngine).  Port 0 picks a free port; `self.port` holds the
    bound port after start().

    Concurrency: handler calls (which may block in ray.get) dispatch
    to a `workers`-thread pool, so one slow query never head-of-line-
    blocks other connections — the asyncio loop only shuttles bytes.
    `workers=4` mirrors the reference's >= 4 forked children sharing
    the listen socket (tcp/tcp_server.c:24).  Requests on a SINGLE
    connection stay serialized (the protocol has no request ids to
    match interleaved responses).
    """

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 3033,
                 workers: int = 4, pipelined: bool = False,
                 inline: bool | None = None, reuse_port: bool = False):
        self.handler = handler
        self.host = host
        self.port = port
        self.workers = workers
        #: serve the v2 id-framed protocol instead of v1 (ROADMAP #9:
        #: many in-flight requests per connection, completion-order
        #: responses).  A socket speaks one protocol only.
        self.pipelined = pipelined
        #: v1 fast path: run the handler ON the event loop instead of
        #: the worker pool, skipping the ~1 ms executor hop.  Only
        #: sound when every query is fast (an in-process sub-ms index
        #: — a slow handler would convoy ALL connections, not just its
        #: own).  None auto-routes: handlers advertise
        #: `prefers_inline` (WireEngine sets it for small actorless
        #: indexes).  The v2 loop always uses the pool — its
        #: completion-order pipelining is the point there.
        if inline is None:
            inline = bool(getattr(handler, "prefers_inline", False))
        self.inline = inline
        #: SO_REUSEPORT: several PROCESSES bind the same (host, port)
        #: and the kernel balances incoming connections across them —
        #: the reference's fork-per-listener model (tcp/tcp_server.c:24
        #: MIN_CHILD_PROCESS_COUNT 4).  See serve_multiprocess().
        self.reuse_port = reuse_port
        self._server = None
        self._loop = None
        self._thread = None
        self._pool = None

    async def _on_connection(self, reader, writer) -> None:
        import asyncio

        if self.pipelined:
            await self._on_connection_v2(reader, writer)
            return
        loop = asyncio.get_running_loop()
        try:
            while True:
                data = await reader.read(MAX_REQUEST_BYTES + 1)
                if not data:
                    break
                try:
                    if self.inline:
                        # sub-ms in-process handler: the executor hop
                        # costs more than the query — run on the loop
                        response = self.handler.handle(bytes(data))
                    else:
                        # handler work (parse + query + ray.get) runs
                        # on the pool: other connections' coroutines
                        # keep serving while this one waits
                        response = await loop.run_in_executor(
                            self._pool, self.handler.handle, bytes(data)
                        )
                except Exception:
                    # malformed frame OR handler failure (e.g. a 0xFE
                    # snippet frame on an index without a docstore —
                    # FileNotFoundError): v1 has no request ids or
                    # error framing, so the only sound answer is to
                    # drop the connection — but it must be THIS
                    # clean close, not an unhandled task exception
                    # that leaks past the loop (v2 answers per-id
                    # instead, _serve_one)
                    break
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _on_connection_v2(self, reader, writer) -> None:
        """v2 connection: every request dispatches immediately to the
        worker pool; responses write back in COMPLETION order under a
        write lock.  A malformed v1 payload answers status=1 for its
        id instead of killing the connection (the id disambiguates)."""
        import asyncio

        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        in_flight: set[asyncio.Task] = set()

        async def _serve_one(rid: int, payload: bytes) -> None:
            status = V2_OK
            try:
                response = await loop.run_in_executor(
                    self._pool, self.handler.handle, payload
                )
            except Exception:
                # ANY handler failure must answer this id: the v2
                # connection stays open, so a swallowed exception
                # would leave the client blocked on the pending id
                # until its socket timeout (ADVICE r3)
                status, response = V2_MALFORMED, b""
            async with write_lock:
                writer.write(V2_RESP.pack(rid, status, len(response)) + response)
                await writer.drain()

        try:
            while True:
                try:
                    header = await reader.readexactly(V2_REQ.size)
                except asyncio.IncompleteReadError:
                    break
                rid, ln = V2_REQ.unpack(header)
                payload = await reader.readexactly(ln) if ln else b""
                task = asyncio.ensure_future(_serve_one(rid, payload))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
        except ConnectionResetError:
            pass
        finally:
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def start_async(self) -> None:
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="chearch-wire"
            )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            reuse_port=self.reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self.start_async()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------- threaded control
    def start_background(self) -> "TcpQueryServer":
        """Run the server on a daemon thread (tests / embedding into a
        process that owns the Ray driver); returns self with `port`
        bound."""
        import asyncio
        import threading

        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.start_async())
            started.set()
            try:
                loop.run_until_complete(self._server.serve_forever())
            except BaseException:
                # Server.close() cancels serve_forever -> CancelledError,
                # which is a BaseException — except Exception would kill
                # the thread with an unhandled-exception traceback
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True, name="chearch-tcp")
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("TCP server failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.close)
            if self._thread is not None:
                self._thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None


def query_over_socket(host: str, port: int, program: bytes,
                      timeout: float = 10.0,
                      settle_timeout: float = 0.2) -> list[QueryResult]:
    """Blocking client for the wire protocol (util/query_client.py:
    12-45): connect, send one request frame, read response records up
    to the 8-record cap.

    The protocol has NO length framing (the reference client always
    reads the full 104-byte cap).  This client waits up to `timeout`
    for the first chunk, then reassembles: while the received byte
    count is NOT a whole number of 13-byte records, more data is
    definitely in flight, so it keeps reading with `settle_timeout`;
    once record-aligned it does one short poll (settle/10) to catch a
    same-alignment split before concluding.  A complete sub-cap
    response therefore costs ~settle_timeout/10, not the full timeout.
    An EMPTY response is indistinguishable from a slow server and
    costs the full `timeout` — pass a small timeout when empty results
    are expected."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(build_request(program))
        sock.settimeout(timeout)
        chunks: list[bytes] = []
        got = 0
        want = MAX_RESPONSE_RECORDS * WIRE_RECORD_BYTES
        while got < want:
            try:
                data = sock.recv(want - got)
            except socket.timeout:
                break
            if not data:
                break
            chunks.append(data)
            got += len(data)
            # mid-record: more bytes are in flight for sure; aligned:
            # short poll for a same-alignment split, then conclude
            sock.settimeout(
                settle_timeout if got % WIRE_RECORD_BYTES else settle_timeout / 10
            )
        return decode_response(b"".join(chunks))


class WireClient:
    """Persistent-connection v1 client: connect ONCE, query many — the
    reference's own client holds its socket open across requests
    (util/query_client.py:6), so per-query latency excludes the TCP
    handshake.  Responses are read exactly like query_over_socket
    (record-aligned reassembly with a short settle poll); requests on
    one connection are serialized, as the v1 protocol requires."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 settle_timeout: float = 0.2):
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._timeout = timeout
        self._settle = settle_timeout

    def query(self, program: bytes) -> list[QueryResult]:
        import socket

        sock = self._sock
        sock.settimeout(self._timeout)
        sock.sendall(build_request(program))
        chunks: list[bytes] = []
        got = 0
        want = MAX_RESPONSE_RECORDS * WIRE_RECORD_BYTES
        while got < want:
            try:
                data = sock.recv(want - got)
            except socket.timeout:
                break
            if not data:
                break
            chunks.append(data)
            got += len(data)
            sock.settimeout(
                self._settle if got % WIRE_RECORD_BYTES else self._settle / 10
            )
        return decode_response(b"".join(chunks))

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ------------------------------------------------- pipelined v2 framing
#: ENGINE EXTENSION (never on the reference port): the v1 protocol has
#: no request ids, so responses on a connection must be serialized —
#: one slow query convoys everything behind it (ROADMAP #9).  The v2
#: framing adds explicit ids and length prefixes so MANY requests can
#: be in flight per connection and responses return AS THEY FINISH:
#:   request  = u32 BE request_id | u16 BE len | v1 request frame
#:   response = u32 BE request_id | u8 status | u16 BE len | v1 response
#: status 0 = ok, 1 = malformed request (v1 kills the connection; v2
#: can report per-request because the id disambiguates).  A server
#: socket speaks EITHER v1 or v2 (`pipelined=True`) — in-band
#: autodetection would be ambiguous since a v1 count byte can take any
#: value.
import struct as _struct

V2_REQ = _struct.Struct(">IH")
V2_RESP = _struct.Struct(">IBH")
V2_OK, V2_MALFORMED = 0, 1


def build_request_v2(request_id: int, program: bytes) -> bytes:
    frame = build_request(program)
    return V2_REQ.pack(request_id, len(frame)) + frame


def query_pipelined(host: str, port: int, programs: list[bytes],
                    timeout: float = 10.0) -> list[list[QueryResult] | None]:
    """Send ALL programs on one connection, then collect responses in
    completion order and return results in PROGRAM order (None for a
    malformed entry).  One round trip for the whole batch; slow
    queries never delay fast ones."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"".join(build_request_v2(i, p) for i, p in enumerate(programs)))
        sock.settimeout(timeout)
        out: list[list[QueryResult] | None] = [None] * len(programs)
        pending = set(range(len(programs)))

        def read_exactly(n: int) -> bytes:
            buf = b""
            while len(buf) < n:
                chunk = sock.recv(n - len(buf))
                if not chunk:
                    raise ConnectionError("server closed mid-frame")
                buf += chunk
            return buf

        while pending:
            rid, status, ln = V2_RESP.unpack(read_exactly(V2_RESP.size))
            payload = read_exactly(ln) if ln else b""
            if rid in pending:
                pending.discard(rid)
                out[rid] = decode_response(payload) if status == V2_OK else None
        return out


# ------------------------------------------------- text-query frames
#: ENGINE EXTENSION: a v2 request payload whose first byte is 0xFF is
#: a TEXT query — `0xFF | u8 k | utf-8 query string` — parsed
#: server-side through the full query grammar INCLUDING Lucene
#: `field:value` metadata filters (functions/queryparse.py).  0xFF can
#: never open a valid v1 frame: 255 instructions need >= 5·254+1
#: bytes of program, over MAX_REQUEST_BYTES.  Text responses carry
#: BM25 scores, so they use their own 16-byte record (u64 BE doc_id |
#: f64 BE score) and REQUIRE the v2 length framing — the v1 loop has
#: no length prefix and its client reassembles on the 13-byte grid.
TEXT_MAGIC = 0xFF
TEXT_RECORD = _struct.Struct(">Qd")

#: a SNIPPET query — `0xFE | u8 k | u8 window | utf-8 query` — the
#: search-and-display frame: BM25 top-k plus a docstore-backed
#: ±window-token context per hit.  0xFE cannot open a valid v1 frame
#: for the same size argument as 0xFF.  Records are variable-length
#: (SNIPPET_HEAD + u8-length utf-8 snippet), v2 framing only.  k caps
#: at 64 and snippets at 255 bytes so the worst response (~17.7 KB)
#: stays far inside the v2 u16 response-length field.
SNIPPET_MAGIC = 0xFE
SNIPPET_HEAD = _struct.Struct(">QdiB")
MAX_SNIPPET_K = 64
MAX_SNIPPET_WINDOW = 15


def build_snippet_request(query: str, k: int = 10, window: int = 2) -> bytes:
    if not (1 <= k <= MAX_SNIPPET_K):
        raise ValueError(f"k must be in [1, {MAX_SNIPPET_K}]")
    if not (0 <= window <= MAX_SNIPPET_WINDOW):
        raise ValueError(f"window must be in [0, {MAX_SNIPPET_WINDOW}]")
    raw = query.encode("utf-8")
    if len(raw) > MAX_REQUEST_BYTES:
        raise ValueError(f"query too long: {len(raw)} > {MAX_REQUEST_BYTES}")
    return bytes([SNIPPET_MAGIC, k, window]) + raw


def decode_snippet_response(data: bytes) -> list[tuple[int, float, int, str]]:
    """-> [(doc_id, score, pos, snippet), ...] in rank order."""
    out = []
    i = 0
    while i < len(data):
        if i + SNIPPET_HEAD.size > len(data):
            raise ValueError("torn snippet response")
        doc, score, pos, ln = SNIPPET_HEAD.unpack_from(data, i)
        i += SNIPPET_HEAD.size
        if i + ln > len(data):
            raise ValueError("torn snippet payload")
        out.append((doc, score, pos, data[i : i + ln].decode("utf-8")))
        i += ln
    return out


def query_snippets_pipelined(host: str, port: int, queries: list[str],
                             k: int = 10, window: int = 2,
                             timeout: float = 10.0):
    """Send snippet queries over the v2 pipelined framing; results come
    back as [(doc_id, score, pos, snippet), ...] lists in query order
    (None for a rejected query — e.g. the index has no docstore)."""
    payloads = [build_snippet_request(q, k, window) for q in queries]
    raw = _pipelined_roundtrip(host, port, payloads, timeout)
    return [decode_snippet_response(r) if r is not None else None for r in raw]


def build_text_request(query: str, k: int = 10) -> bytes:
    """text query -> inner payload bytes (v1-frame position inside the
    v2 framing)."""
    if not (1 <= k <= 255):
        raise ValueError("k must be in [1, 255]")
    raw = query.encode("utf-8")
    if len(raw) > MAX_REQUEST_BYTES:
        raise ValueError(f"query too long: {len(raw)} > {MAX_REQUEST_BYTES}")
    return bytes([TEXT_MAGIC, k]) + raw


def encode_text_response(doc_ids, scores) -> bytes:
    return b"".join(TEXT_RECORD.pack(int(d), float(s))
                    for d, s in zip(doc_ids, scores))


def decode_text_response(data: bytes) -> list[tuple[int, float]]:
    if len(data) % TEXT_RECORD.size:
        raise ValueError("torn text response")
    return [TEXT_RECORD.unpack(data[i : i + TEXT_RECORD.size])
            for i in range(0, len(data), TEXT_RECORD.size)]


def build_text_request_v2(request_id: int, query: str, k: int = 10) -> bytes:
    payload = build_text_request(query, k)
    return V2_REQ.pack(request_id, len(payload)) + payload


def _pipelined_roundtrip(host: str, port: int, payloads: list[bytes],
                         timeout: float = 10.0) -> list[bytes | None]:
    """Send all payloads on ONE v2 connection, collect completion-order
    responses, return raw payload bytes in REQUEST order (None for a
    status!=OK response)."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"".join(V2_REQ.pack(i, len(p)) + p
                              for i, p in enumerate(payloads)))
        sock.settimeout(timeout)
        out: list[bytes | None] = [None] * len(payloads)
        pending = set(range(len(payloads)))

        def read_exactly(n: int) -> bytes:
            buf = b""
            while len(buf) < n:
                chunk = sock.recv(n - len(buf))
                if not chunk:
                    raise ConnectionError("server closed mid-frame")
                buf += chunk
            return buf

        while pending:
            rid, status, ln = V2_RESP.unpack(read_exactly(V2_RESP.size))
            payload = read_exactly(ln) if ln else b""
            if rid in pending:
                pending.discard(rid)
                out[rid] = payload if status == V2_OK else None
        return out


def query_text_pipelined(host: str, port: int, queries: list[str],
                         k: int = 10, timeout: float = 10.0
                         ) -> list[list[tuple[int, float]] | None]:
    """Send text queries over the v2 pipelined framing; results come
    back as (doc_id, score) lists in QUERY order (None for a rejected
    query).  Mixable on the same socket with CHASM frames — the server
    dispatches per payload magic."""
    raw = _pipelined_roundtrip(
        host, port, [build_text_request(q, k) for q in queries], timeout)
    return [decode_text_response(r) if r is not None else None for r in raw]


# ------------------------------------------ multi-process serving
def _mp_serve_child(index_dir: str, host: str, port: int,
                    pipelined: bool, workers: int) -> None:
    """Child entrypoint for serve_multiprocess: load the index (no Ray
    — the actorless engine reads parquet directly), bind the shared
    SO_REUSEPORT socket, serve until killed."""
    import asyncio

    from chearch_ray.state.engine import QueryEngine

    eng = QueryEngine(index_dir, use_actors=False)
    srv = TcpQueryServer(WireEngine(eng), host=host, port=port,
                         pipelined=pipelined, workers=workers,
                         reuse_port=True)
    asyncio.run(srv.serve_forever())


def serve_multiprocess(index_dir: str, host: str = "127.0.0.1",
                       port: int = 0, procs: int = 4,
                       pipelined: bool = True, workers: int = 2,
                       start_timeout: float = 60.0):
    """The reference's fork-per-listener serving model
    (tcp/tcp_server.c:24 MIN_CHILD_PROCESS_COUNT 4): `procs` separate
    PROCESSES each load the index and bind the SAME (host, port) via
    SO_REUSEPORT; the kernel balances incoming connections across
    them, so text-query throughput scales past one interpreter's GIL.

    Returns (processes, port).  Callers stop serving by terminating
    the processes (each is a daemon, so they also die with the
    parent).  Children never touch Ray — the actorless engine reads
    the built parquet index directly — so this composes with a parent
    that owns a Ray driver (spawn start method, no forked Ray state).
    Spawn semantics: the CALLING script must guard its entry with
    `if __name__ == "__main__":` (standard multiprocessing rule —
    children re-import the main module)."""
    import multiprocessing as mp
    import socket
    import time as _time

    if port == 0:
        # pick a free port, then release it for the children to bind.
        # (A sliver of a race on a busy host; fine for the sandbox.)
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        port = probe.getsockname()[1]
        probe.close()

    ctx = mp.get_context("spawn")
    processes = []
    for _ in range(procs):
        p = ctx.Process(target=_mp_serve_child,
                        args=(index_dir, host, port, pipelined, workers),
                        daemon=True)
        p.start()
        processes.append(p)
    # readiness: keep connecting until `procs` simultaneous
    # connections succeed (SO_REUSEPORT delivers each to SOME child;
    # one reachable child is enough to proceed)
    deadline = _time.monotonic() + start_timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                break
        except OSError:
            if _time.monotonic() > deadline:
                for p in processes:
                    p.terminate()
                raise TimeoutError("serve_multiprocess children never bound")
            _time.sleep(0.05)
    return processes, port


def query_text_multi(host: str, port: int, queries: list[str], k: int = 10,
                     conns: int = 4, timeout: float = 30.0):
    """Fan text queries over `conns` parallel connections (each
    pipelined) and return results in query order — the client shape
    that exercises a serve_multiprocess deployment, since the kernel
    balances CONNECTIONS (not frames) across the listener processes."""
    from concurrent.futures import ThreadPoolExecutor

    conns = max(1, min(conns, len(queries) or 1))
    shards = [queries[i::conns] for i in range(conns)]
    with ThreadPoolExecutor(max_workers=conns) as pool:
        parts = list(pool.map(
            lambda qs: query_text_pipelined(host, port, qs, k=k,
                                            timeout=timeout), shards))
    out: list = [None] * len(queries)
    for c, part in enumerate(parts):
        for j, r in enumerate(part):
            out[c + j * conns] = r
    return out
