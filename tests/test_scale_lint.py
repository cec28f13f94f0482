"""Scale-audit lint: every driver-side gather in chearch_ray/stages/
must be BOUNDED (O(1) rows per block / per group cap) or behind a
documented DRIVER_MERGE_LIMIT-style gate (VERDICT r3 #7).

The whitelist below is keyed by (file, enclosing function); each entry
records WHY the gather is safe at ~8e5 read blocks (the repo's own
100-TB estimate, BASELINE.md).  A new `.take_all()` / `.to_pandas()` /
`.iter_rows()` call site in stages/ fails this test until it is either
restructured (partial -> Ray groupby merge) or whitelisted with a
boundedness argument."""

from __future__ import annotations

import ast
import glob
import os
import re

STAGES_DIR = os.path.join(os.path.dirname(__file__), "..", "chearch_ray", "stages")

#: (file, enclosing function) -> boundedness argument
ALLOWED_GATHERS = {
    ("dedup.py", "_state_signature"):
        "one 2-int checksum row per block (convergence check)",
    ("pack.py", "pack_sequences"):
        "min/max: one row per block; bucket merge: gated at "
        "DRIVER_MERGE_LIMIT (groupby-Sum above), <= n_buckets rows after",
    ("sketch.py", "_merge_hist"):
        "gated: groupby-Sum above driver_merge_limit, <= n_buckets rows after",
    ("sketch.py", "exact_quantiles"):
        "min/max/count: one row per block; final gather <= gather_limit rows",
    ("sketch.py", "exact_order_stats"):
        "min/max/count: one 3-int row per block; final gather <= "
        "gather_limit rows per rank (same classes as exact_quantiles)",
    ("sketch.py", "_drive_rank_jobs"):
        "hist rounds gated on jb-key groupby above driver_merge_limit; "
        "final gather <= gather_limit rows per job (shared by the disc "
        "and cont grouped quantile forms)",
}

GATHER_METHODS = {"take_all", "iter_rows", "to_pandas"}


def _gather_sites():
    sites = []
    for path in sorted(glob.glob(os.path.join(STAGES_DIR, "*.py"))):
        tree = ast.parse(open(path).read())
        fname = os.path.basename(path)
        stack: list[str] = []

        class V(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in GATHER_METHODS:
                    sites.append((fname, stack[-1] if stack else "<module>",
                                  f.attr, node.lineno))
                self.generic_visit(node)

        V().visit(tree)
    return sites


def test_stage_driver_gathers_are_whitelisted():
    sites = _gather_sites()
    assert sites, "expected to find the known gather sites (AST walk broken?)"
    unexpected = [
        s for s in sites if (s[0], s[1]) not in ALLOWED_GATHERS
    ]
    assert not unexpected, (
        "new driver-side gather(s) in chearch_ray/stages/ — restructure as a "
        "gated Ray groupby merge (see pack.DRIVER_MERGE_LIMIT) or whitelist "
        f"with a boundedness argument: {unexpected}"
    )


def test_whitelist_has_no_stale_entries():
    live = {(f, fn) for f, fn, _, _ in _gather_sites()}
    stale = [k for k in ALLOWED_GATHERS if k not in live]
    assert not stale, f"whitelisted gather sites no longer exist: {stale}"


def test_driver_rotation_covers_unchecked_queries():
    """The driver harness checks the FIRST 50 QUERIES entries; the
    round-4 rotation must keep every query that has never appeared in
    a CORRECTNESS_r*.json inside that window (VERDICT r3 #1).  Guards
    against accidental re-ordering.  A row whose every recorded run
    errored (e.g. pq_knn's r04 `no_oracle`) counts as UNCHECKED — it
    was never value-verified, so it still deserves a window slot."""
    import json

    from chearch_ray.pipelines.driver_contract import QUERIES

    repo = os.path.join(os.path.dirname(__file__), "..")
    checked: set[str] = set()
    for f in sorted(glob.glob(os.path.join(repo, "CORRECTNESS_r*.json"))):
        for name, row in json.load(open(f)).items():
            if not (isinstance(row, dict) and row.get("err")):
                checked.add(name)
    names = list(QUERIES)
    never = [n for n in names if n not in checked]
    window = names[:50]
    if len(never) <= 50:
        missing = [n for n in never if n not in set(window)]
        assert not missing, (
            f"never-driver-checked queries outside the first-50 window: {missing}"
        )
    else:
        # more unchecked queries than window slots: coverage is maximal
        # iff every slot goes to an unchecked query
        stale = [n for n in window if n in checked]
        assert not stale, (
            f"first-50 window wastes slots on already-checked queries: {stale}"
        )


GATHERING_AFTER_COUNT = re.compile(
    r"if\s+(\w+)\.count\(\)", re.MULTILINE)


def test_no_lazy_count_then_reuse():
    """`if ds.count()` on a LAZY dataset executes the whole plan once
    for the count and again when the dataset is consumed (the
    inactive_customers 2x bug).  Every `<name>.count()` call in
    pipelines/stages must be on a name bound via `.materialize()`
    in the same file."""
    base = os.path.join(os.path.dirname(__file__), "..", "chearch_ray")
    offenders = []
    for path in sorted(glob.glob(os.path.join(base, "stages", "*.py"))
                       + glob.glob(os.path.join(base, "pipelines", "*.py"))):
        tree = ast.parse(open(path).read())
        materialized: set[str] = set()
        count_calls: list[tuple[str, int]] = []

        class V(ast.NodeVisitor):
            def visit_Assign(self, node):
                v = node.value
                # names bound from materialize() are safe; so are
                # QueryEngine bindings (engine_for / QueryEngine) —
                # QueryEngine.count is a segment-side integer sum,
                # not a Dataset plan execution
                safe = (isinstance(v, ast.Call) and (
                    (isinstance(v.func, ast.Attribute)
                     and v.func.attr in ("materialize",))
                    or (isinstance(v.func, ast.Name)
                        and v.func.id in ("engine_for", "QueryEngine"))
                    or (isinstance(v.func, ast.Attribute)
                        and v.func.attr == "QueryEngine")))
                if safe:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            materialized.add(t.id)
                self.generic_visit(node)

            def visit_Call(self, node):
                f = node.func
                if (isinstance(f, ast.Attribute) and f.attr == "count"
                        and isinstance(f.value, ast.Name)):
                    count_calls.append((f.value.id, node.lineno))
                self.generic_visit(node)

        V().visit(tree)
        for name, line in count_calls:
            if name not in materialized:
                offenders.append((os.path.basename(path), name, line))
    assert not offenders, (
        "count() on a possibly-lazy dataset (double execution): "
        f"{offenders} — materialize first or whitelist with a reason"
    )


def test_no_pandas_roundtrip_in_library_code():
    """VERDICT r4 #7: per-batch kernels must stay Arrow-native — a
    `.to_pandas()` / `.fillna(` round-trip inside a hot kernel copies
    every column.  Library pipeline modules (everything except the
    driver contract, whose to_pandas calls sit on final bounded
    results the contract must return) must contain NONE; stages/ are
    already covered by the gather whitelist above."""
    base = os.path.join(os.path.dirname(__file__), "..", "chearch_ray")
    offenders = []
    for path in sorted(glob.glob(os.path.join(base, "pipelines", "*.py"))):
        if os.path.basename(path) == "driver_contract.py":
            continue
        tree = ast.parse(open(path).read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("to_pandas", "fillna")):
                offenders.append((os.path.basename(path), node.func.attr,
                                  node.lineno))
    assert not offenders, (
        "pandas round-trip in a library pipeline module — use pure "
        f"Arrow (pc.if_else/fill_null + cast): {offenders}"
    )


STATE_DIR = os.path.join(os.path.dirname(__file__), "..", "chearch_ray", "state")
#: SearcherGroup methods whose first argument names a SegmentSearcher method
GROUP_DISPATCH = ("topk", "topk_many", "concat")


def _class_methods(path: str, cls: str) -> set[str]:
    for node in ast.parse(open(path).read()).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    raise AssertionError(f"class {cls} not found in {path}")


def _dispatch_names(path: str) -> list[tuple[str, str, int]]:
    """(kind, method name, line) for every string literal the module
    passes as a method name: kind "group" for the first argument of
    `_scatter`; kind "segment" for the first argument of `_topk` and of
    the GROUP_DISPATCH calls, and for the second argument of a
    `_scatter` that dispatches through one of those."""
    out = []
    for node in ast.walk(ast.parse(open(path).read())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        lits = [a.value if isinstance(a, ast.Constant) and isinstance(a.value, str) else None
                for a in node.args[:2]]
        if not lits or lits[0] is None:
            continue
        if node.func.attr == "_scatter":
            out.append(("group", lits[0], node.lineno))
            if lits[0] in GROUP_DISPATCH and len(lits) > 1 and lits[1] is not None:
                out.append(("segment", lits[1], node.lineno))
        elif node.func.attr in ("_topk", *GROUP_DISPATCH):
            out.append(("segment", lits[0], node.lineno))
    return out


def test_engine_dispatch_strings_name_real_methods():
    """String dispatch turns a misspelled method name into a raw
    AttributeError inside an actor, at query time.  Every literal
    state/engine.py passes to `_scatter` must name a SearcherGroup
    method, and every literal it passes to `_topk`, `topk`,
    `topk_many` or `concat` (directly or through `_scatter`) must name
    a SegmentSearcher method."""
    searcher = os.path.join(STATE_DIR, "searcher.py")
    methods = {"group": _class_methods(searcher, "SearcherGroup"),
               "segment": _class_methods(searcher, "SegmentSearcher")}
    sites = _dispatch_names(os.path.join(STATE_DIR, "engine.py"))
    assert {kind for kind, _, _ in sites} == {"group", "segment"}, (
        f"expected both dispatch kinds (AST walk broken?): {sites}")
    bad = [s for s in sites if s[1] not in methods[s[0]]]
    assert not bad, f"engine.py dispatches to methods that do not exist: {bad}"


def _arrow_boxing_sites(source: str) -> list[tuple[str, str, int]]:
    """(method, what, line) for every `.as_py()` call and every use of
    pyarrow.compute inside a PostingsPartReader method other than
    `__init__`.  pyarrow.compute counts as an import of it, an alias
    bound to it at module level, or `<pyarrow alias>.compute`."""
    tree = ast.parse(source)
    pa_names, pc_names = {"pyarrow"}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "pyarrow":
                    pa_names.add(a.asname or a.name)
                elif a.name == "pyarrow.compute" and a.asname:
                    pc_names.add(a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "pyarrow":
            pc_names.update(a.asname or a.name for a in node.names if a.name == "compute")
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "PostingsPartReader")
    sites = []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
            continue
        for node in ast.walk(fn):
            what = None
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "as_py"):
                what = ".as_py()"
            elif (isinstance(node, ast.Attribute) and node.attr == "compute"
                  and isinstance(node.value, ast.Name) and node.value.id in pa_names):
                what = "pyarrow.compute"
            elif isinstance(node, ast.Name) and node.id in pc_names:
                what = "pyarrow.compute"
            elif isinstance(node, ast.Import) and any(
                    a.name.startswith("pyarrow.compute") for a in node.names):
                what = "import pyarrow.compute"
            elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("pyarrow.compute")
                    or (node.module == "pyarrow"
                        and any(a.name == "compute" for a in node.names))):
                what = "import pyarrow.compute"
            if what:
                sites.append((fn.name, what, node.lineno))
    return sites


def test_postings_reader_serves_terms_without_arrow_scalars():
    """PostingsPartReader holds its columns as flat numpy buffers built
    in `__init__`; a per-term method that boxes Arrow scalars
    (`.as_py()`) or calls pyarrow.compute puts that cost back on every
    cold term of every query."""
    sites = _arrow_boxing_sites(open(os.path.join(STATE_DIR, "segment.py")).read())
    assert not sites, f"PostingsPartReader methods box Arrow values: {sites}"
    # the walk sees each form it forbids
    probe = ("import pyarrow as pa\nimport pyarrow.compute as pc\n"
             "class PostingsPartReader:\n"
             "    def __init__(self):\n        self.x = pc.max(1).as_py()\n"
             "    def a(self, b):\n        return pa.compute.max(b).as_py()\n"
             "    def b(self, c):\n        return pc.sum(c)\n"
             "    def c(self):\n        import pyarrow.compute\n")
    assert {(m, w) for m, w, _ in _arrow_boxing_sites(probe)} == {
        ("a", ".as_py()"), ("a", "pyarrow.compute"), ("b", "pyarrow.compute"),
        ("c", "import pyarrow.compute")}


#: argument position of the tie key in each ordering helper
TIE_KEY_ARG = {"topk_order": 1, "collapse_order": 2}


def _raw_tie_keys(source: str) -> list[tuple[str, int]]:
    """(helper, line) for every `topk_order` / `collapse_order` call
    whose tie key is not a direct `self._tie_key(...)` call, outside
    the two helpers' own definitions (collapse_order hands its caller's
    tie keys on to topk_order)."""
    sites = []

    def visit(node, inside: str | None):
        if isinstance(node, ast.FunctionDef):
            inside = node.name if node.name in TIE_KEY_ARG else inside
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in TIE_KEY_ARG and inside is None):
            i = TIE_KEY_ARG[node.func.id]
            arg = node.args[i] if len(node.args) > i else None
            ok = (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                  and arg.func.attr == "_tie_key"
                  and isinstance(arg.func.value, ast.Name) and arg.func.value.id == "self")
            if not ok:
                sites.append((node.func.id, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return sites


def test_searcher_ties_break_on_the_tie_key_helper():
    """A searcher's rows run segment-major, not in external-id order, so
    a score tie broken on posting values (rows) picks the wrong winners
    on multi-segment groups — silently, and only when scores tie.  In
    state/searcher.py every `topk_order` / `collapse_order` call takes
    its tie key from `self._tie_key`."""
    sites = _raw_tie_keys(open(os.path.join(STATE_DIR, "searcher.py")).read())
    assert not sites, f"ordering calls with raw tie keys in searcher.py: {sites}"
    probe = ("def topk_order(s, k, n):\n    return s\n"
             "def collapse_order(c, s, k, n):\n    return topk_order(s, k, n)\n"
             "class S:\n"
             "    def a(self, s, d):\n        return topk_order(s, d, 3)\n"
             "    def b(self, c, s, d):\n        return collapse_order(c, s, d[1:], 3)\n"
             "    def c(self, s, d):\n        return topk_order(s, self._tie_key(d), 3)\n"
             "    def d(self, s, d):\n        return topk_order(s, other._tie_key(d), 3)\n")
    assert _raw_tie_keys(probe) == [("topk_order", 7), ("collapse_order", 9),
                                    ("topk_order", 13)]


def _non_projecting_returns(source: str) -> list[tuple[str, int]]:
    """(method, line) for every `return` in a SegmentSearcher
    `search_*` method (nested functions aside) whose value is not a
    `self._project(...)` or `self.search_*(...)` call."""
    sites = []
    cls = next(n for n in ast.parse(source).body
               if isinstance(n, ast.ClassDef) and n.name == "SegmentSearcher")

    def visit(node, method: str):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Return):
            v = node.value
            ok = (isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
                  and isinstance(v.func.value, ast.Name) and v.func.value.id == "self"
                  and (v.func.attr == "_project" or v.func.attr.startswith("search_")))
            if not ok:
                sites.append((method, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, method)

    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("search_"):
            for stmt in fn.body:
                visit(stmt, fn.name)
    return sites


#: the SegmentSearcher methods that read position lists, once each;
#: `_posting_positions` is the one-posting read of `positions` and
#: `first_position`
POSITION_READERS = ("_posting_positions", "search_span_first", "_window_survivors")


def _stray_position_reads(source: str) -> list[tuple[str, int]]:
    """(method, line) of every `positions_rows_flat` call in a
    SegmentSearcher method (a nested function's call counted as its
    method's) outside POSITION_READERS, or past a reader's first."""
    cls = next(n for n in ast.parse(source).body
               if isinstance(n, ast.ClassDef) and n.name == "SegmentSearcher")
    seen, stray = set(), []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "positions_rows_flat"):
                if fn.name not in POSITION_READERS or fn.name in seen:
                    stray.append((fn.name, node.lineno))
                seen.add(fn.name)
    return stray


def _meta_column_loops(source: str) -> list[int]:
    """lines of every loop or comprehension over RESULT_META_COLUMNS"""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For):
            loops = [node]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops = node.generators
        else:
            continue
        if any(isinstance(g.iter, ast.Name) and g.iter.id == "RESULT_META_COLUMNS"
               for g in loops):
            lines.append(node.lineno)
    return lines


def test_result_tables_have_one_schema():
    """A result table built anywhere but `SegmentSearcher._project` drifts
    from the one result schema, one operator at a time: a zero-hit
    table without `doc_id_hi` in wide mode, or with other column types.
    Every SegmentSearcher `search_*` method returns `self._project(...)`
    or another `self.search_*(...)`, and state/engine.py builds no
    table by looping over RESULT_META_COLUMNS."""
    searcher = open(os.path.join(STATE_DIR, "searcher.py")).read()
    assert not _non_projecting_returns(searcher), _non_projecting_returns(searcher)
    engine = open(os.path.join(STATE_DIR, "engine.py")).read()
    assert not _meta_column_loops(engine), (
        f"engine.py builds tables over RESULT_META_COLUMNS: {_meta_column_loops(engine)}")
    probe = ("class SegmentSearcher:\n"
             "    def search_a(self, d):\n"
             "        if d:\n            return self._project(d, None)\n"
             "        return self.search_b(d)\n"
             "    def search_b(self, d):\n"
             "        f = lambda: pa.table({})\n"
             "        def g():\n            return pa.table({})\n"
             "        return pa.table({'doc_id': d})\n"
             "    def _c(self, d):\n        return pa.table({})\n"
             "    def search_d(self, d):\n        return other._project(d, None)\n")
    assert _non_projecting_returns(probe) == [("search_b", 10), ("search_d", 14)]
    loops = ("for n in RESULT_META_COLUMNS:\n    pass\n"
             "x = {n: 1 for n in RESULT_META_COLUMNS}\n"
             "y = [n for n in COLUMNS]\n")
    assert _meta_column_loops(loops) == [1, 3]


def test_positions_are_read_in_one_place():
    """Phrase, NEAR and N-term NEAR verify through ONE routine, so the
    positional path cannot fork again into per-operator survivor
    routines, each with its own gather, keys and strategy gate: in
    state/searcher.py `positions_rows_flat` is called once by
    `_window_survivors` (the one occurrences gather) and otherwise only
    by `search_span_first` and `_posting_positions` (the one-posting
    read)."""
    source = open(os.path.join(STATE_DIR, "searcher.py")).read()
    assert not _stray_position_reads(source), _stray_position_reads(source)
    assert all(f"def {m}(" in source for m in POSITION_READERS)
    probe = ("class SegmentSearcher:\n"
             "    def _phrase_survivor_rows(self, terms, c):\n"
             "        return r.positions_rows_flat(t, idx)\n"
             "    def _near_survivor_rows(self, a, b, slop, ordered, c):\n"
             "        def _occurrences(term):\n"
             "            return r.positions_rows_flat(term, idx)\n"
             "        return _occurrences(a)\n"
             "    def _near_all_survivor_rows(self, terms, slop, c):\n"
             "        return r.positions_rows_flat(t, idx)\n"
             "    def _window_survivors(self, c, anchors, windows):\n"
             "        x = r.positions_rows_flat(t, idx)\n"
             "        return r.positions_rows_flat(t, idx)\n")
    assert _stray_position_reads(probe) == [
        ("_phrase_survivor_rows", 3), ("_near_survivor_rows", 6),
        ("_near_all_survivor_rows", 9), ("_window_survivors", 12)]


def _position_decodes(source: str) -> tuple[list[tuple[str, int]], list[str]]:
    """(stray decodes, reader caches) of a segment.py source: (owner,
    line) of every `unpack_position_blob` call but one in
    `PostingsPartReader.positions_rows_flat` (owner: the module-level
    function, or Class.method, holding the call), and the attributes
    `PostingsPartReader.__init__` binds to an empty dict."""
    tree = ast.parse(source)
    owners = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owners.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
    stray, seen, caches = [], False, []
    for owner, fn in owners:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and "unpack_position_blob" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if owner != "PostingsPartReader.positions_rows_flat" or seen:
                    stray.append((owner, node.lineno))
                seen |= owner == "PostingsPartReader.positions_rows_flat"
        if owner == "PostingsPartReader.__init__":
            caches = _empty_dict_attrs(fn)
    return stray, caches


def _empty_dict_attrs(fn) -> list[str]:
    """the attributes function `fn` binds to an empty dict (`{}` or
    `dict()`)"""
    attrs = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            v = node.value
            empty = (isinstance(v, ast.Dict) and not v.keys) or (
                isinstance(v, ast.Call) and getattr(v.func, "id", None) == "dict"
                and not v.args and not v.keywords)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            attrs += [t.attr for t in targets if empty and isinstance(t, ast.Attribute)]
    return attrs


def test_reader_positions_have_one_decode_route():
    """PostingsPartReader decodes positions in one place into one cache:
    in state/segment.py `unpack_position_blob` is called once, by
    `positions_rows_flat`, and `__init__` creates one cache.  A second
    route (an Arrow mirror, a per-skip-block decode) would bring back
    its own cache and its own gate between the routes."""
    stray, caches = _position_decodes(open(os.path.join(STATE_DIR, "segment.py")).read())
    assert not stray, f"positions decoded outside positions_rows_flat: {stray}"
    assert caches == ["_positions"], f"PostingsPartReader caches: {caches}"
    probe = ("class PostingsPartReader:\n"
             "    def __init__(self):\n"
             "        self._terms = dict(zip(a, b))\n"
             "        self._pos_decoded = {}\n"
             "        self._pos_np: dict[str, tuple] = {}\n"
             "        self._pos_blk_cache = dict()\n"
             "    def positions_arrow(self, term):\n"
             "        flat, offsets = unpack_position_blob(blob, counts)\n"
             "    def positions_rows_flat(self, term, rows):\n"
             "        return codec.unpack_position_blob(blob, counts)\n"
             "    def _positions_rows_blocks(self, term, rows, counts):\n"
             "        m_vals, m_offs = unpack_position_blob(big_blob, cat_counts)\n"
             "        return unpack_position_blob(blob, counts)\n"
             "def helper():\n"
             "    return unpack_position_blob(b, c)\n")
    assert _position_decodes(probe) == (
        [("PostingsPartReader.positions_arrow", 8),
         ("PostingsPartReader._positions_rows_blocks", 12),
         ("PostingsPartReader._positions_rows_blocks", 13), ("helper", 15)],
        ["_pos_decoded", "_pos_np", "_pos_blk_cache"])


#: the calls a QueryEngine method may pass the stats path to: the
#: sidecar builders read the vocabulary at sidecar build time, and
#: suggest_from_index reads only its verified candidates' df
STATS_PATH_TAKERS = ("build_suffix_dictionary", "build_suggest_index", "suggest_from_index")


def _vocabulary_reads(source: str):
    """(stats reads, memo touches, memo dicts) of an engine.py source:
    (method, line) of every `self._stats_path` in a QueryEngine method
    but `__init__` that is not an argument of a STATS_PATH_TAKERS call,
    (method, line) of every `self._expansions` outside `_expand` and
    `__init__`, and the attributes `__init__` binds to an empty dict."""
    cls = next(n for n in ast.parse(source).body
               if isinstance(n, ast.ClassDef) and n.name == "QueryEngine")
    reads, touches, dicts = [], [], []
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        passed = {id(a) for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None)
                       or getattr(node.func, "attr", None)) in STATS_PATH_TAKERS
                  for a in node.args}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                continue
            if node.attr == "_stats_path" and fn.name != "__init__" and id(node) not in passed:
                reads.append((fn.name, node.lineno))
            if node.attr == "_expansions" and fn.name not in ("_expand", "__init__"):
                touches.append((fn.name, node.lineno))
        if fn.name == "__init__":
            dicts = _empty_dict_attrs(fn)
    return reads, touches, dicts


def test_vocabulary_is_read_once():
    """QueryEngine reads term_stats.parquet once, in `__init__`, into
    the resident sorted vocabulary and df dict, and memoizes every
    expansion kind in one dict that only `_expand` touches.  A parquet
    read per expansion miss, or a per-kind cache with its own copy of
    the cap rule, fails here."""
    reads, touches, dicts = _vocabulary_reads(
        open(os.path.join(STATE_DIR, "engine.py")).read())
    assert not reads, f"stats parquet read outside __init__: {reads}"
    assert not touches, f"expansion memo touched outside _expand: {touches}"
    assert dicts == ["_expansions"], f"QueryEngine memo dicts: {dicts}"
    probe = ("class QueryEngine:\n"
             "    def __init__(self, d):\n"
             "        self._stats_path = os.path.join(d, 'term_stats.parquet')\n"
             "        stats = pq.read_table(self._stats_path)\n"
             "        self._prefix_cache: dict[str, list[str]] = {}\n"
             "        self._expansions = {}\n"
             "    def expand_prefix(self, prefix):\n"
             "        hit = self._prefix_cache.get(prefix)\n"
             "        t = pads.dataset(self._stats_path, format='parquet')\n"
             "        self._expansions.clear()\n"
             "    def suggest(self, term):\n"
             "        build_suggest_index(self._stats_path, sdir, 2)\n"
             "        return suggest_from_index(sdir, self._stats_path, term)\n"
             "    def _expand(self, key):\n"
             "        return self._expansions.get(key)\n")
    assert _vocabulary_reads(probe) == (
        [("expand_prefix", 9)], [("expand_prefix", 10)], ["_prefix_cache", "_expansions"])
