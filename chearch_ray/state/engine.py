"""QueryEngine — scatter-gather facade over SegmentSearcher actors.

Reference mapping: the driver-side query() iterator that copies the
query to every locale and merges per-locale results
(searchindex.chpl:86-168) becomes: fan the query out to the
SearcherGroup actors that hold the doc-segments (`ray.get` on remote
calls; an actorless engine calls one in-process group), each of which
evaluates the query once over its segments' one row space and projects
metadata for its own top-k only, then a driver-side merge of
<= groups * k rows — tiny.

Global BM25 consistency: idf is computed HERE from the global term
stats (df summed across segments at build time) and shipped with the
query, so segment scores are globally comparable — the "global
document count" the reference lists as TODO (docs/TODO.txt:9-10).
"""

from __future__ import annotations

import bisect
import functools
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from chearch_ray import ast
from chearch_ray.state.searcher import (
    RESULT_META_COLUMNS,
    SearcherGroup,
    bm25_idf,
    collapse_order,
    column_codes,
    topk_order,
)
from chearch_ray.state.segment import Manifest

#: bound on the ANCHOR-side candidate gather inside expand_wildcard —
#: the driver-side list a 1-char anchor could pull from a huge
#: vocabulary; distinct from (and never below) the final-expansion cap
WILDCARD_CANDIDATE_CAP = 1 << 20

#: entries the expansion memo holds before it is cleared
EXPANSION_MEMO_ENTRIES = 1024

#: the plan of a provably-empty query: tokenizer output never contains
#: NUL, so every segment evaluates it to the empty set
_NO_MATCH = ast.Term("\x00∅")

#: literal word chars a regexp pattern may open with — anything else
#: ends the extractable prefix
_REGEXP_LITERAL_RE = re.compile(r"[a-z0-9_]+")


def _regexp_literal_prefix(pattern: str) -> str:
    """Longest literal prefix every fullmatch of `pattern` must start
    with — the expand_prefix pushdown key for expand_regexp ('' = no
    usable prefix, scan the vocabulary).  Conservative by
    construction: a top-level (paren-depth-0, outside character
    classes) `|` anywhere makes the leading literal optional, and a
    quantifier `* ? {` right after the literal run makes its LAST
    char optional (`+` keeps it — at least one occurrence is
    guaranteed).  The scan is character-class-aware: `(`, `)` and `|`
    INSIDE `[...]` are literals, not structure (a class-enclosed
    paren must not unbalance the depth count — that would hide a real
    top-level `|` and silently drop matches)."""
    depth = 0
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == "[":
            # skip the class: `]` is literal immediately after `[` or
            # `[^` (the re/RE2 shared rule)
            i += 1
            if i < n and pattern[i] == "^":
                i += 1
            if i < n and pattern[i] == "]":
                i += 1
            while i < n and pattern[i] != "]":
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "|" and depth == 0:
            return ""
        i += 1
    m = _REGEXP_LITERAL_RE.match(pattern)
    if not m:
        return ""
    lit = m.group(0)
    nxt = pattern[m.end():m.end() + 1]
    if nxt in ("*", "?", "{"):
        lit = lit[:-1]
    return lit


def _merge_tie_key(merged: "pa.Table"):
    """deterministic cross-segment tie-break key: external (hi, lo)
    packed bytes in doc_id_bits=128 mode (doc_id alone is only the low
    word there), plain doc_id otherwise."""
    import numpy as _np

    if "doc_id_hi" in merged.column_names:
        from chearch_ray.functions.hashing import key16

        return key16(
            merged["doc_id_hi"].to_numpy().astype(_np.uint64),
            merged["doc_id"].to_numpy().astype(_np.uint64),
        )
    return merged["doc_id"].to_numpy()


def _positive_int(name: str, v) -> int:
    """`v` as an int when it is an integer >= 1 (bool excluded);
    anything else raises a one-line ValueError naming `name`."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {v!r}")
    return int(v)


def _group_placements(max_actors: int | None, n_segments: int) -> list:
    """One Ray scheduling strategy per searcher group.

    An int `max_actors` asks for min(max_actors, n_segments) groups,
    SPREAD over the cluster.  None means one group per alive node that
    has a CPU (a driver-only 0-CPU head hosts none), at most
    n_segments of them, each pinned to its node by a soft node
    affinity: SPREAD is best effort and can put two groups on one node
    while another's CPUs are busy, where the affinity waits for that
    node (and goes elsewhere only if the node is gone or too small
    for the group's CPU share).  Nodes are read once, from a connected
    session; without one, plan a single group, and its `.remote()`
    starts a one-node session."""
    import ray

    if max_actors is not None:
        return ["SPREAD"] * min(max_actors, n_segments)
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    nodes = [n["NodeID"] for n in ray.nodes()
             if n["Alive"] and n["Resources"].get("CPU", 0) > 0] if ray.is_initialized() else []
    if not nodes:
        return ["SPREAD"]
    return [NodeAffinitySchedulingStrategy(node, soft=True)
            for node in nodes[:n_segments]]


def parse_query(query: str | ast.Node, default_op: str = "or") -> ast.Node:
    """Query string -> AST.  Grammar syntax (parens, quoted phrases,
    UPPERCASE AND/OR/NOT — functions/queryparse.py) routes to the
    recursive-descent parser; anything else is the legacy flat form:
    whitespace-separated terms -> left-deep Or/And tree (terms are
    lowercased to match the tokenizer), `-term` negation, `pre*`
    prefix, `term~d` fuzzy.  The routing predicate matches nothing a
    flat query can contain, so existing strings keep their meaning."""
    if not isinstance(query, str):
        return query
    from chearch_ray.functions import queryparse

    if queryparse.is_grammar_query(query):
        return queryparse.parse(query)
    raw = [t for t in query.lower().split() if t]
    if not raw:
        raise ValueError("empty query")

    def leaf(t: str) -> ast.Node:
        # `/pattern/` = regexp term query (Lucene RegexpQuery syntax),
        # expanded against the vocabulary (fullmatch) before planning
        # — SAME leaf rule as the grammar parser
        if len(t) > 2 and t[0] == "/" and t[-1] == "/":
            return ast.Regexp(queryparse.validate_regexp(t[1:-1]))
        # trailing `*` = term-prefix query (Lucene-style); expanded by
        # QueryEngine against the term dictionary before planning
        if len(t) > 1 and t.endswith("*") and "*" not in t[:-1]:
            return ast.Prefix(t[:-1])
        # leading `*` = term-suffix query (Lucene leading wildcard);
        # expanded via the reversed-term dictionary before planning.
        # The word-shape guard keeps `*ab~1` falling through to the
        # fuzzy rule below — SAME leaf rules as the grammar parser
        if (len(t) > 1 and t.startswith("*")
                and queryparse._WORD_RE.fullmatch(t[1:])):
            return ast.Suffix(t[1:])
        # single INFIX star (`a*b`): both-sides-anchored wildcard,
        # expanded via the more selective anchor's dictionary; both
        # halves must be word-shaped so `a*b~1` stays a fuzzy token
        if "*" in t and not t.startswith("*") and not t.endswith("*"):
            head, _, tail = t.partition("*")
            if (queryparse._WORD_RE.fullmatch(head)
                    and queryparse._WORD_RE.fullmatch(tail)):
                return ast.Wildcard(head, tail)
        # `term~d` (d = 1 or 2) = fuzzy query (Lucene-style), expanded
        # against the vocabulary by exact edit distance before planning
        if len(t) > 2 and t[-2] == "~" and t[-1] in "12" and "~" not in t[:-2]:
            return ast.Fuzzy(t[:-2], int(t[-1]))
        return ast.Term(t)

    # leading `-` = negation (Lucene-style): positives combine under
    # default_op, negatives OR together under a single AndNot
    terms = [t for t in raw if not (len(t) > 1 and t.startswith("-"))]
    negs = [t[1:] for t in raw if len(t) > 1 and t.startswith("-")]
    if not terms:
        raise ValueError(
            "query has no positive term — a pure negation is an unbounded "
            "complement and cannot be evaluated"
        )
    node: ast.Node = leaf(terms[0])
    cls = ast.Or if default_op == "or" else ast.And
    for t in terms[1:]:
        node = cls(node, leaf(t))
    if negs:
        neg: ast.Node = leaf(negs[0])
        for t in negs[1:]:
            neg = ast.Or(neg, leaf(t))
        node = ast.AndNot(node, neg)
    return node


class QueryEngine:
    def __init__(
        self,
        index_dir: str,
        use_actors: bool = True,
        num_cpus_per_actor: float = 0.25,
        max_actors: int | None = None,
    ):
        if max_actors is not None:
            max_actors = _positive_int("max_actors", max_actors)
        # fractional CPUs: long-lived searcher actors must not starve
        # Ray Data read/map tasks on small clusters (a pool that
        # reserves every CPU serializes the pipeline).  0.25 keeps a
        # 4-cpu session able to run a full Ray Data pipeline alongside
        # several resident engines; the reservation is a scheduling
        # hint, not a throughput cap (idle actors consume nothing)
        self.index_dir = index_dir
        self.manifest = Manifest.load(index_dir)
        self.cfg = self.manifest.engine_config
        self._stats_path = os.path.join(index_dir, self.manifest.term_stats_path)
        # the vocabulary stays resident, as the reference keeps its term
        # table (memorysegment.chpl:5): this one read serves df() and
        # every expansion.  The file is written term-sorted and UTF-8
        # byte order is str order, so the term column is sorted
        stats = pq.read_table(self._stats_path, columns=["term", "df"])
        self._vocab: list[str] = stats["term"].to_pylist()
        self._df = dict(zip(self._vocab, stats["df"].to_pylist()))
        self.n_docs = self.manifest.num_docs
        self.avgdl = float(self.manifest.avgdl)
        self.segments = sorted({p["part"] // self.cfg.num_term_shards for p in self.manifest.postings_parts})
        if not self.segments:
            self.segments = list(range(self.cfg.num_segments))
        self.use_actors = use_actors
        self._expansions: dict[tuple, list[str]] = {}
        if use_actors:
            import ray

            # one segment-GROUP actor per node (reference
            # searchindex.chpl:25-28 runs one index shard per locale):
            # a group evaluates all its segments as one row space, so
            # more groups on a node only add actor calls per query.
            # An int max_actors asks for that many groups instead.
            # Either way there are at most len(segments) groups, dealt
            # segments round-robin (balanced when sizes are
            # hash-uniform), and never Ray's default packing, which
            # would pile every group onto the first worker of a
            # multi-node cluster and serve all queries through one
            # node's memory bandwidth.
            placements = _group_placements(max_actors, len(self.segments))
            n_groups = len(placements)
            self.actor_segments = [self.segments[i::n_groups] for i in range(n_groups)]
            cls = ray.remote(num_cpus=num_cpus_per_actor)(SearcherGroup)
            self._actors = [
                cls.options(scheduling_strategy=where).remote(index_dir, segs, self.cfg)
                for where, segs in zip(placements, self.actor_segments)
            ]
        else:
            self._group = SearcherGroup(index_dir, self.segments, self.cfg)

    def actor_nodes(self) -> list[str]:
        """Ray node id per searcher-group actor (placement diagnostic:
        on a multi-node cluster the default engine should yield each
        CPU node's id once).  Empty when use_actors=False."""
        if not self.use_actors:
            return []
        import ray

        return ray.get([a.node_id.remote() for a in self._live_actors()])

    # ------------------------------------------------------ fan-out
    def _scatter(self, method: str, *args, **kw) -> list:
        """`method` on every searcher group — the actors (one per node
        by default), or the one in-process group — one result per
        group.  Raises once an actor engine is closed."""
        if self.use_actors:
            import ray

            return ray.get([getattr(a, method).remote(*args, **kw)
                            for a in self._live_actors()])
        return [getattr(self._group, method)(*args, **kw)]

    def _live_actors(self) -> list:
        """The group actors; raises once close() has released them."""
        if not self._actors:
            raise ValueError("QueryEngine is closed")
        return self._actors

    def _k(self, k) -> int:
        """The k rule of every top-k operator: None means the index's
        default_k, an int >= 1 is used as is, anything else raises."""
        if k is None:
            return self.cfg.default_k
        return _positive_int("k", k)

    def _topk(self, method: str, k, collapse: str | None = None, **kw) -> pa.Table:
        """The shared top-k path: validate k, run segment operator
        `method` (keyword arguments) through every group's `topk`,
        merge the groups' tables (collapsed on column `collapse` when
        given)."""
        k = self._k(k)
        return self._merge_topk(self._scatter("topk", method, k=k, **kw), k, collapse)

    @staticmethod
    def _merge_topk(tables: list, k: int, collapse: str | None = None) -> pa.Table:
        """Global (score desc, doc key asc) top-k over the groups'
        top-k tables.  Each group already ranked all its segments at
        once (SearcherGroup.topk), so a single group's table IS the
        answer."""
        if len(tables) == 1:
            return tables[0]
        merged = pa.concat_tables(tables)
        scores, key = merged["score"].to_numpy(), _merge_tie_key(merged)
        if collapse is None:
            order = topk_order(scores, key, k)
        else:
            order = collapse_order(column_codes(merged[collapse]), scores, key, k)
        return merged.take(pa.array(order, type=pa.int64()))

    # ------------------------------------------------------------ stats
    def df(self, term: str) -> int:
        return int(self._df.get(term, 0))

    def idfs_for(self, node: ast.Node,
                 boosts: dict[str, float] | None = None) -> dict[str, float]:
        """Per-term idf for the planned tree; `boosts` multiplies a
        term's idf (Lucene boost semantics) — the ONE place boost
        application lives, so search and explain cannot diverge."""
        idfs = {str(t): bm25_idf(self.n_docs, self.df(str(t)))
                for t in ast.terms_of(node)}
        if boosts:
            idfs = {t: v * float(boosts.get(t, 1.0)) for t, v in idfs.items()}
        return idfs

    # -------------------------------------------------------- expansion
    def _expand(self, key: tuple, label: str, max_expansions: int,
                compute) -> list[str]:
        """The one expansion memo: the sorted terms `compute()` returns
        for `key` (kind first), computed once per engine.  Raises when
        the expansion exceeds `max_expansions`, on a miss before
        caching (a rejected expansion must not pin a huge list) and
        again on a hit: silently truncating would change result sets,
        and an over-broad leaf should be an explicit caller decision
        (raise the cap)."""
        hit = self._expansions.get(key)
        if hit is None:
            hit = compute()
            if len(hit) <= max_expansions:
                if len(self._expansions) >= EXPANSION_MEMO_ENTRIES:
                    self._expansions.clear()
                self._expansions[key] = hit
        if len(hit) > max_expansions:
            raise ValueError(
                f"{label} expands to {len(hit)} terms (cap {max_expansions})")
        return hit

    def _within_distance(self, term: str,
                         max_distance: int) -> tuple[list[str], np.ndarray]:
        """(terms, dists): the vocabulary terms within `max_distance`
        unit-cost Levenshtein edits of `term`, sorted, and their int64
        distances — a length prefilter (|len - len(term)| <=
        max_distance), then the candidate-vectorized DP."""
        from chearch_ray.functions.editdist import levenshtein_to

        vocab = self._vocab
        lens = np.fromiter((len(t) for t in vocab), dtype=np.int64, count=len(vocab))
        cands = [vocab[i] for i in np.flatnonzero(np.abs(lens - len(term)) <= max_distance)]
        if not cands:
            return [], np.zeros(0, dtype=np.int64)
        dist = levenshtein_to(term, cands).astype(np.int64)
        keep = np.flatnonzero(dist <= max_distance)
        return [cands[i] for i in keep], dist[keep]

    def expand_prefix(self, prefix: str, max_expansions: int = 1024) -> list[str]:
        """Vocabulary terms starting with `prefix`, sorted: one bisect
        into the resident sorted vocabulary for each end of the run
        (truncating terms to len(prefix) keeps them sorted).  Memoized;
        raises above `max_expansions` (see _expand)."""
        if not prefix:
            raise ValueError("empty prefix")

        def compute():
            lo = bisect.bisect_left(self._vocab, prefix)
            hi = bisect.bisect_right(self._vocab, prefix, lo=lo,
                                     key=lambda t: t[:len(prefix)])
            return self._vocab[lo:hi]

        return self._expand(("prefix", prefix), f"prefix {prefix!r}",
                            max_expansions, compute)

    def expand_suffix(self, suffix: str, max_expansions: int = 1024) -> list[str]:
        """Vocabulary terms ENDING with `suffix` (the `*ing`
        leading-wildcard leaf), sorted.  When the reversed-term
        dictionary sidecar exists (<index_dir>/suffix —
        build_suffix_dictionary), the lookup is a range predicate over
        the rterm-SORTED parquet (row-group pushdown: only the
        suffix's groups are read even at a 10^12-doc vocabulary);
        otherwise a scan of the resident vocabulary — identical
        results either way (pinned by test).  Memoized; raises above
        `max_expansions` like expand_prefix."""
        if not suffix:
            raise ValueError("empty suffix")

        def compute():
            from chearch_ray.state.suffixdict import (
                suffix_dictionary_exists, terms_with_suffix,
            )

            sdir = os.path.join(self.index_dir, "suffix")
            if suffix_dictionary_exists(sdir):
                return terms_with_suffix(sdir, suffix)
            return [t for t in self._vocab if t.endswith(suffix)]

        return self._expand(("suffix", suffix), f"suffix *{suffix}",
                            max_expansions, compute)

    def expand_wildcard(self, head: str, tail: str,
                        max_expansions: int = 1024) -> list[str]:
        """Vocabulary terms matching the single-star wildcard
        `head*tail` (startswith(head) AND endswith(tail),
        non-overlapping halves), sorted.  Expansion routes through the
        MORE SELECTIVE anchor's sorted dictionary — the longer literal
        wins: `head` via expand_prefix's bisect, `tail` via the
        reversed-term sidecar when built — then post-filters the other
        side; ties and a missing suffix sidecar prefer the prefix side
        (always available).  Memoized; raises above `max_expansions`
        like expand_prefix."""
        if not head or not tail:
            raise ValueError("infix wildcard needs text on both sides of '*'")

        def compute():
            from chearch_ray.state.suffixdict import suffix_dictionary_exists

            # the anchor-side gather is the scale risk (a 1-char anchor
            # over a 10^12-doc vocabulary is millions of candidates):
            # bound it separately from the final-expansion cap so the
            # failure is a clear "anchor too unselective", not an OOM
            cand_cap = max(max_expansions, WILDCARD_CANDIDATE_CAP)
            sdir = os.path.join(self.index_dir, "suffix")
            try:
                if len(tail) > len(head) and suffix_dictionary_exists(sdir):
                    cands = self.expand_suffix(tail, max_expansions=cand_cap)
                else:
                    cands = self.expand_prefix(head, max_expansions=cand_cap)
            except ValueError as exc:
                raise ValueError(
                    f"wildcard {head}*{tail}: anchor too unselective "
                    f"({exc})") from None
            min_len = len(head) + len(tail)
            return [t for t in cands
                    if len(t) >= min_len and t.startswith(head)
                    and t.endswith(tail)]

        return self._expand(("wildcard", head, tail), f"wildcard {head}*{tail}",
                            max_expansions, compute)

    def build_suffix_dictionary(self) -> str:
        """Build (or rebuild) the reversed-term dictionary sidecar at
        <index_dir>/suffix — expand_suffix uses it automatically.
        Vocabulary-sized (one Ray sort over the stats parquet)."""
        from chearch_ray.state.suffixdict import build_suffix_dictionary

        sdir = os.path.join(self.index_dir, "suffix")
        build_suffix_dictionary(self._stats_path, sdir)
        return sdir

    # ------------------------------------------------------------- fuzzy
    def expand_fuzzy(self, term: str, max_distance: int = 1,
                     max_expansions: int = 1024) -> list[str]:
        """Vocabulary terms within `max_distance` unit-cost Levenshtein
        edits of `term`, sorted — the expansion set of `ast.Fuzzy`
        (same distance definition as DuckDB's levenshtein(), so the
        driver oracle mirrors it exactly).  When a SymSpell deletion
        index built for >= max_distance exists, candidates come from
        exact variant-key lookups over only the probed hash-prefix
        partitions (the 10^12-doc path); otherwise _within_distance's
        vocabulary scan.  Either way the final set is verified with the
        exact vectorized DP, so results are identical.  Memoized;
        raises above `max_expansions` like expand_prefix."""
        if not term:
            raise ValueError("empty fuzzy term")

        def compute():
            from chearch_ray.functions.editdist import levenshtein_to
            from chearch_ray.state.suggest import (
                candidate_terms, suggest_index_distance,
            )

            sdir = os.path.join(self.index_dir, "suggest")
            built = suggest_index_distance(sdir)
            if built is None or built < max_distance:
                return self._within_distance(term, max_distance)[0]
            cands = candidate_terms(sdir, term, max_distance)
            if not cands:
                return []
            dist = levenshtein_to(term, cands)
            return sorted(c for c, d in zip(cands, dist) if d <= max_distance)

        return self._expand(("fuzzy", term, max_distance),
                            f"fuzzy {term!r}~{max_distance}", max_expansions, compute)

    # ------------------------------------------------------------ regexp
    def expand_regexp(self, pattern: str,
                      max_expansions: int = 1024) -> list[str]:
        """Vocabulary terms whose WHOLE text matches `pattern`
        (fullmatch — the Lucene RegexpQuery / DuckDB
        regexp_full_match convention), sorted — the expansion set of
        `ast.Regexp`.  The pattern is re-validated against the
        RE2-agreeing syntax subset (functions/queryparse
        validate_regexp), so a DuckDB oracle using
        `regexp_full_match(term, pattern)` mirrors the expansion
        exactly.  When the pattern starts with a literal run (e.g.
        `so(rt|urce)` -> "so"), candidates come from expand_prefix;
        a pattern with no usable literal prefix scans the whole
        vocabulary, the same leading-wildcard reality Lucene
        documents.  Memoized; raises above `max_expansions` like
        expand_prefix."""
        from chearch_ray.functions.queryparse import validate_regexp

        validate_regexp(pattern)

        def compute():
            rx = re.compile(pattern)
            lit = _regexp_literal_prefix(pattern)
            cands = self._vocab
            if lit:
                # anchor-side gather bound, expand_wildcard's discipline
                cand_cap = max(max_expansions, WILDCARD_CANDIDATE_CAP)
                try:
                    cands = self.expand_prefix(lit, max_expansions=cand_cap)
                except ValueError as exc:
                    raise ValueError(
                        f"regexp /{pattern}/: literal prefix too "
                        f"unselective ({exc})") from None
            return [t for t in cands if rx.fullmatch(t)]

        return self._expand(("regexp", pattern), f"regexp /{pattern}/",
                            max_expansions, compute)

    def _plan(self, node: ast.Node) -> ast.Node:
        """Prefix-free plan for the segment searchers.  A tree that
        rewrites to provably-empty becomes a single impossible term
        (tokenizer output never contains NUL), which evaluates to the
        empty set in every segment with the normal projection schema."""
        out = self._rewrite(node)
        return _NO_MATCH if out is None else out

    def _rewrite(self, node: ast.Node) -> ast.Node | None:
        """Expand Prefix leaves into sorted Or chains of matched terms
        (None = provably-empty subtree).  Segment searchers never see
        Prefix nodes.  An empty expansion inside And annihilates the
        conjunction; inside Or it yields the other side."""
        if isinstance(node, ast.Term):
            return node
        if isinstance(node, ast.Phrase):
            # boolean-only leaf: search_boolean intercepts Phrase trees
            # BEFORE planning (set-algebra path), so reaching _rewrite
            # means a ranked/BM25 entry point got one
            raise ValueError(
                'phrase leaves ("...") are boolean-only — use '
                "search_boolean for boolean phrase filters or "
                "search_phrase for ranked phrase retrieval"
            )
        if isinstance(node, (ast.Prefix, ast.Suffix, ast.Wildcard, ast.Fuzzy,
                             ast.Regexp)):
            if isinstance(node, ast.Prefix):
                terms = self.expand_prefix(node.prefix)
            elif isinstance(node, ast.Suffix):
                terms = self.expand_suffix(node.suffix)
            elif isinstance(node, ast.Wildcard):
                terms = self.expand_wildcard(node.head, node.tail)
            elif isinstance(node, ast.Regexp):
                terms = self.expand_regexp(node.pattern)
            else:
                terms = self.expand_fuzzy(node.term, node.dist)
            if not terms:
                return None
            out: ast.Node = ast.Term(terms[0])
            for t in terms[1:]:
                out = ast.Or(out, ast.Term(t))
            return out
        a, b = self._rewrite(node.a), self._rewrite(node.b)
        if isinstance(node, ast.AndNot):
            # empty positive -> empty; empty negative -> just the positive
            if a is None:
                return None
            return a if b is None else ast.AndNot(a, b)
        if isinstance(node, ast.And):
            return None if (a is None or b is None) else ast.And(a, b)
        if a is None:
            return b
        if b is None:
            return a
        return ast.Or(a, b)

    # ----------------------------------------------------------- search
    def search_with_synonyms(self, query: str | ast.Node,
                             synonyms: dict, k: int | None = None,
                             default_op: str = "or") -> pa.Table:
        """BM25 with query-time synonym expansion: Term leaves listed
        in `synonyms` become ORs over their variants before planning
        (module function `expand_synonyms`); scoring is the usual
        disjunctive BM25 over the expanded tree."""
        node = expand_synonyms(parse_query(query, default_op), synonyms)
        return self.search(node, k=k)

    def search_parsed(self, query: str, k: int | None = None,
                      default_op: str = "and",
                      with_meta: bool = True) -> pa.Table:
        """BM25 over the full query-string grammar INCLUDING Lucene
        `field:value` metadata filters and `term^boost` weights
        (functions/queryparse.py `parse_full`): top-level field tokens
        become the docmap filter (`lang:py lang:go merge` == search
        "merge" with filter {"lang": ["py", "go"]}; bracket ranges
        `doc_len:[40 TO 160]` / `{}` exclusive / `*` open end filter
        the same columns by interval), boosts multiply
        the boosted term's idf, the rest is the usual grammar.
        `default_op` sets the implicit operator joining juxtaposed
        residual terms ("and" = the grammar's documented default)."""
        from chearch_ray.functions.queryparse import parse_full

        node, filters, boosts = parse_full(query, default_op)
        return self.search(node, k=k, filter=filters, boosts=boosts,
                           with_meta=with_meta)

    @property
    def docstore(self):
        """Lazy `DocstoreReader` over `<index_dir>/docstore` (the
        optional text sidecar — state/docstore.py); raises
        FileNotFoundError when the index was built without one."""
        ds = getattr(self, "_docstore", None)
        if ds is None:
            from chearch_ray.state.docstore import DocstoreReader

            ds = self._docstore = DocstoreReader(self.index_dir)
        return ds

    def fetch_docs(self, doc_ids, doc_his=None) -> pa.Table:
        """Text rows for result ids via the docstore (O(k) row groups,
        never a corpus scan); rows come back in the ids' order."""
        return self.docstore.fetch(
            np.asarray(doc_ids, dtype=np.uint64),
            None if doc_his is None else np.asarray(doc_his, dtype=np.uint64),
        )

    def search_with_snippets(self, query: str, k: int | None = None,
                             window: int = 2,
                             default_op: str = "and") -> pa.Table:
        """The user-facing search-and-display composition: BM25 top-k
        through the full grammar (search_parsed semantics), docstore
        fetch of just those k docs, then a ±`window`-token snippet
        anchored at the EARLIEST first occurrence of any (planned,
        positive) query term — columns (doc_id[, doc_id_hi], score,
        pos, snippet), rank order preserved.  Scores and ranks are
        EXACTLY search_parsed's; a result doc missing from the
        docstore (never, when it was built from the index's corpus)
        degrades to pos=-1 / snippet='' rather than dropping the hit."""
        from chearch_ray.functions.queryparse import parse_full
        from chearch_ray.stages.snippets import snippet_rows

        node, filters, boosts = parse_full(query, default_op)
        planned = self._plan(parse_query(node, default_op))
        t = self.search(planned, k=k, filter=filters, boosts=boosts,
                        _planned=True, with_meta=False)
        wide = "doc_id_hi" in t.column_names
        base_cols = (["doc_id_hi", "doc_id"] if wide else ["doc_id"])
        out_cols = {c: t[c] for c in base_cols}
        out_cols["score"] = t["score"]
        if len(t) == 0:
            out_cols["pos"] = pa.array([], type=pa.int64())
            out_cols["snippet"] = pa.array([], type=pa.string())
            return pa.table(out_cols)
        ids = t["doc_id"].to_numpy().astype(np.uint64)
        his = t["doc_id_hi"].to_numpy().astype(np.uint64) if wide else None
        docs = self.docstore.fetch(ids, his)
        terms = [str(x) for x in ast.terms_of(planned)]
        snips = snippet_rows(docs, terms, window)
        # align snippet rows (a subset, in fetch order) back onto the
        # ranked results; misses degrade, never drop
        pos_out = np.full(len(t), -1, dtype=np.int64)
        snip_out = np.full(len(t), "", dtype=object)
        if len(snips):
            s_ids = snips["doc_id"].to_numpy().astype(np.uint64)
            if wide:
                from chearch_ray.functions.hashing import key16

                s_keys = key16(
                    snips["doc_id_hi"].to_numpy().astype(np.uint64), s_ids)
                t_keys = key16(his, ids)
            else:
                s_keys, t_keys = s_ids, ids
            order = np.argsort(s_keys, kind="stable")
            loc = np.searchsorted(s_keys[order], t_keys)
            loc_c = np.minimum(loc, len(order) - 1)
            hit = s_keys[order][loc_c] == t_keys
            src = order[loc_c[hit]]
            pos_out[hit] = snips["pos"].to_numpy()[src]
            snip_vals = snips["snippet"].to_pylist()
            for dst, s in zip(np.flatnonzero(hit).tolist(), src.tolist()):
                snip_out[dst] = snip_vals[s]
        out_cols["pos"] = pa.array(pos_out, type=pa.int64())
        out_cols["snippet"] = pa.array(snip_out.tolist(), type=pa.string())
        return pa.table(out_cols)

    def search(self, query: str | ast.Node, k: int | None = None, default_op: str = "or",
               filter: dict[str, list[str]] | None = None,
               boosts: dict[str, float] | None = None,
               _planned: bool = False,
               with_meta: bool = True) -> pa.Table:
        """BM25 top-k, globally merged, ordered (score desc, doc_id asc).

        `filter` restricts results to docs whose docmap metadata
        matches {column: allowed values} (AND across columns) — e.g.
        {"lang": ["py", "rs"]}; a value may also be a range spec tuple
        ("range", lo|None, hi|None, lo_incl, hi_incl) — the grammar's
        `field:[lo TO hi]` — OR-combined with the column's plain
        values, bounds typed from the docmap schema (numeric columns
        compare numerically).  Scores are unchanged by the filter
        (global corpus stats), but top-k is taken over the restricted
        candidate set, not post-filtered.  `boosts` multiplies a
        term's idf (Lucene boost semantics — BM25 contributions are
        linear in idf, so the boost scales that term's share of the
        score exactly)."""
        # _planned: caller already ran _plan (search_with_snippets
        # plans once for snippet-term extraction) — re-planning is
        # idempotent but re-walks the whole expanded tree per request
        node = query if _planned else self._plan(parse_query(query, default_op))
        return self._topk("search_bm25", k, node=node, idfs=self.idfs_for(node, boosts),
                          avgdl=self.avgdl, flt=filter, with_meta=with_meta)

    def explain(self, query: str | ast.Node, k: int | None = None,
                default_op: str = "or",
                filter: dict[str, list] | None = None,
                boosts: dict[str, float] | None = None) -> pa.Table:
        """Lucene-style scoring explanation: run the query, then break
        each top-k result's BM25 score into per-term evidence — one
        row per (result doc, matching term) with columns (rank,
        doc_id[, doc_id_hi], score, term, tf, dl, df, idf, contrib),
        ordered (rank asc, term asc).  `contrib` is computed by the
        scorer's own bm25_component (identical float expression), so
        per-term values match what the ranking actually summed; tf/dl
        come from the segments via the same skip-block probe machinery
        as scoring (no full decode).  Negated terms (AndNot right
        side) never contribute to scores and are absent here too.
        `filter` / `boosts` as in `search` — the idf column shows the
        BOOSTED idf the ranking used."""
        from chearch_ray.state.searcher import bm25_component

        node = self._plan(parse_query(query, default_op))
        top = self.search(node, k=k, _planned=True, with_meta=False,
                          filter=filter, boosts=boosts)
        terms = sorted({str(t) for t in ast.terms_of(node)})
        idfs = self.idfs_for(node, boosts)
        lo = top["doc_id"].to_numpy().astype(np.uint64)
        wide = "doc_id_hi" in top.column_names
        hi = top["doc_id_hi"].to_numpy().astype(np.uint64) if wide else None
        per = pa.concat_tables(self._scatter("concat", "explain_rows", terms, lo, hi))
        # rank/score lookups keyed by (hi, lo) in wide mode, lo alone
        # otherwise; each result doc lives in exactly one segment, so
        # the concat has one row per (doc, matching term)
        def keys(low, high):
            return list(zip(high, low)) if wide else list(low)

        scores = top["score"].to_numpy()
        rank_of = {kk: i + 1 for i, kk in enumerate(keys(lo.tolist(),
                   hi.tolist() if wide else None))}
        score_of = dict(zip(rank_of, scores.tolist()))
        p_lo = per["doc_id"].to_numpy().astype(np.uint64)
        p_hi = per["doc_id_hi"].to_numpy().astype(np.uint64) if wide else None
        p_keys = keys(p_lo.tolist(), p_hi.tolist() if wide else None)
        p_terms = per["term"].to_pylist()
        tf = per["tf"].to_numpy().astype(np.float64)
        dl = per["dl"].to_numpy().astype(np.float64)
        idf = np.array([idfs.get(t, 0.0) for t in p_terms], dtype=np.float64)
        contrib = bm25_component(tf, dl, idf, self.avgdl, self.cfg.k1,
                                 self.cfg.b) if len(per) else np.empty(0)
        out = {"rank": pa.array([rank_of[kk] for kk in p_keys],
                                type=pa.int64()),
               "doc_id": per["doc_id"]}
        if wide:
            out["doc_id_hi"] = per["doc_id_hi"]
        out.update({
            "score": pa.array([score_of[kk] for kk in p_keys],
                              type=pa.float64()),
            "term": per["term"],
            "tf": per["tf"],
            "dl": per["dl"],
            "df": pa.array([self.df(t) for t in p_terms], type=pa.int64()),
            "idf": pa.array(idf, type=pa.float64()),
            "contrib": pa.array(contrib, type=pa.float64()),
        })
        t = pa.table(out)
        order = sorted(range(len(t)),
                       key=lambda i: (rank_of[p_keys[i]], p_terms[i]))
        return t.take(pa.array(order, type=pa.int64()))

    def search_after(self, query: str | ast.Node, cursor: tuple, k: int | None = None,
                     default_op: str = "or") -> pa.Table:
        """Exact cursor pagination: the next `k` results STRICTLY after
        `cursor` in the global (score desc, doc_id asc) order.
        `cursor` is (score, doc_id) from the last row of the previous
        page — (score, doc_id_hi, doc_id) in doc_id_bits=128 mode —
        so page n+1 needs no offset bookkeeping and stays correct even
        if earlier pages used different sizes (the search_after
        contract, not OFFSET).

        Cursor-aware (ROADMAP #21): the cursor predicate is pushed
        into the searcher groups — each returns the top-k of its
        QUALIFYING docs (SegmentSearcher._after_mask), with MaxScore/
        term/conjunctive fast paths intact and thresholds built from
        qualifying docs only — so the driver merges ≤ groups×k rows
        instead of every scored candidate.  Exact: the global
        qualifying top-k is contained in the union of per-group
        qualifying top-k, and cursor score equality is safe because
        scores are deterministic floats produced by this same
        engine."""
        node = self._plan(parse_query(query, default_op))
        return self._topk("search_bm25", k, node=node, idfs=self.idfs_for(node),
                          avgdl=self.avgdl, after=tuple(cursor))

    def search_msm(self, terms, m: int, k: int | None = None,
                   with_meta: bool = True,
                   filter: dict[str, list] | None = None) -> pa.Table:
        """Minimum-should-match BM25 (Lucene's minimum_should_match,
        engine extension §2.10): top-k over docs containing at least
        `m` of the distinct query `terms`, scored by the standard sum
        of the PRESENT terms' BM25 contributions, globally merged and
        ordered (score desc, doc_id asc) like `search`.  `terms` is a
        list or a whitespace-separated string; duplicates dedup
        (first-seen order) before `m` is checked against the distinct
        count.  m == 1 is exactly the OR query; m == len(terms)
        admits exactly the AND candidate set (scores identical to the
        conjunctive path on those docs)."""
        distinct, idfs = self._term_set(terms, "minimum-should-match")
        if not 1 <= m <= len(distinct):
            raise ValueError(
                f"m={m} out of range [1, {len(distinct)}] for "
                f"{len(distinct)} distinct terms")
        return self._topk("search_msm", k, terms=distinct, m=m, idfs=idfs,
                          avgdl=self.avgdl, with_meta=with_meta, flt=filter)

    def _term_set(self, terms, what: str) -> tuple[list[str], dict[str, float]]:
        """flat term-list operators (msm, dismax): `terms` as a list or
        a whitespace string, lowercased, deduped first-seen -> (distinct
        terms, their idfs)."""
        raw = ([t for t in terms.lower().split() if t]
               if isinstance(terms, str)
               else [str(t).lower() for t in terms])
        distinct = list(dict.fromkeys(raw))
        if not distinct:
            raise ValueError(f"empty {what} query")
        node: ast.Node = ast.Term(distinct[0])
        for t in distinct[1:]:
            node = ast.Or(node, ast.Term(t))
        return distinct, self.idfs_for(node)

    def search_collapse(self, query: str | ast.Node, field: str = "lang",
                        k: int | None = None,
                        default_op: str = "or",
                        filter: dict[str, list] | None = None) -> pa.Table:
        """Field-collapsed BM25 top-k (Lucene's collapse / field
        grouping, engine extension §2.10): the best-ranked doc per
        distinct `field` value, globally ordered (score desc, doc_id
        asc), top-k GROUPS.  `field` must be a docmap metadata column
        (the projected result columns).  Searcher groups ship only
        their group bests (top-k of them), which is exact — see
        collapse_order."""
        if field not in RESULT_META_COLUMNS:
            raise ValueError(
                f"collapse field must be a docmap metadata column "
                f"{RESULT_META_COLUMNS}, not {field!r}")
        node = self._plan(parse_query(query, default_op))
        return self._topk("search_collapse", k, collapse=field, node=node,
                          field=field, idfs=self.idfs_for(node),
                          avgdl=self.avgdl, flt=filter)

    def search_boolean(self, query: str | ast.Node, default_op: str = "or",
                       filter: dict[str, list[str]] | None = None,
                       limit: int | None = None,
                       with_meta: bool = True) -> pa.Table:
        """Doc-level boolean retrieval, ascending doc_id.  `limit`
        overrides the per-segment partition_limit cap (None keeps the
        reference's default cap; pass e.g. the corpus size for an
        uncapped match set — analytics like significant_terms need the
        FULL foreground, not a result window).  `with_meta=False`
        skips the metadata-column projection (id-only results — the
        wire handler's path).  `filter` as in `search`.

        Phrase-bearing trees (from the grammar parser's `"..."`
        leaves) evaluate set-algebraically at the engine level over
        COMPLETE subtree doc sets — see _boolean_with_phrases."""
        parsed = parse_query(query, default_op)
        from chearch_ray.functions.queryparse import contains_phrase

        if contains_phrase(parsed):
            return self._boolean_with_phrases(parsed, filter=filter, limit=limit)
        merged = pa.concat_tables(self._scatter(
            "concat", "search_boolean", self._plan(parsed), limit, with_meta, flt=filter))
        if len(merged) == 0:
            return merged
        order = np.argsort(_merge_tie_key(merged), kind="stable")
        return merged.take(pa.array(order, type=pa.int64()))

    def search_dismax(self, terms, tie: float = 0.0,
                      k: int | None = None,
                      with_meta: bool = True,
                      filter: dict[str, list] | None = None) -> pa.Table:
        """Disjunction-max BM25 top-k (Lucene's DisjunctionMaxQuery,
        engine extension §2.10): score(d) = max over the terms'
        contributions + `tie` * (their sum - that max), over the OR
        candidate set — best-match semantics where a doc matching one
        term STRONGLY beats a doc matching several weakly.  tie=0 is
        pure max; tie=1 recovers the plain disjunctive sum.  `terms`
        as in search_msm (list or whitespace string; dedup
        first-seen)."""
        distinct, idfs = self._term_set(terms, "dismax")
        if not 0.0 <= tie <= 1.0:
            raise ValueError(f"tie breaker must be in [0, 1], not {tie}")
        return self._topk("search_dismax", k, terms=distinct, tie=float(tie),
                          idfs=idfs, avgdl=self.avgdl, with_meta=with_meta,
                          flt=filter)

    def search_span_first(self, term: str, limit_pos: int,
                          k: int | None = None,
                          with_meta: bool = True,
                          filter: dict[str, list] | None = None) -> pa.Table:
        """BM25 top-k over docs whose FIRST occurrence of `term` is at
        token position < `limit_pos` (Lucene's SpanFirstQuery, engine
        extension §2.10) — 'the term appears in the opening N tokens',
        e.g. title-ish matching over position-indexed text.  Requires
        a positional index (every default build); scores are the
        standard single-term BM25 over the surviving docs."""
        t = str(term).lower()
        from chearch_ray.functions.queryparse import _WORD_RE

        if not _WORD_RE.fullmatch(t):
            raise ValueError(f"span_first takes one plain term, not {term!r}")
        return self._topk("search_span_first", k, term=t,
                          limit_pos=_positive_int("limit_pos", limit_pos),
                          idfs=self.idfs_for(ast.Term(t)), avgdl=self.avgdl,
                          with_meta=with_meta, flt=filter)

    def count(self, query: str | ast.Node, default_op: str = "or",
              filter: dict[str, list] | None = None) -> int:
        """Exact live match count (the Lucene IndexSearcher.count
        analogue, engine extension §2.10): how many docs the boolean
        form of `query` matches — NEVER windowed by partition_limit
        (a count is an aggregate over the full match set).  Segments
        ship one integer each; phrase-bearing trees fall back to the
        engine-level set algebra (complete doc sets by construction)."""
        parsed = parse_query(query, default_op)
        from chearch_ray.functions.queryparse import contains_phrase

        if contains_phrase(parsed):
            return len(self._boolean_with_phrases(parsed, filter=filter,
                                                  limit=1 << 62))
        return sum(self._scatter("count", self._plan(parsed), flt=filter))

    def first_position(self, term: str, doc_id: int, doc_hi: int | None = None):
        """First token position of `term` in doc `doc_id` (`doc_hi` =
        the high word in doc_id_bits=128 mode): 0 when the doc matches
        but positions are not stored, None when it does not contain the
        term.  One call, to the group that holds the doc's segment."""
        if not self.use_actors:
            return self._group.first_position(term, doc_id, doc_hi=doc_hi)
        import ray

        seg = int(doc_id) % self.cfg.num_segments
        for segs, actor in zip(self.actor_segments, self._live_actors()):
            if seg in segs:
                return ray.get(actor.first_position.remote(term, doc_id, doc_hi=doc_hi))
        return None

    # ------------------------------------------- phrase-in-boolean
    def _id_columns(self) -> list[str]:
        return (["doc_id_hi", "doc_id"] if self.cfg.doc_id_bits == 128
                else ["doc_id"])

    def _boolean_with_phrases(self, node: ast.Node, filter=None,
                              limit: int | None = None) -> pa.Table:
        """Boolean tree with Phrase leaves, evaluated set-algebraically
        at the engine: maximal phrase-free subtrees run through the
        normal (skip-block lazy) boolean path UNCAPPED, phrase leaves
        through the positional verify path uncapped, and And/Or/AndNot
        above them combine sorted doc-key arrays with vectorized set
        ops.  Uncapped subtree sets are required for soundness — a
        result-window cap on either side of an AndNot/And would make
        the algebra wrong — so `limit` applies to the FINAL set only
        (ascending-id prefix).  Results are id-only (no metadata
        projection).  State is bounded by the matching doc sets, the
        same bound search_boolean(limit=None-cap-override) already has.
        """
        if filter is not None:
            raise NotImplementedError(
                "metadata filters with phrase leaves are not supported — "
                "apply the filter to the phrase-free part via "
                "search_boolean(filter=...) and intersect"
            )
        uncap = int(self.n_docs) + 1
        cols = self._id_columns()

        def ids_of(t: pa.Table) -> pa.Table:
            return t.select(cols)

        def eval_node(n: ast.Node) -> tuple[np.ndarray, pa.Table]:
            from chearch_ray.functions.queryparse import contains_phrase

            if isinstance(n, ast.Phrase):
                t = ids_of(self.search_phrase(list(n.terms), k=uncap))
            elif not contains_phrase(n):
                t = ids_of(self.search_boolean(n, limit=uncap, with_meta=False))
            else:
                ka, ta = eval_node(n.a)
                kb, tb = eval_node(n.b)
                if isinstance(n, ast.And):
                    m = np.isin(ka, kb)
                    return ka[m], ta.take(pa.array(np.nonzero(m)[0], type=pa.int64()))
                if isinstance(n, ast.AndNot):
                    m = ~np.isin(ka, kb)
                    return ka[m], ta.take(pa.array(np.nonzero(m)[0], type=pa.int64()))
                # Or: a, plus b-rows not in a, re-sorted
                m = ~np.isin(kb, ka)
                keys = np.concatenate([ka, kb[m]])
                tab = pa.concat_tables(
                    [ta, tb.take(pa.array(np.nonzero(m)[0], type=pa.int64()))]
                )
                order = np.argsort(keys, kind="stable")
                return keys[order], tab.take(pa.array(order, type=pa.int64()))
            keys = _merge_tie_key(t)
            order = np.argsort(keys, kind="stable")
            return keys[order], t.take(pa.array(order, type=pa.int64()))

        _, out = eval_node(node)
        if limit is not None and len(out) > limit:
            out = out.slice(0, limit)
        return out

    def close(self) -> None:
        if self.use_actors:
            import ray

            for a in self._actors:
                ray.kill(a)
            self._actors = []

    def search_many(
        self, queries: list, k: int | None = None, default_op: str = "or"
    ) -> pa.Table:
        """BM25 top-k for a batch of queries; one call per searcher
        group for the whole batch.  Returns each query's `search`
        result with a query_id column (index into `queries`), in query
        order; an empty batch is the typed empty table."""
        nodes = [self._plan(parse_query(q, default_op)) for q in queries]
        k = self._k(k)
        # an empty batch runs one no-match query for the typed schema
        calls = [dict(node=n, idfs=self.idfs_for(n), avgdl=self.avgdl)
                 for n in nodes or [_NO_MATCH]]
        per_group = self._scatter("topk_many", "search_bm25", k, calls)
        tables = []
        for q, ts in enumerate(zip(*per_group)):
            t = self._merge_topk(list(ts), k)
            tables.append(t.append_column(
                "query_id", pa.array(np.full(len(t), q), type=pa.int64())))
        out = pa.concat_tables(tables)
        return out if nodes else out.slice(0, 0)

    def build_suggest_index(self, max_distance: int = 2) -> str:
        """Precompute the SymSpell deletion-neighborhood index under
        <index_dir>/suggest — suggest() uses it automatically for any
        query distance <= max_distance.  One vocabulary-scale Ray
        build; results are identical to the scan path (pinned)."""
        from chearch_ray.state.suggest import build_suggest_index

        sdir = os.path.join(self.index_dir, "suggest")
        build_suggest_index(self._stats_path, sdir, max_distance)
        return sdir

    def suggest(self, term: str, max_distance: int = 2, k: int = 5) -> pa.Table:
        """Did-you-mean: vocabulary terms within `max_distance` edits,
        ordered (distance asc, df desc, term asc), top k — columns
        (suggestion, dist, df).  Exact unit-cost Levenshtein, computed
        by a candidate-vectorized DP after a length prefilter
        (|len - len(term)| <= max_distance).

        When a deletion-neighborhood index built for >= max_distance
        exists (build_suggest_index), candidates come from exact
        variant-key lookups over only the probed hash-prefix
        partitions instead of a full vocabulary scan — the 10^12-doc
        path; identical results either way."""
        from chearch_ray.state.suggest import (
            suggest_from_index, suggest_index_distance,
        )

        sdir = os.path.join(self.index_dir, "suggest")
        built = suggest_index_distance(sdir)
        if built is not None and built >= max_distance:
            return suggest_from_index(
                sdir, self._stats_path, term, max_distance, k
            )
        terms, dist = self._within_distance(term, max_distance)
        dfs = [self._df[t] for t in terms]
        order = sorted(range(len(terms)), key=lambda i: (dist[i], -dfs[i], terms[i]))[:k]
        return pa.table(
            {
                "suggestion": pa.array([terms[i] for i in order], type=pa.string()),
                "dist": pa.array([int(dist[i]) for i in order], type=pa.int64()),
                "df": pa.array([dfs[i] for i in order], type=pa.int64()),
            }
        )

    def more_like_this(self, text: str | None = None, n_terms: int = 5,
                       k: int | None = None, *,
                       doc_id: int | None = None,
                       doc_hi: int | None = None) -> pa.Table:
        """Similar-document retrieval by distinctive-term expansion
        (the classic MoreLikeThis): tokenize `text`, rank its UNIQUE
        terms by tf·idf against the INDEX's stats (ties: term asc),
        take the top `n_terms` that exist in the index, and run a BM25
        Or query over them.  The caller excludes the source doc from
        the results if `text` came from an indexed doc (ask for k+1).

        `doc_id=` (instead of text) is the by-document form: the
        source text comes from the docstore sidecar (FileNotFoundError
        when the index was built without one) and the source doc
        AUTO-EXCLUDES from the results — top-(k+1) minus the source is
        exactly the top-k of the rest, since exclusion happens on the
        globally-merged order.  `doc_hi` carries the high word in
        doc_id_bits=128 mode.

        Term selection is deterministic and exactly mirrorable in SQL
        (integer tf, the engine's ln-idf, lexicographic tie-break), so
        the whole composition is oracle-checkable."""
        from chearch_ray.functions.tokenizer import tokenize as _tok
        from chearch_ray.state.searcher import bm25_idf

        if (doc_id is None) == (text is None):
            raise ValueError("pass exactly one of text or doc_id=")
        k = self._k(k)
        if doc_id is not None:
            if self.cfg.doc_id_bits == 128 and doc_hi is None:
                # a lo-only lookup on a wide index would fetch an
                # ARBITRARY lo-colliding doc's text and the lo-only
                # exclusion would drop every doc sharing the lo word
                raise ValueError(
                    "doc_id_bits=128 index: more_like_this(doc_id=...) "
                    "requires doc_hi=")
            rows = self.fetch_docs([doc_id],
                                   None if doc_hi is None else [doc_hi])
            if len(rows) == 0:
                raise KeyError(f"doc {doc_id} not in docstore")
            text = rows["text"][0].as_py()
            kk = k + 1
            out = self.more_like_this(text, n_terms, kk)
            wide = doc_hi is not None and "doc_id_hi" in out.column_names
            keep = [
                i for i in range(len(out))
                if out["doc_id"][i].as_py() != doc_id
                or (wide and out["doc_id_hi"][i].as_py() != doc_hi)
            ]
            return out.take(pa.array(keep[:kk - 1], type=pa.int64()))

        toks = _tok(
            pa.array([text]),
            lowercase=self.cfg.lowercase,
            split_subtokens=self.cfg.split_subtokens,
            split_regex=self.cfg.token_split_regex,
        ).to_pylist()[0]
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        scored = []
        for t, f in tf.items():
            df = self.df(t)
            if df == 0:
                continue  # terms absent from the index carry no signal
            scored.append((-float(f) * bm25_idf(self.n_docs, df), t))
        scored.sort()
        pick = [t for _, t in scored[:n_terms]]
        node: ast.Node = ast.Term(pick[0]) if pick else _NO_MATCH
        for t in pick[1:]:
            node = ast.Or(node, ast.Term(t))
        return self.search(node, k=k)

    def facet_counts(self, query: str | ast.Node, column: str = "lang",
                     default_op: str = "or") -> pa.Table:
        """Faceted search: boolean hits grouped by a docmap metadata
        column -> (column, n) counts, n desc then facet asc.  Counts
        cover the boolean result window (per-segment partition_limit
        cap, the reference's result-window semantics)."""
        t = self.search_boolean(query, default_op)
        if column not in t.column_names:
            raise ValueError(
                f"facet column must be a result column {t.column_names}, "
                f"not {column!r}")
        agg = t.group_by(column, use_threads=False).aggregate([(column, "count")])
        agg = pa.table(
            {column: agg[column], "n": agg[f"{column}_count"].cast(pa.int64())}
        )
        order = pc.sort_indices(
            agg, sort_keys=[("n", "descending"), (column, "ascending")]
        )
        return agg.take(order)

    def facet_histogram(self, query: str | ast.Node, bucket_width: int = 32,
                        default_op: str = "or") -> pa.Table:
        """Numeric histogram aggregation (ES date_histogram/histogram
        analogue) over matching docs' token lengths: (bucket_lo, n)
        ascending, buckets of `bucket_width` tokens.  Unlike
        `facet_counts` this covers the FULL match set, not the
        partition_limit result window; each segment ships only its
        histogram partial."""
        node = self._plan(parse_query(query, default_op))
        merged = pa.concat_tables(self._scatter("concat", "facet_histogram", node, bucket_width))
        if len(merged) == 0:
            return merged
        agg = merged.group_by("bucket_lo", use_threads=False).aggregate([("n", "sum")])
        agg = pa.table({"bucket_lo": agg["bucket_lo"],
                        "n": agg["n_sum"].cast(pa.int64())})
        return agg.take(pc.sort_indices(agg, sort_keys=[("bucket_lo", "ascending")]))

    @functools.cached_property
    def _docmap_schema(self) -> pa.Schema | None:
        """Arrow schema of the index's docmap files (None when the index
        has no docmap, e.g. an empty corpus), read from one footer."""
        parts = self.manifest.docmap_parts
        if not parts:
            return None
        return pq.read_schema(os.path.join(self.index_dir, parts[0]["path"]))

    def facet_stats(self, query: str | ast.Node, by: str = "lang",
                    default_op: str = "or",
                    filter: dict[str, list] | None = None) -> pa.Table:
        """Per-facet doc_len statistics over the FULL match set (the
        Elasticsearch stats-aggregation analogue): one row per
        distinct `by` value with (n, sum_dl, min_dl, max_dl, mean_dl),
        ordered by facet value.  Segments ship integer partials
        (sum/min/max merge exactly); mean is computed ONCE here as
        sum/n in float64, so it is bit-identical to the SQL
        sum::DOUBLE / count::DOUBLE mirror.  `filter` narrows the
        counted set by docmap metadata.  A zero-match query returns
        an empty table with the same typed schema; an unknown `by`
        raises ValueError."""
        schema = self._docmap_schema
        if schema is not None and by not in schema.names:
            raise ValueError(
                f"facet_stats by must be a docmap column {schema.names}, "
                f"not {by!r}")
        node = self._plan(parse_query(query, default_op))
        merged = pa.concat_tables(self._scatter("concat", "facet_stats", node, by, flt=filter))
        if len(merged) == 0:
            by_type = schema.field(by).type if schema is not None else pa.string()
            return pa.table({
                by: pa.array([], type=by_type),
                **{c: pa.array([], type=pa.int64())
                   for c in ("n", "sum_dl", "min_dl", "max_dl")},
                "mean_dl": pa.array([], type=pa.float64()),
            })
        agg = merged.group_by(by, use_threads=False).aggregate(
            [("n", "sum"), ("sum_dl", "sum"), ("min_dl", "min"),
             ("max_dl", "max")])
        n = agg["n_sum"].to_numpy().astype(np.int64)
        sum_dl = agg["sum_dl_sum"].to_numpy().astype(np.int64)
        out = pa.table({
            by: agg[by],
            "n": pa.array(n, type=pa.int64()),
            "sum_dl": pa.array(sum_dl, type=pa.int64()),
            "min_dl": agg["min_dl_min"].cast(pa.int64()),
            "max_dl": agg["max_dl_max"].cast(pa.int64()),
            "mean_dl": pa.array(sum_dl.astype(np.float64)
                                / n.astype(np.float64),
                                type=pa.float64()),
        })
        return out.take(pc.sort_indices(
            out, sort_keys=[(by, "ascending")]))

    def search_phrase(self, phrase: str | list, k: int | None = None) -> pa.Table:
        """Exact phrase query across segments (requires
        store_positions=True at build time), ordered
        (score desc, doc_id asc)."""
        terms = phrase.lower().split() if isinstance(phrase, str) else [str(t) for t in phrase]
        if not terms:
            raise ValueError("empty phrase")
        idfs = {t: bm25_idf(self.n_docs, self.df(t)) for t in dict.fromkeys(terms)}
        return self._topk("search_phrase", k, terms=terms, idfs=idfs, avgdl=self.avgdl)

    def search_near(
        self,
        term_a: str,
        term_b: str,
        slop: int = 3,
        ordered: bool = False,
        k: int | None = None,
    ) -> pa.Table:
        """Proximity query (NEAR/slop): docs where `term_b` occurs
        within `slop` token positions of `term_a` (unordered by
        default; `ordered=True` requires term_b AFTER term_a).
        Requires store_positions=True at build time.  Results are
        BM25-ranked over the two terms (score desc, doc_id asc)."""
        slop = _positive_int("slop", slop)
        term_a, term_b = term_a.lower(), term_b.lower()
        idfs = {
            t: bm25_idf(self.n_docs, self.df(t))
            for t in dict.fromkeys([term_a, term_b])
        }
        return self._topk("search_near", k, term_a=term_a, term_b=term_b, slop=slop,
                          ordered=ordered, idfs=idfs, avgdl=self.avgdl)

    def search_near_all(
        self,
        terms: list[str],
        slop: int = 3,
        k: int | None = None,
    ) -> pa.Table:
        """N-term unordered proximity (span-near): docs where some
        window of `slop + 1` consecutive token positions contains at
        least one occurrence of EVERY term (an occurrence choice with
        max − min <= slop; exactly the 2-term unordered `search_near`
        semantics for two distinct terms).  Duplicate terms dedupe.
        Requires store_positions=True at build time.  BM25-ranked over
        the unique terms (score desc, doc_id asc)."""
        slop = _positive_int("slop", slop)
        terms = list(dict.fromkeys(t.lower() for t in terms))
        if not terms:
            raise ValueError("empty NEAR term list")
        idfs = {t: bm25_idf(self.n_docs, self.df(t)) for t in terms}
        return self._topk("search_near_all", k, terms=terms, slop=slop, idfs=idfs,
                          avgdl=self.avgdl)


class FieldedEngine:
    """Weighted multi-field search (the BM25F-family linear
    combination): one INDEX PER FIELD over the same doc-id space
    (e.g. content and path of a source-code corpus), combined as

        score(d) = Σ_f  w_f · bm25_f(d, query_f)

    with a missing field contributing 0.  Each field keeps its own
    df/avgdl statistics, as BM25F variants prescribe.

    Exactness over scale: per-field rankings are fetched COMPLETE
    (k = field's corpus size) before combining — a per-field top-k cut
    would drop docs that score mid-range in several fields but top
    overall.  Candidates are still bounded by docs matching at least
    one query term, and each field's search runs the normal pruned
    engine path; a WAND over combined per-field upper bounds is the
    future scale refinement (same exactness argument as MaxScore).
    """

    def __init__(self, engines: dict[str, QueryEngine],
                 weights: dict[str, float] | None = None):
        if not engines:
            raise ValueError("need at least one field engine")
        self.engines = dict(engines)
        self.weights = {f: 1.0 for f in engines} | dict(weights or {})
        unknown = set(self.weights) - set(engines)
        if unknown:
            raise ValueError(f"weights for unknown fields: {sorted(unknown)}")

    def search(self, queries: dict[str, "str | ast.Node"], k: int = 10) -> pa.Table:
        """`queries` maps field -> query (string or ast).  Fields
        absent from `queries` contribute nothing.  Returns (doc_id,
        score) ordered (score desc, doc_id asc)."""
        score_map: dict[int, float] = {}
        # deterministic field order = engines dict order; each doc's
        # combined score accumulates in that order (float contract)
        for field, eng in self.engines.items():
            q = queries.get(field)
            if q is None:
                continue
            w = float(self.weights[field])
            t = eng.search(q, k=eng.n_docs + 1)
            for doc, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
                score_map[doc] = score_map.get(doc, 0.0) + w * s
        if not score_map:
            return pa.table(
                {"doc_id": pa.array([], type=pa.uint64()),
                 "score": pa.array([], type=pa.float64())}
            )
        docs = np.fromiter(score_map.keys(), dtype=np.uint64, count=len(score_map))
        scores = np.fromiter(score_map.values(), dtype=np.float64, count=len(score_map))
        order = topk_order(scores, docs, k)
        return pa.table(
            {
                "doc_id": pa.array(docs[order], type=pa.uint64()),
                "score": pa.array(scores[order], type=pa.float64()),
            }
        )


def expand_synonyms(node: ast.Node, synonyms: dict) -> ast.Node:
    """Query-time synonym expansion: every Term leaf with an entry in
    `synonyms` becomes an OR over (term, *synonyms[term]) — scoring
    then follows the usual disjunctive BM25, so a doc matching any
    variant scores it.  Non-Term leaves (prefix, fuzzy, phrase) pass
    through unchanged; the dict values are plain lowercase terms."""
    def walk(n):
        if isinstance(n, ast.Term):
            alts = synonyms.get(n.term)
            if not alts:
                return n
            out = n
            for a in alts:
                out = ast.Or(out, ast.Term(str(a).lower()))
            return out
        if isinstance(n, ast.And):
            return ast.And(walk(n.a), walk(n.b))
        if isinstance(n, ast.Or):
            return ast.Or(walk(n.a), walk(n.b))
        if isinstance(n, ast.AndNot):
            # negated side expands too: excluding a concept excludes
            # its variants
            return ast.AndNot(walk(n.a), walk(n.b))
        return n

    return walk(node)
