"""Query-grammar parser (functions/queryparse.py) + phrase-in-boolean
engine path: grammar unit tests, parser->engine equivalence against
hand-built ASTs, and a brute-force positional oracle for every
Phrase-bearing boolean combination."""

import re

import numpy as np
import pyarrow as pa
import pytest

from chearch_ray import ast
from chearch_ray.functions.queryparse import (
    QueryParseError,
    contains_phrase,
    is_grammar_query,
    parse,
)

# ----------------------------------------------------------- grammar


def test_parse_precedence_or_lowest():
    # a OR b AND c == a OR (b AND c)
    assert parse("a OR b AND c") == ast.Or(
        ast.Term("a"), ast.And(ast.Term("b"), ast.Term("c"))
    )


def test_parse_parens_override():
    assert parse("(a OR b) AND c") == ast.And(
        ast.Or(ast.Term("a"), ast.Term("b")), ast.Term("c")
    )


def test_parse_juxtaposition_is_and():
    assert parse("(a b)") == ast.And(ast.Term("a"), ast.Term("b"))


def test_parse_not_anchors_to_conjunction():
    assert parse("a AND NOT b") == ast.AndNot(ast.Term("a"), ast.Term("b"))
    # several negatives OR together under one AndNot
    assert parse("a AND NOT b AND NOT c") == ast.AndNot(
        ast.Term("a"), ast.Or(ast.Term("b"), ast.Term("c"))
    )


def test_parse_dash_negation_sugar():
    assert parse("(a -b)") == ast.AndNot(ast.Term("a"), ast.Term("b"))


def test_parse_double_negation_cancels():
    assert parse("a AND NOT NOT b") == ast.And(ast.Term("a"), ast.Term("b"))


def test_parse_prefix_and_fuzzy_leaves():
    assert parse("(pre* AND term~2)") == ast.And(
        ast.Prefix("pre"), ast.Fuzzy("term", 2)
    )


def test_parse_phrase_leaf():
    assert parse('"hash join" AND index') == ast.And(
        ast.Phrase(("hash", "join")), ast.Term("index")
    )


def test_parse_single_word_phrase_is_term():
    assert parse('("hash")') == ast.Term("hash")


def test_parse_lowercase_keywords_are_terms():
    # Lucene convention: only UPPERCASE keywords are operators
    assert parse("(black and white)") == ast.And(
        ast.And(ast.Term("black"), ast.Term("and")), ast.Term("white")
    )


def test_parse_case_folding():
    assert parse("(Merge Sort)") == ast.And(ast.Term("merge"), ast.Term("sort"))


@pytest.mark.parametrize(
    "bad",
    [
        "NOT a",  # pure negation
        "a OR NOT b",  # complement under OR
        "NOT a AND NOT b",  # all-negative conjunction
        "(a OR b",  # unbalanced paren
        "a)",  # unbalanced paren
        '"unterminated phrase',  # unbalanced quote
        '("")',  # empty phrase
        "a AND",  # dangling operator
        "OR a",  # leading operator
        "",  # empty query
        "   ",  # whitespace query
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(QueryParseError):
        parse(bad)


def test_is_grammar_query_routing():
    assert is_grammar_query("(a OR b)")
    assert is_grammar_query('"hash join"')
    assert is_grammar_query("a AND b")
    # legacy flat strings must NOT route to the grammar
    assert not is_grammar_query("merge sort")
    assert not is_grammar_query("window -stream")
    assert not is_grammar_query("s* merge")
    assert not is_grammar_query("part~2")


def test_contains_phrase():
    assert contains_phrase(parse('a AND "b c"'))
    assert not contains_phrase(parse("a AND b"))


# ------------------------------------- engine integration + oracle


@pytest.fixture(scope="module")
def eng(ray_session, tmp_path_factory):
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    root = str(tmp_path_factory.mktemp("qparse") / "idx")
    cfg = EngineConfig(num_segments=2, num_term_shards=2)
    corpus = synthetic_corpus(200, seed=7)
    corpus = corpus.append_column(
        "doc_id", pa.array(np.arange(len(corpus), dtype=np.uint64))
    )
    build_index(ray.data.from_arrow(corpus), root, cfg)
    e = QueryEngine(root, use_actors=False)
    e._corpus = corpus  # brute-force oracle side-channel
    return e


def _brute_ids(eng, pred) -> list:
    """doc ids whose token list satisfies pred(tokens)."""
    ids = []
    for did, text in zip(
        eng._corpus["doc_id"].to_pylist(), eng._corpus["content"].to_pylist()
    ):
        toks = [t for t in re.split("[^a-z0-9_]+", text.lower()) if t]
        if pred(toks):
            ids.append(did)
    return sorted(ids)


def _has_phrase(toks, words):
    n = len(words)
    return any(toks[i : i + n] == list(words) for i in range(len(toks) - n + 1))


def _ids(t: pa.Table) -> list:
    return sorted(t["doc_id"].to_pylist())


def test_grammar_boolean_equals_manual_tree(eng):
    got = eng.search_boolean("(def OR class) AND return")
    want = eng.search_boolean(
        ast.And(ast.Or(ast.Term("def"), ast.Term("class")), ast.Term("return")),
        limit=10**9,
    )
    assert _ids(got) == _ids(want)


def test_grammar_not_equals_flat_negation(eng):
    got = eng.search_boolean("def AND NOT class", limit=10**9)
    want = eng.search_boolean("def -class", default_op="and", limit=10**9)
    assert _ids(got) == _ids(want)


def test_phrase_and_term_vs_brute_force(eng):
    words = ("def", "return")
    got = eng.search_boolean('"def return" AND class')
    want = _brute_ids(
        eng, lambda tk: _has_phrase(tk, words) and "class" in tk
    )
    assert _ids(got) == want
    assert len(want) > 0  # non-vacuous


def test_phrase_or_vs_brute_force(eng):
    got = eng.search_boolean('"def return" OR "def if"')
    want = _brute_ids(
        eng,
        lambda tk: _has_phrase(tk, ("def", "return"))
        or _has_phrase(tk, ("def", "if")),
    )
    assert _ids(got) == want


def test_phrase_not_vs_brute_force(eng):
    # phrase on the NEGATIVE side of AndNot — the case a relaxed
    # (phrase->And) rewrite would get wrong
    got = eng.search_boolean('def AND NOT "def return"')
    want = _brute_ids(
        eng, lambda tk: "def" in tk and not _has_phrase(tk, ("def", "return"))
    )
    assert _ids(got) == want
    assert len(want) > 0


def test_pure_phrase_query(eng):
    got = eng.search_boolean('("def return")')
    want = _brute_ids(eng, lambda tk: _has_phrase(tk, ("def", "return")))
    assert _ids(got) == want


def test_phrase_boolean_limit_is_ascending_prefix(eng):
    full = eng.search_boolean('"def return" OR class')
    lim = eng.search_boolean('"def return" OR class', limit=5)
    assert lim["doc_id"].to_pylist() == full["doc_id"].to_pylist()[:5]


def test_phrase_rejected_in_bm25_path(eng):
    with pytest.raises(ValueError, match="boolean-only"):
        eng.search('"def return" AND class')


def test_phrase_filter_unsupported(eng):
    with pytest.raises(NotImplementedError):
        eng.search_boolean('"def return"', filter={"lang": ["py"]})


def test_grammar_via_search_bm25_pure_boolean(eng):
    # grammar WITHOUT phrases flows through the ranked path too
    got = eng.search("(def OR class) AND return", k=5)
    want = eng.search(
        ast.And(ast.Or(ast.Term("def"), ast.Term("class")), ast.Term("return")),
        k=5,
    )
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["score"].to_pylist() == want["score"].to_pylist()


def test_parse_with_filters():
    from chearch_ray import ast
    from chearch_ray.functions.queryparse import (QueryParseError,
                                                  parse_with_filters)

    node, f = parse_with_filters("lang:py lang:go merge sort OR join source:web")
    assert f == {"lang": ["py", "go"], "source": ["web"]}
    assert node == ast.Or(ast.And(ast.Term("merge"), ast.Term("sort")),
                          ast.Term("join"))
    # no field tokens -> plain grammar, None filter
    node, f = parse_with_filters('"merge sort" AND join')
    assert f is None and isinstance(node, ast.And)
    # duplicates collapse, order preserved
    _, f = parse_with_filters("lang:py lang:py lang:go x")
    assert f == {"lang": ["py", "go"]}
    # phrases may contain colons without becoming filters
    node, f = parse_with_filters('"a b" x')
    assert f is None
    import pytest
    for bad in ("lang:py", "(lang:py merge)", "merge NOT lang:py",
                "merge -lang:py", "lang:py lang:go"):
        with pytest.raises(QueryParseError):
            parse_with_filters(bad)


# ------------------------------------------- range filters + suffix


def test_parse_range_filters():
    from chearch_ray.functions.queryparse import parse_full

    node, f, _ = parse_full("doc_len:[40 TO 160] lang:{a TO fr] merge OR sort")
    assert f == {"doc_len": [("range", "40", "160", True, True)],
                 "lang": [("range", "a", "fr", False, True)]}
    assert node == ast.Or(ast.Term("merge"), ast.Term("sort"))
    # open ends
    _, f, _ = parse_full("doc_len:[100 TO *] merge")
    assert f == {"doc_len": [("range", "100", None, True, True)]}
    _, f, _ = parse_full("doc_len:{* TO 9} merge")
    assert f == {"doc_len": [("range", None, "9", True, False)]}
    # IN values and ranges OR together on the same field, duplicates collapse
    _, f, _ = parse_full("lang:py lang:[aa TO bb] lang:[aa TO bb] merge")
    assert f == {"lang": ["py", ("range", "aa", "bb", True, True)]}


@pytest.mark.parametrize(
    "bad",
    [
        "-lang:[a TO b] x",        # negated range
        "NOT lang:[a TO b] x",     # negated range (keyword)
        "(lang:[a TO b]) x",       # grouped range
        "lang:[a TO b]",           # filters only, no terms
        "lang:[* TO *] x",         # unbounded both ends
        "lang:[a TO x",            # unclosed bracket
        "lang:[aTOb] x",           # missing TO separator
        "lang:[] x",               # empty brackets
    ],
)
def test_parse_range_rejects(bad):
    from chearch_ray.functions.queryparse import parse_full

    with pytest.raises(QueryParseError):
        parse_full(bad)


def test_parse_suffix_leaf():
    assert parse("*ing merge") == ast.And(ast.Suffix("ing"), ast.Term("merge"))
    # flat parser emits the same leaf (routing-independent meaning)
    from chearch_ray.state.engine import parse_query

    assert parse_query("*ing merge", default_op="and") == ast.And(
        ast.Suffix("ing"), ast.Term("merge"))
    # bare '*' and multi-star tokens reject
    for bad in ("* x", "*a*b x", "a*b*c x", "a**b x", "*ab* x"):
        with pytest.raises(QueryParseError):
            parse(bad)


def test_parse_infix_wildcard_leaf():
    assert parse("me*ge x") == ast.And(ast.Wildcard("me", "ge"), ast.Term("x"))
    from chearch_ray.state.engine import parse_query

    assert parse_query("me*ge x", default_op="and") == ast.And(
        ast.Wildcard("me", "ge"), ast.Term("x"))


def _doc_lens(eng) -> dict:
    t = eng._group.searcher.docmap.table
    return dict(zip(t["doc_id"].to_pylist(), t["doc_len"].to_pylist()))


def test_range_filter_numeric(eng):
    """doc_len:[lo TO hi] == post-filtering the unfiltered ranking by
    the docmap's doc_len (scores unchanged by the filter)."""
    full = eng.search_parsed("def OR return", k=10**6)
    pairs = list(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
    dls = _doc_lens(eng)

    def top(pred, k=10):
        return [(d, s) for d, s in pairs if pred(dls[d])][:k]

    got = eng.search_parsed("doc_len:[5 TO 30] def OR return", k=10)
    assert list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist())) \
        == top(lambda v: 5 <= v <= 30)
    # exclusive brackets
    got = eng.search_parsed("doc_len:{5 TO 30} def OR return", k=10)
    assert list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist())) \
        == top(lambda v: 5 < v < 30)
    # open end
    got = eng.search_parsed("doc_len:[30 TO *] def OR return", k=10)
    assert list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist())) \
        == top(lambda v: v >= 30)
    # IN value + range OR together within the column
    got = eng.search_parsed("doc_len:7 doc_len:[20 TO 25] def OR return", k=10)
    assert list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist())) \
        == top(lambda v: v == 7 or 20 <= v <= 25)


def test_range_filter_string_column(eng):
    """String columns compare lexicographically (docmap schema types
    the bounds): lang:[go TO py] == lang in the closed lex interval."""
    from chearch_ray.functions.queryparse import parse_full

    langs = dict(zip(eng._corpus["doc_id"].to_pylist(),
                     eng._corpus["lang"].to_pylist()))
    node, filters, _ = parse_full("lang:[go TO py] def")
    got = eng.search_boolean(node, filter=filters)
    want = [d for d in _ids(eng.search_boolean("def"))
            if "go" <= langs[d] <= "py"]
    assert _ids(got) == sorted(want)
    assert len(got) > 0  # non-degenerate
    # and the range really narrows (some lang outside the interval)
    assert len(got) < len(eng.search_boolean("def"))


def test_range_filter_bad_numeric_bound_raises(eng):
    with pytest.raises(ValueError, match="doc_len"):
        eng.search_parsed("doc_len:[abc TO 5] def")


def test_suffix_expansion_dict_matches_scan(eng):
    """The reversed-term dictionary sidecar returns EXACTLY the
    vocabulary-scan expansion (the two paths must be substitutable)."""
    import pyarrow.parquet as pq

    vocab = pq.read_table(eng._stats_path, columns=["term"])["term"].to_pylist()
    for suf in ("urn", "s", "e"):
        want = sorted(t for t in vocab if t.endswith(suf))
        eng._expansions.clear()
        assert eng.expand_suffix(suf, max_expansions=10**6) == want
    eng.build_suffix_dictionary()
    from chearch_ray.state.suffixdict import suffix_dictionary_exists

    assert suffix_dictionary_exists(f"{eng.index_dir}/suffix")
    for suf in ("urn", "s", "e", "zzzz_nope"):
        want = sorted(t for t in vocab if t.endswith(suf))
        eng._expansions.clear()
        assert eng.expand_suffix(suf, max_expansions=10**6) == want


def test_suffix_query_matches_brute_force(eng):
    """`*urn def` (flat) and grammar form match the positional brute
    force: docs containing a token ending 'urn' AND 'def'."""
    got = eng.search_boolean("*urn def", default_op="and")
    want = _brute_ids(
        eng, lambda toks: any(t.endswith("urn") for t in toks) and "def" in toks
    )
    assert _ids(got) == want and len(got) > 0
    # empty expansion annihilates the conjunction, yields the other Or side
    assert len(eng.search_boolean("*zzzz_nope def", default_op="and")) == 0
    assert _ids(eng.search_boolean("*zzzz_nope OR def")) \
        == _ids(eng.search_boolean("def"))


def test_suffix_cap_raises(eng):
    with pytest.raises(ValueError, match="cap"):
        eng.expand_suffix("e", max_expansions=1)


def test_cli_suffix_dict_builds_sidecar(eng):
    """`python -m chearch_ray suffix-dict --index …` builds the
    reversed-term dictionary; expansions afterwards equal the scan
    path (the CLI is how an operator enables `*ing` at scale)."""
    import os
    import shutil
    import subprocess
    import sys as _sys

    from chearch_ray.state.suffixdict import suffix_dictionary_exists

    sdir = os.path.join(eng.index_dir, "suffix")
    shutil.rmtree(sdir, ignore_errors=True)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))
    p = subprocess.run([_sys.executable, "-m", "chearch_ray", "suffix-dict",
                        "--index", eng.index_dir],
                       capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stdout + p.stderr
    assert suffix_dictionary_exists(sdir)
    import pyarrow.parquet as pq

    vocab = pq.read_table(eng._stats_path, columns=["term"])["term"].to_pylist()
    eng._expansions.clear()
    assert eng.expand_suffix("urn") == sorted(
        t for t in vocab if t.endswith("urn"))


def test_wildcard_expansion_both_routes(eng):
    """`head*tail` expands identically whether the selective anchor is
    the prefix (stats range) or the suffix (reversed dictionary) —
    and both equal the brute vocabulary comprehension."""
    import pyarrow.parquet as pq

    vocab = pq.read_table(eng._stats_path, columns=["term"])["term"].to_pylist()

    def brute(h, t):
        return sorted(x for x in vocab
                      if len(x) >= len(h) + len(t)
                      and x.startswith(h) and x.endswith(t))

    eng.build_suffix_dictionary()
    for h, t in (("re", "rn"), ("d", "f"), ("c", "ss"), ("re", "n"),
                 ("zz", "qq")):
        eng._expansions.clear()
        assert eng.expand_wildcard(h, t, max_expansions=10**6) == brute(h, t)
    # non-overlap: head+tail longer than the term never matches
    assert all(len(x) >= 4 for x in eng.expand_wildcard("de", "ef",
                                                        max_expansions=10**6))


def test_wildcard_query_matches_brute_force(eng):
    got = eng.search_boolean("d*f class", default_op="and")
    want = _brute_ids(
        eng,
        lambda toks: any(t.startswith("d") and t.endswith("f") and len(t) >= 2
                         for t in toks) and "class" in toks,
    )
    assert _ids(got) == want and len(got) > 0
    with pytest.raises(ValueError, match="both sides"):
        eng.expand_wildcard("", "x")


# --------------------------------------- review-finding regressions


def test_star_fuzzy_tokens_stay_fuzzy():
    """`a*b~1` / `*ab~1` must keep their pre-wildcard meaning (Fuzzy
    over the literal star-bearing string) in BOTH parsers — the
    word-shape guards keep the new wildcard leaves from swallowing
    them into match-nothing nodes."""
    from chearch_ray.state.engine import parse_query

    for parser in (parse, lambda q: parse_query(q, default_op="and")):
        assert parser("a*b~1") == ast.Fuzzy("a*b", 1)
        assert parser("*ab~1") == ast.Fuzzy("*ab", 1)


def test_malformed_range_bounds_raise():
    """near-miss bounds (stray bracket, '*'-prefixed) raise instead of
    silently filtering on the literal string."""
    from chearch_ray.functions.queryparse import parse_full

    for bad in ("lang:[[a TO b] x", "lang:[*a TO b] x",
                "lang:[a TO {b] x", "lang:[a TO *b] x"):
        with pytest.raises(QueryParseError, match="range"):
            parse_full(bad)
    # verbatim non-word bounds stay legal (paths, case, dots)
    _, f, _ = parse_full("path:[src/a.py TO src/z.py] x")
    assert f == {"path": [("range", "src/a.py", "src/z.py", True, True)]}


def test_programmatic_unbounded_range_raises(eng):
    with pytest.raises(ValueError, match="at least one bound"):
        eng.search_boolean(
            ast.Term("def"),
            filter={"doc_len": [("range", None, None, True, True)]})


def test_torn_sidecar_meta_falls_back_to_scan(eng):
    """a truncated meta.parquet (crash leftovers / fs damage) must
    read as 'no dictionary', not poison every suffix query."""
    import os

    from chearch_ray.state.suffixdict import suffix_dictionary_exists

    eng.build_suffix_dictionary()
    sdir = os.path.join(eng.index_dir, "suffix")
    meta = os.path.join(sdir, "meta.parquet")
    with open(meta, "wb") as fh:
        fh.write(b"PAR1\x00torn")
    try:
        assert not suffix_dictionary_exists(sdir)
        eng._expansions.clear()
        got = eng.expand_suffix("urn")  # scan fallback, no raise
        import pyarrow.parquet as pq

        vocab = pq.read_table(eng._stats_path, columns=["term"])["term"].to_pylist()
        assert got == sorted(t for t in vocab if t.endswith("urn"))
    finally:
        eng.build_suffix_dictionary()  # restore for later tests


def test_rejected_expansion_not_cached(eng):
    eng._expansions.clear()
    with pytest.raises(ValueError, match="cap"):
        eng.expand_suffix("e", max_expansions=1)
    assert ("suffix", "e") not in eng._expansions
    eng._expansions.clear()
    with pytest.raises(ValueError, match="cap"):
        eng.expand_wildcard("d", "f", max_expansions=0)
    assert ("wildcard", "d", "f") not in eng._expansions
    eng._expansions.clear()
    with pytest.raises(ValueError, match="cap"):
        eng.expand_fuzzy("return", 2, max_expansions=0)
    assert ("fuzzy", "return", 2) not in eng._expansions
    eng._expansions.clear()
    with pytest.raises(ValueError, match="cap"):
        eng.expand_regexp("ret[a-z]*", max_expansions=0)
    assert ("regexp", "ret[a-z]*") not in eng._expansions
    eng._expansions.clear()
    with pytest.raises(ValueError, match="cap"):
        eng.expand_prefix("re", max_expansions=0)
    assert ("prefix", "re") not in eng._expansions


def test_cli_explain_flag(eng):
    """`search --explain` prints per-(doc, term) evidence rows whose
    contribs sum to the engine's own ranked scores."""
    import ast as pyast
    import collections
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))
    p = subprocess.run([_sys.executable, "-m", "chearch_ray", "search",
                        "--index", eng.index_dir, "--query", "def OR return",
                        "--explain", "--k", "5", "--local"],
                       capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stdout + p.stderr
    rows = [pyast.literal_eval(line) for line in p.stdout.strip().splitlines()]
    assert rows and {"rank", "term", "tf", "dl", "df", "idf", "contrib"} \
        <= set(rows[0])
    sums, scores = collections.defaultdict(float), {}
    for r in rows:
        sums[r["rank"]] += r["contrib"]
        scores[r["rank"]] = r["score"]
    top = eng.search("def OR return", k=5)
    for i, s in enumerate(top["score"].to_pylist(), 1):
        assert abs(sums[i] - s) < 1e-9 and scores[i] == s


# ------------------------------------------------------------- regexp


def test_parse_regexp_leaf():
    """`/pattern/` parses to ast.Regexp through BOTH parsers (the
    grammar tokenizer keeps parens inside the slashes in one token),
    and `-/re/` is negation sugar like any other leaf."""
    from chearch_ray.state.engine import parse_query

    assert parse_query("/s[ot][a-z]*/") == ast.Regexp("s[ot][a-z]*")
    got = parse("/(so|st)[a-z]+/ AND merge")
    assert got == ast.And(ast.Regexp("(so|st)[a-z]+"), ast.Term("merge"))
    got = parse("merge -/te{1,2}st/")
    assert got == ast.AndNot(ast.Term("merge"), ast.Regexp("te{1,2}st"))


@pytest.mark.parametrize(
    "bad",
    [
        "//",  # empty pattern
        r"/a\d/",  # backslash escape (re vs RE2 divergence risk)
        "/a(/",  # does not compile
        "/a b/",  # whitespace cannot tokenize into one regexp token
    ],
)
def test_parse_regexp_rejects(bad):
    with pytest.raises(QueryParseError):
        parse(f"{bad} merge")


def test_parse_regexp_case_folds():
    """Patterns lowercase like every other leaf (the vocabulary is
    lowercase by tokenizer contract, and the validated subset has no
    case-sensitive constructs)."""
    assert parse("/A[a-z]/ merge") == ast.And(ast.Regexp("a[a-z]"),
                                              ast.Term("merge"))


def test_parse_regexp_boost_rejected():
    from chearch_ray.functions.queryparse import parse_full

    with pytest.raises(QueryParseError):
        parse_full("/ab/^2 merge")


def test_regexp_literal_prefix_extraction():
    from chearch_ray.state.engine import _regexp_literal_prefix as lp

    assert lp("so(rt|urce)") == "so"
    assert lp("s[ot][a-z]*") == "s"
    assert lp("sor+") == "sor"  # + guarantees >= 1 occurrence
    assert lp("sor*") == "so"  # * makes the last literal optional
    assert lp("sor?") == "so"
    assert lp("so{0,2}") == "s"
    assert lp("ab|cd") == ""  # top-level alternation: no prefix
    assert lp("(ab|cd)x") == ""  # no leading literal
    assert lp("[ab]cd") == ""


def test_regexp_expansion_matches_bruteforce(eng):
    """expand_regexp == Python-re fullmatch over the actual corpus
    vocabulary, on BOTH routes: the literal-prefix pushdown
    (`de[a-z]*` -> prefix 'de') and the no-prefix vocabulary scan
    (top-level alternation)."""
    vocab = sorted(
        {
            t
            for text in eng._corpus["content"].to_pylist()
            for t in re.split("[^a-z0-9_]+", text.lower())
            if t
        }
    )

    def brute(pattern):
        rx = re.compile(pattern)
        return [t for t in vocab if rx.fullmatch(t)]

    for pattern in ("de[a-z]*", "(de|re)[a-z]+", "r.+n", "class|def"):
        assert eng.expand_regexp(pattern) == brute(pattern), pattern


def test_regexp_search_equals_expanded_or(eng):
    """BM25 through `/re/` is rank-identical to the hand-built Or
    chain over its own expansion (the _rewrite contract)."""
    terms = eng.expand_regexp("(de|re)[a-z]+")
    assert len(terms) >= 2
    node = ast.Term(terms[0])
    for t in terms[1:]:
        node = ast.Or(node, ast.Term(t))
    got = eng.search("/(de|re)[a-z]+/", k=10)
    want = eng.search(node, k=10)
    assert got.equals(want)


def test_regexp_expansion_cap_raises(eng):
    with pytest.raises(ValueError, match="expands to"):
        eng.expand_regexp(".*", max_expansions=2)


def test_regexp_empty_expansion_annihilates(eng):
    """A regexp matching no vocabulary term annihilates an AND and
    drops out of an OR — the Prefix/Fuzzy empty-expansion algebra."""
    assert len(eng.search_boolean("/zzzqqq[0-9]+/ AND def")) == 0
    got = eng.search_boolean("/zzzqqq[0-9]+/ OR def", limit=10**9)
    want = eng.search_boolean("def", limit=10**9)
    assert _ids(got) == _ids(want)


# ----------------------------------------------- minimum_should_match


def test_msm_m1_equals_or(eng):
    terms = ["def", "return", "class"]
    node = ast.Or(ast.Or(ast.Term("def"), ast.Term("return")),
                  ast.Term("class"))
    got = eng.search_msm(terms, 1, k=10)
    want = eng.search(node, k=10)
    assert got.equals(want)


def test_msm_mn_equals_and(eng):
    terms = ["def", "return"]
    got = eng.search_msm(terms, 2, k=10)
    want = eng.search(ast.And(ast.Term("def"), ast.Term("return")), k=10)
    assert got.equals(want)


def test_msm_candidates_vs_bruteforce(eng):
    terms = ["def", "return", "class", "import"]
    got = eng.search_msm(terms, 2, k=10**9)
    want = _brute_ids(eng, lambda toks: sum(t in toks for t in terms) >= 2)
    assert _ids(got) == want


def test_msm_scores_sum_present_terms(eng):
    """An msm result's score equals the plain OR query's score for
    the same doc (scoring is candidate-independent)."""
    terms = ["def", "return", "class"]
    node = ast.Or(ast.Or(ast.Term("def"), ast.Term("return")),
                  ast.Term("class"))
    msm = eng.search_msm(terms, 2, k=10**9)
    full = eng.search(node, k=10**9)
    by_id = dict(zip(full["doc_id"].to_pylist(), full["score"].to_pylist()))
    for did, s in zip(msm["doc_id"].to_pylist(), msm["score"].to_pylist()):
        assert by_id[did] == s


def test_msm_dedups_and_validates(eng):
    got = eng.search_msm("def def return", 2, k=10)
    want = eng.search_msm(["def", "return"], 2, k=10)
    assert got.equals(want)
    with pytest.raises(ValueError, match="out of range"):
        eng.search_msm(["def", "return"], 3)
    with pytest.raises(ValueError, match="out of range"):
        eng.search_msm(["def"], 0)
    with pytest.raises(ValueError, match="empty"):
        eng.search_msm([], 1)


# ------------------------------------------------------ field collapse


def _brute_collapse(eng, query, field, k):
    """Global brute force: full ranked list, first occurrence per
    field value, top-k groups."""
    full = eng.search(query, k=10**9)
    seen, rows = set(), []
    for i in range(len(full)):
        v = full[field][i].as_py()
        if v not in seen:
            seen.add(v)
            rows.append(i)
            if len(rows) == k:
                break
    return full.take(pa.array(rows, type=pa.int64()))


@pytest.mark.parametrize("k", [1, 2, 3, 100])
def test_collapse_matches_bruteforce(eng, k):
    """search_collapse == collapse of the full ranked list at every k
    (per-segment group-best shipping is exact, including k smaller
    than the group count — the fixture has 2 segments)."""
    got = eng.search_collapse("def OR return OR class", field="lang", k=k)
    want = _brute_collapse(eng, "def OR return OR class", "lang", k)
    assert got.equals(want)
    # one row per group
    langs = got["lang"].to_pylist()
    assert len(langs) == len(set(langs))


def test_collapse_rejects_non_meta_field(eng):
    with pytest.raises(ValueError, match="metadata column"):
        eng.search_collapse("def", field="doc_len")


def test_cli_msm_and_collapse_flags(eng):
    """`search --msm` / `--collapse` mirror the engine methods; result
    modes are mutually exclusive (no silent flag precedence)."""
    import ast as pyast
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))

    def run(*extra):
        return subprocess.run(
            [_sys.executable, "-m", "chearch_ray", "search",
             "--index", eng.index_dir, "--k", "3", "--local", *extra],
            capture_output=True, text=True, env=env)

    p = run("--query", "def return class", "--msm", "2")
    assert p.returncode == 0, p.stdout + p.stderr
    rows = [pyast.literal_eval(l) for l in p.stdout.strip().splitlines()]
    want = eng.search_msm(["def", "return", "class"], 2, k=3)
    assert [r["doc_id"] for r in rows] == want["doc_id"].to_pylist()

    p = run("--query", "def OR return", "--collapse", "lang")
    assert p.returncode == 0, p.stdout + p.stderr
    rows = [pyast.literal_eval(l) for l in p.stdout.strip().splitlines()]
    want = eng.search_collapse("def OR return", field="lang", k=3)
    assert [r["doc_id"] for r in rows] == want["doc_id"].to_pylist()
    assert len({r["lang"] for r in rows}) == len(rows)

    p = run("--query", "def", "--msm", "1", "--collapse", "lang")
    assert p.returncode == 2 and "mutually exclusive" in p.stderr

    p = run("--query", "def return", "--op", "and", "--count")
    assert p.returncode == 0, p.stdout + p.stderr
    assert int(p.stdout.strip()) == eng.count("def return", default_op="and")


# ---------------------------------------------------------- hit count


def test_count_equals_uncapped_boolean(eng):
    for q, op in [("def return", "and"), ("def return", "or"),
                  ("def -class", "and"), ('"def return" OR class', "or"),
                  ("__never_present__", "or")]:
        got = eng.count(q, default_op=op)
        want = len(eng.search_boolean(q, default_op=op, limit=10**9))
        assert got == want, (q, op, got, want)


def test_count_ignores_partition_limit(eng):
    """count covers the FULL match set even when the boolean result
    window would cap it."""
    full = eng.count("def OR return OR class")
    # fixture guarantee, so the capped comparison below is never
    # vacuous — if the corpus ever shrinks, fix the fixture
    assert full > 3 * len(eng.segments)
    capped = len(eng.search_boolean("def OR return OR class", limit=3))
    assert capped == 3 * len(eng.segments)
    assert full > capped
    assert full == len(eng.search_boolean("def OR return OR class",
                                          limit=10**9))


def test_regexp_class_enclosed_paren_keeps_alternation(eng):
    """A `(` inside a character class is a literal — it must not hide
    a real top-level `|` from the literal-prefix extractor (the
    review-confirmed silent-drop bug: /zz[(]x|known/ once extracted
    prefix 'zz' and missed every 'known' match)."""
    from chearch_ray.state.engine import _regexp_literal_prefix as lp

    assert lp("zz[(]x|def") == ""
    assert lp("ab[|]cd") == "ab"  # class-enclosed | is literal
    vocab_hits = eng.expand_regexp("zz[(]x|def")
    assert vocab_hits == ["def"]


@pytest.mark.parametrize(
    "bad",
    [
        "/a{,3}b/",  # re: {0,3}; RE2: literal braces — membership diverges
        "/(?a)abc/",  # inline flags: RE2 raises
        "/a*+b/",  # possessive: RE2 raises, re 3.11 accepts
        "/a++b/",
        "/a{1,2}+b/",
    ],
)
def test_parse_regexp_rejects_re2_divergent(bad):
    with pytest.raises(QueryParseError, match="disagree"):
        parse(f"{bad} merge")


def test_parse_regexp_lazy_quantifiers_allowed():
    # laziness cannot change fullmatch membership; both engines parse it
    assert parse("/ab*?c/ x") == ast.And(ast.Regexp("ab*?c"), ast.Term("x"))


def test_regexp_validator_guarantees_re2_agreement_property():
    """THE regexp contract, property-tested: any pattern
    validate_regexp accepts must (a) be accepted by DuckDB's RE2 and
    (b) produce the SAME fullmatch set over a vocabulary sample as
    Python re — the engine-vs-oracle agreement the whole feature
    rests on.  Patterns the validator rejects are fair game for
    divergence (that is what rejection is for)."""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from chearch_ray.functions.queryparse import validate_regexp

    vocab = ["sort", "stream", "source", "merge", "part", "spark",
             "a", "ab", "abc", "aab", "ba", "b", "zzz", "a_1",
             "def", "return", "class", "x2y", "xy", "xxyy"]
    con = duckdb.connect()

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab_.*+?|()[]{}^,-012", min_size=1,
                   max_size=12))
    def check(pattern):
        try:
            validate_regexp(pattern)
        except QueryParseError:
            return  # rejected — no agreement obligation
        rx = re.compile(pattern)
        py = [t for t in vocab if rx.fullmatch(t)]
        try:
            db = [t for t in vocab if con.execute(
                "SELECT regexp_full_match(?, ?)", [t, pattern]
            ).fetchone()[0]]
        except duckdb.Error as exc:
            raise AssertionError(
                f"validator accepted /{pattern}/ but RE2 rejects it: {exc}")
        assert py == db, (pattern, py, db)

    check()


# -------------------------------------------- dismax and span_first


def test_dismax_tie1_equals_or_sum(eng):
    """tie=1 recovers the plain disjunctive sum — table-equal to the
    OR query (same candidates, max + 1*(sum-max) == sum)."""
    terms = ["def", "return", "class"]
    node = ast.Or(ast.Or(ast.Term("def"), ast.Term("return")),
                  ast.Term("class"))
    got = eng.search_dismax(terms, tie=1.0, k=10**9)
    want = eng.search(node, k=10**9)
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    for a, b in zip(got["score"].to_pylist(), want["score"].to_pylist()):
        assert abs(a - b) < 1e-12


def test_dismax_tie0_is_pure_max_bruteforce(eng):
    """tie=0: each doc's score is the max single-term contribution —
    checked against per-term searches."""
    terms = ["def", "return", "class"]
    per_term = {t: dict(zip(eng.search(ast.Term(t), k=10**9)["doc_id"].to_pylist(),
                            eng.search(ast.Term(t), k=10**9)["score"].to_pylist()))
                for t in terms}
    got = eng.search_dismax(terms, tie=0.0, k=10**9)
    for did, s in zip(got["doc_id"].to_pylist(), got["score"].to_pylist()):
        want = max(per_term[t].get(did, 0.0) for t in terms)
        assert s == want, (did, s, want)


def test_dismax_validation(eng):
    with pytest.raises(ValueError, match="tie"):
        eng.search_dismax(["def"], tie=1.5)
    with pytest.raises(ValueError, match="empty"):
        eng.search_dismax([], tie=0.5)


def test_span_first_bruteforce(eng):
    """span_first == brute force over the corpus token lists: first
    occurrence strictly below the limit."""
    limit = 8
    got = eng.search_span_first("def", limit, k=10**9)
    want = _brute_ids(
        eng, lambda tk: "def" in tk and tk.index("def") < limit)
    assert _ids(got) == want
    assert 0 < len(want) < len(_brute_ids(eng, lambda tk: "def" in tk))
    # scores are the plain single-term BM25 of the surviving docs
    full = dict(zip(eng.search(ast.Term("def"), k=10**9)["doc_id"].to_pylist(),
                    eng.search(ast.Term("def"), k=10**9)["score"].to_pylist()))
    for did, s in zip(got["doc_id"].to_pylist(), got["score"].to_pylist()):
        assert s == full[did]


def test_span_first_validation(eng):
    with pytest.raises(ValueError, match="plain term"):
        eng.search_span_first("a b", 5)
    with pytest.raises(ValueError, match="limit_pos"):
        eng.search_span_first("def", 0)


# ------------------------------------------- filters × new operators


def test_filtered_msm_dismax_collapse_count_span_first(eng):
    """The sixth-window operators compose with docmap metadata
    filters exactly like search(filter=...): candidates narrow,
    scores never move."""
    flt = {"lang": ["py", "go"]}
    langs_of = dict(zip(eng._corpus["doc_id"].to_pylist(),
                        eng._corpus["lang"].to_pylist()))
    ok = {d for d, l in langs_of.items() if l in flt["lang"]}
    assert ok and len(ok) < len(langs_of)

    # msm: filtered result == unfiltered rows restricted to ok
    m_all = eng.search_msm(["def", "return", "class"], 2, k=10**9)
    m_f = eng.search_msm(["def", "return", "class"], 2, k=10**9,
                         filter=flt)
    want = [(d, s) for d, s in zip(m_all["doc_id"].to_pylist(),
                                   m_all["score"].to_pylist()) if d in ok]
    assert list(zip(m_f["doc_id"].to_pylist(),
                    m_f["score"].to_pylist())) == want

    # dismax: same restriction law
    d_all = eng.search_dismax(["def", "return"], tie=0.4, k=10**9)
    d_f = eng.search_dismax(["def", "return"], tie=0.4, k=10**9,
                            filter=flt)
    want = [(d, s) for d, s in zip(d_all["doc_id"].to_pylist(),
                                   d_all["score"].to_pylist()) if d in ok]
    assert list(zip(d_f["doc_id"].to_pylist(),
                    d_f["score"].to_pylist())) == want

    # collapse: collapse of the FILTERED ranked list
    full = eng.search("def OR return", k=10**9, filter=flt)
    seen, rows = set(), []
    for i in range(len(full)):
        v = full["lang"][i].as_py()
        if v not in seen:
            seen.add(v)
            rows.append(i)
    want_t = full.take(pa.array(rows, type=pa.int64()))
    got_t = eng.search_collapse("def OR return", field="lang", k=10,
                                filter=flt)
    assert got_t.equals(want_t)
    assert set(got_t["lang"].to_pylist()) <= set(flt["lang"])

    # count: filtered count == filtered boolean length
    got_n = eng.count("def return", default_op="or", filter=flt)
    assert got_n == len(eng.search_boolean("def return", default_op="or",
                                           filter=flt, limit=10**9))
    assert got_n < eng.count("def return", default_op="or")

    # span_first: filtered == unfiltered ∩ ok
    s_all = eng.search_span_first("def", 8, k=10**9)
    s_f = eng.search_span_first("def", 8, k=10**9, filter=flt)
    assert _ids(s_f) == sorted(d for d in s_all["doc_id"].to_pylist()
                               if d in ok)


def test_cli_filtered_count_and_collapse(eng):
    """field:value filters route through parse_full for --count and
    --collapse (the colon-routing hole closed properly); --msm still
    refuses them."""
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))

    def run(*extra):
        return subprocess.run(
            [_sys.executable, "-m", "chearch_ray", "search",
             "--index", eng.index_dir, "--k", "3", "--local", *extra],
            capture_output=True, text=True, env=env)

    p = run("--query", "lang:py def return", "--op", "or", "--count")
    assert p.returncode == 0, p.stdout + p.stderr
    want = eng.count(
        eng._plan(__import__("chearch_ray").ast.Or(
            __import__("chearch_ray").ast.Term("def"),
            __import__("chearch_ray").ast.Term("return"))),
        filter={"lang": ["py"]})
    assert int(p.stdout.strip()) == want

    p = run("--query", "lang:py def OR return", "--collapse", "lang")
    assert p.returncode == 0, p.stdout + p.stderr
    assert "'lang': 'py'" in p.stdout and p.stdout.count("{") == 1

    # --msm now honors filters: residual terms + metadata predicate
    p = run("--query", "lang:py def return", "--msm", "1")
    assert p.returncode == 0, p.stdout + p.stderr
    import ast as pyast
    rows = [pyast.literal_eval(l) for l in p.stdout.strip().splitlines()]
    want = eng.search_msm(["def", "return"], 1, k=3,
                          filter={"lang": ["py"]})
    assert [r["doc_id"] for r in rows] == want["doc_id"].to_pylist()
    assert all(r["lang"] == "py" for r in rows)

    # constructs with no m-of-n reading get one-line errors
    p = run("--query", 'lang:py "def return"', "--msm", "1")
    assert p.returncode == 2 and "no m-of-n reading" in p.stderr
    p = run("--query", "lang:py def -return", "--msm", "1")
    assert p.returncode == 2 and "no m-of-n reading" in p.stderr


# ----------------------------------------------------- facet stats


def test_facet_stats_bruteforce(eng):
    """facet_stats == hand-computed per-lang stats over the full
    boolean match set (never the partition_limit window)."""
    import collections

    terms = ("def", "return")
    langs_of = dict(zip(eng._corpus["doc_id"].to_pylist(),
                        eng._corpus["lang"].to_pylist()))
    per = collections.defaultdict(list)
    for did, text in zip(eng._corpus["doc_id"].to_pylist(),
                         eng._corpus["content"].to_pylist()):
        toks = [t for t in re.split("[^a-z0-9_]+", text.lower()) if t]
        if any(t in toks for t in terms):
            per[langs_of[did]].append(len(toks))
    got = eng.facet_stats("def return", by="lang", default_op="or")
    assert got["lang"].to_pylist() == sorted(per)
    for i, lang in enumerate(got["lang"].to_pylist()):
        dls = per[lang]
        assert got["n"][i].as_py() == len(dls)
        assert got["sum_dl"][i].as_py() == sum(dls)
        assert got["min_dl"][i].as_py() == min(dls)
        assert got["max_dl"][i].as_py() == max(dls)
        assert got["mean_dl"][i].as_py() == sum(dls) / len(dls)


def test_facet_stats_filtered(eng):
    flt = {"lang": ["py", "go"]}
    got = eng.facet_stats("def return", by="lang", filter=flt)
    assert set(got["lang"].to_pylist()) <= set(flt["lang"])
    full = eng.facet_stats("def return", by="lang")
    by_lang = {full["lang"][i].as_py(): full["n"][i].as_py()
               for i in range(len(full))}
    for i, lang in enumerate(got["lang"].to_pylist()):
        assert got["n"][i].as_py() == by_lang[lang]


def test_facet_stats_zero_match_typed_schema(eng):
    """A zero-match query returns the same typed schema as a hit."""
    hit = eng.facet_stats("def return", by="lang")
    empty = eng.facet_stats("__never_present__", by="lang")
    assert len(empty) == 0
    assert empty.schema == hit.schema
    assert empty.column_names == ["lang", "n", "sum_dl", "min_dl",
                                  "max_dl", "mean_dl"]
    # a numeric facet keeps its docmap type when empty
    num = eng.facet_stats("__never_present__", by="doc_len")
    assert num.schema.field("doc_len").type == eng._docmap_schema.field(
        "doc_len").type


def test_facet_stats_unknown_by_raises(eng):
    with pytest.raises(ValueError, match="docmap column"):
        eng.facet_stats("def", by="no_such_column")


def test_facet_counts_unknown_column_raises(eng):
    """one line naming the result's columns, not Arrow's schema dump"""
    with pytest.raises(ValueError, match="result column") as exc:
        eng.facet_counts("def", column="no_such_column")
    msg = str(exc.value)
    assert "\n" not in msg and "'lang'" in msg and "no_such_column" in msg


def test_cli_msm_rejects_boolean_operators(eng):
    """The plain --msm path splits on whitespace; an uppercase AND/OR/
    NOT there is an operator, not a term, so it is refused in one
    line instead of being counted toward m."""
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))
    for q in ["def OR return", "def AND return", "def NOT return"]:
        p = subprocess.run(
            [_sys.executable, "-m", "chearch_ray", "search",
             "--index", eng.index_dir, "--local", "--query", q,
             "--msm", "2"],
            capture_output=True, text=True, env=env)
        assert p.returncode == 2, (q, p.stdout, p.stderr)
        assert "boolean operators have no m-of-n reading" in p.stderr
        assert len(p.stderr.strip().splitlines()) == 1, p.stderr


def test_span_first_requires_positions(ray_session, tmp_path):
    """An index built without positions refuses span-first with a
    clean error (the phrase/NEAR guard), not a decode crash."""
    import ray.data

    from chearch_ray.config import EngineConfig
    from chearch_ray.pipelines.build import build_index
    from chearch_ray.sources.corpus import synthetic_corpus
    from chearch_ray.state.engine import QueryEngine

    root = str(tmp_path / "nopos")
    corpus = synthetic_corpus(30, seed=5)
    build_index(ray.data.from_arrow(corpus), root,
                EngineConfig(store_positions=False))
    e = QueryEngine(root, use_actors=False)
    with pytest.raises(ValueError, match="store_positions"):
        e.search_span_first("def", 5)


def test_cli_count_clean_errors(eng):
    """Operator mistakes on the colon-routed --count path exit 2 with
    one line, never a traceback."""
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))

    def run(q):
        return subprocess.run(
            [_sys.executable, "-m", "chearch_ray", "search",
             "--index", eng.index_dir, "--local", "--count",
             "--query", q],
            capture_output=True, text=True, env=env)

    for q in ["lang:py", 'lang:py "def return"']:
        p = run(q)
        assert p.returncode == 2, (q, p.stdout, p.stderr)
        assert p.stderr.startswith("error:"), (q, p.stderr)
        assert "Traceback" not in p.stderr, (q, p.stderr)


def test_cli_facet_stats_flag(eng):
    import ast as pyast
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))))
    p = subprocess.run(
        [_sys.executable, "-m", "chearch_ray", "search",
         "--index", eng.index_dir, "--local", "--query",
         "lang:py lang:go def OR return", "--facet-stats", "lang"],
        capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stdout + p.stderr
    rows = [pyast.literal_eval(l) for l in p.stdout.strip().splitlines()]
    want = eng.facet_stats("def OR return", by="lang",
                           filter={"lang": ["py", "go"]})
    assert [r["lang"] for r in rows] == want["lang"].to_pylist()
    assert [r["n"] for r in rows] == want["n"].to_pylist()
