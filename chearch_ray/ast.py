"""Query AST — the engine-level query IR.

The reference's query language is CHASM stack bytecode with opcodes
HALT/PUSH/AND/OR (chasm.chpl:10-13); postfix encoding of arbitrary
binary boolean trees.  Our engine plans from this AST; the byte-level
codec lives in chearch_ray.functions.chasm.

Terms are strings at the engine level (the tokenizer's output space) or
ints at the conformance level (the reference is integer-based,
search.chpl:7 `type Term = uint(32)`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

TermT = Union[str, int]


@dataclass(frozen=True)
class Term:
    term: TermT


@dataclass(frozen=True)
class And:
    #: NOTE argument order: And(a, b) means a is the *A side* — the
    #: last-pushed operand in CHASM postfix, which emits first on a
    #: match (FIXTURES.md §1).
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Or:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class AndNot:
    """Negation: docs matching `a` but NOT `b` (engine extension,
    §2.10 — absent from the reference's CHASM opcode set,
    chasm.chpl:10-13, so it never appears on the wire).  Always
    positive-anchored: evaluation decodes `a` and PROBES `b` on a's
    doc set (never materializes the complement), so a hot negative
    term costs skip-block probes, not a full decode."""

    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Prefix:
    """Term-prefix query (engine extension, §2.10 — absent from the
    reference's CHASM opcode set, chasm.chpl:10-13, so it never
    appears on the wire).  QueryEngine expands it against the
    term-sorted stats table into an Or chain over the matching terms
    BEFORE planning; segment searchers only ever see Term/And/Or."""

    prefix: str


@dataclass(frozen=True)
class Suffix:
    """Term-suffix (leading-wildcard) query `*ing` (engine extension,
    §2.10 — absent from the reference's CHASM opcode set,
    chasm.chpl:10-13, so it never appears on the wire).  QueryEngine
    expands it into a sorted Or chain over the vocabulary terms ENDING
    with `suffix` BEFORE planning — via a range predicate over the
    reversed-term dictionary sidecar when one is built
    (state/suffixdict.py; the web-scale path: only the suffix's row
    groups are read), else a vocabulary scan — so segment searchers
    only ever see Term/And/Or."""

    suffix: str


@dataclass(frozen=True)
class Wildcard:
    """Single-star infix wildcard `a*b` (engine extension, §2.10 —
    absent from the reference's CHASM opcode set, chasm.chpl:10-13, so
    it never appears on the wire): matches vocabulary terms that start
    with `head` AND end with `tail` (non-overlapping, so the term must
    be at least len(head)+len(tail) long).  Pure-prefix (`a*`) and
    pure-suffix (`*b`) tokens keep their dedicated leaves; this node
    covers the both-sides-anchored middle case.  QueryEngine expands
    it BEFORE planning via the MORE SELECTIVE anchor's sorted
    dictionary (the resident sorted vocabulary for `head`, the
    reversed-term sidecar for `tail` when built) with a post-filter
    on the other side — segment searchers only ever see
    Term/And/Or."""

    head: str
    tail: str


@dataclass(frozen=True)
class Fuzzy:
    """Fuzzy term query `term~d` (engine extension, §2.10 — absent
    from the reference's CHASM opcode set, so it never appears on the
    wire): matches every vocabulary term within `dist` unit-cost
    Levenshtein edits of `term`.  QueryEngine expands it into a
    sorted Or chain over the matching terms BEFORE planning (exact DP
    verification; the SymSpell deletion index routes the candidate
    lookup when built) — segment searchers only ever see
    Term/And/Or."""

    term: str
    dist: int = 1


@dataclass(frozen=True)
class Regexp:
    """Regular-expression term query `/pattern/` (engine extension,
    §2.10 — absent from the reference's CHASM opcode set,
    chasm.chpl:10-13, so it never appears on the wire; the Lucene
    RegexpQuery analogue).  Matches every vocabulary term whose WHOLE
    text matches `pattern` (fullmatch — the regexp_full_match /
    RegexpQuery convention).  The pattern is restricted to a
    conservative syntax subset (functions/queryparse.validate_regexp)
    on which Python `re` and DuckDB's RE2 agree exactly, so oracles
    mirror the expansion with `regexp_full_match(term, pattern)`.
    QueryEngine expands it into a sorted Or chain over the matching
    terms BEFORE planning — via expand_prefix's bisect of the
    resident sorted vocabulary when the pattern has a literal prefix,
    else a vocabulary scan — so segment searchers only ever see
    Term/And/Or."""

    pattern: str


@dataclass(frozen=True)
class Phrase:
    """Exact-phrase leaf inside a boolean tree (engine extension,
    §2.10 — absent from the reference's CHASM opcode set, so it never
    appears on the wire).  Produced by the query-string grammar
    (`"hash join"` in functions/queryparse.py); QueryEngine evaluates
    it set-algebraically at the engine level (the COMPLETE phrase doc
    set via the positional verify path), so segment searchers never
    see Phrase nodes.  Boolean-only — ranked phrase search stays
    `search_phrase`."""

    terms: tuple

    def __post_init__(self):  # tolerate list input from parsers
        object.__setattr__(self, "terms", tuple(self.terms))


Node = Union[Term, And, Or, AndNot, Prefix, Suffix, Wildcard, Fuzzy, Regexp,
             Phrase]


def terms_of(node: Node) -> list[TermT]:
    """All distinct terms in the tree, left-to-right first-seen order."""
    out: list[TermT] = []
    seen = set()

    def walk(n: Node) -> None:
        if isinstance(n, Term):
            if n.term not in seen:
                seen.add(n.term)
                out.append(n.term)
        elif isinstance(n, (Prefix, Suffix, Wildcard, Fuzzy, Regexp)):
            raise TypeError(
                f"{type(n).__name__} nodes must be expanded (QueryEngine._plan) before terms_of"
            )
        elif isinstance(n, AndNot):
            # only the POSITIVE side contributes scoring terms: result
            # docs never contain b's terms (tf = 0 by construction), so
            # their idf/probes would be dead weight
            walk(n.a)
        else:
            walk(n.a)
            walk(n.b)

    walk(node)
    return out


def is_conjunctive(node: Node) -> bool:
    """True if the tree is pure AND over terms."""
    if isinstance(node, Term):
        return True
    return isinstance(node, And) and is_conjunctive(node.a) and is_conjunctive(node.b)


def is_disjunctive(node: Node) -> bool:
    """True if the tree is pure OR over terms."""
    if isinstance(node, Term):
        return True
    return isinstance(node, Or) and is_disjunctive(node.a) and is_disjunctive(node.b)
