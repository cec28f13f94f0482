"""chearch_ray — a Ray-Data-native inverted-index build + BM25 query engine.

From-scratch reimplementation of the capabilities of briangu/chearch
(reference at /root/reference, Chapel) expressed Ray-Data-first:

- corpus = ray.data.Dataset of Parquet rows (repo, path, commit, lang, content)
- index build = map_batches(tokenize) -> partitioned run exchange -> one
  finalize task per partition (write segment)
- segments = immutable Parquet files (delta+varint postings, block-max skip data)
- query = SegmentSearcher actor pool, scatter-gather + driver merge
  (doc-hash partitioning across segments, mirroring reference
  searchindex.chpl:25-28 "one partition per locale" / README.md:17)

See SURVEY.md for the full mapping.
"""

__version__ = "0.1.0"

from chearch_ray.config import EngineConfig  # noqa: F401
