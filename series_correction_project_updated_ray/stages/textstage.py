"""Text-analysis map_batches stages over the documents table.

Quality features / token counts are chosen to be EXACTLY expressible in
DuckDB SQL (the oracle): whitespace token counts follow
``regexp_split_to_array(text, '\\s+')`` semantics, word/punct counts follow
``regexp_extract_all`` with the same ASCII classes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .rollup import combine, sums_of
from ..functions import text as T


def token_count_batch(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pandas()
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_ws_tokens": pa.array(T.whitespace_token_count(texts)),
        "n_bpe_tokens": pa.array(T.bpe_ish_token_count(texts)),
    })


def quality_batch(batch: pa.Table) -> pa.Table:
    from ..functions.rounding import round_half_away
    texts = batch["text"].to_pandas()
    f = T.quality_features(texts)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars": pa.array(f["n_chars"]),
        "n_words": pa.array(f["n_words"]),
        "n_punct": pa.array(f["n_punct"]),
        "punct_ratio": pa.array(round_half_away(f["punct_ratio"], 6)),
        "stop_ratio": pa.array(round_half_away(f["stop_ratio"], 6)),
    })


class LangIdStage:
    """Actor-pool language-ID stage (marker sets built once per actor)."""

    def __init__(self):
        self.detect = T.detect_language

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(self.detect(texts), pa.string()),
        })


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pandas()
    return pa.table({
        "doc_id": batch["doc_id"],
        "fingerprint": pa.array(T.rolling_fingerprint(texts).astype(np.int64)),
    })


def token_counts(docs):
    return docs.map_batches(token_count_batch, batch_format="pyarrow")


def quality_scores(docs):
    return docs.map_batches(quality_batch, batch_format="pyarrow")


def language_id(docs):
    from .taskcache import class_task
    return docs.map_batches(class_task(LangIdStage),
                            batch_format="pyarrow")


def fingerprints(docs):
    return docs.map_batches(fingerprint_batch, batch_format="pyarrow")


# --- winnowing (Schleimer, Wilkerson, Aiken 2003 — the MOSS local
# fingerprinting algorithm) --------------------------------------------------

_WINNOW_BASE = np.uint64(1099511628211)   # the repo-wide FNV-64 poly base


class WinnowFingerprints:
    """map_batches kernel over the canonical sequences shape
    ``(doc_id, tokens:list<int>)``: per document, hash every k-gram of
    token ids (Horner, uint64 wraparound, the SQL-replicable
    convention), then in every window of ``w`` consecutive k-gram
    hashes select the minimum (ties → RIGHTMOST position — the paper's
    rule) and emit the deduplicated ``(doc_id, pos, fp)`` selections.

    Winnowing guarantee (Schleimer et al. §3): any shared token run of
    length ≥ k + w − 1 between two documents yields at least one
    IDENTICAL selected fingerprint in both, so a groupby on ``fp``
    finds all long duplicate spans.  Documents with fewer than
    k + w − 1 tokens emit nothing (no complete window), matching the
    SQL twin.

    Scale shape: map-only — NO shuffle; O(n·(k+w)) vectorized work per
    block, output ≈ 2·n/(w+1) rows (the paper's expected density)."""

    def __init__(self, k: int = 5, w: int = 4, tok_col: str = "tokens"):
        self.k, self.w, self.tok_col = k, w, tok_col
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        k, w = self.k, self.w
        empty = pa.table({
            "doc_id": pa.array([], pa.string()),
            "pos": pa.array([], pa.int64()),
            "fp": pa.array([], pa.int64())})
        if self.tok_col not in t.column_names or len(t) == 0:
            return empty
        col = t[self.tok_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
        offs = col.offsets.to_numpy().astype(np.int64)
        vals = vals[offs[0]:offs[-1]]        # sliced-ListArray trim
        offs = offs - offs[0]
        n = len(vals)
        lens = np.diff(offs)
        # k-gram Horner hashes at every flat position (cross-doc tails
        # masked below): g_i = fold(t_i .. t_{i+k-1})
        n_g = n - k + 1
        if n_g <= 0:
            return empty
        with np.errstate(over="ignore"):
            g = vals[:n_g].copy()
            for j in range(1, k):
                g = g * _WINNOW_BASE + vals[j:n_g + j]
        # pack each doc's valid grams contiguously: a flat gram is real
        # iff its doc-local index < glen of its doc (cross-doc tails out)
        glens = np.maximum(lens - k + 1, 0)
        starts = offs[:-1]
        doc_of = np.repeat(np.arange(len(lens)), lens)[:n_g]
        local = np.arange(n_g) - starts[doc_of]
        valid = local < glens[doc_of]
        fg = g[valid]
        fdoc = doc_of[valid]
        flocal = local[valid]
        m = len(fg)
        if m == 0:
            return empty
        # window ends: doc-local gram index ≥ w−1; best = min hash with
        # RIGHTMOST tie (<= update, scanning oldest → newest)
        ends = np.flatnonzero(flocal >= w - 1)
        if len(ends) == 0:
            return empty
        bv = fg[ends - (w - 1)]
        bp = ends - (w - 1)
        for j in range(w - 2, -1, -1):
            c = fg[ends - j]
            upd = c <= bv
            bv[upd] = c[upd]
            bp[upd] = ends[upd] - j
        picks = np.unique(bp)                # global flat pos → unique/doc
        return pa.table({
            "doc_id": pc.take(t["doc_id"], pa.array(fdoc[picks],
                                                    pa.int64())),
            "pos": pa.array(flocal[picks].astype(np.int64)),
            "fp": pa.array(fg[picks].view(np.int64)),
        })


def winnow_fingerprints(seqs, *, k: int = 5, w: int = 4,
                        tok_col: str = "tokens"):
    """Winnowed k-gram fingerprints per document — the standard local
    fingerprinting primitive behind span-level dedup (MOSS).  Map-only;
    see :class:`WinnowFingerprints` for the selection semantics."""
    return seqs.map_batches(WinnowFingerprints(k, w, tok_col),
                            batch_format="pyarrow")


def winnow_matches(seqs, *, k: int = 5, w: int = 4, min_docs: int = 2,
                   tok_col: str = "tokens"):
    """Cross-document duplicate-span candidates: fingerprints selected
    in ≥ ``min_docs`` DISTINCT documents, with doc and occurrence
    counts.  One small groupby over the (already ≈ n/(w+1)-sparse)
    winnowed selections — the aggregate view of span-level dedup; the
    per-pair verify step is `ngram_jaccard_pairs`' machinery."""
    winnow = WinnowFingerprints(k, w, tok_col)

    def _partial(seq_block: pa.Table) -> pa.Table:
        # winnow + per-fp partial in ONE stage: the distinct-doc count
        # per block is summable only if a document's selections never
        # split across blocks, which holds BY CONSTRUCTION here — the
        # input block has one row per whole document and the winnowing
        # runs inside this same call (never rely on operator fusion for
        # a correctness invariant)
        t = winnow(seq_block)
        if len(t) == 0:
            e = np.empty(0, np.int64)
            return pa.table({"fp": pa.array(e), "n_docs": pa.array(e),
                             "n_occ": pa.array(e)})
        fp = t["fp"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(doc, sort=False)
        pair = np.stack([fp, codes.astype(np.int64)], axis=1)
        upair = np.unique(pair, axis=0)
        u, nd = np.unique(upair[:, 0], return_counts=True)
        uo, no = np.unique(fp, return_counts=True)
        return pa.table({"fp": pa.array(u), "n_docs": pa.array(nd),
                         "n_occ": pa.array(no.astype(np.int64))})

    tot = combine(seqs.map_batches(_partial, batch_format="pyarrow"),
                  ["fp"], sums_of("n_docs", "n_occ"))

    def _filt(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_docs"],
                                         pa.scalar(min_docs)))
    return tot.map_batches(_filt, batch_format="pyarrow")


class TermFreqPartial:
    """map_batches combiner for the canonical distributed word count:
    each batch emits (source, term, cnt) partial rows — the vocabulary of
    one batch, not its token stream — so the shuffle moves |vocab| rows
    per block instead of |tokens|.  The word regex is the ASCII class the
    oracle mirrors with regexp_extract_all(lower(text), '[a-z]+')."""

    def __init__(self, text_col="text", source_col="source"):
        import re
        self.re = re.compile(r"[a-z]+")
        self.text_col, self.source_col = text_col, source_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter
        texts = batch[self.text_col].to_pandas()
        sources = batch[self.source_col].to_pandas().to_numpy()
        counters: dict[str, Counter] = {}
        for src, txt in zip(sources, texts):
            counters.setdefault(src, Counter()).update(
                self.re.findall((txt or "").lower()))
        srcs, terms, cnts = [], [], []
        for src, c in counters.items():
            srcs.extend([src] * len(c))
            terms.extend(c.keys())
            cnts.extend(c.values())
        return pa.table({"source": pa.array(srcs, pa.string()),
                         "term": pa.array(terms, pa.string()),
                         "cnt": pa.array(np.asarray(cnts, dtype=np.int64))})


def term_frequencies(docs, *, top_k: int = 20):
    """Top-k terms per source by total count (ties broken by term) —
    batch-local vocabulary partials, ONE (source, term) groupby, then the
    distributed top-k (no global sort)."""
    from .windows import topn_per_group
    partials = docs.map_batches(TermFreqPartial(), batch_format="pyarrow")
    totals = combine(partials, ["source", "term"], sums_of("cnt"))
    return topn_per_group(totals, "source", ["cnt", "term"],
                          [True, False], top_k)


class ContaminationScan:
    """Actor-pool benchmark-decontamination stage: flags training documents
    containing any probe substring (the n-gram-overlap contamination test
    run before LLM training; probes are benchmark/eval snippets).

    The probe list ships ONCE per actor via a ``ray.put`` object ref —
    the canonical broadcast-small-side pattern (at 100 TB the probe set
    from an eval suite is a few MB; an Aho-Corasick automaton built in
    ``__init__`` would drop the per-probe scan to one pass — the per-probe
    ``pyarrow.compute.match_substring`` used here is exact, zero-copy and
    fully vectorized, and the probe count is small by construction).
    Emits (doc_id, n_hits) for contaminated documents only."""

    def __init__(self, probes_ref, text_col="text", id_col="doc_id"):
        import ray
        self.probes = ray.get(probes_ref)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        col = batch[self.text_col]
        hits = np.zeros(len(batch), dtype=np.int64)
        for p in self.probes:
            m = pc.fill_null(pc.match_substring(col, p), False)
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            hits += np.asarray(m).astype(np.int64)
        keep = hits > 0
        return pa.table({
            self.id_col: batch[self.id_col].filter(pa.array(keep)),
            "n_hits": pa.array(hits[keep]),
        })


def derive_probes(docs, *, modulus: int = 97, offset: int = 10,
                  width: int = 24, text_col="text", id_col="doc_id",
                  max_probes: int = 4096) -> list[str]:
    """Deterministic probe set: the ``width``-char substring at ``offset``
    of the ``max_probes`` lowest-id docs whose id ≡ 0 (mod ``modulus``) —
    a stand-in for an eval suite's snippets that both the engine and the
    SQL oracle can derive from the corpus itself.  Probes shorter than
    ``width`` (short docs) are dropped.  The candidate read is filtered
    AT THE SCAN and the driver materializes at most ``max_probes`` rows
    (sort+limit on the tiny filtered set), so the default path is
    driver-safe at any corpus size — a broadcast probe set has to be
    O(1) in the corpus regardless."""
    def _keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % modulus == 0))

    cand = docs.map_batches(_keep, batch_format="pyarrow")
    rows = (cand.select_columns([id_col, text_col])
            .sort(id_col).limit(max_probes).take_all())
    probes = []
    for r in sorted(rows, key=lambda r: r[id_col]):
        p = (r[text_col] or "")[offset:offset + width]
        if len(p) == width:
            probes.append(p)
    return probes


def contamination_scan(docs, probes: list[str] | None = None, **kwargs):
    """(doc_id, n_hits) of documents containing any probe substring."""
    import ray
    if probes is None:
        probes = derive_probes(docs, **kwargs)
    ref = ray.put(list(probes))
    from .taskcache import class_task
    return docs.map_batches(class_task(ContaminationScan, ref),
                            batch_format="pyarrow")


class RedactPII:
    """Actor-pool scrub stage: replace URLs, emails and IPv4 addresses
    with placeholder tokens — the standard pre-training privacy pass.

    Patterns are compiled ONCE per actor (``__init__``) with ASCII-only
    classes chosen for bit-identical semantics between Python ``re`` and
    DuckDB's RE2 ``regexp_replace`` (the oracle): RE2's ``\\s`` excludes
    ``\\v``, so the URL pattern spells its whitespace class explicitly.
    Stages apply in a fixed order (URL → email → IP), each counting
    matches on the PREVIOUS stage's output, exactly as the nested SQL
    does."""

    URL = r"https?://[^\t\n\f\r ]+"
    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        import re
        self.text_col, self.id_col = text_col, id_col
        self.stages = [(re.compile(self.URL, re.ASCII), "<URL>", "n_url"),
                       (re.compile(self.EMAIL, re.ASCII), "<EMAIL>",
                        "n_email"),
                       (re.compile(self.IPV4, re.ASCII), "<IP>", "n_ip")]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas()
        out = {name: np.zeros(len(texts), dtype=np.int64)
               for _, _, name in self.stages}
        redacted = []
        for i, t in enumerate(texts):
            s = t or ""
            for rx, repl, name in self.stages:
                s, n = rx.subn(repl, s)
                out[name][i] = n
            redacted.append(s)
        cols = {self.id_col: batch[self.id_col],
                "text_redacted": pa.array(redacted, pa.string())}
        cols.update({k: pa.array(v) for k, v in out.items()})
        return pa.table(cols)


def redact_pii(docs, *, text_col: str = "text", id_col: str = "doc_id",
               concurrency: int = 2):
    """documents → (id, text_redacted, n_url, n_email, n_ip)."""
    from .taskcache import class_task
    return docs.map_batches(
        class_task(RedactPII, text_col=text_col, id_col=id_col),
        batch_format="pyarrow")


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals per document: most-frequent-word
    share, most-frequent-bigram share, duplicate-trigram fraction.  Word
    split follows ``regexp_split_to_array(text, '\\s+')`` exactly — RE2's
    ``\\s`` is ``[\\t\\n\\f\\r ]`` (no ``\\v``, no Unicode whitespace),
    hence the explicit class; fractions are half-away-rounded to 6dp like
    every compared float."""
    from collections import Counter

    from ..functions.rounding import round_half_away
    texts = batch["text"].to_pandas()
    n_words = np.zeros(len(texts), dtype=np.int64)
    top_word = np.zeros(len(texts), dtype=np.float64)
    top_bigram = np.zeros(len(texts), dtype=np.float64)
    dup_trigram = np.zeros(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        # regexp_split_to_array semantics: splitting '' yields [''] (n=1)
        toks = T.RE2_WS_RE.split(t or "")
        n = len(toks)
        n_words[i] = n
        if n:
            top_word[i] = Counter(toks).most_common(1)[0][1] / n
        if n >= 2:
            bigrams = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
            top_bigram[i] = (Counter(bigrams).most_common(1)[0][1]
                             / len(bigrams))
        if n >= 3:
            tri = [f"{a} {b} {c}"
                   for a, b, c in zip(toks, toks[1:], toks[2:])]
            dup_trigram[i] = 1.0 - len(set(tri)) / len(tri)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_words": pa.array(n_words),
        "top_word_frac": pa.array(round_half_away(top_word, 6)),
        "top_bigram_frac": pa.array(round_half_away(top_bigram, 6)),
        "dup_trigram_frac": pa.array(round_half_away(dup_trigram, 6)),
    })


def repetition_features(docs):
    return docs.map_batches(repetition_batch, batch_format="pyarrow")


class _TfIdfScore:
    """Actor-pool TF-IDF scoring stage: the (term → document frequency)
    table ships ONCE per actor as object-store block refs (the driver
    never materializes it); each batch re-tokenizes its documents and
    emits the top-scoring term per document."""

    def __init__(self, df_refs, n_docs: int):
        import re

        import ray
        self.re = re.compile(r"[a-z]+")
        self.n_docs = n_docs
        self.df: dict[str, int] = {}
        for tbl in ray.get(list(df_refs)):
            if "term" not in getattr(tbl, "column_names", ()):
                continue  # Ray's empty blocks lose their columns
            terms = tbl["term"].to_pylist()
            dfs = tbl["df"].to_numpy(zero_copy_only=False)
            self.df.update(zip(terms, dfs.tolist()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        from ..functions.rounding import round_half_away
        texts = batch["text"].to_pandas()
        ids = batch["doc_id"].to_pandas().to_numpy()
        out_id, out_term, out_tf, out_df, out_score = [], [], [], [], []
        for d, txt in zip(ids, texts):
            counts = Counter(self.re.findall((txt or "").lower()))
            if not counts:
                continue
            best = None
            for term, tf in counts.items():
                df = self.df[term]
                # identical op order as the oracle: ln(N/df) with the
                # int/int division already double, times the int tf
                score = tf * np.log(self.n_docs / df)
                # rank by (score DESC, term ASC) — same tie rule as the
                # oracle's row_number()
                if best is None or score > best[3] \
                        or (score == best[3] and term < best[0]):
                    best = (term, tf, df, score)
            out_id.append(d)
            out_term.append(best[0])
            out_tf.append(best[1])
            out_df.append(best[2])
            out_score.append(best[3])
        return pa.table({
            "doc_id": pa.array(out_id,
                               batch.schema.field("doc_id").type),
            "term": pa.array(out_term, pa.string()),
            "tf": pa.array(np.asarray(out_tf, dtype=np.int64)),
            "df": pa.array(np.asarray(out_df, dtype=np.int64)),
            "score": pa.array(round_half_away(
                np.asarray(out_score, dtype=np.float64), 6)),
        })


def tfidf_top_term(docs, *, n_docs: int | None = None):
    """Per-document top TF-IDF term — the classic two-pass shape:

    1. document frequencies: each batch emits its docs' DISTINCT terms,
       one keyed groupby counts docs per term (the shuffle carries
       |batch vocab| rows per block, never the token stream);
    2. the DF table broadcasts once per scoring actor (object refs, no
       driver round-trip) and a vectorized pass scores every document.

    Scoring convention mirrors the SQL oracle exactly: score = tf ·
    ln(N/df) with raw term counts, top-1 by (score DESC, term ASC)."""
    import re

    word_re = re.compile(r"[a-z]+")

    def _doc_terms(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        terms: dict[str, int] = {}
        for txt in texts:
            for t in set(word_re.findall((txt or "").lower())):
                terms[t] = terms.get(t, 0) + 1
        return pa.table({
            "term": pa.array(list(terms.keys()), pa.string()),
            "df": pa.array(np.fromiter(terms.values(), dtype=np.int64,
                                       count=len(terms))),
        })

    docs = docs.materialize()
    if n_docs is None:
        n_docs = docs.count()
    df_tbl = combine(docs.map_batches(_doc_terms, batch_format="pyarrow"),
                     ["term"], sums_of("df")).materialize()
    refs = df_tbl.to_arrow_refs()
    from .taskcache import class_task
    out = docs.map_batches(class_task(_TfIdfScore, refs, n_docs),
                           batch_format="pyarrow")
    # pin the DF blocks to the returned (lazy) pipeline: if the
    # materialized dataset is GC'd before execution, an actor restart
    # could find its constructor-arg refs freed (ray#53727)
    out._graft_pin = df_tbl
    return out


class _MarkCommonNgrams:
    """Actor-pool boilerplate-removal stage: the common-n-gram hash set
    ships once per actor (object refs); each batch tokenizes, hashes
    every n-gram start position vectorized, marks tokens covered by any
    common n-gram occurrence, and rebuilds the cleaned text."""

    def __init__(self, common_refs, n: int = 3):
        import ray

        from ..functions.hashing import stable_hash_array
        self.n = n
        self._hash = stable_hash_array
        # a corpus with NO n-grams at all (every doc shorter than n)
        # yields zero gram rows, and Ray's empty blocks lose their
        # columns — treat column-less blocks as an empty common set
        parts = [t["gh"].to_numpy(zero_copy_only=False)
                 for t in ray.get(list(common_refs))
                 if "gh" in getattr(t, "column_names", ())]
        self.common = np.sort(np.concatenate(parts).astype(np.int64)) \
            if parts else np.empty(0, np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions import text as T
        texts = batch["text"].to_pandas()
        n = self.n
        clean, removed = [], []
        for txt in texts:
            toks = T.RE2_WS_RE.split(txt or "")
            m = len(toks)
            if m < n:
                # too short for any n-gram, but STILL re-join with single
                # spaces — the oracle's string_agg normalizes whitespace
                # for every document, not only the markable ones
                clean.append(" ".join(toks))
                removed.append(0)
                continue
            grams = np.asarray(
                [" ".join(toks[i:i + n]) for i in range(m - n + 1)],
                dtype=object)
            gh = self._hash(grams).view(np.int64)
            pos = np.searchsorted(self.common, gh)
            pos[pos == self.common.size] = 0
            hit = np.flatnonzero(
                self.common.size and (self.common[pos] == gh))
            covered = np.zeros(m, dtype=bool)
            for off in range(n):
                covered[hit + off] = True
            kept = [t for t, c in zip(toks, covered) if not c]
            clean.append(" ".join(kept))
            removed.append(int(covered.sum()))
        return pa.table({
            "doc_id": batch["doc_id"],
            "clean_text": pa.array(clean, pa.string()),
            "n_removed": pa.array(np.asarray(removed, dtype=np.int64)),
        })


def remove_common_ngrams(docs, *, n: int = 3, min_df: int = 50):
    """C4-style boilerplate removal at n-gram granularity: any word
    n-gram appearing in ≥ ``min_df`` DISTINCT documents is boilerplate;
    every token covered by an occurrence of a common n-gram is dropped
    and the document re-joined with single spaces.

    Two passes: per-doc distinct n-gram hashes → one keyed count
    groupby → the (filtered) common-hash set broadcasts to the marking
    actors.  Tokens follow the oracle's ``regexp_split_to_array(text,
    '\\s+')`` (RE2 semantics, empty tokens kept).  At a 100 TB corpus
    the common set of a min_df this high stays small (boilerplate is by
    definition rare in TYPE count, huge in token count); were it not, a
    Bloom filter over the hashes ships instead — same plan shape."""
    from ..functions import text as T
    from ..functions.hashing import stable_hash_array

    def _doc_grams(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        out: dict[np.uint64, int] = {}
        for txt in texts:
            toks = T.RE2_WS_RE.split(txt or "")
            if len(toks) < n:
                continue
            grams = np.asarray(
                [" ".join(toks[i:i + n])
                 for i in range(len(toks) - n + 1)], dtype=object)
            # int64 VIEW of the uint64 hash (the reinterpret keeps
            # identity)
            for h in np.unique(stable_hash_array(grams)).view(np.int64):
                out[h] = out.get(h, 0) + 1
        return pa.table({
            "gh": pa.array(np.fromiter(out.keys(), dtype=np.int64,
                                       count=len(out))),
            "df": pa.array(np.fromiter(out.values(), dtype=np.int64,
                                       count=len(out))),
        })

    def _common_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater_equal(t["df"], min_df)).select(["gh"])

    docs = docs.materialize()
    common = combine(docs.map_batches(_doc_grams, batch_format="pyarrow"),
                     ["gh"], sums_of("df")) \
        .map_batches(_common_only, batch_format="pyarrow").materialize()
    refs = common.to_arrow_refs()
    from .taskcache import class_task
    out = docs.map_batches(class_task(_MarkCommonNgrams, refs, n),
                           batch_format="pyarrow")
    out._graft_pin = common  # keep the blocks alive until execution
    return out


def chunk_documents(docs, *, chunk_tokens: int = 64, stride: int = 48,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Overlapping token-window chunking (the RAG / context-window prep
    op): document → chunks of ``chunk_tokens`` whitespace tokens starting
    every ``stride`` tokens, re-joined with single spaces.

    Pure per-document map (flat_map shape, no shuffle); chunk rows carry
    (doc_id, chunk_idx, n_tok, chunk_text).  The final window is the
    one that first reaches the end of the document; shorter documents
    emit exactly one (possibly short) chunk.  Tokens follow the oracle's
    ``regexp_split_to_array(text, '\\s+')`` (RE2 semantics, empties
    kept)."""

    def _chunks(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        ids = batch[id_col].to_pandas().to_numpy()
        out_id, out_idx, out_n, out_text = [], [], [], []
        for d, txt in zip(ids, texts):
            toks = T.RE2_WS_RE.split(txt or "")
            n = len(toks)
            start, idx = 0, 0
            while True:
                window = toks[start:start + chunk_tokens]
                out_id.append(d)
                out_idx.append(idx)
                out_n.append(len(window))
                out_text.append(" ".join(window))
                if start + chunk_tokens >= n:
                    break
                start += stride
                idx += 1
        return pa.table({
            id_col: pa.array(out_id, batch.schema.field(id_col).type),
            "chunk_idx": pa.array(np.asarray(out_idx, dtype=np.int64)),
            "n_tok": pa.array(np.asarray(out_n, dtype=np.int64)),
            "chunk_text": pa.array(out_text, pa.string()),
        })

    return docs.map_batches(_chunks, batch_format="pyarrow")


def quality_gate_summary(docs, *, min_tokens: int = 20,
                         max_top_word_frac: float = 0.15,
                         min_stop_ratio: float = 0.03):
    """Cleaning-funnel accounting: every document gets the FIRST verdict
    that fails it (too_short → repetitive → low_stopwords → pass) and
    the output is the per-(source, verdict) count table — the standard
    corpus-cleaning report.  All features are raw exact ratios of
    integer counts (no rounding), so the threshold comparisons are
    bit-identical to the SQL oracle.  Partial-first: each batch emits
    ≤ |sources|×4 count rows."""
    def _verdicts(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pandas()
        sources = batch["source"].to_pandas().to_numpy()
        out: dict[tuple, int] = {}
        for src, txt in zip(sources, texts):
            toks = T.RE2_WS_RE.split(txt or "")
            n = len(toks)
            if n < min_tokens:
                v = "too_short"
            else:
                from collections import Counter
                top = Counter(toks).most_common(1)[0][1]
                if top / n > max_top_word_frac:
                    v = "repetitive"
                else:
                    words = T.WORD_RE.findall((txt or "").lower())
                    nw = len(words)
                    stops = sum(w in T.STOPWORDS for w in words)
                    if nw == 0 or stops / nw < min_stop_ratio:
                        v = "low_stopwords"
                    else:
                        v = "pass"
            out[(src, v)] = out.get((src, v), 0) + 1
        srcs = [k[0] for k in out]
        verds = [k[1] for k in out]
        return pa.table({
            "source": pa.array(srcs, pa.string()),
            "verdict": pa.array(verds, pa.string()),
            "n": pa.array(np.fromiter(out.values(), dtype=np.int64,
                                      count=len(out))),
        })

    return combine(docs.map_batches(_verdicts, batch_format="pyarrow"),
                   ["source", "verdict"], sums_of("n"))


def token_budget_sample(docs, *, budget_tokens: int = 50_000):
    """Token-budgeted per-source subsampling (the data-mixing step):
    documents are taken in stable-hash order until each source's
    cumulative BPE-ish token count reaches the budget — deterministic,
    reproducible at any cluster size, no RNG state.

    One co-location shuffle per source (sources are few by construction;
    a skewed source still holds only ITS documents); the kernel sorts by
    (hash, doc_id) and prefix-sums exact int64 token counts."""

    def _prep(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import stable_hash_array
        texts = batch["text"].to_pandas()
        n_tok = T.bpe_ish_token_count(texts)
        hh = stable_hash_array(batch["doc_id"])
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_tok": pa.array(n_tok),
            # int64 VIEW of the uint64 hash for Ray's groupby machinery;
            # order must follow the UNSIGNED value like the SQL HUGEINT,
            # so flip the sign bit to make int64 order == uint64 order
            "__h": pa.array((hh ^ np.uint64(1 << 63)).view(np.int64)),
        })

    def _take(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["doc_id"].to_numpy(), g["__h"].to_numpy()))
        g = g.iloc[order]
        cum = np.cumsum(g["n_tok"].to_numpy(np.int64))
        keep = cum <= budget_tokens
        out = g.loc[keep, ["doc_id", "source", "n_tok"]].copy()
        out["cum_tok"] = cum[keep]
        return out
    _take.__name__ = "_token_budget_take"

    return docs.map_batches(_prep, batch_format="pyarrow") \
        .groupby("source").map_groups(_take, batch_format="pandas")


# --- unigram language-model scoring ----------------------------------------

class _UnigramScore:
    """Actor/task-cached scoring stage for :func:`unigram_logprob`: the
    corpus unigram-count table ships once per worker (object refs); the
    per-term log-probability ``log(count/N)`` is computed ONCE PER VOCAB
    ENTRY with ``math.log`` — bit-identical to DuckDB ``ln`` (both call
    libm; numpy's SIMD log differs by 1 ulp on ~20% of inputs, measured)
    — and each document folds its tokens' log-probs LEFT TO RIGHT in
    position order (``((lp₀+lp₁)+lp₂)…``), the exact operand order of
    the oracle's ``list_reduce(list(lp ORDER BY pos), (a,b) -> a+b)``.
    The fold runs position-major across the batch (one vector add per
    position), never one Python loop per document."""

    def __init__(self, cnt_refs, n_total: int,
                 text_col="text", id_col="doc_id"):
        import math
        import re

        import ray
        tbls = [t for t in ray.get(list(cnt_refs))
                if t is not None and "term" in t.column_names]
        terms: list[str] = []
        lps: list[float] = []
        nt = float(n_total)
        for t in tbls:
            cs = t["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
            terms.extend(t["term"].to_pylist())
            # divide-then-log per vocab entry, both IEEE-exact ops
            lps.extend(math.log(c / nt) for c in cs)
        self.lp = dict(zip(terms, lps))
        self.re = re.compile(r"[a-z]+")
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lp = self.lp
        toks: list[np.ndarray] = []
        lens = np.zeros(len(texts), dtype=np.int64)
        for i, txt in enumerate(texts):
            words = self.re.findall((txt or "").lower())
            lens[i] = len(words)
            if words:
                toks.append(np.array([lp[w] for w in words],
                                     dtype=np.float64))
        keep = lens > 0
        ids, lens = ids[keep], lens[keep]
        if len(lens) == 0:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "n_tok": pa.array([], pa.int64()),
                             "logprob": pa.array([], pa.float64()),
                             "avg_logprob": pa.array([], pa.float64())})
        flat = np.concatenate(toks)
        offs = np.r_[0, np.cumsum(lens)][:-1]
        acc = np.zeros(len(lens), dtype=np.float64)
        for j in range(int(lens.max())):
            m = lens > j
            acc[m] += flat[offs[m] + j]
        return pa.table({
            self.id_col: pa.array(ids),
            "n_tok": pa.array(lens),
            "logprob": pa.array(round_half_away(acc, 6)),
            "avg_logprob": pa.array(
                round_half_away(acc / lens.astype(np.float64), 6)),
        })


def _vocab_count_partial(batch: pa.Table, text_col: str = "text") \
        -> pa.Table:
    """Batch-local (term, cnt) vocabulary partial — ALL occurrences of
    the ``[a-z]+`` lowercased tokens (the convention every vocabulary
    oracle replays with ``regexp_extract_all(lower(text), '[a-z]+')``).
    Shared by :func:`unigram_logprob` and :func:`zipf_fit` so the two
    queries can never tokenize differently."""
    from collections import Counter
    import re
    word_re = re.compile(r"[a-z]+")
    c: "Counter[str]" = Counter()
    if text_col in batch.column_names:
        for txt in batch[text_col].to_pandas():
            c.update(word_re.findall((txt or "").lower()))
    return pa.table({
        "term": pa.array(list(c.keys()), pa.string()),
        "cnt": pa.array(np.fromiter(c.values(), dtype=np.int64,
                                    count=len(c)))})


def unigram_logprob(docs, *, text_col="text", id_col="doc_id"):
    """Per-document unigram language-model log-likelihood — the classic
    corpus-level quality/perplexity screen (a KenLM-style LM score is
    this with higher-order n-grams): p(term) = count/N over the WHOLE
    corpus, doc score = Σ log p over its tokens in position order.

    Two passes, both scale-shaped: (1) batch-local vocabulary partials →
    ONE |vocab|-row groupby (the token stream never shuffles); (2) the
    count table broadcasts once per worker and a vectorized pass scores
    every document (the only transcendental work is |vocab| ``math.log``
    calls per worker, not |tokens|).  Emits (doc_id, n_tok, logprob,
    avg_logprob); empty-token docs are dropped (no unnest rows in the
    oracle)."""
    import functools

    from .taskcache import class_task

    docs = docs.materialize()
    cnt_tbl = combine(docs.map_batches(
        functools.partial(_vocab_count_partial, text_col=text_col),
        batch_format="pyarrow"), ["term"], sums_of("cnt")).materialize()
    total = cnt_tbl.sum("cnt")
    if total is None:                  # token-less corpus → typed empty
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_tok": pa.array([], pa.int64()),
            "logprob": pa.array([], pa.float64()),
            "avg_logprob": pa.array([], pa.float64())}))
    n_total = int(total)
    refs = cnt_tbl.to_arrow_refs()
    out = docs.map_batches(
        class_task(_UnigramScore, refs, n_total,
                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow")
    # pin the count blocks to the returned lazy pipeline (ray#53727)
    out._graft_pin = cnt_tbl
    return out


# --- Zipf law fit over the corpus vocabulary ---------------------------------

class _ZipfClose:
    """Closing kernel for :func:`zipf_fit`: the ≤ top_k (term, cnt)
    winners arrive as ONE block; ranks assign by (cnt DESC, term ASC),
    x = ln(rank) and y = ln(cnt) per entry via ``math.log`` (glibc libm
    == DuckDB ``ln`` bit-for-bit), and the least-squares sums fold LEFT
    IN RANK ORDER (bit-identical to the SQL ``list_reduce(list(v ORDER
    BY rank), (a,b) -> a+b)``), closing slope/intercept in the oracle's
    exact double expression order.  Fewer than 2 terms emit nothing."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        import math

        from ..functions.rounding import round_half_away
        empty = pa.table({"n_terms": pa.array([], pa.int64()),
                          "slope": pa.array([], pa.float64()),
                          "intercept": pa.array([], pa.float64())})
        if len(t) < 2 or "term" not in t.column_names:
            return empty
        cnt = t["cnt"].to_numpy()
        term = t["term"].to_pandas().to_numpy()
        order = np.lexsort((term, -cnt))
        cnt = cnt[order]
        n = len(cnt)
        sx = sy = sxx = sxy = 0.0
        for i in range(n):
            x = math.log(float(i + 1))
            y = math.log(float(cnt[i]))
            sx += x
            sy += y
            sxx += x * x
            sxy += x * y
        nd = float(n)
        slope = (nd * sxy - sx * sy) / (nd * sxx - sx * sx)
        intercept = (sy - slope * sx) / nd
        return pa.table({
            "n_terms": pa.array([n], pa.int64()),
            "slope": pa.array([round_half_away(np.float64(slope), 6)]),
            "intercept": pa.array(
                [round_half_away(np.float64(intercept), 6)])})


def zipf_fit(docs, *, top_k: int = 1000):
    """Least-squares Zipf law fit ln(freq) ≈ intercept + slope·ln(rank)
    over the corpus' ``top_k`` most frequent terms — the vocabulary-
    health screen (natural text sits near slope −1; templated or
    synthetic corpora flatten).  Per-block vocabulary partials → ONE
    term groupby → distributed top-k (never a global sort) → a bounded
    one-block close; ln terms and ordered folds are bit-exact vs the
    libm-ln ``list_reduce`` oracle."""
    from .relational import topk_by

    partials = docs.map_batches(_vocab_count_partial,
                                batch_format="pyarrow")
    totals = combine(partials, ["term"], sums_of("cnt"))
    top = topk_by(totals, ["cnt", "term"], [True, False], top_k)
    return top.repartition(1).map_batches(
        _ZipfClose(), batch_format="pyarrow", batch_size=None)


# --- PMI of top-vocabulary term pairs ----------------------------------------

class _PmiPresence:
    """Presence-matrix partial stage for :func:`pmi_pairs`: each batch
    builds the docs × k boolean presence matrix over the broadcast
    top-k vocabulary and emits the nonzero cells of its k × k
    co-occurrence partial C = Pᵀ·P (upper triangle + diagonal, exact
    int64) — fixed-size mergeable output regardless of batch size."""

    def __init__(self, vocab_ref):
        import re

        import ray
        vocab = ray.get(vocab_ref)
        self.k = len(vocab)
        self.index = {t: i for i, t in enumerate(vocab)}
        self.rx = re.compile(r"[a-z]+")
        self.__name__ = type(self).__name__

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table({"i": pa.array([], pa.int64()),
                          "j": pa.array([], pa.int64()),
                          "c": pa.array([], pa.int64())})
        if "text" not in batch.column_names or len(batch) == 0:
            return empty
        texts = batch["text"].to_pandas()
        rows, cols = [], []
        for di, txt in enumerate(texts):
            seen = {self.index[t]
                    for t in set(self.rx.findall((txt or "").lower()))
                    if t in self.index}
            rows.extend([di] * len(seen))
            cols.extend(seen)
        if not rows:
            return empty
        P = np.zeros((len(texts), self.k), dtype=np.int64)
        P[np.array(rows), np.array(cols)] = 1
        C = P.T @ P
        iu, ju = np.triu_indices(self.k)
        cc = C[iu, ju]
        nz = cc > 0
        return pa.table({"i": pa.array(iu[nz].astype(np.int64)),
                         "j": pa.array(ju[nz].astype(np.int64)),
                         "c": pa.array(cc[nz])})


class _PmiClose:
    """Closing kernel for :func:`pmi_pairs`: the summed (i, j, c)
    cells arrive as ONE block; pmi = ln(c_ab·N/(c_a·c_b)) per i<j pair
    with c_ab ≥ min_cooc, computed with libm ``math.log`` in the
    oracle's exact double op order."""

    def __init__(self, vocab_ref, n_docs: int, min_cooc: int):
        import ray
        self.vocab = list(ray.get(vocab_ref))
        self.n_docs = n_docs
        self.min_cooc = min_cooc
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        import math

        from ..functions.rounding import round_half_away
        empty = pa.table({"term_a": pa.array([], pa.string()),
                          "term_b": pa.array([], pa.string()),
                          "c_ab": pa.array([], pa.int64()),
                          "c_a": pa.array([], pa.int64()),
                          "c_b": pa.array([], pa.int64()),
                          "pmi": pa.array([], pa.float64())})
        if len(t) == 0 or "i" not in t.column_names:
            return empty
        k = len(self.vocab)
        C = np.zeros((k, k), dtype=np.int64)
        i = t["i"].to_numpy()
        j = t["j"].to_numpy()
        C[i, j] = t["c"].to_numpy()
        diag = np.diag(C)
        iu, ju = np.triu_indices(k, 1)
        cab = C[iu, ju]
        keep = cab >= self.min_cooc
        iu, ju, cab = iu[keep], ju[keep], cab[keep]
        nf = float(self.n_docs)
        pmi = np.array([
            math.log(float(c) * nf / (float(diag[a]) * float(diag[b])))
            for a, b, c in zip(iu, ju, cab)], dtype=np.float64)
        vocab = np.asarray(self.vocab, dtype=object)
        return pa.table({
            "term_a": pa.array(vocab[iu], pa.string()),
            "term_b": pa.array(vocab[ju], pa.string()),
            "c_ab": pa.array(cab.astype(np.int64)),
            "c_a": pa.array(diag[iu].astype(np.int64)),
            "c_b": pa.array(diag[ju].astype(np.int64)),
            "pmi": pa.array(round_half_away(pmi, 6))})


def pmi_pairs(docs, *, top_k: int = 50, min_cooc: int = 5):
    """Pointwise mutual information between every pair of the corpus'
    ``top_k`` highest-document-frequency terms — the collocation /
    template-phrase screen.  Three bounded stages: a DF shuffle picks
    the vocabulary (distributed top-k, never a global sort), the
    vocabulary broadcasts once per actor, and each batch emits a
    fixed-size k×k co-occurrence partial merged by ONE tiny keyed
    groupby; the close is k(k−1)/2 libm terms."""
    import ray

    import re

    word_re = re.compile(r"[a-z]+")

    def _doc_terms(batch: pa.Table) -> pa.Table:
        if "text" not in batch.column_names or len(batch) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        terms: dict[str, int] = {}
        for txt in batch["text"].to_pandas():
            for t in set(word_re.findall((txt or "").lower())):
                terms[t] = terms.get(t, 0) + 1
        return pa.table({
            "term": pa.array(list(terms.keys()), pa.string()),
            "df": pa.array(np.fromiter(terms.values(), dtype=np.int64,
                                       count=len(terms)))})

    from .relational import topk_by

    docs = docs.materialize()
    n_docs = docs.count()
    df_tbl = combine(docs.map_batches(_doc_terms, batch_format="pyarrow"),
                     ["term"], sums_of("df"))
    top = topk_by(df_tbl, ["df", "term"], [True, False], top_k) \
        .take_all()                     # ≤ top_k rows — driver-safe
    vocab = sorted(r["term"] for r in top)   # index order == string order
    ref = ray.put(vocab)
    from .taskcache import class_task
    partials = docs.map_batches(class_task(_PmiPresence, ref),
                                batch_format="pyarrow")
    summed = combine(partials, ["i", "j"], sums_of("c"))
    return summed.repartition(1).map_batches(
        class_task(_PmiClose, ref, n_docs, min_cooc),
        batch_format="pyarrow", batch_size=None)


# --- per-source KL divergence from the corpus distribution -------------------

class _SourceKlClose:
    """Closing kernel for :func:`source_kl`: the summed (source, term,
    c) vocabulary cells arrive as ONE vocab-bounded block; corpus
    totals, per-source totals and the KL fold all derive from it.
    KL(p_s ‖ q) = Σ_t p·ln(p/q) with p = c_st/N_s, q = c_t/N — libm
    ``math.log`` per cell, folded LEFT IN TERM ORDER per source
    (== the SQL ``list_reduce(list(term_v ORDER BY term))``)."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        import math

        from ..functions.rounding import round_half_away
        empty = pa.table({"source": pa.array([], pa.string()),
                          "n_tokens": pa.array([], pa.int64()),
                          "kl": pa.array([], pa.float64())})
        if len(t) == 0 or "source" not in t.column_names:
            return empty
        sc, suniq = pd.factorize(t["source"].to_pandas(), sort=False)
        term = t["term"].to_pandas().to_numpy()
        c = t["c"].to_numpy()
        ok = sc >= 0
        sc, term, c = sc[ok], term[ok], c[ok]
        if len(c) == 0:
            return empty
        # corpus totals per term and per source
        tc, _ = pd.factorize(term, sort=False)
        ct = np.zeros(tc.max() + 1, dtype=np.int64)
        np.add.at(ct, tc, c)
        ns = np.zeros(sc.max() + 1, dtype=np.int64)
        np.add.at(ns, sc, c)
        nf = float(c.sum())
        order = np.lexsort((term, sc))
        sc, c, tc = sc[order], c[order], tc[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        ends = np.r_[starts[1:], len(sc)]
        out_s, out_n, out_kl = [], [], []
        for si, (a, b) in enumerate(zip(starts, ends)):
            nsf = float(ns[sc[a]])
            acc = 0.0
            for i in range(a, b):
                p = float(c[i]) / nsf
                q = float(ct[tc[i]]) / nf
                acc += p * math.log(p / q)
            out_s.append(suniq[sc[a]])
            out_n.append(int(ns[sc[a]]))
            out_kl.append(acc)
        return pa.table({
            "source": pa.array(np.asarray(out_s, dtype=object),
                               pa.string()),
            "n_tokens": pa.array(np.array(out_n, dtype=np.int64)),
            "kl": pa.array(round_half_away(
                np.array(out_kl, dtype=np.float64), 6))})


def _source_term_cells(docs):
    """The shared (source, term) vocabulary-cells builder behind
    :func:`source_kl` and :func:`lexical_richness`: batch-local
    :class:`TermFreqPartial` counts (THE one tokenizer — the token
    stream never shuffles) with NULL sources dropped (out of scope),
    summed to one (source, term, c) cell per pair."""
    tf = TermFreqPartial()

    def _partial(batch: pa.Table) -> pa.Table:
        if "text" not in batch.column_names:   # empty blocks lose columns
            return pa.table({"source": pa.array([], pa.string()),
                             "term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        out = tf(batch)
        return out.filter(pc.is_valid(out["source"]))

    return combine(docs.map_batches(_partial, batch_format="pyarrow"),
                   ["source", "term"], [("cnt", "sum", "c")])


def source_kl(docs):
    """KL divergence of each source's unigram term distribution from
    the whole-corpus distribution — the domain-shift / mixture-drift
    screen of training-data curation.  Batch-local (source, term)
    count partials → ONE keyed groupby (the token stream never
    shuffles) → a vocab×|sources|-bounded single-block close (a
    VOCABULARY bound, not a corpus bound — at truly open vocabularies
    cap the close's input with a DF floor upstream)."""
    return _source_term_cells(docs).repartition(1).map_batches(
        _SourceKlClose(), batch_format="pyarrow", batch_size=None)


# --- per-source lexical richness ---------------------------------------------

class _LexicalRichnessClose:
    """Closing kernel for :func:`lexical_richness`: the summed
    (source, term, c) vocabulary cells arrive as ONE vocab-bounded
    block; types, tokens, hapax count and the two ratio closes are
    all per-source reductions over it (integer-exact, two double
    divisions rounded 6dp)."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        empty = pa.table({"source": pa.array([], pa.string()),
                          "n_tokens": pa.array([], pa.int64()),
                          "n_types": pa.array([], pa.int64()),
                          "n_hapax": pa.array([], pa.int64()),
                          "ttr": pa.array([], pa.float64()),
                          "hapax_ratio": pa.array([], pa.float64())})
        if len(t) == 0 or "source" not in t.column_names:
            return empty
        sc, suniq = pd.factorize(t["source"].to_pandas(), sort=False)
        c = t["c"].to_numpy()
        ok = sc >= 0
        sc, c = sc[ok], c[ok]
        if len(c) == 0:
            return empty
        K = int(sc.max()) + 1
        tokens = np.zeros(K, dtype=np.int64)
        np.add.at(tokens, sc, c)
        types = np.bincount(sc, minlength=K).astype(np.int64)
        hapax = np.bincount(sc[c == 1], minlength=K).astype(np.int64)
        ttr = types.astype(np.float64) / tokens.astype(np.float64)
        hr = hapax.astype(np.float64) / types.astype(np.float64)
        return pa.table({
            "source": pa.array(np.asarray(suniq[:K], dtype=object),
                               pa.string()),
            "n_tokens": pa.array(tokens),
            "n_types": pa.array(types),
            "n_hapax": pa.array(hapax),
            "ttr": pa.array(round_half_away(ttr, 6)),
            "hapax_ratio": pa.array(round_half_away(hr, 6))})


def lexical_richness(docs):
    """Per-source lexical-richness screen (type-token ratio, hapax
    share) — the vocabulary-health / synthetic-text smell test of
    training-data curation (template-generated text has a cratered
    TTR; boilerplate-free natural text keeps hapax share high).
    Shares :func:`_source_term_cells` (one tokenizer, one cells
    builder) with :func:`source_kl` / term_frequencies."""
    return _source_term_cells(docs).repartition(1).map_batches(
        _LexicalRichnessClose(), batch_format="pyarrow", batch_size=None)


# --- bigram language-model scoring -------------------------------------------

def _bigram_count_partial(batch: pa.Table, text_col: str = "text") \
        -> pa.Table:
    """Batch-local ((w1, w2), cnt) partial over within-document adjacent
    token pairs — same ``[a-z]+`` lowercased tokens as
    :func:`_vocab_count_partial` so the bigram and unigram tables can
    never tokenize differently."""
    from collections import Counter
    import re
    word_re = re.compile(r"[a-z]+")
    c: "Counter[tuple]" = Counter()
    if text_col in batch.column_names:
        for txt in batch[text_col].to_pandas():
            w = word_re.findall((txt or "").lower())
            c.update(zip(w, w[1:]))
    w1, w2 = ([], []) if not c else map(list, zip(*c.keys()))
    return pa.table({
        "w1": pa.array(w1, pa.string()),
        "w2": pa.array(w2, pa.string()),
        "cnt": pa.array(np.fromiter(c.values(), dtype=np.int64,
                                    count=len(c)))})


class _BigramScore:
    """Task-cached scoring stage for :func:`bigram_logprob`: the corpus
    bigram and unigram count tables ship once per worker; the add-one
    conditional log-probability ``ln((c(w1,w2)+1)/(c(w1)+V))`` is
    computed ONCE PER BIGRAM-VOCAB ENTRY with ``math.log`` (libm ==
    DuckDB ``ln``), and each document folds its pairs' log-probs left
    to right in position order — the oracle's ``list_reduce`` operand
    order — position-major across the batch."""

    def __init__(self, bg_refs, uni_refs, v_size: int,
                 text_col="text", id_col="doc_id"):
        import math
        import re

        import ray
        cu: dict = {}
        for t in ray.get(list(uni_refs)):
            if t is None or "term" not in t.column_names:
                continue
            cu.update(zip(t["term"].to_pylist(),
                          t["cnt"].to_numpy(zero_copy_only=False)))
        self.lp: dict = {}
        v = int(v_size)
        for t in ray.get(list(bg_refs)):
            if t is None or "w1" not in t.column_names:
                continue
            w1s = t["w1"].to_pylist()
            w2s = t["w2"].to_pylist()
            cbs = t["cnt"].to_numpy(zero_copy_only=False)
            for w1, w2, cb in zip(w1s, w2s, cbs):
                self.lp[(w1, w2)] = math.log(
                    (int(cb) + 1) / (int(cu[w1]) + v))
        self.re = re.compile(r"[a-z]+")
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lp = self.lp
        lps: list[np.ndarray] = []
        lens = np.zeros(len(texts), dtype=np.int64)
        for i, txt in enumerate(texts):
            w = self.re.findall((txt or "").lower())
            lens[i] = max(len(w) - 1, 0)
            if len(w) > 1:
                lps.append(np.array(
                    [lp[p] for p in zip(w, w[1:])], dtype=np.float64))
        keep = lens > 0
        ids, lens = ids[keep], lens[keep]
        if len(lens) == 0:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64()),
                             "logprob": pa.array([], pa.float64()),
                             "avg_logprob": pa.array([], pa.float64())})
        flat = np.concatenate(lps)
        offs = np.r_[0, np.cumsum(lens)][:-1]
        acc = np.zeros(len(lens), dtype=np.float64)
        for j in range(int(lens.max())):
            m = lens > j
            acc[m] += flat[offs[m] + j]
        return pa.table({
            self.id_col: pa.array(ids),
            "n_pairs": pa.array(lens),
            "logprob": pa.array(round_half_away(acc, 6)),
            "avg_logprob": pa.array(round_half_away(acc / lens, 6))})


def bigram_logprob(docs, *, text_col="text", id_col="doc_id"):
    """Per-document add-one-smoothed BIGRAM language-model
    log-likelihood — the next step up from :func:`unigram_logprob`
    toward a KenLM-style fluency screen: ``p(w_t|w_{t-1}) =
    (c(w_{t-1} w_t)+1) / (c(w_{t-1})+V)`` with corpus-wide counts, doc
    score = Σ ln p over adjacent pairs in position order.

    Scale shape mirrors the unigram twin: batch-local pair/vocab
    partials → two |vocab|-row groupbys (the token stream never
    shuffles); both count tables broadcast once per worker; scoring is
    one vectorized position-major fold.  Docs with < 2 tokens drop
    (no pair rows in the oracle)."""
    import functools

    from .taskcache import class_task

    docs = docs.materialize()
    bg_tbl = combine(docs.map_batches(
        functools.partial(_bigram_count_partial, text_col=text_col),
        batch_format="pyarrow"), ["w1", "w2"], sums_of("cnt")).materialize()
    uni_tbl = combine(docs.map_batches(
        functools.partial(_vocab_count_partial, text_col=text_col),
        batch_format="pyarrow"), ["term"], sums_of("cnt")).materialize()
    v_size = uni_tbl.count()
    if v_size == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_pairs": pa.array([], pa.int64()),
            "logprob": pa.array([], pa.float64()),
            "avg_logprob": pa.array([], pa.float64())}))
    out = docs.map_batches(
        class_task(_BigramScore, bg_tbl.to_arrow_refs(),
                   uni_tbl.to_arrow_refs(), v_size,
                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow")
    # pin the count blocks to the returned lazy pipeline (ray#53727)
    out._graft_pin = (bg_tbl, uni_tbl)
    return out


# --- BM25 retrieval -----------------------------------------------------------

#: fixed retrieval query — deterministic, mirrored literally in the SQL
#: oracle (term order is the score-fold order)
BM25_QUERY_TERMS = ("hash", "join", "sort", "window")
BM25_K1, BM25_B = 1.2, 0.75


def _bm25_tf_partial(batch: pa.Table, terms, text_col: str,
                     id_col: str) -> pa.Table:
    """Per-document length + query-term frequencies (one Counter pass
    per doc, ``[a-z]+`` lowercased tokens) plus df indicator columns —
    the mergeable sufficient statistics of BM25."""
    from collections import Counter
    import re
    word_re = re.compile(r"[a-z]+")
    texts = (batch[text_col].to_pandas() if text_col in batch.column_names
             else [])
    n = len(texts)
    dl = np.zeros(n, dtype=np.int64)
    tfs = np.zeros((len(terms), n), dtype=np.int64)
    for i, txt in enumerate(texts):
        c = Counter(word_re.findall((txt or "").lower()))
        dl[i] = sum(c.values())
        for j, term in enumerate(terms):
            tfs[j, i] = c.get(term, 0)
    cols = {id_col: (batch[id_col] if n else pa.array([], pa.int64())),
            "dl": pa.array(dl)}
    for j, term in enumerate(terms):
        cols[f"tf_{j}"] = pa.array(tfs[j])
        cols[f"has_{j}"] = pa.array((tfs[j] > 0).astype(np.int64))
    return pa.table(cols)


def bm25_topk(docs, *, terms=BM25_QUERY_TERMS, k: int = 10,
              text_col: str = "text", id_col: str = "doc_id"):
    """BM25 (Lucene ``+1`` idf variant) top-k retrieval of documents
    for a fixed query-term set — the classic lexical search scorer:
    ``score = Σ_t idf_t · tf·(k1+1) / (tf + k1·(1-b+b·dl/avgdl))`` with
    ``idf = ln(1 + (N-df+0.5)/(df+0.5))``.

    Scale shape: one map pass emits per-doc sufficient statistics
    (dl, per-term tf/df indicators), ONE tiny global aggregate closes
    N/avgdl/df (constants, not a table), scoring is a vectorized map
    with the per-term folds in fixed term order (the oracle's operand
    order), and top-k is per-block partial → single-block final — the
    full corpus is never sorted or collected."""
    import math

    from ray.data.aggregate import Count, Sum

    from .relational import topk_by

    stats = docs.map_batches(
        lambda b: _bm25_tf_partial(b, terms, text_col, id_col),
        batch_format="pyarrow").materialize()
    aggs = [Count(), Sum("dl", alias_name="tot")]
    for j in range(len(terms)):
        aggs.append(Sum(f"has_{j}", alias_name=f"df_{j}"))
    g = stats.aggregate(*aggs)
    n_docs = int(g["count()"])
    if n_docs == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())}))
    tot = int(g["tot"] or 0)
    avgdl = float(tot) / float(n_docs)
    idf = [math.log(1.0 + (float(n_docs - int(g[f"df_{j}"])) + 0.5)
                    / (float(int(g[f"df_{j}"])) + 0.5))
           for j in range(len(terms))]
    k1, b = BM25_K1, BM25_B

    def _score(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        dln = dl / avgdl
        score = np.zeros(len(t))
        for j in range(len(terms)):
            tf = t[f"tf_{j}"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            score = score + idf[j] * (
                tf * (k1 + 1.0) / (tf + k1 * ((1.0 - b) + b * dln)))
        return pa.table({
            id_col: t[id_col],
            "raw": pa.array(score),
            "score": pa.array(round_half_away(score, 6))})

    scored = stats.map_batches(_score, batch_format="pyarrow")
    top = topk_by(scored, ["raw", id_col], [True, False], k)
    return top.map_batches(
        lambda t: t.drop_columns(["raw"]), batch_format="pyarrow")


# --- DSIR importance weights --------------------------------------------------

class _DsirScore:
    """Task-cached scoring stage for :func:`dsir_weights`: the target
    and raw unigram count tables ship once per worker; the per-term
    log-ratio ``λ(w) = ln((c_t+1)/(N_t+V)) − ln((c_r+1)/(N_r+V))`` is
    computed ONCE PER VOCAB ENTRY with ``math.log`` (libm == DuckDB
    ``ln``), and each document folds its tokens' λs left to right in
    position order — the oracle's ``list_reduce`` operand order —
    position-major across the batch."""

    def __init__(self, raw_refs, tgt_refs, n_raw: int, n_tgt: int,
                 v_size: int, text_col="text", id_col="doc_id"):
        import math
        import re

        import ray
        ct: dict = {}
        for t in ray.get(list(tgt_refs)):
            if t is None or "term" not in t.column_names:
                continue
            ct.update(zip(t["term"].to_pylist(),
                          t["cnt"].to_numpy(zero_copy_only=False)))
        v = int(v_size)
        dt = float(n_tgt + v)
        dr = float(n_raw + v)
        self.lam: dict = {}
        for t in ray.get(list(raw_refs)):
            if t is None or "term" not in t.column_names:
                continue
            for w, cr in zip(t["term"].to_pylist(),
                             t["cnt"].to_numpy(zero_copy_only=False)):
                self.lam[w] = (math.log((int(ct.get(w, 0)) + 1) / dt)
                               - math.log((int(cr) + 1) / dr))
        self.re = re.compile(r"[a-z]+")
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lam = self.lam
        ls: list[np.ndarray] = []
        lens = np.zeros(len(texts), dtype=np.int64)
        for i, txt in enumerate(texts):
            w = self.re.findall((txt or "").lower())
            lens[i] = len(w)
            if w:
                ls.append(np.array([lam[x] for x in w], dtype=np.float64))
        keep = lens > 0
        ids, lens = ids[keep], lens[keep]
        if len(lens) == 0:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "n_tok": pa.array([], pa.int64()),
                             "log_weight": pa.array([], pa.float64()),
                             "avg_log_weight": pa.array([], pa.float64())})
        flat = np.concatenate(ls)
        offs = np.r_[0, np.cumsum(lens)][:-1]
        acc = np.zeros(len(lens), dtype=np.float64)
        for j in range(int(lens.max())):
            m = lens > j
            acc[m] += flat[offs[m] + j]
        return pa.table({
            self.id_col: pa.array(ids),
            "n_tok": pa.array(lens),
            "log_weight": pa.array(round_half_away(acc, 6)),
            "avg_log_weight": pa.array(round_half_away(acc / lens, 6))})


def dsir_weights(docs, *, target_lang: str = "en", text_col="text",
                 lang_col: str = "lang", id_col="doc_id"):
    """Per-document DSIR importance weights (Xie et al. 2023,
    arXiv:2302.03169 shape): log-likelihood ratio of each document
    under an add-one unigram model of the TARGET slice (here
    ``lang = target_lang``) vs the RAW corpus — the importance-
    resampling score that tilts a pretraining mixture toward a target
    domain.

    Scale shape mirrors :func:`unigram_logprob`: batch-local vocab
    partials → two |vocab|-row groupbys (raw and target-filtered — the
    token stream never shuffles), both tables broadcast once per
    worker, scoring is one vectorized position-major fold."""
    import functools

    import pyarrow.compute as pc

    from .taskcache import class_task

    docs = docs.materialize()
    raw_tbl = combine(docs.map_batches(
        functools.partial(_vocab_count_partial, text_col=text_col),
        batch_format="pyarrow"), ["term"], sums_of("cnt")).materialize()

    def _tgt_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t[lang_col], target_lang))

    tgt_tbl = combine(
        docs.map_batches(_tgt_filter, batch_format="pyarrow").map_batches(
            functools.partial(_vocab_count_partial, text_col=text_col),
            batch_format="pyarrow"), ["term"], sums_of("cnt")).materialize()
    v_size = raw_tbl.count()
    if v_size == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_tok": pa.array([], pa.int64()),
            "log_weight": pa.array([], pa.float64()),
            "avg_log_weight": pa.array([], pa.float64())}))
    n_raw = int(raw_tbl.sum("cnt") or 0)
    n_tgt = int(tgt_tbl.sum("cnt") or 0) if tgt_tbl.count() else 0
    out = docs.map_batches(
        class_task(_DsirScore, raw_tbl.to_arrow_refs(),
                   tgt_tbl.to_arrow_refs(), n_raw, n_tgt, v_size,
                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow")
    out._graft_pin = (raw_tbl, tgt_tbl)
    return out


# --- character entropy ---------------------------------------------------------

def char_entropy_batch(batch: pa.Table, text_col="text",
                       id_col="doc_id") -> pa.Table:
    """Per-document Shannon entropy of the character distribution —
    the compression-ratio proxy quality screen (gibberish and
    boilerplate sit at the entropy extremes).  Exact integer char
    counts; the only float work is ``ln n − (Σ c·ln c)/n`` with the
    Σ folded LEFT OVER CHARS IN CODEPOINT ORDER via ``math.log``
    (UTF-8 byte order == codepoint order, so DuckDB's ``ORDER BY ch``
    sees the identical sequence).  Empty texts drop."""
    import math
    from collections import Counter

    from ..functions.rounding import round_half_away
    texts = (batch[text_col].to_pandas()
             if text_col in batch.column_names else [])
    ids, n_cp, n_distinct, ent = [], [], [], []
    id_arr = (batch[id_col].to_numpy(zero_copy_only=False)
              if len(texts) else np.array([], dtype=np.int64))
    for i, txt in enumerate(texts):
        if not txt:
            continue
        c = Counter(txt)
        n = sum(c.values())
        acc = 0.0
        for ch in sorted(c):
            cv = float(c[ch])
            acc += cv * math.log(cv)
        ids.append(id_arr[i])
        n_cp.append(n)
        n_distinct.append(len(c))
        ent.append(round_half_away(
            math.log(float(n)) - acc / float(n), 6))
    return pa.table({
        id_col: pa.array(np.array(ids, dtype=np.int64)),
        "n_cp": pa.array(np.array(n_cp, dtype=np.int64)),
        "n_distinct": pa.array(np.array(n_distinct, dtype=np.int64)),
        "entropy": pa.array(np.array(ent, dtype=np.float64))})


def char_entropy(docs, *, text_col="text", id_col="doc_id"):
    """Per-document character-distribution Shannon entropy — map-only
    (no shuffle), exact integer counts, one ordered libm fold per doc."""
    import functools
    return docs.map_batches(
        functools.partial(char_entropy_batch, text_col=text_col,
                          id_col=id_col),
        batch_format="pyarrow")


# --- Heaps' law vocabulary-growth fit ------------------------------------------

class _HeapsClose:
    """Closing kernel for :func:`heaps_law`: the per-doc (n_tok,
    new_terms) rows arrive as ONE block; cumulative token and
    vocabulary counts accumulate exactly in integers by doc_id order,
    x = ln(cum_tokens) and y = ln(cum_vocab) per point via
    ``math.log``, and the four least-squares sums fold LEFT IN DOC
    ORDER — the oracle's ``list_reduce`` operand order — closing
    slope/intercept in the zipf_fit expression order."""

    def __init__(self):
        self.__name__ = type(self).__name__

    def __call__(self, t: pa.Table) -> pa.Table:
        import math

        from ..functions.rounding import round_half_away
        empty = pa.table({"n_points": pa.array([], pa.int64()),
                          "beta": pa.array([], pa.float64()),
                          "ln_k": pa.array([], pa.float64())})
        if len(t) < 2:
            return empty
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        nt = t["n_tok"].to_numpy(zero_copy_only=False)[order]
        nv = t["new_terms"].to_numpy(zero_copy_only=False)[order]
        cn, cv = 0, 0
        sx = sy = sxx = sxy = 0.0
        n = len(nt)
        for i in range(n):
            cn += int(nt[i])
            cv += int(nv[i])
            x = math.log(float(cn))
            y = math.log(float(cv))
            sx += x
            sy += y
            sxx += x * x
            sxy += x * y
        nd = float(n)
        denom = nd * sxx - sx * sx
        if denom == 0.0:
            return empty
        slope = (nd * sxy - sx * sy) / denom
        return pa.table({
            "n_points": pa.array([n], pa.int64()),
            "beta": pa.array([round_half_away(slope, 6)]),
            "ln_k": pa.array([round_half_away(
                (sy - slope * sx) / nd, 6)])})


def heaps_law(docs, *, text_col="text", id_col="doc_id"):
    """Heaps' law fit over the corpus in doc_id order: cumulative
    vocabulary size V(n) ≈ K·n^β against cumulative token count, fit
    by least squares in log-log space — the vocabulary-growth scaling
    check that tells you whether more data keeps buying new types.

    Scale shape: per-doc token totals are map-only; each term's FIRST
    document is one |vocab|-row Min groupby (the token stream never
    shuffles); new-term counts collapse to |docs| rows; only the tiny
    (doc_id, n_tok, new_terms) table crosses to the single-block
    ordered close."""
    import functools

    docs = docs.materialize()

    def _tok_totals(batch: pa.Table) -> pa.Table:
        import re
        word_re = re.compile(r"[a-z]+")
        texts = (batch[text_col].to_pandas()
                 if text_col in batch.column_names else [])
        nt = np.fromiter((len(word_re.findall((x or "").lower()))
                          for x in texts), dtype=np.int64,
                         count=len(texts))
        keep = nt > 0
        ids = (batch[id_col].to_numpy(zero_copy_only=False)[keep]
               if len(texts) else np.array([], dtype=np.int64))
        return pa.table({
            id_col: pa.array(ids),
            "n_tok": pa.array(nt[keep]),
            "new_terms": pa.array(np.zeros(int(keep.sum()),
                                           dtype=np.int64))})

    def _first_doc_partial(batch: pa.Table) -> pa.Table:
        import re
        word_re = re.compile(r"[a-z]+")
        first: dict = {}
        if text_col in batch.column_names:
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            for d, txt in zip(ids, batch[text_col].to_pandas()):
                for w in word_re.findall((txt or "").lower()):
                    cur = first.get(w)
                    if cur is None or d < cur:
                        first[w] = d
        return pa.table({
            "term": pa.array(list(first.keys()), pa.string()),
            "fdoc": pa.array(np.fromiter(first.values(), dtype=np.int64,
                                         count=len(first)))})

    firsts = combine(
        docs.map_batches(_first_doc_partial, batch_format="pyarrow"),
        ["term"], [("fdoc", "min", "fdoc")])

    def _new_counts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tok": pa.array([], pa.int64()),
                             "new_terms": pa.array([], pa.int64())})
        g = t.group_by("fdoc").aggregate([("fdoc", "count")])
        return pa.table({
            id_col: g["fdoc"],
            "n_tok": pa.array(np.zeros(len(g), dtype=np.int64)),
            "new_terms": pc.cast(g["fdoc_count"], pa.int64())})

    new_rows = firsts.map_batches(_new_counts, batch_format="pyarrow")
    totals = docs.map_batches(_tok_totals, batch_format="pyarrow")
    combined = combine(totals.union(new_rows), [id_col],
                       sums_of("n_tok", "new_terms"))

    def _only_token_docs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.greater(t["n_tok"], 0))

    return combined.map_batches(_only_token_docs,
                                batch_format="pyarrow") \
        .repartition(1).map_batches(_HeapsClose(),
                                    batch_format="pyarrow",
                                    batch_size=None)


# --- distinct-n diversity ratios -----------------------------------------------

def _ngram_count_partial(batch: pa.Table, max_n: int,
                         text_col: str) -> pa.Table:
    """Batch-local ((n, gram), cnt) partials for n = 1..max_n over the
    ``[a-z]+`` lowercased tokens — the vocabulary-family tokenizer, so
    distinct-n and the vocab ops can never tokenize differently."""
    from collections import Counter
    import re
    word_re = re.compile(r"[a-z]+")
    c: "Counter[tuple]" = Counter()
    if text_col in batch.column_names:
        for txt in batch[text_col].to_pandas():
            w = word_re.findall((txt or "").lower())
            for n in range(1, max_n + 1):
                for i in range(len(w) - n + 1):
                    c[(n, " ".join(w[i:i + n]))] += 1
    ns, grams = ([], []) if not c else map(list, zip(*c.keys()))
    return pa.table({
        "n": pa.array(np.asarray(ns, dtype=np.int64)),
        "gram": pa.array(grams, pa.string()),
        "cnt": pa.array(np.fromiter(c.values(), dtype=np.int64,
                                    count=len(c)))})


def distinct_ngrams(docs, *, max_n: int = 3, text_col="text"):
    """Corpus distinct-n diversity ratios (the self-repetition screen
    on generated/crawled corpora): for n = 1..max_n, total n-gram
    occurrences, distinct n-grams, and distinct/total.

    Scale shape: batch-local (n, gram) count partials → ONE
    |gram-vocab|-row groupby → a max_n-row reduce; the token stream
    never shuffles and nothing reaches the driver."""
    import functools

    merged = combine(docs.map_batches(
        functools.partial(_ngram_count_partial, max_n=max_n,
                          text_col=text_col),
        batch_format="pyarrow"), ["n", "gram"], sums_of("cnt"))
    per_n = combine(merged, ["n"], [("cnt", "sum", "total"),
                                    ([], "count_all", "n_distinct")])

    def _close(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        tot = t["total"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_distinct"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "n": t["n"],
            "total": pa.array(tot),
            "n_distinct": pa.array(nd),
            "distinct_ratio": pa.array(round_half_away(
                nd.astype(np.float64) / tot.astype(np.float64), 6))})

    return per_n.map_batches(_close, batch_format="pyarrow")


# --- out-of-vocabulary rate ----------------------------------------------------

class _OovScore:
    """Task-cached scorer for :func:`oov_rate`: the top-K vocabulary
    ships once per worker as a set; each document counts tokens
    outside it — integer counts, one rounded division."""

    def __init__(self, vocab_refs, text_col="text", id_col="doc_id"):
        import re

        import ray
        vocab: set = set()
        for t in ray.get(list(vocab_refs)):
            if t is not None and "term" in t.column_names:
                vocab.update(t["term"].to_pylist())
        self.vocab = vocab
        self.re = re.compile(r"[a-z]+")
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        texts = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        voc = self.vocab
        out_id, out_n, out_o = [], [], []
        for i, txt in enumerate(texts):
            w = self.re.findall((txt or "").lower())
            if not w:
                continue
            out_id.append(ids[i])
            out_n.append(len(w))
            out_o.append(sum(1 for x in w if x not in voc))
        n = np.asarray(out_n, dtype=np.int64)
        o = np.asarray(out_o, dtype=np.int64)
        return pa.table({
            self.id_col: pa.array(np.asarray(out_id, dtype=np.int64)),
            "n_tok": pa.array(n),
            "n_oov": pa.array(o),
            "oov_rate": pa.array(round_half_away(
                o.astype(np.float64) / n.astype(np.float64), 6))})


def oov_rate(docs, *, top_k: int = 1000, text_col="text",
             id_col="doc_id"):
    """Per-document out-of-vocabulary rate against the corpus top-K
    vocabulary (count DESC, term ASC ties) — the rare-token quality
    screen.  One |vocab|-row count groupby → distributed top-K →
    broadcast set → vectorized scoring; the token stream never
    shuffles."""
    import functools

    from .relational import topk_by
    from .taskcache import class_task

    docs = docs.materialize()
    cnt = combine(docs.map_batches(
        functools.partial(_vocab_count_partial, text_col=text_col),
        batch_format="pyarrow"), ["term"], sums_of("cnt"))
    top = topk_by(cnt, ["cnt", "term"], [True, False], top_k) \
        .select_columns(["term"]).materialize()
    out = docs.map_batches(
        class_task(_OovScore, top.to_arrow_refs(),
                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow")
    out._graft_pin = top
    return out


# --- temperature-scaled source mixing weights -----------------------------------

def source_mix_weights(docs, *, alpha: float = 0.7,
                       source_col: str = "source"):
    """Temperature-scaled source sampling weights ``p_s ∝ n_s^α`` (the
    mC4/multilingual mixing rule that up-samples tail sources): per
    source its document count, raw ``n^α`` mass, normalized weight and
    the implied up/down-sampling factor vs proportional.

    ONE tiny groupby (source domain is bounded) + a single-block
    close; the per-source ``pow`` is libm (glibc == DuckDB bit-for-
    bit) and the normalizing Σ folds in source order."""
    counts = combine(docs, [source_col], [([], "count_all", "n_docs")])

    def _close(t: pa.Table) -> pa.Table:
        import math

        from ..functions.rounding import round_half_away
        empty = pa.table({
            source_col: pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "weight": pa.array([], pa.float64()),
            "boost": pa.array([], pa.float64())})
        if len(t) == 0:
            return empty
        src = t[source_col].to_pylist()
        n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = [i for i, s in enumerate(src) if s is not None]
        if not keep:
            return empty
        src = [src[i] for i in keep]
        n = n[keep]
        order = np.argsort(np.asarray(src, dtype=object), kind="stable")
        src = [src[i] for i in order]
        n = n[order]
        mass = np.array([math.pow(float(v), alpha) for v in n])
        tot_mass = 0.0
        for m in mass:                      # fold in source order
            tot_mass += float(m)
        tot_docs = 0
        for v in n:
            tot_docs += int(v)
        w = mass / tot_mass
        prop = n.astype(np.float64) / float(tot_docs)
        return pa.table({
            source_col: pa.array(src, pa.string()),
            "n_docs": pa.array(n),
            "weight": pa.array(round_half_away(w, 6)),
            "boost": pa.array(round_half_away(w / prop, 6))})

    return counts.repartition(1).map_batches(
        _close, batch_format="pyarrow", batch_size=None)


# --- pairwise source vocabulary overlap -------------------------------------------

class _VocabOverlapPartial:
    """Per-partition kernel for :func:`vocab_overlap_sources`: term-
    co-located (source, term) cells accumulate a |S|×|S| intersection
    matrix against the broadcast global source index (one np update
    per term run) and emit the nonzero i<j cells plus the diagonal
    sizes as mergeable partials."""

    def __init__(self, sources_ref):
        import ray
        self.sources = list(ray.get(sources_ref))
        self.index = {s: i for i, s in enumerate(self.sources)}
        self.__name__ = type(self).__name__

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        k = len(self.sources)
        if len(g) == 0:
            return pd.DataFrame({"i": pd.Series([], dtype=np.int64),
                                 "j": pd.Series([], dtype=np.int64),
                                 "c": pd.Series([], dtype=np.int64)})
        codes, _ = pd.factorize(g["term"], sort=False)
        src = g["source"].map(self.index).to_numpy(np.int64)
        order = np.argsort(codes, kind="stable")
        codes, src = codes[order], src[order]
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], len(codes)]
        m = np.zeros((k, k), dtype=np.int64)
        for s, e in zip(starts, ends):
            idx = np.unique(src[s:e])
            m[np.ix_(idx, idx)] += 1
        iu = np.triu_indices(k)              # includes the diagonal
        c = m[iu]
        nz = c > 0
        return pd.DataFrame({"i": iu[0][nz].astype(np.int64),
                             "j": iu[1][nz].astype(np.int64),
                             "c": c[nz]})


def vocab_overlap_sources(docs, *, text_col="text",
                          source_col="source"):
    """Pairwise Jaccard overlap between source vocabularies — the
    cross-domain similarity matrix of a mixed corpus (which sources
    speak the same language?).  Stages: batch-local distinct (source,
    term) cells → one cell-dedup groupby → term-partitioned |S|×|S|
    intersection partials against the broadcast source index → a tiny
    (i, j) Sum groupby → single-block Jaccard close.  The source
    domain is bounded BY CONTRACT (it is the mixture's partition
    key)."""
    import functools

    import ray

    from .taskcache import class_task
    from .joins import partition_groups

    docs = docs.materialize()

    def _cells(batch: pa.Table) -> pa.Table:
        import re
        word_re = re.compile(r"[a-z]+")
        out: set = set()
        if text_col in batch.column_names:
            srcs = batch[source_col].to_pylist()
            for s, txt in zip(srcs, batch[text_col].to_pandas()):
                if s is None:
                    continue
                for t in set(word_re.findall((txt or "").lower())):
                    out.add((s, t))
        ss, ts = ([], []) if not out else map(list, zip(*out))
        return pa.table({"source": pa.array(ss, pa.string()),
                         "term": pa.array(ts, pa.string())})

    from .joins import distributed_distinct

    cells = distributed_distinct(
        docs.map_batches(_cells, batch_format="pyarrow"),
        ["source", "term"]).materialize()
    sources = sorted({
        r["source"] for r in distributed_distinct(
            cells, ["source"]).take_all()})
    ref = ray.put(sources)
    partials = partition_groups(
        cells, "term", class_task(_VocabOverlapPartial, ref))
    summed = combine(partials, ["i", "j"], sums_of("c"))

    def _close(t: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        empty = pa.table({
            "src_a": pa.array([], pa.string()),
            "src_b": pa.array([], pa.string()),
            "inter": pa.array([], pa.int64()),
            "union_sz": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())})
        if len(t) == 0:
            return empty
        i = t["i"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = t["j"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        sizes = {int(a): int(v) for a, b, v in zip(i, j, c) if a == b}
        off = i != j
        i, j, c = i[off], j[off], c[off]
        sa = np.array([sizes[x] for x in i], dtype=np.int64)
        sb = np.array([sizes[x] for x in j], dtype=np.int64)
        union = sa + sb - c
        return pa.table({
            "src_a": pa.array([sources[x] for x in i], pa.string()),
            "src_b": pa.array([sources[x] for x in j], pa.string()),
            "inter": pa.array(c),
            "union_sz": pa.array(union),
            "jaccard": pa.array(round_half_away(
                c.astype(np.float64) / union.astype(np.float64), 6))})

    return summed.repartition(1).map_batches(_close,
                                             batch_format="pyarrow",
                                             batch_size=None)
