"""Text-analysis scalar/batch functions for the documents table.

All functions are vectorized (numpy / pandas.str / compiled regex applied
per batch) and deterministic.  Where a function backs an oracle-checked
query, its semantics are chosen to be exactly expressible in ANSI SQL
(DuckDB) — see ``__ray_entry__.oracle_sql``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .hashing import TOKEN_VOCAB, stable_hash_array

# whitespace tokenizer used for token counting — must match the SQL
# regexp_split_to_array(text, '\s+') semantics (empty string → [''] → 1)
WS_RE = re.compile(r"\s+")
# RE2's \s is exactly [\t\n\f\r ] — NO \v, no Unicode whitespace — while
# Python's \s (Unicode mode) matches both; operators whose oracle splits
# with RE2 '\s+' must use this class for any-input parity
RE2_WS_RE = re.compile(r"[\t\n\f\r ]+")

# BPE-ish word/punct splitter (GPT-2-style coarse pattern, public knowledge)
BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\t\n\f\r ]")
# ^ whitespace spelled as RE2's \s ([\t\n\f\r ] — no \v, no Unicode ws)
# so token_counts / simhash oracles that use RE2 '[^A-Za-z0-9\s]' agree
# on ANY input, not just the \v-free ASCII corpus

# lowercase ASCII word extractor of quality_features and, through
# words(), of every vocabulary operator — mirrors the oracle's
# regexp_extract_all(lower(text), '[a-z]+')
WORD_RE = re.compile(r"[a-z]+")

STOPWORDS = frozenset(
    "the and of a to in is it that for on as with was at by an be this are "
    "or from had not but what all were when we there can".split())

# tiny n-gram-frequency language heuristic: characteristic frequent words
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "mit", "ein", "von", "zu"},
    "fr": {"le", "la", "les", "et", "des", "est", "une", "dans", "que", "pour"},
    "es": {"el", "la", "los", "las", "que", "de", "en", "una", "por", "con"},
}


def words(text: str | None) -> list[str]:
    """The ``[a-z]+`` runs of ``lower(text)`` in position order, none for
    NULL — the one tokenizer of the vocabulary operators, equal to the
    oracle's ``regexp_extract_all(lower(text), '[a-z]+')``."""
    return WORD_RE.findall((text or "").lower())


def whitespace_token_count(texts: pd.Series) -> np.ndarray:
    """len(regexp_split_to_array(text, '\\s+')) — matches DuckDB exactly,
    including leading/trailing whitespace producing empty fields."""
    return texts.str.split(WS_RE).str.len().fillna(0).to_numpy(np.int64)


def bpe_ish_token_count(texts: pd.Series) -> np.ndarray:
    """Count of BPE-ish regex tokens (letters runs / digit runs / punct)."""
    return texts.str.findall(BPE_RE).str.len().fillna(0).to_numpy(np.int64)


def tokenize_to_ids(texts: pd.Series, vocab: int = TOKEN_VOCAB
                    ) -> list[np.ndarray]:
    """Deterministic pseudo-BPE tokenizer: regex split then stable-hash each
    token into [0, vocab).  Used to derive the ``tokens:list<int32>`` payload
    of the sequences table from document text."""
    out = []
    for toks in texts.str.findall(BPE_RE):
        if not toks:
            out.append(np.empty(0, dtype=np.int32))
            continue
        h = stable_hash_array(np.asarray(toks, dtype=object))
        out.append((h % np.uint64(vocab)).astype(np.int32))
    return out


def quality_features(texts: pd.Series) -> dict[str, np.ndarray]:
    """Length / punctuation / stopword-ratio quality features.

    n_chars/n_words exact; punct_ratio = punct chars / chars;
    stop_ratio = stopwords / words (lowercased word match).
    """
    n_chars = texts.str.len().fillna(0).to_numpy(np.int64)
    words = texts.str.lower().str.findall(WORD_RE)
    n_words = words.str.len().fillna(0).to_numpy(np.int64)
    # explicit ASCII punctuation class: Python counts characters while
    # RE2 (the DuckDB oracle) scans UTF-8 bytes, so a [^\w\s] class would
    # diverge on any non-ASCII character — a closed ASCII set cannot
    n_punct = texts.str.count(r"[!-/:-@\[-`{-~]").fillna(0).to_numpy(np.int64)
    stop = words.map(lambda ws: sum(w in STOPWORDS for w in ws),
                     na_action="ignore").fillna(0).to_numpy(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        punct_ratio = np.where(n_chars > 0, n_punct / np.maximum(n_chars, 1), 0.0)
        stop_ratio = np.where(n_words > 0, stop / np.maximum(n_words, 1), 0.0)
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "n_punct": n_punct,
        "punct_ratio": punct_ratio,
        "stop_ratio": stop_ratio,
    }


def detect_language(texts: pd.Series) -> np.ndarray:
    """Marker-word language heuristic → 'en'/'de'/'fr'/'es'/'unknown'."""
    words = texts.str.lower().str.findall(re.compile(r"[a-zà-ÿ]+"))

    def _score(ws):
        if not ws:
            return "unknown"
        s = set(ws)
        best, best_n = "unknown", 0
        for lang in ("en", "de", "fr", "es"):  # fixed order → deterministic ties
            n = len(s & _LANG_MARKERS[lang])
            if n > best_n:
                best, best_n = lang, n
        return best

    return words.map(_score).to_numpy(dtype=object)


_FP_BASE = np.uint64(1099511628211)  # FNV-64 prime as polynomial base
_FP_POWS: np.ndarray = np.empty(0, dtype=np.uint64)


def _fp_pows(n: int) -> np.ndarray:
    """Powers of the fingerprint base mod 2^64 (cached, grown on demand)."""
    global _FP_POWS
    if len(_FP_POWS) < n:
        size = max(n, 2 * len(_FP_POWS), 4096)
        with np.errstate(over="ignore"):
            p = np.empty(size, dtype=np.uint64)
            p[0] = np.uint64(1)
            np.multiply.accumulate(
                np.full(size - 1, _FP_BASE, dtype=np.uint64), out=p[1:])
        _FP_POWS = p
    return _FP_POWS


def rolling_fingerprint(texts: pd.Series) -> np.ndarray:
    """Polynomial rolling hash of the whole document (content fingerprint).

    fingerprint = sum(byte_i * base^i) mod 2^64, fully vectorized per doc
    (byte array × cached power table, uint64 wraparound).  Equal texts →
    equal fingerprints; usable for exact dedup grouping.
    """
    out = np.zeros(len(texts), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, s in enumerate(texts.fillna("")):
            b = np.frombuffer(s.encode("utf-8", "surrogatepass"), dtype=np.uint8)
            if len(b) == 0:
                continue
            pows = _fp_pows(len(b))
            out[i] = np.sum(b.astype(np.uint64) * pows[:len(b)], dtype=np.uint64)
    return out


def char_ngram_shingles(text: str, n: int = 5) -> np.ndarray:
    """uint64 hashes of the character n-gram shingle set of one document."""
    if len(text) < n:
        shingles = [text] if text else []
    else:
        shingles = [text[i:i + n] for i in range(len(text) - n + 1)]
    if not shingles:
        return np.empty(0, dtype=np.uint64)
    return np.unique(stable_hash_array(np.asarray(shingles, dtype=object)))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard similarity of two shingle-hash sets."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0
