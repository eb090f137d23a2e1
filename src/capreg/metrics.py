"""Caption evaluation metrics: corpus BLEU, ROUGE-L, CIDEr.

All metrics are pure functions of the tokenized corpus. Tokenization is
fixed (lowercase, punctuation stripped, whitespace split) so scores are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class EvalCorpus:
    """(candidate, references) pairs; every entry needs >= 1 reference."""

    pairs: list[tuple[list[str], list[list[str]]]]

    def __post_init__(self):
        for cand, refs in self.pairs:
            if not refs:
                raise ValueError("every corpus entry needs at least one reference")

    def __len__(self):
        return len(self.pairs)

    @classmethod
    def from_strings(cls, entries: list[tuple[str, list[str]]]) -> "EvalCorpus":
        return cls([(tokenize(c), [tokenize(r) for r in rs]) for c, rs in entries])


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(corpus: EvalCorpus, n: int = 4) -> float:
    """Corpus-level BLEU-n with uniform 1/n weights and brevity penalty.

    Reference length uses the closest-length rule (ties favor the shorter
    reference). Reported on a 0..100 scale.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("BLEU order must be in 1..4")
    matched = [0] * n
    possible = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, refs in corpus.pairs:
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for k in range(1, n + 1):
            cc = _ngram_counts(cand, k)
            max_ref = Counter()
            for r in refs:
                max_ref |= _ngram_counts(r, k)
            matched[k - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in cc.items())
            possible[k - 1] += max(0, len(cand) - k + 1)
    if cand_len == 0 or 0 in possible or 0 in matched:
        return 0.0
    log_prec = sum(math.log(m / p) for m, p in zip(matched, possible)) / n
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_prec)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


_ROUGE_BETA = 1.2


def rouge_l(corpus: EvalCorpus) -> float:
    """LCS-based F-measure (recall weighted by ``_ROUGE_BETA``), best over
    references, averaged over the corpus."""
    if not corpus.pairs:
        raise ValueError("ROUGE-L needs a non-empty corpus")
    total = 0.0
    for cand, refs in corpus.pairs:
        best = 0.0
        for ref in refs:
            lcs = _lcs_length(cand, ref)
            if lcs == 0:
                continue
            prec = lcs / len(cand)
            rec = lcs / len(ref)
            f = (1 + _ROUGE_BETA ** 2) * prec * rec / (rec + _ROUGE_BETA ** 2 * prec)
            best = max(best, f)
        total += best
    return 100.0 * total / len(corpus.pairs)


_CIDER_SIGMA = 6.0


def cider(corpus: EvalCorpus) -> float:
    """CIDEr-D: TF-IDF n-gram consensus with Gaussian length penalty, x10.

    Document frequencies come from the evaluation corpus's own reference
    sets, matching the original metric's convention.
    """
    if len(corpus.pairs) < 2:
        raise ValueError("CIDEr needs a corpus of at least 2 entries")
    num_images = len(corpus.pairs)
    doc_freq = [Counter() for _ in range(4)]
    for _, refs in corpus.pairs:
        for k in range(1, 5):
            doc_freq[k - 1].update(set().union(*(_ngram_counts(r, k) for r in refs)))
    log_n = math.log(num_images)

    def tfidf(tokens: list[str], k: int) -> tuple[dict, float]:
        counts = _ngram_counts(tokens, k)
        vec = {g: c * (log_n - math.log(max(1.0, doc_freq[k - 1][g])))
               for g, c in counts.items()}
        norm = math.sqrt(sum(v * v for v in vec.values()))
        return vec, norm

    total = 0.0
    for cand, refs in corpus.pairs:
        per_order = []
        for k in range(1, 5):
            cvec, cnorm = tfidf(cand, k)
            acc = 0.0
            for ref in refs:
                rvec, rnorm = tfidf(ref, k)
                if cnorm == 0.0 or rnorm == 0.0:
                    continue
                sim = sum(min(cv, rvec[g]) * rvec[g]
                          for g, cv in cvec.items() if g in rvec)
                delta = len(cand) - len(ref)
                penalty = math.exp(-delta * delta / (2 * _CIDER_SIGMA ** 2))
                acc += penalty * sim / (cnorm * rnorm)
            per_order.append(10.0 * acc / len(refs))
        total += sum(per_order) / 4.0
    return total / num_images
