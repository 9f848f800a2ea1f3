"""Sentence splitting and polarity scoring on the shared 0..4 scale.

The scorer is a small valence lexicon (token -> -2..+2) with a
"not"/"never" flip applied to valence tokens at most two positions after
the negator. Sentence valence is the sum of (possibly flipped) token
valences, folded into the five polarity bins:

    valence <= -2 -> 0, -1 -> 1, 0 -> 2, +1 -> 3, valence >= +2 -> 4

``LexiconScorer.sentence_bins`` is the one scoring kernel: it gives every
sentence of a whole list of bodies its bin and its body's index, in order.
Each distinct word is tokenised once per scorer, and the sentences are
cut, negated and summed as arrays. ``metrics.score_bodies`` is its one
caller: it scores each distinct body once, in blocks of about 16 KiB of
text, and returns the bins as columns with one code per body, from which
the day sums take their totals and the correlated events' windows their
scored sentences.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LexiconScorer",
    "default_lexicon",
    "load_lexicon",
    "split_sentences",
]

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+|\n+")

NEGATORS = frozenset({"not", "never"})
NEGATION_WINDOW = 2

# sentence_bins codes a lowercased word as one letter per token, "ABCDE" for
# valence -2..+2 and "abcde" for a negator of that valence, then one end
# mark: "\v" where the word ends in terminal punctuation, which breaks the
# sentence when whitespace follows, and "\n" otherwise. Both marks are line
# breaks to ``str.splitlines`` and no letter is one.
_WORD_PARTS = re.compile(r"[a-z0-9']+|[.!?] | ")
_LETTERS = "ABCDEabcde"
_WORD_END, _SENTENCE_END = "\n", "\v"
_END_MARKS = {" ": _WORD_END, ". ": _SENTENCE_END, "! ": _SENTENCE_END, "? ": _SENTENCE_END}
_CODE_VALENCE = np.zeros(128, dtype=np.int64)
_CODE_VALENCE[[ord(c) for c in _LETTERS]] = [-2, -1, 0, 1, 2] * 2
_CODE_NEGATES = np.zeros(128, dtype=bool)
_CODE_NEGATES[[ord(c) for c in _LETTERS[5:]]] = True


def split_sentences(body: str) -> list[str]:
    """Split a review body into sentences.

    Breaks occur after terminal punctuation (``.``, ``!``, ``?``) followed by
    whitespace, and at newlines. A non-empty body without terminal
    punctuation is one sentence; an empty or whitespace-only body yields no
    sentences. Joining the result with single spaces reproduces the body up
    to whitespace normalisation.
    """
    return list(filter(None, map(str.strip, _SENTENCE_BREAK.split(body))))


def _stem_candidates(token: str) -> Iterator[str]:
    # The first candidate found in the lexicon wins, so order matters
    # wherever a token yields more than one: the exact form comes first,
    # and "likes" tries "lik" (strip "es") before "like" (strip "s").
    yield token
    if len(token) <= 3:
        return
    if token.endswith("ies"):
        yield token[:-3] + "y"
    if token.endswith("ily"):
        yield token[:-3] + "y"
    if token.endswith("es"):
        yield token[:-2]
    if token.endswith("s"):
        yield token[:-1]
    if token.endswith("ed"):
        yield token[:-2]
        yield token[:-1]
    if token.endswith("ing") and len(token) > 4:
        yield token[:-3]
        yield token[:-3] + "e"
    if token.endswith("ly"):
        yield token[:-2]


def _lookup(lexicon: Mapping[str, int], token: str) -> int:
    for candidate in _stem_candidates(token):
        value = lexicon.get(candidate)
        if value is not None:
            return value
    return 0


class LexiconScorer:
    """Deterministic lexicon scorer; the packaged lexicon is the default.

    Each scorer remembers the code of every distinct lowercased word it has
    split and of every token it has stemmed, so a word is split and a token
    stemmed once per scorer.
    """

    def __init__(self, lexicon: Mapping[str, int] | None = None) -> None:
        self._lexicon = default_lexicon() if lexicon is None else lexicon
        self._words: dict[str, str] = {}  # lowercased word -> its code
        self._parts: dict[str, str] = dict(_END_MARKS)  # token -> letter, and the end marks

    def _learn(self, words: Sequence[str]) -> None:
        """Code each of ``words`` (distinct, lowercased, no whitespace)."""
        # Joined by spaces, each word is its tokens, then a space that follows
        # terminal punctuation or not; no whitespace is inside a word.
        parts = _WORD_PARTS.findall(" ".join(words) + " ")
        codes, lexicon = self._parts, self._lexicon
        for token in set(parts).difference(codes):
            value = _lookup(lexicon, token)
            if not -2 <= value <= 2:
                raise ValueError(f"lexicon valence {value!r} of {token!r} is outside -2..+2")
            codes[token] = _LETTERS[value + 2 + 5 * (token in NEGATORS)]
        self._words.update(zip(words, "".join(map(codes.__getitem__, parts)).splitlines(keepends=True)))

    def sentence_bins(self, bodies: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each sentence's polarity bin and the index of its body, as int64
        arrays over the bodies' sentences in order: body by body, and each
        body's sentences in ``split_sentences`` order.

        A body is lowercased and cut into lines at ``\\n`` and each line into
        words at whitespace, all bodies at once. A sentence starts at a
        line's first word and after a word that ends in ``.``, ``!`` or
        ``?``, as ``split_sentences`` cuts it; a sentence without a token
        scores 2. Boundaries come from the word counts per line and per body,
        so a body may hold any character.
        """
        # No character lowercases into or out of whitespace or ".!?", and
        # str.split() splits where re's \s matches (both hold for every code
        # point), so these are the words of split_sentences' sentences.
        lines = list(map(str.split, map(str.lower, bodies), repeat("\n")))
        words_per_line = list(map(str.split, chain.from_iterable(lines)))
        words = list(chain.from_iterable(words_per_line))
        known = self._words
        fresh = set(words).difference(known)
        if fresh:
            self._learn(list(fresh))
        code = np.frombuffer("".join(map(known.__getitem__, words)).encode("ascii"), dtype=np.uint8)
        n_lines = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
        n_words = np.fromiter(map(len, words_per_line), dtype=np.int64, count=len(words_per_line))
        ends = code < ord("A")  # one end mark per word, in word order
        starts = np.zeros(len(words) + 1, dtype=bool)
        starts[np.cumsum(n_words) - n_words] = True  # an empty line's entry is the next word's
        starts[1:] |= code[ends] == ord(_SENTENCE_END)
        starts = starts[:-1]
        word_sentence = np.cumsum(starts) - 1
        sentence_body = np.repeat(np.repeat(np.arange(len(bodies), dtype=np.int64), n_lines), n_words)[starts]
        tokens = ~ends
        token_sentence = word_sentence[(np.cumsum(ends) - ends)[tokens]]
        code = code[tokens]
        valence = _CODE_VALENCE[code]
        negated = np.zeros(len(code), dtype=bool)
        for k in range(1, NEGATION_WINDOW + 1):
            negated[k:] |= _CODE_NEGATES[code[:-k]] & (token_sentence[k:] == token_sentence[:-k])
        valence[negated] *= -1
        # A bincount weight is a float64; these sums are small integers, so exact.
        sums = np.bincount(token_sentence, weights=valence, minlength=len(sentence_body)).astype(np.int64)
        return np.minimum(np.maximum(sums, -2), 2) + 2, sentence_body


def load_lexicon(path: str | Path) -> dict[str, int]:
    """Load a token<TAB>valence lexicon file (valence integer in -2..+2)."""
    lexicon: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'token<TAB>valence'")
        token, raw_valence = parts[0].strip().lower(), parts[1].strip()
        try:
            valence = int(raw_valence)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: valence {raw_valence!r} is not an integer") from exc
        if not -2 <= valence <= 2 or valence == 0:
            raise ValueError(f"{path}:{line_no}: valence must be in -2..+2 and nonzero")
        lexicon[token] = valence
    return lexicon


@lru_cache(maxsize=1)
def default_lexicon() -> Mapping[str, int]:
    with resources.as_file(resources.files(__package__).joinpath("data/lexicon.tsv")) as path:
        return load_lexicon(path)
