"""Sentence splitting and polarity scoring on the shared 0..4 scale.

The built-in scorer is a small valence lexicon (token -> -2..+2) with a
"not"/"never" flip applied to valence tokens at most two positions after
the negator. Sentence valence is the sum of (possibly flipped) token
valences, folded into the five polarity bins:

    valence <= -2 -> 0, -1 -> 1, 0 -> 2, +1 -> 3, valence >= +2 -> 4

External scorers plug in through the same ``score(text) -> 0..4`` surface;
a failing scorer marks the sentence unscored instead of aborting the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Protocol, runtime_checkable

__all__ = [
    "LexiconScorer",
    "PolarityScorer",
    "ScorerError",
    "Sentence",
    "bin_valence",
    "default_lexicon",
    "load_lexicon",
    "score_polarity",
    "score_review",
    "score_sentences",
    "split_sentences",
]

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+|\n+")
_TOKEN = re.compile(r"[a-z0-9']+")

NEGATORS = frozenset({"not", "never"})
NEGATION_WINDOW = 2


class ScorerError(Exception):
    """A polarity scorer failed or returned something outside 0..4."""


@dataclass(frozen=True, slots=True)
class Sentence:
    """One sentence of a review body. ``polarity`` is None when unscored."""

    review_id: str
    index: int
    text: str
    polarity: int | None


def split_sentences(body: str) -> list[str]:
    """Split a review body into sentences.

    Breaks occur after terminal punctuation (``.``, ``!``, ``?``) followed by
    whitespace, and at newlines. A non-empty body without terminal
    punctuation is one sentence; an empty or whitespace-only body yields no
    sentences. Joining the result with single spaces reproduces the body up
    to whitespace normalisation.
    """
    parts = (p.strip() for p in _SENTENCE_BREAK.split(body))
    return [p for p in parts if p]


def bin_valence(valence: int) -> int:
    if valence <= -2:
        return 0
    if valence >= 2:
        return 4
    return valence + 2


@runtime_checkable
class PolarityScorer(Protocol):
    name: str

    def score(self, text: str) -> int:
        """Return the polarity bin (0..4) for one sentence."""


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

    Each scorer remembers the valence of every distinct token it has
    stemmed, so a token is stemmed once per scorer.
    """

    name = "lexicon"

    def __init__(self, lexicon: Mapping[str, int] | None = None) -> None:
        self._lexicon = default_lexicon() if lexicon is None else lexicon
        self._memo: dict[str, int] = {}

    def valence(self, text: str) -> int:
        tokens = _TOKEN.findall(text.lower())
        memo = self._memo
        total = 0
        for i, token in enumerate(tokens):
            value = memo.get(token)
            if value is None:
                value = memo[token] = _lookup(self._lexicon, token)
            if value == 0:
                continue
            if not NEGATORS.isdisjoint(tokens[max(0, i - NEGATION_WINDOW) : i]):
                value = -value
            total += value
        return total

    def score(self, text: str) -> int:
        return bin_valence(self.valence(text))


def score_polarity(sentence: str, scorer: PolarityScorer) -> int:
    """Score one sentence, enforcing the 0..4 contract on the result."""
    value = scorer.score(sentence)
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= 4:
        raise ScorerError(f"scorer {scorer.name!r} returned {value!r}, expected an int in 0..4")
    return value


def score_sentences(body: str, scorer: PolarityScorer) -> list[tuple[int, str, int | None]]:
    """Split and score a review body as (index, text, polarity) tuples.

    A scorer failure marks its sentence unscored (polarity None).
    """
    scored: list[tuple[int, str, int | None]] = []
    for index, text in enumerate(split_sentences(body)):
        try:
            polarity: int | None = score_polarity(text, scorer)
        except Exception:
            polarity = None
        scored.append((index, text, polarity))
    return scored


def score_review(review_id: str, body: str, scorer: PolarityScorer) -> list[Sentence]:
    """Split and score a review body; scorer failures mark sentences unscored."""
    return [
        Sentence(review_id, index, text, polarity)
        for index, text, polarity in score_sentences(body, scorer)
    ]


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
    with resources.as_file(resources.files("reviewpulse").joinpath("data/lexicon.tsv")) as path:
        return load_lexicon(path)
