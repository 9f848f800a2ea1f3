"""Sentence splitting and lexicon polarity scoring.

The splitting and binning tests each carry their own oracle: a literal
re.split written here for splitting, and a from-the-definition fold of
known valence sums for binning. The rule tests score through the
per-sentence ``SentenceScorer`` of ``tests/oracles.py``. The stemming
test's oracle stems every token on the spot, where the kernel codes each
word once into its stem table. The ``sentence_bins`` kernel, and
``metrics.score_bodies`` and ``metrics.score_reviews`` over it, are held
to the oracle's ``score_sentences``, one sentence at a time.
"""
from __future__ import annotations

import itertools
import random
import re
from types import MappingProxyType
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewpulse import metrics
from reviewpulse.metrics import score_bodies, score_reviews
from reviewpulse.sentiment import (
    LexiconScorer,
    _stem_candidates,
    default_lexicon,
    load_lexicon,
    split_sentences,
)

from oracles import (
    ScorerError,
    SentenceScorer,
    bin_valence,
    score_polarity,
    score_review,
    score_sentences,
)


def test_empty_body_yields_nothing() -> None:
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_two_sentence_split() -> None:
    assert split_sentences("Great app. Crashes a lot!") == ["Great app.", "Crashes a lot!"]


def test_unterminated_body_is_one_sentence() -> None:
    assert split_sentences("no punctuation here") == ["no punctuation here"]


def test_decimal_point_does_not_split() -> None:
    assert split_sentences("Version 3.5 is fine.") == ["Version 3.5 is fine."]


def test_split_counts_match_reference_regex_oracle() -> None:
    rng = random.Random(99)
    words = ["app", "update", "crash", "menu", "fine", "3.5", "why?", "ok"]
    enders = [". ", "! ", "? ", "\n", ".\n\n", " "]
    texts = []
    for _ in range(500):
        chunks = []
        for _ in range(rng.randrange(1, 6)):
            chunks.append(" ".join(rng.choice(words) for _ in range(rng.randrange(1, 5))))
            chunks.append(rng.choice(enders))
        texts.append("".join(chunks))

    oracle_break = re.compile(r"(?<=[.!?])\s+|\n+")
    for text in texts:
        expected = [p.strip() for p in oracle_break.split(text)]
        expected = [p for p in expected if p]
        assert split_sentences(text) == expected


def test_splitting_loses_no_text() -> None:
    bodies = [
        "One. Two!  Three?\nFour",
        "Trailing space. ",
        "\n\nLeading breaks. End.",
    ]
    for body in bodies:
        parts = split_sentences(body)
        assert "".join(body.split()) == "".join("".join(p.split()) for p in parts)


def test_bin_valence_table() -> None:
    # (valence, bin) pairs straight from the folding rule.
    table = [(-5, 0), (-2, 0), (-1, 1), (0, 2), (1, 3), (2, 4), (6, 4)]
    for valence, expected in table:
        assert bin_valence(valence) == expected


def test_neutral_sentence_scores_two() -> None:
    scorer = SentenceScorer()
    assert scorer.score("the and of it.") == 2


def test_strong_positive_sentence_scores_four() -> None:
    scorer = SentenceScorer()
    assert scorer.score("excellent, love it") == 4


def test_thousand_lexicon_sentences_match_binning_oracle() -> None:
    lexicon = dict(default_lexicon())
    scorer = SentenceScorer(lexicon)
    tokens = sorted(lexicon)
    rng = random.Random(2024)
    for _ in range(1000):
        picked = [rng.choice(tokens) for _ in range(rng.randrange(1, 6))]
        text = " ".join(picked) + "."
        total = sum(lexicon[t] for t in picked)
        expected = 0 if total <= -2 else 4 if total >= 2 else total + 2
        assert scorer.score(text) == expected, text


def test_negation_flips_within_two_tokens() -> None:
    scorer = SentenceScorer()
    assert scorer.score("good app.") == 3
    assert scorer.score("not good.") == 1
    assert scorer.score("not very good.") == 1  # one token in between
    assert scorer.score("not at all good app.") == 3  # out of the window
    assert scorer.score("never crashes.") == 4  # flipped -2


def test_stemming_reaches_base_forms() -> None:
    scorer = SentenceScorer()
    assert scorer.valence("crashes") == -2
    assert scorer.valence("loved") == 2
    assert scorer.valence("slowly") == -1
    assert scorer.valence("ads") == -1


def test_scorer_contract_enforced() -> None:
    class Bad:
        name = "bad"

        def score(self, text: str) -> int:
            return 7

    class Lies:
        name = "lies"

        def score(self, text: str) -> int:
            return True  # bool is not an acceptable bin

    with pytest.raises(ScorerError):
        score_polarity("x", Bad())
    with pytest.raises(ScorerError):
        score_polarity("x", Lies())


def test_failing_scorer_marks_sentence_unscored() -> None:
    class Flaky:
        name = "flaky"
        calls = 0

        def score(self, text: str) -> int:
            Flaky.calls += 1
            if "bad" in text:
                raise RuntimeError("backend down")
            return 2

    sentences = score_review("r1", "this is bad. this is fine.", Flaky())
    assert [s.polarity for s in sentences] == [None, 2]
    assert [s.index for s in sentences] == [0, 1]


def test_adding_positive_token_never_lowers_score() -> None:
    # Monotonicity holds for negator-free sentences: a +2 token can only
    # push the valence sum up.
    scorer = SentenceScorer()
    rng = random.Random(5)
    tokens = sorted(default_lexicon())
    for _ in range(200):
        base = " ".join(rng.choice(tokens) for _ in range(rng.randrange(0, 4)))
        assert scorer.score(base + " excellent.") >= scorer.score(base + ".")


def test_load_lexicon_validation(tmp_path) -> None:
    good = tmp_path / "lex.tsv"
    good.write_text("# comment\nfoo\t2\nbar\t-1\n", encoding="utf-8")
    assert load_lexicon(good) == {"foo": 2, "bar": -1}
    for bad_line in ("foo 2", "foo\tx", "foo\t0", "foo\t3"):
        bad = tmp_path / "bad.tsv"
        bad.write_text(bad_line + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_lexicon(bad)


def _stemmed_valence(lexicon: Mapping[str, int], text: str) -> int:
    # Each token takes the value of its first stem candidate in the lexicon;
    # "not"/"never" up to two tokens before it flips that value.
    tokens = re.findall(r"[a-z0-9']+", text.lower())
    total = 0
    for i, token in enumerate(tokens):
        value = next((lexicon[c] for c in _stem_candidates(token) if c in lexicon), 0)
        if any(t in ("not", "never") for t in tokens[max(0, i - 2) : i]):
            value = -value
        total += value
    return total


# Keys ending in "y" and "e", short keys, 0 values, and "lik" next to "like"
# so that "likes" reaches "lik" first; a read-only Mapping, not a dict.
_CUSTOM_LEXICON = MappingProxyType(
    {"happy": 2, "easy": 1, "dy": -1, "like": 1, "lik": -2, "love": 2, "hate": -2,
     "e": 1, "tie": 1, "slow": -1, "meh": 0, "fine": 0, "ok": 1, "crash": -2}
)
_SUFFIXES = ("", "s", "es", "ed", "d", "ing", "ly", "ies", "ily")
_FILLERS = ("not", "never", "no", "it", "the", "app", "a", "so", "3", "42", "1.5", "'", "don't", "it's")


@st.composite
def _sentence(draw, keys: list[str]) -> str:
    words = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 3))
        if kind <= 1:
            # A key, whole or cut (a cut "happy" + "ies" is "happies"), plus a suffix.
            key = draw(st.sampled_from(keys))
            cut = draw(st.sampled_from([len(key), len(key) - 1, draw(st.integers(0, len(key)))]))
            words.append(key[:cut] + draw(st.sampled_from(_SUFFIXES)))
        elif kind == 2:
            words.append(draw(st.sampled_from(_FILLERS)))
        else:
            words.append(draw(st.text(alphabet="abdeilnorsty'0", max_size=4)))
    sentence = draw(st.sampled_from([" ", ", ", "-", "'", " not "])).join(words)
    return sentence.upper() if draw(st.booleans()) else sentence


@pytest.mark.parametrize("custom", [False, True], ids=["built-in", "custom"])
@settings(max_examples=300)
@given(data=st.data())
def test_stem_table_matches_per_token_stemming(custom: bool, data) -> None:
    lexicon = _CUSTOM_LEXICON if custom else default_lexicon()
    scorer = LexiconScorer(lexicon) if custom else LexiconScorer()
    text = data.draw(_sentence(sorted(lexicon)))
    expected = _stemmed_valence(lexicon, text)
    assert SentenceScorer(lexicon).valence(text) == expected
    # The text holds no sentence break: one sentence, or none when blank.
    bins = [bin_valence(expected)] if text.strip() else []
    assert scorer.sentence_bins([text])[0].tolist() == bins
    assert scorer.sentence_bins([text])[0].tolist() == bins  # every word now from the scorer's stem table


# Words: negators, lexicon words with inflections, and characters that
# lowercase into token characters (U+0130, U+212A) or by context (capital
# sigma). Each word is followed by a separator: whitespace that str.split
# and re's \s both know (\r, \x1c..\x1f, \x85 and U+3000 among them), NUL,
# terminal punctuation, or nothing.
_ODD_WORDS = ("not", "never", "3.5", "'", "don't", "''", "?!", "\u0130", "\u212a", "\u03a3", "\U0001f600")
_SEPARATORS = (" ", " ", " ", "", ". ", "! ", "? ", ".", "...", "\n", " \n ", "\r", "\t", "\x00", "\x1c",
               "\x1d", "\x1e", "\x1f", "\x85", "\u3000")


@st.composite
def _bodies(draw, keys: list[str]) -> list[str]:
    """Body lists: arbitrary text, or words and separators; empty, blank
    and repeated bodies."""
    word = st.one_of(
        st.sampled_from(_ODD_WORDS),
        st.builds(str.__add__, st.sampled_from(keys), st.sampled_from(_SUFFIXES)),
    )
    words = st.lists(st.builds(str.__add__, word, st.sampled_from(_SEPARATORS)), max_size=10).map("".join)
    body = st.one_of(st.text(), words, words.map(str.upper), st.sampled_from(["", " ", "\n\n", "\t\u3000"]))
    bodies = draw(st.lists(body, max_size=6))
    if bodies:
        bodies += draw(st.lists(st.sampled_from(bodies), max_size=4))
    return bodies


@pytest.mark.parametrize("custom", [False, True], ids=["built-in", "custom"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_score_bodies_match_the_per_sentence_path(custom: bool, data) -> None:
    lexicon = _CUSTOM_LEXICON if custom else default_lexicon()
    scorer = LexiconScorer(lexicon) if custom else LexiconScorer()
    oracle = SentenceScorer(lexicon)
    # The second list meets coded words, and is scored in blocks of two
    # characters: one body a block, or a run of empty ones and the next.
    for block in (metrics.SCORE_BLOCK, 2):
        bodies = data.draw(_bodies(sorted(lexicon)))
        with mock.patch.object(metrics, "SCORE_BLOCK", block):
            scores = score_bodies(bodies, scorer)
        codes: dict[str, int] = {}
        assert scores.code.tolist() == [codes.setdefault(body, len(codes)) for body in bodies]
        assert (scores.first.dtype, type(scores.bins), len(scores.first)) == (np.int64, bytes, len(codes) + 1)
        for body, code in codes.items():
            got = scores.bins[scores.first[code] : scores.first[code + 1]]
            assert got == bytes(p for _, _, p in score_sentences(body, oracle))


@pytest.mark.parametrize("custom", [False, True], ids=["built-in", "custom"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sentence_bins_match_the_oracle_sentence_for_sentence(custom: bool, data) -> None:
    lexicon = _CUSTOM_LEXICON if custom else default_lexicon()
    scorer = LexiconScorer(lexicon) if custom else LexiconScorer()
    reviews_scorer = LexiconScorer(lexicon) if custom else LexiconScorer()
    oracle = SentenceScorer(lexicon)
    for _ in range(2):  # the second list meets coded words
        bodies = data.draw(_bodies(sorted(lexicon)))
        want = [score_sentences(body, oracle) for body in bodies]
        bins, owner = scorer.sentence_bins(bodies)
        assert (bins.dtype, owner.dtype) == (np.int64, np.int64)
        assert list(zip(owner.tolist(), bins.tolist())) == [(k, p) for k, s in enumerate(want) for _, _, p in s]
        assert score_reviews(bodies, reviews_scorer) == want


# Empty, blank and "\n"-split bodies and non-ASCII text, each of two apps
# repeating bodies of its own and of the other.
_APP_A = ["", " ", "great app.\nnot good", "\n\n", "Ünïcödé is great. ça marche!", "never bad?\n\nslow",
          "great app.\nnot good", "", "café 😀. awful\u3000crash!"]
_APP_B = ["never bad?\n\nslow", "\t\u3000", "great app.\nnot good", "GREAT app. Not Good", "\t\u3000", "ok"]


@pytest.mark.parametrize("block", [metrics.SCORE_BLOCK, 5, 1])
@pytest.mark.parametrize("hashing", ["one hash", "three hashes"])
def test_body_codes_agree_with_the_oracle_under_colliding_hashes(hashing: str, block: int) -> None:
    # Each body is a str whose hash the fake gives, so different bodies share
    # a hash and only comparing the bodies themselves tells them apart; every
    # body gets the bins of the per-sentence oracle and every repeat its
    # first occurrence's code.
    fake = {"one hash": lambda text: 0, "three hashes": lambda text: hash(text) % 3}[hashing]
    colliding = type("Colliding", (str,), {"__hash__": lambda self: fake(str(self))})
    oracle = SentenceScorer(default_lexicon())
    rows = _APP_A + _APP_B
    assert len({hash(colliding(body)) for body in rows}) <= 3
    with mock.patch.object(metrics, "SCORE_BLOCK", block):
        scores = score_bodies([colliding(body) for body in rows], LexiconScorer())
    codes: dict[str, int] = {}
    assert scores.code.tolist() == [codes.setdefault(body, len(codes)) for body in rows]
    assert len(scores.first) == len(codes) + 1
    for body, code in zip(rows, scores.code.tolist()):
        assert list(scores.bins[scores.first[code] : scores.first[code + 1]]) == [
            p for _, _, p in score_sentences(body, oracle)]
    # Each app's rows read alone give the app's bins, row after row.
    for app, rows_of_app in ((slice(0, len(_APP_A)), _APP_A), (slice(len(_APP_A), None), _APP_B)):
        at, bins = scores[app].gather()
        want = [[p for _, _, p in score_sentences(body, oracle)] for body in rows_of_app]
        assert at.tolist() == [0, *itertools.accumulate(map(len, want))]
        assert bins.tolist() == list(itertools.chain.from_iterable(want))


def test_score_bodies_refuse_a_valence_outside_the_scale() -> None:
    assert SentenceScorer({"great": 3}).score("great") == 4
    scorer = LexiconScorer({"great": 3, "good": 1})
    # Nothing of a refused call is kept: the word is refused again, in a
    # block of its own or not, and the scorer still scores the others.
    for block in (metrics.SCORE_BLOCK, 1):
        with mock.patch.object(metrics, "SCORE_BLOCK", block), pytest.raises(ValueError, match="outside -2..\\+2"):
            score_bodies(["good", "great"], scorer)
    assert list(score_bodies(["good"], scorer).bins) == [3]


def test_sentence_tuples_agree_with_score_review() -> None:
    class Flaky:
        name = "flaky"

        def score(self, text: str) -> int:
            if "bad" in text:
                raise RuntimeError("backend down")
            return 2

    class Bad:
        name = "bad"

        def __init__(self, value: object) -> None:
            self.value = value

        def score(self, text: str) -> object:
            return self.value

    body = "bad, it crashed. this is fine!\nnot bad, never crashes?"
    expected = {"flaky": [None, 2, None], "bad": [None, None, None], "lexicon": [0, 3, 4]}
    for scorer in (Flaky(), Bad(7), Bad(True), SentenceScorer()):
        tuples = score_sentences(body, scorer)
        sentences = score_review("r1", body, scorer)
        assert [(s.index, s.text, s.polarity) for s in sentences] == tuples
        assert {s.review_id for s in sentences} == {"r1"}
        assert [p for _, _, p in tuples] == expected[scorer.name]
