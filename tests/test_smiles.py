"""Tokenizer, vocabulary, and validator tests."""

import numpy as np
import pytest

from moljoint import datagen
from moljoint.numerics import Rng
from moljoint.smiles import (
    BOS_ID, EOS_ID, MASK_ID, PAD_ID,
    TokenSequence, TooLongError, UnknownTokenError, Vocabulary,
    build_vocabulary, detokenize, split_tokens, tokenize, validate,
)


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(["CCO", "CN", "CCl", "c1ccccc1[nH]", "C%12CCCCCCCCCCC%12", "C(=O)O"])


# ------------------------------------------------------------------- tokenizer

def test_tokenize_cco(vocab):
    seq = tokenize("CCO", vocab)
    toks = [vocab.token_of(i) for i in seq.ids]
    assert toks == ["<bos>", "C", "C", "O", "<eos>"]


def test_tokenize_chlorine_is_one_token(vocab):
    seq = tokenize("CCl", vocab)
    toks = [vocab.token_of(i) for i in seq.ids]
    assert toks == ["<bos>", "C", "Cl", "<eos>"]


def test_bracket_group_is_one_token(vocab):
    assert split_tokens("c1ccccc1[nH]")[-1] == "[nH]"


def test_percent_ring_pair_is_one_token():
    assert "%12" in split_tokens("C%12CC%12")


def test_tokenization_is_a_partition():
    for s in ["CCO", "c1ccccc1[nH]", "C(=O)Cl", "C%12CC%12", "N#CC1CC1"]:
        assert "".join(split_tokens(s)) == s


def test_unknown_substring_is_hard_error(vocab):
    with pytest.raises(UnknownTokenError):
        tokenize("CXe", vocab)  # 'X' matches no class
    with pytest.raises(UnknownTokenError):
        tokenize("CCOQ", vocab)


def test_out_of_vocabulary_token_is_hard_error():
    vocab = build_vocabulary(["CCO"])
    with pytest.raises(UnknownTokenError):
        tokenize("CCN", vocab)  # tokenizable, but N is not in this vocabulary


def test_too_long_is_error(vocab):
    with pytest.raises(TooLongError):
        tokenize("C" * 200, vocab)


def test_detokenize_roundtrip(vocab):
    for s in ["CCO", "CCl", "c1ccccc1[nH]", "C(=O)O"]:
        assert detokenize(tokenize(s, vocab), vocab) == s


def test_detokenize_specials_only_is_empty(vocab):
    assert detokenize([BOS_ID, EOS_ID], vocab) == ""


def test_detokenize_bad_id(vocab):
    with pytest.raises(IndexError):
        detokenize([BOS_ID, 10_000, EOS_ID], vocab)


def test_corpus_roundtrip_property():
    corpus = datagen.toy_corpus(300, seed=3)
    vocab = build_vocabulary(corpus)
    for s in corpus:
        assert detokenize(tokenize(s, vocab), vocab) == s


# ------------------------------------------------------------------ vocabulary

def test_specials_pinned_at_fixed_ids(vocab):
    assert (BOS_ID, EOS_ID, PAD_ID, MASK_ID) == (0, 1, 2, 3)
    assert vocab.token_of(0) == "<bos>"
    assert vocab.token_of(3) == "<mask>"


def test_vocabulary_deterministic_order():
    v1 = build_vocabulary(["CCO", "CN"])
    v2 = build_vocabulary(["CN", "CCO"])
    assert v1.tokens == v2.tokens
    assert v1.tokens == ("<bos>", "<eos>", "<pad>", "<mask>", "C", "N", "O")


def test_vocabulary_contains_percent_token():
    v = build_vocabulary(["C%12CCCCCCCCCCC%12"])
    assert "%12" in v.tokens


def test_empty_corpus_is_error():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_build_vocabulary_error_reporting():
    with pytest.raises(UnknownTokenError, match="line 2"):
        build_vocabulary(["CCO", "CXQ"])


def test_vocabulary_line_roundtrip(vocab):
    assert Vocabulary.from_lines(vocab.to_lines()) == vocab


def test_token_sequence_invariants():
    with pytest.raises(ValueError):
        TokenSequence((EOS_ID, BOS_ID))  # must start with BOS
    with pytest.raises(ValueError):
        TokenSequence((BOS_ID, 5, 6))  # no EOS
    with pytest.raises(ValueError):
        TokenSequence((BOS_ID, 5, EOS_ID, 6))  # non-PAD after EOS
    with pytest.raises(ValueError):
        TokenSequence((BOS_ID, MASK_ID, EOS_ID))  # stored MASK
    TokenSequence((BOS_ID, 5, EOS_ID, PAD_ID, PAD_ID))  # fine


# ------------------------------------------------------------------- validator

def test_validator_worked_examples():
    assert validate("C1CC1").valid
    assert not validate("C1CC").valid  # unclosed ring
    assert not validate("C(C").valid  # unbalanced parenthesis


@pytest.mark.parametrize("bad,reason_part", [
    ("", "empty"),
    ("=CC", "bond"),
    ("CC=", "trailing bond"),
    ("C()C", "empty branch"),
    ("C)C", "unbalanced"),
    ("(CC)", "branch does not follow an atom"),
    ("1CC1", "ring digit"),
    ("C=1CC-1", "opened with"),
    ("C11", "itself"),
    ("C==C", "two bond symbols"),
    ("C[]C", "no token class"),
    ("C[H+2X]O", "malformed bracket"),
    ("C.C.", "trailing '.'"),
    ("C(.C)C", "'.' in illegal position"),
])
def test_validator_rejects(bad, reason_part):
    report = validate(bad)
    assert not report.valid
    assert reason_part in report.reason


@pytest.mark.parametrize("good", [
    "C", "CCO", "C(=O)O", "c1ccccc1", "C1CC1", "C%12CCCCCCCCCCC%12",
    "[NH4+]", "[13CH4]", "CC(C)(C)C", "N#N", "C/C=C/C", "CC.OC",
    "C1CC2CCC1CC2", "[C@@H](N)C",
])
def test_validator_accepts(good):
    report = validate(good)
    assert report.valid, report


def test_generator_output_always_valid():
    rng = Rng(99)
    for _ in range(400):
        s = datagen.random_molecule(rng)
        assert validate(s, check_valence=True).valid, s


def test_validator_sensitivity_to_deletions():
    corpus = [s for s in datagen.toy_corpus(300, seed=5) if ("(" in s or "1" in s or "2" in s)]
    assert len(corpus) > 50
    for s in corpus:
        for ch in "()12":
            i = s.find(ch)
            if i >= 0:
                mutated = s[:i] + s[i + 1:]
                assert not validate(mutated).valid, (s, mutated)


def test_valence_check_catches_overbonded_carbon():
    assert validate("C(C)(C)(C)(C)C", check_valence=False).valid
    report = validate("C(C)(C)(C)(C)C", check_valence=True)
    assert not report.valid and "valence" in report.reason
    assert validate("O=C=O", check_valence=True).valid
    assert not validate("O(=C)=O", check_valence=True).valid


# -------------------------------------------------------------------- features

def test_syntax_features_worked_example():
    f = validate("C1CC1(N)CO").features
    assert f.n_tokens == 10
    assert f.ring_pairs == 1
    assert f.branch_depth == 1
    assert f.hetero_fraction == pytest.approx(2 / 6)


def test_syntax_features_rejects_invalid():
    assert validate("C1CC").features is None
