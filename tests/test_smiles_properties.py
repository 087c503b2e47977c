"""Tokenizer and validator properties on generated text (hypothesis)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from moljoint.smiles import (
    TokenizeError, TooLongError, ValidityReport,
    build_vocabulary, detokenize, split_tokens, tokenize, validate,
)

_SMILES_CHARS = "BCNOPSFIbcnosp0123456789()=#:~./\\-[]%@+HlrZ "
# whole tokens and token fragments, so draws often split and sometimes parse
_SMILES_PIECES = ["C", "c", "N", "n", "O", "o", "Cl", "Br", "(", ")", "=", "#", "1", "2",
                  "%12", "[nH]", "[NH4+]", "[C@@H]", "[", "]", "%", "/", "\\"]
_smiles_like = st.one_of(
    st.lists(st.sampled_from(_SMILES_PIECES), min_size=1, max_size=40).map("".join),
    st.text(alphabet=_SMILES_CHARS, max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(_smiles_like)
def test_split_tokens_partitions_its_input(s):
    try:
        tokens = split_tokens(s)
    except TokenizeError:
        return
    assert "".join(tokens) == s
    assert all(tokens)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_smiles_like, st.text()), st.booleans())
def test_validate_never_raises(s, check_valence):
    report = validate(s, check_valence=check_valence)
    assert isinstance(report, ValidityReport)
    assert report.valid == (report.reason is None)
    assert (report.features is None) == (not report.valid)


@settings(max_examples=300, deadline=None)
@given(_smiles_like)
def test_detokenize_inverts_tokenize(s):
    try:
        n_tokens = len(split_tokens(s))
    except TokenizeError:
        assume(False)
    vocab = build_vocabulary([s])
    if n_tokens + 2 > 32:
        with pytest.raises(TooLongError):
            tokenize(s, vocab, 32)
    else:
        assert detokenize(tokenize(s, vocab, 32), vocab) == s
