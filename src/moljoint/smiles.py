"""SMILES tokenization, vocabulary management, and syntactic validation.

The tokenizer is regex-class based: bracket atoms ``[...]`` are one token,
two-letter elements Cl and Br are one token, ring-bond digits, ``%NN``
pairs, bond symbols, and parentheses are single tokens. Tokenization is a
partition: concatenating the emitted tokens reconstructs the input.

Validity here means syntax (tokenizable, balanced branches, paired ring
closures, well-formed brackets, bonds in legal positions) plus an optional
valence check from a small fixed table. It is deliberately not a chemistry
engine: no aromaticity perception, no canonicalization, no stereochemistry
semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

BOS, EOS, PAD, MASK = "<bos>", "<eos>", "<pad>", "<mask>"
SPECIALS = (BOS, EOS, PAD, MASK)
BOS_ID, EOS_ID, PAD_ID, MASK_ID = 0, 1, 2, 3

DEFAULT_MAX_LEN = 128

_TOKEN_RE = re.compile(r"\[[^\]]+\]|Br|Cl|%\d{2}|[BCNOPSFIbcnosp0-9()=#:~./\\-]")
_BRACKET_RE = re.compile(r"^\[(\d+)?([A-Z][a-z]?|[bcnops])(@{1,2})?(H\d*)?([+-]\d*|\++|-+)?\]$")

_ORGANIC_ATOMS = frozenset("B C N O P S F I Cl Br".split())
_AROMATIC_ATOMS = frozenset("bcnosp")
_BOND_ORDER = {"-": 1, "=": 2, "#": 3, ":": 1, "/": 1, "\\": 1, "~": 1}

# Max explicit-bond valence for bare organic-subset atoms; aromatic and
# bracket atoms are exempt from the check.
_MAX_VALENCE = {
    "B": 3, "C": 4, "N": 3, "O": 2, "F": 1,
    "P": 5, "S": 6, "Cl": 1, "Br": 1, "I": 1, "H": 1,
}


class TokenizeError(ValueError):
    """Input cannot be turned into a token sequence."""


class UnknownTokenError(TokenizeError):
    """A substring matches no token class, or a token is not in the vocabulary."""


class TooLongError(TokenizeError):
    """Token sequence would exceed the maximum length."""


def split_tokens(s: str) -> list[str]:
    """Split a SMILES string into syntax tokens (no vocabulary involved).

    Raises UnknownTokenError if any character cannot be consumed, so the
    emitted tokens always concatenate back to the input exactly.
    """
    if not s:
        raise UnknownTokenError("empty string")
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None:
            raise UnknownTokenError(f"no token class matches {s[pos:pos + 8]!r} at position {pos}")
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


class Vocabulary:
    """Bijective token <-> id map with the four specials pinned at ids 0-3.

    Chemical tokens follow the specials in lexicographic order, so a
    vocabulary built from the same corpus is always identical.
    """

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise ValueError(f"vocabulary must start with specials {SPECIALS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_chemical_tokens(cls, chemical: Iterable[str]) -> "Vocabulary":
        extra = sorted(set(chemical) - set(SPECIALS))
        return cls(SPECIALS + tuple(extra))

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise UnknownTokenError(f"token {token!r} not in vocabulary") from None

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.tokens):
            raise IndexError(f"token id {idx} out of range (vocab size {len(self.tokens)})")
        return self.tokens[idx]

    def to_lines(self) -> list[str]:
        return list(self.tokens)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Vocabulary":
        return cls([ln.rstrip("\n") for ln in lines])


@dataclass(frozen=True)
class TokenSequence:
    """Token ids framed as BOS ... EOS with PAD only after EOS, no MASK."""

    ids: tuple[int, ...]

    def __post_init__(self):
        ids = self.ids
        if len(ids) < 2 or ids[0] != BOS_ID:
            raise ValueError("sequence must start with BOS")
        if MASK_ID in ids:
            raise ValueError("stored sequences must not contain MASK")
        try:
            eos = ids.index(EOS_ID)
        except ValueError:
            raise ValueError("sequence must contain EOS") from None
        if any(t != PAD_ID for t in ids[eos + 1:]):
            raise ValueError("only PAD may follow EOS")
        if BOS_ID in ids[1:eos] or PAD_ID in ids[:eos]:
            raise ValueError("BOS/PAD inside the token body")

    def __len__(self) -> int:
        return len(self.ids)


def tokenize(s: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Tokenize a SMILES string and frame it with BOS/EOS.

    Unknown tokens are a hard error, never silently remapped.
    """
    toks = split_tokens(s)
    if len(toks) + 2 > max_len:
        raise TooLongError(f"{len(toks) + 2} tokens exceeds max_len {max_len}")
    return TokenSequence((BOS_ID, *(vocab.id_of(t) for t in toks), EOS_ID))


def detokenize(t: "TokenSequence | Sequence[int]", vocab: Vocabulary) -> str:
    """Concatenate token strings, dropping specials. Inverse of tokenize."""
    ids = t.ids if isinstance(t, TokenSequence) else t
    return "".join(vocab.token_of(i) for i in ids if i > MASK_ID)


def build_vocabulary(corpus: Iterable[str]) -> Vocabulary:
    """Collect every token observed in the corpus (plus specials).

    The first untokenizable line raises, with its line number in the
    message.
    """
    seen: set[str] = set()
    any_line = False
    for lineno, line in enumerate(corpus, start=1):
        line = line.strip()
        if not line:
            continue
        any_line = True
        try:
            seen.update(split_tokens(line))
        except TokenizeError as e:
            raise UnknownTokenError(f"line {lineno}: {e}") from None
    if not any_line:
        raise ValueError("empty corpus")
    return Vocabulary.from_chemical_tokens(seen)


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    reason: str | None = None
    position: int | None = None  # token index of the first violation
    features: SyntaxFeatures | None = None  # set exactly when valid

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class SyntaxFeatures:
    """Cheap structural descriptors used by objectives and metrics."""

    n_tokens: int
    ring_pairs: int
    hetero_fraction: float  # fraction of atoms that are not carbon
    branch_depth: int


class _ParseIssue(Exception):
    def __init__(self, reason: str, position: int):
        super().__init__(reason)
        self.reason = reason
        self.position = position


def _is_atom(tok: str) -> bool:
    return tok.startswith("[") or tok in _ORGANIC_ATOMS or tok in _AROMATIC_ATOMS


def _atom_element(tok: str) -> str:
    if tok.startswith("["):
        m = _BRACKET_RE.match(tok)
        return m.group(2) if m else "?"
    return tok


def _parse(tokens: list[str], check_valence: bool):
    """Walk the token stream enforcing structural rules.

    Returns (n_atoms, n_hetero, ring_pairs, max_depth) on success, raises
    _ParseIssue at the first violation.
    """
    prev_atom: int | None = None  # index of the attachment atom
    pending_bond: str | None = None
    pending_pos = -1
    branch_stack: list[int] = []  # attachment atom per open branch
    open_rings: dict[str, tuple[int, str | None, int]] = {}  # digit -> (atom, bond, pos)
    bond_sums: list[float] = []  # explicit bond order per atom
    checkable: list[bool] = []
    elements: list[str] = []
    n_atoms = n_hetero = ring_pairs = max_depth = 0

    def connect(a: int, b: int, bond: str | None, pos: int):
        order = _BOND_ORDER[bond] if bond else 1
        bond_sums[a] += order
        bond_sums[b] += order
        if a == b:
            raise _ParseIssue("ring bond connects an atom to itself", pos)

    for pos, tok in enumerate(tokens):
        if _is_atom(tok):
            if tok.startswith("[") and not _BRACKET_RE.match(tok):
                raise _ParseIssue(f"malformed bracket atom {tok}", pos)
            idx = n_atoms
            n_atoms += 1
            elem = _atom_element(tok)
            elements.append(elem)
            if elem.upper() != "C":
                n_hetero += 1
            bond_sums.append(0.0)
            checkable.append(tok in _ORGANIC_ATOMS)
            if prev_atom is not None:
                connect(prev_atom, idx, pending_bond, pos)
            elif pending_bond is not None:
                raise _ParseIssue("bond with no preceding atom", pending_pos)
            pending_bond = None
            prev_atom = idx
        elif tok in _BOND_ORDER:
            if prev_atom is None:
                raise _ParseIssue("bond in illegal position", pos)
            if pending_bond is not None:
                raise _ParseIssue("two bond symbols in a row", pos)
            pending_bond = tok
            pending_pos = pos
        elif tok == "(":
            if prev_atom is None or pending_bond is not None:
                raise _ParseIssue("branch does not follow an atom", pos)
            branch_stack.append(prev_atom)
            max_depth = max(max_depth, len(branch_stack))
        elif tok == ")":
            if not branch_stack:
                raise _ParseIssue("unbalanced ')'", pos)
            if pending_bond is not None:
                raise _ParseIssue("bond dangling before ')'", pending_pos)
            attach = branch_stack.pop()
            if prev_atom == attach:
                raise _ParseIssue("empty branch '()'", pos)
            prev_atom = attach
        elif tok.isdigit() or tok.startswith("%"):
            if prev_atom is None:
                raise _ParseIssue("ring digit with no preceding atom", pos)
            digit = tok
            if digit in open_rings:
                atom, open_bond, open_pos = open_rings.pop(digit)
                if open_bond and pending_bond and open_bond != pending_bond:
                    raise _ParseIssue(f"ring {digit} opened with {open_bond} closed with {pending_bond}", pos)
                connect(atom, prev_atom, open_bond or pending_bond, pos)
                ring_pairs += 1
            else:
                open_rings[digit] = (prev_atom, pending_bond, pos)
            pending_bond = None
        elif tok == ".":
            if prev_atom is None or pending_bond is not None or branch_stack:
                raise _ParseIssue("'.' in illegal position", pos)
            prev_atom = None
        else:  # unreachable with the current token classes
            raise _ParseIssue(f"unexpected token {tok!r}", pos)

    if pending_bond is not None:
        raise _ParseIssue("trailing bond symbol", pending_pos)
    if branch_stack:
        raise _ParseIssue("unbalanced '('", len(tokens) - 1)
    if open_rings:
        digit, (_, _, pos) = next(iter(open_rings.items()))
        raise _ParseIssue(f"unclosed ring digit {digit}", pos)
    if n_atoms == 0:
        raise _ParseIssue("no atoms", 0)
    if prev_atom is None:
        raise _ParseIssue("trailing '.'", len(tokens) - 1)

    if check_valence:
        for i in range(n_atoms):
            if checkable[i] and bond_sums[i] > _MAX_VALENCE[elements[i]]:
                raise _ParseIssue(
                    f"valence of {elements[i]} exceeded ({bond_sums[i]:g} > {_MAX_VALENCE[elements[i]]})",
                    len(tokens) - 1,
                )

    return n_atoms, n_hetero, ring_pairs, max_depth


def validate(s: str, check_valence: bool = False) -> ValidityReport:
    """Judge a string syntactically valid or name its first violation.

    A valid string's report carries its ``SyntaxFeatures``, from the same
    parse. The valence check is off by default, making the verdict purely
    grammatical unless requested.
    """
    try:
        tokens = split_tokens(s)
    except TokenizeError as e:
        return ValidityReport(False, str(e), 0)
    try:
        n_atoms, n_hetero, ring_pairs, depth = _parse(tokens, check_valence)
    except _ParseIssue as e:
        return ValidityReport(False, e.reason, e.position)
    return ValidityReport(True, features=SyntaxFeatures(
        n_tokens=len(tokens),
        ring_pairs=ring_pairs,
        hetero_fraction=n_hetero / n_atoms,
        branch_depth=depth,
    ))
