"""Small grammar-based generator of valid SMILES strings.

Produces chains over C/N/O with optional branches, one ring, and sparse
double bonds. Capacity bookkeeping keeps every emitted string inside the
simple valence table, so generated corpora validate even with the valence
check enabled. Used for desk-scale corpora: deterministic under a seed.
"""

from __future__ import annotations

from .numerics import Rng

_CAPACITY = {"C": 4, "N": 3, "O": 2}
MAX_ATOMS = 12
P_BRANCH, P_RING, P_DOUBLE, P_HETERO = 0.15, 0.5, 0.12, 0.3


def _pick_element(rng: Rng, need: int) -> str:
    """Element with capacity >= need; heteroatoms only where they fit."""
    options = [e for e in ("N", "O") if _CAPACITY[e] >= need]
    if options and rng.random() < P_HETERO:
        return options[int(rng.integers(0, len(options)))]
    return "C"


def _branch(rng: Rng) -> list[str]:
    n = int(rng.integers(1, 4))
    tokens = ["("]
    for i in range(n):
        # first branch atom: attachment bond + possible continuation
        need = (2 if i < n - 1 else 1) + (1 if i == 0 else 0)
        tokens.append(_pick_element(rng, need))
    tokens.append(")")
    return tokens


def random_molecule(rng: Rng, min_atoms: int = 4) -> str:
    """One random valid SMILES string over the C/N/O alphabet, of min_atoms to MAX_ATOMS backbone atoms."""
    n = int(rng.integers(min_atoms, MAX_ATOMS + 1))

    ring = None
    if n >= 5 and rng.random() < P_RING:
        size = int(rng.integers(3, min(6, n - 1) + 1))
        start = int(rng.integers(0, n - size + 1))
        digit = "2" if rng.random() < 0.3 else "1"
        ring = (start, start + size - 1, digit)

    # base demand per backbone atom: chain bonds + ring closure
    need = [(1 if i > 0 else 0) + (1 if i < n - 1 else 0) for i in range(n)]
    if ring:
        need[ring[0]] += 1
        need[ring[1]] += 1

    double_after = [False] * n
    for i in range(n - 1):
        if rng.random() < P_DOUBLE and need[i] + 1 <= 4 and need[i + 1] + 1 <= 4:
            double_after[i] = True
            need[i] += 1
            need[i + 1] += 1

    branch_at = [False] * n
    for i in range(n):
        if rng.random() < P_BRANCH and need[i] + 1 <= 4:
            branch_at[i] = True
            need[i] += 1

    tokens: list[str] = []
    for i in range(n):
        tokens.append(_pick_element(rng, need[i]))
        if ring and i in (ring[0], ring[1]):
            tokens.append(ring[2])
        if branch_at[i]:
            tokens.extend(_branch(rng))
        if i < n - 1 and double_after[i]:
            tokens.append("=")
    return "".join(tokens)


def toy_corpus(n: int, seed: int = 0, min_atoms: int = 4) -> list[str]:
    """n distinct random molecules of at most 30 syntax tokens.

    Deterministic for a given seed (over-long draws are rejected inside
    the same stream).
    """
    from .smiles import split_tokens

    rng = Rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError(f"could not generate {n} distinct molecules")
        s = random_molecule(rng, min_atoms)
        if s not in seen and len(split_tokens(s)) <= 30:
            seen.add(s)
            out.append(s)
    return out
