import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

MEMORIZED_STRING = "CC(=O)OC1CC1N"
MEMORIZED_TARGET = 0.37


@pytest.fixture
def parse_calls(monkeypatch):
    """The token lists that ``smiles._parse`` receives while the test runs."""
    from moljoint import smiles

    calls = []
    parse = smiles._parse

    def spy(tokens, check_valence):
        calls.append(tokens)
        return parse(tokens, check_valence)

    monkeypatch.setattr(smiles, "_parse", spy)
    return calls


@pytest.fixture(scope="session")
def memorized():
    """A tiny model trained to memorize one labeled string.

    Returns (params, vocab, dataset, string, target). Used by the
    overfit-based examples: near-zero NLL, masked-token recovery, target
    recall, argmax emission.
    """
    from moljoint import training as T
    from moljoint.model import ModelConfig
    from moljoint.smiles import build_vocabulary

    vocab = build_vocabulary([MEMORIZED_STRING])
    mcfg = ModelConfig(vocab_size=len(vocab), max_len=20, embed_dim=32, n_layers=2,
                       n_heads=2, ff_dim=64, predictor_hidden_dim=16)
    dataset = T.encode_corpus([MEMORIZED_STRING], vocab, 20, targets=[MEMORIZED_TARGET])
    cfg = T.TrainConfig(p_task=0.5, batch_size=4, max_iters=600, warmup_iters=10,
                        lr_max=3e-3, lr_min=3e-4, decay_iters=600, dropout=0.0,
                        seed=0, eval_interval=0)
    params = T.train(T.Checkpoint.start(vocab, mcfg, cfg), dataset).params
    return params, vocab, dataset, MEMORIZED_STRING, MEMORIZED_TARGET
