import numpy as np
import pytest

from helpers import make_graph
from lankgc.rules import mine_confidence
from lankgc.splits import load_corpus
from lankgc.synth import NOISE_RELATION, RULE_BODY, RULE_HEAD, gen_synthetic, write_corpus


def mined_rule_strength(corpus):
    """conf(mentored_by => endorses) over the union of the emitted files."""
    kg = make_graph(corpus.train + corpus.valid + corpus.test)
    body = kg.vocab.relation_id(RULE_BODY)
    head = kg.vocab.relation_id(RULE_HEAD)
    return mine_confidence(kg).dense()[body, head]


def test_same_seed_same_corpus():
    a = gen_synthetic(200, 0.9, seed=5)
    b = gen_synthetic(200, 0.9, seed=5)
    assert a.train == b.train and a.valid == b.valid and a.test == b.test
    c = gen_synthetic(200, 0.9, seed=6)
    assert c.train != a.train


@pytest.mark.parametrize("strength", [0.5, 0.75, 0.9, 1.0])
def test_planted_confidence_within_tolerance(strength):
    corpus = gen_synthetic(1000, strength, seed=3)
    assert abs(mined_rule_strength(corpus) - strength) <= 0.05


def test_zero_strength_leaves_no_endorsements():
    corpus = gen_synthetic(100, 0.0, seed=0)
    union = corpus.train + corpus.valid + corpus.test
    assert not any(r == RULE_HEAD for _, r, _ in union)
    assert corpus.test == [] and corpus.valid == []


def test_structure_of_generated_world():
    corpus = gen_synthetic(300, 0.8, seed=2)
    union = corpus.train + corpus.valid + corpus.test
    by_rel = {}
    for s, r, o in union:
        by_rel.setdefault(r, []).append((s, o))
    assert set(by_rel) == {RULE_BODY, RULE_HEAD, NOISE_RELATION}
    mentors = dict(by_rel[RULE_BODY])
    for subject, endorsed in by_rel[RULE_HEAD]:
        assert endorsed == mentors[subject]
    for s, o in by_rel[RULE_BODY]:
        assert s != o
    mentees = set(mentors)
    messagers = {s for s, _ in by_rel[NOISE_RELATION]}
    assert messagers - mentees, "non-mentees should message too"
    entities = {e for s, _, o in union for e in (s, o)}
    assert len(entities) <= 300 and all(e.startswith("user_") for e in entities)


def test_endorsement_facts_split_roughly_70_10_20():
    corpus = gen_synthetic(2000, 1.0, seed=1)
    in_train = sum(1 for _, r, _ in corpus.train if r == RULE_HEAD)
    total = in_train + len(corpus.valid) + len(corpus.test)
    assert in_train / total == pytest.approx(0.7, abs=0.02)
    assert len(corpus.test) / total == pytest.approx(0.2, abs=0.02)


def test_input_validation():
    with pytest.raises(ValueError, match="at least 50"):
        gen_synthetic(10, 0.9, seed=0)
    with pytest.raises(ValueError, match="strength"):
        gen_synthetic(100, 1.5, seed=0)


def test_write_corpus_round_trips(tmp_path):
    corpus = gen_synthetic(100, 0.9, seed=8)
    write_corpus(corpus, tmp_path)
    back = load_corpus(tmp_path)
    assert back.train == corpus.train
    assert back.valid == corpus.valid
    assert back.test == corpus.test
