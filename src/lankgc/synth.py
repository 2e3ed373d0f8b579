"""Synthetic corpus with a planted relation implication.

The generator builds a mentorship network over a single pool of users.
Half of the users are mentees: each is ``mentored_by`` exactly one
other user, and with probability ``rule_strength`` also ``endorses``
that same mentor.  Everyone exchanges ``messages`` with random users
(mentees only sometimes, non-mentees always), which keeps ``messages``
a poor predictor of endorsement while ``mentored_by`` implies it with
the planted strength, and points at the right object too.

Endorsement facts are split 70/10/20 into the train/valid/test files,
so a subject-strategy split turns held-out mentees into unseen entities
whose auxiliary neighborhoods carry the mentor signal plus message
noise.  Because all endpoints share one entity type, every relation
(inverses included) retains nonzero implication confidence toward the
planted head, and mining the union of the emitted files recovers
conf(mentored_by => endorses) within binomial noise of the requested
strength.
"""

from __future__ import annotations

import os

import numpy as np

from .kg import write_triplet_file
from .splits import Corpus

RULE_BODY = "mentored_by"
RULE_HEAD = "endorses"
NOISE_RELATION = "messages"

_MENTEE_SHARE = 0.5
_MENTEE_MESSAGE_PROB = 0.6
_TRAIN_SHARE = 0.7  # of endorsement facts; then 0.1 valid, 0.2 test


def gen_synthetic(n_entities, rule_strength, seed):
    """Generate a corpus over exactly ``n_entities`` users.

    Returns a :class:`Corpus`; use :func:`write_corpus` to put it on
    disk in the layout the dataset builder expects.
    """
    if n_entities < 50:
        raise ValueError(f"need at least 50 entities, got {n_entities}")
    if not (0.0 <= rule_strength <= 1.0):
        raise ValueError(f"rule strength must be in [0, 1], got {rule_strength}")
    rng = np.random.default_rng(seed)

    users = [f"user_{i:05d}" for i in range(n_entities)]
    n_mentee = int(_MENTEE_SHARE * n_entities)

    def other_user(i, count=1):
        picks = []
        while len(picks) < count:
            j = int(rng.integers(n_entities))
            if j != i and j not in picks:
                picks.append(j)
        return [users[j] for j in picks]

    train = []
    endorsements = []
    for i in range(n_mentee):
        [mentor] = other_user(i)
        train.append((users[i], RULE_BODY, mentor))
        if rng.random() < rule_strength:
            endorsements.append((users[i], RULE_HEAD, mentor))
        if rng.random() < _MENTEE_MESSAGE_PROB:
            for peer in other_user(i, int(rng.integers(1, 3))):
                train.append((users[i], NOISE_RELATION, peer))
    for i in range(n_mentee, n_entities):
        for peer in other_user(i, int(rng.integers(1, 4))):
            train.append((users[i], NOISE_RELATION, peer))

    order = rng.permutation(len(endorsements))
    n_train = int(_TRAIN_SHARE * len(endorsements))
    valid_end = n_train + int(0.1 * len(endorsements))
    train.extend(endorsements[i] for i in order[:n_train])
    valid = [endorsements[i] for i in order[n_train:valid_end]]
    test = [endorsements[i] for i in order[valid_end:]]
    return Corpus(train=train, valid=valid, test=test)


def write_corpus(corpus, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for stem, triples in (("train", corpus.train), ("valid", corpus.valid), ("test", corpus.test)):
        write_triplet_file(os.path.join(out_dir, f"{stem}.tsv"), triples)
