"""Benchmark-side inputs: the hub-3k corpus and labeled eval-tc sets.

Both generators are pure functions of their arguments and the seed, so
the same ``--seed`` always hands the program the same inputs.  The
program only ever receives the generated :class:`Corpus` and id rows.
"""

from __future__ import annotations

import numpy as np

from lankgc.splits import Corpus


def zipf_weights(n):
    """Zipf(1) probabilities over ``n`` ranks: p(k) proportional to 1/k."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return w / w.sum()


def hub_corpus(seed, n_entities=3000, n_relations=30, n_facts=2500,
               test_per_relation=6, valid_share=0.1):
    """A skewed corpus whose hubs overflow the neighbor budget.

    Subjects are uniform; objects and relations are Zipf(1) over a
    seeded ranking, so a few entities collect hundreds of incoming facts
    while most have one or two.  The test file holds
    ``test_per_relation`` facts of every relation, with pairwise
    distinct subjects, so the test queries span every relation; the
    split built on it then needs a sample rate of 1.0 to keep them all.
    """
    rng = np.random.default_rng([seed, 3])
    ent_rank = rng.permutation(n_entities)
    rel_rank = rng.permutation(n_relations)
    p_ent = zipf_weights(n_entities)
    p_rel = zipf_weights(n_relations)

    facts = set()
    by_rel = [[] for _ in range(n_relations)]
    while len(facts) < n_facts:
        draw = n_facts - len(facts)
        subj = rng.integers(n_entities, size=draw)
        obj = ent_rank[rng.choice(n_entities, size=draw, p=p_ent)]
        rel = rel_rank[rng.choice(n_relations, size=draw, p=p_rel)]
        for s, r, o in zip(subj.tolist(), rel.tolist(), obj.tolist()):
            if s != o and (s, r, o) not in facts:
                facts.add((s, r, o))
                by_rel[r].append((s, r, o))
    # every relation needs enough facts to give its test share
    for r in range(n_relations):
        while len(by_rel[r]) < 2 * test_per_relation:
            s, o = (int(x) for x in rng.integers(n_entities, size=2))
            if s != o and (s, r, o) not in facts:
                facts.add((s, r, o))
                by_rel[r].append((s, r, o))

    # test subjects become unseen entities: keep them off the hubs and
    # off every other test fact's endpoints, and give both endpoints other
    # facts, so the split keeps (nearly) every test fact
    hubs = set(ent_rank[:64].tolist())
    degree = np.bincount([e for s, _, o in facts for e in (s, o)], minlength=n_entities)
    test, test_subjects, test_objects = set(), set(), set()
    for r in range(n_relations):
        picked = 0
        for i in rng.permutation(len(by_rel[r])).tolist():
            s, _, o = by_rel[r][i]
            if (s in hubs or min(degree[s], degree[o]) < 2 or s in test_subjects
                    or s in test_objects or o in test_subjects):
                continue
            test.add(by_rel[r][i])
            test_subjects.add(s)
            test_objects.add(o)
            picked += 1
            if picked == test_per_relation:
                break
    # validation facts never touch a test entity, whose other facts stay in
    # train: they embed the subject and keep the object a seen candidate
    rest = sorted(facts - test)
    order = rng.permutation(len(rest)).tolist()
    n_valid = int(valid_share * len(rest))
    test_entities = test_subjects | test_objects
    valid_ids = [i for i in order if rest[i][0] not in test_entities and rest[i][2] not in test_entities]
    valid_ids = set(valid_ids[:n_valid])
    valid = [rest[i] for i in order if i in valid_ids]
    train = [rest[i] for i in order if i not in valid_ids]

    def names(triples):
        return [(f"ent_{s:05d}", f"rel_{r:02d}", f"ent_{o:05d}") for s, r, o in triples]

    test = sorted(test)
    test = [test[i] for i in rng.permutation(len(test)).tolist()]
    return Corpus(train=names(train), valid=names(valid), test=names(test))


def labeled_rows(positives, known, candidates, seed, stream, negatives=1):
    """Pair each positive id row with corrupted negatives.

    ``positives`` is an (n, 3) array of (s, r, o) ids, ``known`` a set
    of id tuples that are true facts, and ``candidates`` the entity ids
    a negative may take as its object.  A negative replaces the object
    with a candidate such that the result is not a known fact.  Returns
    ``(rows, labels)``: an (n * (1 + negatives), 3) id array and 0/1
    labels, positives first within each group.
    """
    rng = np.random.default_rng([seed, stream])
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.int64)
    rows, labels = [], []
    for s, r, o in positives.tolist():
        rows.append((s, r, o))
        labels.append(1)
        for _ in range(negatives):
            for _ in range(1000):
                c = int(candidates[rng.integers(candidates.size)])
                if (s, r, c) not in known:
                    break
            else:
                raise ValueError(f"no non-fact object found for ({s}, {r}, ?)")
            rows.append((s, r, c))
            labels.append(0)
    return np.array(rows, dtype=np.int64).reshape(-1, 3), np.array(labels, dtype=np.int64)
