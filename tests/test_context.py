import numpy as np
from hypothesis import given, settings

from helpers import bundles, corpora, oracle_seen_ids, oracle_split, oracle_vocabulary, random_bundles, split_specs
from lankgc.context import BundleContext
from lankgc.evaluation import KnownTriplets
from lankgc.kg import INVERSE_SUFFIX, KnowledgeGraph
from lankgc.splits import DatasetBundle, SplitError


def expected_rows(ctx, facts, name):
    """Sorted (relation, entity) id rows of ``name`` in ``facts`` and their inverses."""
    v = ctx.vocab
    rows = [(v.relation_id(r), v.entity_id(o)) for s, r, o in facts if s == name]
    rows += [(v.relation_id(r + INVERSE_SUFFIX), v.entity_id(s)) for s, r, o in facts if o == name]
    return sorted(rows)


def test_neighborhood_matches_brute_force_on_random_bundles():
    for bundle in random_bundles(6, start_seed=40):
        ctx = BundleContext(bundle)
        unseen = set(bundle.unseen)
        aux_touches_seen = False
        for name in ctx.vocab.entities:
            got = ctx.neighbor_graph.neighborhood(ctx.vocab.entity_id(name)).tolist()
            if name in unseen:
                assert got == [list(row) for row in expected_rows(ctx, bundle.aux, name)]
            else:
                # training rows only, even where auxiliary facts touch the entity
                assert got == [list(row) for row in expected_rows(ctx, bundle.train, name)]
                aux_touches_seen |= bool(expected_rows(ctx, bundle.aux, name))
        assert aux_touches_seen


def test_unseen_entities_without_auxiliary_facts_have_empty_neighborhoods():
    for bundle in random_bundles(3, start_seed=40):
        bare = DatasetBundle(train=bundle.train, aux=[], valid=bundle.valid, test=bundle.test,
                             unseen=bundle.unseen, spec=bundle.spec)
        ctx = BundleContext(bare)
        assert bare.unseen
        for name in bare.unseen:
            nb = ctx.neighbor_graph.neighborhood(ctx.vocab.entity_id(name))
            assert nb.shape == (0, 2) and nb.dtype == np.int64
        for name in bare.seen_entities():
            assert ctx.neighbor_graph.neighborhood(ctx.vocab.entity_id(name)).tolist() == [
                list(row) for row in expected_rows(ctx, bare.train, name)
            ]


def test_ids_match_per_name_lookups_and_only_the_neighbor_graph_is_indexed():
    for bundle in random_bundles(3, start_seed=40):
        ctx = BundleContext(bundle)
        v = ctx.vocab
        for part in (bundle.train, bundle.aux, bundle.valid, bundle.test):
            want = [[v.entity_id(s), v.relation_id(r), v.entity_id(o)] for s, r, o in part]
            assert ctx.to_ids(part).tolist() == want
        assert ctx.train_graph._csr is None  # nothing reads the training graph's neighborhoods
        known = ctx.known_triplets()
        facts = [tuple(row) for part in (bundle.train, bundle.aux, bundle.valid, bundle.test)
                 for row in ctx.to_ids(part).tolist()]
        assert all(t in known for t in facts)


def oracle_context_arrays(bundle):
    """Every array of a :class:`BundleContext`, from name sets and one lookup per name."""
    vocab = oracle_vocabulary(bundle)
    unseen = set(bundle.unseen)

    def ids(facts):
        return np.array([[vocab.entity_id(s), vocab.relation_id(r), vocab.entity_id(o)] for s, r, o in facts],
                        dtype=np.int64).reshape(-1, 3)

    def augmented(facts):
        return list(facts) + [(o, r + INVERSE_SUFFIX, s) for s, r, o in facts]

    neighbor_facts = ([t for t in augmented(bundle.train) if t[0] not in unseen]
                      + [t for t in augmented(bundle.aux) if t[0] in unseen])
    neighbor_graph = KnowledgeGraph(vocab, ids(neighbor_facts), augmented=True)
    parts = [ids(part) for part in (bundle.train, bundle.aux, bundle.valid, bundle.test)]
    known = KnownTriplets(np.concatenate(parts), vocab.n_entities, 2 * vocab.n_relations)
    return vocab, {
        "seen_ids": oracle_seen_ids(bundle, vocab),
        "train_ids": parts[0],
        "aux_ids": parts[1],
        "train_graph": ids(augmented(bundle.train)),
        "neighbor_graph": neighbor_graph.triplets,
        "offsets": neighbor_graph.offsets,
        "pairs": neighbor_graph.pairs,
        "known_object": known._keys["object"],
        "known_subject": known._keys["subject"],
    }


def check_context_against_oracle(bundle):
    ctx = BundleContext(bundle)
    vocab, want = oracle_context_arrays(bundle)
    assert ctx.vocab.entities == vocab.entities and ctx.vocab.relations == vocab.relations
    known = ctx.known_triplets()
    got = {
        "seen_ids": ctx.seen_ids,
        "train_ids": ctx._train_ids,
        "aux_ids": ctx._aux_ids,
        "train_graph": ctx.train_graph.triplets,
        "neighbor_graph": ctx.neighbor_graph.triplets,
        "offsets": ctx.neighbor_graph.offsets,
        "pairs": ctx.neighbor_graph.pairs,
        "known_object": known._keys["object"],
        "known_subject": known._keys["subject"],
    }
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].shape == array.shape, name
        assert np.array_equal(got[name], array), name


@given(corpora(), split_specs())
@settings(max_examples=200)
def test_context_of_a_split_equals_the_name_set_oracle(corpus, spec):
    try:
        bundle = oracle_split(corpus, spec)
    except SplitError:
        return
    check_context_against_oracle(bundle)


@given(bundles())
@settings(max_examples=200)
def test_context_of_any_bundle_equals_the_name_set_oracle(bundle):
    check_context_against_oracle(bundle)
