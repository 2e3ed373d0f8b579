import numpy as np

from helpers import random_bundles
from lankgc.context import BundleContext
from lankgc.kg import INVERSE_SUFFIX
from lankgc.splits import DatasetBundle


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
            got = ctx.neighborhood(ctx.vocab.entity_id(name)).tolist()
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
            nb = ctx.neighborhood(ctx.vocab.entity_id(name))
            assert nb.shape == (0, 2) and nb.dtype == np.int64
        for name in bare.seen_entities():
            assert ctx.neighborhood(ctx.vocab.entity_id(name)).tolist() == [
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
