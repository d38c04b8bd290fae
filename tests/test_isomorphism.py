"""Isomorphism testing, morphism search, the generator tower."""

import random
from pathlib import Path

import pytest

from holoscreen import isomorphism
from holoscreen.corpus import construct, load_manifest
from holoscreen.isomorphism import GeneratorTower, are_isomorphic
from holoscreen.tables import GroupTable, Homomorphism

from oracles import (automorphism_images, hom_images,
                     pairwise_morphism_images, unbounded_tower)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def T(expr):
    return construct(expr).table


def corpus_tables(name):
    return [record.table for record in load_manifest(CORPORA / name).records]


def relabelled(G, seed):
    """G with its non-identity elements renamed by a seeded permutation."""
    rng = random.Random(seed)
    p = [0] + rng.sample(range(1, G.n), G.n - 1)
    mul = [[0] * G.n for _ in range(G.n)]
    for a in range(G.n):
        for b in range(G.n):
            mul[p[a]][p[b]] = p[G.mul[a][b]]
    return GroupTable(mul)


@pytest.fixture
def pairwise(monkeypatch):
    """Run a call with the all-pairs reference engine in place of
    ``morphism_images``; every public entry point looks it up by name."""
    def run(call, *args):
        with monkeypatch.context() as m:
            m.setattr(isomorphism, "morphism_images",
                      pairwise_morphism_images)
            return call(*args)
    return run


def test_tower_covers_group_and_factorizes():
    table = T("symmetric(4)")
    tower = GeneratorTower(table)
    assert sorted(tower.order) == list(range(24))
    assert sum(len(seg) for seg in tower.segments) == 23
    for e, pair in tower.expr.items():
        if pair is not None:
            u, v = pair
            assert table.mul[u][v] == e


def test_tower_matches_unbounded_closure_on_shipped_tables():
    # Stopping once all n elements are listed changes nothing, for the
    # greedy sequence and for given generators, as corpus.py passes for
    # semidirect products.
    for name in ("o4", "o8", "o12", "o60"):
        for record in load_manifest(CORPORA / name).records:
            table = record.table
            greedy = table.generating_sequence()
            for gens in (None, greedy[::-1], tuple(range(table.n - 1, 0, -1))):
                tower = GeneratorTower(table, gens)
                assert ((tower.gens, tower.order, tower.expr, tower.segments)
                        == unbounded_tower(table, gens)), (name, record.name)


def test_tower_rejects_non_generating_sequence():
    table = T("symmetric(4)")
    involution = table.element_orders.index(2)
    with pytest.raises(ValueError):
        GeneratorTower(table, gens=(involution,))


def test_are_isomorphic_negative():
    assert are_isomorphic(T("cyclic(4)"), T("abelian(2,2)")) == (False, None)
    assert are_isomorphic(T("dihedral(8)"), T("cyclic(8)")) == (False, None)
    assert are_isomorphic(T("cyclic(12)"), T("abelian(2,6)")) == (False, None)
    assert are_isomorphic(T("symmetric(4)"), T("sl(2,3)")) == (False, None)
    found, witness = are_isomorphic(T("dihedral(12)"),
                                    T("alternating(4)"))
    assert not found and witness is None


def test_are_isomorphic_positive_with_witness():
    pairs = [
        ("cyclic(6)", "abelian(2,3)"),
        ("cyclic(12)", "abelian(4,3)"),
        ("dihedral(6)", "symmetric(3)"),
        ("gl(2,2)", "symmetric(3)"),
        ("sl(3,2)", "gl(3,2)"),
    ]
    for left, right in pairs:
        G, H = T(left), T(right)
        found, witness = are_isomorphic(G, H)
        assert found, (left, right)
        assert isinstance(witness, Homomorphism)
        assert witness.verify()
        assert witness.is_bijective()


def test_are_isomorphic_requires_equal_orders():
    with pytest.raises(ValueError):
        are_isomorphic(T("cyclic(4)"), T("cyclic(5)"))


def test_same_group_different_generators():
    a5 = construct("alternating(5)")
    other = construct("semidirect(cyclic(3),cyclic(4),[[0,2,1]])")
    found, witness = are_isomorphic(a5.table, a5.table)
    assert found and witness.verify()
    assert are_isomorphic(other.table, T("dihedral(12)"))[0] is False


def test_automorphism_counts():
    assert sum(1 for _ in automorphism_images(T("cyclic(6)"))) == 2
    assert sum(1 for _ in automorphism_images(T("cyclic(8)"))) == 4
    assert sum(1 for _ in automorphism_images(T("abelian(2,2)"))) == 6
    assert sum(1 for _ in automorphism_images(T("symmetric(3)"))) == 6
    assert sum(1 for _ in automorphism_images(T("dihedral(8)"))) == 8


def test_automorphisms_verify_and_are_distinct():
    table = T("dihedral(8)")
    seen = set()
    for images in automorphism_images(table):
        assert Homomorphism(table, table, images).verify()
        assert len(set(images)) == table.n
        seen.add(images)
    assert len(seen) == 8


def test_hom_counts():
    # Homomorphisms C2 -> C4: the image of the generator squares to 1.
    assert sum(1 for _ in hom_images(T("cyclic(2)"), T("cyclic(4)"))) == 2
    # C3 -> S3 has the trivial map plus injections onto the 3-cycles.
    assert sum(1 for _ in hom_images(T("cyclic(3)"), T("symmetric(3)"))) == 3
    # S3 -> C6 factors through the abelianization C2.
    assert sum(1 for _ in hom_images(T("symmetric(3)"), T("cyclic(6)"))) == 2
    # Any G -> trivial group.
    assert sum(1 for _ in hom_images(T("symmetric(3)"), T("cyclic(1)"))) == 1


def test_hom_images_all_verify():
    G, H = T("dihedral(8)"), T("abelian(2,2)")
    count = 0
    for images in hom_images(G, H):
        assert Homomorphism(G, H, images).verify()
        count += 1
    # D8 abelianizes to C2 x C2, so the homomorphisms into C2 x C2
    # biject with endomorphisms of C2 x C2 that need not be invertible.
    assert count == 16


def test_hom_counts_into_nonabelian_targets():
    # Hom(C2^2, G) is the set of commuting pairs (a, b) with a^2 = b^2 = 1.
    # S3: the identity and three transpositions, and a transposition
    # commutes only with 1 and itself: 1*4 + 3*2 = 10.
    # S4: ten elements square to 1 (1, six transpositions, three double
    # transpositions).  Their centralizers hold 10, 4 and 6 such elements,
    # the whole set, {1, (12), (34), (12)(34)} and the six of D8 that square
    # to 1: 10 + 6*4 + 3*6 = 52.
    # S3 -> S4 by kernel: S3 gives the trivial map, A3 sends the
    # transpositions to one of the 9 involutions, 1 gives an embedding onto
    # one of the 4 point stabilizers times |Aut(S3)| = 6: 1 + 9 + 4*6 = 34.
    cases = [("abelian(2,2)", "symmetric(3)", 10),
             ("abelian(2,2)", "symmetric(4)", 52),
             ("symmetric(3)", "symmetric(4)", 34)]
    for left, right, expected in cases:
        G, H = T(left), T(right)
        assert len(GeneratorTower(G).gens) >= 2
        maps = list(hom_images(G, H))
        assert len(maps) == expected, (left, right)
        assert len(set(maps)) == expected
        for images in maps:
            assert Homomorphism(G, H, images).verify()


def test_automorphism_images_match_pairwise_oracle(pairwise):
    bases = [record.table for directory in sorted(CORPORA.iterdir())
             for record in load_manifest(directory).records]
    assert len(bases) == 30
    bases += [T("abelian(5,5)"), T("abelian(5,5,2)"), T("abelian(7,7)")]
    for base in bases:
        expected = pairwise(lambda: list(automorphism_images(base)))
        assert list(automorphism_images(base)) == expected, base.name
    assert len(expected) == 2016


@pytest.mark.parametrize("corpus", ["o12", "o60"])
def test_are_isomorphic_witnesses_match_pairwise_oracle(pairwise, corpus):
    reps = corpus_tables(corpus)
    for seed, G in enumerate(reps):
        H = relabelled(G, seed)
        for other in reps:
            expected = pairwise(are_isomorphic, other, H)
            found, witness = are_isomorphic(other, H)
            assert found == expected[0]
            if found:
                assert other is G and witness.verify()
                assert witness.images == expected[1].images
            else:
                assert witness is None and expected[1] is None
