import random

import pytest

from dwmerge.errors import MergeError
from dwmerge.hierarchy_merge import count_chains, merge_parameters, transitive_reduction

from conftest import maximal_paths


def random_dag(rng, max_nodes=7):
    n = rng.randint(2, max_nodes)
    labels = [f"n{i}" for i in range(n)]
    rng.shuffle(labels)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.append((labels[i], labels[j]))
    return edges


def test_worked_chain_fusion():
    fd = [("A", "B"), ("B", "C"), ("B", "F"), ("C", "E"), ("D", "B")]
    assert merge_parameters(fd) == {
        ("A", "B", "C", "E"), ("D", "B", "C", "E"),
        ("A", "B", "F"), ("D", "B", "F")}


def test_single_edge_passthrough():
    assert merge_parameters([("A", "B")]) == {("A", "B")}


def test_matches_maximal_path_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        edges = random_dag(rng)
        if not edges:
            continue
        assert merge_parameters(edges) == maximal_paths(edges)


def test_chain_count_matches_maximal_path_oracle():
    # The count merge_subhierarchy_pair checks against the cap, before it
    # lists anything: the chains from its first parameter to one of its ends.
    rng = random.Random(4099)
    spanned = 0
    for case in range(400):
        edges = random_dag(rng, max_nodes=8)
        if case % 2:
            edges = transitive_reduction(edges)
        nodes = sorted({n for edge in edges for n in edge}) or ["n0"]
        sources = [n for n in nodes if all(b != n for _, b in edges)]
        sinks = [n for n in nodes if all(a != n for a, _ in edges)]
        # Mostly a source and sinks, as a segment's first and last parameters
        # are; sometimes any parameter, which may start or end no chain.
        first = rng.choice(sources if rng.random() < 0.75 else nodes)
        ends = set(rng.sample(sinks if rng.random() < 0.75 else nodes, min(2, len(sinks))))
        listed = [c for c in merge_parameters(edges) if c[0] == first and c[-1] in ends]
        oracle = [c for c in maximal_paths(edges) if c[0] == first and c[-1] in ends]
        assert count_chains(edges, first, ends) == len(listed) == len(oracle), f"case {case}"
        spanned += len(listed) > 1
    assert spanned > 20


def test_input_order_does_not_matter():
    rng = random.Random(9)
    edges = random_dag(rng)
    while not edges:
        edges = random_dag(rng)
    expected = merge_parameters(edges)
    for _ in range(5):
        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert merge_parameters(shuffled) == expected


def test_every_edge_appears_as_adjacency():
    rng = random.Random(77)
    for _ in range(50):
        edges = random_dag(rng)
        if not edges:
            continue
        chains = merge_parameters(edges)
        for a, b in edges:
            assert any(a == c[i] and b == c[i + 1]
                       for c in chains for i in range(len(c) - 1))


def test_chains_are_pairwise_non_contained():
    # holds on transitively reduced inputs, which is what the pipeline feeds
    rng = random.Random(13)
    for _ in range(50):
        edges = transitive_reduction(random_dag(rng))
        if not edges:
            continue
        chains = list(merge_parameters(edges))
        for i, c in enumerate(chains):
            for j, d in enumerate(chains):
                if i != j:
                    assert not _subsequence(c, d)


def _subsequence(small, big):
    it = iter(big)
    return all(x in it for x in small)


def test_cyclic_input_rejected():
    with pytest.raises(MergeError):
        merge_parameters([("A", "B"), ("B", "A")])
    with pytest.raises(MergeError):
        count_chains([("A", "B"), ("B", "C"), ("C", "B")], "A", {"C"})
    with pytest.raises(MergeError):
        merge_parameters([("A", "A")])
    with pytest.raises(ValueError):
        merge_parameters([("A",)])


def test_longer_orderings_fuse():
    assert merge_parameters([("A", "B", "C"), ("B", "C", "D")]) == {("A", "B", "C", "D")}
