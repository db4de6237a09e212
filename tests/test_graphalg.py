"""Differential tests of :mod:`repro.netlist.graphalg`.

Component partitions and topological orders are checked against networkx
(skipped when it is not installed); minimum cycle ratios and their error
cases against a brute-force simple-cycle enumerator that lives only here.
Graphs are fuzzed from fixed seeds and include self-loops, parallel edges,
zero-latency back edges and cycles holding no positive token count.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.netlist import graphalg


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def random_adjacency(rng, n, n_edges):
    """Node -> successor list; duplicates and self-loops allowed."""
    adj = {f"n{i}": [] for i in range(n)}
    names = list(adj)
    for _ in range(n_edges):
        adj[rng.choice(names)].append(rng.choice(names))
    return adj


def random_dag(rng, n, n_edges):
    rank = list(range(n))
    rng.shuffle(rank)
    adj = {i: [] for i in range(n)}
    for _ in range(n_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if rank[a] < rank[b]:
            adj[a].append(b)
    return adj


def to_nx(nx, adj):
    graph = nx.DiGraph()
    graph.add_nodes_from(adj)
    graph.add_edges_from((u, v) for u in adj for v in adj[u])
    return graph


def assert_is_cycle(adj, cycle):
    assert cycle
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert v in adj[u]


# ---------------------------------------------------------------------------
# components and orders


@pytest.mark.parametrize("seed", range(150))
def test_sccs_partition_matches_networkx(nx, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    adj = random_adjacency(rng, n, rng.randint(0, 3 * n))
    ours = graphalg.sccs(list(adj), adj)
    assert sorted(v for c in ours for v in c) == sorted(adj)   # partition
    expected = {frozenset(c)
                for c in nx.strongly_connected_components(to_nx(nx, adj))}
    assert {frozenset(c) for c in ours} == expected
    cyclic = {frozenset(c) for c in graphalg.cyclic_sccs(list(adj), adj)}
    assert cyclic == {c for c in expected
                      if len(c) > 1 or next(iter(c)) in adj[next(iter(c))]}


@pytest.mark.parametrize("seed", range(150))
def test_topological_order_valid_or_cycle_witness(nx, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    if seed % 2:
        adj = random_dag(rng, n, rng.randint(0, 3 * n))
    else:
        adj = random_adjacency(rng, n, rng.randint(0, 2 * n))
    acyclic = nx.is_directed_acyclic_graph(to_nx(nx, adj))
    try:
        order = graphalg.topological_order(adj, adj)
    except graphalg.CycleError as loop:
        assert not acyclic
        assert_is_cycle(adj, loop.cycle)
        assert len(set(loop.cycle)) == len(loop.cycle)
        assert loop.cycle[0] == next(v for v in adj if v in loop.cycle)
        return
    assert acyclic
    assert sorted(order, key=str) == sorted(adj, key=str)
    position = {v: i for i, v in enumerate(order)}
    assert all(position[u] < position[v] for u in adj for v in adj[u])


@pytest.mark.parametrize("seed", range(60))
def test_levelize_is_kahn_order_on_dags_and_total_otherwise(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    dag = random_dag(rng, n, rng.randint(0, 3 * n))
    assert graphalg.levelize(range(n), dag) == graphalg.topological_order(
        range(n), dag)
    cyclic = random_dag(rng, n, 2 * n)
    for _ in range(rng.randint(1, 3)):
        cyclic[rng.randrange(n)].append(rng.randrange(n))
    assert sorted(graphalg.levelize(range(n), cyclic)) == list(range(n))


def test_topological_order_names_a_self_loop():
    adj = {"a": ["b"], "b": ["b", "c"], "c": []}
    with pytest.raises(graphalg.CycleError) as info:
        graphalg.topological_order(adj, adj)
    assert info.value.cycle == ["b"]


# ---------------------------------------------------------------------------
# minimum cycle ratio


def brute_force_cycles(edges):
    """Every simple cycle of the multigraph, once per choice of parallel
    edges, as edge lists: each is rooted at its smallest node index and
    extended only through larger ones."""
    nodes = sorted({e[0] for e in edges} | {e[1] for e in edges})
    rank = {v: i for i, v in enumerate(nodes)}
    out = {v: [e for e in edges if e[0] == v] for v in nodes}
    cycles = []

    def extend(root, node, path, visited):
        for edge in out[node]:
            nxt = edge[1]
            if nxt == root:
                cycles.append(path + [edge])
            elif rank[nxt] > rank[root] and nxt not in visited:
                extend(root, nxt, path + [edge], visited | {nxt})

    for root in nodes:
        extend(root, root, [], {root})
    return cycles


def brute_force_mcr(edges):
    """('capacity' | 'deadlock', None) or ('ratio', Fraction | None)."""
    cycles = [(sum(e[2] for e in c), sum(e[3] for e in c))
              for c in brute_force_cycles(edges)]
    if any(lat == 0 and tok <= 0 for tok, lat in cycles):
        return "capacity", None
    if any(tok <= 0 for tok, _lat in cycles):
        return "deadlock", None
    ratios = [Fraction(tok, lat) for tok, lat in cycles if lat > 0]
    return "ratio", min(ratios) if ratios else None


def random_edges(rng, regime):
    """Multigraph edges ``(u, v, tokens, latency)``.  Regime 0 keeps every
    token count positive; regime 1 adds zero-latency back edges; regime 2
    allows anti-tokens and empty edges anywhere."""
    n = rng.randint(1, 6)
    edges = []
    for _ in range(rng.randint(1, 11)):
        u, v = rng.randrange(n), rng.randrange(n)
        latency = rng.choice((0, 1, 1, 2))
        if regime == 2:
            tokens = rng.choice((-1, 0, 0, 1, 1, 2, 3))
        else:
            tokens = rng.randint(1, 3)
        edges.append((u, v, tokens, latency))
        if regime == 1 and rng.random() < 0.4:
            edges.append((v, u, rng.choice((0, 1, 2)), 0))
    return edges


def our_mcr(edges):
    try:
        return "ratio", graphalg.min_cycle_ratio(edges)
    except graphalg.NonPositiveCycle as witness:
        cycle = witness.cycle
        assert all(e in edges for e in cycle)
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assert len({e[0] for e in cycle}) == len(cycle)     # simple
        assert witness.tokens <= 0
        return ("capacity" if witness.latency == 0 else "deadlock"), None


def test_mcr_matches_brute_force_enumeration():
    outcomes = {}
    for seed in range(600):
        rng = random.Random(seed)
        edges = random_edges(rng, seed % 3)
        expected = brute_force_mcr(edges)
        assert our_mcr(edges) == expected, (seed, edges)
        outcomes[expected[0]] = outcomes.get(expected[0], 0) + 1
    # every outcome class is exercised, ratios most often
    assert outcomes["ratio"] > 200
    assert outcomes["capacity"] > 20 and outcomes["deadlock"] > 20


def test_mcr_without_positive_latency_cycles_is_none():
    assert graphalg.min_cycle_ratio([]) is None
    assert graphalg.min_cycle_ratio([("a", "b", 0, 1)]) is None
    assert graphalg.min_cycle_ratio(
        [("a", "b", 1, 0), ("b", "a", 0, 0)]) is None


def test_mcr_reports_zero_latency_cycle_first():
    edges = [("a", "b", 0, 3), ("b", "a", 0, 1),      # deadlock
             ("c", "d", 0, 0), ("d", "c", 0, 0)]      # capacity loop
    with pytest.raises(graphalg.NonPositiveCycle) as info:
        graphalg.min_cycle_ratio(edges)
    assert info.value.latency == 0
    assert info.value.cycle in ([edges[2], edges[3]], [edges[3], edges[2]])


def test_mcr_on_many_parallel_edges():
    """Twelve stages of four parallel edges each: 4**12 edge choices on
    the forward ring, a handful of probes here."""
    edges = []
    for k in range(12):
        for lane in range(4):
            edges.append((k, (k + 1) % 12, 1 if k == 0 else 0, 1))
            edges.append(((k + 1) % 12, k, 1 if k == 0 else 2, 1))
    assert graphalg.min_cycle_ratio(edges) == Fraction(1, 12)


# ---------------------------------------------------------------------------
# import hygiene


def test_runtime_imports_no_networkx():
    """The runtime's entry points load without networkx: a count of the
    modules imported, not a timing."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.perf.sweep, repro.serve.server\n"
        "import repro.verif.leads_to\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'networkx' or m.startswith('networkx.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
