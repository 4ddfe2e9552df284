"""Property-based tests of the radix trie: longest-prefix matching must
agree with a brute-force oracle over the same route table, for any table
and any probe address."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPv4Address, IPv4Prefix
from repro.net.radix import RadixTree

prefixes = st.builds(
    IPv4Prefix,
    st.integers(0, 2**32 - 1),
    st.integers(0, 32),
)
addresses = st.integers(0, 2**32 - 1)
tables = st.lists(prefixes, max_size=40)


def brute_force_lpm(routes, address):
    """The obviously-correct LPM: scan every route, keep the longest."""
    best = None
    for prefix in routes:
        if prefix.contains(IPv4Address(address)):
            if best is None or prefix.length > best.length:
                best = prefix
    return best


def build(routes):
    tree = RadixTree()
    for i, prefix in enumerate(routes):
        tree.insert(prefix, i)
    return tree


class TestLookupOracle:
    @settings(max_examples=200, deadline=None)
    @given(tables, addresses)
    def test_lookup_matches_brute_force(self, routes, address):
        tree = build(routes)
        expected = brute_force_lpm(routes, address)
        got = tree.lookup(address)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            prefix, _ = got
            assert prefix.length == expected.length
            assert prefix.network_int == expected.network_int

    @settings(max_examples=150, deadline=None)
    @given(tables, addresses)
    def test_lookup_all_is_every_cover_most_specific_last(self, routes,
                                                          address):
        tree = build(routes)
        covers = sorted({p.length for p in routes
                         if p.contains(IPv4Address(address))})
        found = tree.lookup_all(address)
        assert [p.length for p, _ in found] == covers
        if found:
            assert found[-1][0].length == tree.lookup(address)[0].length

    @settings(max_examples=150, deadline=None)
    @given(tables, addresses)
    def test_removal_falls_back_to_next_best(self, routes, address):
        tree = build(routes)
        got = tree.lookup(address)
        if got is None:
            return
        best, _ = got
        assert tree.remove(best)
        remaining = [p for p in routes
                     if (p.network_int, p.length)
                     != (best.network_int, best.length)]
        expected = brute_force_lpm(remaining, address)
        fallback = tree.lookup(address)
        if expected is None:
            assert fallback is None
        else:
            assert fallback is not None
            assert fallback[0].length == expected.length

    @settings(max_examples=100, deadline=None)
    @given(tables)
    def test_size_and_items_match_the_route_set(self, routes):
        tree = build(routes)
        unique = {(p.network_int, p.length) for p in routes}
        assert len(tree) == len(unique)
        assert {(p.network_int, p.length) for p, _ in tree.items()} == unique

    @settings(max_examples=100, deadline=None)
    @given(tables)
    def test_insert_then_remove_everything_empties_the_tree(self, routes):
        tree = build(routes)
        for prefix in routes:
            tree.remove(prefix)
        assert len(tree) == 0
        assert tree.lookup(0) is None
        assert list(tree.items()) == []

    @settings(max_examples=100, deadline=None)
    @given(tables, prefixes)
    def test_exact_match_agrees_with_membership(self, routes, probe):
        tree = build(routes)
        stored = {(p.network_int, p.length) for p in routes}
        key = (probe.network_int, probe.length)
        assert (probe in tree) == (key in stored)
        if key not in stored:
            assert tree.get(probe) is None


# A small pool of prefixes so interleaved operations collide often: the
# default route, a few nested covers, host routes and their siblings.
POOL = [IPv4Prefix(0, 0), IPv4Prefix("10.0.0.0/8"), IPv4Prefix("10.1.0.0/16"),
        IPv4Prefix("10.1.2.0/24"), IPv4Prefix("10.1.2.0/25"),
        IPv4Prefix("10.1.2.3/32"), IPv4Prefix("10.1.2.4/32"),
        IPv4Prefix("192.0.2.0/24"), IPv4Prefix("192.0.2.1/32"),
        IPv4Prefix("255.255.255.255/32")]
pooled = st.one_of(st.sampled_from(POOL), prefixes)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), pooled,
              st.integers(0, 9)),
    max_size=60)


def key(prefix):
    return (prefix.network_int, prefix.length)


class TestMapContracts:
    @settings(max_examples=100, deadline=None)
    @given(tables)
    def test_items_are_ordered_by_network_then_length(self, routes):
        tree = build(routes)
        listed = [key(p) for p, _ in tree.items()]
        assert listed == sorted({key(p) for p in routes})
        assert [key(p) for p in tree.keys()] == listed

    @settings(max_examples=150, deadline=None)
    @given(st.lists(pooled, max_size=40), pooled)
    def test_covered_matches_brute_force(self, routes, probe):
        tree = build(routes)
        oracle = {key(p): i for i, p in enumerate(routes)}
        expected = sorted((k, v) for k, v in oracle.items()
                          if k[1] >= probe.length
                          and probe.contains(IPv4Prefix(*k)))
        assert [(key(p), v) for p, v in tree.covered(probe)] == expected

    @settings(max_examples=200, deadline=None)
    @given(operations, addresses)
    def test_interleaved_updates_match_a_dict(self, ops, address):
        tree = RadixTree()
        oracle = {}
        for op, prefix, value in ops:
            if op == "insert":
                tree.insert(prefix, value)
                oracle[key(prefix)] = value
            else:
                assert tree.remove(prefix) == (key(prefix) in oracle)
                oracle.pop(key(prefix), None)
            assert len(tree) == len(oracle)
            assert bool(tree) == bool(oracle)
            assert (prefix in tree) == (key(prefix) in oracle)
            assert tree.get(prefix) == oracle.get(key(prefix))
        assert [(key(p), v) for p, v in tree.items()] == sorted(oracle.items())
        covers = sorted((k, v) for k, v in oracle.items()
                        if IPv4Prefix(*k).contains(IPv4Address(address)))
        assert [(key(p), v) for p, v in tree.lookup_all(address)] == covers
        got = tree.lookup(address)
        if covers:
            assert (key(got[0]), got[1]) == covers[-1]
        else:
            assert got is None

    def test_reinsert_at_a_length_whose_table_was_emptied(self):
        tree = RadixTree()
        tree.insert(IPv4Prefix("10.1.2.3/32"), "a")
        tree.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        assert tree.remove(IPv4Prefix("10.1.2.3/32"))
        assert tree.lookup(IPv4Address("10.1.2.3"))[1] == "coarse"
        tree.insert(IPv4Prefix("10.1.2.4/32"), "b")
        assert tree.lookup(IPv4Address("10.1.2.4")) == (
            IPv4Prefix("10.1.2.4/32"), "b")
        assert tree.lookup(IPv4Address("10.1.2.3"))[1] == "coarse"
        assert len(tree) == 2

    def test_default_and_host_routes_bracket_every_lookup(self):
        tree = RadixTree()
        tree.insert(IPv4Prefix(0, 0), "default")
        tree.insert(IPv4Prefix("255.255.255.255/32"), "top")
        tree.insert(IPv4Prefix(0, 32), "bottom")
        assert tree.lookup(2**32 - 1)[1] == "top"
        assert tree.lookup(0)[1] == "bottom"
        assert tree.lookup(1)[1] == "default"
        assert [v for _, v in tree.lookup_all(0)] == ["default", "bottom"]
        assert [v for _, v in tree.items()] == ["default", "bottom", "top"]
