"""An IPv4 prefix map with longest-prefix matching, kept per prefix length.

This is the FIB/RIB backbone: route lookup, exact match, covered-prefix
enumeration, and removal. Entries live in one hash table per prefix
length, ``{length: {network_int: value}}``, beside the ascending list of
lengths that currently hold entries. The costs follow from that layout:

* ``insert``, ``get``, ``in`` and ``remove`` are one dict operation;
* ``lookup`` masks the address once per length in use, longest first,
  and ``lookup_all`` does the same shortest first — at most 33 probes,
  usually a handful;
* ``covered`` and ``items`` scan every entry and sort what they yield by
  ``(network_int, length)``, which is the order a binary trie's pre-order
  walk produces.

Route replay is dominated by exact-match installs, removals and gets, which
is why the map is laid out for those rather than for enumeration.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.ip import PREFIX_MASKS, IPv4Address, IPv4Prefix

V = TypeVar("V")

_ABSENT = object()
_position = itemgetter(0, 1)


class RadixTree(Generic[V]):
    """Map from :class:`IPv4Prefix` to arbitrary values with LPM lookup.

    >>> tree = RadixTree()
    >>> tree.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
    >>> tree.insert(IPv4Prefix("10.1.0.0/16"), "fine")
    >>> tree.lookup(IPv4Address("10.1.2.3"))
    (IPv4Prefix('10.1.0.0/16'), 'fine')
    """

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, V]] = {}
        #: lengths with a non-empty table, ascending
        self._lengths: List[int] = []

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def __bool__(self) -> bool:
        return bool(self._lengths)

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        length = prefix.length
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            insort(self._lengths, length)
        table[prefix.network_int] = value

    def get(self, prefix: IPv4Prefix) -> Optional[V]:
        """Exact-match lookup; ``None`` when the prefix is absent."""
        table = self._tables.get(prefix.length)
        return None if table is None else table.get(prefix.network_int)

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        table = self._tables.get(prefix.length)
        return table is not None and prefix.network_int in table

    def lookup(self, address: IPv4Address | int) -> Optional[Tuple[IPv4Prefix, V]]:
        """Longest-prefix match for ``address``.

        Returns the ``(prefix, value)`` of the most specific covering entry,
        or ``None`` when nothing covers the address.
        """
        addr = int(address)
        for length in reversed(self._lengths):
            network = addr & PREFIX_MASKS[length]
            value = self._tables[length].get(network, _ABSENT)
            if value is not _ABSENT:
                return IPv4Prefix(network, length), value  # type: ignore[return-value]
        return None

    def lookup_all(self, address: IPv4Address | int) -> list[Tuple[IPv4Prefix, V]]:
        """All covering entries for ``address``, least specific first."""
        addr = int(address)
        found: list[Tuple[IPv4Prefix, V]] = []
        for length in self._lengths:
            network = addr & PREFIX_MASKS[length]
            value = self._tables[length].get(network, _ABSENT)
            if value is not _ABSENT:
                found.append((IPv4Prefix(network, length), value))  # type: ignore[arg-type]
        return found

    def remove(self, prefix: IPv4Prefix) -> bool:
        """Delete the entry at ``prefix``; returns whether it existed.

        A length whose table empties stops being probed, so long-running
        simulations do not slow down as blackholes come and go.
        """
        length = prefix.length
        table = self._tables.get(length)
        if table is None or table.pop(prefix.network_int, _ABSENT) is _ABSENT:
            return False
        if not table:
            del self._tables[length]
            self._lengths.remove(length)
        return True

    def covered(self, prefix: IPv4Prefix) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Iterate entries that are equal to or more specific than ``prefix``."""
        mask = PREFIX_MASKS[prefix.length]
        network = prefix.network_int
        yield from _in_order(
            (net, length, value)
            for length in self._lengths if length >= prefix.length
            for net, value in self._tables[length].items()
            if net & mask == network)

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Iterate every stored ``(prefix, value)`` by ``(network, length)``."""
        yield from _in_order(
            (net, length, value)
            for length, table in self._tables.items()
            for net, value in table.items())

    def keys(self) -> Iterator[IPv4Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        for _, value in self.items():
            yield value

    def clear(self) -> None:
        self._tables = {}
        self._lengths = []


def _in_order(entries) -> Iterator[Tuple[IPv4Prefix, V]]:
    """``(network, length, value)`` entries as ``(prefix, value)`` pairs,
    sorted by ``(network, length)``."""
    for network, length, value in sorted(entries, key=_position):
        yield IPv4Prefix(network, length), value
