"""Int-backed IPv4 address and prefix types.

The whole library treats an IPv4 address as an unsigned 32-bit integer and a
prefix as a ``(network_int, prefix_length)`` pair. These wrapper classes give
those integers a parsed/validated, hashable, ordered, nicely-printed face
while staying cheap to convert back to raw ints for numpy bulk storage.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Union

import numpy as np

from repro.errors import AddressError

_MAX_IPV4 = 0xFFFFFFFF
_DOTTED_QUAD_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

IPv4Like = Union["IPv4Address", int, str]


@total_ordering
class IPv4Address:
    """A single IPv4 address.

    Accepts dotted-quad strings, non-negative ints below 2**32, or another
    :class:`IPv4Address`.

    >>> IPv4Address("192.0.2.1") == IPv4Address(0xC0000201)
    True
    """

    __slots__ = ("_value",)

    def __init__(self, value: IPv4Like):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= _MAX_IPV4:
                raise AddressError(f"IPv4 int out of range: {value!r}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as an unsigned 32-bit integer."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)

    def __sub__(self, other: Union[int, "IPv4Address"]) -> Union["IPv4Address", int]:
        if isinstance(other, IPv4Address):
            return self._value - other._value
        return IPv4Address(self._value - other)

    def to_prefix(self) -> "IPv4Prefix":
        """The /32 prefix covering exactly this address."""
        return IPv4Prefix(self._value, 32)


def _parse_dotted_quad(text: str) -> int:
    match = _DOTTED_QUAD_RE.match(text.strip())
    if match is None:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for group in match.groups():
        octet = int(group)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


#: ``PREFIX_MASKS[length]`` is the netmask of a ``/length`` prefix as an int
PREFIX_MASKS: tuple[int, ...] = tuple(
    (_MAX_IPV4 << (32 - length)) & _MAX_IPV4 for length in range(33))


def in_prefix(addresses: np.ndarray, prefix: "IPv4Prefix") -> np.ndarray:
    """Boolean mask of the ``uint32`` ``addresses`` inside ``prefix``."""
    return ((addresses & np.uint32(PREFIX_MASKS[prefix.length]))
            == np.uint32(prefix.network_int))


@total_ordering
class IPv4Prefix:
    """An IPv4 network prefix in CIDR form.

    The network address is canonicalised (host bits cleared); construction
    from a string with host bits set raises :class:`AddressError` to surface
    sloppy inputs early, while int construction clears them silently because
    bulk generators routinely hand in arbitrary base addresses.

    >>> IPv4Prefix("10.0.0.0/8").contains(IPv4Address("10.1.2.3"))
    True
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, network: Union[IPv4Like], length: int | None = None):
        if isinstance(network, IPv4Prefix):
            self._network, self._length = network._network, network._length
            self._hash = network._hash
            return
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise AddressError("length given twice (in string and argument)")
            addr_text, _, len_text = network.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError(f"bad prefix length in {network!r}") from None
            base = _parse_dotted_quad(addr_text)
            if not 0 <= length <= 32:
                raise AddressError(f"prefix length out of range: {length}")
            if base & ~PREFIX_MASKS[length] & _MAX_IPV4:
                raise AddressError(f"host bits set in {network!r}")
            self._network, self._length = base, length
            self._hash = hash((base, length))
            return
        if length is None:
            raise AddressError("prefix length required")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        base = int(IPv4Address(network))
        self._network = base & PREFIX_MASKS[length]
        self._length = length
        self._hash = hash((self._network, length))

    @property
    def network(self) -> IPv4Address:
        """The (canonicalised) network address."""
        return IPv4Address(self._network)

    @property
    def network_int(self) -> int:
        return self._network

    @property
    def length(self) -> int:
        """The prefix length in bits (0–32)."""
        return self._length

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self._length)

    @property
    def broadcast_int(self) -> int:
        return self._network | (~PREFIX_MASKS[self._length] & _MAX_IPV4)

    def contains(self, item: Union[IPv4Like, "IPv4Prefix"]) -> bool:
        """Whether an address (or a whole prefix) falls inside this prefix."""
        if isinstance(item, IPv4Prefix):
            return (
                item._length >= self._length
                and (item._network & PREFIX_MASKS[self._length]) == self._network
            )
        return (int(IPv4Address(item)) & PREFIX_MASKS[self._length]) == self._network

    def __contains__(self, item: Union[IPv4Like, "IPv4Prefix"]) -> bool:
        return self.contains(item)

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (including network/broadcast).

        Intended for short prefixes used in scenarios (/24 and longer); a /8
        would yield 16M items, so callers should slice responsibly.
        """
        for offset in range(self.num_addresses):
            yield IPv4Address(self._network + offset)

    def address_at(self, offset: int) -> IPv4Address:
        """The address at ``offset`` within the prefix, bounds-checked."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(f"offset {offset} outside {self}")
        return IPv4Address(self._network + offset)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Iterate the subdivisions of this prefix at ``new_length`` bits."""
        if new_length < self._length or new_length > 32:
            raise AddressError(
                f"cannot subnet /{self._length} into /{new_length}"
            )
        step = 1 << (32 - new_length)
        for base in range(self._network, self.broadcast_int + 1, step):
            yield IPv4Prefix(base, new_length)

    def supernet(self, new_length: int) -> "IPv4Prefix":
        """The covering prefix of this one at a shorter length."""
        if new_length > self._length or new_length < 0:
            raise AddressError(
                f"cannot supernet /{self._length} to /{new_length}"
            )
        return IPv4Prefix(self._network, new_length)

    def __str__(self) -> str:
        return f"{self.network}/{self._length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return self._network == other._network and self._length == other._length

    def __lt__(self, other: "IPv4Prefix") -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        return self._hash
