"""Unit and property tests for IPv4 address/prefix primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net import IPv4Address, IPv4Prefix
from repro.net.ip import PREFIX_MASKS, in_prefix


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert int(IPv4Address("192.0.2.1")) == 0xC0000201

    def test_parse_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_copy_constructor(self):
        a = IPv4Address("203.0.113.7")
        assert IPv4Address(a) == a

    def test_zero_and_max(self):
        assert str(IPv4Address(0)) == "0.0.0.0"
        assert str(IPv4Address(0xFFFFFFFF)) == "255.255.255.255"

    @pytest.mark.parametrize("bad", ["256.0.0.1", "1.2.3", "1.2.3.4.5", "", "a.b.c.d", "1..2.3"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    def test_rejects_out_of_range_ints(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_rejects_wrong_type(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)

    def test_ordering_and_hash(self):
        a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        assert a < b and b > a and a != b
        assert len({a, IPv4Address("10.0.0.1")}) == 1

    def test_int_equality(self):
        assert IPv4Address("10.0.0.1") == 0x0A000001

    def test_arithmetic(self):
        a = IPv4Address("10.0.0.1")
        assert a + 5 == IPv4Address("10.0.0.6")
        assert (a + 5) - a == 5
        assert (a + 5) - 5 == a

    def test_to_prefix(self):
        assert IPv4Address("1.2.3.4").to_prefix() == IPv4Prefix("1.2.3.4/32")

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_string_roundtrip(self, value):
        assert int(IPv4Address(str(IPv4Address(value)))) == value


class TestIPv4Prefix:
    def test_parse_cidr(self):
        p = IPv4Prefix("10.0.0.0/8")
        assert p.length == 8
        assert str(p) == "10.0.0.0/8"

    def test_host_bits_rejected_in_string(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.1/8")

    def test_host_bits_cleared_from_int(self):
        p = IPv4Prefix(IPv4Address("10.1.2.3"), 16)
        assert str(p) == "10.1.0.0/16"

    def test_length_given_twice_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/8", 8)

    def test_missing_length_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0")

    @pytest.mark.parametrize("bad_len", [-1, 33])
    def test_bad_length_rejected(self, bad_len):
        with pytest.raises(AddressError):
            IPv4Prefix(0, bad_len)

    def test_contains_address(self):
        p = IPv4Prefix("192.0.2.0/24")
        assert IPv4Address("192.0.2.255") in p
        assert IPv4Address("192.0.3.0") not in p

    def test_contains_prefix(self):
        outer = IPv4Prefix("10.0.0.0/8")
        assert IPv4Prefix("10.5.0.0/16") in outer
        assert outer not in IPv4Prefix("10.5.0.0/16")
        assert outer in outer

    def test_default_route_contains_everything(self):
        default = IPv4Prefix(0, 0)
        assert IPv4Address("8.8.8.8") in default

    def test_num_addresses(self):
        assert IPv4Prefix("10.0.0.0/30").num_addresses == 4
        assert IPv4Prefix("1.2.3.4/32").num_addresses == 1

    def test_hosts_enumeration(self):
        hosts = list(IPv4Prefix("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]

    def test_address_at_bounds(self):
        p = IPv4Prefix("10.0.0.0/30")
        assert p.address_at(3) == IPv4Address("10.0.0.3")
        with pytest.raises(AddressError):
            p.address_at(4)

    def test_subnets(self):
        subs = list(IPv4Prefix("10.0.0.0/24").subnets(26))
        assert len(subs) == 4
        assert subs[1] == IPv4Prefix("10.0.0.64/26")

    def test_subnets_invalid(self):
        with pytest.raises(AddressError):
            list(IPv4Prefix("10.0.0.0/24").subnets(23))

    def test_supernet(self):
        assert IPv4Prefix("10.1.0.0/16").supernet(8) == IPv4Prefix("10.0.0.0/8")
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/8").supernet(16)

    def test_equality_and_hash(self):
        a = IPv4Prefix("10.0.0.0/8")
        assert a == IPv4Prefix("10.0.0.0/8")
        assert a != IPv4Prefix("10.0.0.0/9")
        assert len({a, IPv4Prefix("10.0.0.0/8")}) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_canonicalisation_idempotent(self, base, length):
        p = IPv4Prefix(base, length)
        assert IPv4Prefix(p.network_int, length) == p
        assert p.network_int & (p.num_addresses - 1) == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_contains_own_network_and_broadcast(self, base, length):
        p = IPv4Prefix(base, length)
        assert p.network in p
        assert IPv4Address(p.broadcast_int) in p


class TestPrefixMasks:
    def test_mask_table_bounds(self):
        assert len(PREFIX_MASKS) == 33
        assert PREFIX_MASKS[0] == 0
        assert PREFIX_MASKS[24] == 0xFFFFFF00
        assert PREFIX_MASKS[32] == 0xFFFFFFFF

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=20),
           st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_in_prefix_agrees_with_contains(self, addresses, base, length):
        prefix = IPv4Prefix(base, length)
        mask = in_prefix(np.array(addresses, dtype=np.uint32), prefix)
        assert mask.tolist() == [prefix.contains(a) for a in addresses]
