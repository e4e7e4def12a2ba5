"""Tests for the socket register file, LOCATION_REG and P2P_REG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.soc import (
    CMD_REG,
    LOCATION_REG,
    MAX_P2P_SOURCES,
    P2PConfig,
    P2P_REG,
    RegisterFile,
    STATUS_REG,
    decode_location,
    encode_location,
)
from tests.conftest import make_soc, make_spec


class TestLocationReg:
    def test_encode_decode(self):
        assert decode_location(encode_location((3, 2))) == (3, 2)

    def test_read_only(self):
        regs = RegisterFile((1, 2))
        with pytest.raises(PermissionError):
            regs.write(LOCATION_REG, 0)

    def test_exposes_tile_coordinates(self):
        regs = RegisterFile((3, 1))
        assert regs.location() == (3, 1)

    @given(x=st.integers(0, 15), y=st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_any_coordinate(self, x, y):
        assert decode_location(encode_location((x, y))) == (x, y)


class TestP2PConfig:
    def test_default_disabled(self):
        config = P2PConfig()
        assert not config.uses_p2p
        assert config.encode() == 0

    def test_store_only(self):
        config = P2PConfig(store_enabled=True)
        decoded = P2PConfig.decode(config.encode())
        assert decoded.store_enabled and not decoded.load_enabled

    def test_load_with_sources_roundtrip(self):
        config = P2PConfig(load_enabled=True,
                           sources=((1, 2), (3, 0), (0, 1)))
        decoded = P2PConfig.decode(config.encode())
        assert decoded == config

    def test_load_without_sources_rejected(self):
        with pytest.raises(ValueError):
            P2PConfig(load_enabled=True)

    def test_max_four_sources(self):
        sources = tuple((i, 0) for i in range(5))
        with pytest.raises(ValueError):
            P2PConfig(load_enabled=True, sources=sources)

    def test_coordinates_must_fit_nibbles(self):
        with pytest.raises(ValueError):
            P2PConfig(load_enabled=True, sources=((16, 0),))

    @given(store=st.booleans(),
           sources=st.lists(st.tuples(st.integers(0, 15),
                                      st.integers(0, 15)),
                            min_size=1, max_size=MAX_P2P_SOURCES))
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_roundtrip(self, store, sources):
        config = P2PConfig(store_enabled=store, load_enabled=True,
                           sources=tuple(sources))
        assert P2PConfig.decode(config.encode()) == config


class TestRegisterFile:
    def test_standard_registers_present(self):
        regs = RegisterFile((0, 0))
        for name in (CMD_REG, "STATUS_REG", "SRC_OFFSET_REG",
                     "DST_OFFSET_REG", "SRC_STRIDE_REG", "DST_STRIDE_REG",
                     LOCATION_REG, P2P_REG):
            assert name in regs.names

    def test_user_registers(self):
        regs = RegisterFile((0, 0), user_registers=["GAIN_REG"])
        regs.write("GAIN_REG", 7)
        assert regs.read("GAIN_REG") == 7

    def test_user_register_collision(self):
        with pytest.raises(ValueError):
            RegisterFile((0, 0), user_registers=[CMD_REG])

    def test_unknown_register(self):
        regs = RegisterFile((0, 0))
        with pytest.raises(KeyError):
            regs.read("NOPE")
        with pytest.raises(KeyError):
            regs.write("NOPE", 1)

    def test_write_hooks_fire(self):
        regs = RegisterFile((0, 0))
        seen = []
        regs.on_write(lambda name, value: seen.append((name, value)))
        regs.write(CMD_REG, 1)
        assert seen == [(CMD_REG, 1)]

    def test_p2p_helpers(self):
        regs = RegisterFile((0, 0))
        config = P2PConfig(load_enabled=True, sources=((2, 1),))
        regs.write(P2P_REG, config.encode())
        assert regs.p2p_config() == config


class TestMmioReads:
    """``read_reg_bounded`` over the IO plane, with a bound every reply
    meets: the round trip and the per-tag demultiplexing of replies."""

    BOUND = 10_000

    @staticmethod
    def soc():
        return make_soc([("a0", make_spec(name="a", input_words=8,
                                          output_words=8)),
                         ("b0", make_spec(name="b", input_words=8,
                                          output_words=8))])

    def test_status_read_roundtrip_primitive(self):
        soc = self.soc()
        tile = soc.accelerator("a0")
        values = []

        def proc():
            for name in (STATUS_REG, "SRC_OFFSET_REG"):
                value = yield from soc.cpu.read_reg_bounded(
                    tile.coord, name, self.BOUND)
                values.append(value)

        done = soc.env.process(proc())
        soc.run(until=done)
        assert values == [0, 0]
        assert soc.cpu.reg_read_timeouts == 0

    def test_concurrent_reads_demuxed(self):
        soc = self.soc()
        a = soc.accelerator("a0")
        b = soc.accelerator("b0")
        a.regs._values["SRC_OFFSET_REG"] = 111
        b.regs._values["SRC_OFFSET_REG"] = 222
        got = {}

        def reader(key, coord):
            got[key] = yield from soc.cpu.read_reg_bounded(
                coord, "SRC_OFFSET_REG", self.BOUND)

        soc.env.process(reader("a", a.coord))
        soc.env.process(reader("b", b.coord))
        soc.run()
        assert got == {"a": 111, "b": 222}
