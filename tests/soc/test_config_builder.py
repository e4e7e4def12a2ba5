"""Tests for SoC configuration, generation and device-tree emission."""

import pytest

from repro.soc import (
    SoCConfig,
    TILE_OVERHEAD,
    TileConfig,
    build_soc,
    devices_from_config,
    emit_dts,
)
from tests.noc.routing import routing_tables
from tests.conftest import make_spec


def minimal_config():
    config = SoCConfig(cols=3, rows=2, name="mini")
    config.add_cpu((0, 0))
    config.add_memory((1, 0))
    config.add_aux((2, 0))
    config.add_accelerator((0, 1), "acc0", make_spec())
    return config


class TestTileConfig:
    def test_acc_requires_spec_and_name(self):
        with pytest.raises(ValueError):
            TileConfig(kind="acc")
        with pytest.raises(ValueError):
            TileConfig(kind="acc", spec=make_spec())

    def test_non_acc_cannot_carry_spec(self):
        with pytest.raises(ValueError):
            TileConfig(kind="cpu", name="c", spec=make_spec())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TileConfig(kind="gpu")


class TestSoCConfig:
    def test_double_assignment_rejected(self):
        config = minimal_config()
        with pytest.raises(ValueError):
            config.add_cpu((0, 0))

    def test_out_of_grid_rejected(self):
        config = minimal_config()
        with pytest.raises(ValueError):
            config.add_aux((9, 9))

    def test_duplicate_device_name_rejected(self):
        config = minimal_config()
        with pytest.raises(ValueError):
            config.add_accelerator((1, 1), "acc0", make_spec())

    def test_next_free_row_major(self):
        config = minimal_config()
        assert config.next_free() == (1, 1)

    def test_next_free_full_grid(self):
        config = SoCConfig(cols=1, rows=1)
        config.add_cpu((0, 0))
        with pytest.raises(ValueError):
            config.next_free()

    def test_validate_requires_cpu_and_memory(self):
        config = SoCConfig(cols=2, rows=1)
        config.add_memory((0, 0))
        with pytest.raises(ValueError, match="processor"):
            config.validate()
        config2 = SoCConfig(cols=2, rows=1)
        config2.add_cpu((0, 0))
        with pytest.raises(ValueError, match="memory"):
            config2.validate()

    def test_grid_limited_to_16(self):
        with pytest.raises(ValueError):
            SoCConfig(cols=17, rows=2)

    def test_floorplan_text(self):
        text = minimal_config().floorplan_text()
        assert "cpu" in text and "mem" in text and "acc" in text
        assert "empty" in text

    def test_tiles_of_kind_sorted(self):
        config = minimal_config()
        config.add_accelerator((1, 1), "acc1", make_spec())
        names = [t.name for _, t in config.tiles_of_kind("acc")]
        assert names == ["acc0", "acc1"]


class TestBuildSoC:
    def test_builds_all_tiles(self):
        soc = build_soc(minimal_config())
        assert soc.cpu.coord == (0, 0)
        assert len(soc.memory_map.tiles) == 1
        assert set(soc.accelerators) == {"acc0"}
        assert len(soc.aux_tiles) == 1

    def test_routing_tables_for_every_coord(self):
        soc = build_soc(minimal_config())
        assert len(routing_tables(soc.config.cols, soc.config.rows)) == 6

    def test_resources_include_overheads(self):
        soc = build_soc(minimal_config())
        total = soc.resources()
        floor = sum((TILE_OVERHEAD[k] for k in
                     ("cpu", "mem", "aux", "acc")),
                    TILE_OVERHEAD["empty"].scaled(2))
        assert total.luts >= floor.luts

    def test_clock_conversion(self):
        config = minimal_config()
        config.clock_mhz = 100.0
        soc = build_soc(config)
        assert soc.clock_mhz == 100.0

    def test_accelerator_lookup_error(self):
        soc = build_soc(minimal_config())
        with pytest.raises(KeyError):
            soc.accelerator("nope")

    def test_invalid_config_rejected_at_build(self):
        config = SoCConfig(cols=2, rows=1)
        config.add_cpu((0, 0))
        with pytest.raises(ValueError):
            build_soc(config)


class TestDeviceTree:
    def test_devices_in_probe_order(self):
        config = minimal_config()
        config.add_accelerator((1, 1), "acc1", make_spec())
        nodes = devices_from_config(config)
        assert [n.name for n in nodes] == ["acc0", "acc1"]
        assert nodes[0].reg_base != nodes[1].reg_base
        assert nodes[0].irq == 1

    def test_dts_renders_every_device(self):
        config = minimal_config()
        text = emit_dts(config)
        assert "/dts-v1/;" in text
        assert "acc0@" in text
        assert "esp,noc-coords = <0 1>" in text
        assert f"columns = <{config.cols}>" in text
