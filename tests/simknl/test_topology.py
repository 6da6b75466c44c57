"""Tests for the tile/mesh topology model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simknl.topology import KNLTopology, Tile


class TestDefaults:
    def test_knl_7250_counts(self):
        t = KNLTopology()
        assert t.num_cores == 68
        assert t.num_threads == 272
        assert len(t.tiles) == 34

    def test_tiles_have_two_cores(self):
        t = KNLTopology()
        for tile in t.tiles:
            assert len(tile.cores) == 2

    def test_cores_are_dense_and_unique(self):
        t = KNLTopology()
        all_cores = [c for tile in t.tiles for c in tile.cores]
        assert sorted(all_cores) == list(range(68))

    def test_tile_positions_within_grid(self):
        t = KNLTopology()
        for tile in t.tiles:
            r, c = tile.position
            assert 0 <= r < t.rows
            assert 0 <= c < t.cols


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            KNLTopology(rows=0)
        with pytest.raises(ConfigError):
            KNLTopology(cols=-1)

    def test_rejects_too_many_active_tiles(self):
        with pytest.raises(ConfigError):
            KNLTopology(rows=2, cols=2, active_tiles=5)

    def test_rejects_zero_active_tiles(self):
        with pytest.raises(ConfigError):
            KNLTopology(active_tiles=0)

    def test_rejects_bad_mesh_bandwidth(self):
        with pytest.raises(ConfigError):
            KNLTopology(mesh_bandwidth=0)


class TestLookup:
    def test_tile_of_core(self):
        t = KNLTopology()
        assert t.tile_of_core(0).tile_id == 0
        assert t.tile_of_core(1).tile_id == 0
        assert t.tile_of_core(2).tile_id == 1
        assert t.tile_of_core(67).tile_id == 33

    def test_tile_of_core_out_of_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.tile_of_core(68)
        with pytest.raises(ConfigError):
            t.tile_of_core(-1)

    def test_core_of_thread_compact(self):
        t = KNLTopology()
        assert t.core_of_thread(0) == 0
        assert t.core_of_thread(3) == 0
        assert t.core_of_thread(4) == 1
        assert t.core_of_thread(271) == 67

    def test_core_of_thread_out_of_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.core_of_thread(272)


class TestMesh:
    def test_distance_self_is_zero(self):
        t = KNLTopology()
        assert t.mesh_distance(0, 0) == 0

    def test_distance_is_manhattan_on_grid(self):
        t = KNLTopology()
        for a in t.tiles:
            for b in t.tiles:
                (ra, ca), (rb, cb) = a.position, b.position
                expected = abs(ra - rb) + abs(ca - cb)
                assert t.mesh_distance(a.tile_id, b.tile_id) == expected

    def test_tiles_fill_grid_row_major(self):
        t = KNLTopology(rows=3, cols=5, active_tiles=11)
        assert [tile.position for tile in t.tiles] == [
            (r, c) for r in range(3) for c in range(5)
        ][:11]

    @pytest.mark.parametrize(
        "kwargs, mean",
        [
            ({}, 3.93048128342246),
            ({"rows": 3, "cols": 5, "active_tiles": 11}, 2.5454545454545454),
        ],
    )
    def test_mean_distance_pinned(self, kwargs, mean):
        assert KNLTopology(**kwargs).mean_mesh_distance() == mean

    def test_distance_symmetric(self):
        t = KNLTopology()
        assert t.mesh_distance(3, 20) == t.mesh_distance(20, 3)

    def test_mean_distance_positive(self):
        t = KNLTopology()
        assert t.mean_mesh_distance() > 0

    def test_mean_distance_single_tile(self):
        t = KNLTopology(rows=1, cols=1, active_tiles=1)
        assert t.mean_mesh_distance() == 0.0

    def test_mesh_resource(self):
        t = KNLTopology(mesh_bandwidth=123.0)
        r = t.mesh_resource()
        assert r.name == "mesh"
        assert r.capacity == 123.0


class TestTile:
    def test_default_l2(self):
        tile = Tile(tile_id=0, position=(0, 0), cores=(0, 1))
        assert tile.l2_bytes == 1 << 20


class TestClusterModes:
    def test_default_is_quadrant(self):
        from repro.simknl.topology import ClusterMode

        assert KNLTopology().cluster_mode is ClusterMode.QUADRANT

    def test_quadrants_partition_tiles(self):
        t = KNLTopology()
        quads = [t.quadrant_of_tile(i) for i in range(len(t.tiles))]
        assert set(quads) == {0, 1, 2, 3}
        # Each quadrant holds a reasonable share of the 34 tiles.
        for q in range(4):
            assert 4 <= quads.count(q) <= 14

    def test_quadrant_of_tile_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.quadrant_of_tile(99)

    def test_all_to_all_costs_more_hops(self):
        from repro.simknl.topology import ClusterMode

        a2a = KNLTopology(cluster_mode=ClusterMode.ALL_TO_ALL)
        quad = KNLTopology(cluster_mode=ClusterMode.QUADRANT)
        for tile in (0, 10, 33):
            assert a2a.memory_access_hops(tile) > quad.memory_access_hops(tile)

    def test_snc4_matches_quadrant_hops(self):
        from repro.simknl.topology import ClusterMode

        snc = KNLTopology(cluster_mode=ClusterMode.SNC4)
        quad = KNLTopology(cluster_mode=ClusterMode.QUADRANT)
        assert snc.memory_access_hops(0) == quad.memory_access_hops(0)

    def test_snc4_local_bandwidth_share(self):
        from repro.simknl.topology import ClusterMode

        assert KNLTopology(
            cluster_mode=ClusterMode.SNC4
        ).snc_local_bandwidth_share() == 0.25
        assert KNLTopology(
            cluster_mode=ClusterMode.QUADRANT
        ).snc_local_bandwidth_share() == 1.0

    def test_hops_positive(self):
        t = KNLTopology()
        assert t.memory_access_hops(5) > 0
