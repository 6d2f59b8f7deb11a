"""Unit tests for the CSR view, its kernel and the snapshot format."""

import io
import math
import struct
import threading
import time

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.exceptions import ConfigurationError, GraphError, SnapshotError
from repro.graph.csr import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    CsrGraph,
    _DIR_ENTRY,
    csr_dijkstra,
    ensure_csr,
    load_snapshot,
    map_snapshot,
    save_snapshot,
    snapshot_info,
)
from tests.conftest import drop_accelerators

_HEADER = struct.Struct("<4sHHQQ")


class TestCsrView:
    def test_arc_counts_match_network(self, grid10):
        csr = CsrGraph.from_network(grid10)
        assert csr.num_nodes == grid10.num_nodes
        assert csr.num_edges == grid10.num_edges
        assert csr.fwd_offsets[-1] == grid10.num_edges
        assert csr.bwd_offsets[-1] == grid10.num_edges

    def test_arcs_preserve_adjacency_order(self, grid10):
        csr = CsrGraph.from_network(grid10)
        for node_id in range(grid10.num_nodes):
            expected = [
                (edge.v, edge.id, edge.travel_time_s)
                for edge in grid10.out_edges(node_id)
            ]
            assert list(csr.fwd_arcs[node_id]) == expected
            expected_in = [
                (edge.u, edge.id, edge.travel_time_s)
                for edge in grid10.in_edges(node_id)
            ]
            assert list(csr.bwd_arcs[node_id]) == expected_in

    def test_ensure_builds_once_and_caches(self, grid10):
        first = ensure_csr(grid10)
        assert ensure_csr(grid10) is first
        assert list(first.fwd_targets) == list(
            CsrGraph.from_network(grid10).fwd_targets
        )

    def test_concurrent_first_builds_share_one_view(self, monkeypatch):
        """Serving threads that reach a fresh network's view at the same
        moment get one view, built once."""
        from repro.graph.builder import grid_network

        network = grid_network(6, 6)
        builds = []
        real_build = CsrGraph.from_network.__func__

        def slow_build(cls, net):
            builds.append(net)
            time.sleep(0.05)  # widen the race window
            return real_build(cls, net)

        monkeypatch.setattr(CsrGraph, "from_network", classmethod(slow_build))
        start = threading.Barrier(8)
        views = []

        def reach():
            start.wait()
            views.append(ensure_csr(network))

        threads = [threading.Thread(target=reach) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert len(views) == 8 and all(view is views[0] for view in views)

    def test_repr_mentions_landmarks(self, grid10):
        csr = CsrGraph.from_network(grid10)
        assert "landmarks=no" in repr(csr)
        csr.landmarks = object()
        assert "landmarks=yes" in repr(csr)


class TestCsrKernel:
    def test_max_dist_bounds_the_tree(self, grid10):
        csr = CsrGraph.from_network(grid10)
        bound = 30.0
        pure = dijkstra(grid10, 0, max_dist=bound)
        flat = csr_dijkstra(grid10, csr, 0, max_dist=bound)
        assert flat.dist == pure.dist
        assert flat.parent_edge == pure.parent_edge
        assert any(d == math.inf for d in flat.dist)

    def test_short_weight_vector_rejected(self, grid10):
        csr = CsrGraph.from_network(grid10)
        with pytest.raises(ConfigurationError):
            csr_dijkstra(grid10, csr, 0, weights=[1.0])

    def test_negative_weight_rejected(self, grid10):
        csr = CsrGraph.from_network(grid10)
        weights = [1.0] * grid10.num_edges
        weights[0] = -1.0
        with pytest.raises(ConfigurationError):
            csr_dijkstra(grid10, csr, 0, weights=weights)

    def test_bad_root_rejected(self, grid10):
        csr = CsrGraph.from_network(grid10)
        with pytest.raises(GraphError):
            csr_dijkstra(grid10, csr, grid10.num_nodes + 5)


class TestSnapshots:
    def test_file_round_trip(self, tmp_path, melbourne_small):
        path = tmp_path / "mel.snap"
        save_snapshot(melbourne_small, path)
        restored = load_snapshot(path)
        assert restored.name == melbourne_small.name
        assert list(restored.nodes()) == list(melbourne_small.nodes())
        assert list(restored.edges()) == list(melbourne_small.edges())

    def test_snapshot_info_reads_header_only(self, tmp_path, grid10):
        path = tmp_path / "grid.snap"
        save_snapshot(grid10, path)
        info = snapshot_info(path)
        assert info["magic"] == SNAPSHOT_MAGIC.decode("ascii")
        assert info["version"] == SNAPSHOT_VERSION
        assert info["name"] == grid10.name
        assert info["num_nodes"] == grid10.num_nodes
        assert info["num_edges"] == grid10.num_edges
        assert info["file_bytes"] == path.stat().st_size

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(_HEADER.pack(b"XXXX", SNAPSHOT_VERSION, 0, 1, 0))
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_unsupported_version_rejected(self, tmp_path):
        """Future versions and the retired v1/v2 layouts alike: every
        reader raises a typed error that says how to rebuild."""
        for version in (1, 2, SNAPSHOT_VERSION + 1):
            path = tmp_path / f"v{version}.snap"
            path.write_bytes(
                _HEADER.pack(SNAPSHOT_MAGIC, version, 0, 1, 0)
                + b"\x00" * 64
            )
            for reader in (load_snapshot, map_snapshot, snapshot_info):
                with pytest.raises(SnapshotError, match="version") as err:
                    reader(path)
                assert "repro snapshot build" in str(err.value)

    def test_truncated_payload_rejected(self, tmp_path, grid10):
        buffer = io.BytesIO()
        save_snapshot(grid10, buffer)
        payload = buffer.getvalue()
        path = tmp_path / "cut.snap"
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_snapshot_info_validates_header(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"not a snapshot at all......")
        with pytest.raises(SnapshotError):
            snapshot_info(path)

    def test_snapshot_error_is_graph_error(self):
        assert issubclass(SnapshotError, GraphError)


def _entry(payload, name: bytes):
    """(position, offset, byte length) of one array-directory entry."""
    at = payload.find(name.ljust(16, b"\x00"))
    assert at != -1, name
    _name, _typecode, _count, offset, nbytes = _DIR_ENTRY.unpack_from(
        payload, at
    )
    return at, offset, nbytes


class TestChSections:
    """The persisted contraction hierarchy: the ``ch.*`` arrays."""

    @pytest.fixture()
    def contracted(self):
        from repro.cities import melbourne
        from repro.core.ch import ensure_hierarchy

        network = melbourne(size="small")
        ensure_hierarchy(network)
        return network

    def test_round_trip_restores_hierarchy_without_recontracting(
        self, tmp_path, contracted, monkeypatch
    ):
        import repro.core.ch as ch_module

        path = tmp_path / "ch.snap"
        save_snapshot(contracted, path)
        # Any contraction on load would be a regression: the hierarchy
        # must come back from the section bytes alone.
        monkeypatch.setattr(
            ch_module,
            "build_hierarchy",
            lambda *a, **k: pytest.fail("snapshot load re-contracted"),
        )
        restored = load_snapshot(path)
        csr = ensure_csr(restored)
        assert csr.hierarchy is not None
        original = ensure_csr(contracted).hierarchy
        assert csr.hierarchy.num_arcs == original.num_arcs
        assert csr.hierarchy.num_shortcuts == original.num_shortcuts
        assert csr.hierarchy.shortest_path_nodes(
            0, 100
        ) == original.shortest_path_nodes(0, 100)

    def test_snapshot_info_reports_section_sizes(
        self, tmp_path, contracted, grid10
    ):
        with_ch = tmp_path / "with.snap"
        save_snapshot(contracted, with_ch)
        info = snapshot_info(with_ch)
        assert info["version"] == SNAPSHOT_VERSION
        assert set(info["sections"]) == {"core", "csr", "ch"}
        assert info["sections"]["ch"] > 0

        without = tmp_path / "without.snap"
        drop_accelerators(grid10)  # shared fixture: earlier tests attach
        save_snapshot(grid10, without)
        assert set(snapshot_info(without)["sections"]) == {"core", "csr"}

    def test_truncated_ch_section_raises_typed_error(
        self, tmp_path, contracted
    ):
        buffer = io.BytesIO()
        save_snapshot(contracted, buffer)
        payload = buffer.getvalue()
        path = tmp_path / "cut.snap"
        # Cut into the CH arrays (the file's tail).
        path.write_bytes(payload[: len(payload) - 1000])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_info(path)

    def test_unknown_section_tags_are_skipped(self, tmp_path, contracted):
        buffer = io.BytesIO()
        save_snapshot(contracted, buffer)
        payload = bytearray(buffer.getvalue())
        # Rename the CH anchor array to a name this build does not
        # know; the loader ignores it and returns the network without
        # a hierarchy.
        at, _offset, _nbytes = _entry(payload, b"ch.rank")
        payload[at : at + 7] = b"zz.rank"
        path = tmp_path / "unknown.snap"
        path.write_bytes(bytes(payload))
        restored = load_snapshot(path)
        assert restored.num_nodes == contracted.num_nodes
        assert ensure_csr(restored).hierarchy is None
        info = snapshot_info(path)
        assert {"zz", "ch"} <= set(info["sections"])

    def test_corrupt_ch_payload_raises_typed_error(
        self, tmp_path, contracted
    ):
        buffer = io.BytesIO()
        save_snapshot(contracted, buffer)
        payload = bytearray(buffer.getvalue())
        # Poison the rank array with an out-of-range node rank.
        _at, rank_at, _nbytes = _entry(payload, b"ch.rank")
        payload[rank_at : rank_at + 8] = struct.pack("<q", -12345)
        path = tmp_path / "corrupt.snap"
        path.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestV3Snapshots:
    """The v3 mmap-able array-directory layout."""

    @pytest.fixture()
    def accelerated(self):
        from repro.cities import melbourne
        from repro.core.alt import ensure_landmarks
        from repro.core.ch import ensure_hierarchy

        network = melbourne(size="small")
        ensure_landmarks(network, count=4, seed=7)
        ensure_hierarchy(network)
        return network

    def test_default_version_is_3(self, tmp_path, grid10):
        path = tmp_path / "grid.snap"
        save_snapshot(grid10, path)
        assert snapshot_info(path)["version"] == 3 == SNAPSHOT_VERSION

    def test_v3_load_attaches_csr(self, tmp_path, grid10):
        path = tmp_path / "grid.snap"
        save_snapshot(grid10, path)
        restored = load_snapshot(path)
        csr = ensure_csr(restored)
        reference = ensure_csr(grid10)
        assert list(csr.fwd_targets) == list(reference.fwd_targets)
        assert list(csr.fwd_offsets) == list(reference.fwd_offsets)
        assert list(csr.bwd_weights) == list(reference.bwd_weights)

    def test_v3_round_trips_landmarks_and_hierarchy(
        self, tmp_path, accelerated, monkeypatch
    ):
        import repro.core.alt as alt_module
        import repro.core.ch as ch_module

        path = tmp_path / "acc.snap"
        save_snapshot(accelerated, path)
        monkeypatch.setattr(
            ch_module, "build_hierarchy",
            lambda *a, **k: pytest.fail("v3 load re-contracted"),
        )
        monkeypatch.setattr(
            alt_module, "build_landmarks",
            lambda *a, **k: pytest.fail("v3 load rebuilt landmarks"),
        )
        restored = load_snapshot(path)
        csr = ensure_csr(restored)
        original = ensure_csr(accelerated)
        assert csr.landmarks is not None
        assert tuple(csr.landmarks.landmarks) == original.landmarks.landmarks
        assert csr.landmarks.seed == original.landmarks.seed
        for got, want in zip(
            csr.landmarks.dist_from, original.landmarks.dist_from
        ):
            assert list(got) == list(want)
        assert csr.hierarchy is not None
        assert csr.hierarchy.num_arcs == original.hierarchy.num_arcs
        assert csr.hierarchy.shortest_path_nodes(
            0, 100
        ) == original.hierarchy.shortest_path_nodes(0, 100)

    def test_map_snapshot_is_zero_copy(self, tmp_path, accelerated):
        import mmap as mmap_module

        path = tmp_path / "acc.snap"
        save_snapshot(accelerated, path)
        snap = map_snapshot(path)
        csr = snap.csr
        for view in (
            csr.fwd_offsets, csr.fwd_targets, csr.fwd_edge_ids,
            csr.fwd_weights, csr.bwd_offsets, csr.bwd_targets,
            csr.bwd_edge_ids, csr.bwd_weights,
            csr.hierarchy.rank, csr.hierarchy.arc_weights,
        ):
            # Every flat array is a memoryview cast whose backing
            # object is the mmap itself — no bytes were copied.
            assert isinstance(view, memoryview)
            assert isinstance(view.obj, mmap_module.mmap)
        reference = ensure_csr(accelerated)
        assert list(csr.fwd_targets) == list(reference.fwd_targets)
        tree_a = csr_dijkstra(accelerated, reference, 0)
        tree_b = csr_dijkstra(snap.network, csr, 0)
        assert tree_a.dist == tree_b.dist
        assert tree_a.parent_edge == tree_b.parent_edge

    def test_same_file_mapped_twice_shares_pages(self, tmp_path, grid10):
        """Regression: two maps of one file must be MAP_SHARED — the
        kernel then backs both with the same page-cache pages (no
        double RSS), which is the whole point of the mmap path."""
        path = tmp_path / "grid.snap"
        save_snapshot(grid10, path)
        snap_a = map_snapshot(path)
        snap_b = map_snapshot(path)
        assert snap_a.csr.fwd_targets.obj is not snap_b.csr.fwd_targets.obj
        assert list(snap_a.csr.fwd_targets) == list(snap_b.csr.fwd_targets)
        maps = open("/proc/self/maps").read()
        shared = [
            line for line in maps.splitlines()
            if str(path) in line and line.split()[1] == "r--s"
        ]
        # Both mappings are read-only *shared* mappings of the file.
        assert len(shared) >= 2, shared

    def test_map_snapshot_accepts_buffers_and_mmap_objects(
        self, tmp_path, grid10
    ):
        import mmap as mmap_module

        path = tmp_path / "grid.snap"
        save_snapshot(grid10, path)
        data = path.read_bytes()
        snap = map_snapshot(data)
        assert snap.num_nodes == grid10.num_nodes
        with open(path, "rb") as handle:
            mapping = mmap_module.mmap(
                handle.fileno(), 0, access=mmap_module.ACCESS_READ
            )
        snap2 = map_snapshot(mapping)
        assert snap2.num_edges == grid10.num_edges
        # And the copy path accepts the same already-mapped buffer.
        copied = load_snapshot(memoryview(mapping))
        assert copied.num_nodes == grid10.num_nodes

    def test_map_snapshot_rejects_v2_files(self, tmp_path, grid10):
        buffer = io.BytesIO()
        save_snapshot(grid10, buffer)
        payload = bytearray(buffer.getvalue())
        struct.pack_into("<H", payload, 4, 2)  # the header's version
        path = tmp_path / "grid2.snap"
        path.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="repro snapshot build"):
            map_snapshot(path)

    def test_map_snapshot_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError):
            map_snapshot(path)

    def test_unknown_directory_arrays_are_ignored(self, accelerated):
        """Forward compatibility: arrays with names this build does
        not know simply sit in the directory unused."""
        buffer = io.BytesIO()
        save_snapshot(accelerated, buffer)
        payload = bytearray(buffer.getvalue())
        # Rename the landmark anchor array; the whole alt.* group then
        # reads as unknown names and the network loads un-accelerated.
        at = payload.find(b"alt.nodes")
        assert at != -1
        payload[at : at + 9] = b"alt.zzzzz"
        restored = load_snapshot(bytes(payload))
        csr = ensure_csr(restored)
        assert csr.landmarks is None
        assert csr.hierarchy is not None
        # Trailing growth-room bytes after the last payload are fine.
        payload.extend(b"\x00" * 64)
        assert load_snapshot(bytes(payload)).num_nodes == \
            accelerated.num_nodes

    def test_misaligned_directory_offset_raises(self, tmp_path, grid10):
        buffer = io.BytesIO()
        save_snapshot(grid10, buffer)
        payload = bytearray(buffer.getvalue())
        at = payload.find(b"node.lat")
        assert at != -1
        name, typecode, count, offset, nbytes = _DIR_ENTRY.unpack_from(
            payload, at
        )
        _DIR_ENTRY.pack_into(
            payload, at, name, typecode, count, offset + 1, nbytes
        )
        with pytest.raises(SnapshotError, match="misaligned"):
            load_snapshot(bytes(payload))

    def test_truncated_v3_payload_raises(self, tmp_path, grid10):
        buffer = io.BytesIO()
        save_snapshot(grid10, buffer)
        payload = buffer.getvalue()
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(payload[: len(payload) - 64])

    def test_snapshot_info_groups_v3_sections(self, tmp_path, accelerated):
        path = tmp_path / "acc.snap"
        save_snapshot(accelerated, path)
        info = snapshot_info(path)
        assert info["version"] == 3
        assert set(info["sections"]) == {"core", "csr", "alt", "ch"}
        assert all(size > 0 for size in info["sections"].values())

    @pytest.mark.parametrize(
        "array_name, index, value",
        [
            (b"csr.fwd_tgt", 3, 10 ** 6),  # a head past the last node
            (b"csr.fwd_eid", 3, 10 ** 6),  # an edge id past the last edge
            (b"csr.fwd_tgt", 0, 5),  # node 0 -> 5: a road that is not there
            (b"csr.bwd_tgt", 0, 5),
            (b"csr.fwd_eid", 0, 1),  # a valid edge id listed twice
            (b"csr.bwd_wt", 0, 1.0),  # a weight that is not edge.time
            (b"csr.fwd_off", 1, 1),  # arcs regrouped onto the wrong node
        ],
    )
    def test_csr_arcs_must_match_the_edge_arrays(
        self, tmp_path, array_name, index, value
    ):
        """Regression: corrupt CSR arcs used to load silently, then
        raise a bare IndexError or route over a non-existent road."""
        from repro.graph.builder import grid_network

        buffer = io.BytesIO()
        save_snapshot(grid_network(4, 4), buffer)
        payload = bytearray(buffer.getvalue())
        _at, offset, _nbytes = _entry(payload, array_name)
        code = "<d" if isinstance(value, float) else "<q"
        struct.pack_into(code, payload, offset + 8 * index, value)
        for reader in (load_snapshot, map_snapshot):
            with pytest.raises(SnapshotError, match=array_name.decode()):
                reader(bytes(payload))
