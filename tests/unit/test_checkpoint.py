"""Unit tests for :class:`repro.core.persist.SweepCheckpoint`.

The checkpoint's contract: records accumulate atomically per completed
shard, a reload round-trips them exactly, corruption degrades to
recompute-all (never blocks a sweep), and an intact checkpoint from a
different sweep configuration is refused with a typed error.
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.core.persist import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    SweepCheckpoint,
    _canonical,
)
from repro.errors import JigsawError, SnapshotCompatibilityError
from repro.testing import corrupt_array_file

CONFIG = {"engine": "test", "shard_sizes": [2, 2], "seed_master": 7}


def _record(checkpoint, index):
    checkpoint.record(
        index,
        {"kind": "outcome", "index": index},
        {"values": np.arange(4, dtype=np.float64) + index},
    )


def _rewrite_body(path, **changes):
    """Edit an intact checkpoint's manifest body, re-sealing its CRC."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["body"].update(changes)
    manifest["crc32"] = zlib.crc32(_canonical(manifest["body"]))
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)


class TestSweepCheckpoint:
    def test_missing_directory_loads_empty(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path / "absent"), CONFIG)
        assert checkpoint.load() == {}

    def test_record_and_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)
        _record(writer, 1)

        reader = SweepCheckpoint(path, CONFIG)
        records = reader.load()
        assert sorted(records) == [0, 1]
        meta, arrays = records[1]
        assert meta == {"kind": "outcome", "index": 1}
        np.testing.assert_array_equal(
            arrays["values"], np.arange(4, dtype=np.float64) + 1
        )

    def test_each_record_is_immediately_durable(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)
        # A fresh reader (a restarted run) sees the completed shard even
        # though the writer never finished its sweep.
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0]
        _record(writer, 1)
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0, 1]

    def test_loaded_records_survive_later_appends(self, tmp_path):
        path = str(tmp_path / "ckpt")
        writer = SweepCheckpoint(path, CONFIG)
        _record(writer, 0)

        resumed = SweepCheckpoint(path, CONFIG)
        resumed.load()
        _record(resumed, 1)
        assert sorted(SweepCheckpoint(path, CONFIG).load()) == [0, 1]

    def test_config_mismatch_refuses_with_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        other = dict(CONFIG, shard_sizes=[1, 1, 1, 1])
        with pytest.raises(SnapshotCompatibilityError) as excinfo:
            SweepCheckpoint(path, other).load()
        assert isinstance(excinfo.value, JigsawError)

    def test_corrupt_arrays_degrade_to_recompute_all(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        corrupt_array_file(path)
        assert SweepCheckpoint(path, CONFIG).load() == {}

    def test_corrupt_manifest_degrades_to_recompute_all(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        with open(os.path.join(path, MANIFEST_NAME), "a") as handle:
            handle.write("garbage")
        assert SweepCheckpoint(path, CONFIG).load() == {}

    def test_newer_version_refuses_rather_than_discarding(self, tmp_path):
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        _rewrite_body(path, version=CHECKPOINT_VERSION + 1)
        # A *newer* intact checkpoint is a compatibility problem, not
        # corruption: silently recomputing would discard valid work.
        with pytest.raises(SnapshotCompatibilityError):
            SweepCheckpoint(path, CONFIG).load()

    def test_version_1_refuses_with_regeneration_hint(self, tmp_path):
        # Version 2 changed the shard-record layout; an intact version-1
        # checkpoint is refused with a hint, never recomputed as corrupt.
        assert CHECKPOINT_VERSION == 2
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        _rewrite_body(path, version=1)
        with pytest.raises(SnapshotCompatibilityError, match="regenerate"):
            SweepCheckpoint(path, CONFIG).load()

    def test_checkpoint_magic_distinct_from_store_snapshots(self, tmp_path):
        from repro.core.persist import SNAPSHOT_MAGIC

        assert CHECKPOINT_MAGIC != SNAPSHOT_MAGIC
        # A store snapshot is not a checkpoint: magic mismatch reads as
        # corruption, which degrades to recompute-all.
        path = str(tmp_path / "ckpt")
        _record(SweepCheckpoint(path, CONFIG), 0)
        _rewrite_body(path, magic=SNAPSHOT_MAGIC)
        assert SweepCheckpoint(path, CONFIG).load() == {}
