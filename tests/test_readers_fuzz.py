"""Truncated and mutated files: every reader gives a clean error or a valid object.

Each reader gets its file cut at every byte of its header (the whole file for
the JSON formats) and a fixed-seed set of single-byte mutations anywhere in
the file. A case passes if the reader returns an object of its usual type or
raises ValidationError, ConfigurationError or ValueError whose message names
the file; any other exception (KeyError, TypeError, ...) fails it.
"""

import numpy as np
import pytest

from hiersum.data import (
    ConfigurationError,
    DatasetManifest,
    ValidationError,
    VideoEntry,
    load_manifest,
    read_annotations,
    read_features,
    save_manifest,
    write_annotations,
    write_features,
)
from hiersum.nn import ParamStore, load_checkpoint, save_checkpoint
from hiersum.policy import init_policy
from hiersum.seeding import substream

MUTATIONS = 150


def features_file(path):
    write_features(path, substream(70, "feats").normal(size=(5, 3)))
    return 12  # magic, frame count, feature dim


def annotations_file(path):
    rng = substream(70, "ann")
    write_annotations(path, rng.uniform(size=(2, 4)), rng.integers(0, 2, size=(2, 4)))
    return path.stat().st_size


def manifest_file(path):
    videos = [VideoEntry(f"video{i}", f"video{i}.vsf", f"video{i}.json") for i in range(2)]
    save_manifest(path, DatasetManifest("fuzz", 3, videos, f_aggregate="max"))
    return path.stat().st_size


def checkpoint_file(path):
    store = init_policy(2, 1, substream(70, "init"))
    save_checkpoint(path, store, {"feature_dim": 2, "hidden": 1, "subtask_size": 2})
    return path.read_bytes().index(b"\n") + 1


def features_ok(result):
    return isinstance(result, np.ndarray) and result.ndim == 2 and result.dtype == np.float32


def annotations_ok(result):
    scores, summaries = result
    return isinstance(scores, np.ndarray) and (summaries is None or isinstance(summaries, np.ndarray))


def manifest_ok(result):
    return isinstance(result, DatasetManifest) and all(
        isinstance(v, VideoEntry) for v in result.videos
    )


def checkpoint_ok(result):
    store, meta = result
    return isinstance(store, ParamStore) and isinstance(meta, dict)


READERS = {
    "read_features": (features_file, read_features, features_ok),
    "read_annotations": (annotations_file, read_annotations, annotations_ok),
    "load_manifest": (manifest_file, load_manifest, manifest_ok),
    "load_checkpoint": (checkpoint_file, load_checkpoint, checkpoint_ok),
}


def damaged_copies(data, header_size, seed):
    """(label, bytes): every truncation inside the header, then single-byte mutations."""
    for cut in range(header_size):
        yield f"cut at {cut}", data[:cut]
    rng = substream(seed, "mutations")
    for _ in range(MUTATIONS):
        pos = int(rng.integers(len(data)))
        value = (data[pos] + int(rng.integers(1, 256))) % 256
        yield f"byte {pos} = {value}", data[:pos] + bytes([value]) + data[pos + 1 :]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_damaged_file_gives_clean_error_or_valid_object(tmp_path, reader):
    make, read, valid = READERS[reader]
    original = tmp_path / "original"
    header_size = make(original)
    data = original.read_bytes()
    path = tmp_path / "damaged"
    failures = []
    for label, damaged in damaged_copies(data, header_size, sorted(READERS).index(reader)):
        path.write_bytes(damaged)
        try:
            result = read(path)
        except (ValidationError, ConfigurationError, ValueError) as exc:
            if str(path) not in str(exc):
                failures.append(f"{label}: {type(exc).__name__} without the file name: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure sought
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            if not valid(result):
                failures.append(f"{label}: returned {result!r}")
    assert not failures, "\n".join(failures[:10])
