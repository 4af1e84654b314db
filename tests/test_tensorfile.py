"""Tests for the shared container behind dataset and checkpoint files."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpaware import tensorfile
from cpaware.experiments.config import ExperimentConfig
from cpaware.experiments.dataset import Dataset, build_dataset
from cpaware.features import FeatureConfig
from cpaware.net.checkpoint import load_model
from cpaware.net.model import NetworkConfig
from cpaware.ofdm import FrameConfig


def test_roundtrip_keeps_dtype_shape_and_bytes(tmp_path):
    arrays = {
        "a": np.arange(6, dtype="<f4").reshape(2, 3),
        "b": np.linspace(-1, 1, 5),
        "c": np.arange(4, dtype="<i8").reshape(1, 2, 2),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "x.bin"
    tensorfile.write(path, b"TEST", {"k": [1, "v"]}, arrays)
    meta, loaded = tensorfile.read(path, b"TEST", ["k"])
    assert meta == {"k": [1, "v"]}
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()


def test_rejects_version_one(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"CPA1" + struct.pack("<BI", 1, 2) + b"{}")
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_model(path)


def test_rejects_unlisted_dtype(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        tensorfile.write(tmp_path / "x.bin", b"TEST", {}, {"a": np.zeros(2, dtype=np.int32)})


def _pre_change_net(data):
    """Give a network config dict the keys it had while conv blocks were configurable."""
    data.update(conv_blocks=[[f, 3, 1] for f in data.pop("conv_filters")], pool=2,
                bn_momentum=0.9, bn_eps=1e-5)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("l2_coeff"), "NetworkConfig: missing keys ['l2_coeff']"),
    (lambda d: d.update(pool=2), "NetworkConfig: unknown keys ['pool']"),
    (_pre_change_net, "NetworkConfig: missing keys ['conv_filters'], "
                      "unknown keys ['bn_eps', 'bn_momentum', 'conv_blocks', 'pool']"),
], ids=["missing", "unknown", "both"])
def test_from_json_names_only_the_wrong_keys(edit, message):
    data = dataclasses.asdict(NetworkConfig((8, 8, 3), conv_filters=(2,)))
    edit(data)
    with pytest.raises(ValueError) as info:
        tensorfile.from_json(NetworkConfig, data)
    assert str(info.value) == message


@pytest.fixture(scope="module")
def valid(tmp_path_factory, save_untrained):
    """A small valid checkpoint and dataset: their directory and bytes."""
    directory = tmp_path_factory.mktemp("valid")
    net = NetworkConfig((8, 8, 3), conv_filters=(2,))
    ckpt = directory / "valid.ckpt"
    save_untrained(ckpt, net, 0)
    data = directory / "valid.cpad"
    build_dataset(data, ExperimentConfig(
        train_per_kind=1, frame=FrameConfig(8, 2, 8),
        feature=FeatureConfig(1), net=net))
    return directory, {"checkpoint": ckpt.read_bytes(), "dataset": data.read_bytes()}


def _load_dataset(path):
    dataset = Dataset(path)
    return dataset.config, dataset.load_arrays()


LOADERS = {"checkpoint": load_model, "dataset": _load_dataset}


def _write_corrupt(directory, kind, blob):
    path = directory / f"corrupt.{kind}"
    path.write_bytes(blob)
    return path


def _header_end(raw: bytes) -> int:
    return 9 + struct.unpack_from("<I", raw, 5)[0]


@pytest.mark.parametrize("kind", sorted(LOADERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_truncation_raises_value_error(valid, kind, data):
    directory, files = valid
    raw = files[kind]
    length = data.draw(st.one_of(st.integers(0, _header_end(raw)),
                                 st.integers(0, len(raw) - 1)))
    with pytest.raises(ValueError):
        LOADERS[kind](_write_corrupt(directory, kind, raw[:length]))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_any_byte_flip_loads_or_raises_value_error(valid, kind, data):
    directory, files = valid
    raw = files[kind]
    # Many draws land in the header, where a flip changes the structure
    # rather than a number.
    pos = data.draw(st.one_of(st.integers(0, _header_end(raw) - 1),
                              st.integers(0, len(raw) - 1)))
    mask = data.draw(st.integers(1, 255))
    blob = bytearray(raw)
    blob[pos] ^= mask
    try:
        LOADERS[kind](_write_corrupt(directory, kind, bytes(blob)))
    except ValueError:
        pass  # the only failure a corrupt file may cause


@pytest.fixture(scope="module")
def splice_sources(valid, save_untrained):
    """Valid files whose headers and data are spliced together, by name.

    Each kind has one file laid out like the ``valid`` one (its data fits
    the other header exactly) and one with different array shapes.
    """
    directory, files = valid
    net = NetworkConfig((8, 8, 3), conv_filters=(2,))
    wider = NetworkConfig((8, 8, 3), conv_filters=(3,))
    same_ckpt, wider_ckpt = directory / "same.ckpt", directory / "wider.ckpt"
    save_untrained(same_ckpt, net, 1)
    save_untrained(wider_ckpt, wider, 2)
    config = ExperimentConfig(train_per_kind=1, frame=FrameConfig(8, 2, 8),
                              feature=FeatureConfig(1), net=net)
    same_data, larger_data = directory / "same.cpad", directory / "larger.cpad"
    build_dataset(same_data, dataclasses.replace(config, master_seed=99))
    build_dataset(larger_data, dataclasses.replace(config, train_per_kind=2))
    return {
        ("checkpoint", "valid"): files["checkpoint"],
        ("checkpoint", "same"): same_ckpt.read_bytes(),
        ("checkpoint", "wider"): wider_ckpt.read_bytes(),
        ("dataset", "valid"): files["dataset"],
        ("dataset", "same"): same_data.read_bytes(),
        ("dataset", "larger"): larger_data.read_bytes(),
    }


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_splice_loads_or_raises_value_error(valid, splice_sources, data):
    """The header of one valid file joined to the data of another."""
    directory, _ = valid
    names = sorted(splice_sources)
    head_name = data.draw(st.sampled_from(names))
    body_name = data.draw(st.sampled_from([n for n in names if n != head_name]))
    head, body = splice_sources[head_name], splice_sources[body_name]
    blob = head[:_header_end(head)] + body[_header_end(body):]
    kind = head_name[0]
    try:
        LOADERS[kind](_write_corrupt(directory, kind, blob))
    except ValueError:
        return  # the only failure a corrupt file may cause
    # A splice loads only when the data is exactly as long as the header says.
    assert len(blob) == len(head)
