"""AdamW recurrence, module parameter walking, and binary round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast import nn
from gazecast import tensor as T
from gazecast.errors import CheckpointError, DatasetError, GradError
from gazecast.serialization import atomic_write, load_checkpoint, save_checkpoint
from gazecast.tensor import Tensor


class TinyNet(nn.Module):
    def __init__(self, rng):
        self.conv = nn.Conv2d(2, 3, 3, rng, stride=1, padding=1)
        self.heads = {"a": nn.Linear(3, 2, rng), "b": nn.Linear(3, 2, rng)}

    def forward(self, x):
        return T.global_max_pool(self.conv(x))


def test_named_parameters_dotted_paths():
    net = TinyNet(np.random.default_rng(0))
    names = [n for n, _ in net.named_parameters()]
    assert names == [
        "conv.weight",
        "conv.bias",
        "heads.a.weight",
        "heads.a.bias",
        "heads.b.weight",
        "heads.b.bias",
    ]


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor([1.5, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    opt = nn.AdamW([p], lr=0.1, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adamw_first_step_magnitude_is_lr():
    # hand evaluation at t=1: m_hat = g, v_hat = g^2, update = lr * g/(|g|+eps)
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = nn.AdamW([p], lr=0.1, betas=(0.9, 0.999), epsilon=1e-8,
                   weight_decay=0.0)
    opt.step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-8)
    assert opt.step_count == 1


def test_adamw_decoupled_decay_exact():
    p = Tensor([2.0], requires_grad=True)
    p.grad = np.array([0.0])
    opt = nn.AdamW([p], lr=0.05, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.01)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.05 * 0.01 * 2.0, abs=0.0)


def test_adamw_missing_grad_raises():
    p = Tensor([1.0], requires_grad=True)
    opt = nn.AdamW([p], lr=1e-4, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0)
    with pytest.raises(GradError):
        opt.step()


def test_adamw_moment_shapes_and_counter():
    rng = np.random.default_rng(1)
    ps = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
          Tensor(rng.normal(size=(5,)), requires_grad=True)]
    opt = nn.AdamW(ps, lr=1e-3, betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0)
    for t in range(1, 4):
        for p in ps:
            p.grad = rng.normal(size=p.shape)
        opt.step()
        assert opt.step_count == t
    for p, m, v in zip(ps, opt.m, opt.v):
        assert m.shape == p.shape and v.shape == p.shape


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = Tensor(rng.normal(size=(4,)), requires_grad=True)
        opt = nn.AdamW([p], lr=0.01, betas=(0.9, 0.999), epsilon=1e-8,
                       weight_decay=0.02)
        for _ in range(10):
            p.grad = rng.normal(size=(4,))
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tensor_roundtrip(tmp_path, dtype):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(2, 3, 4)).astype(dtype)
    path = tmp_path / "t.gzt"
    T.write_tensor(path, arr)
    back = T.read_tensor(path)
    assert back.dtype == dtype
    np.testing.assert_array_equal(back, arr)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.gzt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DatasetError, match="magic"):
        T.read_tensor(path)


def test_tensor_truncated(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    full = T.tensor_to_bytes(arr)
    path = tmp_path / "trunc.gzt"
    path.write_bytes(full[:-8])
    with pytest.raises(DatasetError, match="truncated"):
        T.read_tensor(path)


GZT1_ARRAYS = (np.random.default_rng(5).random((3, 8, 8)),
               np.arange(6, dtype=np.float32).reshape(2, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_or_header_corrupt_tensor_file_is_dataset_error(tmp_path_factory, data):
    """A GZT1 file cut at any offset, or with one header byte changed, is a
    DatasetError."""
    arr = data.draw(st.sampled_from(GZT1_ARRAYS), label="array")
    raw = T.tensor_to_bytes(arr)
    if data.draw(st.booleans(), label="cut"):
        bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        offset = data.draw(st.integers(0, 6 + 4 * arr.ndim - 1), label="offset")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[offset]), label="value")
        bad = raw[:offset] + bytes([value]) + raw[offset + 1:]
    path = tmp_path_factory.getbasetemp() / "fuzzed.gzt"
    path.write_bytes(bad)
    with pytest.raises(DatasetError):
        T.read_tensor(path)


def test_tensor_of_any_rank_byte_is_dataset_error(tmp_path):
    """Rank bytes above the real one read dims from the payload; their
    product can wrap, or the rank exceed numpy's 64, and either was a
    ValueError from the reshape."""
    raw = bytearray(T.tensor_to_bytes(GZT1_ARRAYS[0]))
    path = tmp_path / "rank.gzt"
    for rank in range(256):
        if rank == 3:
            continue
        raw[5] = rank
        path.write_bytes(raw)
        with pytest.raises(DatasetError):
            T.read_tensor(path)


def test_checkpoint_roundtrip(tmp_path):
    net = TinyNet(np.random.default_rng(3))
    state = net.state_dict()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "cafebabe", "variant = multimodal\n")
    loaded, h, cfg = load_checkpoint(path)
    assert h == "cafebabe"
    assert cfg == "variant = multimodal\n"
    assert list(loaded) == list(state)
    for k in state:
        np.testing.assert_array_equal(loaded[k], state[k])

    # loading into a fresh model reproduces parameters bit-exactly
    net2 = TinyNet(np.random.default_rng(99))
    net2.load_state_dict(loaded)
    for (_, a), (_, b) in zip(net.named_parameters(), net2.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_corrupt_and_mismatch(tmp_path):
    net = TinyNet(np.random.default_rng(4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.state_dict(), "h", "")
    raw = bytearray(path.read_bytes())
    raw[0] = 0x58
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    bad_state = {k: v for k, v in net.state_dict().items()}
    bad_state["conv.weight"] = np.zeros((1, 1, 1, 1))
    with pytest.raises(CheckpointError, match="shape"):
        net.load_state_dict(bad_state)


def test_atomic_write_that_raises_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, "h", "old")
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_write(path, "wb") as f:
            f.write(b"GZCK partial record")
            f.flush()
            raise RuntimeError("failed midway")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    with atomic_write(path) as f:
        f.write("new")
    assert path.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
