import struct

import numpy as np
import pytest

from zovr import (
    make_least_squares,
    make_logistic,
    make_mlp2,
    make_synthetic_digits,
    load_idx,
    sample_minibatch,
)
from zovr.harness import build_objective
from zovr.objectives import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LeastSquaresProblem,
    LogisticProblem,
    Mlp2Problem,
    _TAG_DIGIT_LABEL,
    _read_idx,
)
from zovr.prng import fold, normals, randint_below, raw_words

from helpers import CountingObjective, traced_peak


def finite_difference_gradient(func, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one axis at a time."""
    grad = np.empty(theta.shape[0])
    probe = theta.copy()
    for j in range(theta.shape[0]):
        orig = probe[j]
        probe[j] = orig + step
        f_plus = func(probe)
        probe[j] = orig - step
        f_minus = func(probe)
        probe[j] = orig
        grad[j] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_grad_error(obj, theta, indices, step=1e-5):
    analytic = obj.batch_grad(theta, indices)
    fd = finite_difference_gradient(lambda v: obj.batch_loss(v, indices), theta, step)
    return float(np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)))


def test_ls_mean_consistency():
    ls = make_least_squares(50, 7, seed=1)
    theta = normals(fold(1, 1), 0, 7)
    per_sample = np.mean([(ls.X[i] @ theta - ls.y[i]) ** 2 for i in range(ls.n)])
    assert ls.batch_loss(theta, np.arange(ls.n)) == pytest.approx(per_sample, rel=1e-12)


def test_ls_noiseless_recovers_w_star():
    ls = make_least_squares(40, 10, noise_std=0.0, seed=2)
    assert ls.f_star < 1e-16
    assert np.max(np.abs(ls.w_ls - ls.w_star)) < 1e-8


def test_ls_hand_solvable():
    from zovr.objectives import LeastSquaresProblem

    prob = LeastSquaresProblem(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]),
                               np.array([0.0]))
    assert prob.w_ls[0] == pytest.approx(2.0)
    assert prob.f_star == pytest.approx(1.0)


def test_ls_default_paper_scale():
    ls = make_least_squares(1000, 100, seed=3)
    assert (ls.n, ls.d) == (1000, 100)
    assert ls.X.shape == (1000, 100)
    # entries are standard normal
    assert abs(ls.X.mean()) < 0.02 and abs(ls.X.std() - 1.0) < 0.02


def test_ls_optimality_probes():
    ls = make_least_squares(60, 8, seed=4)
    base = ls.batch_loss(ls.w_ls, np.arange(ls.n))
    for k in range(100):
        delta = normals(fold(4, k), 0, 8)
        delta /= np.linalg.norm(delta)
        probe = ls.w_ls + 1e-2 * delta
        assert ls.batch_loss(probe, np.arange(ls.n)) >= base


def test_ls_gradient_fidelity():
    ls = make_least_squares(30, 6, seed=5)
    worst = max(
        relative_grad_error(ls, normals(fold(5, k), 0, 6), np.arange(0, 30, 3))
        for k in range(5)
    )
    assert worst < 1e-5


def test_logistic_uninformative_classifier():
    lg = make_logistic(64, 9, seed=6)
    assert lg.batch_loss(np.zeros(9), np.arange(64)) == pytest.approx(np.log(2.0), rel=1e-12)


def test_logistic_gradient_fidelity():
    lg = make_logistic(48, 5, seed=7)
    worst = 0.0
    for k in range(20):
        theta = normals(fold(7, k), 0, 5)
        worst = max(worst, relative_grad_error(lg, theta, np.arange(0, 48, 2)))
    assert worst < 1e-6


def test_logistic_separation_limit():
    lg = make_logistic(128, 6, separation=60.0, seed=8)
    direction = np.ones(6) / np.sqrt(6)
    # the Bayes-direction classifier drives the loss toward zero
    assert lg.batch_loss(3.0 * direction, np.arange(128)) < 1e-6
    assert lg.metric(3.0 * direction) == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_digit_labels_are_one_stream_word_each(seed):
    # the per-sample draw the labels were first made with, kept as the reference
    stream = fold(seed, _TAG_DIGIT_LABEL)
    labels = make_synthetic_digits(300, rows=2, cols=2, classes=7, seed=seed)[1]
    assert labels.dtype == np.int64
    assert labels.tolist() == [randint_below(stream, i, 7) for i in range(300)]
    with pytest.raises(ValueError, match="classes"):
        make_synthetic_digits(3, rows=2, cols=2, classes=0, seed=seed)


def test_mlp_parameter_count_mnist_shape():
    data = make_synthetic_digits(16, seed=9)
    mlp = make_mlp2(data, seed=9)
    assert mlp.d == 784 * 32 + 32 + 32 * 16 + 16 + 16 * 10 + 10 == 25_818


def test_mlp_initial_loss_near_uniform():
    data = make_synthetic_digits(32, seed=10)
    mlp = make_mlp2(data, seed=10)
    loss = mlp.batch_loss(mlp.initial_theta(), np.arange(32))
    assert abs(loss - np.log(10.0)) < 0.1 * np.log(10.0)


def test_mlp_backprop_matches_finite_differences():
    # small net so the full finite-difference sweep stays cheap
    features, labels = make_synthetic_digits(6, rows=4, cols=4, classes=3, seed=11)
    mlp = make_mlp2((features, labels), seed=11, hidden=(8, 5), n_classes=3)
    theta = mlp.initial_theta()
    idx = np.arange(6)
    analytic = mlp.batch_grad(theta, idx)
    # a 50-parameter slice spread across all layers
    slice_idx = np.linspace(0, mlp.d - 1, 50).astype(int)
    probe = theta.copy()
    worst = 0.0
    denom = np.max(np.abs(analytic))
    for j in slice_idx:
        orig = probe[j]
        probe[j] = orig + 1e-5
        f_plus = mlp.batch_loss(probe, idx)
        probe[j] = orig - 1e-5
        f_minus = mlp.batch_loss(probe, idx)
        probe[j] = orig
        fd = (f_plus - f_minus) / 2e-5
        worst = max(worst, abs(fd - analytic[j]) / denom)
    assert worst < 1e-5


def test_mlp_single_sample_loss_and_metric():
    features, labels = make_synthetic_digits(8, rows=3, cols=3, classes=2, seed=12)
    mlp = make_mlp2((features, labels), seed=12, hidden=(4, 3), n_classes=2)
    theta = mlp.initial_theta()
    one = np.array([0])
    assert mlp.batch_loss(theta, one) == pytest.approx(_gathered_loss(mlp, theta, one),
                                                       rel=1e-12)
    assert 0.0 <= mlp.metric(theta) <= 1.0


def _write_idx(tmp_path, count=5, rows=3, cols=2, image_magic=IDX_IMAGES_MAGIC,
               label_magic=IDX_LABELS_MAGIC, truncate_images=0, label_count=None):
    images = tmp_path / "imgs.idx3-ubyte"
    labels = tmp_path / "labels.idx1-ubyte"
    pixels = bytes(range(count * rows * cols))
    payload = struct.pack(">IIII", image_magic, count, rows, cols) + pixels
    if truncate_images:
        payload = payload[:-truncate_images]
    images.write_bytes(payload)
    if label_count is None:
        label_count = count
    labels.write_bytes(struct.pack(">II", label_magic, label_count)
                       + bytes(i % 10 for i in range(label_count)))
    return str(images), str(labels)


def test_load_idx_roundtrip(tmp_path):
    images, labels = _write_idx(tmp_path)
    x, y = load_idx(images, labels)
    assert x.shape == (5, 6) and y.shape == (5,)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert x[0, 1] == pytest.approx(1.0 / 255.0)
    x2, y2 = load_idx(images, labels, max_samples=3)
    assert x2.shape == (3, 6) and list(y2) == list(y[:3])


def test_load_idx_bad_magic(tmp_path):
    images, labels = _write_idx(tmp_path, image_magic=0x00000804)
    with pytest.raises(ValueError, match="magic"):
        load_idx(images, labels)
    images, labels = _write_idx(tmp_path, label_magic=0x00000899)
    with pytest.raises(ValueError, match="magic"):
        load_idx(images, labels)


def test_load_idx_truncated_and_mismatched(tmp_path):
    images, labels = _write_idx(tmp_path, truncate_images=3)
    with pytest.raises(ValueError, match="truncated"):
        load_idx(images, labels)
    images, labels = _write_idx(tmp_path, label_count=4)
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(images, labels)


def test_load_idx_converts_only_the_kept_rows(tmp_path):
    count, pixels = 3000, 28 * 28
    payload = (np.arange(count * pixels) % 251).astype(np.uint8)
    images, labels = tmp_path / "big.idx3-ubyte", tmp_path / "big.idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, 28, 28) + payload.tobytes())
    labels.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, count) + bytes(count))
    peak, (x, y) = traced_peak(lambda: load_idx(str(images), str(labels), max_samples=2))
    assert np.array_equal(x, payload[:2 * pixels].reshape(2, pixels).astype(np.float64) / 255.0)
    assert list(y) == [0, 0]
    # the uint8 payload is read once; a float64 copy of every image is 8 times it
    assert peak < 2 * payload.nbytes


def test_load_idx_reads_only_the_kept_rows(tmp_path):
    count, pixels = 3000, 28 * 28
    payload = (np.arange(count * pixels) % 251).astype(np.uint8)
    images, labels = tmp_path / "big.idx3-ubyte", tmp_path / "big.idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, 28, 28) + payload.tobytes())
    labels.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, count)
                       + bytes(range(10)) + bytes(count - 10))
    peak, (features, y, n_classes) = traced_peak(lambda: _read_idx(str(images), str(labels), 2))
    assert np.array_equal(features, payload[:2 * pixels].reshape(2, pixels) / 255.0)
    assert (list(y), n_classes) == ([0, 1], 10)  # classes from the whole label file
    # 2 rows of 784 bytes, their floats and the 3,000 labels; not the 2.35 MB payload
    assert peak < payload.nbytes // 50
    images.write_bytes(images.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated IDX image payload"):
        _read_idx(str(images), str(labels), 2)


def test_mlp_head_has_every_class_of_its_source(tmp_path):
    images, labels = _write_idx(tmp_path, count=10)  # labels 0..9
    idx = build_objective("mlp", {"n": 2, "idx_images": images, "idx_labels": labels})
    assert (idx.n, list(idx.labels), idx.n_classes) == (2, [0, 1], 10)
    synthetic = build_objective("mlp", {"n": 3})
    assert len(set(synthetic.labels)) < 10
    assert (synthetic.n_classes, synthetic.d) == (10, 25_818)


def test_synthetic_digits_schema_matches_idx():
    x, y = make_synthetic_digits(512, seed=13)
    assert x.shape == (512, 784) and y.shape == (512,)
    assert x.dtype == np.float64 and y.dtype == np.int64
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert set(np.unique(y)) <= set(range(10))
    x2, y2 = make_synthetic_digits(512, seed=13)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_counting_objective_counts():
    ls = make_least_squares(20, 4, seed=16)
    counting = CountingObjective(ls)
    theta = np.zeros(4)
    counting.batch_loss(theta, np.arange(10))
    counting.batch_grad(theta, np.arange(5))
    assert counting.forward_queries == 10 + 5
    assert counting.backward_queries == 5


def _gathered_loss(obj, theta, idx):
    # each objective's batch loss over an explicitly gathered copy of its rows
    if isinstance(obj, LeastSquaresProblem):
        r = obj.X[idx] @ theta - obj.y[idx]
        return float(np.mean(r * r))
    if isinstance(obj, LogisticProblem):
        return float(np.mean(np.logaddexp(0.0, -(obj.labels[idx] * (obj.X[idx] @ theta)))))
    logits = obj._forward(theta, obj.features[idx])[-1]
    return float(np.mean(obj._cross_entropy(logits, obj.labels[idx])))


def _data_matrix(obj):
    return obj.features if isinstance(obj, Mlp2Problem) else obj.X


_FULL_BATCH_OBJECTIVES = {
    "ls": lambda: make_least_squares(400, 60, seed=21),
    "logistic": lambda: make_logistic(300, 50, seed=22),
    "mlp": lambda: make_mlp2(make_synthetic_digits(96, seed=23), seed=23),
}


@pytest.mark.parametrize("name", sorted(_FULL_BATCH_OBJECTIVES))
def test_full_batch_loss_reads_data_in_place(name):
    obj = _FULL_BATCH_OBJECTIVES[name]()
    theta = obj.initial_theta() + 0.05 * normals(fold(24, 1), 0, obj.d)
    idx = np.arange(obj.n)
    peak, value = traced_peak(lambda: obj.batch_loss(theta, idx))
    assert value == _gathered_loss(obj, theta, idx)
    assert peak < _data_matrix(obj).nbytes


@pytest.mark.parametrize("name", sorted(_FULL_BATCH_OBJECTIVES))
def test_with_replacement_full_length_batch_is_gathered(name):
    obj = _FULL_BATCH_OBJECTIVES[name]()
    theta = obj.initial_theta() + 0.05 * normals(fold(25, 1), 0, obj.d)
    idx = np.sort((raw_words(fold(25, 2), 0, obj.n) % np.uint64(obj.n)).astype(np.int64))
    assert idx.size == obj.n and np.unique(idx).size < obj.n
    peak, value = traced_peak(lambda: obj.batch_loss(theta, idx))
    assert value == _gathered_loss(obj, theta, idx)
    assert peak >= _data_matrix(obj).nbytes


_MEAN_OBJECTIVES = {
    "ls": lambda: make_least_squares(1200, 20, seed=26),
    "logistic": lambda: make_logistic(1200, 10, seed=27),
    "mlp": lambda: make_mlp2(make_synthetic_digits(1200, rows=8, cols=8, seed=28), seed=28),
}


@pytest.mark.parametrize("name", sorted(_MEAN_OBJECTIVES))
def test_batch_loss_equals_np_mean(name):
    # sizes straddle numpy's 8-wide unrolled and 128-element pairwise-sum
    # blocks; _gathered_loss reduces with float(np.mean(...))
    obj = _MEAN_OBJECTIVES[name]()
    sizes = [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 1100]
    sizes += [1 + int(w) % 1100 for w in raw_words(fold(29, 0), 0, 10)]
    for k, b in enumerate(sizes):
        theta = obj.initial_theta() + 0.3 * normals(fold(29, 1), k * obj.d, obj.d)
        idx = sample_minibatch(obj.n, b, fold(29, 2 + k)).indices
        assert obj.batch_loss(theta, idx) == _gathered_loss(obj, theta, idx), b
    idx = np.arange(obj.n)
    assert obj.batch_loss(theta, idx) == _gathered_loss(obj, theta, idx)


@pytest.mark.parametrize("problem, params", [
    ("ls", {}), ("logistic", {}), ("mlp", {"n": 64}),
])
def test_one_row_loss_equals_the_gathered_row(problem, params):
    # a one-sample query reads its row as a view, and its loss is the gathered
    # 1 x d copy's, bit for bit, at every index of the default problems
    obj = build_objective(problem, params)
    theta = obj.initial_theta() + 0.1 * normals(fold(7, 1), 0, obj.d)
    for i in range(obj.n):
        idx = np.array([i])
        assert obj.batch_loss(theta, idx) == _gathered_loss(obj, theta, idx), i
