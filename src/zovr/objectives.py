"""Desk-scale objectives with batch losses and optional analytic gradients.

Every objective is an empirical risk f(theta) = (1/n) sum_i f_i(theta):
batch losses are always mean-scaled, never sum-scaled. Objectives are
immutable after construction and their loss and gradient calls are
pure, so they are safe to query concurrently.
"""

from __future__ import annotations

import math
import os
import struct
import warnings

import numpy as np

from . import oracles, prng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _rows(indices, data, targets):
    """``data[indices], targets[indices]``, read in place for one row or a full batch.

    One in-range index i gives the views ``data[i:i + 1]`` and
    ``targets[i:i + 1]``, so a one-sample query copies no row. When
    `indices` is exactly 0..n-1 and an array is C-contiguous, the
    gathered copy would equal the array in value and in layout, so the
    array itself is returned and a full-batch query copies no data.
    """
    idx = np.asarray(indices)
    if idx.size == 1 and idx.ndim == 1 and idx.dtype.kind in "iu" and 0 <= idx[0] < data.shape[0]:
        i = int(idx[0])
        return data[i:i + 1], targets[i:i + 1]
    if not (idx.ndim == 1 and 0 < idx.size == data.shape[0] and idx.dtype.kind in "iu"
            and idx[0] == 0 and np.all(np.diff(idx) == 1)):
        return data[idx], targets[idx]
    return (data if data.flags.c_contiguous else data[idx],
            targets if targets.flags.c_contiguous else targets[idx])


def _mean(v: np.ndarray) -> float:
    """``float(np.mean(v))`` for a 1-d float64 array, bit for bit.

    np.mean reduces with the same np.add.reduce and divides by the count;
    calling the reduction directly skips its Python wrapper, which costs
    more than the sum itself at minibatch sizes.
    """
    return float(np.add.reduce(v) / v.size)


class Objective:
    """Sample-indexed loss oracle over n samples in dimension d.

    Subclasses implement ``batch_loss``, and optionally ``batch_grad``
    (an analytic gradient) and ``metric``: a missing metric reads None.
    ``f_star`` is the optimal mean loss when a closed form is known, else None.
    """

    n: int
    d: int
    f_star = None

    def batch_loss(self, theta: np.ndarray, indices: np.ndarray) -> float:
        """Mean per-sample loss over `indices`."""
        raise NotImplementedError

    def batch_grad(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError("objective provides no analytic gradient")

    def metric(self, theta: np.ndarray) -> float | None:
        return None

    def initial_theta(self) -> np.ndarray:
        return np.zeros(self.d)


class LeastSquaresProblem(Objective):
    """f_i(w) = (x_i . w - y_i)^2 with y = X w_star + noise.

    X has i.i.d. standard normal entries. The optimal weights and mean
    loss come from the normal-equation oracle and are stored at
    construction.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, w_star: np.ndarray):
        self.X = X
        self.y = y
        self.w_star = w_star
        self.n, self.d = X.shape
        self.w_ls, self.f_star = oracles.ls_normal_equations(self)

    def batch_loss(self, theta, indices):
        X, y = _rows(indices, self.X, self.y)
        r = X @ theta
        r -= y
        r *= r
        return _mean(r)

    def batch_grad(self, theta, indices):
        X, y = _rows(indices, self.X, self.y)
        r = X @ theta - y
        return (2.0 / y.size) * (X.T @ r)


_TAG_LS_X = 11
_TAG_LS_W = 12
_TAG_LS_NOISE = 13


def make_least_squares(n: int = 1000, d: int = 100, noise_std: float = 0.01,
                       seed: int = 0) -> LeastSquaresProblem:
    """Reproducible least-squares instance (paper scale: n=1000, d=100).

    If X^T X comes out singular the instance is regenerated with the
    next seed, with a warning.
    """
    if not (n >= d >= 1):
        raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
    if not math.isfinite(noise_std):  # a NaN would skip the noise, an inf diverge
        raise ValueError(f"noise_std must be finite, got {noise_std}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    for attempt in range(8):
        s = seed + attempt
        X = prng.normals(prng.fold(s, _TAG_LS_X), 0, n * d).reshape(n, d)
        w_star = prng.normals(prng.fold(s, _TAG_LS_W), 0, d)
        y = X @ w_star
        if noise_std > 0:
            y = y + noise_std * prng.normals(prng.fold(s, _TAG_LS_NOISE), 0, n)
        try:
            return LeastSquaresProblem(X, y, w_star)
        except np.linalg.LinAlgError:
            warnings.warn(f"singular X^T X for seed {s}, regenerating")
    raise np.linalg.LinAlgError("could not draw a non-singular least-squares instance")


class LogisticProblem(Objective):
    """Binary logistic regression on two symmetric Gaussian clouds.

    Labels are +-1; f_i(w) = log(1 + exp(-y_i x_i . w)). At theta = 0
    every sample contributes ln 2. Convex but not quadratic, which is
    exactly why it exists between the LS and MLP objectives.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        self.X = X
        self.labels = labels.astype(np.float64)
        self.n, self.d = X.shape

    def batch_loss(self, theta, indices):
        X, labels = _rows(indices, self.X, self.labels)
        return _mean(np.logaddexp(0.0, -(labels * (X @ theta))))

    def batch_grad(self, theta, indices):
        X, labels = _rows(indices, self.X, self.labels)
        sig = 1.0 / (1.0 + np.exp(labels * (X @ theta)))
        return (X.T @ (-labels * sig)) / labels.size

    def metric(self, theta):
        pred = np.sign(self.X @ theta)
        pred[pred == 0] = 1.0
        return float(np.mean(pred == self.labels))


_TAG_LOG_X = 21
_TAG_LOG_Y = 22


def make_logistic(n: int = 256, d: int = 16, separation: float = 2.0,
                  seed: int = 0) -> LogisticProblem:
    """Two-Gaussian binary classification with analytic gradient."""
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    labels = np.where(prng.uniforms(prng.fold(seed, _TAG_LOG_Y), 0, n) < 0.5, -1.0, 1.0)
    direction = np.ones(d) / np.sqrt(d)
    X = prng.normals(prng.fold(seed, _TAG_LOG_X), 0, n * d).reshape(n, d)
    X = X + np.outer(labels, (separation / 2.0) * direction)
    return LogisticProblem(X, labels)


class Mlp2Problem(Objective):
    """Two-hidden-layer rectifier MLP with softmax cross-entropy loss.

    All weights and biases live in one flat parameter vector, laid out
    W1, b1, W2, b2, W3, b3 in row-major order; the forward pass reshapes
    views and never copies. Initialization is uniform(+-1/sqrt(fan_in))
    drawn from the problem seed. The analytic gradient is hand-written
    backpropagation and exists for the first-order baseline only.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, n_classes: int,
                 hidden: tuple[int, int], seed: int = 0):
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (n, d_in) aligned with labels")
        if labels.size and int(labels.max()) >= n_classes:
            raise ValueError("label out of range for n_classes")
        self.features = features
        self.labels = labels.astype(np.int64)
        self.n_classes = n_classes
        self.n = features.shape[0]
        n_in = features.shape[1]
        h1, h2 = hidden
        shapes = [(n_in, h1), (h1,), (h1, h2), (h2,), (h2, n_classes), (n_classes,)]
        # (start, end, shape) of each block, laid out once: every loss query reads them
        self._blocks = []
        at = 0
        for shape in shapes:
            size = math.prod(shape)
            self._blocks.append((at, at + size, shape))
            at += size
        self.d = at
        self.seed = seed

    def _views(self, theta):
        return [theta[a:b].reshape(shape) for a, b, shape in self._blocks]

    def initial_theta(self):
        theta = np.empty(self.d)
        stream = prng.fold(self.seed, 31)
        for a, b, shape in self._blocks:
            if len(shape) == 2:
                fan_in = shape[0]  # the following bias reuses its layer's fan-in
            bound = 1.0 / np.sqrt(fan_in)
            u = prng.uniforms(stream, a, b - a)
            theta[a:b] = (2.0 * u - 1.0) * bound
        return theta

    def _forward(self, theta, Xb, views=None):
        # batch_grad passes the views it holds; a loss query builds them here,
        # since a list held across the pass adds 64 traced bytes (CPython 3.11)
        W1, b1, W2, b2, W3, b3 = views or self._views(theta)
        a1 = Xb @ W1
        a1 += b1
        np.maximum(a1, 0.0, out=a1)
        a2 = a1 @ W2
        a2 += b2
        np.maximum(a2, 0.0, out=a2)
        logits = a2 @ W3
        logits += b3
        return a1, a2, logits

    @staticmethod
    def _cross_entropy(logits, labels):
        m = logits.max(axis=1)
        lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
        picked = logits[np.arange(logits.shape[0]), labels]
        return lse - picked

    def batch_loss(self, theta, indices):
        features, labels = _rows(np.asarray(indices, dtype=np.int64),
                                 self.features, self.labels)
        logits = self._forward(theta, features)[-1]
        return _mean(self._cross_entropy(logits, labels))

    def batch_grad(self, theta, indices):
        Xb, yb = _rows(np.asarray(indices, dtype=np.int64), self.features, self.labels)
        views = self._views(theta)
        a1, a2, logits = self._forward(theta, Xb, views)
        W2, W3 = views[2], views[4]
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        probs = e / e.sum(axis=1, keepdims=True)
        g3 = probs
        g3[np.arange(yb.size), yb] -= 1.0
        g3 /= yb.size
        grad = np.empty(self.d)
        gW1, gb1, gW2, gb2, gW3, gb3 = self._views(grad)
        # a > 0 is z > 0, NaN included; weight blocks are written in place
        np.matmul(a2.T, g3, out=gW3)
        gb3[:] = g3.sum(axis=0)
        g2 = g3 @ W3.T
        g2 *= a2 > 0.0
        np.matmul(a1.T, g2, out=gW2)
        gb2[:] = g2.sum(axis=0)
        g1 = g2 @ W2.T
        g1 *= a1 > 0.0
        np.matmul(Xb.T, g1, out=gW1)
        gb1[:] = g1.sum(axis=0)
        return grad

    def metric(self, theta):
        logits = self._forward(theta, self.features)[-1]
        return float(np.mean(np.argmax(logits, axis=1) == self.labels))


def make_mlp2(dataset, seed: int = 0, hidden: tuple[int, int] = (32, 16),
              n_classes: int | None = None) -> Mlp2Problem:
    """Build the two-layer MLP problem from a (features, labels) pair."""
    features, labels = dataset
    if features.shape[0] == 0:
        raise ValueError("dataset is empty")
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return Mlp2Problem(features, labels, n_classes, hidden, seed=seed)


def load_idx(path_images: str, path_labels: str, max_samples: int | None = None):
    """Parse big-endian IDX image/label files into ([0,1] features, int labels)."""
    return _read_idx(path_images, path_labels, max_samples)[:2]


def _read_idx(path_images: str, path_labels: str, max_samples: int | None):
    """load_idx's pair, then the class count of the whole label file."""
    with open(path_images, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError("truncated IDX image header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"bad IDX image magic 0x{magic:08x}, want 0x{IDX_IMAGES_MAGIC:08x}")
        if os.fstat(fh.fileno()).st_size - 16 < count * rows * cols:
            raise ValueError("truncated IDX image payload")
        kept = len(range(count)[:max_samples])  # the rows images[:max_samples] keeps
        raw = fh.read(kept * rows * cols)
    with open(path_labels, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError("truncated IDX label header")
        magic, label_count = struct.unpack(">II", head)
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"bad IDX label magic 0x{magic:08x}, want 0x{IDX_LABELS_MAGIC:08x}")
        raw_labels = fh.read(label_count)
        if len(raw_labels) != label_count:
            raise ValueError("truncated IDX label payload")
    if label_count != count:
        raise ValueError(f"image/label count mismatch: {count} images, {label_count} labels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(kept, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8)
    return (images / 255.0, labels[:kept].astype(np.int64),
            int(labels.max(initial=0)) + 1)


_TAG_DIGIT_TEMPLATE = 41
_TAG_DIGIT_LABEL = 42
_TAG_DIGIT_NOISE = 43
DIGIT_CLASSES = 10


def make_synthetic_digits(n: int, rows: int = 28, cols: int = 28,
                          classes: int = DIGIT_CLASSES, seed: int = 0):
    """Synthetic stand-in for the MNIST subset, same schema as load_idx.

    Each class gets a fixed random template image; samples are a noisy
    blend of their class template, clipped to [0, 1].
    """
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes}")
    pix = rows * cols
    templates = prng.uniforms(prng.fold(seed, _TAG_DIGIT_TEMPLATE), 0, classes * pix)
    templates = templates.reshape(classes, pix)
    # label i is word i of stream fold(seed, _TAG_DIGIT_LABEL), mod classes
    labels = (prng.raw_words(prng.fold(seed, _TAG_DIGIT_LABEL), 0, n) % classes).astype(np.int64)
    noise = prng.uniforms(prng.fold(seed, _TAG_DIGIT_NOISE), 0, n * pix).reshape(n, pix)
    features = templates[labels]  # a fresh (n, pix) array: blend into it in place
    features *= 0.65
    noise *= 0.35
    features += noise
    np.clip(features, 0.0, 1.0, out=features)
    return features, labels


def _make_mlp(n: int = 512, seed: int = 0, idx_images: str | None = None,
              idx_labels: str | None = None) -> Mlp2Problem:
    """The MLP problem on the first n samples of an IDX pair, else on n synthetic digits.

    Its head has a unit for every class of the source, not only of those n samples.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if (idx_images is None) != (idx_labels is None):
        raise ValueError("idx_images and idx_labels must be given together")
    if idx_images is None:
        features, labels = make_synthetic_digits(n, seed=seed)
        n_classes = DIGIT_CLASSES
    else:
        features, labels, n_classes = _read_idx(idx_images, idx_labels, n)
        if len(labels) < n:
            raise ValueError(f"need n <= {len(labels)}, the IDX pair's images, got n={n}")
    return make_mlp2((features, labels), seed=seed, n_classes=n_classes)
