"""Desk-scale objectives with per-sample losses and optional analytic gradients.

Every objective is an empirical risk f(theta) = (1/n) sum_i f_i(theta):
batch losses are always mean-scaled, never sum-scaled. Objectives are
immutable after construction and their loss/grad calls are pure, so
they are safe to query concurrently.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from . import oracles, prng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _rows(indices, data, targets):
    """``data[indices], targets[indices]``, read in place for a full batch.

    When `indices` is exactly 0..n-1 and an array is C-contiguous, the
    gathered copy would equal the array in value and in layout, so the
    array itself is returned and a full-batch query copies no data.
    """
    idx = np.asarray(indices)
    if not (idx.ndim == 1 and 0 < idx.size == data.shape[0] and idx.dtype.kind in "iu"
            and idx[0] == 0 and np.all(np.diff(idx) == 1)):
        return data[idx], targets[idx]
    return (data if data.flags.c_contiguous else data[idx],
            targets if targets.flags.c_contiguous else targets[idx])


class Objective:
    """Sample-indexed loss oracle over n samples in dimension d.

    Subclasses implement ``loss`` and a vectorized ``batch_loss`` (and
    ``grad``/``batch_grad`` if an analytic gradient exists). ``f_star`` holds the optimal mean loss when a closed form
    is available, else None.
    """

    n: int
    d: int
    f_star = None

    def loss(self, theta: np.ndarray, index: int) -> float:
        raise NotImplementedError

    def batch_loss(self, theta: np.ndarray, indices: np.ndarray) -> float:
        """Mean per-sample loss over `indices`."""
        raise NotImplementedError

    def grad(self, theta: np.ndarray, index: int) -> np.ndarray:
        raise NotImplementedError("objective provides no analytic gradient")

    def batch_grad(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError("objective provides no analytic gradient")

    def metric(self, theta: np.ndarray) -> float:
        raise NotImplementedError("objective provides no evaluation metric")

    def initial_theta(self) -> np.ndarray:
        return np.zeros(self.d)


class CountingObjective:
    """Wraps an objective, counting forward and backward query equivalents.

    One forward query = one per-sample loss evaluation; gradients count
    backward equivalents separately. Used by tests to assert query
    accounting and zero-query replay.
    """

    def __init__(self, inner: Objective):
        self.inner = inner
        self.forward_queries = 0
        self.backward_queries = 0

    @property
    def n(self):
        return self.inner.n

    @property
    def d(self):
        return self.inner.d

    @property
    def f_star(self):
        return self.inner.f_star

    def loss(self, theta, index):
        self.forward_queries += 1
        return self.inner.loss(theta, index)

    def batch_loss(self, theta, indices):
        self.forward_queries += len(indices)
        return self.inner.batch_loss(theta, indices)

    def grad(self, theta, index):
        self.forward_queries += 1
        self.backward_queries += 1
        return self.inner.grad(theta, index)

    def batch_grad(self, theta, indices):
        self.forward_queries += len(indices)
        self.backward_queries += len(indices)
        return self.inner.batch_grad(theta, indices)

    def metric(self, theta):
        return self.inner.metric(theta)

    def initial_theta(self):
        return self.inner.initial_theta()


class LeastSquaresProblem(Objective):
    """f_i(w) = (x_i . w - y_i)^2 with y = X w_star + noise.

    X has i.i.d. standard normal entries. The optimal weights and mean
    loss come from the normal-equation oracle and are stored at
    construction.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, w_star: np.ndarray,
                 noise_std: float):
        self.X = X
        self.y = y
        self.w_star = w_star
        self.noise_std = noise_std
        self.n, self.d = X.shape
        self.w_ls, self.f_star = oracles.ls_normal_equations(self)

    def loss(self, theta, index):
        r = float(self.X[index] @ theta - self.y[index])
        return r * r

    def batch_loss(self, theta, indices):
        X, y = _rows(indices, self.X, self.y)
        r = X @ theta - y
        return float(np.mean(r * r))

    def grad(self, theta, index):
        r = float(self.X[index] @ theta - self.y[index])
        return 2.0 * r * self.X[index]

    def batch_grad(self, theta, indices):
        idx = np.asarray(indices, dtype=np.int64)
        Xb = self.X[idx]
        r = Xb @ theta - self.y[idx]
        return (2.0 / idx.size) * (Xb.T @ r)


_TAG_LS_X = 11
_TAG_LS_W = 12
_TAG_LS_NOISE = 13


def make_least_squares(n: int, d: int, noise_std: float = 0.01,
                       seed: int = 0) -> LeastSquaresProblem:
    """Reproducible least-squares instance (paper scale: n=1000, d=100).

    If X^T X comes out singular the instance is regenerated with the
    next seed, with a warning.
    """
    if not (n >= d >= 1):
        raise ValueError(f"need n >= d >= 1, got n={n}, d={d}")
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
            return LeastSquaresProblem(X, y, w_star, noise_std)
        except np.linalg.LinAlgError:
            warnings.warn(f"singular X^T X for seed {s}, regenerating")
    raise np.linalg.LinAlgError("could not draw a non-singular least-squares instance")


class LogisticProblem(Objective):
    """Binary logistic regression on two symmetric Gaussian clouds.

    Labels are +-1; f_i(w) = log(1 + exp(-y_i x_i . w)). At theta = 0
    every sample contributes ln 2. Convex but not quadratic, which is
    exactly why it exists between the LS and MLP objectives.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray, separation: float):
        self.X = X
        self.labels = labels.astype(np.float64)
        self.separation = separation
        self.n, self.d = X.shape

    def _margins(self, theta, indices):
        X, labels = _rows(indices, self.X, self.labels)
        return labels * (X @ theta)

    def loss(self, theta, index):
        m = float(self.labels[index] * (self.X[index] @ theta))
        return float(np.logaddexp(0.0, -m))

    def batch_loss(self, theta, indices):
        return float(np.mean(np.logaddexp(0.0, -self._margins(theta, indices))))

    def grad(self, theta, index):
        m = float(self.labels[index] * (self.X[index] @ theta))
        sig = 1.0 / (1.0 + np.exp(m))  # sigmoid(-m)
        return -self.labels[index] * sig * self.X[index]

    def batch_grad(self, theta, indices):
        idx = np.asarray(indices, dtype=np.int64)
        m = self._margins(theta, idx)
        sig = 1.0 / (1.0 + np.exp(m))
        w = -self.labels[idx] * sig
        return (self.X[idx].T @ w) / idx.size

    def metric(self, theta):
        pred = np.sign(self.X @ theta)
        pred[pred == 0] = 1.0
        return float(np.mean(pred == self.labels))


_TAG_LOG_X = 21
_TAG_LOG_Y = 22


def make_logistic(n: int, d: int, separation: float = 2.0, seed: int = 0) -> LogisticProblem:
    """Two-Gaussian binary classification with analytic gradient."""
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    labels = np.where(prng.uniforms(prng.fold(seed, _TAG_LOG_Y), 0, n) < 0.5, -1.0, 1.0)
    direction = np.ones(d) / np.sqrt(d)
    X = prng.normals(prng.fold(seed, _TAG_LOG_X), 0, n * d).reshape(n, d)
    X = X + np.outer(labels, (separation / 2.0) * direction)
    return LogisticProblem(X, labels, separation)


class Mlp2Problem(Objective):
    """Two-hidden-layer rectifier MLP with softmax cross-entropy loss.

    Hidden widths default to (32, 16). All weights and biases live in
    one flat parameter vector, laid out W1, b1, W2, b2, W3, b3 in row-
    major order; the forward pass reshapes views and never copies.
    Initialization is uniform(+-1/sqrt(fan_in)) drawn from the problem
    seed. The analytic gradient is hand-written backpropagation and
    exists for the first-order baseline only.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, n_classes: int,
                 hidden: tuple[int, int] = (32, 16), seed: int = 0,
                 eval_features: np.ndarray | None = None,
                 eval_labels: np.ndarray | None = None):
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
        self.shapes = [(n_in, h1), (h1,), (h1, h2), (h2,), (h2, n_classes), (n_classes,)]
        self.d = sum(int(np.prod(s)) for s in self.shapes)
        self.seed = seed
        self.eval_features = eval_features
        self.eval_labels = eval_labels.astype(np.int64) if eval_labels is not None else None

    def _views(self, theta):
        out = []
        at = 0
        for shape in self.shapes:
            size = int(np.prod(shape))
            out.append(theta[at:at + size].reshape(shape))
            at += size
        return out

    def initial_theta(self):
        theta = np.empty(self.d)
        at = 0
        stream = prng.fold(self.seed, 31)
        pos = 0
        fan_in = self.shapes[0][0]
        for shape in self.shapes:
            size = int(np.prod(shape))
            if len(shape) == 2:
                fan_in = shape[0]  # the following bias reuses its layer's fan-in
            bound = 1.0 / np.sqrt(fan_in)
            u = prng.uniforms(stream, pos, size)
            pos += size
            theta[at:at + size] = (2.0 * u - 1.0) * bound
            at += size
        return theta

    def _forward(self, theta, Xb):
        W1, b1, W2, b2, W3, b3 = self._views(theta)
        z1 = Xb @ W1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ W2 + b2
        a2 = np.maximum(z2, 0.0)
        logits = a2 @ W3 + b3
        return z1, a1, z2, a2, logits

    @staticmethod
    def _cross_entropy(logits, labels):
        m = logits.max(axis=1)
        lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
        picked = logits[np.arange(logits.shape[0]), labels]
        return lse - picked

    def loss(self, theta, index):
        logits = self._forward(theta, self.features[index:index + 1])[-1]
        return float(self._cross_entropy(logits, self.labels[index:index + 1])[0])

    def batch_loss(self, theta, indices):
        features, labels = _rows(np.asarray(indices, dtype=np.int64),
                                 self.features, self.labels)
        logits = self._forward(theta, features)[-1]
        return float(np.mean(self._cross_entropy(logits, labels)))

    def grad(self, theta, index):
        return self.batch_grad(theta, np.asarray([index]))

    def batch_grad(self, theta, indices):
        idx = np.asarray(indices, dtype=np.int64)
        Xb = self.features[idx]
        yb = self.labels[idx]
        W1, b1, W2, b2, W3, b3 = self._views(theta)
        z1, a1, z2, a2, logits = self._forward(theta, Xb)
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        probs = e / e.sum(axis=1, keepdims=True)
        g3 = probs
        g3[np.arange(idx.size), yb] -= 1.0
        g3 /= idx.size
        grad = np.empty(self.d)
        gW1, gb1, gW2, gb2, gW3, gb3 = self._views(grad)
        gW3[:] = a2.T @ g3
        gb3[:] = g3.sum(axis=0)
        g2 = (g3 @ W3.T) * (z2 > 0.0)
        gW2[:] = a1.T @ g2
        gb2[:] = g2.sum(axis=0)
        g1 = (g2 @ W2.T) * (z1 > 0.0)
        gW1[:] = Xb.T @ g1
        gb1[:] = g1.sum(axis=0)
        return grad

    def metric(self, theta):
        if self.eval_features is not None:
            X, y = self.eval_features, self.eval_labels
        else:
            X, y = self.features, self.labels
        logits = self._forward(theta, X)[-1]
        return float(np.mean(np.argmax(logits, axis=1) == y))


def make_mlp2(dataset, seed: int = 0, hidden: tuple[int, int] = (32, 16),
              n_classes: int | None = None) -> Mlp2Problem:
    """Build the two-layer MLP problem from (features, labels[, eval pair])."""
    features, labels = dataset[0], dataset[1]
    if features.shape[0] == 0:
        raise ValueError("dataset is empty")
    eval_x = dataset[2] if len(dataset) > 2 else None
    eval_y = dataset[3] if len(dataset) > 3 else None
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return Mlp2Problem(features, labels, n_classes, hidden=hidden, seed=seed,
                       eval_features=eval_x, eval_labels=eval_y)


def load_idx(path_images: str, path_labels: str, max_samples: int | None = None):
    """Parse big-endian IDX image/label files into ([0,1] features, int labels)."""
    with open(path_images, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError("truncated IDX image header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"bad IDX image magic 0x{magic:08x}, want 0x{IDX_IMAGES_MAGIC:08x}")
        raw = fh.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise ValueError("truncated IDX image payload")
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
    take = count if max_samples is None else min(max_samples, count)
    features = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    features = features[:take] / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)[:take]
    return features, labels


_TAG_DIGIT_TEMPLATE = 41
_TAG_DIGIT_LABEL = 42
_TAG_DIGIT_NOISE = 43


def make_synthetic_digits(n: int, rows: int = 28, cols: int = 28,
                          classes: int = 10, seed: int = 0):
    """Synthetic stand-in for the MNIST subset, same schema as load_idx.

    Each class gets a fixed random template image; samples are a noisy
    blend of their class template, clipped to [0, 1].
    """
    pix = rows * cols
    templates = prng.uniforms(prng.fold(seed, _TAG_DIGIT_TEMPLATE), 0, classes * pix)
    templates = templates.reshape(classes, pix)
    labels = np.array([prng.randint_below(prng.fold(seed, _TAG_DIGIT_LABEL), i, classes)
                       for i in range(n)], dtype=np.int64)
    noise = prng.uniforms(prng.fold(seed, _TAG_DIGIT_NOISE), 0, n * pix).reshape(n, pix)
    features = np.clip(0.65 * templates[labels] + 0.35 * noise, 0.0, 1.0)
    return features, labels
