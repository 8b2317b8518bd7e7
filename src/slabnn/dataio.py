"""Dataset ingestion and synthetic generators.

Supported sources: the classic big-endian IDX image/label pair (pixels
rescaled to [0, 1] by division with 255), delimited text with a label
column, and two seeded synthetic generators (a sparse logistic design
used by the recovery tests and a Gaussian class-cluster design whose
shifted copy serves as out-of-domain data).  Splitting is a seeded
permutation; when standardization is requested at split time its
parameters are fitted on the training part only and reused on the test
part.
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, FormatError, ShapeError
from .numkernel import RngStream, sigmoid

__all__ = [
    "Dataset",
    "load_idx",
    "write_idx",
    "load_csv",
    "split",
    "synth_logistic",
    "bayes_optimal_accuracy",
    "synth_clusters",
]

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803


@dataclass
class Dataset:
    """Features, integer labels, class count, and bookkeeping.

    ``normalization`` holds the (shift, scale) pair applied to the raw
    features, ``label_names`` the original label tokens in class-id
    order (None when the tokens were the class ids).
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    normalization: tuple = None
    label_names: tuple = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        if not np.all(np.isfinite(self.features)):
            raise DomainError("features must be finite")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels must match the feature rows")
        if self.n_classes < 2:
            raise DomainError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise DomainError("labels must lie in [0, n_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def _read_idx(path, magic, dims, count=None):
    """The uint8 payload and the ``dims`` header sizes of one IDX file.

    Checks, in order, that the header is complete, that its magic is
    ``magic``, that the first size equals ``count`` when one is given
    (the image count a label file must match), and that the payload
    has exactly the bytes the sizes call for.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 * (1 + dims)
    if len(raw) < head:
        raise FormatError(f"{path}: truncated IDX header at byte offset {len(raw)}")
    found, *sizes = struct.unpack(f">{1 + dims}I", raw[:head])
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at byte offset 0; "
                          f"expected 0x{magic:08x}")
    if count is not None and sizes[0] != count:
        raise FormatError(f"label count {sizes[0]} does not match image count {count}")
    expected = head + math.prod(sizes)
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, have {len(raw)}; "
                          f"payload ends at byte offset {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=head), sizes


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair into flat [0, 1] features.

    Headers are big-endian; magic 0x00000803 for images (count, rows,
    cols) and 0x00000801 for labels (count).  Counts must agree and
    payloads must be complete, otherwise ``FormatError`` reports the
    byte offset of the problem.
    """
    pixels, (count, rows, cols) = _read_idx(images_path, IDX_MAGIC_IMAGES, 3)
    features = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
    labels = _read_idx(labels_path, IDX_MAGIC_LABELS, 1, count)[0].astype(np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 2
    return Dataset(features, labels, max(n_classes, 2))


def write_idx(dataset: Dataset, images_path, labels_path, image_shape=None):
    """Write a dataset back to an IDX pair.

    Features must lie in [0, 1]; they are quantized to bytes by
    rounding feature * 255, so data previously loaded by ``load_idx``
    round-trips value-exactly.  Labels are bytes too, so they must not
    exceed 255.  ``image_shape`` defaults to (1, p).
    """
    feats = dataset.features
    if np.any(feats < 0.0) or np.any(feats > 1.0):
        raise DomainError("IDX features must lie in [0, 1]")
    if np.any(dataset.labels > 255):
        raise DomainError(f"IDX labels are bytes, got label {dataset.labels.max()}")
    rows, cols = image_shape if image_shape is not None else (1, dataset.p)
    if rows * cols != dataset.p:
        raise ShapeError(f"image shape {rows}x{cols} does not match width {dataset.p}")
    pixels = np.rint(feats * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, dataset.n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_MAGIC_LABELS, dataset.n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def _standardize(features, shift=None, scale=None):
    # Population convention: divide by sqrt(mean squared deviation).
    # Without a fitted (shift, scale), fits one on these features.
    if shift is None:
        shift = features.mean(axis=0)
        scale = features.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
    return (features - shift) / scale, (shift, scale)


def load_csv(path, label_column: int = -1, has_header: bool = False,
             standardize: bool = False, delimiter: str = ",") -> Dataset:
    """Read a delimited text table; one column holds the labels.

    When every label token is a nonnegative integer literal, the token
    is the class id, so the labels do not depend on the row order, and
    ``label_names`` is None; an id that does not fit in int64 raises
    ``FormatError`` naming the file.  Other tokens map to class indices
    by first appearance and the token-to-id mapping is kept on the
    dataset as ``label_names``.  ``label_column=None``
    reads an unlabeled table: every column is a feature and the labels
    come back all zero with an empty name tuple.  Feature cells must
    parse as numbers; ragged rows and parse failures raise
    ``FormatError`` naming the line; text that does not decode, or that
    the csv module rejects (a field over its size limit), raises it
    naming the file.  A ``delimiter`` that is not one character raises
    ``ConfigError``.  Optional standardization centers and rescales each
    feature column (population standard deviation) and records the
    parameters on the dataset.
    """
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    rows = []
    labels_raw = []
    try:
        with open(path, "r", newline="") as fh:
            reader = _csv.reader(fh, delimiter=delimiter)
            width = None
            for line_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if has_header and line_no == 1:
                    continue
                if width is None:
                    width = len(row)
                    if width < (2 if label_column is not None else 1):
                        raise FormatError(f"{path}: line {line_no}: too few columns")
                elif len(row) != width:
                    raise FormatError(
                        f"{path}: line {line_no}: expected {width} columns, got {len(row)}"
                    )
                if label_column is None:
                    feat_cells = row
                else:
                    col = label_column if label_column >= 0 else width + label_column
                    if not (0 <= col < width):
                        raise FormatError(f"{path}: label column {label_column} out of range")
                    labels_raw.append(row[col].strip())
                    feat_cells = row[:col] + row[col + 1:]
                try:
                    rows.append([float(cell) for cell in feat_cells])
                except ValueError as exc:
                    raise FormatError(f"{path}: line {line_no}: {exc}") from None
    except (UnicodeDecodeError, _csv.Error) as exc:
        raise FormatError(f"{path}: unreadable text: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    if labels_raw and all(tok.isascii() and tok.isdigit() for tok in labels_raw):
        try:
            labels = np.array([int(tok) for tok in labels_raw], dtype=np.int64)
        except (ValueError, OverflowError):  # too many digits, or past int64
            raise FormatError(f"{path}: a label id does not fit in int64") from None
        n_classes, names = int(labels.max()) + 1, None
    else:
        mapping = {}
        labels = np.zeros(len(rows), dtype=np.int64)
        for i, tok in enumerate(labels_raw):
            if tok not in mapping:
                mapping[tok] = len(mapping)
            labels[i] = mapping[tok]
        n_classes, names = len(mapping), tuple(sorted(mapping, key=mapping.get))
    features = np.asarray(rows, dtype=np.float64)
    normalization = None
    if standardize:
        features, normalization = _standardize(features)
    return Dataset(features, labels, max(n_classes, 2), normalization, names)


def split(dataset: Dataset, train_n: int, test_n: int, seed: int,
          standardize: bool = False):
    """Disjoint seeded train/test split.

    Rows are permuted by a stream keyed to the seed and dealt into the
    two parts.  With ``standardize`` the normalization is fitted on the
    training part only and applied to both.
    """
    if train_n < 1 or test_n < 0:
        raise DomainError("train_n must be positive and test_n nonnegative")
    if train_n + test_n > dataset.n:
        raise DomainError(
            f"split asks for {train_n}+{test_n} rows, dataset has {dataset.n}"
        )
    perm = RngStream(seed, 0).permutation(dataset.n)
    tr_idx = perm[:train_n]
    te_idx = perm[train_n:train_n + test_n]
    tr_feats = dataset.features[tr_idx]
    te_feats = dataset.features[te_idx]
    norm = dataset.normalization
    if standardize:
        tr_feats, norm = _standardize(tr_feats)
        te_feats, _ = _standardize(te_feats, *norm)
    train = Dataset(tr_feats, dataset.labels[tr_idx], dataset.n_classes, norm,
                    dataset.label_names)
    test = Dataset(te_feats, dataset.labels[te_idx], dataset.n_classes, norm,
                   dataset.label_names)
    return train, test


def synth_logistic(n: int, p: int, k_true: int, coef_scale: float, seed: int):
    """Sparse logistic design: N(0,1) features, k_true active coefficients.

    The first ``k_true`` coefficients are +-coef_scale with alternating
    sign starting positive, the rest are zero; labels are Bernoulli
    with success probability sigmoid(x beta) (class 1 is the success).
    Returns ``(dataset, support, coefs)`` with the true support mask.
    """
    if not (0 <= k_true <= p):
        raise DomainError("k_true must lie in [0, p]")
    if n < 1:
        raise DomainError("n must be positive")
    coefs = np.zeros(p)
    signs = np.where(np.arange(k_true) % 2 == 0, 1.0, -1.0)
    coefs[:k_true] = signs * coef_scale
    rng = RngStream(seed, 0)
    x = rng.std_normal(n * p).reshape(n, p)
    prob = sigmoid(x @ coefs)
    labels = (rng.uniform(n) < prob).astype(np.int64)
    support = coefs != 0.0
    return Dataset(x, labels, 2), support, coefs


def bayes_optimal_accuracy(coefs, n_mc: int, seed: int) -> float:
    """Monte Carlo estimate of the best achievable accuracy of the generator.

    The optimal rule classifies by thresholding sigmoid(x beta) at 1/2
    and is correct with probability max(p, 1-p); the estimate averages
    that over fresh N(0,1) designs.
    """
    beta = np.ascontiguousarray(coefs, dtype=np.float64)
    if n_mc < 1:
        raise DomainError("n_mc must be positive")
    rng = RngStream(seed, 0)
    x = rng.std_normal(n_mc * beta.size).reshape(n_mc, beta.size)
    prob = sigmoid(x @ beta)
    return float(np.mean(np.maximum(prob, 1.0 - prob)))


def synth_clusters(n: int, p: int, n_classes: int, separation: float = 3.0,
                   spread: float = 1.0, shift: float = 0.0, seed: int = 0) -> Dataset:
    """Gaussian class clusters, optionally translated for shifted-domain tests.

    Class means are drawn N(0, separation^2 I) once from the seed
    (independently of ``shift``), rows cycle through classes, features
    are mean + N(0, spread^2 I) + shift.  Two calls differing only in
    ``shift`` form an in-domain / out-of-domain pair.
    """
    if n < 1 or p < 1 or n_classes < 2:
        raise DomainError("need n >= 1, p >= 1, n_classes >= 2")
    rng = RngStream(seed, 0)
    means = separation * rng.std_normal(n_classes * p).reshape(n_classes, p)
    labels = np.arange(n, dtype=np.int64) % n_classes
    noise = spread * rng.std_normal(n * p).reshape(n, p)
    features = means[labels] + noise + shift
    return Dataset(features, labels, n_classes)
