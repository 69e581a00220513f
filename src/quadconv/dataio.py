"""CSV ingestion, windowing for system identification, splitting, and
synthetic series generation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import _row_view, _WindowRows, format_float
from .errors import (
    ChannelMissing,
    InsufficientData,
    MissingColumn,
    NonFiniteInput,
    ParseError,
)
from .regressor import Dataset, _dataset

_SMOOTH = 5
_PARSE_CELLS = 1 << 14  # cells per string-to-float conversion in _read_table


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Named channels of real samples, all of equal length."""

    channels: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a time series needs at least one channel")
        clean = {}
        length = None
        for name, values in self.channels.items():
            v = np.array(values, dtype=float, copy=True)
            if v.ndim != 1:
                raise ValueError(f"channel {name!r} must be 1-D, got shape {v.shape}")
            if length is None:
                length = v.size
            elif v.size != length:
                raise ValueError(
                    f"channel {name!r} has length {v.size}, expected {length}"
                )
            if not np.isfinite(v).all():
                raise ValueError(f"channel {name!r} contains non-finite values")
            v.setflags(write=False)
            clean[name] = v
        object.__setattr__(self, "channels", clean)

    @property
    def length(self) -> int:
        return next(iter(self.channels.values())).size

    @property
    def names(self) -> list[str]:
        return list(self.channels)

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise ChannelMissing(
                f"channel {name!r} not found; available: {self.names}"
            ) from None


@dataclass(frozen=True)
class SplitSpec:
    """Sequential prefix split: first floor(N * train_fraction) rows train."""

    train_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction!r}")


def _read_table(path):
    """Parse a headered CSV into its column names and one N x C float array.

    Every data cell is an unquoted decimal number, parsed with float()
    semantics. Blank lines are skipped; error messages count file lines.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            # not str.splitlines, which also breaks at \x0c, \x1c and \u2028
            lines = fh.read().split("\n")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    if lines == [""]:
        raise ParseError(f"{path}: empty file (missing header row)")
    names = [h.strip() for h in next(csv.reader(lines[:1]))]
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate column names in header: {names}")
    data = [line for line in lines[1:] if line]
    if not data:
        raise ParseError(f"{path}: no data rows after the header")
    # convert a block of lines at a time: one call over the whole file would
    # hold a Python string (about 60 bytes) per cell at once
    step = max(1, _PARSE_CELLS // max(len(names), 1))
    try:
        table = np.concatenate([
            np.array(",".join(data[i : i + step]).split(","), dtype=float)
            for i in range(0, len(data), step)
        ])
    except ValueError:
        table = None
    if (
        table is None
        or {line.count(",") for line in data} != {len(names) - 1}
        or not np.isfinite(table).all()
    ):
        _raise_first_bad_cell(path, names, lines)
    return names, table.reshape(len(data), len(names))


def _raise_first_bad_cell(path, names, lines):
    """Raise the ParseError for the first malformed line; runs only after
    the whole-file parse has failed, so the success path never loops here."""
    for rownum, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ParseError(
                f"{path}: row {rownum}: expected {len(names)} fields, got {len(cells)}"
            )
        for name, cell in zip(names, cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {rownum}, column {name!r}: cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {rownum}, column {name!r}: non-finite value {cell!r}"
                )


def _write_csv(path, header, rows) -> None:
    """Write a header line and one line per row: strings as they are,
    numbers through format_float (lossless for float64)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else format_float(v) for v in row) + "\n")


def load_csv(path) -> TimeSeries:
    """Read every column of a headered CSV file as a channel, in header
    order; windowing then picks channels by name."""
    names, table = _read_table(path)
    return TimeSeries({name: table[:, j] for j, name in enumerate(names)})


def load_feature_csv(path):
    """Read feature rows, treating a column named 'y' (if present) as labels.

    Returns (X, y_or_None, feature_names). Feature columns keep header order.
    """
    names, table = _read_table(path)
    feature_names = [n for n in names if n != "y"]
    if not feature_names:
        raise MissingColumn(f"{path}: no feature columns besides 'y' in header {names}")
    if "y" not in names:
        return table, None, feature_names
    j = names.index("y")
    return np.delete(table, j, axis=1), table[:, j].copy(), feature_names


def dataset_to_csv(data: Dataset, path) -> None:
    """Write a dataset as x1..xn,y with lossless float formatting."""
    header = [f"x{i + 1}" for i in range(data.n_features)] + ["y"]
    _write_csv(path, header, np.column_stack([data.inputs, data.labels]))


def series_to_csv(ts: TimeSeries, path) -> None:
    """Write a time series as one column per channel."""
    _write_csv(path, ts.names, np.column_stack(list(ts.channels.values())))


def narx_window(ts: TimeSeries, input_channel: str, output_channel: str, d: int) -> Dataset:
    """Autoregressive windowing: the row for time t is
    [u_{t-d} .. u_{t-1}, y_{t-d} .. y_{t-1}] with label y_t.

    Produces N = T - d rows with n = 2d features. The dataset's features
    are sliding windows over the two channels, so each block of rows is
    built when it is read and no N x n array is allocated; its labels are a
    view of the output channel.
    """
    if d < 1:
        raise ValueError(f"delay d must be >= 1, got {d}")
    u = ts.channel(input_channel)
    y = ts.channel(output_channel)
    T = ts.length
    if T <= d:
        raise InsufficientData(f"need more than d={d} samples, have {T}")
    windows = [np.lib.stride_tricks.sliding_window_view(c, d)[: T - d] for c in (u, y)]
    return _dataset(_WindowRows(windows), y[d:])


def multichannel_window(ts: TimeSeries, channels, r: int, label_channel: str) -> Dataset:
    """Block windowing for multi-rate data: each row concatenates r
    consecutive samples from every listed channel in order (n = r * len
    (channels)); blocks do not overlap. The label of a block is the change
    in the label channel from the block's first to its last sample. As in
    narx_window, the features are views of the channels, read in blocks.

    One call produces one single-output dataset; problems with several
    label channels (latitude and longitude, say) take one call per label.
    """
    if r < 1:
        raise ValueError(f"window length r must be >= 1, got {r}")
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one feature channel")
    chans = [ts.channel(name) for name in channels]
    label = ts.channel(label_channel)
    W = ts.length // r
    if W < 1:
        raise InsufficientData(f"need at least r={r} samples, have {ts.length}")
    with np.errstate(over="ignore"):
        labels = label[r - 1 : W * r : r] - label[: W * r : r]
    if not np.isfinite(labels).all():
        raise NonFiniteInput(
            f"label channel {label_channel!r}: the change over a block of r={r} "
            "samples overflows"
        )
    return _dataset(_WindowRows([ch[: W * r].reshape(W, r) for ch in chans]), labels)


def split(data: Dataset, s: SplitSpec):
    """Order-preserving sequential split into (train, test), two datasets
    over the same rows as data: row views of a held inputs array, or the
    same channel windows offset to each side. Nothing is copied."""
    N = data.n_samples
    if N < 2:
        raise InsufficientData(f"need at least 2 samples to split, have {N}")
    k = int(N * s.train_fraction)
    if k < 1 or k >= N:
        raise InsufficientData(
            f"train_fraction {s.train_fraction} leaves an empty side for N={N}"
        )
    X, y = data.features, data.labels
    return tuple(_dataset(_row_view(X, r), y[r]) for r in (slice(0, k), slice(k, N)))


def synth_narx(T: int, seed=0) -> TimeSeries:
    """Deterministic synthetic input/output series for end-to-end runs.

    The input u is uniform noise smoothed by a length-5 moving average and
    scaled to amplitude 0.9 (band-limited, bounded). The output follows

        y[t] = 0.3 y[t-1] - 0.2 y[t-2] + 0.8 u[t-1] + 0.2 u[t-2]
               + 0.05 u[t-1] u[t-2] + 0.02 u[t-1]^2
               - 0.03 y[t-1] y[t-2] - 0.02 y[t-1]^2

    Every term involves lags that sit within bandwidth 3 of the windowed
    feature layout for any delay d >= 2, the squared terms cancel in trace
    and there is no constant term, so a banded quadratic model with f >= 3
    represents the map exactly and reaches near-zero test error.
    """
    if T < 20:
        raise ValueError(f"T must be >= 20, got {T}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=T + _SMOOTH - 1)
    u = np.convolve(raw, np.ones(_SMOOTH) / _SMOOTH, mode="valid")
    u *= 0.9 / max(float(np.abs(u).max()), 1e-12)
    y = np.zeros(T)
    for t in range(2, T):
        y[t] = (
            0.3 * y[t - 1]
            - 0.2 * y[t - 2]
            + 0.8 * u[t - 1]
            + 0.2 * u[t - 2]
            + 0.05 * u[t - 1] * u[t - 2]
            + 0.02 * u[t - 1] ** 2
            - 0.03 * y[t - 1] * y[t - 2]
            - 0.02 * y[t - 1] ** 2
        )
    return TimeSeries({"u": u, "y": y})


def mse(predictions, targets) -> float:
    """Mean over samples of the squared error; inf, without a warning,
    when a squared error overflows."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    with np.errstate(over="ignore"):
        return float(np.mean((p - t) ** 2))
