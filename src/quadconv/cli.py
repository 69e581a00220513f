"""Command-line front-end.

Exit codes: 0 success, 1 usage/config error, 2 data error (any other package
error, or a file that cannot be read or written), 3 verification failure,
141 (the shell's code for a process ended by SIGPIPE) when stdout is closed
before the command's summary is printed, as in `quadconv ... | head -c0`;
this one exits without a message.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .core import ConvSpec, RELU_MIMIC, validate_activation
from .dataio import (
    SplitSpec,
    _write_csv,
    load_csv,
    load_feature_csv,
    mse,
    multichannel_window,
    narx_window,
    split,
)
from .errors import MalformedModelFile, NonFiniteInput, QuadconvError
from .model import deserialize, predict_batch, sensitivity_batch, serialize
from .solver import _check_betas
from .train import fit, fit_path
from .verify import run_all_checks

class _ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report a library check's ValueError raised in the block as a config
    error, in the library's words."""
    try:
        yield
    except ValueError as e:
        raise _ConfigError(str(e)) from None


def _add_common_train_args(p):
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--mode", choices=("narx", "window"), default="narx",
                   help="feature construction (default: narx)")
    p.add_argument("--d", type=int, help="narx mode: number of past samples per channel")
    p.add_argument("--r", type=int, help="window mode: samples per block and channel")
    p.add_argument("--channels", help="comma-separated channel names "
                   "(narx: input,output; window: feature channels; default: from header)")
    p.add_argument("--label", help="window mode: label channel (first differences per block)")
    p.add_argument("--a", type=float, default=RELU_MIMIC.a, help="activation a (default %(default)s)")
    p.add_argument("--b", type=float, default=RELU_MIMIC.b, help="activation b (default %(default)s)")
    p.add_argument("--c", type=float, default=RELU_MIMIC.c, help="activation c (default %(default)s)")
    p.add_argument("--split", type=float, default=0.5, dest="split_fraction",
                   help="sequential train fraction (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadconv", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="fit a banded quadratic model")
    _add_common_train_args(p)
    p.add_argument("--f", type=int, required=True, help="filter length")
    p.add_argument("--beta", default="0", help="comma-separated ridge weights (default 0)")
    p.add_argument("--out", required=True, help="model JSON path (suffixed per beta for sweeps)")
    p.add_argument("--metrics", help="optional metrics CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="evaluate a model on feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature CSV; a column named 'y' is the truth")
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sensitivity", help="input gradients of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", required=True, help="CSV of evaluation points (a 'y' column is ignored)")
    p.add_argument("--out", required=True, help="gradients CSV")
    p.add_argument("--summary", action="store_true",
                   help="append a per-feature max |gradient| row")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("verify", help="run the randomized oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timing/MSE table across filter lengths")
    _add_common_train_args(p)
    p.add_argument("--f-list", required=True, dest="f_list",
                   help="comma-separated filter lengths; the dense f=n row is always added")
    p.add_argument("--out", required=True, help="benchmark CSV")
    p.add_argument("--repeats", type=int, default=3, help="timing repetitions (min is kept)")
    p.set_defaults(func=cmd_bench)
    return parser


def _parse_channels(arg):
    if arg is None:
        return None
    names = [c.strip() for c in arg.split(",") if c.strip()]
    if not names:
        raise _ConfigError("--channels must name at least one channel")
    return names


def _check_mode_args(args):
    if args.mode == "narx":
        if args.d is None:
            raise _ConfigError("narx mode requires --d")
        if args.d < 1:
            raise _ConfigError("--d must be >= 1")
        return
    if args.r is None:
        raise _ConfigError("window mode requires --r")
    if args.r < 2:
        # a block's label is its last sample minus its first
        raise _ConfigError("--r must be >= 2 (with r = 1 every label is 0)")
    if args.label is None:
        raise _ConfigError("window mode requires --label")


def _train_test(args, split_spec):
    """Load the CSV, window it per the configured mode and split it.

    The mode arguments are checked before the file is read, so a config
    error is reported as one even when the data file is missing. Only the
    (train, test) pair is returned; both read their feature rows in blocks
    from windows over the series' channels, so no feature array is held.
    """
    channels = _parse_channels(args.channels)
    _check_mode_args(args)
    ts = load_csv(args.data)
    if args.mode == "narx":
        names = channels if channels is not None else ts.names
        if len(names) < 2:
            raise _ConfigError("narx mode needs an input and an output channel")
        data = narx_window(ts, names[0], names[1], args.d)
    else:
        names = channels if channels is not None else [n for n in ts.names if n != args.label]
        if not names:
            raise _ConfigError("window mode needs a feature channel besides --label")
        data = multichannel_window(ts, names, args.r, args.label)
    return split(data, split_spec)


def _train_config(args):
    with _config_errors():
        return validate_activation(args.a, args.b, args.c), SplitSpec(args.split_fraction)


def _beta_list(arg):
    try:
        betas = [float(v) for v in arg.split(",") if v.strip() != ""]
    except ValueError:
        raise _ConfigError(f"cannot parse --beta list {arg!r}") from None
    with _config_errors():
        return _check_betas(betas)


def _beta_path(base: str, beta: float, multiple: bool) -> Path:
    path = Path(base)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}_beta{beta:g}{path.suffix or '.json'}")


def _check_parent_dir(path) -> None:
    """Raise the OSError that writing `path` would, when its parent is not
    an existing directory, so a bad output path fails before the fit."""
    try:
        mode = os.stat(Path(path).parent).st_mode
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from None
    if not stat.S_ISDIR(mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def cmd_train(args) -> int:
    params, split_spec = _train_config(args)
    betas = _beta_list(args.beta)
    for beta in betas:
        _check_parent_dir(_beta_path(args.out, beta, len(betas) > 1))
    if args.metrics:
        _check_parent_dir(args.metrics)

    train_set, test_set = _train_test(args, split_spec)
    n_train = train_set.n_samples
    with _config_errors():
        spec = ConvSpec(train_set.n_features, args.f)

    rows = []
    for beta, result in zip(betas, fit_path(train_set, spec, params, betas)):
        report = result.report
        if report.rank_deficient:
            print(
                f"warning: beta={beta:g} fit is rank deficient "
                f"(route {report.solve_strategy.value}, "
                f"{n_train} training rows, {spec.n_weights} weights); "
                "the training data do not determine every weight",
                file=sys.stderr,
            )
        # the solve measured the training residual; only the test rows are
        # evaluated
        train_mse = report.residual_norm ** 2 / n_train
        y_test = _evaluate(predict_batch, result.model, test_set.features, "test prediction")
        test_mse = mse(y_test, test_set.labels)
        theta_norm = float(np.linalg.norm(report.theta))
        out_path = _beta_path(args.out, beta, len(betas) > 1)
        out_path.write_text(serialize(result.model), encoding="utf-8")
        rows.append((beta, train_mse, test_mse, result.train_seconds, theta_norm))
        print(
            f"beta={beta:g} train_mse={train_mse:.6e} test_mse={test_mse:.6e} "
            f"train_time_s={result.train_seconds:.6f} model={out_path}"
        )

    if args.metrics:
        header = ["beta", "f", "n", "n_train", "n_test", "train_mse", "test_mse",
                  "train_time_s", "theta_norm"]
        _write_csv(args.metrics, header, (
            (beta, spec.f, spec.n, n_train, test_set.n_samples, tr, te,
             f"{secs:.6f}", norm)
            for beta, tr, te, secs, norm in rows
        ))
    return 0


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise MalformedModelFile(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return deserialize(text)


def _evaluate(kernel, model, X, what: str):
    """kernel(model, X), which walks the rows of X (an array or a dataset's
    features) in blocks; an overflow raises NonFiniteInput naming the first
    row whose output is not finite, so no inf or nan is written."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(model, X)
    finite = np.isfinite(out.reshape(len(out), -1)).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"{what} at index {np.argmin(finite)} is not finite: it overflows")
    return out


def cmd_predict(args) -> int:
    model = _load_model(args.model)
    X, y_true, _ = load_feature_csv(args.data)
    y_pred = _evaluate(predict_batch, model, X, "prediction")
    if y_true is not None:
        _write_csv(args.out, ["index", "y_true", "y_pred"], zip(itertools.count(), y_true, y_pred))
        print(f"mse={mse(y_pred, y_true):.17g} rows={len(y_pred)} out={args.out}")
    else:
        _write_csv(args.out, ["index", "y_pred"], enumerate(y_pred))
        print(f"rows={len(y_pred)} out={args.out}")
    return 0


def cmd_sensitivity(args) -> int:
    model = _load_model(args.model)
    X0, _, _ = load_feature_csv(args.x0)
    grads = _evaluate(sensitivity_batch, model, X0, "gradient")
    summary = [("max_abs", *np.abs(grads).max(axis=0))] if args.summary else []
    rows = itertools.chain(((i, *row) for i, row in enumerate(grads)), summary)
    _write_csv(args.out, ["index"] + [f"g{i + 1}" for i in range(model.spec.n)], rows)
    print(f"rows={len(grads)} out={args.out}")
    return 0


def cmd_verify(args) -> int:
    with _config_errors():
        results = run_all_checks(args.seed, args.instances)
    if args.instances == 0:
        print("warning: 0 instances requested; all suites pass vacuously")
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print("all suites passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 3


def cmd_bench(args) -> int:
    params, split_spec = _train_config(args)
    try:
        f_values = [int(v) for v in args.f_list.split(",") if v.strip() != ""]
    except ValueError:
        raise _ConfigError(f"cannot parse --f-list {args.f_list!r}") from None
    if not f_values:
        raise _ConfigError("--f-list must contain at least one value")
    if args.repeats < 1:
        raise _ConfigError("--repeats must be >= 1")
    _check_parent_dir(args.out)

    train_set, test_set = _train_test(args, split_spec)
    n_train, n = train_set.n_samples, train_set.n_features
    if n not in f_values:
        f_values.append(n)
    with _config_errors():
        specs = [ConvSpec(n, f) for f in f_values]

    rows = []
    for spec in specs:
        f = spec.f
        best = None
        result = None
        for _ in range(args.repeats):
            result = fit(train_set, spec, params, 0.0)
            best = result.train_seconds if best is None else min(best, result.train_seconds)
        method = "ls-qnn" if f == n else "ls-cqnn"
        train_mse = result.report.residual_norm ** 2 / n_train
        y_test = _evaluate(predict_batch, result.model, test_set.features, "test prediction")
        test_mse = mse(y_test, test_set.labels)
        rows.append((method, f, train_mse, test_mse, best))

    _write_csv(args.out, ["method", "f", "train_mse", "test_mse", "train_time_s"],
               ((method, f, tr, te, f"{secs:.6f}") for method, f, tr, te, secs in rows))
    for method, f, tr, te, secs in rows:
        print(f"{method:8s} f={f:<4d} train_mse={tr:.6e} test_mse={te:.6e} train_time_s={secs:.6f}")

    dense = {f: secs for _, f, _, _, secs in rows}[n]
    for method, f, _, _, secs in rows:
        if method == "ls-cqnn" and secs > dense:
            print(
                f"warning: ls-cqnn f={f} timed slower than the dense fit "
                f"({secs:.6f}s vs {dense:.6f}s); timings on tiny problems are noisy",
                file=sys.stderr,
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        code = args.func(args)
        # a closed stdout shows here, not in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing can reach a closed stdout; point it at the null device so
        # the exit flush of the unwritten buffer does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (QuadconvError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
