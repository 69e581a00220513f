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

from .core import ConvSpec, RELU_MIMIC, format_float, validate_activation
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
from .solver import SolveStrategy, _check_betas
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

    p = sub.add_parser("train", help="fit a banded quadratic model")
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


def _comma_list(flag, text, convert):
    """The items of a comma-separated list flag, each passed through
    `convert`; blank items are skipped."""
    try:
        return [convert(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _ConfigError(f"cannot parse {flag} {text!r}") from None


def _series_config(args):
    """(activation, split, channel names or None) of `train` and `bench`,
    with the mode arguments checked, before any file is read."""
    with _config_errors():
        params, split_spec = validate_activation(args.a, args.b, args.c), SplitSpec(args.split_fraction)
    channels = None if args.channels is None else _comma_list("--channels", args.channels, str.strip)
    if channels == []:
        raise _ConfigError("--channels must name at least one channel")
    # each mode flag is required by its mode and refused by the other,
    # which would ignore it
    for flag, mode in (("d", "narx"), ("r", "window"), ("label", "window")):
        given = getattr(args, flag) is not None
        if given and mode != args.mode:
            raise _ConfigError(f"--{flag} does not apply to --mode {args.mode}")
        if not given and mode == args.mode:
            raise _ConfigError(f"{mode} mode requires --{flag}")
    if args.mode == "narx" and args.d < 1:
        raise _ConfigError("--d must be >= 1")
    if args.mode == "narx" and channels is not None and len(channels) != 2:
        raise _ConfigError(
            f"narx mode needs exactly two --channels (input,output), got {len(channels)}")
    if args.mode == "window" and args.r < 2:
        # a block's label is its last sample minus its first
        raise _ConfigError("--r must be >= 2 (with r = 1 every label is 0)")
    return params, split_spec, channels


def _check_outputs(paths, inputs) -> None:
    """Fail as writing `paths` would, before any of the `inputs` is read and
    so before the fit: an output with the path of an input or of another
    output is a config error, and a path that is a directory, or whose
    parent is not one, raises the write's OSError."""
    inputs = {os.path.realpath(path) for path in inputs}
    seen = set()
    for path in map(str, paths):
        key = os.path.realpath(path)
        if key in inputs:
            raise _ConfigError(f"an output would overwrite the input {path}")
        if key in seen:
            raise _ConfigError(f"two outputs would be written to {path}")
        seen.add(key)
        try:
            parent_mode = os.stat(Path(path).parent).st_mode
        except OSError as e:
            raise OSError(e.errno, e.strerror, path) from None
        code = (errno.ENOTDIR if not stat.S_ISDIR(parent_mode)
                else errno.EISDIR if os.path.isdir(path) else None)
        if code is not None:
            raise OSError(code, os.strerror(code), path)


def _train_test(args, channels, split_spec):
    """Load the CSV, window it per the configured mode and split it. Only
    the (train, test) pair is returned; both read their feature rows in
    blocks from windows over the series' channels, so no feature array is
    held."""
    ts = load_csv(args.data)
    if args.mode == "narx":
        names = channels or ts.names
        if len(names) < 2:
            raise _ConfigError("narx mode needs an input and an output channel")
        data = narx_window(ts, names[0], names[1], args.d)
    else:
        names = channels or [n for n in ts.names if n != args.label]
        if not names:
            raise _ConfigError("window mode needs a feature channel besides --label")
        data = multichannel_window(ts, names, args.r, args.label)
    return split(data, split_spec)


def cmd_train(args) -> int:
    params, split_spec, channels = _series_config(args)
    with _config_errors():
        betas = _check_betas(_comma_list("--beta", args.beta, float))
    out = Path(args.out)
    # a sweep writes beside --out under suffixed names; an --out that is a
    # directory (such as '.' or '/', which have no name to suffix) is
    # checked, and refused, as it is for one beta
    model_paths = [out] if len(betas) == 1 or out.is_dir() else [
        out.with_name(f"{out.stem}_beta{beta:g}{out.suffix or '.json'}") for beta in betas]
    _check_outputs(model_paths + ([args.metrics] if args.metrics else []), [args.data])

    train_set, test_set = _train_test(args, channels, split_spec)
    n_train = train_set.n_samples
    with _config_errors():
        spec = ConvSpec(train_set.n_features, args.f)

    # every beta is scored and serialized before the first file is written,
    # so a beta that fails leaves no model of an earlier one behind
    rows, texts = [], []
    for beta, result in zip(betas, fit_path(train_set, spec, params, betas)):
        train_mse, test_mse = _scores(result, n_train, test_set)
        theta_norm = float(np.linalg.norm(result.report.theta))
        texts.append(serialize(result.model))
        rows.append((beta, train_mse, test_mse, result.train_seconds, theta_norm))
    for path, text in zip(model_paths, texts):
        path.write_text(text, encoding="utf-8")
    for path, (beta, train_mse, test_mse, secs, _) in zip(model_paths, rows):
        print(
            f"beta={beta:g} train_mse={train_mse:.6e} test_mse={test_mse:.6e} "
            f"train_time_s={secs:.6f} model={path}"
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


def _scores(result, n_train: int, test_set):
    """(train_mse, test_mse) of a fit on n_train rows, after a warning on
    stderr when the fit is rank deficient, or when it is of full rank but
    left the normal equations for the QR route, which only an
    ill-conditioned H'H + beta I does. The solve measured the training
    residual, so only the test rows are evaluated."""
    report = result.report
    if report.rank_deficient:
        print(
            f"warning: beta={report.beta:g} fit is rank deficient "
            f"(route {report.solve_strategy.value}, {n_train} training rows, "
            f"{result.model.spec.n_weights} weights); "
            "the training data do not determine every weight",
            file=sys.stderr,
        )
    elif report.solve_strategy is SolveStrategy.PSEUDOINVERSE:
        print(
            f"warning: beta={report.beta:g} fit is ill-conditioned "
            f"(route {report.solve_strategy.value}, rcond {report.rcond:.3g} of H'H + beta I); "
            "its weights come from a QR of the training rows, not the normal equations",
            file=sys.stderr,
        )
    train_mse = report.residual_norm ** 2 / n_train
    y_test = _evaluate(predict_batch, result.model, test_set.features, "test prediction")
    return train_mse, mse(y_test, test_set.labels)


def cmd_predict(args) -> int:
    _check_outputs([args.out], [args.model, args.data])
    model = _load_model(args.model)
    X, y_true, _ = load_feature_csv(args.data)
    y_pred = _evaluate(predict_batch, model, X, "prediction")
    if y_true is not None:
        _write_csv(args.out, ["index", "y_true", "y_pred"], zip(itertools.count(), y_true, y_pred))
        print(f"mse={format_float(mse(y_pred, y_true))} rows={len(y_pred)} out={args.out}")
    else:
        _write_csv(args.out, ["index", "y_pred"], enumerate(y_pred))
        print(f"rows={len(y_pred)} out={args.out}")
    return 0


def cmd_sensitivity(args) -> int:
    _check_outputs([args.out], [args.model, args.x0])
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
    params, split_spec, channels = _series_config(args)
    f_values = _comma_list("--f-list", args.f_list, int)
    if not f_values:
        raise _ConfigError("--f-list must contain at least one value")
    if args.repeats < 1:
        raise _ConfigError("--repeats must be >= 1")
    _check_outputs([args.out], [args.data])

    train_set, test_set = _train_test(args, channels, split_spec)
    n_train, n = train_set.n_samples, train_set.n_features
    if n not in f_values:
        f_values.append(n)
    with _config_errors():
        specs = [ConvSpec(n, f) for f in f_values]

    rows = []
    for spec in specs:
        fits = [fit(train_set, spec, params, 0.0) for _ in range(args.repeats)]
        method = "ls-qnn" if spec.f == n else "ls-cqnn"
        rows.append((method, spec.f, *_scores(fits[-1], n_train, test_set),
                     min(result.train_seconds for result in fits)))

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
    except MemoryError as e:
        # numpy names the allocation that failed, as in "Unable to allocate
        # 26.8 GiB for an array with shape (60000, 60000) ..."
        print(f"data error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
