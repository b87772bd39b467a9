"""Command-line experiment runner.

Subcommands: ``gen-data``, ``train``, ``sweep``, ``single``, ``complexity``,
``ingest``.  Every subcommand accepts one ``--config FILE`` (or
``--config=FILE``) with a JSON object whose keys match the subcommand's long
flag names (underscored).  Its values are parsed as flags placed right after
the subcommand name, so they pass the same checks, and explicit flags,
coming later, override them; an unknown key is an error.  Every refused
command line exits with a one-line message.  All randomness flows from
``--seed``/``--sample-seed``, and data outputs are byte-identical across
repeated runs of one configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .bench import (LEARNED_METHODS, SOLVER_METHODS, ExperimentConfig,
                    check_model, complexity_report, ingest_iq_grid,
                    metric_rows_table, run_single, run_sweep, write_csv,
                    write_iq_grid, write_manifest)
from .cplx import ComplexArray, NumericError
from .harmonic import (SamplingSet, build_dictionary, db_to_sigma2,
                       dictionary_from_meta, draw_sampling, gen_dataset,
                       read_dataset, read_sidecar, write_dataset)
from .nets import (ARCHS, branches, forward, init_network, load_network,
                   save_network)
from .solvers import SolverConfig, default_lambda, ista
from .training import TrainConfig, estimate_dictionary, loss_nmse, train


def _rule(convert, ok, want):
    """An argparse ``type=``: ``convert`` of the flag's text, refused with
    "<text>: must be <want>" unless ``ok`` holds for it (a ValueError from
    either counts as not holding)."""
    def parse(text):
        try:
            value = convert(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"{text}: must be {want}")
        return value
    return parse


def _int_from(low):
    return _rule(int, lambda v: v >= low, f"an integer >= {low}")


def _finite(ok=lambda v: v >= 0, want=">= 0"):
    return _rule(float, lambda v: math.isfinite(v) and ok(v), f"finite and {want}")


_FRACTION = _rule(float, lambda v: 0 <= v < 1, "in [0, 1)")
# --config is read before the parse (see _with_config), so the parse meets it
# only abbreviated, and refuses it there
_CONFIG = _rule(str, lambda _: False, "given as --config FILE or --config=FILE")


def _split(text: str, kind) -> list:
    """The entries of a comma list, each read by ``kind``."""
    return [kind(v) for v in text.split(",") if v != ""]


# the comma-list flags keep their text, which the manifests echo
_NOISE_DB = _rule(str, lambda t: [db_to_sigma2(db) for db in _split(t, float)],
                  "a comma list of at least one finite dB value whose power "
                  "10**(dB/10) is finite")
_SIZES = _rule(str, lambda t: _split(t, int) and min(_split(t, int)) >= 1,
               "a comma list of at least one grid size >= 1")


def _problem(args) -> tuple[int, ...]:
    """The grid shape of the problem flags, with --n and --k checked against
    its size: 1 <= --n <= grid size and --k <= grid size, where --k >= 1 for
    ``sweep``, whose metrics score a component."""
    names = ("m1", "m2") if args.problem == "2d" else ("m",)
    for name in names:
        if getattr(args, name) is None:
            raise SystemExit(f"missing required option --{name}")
    shape = tuple(getattr(args, name) for name in names)
    total = math.prod(shape)
    for name, low in (("n", 1), ("k", 1 if args.command == "sweep" else 0)):
        value = getattr(args, name)
        if not low <= value <= total:
            raise SystemExit(f"--{name} {value}: must be an integer from {low} "
                             f"to the grid size {total}")
    return shape


def _add_problem_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", choices=("1d", "2d"), default="1d")
    p.add_argument("--m", type=_int_from(1), help="1-D grid size")
    p.add_argument("--m1", type=_int_from(1), help="first 2-D grid size")
    p.add_argument("--m2", type=_int_from(1), help="second 2-D grid size")
    p.add_argument("--n", type=_int_from(1), required=True,
                   help="number of observed samples")
    p.add_argument("--k", type=_int_from(0), default=5, help="number of components")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--sample-seed", type=_int_from(0), default=0,
                   help="seed of the random index set")


def _add_method_flags(p: argparse.ArgumentParser):
    p.add_argument("--methods", default="ista,fista",
                   help="comma list from: " + ",".join(SOLVER_METHODS + LEARNED_METHODS))
    p.add_argument("--budget-ista", type=_int_from(1), default=1000)
    p.add_argument("--budget-fista", type=_int_from(1), default=100)
    p.add_argument("--lambda-scale", type=_finite(), default=0.1,
                   help="penalty = scale * max|phi^H y|")
    for method in LEARNED_METHODS:
        p.add_argument(f"--model-{method}")


def _read_input(args, name, reader):
    """``reader`` applied to the file that --name gives.  A file it cannot
    open or parse stops the run with a message naming the flag and the file."""
    flag, path = f"--{name.replace('_', '-')}", getattr(args, name)
    try:
        return reader(path)
    except OSError as exc:
        raise SystemExit(f"{flag} {path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:
        msg = str(exc)
        if not msg.startswith(f"{path}: "):
            msg = f"{path}: {msg}"
        raise SystemExit(f"{flag} {msg}") from None


def _output(sidecar=""):
    """An argparse ``type=`` for an output path, refused with "<path>: cannot
    write (<why>)" unless the path, and the file ``path + sidecar`` that its
    writer adds beside it, can be written."""
    def parse(path):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            why = "it is a directory"
        elif not os.path.isdir(folder):
            why = f"no directory {folder}"
        elif not os.access(folder, os.W_OK):
            why = f"directory {folder} is not writable"
        elif os.path.isdir(path + sidecar):
            why = f"its sidecar {path + sidecar} is a directory"
        else:
            return path
        raise argparse.ArgumentTypeError(f"{path}: cannot write ({why})")
    return parse


@contextlib.contextmanager
def _numeric(where, *also):
    """Stop with a message naming ``where``, the flags and files whose values
    the block computes on, if it raises a NumericError (a finite input that
    overflows) or one of the exception types ``also``."""
    try:
        yield
    except (NumericError, *also) as exc:
        raise SystemExit(f"{where}: {exc}") from None


def _learnable(ds, where):
    """Stop naming ``where``, the flag and file that ``ds`` comes from, if it
    holds no sample or only zero truth spectra: its NMSE loss is undefined."""
    if ds.count == 0:
        raise SystemExit(f"{where} holds no samples")
    if not ds.truth.z.any():
        raise SystemExit(f"{where}: every truth spectrum is zero, so the NMSE loss "
                         "is undefined")


def _recorded_omega(path):
    """The sampling indices that the sidecar of model file ``path`` records,
    read as a :class:`SamplingSet`, or None where the sidecar is missing or
    records none (a file saved without them)."""
    side = read_sidecar(path)
    if side is None or "omega" not in side:
        return None
    try:
        return SamplingSet(side["omega"], side.get("sampling_seed", 0)).omega
    except ValueError as exc:
        raise ValueError(f"{path}.json: {exc}") from None


def _check_sampling(args, name, omega, where):
    """Stop naming --name and its model file if the file's sidecar records
    sampling indices other than ``omega``, those of ``where``.  A sidecar
    that records none (a file saved without them) passes."""
    recorded = _read_input(args, name, _recorded_omega)
    if recorded is not None and not np.array_equal(recorded, omega):
        raise SystemExit(f"--{name.replace('_', '-')} {getattr(args, name)}: the model "
                         f"was trained on other sampling indices than {where}")


def _load_models(args, methods, shape) -> dict:
    """The model file of every learned method in ``methods``, each checked
    to fit the ``shape`` grid that --n observes through the sampling set of
    --sample-seed."""
    known = SOLVER_METHODS + LEARNED_METHODS
    if not methods:
        raise SystemExit(f"--methods names no method; choose from {', '.join(known)}")
    models = {}
    omega = draw_sampling(math.prod(shape), args.n, args.sample_seed).omega
    for name in methods:
        if name not in known:
            raise SystemExit(f"--methods: unknown method {name!r}; "
                             f"choose from {', '.join(known)}")
        if name in SOLVER_METHODS:
            continue
        attr = "model_" + name.replace("-", "_")
        if not getattr(args, attr, None):
            raise SystemExit(f"method {name} needs --model-{name}")
        models[name] = _read_input(
            args, attr, lambda path: check_model(name, load_network(path), shape, args.n))
        _check_sampling(args, attr, omega, f"the experiment's (--n {args.n}, "
                                           f"--sample-seed {args.sample_seed})")
    return models


def _experiment_config(args, **settings) -> ExperimentConfig:
    """The experiment of the problem and method flags; ``settings`` are the
    subcommand's own :class:`ExperimentConfig` fields."""
    shape = _problem(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    return ExperimentConfig(
        shape=shape, n_obs=args.n, k=args.k, methods=methods, seed=args.seed,
        sample_seed=args.sample_seed, lambda_scale=args.lambda_scale,
        budgets={"ista": args.budget_ista, "fista": args.budget_fista},
        models=_load_models(args, methods, shape), **settings)


def _echo_config(args) -> dict:
    return {key: val for key, val in sorted(vars(args).items()) if key != "func"}


# -- subcommands -------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    shape = _problem(args)
    if args.export_iq:
        if len(shape) != 2:
            raise SystemExit("--export-iq needs a 2-D problem")
        if args.export_index >= args.samples:
            raise SystemExit(f"--export-index {args.export_index} is outside "
                             f"0 .. {args.samples - 1} (--samples {args.samples})")
    sampling = draw_sampling(int(np.prod(shape)), args.n, args.sample_seed)
    d = build_dictionary(shape, sampling)
    ds = gen_dataset(d, args.samples, args.k, args.sigma2, args.seed)
    write_dataset(args.out, ds)
    if args.export_iq:
        y = ComplexArray(ds.obs.z[:, args.export_index].copy())
        write_iq_grid(args.export_iq, shape, sampling.omega, y)
    print(f"wrote {args.out} ({ds.count} samples)")
    return 0


def _cmd_train(args) -> int:
    train_ds = _read_input(args, "data", read_dataset)
    _learnable(train_ds, f"--data {args.data}")
    shape = tuple(train_ds.meta["shape"])
    try:
        branches(args.arch, shape, train_ds.meta["n_obs"])
    except ValueError as exc:
        raise SystemExit(f"--arch {args.arch}: {exc}, but --data {args.data} "
                         f"holds the {len(shape)}-D grid {shape}") from None
    if args.val:
        val_ds = _read_input(args, "val", read_dataset)
        for key in ("shape", "n_obs", "omega"):
            mine, theirs = val_ds.meta[key], train_ds.meta[key]
            if mine != theirs:
                detail = ("the sampling indices differ" if key == "omega"
                          else f"{key} {mine} against {theirs}")
                raise SystemExit(f"--val {args.val} and --data {args.data} hold "
                                 f"different problems: {detail}")
        _learnable(val_ds, f"--val {args.val}")
    else:
        count = train_ds.count
        n_val = max(1, int(count * args.val_frac))
        if n_val >= count:
            raise SystemExit(f"--val-frac {args.val_frac} leaves no training sample "
                             f"of the {count} in {args.data}")
        val_ds = train_ds.take(np.arange(count - n_val, count))
        _learnable(val_ds, f"--data {args.data} (its validation split, the last "
                           f"{n_val} samples)")
        train_ds = train_ds.take(np.arange(count - n_val))
    d = dictionary_from_meta(train_ds.meta)
    phi_hat = None
    if args.estimate_dict:
        try:
            phi_hat = estimate_dictionary(train_ds)
        except ValueError as exc:
            raise SystemExit(f"--estimate-dict: {exc} (training samples "
                             f"of --data {args.data})") from None
    net = init_network(args.arch, d, args.depth, args.lam, phi_hat)
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch,
                      epochs=args.epochs, lr_decay_patience=args.patience,
                      seed=args.seed)
    with _numeric(f"--val {args.val}" if args.val else f"--data {args.data}"):
        init_val = loss_nmse(net, val_ds)
        if not math.isfinite(init_val):
            raise NumericError("non-finite validation NMSE before training")
    # a ValueError here is a batch of zero truth spectra only
    with _numeric(f"--data {args.data}", ValueError):
        net, report = train(net, train_ds, val_ds, cfg)
    best = report.best_epoch
    final_val = init_val if best is None else report.val_history[best - 1]
    meta = {
        "train_config": {**dataclasses.asdict(cfg), "lam": args.lam},
        "omega": [int(v) for v in d.sampling.omega],
        "sampling_seed": d.sampling.seed,
        "initial_val_nmse": init_val,
        "final_val_nmse": final_val,
        "best_epoch": report.best_epoch,
        "loss_history": report.loss_history,
        "val_history": report.val_history,
    }
    save_network(args.out, net, extra_meta=meta)
    gain_db = 20.0 * np.log10(init_val / final_val) if final_val > 0 else float("inf")
    print(f"wrote {args.out} (val NMSE {init_val:.4f} -> {final_val:.4f}, "
          f"gain {gain_db:.1f} dB)")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args, noise_powers_db=_split(args.noise_db, float),
                             trials_per_point=args.trials, timing=args.timing)
    rows = run_sweep(cfg)
    header, table = metric_rows_table(rows)
    write_csv(args.out, header, table)
    write_manifest(args.out + ".manifest.json", _echo_config(args))
    print(f"wrote {args.out} ({len(table)} rows)")
    return 0


def _cmd_single(args) -> int:
    cfg = _experiment_config(args, noise_powers_db=[0.0])
    header, rows = run_single(cfg, offgrid=args.offgrid, frac=args.frac,
                              sigma2=args.sigma2)
    write_csv(args.out, header, rows)
    write_manifest(args.out + ".manifest.json", _echo_config(args))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_complexity(args) -> int:
    header, rows = complexity_report(_split(args.sizes, int), n_obs=args.n,
                                     repeats=args.repeats,
                                     timing=not args.no_timing)
    write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    y, d = _read_input(args, "path", ingest_iq_grid)
    if args.model:
        net = _read_input(args, "model", load_network)
        if net.shape != d.shape or net.n_obs != d.n_obs:
            raise SystemExit(f"--model {args.model}: model dimensions do not match "
                             f"the IQ grid of --path {args.path} (grid {net.shape} "
                             f"with {net.n_obs} observations against {d.shape} "
                             f"with {d.n_obs})")
        _check_sampling(args, "model", d.sampling.omega, f"the IQ grid of --path {args.path}")
        with _numeric(f"--path {args.path}, --model {args.model}"):
            x_hat = forward(net, y)
        method = f"model:{net.arch}"
    else:
        with _numeric(f"--path {args.path}"):
            scfg = SolverConfig(lam=default_lambda(d, y, args.lambda_scale),
                                max_iter=args.budget, tol=0.0)
            x_hat = ista(d, y, scfg).x_hat
        method = "ista"
    m1, m2 = d.shape
    mags = x_hat.abs()
    rows = [[idx, idx // m2, idx % m2, mags[idx]] for idx in range(d.total)]
    write_csv(args.out, ["index", "axis1_cell", "axis2_cell", "magnitude"], rows)
    write_manifest(args.out + ".manifest.json",
                   {**_echo_config(args), "method": method,
                    "grid": list(d.shape), "n_obs": d.n_obs})
    print(f"wrote {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises every refusal for :func:`main` to word.

    Before Python 3.12, argparse reports a missing required flag and
    unrecognized arguments through ``error()``, which prints the usage and
    exits 2, even with ``exit_on_error=False``; subparsers inherit the class.
    """

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    """The parser tree and its subcommand parsers by name.  Every rule that
    one value obeys on its own is its flag's ``type=``, and a refused value
    is raised, not reported, so that :func:`main` words the message."""
    parser = _Parser(
        prog="hunfold",
        description="Sparse harmonic retrieval benchmarks: classical "
                    "proximal solvers and structured unfolded networks.",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary):
        commands[name] = sub.add_parser(name, help=summary, exit_on_error=False)
        commands[name].set_defaults(func=func)
        commands[name].add_argument(
            "--config", metavar="FILE", type=_CONFIG, default=argparse.SUPPRESS,
            help="JSON object of this subcommand's flags, keys underscored, "
                 "read as flags placed before the others")
        return commands[name]

    p = command("gen-data", _cmd_gen_data, "generate a labelled synthetic dataset")
    _add_problem_flags(p)
    p.add_argument("--sigma2", type=_finite(), default=0.0, help="noise power")
    p.add_argument("--samples", type=_int_from(1), required=True)
    p.add_argument("--out", type=_output(".json"), required=True)
    p.add_argument("--export-iq", type=_output(),
                   help="also write sample --export-index as an IQ grid file (2-D only)")
    p.add_argument("--export-index", type=_int_from(0), default=0)

    p = command("train", _cmd_train, "train an unfolded network on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--val", help="validation dataset (default: split from --data)")
    p.add_argument("--val-frac", type=_FRACTION, default=0.1)
    p.add_argument("--arch", choices=ARCHS, required=True)
    p.add_argument("--depth", type=_int_from(1), default=10)
    p.add_argument("--lam", type=_finite(), default=0.1,
                   help="penalty weight setting the initial threshold")
    p.add_argument("--lr", type=_finite(lambda v: v > 0, "> 0"), default=1e-3)
    p.add_argument("--batch", type=_int_from(1), default=128)
    p.add_argument("--epochs", type=_int_from(0), default=30)
    p.add_argument("--patience", type=_int_from(1), default=5)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--estimate-dict", action="store_true",
                   help="initialise from the least-squares dictionary estimate")
    p.add_argument("--out", type=_output(".json"), required=True)

    p = command("sweep", _cmd_sweep, "noise sweep with per-method metrics")
    _add_problem_flags(p)
    _add_method_flags(p)
    p.add_argument("--noise-db", type=_NOISE_DB, default="0",
                   help="comma list of noise powers in dB (10*log10 sigma2)")
    p.add_argument("--trials", type=_int_from(1), default=100)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock per recovery, the time of a "
                        "point's block over its trials (breaks byte "
                        "reproducibility of the CSV)")
    p.add_argument("--out", type=_output(".manifest.json"), required=True)

    p = command("single", _cmd_single, "single-trial recovery dump per method")
    _add_problem_flags(p)
    _add_method_flags(p)
    p.add_argument("--offgrid", action="store_true")
    p.add_argument("--frac", type=_FRACTION, default=0.25,
                   help="off-grid displacement as a fraction of a cell")
    p.add_argument("--sigma2", type=_finite(), default=0.0)
    p.add_argument("--out", type=_output(".manifest.json"), required=True)

    p = command("complexity", _cmd_complexity, "parameter counts and layer timings")
    p.add_argument("--sizes", type=_SIZES, default="512,1024,2048,4096",
                   help="comma list of grid sizes")
    p.add_argument("--n", type=_int_from(1), default=64)
    p.add_argument("--repeats", type=_int_from(1), default=5)
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--out", type=_output(), required=True)

    p = command("ingest", _cmd_ingest, "recover a spectrum from an IQ grid file")
    p.add_argument("--path", required=True)
    p.add_argument("--budget", type=_int_from(1), default=1000)
    p.add_argument("--lambda-scale", type=_finite(), default=0.1)
    p.add_argument("--model", help="trained 2-D model file (default: ista)")
    p.add_argument("--out", type=_output(".manifest.json"), required=True)

    return parser, commands


@functools.cache
def _parser():
    """The process's one :func:`build_parser` tree, which no run changes."""
    return build_parser()


def _json_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _config_flags(path, command: str, p: argparse.ArgumentParser) -> list[str]:
    """The ``--config`` document as ``--flag=value`` tokens of ``command``.

    A switch takes true (the bare flag) or false (no token); any other flag
    takes a string, as its text, or a number, as its JSON text, and a
    comma-list flag also an array of them, joined with commas.  Anything
    else, and a document that is not a JSON object of ``command``'s
    options, stops the run with a message naming the file and the key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read config file ({exc.strerror})")
    except ValueError as exc:
        raise SystemExit(f"{path}: malformed JSON ({exc})")
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: config must be a JSON object, "
                         f"got {type(doc).__name__}")
    actions = {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
    tokens = []
    for key, value in doc.items():
        if key not in actions:
            raise SystemExit(f"{path}: unknown key {key!r} for {command!r}")
        flag, switch = actions[key].option_strings[0], actions[key].nargs == 0
        listed = actions[key].type in (_NOISE_DB, _SIZES)
        if listed and isinstance(value, list):
            value = ",".join(map(_json_text, value))
        scalar = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        if switch and isinstance(value, bool):
            tokens += [flag] if value else []
        elif scalar and not switch:
            tokens.append(f"{flag}={_json_text(value)}")
        else:
            want = ("true or false" if switch else
                    "a JSON string or number" + " or an array of them" * listed)
            raise SystemExit(f"{flag} {json.dumps(value)}: must be {want} "
                             f"(key {key!r} of {path})")
    return tokens


def _with_config(argv: list[str], parser, commands) -> list[str]:
    """``argv`` with its ``--config FILE`` or ``--config=FILE`` replaced by
    the file's tokens, placed right after the subcommand name so that
    explicit flags, which come later, win."""
    given = [i for i, a in enumerate(argv) if a == "--config" or a.startswith("--config=")]
    if not given:
        return argv
    if len(given) > 1:
        parser.error("--config given more than once; give one config file")
    i = given[0]
    if argv[i] != "--config":
        path, argv = argv[i][len("--config="):], argv[:i] + argv[i + 1:]
    elif i + 1 < len(argv):
        path, argv = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        parser.error("--config needs a file argument")
    at = next((j for j, a in enumerate(argv) if a in commands), None)
    if at is None:
        return argv   # main reports the missing subcommand
    tokens = _config_flags(path, argv[at], commands[argv[at]])
    return argv[:at + 1] + tokens + argv[at + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    try:
        argv = _with_config(argv, parser, commands)
        if not argv or argv[0] not in (*commands, "-h", "--help"):
            given = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand given"
            parser.error(f"{given}; choose from {', '.join(commands)}")
        args = parser.parse_args(argv)
    except argparse.ArgumentError as err:
        # a refusal of no one flag (a missing required flag, an unrecognized
        # argument) has no name
        name = err.argument_name
        raise SystemExit(f"{name} {err.message}" if name else err.message) from None
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
