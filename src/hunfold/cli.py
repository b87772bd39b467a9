"""Command-line experiment runner.

Subcommands: ``gen-data``, ``train``, ``sweep``, ``single``, ``complexity``,
``ingest``.  Every subcommand accepts ``--config FILE`` with a JSON object
whose keys match the subcommand's long flag names (underscored); explicit
flags override the file, and an unknown key is an error.  All randomness
flows from ``--seed``/``--sample-seed``, and data outputs are
byte-identical across repeated runs of one configuration.
"""

from __future__ import annotations

import argparse
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
from .cplx import ComplexArray
from .harmonic import (build_dictionary, db_to_sigma2, dictionary_from_meta,
                       draw_sampling, gen_dataset, read_dataset, write_dataset)
from .nets import (ARCHS, branches, forward, init_network, load_network,
                   save_network)
from .solvers import SolverConfig, default_lambda, ista
from .training import TrainConfig, estimate_dictionary, loss_nmse, train


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise SystemExit(f"missing required option --{name.replace('_', '-')}")


def _check(args, name, ok, want):
    """Stop with a message naming --name unless ``ok`` holds for its value
    (a ValueError from ``ok`` counts as not holding)."""
    value = getattr(args, name)
    try:
        good = ok(value)
    except ValueError:
        good = False
    if not good:
        raise SystemExit(f"--{name.replace('_', '-')} {value}: must be {want}")


def _finite_nonneg(v) -> bool:
    return math.isfinite(v) and v >= 0


def _shape_from(args) -> tuple[int, ...]:
    if args.problem == "2d":
        _require(args, "m1", "m2")
        return (args.m1, args.m2)
    _require(args, "m")
    return (args.m,)


def _float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v != ""]


def _int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v != ""]


def _add_problem_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", choices=("1d", "2d"), default="1d")
    p.add_argument("--m", type=int, help="1-D grid size")
    p.add_argument("--m1", type=int, help="first 2-D grid size")
    p.add_argument("--m2", type=int, help="second 2-D grid size")
    p.add_argument("--n", type=int, help="number of observed samples")
    p.add_argument("--k", type=int, default=5, help="number of components")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-seed", type=int, default=0,
                   help="seed of the random index set")


def _add_method_flags(p: argparse.ArgumentParser):
    p.add_argument("--methods", default="ista,fista",
                   help="comma list from: ista,fista,lista,convlista,lista-toeplitz")
    p.add_argument("--budget-ista", type=int, default=1000)
    p.add_argument("--budget-fista", type=int, default=100)
    p.add_argument("--lambda-scale", type=float, default=0.1,
                   help="penalty = scale * max|phi^H y|")
    p.add_argument("--model-lista")
    p.add_argument("--model-convlista")
    p.add_argument("--model-lista-toeplitz")


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


def _writable(args, *names):
    """Stop with a message naming --name and its path unless that output
    path can be written; called before a run does any work or writes."""
    for name in names:
        path = getattr(args, name)
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            why = "it is a directory"
        elif not os.path.isdir(folder):
            why = f"no directory {folder}"
        elif not os.access(folder, os.W_OK):
            why = f"directory {folder} is not writable"
        else:
            continue
        raise SystemExit(f"--{name.replace('_', '-')} {path}: cannot write ({why})")


def _load_models(args, methods, shape) -> dict:
    """The model file of every learned method in ``methods``, each checked
    to fit the ``shape`` grid that --n observes."""
    known = SOLVER_METHODS + LEARNED_METHODS
    if not methods:
        raise SystemExit(f"--methods names no method; choose from {', '.join(known)}")
    models = {}
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
    return models


def _experiment_config(args) -> ExperimentConfig:
    _require(args, "n")
    for name in ("trials", "budget_ista", "budget_fista"):
        if hasattr(args, name):
            _check(args, name, lambda v: v >= 1, ">= 1")
    _check(args, "lambda_scale", _finite_nonneg, "finite and >= 0")
    if hasattr(args, "noise_db"):
        _check(args, "noise_db",
               lambda v: _float_list(v) and all(math.isfinite(db_to_sigma2(db))
                                                for db in _float_list(v)),
               "a comma list of at least one finite dB value whose power "
               "10**(dB/10) is finite")
    methods = [m.strip() for m in str(args.methods).split(",") if m.strip()]
    shape = _shape_from(args)
    return ExperimentConfig(
        shape=shape,
        n_obs=args.n,
        k=args.k,
        noise_powers_db=_float_list(getattr(args, "noise_db", [0.0])),
        methods=methods,
        trials_per_point=getattr(args, "trials", 1),
        seed=args.seed,
        sample_seed=args.sample_seed,
        budgets={"ista": args.budget_ista, "fista": args.budget_fista},
        lambda_scale=args.lambda_scale,
        models=_load_models(args, methods, shape),
        timing=getattr(args, "timing", False),
    )


def _read_problem_data(args, name):
    """The dataset file that --name gives, with the sampling indices that
    its JSON sidecar carries."""
    path = getattr(args, name)
    ds = _read_input(args, name, read_dataset)
    if "omega" not in ds.meta:
        raise SystemExit(f"--{name} {path}: no sampling indices "
                         f"(the sidecar {path}.json is missing)")
    return ds


def _echo_config(args, skip=("func",)) -> dict:
    doc = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or callable(val):
            continue
        doc[key] = val
    return doc


# -- subcommands -------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    _require(args, "n", "samples", "out")
    _writable(args, "out", "export_iq")
    _check(args, "samples", lambda v: v >= 1, ">= 1")
    _check(args, "sigma2", _finite_nonneg, "finite and >= 0")
    shape = _shape_from(args)
    if args.export_iq:
        if len(shape) != 2:
            raise SystemExit("--export-iq needs a 2-D problem")
        if not 0 <= args.export_index < args.samples:
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
    _require(args, "data", "arch", "out")
    _writable(args, "out")
    _check(args, "depth", lambda v: v >= 1, ">= 1")
    _check(args, "lam", _finite_nonneg, "finite and >= 0")
    _check(args, "lr", lambda v: math.isfinite(v) and v > 0, "finite and > 0")
    _check(args, "batch", lambda v: v >= 1, ">= 1")
    _check(args, "epochs", lambda v: v >= 0, ">= 0")
    train_ds = _read_problem_data(args, "data")
    shape = tuple(train_ds.meta["shape"])
    try:
        branches(args.arch, shape, train_ds.meta["n_obs"])
    except ValueError as exc:
        raise SystemExit(f"--arch {args.arch}: {exc}, but --data {args.data} "
                         f"holds the {len(shape)}-D grid {shape}") from None
    if args.val:
        val_ds = _read_problem_data(args, "val")
        for key in ("shape", "n_obs", "omega"):
            mine, theirs = val_ds.meta[key], train_ds.meta[key]
            if mine != theirs:
                detail = ("the sampling indices differ" if key == "omega"
                          else f"{key} {mine} against {theirs}")
                raise SystemExit(f"--val {args.val} and --data {args.data} hold "
                                 f"different problems: {detail}")
    else:
        count = train_ds.count
        if not 0.0 <= args.val_frac < 1.0:
            raise SystemExit(f"--val-frac {args.val_frac} is outside [0, 1)")
        n_val = max(1, int(count * args.val_frac))
        if n_val >= count:
            raise SystemExit(f"--val-frac {args.val_frac} leaves no training sample "
                             f"of the {count} in {args.data}")
        val_ds = train_ds.take(np.arange(count - n_val, count))
        train_ds = train_ds.take(np.arange(count - n_val))
    d = dictionary_from_meta(train_ds.meta)
    phi_hat = estimate_dictionary(train_ds) if args.estimate_dict else None
    net = init_network(args.arch, d, args.depth, args.lam, phi_hat)
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch,
                      epochs=args.epochs, lr_decay_patience=args.patience,
                      seed=args.seed)
    init_val = loss_nmse(net, val_ds)
    net, report = train(net, train_ds, val_ds, cfg)
    final_val = loss_nmse(net, val_ds)
    meta = {
        "train_config": {
            "learning_rate": cfg.learning_rate, "batch_size": cfg.batch_size,
            "epochs": cfg.epochs, "lr_decay_patience": cfg.lr_decay_patience,
            "seed": cfg.seed, "lam": args.lam,
        },
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
    _require(args, "out")
    _writable(args, "out")
    cfg = _experiment_config(args)
    rows = run_sweep(cfg)
    header, table = metric_rows_table(rows)
    write_csv(args.out, header, table)
    write_manifest(args.out + ".manifest.json", _echo_config(args))
    print(f"wrote {args.out} ({len(table)} rows)")
    return 0


def _cmd_single(args) -> int:
    _require(args, "out")
    _writable(args, "out")
    _check(args, "sigma2", _finite_nonneg, "finite and >= 0")
    cfg = _experiment_config(args)
    header, rows = run_single(cfg, offgrid=args.offgrid, frac=args.frac,
                              sigma2=args.sigma2)
    write_csv(args.out, header, rows)
    write_manifest(args.out + ".manifest.json", _echo_config(args))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_complexity(args) -> int:
    _require(args, "out")
    _writable(args, "out")
    _check(args, "repeats", lambda v: v >= 1, ">= 1")
    _check(args, "sizes", lambda v: _int_list(v) and min(_int_list(v)) >= 1,
           "a comma list of at least one grid size >= 1")
    header, rows = complexity_report(_int_list(args.sizes), n_obs=args.n,
                                     repeats=args.repeats,
                                     timing=not args.no_timing)
    write_csv(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    _require(args, "path", "out")
    _writable(args, "out")
    y, d = _read_input(args, "path", ingest_iq_grid)
    if args.model:
        net = _read_input(args, "model", load_network)
        if net.shape != d.shape or net.n_obs != d.n_obs:
            raise SystemExit(f"--model {args.model}: model dimensions do not match "
                             f"the IQ grid of --path {args.path} (grid {net.shape} "
                             f"with {net.n_obs} observations against {d.shape} "
                             f"with {d.n_obs})")
        x_hat = forward(net, y)
        method = f"model:{net.arch}"
    else:
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hunfold",
        description="Sparse harmonic retrieval benchmarks: classical "
                    "proximal solvers and structured unfolded networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("gen-data", help="generate a labelled synthetic dataset")
    _add_problem_flags(p)
    p.add_argument("--sigma2", type=float, default=0.0, help="noise power")
    p.add_argument("--samples", type=int)
    p.add_argument("--out")
    p.add_argument("--export-iq", help="also write sample --export-index "
                                       "as an IQ grid file (2-D only)")
    p.add_argument("--export-index", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)
    commands["gen-data"] = p

    p = sub.add_parser("train", help="train an unfolded network on a dataset")
    p.add_argument("--data")
    p.add_argument("--val", help="validation dataset (default: split from --data)")
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--arch", choices=ARCHS)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--lam", type=float, default=0.1,
                   help="penalty weight setting the initial threshold")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimate-dict", action="store_true",
                   help="initialise from the least-squares dictionary estimate")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)
    commands["train"] = p

    p = sub.add_parser("sweep", help="noise sweep with per-method metrics")
    _add_problem_flags(p)
    _add_method_flags(p)
    p.add_argument("--noise-db", default="0",
                   help="comma list of noise powers in dB (10*log10 sigma2)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock per recovery, the time of a "
                        "point's block over its trials (breaks byte "
                        "reproducibility of the CSV)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)
    commands["sweep"] = p

    p = sub.add_parser("single", help="single-trial recovery dump per method")
    _add_problem_flags(p)
    _add_method_flags(p)
    p.add_argument("--offgrid", action="store_true")
    p.add_argument("--frac", type=float, default=0.25,
                   help="off-grid displacement as a fraction of a cell")
    p.add_argument("--sigma2", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_single)
    commands["single"] = p

    p = sub.add_parser("complexity", help="parameter counts and layer timings")
    p.add_argument("--sizes", default="512,1024,2048,4096",
                   help="comma list of grid sizes")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complexity)
    commands["complexity"] = p

    p = sub.add_parser("ingest", help="recover a spectrum from an IQ grid file")
    p.add_argument("--path")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--lambda-scale", type=float, default=0.1)
    p.add_argument("--model", help="trained 2-D model file (default: ista)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest)
    commands["ingest"] = p

    return parser, commands


@functools.cache
def _parser():
    """The process's one :func:`build_parser` tree; :func:`main` leaves no
    ``--config`` default in it."""
    return build_parser()


def _read_config(path, command: str, p: argparse.ArgumentParser) -> dict:
    """The ``--config`` document: a JSON object whose keys are options of
    ``command``; anything else stops the run with a message naming the
    file and the key."""
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
    options = {a.dest for a in p._actions if a.dest != "help"}
    for key in doc:
        if key not in options:
            raise SystemExit(f"{path}: unknown key {key!r} for {command!r}")
    return doc


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    sub, config = parser, {}
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            parser.error("--config needs a file argument")
        path = argv[i + 1]
        del argv[i:i + 2]
        command = next((a for a in argv if a in commands), None)
        if command is None:
            parser.parse_args(argv)   # reports the missing subcommand
        sub = commands[command]
        config = _read_config(path, command, sub)
    # the file's values are the defaults of this parse only
    saved = {key: sub.get_default(key) for key in config}
    sub.set_defaults(**config)
    try:
        args = parser.parse_args(argv)
    finally:
        sub.set_defaults(**saved)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
