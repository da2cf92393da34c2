"""Command-line front end: train models, run BER sweeps, export constellations.

Configs are flat ``key=value`` text files ('#' starts a comment).  Every run
derives all randomness from one 64-bit seed, writes a JSON manifest recording
config digest, seed and content hashes of files consumed/produced, and tags
CSV outputs with a deterministic run id so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bersim, modelio
from .autoencoder import ABLATION_EXPERIMENTS, TrainConfig, encode_constellation, train
from .bersim import BerResult, EvalConfig
from .channel import IMPERFECT, ChannelConfig, RejectionLimitError
from .modem import constellation_rows

log = logging.getLogger("zicae")


class ConfigError(ValueError):
    pass


# every key a training or evaluation config defines; one file may serve both
CONFIG_KEYS = frozenset(key for cls in (TrainConfig, EvalConfig)
                        for key, _ in cls().config_items())


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' comments; later keys override earlier ones.

    A key that is no config's key is an error.
    """
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


_IMPERFECT = ("csi_mode", "= imperfect", lambda v: v == IMPERFECT)
_ADAPTIVE = ("n_symbols_per_point", "= 0", lambda v: v == 0)
_SUBNET2 = ("use_subnet2", "= 1", bool)
# key -> (the field that decides whether it is read, the setting it is read under,
# a test of that field's value)
READ_ONLY_WITH = {
    "sigma_e2": _IMPERFECT, "threshold_t": _IMPERFECT, "n_q": _IMPERFECT,
    "min_errors": _ADAPTIVE, "max_bits": _ADAPTIVE,
    "alpha_to_subnet2": _SUBNET2, "subnet2_width": _SUBNET2,
    "use_shortcuts": ("n_res_blocks", ">= 1", bool),
}


def config_from(cls, raw: dict, seed_override: int | None = None, base=None):
    """A ``cls`` config from parsed key=value pairs; absent keys keep ``base``'s values.

    A key that the setting of its deciding field leaves unread is an error,
    where ``cls`` has that field.
    """
    try:
        cfg = cls.from_config(raw, base)
        cfg = cfg if seed_override is None else replace(cfg, seed=seed_override)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, (field, setting, reads) in READ_ONLY_WITH.items():
        if key in raw and hasattr(cfg, field) and not reads(getattr(cfg, field)):
            raise ConfigError(f"{key} is only read with {field} {setting}; "
                              f"remove the key or set {field} {setting}")
    return cfg


def _run_id(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_manifest(args, run_id: str, cfg, inputs: list, outputs: list) -> None:
    """Write ``<--out>.manifest.json``: the run's command, id, start and finish
    times, the digest and seed of ``cfg`` (``"-"`` and 0 without one), and the
    sha256 of each file the run read and wrote."""
    manifest = {
        "command": args.command,
        "run_id": run_id,
        "config_digest": "-" if cfg is None else
                         hashlib.sha256(cfg.config_text().encode()).hexdigest(),
        "seed": 0 if cfg is None else cfg.seed,
        "inputs": {str(p): modelio.file_sha256(p) for p in inputs},
        "outputs": {str(p): modelio.file_sha256(p) for p in outputs},
        "started": args.started,
        "finished": _now(),
    }
    Path(f"{args.out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = config_from(TrainConfig, parse_config_file(args.config), args.seed)
    log.info("training: %d channels x %d epochs, batch %d, alpha [%g, %g], %s CSI",
             cfg.n_channels, cfg.epochs_per_channel, cfg.batch,
             cfg.alpha_min, cfg.alpha_max, cfg.csi_mode)
    model, history = train(cfg)

    out = Path(args.out)
    modelio.save_model(out, model, cfg)
    log_rows = ["channel,alpha,loss,lr"]
    log_rows += [f"{r['channel']},{r['alpha']!r},{r['loss']!r},{r['lr']!r}"
                 for r in history]
    log_path = Path(f"{out}.train.csv")
    _write_text(log_path, "\n".join(log_rows) + "\n")
    write_manifest(args, _run_id("train", cfg.config_text()), cfg, [args.config],
                   [out, log_path])
    log.info("model written to %s", out)
    return 0


def _check_eval_args(args) -> None:
    """Refuse eval options that would otherwise be accepted and ignored."""
    if args.scheme != "dae":
        for flag, value in (("--model", args.model), ("--model-dir", args.model_dir)):
            if value:
                raise ConfigError(f"{flag} is only read by --scheme dae, not {args.scheme}")
    elif args.model and args.model_dir:
        raise ConfigError("--model and --model-dir exclude each other")


def _load_models(args) -> tuple[list, list[Path]]:
    if args.model:
        paths = [Path(p) for p in args.model]
    elif args.model_dir:
        paths = sorted(Path(args.model_dir).glob("*.zicmodel"))
        if not paths:
            raise ConfigError(f"no *.zicmodel files in {args.model_dir}")
    else:
        raise ConfigError("scheme=dae needs --model or --model-dir")
    return [modelio.load_model(p) for p in paths], paths


def _build_scheme(args, cfg: EvalConfig):
    if args.scheme == "baseline1":
        return bersim.Baseline1(cfg.n_bits, cfg.total_power), []
    if args.scheme == "baseline2":
        return bersim.Baseline2(cfg.n_bits, cfg.total_power), []
    models, paths = _load_models(args)
    for model, path in zip(models, paths):
        for key in ("csi_mode", "n_bits", "total_power"):
            trained, wanted = getattr(model.arch, key), getattr(cfg, key)
            if trained != wanted:
                raise ConfigError(f"{path}: model was trained with {key}={trained} "
                                  f"but the evaluation requests {key}={wanted}")
    scheme = bersim.DaeScheme(models)
    for alpha in cfg.alpha_grid:
        scheme.route(alpha)  # fail fast, naming the uncovered interval
    return scheme, paths


def cmd_eval(args) -> int:
    _check_eval_args(args)
    cfg = config_from(EvalConfig, parse_config_file(args.config), args.seed)
    scheme, model_paths = _build_scheme(args, cfg)

    log.info("evaluating %s on %d grid points, %d channel draws each", args.scheme,
             len(cfg.snr_grid_db) * len(cfg.alpha_grid), cfg.n_channel_draws)
    result = bersim.sweep(cfg, scheme)
    for p in result.points:
        log.debug("%s at %g dB, alpha %g: %d channel draws kept of %d attempts", p.scheme,
                  p.snr_db, p.alpha, p.n_draws, p.n_attempts)

    run_id = _run_id("eval", args.scheme, cfg.config_text(),
                     *sorted(map(modelio.file_sha256, model_paths)))
    _write_text(args.out, bersim.result_to_csv(result, run_id))
    write_manifest(args, run_id, cfg, [args.config, *model_paths], [args.out])
    return 0


def cmd_export_constellation(args) -> int:
    model = modelio.load_model(args.model)
    if not model.covers(args.alpha):
        raise LookupError(f"alpha={args.alpha:g} outside the trained interval "
                          f"[{model.arch.alpha_min:g}, {model.arch.alpha_max:g}]")
    c1, c2 = encode_constellation(model, math.sqrt(args.alpha))
    lines = ["user,bits,re,im"]
    for user, c in ((1, c1), (2, c2)):
        for pattern, re, im in constellation_rows(c):
            lines.append(f"{user},{pattern},{re!r},{im!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    run_id = _run_id("export", modelio.file_sha256(args.model), repr(args.alpha))
    write_manifest(args, run_id, None, [args.model], [args.out])
    return 0


ABLATION_ALPHAS = (0.5, 1.0, 1.5)
# the evaluation keys an ablation config may set; the grid is fixed, and the
# channel fields (CSI model included) are the training config's
ABLATION_EVAL_KEYS = ("n_channel_draws", "n_symbols_per_point", "min_errors", "max_bits")
# keys the ablation sets itself: every experiment's toggles, and the grid
ABLATION_REFUSED_KEYS = frozenset({"snr_grid_db", "alpha_grid"}.union(
    *ABLATION_EXPERIMENTS.values()))


def cmd_ablation(args) -> int:
    raw = parse_config_file(args.config)
    for key in raw:
        if key in ABLATION_REFUSED_KEYS:
            raise ConfigError(f"{args.config}: ablation sets {key!r} itself; remove the key")
    base = config_from(TrainConfig, raw, args.seed)
    if base.alpha_min > min(ABLATION_ALPHAS) or base.alpha_max < max(ABLATION_ALPHAS):
        raise ConfigError(
            f"ablation config must cover alpha in {list(ABLATION_ALPHAS)}; "
            f"got [{base.alpha_min:g}, {base.alpha_max:g}]")

    eval_cfg = config_from(
        EvalConfig, {k: raw[k] for k in ABLATION_EVAL_KEYS if k in raw},
        base=EvalConfig(snr_grid_db=(10.0,), alpha_grid=ABLATION_ALPHAS,
                        n_channel_draws=10, max_bits=2_000_000,
                        **{f.name: getattr(base, f.name) for f in fields(ChannelConfig)}))

    table: dict[str, BerResult] = {}
    for name, overrides in ABLATION_EXPERIMENTS.items():
        log.info("ablation: training %s", name)
        model, _ = train(replace(base, **overrides))
        table[name] = bersim.sweep(eval_cfg, bersim.DaeScheme([model]))

    names = list(ABLATION_EXPERIMENTS)
    lines = ["alpha," + ",".join(names)]
    for i, alpha in enumerate(ABLATION_ALPHAS):
        cells = [repr(table[name].points[i].ber_worst) for name in names]
        lines.append(f"{alpha!r}," + ",".join(cells))
    _write_text(args.out, "\n".join(lines) + "\n")

    write_manifest(args, _run_id("ablation", base.config_text()), base, [args.config],
                   [args.out])
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zicae",
        description="Z-interference channel link simulator: learned and QAM transceivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one autoencoder model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run a BER sweep and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--scheme", required=True, choices=["baseline1", "baseline2", "dae"])
    p.add_argument("--model", action="append", help="model file (repeatable)")
    p.add_argument("--model-dir", help="directory of *.zicmodel files")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-constellation", help="dump learned constellations as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_constellation)

    p = sub.add_parser("ablation", help="train and compare architecture variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("ZIC_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.out  # fail before the work, not after it
        if Path(out).is_dir():
            raise ConfigError(f"--out {out} is a directory; name a file")
        if not Path(out).parent.is_dir():
            raise ConfigError(f"--out {out}: directory {Path(out).parent} does not exist")
        args.started = _now()
        return args.func(args)
    except (ConfigError, RejectionLimitError, LookupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, LookupError) else 2
    except Exception as exc:
        log.debug("unexpected error in %s", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
