"""Command-line entry point.

Subcommands: train, eval, grid, gradcheck, curves, probe, synth. Options
can come from an INI-style config file (key = value under section headers);
every config key has a flag twin and flags win. The effective configuration
is echoed verbatim into the output directory.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import os
import re
import sys

from . import data as data_mod
from . import eval as eval_mod
from . import gradcheck
from . import training
from .errors import DivergenceDetected, KsoftmaxError
from .kernels import KERNELS, KINDS, KernelSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2

_SPEC_RE = re.compile(r"^(?:(\d+)\*)?([a-z]+)(?:\(([^)]*)\))?$")
# whitespace or commas, unless a ")" follows before any "(": inside a field list
_SPEC_SEP = re.compile(r"[\s,]+(?![^(]*\))")


def _parse_bool(raw: str) -> bool:
    """A bool spelled as configparser reads one; ValueError otherwise."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


_KERNEL_FIELD_TYPES = {
    "p": float, "alpha": float, "c": float, "gamma": float,
    "a": float, "b": float, "num_gauss": int, "mog_log_of_sum": _parse_bool,
}


def _list_items(text: str, what: str) -> list:
    """The items of a list such as "2 8", "2,8" or "rbf, wav(a=2, b=3)":
    separated by whitespace or by commas outside parentheses, empty items
    dropped. A list of no item is an error naming ``what``."""
    items = [item for item in _SPEC_SEP.split(text) if item]
    if not items:
        raise KsoftmaxError(f"empty {what} list")
    return items


def parse_kernel_list(text: str) -> tuple:
    """Parse e.g. "lin 3*pow(p=2) rbf(gamma=0.5)" or "rbf,wav(a=2, b=3)"
    into KernelSpecs: items as _list_items splits them, and the fields in
    parentheses separated by commas."""
    specs = []
    for item in _list_items(text, "kernel"):
        m = _SPEC_RE.match(item)
        if not m:
            raise KsoftmaxError(f"cannot parse kernel spec {item!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise KsoftmaxError(f"repeat count must be >= 1 in {item!r}")
        kind = m.group(2)
        if kind not in KINDS:
            raise KsoftmaxError(f"unknown kernel kind {kind!r} in {item!r}")
        kwargs = {}
        if m.group(3):
            for pair in m.group(3).split(","):
                key, _, val = pair.partition("=")
                key = key.strip()
                if key not in KERNELS[kind].fields:
                    raise KsoftmaxError(f"{kind} has no kernel field {key!r} in {item!r}")
                try:
                    kwargs[key] = _KERNEL_FIELD_TYPES[key](val.strip())
                except ValueError as e:
                    raise KsoftmaxError(f"bad value for {key!r} in {item!r}: {e}")
        try:
            spec = KernelSpec(kind, **kwargs)
        except ValueError as e:
            raise KsoftmaxError(str(e))
        specs.extend([spec] * count)
    return tuple(specs)


# config key -> (section, type, default[, extra argparse keywords]). Every
# key is also a --flag (underscores become dashes); a bool flag sets True.
_CONFIG_KEYS = {
    "kernels": ("mixture", str, "lin", {"help": "kernel list, e.g. 'lin 3*pow(p=2)'"}),
    "rho": ("mixture", float, 0.1),
    "reg_across_data": ("mixture", bool, False),
    "n": ("training", int, 3),
    "d": ("training", int, 32),
    "d_e": ("training", int, None),
    "batch_size": ("training", int, 64),
    "learning_rate": ("training", float, 1e-3),
    "optimizer": ("training", str, "adam", {"choices": ("sgd", "adam")}),
    "clip_norm": ("training", float, 5.0),
    "max_epochs": ("training", int, 20),
    "patience": ("training", int, 5),
    "seed": ("training", int, None),
    "corpus": ("data", str, None),
    "vocab_size": ("data", int, 10000),
    "min_count": ("data", int, 1),
    "fractions": ("data", str, "0.8,0.1,0.1"),
    "lowercase": ("data", bool, True),
}

_DEFAULTS = {key: entry[2] for key, entry in _CONFIG_KEYS.items()}


def _read_config_file(path) -> dict:
    """The values of a UTF-8 INI config file, each by its key's type; a
    ``%`` is read as itself."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise KsoftmaxError(f"{path}: bad config file: {e}") from None
    if not read:
        raise KsoftmaxError(f"config file not found: {path}")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _CONFIG_KEYS:
                raise KsoftmaxError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            expected_section = _CONFIG_KEYS[key][0]
            if section != expected_section:
                raise KsoftmaxError(
                    f"{path}: key {key!r} belongs in [{expected_section}], "
                    f"found in [{section}]")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as e:
                raise KsoftmaxError(f"{path}: bad value for {key!r}: {e}")
    return values


def _parse_value(key: str, raw: str):
    """The value of config key ``key`` written as text, by the key's type
    in _CONFIG_KEYS. Raises ValueError when it does not parse."""
    typ = _CONFIG_KEYS[key][1]
    return (_parse_bool if typ is bool else typ)(raw.strip())


def _effective_config(args, seed=None) -> dict:
    """A command's settings: the defaults, then its config file, then its
    flags. A seed none of them sets falls back to ``seed``, then to
    $KSOFTMAX_SEED, then to 0."""
    values = dict(_DEFAULTS, seed=seed)
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            values[key] = flag_val
    values["seed"] = _resolve_seed(values["seed"])
    return values


def _resolve_seed(seed):
    """An unset seed falls back to $KSOFTMAX_SEED, then 0."""
    return seed if seed is not None else int(os.environ.get("KSOFTMAX_SEED") or 0)


def _echo_config(values: dict, path):
    parser = configparser.ConfigParser(interpolation=None)
    for key, (section, *_) in _CONFIG_KEYS.items():
        if values.get(key) is None:
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(values[key]))
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)


_TRAIN_FIELDS = {f.name for f in dataclasses.fields(training.TrainConfig)}


def _load_corpus(values: dict):
    if not values.get("corpus"):
        raise KsoftmaxError("no corpus given (key 'corpus' / flag --corpus)")
    lines = data_mod.load_lines(values["corpus"])
    fractions = tuple(map(float, _list_items(str(values["fractions"]), "fractions")))
    return data_mod.prepare_corpus(
        lines, max_size=values["vocab_size"], min_count=values["min_count"],
        fractions=fractions, seed=values["seed"],
        lowercase=values["lowercase"])


def _start_run(args, grid=None):
    """(TrainConfig, vocabulary, split, initial state) of train's options,
    or of grid's, given its ``grid``, with no state. The configs of the run
    and of each grid point, the split (rejected if it cannot be trained on)
    and train's initial state are built before the effective config and
    the vocabulary are written to ``args.out``; so are each grid point's
    vectors, mapped and released one point at a time, no page touched."""
    values = _effective_config(args)
    config = training.TrainConfig(
        components=parse_kernel_list(values["kernels"]),
        **{key: val for key, val in values.items() if key in _TRAIN_FIELDS})
    points = training.grid_points(config, grid)[2] if grid is not None else ()
    vocab, split = _load_corpus(values)
    training.check_dev_split(split)
    for point in points:  # a point too large to map fails here
        training._vectors(point, vocab.V)
    state = None if grid is not None else training.init_state(config, vocab.V)
    # eval finds the corpus from this file, from any working directory
    values["corpus"] = os.path.abspath(values["corpus"])
    os.makedirs(args.out, exist_ok=True)
    _echo_config(values, os.path.join(args.out, "effective_config.ini"))
    vocab.save(os.path.join(args.out, "vocab.txt"))
    return config, vocab, split, state


def cmd_train(args) -> int:
    config, vocab, split, state = _start_run(args)
    with open(os.path.join(args.out, "run.log"), "a", encoding="utf-8") as log:
        # the only timestamped line in any artifact
        log.write(f"# started {datetime.datetime.now().isoformat()}\n")
        try:
            best, metrics = training.train(config, split, vocab.V, out_dir=args.out,
                                           state=state)
        except DivergenceDetected as e:
            log.write(f"diverged: {e}\n")
            raise
        for row in metrics:
            log.write(f"epoch {row['epoch']} train_loss {row['train_loss']:.6g} "
                      f"dev_ppl {row['dev_ppl']:.6g}\n")
        log.write(f"best_dev_ppl {best.best_dev_ppl:.6g}\n")
    print(f"best dev ppl {best.best_dev_ppl:.6g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    state = training.load_checkpoint(args.checkpoint)
    ckpt_dir = os.path.dirname(os.path.abspath(args.checkpoint))
    # grid writes the run files once, in the directory above its points
    run_dir = next((d for d in (ckpt_dir, os.path.dirname(ckpt_dir))
                    if os.path.exists(os.path.join(d, "effective_config.ini"))), ckpt_dir)
    args.config = args.config or os.path.join(run_dir, "effective_config.ini")
    # the checkpoint records the seed its training split was drawn with
    vocab, split = _load_corpus(_effective_config(args, seed=state.config.seed))
    if vocab.V != state.mixture.V:
        raise KsoftmaxError(f"corpus vocabulary of {vocab.V} tokens for a model "
                            f"of V={state.mixture.V}")
    saved = os.path.join(run_dir, "vocab.txt")
    if (os.path.exists(saved)
            and data_mod.Vocabulary.load(saved).id_to_token != vocab.id_to_token):
        raise KsoftmaxError(f"corpus vocabulary differs from {saved}")
    sentences = getattr(split, args.split)
    ppl = eval_mod.perplexity(state, sentences)
    print(f"{args.split} ppl {ppl:.6g}")
    return EXIT_OK


def cmd_grid(args) -> int:
    if args.jobs < 1:
        raise KsoftmaxError(f"--jobs must be >= 1, got {args.jobs}")
    grid = {}
    for item in args.grid.split(";"):
        name, _, vals = item.partition("=")
        name = name.strip()
        if name not in _TRAIN_FIELDS:
            raise KsoftmaxError(f"unknown grid field {name!r}")
        if name in grid:
            raise KsoftmaxError(f"grid field {name!r} given twice")
        if name == "components":
            grid[name] = [parse_kernel_list(v) for v in vals.split("|")]
            continue
        try:
            grid[name] = [_parse_value(name, v) for v in _list_items(vals, f"grid {name!r}")]
        except ValueError as e:
            raise KsoftmaxError(f"bad grid value for {name!r}: {e}")
    base, vocab, split, _ = _start_run(args, grid)
    results = training.grid_search(base, grid, split, vocab.V,
                                   out_dir=args.out, jobs=args.jobs)
    for row in results:
        desc = " ".join(f"{k}={v}" for k, v in row.items() if k not in (
            "rank", "dev_ppl", "pi_var_mean", "diverged", "error"))
        print(f"rank {row['rank']}: {desc} dev_ppl {row['dev_ppl']:.6g} "
              f"diverged {row['diverged']}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    kinds = _list_items(args.kernel, "--kernel")
    # an unknown kind fails before the first audit
    kinds = list(KINDS) if kinds == ["all"] else [KernelSpec(kind).kind for kind in kinds]
    dims = tuple(map(int, _list_items(args.dims, "--dims")))
    ok = True
    for kind in kinds:
        failures = gradcheck.check_kernel(kind, dims=dims, trials=args.trials,
                                          seed=args.seed or 0)
        status = "pass" if not failures else f"FAIL ({len(failures)} mismatches)"
        print(f"gradcheck {kind}: {status}")
        ok = ok and not failures
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_curves(args) -> int:
    specs = parse_kernel_list(args.kernels)
    paths = eval_mod.emit_kernel_curves(specs, args.xmax, args.steps, args.out)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_probe(args) -> int:
    state = training.load_checkpoint(args.checkpoint)
    vocab = data_mod.Vocabulary.load(args.vocab)
    contexts = [c.split() for c in args.contexts.split(";") if c.strip()]
    report = eval_mod.disambiguation_probe(
        state, vocab, [t.strip() for t in args.tokens.split(",")], contexts,
        top_m=args.top_m)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "probe.txt"), "w", encoding="utf-8") as f:
            f.write(report.to_text())
        with open(os.path.join(args.out, "probe.tsv"), "w", encoding="utf-8") as f:
            f.write(report.to_tsv())
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.kind == "zipf":
        lines = data_mod.generate_zipf(args.vocab, args.tokens, s=args.zipf_s,
                                       seed=seed, copy_prob=args.copy_prob)
    else:
        lines = data_mod.generate_english(args.tokens, seed=seed)
    data_mod.save_lines(lines, args.out)
    print(f"wrote {sum(len(l.split()) for l in lines)} tokens to {args.out}")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file")
    for key, (_, typ, _, *extra) in _CONFIG_KEYS.items():
        action = (dict(action="store_const", const=True) if typ is bool
                  else dict(type=typ))
        p.add_argument("--" + key.replace("_", "-"), dest=key, **action,
                       **(extra[0] if extra else {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ksoftmax")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--config")
    p.add_argument("--corpus")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_config_flags(p)
    p.add_argument("--grid", required=True,
                   help="e.g. 'rho=0.001,0.01,0.1,1' or 'rho=0.1;d=16 32'")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--kernel", default="all",
                   help="list of kinds, e.g. 'pow wav' or 'pow,wav', or 'all'")
    p.add_argument("--dims", default="2,8,32")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("curves", help="emit 1-D kernel profile CSVs")
    p.add_argument("--kernels", default="rbf,wav,log,pow")
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("probe", help="embedding disambiguation probe")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tokens", required=True, help="comma list of query tokens")
    p.add_argument("--contexts", default="",
                   help="semicolon-separated token windows")
    p.add_argument("--top-m", dest="top_m", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--kind", choices=("zipf", "english"), default="zipf")
    p.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.1)
    p.add_argument("--copy-prob", dest="copy_prob", type=float, default=0.5)
    p.add_argument("--vocab", type=int, default=200)
    p.add_argument("--tokens", type=int, default=100000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DivergenceDetected as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (KsoftmaxError, ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(run())
