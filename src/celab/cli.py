"""Command-line interface: `run`, `bench-iil`, and `presets`."""

import argparse
import sys
from dataclasses import replace

from . import harness
from .errors import CelabError, InvalidArgumentError
from .structnet import IilKind


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    rows = harness.run_sweep(cfg)
    harness.write_csv(rows, cfg.out)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"--sizes takes integers, got '{args.sizes}'") from None
    if args.iil == "both":
        kinds = (IilKind.SHIFTING, IilKind.MODULO)
    else:
        kinds = (IilKind(args.iil),)
    rows = harness.bench_iil(sizes, kinds=kinds, epochs=args.epochs, seed=args.seed)
    print(f"{'n_tx':>6} {'iil':>10} {'epochs':>8} {'seconds':>12}")
    for r in rows:
        t = "skipped" if r.skipped else f"{r.wall_time_s:.3f}"
        print(f"{r.n_tx:>6} {r.iil:>10} {r.epochs:>8} {t:>12}")
    return 0


def _cmd_presets(args) -> int:
    if args.list:
        for name in sorted(harness.PRESETS):
            print(name)
    if args.show:
        preset = harness.PRESETS.get(args.show)
        if preset is None:
            raise CelabError(f"unknown preset '{args.show}'")
        for key, value in preset.items():
            print(f"{key}={value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="celab",
                                     description="MIMO-OFDM channel-estimation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config-driven SNR sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser("bench-iil", help="time the IIL training variants")
    bench.add_argument("--sizes", default="2,4,8")
    bench.add_argument("--epochs", type=int, default=500)
    bench.add_argument("--iil", choices=["shifting", "modulo", "both"], default="both")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_cmd_bench)

    presets = sub.add_parser("presets", help="list or show named presets")
    presets.add_argument("--list", action="store_true")
    presets.add_argument("--show", default=None)
    presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CelabError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
