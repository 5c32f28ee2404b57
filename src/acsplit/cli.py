"""Command-line entry point.

Subcommands:
    run <config>        step a model per the config file, write trace/snapshots
    converge <config>   step-size ladder study against a fine-step reference
    verify [scope]      fixed-seed property checks (vector / matrix / all)
    info <snapshot>     print a snapshot's header and field statistics

Exit codes: 0 success, 1 invalid configuration or command line, 2 invariant
or check failure, 3 I/O failure.  Set ACSPLIT_NUM_THREADS to cap the BLAS/FFT
thread pools (honored if acsplit is imported before numpy, which the CLI
guarantees).
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="acsplit",
        description="Strang-splitting simulator for vector- and matrix-valued "
        "Allen-Cahn flows on the periodic torus",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trajectory from a config file")
    p_run.add_argument("config", help="path to a key=value config file")

    p_conv = sub.add_parser("converge", help="run a step-size convergence study")
    p_conv.add_argument("config", help="config file with tau_ladder and t_final keys")

    p_ver = sub.add_parser("verify", help="run the property-check suite")
    p_ver.add_argument(
        "scope", nargs="?", default="all", choices=("vector", "matrix", "all")
    )

    p_info = sub.add_parser("info", help="describe a snapshot file")
    p_info.add_argument("snapshot", help="path to a snapshot file")
    return p


def _cmd_run(args) -> int:
    from pathlib import Path

    from . import harness

    cfg = harness.load_config(args.config)
    trace = harness.run_experiment(cfg)
    last = trace.rows[-1]
    print(
        f"ran {cfg.model} model: d={cfg.d} n={cfg.n} m={cfg.m} "
        f"tau={cfg.tau!r} steps={cfg.steps} ic={cfg.ic}"
    )
    print(
        f"final: t={last.time!r} energy_standard={last.energy_standard!r} "
        f"energy_modified={last.energy_modified!r} sup_norm={last.sup_norm!r}"
    )
    bad = [r.step for r in trace.rows if not r.dissipation_ok]
    if bad:
        print(f"dissipation flag failed at steps {bad}", file=sys.stderr)
        return EXIT_INVARIANT
    print("dissipation flags: all ok")
    if cfg.out_dir:
        print(f"outputs written to {Path(cfg.out_dir).resolve()}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    from pathlib import Path

    from . import harness

    raw = harness.parse_config_text(Path(args.config).read_text())
    if "tau_ladder" not in raw or "t_final" not in raw:
        raise harness.ConfigError(
            "converge needs tau_ladder (comma-separated) and t_final keys"
        )
    ladder = [harness._parse_number(s) for s in raw["tau_ladder"].split(",") if s.strip()]
    t_final = harness._parse_number(raw["t_final"])
    cfg = harness.build_run_config(raw)
    report = harness.convergence_study(cfg, ladder, t_final)
    print(report.format())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import verify_suite

    report = verify_suite(args.scope)
    for line in report.format_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_info(args) -> int:
    from . import harness

    meta = harness.snapshot_info(args.snapshot)
    for key in ("version", "model", "d", "n", "m", "tau", "step", "endian", "dtype", "layout"):
        if key in meta:
            print(f"{key} = {meta[key]}")
    print(f"min_entry = {meta['min_entry']!r}")
    print(f"max_entry = {meta['max_entry']!r}")
    print(f"sup_norm = {meta['sup_norm']!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which would read as EXIT_INVARIANT
        return EXIT_OK if e.code == 0 else EXIT_CONFIG
    from . import harness

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "info":
            return _cmd_info(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except harness.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # a field too large for this host, such as d=3 with a huge n
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except harness.InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
