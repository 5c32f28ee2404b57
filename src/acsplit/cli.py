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
from pathlib import Path

# importing acsplit.cli has run the package __init__, which loads both
from . import harness
from .verify import verify_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors as one-line ConfigErrors (exit 1), not argparse's usage
    text and exit 2, which would read as EXIT_INVARIANT; subparsers inherit it."""

    def error(self, message):
        raise harness.ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="acsplit",
        description="Strang-splitting simulator for vector- and matrix-valued "
        "Allen-Cahn flows on the periodic torus",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trajectory from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.set_defaults(handler=_cmd_run)

    p_conv = sub.add_parser("converge", help="run a step-size convergence study")
    p_conv.add_argument("config", help="config file with tau_ladder and t_final keys")
    p_conv.set_defaults(handler=_cmd_converge)

    p_ver = sub.add_parser("verify", help="run the property-check suite")
    p_ver.add_argument(
        "scope", nargs="?", default="all", choices=("vector", "matrix", "all")
    )
    p_ver.set_defaults(handler=_cmd_verify)

    p_info = sub.add_parser("info", help="describe a snapshot file")
    p_info.add_argument("snapshot", help="path to a snapshot file")
    p_info.set_defaults(handler=_cmd_info)
    return p


def _cmd_run(args) -> int:
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
    print(harness.convergence_study(*harness.load_convergence_config(args.config)).format())
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(args.scope)
    for line in report.format_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_info(args) -> int:
    meta = harness.snapshot_info(args.snapshot)
    for key in ("version", *harness.SNAPSHOT_KEYS, "min_entry", "max_entry", "sup_norm"):
        print(f"{key} = {meta[key]}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit:  # --help, after printing the help
        return EXIT_OK
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
