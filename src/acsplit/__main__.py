"""`python -m acsplit`: the `acsplit` command, also from a checkout that is not installed."""

from acsplit.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
