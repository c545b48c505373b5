"""``python -m expmarket``: the command line of ``cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
