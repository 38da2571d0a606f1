"""`python -m geomideal <command> <scene>`: the `geomideal` command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
