"""Run the command line interface as ``python -m hopfgal``."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="hopfgal")
