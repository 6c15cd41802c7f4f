"""`python -m treecops`: the same command line as the `treecops` script."""
from .cli import run

run()
