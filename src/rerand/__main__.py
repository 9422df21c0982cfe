"""``python -m rerand``: the command-line interface of :mod:`rerand.cli`."""
from .cli import main

main()
