"""``python -m blockperm``: the command line."""

from .cli import entry

entry()
