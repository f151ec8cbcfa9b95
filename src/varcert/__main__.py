"""``python -m varcert``: the same entry point as the ``varcert`` command."""

from .cli import cli_main

cli_main()
