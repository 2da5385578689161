"""Run the command line as `python -m steptasep`."""

from .cli import main

raise SystemExit(main())
