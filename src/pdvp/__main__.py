"""`python -m pdvp`: the command line of `pdvp.cli`."""

from .cli import main

raise SystemExit(main())
