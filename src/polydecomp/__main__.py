"""``python -m polydecomp``: the installed ``polydecomp`` command."""

from .cli import main

raise SystemExit(main())
