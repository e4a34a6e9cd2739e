"""``python -m modnorm``: the command-line front end, as ``modnorm``."""

from modnorm.cli import main

raise SystemExit(main())
