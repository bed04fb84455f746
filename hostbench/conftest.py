"""Make the program under test importable: it runs from ``src/``, uninstalled."""

import sys

from hostbench import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
