import sys
from pathlib import Path

# The benchmark drives the package from the checkout, uninstalled.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
