import sys
from pathlib import Path

# The benchmark's modules are scripts that import each other as siblings.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
