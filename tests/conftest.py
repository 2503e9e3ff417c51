import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# tier-1 draws the same examples on every run and replays no saved ones
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
