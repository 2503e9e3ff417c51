import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# tier-1 draws the same examples on every run and replays no saved ones
settings.register_profile("tier1", derandomize=True, database=None)
# a wider search from fresh random seeds (HYPOTHESIS_PROFILE=explore): ten
# times the default examples where a test sets none, and a test that sets its
# own keeps them; a case it finds is kept as an @example
settings.register_profile("explore", max_examples=1000, derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
