import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# tier-1 draws the same examples on every run and replays no saved ones
settings.register_profile("tier1", derandomize=True, database=None)
# a wider search from fresh random seeds (HYPOTHESIS_PROFILE=explore): ten
# times the examples of tier-1, where a test sets its own count (see
# ``examples``) and where it sets none; a case it finds is kept as an @example
settings.register_profile("explore", max_examples=1000, derandomize=False, database=None)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def examples(count: int) -> int:
    """A test's own ``max_examples``, scaled by the loaded profile: ``count``
    under tier1, ten times it under explore."""
    return count * {"tier1": 1, "explore": 10}[PROFILE]
