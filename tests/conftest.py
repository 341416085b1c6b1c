"""One hypothesis profile for every property test: derandomized, so each
run replays the same examples, with no deadline, because a shared host
can stall any single example, and few enough examples to keep the suite
fast."""

from hypothesis import settings

settings.register_profile("ivselect", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("ivselect")
