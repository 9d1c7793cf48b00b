"""One Hypothesis profile for every property test: no deadline, a fixed
derandomized example stream and no example database.  Each file sets only
its own `max_examples`."""

from hypothesis import settings

settings.register_profile("nseries", deadline=None, derandomize=True, database=None)
settings.load_profile("nseries")
