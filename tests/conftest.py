"""One hypothesis profile for every test: examples are derived from each test's own source,
not drawn afresh, and no example database carries failures between runs, so a run that
fails fails the same way on every machine."""

import hypothesis as hyp

hyp.settings.register_profile("derandomized", derandomize=True, database=None)
hyp.settings.load_profile("derandomized")
