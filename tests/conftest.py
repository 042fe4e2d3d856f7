"""Import spkver before any test module loads numpy, so in-process tests run
numpy's OpenBLAS on the one thread the command line uses and compute the
same bits."""

import spkver  # noqa: F401
