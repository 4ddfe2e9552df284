"""Result caching and value fingerprints for the analysis runner.

The analysis runner itself — one loop for inline, supervised and
``--jobs N`` runs — lives in :mod:`repro.runtime.supervisor`.  This
package holds the two pieces around it:

* :mod:`repro.parallel.cache` — a content-addressed result cache keyed
  on (corpus digest, config hash, analysis name),
* :mod:`repro.parallel.golden` — canonical value fingerprints proving a
  ``--jobs N`` run byte-equivalent to the inline reference path.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.parallel.cache": ("ResultCache", "corpus_digest"),
    "repro.parallel.golden": ("FINGERPRINT_VERSION", "value_fingerprint"),
})

__all__ = [
    "FINGERPRINT_VERSION",
    "ResultCache",
    "corpus_digest",
    "value_fingerprint",
]
