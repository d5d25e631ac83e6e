"""Record the corpus reference values the ``corpus`` workload checks against.

Usage: ``python3 perfbench/make_reference.py`` from the root of a checkout.
Writes ``perfbench/corpus_reference.json``: for every corpus entry at
``DEFAULT_RULE``, the lhs, rhs_area and rhs_boundary of both identities.
Run it only on a commit whose corpus values are meant to be the reference.
"""

import json

import common

common.one_blas_thread()
common.import_genfrac()

from genfrac.corpus import run_corpus  # noqa: E402

TERMS = ("lhs", "rhs_area", "rhs_boundary")

doc = run_corpus()
entries = [
    {identity: {term: entry[identity][term] for term in TERMS} for identity in ("ibp2d", "green")}
    for entry in doc["entries"]
]
path = common.HERE / "corpus_reference.json"
path.write_text(json.dumps({"rule": doc["rule"], "entries": entries}, indent=0) + "\n")
print(f"wrote {len(entries)} entries to {path}")
