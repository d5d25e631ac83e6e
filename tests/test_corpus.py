"""The corpus against the reference values the benchmark checks it with."""

import json
from pathlib import Path

from genfrac.corpus import run_corpus

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "corpus_reference.json"
RTOL = 1e-12


def test_corpus_matches_reference():
    ref = json.loads(REFERENCE.read_text())["entries"]
    entries = run_corpus()["entries"]
    assert len(entries) == len(ref) == 144
    for i, (entry, want_entry) in enumerate(zip(entries, ref)):
        for identity in ("ibp2d", "green"):
            got, want = entry[identity], want_entry[identity]
            for term in ("lhs", "rhs_area", "rhs_boundary"):
                # a term that is zero in the reference is compared at the
                # scale of the identity's left side
                tol = RTOL * (abs(want[term]) or abs(want["lhs"]))
                assert abs(got[term] - want[term]) <= tol, (i, identity, term)
