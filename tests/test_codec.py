"""The JSON wire format: every shape a report embeds is a valid input."""

import json
from pathlib import Path

from jumploci import codec

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

# The key set of each input shape that reports embed: (decoder, encoder).
SHAPES = {
    frozenset({"n", "dim", "basis"}): (codec.read_subspace, codec.subspace),
    frozenset({"n", "components", "trivial"}): (codec.read_arrangement, codec.arrangement),
    frozenset({"n", "components", "isolated"}): (codec.read_model, codec.model),
    frozenset({"n_vars", "terms"}): (codec.read_polynomial, codec.polynomial),
}


def _embedded(obj):
    """Every dict in `obj` whose keys are those of a shape, outermost first."""
    if isinstance(obj, dict):
        if frozenset(obj) in SHAPES:
            yield obj
            return
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _embedded(item)


def test_golden_reports_decode_and_re_encode_unchanged():
    found = dict.fromkeys(SHAPES, 0)
    for path in sorted(GOLDEN.glob("*.json")):
        for data in _embedded(json.loads(path.read_bytes())):
            decode, encode = SHAPES[frozenset(data)]
            assert encode(decode(data)) == data, (path.stem, data)
            found[frozenset(data)] += 1
    assert all(found.values()), found
