"""A non-commutative four-element chain, and a presheaf on it whose
families must be checked at both overlaps of a leg pair."""


def noncommutative_chain4_raw():
    """4-chain 0 < a < b < 1 with top unit and a (x) b = 0 but b (x) a = a."""
    els = ["0", "a", "b", "1"]
    rank = {e: i for i, e in enumerate(els)}
    leq = [[x, y] for x in els for y in els if rank[x] <= rank[y]]
    mul = {"a,a": "0", "a,b": "0", "b,a": "a", "b,b": "b"}
    for x in els:
        for y in els:
            if "0" in (x, y):
                mul[f"{x},{y}"] = "0"
            elif "1" in (x, y):
                mul[f"{x},{y}"] = y if x == "1" else x
    return {"elements": els, "leq": leq, "mul": mul, "unit": "1"}


# Legs a and b overlap at a (x) b = 0 one way and at b (x) a = a the other.
# Only the check at a keeps y, which p does not restrict to, out of a
# family of {0,0,a,a,b} -> b; a family of {0,0,a,a} -> a pairs x with y
# and has no gluing, so under the canonical coverage this is separated.
BOTH_OVERLAPS_PRESHEAF_RAW = {
    "at": {"1": ["*"], "b": ["p"], "a": ["x", "y"], "0": ["z"]},
    "res": {
        "b<=1": {"*": "p"},
        "a<=1": {"*": "x"},
        "0<=1": {"*": "z"},
        "a<=b": {"p": "x"},
        "0<=b": {"p": "z"},
        "0<=a": {"x": "z", "y": "z"},
    },
}
