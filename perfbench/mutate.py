"""Mutation catalogue for the reject path of `treeshift.verify`.

Each kind edits a parsed artifact document in place.  The seed picks only
what the catalogue leaves open: the cell (done by the caller), the index
inside the edited table and, for numeric kinds, the direction.  Numeric
kinds scale one stored number by 1.001 or 0.999, far beyond any certified
enclosure width, so `verify` must fail a record for every one of them.
"""

from fractions import Fraction

NUMERIC_KINDS = (
    "scale-branch-first",
    "scale-branch-tail",
    "scale-trunk",
    "scale-branch-atom",
    "scale-mixture-mass",
    "scale-prefactor",
)
STRUCTURAL_KINDS = (
    "drop-certificates",
    "drop-divergent-nd",
    "truncate-table",
    "drop-mixture",
    "flip-verdict",
    "atom-at-zero",
)
KINDS = NUMERIC_KINDS + STRUCTURAL_KINDS

_UP, _DOWN = Fraction(1001, 1000), Fraction(999, 1000)


def applies(kind: str, cell) -> bool:
    """Whether `kind` has something to edit in an artifact of `cell`."""
    return kind != "scale-trunk" or cell.kappa != 0


def _scale_str(text: str, factor: Fraction) -> str:
    return str(Fraction(text) * factor)


def _scale_interval(pair, factor: Fraction):
    lo, hi = (Fraction(x) * factor for x in pair)
    return [str(min(lo, hi)), str(max(lo, hi))]


def apply(kind: str, doc: dict, rng) -> str:
    """Mutate `doc` in place; return a short description of the edit."""
    factor = rng.choice((_UP, _DOWN)) if kind in NUMERIC_KINDS else None
    weights, measures = doc["weights"], doc["measures"]
    mixtures = measures["mixtures"]
    if kind == "scale-branch-first":
        i = rng.randrange(len(weights["branch_first"]))
        entry = weights["branch_first"][i]
        entry["w2"] = _scale_interval(entry["w2"], factor)
        return f"weights.branch_first[{i}] x{factor}"
    if kind == "scale-branch-tail":
        i = rng.randrange(len(weights["branch_tail"]))
        entry = weights["branch_tail"][i]
        entry["w2"] = _scale_str(entry["w2"], factor)
        return f"weights.branch_tail[{i}] x{factor}"
    if kind == "scale-trunk":
        i = rng.randrange(len(weights["trunk"]))
        entry = weights["trunk"][i]
        entry["w2"] = _scale_interval(entry["w2"], factor)
        return f"weights.trunk[{i}] x{factor}"
    if kind == "scale-branch-atom":
        i = rng.randrange(len(measures["branch_atoms"]))
        entry = measures["branch_atoms"][i]
        entry["t"] = _scale_str(entry["t"], factor)
        return f"measures.branch_atoms[{i}] x{factor}"
    if kind == "scale-mixture-mass":
        l = rng.randrange(len(mixtures))
        i = rng.randrange(len(mixtures[l]["atoms"]))
        entry = mixtures[l]["atoms"][i]
        entry["mass"] = _scale_interval(entry["mass"], factor)
        return f"measures.mixtures[{l}].atoms[{i}] x{factor}"
    if kind == "scale-prefactor":
        l = rng.randrange(len(mixtures))
        mixtures[l]["prefactor"] = _scale_interval(mixtures[l]["prefactor"], factor)
        return f"measures.mixtures[{l}].prefactor x{factor}"
    if kind == "drop-certificates":
        del doc["certificates"]
        return "certificates removed"
    if kind == "drop-divergent-nd":
        m = str(doc["request"]["n"] + 1)
        del doc["certificates"]["nd"][m]
        return f"certificates.nd[{m}] removed"
    if kind == "truncate-table":
        # always branch_first: the table whose truncation verify accepts
        # silently at the time of writing, while truncating the others raises
        # IndexError after a fraction of the work, which would make the
        # reject timing depend on the seed
        weights["branch_first"].pop()
        return "weights.branch_first last entry removed"
    if kind == "drop-mixture":
        l = rng.randrange(len(mixtures))
        del mixtures[l]
        return f"measures.mixtures[{l}] removed"
    if kind == "flip-verdict":
        nd = doc["certificates"]["nd"]
        m = sorted(nd, key=int)[rng.randrange(len(nd))]
        nd[m]["verdict"] = "divergent" if nd[m]["verdict"] == "convergent" else "convergent"
        return f"certificates.nd[{m}].verdict flipped"
    if kind == "atom-at-zero":
        i = rng.randrange(len(measures["branch_atoms"]))
        measures["branch_atoms"][i]["t"] = "0"
        return f"measures.branch_atoms[{i}] moved to t=0"
    raise ValueError(f"unknown mutation kind {kind!r}")
