"""Output checks the benchmark applies to every operation.

They read the artifact document and the verify outcome only, with
`fractions` arithmetic, so they do not trust any code of the library they
measure.  Each check returns the names of the conditions that were missed;
an empty list means the operation succeeded.
"""

from fractions import Fraction

# zeta(3) to 19 decimals; 1/c of the (n=1, kappa=0, linear) artifact encloses it
ZETA3 = Fraction("1.2020569031595942854")


def generated(doc: dict, cell) -> list:
    """Checks on a freshly generated artifact of `cell`."""
    missed = []
    cert = doc["request"]["cert"]
    width = Fraction(cert["series_width"])
    tol = Fraction(cert["check_tol"])
    threshold = Fraction(cert["divergence_threshold"])
    certs = doc["certificates"]
    nd = certs["nd"]
    for m in range(1, cell.n + 1):
        c = nd.get(str(m))
        if c is None or c["verdict"] != "convergent":
            missed.append(f"nd[{m}] convergent")
            continue
        lo, hi = (Fraction(x) for x in c["enclosure"])
        if hi - lo > width:
            missed.append(f"nd[{m}] width <= series_width")
    c = nd.get(str(cell.n + 1))
    if c is None or c["verdict"] != "divergent":
        missed.append(f"nd[{cell.n + 1}] divergent")
    elif Fraction(c["witness_partial_lb"]) <= threshold:
        missed.append(f"nd[{cell.n + 1}] witness > threshold")
    if Fraction(certs["consist6"]["max_residual"]) > tol:
        missed.append("consist6 <= check_tol")
    if Fraction(certs["cc"]["algebra_bound"]) > tol:
        missed.append("cc <= check_tol")
    if (cell.n, cell.kappa, cell.q) == (1, 0, "linear"):
        c_lo, c_hi = (Fraction(x) for x in doc["c"])
        if not (c_lo > 0 and 1 / c_hi <= ZETA3 <= 1 / c_lo):
            missed.append("1/c contains zeta(3)")
    return missed


def verified(outcome: dict, intact: bool) -> list:
    """Checks on a verify outcome: an intact document must pass, a mutated
    one must fail with at least one failing record, and neither may raise."""
    if outcome.get("raised"):
        return [f"verify raised {outcome['raised']}"]
    if intact and not outcome["passed"]:
        return ["intact document passed"]
    if not intact and (outcome["passed"] or outcome["failing"] < 1):
        return ["mutated document rejected"]
    return []
