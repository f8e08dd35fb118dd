"""Text forms for field elements, polynomials in T, and skew polynomials.

Grammar (whitespace-insensitive): terms joined by '+', each term a '*'-product
of factors; factors are integers, z or z^j (only when q is not prime), T or
T^k, t or t^i (t denotes tau, skew polynomials only), or a parenthesized
polynomial in T.  Polynomials print with descending powers of T; skew
polynomials print with ascending powers of t, e.g. "T+1*t+1*t^2".
"""

from __future__ import annotations

from .errors import UsageError
from .fields import FFElem, FieldTower
from .polys import Poly
from .skew import AOverField, SkewPoly


def fq_to_text(c: FFElem, tower: FieldTower) -> str:
    if tower.base_degree == 1:
        return str(c.coords[0])
    if c.is_zero():
        return "0"
    if c.is_one():
        return "1"
    j = tower.dlog_z(c)
    return "z" if j == 1 else f"z^{j}"


def fq_from_text(tok: str, tower: FieldTower) -> FFElem:
    tok = tok.strip()
    if tok.isdigit():
        return tower.from_int(int(tok))
    if tok == "z":
        if tower.base_degree == 1:
            raise UsageError("z is only defined for non-prime q")
        return tower.z_generator()
    if tok.startswith("z^"):
        if tower.base_degree == 1:
            raise UsageError("z is only defined for non-prime q")
        return tower.z_generator() ** int(tok[2:])
    raise UsageError(f"cannot parse field element {tok!r}")


def poly_to_text(f: Poly, var: str = "T") -> str:
    tower = f.field.tower
    if f.is_zero():
        return "0"
    terms = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c.is_zero():
            continue
        ct = fq_to_text(c, tower)
        if k == 0:
            terms.append(ct)
        else:
            xk = var if k == 1 else f"{var}^{k}"
            terms.append(xk if ct == "1" else f"{ct}*{xk}")
    return "+".join(terms)


# -- tokenizer ---------------------------------------------------------------


def _split_top(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced parentheses")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise UsageError("unbalanced parentheses")
    parts.append("".join(cur))
    return parts


def _parse_term(term: str, tower: FieldTower, skew_var: str | None):
    """Returns (coefficient Poly in T, tau exponent)."""
    base = tower.base_field
    coeff = Poly.one(base)
    tau_exp = 0
    if term == "":
        raise UsageError("empty term")
    for factor in _split_top(term, "*"):
        factor = factor.strip()
        if not factor:
            raise UsageError("empty factor")
        if factor.startswith("(") and factor.endswith(")"):
            coeff = coeff * poly_from_text(factor[1:-1], tower)
        elif factor == "T" or factor.startswith("T^"):
            k = 1 if factor == "T" else int(factor[2:])
            coeff = coeff * Poly.x(base).shift(k - 1)
        elif skew_var and (factor == skew_var or factor.startswith(skew_var + "^")):
            i = 1 if factor == skew_var else int(factor[len(skew_var) + 1 :])
            tau_exp += i
        else:
            coeff = coeff.scale(fq_from_text(factor, tower))
    return coeff, tau_exp


def poly_from_text(s: str, tower: FieldTower) -> Poly:
    s = "".join(s.split())
    if not s:
        raise UsageError("empty polynomial")
    base = tower.base_field
    out = Poly.zero(base)
    for term in _split_top(s, "+"):
        coeff, tau_exp = _parse_term(term, tower, None)
        if tau_exp:
            raise UsageError("tau is not allowed in a plain polynomial")
        out = out + coeff
    return out


def skew_to_text(f: SkewPoly) -> str:
    if f.is_zero():
        return "0"
    if f.over_A:
        tower = f.ring.field.tower

        def coeff_text(c):
            t = poly_to_text(c)
            return f"({t})" if "+" in t else t

    else:
        tower = f.ring.tower

        def coeff_text(c):
            return fq_to_text(tower.project(c, tower.base_field), tower)

    terms = []
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        ct = coeff_text(c)
        if i == 0:
            terms.append(ct)
        else:
            ti = "t" if i == 1 else f"t^{i}"
            terms.append(f"{ct}*{ti}")
    return "+".join(terms)


def skew_from_text(s: str, tower: FieldTower) -> SkewPoly:
    """Skew polynomial over A from text like 'T+1*t+1*t^2'."""
    s = "".join(s.split())
    if not s:
        raise UsageError("empty skew polynomial")
    ring = AOverField(tower.base_field)
    terms: dict[int, Poly] = {}
    for term in _split_top(s, "+"):
        coeff, tau_exp = _parse_term(term, tower, "t")
        terms[tau_exp] = terms.get(tau_exp, Poly.zero(tower.base_field)) + coeff
    top = max(terms)
    coeffs = [terms.get(i, Poly.zero(tower.base_field)) for i in range(top + 1)]
    return SkewPoly(ring, coeffs)


def module_from_text(s: str, tower: FieldTower):
    """DrinfeldModule from the psi_T text form."""
    from .modules import DrinfeldModule

    sk = skew_from_text(s, tower)
    if sk.degree() < 1:
        raise UsageError("psi_T must have positive tau-degree")
    if sk[0] != Poly.x(tower.base_field):
        raise UsageError("the constant coefficient of psi_T must be T")
    return DrinfeldModule(tower, list(sk.coeffs[1:]))


def module_to_text(psi) -> str:
    return skew_to_text(psi.psi_T)


def x_poly_to_text(coeffs, sep: str = " + ") -> str:
    """A polynomial in x over A from its coefficients, low first, written
    descending with the terms joined by ``sep``: 'x^2 + x + 2*T', or
    'x^4+x+T' with sep '+'; '0' if every coefficient is zero."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.is_zero():
            continue
        ct = poly_to_text(c)
        if "+" in ct:
            ct = f"({ct})"
        if i == 0:
            terms.append(ct)
        else:
            xi = "x" if i == 1 else f"x^{i}"
            terms.append(xi if ct == "1" else f"{ct}*{xi}")
    return sep.join(terms) if terms else "0"


def weil_to_text(weil) -> str:
    """Weil polynomial in x, descending, e.g. 'x^2 + x + 2*T'."""
    return x_poly_to_text(weil.x_coeff_list())


def quot_to_text(e) -> str:
    """Canonical representative of an A/aA element."""
    return poly_to_text(e.rep)


def matrix_to_text(m) -> str:
    rows = []
    for row in m:
        rows.append("[" + ",".join(quot_to_text(e) for e in row) + "]")
    return "[" + ",".join(rows) + "]"
