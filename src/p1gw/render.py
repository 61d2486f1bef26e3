"""Rendering helpers shared by the CLI.

Data outputs carry exact rationals as strings; nothing here converts to
floating point, and the display decimals of decimal_str come from integer
long division. JSON text is canonical (two-space indent, insertion
order preserved) so parsing and re-rendering reproduces it byte for byte.
"""

from .eps import EpsLaurent
from .rational import rat_str

FORMATS = ("json", "csv", "markdown", "latex")


def eps_series_obj(value: EpsLaurent) -> dict:
    """{"exponent": "p/q"} with keys ascending numerically."""
    return {str(e): rat_str(c) for e, c in sorted(value.terms.items())}


def eps_poly_str(value: EpsLaurent) -> str:
    """Single-line polynomial rendering for table cells, e.g. "3 + 1/4*eps^2"."""
    if not value.terms:
        return "0"
    parts = []
    for e, c in sorted(value.terms.items()):
        if e == 0:
            parts.append(rat_str(c))
        elif e == 1:
            parts.append(f"{rat_str(c)}*eps")
        else:
            parts.append(f"{rat_str(c)}*eps^{e}")
    return " + ".join(parts).replace("+ -", "- ")


def decimal_str(x, sig: int = 12) -> str:
    """Decimal rendering of a rational, correct to sig significant digits.

    Pure integer arithmetic (no float round trip), round half away from
    zero. Display only; data paths keep exact rationals.
    """
    if sig < 1:
        raise ValueError(f"need at least one significant digit, got {sig}")
    num, den = int(x.numerator), int(x.denominator)
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)

    # decimal exponent e with 10^e <= num/den < 10^(e+1)
    def at_least(exp):
        if exp >= 0:
            return num >= den * 10**exp
        return num * 10 ** (-exp) >= den
    e = len(str(num)) - len(str(den))
    while at_least(e + 1):
        e += 1
    while not at_least(e):
        e -= 1

    shift = sig - 1 - e
    if shift >= 0:
        q, r = divmod(num * 10**shift, den)
    else:
        q, r = divmod(num, den * 10 ** (-shift))
    if 2 * r >= (den if shift >= 0 else den * 10 ** (-shift)):
        q += 1
        if q == 10**sig:  # rounding overflowed into one more digit
            q //= 10
            e += 1
    digits = str(q).ljust(sig, "0")

    if 0 <= e < sig:
        whole, frac = digits[: e + 1], digits[e + 1 :].rstrip("0")
        return sign + whole + ("." + frac if frac else "")
    if -4 <= e < 0:
        return sign + "0." + "0" * (-e - 1) + digits.rstrip("0")
    mant = digits[0] + ("." + digits[1:].rstrip("0") if digits[1:].rstrip("0") else "")
    return f"{sign}{mant}e{e:+d}"


def to_json(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _render_csv(headers, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(headers)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _render_markdown(headers, rows) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _render_latex(headers, rows) -> str:
    cols = "l" * len(headers)
    lines = [
        f"\\begin{{tabular}}{{{cols}}}",
        "\\hline",
        " & ".join(headers) + " \\\\",
        "\\hline",
    ]
    for row in rows:
        lines.append(" & ".join(str(c) for c in row) + " \\\\")
    lines += ["\\hline", "\\end{tabular}"]
    return "\n".join(lines) + "\n"


def render_rows(headers, rows, fmt: str) -> str:
    """Render a header + string-cell row list in csv, markdown or latex."""
    if fmt == "csv":
        return _render_csv(headers, rows)
    if fmt == "markdown":
        return _render_markdown(headers, rows)
    if fmt == "latex":
        return _render_latex(headers, rows)
    raise ValueError(f"no tabular renderer for format {fmt!r}")
