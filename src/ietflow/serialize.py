"""Text formats: IET and roof files, trace records, CSV series.

IET files are key = value lines, with lengths in exact-scalar notation
("p/q" or "(a+b*sqrt(D))/c") so that files load exactly:

    alphabet = A B
    top      = A B
    bottom   = B A
    lengths  = (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2

Roof files carry the smooth offset and the per-label one-sided constants:

    c0     = 1
    cplus  = A:0 B:0
    cminus = A:1 B:0
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .exact import ExactScalar
from .iet import Iet, Permutation
from .rauzy import InductionTrace
from .roof import RoofSpec


class FormatError(ValueError):
    pass


def _parse_keyvals(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("expected 'key = value', got %r" % line)
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def loads_iet(text: str) -> Iet:
    fields = _parse_keyvals(text)
    for key in ("top", "bottom", "lengths"):
        if key not in fields:
            raise FormatError("missing field %r" % key)
    top = fields["top"].split()
    bottom = fields["bottom"].split()
    alphabet = fields.get("alphabet", fields["top"]).split()
    perm = Permutation(top, bottom, alphabet=alphabet)
    lengths = [ExactScalar.parse(tok) for tok in fields["lengths"].split()]
    if len(lengths) != len(alphabet):
        raise FormatError("need one length per alphabet label")
    return Iet(perm, dict(zip(alphabet, lengths)))


def load_iet(path) -> Iet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_iet(fh.read())


def _parse_label_map(text: str, alphabet) -> dict:
    out = {}
    for tok in text.split():
        if ":" not in tok:
            raise FormatError("expected LABEL:VALUE, got %r" % tok)
        label, _, value = tok.partition(":")
        if label not in alphabet:
            raise FormatError("unknown label %r" % label)
        out[label] = Fraction(value)
    for a in alphabet:
        out.setdefault(a, Fraction(0))
    return out


def loads_roof(text: str, iet: Iet) -> RoofSpec:
    fields = _parse_keyvals(text)
    if "c0" not in fields:
        raise FormatError("missing field 'c0'")
    alphabet = iet.perm.alphabet
    return RoofSpec(
        c0=Fraction(fields["c0"]),
        cplus=_parse_label_map(fields.get("cplus", ""), alphabet),
        cminus=_parse_label_map(fields.get("cminus", ""), alphabet),
    )


def load_roof(path, iet: Iet) -> RoofSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_roof(fh.read(), iet)


def trace_records(trace: InductionTrace, steps: int):
    """Line-delimited induction records: one JSON object per step."""
    trace.extend(steps)
    for k in range(steps):
        yield {
            "index": k,
            "type": trace.step_type(k),
            "matrix": [list(row) for row in trace.step_matrix(k)],
            "interval_length": trace.interval_length(k + 1).to_string(),
            "heights": list(trace.heights(k + 1)),
        }


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def series_to_csv(rows, header, precision: int = 17) -> str:
    """CSV with an explicit precision column for the numeric fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header) + ["precision_digits"])
    for row in rows:
        formatted = []
        for item in row:
            if isinstance(item, float):
                formatted.append(repr(item))
            else:
                formatted.append(item)
        writer.writerow(formatted + [precision])
    return buf.getvalue()
