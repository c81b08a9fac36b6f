"""Loader for the bundled reference table of level classifications.

The table is transcribed once as data (data/reference_claims.json) and
read here, so transcription questions stay separable from computation
bugs.  Claims are rank-generic: one entry per (series, source form,
target form).  find_claim parses the bundled table once per process, on
its first call (never at import), and hands each caller a fresh dict.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources


def load_claims() -> list[dict]:
    text = resources.files("gerbelevels.data").joinpath(
        "reference_claims.json"
    ).read_text()
    return json.loads(text)["entries"]


@cache
def _bundled_claims() -> tuple[dict, ...]:
    return tuple(load_claims())


def find_claim(series: str, source_form: str, target_form: str,
               entries: list[dict] | None = None) -> dict | None:
    if entries is None:
        entries = _bundled_claims()
    for e in entries:
        if (
            e["series"] == series
            and e["source_form"] == source_form
            and e["target_form"] == target_form
        ):
            return {"kind": e["kind"], **(
                {"multiple": e["multiple"]} if "multiple" in e else {}
            )}
    return None
