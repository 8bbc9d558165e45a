"""File emission: CSV and JSON with a reproducibility metadata block.

Every artifact embeds the full run configuration (and nothing volatile such
as timestamps), so rerunning with the metadata reproduces the file
bit-for-bit.  CSV is UTF-8 with a header row, '.' decimals and 17
significant digits; JSON carries the same numbers as native floats.
"""

from __future__ import annotations

from typing import Mapping, Sequence

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    """A float (np.float64 is one) at 17 significant digits, else str()."""
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path: str, columns: Mapping[str, Sequence], metadata: Mapping[str, object]) -> None:
    """Columnar CSV with '#'-prefixed metadata lines before the header."""
    names, arrays = list(columns), list(columns.values())
    length = len(arrays[0]) if arrays else 0
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise ValueError(f"column {name!r} has mismatched length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={_fmt(metadata[key])}\n")
        fh.write(",".join(names) + "\n")
        for i in range(length):
            fh.write(",".join(_fmt(arr[i]) for arr in arrays) + "\n")


def write_json(path: str, payload: Mapping[str, object], metadata: Mapping[str, object]) -> None:
    import json  # only JSON artifacts need it

    doc = {"metadata": dict(sorted(metadata.items())), **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, default=_plain)
        fh.write("\n")


def _plain(value):
    """json.dump's hook for numpy arrays and scalars, by their `tolist`
    (np.float64 is a float and never reaches it)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
