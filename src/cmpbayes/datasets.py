"""Count-dataset ingestion and the four bundled illustration datasets.

Two text formats are accepted and auto-detected from the first data line:
  (A) one nonnegative integer count per line;
  (B) frequency pairs "value<TAB>count" (any whitespace works), expanded
      losslessly to the flat form.
Lines starting with '#' and blank lines are ignored.

Bundled datasets (see the provenance header inside each file):
  textile-faults   n=32    faults per roll of fabric (Bissell 1972 / Hinde 1982)
  slovak-poem      n=117   word lengths in a Slovak poem (Wimmer et al. 1994)
  crab-satellites  n=173   satellite counts per female horseshoe crab
                           (Brockmann 1996, via Agresti)
  hungarian-words  n=57459 word lengths in a Hungarian dictionary
                           (Wimmer et al. 1994), frequency form

The CMPBAYES_DATA_DIR environment variable, when set, is searched before the
packaged copies so users can override the bundled files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DatasetParseError, EmptyDataError

DATA_DIR_ENV = "CMPBAYES_DATA_DIR"

BUNDLED_FILES = {
    "textile-faults": "textile_faults.txt",
    "slovak-poem": "slovak_poem.txt",
    "crab-satellites": "crab_satellites.txt",
    "hungarian-words": "hungarian_words.txt",
}


@dataclass(frozen=True)
class CountDataset:
    name: str
    counts: np.ndarray  # flat nonnegative int64 counts

    @property
    def n(self) -> int:
        return int(self.counts.size)


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DatasetParseError(f"line {lineno}: {what} {token!r} is not an integer", lineno)
    if value > np.iinfo(np.int64).max:  # counts are stored as int64
        raise DatasetParseError(f"line {lineno}: {what} {token!r} exceeds 2^63 - 1", lineno)
    return value


def parse_counts(text: str, name: str) -> CountDataset:
    """Parse dataset text in format A or B (auto-detected by column count)."""
    counts: list[int] = []
    n_columns = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n_columns is None:
            if len(fields) not in (1, 2):
                raise DatasetParseError(
                    f"line {lineno}: expected 1 or 2 columns, got {len(fields)}", lineno
                )
            n_columns = len(fields)
        elif len(fields) != n_columns:
            raise DatasetParseError(
                f"line {lineno}: expected {n_columns} columns, got {len(fields)}", lineno
            )
        value = _parse_int(fields[0], lineno, "count value")
        if value < 0:
            raise DatasetParseError(f"line {lineno}: negative count {value}", lineno)
        if n_columns == 1:
            counts.append(value)
        else:
            freq = _parse_int(fields[1], lineno, "frequency")
            if freq < 1:
                raise DatasetParseError(f"line {lineno}: frequency must be >= 1, got {freq}",
                                        lineno)
            counts.extend([value] * freq)
    if not counts:
        raise EmptyDataError(f"dataset {name!r} contains no observations")
    return CountDataset(name=name, counts=np.asarray(counts, dtype=np.int64))


def _read_text(path: Path) -> str:
    """A dataset file's UTF-8 text; DatasetParseError for a directory or undecodable bytes."""
    try:
        return path.read_text(encoding="utf-8")
    except IsADirectoryError:
        raise DatasetParseError(f"{str(path)!r} is a directory, not a dataset file") from None
    except UnicodeDecodeError as exc:
        raise DatasetParseError(
            f"{str(path)!r} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_dataset(path: str | Path) -> CountDataset:
    """Load a dataset file; the dataset name is the file stem."""
    path = Path(path)
    return parse_counts(_read_text(path), path.stem)


def bundled_dataset(name: str) -> CountDataset:
    """Load one of the bundled datasets by its CLI name.

    A file of the same name under CMPBAYES_DATA_DIR takes precedence over
    the packaged copy.
    """
    if name not in BUNDLED_FILES:
        raise KeyError(
            f"unknown dataset {name!r}; bundled: {', '.join(sorted(BUNDLED_FILES))}"
        )
    filename = BUNDLED_FILES[name]
    override_dir = os.environ.get(DATA_DIR_ENV)
    if override_dir:
        candidate = Path(override_dir) / filename
        if candidate.exists():
            return parse_counts(_read_text(candidate), name)
    text = resources.files("cmpbayes").joinpath("data").joinpath(filename).read_text()
    return parse_counts(text, name)


def resolve_dataset(name_or_path: str) -> CountDataset:
    """Interpret a CLI argument as a bundled dataset name or a file path."""
    if name_or_path in BUNDLED_FILES:
        return bundled_dataset(name_or_path)
    if Path(name_or_path).exists():
        return load_dataset(name_or_path)
    raise FileNotFoundError(
        f"{name_or_path!r} is neither a bundled dataset name "
        f"({', '.join(sorted(BUNDLED_FILES))}) nor an existing file"
    )
