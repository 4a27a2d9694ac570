"""Shared data types for Ising model estimation.

The probability model assigns each spin vector ``x`` in ``{-1,+1}^n`` the
weight ``exp(0.5 * x^T J x + h^T x)``, normalized by the partition function.
``J`` is always symmetric with zero diagonal, so the conditional field acting
on site ``i`` is ``J_i x + h_i`` regardless of the value of ``x_i``.

All types are immutable after construction (the backing numpy arrays are
marked read-only), so instances can be shared freely across workers.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "CouplingMatrix",
    "IsingModel",
    "SampleBatch",
    "ValidationError",
    "ParseError",
    "CapabilityError",
    "ParameterError",
    "GenerationError",
    "is_int",
    "is_real",
    "save_model",
    "load_model",
    "save_samples",
    "load_samples",
    "stream",
]

_SEED_MASK = (1 << 63) - 1


class ValidationError(ValueError):
    """A domain object violates one of its structural invariants."""


class ParseError(ValueError):
    """A model or sample file could not be parsed."""


class CapabilityError(RuntimeError):
    """Requested operation exceeds a hard capability limit (enumeration cap)."""


class ParameterError(ValueError):
    """A configuration or spec parameter is out of range or inconsistent."""


class GenerationError(RuntimeError):
    """A randomized construction exhausted its retry budget."""


def is_int(x) -> bool:
    """True for an int or numpy integer; a bool is not an integer here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for an integer (as :func:`is_int`) or a float; a bool is not a number here."""
    return is_int(x) or isinstance(x, (float, np.floating))


def stream(seed: int, *words: int) -> np.random.Generator:
    """Philox generator keyed on (seed mod 2^63, *words); the one RNG constructor.

    Distinct word tuples give disjoint streams, and negative seeds are valid.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed & _SEED_MASK, *words)))
    )


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class CouplingMatrix:
    """Symmetric real n-by-n interaction matrix with zero diagonal."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=np.float64)
        errors = _coupling_errors(arr)
        if errors:
            raise ValidationError("; ".join(errors))
        self.entries = _freeze(arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "CouplingMatrix":
        return cls(np.zeros((n, n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, CouplingMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __repr__(self) -> str:
        return f"CouplingMatrix(n={self.n})"


class IsingModel:
    """A coupling matrix plus an external field vector."""

    __slots__ = ("coupling", "field")

    def __init__(self, coupling: CouplingMatrix, field) -> None:
        if not isinstance(coupling, CouplingMatrix):
            coupling = CouplingMatrix(coupling)
        f = np.asarray(field, dtype=np.float64)
        errors = _field_errors(f, coupling.n)
        if errors:
            raise ValidationError("; ".join(errors))
        self.coupling = coupling
        self.field = _freeze(f)

    @property
    def n(self) -> int:
        return self.coupling.n

    @classmethod
    def zero_field(cls, coupling) -> "IsingModel":
        if not isinstance(coupling, CouplingMatrix):
            coupling = CouplingMatrix(coupling)
        return cls(coupling, np.zeros(coupling.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IsingModel)
            and self.coupling == other.coupling
            and np.array_equal(self.field, other.field)
        )

    def __repr__(self) -> str:
        return f"IsingModel(n={self.n})"


class SampleBatch:
    """``l`` spin configurations in ``{-1,+1}^n``, one per row."""

    __slots__ = ("spins",)

    def __init__(self, spins) -> None:
        arr = np.asarray(spins)
        if arr.ndim != 2:
            raise ValidationError("spins must be a 2-d array (l rows, n columns)")
        if arr.size == 0:
            raise ValidationError("sample batch is empty")
        if not np.all(np.isin(arr, (-1, 1))):
            raise ValidationError("spin entries must be exactly -1 or +1")
        self.spins = _freeze(arr.astype(np.int8))

    @property
    def l(self) -> int:
        return self.spins.shape[0]

    @property
    def n(self) -> int:
        return self.spins.shape[1]

    def as_float(self) -> np.ndarray:
        return self.spins.astype(np.float64)

    def __repr__(self) -> str:
        return f"SampleBatch(l={self.l}, n={self.n})"


def _coupling_errors(arr: np.ndarray) -> list[str]:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        return ["coupling matrix must be square and non-empty"]
    nonfinite = ~np.isfinite(arr)
    if nonfinite.any():
        bad = np.argwhere(nonfinite)
        errors = [f"non-finite coupling at ({i},{j})" for i, j in bad[:5]]
        if len(bad) > 5:
            errors.append(f"... {len(bad) - 5} more non-finite couplings")
        return errors
    errors: list[str] = []
    asym = arr != arr.T
    if asym.any():  # messages only for a matrix that has hits
        errors += [f"asymmetric pair at ({i},{j})" for i, j in np.argwhere(asym)[:5] if i < j]
    diag = arr.diagonal()
    if diag.any():
        errors += [f"nonzero diagonal at {i}" for i in np.flatnonzero(diag)[:5]]
    return errors


def _field_errors(f: np.ndarray, n: int) -> list[str]:
    errors: list[str] = []
    if f.ndim != 1:
        return ["field must be a vector"]
    if f.shape[0] != n:
        errors.append(f"field length mismatch: expected {n}, got {f.shape[0]}")
    for i in np.argwhere(~np.isfinite(f))[:5]:
        errors.append(f"non-finite field at {int(i)}")
    return errors


# ---------------------------------------------------------------------------
# Serialization.
#
# Model file: JSON object {"n": int, "h": [...], "J": {"dense": [[...]]}} or
# {"J": {"triplets": [[i, j, v], ...]}} giving the strict upper triangle.
# Floats are written with 17 significant digits, which round-trips IEEE
# doubles exactly.
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_model(m: IsingModel, path) -> None:
    """Write a model file with the dense J encoding."""
    h = ", ".join(_fmt(v) for v in m.field)
    rows = ",\n      ".join(
        "[" + ", ".join(_fmt(v) for v in row) + "]" for row in m.coupling.entries
    )
    j_block = '{"dense": [\n      ' + rows + "\n    ]}"
    text = f'{{\n  "n": {m.n},\n  "h": [{h}],\n  "J": {j_block}\n}}\n'
    with open(path, "w") as fh:
        fh.write(text)


def _read_text(path) -> str:
    """The text of an input file; one that cannot be opened or decoded is a ParseError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: cannot read: {getattr(e, 'strerror', None) or e}") from e


def load_model(path) -> IsingModel:
    """Read a model file in either J encoding (:func:`save_model` writes dense)."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    for key in ("n", "h", "J"):
        if key not in doc:
            raise ParseError(f'{path}: missing "{key}" key')
    n = doc["n"]
    if not is_int(n) or n < 1:
        raise ParseError(f'{path}: "n" must be a positive integer')
    j_doc = doc["J"]
    if not isinstance(j_doc, dict):
        raise ParseError(f'{path}: "J" must be an object with "dense" or "triplets"')
    if "dense" in j_doc:
        entries = _float_array(j_doc["dense"], path, "J.dense")
        if entries.shape != (n, n):
            raise ParseError(f'{path}: "J.dense" must be {n}x{n}')
    elif "triplets" in j_doc:
        entries = np.zeros((n, n))
        trips = j_doc["triplets"]
        if not isinstance(trips, list):
            raise ParseError(f'{path}: "J.triplets" must be a list')
        for t, trip in enumerate(trips):
            key = f"J.triplets[{t}]"
            if not isinstance(trip, list) or len(trip) != 3:
                raise ParseError(f'{path}: "{key}" must be [i, j, v]')
            i, j, v = trip
            if not (is_int(i) and is_int(j) and 0 <= i < j < n):
                raise ParseError(f'{path}: "{key}" needs integers 0 <= i < j < n, got ({i},{j})')
            if not is_real(v):
                raise ParseError(f'{path}: "{key}" value must be a number')
            try:
                entries[i, j] = entries[j, i] = v
            except OverflowError as e:
                raise ParseError(f'{path}: "{key}" value is out of range') from e
    else:
        raise ParseError(f'{path}: "J" lacks both "dense" and "triplets"')
    try:
        return IsingModel(CouplingMatrix(entries), _float_array(doc["h"], path, "h"))
    except ValidationError as e:
        raise ParseError(f"{path}: {e}") from e


def _numbers(value) -> bool:
    """True for a JSON number or a (nested) list of them; a bool or string is not one."""
    return all(map(_numbers, value)) if isinstance(value, list) else is_real(value)


def _float_array(value, path, key: str) -> np.ndarray:
    if not _numbers(value):
        raise ParseError(f'{path}: "{key}" must hold numbers')
    try:
        return np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError) as e:
        raise ParseError(f'{path}: "{key}" must hold numbers ({e})') from e


# the 3-byte cell of -1 and of +1; the "\0" that pads "1," is deleted before writing
_CSV_CELLS = np.frombuffer(b"-1,\x001,", dtype=np.uint8).reshape(2, 3)
_CSV_BLOCK_ROWS = 4096


def save_samples(batch: SampleBatch, path) -> None:
    """Write samples as CSV: one row per configuration, entries -1 or 1, no header
    (the bytes of np.savetxt with fmt "%d"), built from byte cells a block of rows at a time."""
    with open(path, "wb") as fh:
        for start in range(0, batch.l, _CSV_BLOCK_ROWS):
            cells = _CSV_CELLS[np.maximum(batch.spins[start:start + _CSV_BLOCK_ROWS], 0)]
            cells[:, -1, 2] = ord("\n")
            fh.write(cells.tobytes().translate(None, b"\0"))


def load_samples(path) -> SampleBatch:
    """Read a sample file; blank lines are skipped, and errors name the line."""
    lines = [(lineno, line) for lineno, line in enumerate(_read_text(path).split("\n"), start=1)
             if line.strip()]
    if not lines:
        raise ParseError(f"{path}: no samples")
    try:
        return SampleBatch(_parse_rows([line for _, line in lines]))
    except ValueError as e:
        error = e
    # the file is malformed: parse line by line to name the first bad one
    width = None
    for lineno, line in lines:
        try:
            row = _parse_rows([line])[0]
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: non-integer entry") from e
        width = row.size if width is None else width
        if row.size != width:
            raise ParseError(f"{path}:{lineno}: rows have inconsistent lengths "
                             f"({row.size} entries, the first row has {width})")
        if not np.isin(row, (-1, 1)).all():
            raise ParseError(f"{path}:{lineno}: entries must be -1 or 1")
    raise ParseError(f"{path}: {error}") from error


def _parse_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
