"""Config, trace and samples files: the text formats the CLI reads and writes.

Config files are line-based KEY=VALUE text ('#' starts a comment).  Keys:
I0, J0 (start pair, default 0), MODE (MONOTONE or SIGN_HARMONIZED, default
MONOTONE), STOP (COUNT or WHILE_POSITIVE:<REG>), CAP (step count or safety
cap, required), and any of the 16 register names (default 0).  Unknown keys
are errors.

Trace files are CSV with header
k,step,i,j,RX,RY,X,Y,XX,XY,YX,YY,XXX,XXY,XYX,XYY,YXX,YXY,YYX,YYY
and one row per executed step (step is one of i+, i-, j+, j-); the register
columns hold the bank after that step.  Each row's i, j must be one step of
its kind from the row before (the path starts one step back from the first
row); a row that breaks this is a parse error.  The same format serializes
bare integer functions (register columns all zero).  write_trace fills one
row template per trace and writes it 1 024 rows at a time, and output_file
opens an output file before the work that fills it.  read_trace takes 1 024
lines at a time, about 1 MiB of cells, and has two tokenizers: a plain
chunk (no quote, carriage return or NUL, exactly 19 commas on every line,
no line over the CSV field size limit) is split as strings, and csv.reader
takes any other.  Both hand their cells to one row checker, so they accept
the same input and raise the same errors.  Like a run's batches, each
checked chunk joins the trace as one part (core._Parts): a register stays
one int while every part holds it at one value.

Samples files are "x,y" lines of exact rational tokens such as 3/10, 0.25
or 2 ('#' starts a comment).  Fraction and RealSampleSeries are bound only
under TYPE_CHECKING, so typing.get_type_hints of parse_rational, _rational
or read_samples_file raises NameError unless localns binds them.

Malformed input raises ParseError; so does a byte that is not UTF-8 in a
file, naming the file and the first line that holds one.  A trace register
beyond +/- REGISTER_CAPACITY raises RegisterOverflowError.
"""

from __future__ import annotations

import csv
import os
import sys
from array import array
from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import IO, TYPE_CHECKING

from .core import (
    ALL_REGISTERS,
    Axis,
    GenerationMode,
    GenerationTrace,
    GeneratorConfig,
    IntegerFunction,
    IntegerFunctionError,
    IntegerPair,
    ParseError,
    PreconditionError,
    REGISTER_CAPACITY,
    RegisterBank,
    RegisterOverflowError,
    STEP_CODES,
    StepCount,
    WhilePositive,
    _Parts,
    _path_through,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .curves import RealSampleSeries

TRACE_COLUMNS = ("k", "step", "i", "j") + ALL_REGISTERS

_CONFIG_KEYS = ("I0", "J0", "MODE", "STOP", "CAP") + ALL_REGISTERS


@contextmanager
def _open_text(path: str, newline=None):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 is a ParseError
    naming its line.

    The text layer decodes blocks ahead of the line being read, so only a
    second read, of bytes, can tell which line holds the byte.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as error:
        with open(path, "rb") as handle:
            # bytes.splitlines breaks lines where text mode does: \n, \r, \r\n.
            for lineno, line in enumerate(handle.read().splitlines(keepends=True), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"{path} line {lineno}: not UTF-8 text ({exc.reason})") from None
        # Every line decodes only if the file changed since the first read.
        raise ParseError(f"{path} is not UTF-8 text ({error.reason})") from None


def _parse_ints(texts, key: str) -> list[int]:
    """int() of each text; the error quotes the first text (exact for one)."""
    try:
        return list(map(int, texts))
    except ValueError:
        raise ParseError(f"value of {key} must be an integer, got {texts[0]!r}") from None


def _parse_int(text: str, key: str) -> int:
    return _parse_ints((text,), key)[0]


# ---------------------------------------------------------------------------
# Config files

def _config_item(text: str, where: str) -> tuple[str, str]:
    """One KEY=VALUE item, from a config line or --set; ``where`` opens its errors."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ParseError(f"{where}: expected KEY=VALUE, got {text!r}")
    key = key.strip()
    if key not in _CONFIG_KEYS:
        raise ParseError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config_items(lines) -> dict[str, str]:
    """KEY=VALUE lines into a mapping; comments and blank lines skipped."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _config_item(line, f"line {lineno}")
        if key in items:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def config_from_items(items: dict[str, str]) -> GeneratorConfig:
    registers = {name: _parse_int(items[name], name)
                 for name in ALL_REGISTERS if name in items}
    start = IntegerPair(_parse_int(items.get("I0", "0"), "I0"),
                        _parse_int(items.get("J0", "0"), "J0"))
    mode_text = items.get("MODE", "MONOTONE")
    try:
        mode = GenerationMode(mode_text)
    except ValueError:
        raise ParseError(f"MODE must be MONOTONE or SIGN_HARMONIZED, got {mode_text!r}") from None
    if "STOP" not in items:
        raise ParseError("missing STOP key")
    if "CAP" not in items:
        raise ParseError("missing CAP key")
    cap = _parse_int(items["CAP"], "CAP")
    stop_text = items["STOP"]
    if stop_text == "COUNT":
        stop = StepCount(cap)
    elif stop_text.startswith("WHILE_POSITIVE:"):
        register = stop_text.split(":", 1)[1]
        if register not in ALL_REGISTERS:
            raise ParseError(f"STOP watches unknown register {register!r}")
        stop = WhilePositive(register, cap)
    else:
        raise ParseError(
            f"STOP must be COUNT or WHILE_POSITIVE:<REG>, got {stop_text!r}")
    return GeneratorConfig(start=start, bank=RegisterBank.from_mapping(registers),
                           stop=stop, mode=mode)


def read_config(path: str, overrides=()) -> GeneratorConfig:
    """The config file at ``path`` with KEY=VALUE ``overrides`` (--set) applied."""
    with _open_text(path) as handle:
        items = parse_config_items(handle)
    items.update(_config_item(assignment, "--set") for assignment in overrides)
    return config_from_items(items)


def format_config(config: GeneratorConfig) -> str:
    """Deterministic KEY=VALUE rendering; zero registers are omitted."""
    lines = [f"I0={config.start.i}", f"J0={config.start.j}", f"MODE={config.mode.value}"]
    if isinstance(config.stop, StepCount):
        stop, cap = "COUNT", config.stop.count
    else:
        stop, cap = f"WHILE_POSITIVE:{config.stop.register}", config.stop.cap
    lines += [f"STOP={stop}", f"CAP={cap}"]
    for name in ALL_REGISTERS:
        value = config.bank.value(name)
        if value != 0:
            lines.append(f"{name}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trace files

_TOKENS = tuple(step.token for step in STEP_CODES)
_CODE_OF_TOKEN = {token: code for code, token in enumerate(_TOKENS)}
_WIDTH = len(TRACE_COLUMNS)
_HEADER = ",".join(TRACE_COLUMNS) + "\n"
# Rows per chunk that read_trace checks and write_trace joins: a harmonic
# row splits into about 1.1 KB of cells, so a chunk's cells, lines and text
# come to about 1 MiB, one pymalloc arena.
_CHUNK_ROWS = 1024


def write_trace(trace: GenerationTrace, stream: IO[str]) -> None:
    """Write the CSV rows, a chunk at a time, from one row template.

    The template has a ``%s`` or ``%d`` for k, step, i, j and each register
    column that changes, and the text of each constant register.  No field
    can hold a comma, quote or line break, so the output is what csv.writer
    would write for the same rows, byte for byte.
    """
    fields = ["%d", "%s", "%d", "%d"] + [str(entry) if isinstance(entry, int) else "%d"
                                         for entry in trace.registers]
    columns = [entry for entry in trace.registers if not isinstance(entry, int)]
    rows = map((",".join(fields) + "\n").__mod__, zip(
        range(1, len(trace) + 1), map(_TOKENS.__getitem__, trace.codes),
        trace.i, trace.j, *columns))
    stream.write(_HEADER)
    while chunk := "".join(islice(rows, _CHUNK_ROWS)):
        stream.write(chunk)


def _is_stdout(handle: IO[str]) -> bool:
    """Whether ``handle`` is open on the file that stdout writes."""
    try:
        return os.path.samestat(os.fstat(handle.fileno()), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no stdout, or not a file
        return False


@contextmanager
def output_file(path: str):
    """Open ``path`` before the work that fills it, so a path that cannot be
    written fails first; yield a function that empties the file and returns
    the text stream to write it through.  The file is opened to append, so
    one that exists keeps its bytes until that call, and one this call
    created is removed again if the block raises.  When the file is the one
    stdout writes (``/dev/stdout`` redirected to a file, say), the stream is
    sys.stdout: a second open file of it would write from an offset of its
    own, over what stdout writes."""
    try:
        handle, created = open(path, "x", encoding="utf-8", newline=""), True
    except FileExistsError:
        handle, created = open(path, "a", encoding="utf-8", newline=""), False

    def start() -> IO[str]:
        if _is_stdout(handle):
            return sys.stdout
        if handle.seekable():  # a pipe or a terminal has nothing to empty
            handle.truncate(0)
        return handle

    try:
        with handle:
            yield start
    except BaseException:
        if created:
            os.remove(path)
        raise


def write_trace_file(trace: GenerationTrace, path: str) -> None:
    with output_file(path) as start:
        write_trace(trace, start())


def _parse_column(cells: list[str], name: str) -> array:
    """One numeric column of a chunk, every value within +/- REGISTER_CAPACITY.
    A register column whose cells all hold the same text is that one int."""
    repeated = name not in ("i", "j") and cells.count(cells[0]) == len(cells)
    values = _parse_ints(cells[:1] if repeated else cells, name)
    value = max(min(values), max(values), key=abs)
    if abs(value) > REGISTER_CAPACITY:
        if name in ("i", "j"):
            raise ParseError(f"position {name} = {value} is out of range")
        raise RegisterOverflowError(f"register {name} = {value} is beyond capacity")
    return values[0] if repeated else array("q", values)


def _split_cells(lines: list[str]) -> list[str]:
    """The cells of a plain chunk of lines, row after row, split as strings.
    Plain is no quote, carriage return or NUL, and on each line exactly 19
    commas and no more than the CSV field size limit: csv.reader would read
    such a chunk as the same cells.  Any other chunk is a ParseError."""
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text
            or max(map(len, lines)) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {_WIDTH - 1}):
        raise ParseError("chunk is not plain")
    cells = text.replace("\n", ",").split(",")
    del cells[len(lines) * _WIDTH:]  # the empty cell after a final newline
    return cells


def _parse_cells(cells: list[str], k: int, last) -> tuple[IntegerFunction, list]:
    """The path and register entries of a chunk's cells, 20 per row, checked
    by the row rules of both tokenizers: steps are numbered from ``k``, and
    the first leaves ``last`` (unchecked at the file's first row).  A rule is
    checked over the whole chunk, so only a one-row chunk's error is exact."""
    # k is a step index, not a register: it has no range, only an order.  Its
    # text is parsed only when it is not the plain text of the expected index.
    expected = range(k, k + len(cells) // _WIDTH)
    if (cells[::_WIDTH] != list(map(str, expected))
            and _parse_ints(cells[::_WIDTH], "k") != list(expected)):
        raise ParseError(f"step index {cells[0]} out of order")
    try:
        codes = bytes(map(_CODE_OF_TOKEN.__getitem__, cells[1::_WIDTH]))
    except KeyError:
        raise ParseError(f"invalid step token {cells[1]!r} (expected i+, i-, j+ or j-)") from None
    # Each column is sliced as it is parsed, while its cells are in cache.
    i, j, *registers = [_parse_column(cells[c::_WIDTH], name)
                        for c, name in enumerate(TRACE_COLUMNS[2:], start=2)]
    if k > 1:
        step = STEP_CODES[codes[0]]
        if (i[0], j[0]) != ((last[0] + step.sign, last[1]) if step.axis is Axis.I
                            else (last[0], last[1] + step.sign)):
            raise ParseError(f"position ({i[0]}, {j[0]}) is not one {step.token} "
                             f"step from ({last[0]}, {last[1]})")
    # The rest of the path: _path_through raises PreconditionError if a later
    # position does not follow from its step, or if the first row's start
    # (one step back) leaves +/- REGISTER_CAPACITY.
    return _path_through(codes, i, j), registers


def _parse_rows(rows: list[list[str]], k: int, last) -> tuple[IntegerFunction, list]:
    """_parse_cells of non-blank csv.reader rows, once each has 20 cells."""
    if set(map(len, rows)) != {_WIDTH}:
        raise ParseError(f"expected {_WIDTH} columns, got {len(rows[0])}")
    return _parse_cells(list(chain.from_iterable(rows)), k, last)


def _raise_first_defect(numbered_rows, k: int, last) -> None:
    """Check ``(lineno, row)`` pairs one at a time, expected to start at step
    index ``k`` from position ``last``; raise for the first malformed row,
    naming the line it starts on."""
    for lineno, row in numbered_rows:
        if not row:
            continue
        try:
            last = _parse_rows([row], k, last)[0].end
        except (ParseError, RegisterOverflowError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        k += 1


def _read_header(lines) -> None:
    """Read and check the header line through csv.reader."""
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise ParseError("empty trace file (missing header)")
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError("trace header does not match the expected 20 columns")


def _read_csv_rows(lines, parts: _Parts, first: int = 2) -> GenerationTrace:
    """The rest of a trace after ``parts``, from line ``first`` on, tokenized
    by csv.reader and checked by _parse_cells: the reference reader.

    Each chunk is checked column by column; only a chunk that fails is
    rescanned row by row, so the error names the first bad row by the line it
    starts on (a quoted cell can span lines).  A line the CSV reader refuses
    (a cell over its field size limit) is named too, once the rows before it
    have passed.
    """
    reader = csv.reader(lines)
    refused = []

    def numbered_rows():
        # reader.line_num counts the lines read so far, up to the end of the
        # row just read; the next row starts on the line after that.
        lineno = first
        try:
            for row in reader:
                yield lineno, row
                lineno = first + reader.line_num
        except csv.Error as exc:
            refused.append(ParseError(f"line {first - 1 + reader.line_num}: {exc}"))

    numbered = numbered_rows()
    while chunk := list(islice(numbered, _CHUNK_ROWS)):
        k, last = len(parts) + 1, parts.path.end
        if nonblank := [row for _, row in chunk if row]:
            try:
                parts.add(*_parse_rows(nonblank, k, last))
            except IntegerFunctionError:
                # The rescan raises for the first bad row; the chunk's own
                # error is only a fallback.
                _raise_first_defect(chunk, k, last)
                raise
    if refused:
        raise refused[0]
    return parts.trace()


def read_trace(stream: IO[str]) -> GenerationTrace:
    """Parse a trace CSV into columns, a chunk of lines at a time.

    _split_cells tokenizes a plain chunk and _parse_cells checks it.  The
    first chunk that is not plain or breaks a rule, and the rest of the
    stream after it, go to _read_csv_rows, whose error names the first bad
    line.  Each checked chunk goes to _Parts as one part.
    """
    lines = iter(stream)
    _read_header(lines)
    parts, lineno = _Parts(), 2
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        # No name holds a chunk's cells, and the csv path starts only once
        # the handler has dropped the error, whose traceback holds them.
        try:
            parts.add(*_parse_cells(_split_cells(chunk), len(parts) + 1, parts.path.end))
        except IntegerFunctionError:
            break
        lineno += len(chunk)
    else:
        return parts.trace()
    return _read_csv_rows(chain(chunk, lines), parts, lineno)


def read_trace_file(path: str) -> GenerationTrace:
    with _open_text(path, newline="") as handle:
        return read_trace(handle)


def trace_for_function(f: IntegerFunction) -> GenerationTrace:
    """Serialize a bare integer function as a trace with an all-zero bank."""
    return _Parts().add(f, (0,) * len(ALL_REGISTERS)).trace()


def function_from_trace(trace: GenerationTrace) -> IntegerFunction:
    """The integer function a trace walked."""
    if not len(trace):
        raise PreconditionError("trace has no steps; cannot recover an integer function")
    return trace.path


# ---------------------------------------------------------------------------
# Samples files

# fractions is imported where it is used: with decimal, it would cost every
# trace command about 3.5 ms of start-up.  A file imports it once, not once
# per token: an import statement costs about 1 us even when the module is
# loaded, a third of what Fraction("3/10") takes.

def parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    return _rational(text, Fraction)


def _rational(text: str, fraction: type[Fraction]) -> Fraction:
    try:
        return fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {text!r} (use P/Q, a decimal, or an integer)") from None


def read_samples_file(path: str) -> RealSampleSeries:
    """CSV-ish lines "x,y" with exact rational tokens like 3/10, 0.25 or 2."""
    from fractions import Fraction

    from .curves import RealSampleSeries

    pairs = []
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected x,y")
            try:
                pairs.append(tuple(_rational(part.strip(), Fraction) for part in parts))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    return RealSampleSeries(tuple(pairs))
