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
bare integer functions (register columns all zero).  A chunk is
core._BATCH_STEPS (1 024) rows, the steps of one batch of a run, and its
text is built whole: one row template, repeated, filled by one ``%``
(_part_text).  write_trace writes one such text per chunk, and output_file
opens an output file before the work that fills it.

A file that a run wrote is fixed by its first row, so read_trace reads that
row alone, parses it and, when its line is the text write_trace writes for
it, replays the register machine from it, a chunk at a time: monotone until
a chunk misses, then sign-harmonized for the rest of the file if that chunk
holds an i- or j- row.  A chunk whose lines are the rows of the replayed
part's text, one element per row, is taken with nothing parsed.  Anything
else (a file that is not a machine run, an edited row, CRLF line ends, a
missing final newline, an element that holds two rows or part of one) is
parsed from the first row or chunk that differs, as _read_parsed parses a
whole file, so it gives the same trace or the same error.  The parser is
csv.reader and one row checker; a chunk that fails is read again one row at
a time, to name its first bad line.  Like a run's batches, each replayed or
checked chunk joins the trace as one part (core._Parts): a register stays
one int while every part holds it at one value.

Samples files are "x,y" lines of exact rational tokens such as 3/10, 0.25
or 2 ('#' starts a comment).  Fraction and RealSampleSeries are bound only
under TYPE_CHECKING, so typing.get_type_hints of parse_rational, _rational
or read_samples_file raises NameError unless localns binds them.

Every file is opened as UTF-8 text with newline="", as csv needs.  Lines
still end at LF, CR or CRLF; config and samples lines strip the ending, so
their line numbers, values and errors do not depend on it.

Malformed input raises ParseError; so does a byte that is not UTF-8 in a
file, naming the file and the first line that holds one.  A trace register
beyond +/- REGISTER_CAPACITY raises RegisterOverflowError.
"""

from __future__ import annotations

import csv
import os
import stat
import sys
from array import array
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import contains
from typing import IO, TYPE_CHECKING

from . import core
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
    _batch,
    _check_type,
    _dead_registers,
    _int64s,
    _path_through,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .curves import RealSampleSeries

TRACE_COLUMNS = ("k", "step", "i", "j") + ALL_REGISTERS

_CONFIG_KEYS = ("I0", "J0", "MODE", "STOP", "CAP") + ALL_REGISTERS
_OVERRIDES = "config overrides must be an iterable of KEY=VALUE str"


@contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text with newline="" (see the module
    docstring); a byte that is not UTF-8 is a ParseError naming its line.

    The text layer decodes blocks ahead of the line being read, so only a
    second read, of bytes, can tell which line holds the byte.  A ``path``
    that is not a str or an os.PathLike is refused: open would take an int,
    or a bool, as a file descriptor and close it on exit.
    """
    _check_type(path, (str, os.PathLike), "path must be a str or an os.PathLike")
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
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
    _check_type(lines, Iterable, "config lines must be an iterable of str")
    items: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        _check_type(raw, str, "config lines must be an iterable of str")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _config_item(line, f"line {lineno}")
        if key in items:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def config_from_items(items: dict[str, str]) -> GeneratorConfig:
    _check_type(items, Mapping, "config items must be a mapping of keys to values")
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
    """The config file at ``path`` with KEY=VALUE ``overrides`` (--set)
    applied; a malformed item or unknown key of ``overrides`` is refused
    before the file is opened, as is one that is not a str."""
    _check_type(overrides, Iterable, _OVERRIDES)
    assigned = []
    for assignment in overrides:
        _check_type(assignment, str, _OVERRIDES)
        assigned.append(_config_item(assignment, "--set"))
    with _open_text(path) as handle:
        items = parse_config_items(handle)
    items.update(assigned)
    return config_from_items(items)


def format_config(config: GeneratorConfig) -> str:
    """Deterministic KEY=VALUE rendering; zero registers are omitted."""
    _check_type(config, GeneratorConfig, "config must be a GeneratorConfig")
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


def _part_text(k: int, codes, i, j, registers) -> str:
    """The CSV text of the rows of a trace part, its steps numbered from
    ``k``: one row template, repeated once per row, filled by one ``%``.

    The template has a ``%s`` for k, step, i, j and each register column
    that changes, and the text of each constant register.  Its values go in
    as one tuple, row after row, interleaved by slice assignment from lists.
    No field can hold a comma, quote or line break, so each row is what
    csv.writer would write for it, byte for byte.
    """
    fields = ["%s"] * 4 + [str(entry) if isinstance(entry, int) else "%s" for entry in registers]
    columns = [i, j] + [entry for entry in registers if not isinstance(entry, int)]
    n, width = len(codes), len(columns) + 2
    values = [None] * (n * width)
    values[0::width] = range(k, k + n)
    values[1::width] = [_TOKENS[code] for code in codes]
    for c, column in enumerate(columns, start=2):
        values[c::width] = column.tolist()
    return (",".join(fields) + "\n") * n % tuple(values)


def write_trace(trace: GenerationTrace, stream: IO[str]) -> None:
    """Write the header, then the text of each core._BATCH_STEPS rows (see
    _part_text) in one write.  ``stream`` is any object with a write method."""
    _check_type(trace, GenerationTrace, "trace must be a GenerationTrace")
    if not callable(getattr(stream, "write", None)):
        raise PreconditionError("stream must have a write method")
    codes, i, j, registers = trace.codes, trace.i, trace.j, trace.registers
    stream.write(_HEADER)
    for start in range(0, len(codes), core._BATCH_STEPS):
        end = start + core._BATCH_STEPS
        stream.write(_part_text(start + 1, codes[start:end], i[start:end], j[start:end], [
            entry if isinstance(entry, int) else entry[start:end] for entry in registers]))


def _is_stdout(handle: IO[str]) -> bool:
    """Whether ``handle`` is open on the file that stdout writes."""
    try:
        return os.path.samestat(os.fstat(handle.fileno()), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no stdout, or not a file
        return False


@contextmanager
def output_file(path: str | None):
    """Open ``path`` before the work that fills it, so a path that cannot be
    written fails first; yield a function that empties the file and returns
    the text stream to write it through.  The file is opened to append, so
    one that exists keeps its bytes until that call, and one this call
    created is removed again if the block raises.  When the file is the one
    stdout writes (``/dev/stdout`` redirected to a file, say), the stream is
    sys.stdout: a second open file of it would write from an offset of its
    own, over what stdout writes.  A ``path`` of None means stdout; an empty
    one is opened like any other, and fails.  Any other ``path`` that is not
    a str or an os.PathLike is refused, as _open_text refuses it."""
    if path is None:
        yield lambda: sys.stdout
        return
    _check_type(path, (str, os.PathLike), "path must be a str or an os.PathLike")
    try:
        handle, created = open(path, "x", encoding="utf-8", newline=""), True
    except FileExistsError:
        handle, created = open(path, "a", encoding="utf-8", newline=""), False

    def start() -> IO[str]:
        if _is_stdout(handle):
            return sys.stdout
        # A pipe, a terminal or a device such as /dev/null has nothing to empty.
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
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
    return values[0] if repeated else _int64s(values)


def _parse_rows(rows: list[list[str]], k: int, last) -> tuple[IntegerFunction, list]:
    """The path and register entries of non-blank csv.reader rows, checked by
    the row rules: each has 20 cells, steps are numbered from ``k``, and the
    first leaves ``last`` (unchecked at the file's first row).  A rule is
    checked over all the rows at once, so only a one-row error is exact."""
    if set(map(len, rows)) != {_WIDTH}:
        raise ParseError(f"expected {_WIDTH} columns, got {len(rows[0])}")
    cells = list(chain.from_iterable(rows))
    # k is a step index, not a register: it has no range, only an order.
    if _parse_ints(cells[::_WIDTH], "k") != list(range(k, k + len(rows))):
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


def _read_csv_rows(lines, parts: _Parts) -> GenerationTrace:
    """The rest of a trace after ``parts``, tokenized by csv.reader and
    checked by _parse_rows.  Its line numbers start at len(parts) + 2: the
    header is line 1, and each row of ``parts`` was one line.

    Each chunk is checked column by column; a chunk that fails is read again
    one row at a time, each row joining ``parts``, so the error names the
    first bad row by the line it starts on (a quoted cell can span lines).
    A line the CSV reader refuses (a cell over its field size limit) is
    named too, once the rows before it have passed.
    """
    reader = csv.reader(lines)
    refused, first = [], len(parts) + 2

    def numbered_rows():
        # reader.line_num counts the lines read so far, up to the end of the
        # row just read; the next row starts on the line after that.
        lineno = first
        try:
            for row in reader:
                if row:  # csv.reader reads a blank line as []
                    yield lineno, row
                lineno = first + reader.line_num
        except csv.Error as exc:
            refused.append(ParseError(f"line {first - 1 + reader.line_num}: {exc}"))

    numbered = numbered_rows()
    while chunk := list(islice(numbered, core._BATCH_STEPS)):
        try:
            parts.add(*_parse_rows([row for _, row in chunk], len(parts) + 1, parts.path.end))
        except IntegerFunctionError:
            # No re-raise follows: every rule that fails a chunk fails one of
            # its rows.  The width, k order, token, cell and range rules hold
            # row by row; a position _path_through refuses at row t fails row
            # t's check against row t - 1; only the file's first row can start
            # out of range (a PreconditionError, not prefixed).
            for lineno, row in chunk:
                try:
                    parts.add(*_parse_rows([row], len(parts) + 1, parts.path.end))
                except (ParseError, RegisterOverflowError) as exc:
                    raise type(exc)(f"line {lineno}: {exc}") from None
    if refused:
        raise refused[0]
    return parts.trace()


def _read_parsed(stream: IO[str]) -> GenerationTrace:
    """read_trace with no replay: every row is parsed.  The reference for
    read_trace, which must return the same trace or raise the same error."""
    lines = iter(stream)
    _read_header(lines)
    return _read_csv_rows(lines, _Parts())


def _replayed(chunk: list[str], parts: _Parts, regs: list[int], shape) -> bool:
    """Whether the machine ``shape`` (see core._shape), run from the
    registers ``regs`` at the end of ``parts``, writes exactly the lines
    ``chunk``; if so, the part it ran joins ``parts`` and ``regs`` moves to
    its end.  An overflow in the replay is a miss.

    The part's text is built whole (see _part_text) and split into its rows,
    which must be the elements of ``chunk`` one for one: equal joined text
    is not enough, since an iterable of str may split its rows elsewhere,
    and csv.reader reads such lines otherwise.
    """
    run = regs[:]
    try:
        path, entries = _batch(run, shape, len(chunk), parts.path.end)
    except IntegerFunctionError:
        return False
    k, last = len(parts) + 1, len(chunk) - 1
    # A replay that leaves the file's path mostly shows in its last row,
    # which is cheap to check first.
    if _part_text(k + last, path.codes[last:], path.i[-1:], path.j[-1:], [
            entry if isinstance(entry, int) else entry[last:] for entry in entries]) != chunk[-1]:
        return False
    text = _part_text(k, path.codes, path.i[1:], path.j[1:], entries)
    if text.splitlines(keepends=True) != chunk:
        return False
    parts.add(path, entries)
    regs[:] = run
    return True


def read_trace(stream: IO[str]) -> GenerationTrace:
    """Read a trace CSV into columns, a chunk of lines at a time.

    Every trace that a run writes is fixed by its first row, so that row is
    read alone and parsed, and when its line is the text write_trace writes
    for it, the machine is replayed from its registers and position for each
    chunk of core._BATCH_STEPS lines after it.  A chunk whose lines are the
    replayed part's rows (see _replayed) joins the trace with nothing
    parsed: the parser would have read those lines as the same part.

    The replay runs monotone until a chunk misses.  The two modes write the
    same rows until a rate goes negative, and then a sign-harmonized run
    writes an i- or j- token, so its line holds "-,", which no other cell
    can write (a "-" in a number is followed by a digit).  So a missed chunk
    that holds "-," is replayed once more sign-harmonized, and the rest of
    the file stays in that mode.  Any other row 1, or the first chunk that
    misses and the rest of the stream after it, go to _read_csv_rows, which
    _read_parsed runs on a whole file, so a file that is not a machine run
    gives the same trace or the same error.
    """
    _check_type(stream, Iterable, "stream must be an iterable of lines")
    lines = iter(stream)
    _read_header(lines)
    parts = _Parts()
    if (first := next(lines, None)) is None:
        return parts.trace()
    try:
        path, registers = _parse_rows(list(csv.reader([first])), 1, None)
    except (IntegerFunctionError, csv.Error):
        written = False
    else:
        written = _part_text(1, path.codes, path.i[1:], path.j[1:], registers) == first
    if not written:
        return _read_csv_rows(chain([first], lines), parts)
    parts.add(path, registers)
    # A register whose feeds are dead never changes, so every row of a run
    # has the dead set of the bank that started it.  Row 1's dead set keys
    # the kernel of every later chunk: the replay of a file that a run under
    # a step count wrote runs on that run's kernels.
    regs = list(registers)
    dead = _dead_registers(regs)
    harmonized = False
    while chunk := list(islice(lines, core._BATCH_STEPS)):
        replayed = _replayed(chunk, parts, regs, (dead, harmonized, None))
        if not (replayed or harmonized) and any(map(contains, chunk, repeat("-,"))):
            harmonized = True
            replayed = _replayed(chunk, parts, regs, (dead, harmonized, None))
        if not replayed:
            return _read_csv_rows(chain(chunk, lines), parts)
    return parts.trace()


def read_trace_file(path: str) -> GenerationTrace:
    with _open_text(path) as handle:
        return read_trace(handle)


def trace_for_function(f: IntegerFunction) -> GenerationTrace:
    """Serialize a bare integer function as a trace with an all-zero bank."""
    _check_type(f, IntegerFunction, "path must be an IntegerFunction")
    return _Parts().add(f, (0,) * len(ALL_REGISTERS)).trace()


def function_from_trace(trace: GenerationTrace) -> IntegerFunction:
    """The integer function a trace walked."""
    _check_type(trace, GenerationTrace, "trace must be a GenerationTrace")
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
    _check_type(text, str, "rational text must be a str")
    from fractions import Fraction

    return _rational(text, Fraction)


def _rational(text: str, fraction: type[Fraction]) -> Fraction:
    # Fraction("1e10000000") builds 10**10000000, which takes seconds; an
    # exponent past the integer-string limit is refused, as that many digits
    # written out would be.  Where the limit is 0 or missing there is none.
    _, e, exponent = text.upper().rpartition("E")
    exponent = exponent.strip()
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    digits = digits.replace("_", "").lstrip("0")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if e and limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ParseError(f"invalid rational {text!r}: its exponent is beyond +/- {limit}")
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
