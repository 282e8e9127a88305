"""Reader-side backend: tag records looked up by either pseudonym tuple.

Lookup goes through one dict index from an IDS to the rows holding it as
their next or old IDS, so it costs the same at any fleet size.  The
collision rule is the documented one: next tuples before old ones, first
row by tag_label on a cross-tag IDS collision, with a warning.  The index
is kept by ``add`` and ``commit``, the only writers of ``ids``/``ids_old``;
changing those fields any other way leaves lookup stale.

It also holds the format of every record tagauth writes or reads: one
ordered field table per kind builds the writer's ``%`` template and the
regex of a canonical record (``record_formats``), and its kinds ``decode``
what ``json.loads`` gives.  A canonical JSONL line or ``RecordList`` file is
read by that regex, any other through ``json.loads`` and ``decode`` to the
same record or error.  Each write goes through a temp file of its own and a
rename, so neither a crash nor an overlapping write leaves a torn file;
the next write of a path removes the temp files that killed writers left.

Single writer, any number of readers; the simulator serializes commits.
"""

import contextlib
import json
import logging
import os
import re
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, count
from json.encoder import encode_basestring_ascii

from .tagstate import NEXT as MATCH_NEXT, OLD as MATCH_OLD  # the tuple a lookup matched
from .tagstate import rotate
from .word96 import Word96, from_hex, to_hex

log = logging.getLogger(__name__)
_temp_ids = count()  # numbers each write_atomic call's temp file
_TEMP_FILE = re.compile(r"(.+)\.(\d+)\.\d+\.tmp")  # a write_atomic temp file: path, pid

STORE_FORMAT = "rfid-tagstore/1"

TUPLE_WORDS = ("ids", "k1", "k2", "ids_old", "k1_old", "k2_old")  # next and old tuples


@dataclass
class TagRecordRow:
    """Backend mirror of one tag: static id plus next and old tuples."""

    tag_label: str
    variant: str
    id: Word96
    ids: Word96
    k1: Word96
    k2: Word96
    ids_old: Word96
    k1_old: Word96
    k2_old: Word96


class Store:
    """In-memory row set with lookup by either IDS and JSON persistence."""

    def __init__(self) -> None:
        self.rows: dict[str, TagRecordRow] = {}
        # IDS -> the rows holding it as next or old IDS, each row once
        self._by_ids: dict[Word96, list[TagRecordRow]] = {}

    def add(self, row: TagRecordRow) -> None:
        if row.tag_label in self.rows:
            raise ValueError(f"duplicate tag label: {row.tag_label}")
        self.rows[row.tag_label] = row
        self._index(row)

    def lookup(self, ids: Word96, variant: str) -> tuple[TagRecordRow, str] | None:
        """Find the row announcing ``ids``: next tuples first, then old ones.

        Returns (row, which-tuple-matched) or None.  Cross-tag IDS
        collisions (possible only in contrived setups) resolve to the
        first row in tag_label order, with a warning.
        """
        held = self._by_ids.get(ids, ())
        if len(held) == 1 and held[0].variant == variant:  # one row holds it: no list
            row = held[0]
            return row, MATCH_NEXT if row.ids == ids else MATCH_OLD
        hits = [row for row in held if row.variant == variant]
        if not hits:
            return None
        if len(hits) > 1:
            log.warning("IDS %s matches %d rows; using first by label",
                        to_hex(ids), len(hits))
            hits.sort(key=lambda row: (row.ids != ids, row.tag_label))
        row = hits[0]
        return row, MATCH_NEXT if row.ids == ids else MATCH_OLD

    def commit(self, tag_label: str, staged: tuple[Word96, Word96, Word96],
               used: str = MATCH_NEXT) -> None:
        """Install the staged tuple after tag authentication succeeded.

        ``tagstate.rotate`` applies the rule the tag applies too: the tuple
        ``used`` names becomes old and ``staged`` becomes next.  The index
        changes only where the row's IDS pair does: the row leaves the list
        of the IDS it gives up and joins that of the staged one.
        """
        row = self.rows[tag_label]
        kept, dropped = (row.ids_old, row.ids) if used == MATCH_OLD else (row.ids, row.ids_old)
        new = staged[0]
        rotate(row, used, staged)
        by_ids = self._by_ids
        if dropped != kept and dropped != new:
            held = by_ids.pop(dropped)
            if len(held) > 1:
                by_ids[dropped] = [other for other in held if other is not row]
        if new != kept and new != dropped:
            held = by_ids.get(new)
            if held is None:
                by_ids[new] = [row]
            else:
                held.append(row)

    def _index(self, row: TagRecordRow) -> None:
        by_ids = self._by_ids
        for ids in (row.ids,) if row.ids == row.ids_old else (row.ids, row.ids_old):
            held = by_ids.get(ids)
            if held is None:
                by_ids[ids] = [row]
            else:
                held.append(row)

    def save(self, path: str) -> None:
        """Write the whole store, rows by label; atomic via write-then-rename."""
        _ROWS.save(path, (_ROWS.template % (
            encode_basestring_ascii(row.tag_label), encode_basestring_ascii(row.variant),
            to_hex(row.id), to_hex(row.ids), to_hex(row.k1), to_hex(row.k2),
            to_hex(row.ids_old), to_hex(row.k1_old), to_hex(row.k2_old))
            for row in map(self.rows.get, sorted(self.rows))))

    @classmethod
    def load(cls, path: str) -> "Store":
        """Read a saved store; a malformed file raises ValueError naming it."""
        store = cls()
        _ROWS.load(path, lambda values: store.add(TagRecordRow(**values)))
        return store


# -- record formats and file envelope -------------------------------------------

# A kind of field: its %-format slot, its regex, ``parse`` of an iterator of
# groups, and ``decode`` of a ``json.loads`` value at a key (named in an error)
Kind = namedtuple("Kind", "slot pattern parse decode")


def _decode_word(value, key: str) -> Word96:
    # ``from_hex`` is this module's, looked up at each call, which perfbench/tracing.py wraps
    try:
        return from_hex(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key}: not a canonical 96-bit hex word: {value!r}") from None


def exactly(kind: type):
    """The ``decode`` of a value that must be exactly ``kind`` (a bool is no int)."""
    def check(value, key: str):
        if type(value) is not kind:
            raise TypeError(f"{key} is not {kind.__name__}")
        return value
    return check


HEX = '"([0-9a-f]{24})"'  # ``int(text, 16)`` of a match is ``from_hex`` of it
WORD = Kind('"%s"', HEX, lambda groups: int(next(groups), 16), _decode_word)
STR = Kind("%s", r'"([^"\\\x00-\x1f]*)"', next, exactly(str))  # no escape: the text is the value

# A record's (start, between fields, after a key, end): JSONL, or indent=2 list item
COMPACT = ("{", ",", ":", "}")
LISTED = ("    {\n      ", ",\n      ", ": ", "\n    }")


def record_formats(fields, layout=COMPACT) -> tuple[str, str]:
    """The %-format and the regex of one JSON object of ``fields`` (key, kind)."""
    start, between, colon, end = layout
    return (start + between.join(f'"{key}"{colon}{kind.slot}' for key, kind in fields) + end,
            re.escape(start) + re.escape(between).join(
                f'"{key}"{re.escape(colon)}{kind.pattern}' for key, kind in fields)
            + re.escape(end))


def decode(fields, data, within: str = "") -> dict:
    """A copy of ``data`` with each of ``fields`` decoded by its kind, in table
    order; other keys pass through.  An error names the bad key (``outer.key``
    in a nested record, whose ``within`` is ``outer.``)."""
    if type(data) is not dict:
        raise TypeError(f"{within.rstrip('.') or 'entry'} is not an object")
    out = dict(data)
    for key, kind in fields:
        out[key] = kind.decode(out[key], within + key)
    return out


def parse_match(fields, match: re.Match) -> dict:
    """Each field's value from a canonical record's regex match."""
    groups = iter(match.groups())
    return {key: kind.parse(groups) for key, kind in fields}


class RecordList:
    """A file ``{"format": format_name, key: [record, ...]}`` of records whose
    ``fields`` are words and strings.  ``load`` matches a file in ``save``'s
    exact layout record by record, and takes any other through ``json.loads``
    and ``decode`` of the same table; both run ``build`` in ``parse_entries``."""

    def __init__(self, format_name: str, key: str, what: str, fields) -> None:
        self.format_name, self.key, self.what, self.fields = format_name, key, what, fields
        self.template, pattern = record_formats(fields, LISTED)
        self.pattern = re.compile(pattern)
        self.head = '{\n  "format": %s,\n  %s: [\n' % (json.dumps(format_name), json.dumps(key))

    def save(self, path: str, records) -> None:
        """Write the file of ``records``, an iterator of ``template`` texts; atomic."""
        first = next(records, None)
        if first is None:
            return save_envelope(path, self.format_name, **{self.key: []})
        write_atomic(path, chain((self.head, first), (",\n" + text for text in records),
                                ("\n  ]\n}\n",)))

    def load(self, path: str, build) -> list:
        """``build`` of each record's values, in file order."""
        text = read_text(path)
        matches = self._canonical(text)
        if matches is not None:
            return parse_entries(path, self.what, enumerate(matches),
                                 lambda match: build(parse_match(self.fields, match)))
        entries = load_envelope(path, self.format_name, text).get(self.key)
        if not isinstance(entries, list):
            raise ValueError(f"{path}: no {self.key} list")
        return parse_entries(path, self.what, enumerate(entries),
                             lambda entry: build(decode(self.fields, entry)))

    def _canonical(self, text: str) -> list | None:
        """The regex match of each record of a file ``save`` wrote, else None."""
        if not text.startswith(self.head):
            return None
        matches, pos = [], len(self.head)
        while match := self.pattern.match(text, pos):
            matches.append(match)
            pos = match.end()
            if not text.startswith(",\n", pos):
                return matches if text[pos:] == "\n  ]\n}\n" else None
            pos += 2
        return None


def write_atomic(path: str, chunks) -> None:
    """Write ``chunks`` via a new temp file of this call's own, renamed over
    ``path`` (of overlapping writes the last renamed wins, whole); a failure
    removes it and keeps ``path``.  After the rename, the temp files of
    ``path`` that writers no longer running left behind are removed."""
    tmp = f"{path}.{os.getpid()}.{next(_temp_ids)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    _remove_dead_temps(path)


def _remove_dead_temps(path: str) -> None:
    """Remove each ``<path>.<pid>.<n>.tmp`` whose pid names no process, as
    ``os.kill(pid, 0)`` raising ProcessLookupError says: a writer killed
    mid-write.  One of a live pid, or of a pid whose check raises anything
    else (PermissionError: a process of another user), stays.  POSIX only,
    since elsewhere ``os.kill`` ends the process it names."""
    if os.name != "posix":
        return
    folder, name = os.path.split(os.fspath(path))
    try:
        siblings = os.listdir(folder or ".")
    except OSError:
        return
    for sibling in siblings:
        match = _TEMP_FILE.fullmatch(sibling)
        if match is None or match[1] != name:
            continue
        try:
            os.kill(int(match[2]), 0)
        except ProcessLookupError:
            with contextlib.suppress(OSError):  # gone already, or not ours to remove
                os.remove(os.path.join(folder, sibling))
        except (OSError, OverflowError):
            pass


def save_envelope(path: str, format_name: str, **fields) -> None:
    """Write ``json.dumps({"format": format_name, **fields}, indent=2)`` + newline."""
    for key, value in fields.items():
        if type(value) is list and any(type(record) is not dict for record in value):
            raise TypeError(f"{key}: not a list of records")
    write_atomic(path, (json.dumps({"format": format_name, **fields}, indent=2), "\n"))


def json_loads(text: str):
    """``json.loads``; JSON nested past the recursion limit is a ValueError, as
    any other bad JSON, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None


@contextlib.contextmanager
def open_text(path: str):
    """``path`` open for reading as UTF-8; bytes read from it that are not
    UTF-8 are a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_text(path: str) -> str:
    """The text of ``path``, read through ``open_text``."""
    with open_text(path) as fh:
        return fh.read()


def load_envelope(path: str, format_name: str, text: str) -> dict:
    """The payload of the ``text`` of a ``save_envelope`` file at ``path``; not
    JSON or another format is a ValueError."""
    try:
        payload = json_loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != format_name:
        raise ValueError(f"{path}: not a {format_name} file")
    return payload


def parse_entries(path: str, what: str, numbered, parse) -> list:
    """``parse`` of each (number, entry) pair; a failure names file and entry."""
    parsed = []
    for number, entry in numbered:
        try:
            parsed.append(parse(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {what} {number}: malformed "
                             f"({type(exc).__name__}: {exc})") from None
    return parsed


_ROWS = RecordList(STORE_FORMAT, "rows", "row", [
    ("tag_label", STR), ("variant", STR), *[(key, WORD) for key in ("id",) + TUPLE_WORDS]])
