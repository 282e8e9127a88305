"""Reader-side backend: tag records looked up by either pseudonym tuple.

Lookup goes through one dict index from an IDS to the rows holding it as
their next or old IDS, so it costs the same at any fleet size.  The
collision rule is the documented one: next tuples before old ones, first
row by tag_label on a cross-tag IDS collision, with a warning.  The index
is kept by ``add`` and ``commit``, the only writers of ``ids``/``ids_old``;
changing those fields any other way leaves lookup stale.

It also holds the format of every record tagauth writes or reads:
``WordCodec`` puts each 96-bit word in canonical 24-hex form and back
(calling this module's ``to_hex``/``from_hex``, which the benchmark tracer
wraps), and ``save_envelope``/``load_envelope`` write and read the JSON
envelope ``{"format": F, ...}``.  JSON was chosen for diffability in tests.
The writer gives the bytes of ``json.dump(..., indent=2)`` but streams a
list of records (store rows, tag entries) one record at a time through the
C encoder, which ``json`` skips whenever ``indent`` is set.  Writes go
through a temp file and rename, so a crash never leaves a torn file
behind, and a write that fails removes its temp file.

Single writer, any number of readers; the simulator serializes commits.
"""

import contextlib
import json
import logging
import os
from dataclasses import dataclass

from .tagstate import NEXT as MATCH_NEXT, OLD as MATCH_OLD  # the tuple a lookup matched
from .tagstate import rotate
from .word96 import Word96, from_hex, to_hex

log = logging.getLogger(__name__)

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
        hits = [row for row in self._by_ids.get(ids, ()) if row.variant == variant]
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
        ``used`` names becomes old and ``staged`` becomes next.  The row
        leaves the index first and re-enters it under its new IDS pair.
        """
        row = self.rows[tag_label]
        for ids in {row.ids, row.ids_old}:
            held = self._by_ids.pop(ids)
            if len(held) > 1:
                self._by_ids[ids] = [other for other in held if other is not row]
        rotate(row, used, staged)
        self._index(row)

    def _index(self, row: TagRecordRow) -> None:
        for ids in {row.ids, row.ids_old}:
            self._by_ids.setdefault(ids, []).append(row)

    def save(self, path: str) -> None:
        """Write the whole store; atomic via write-then-rename."""
        save_envelope(path, STORE_FORMAT,
                      rows=[_ROW.encode(vars(self.rows[label])) for label in sorted(self.rows)])

    @classmethod
    def load(cls, path: str) -> "Store":
        """Read a saved store; a malformed file raises ValueError naming it."""
        store = cls()
        load_records(path, STORE_FORMAT, "rows", "row",
                     lambda entry: store.add(TagRecordRow(**_ROW.decode(entry))))
        return store


# -- record codec and file envelope ---------------------------------------------

class WordCodec:
    """The JSON form of one kind of record.

    ``words`` name the keys holding a 96-bit word, ``optional`` those
    holding a word or null, ``types`` the keys that must hold exactly a
    type (a bool is no int), and ``nested`` the keys holding null or an
    instance of another codec's ``record`` class.  Other keys pass through.
    """

    def __init__(self, words=(), optional=(), types=None, nested=None, record=None):
        self.words = tuple(words) + tuple(optional)
        self.optional = frozenset(optional)
        self.types = tuple((types or {}).items())
        self.nested = tuple((nested or {}).items())
        self.record = record

    def encode(self, values: dict) -> dict:
        """A copy of ``values`` with every word in canonical hex."""
        out = dict(values)
        for key in self.words:
            value = out[key]
            if value is not None or key not in self.optional:
                out[key] = to_hex(value)
        for key, codec in self.nested:
            if out[key] is not None:
                out[key] = codec.encode(vars(out[key]))
        return out

    def decode(self, data: dict, within: str = "") -> dict:
        """A copy of ``data`` with every word parsed and every type checked;
        an error names the bad key (``outer.key`` in a nested record)."""
        if type(data) is not dict:
            raise TypeError(f"{within.rstrip('.') or 'entry'} is not an object")
        out = dict(data)
        for key in self.words:
            value = out[key]
            if value is None and key in self.optional:
                continue
            try:
                out[key] = from_hex(value)
            except (TypeError, ValueError):
                raise bad_word(within + key, value) from None
        for key, kind in self.types:
            if type(out[key]) is not kind:
                raise TypeError(f"{within}{key} is not {kind.__name__}")
        for key, codec in self.nested:
            if out[key] is not None:
                out[key] = codec.record(**codec.decode(out[key], f"{within}{key}."))
        return out


def bad_word(field: str, value) -> ValueError:
    """The error for a value of ``field`` that is no canonical word."""
    return ValueError(f"{field}: not a canonical 96-bit hex word: {value!r}")


_ROW = WordCodec(("id",) + TUPLE_WORDS, types={"tag_label": str, "variant": str})


# Encodes one record of a list field with the C encoder (``json.dump`` with
# an indent runs the pure-Python one); the item separator puts each key on
# its own line at record depth, as indent=2 does.  A flat record holds no
# container, so there is no cycle to check for.
_RECORD = json.JSONEncoder(separators=(",\n      ", ": "), check_circular=False)


def save_envelope(path: str, format_name: str, **fields) -> None:
    """Write ``{"format": format_name, **fields}``; atomic via write-then-rename.

    The bytes are those of ``json.dump(payload, fh, indent=2)`` plus a
    newline.  A non-empty list field must hold flat records, dicts whose
    values are JSON scalars; each record is encoded and written on its own,
    so the file is never one string in memory.  Any other field is
    ``json.dumps(value, indent=2)`` indented one more level.  A failed
    write removes the temp file and leaves ``path`` as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(_envelope_chunks({"format": format_name, **fields}))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _envelope_chunks(payload: dict):
    """The text of ``json.dumps(payload, indent=2) + "\\n"``, piece by piece."""
    field_start = "{\n  "
    for key, value in payload.items():
        yield f"{field_start}{json.dumps(key)}: "
        field_start = ",\n  "
        if type(value) is not list or not value:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
            continue
        record_start = "[\n    "
        for record in value:
            if type(record) is not dict:
                raise TypeError(f"{key}: {record!r} is not a record")
            yield (f"{record_start}{{\n      {_RECORD.encode(record)[1:-1]}\n    }}"
                   if record else f"{record_start}{{}}")
            record_start = ",\n    "
        yield "\n  ]"
    yield "\n}\n"


def load_envelope(path: str, format_name: str) -> dict:
    """Read a ``save_envelope`` file; not JSON or another format is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != format_name:
        raise ValueError(f"{path}: not a {format_name} file")
    return payload


def load_records(path: str, format_name: str, key: str, what: str, parse) -> list:
    """``parse`` of each entry of the ``key`` list of a ``save_envelope`` file."""
    entries = load_envelope(path, format_name).get(key)
    if not isinstance(entries, list):
        raise ValueError(f"{path}: no {key} list")
    return parse_entries(path, what, enumerate(entries), parse)


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

