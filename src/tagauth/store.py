"""Reader-side backend: tag records looked up by either pseudonym tuple.

Lookup goes through two dict indexes, from next IDS and from old IDS to
the row's label, so it costs the same at any fleet size.  The collision
rule is the documented one: next tuples before old ones, first row by
tag_label on a cross-tag IDS collision, with a warning.  The indexes are
kept by ``add`` and ``commit``, the only writers of ``ids``/``ids_old``;
changing those fields any other way leaves lookup stale.

One JSON file per store, one object per row, every word in canonical
24-hex form.  JSON was chosen for diffability in tests; writes go through
a temp file and rename so a crash never leaves a torn store behind.

Single writer, any number of readers; the simulator serializes commits.
"""

import json
import logging
import os
from dataclasses import asdict, dataclass

from .tagstate import NEXT as MATCH_NEXT, OLD as MATCH_OLD  # the tuple a lookup matched
from .word96 import Word96, from_hex, to_hex

log = logging.getLogger(__name__)

STORE_FORMAT = "rfid-tagstore/1"

_WORD_FIELDS = ("id", "ids", "k1", "k2", "ids_old", "k1_old", "k2_old")


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
        # IDS -> label of the row holding it, or a sorted tuple of labels
        # when several rows share that IDS.
        self._next: dict[Word96, str | tuple[str, ...]] = {}
        self._old: dict[Word96, str | tuple[str, ...]] = {}

    def add(self, row: TagRecordRow) -> None:
        if row.tag_label in self.rows:
            raise ValueError(f"duplicate tag label: {row.tag_label}")
        self.rows[row.tag_label] = row
        _link(self._next, row.ids, row.tag_label)
        _link(self._old, row.ids_old, row.tag_label)

    def lookup(self, ids: Word96, variant: str) -> tuple[TagRecordRow, str] | None:
        """Find the row announcing ``ids``: next tuples first, then old ones.

        Returns (row, which-tuple-matched) or None.  Cross-tag IDS
        collisions (possible only in contrived setups) resolve to the
        first row in tag_label order, with a warning.
        """
        held = self._next.get(ids)
        if held is not None and held.__class__ is not tuple:
            old = self._old.get(ids)
            if old is None or old == held:
                row = self.rows[held]
                if row.variant == variant:
                    return row, MATCH_NEXT
        rows = self.rows
        next_labels = _labels(held)
        next_hits = [label for label in next_labels if rows[label].variant == variant]
        old_hits = [label for label in _labels(self._old.get(ids))
                    if label not in next_labels and rows[label].variant == variant]
        if len(next_hits) + len(old_hits) > 1:
            log.warning("IDS %s matches %d rows; using first by label",
                        to_hex(ids), len(next_hits) + len(old_hits))
        if next_hits:
            return rows[next_hits[0]], MATCH_NEXT
        if old_hits:
            return rows[old_hits[0]], MATCH_OLD
        return None

    def commit(self, tag_label: str, staged: tuple[Word96, Word96, Word96],
               used: str = MATCH_NEXT) -> None:
        """Install the staged tuple after tag authentication succeeded.

        The tuple the session actually ran on becomes the old tuple; for
        the normal next-side session that means next moves to old.
        """
        row = self.rows[tag_label]
        _unlink(self._next, row.ids, tag_label)
        _unlink(self._old, row.ids_old, tag_label)
        if used == MATCH_NEXT:
            row.ids_old, row.k1_old, row.k2_old = row.ids, row.k1, row.k2
        row.ids, row.k1, row.k2 = staged
        _link(self._next, row.ids, tag_label)
        _link(self._old, row.ids_old, tag_label)

    def save(self, path: str) -> None:
        """Write the whole store; atomic via write-then-rename."""
        payload = {
            "format": STORE_FORMAT,
            "rows": [_row_to_dict(self.rows[label]) for label in sorted(self.rows)],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "Store":
        """Read a saved store; a malformed file raises ValueError naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: not JSON ({exc})") from None
        if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
            raise ValueError(f"{path}: not a {STORE_FORMAT} file")
        if not isinstance(payload.get("rows"), list):
            raise ValueError(f"{path}: no rows list")
        store = cls()
        for number, entry in enumerate(payload["rows"]):
            try:
                store.add(_row_from_dict(entry))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {number}: malformed "
                                 f"({type(exc).__name__}: {exc})") from None
        return store


def _row_to_dict(row: TagRecordRow) -> dict:
    data = asdict(row)
    for field in _WORD_FIELDS:
        data[field] = to_hex(data[field])
    return data


def _row_from_dict(data: dict) -> TagRecordRow:
    kwargs = dict(data)
    for field in _WORD_FIELDS:
        kwargs[field] = from_hex(kwargs[field])
    for field in ("tag_label", "variant"):
        if not isinstance(kwargs[field], str):
            raise TypeError(f"{field} is not a string")
    return TagRecordRow(**kwargs)


def _labels(held: str | tuple[str, ...] | None) -> tuple[str, ...]:
    if held is None:
        return ()
    return held if held.__class__ is tuple else (held,)


def _link(index: dict, ids: Word96, label: str) -> None:
    held = index.get(ids)
    index[ids] = label if held is None else tuple(sorted(_labels(held) + (label,)))


def _unlink(index: dict, ids: Word96, label: str) -> None:
    rest = tuple(other for other in _labels(index[ids]) if other != label)
    if not rest:
        del index[ids]
    else:
        index[ids] = rest[0] if len(rest) == 1 else rest
