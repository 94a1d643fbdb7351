"""Storage layer: tables, columns, rows, hash indexes."""

from __future__ import annotations

import dataclasses
import threading
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.db.errors import ColumnError, IntegrityError, TableError

#: Recognised column type names (MySQL-flavoured) and their Python checks.
_TYPE_CHECKS = {
    "INT": (int,),
    "INTEGER": (int,),
    "BIGINT": (int,),
    "FLOAT": (int, float),
    "DOUBLE": (int, float),
    "DECIMAL": (int, float),
    "NUMERIC": (int, float),
    "VARCHAR": (str,),
    "CHAR": (str,),
    "TEXT": (str,),
    "DATE": (str, int, float),
    "DATETIME": (str, int, float),
    "TIMESTAMP": (str, int, float),
}


@dataclasses.dataclass(frozen=True)
class Column:
    """A table column definition."""

    name: str
    type: str = "TEXT"
    primary_key: bool = False
    auto_increment: bool = False
    nullable: bool = True

    def __post_init__(self) -> None:
        base = self.type.split("(", 1)[0].upper()
        if base not in _TYPE_CHECKS:
            raise TableError(f"unsupported column type {self.type!r}")
        if self.auto_increment and base not in ("INT", "INTEGER", "BIGINT"):
            raise TableError(
                f"AUTO_INCREMENT requires an integer column, not {self.type!r}"
            )

    @property
    def base_type(self) -> str:
        return self.type.split("(", 1)[0].upper()

    def check_value(self, value: Any) -> Any:
        """Validate (and lightly coerce) a value for this column."""
        if value is None:
            if not self.nullable and not self.auto_increment:
                raise IntegrityError(f"column {self.name!r} is NOT NULL")
            return None
        expected = _TYPE_CHECKS[self.base_type]
        if isinstance(value, bool):
            # bool is an int subclass; accept for integer columns only.
            if int in expected:
                return int(value)
            raise IntegrityError(
                f"column {self.name!r} ({self.type}) cannot store bool"
            )
        if isinstance(value, expected):
            return value
        # Permit numeric strings into numeric columns (MySQL coerces).
        if int in expected and isinstance(value, str):
            try:
                return float(value) if float in expected else int(value)
            except ValueError:
                pass
        raise IntegrityError(
            f"column {self.name!r} ({self.type}) cannot store "
            f"{type(value).__name__} value {value!r}"
        )


class HashIndex:
    """An exact-match index: value -> set of row ids."""

    def __init__(self, name: str, column: str):
        self.name = name
        self.column = column
        self._buckets: Dict[Any, Set[int]] = {}

    def add(self, value: Any, row_id: int) -> None:
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> Set[int]:
        return set(self._buckets.get(value, ()))

    @property
    def buckets(self) -> Dict[Any, Set[int]]:
        """The live value -> row-id-set map; copy a set before iterating
        it, since a concurrent insert may grow it."""
        return self._buckets

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class Table:
    """Rows stored as dicts keyed by an internal row id.

    Concurrency control lives above this layer (the engine takes table
    locks per statement); the table itself only guards its
    auto-increment counter.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise TableError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate column names in table {name!r}")
        primary_keys = [c for c in columns if c.primary_key]
        if len(primary_keys) > 1:
            raise TableError(f"table {name!r} has multiple PRIMARY KEY columns")
        self.name = name
        self.columns: List[Column] = list(columns)
        self.column_names: List[str] = names
        self._columns_by_name: Dict[str, Column] = {c.name: c for c in columns}
        self.primary_key: Optional[str] = (
            primary_keys[0].name if primary_keys else None
        )
        self.rows: Dict[int, Dict[str, Any]] = {}
        self.indexes: Dict[str, HashIndex] = {}
        self._next_row_id = 1
        self.last_internal_row_id = 0
        self._auto_counter = 0
        self._counter_lock = threading.Lock()
        #: Bumped by every change to the rows or indexes, once the change
        #: is visible; the engine's result cache keys SELECT results on
        #: it.  The unlocked ``+= 1`` never loses a bump because a
        #: table's writers are already serialised: INSERT by the
        #: engine's per-table append latch, UPDATE and DELETE by the
        #: exclusive table lock, rollback by exclusive locks on every
        #: table; SQL CREATE INDEX is also a schema change, which the
        #: engine versions on its own.
        self.version = 0
        if self.primary_key is not None:
            self.create_index(f"pk_{name}", self.primary_key)

    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise ColumnError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    def create_index(self, index_name: str, column: str) -> HashIndex:
        self.column(column)  # validates existence
        if index_name in self.indexes:
            raise TableError(
                f"index {index_name!r} already exists on table {self.name!r}"
            )
        index = HashIndex(index_name, column)
        for row_id, row in self.rows.items():
            index.add(row[column], row_id)
        self.indexes[index_name] = index
        self.version += 1
        return index

    def index_on(self, column: str) -> Optional[HashIndex]:
        """Any index covering ``column``, or None."""
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    # ------------------------------------------------------------------
    def insert(self, values: Dict[str, Any]) -> int:
        """Insert one row; returns the auto-increment value if any,
        otherwise the internal row id."""
        row: Dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                row[column.name] = column.check_value(values[column.name])
            elif column.auto_increment:
                with self._counter_lock:
                    self._auto_counter += 1
                    row[column.name] = self._auto_counter
            else:
                row[column.name] = column.check_value(None)
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise ColumnError(
                f"table {self.name!r} has no columns {sorted(unknown)}"
            )
        if self.primary_key is not None:
            pk_value = row[self.primary_key]
            if pk_value is None:
                raise IntegrityError(
                    f"primary key {self.primary_key!r} of table "
                    f"{self.name!r} cannot be NULL"
                )
            pk_index = self.index_on(self.primary_key)
            assert pk_index is not None
            if pk_index.lookup(pk_value):
                raise IntegrityError(
                    f"duplicate primary key {pk_value!r} in table {self.name!r}"
                )
            auto_col = self._columns_by_name[self.primary_key]
            if auto_col.auto_increment and isinstance(pk_value, int):
                with self._counter_lock:
                    self._auto_counter = max(self._auto_counter, pk_value)
        row_id = self._next_row_id
        self._next_row_id += 1
        self.rows[row_id] = row
        self.last_internal_row_id = row_id
        for index in self.indexes.values():
            index.add(row[index.column], row_id)
        self.version += 1
        auto_columns = [c for c in self.columns if c.auto_increment]
        if auto_columns:
            return row[auto_columns[0].name]
        return row_id

    def update_row(self, row_id: int, changes: Dict[str, Any]) -> None:
        row = self.rows[row_id]
        try:
            for name, value in changes.items():
                column = self.column(name)
                new_value = column.check_value(value)
                if column.primary_key and new_value != row[name]:
                    pk_index = self.index_on(name)
                    assert pk_index is not None
                    if pk_index.lookup(new_value):
                        raise IntegrityError(
                            f"duplicate primary key {new_value!r} in table "
                            f"{self.name!r}"
                        )
                old_value = row[name]
                if old_value == new_value:
                    continue
                for index in self.indexes.values():
                    if index.column == name:
                        index.remove(old_value, row_id)
                        index.add(new_value, row_id)
                row[name] = new_value
        finally:
            # Also when a later column raises: the earlier ones changed.
            self.version += 1

    def delete_row(self, row_id: int) -> None:
        row = self.rows.pop(row_id)
        for index in self.indexes.values():
            index.remove(row[index.column], row_id)
        self.version += 1

    def scan(self) -> Iterator[Any]:
        """Iterate (row_id, row) pairs; snapshot to tolerate deletes."""
        return iter(list(self.rows.items()))


def table_versions(tables: Mapping[str, Table], names: Iterable[str]) -> Tuple:
    """``(table, version)`` of each named table, None for a missing one.

    Read before and after computing something from those tables, the two
    tuples are equal only if no table changed (see :attr:`Table.version`),
    was replaced or appeared in between."""
    return tuple([None if table is None else (table, table.version)
                  for table in map(tables.get, names)])
