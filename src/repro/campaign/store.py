"""Queryable sqlite results store for campaigns.

The store is an *index*, not the ground truth: finished ``RunMetrics``
live in the content-addressed on-disk run cache (``repro.sim.cache``)
where every engine process already publishes them.  The sqlite database
maps campaign identity -> cells -> results so sweeps become queryable
(filter by any axis, compute speedups, export rows) and *incremental*
(``missing`` is a set difference, not a re-simulation).

Layout: a single database file, default ``<cache dir>/campaigns.sqlite``
(override with ``REPRO_CAMPAIGN_DB``).  Four tables::

    campaigns(campaign_id, name, spec_json, created_at)
    cells(campaign_id, cell_index, digest, params_json)
    results(campaign_id, cell_index, digest, status, attempts,
            source, wall_time_s, metrics_json, recorded_at)
    engine_stats(campaign_id, recorded_at, stats_json)

Writes are short idempotent transactions (``INSERT OR IGNORE`` /
guarded replace) under WAL with a busy timeout, so concurrent writers
on one host converge on one database; a completed (``ok``)
result is never overwritten by a later failure, and re-recording an
identical cached result is a no-op.  Metrics are stored as the same
JSON the disk cache uses, so a row queried from the store is
bitwise-identical to the cached run that produced it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim import cache as disk_cache
from repro.sim import iofaults
from repro.sim.config import ConfigurationError
from repro.sim.metrics import RunMetrics
from repro.campaign.grid import Campaign, CampaignCell, CampaignSpecError

#: Bump when the table shapes change incompatibly.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    created_at  REAL NOT NULL);
CREATE TABLE IF NOT EXISTS cells (
    campaign_id TEXT NOT NULL,
    cell_index  INTEGER NOT NULL,
    digest      TEXT NOT NULL,
    params_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, cell_index));
CREATE TABLE IF NOT EXISTS results (
    campaign_id  TEXT NOT NULL,
    cell_index   INTEGER NOT NULL,
    digest       TEXT NOT NULL,
    status       TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    source       TEXT NOT NULL DEFAULT 'simulated',
    wall_time_s  REAL NOT NULL DEFAULT 0.0,
    metrics_json TEXT,
    recorded_at  REAL NOT NULL,
    PRIMARY KEY (campaign_id, cell_index));
CREATE INDEX IF NOT EXISTS idx_results_digest ON results (digest);
CREATE TABLE IF NOT EXISTS engine_stats (
    campaign_id TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    stats_json  TEXT NOT NULL);
"""


def store_path() -> Path:
    """Database location: ``REPRO_CAMPAIGN_DB`` or ``<cache>/campaigns.sqlite``.

    Validated through the :class:`ConfigurationError` machinery: a set
    knob must not point at an existing directory (sqlite would fail with
    an unhelpful ``unable to open database file`` mid-sweep).
    """
    raw = os.environ.get("REPRO_CAMPAIGN_DB")
    if raw is None or not raw.strip():
        return disk_cache.cache_dir() / "campaigns.sqlite"
    path = Path(raw.strip())
    if path.is_dir():
        raise ConfigurationError(
            f"REPRO_CAMPAIGN_DB must name a database file, "
            f"got directory {path}")
    return path


@dataclass
class CampaignStatus:
    """Completion summary of one campaign (``repro campaign status``)."""

    campaign_id: str
    name: str
    total: int = 0
    ok: int = 0
    failed: int = 0

    @property
    def missing(self) -> int:
        return self.total - self.ok

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.ok == self.total

    def describe(self) -> str:
        state = "complete" if self.complete else "incomplete"
        line = (f"campaign {self.name} [{self.campaign_id}]: "
                f"{self.ok}/{self.total} cells done ({state})")
        if self.failed:
            line += f" | {self.failed} failed"
        return line


class CampaignStore:
    """One connection to the campaign results database.

    ``read_only=True`` opens a query-only view of a store that another
    process may be actively writing: no mkdir, no schema creation, no
    WAL-mode pragma, and every mutating method raises.  The connection
    first tries a true ``mode=ro`` sqlite URI; if sqlite cannot
    initialise WAL access that way (a reader may need to create the
    ``-shm`` index when the last writer crashed — the classic
    SQLITE_READONLY_CANTINIT gap), it falls back to an ordinary file
    handle hardened with ``PRAGMA query_only=ON``, which sqlite enforces
    for the lifetime of the connection.  Either way a live sweep's rows
    are visible mid-run and the store's contents are never mutated.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 read_only: bool = False):
        self.path = Path(path) if path is not None else store_path()
        self.read_only = read_only
        if read_only:
            if not self.path.exists():
                raise ConfigurationError(
                    f"no campaign database at {self.path} "
                    f"(read-only mode never creates one)")
            self._conn = self._connect_read_only()
            return
        iofaults.check("store.open")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))

    def _connect_read_only(self) -> sqlite3.Connection:
        uri = f"file:{self.path}?mode=ro"
        try:
            conn = sqlite3.connect(uri, uri=True, timeout=30.0)
            # Probe immediately: WAL recovery problems only surface on
            # the first read, not at connect time.
            conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone()
            return conn
        except sqlite3.OperationalError:
            conn = sqlite3.connect(str(self.path), timeout=30.0)
            conn.execute("PRAGMA query_only=ON")
            return conn

    def _guard_write(self, operation: str) -> None:
        if self.read_only:
            raise ConfigurationError(
                f"cannot {operation}: store opened read-only "
                f"({self.path})")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration --------------------------------------------------

    def register(self, campaign: Campaign) -> List[CampaignCell]:
        """Idempotently record the campaign identity and its cell grid."""
        self._guard_write("register a campaign")
        iofaults.check("store.commit")
        cells = campaign.cells()
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns "
                "(campaign_id, name, spec_json, created_at) "
                "VALUES (?, ?, ?, ?)",
                (campaign.campaign_id, campaign.name,
                 json.dumps(campaign.to_dict(), sort_keys=True),
                 time.time()))
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells "
                "(campaign_id, cell_index, digest, params_json) "
                "VALUES (?, ?, ?, ?)",
                [(campaign.campaign_id, cell.index, cell.digest,
                  json.dumps(cell.param_dict(), sort_keys=True))
                 for cell in cells])
        return cells

    def campaigns(self) -> List[Dict[str, object]]:
        rows = self._conn.execute(
            "SELECT campaign_id, name, created_at FROM campaigns "
            "ORDER BY created_at").fetchall()
        return [{"campaign_id": r[0], "name": r[1], "created_at": r[2]}
                for r in rows]

    def campaign(self, campaign_id: str) -> Campaign:
        """A registered campaign rebuilt from its stored spec (KeyError
        when unknown, ValueError when the spec no longer parses)."""
        row = self._conn.execute(
            "SELECT spec_json FROM campaigns WHERE campaign_id = ?",
            (campaign_id,)).fetchone()
        if row is None:
            raise KeyError(campaign_id)
        return Campaign.from_dict(json.loads(row[0]))

    # -- recording -----------------------------------------------------

    def record(self, campaign_id: str, cell: CampaignCell, status: str,
               metrics: Optional[RunMetrics] = None, attempts: int = 0,
               source: str = "simulated",
               wall_time_s: float = 0.0) -> None:
        """Record one cell outcome; an ``ok`` row is never downgraded."""
        self._guard_write("record a result")
        iofaults.check("store.commit")
        metrics_json = (json.dumps(disk_cache.metrics_to_dict(metrics),
                                   sort_keys=True)
                        if metrics is not None else None)
        with self._conn:
            existing = self._conn.execute(
                "SELECT status FROM results "
                "WHERE campaign_id = ? AND cell_index = ?",
                (campaign_id, cell.index)).fetchone()
            if existing is not None and existing[0] == "ok" \
                    and status != "ok":
                return
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(campaign_id, cell_index, digest, status, attempts, "
                " source, wall_time_s, metrics_json, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (campaign_id, cell.index, cell.digest, status, attempts,
                 source, wall_time_s, metrics_json, time.time()))

    def record_engine_stats(self, campaign_id: str,
                            stats: Mapping[str, object]) -> None:
        self._guard_write("record engine stats")
        iofaults.check("store.commit")
        with self._conn:
            self._conn.execute(
                "INSERT INTO engine_stats "
                "(campaign_id, recorded_at, stats_json) VALUES (?, ?, ?)",
                (campaign_id, time.time(),
                 json.dumps(dict(stats), sort_keys=True)))

    def engine_stats_rows(self, campaign_id: str) -> List[dict]:
        rows = self._conn.execute(
            "SELECT recorded_at, stats_json FROM engine_stats "
            "WHERE campaign_id = ? ORDER BY recorded_at",
            (campaign_id,)).fetchall()
        return [dict(json.loads(r[1]), recorded_at=r[0]) for r in rows]

    # -- incremental state ---------------------------------------------

    def done_indices(self, campaign_id: str) -> Dict[int, str]:
        """cell_index -> status for every recorded result."""
        rows = self._conn.execute(
            "SELECT cell_index, status FROM results "
            "WHERE campaign_id = ?", (campaign_id,)).fetchall()
        return {r[0]: r[1] for r in rows}

    def missing(self, campaign: Campaign,
                cells: Optional[Sequence[CampaignCell]] = None
                ) -> List[CampaignCell]:
        """Cells with no ``ok`` result yet (failed ones count as missing,
        so a fresh ``run_missing`` retries them)."""
        done = self.done_indices(campaign.campaign_id)
        cells = campaign.cells() if cells is None else cells
        return [cell for cell in cells if done.get(cell.index) != "ok"]

    def sync_from_cache(self, campaign: Campaign,
                        cells: Optional[Sequence[CampaignCell]] = None
                        ) -> int:
        """Ingest results other processes published to the disk cache.

        This is what lets a killed-and-restarted sweep, or one whose
        cells ran on ``repro serve`` replicas over the shared cache dir,
        converge on one complete store with zero re-simulation: any cell
        whose digest already resolves in the content-addressed cache is
        recorded as done without touching the engine.
        """
        self._guard_write("sync from the disk cache")
        ingested = 0
        for cell in self.missing(campaign, cells):
            metrics = disk_cache.load(cell.key, cell.digest)
            if metrics is not None:
                self.record(campaign.campaign_id, cell, "ok",
                            metrics=metrics, source="disk",
                            wall_time_s=metrics.wall_time_s)
                ingested += 1
        return ingested

    def status(self, campaign: Campaign) -> CampaignStatus:
        done = self.done_indices(campaign.campaign_id)
        total = len(campaign.cells())
        ok = sum(1 for s in done.values() if s == "ok")
        failed = sum(1 for s in done.values() if s != "ok")
        return CampaignStatus(campaign_id=campaign.campaign_id,
                              name=campaign.name, total=total, ok=ok,
                              failed=failed)

    # -- queries -------------------------------------------------------

    def rows(self, campaign: Campaign,
             where: Optional[Mapping[str, object]] = None,
             metrics_fields: Optional[Sequence[str]] = None
             ) -> List[Dict[str, object]]:
        """Result rows as dicts: axis params + status + metric columns.

        ``where`` filters on axis values; ``metrics_fields`` selects
        which ``RunMetrics`` fields to flatten into the row (default:
        all scalar fields).
        """
        fetched = self._conn.execute(
            "SELECT c.cell_index, c.params_json, r.status, r.source, "
            "       r.attempts, r.wall_time_s, r.metrics_json "
            "FROM cells c LEFT JOIN results r "
            "  ON r.campaign_id = c.campaign_id "
            " AND r.cell_index = c.cell_index "
            "WHERE c.campaign_id = ? ORDER BY c.cell_index",
            (campaign.campaign_id,)).fetchall()
        rows: List[Dict[str, object]] = []
        for (index, params_json, status, source, attempts, wall_s,
             metrics_json) in fetched:
            params = json.loads(params_json)
            if where and not all(params.get(k) == v
                                 for k, v in where.items()):
                continue
            row: Dict[str, object] = {"cell_index": index}
            row.update(params)
            row["status"] = status if status is not None else "missing"
            row["source"] = source
            row["attempts"] = attempts
            row["wall_time_s"] = wall_s
            if metrics_json:
                metrics = json.loads(metrics_json)
                fields = (metrics_fields if metrics_fields is not None
                          else [k for k, v in metrics.items()
                                if isinstance(v, (int, float, str))])
                for name in fields:
                    if name in metrics:
                        row[name] = metrics[name]
            rows.append(row)
        return rows

    def metrics_for(self, campaign: Campaign,
                    where: Optional[Mapping[str, object]] = None
                    ) -> Dict[int, RunMetrics]:
        """cell_index -> typed RunMetrics for completed cells."""
        fetched = self._conn.execute(
            "SELECT c.cell_index, c.params_json, r.metrics_json "
            "FROM cells c JOIN results r "
            "  ON r.campaign_id = c.campaign_id "
            " AND r.cell_index = c.cell_index "
            "WHERE c.campaign_id = ? AND r.status = 'ok' "
            "ORDER BY c.cell_index",
            (campaign.campaign_id,)).fetchall()
        out: Dict[int, RunMetrics] = {}
        for index, params_json, metrics_json in fetched:
            if where:
                params = json.loads(params_json)
                if not all(params.get(k) == v for k, v in where.items()):
                    continue
            if metrics_json:
                out[index] = disk_cache.metrics_from_dict(
                    json.loads(metrics_json))
        return out

    def speedup_rows(self, campaign: Campaign,
                     baseline_axis: str = "variant",
                     baseline_value: object = "original",
                     where: Optional[Mapping[str, object]] = None
                     ) -> List[Dict[str, object]]:
        """Per-cell IPC speedups over the cell's baseline twin.

        The baseline twin of a cell is the cell with identical params
        except ``baseline_axis == baseline_value`` — e.g. with the Fig. 9
        grid, each (workload, prefetcher, variant) cell is divided by its
        (workload, prefetcher, original) partner.  Rows for cells whose
        twin is missing (or for the baseline cells themselves) are
        omitted.
        """
        fetched = self._conn.execute(
            "SELECT c.params_json, r.metrics_json "
            "FROM cells c JOIN results r "
            "  ON r.campaign_id = c.campaign_id "
            " AND r.cell_index = c.cell_index "
            "WHERE c.campaign_id = ? AND r.status = 'ok' "
            "ORDER BY c.cell_index",
            (campaign.campaign_id,)).fetchall()
        baselines: Dict[tuple, float] = {}
        targets: List[tuple] = []
        for params_json, metrics_json in fetched:
            if not metrics_json:
                continue
            params = json.loads(params_json)
            if baseline_axis not in params:
                raise CampaignSpecError(
                    f"campaign {campaign.name!r} has no axis "
                    f"{baseline_axis!r} to baseline on")
            ipc = json.loads(metrics_json).get("ipc", 0.0)
            coords = tuple(sorted((k, v) for k, v in params.items()
                                  if k != baseline_axis))
            if params[baseline_axis] == baseline_value:
                baselines[coords] = ipc
            else:
                targets.append((params, coords, ipc))
        rows: List[Dict[str, object]] = []
        for params, coords, ipc in targets:
            if where and not all(params.get(k) == v
                                 for k, v in where.items()):
                continue
            base_ipc = baselines.get(coords)
            if base_ipc is None or not base_ipc:
                continue
            row = dict(params)
            row["ipc"] = ipc
            row["baseline_ipc"] = base_ipc
            row["speedup"] = ipc / base_ipc
            rows.append(row)
        return rows

    # -- export --------------------------------------------------------

    def export(self, campaign: Campaign, fmt: str = "json",
               where: Optional[Mapping[str, object]] = None) -> str:
        """Render result rows as a JSON array or a CSV document."""
        rows = self.rows(campaign, where=where)
        if fmt == "json":
            return json.dumps(rows, indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            if not rows:
                return ""
            columns: List[str] = []
            for row in rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=columns,
                                    restval="")
            writer.writeheader()
            writer.writerows(rows)
            return buffer.getvalue()
        raise CampaignSpecError(
            f"unknown export format {fmt!r} (expected json or csv)")
