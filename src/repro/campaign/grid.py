"""Declarative parameter grids: a campaign is the paper evaluation's
"giant nested loop" turned into data.

A :class:`Campaign` names an ordered set of *axes* — lists of values for
any :class:`~repro.sim.runner.RunRequest` field (workload, prefetcher,
variant, l1d, n_accesses, ...) or any :class:`~repro.sim.config.
SystemConfig` attribute addressed by dotted path (``llc.size_bytes``,
``dram.transfer_rate_mts``, ``ppm_enabled``) — plus *fixed* values
applied to every cell and *excludes* that drop unwanted combinations.

The grid expands deterministically (itertools.product in axis
declaration order) into :class:`CampaignCell`\\ s.  Each cell's
parameters pass through :func:`~repro.sim.runner.parse_run_request`, the
rule ``repro serve`` reads a ``/submit`` body with, so a typo'd value
fails the expansion, and the cell carries the resolved ``RunRequest``,
its engine fingerprint ``key`` and the same content-address ``digest``
the on-disk run cache uses.  That shared address is the whole
coordination model of the campaign layer: any process that simulated a
cell — this host, or a ``repro serve`` replica sharing the cache
directory — has already published its result under the cell's digest.

Campaign declarations are JSON round-trippable (``save``/``load``) so a
grid can be declared once from the CLI and then driven by any number of
``repro campaign run`` invocations, locally or through replicas
(``--serve``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.sim import cache as disk_cache
from repro.sim.config import SystemConfig
from repro.sim.runner import (
    REQUEST_AXES,
    RequestError,
    RunRequest,
    parse_run_request,
    resolve_config_attr,
)


class CampaignSpecError(RequestError):
    """A campaign declaration is malformed (bad axis, value, or exclude)."""


#: JSON-safe scalar types an axis value may take.
_SCALARS = (str, int, float, bool)


def coerce_value(text: str):
    """Parse one CLI-provided axis value: bool, int, float, else string."""
    lowered = text.strip()
    if lowered.lower() in ("true", "false"):
        return lowered.lower() == "true"
    for kind in (int, float):
        try:
            return kind(lowered)
        except ValueError:
            continue
    return lowered


def _check_scalar(axis: str, value) -> None:
    if not isinstance(value, _SCALARS):
        raise CampaignSpecError(
            f"axis {axis!r}: value {value!r} is not a JSON scalar "
            f"(str/int/float/bool)")


@dataclass(frozen=True)
class CampaignCell:
    """One fully-resolved point of the grid."""

    index: int                    # position in deterministic expansion order
    params: Tuple[Tuple[str, object], ...]   # (axis, value) in axis order
    request: RunRequest
    key: tuple                    # complete engine fingerprint
    digest: str                   # disk-cache content address of `key`

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def matches(self, where: Mapping[str, object]) -> bool:
        """True when every (axis, value) pair of *where* holds here."""
        params = self.param_dict()
        return all(params.get(k) == v for k, v in where.items())

    def label(self) -> str:
        return "/".join(str(v) for _, v in self.params)

    def submit_body(self) -> dict:
        """This cell's ``repro serve`` ``/submit`` body, its run length
        pinned against the replica's ``REPRO_SCALE``."""
        return dict(_body(self.params), n_accesses=self.request.n_accesses)


def _body(params: Sequence[Tuple[str, object]]) -> dict:
    """The parser's form of a parameter point: request axes at the top
    level, dotted SystemConfig paths under ``config``."""
    body: Dict[str, object] = {"config": {}}
    for name, value in params:
        (body if name in REQUEST_AXES else body["config"])[name] = value
    return body


@dataclass
class Campaign:
    """A declared parameter sweep: axes x fixed values, minus excludes."""

    name: str
    axes: Dict[str, List]
    fixed: Dict[str, object] = field(default_factory=dict)
    excludes: List[Dict[str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        if not self.name or not str(self.name).strip():
            raise CampaignSpecError("campaign needs a non-empty name")
        if not self.axes:
            raise CampaignSpecError(
                f"campaign {self.name!r} declares no axes")
        for axis, values in self.axes.items():
            values = list(values)
            if not values:
                raise CampaignSpecError(
                    f"axis {axis!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise CampaignSpecError(
                    f"axis {axis!r} repeats a value")
            for value in values:
                _check_scalar(axis, value)
        for name, value in self.fixed.items():
            if name in self.axes:
                raise CampaignSpecError(
                    f"{name!r} is both an axis and a fixed value")
            _check_scalar(name, value)
        probe = SystemConfig()
        for name in [*self.axes, *self.fixed]:
            if name not in REQUEST_AXES:
                try:
                    resolve_config_attr(probe, name)
                except RequestError as exc:
                    raise CampaignSpecError(str(exc)) from exc
        known = set(self.axes) | set(self.fixed)
        for exclude in self.excludes:
            if not exclude:
                raise CampaignSpecError("empty exclude clause")
            for key in exclude:
                if key not in known:
                    raise CampaignSpecError(
                        f"exclude references unknown axis {key!r}")

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"name": self.name,
                "axes": {k: list(v) for k, v in self.axes.items()},
                "fixed": dict(self.fixed),
                "excludes": [dict(e) for e in self.excludes]}

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        try:
            return cls(name=data["name"], axes=dict(data["axes"]),
                       fixed=dict(data.get("fixed", {})),
                       excludes=[dict(e)
                                 for e in data.get("excludes", [])])
        except (KeyError, TypeError, AttributeError) as exc:
            raise CampaignSpecError(
                f"malformed campaign spec: {exc}") from exc

    @property
    def campaign_id(self) -> str:
        """Deterministic identity of this declaration (spec digest)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- persistence ---------------------------------------------------

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "Campaign":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise CampaignSpecError(f"no campaign spec at {path}") from None
        except (OSError, ValueError) as exc:
            raise CampaignSpecError(
                f"unreadable campaign spec {path}: {exc}") from exc
        return cls.from_dict(data)

    # -- expansion -----------------------------------------------------

    def _excluded(self, params: Dict[str, object]) -> bool:
        return any(all(params.get(k) == v for k, v in exclude.items())
                   for exclude in self.excludes)

    def _iter_params(self) -> Iterator[Dict[str, object]]:
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            if not self._excluded(params):
                yield params

    def cells(self) -> List[CampaignCell]:
        """Deterministic expansion of the grid into resolved cells.

        Cell order — and therefore ``index`` — is a pure function of the
        declaration, so every process that loads the same spec agrees on
        the numbering without coordination.  Each cell is parsed as a
        daemon parses its ``/submit`` body, so its key is the one a
        replica computes for it; a cell the parser rejects raises
        :class:`CampaignSpecError`.
        """
        cells: List[CampaignCell] = []
        ordered_names = list(self.fixed) + list(self.axes)
        for index, point in enumerate(self._iter_params()):
            params = tuple((n, point[n]) for n in ordered_names)
            try:
                request = parse_run_request(_body(params))
            except RequestError as exc:
                raise CampaignSpecError(f"cell {point!r}: {exc}") from exc
            key = request.key()
            cells.append(CampaignCell(
                index=index, params=params, request=request, key=key,
                digest=disk_cache.key_digest(key)))
        if not cells:
            raise CampaignSpecError(
                f"campaign {self.name!r}: excludes eliminate every cell")
        return cells

    @property
    def n_cells(self) -> int:
        return len(self.cells())

    def describe(self) -> str:
        axis_rows = [f"  {name}: {len(values)} value(s)"
                     for name, values in self.axes.items()]
        lines = [f"campaign  : {self.name}",
                 f"id        : {self.campaign_id}",
                 f"cells     : {self.n_cells}"]
        if self.fixed:
            lines.append(f"fixed     : "
                         + ", ".join(f"{k}={v}"
                                     for k, v in self.fixed.items()))
        if self.excludes:
            lines.append(f"excludes  : {len(self.excludes)} clause(s)")
        return "\n".join(lines + ["axes:"] + axis_rows)


def parse_assignment(text: str) -> Tuple[str, List]:
    """Parse one CLI ``--axis name=v1,v2`` argument."""
    name, sep, raw = text.partition("=")
    name = name.strip()
    if not sep or not name or not raw.strip():
        raise CampaignSpecError(
            f"expected name=value[,value...], got {text!r}")
    return name, [coerce_value(part) for part in raw.split(",")
                  if part.strip()]


def parse_where(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse CLI ``k=v`` filter pairs into a where-dict."""
    where: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise CampaignSpecError(
                f"expected key=value, got {pair!r}")
        where[key.strip()] = coerce_value(value)
    return where
