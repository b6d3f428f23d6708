"""Plain-text configuration files.

INI-style sections ``[system]``, ``[sweep]``, ``[output]``, which reject
unknown keys.  Every rate value accepts an optional unit suffix:

- ``Hz2pi``   value f means rate = 2*pi*f (ordinary frequency),
- ``kappa1``  multiples of the cavity-1 decay rate,
- ``omega_b`` multiples of the mechanical frequency,
- ``rad_s``   plain angular rate (the default for bare numbers unless
  ``units = Hz2pi`` is set in ``[system]``).

``kappa_1`` and ``omega_b`` themselves must be given in absolute units.
"""

from __future__ import annotations

import configparser
import math

from .params import NUMERIC_FIELDS, SHARED_FIELDS, PhysicalParams
from .sweep import SweepAxis, SweepSpec

TWO_PI = 2.0 * math.pi

RATE_KEYS = tuple(k for k in NUMERIC_FIELDS if k != "temperature_T") + (
    "epsilon_d",)
STRING_KEYS = tuple(k for k in SHARED_FIELDS if k != "epsilon_d")


class ConfigError(Exception):
    """Malformed configuration file."""


def _number(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r} for {key!r}")


def _parse_rate(text: str, default_unit: str, kappa_1=None, omega_b=None,
                *, key: str = "") -> float:
    parts = text.split()
    if len(parts) == 1:
        value, unit = parts[0], default_unit
    elif len(parts) == 2:
        value, unit = parts
    else:
        raise ConfigError(f"cannot parse rate {text!r} for {key!r}")
    number = _number(value, key)
    if unit == "rad_s":
        return number
    if unit == "Hz2pi":
        return TWO_PI * number
    if unit == "kappa1":
        if kappa_1 is None:
            raise ConfigError(f"{key!r} uses kappa1 units but kappa_1 "
                              "is not defined in absolute units")
        return number * kappa_1
    if unit == "omega_b":
        if omega_b is None:
            raise ConfigError(f"{key!r} uses omega_b units but omega_b "
                              "is not defined in absolute units")
        return number * omega_b
    raise ConfigError(f"unknown unit {unit!r} for {key!r}")


def _load(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case sensitive (Delta_1, J, ...)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return parser


def parse_system(section) -> PhysicalParams:
    """Build the PhysicalParams, drive included, of a [system] section."""
    default_unit = section.get("units", "rad_s")
    if default_unit not in ("rad_s", "Hz2pi"):
        raise ConfigError(f"units must be rad_s or Hz2pi, got "
                          f"{default_unit!r}")

    absolute = {}
    for key in ("kappa_1", "omega_b"):
        if key not in section:
            raise ConfigError(f"[system] is missing required key {key!r}")
        absolute[key] = _parse_rate(section[key], default_unit, key=key)
    kappa_1, omega_b = absolute["kappa_1"], absolute["omega_b"]

    values: dict = dict(absolute)
    eta = None
    for key in section:
        if key in ("units", "kappa_1", "omega_b"):
            continue
        if key in STRING_KEYS:
            values[key] = section[key].strip()
        elif key == "temperature_T":
            values[key] = _number(section[key], key)
        elif key == "eta":
            eta = _number(section[key], key)
        elif key in RATE_KEYS:
            values[key] = _parse_rate(section[key], default_unit, kappa_1,
                                      omega_b, key=key)
        else:
            raise ConfigError(f"unknown [system] key {key!r}")

    if eta is not None:
        if "gain_g" in values:
            raise ConfigError("give either eta or gain_g, not both")
        values["gain_g"] = values.get("kappa_2", kappa_1) - eta * kappa_1

    required = set(NUMERIC_FIELDS) - {"G_mb", "g_mb"}
    missing = sorted(required - values.keys())
    if missing:
        raise ConfigError(f"[system] is missing keys: {', '.join(missing)}")
    try:
        return PhysicalParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(section, *known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown [{section.name}] key {key!r}")


def _parse_axis(text: str, default_unit: str, kappa_1: float,
                omega_b: float) -> SweepAxis:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"axis must be 'name, start, stop, count': {text!r}")
    name = parts[0]
    plain = name in ("eta", "temperature_T")
    def conv(v):
        return _number(v, name) if plain else _parse_rate(
            v, default_unit, kappa_1, omega_b, key=name)
    try:
        return SweepAxis(name, conv(parts[1]), conv(parts[2]),
                         int(parts[3]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_links(text: str):
    links = []
    for item in filter(None, (s.strip() for s in text.split(","))):
        pieces = item.split(":")
        if len(pieces) == 2:
            target, source, factor = pieces[0], pieces[1], "1"
        elif len(pieces) == 3:
            target, source, factor = pieces
        else:
            raise ConfigError(f"link must be target:source[:factor]: {item!r}")
        links.append((target.strip(), source.strip(),
                      _number(factor, "links")))
    return tuple(links)


def load_config(path) -> dict:
    """Parse a config file into params, optional sweep spec and output.

    Returns a dict with keys ``params``, ``spec`` (None when no [sweep]
    section is present) and ``output`` (format, path).
    """
    parser = _load(path)
    if "system" not in parser:
        raise ConfigError("config file needs a [system] section")
    params = parse_system(parser["system"])
    default_unit = parser["system"].get("units", "rad_s")

    out = {"format": "csv", "path": None}
    if "output" in parser:
        section = parser["output"]
        _check_keys(section, "format", "path")
        out["format"] = section.get("format", "csv")
        out["path"] = section.get("path")
        if out["format"] not in ("csv", "jsonl"):
            raise ConfigError(f"unknown output format {out['format']!r}")

    spec = None
    if "sweep" in parser:
        section = parser["sweep"]
        axes = []
        for key in ("axis1", "axis2"):
            if key in section:
                axes.append(_parse_axis(section[key], default_unit,
                                        params.kappa_1, params.omega_b))
        if not axes:
            raise ConfigError("[sweep] needs axis1 (and optionally axis2)")
        _check_keys(section, "axis1", "axis2", "quantities", "links")
        quantities = tuple(
            q.strip() for q in section.get("quantities", "all").split(",")
            if q.strip())
        links = _parse_links(section.get("links", ""))
        try:
            spec = SweepSpec(base=params, axes=tuple(axes),
                             quantities=quantities, links=links,
                             output_format=out["format"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return {"params": params, "spec": spec, "output": out}
