"""Pipeline configuration: dataclasses, JSON round trip, presets.

A PipelineConfig carries every parameter of both stages plus the
framing setup, serializes losslessly to a JSON document, and ships in
three bundled presets (communication, voice-trigger, multimedia).
The dataclass fields and their annotations are the schema, which the
JSON codec walks. Unknown or missing keys are rejected with the
offending dotted key named. Command-line overrides address any leaf
by its dotted key.
"""

import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, refuse_huge_integers
from .framing import FrameConfig
from .gain import GainParams
from .noise_tracking import PerBand, TrackerParams

PRESET_DIR_ENV = "DUALSTAGE_PRESET_DIR"

# most floats one stage's sliding minimum may hold in its one buffer,
# (window_len + 1) per band (8 MiB); the presets hold 385 * 33
MAX_TRACKER_STATE = 2**20

# keys of earlier schemas, each with what took its place
_RETIRED = {
    "subwindow_len": "set window_len to subwindow_len * num_subwindows",
    "num_subwindows": "set window_len to subwindow_len * num_subwindows",
    "scale_window_with_snr": "delete it; the window length never scales",
    "uses_snr_feed": "delete it; stage 2 takes the stage-1 SNR exactly when "
    "its tracker.alpha_snr_map is set",
}

# the scalar leaf types as JSON nouns; _words builds the rest from them
_NOUNS = {
    int: "integer",
    float: "number",
    str: "string",
    bool: "boolean",
    dict: "object",
}


@dataclass(frozen=True)
class StageConfig:
    """Tracker and gain settings for one suppression stage."""

    tracker: TrackerParams
    gains: GainParams


@dataclass(frozen=True)
class PipelineConfig:
    """Full parameter set for one stream; immutable once built."""

    preset_name: str
    frame: FrameConfig
    num_bands: int
    stage1: StageConfig
    stage2: StageConfig

    def __post_init__(self):
        refuse_huge_integers(self)
        if self.stage1.tracker.alpha_snr_map is not None:
            raise ConfigError("stage1.tracker.alpha_snr_map must be null; stage 1 has no SNR feed")
        if not 1 <= self.num_bands <= self.frame.num_bins:
            raise ConfigError(
                f"num_bands must lie in [1, {self.frame.num_bins}] (the bin count), "
                f"got {self.num_bands}"
            )
        for key, tp, value in _leaves(self):
            if tp == PerBand and isinstance(value, tuple) and len(value) != self.num_bands:
                raise ConfigError(
                    f"{key} has {len(value)} entries, expected num_bands = {self.num_bands}"
                )
        for name, stage in (("stage1", self.stage1), ("stage2", self.stage2)):
            state = (stage.tracker.window_len + 1) * self.num_bands
            if state > MAX_TRACKER_STATE:
                raise ConfigError(
                    f"{name}.tracker.window_len {stage.tracker.window_len} needs a "
                    f"sliding-minimum state of {state} floats over {self.num_bands} "
                    f"bands; at most {MAX_TRACKER_STATE} are allowed"
                )


def _leaves(obj, prefix=""):
    """(dotted key, annotation, value) for every leaf of a config dataclass."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name], value


def _unknown_key(key: str) -> ConfigError:
    hint = _RETIRED.get(key.rpartition(".")[2])
    return ConfigError(f"unknown config key {key!r}" + (f" (retired: {hint})" if hint else ""))


def _decode(tp, v, key: str):
    """The JSON value v, found at dotted key, as a value of annotation tp."""
    if dataclasses.is_dataclass(tp):
        return _decode_section(tp, v, key)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if isinstance(v, list):
            item_types = [args[0]] * len(v) if args[-1] is ... else args
            if len(item_types) == len(v):
                return tuple(_decode(t, x, key) for t, x in zip(item_types, v))
    elif args:  # a union: the first member that takes v
        for member in args:
            try:
                return _decode(member, v, key)
            except ConfigError:
                pass
    elif tp is float and type(v) in (int, float):
        try:
            return float(v)
        except OverflowError:  # an integer beyond the float range
            pass
    elif type(v) is tp:  # int, str or None; True is no integer here
        return v
    raise ConfigError(f"config key {key!r} must be {_words(tp)}, got {json.dumps(v, default=repr)}")


def _words(tp, plural: bool = False) -> str:
    """Annotation tp as the JSON values it takes, e.g. "null or a list
    of [number, number] pairs" or "a number or a list of numbers"."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if args[-1] is ...:
            return ("lists of " if plural else "a list of ") + _words(args[0], plural=True)
        items = ", ".join(_NOUNS[t] for t in args)
        noun = f"[{items}] " + ("pair" if len(args) == 2 else "list")
    elif args:  # a union; null reads first
        members = sorted(args, key=lambda t: t is not type(None))
        return " or ".join(_words(t, plural) for t in members)
    elif tp is type(None):
        return "null"
    else:
        noun = _NOUNS[tp]
    if plural:
        return noun + "s"
    return ("an " if noun[0] in "aeiou" else "a ") + noun


def _decode_section(cls, d, key: str):
    """Build dataclass cls from the JSON object d found at dotted key."""
    if not isinstance(d, dict):
        what = f"config section {key!r}" if key else "config document"
        raise ConfigError(f"{what} must be a JSON object")
    prefix = key + "." if key else ""
    names = [f.name for f in dataclasses.fields(cls)]
    for k in d:
        if k not in names:
            raise _unknown_key(prefix + str(k))
    for name in names:
        if name not in d:
            raise ConfigError(f"missing config key {prefix + name!r}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _decode(hints[name], d[name], prefix + name) for name in names})


def config_from_dict(d: dict) -> PipelineConfig:
    """Build a validated PipelineConfig from a plain dict."""
    return _decode_section(PipelineConfig, d, "")


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-dict form of a config; JSON-serializable, round-trip exact."""
    # the JSON round trip turns tuples into lists; a float's repr reads
    # back as the same float
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def load_config(path) -> PipelineConfig:
    """Read and validate a config JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(config_dumps(cfg))


def config_dumps(cfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def _preset_search_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get(PRESET_DIR_ENV)
    if env:
        dirs.append(Path(env))
    dirs.append(Path(str(resources.files("dualstage") / "presets")))
    return dirs


def list_presets() -> list[str]:
    """Names of every preset visible in the search path, sorted."""
    names = set()
    for d in _preset_search_dirs():
        if d.is_dir():
            names.update(p.stem for p in d.glob("*.json"))
    return sorted(names)


def load_preset(name: str) -> PipelineConfig:
    """Load a preset by name.

    A directory named by the DUALSTAGE_PRESET_DIR environment variable
    is searched before the bundled presets, so users can shadow them.
    """
    for d in _preset_search_dirs():
        candidate = d / f"{name}.json"
        if candidate.is_file():
            return load_config(candidate)
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")


def apply_overrides(cfg: PipelineConfig, assignments) -> PipelineConfig:
    """Apply dotted-key overrides like 'stage2.gains.mu=1.2'.

    Values are parsed as JSON when possible (numbers, true/false, null,
    lists) and fall back to bare strings; the rebuilt config is fully
    revalidated.
    """
    doc = config_to_dict(cfg)
    for raw in assignments:
        key, sep, value = raw.partition("=")
        if not sep:
            raise ConfigError(f"override {raw!r} must look like key.path=value")
        key = key.strip()
        parts = key.split(".")
        node = doc
        for part in parts:
            if not isinstance(node, dict) or part not in node:
                raise _unknown_key(key)
            parent, node = node, node[part]
        try:
            parsed = json.loads(value)
        except ValueError:  # not JSON, or an integer too long to convert
            parsed = value.strip()
        parent[parts[-1]] = parsed
    return config_from_dict(doc)
