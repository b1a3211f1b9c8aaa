"""A YAML-subset emitter whose output ``repro.util.yamlish.loads``
round-trips: the tests write config files with it."""

from typing import Any, List

from repro.util.yamlish import _BOOLEANS, _FLOAT_RE, _INT_RE, _NULLS, YamlError


def _needs_quoting(text: str) -> bool:
    if text == "":
        return True
    if text != text.strip():
        return True
    lowered = text.lower()
    if lowered in _BOOLEANS or lowered in _NULLS:
        return True
    if lowered in ("inf", "+inf", "-inf", ".inf", "-.inf", "nan", ".nan"):
        return True
    if _INT_RE.match(text) or (_FLOAT_RE.match(text) and any(c in text for c in ".eE")):
        return True
    return any(ch in text for ch in ":#{}[]\"'\n,&*!|>%@`")


def _dump_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        if _needs_quoting(value):
            escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
            return f'"{escaped}"'
        return value
    raise YamlError(f"cannot serialize scalar of type {type(value).__name__}")


def _dump(value: Any, indent: int, out: List[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            out.append(f"{pad}{{}}")
            return
        for key, item in value.items():
            key_text = _dump_scalar(key) if not isinstance(key, str) else (
                _dump_scalar(key) if _needs_quoting(key) else key
            )
            if isinstance(item, (dict, list)) and item:
                out.append(f"{pad}{key_text}:")
                _dump(item, indent + 2, out)
            else:
                if isinstance(item, (dict, list)):
                    rendered = "{}" if isinstance(item, dict) else "[]"
                else:
                    rendered = _dump_scalar(item)
                out.append(f"{pad}{key_text}: {rendered}")
        return
    if isinstance(value, list):
        if not value:
            out.append(f"{pad}[]")
            return
        for item in value:
            if isinstance(item, (dict, list)) and item:
                out.append(f"{pad}-")
                _dump(item, indent + 2, out)
            else:
                if isinstance(item, (dict, list)):
                    rendered = "{}" if isinstance(item, dict) else "[]"
                else:
                    rendered = _dump_scalar(item)
                out.append(f"{pad}- {rendered}")
        return
    out.append(f"{pad}{_dump_scalar(value)}")


def dumps(value: Any) -> str:
    """Serialize dicts/lists/scalars to the YAML subset ``loads`` reads."""
    out: List[str] = []
    _dump(value, 0, out)
    return "\n".join(out) + "\n"
