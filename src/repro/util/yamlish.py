"""A minimal YAML-subset parser.

The paper's workflow is configured "through a locally available YAML file"
(Section III).  PyYAML is not available offline, so this module implements
the subset of YAML that workflow configurations actually use:

* nested block mappings and block sequences (indentation-scoped),
* flow-style lists (``[a, b, c]``) and mappings (``{a: 1}``),
* scalars: strings (bare, single- and double-quoted), integers, floats,
  booleans (``true``/``false``), ``null``/``~``,
* ``#`` comments and blank lines,
* multi-document input is *not* supported (configs are single documents).

This is intentionally *not* a general YAML implementation: anchors, tags,
block scalars, and multiline flow collections raise :class:`YamlError`.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple

__all__ = ["loads", "YamlError"]


class YamlError(ValueError):
    """Raised when input is outside the supported YAML subset."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "on": True, "off": False}
_NULLS = {"null", "~", ""}
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_FLOAT_RE = re.compile(r"^[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?$")
# Bare keys: any run of characters without YAML structural meaning.
_KEY_RE = re.compile(r"^([^:#{}\[\],&*!|>'\"]+?)\s*:(\s|$)")


def _match_key(content: str, line_no: int):
    """Split ``content`` into (key_token, rest) if it starts a mapping entry.

    Handles bare keys and single/double-quoted keys.  Returns ``None`` when
    the line does not look like ``key: ...``.
    """
    if content[:1] in ('"', "'"):
        quote = content[0]
        end = 1
        while end < len(content):
            if content[end] == quote:
                if quote == "'" and content[end + 1 : end + 2] == "'":
                    end += 2
                    continue
                break
            if quote == '"' and content[end] == "\\":
                end += 2
                continue
            end += 1
        else:
            return None
        after = content[end + 1 :]
        match = re.match(r"^\s*:(\s|$)", after)
        if match is None:
            return None
        return content[: end + 1], after[match.end() :].strip()
    match = _KEY_RE.match(content)
    if match is None:
        return None
    return match.group(1), content[match.end(1) + 1 :].strip()


class _Line:
    __slots__ = ("indent", "content", "no")

    def __init__(self, indent: int, content: str, no: int):
        self.indent = indent
        self.content = content
        self.no = no


def _strip_comment(text: str) -> str:
    """Remove a trailing comment, respecting quoted strings."""
    in_single = False
    in_double = False
    for i, ch in enumerate(text):
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        elif ch == "#" and not in_single and not in_double:
            if i == 0 or text[i - 1] in " \t":
                return text[:i].rstrip()
    return text.rstrip()


def _tokenize(text: str) -> List[_Line]:
    lines: List[_Line] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", no)
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append(_Line(indent, stripped.strip(), no))
    return lines


def _parse_scalar(token: str, line_no: int) -> Any:
    token = token.strip()
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise YamlError(f"unterminated double-quoted string: {token!r}", line_no)
        body = token[1:-1]
        return body.replace('\\"', '"').replace("\\n", "\n").replace("\\t", "\t").replace("\\\\", "\\")
    if token.startswith("'"):
        if not token.endswith("'") or len(token) < 2:
            raise YamlError(f"unterminated single-quoted string: {token!r}", line_no)
        return token[1:-1].replace("''", "'")
    lowered = token.lower()
    if lowered in _NULLS:
        return None
    if lowered in _BOOLEANS:
        return _BOOLEANS[lowered]
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token) and any(c in token for c in ".eE"):
        return float(token)
    if lowered in ("inf", "+inf", ".inf"):
        return float("inf")
    if lowered in ("-inf", "-.inf"):
        return float("-inf")
    if lowered in ("nan", ".nan"):
        return float("nan")
    return token


def _split_flow_items(body: str, line_no: int) -> List[str]:
    items: List[str] = []
    depth = 0
    in_single = False
    in_double = False
    current = []
    for ch in body:
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        if not in_single and not in_double:
            if ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
                if depth < 0:
                    raise YamlError("unbalanced brackets in flow collection", line_no)
            elif ch == "," and depth == 0:
                items.append("".join(current))
                current = []
                continue
        current.append(ch)
    if in_single or in_double:
        raise YamlError("unterminated quote in flow collection", line_no)
    if depth != 0:
        raise YamlError("unbalanced brackets in flow collection", line_no)
    tail = "".join(current).strip()
    if tail or items:
        items.append(tail)
    return [item.strip() for item in items if item.strip() or item == ""]


def _parse_value(token: str, line_no: int) -> Any:
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise YamlError("flow sequences must close on the same line", line_no)
        body = token[1:-1].strip()
        if not body:
            return []
        return [_parse_value(item, line_no) for item in _split_flow_items(body, line_no)]
    if token.startswith("{"):
        if not token.endswith("}"):
            raise YamlError("flow mappings must close on the same line", line_no)
        body = token[1:-1].strip()
        result = {}
        if not body:
            return result
        for item in _split_flow_items(body, line_no):
            if ":" not in item:
                raise YamlError(f"flow mapping entry lacks ':': {item!r}", line_no)
            key, _, val = item.partition(":")
            result[_parse_scalar(key, line_no)] = _parse_value(val, line_no)
        return result
    if token.startswith("&") or token.startswith("*") or token.startswith("!"):
        raise YamlError(f"anchors/aliases/tags are not supported: {token!r}", line_no)
    if token.startswith("|") or token.startswith(">"):
        raise YamlError("block scalars are not supported", line_no)
    return _parse_scalar(token, line_no)


def _parse_block(lines: List[_Line], pos: int, indent: int) -> Tuple[Any, int]:
    """Parse a block (mapping or sequence) whose items sit at ``indent``."""
    first = lines[pos]
    if first.content.startswith("- "):
        return _parse_sequence(lines, pos, indent)
    if first.content == "-":
        return _parse_sequence(lines, pos, indent)
    return _parse_mapping(lines, pos, indent)


def _parse_sequence(lines: List[_Line], pos: int, indent: int) -> Tuple[List[Any], int]:
    items: List[Any] = []
    while pos < len(lines):
        line = lines[pos]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise YamlError("unexpected indentation", line.no)
        if not (line.content == "-" or line.content.startswith("- ")):
            break
        rest = line.content[1:].strip()
        if not rest:
            # The item body is a nested block on following lines.
            if pos + 1 < len(lines) and lines[pos + 1].indent > indent:
                value, pos = _parse_block(lines, pos + 1, lines[pos + 1].indent)
                items.append(value)
            else:
                items.append(None)
                pos += 1
            continue
        key_match = _match_key(rest, line.no)
        if key_match is not None and not rest.startswith(("[", "{")):
            # Inline first mapping entry: "- key: value"; the remaining keys
            # of the same item appear more-indented on following lines.
            inner_indent = line.indent + 2
            synthetic = [_Line(inner_indent, rest, line.no)]
            pos += 1
            while pos < len(lines) and lines[pos].indent >= inner_indent:
                synthetic.append(lines[pos])
                pos += 1
            value, consumed = _parse_mapping(synthetic, 0, inner_indent)
            if consumed != len(synthetic):
                raise YamlError("malformed sequence item mapping", line.no)
            items.append(value)
            continue
        items.append(_parse_value(rest, line.no))
        pos += 1
    return items, pos


def _parse_mapping(lines: List[_Line], pos: int, indent: int) -> Tuple[dict, int]:
    mapping: dict = {}
    while pos < len(lines):
        line = lines[pos]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise YamlError("unexpected indentation", line.no)
        if line.content.startswith("- "):
            break
        matched = _match_key(line.content, line.no)
        if matched is None:
            raise YamlError(f"expected 'key: value', got {line.content!r}", line.no)
        key_token, rest = matched
        key = _parse_scalar(key_token, line.no)
        if key in mapping:
            raise YamlError(f"duplicate key {key!r}", line.no)
        if rest:
            mapping[key] = _parse_value(rest, line.no)
            pos += 1
            continue
        if pos + 1 < len(lines) and lines[pos + 1].indent > indent:
            value, pos = _parse_block(lines, pos + 1, lines[pos + 1].indent)
            mapping[key] = value
        else:
            mapping[key] = None
            pos += 1
    return mapping, pos


def loads(text: str) -> Any:
    """Parse a YAML-subset document into Python dicts/lists/scalars.

    Empty documents parse to ``None``.
    """
    if text.startswith("---"):
        text = text[3:]
        if "\n---" in text or text.lstrip().startswith("---"):
            raise YamlError("multi-document YAML is not supported")
    lines = _tokenize(text)
    if not lines:
        return None
    first = lines[0]
    is_seq_item = first.content == "-" or first.content.startswith("- ")
    if len(lines) == 1 and not is_seq_item and _match_key(first.content, first.no) is None:
        # A document that is a single scalar or flow collection.
        return _parse_value(first.content, first.no)
    base_indent = lines[0].indent
    for line in lines:
        if line.indent < base_indent:
            raise YamlError("top-level items must share indentation", line.no)
    value, pos = _parse_block(lines, 0, base_indent)
    if pos != len(lines):
        raise YamlError("trailing content after document", lines[pos].no)
    return value
