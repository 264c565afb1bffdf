"""Run the reference's nad/testvarious cs2cs corpus against
nad/tv_out.dist (diff -b semantics), section by section."""

import io
import os
import re

import pytest

from proj_ray.cli import cs2cs_main

NAD = "/root/reference/nad"

_ECHO = re.compile(r'^echo\s+(.*?)\s*>>\s*\$\{OUT\}\s*$')
_INVOKE = re.compile(r'^\$EXE\s+(.*?)\s*>>?\s*\$\{OUT\}\s*<<EOF\s*$')


def parse_script(path):
    """Yield ('echo', text) and ('run', argv, input_lines) items in
    script order, with backslash continuations joined."""
    with open(path) as f:
        raw = f.read()
    raw = raw.replace("\\\n", " ")
    lines = raw.split("\n")
    items = []
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        m = _ECHO.match(ln)
        if m:
            txt = m.group(1)
            if (txt.startswith('"') and txt.endswith('"')) or (
                    txt.startswith("'") and txt.endswith("'")):
                txt = txt[1:-1]
            items.append(("echo", txt))
            i += 1
            continue
        m = _INVOKE.match(ln)
        if m:
            # shell-style quoting/escapes: '%.'5'f' -> %.5f, \' -> '
            argv = [a.replace("\\'", "\x00").replace("'", "")
                    .replace('"', "").replace("\x00", "'").replace("\\", "")
                    for a in m.group(1).split()]
            i += 1
            body = []
            while i < len(lines) and lines[i] != "EOF":
                body.append(lines[i] + "\n")
                i += 1
            items.append(("run", argv, body))
            i += 1
            continue
        i += 1
    return items


def run_corpus(items):
    out = []
    for item in items:
        if item[0] == "echo":
            out.append(item[1])
        else:
            _, argv, body = item
            buf = io.StringIO()
            rc = cs2cs_main(argv, stdin=iter(body), stdout=buf)
            if rc != 0:
                out.append(f"<<init failure: {' '.join(argv)}>>")
            else:
                out.extend(buf.getvalue().splitlines())
    return out


def split_sections(lines):
    """Group output lines into sections delimited by the ###### rows."""
    sections = []
    cur = []
    for ln in lines:
        if set(ln.strip()) == {"#"} and len(ln.strip()) > 10:
            if cur:
                sections.append(cur)
            cur = []
        else:
            cur.append(ln)
    if cur:
        sections.append(cur)
    return sections


# Sections that need data files not shipped with the reference
# (documented skip, not silent): none currently.
SKIP_SECTIONS: dict = {}


_MISSING = [n for n in ("testvarious", "tv_out.dist")
            if not os.path.isfile(os.path.join(NAD, n))]


@pytest.mark.skipif(bool(_MISSING), reason=f"{', '.join(_MISSING)} absent")
def test_testvarious_corpus():
    os.environ.pop("PROJ_LIB", None)
    items = parse_script(os.path.join(NAD, "testvarious"))
    assert sum(1 for it in items if it[0] == "run") > 20
    got = split_sections(run_corpus(items))
    with open(os.path.join(NAD, "tv_out.dist")) as f:
        want = split_sections([ln.rstrip("\n") for ln in f])
    assert len(got) == len(want), (len(got), len(want))
    bad = []
    for k, (g, w) in enumerate(zip(got, want)):
        title = w[0] if w else f"section {k}"
        if title in SKIP_SECTIONS:
            continue
        if [ln.split() for ln in g] != [ln.split() for ln in w]:
            bad.append((title, g, w))
    msg = "\n\n".join(
        f"SECTION: {t}\n  got:  {g}\n  want: {w}" for t, g, w in bad[:6])
    assert not bad, f"{len(bad)} of {len(want)} sections mismatch:\n{msg}"
