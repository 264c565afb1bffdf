"""Run the reference's nad/testIGNF cs2cs corpus against
nad/proj_outIGNF.dist: every case flows through the BUNDLED IGNF init
DB (the harness rewrites ./IGNF -> IGNF) and the real ntf_r93.gsb
grid via PROJ_LIB."""

import io
import os
import re

import pytest

from proj_ray.cli import cs2cs_main

NAD = "/root/reference/nad"

_ECHO = re.compile(r'^echo\s+(.*?)\s*>>\s*\$\{OUT\}\s*$')
_INVOKE = re.compile(r'^\$EXE\s+(.*?)\s*>>?\s*\$\{OUT\}\s*<<EOF\s*$')


def parse_script(path):
    with open(path) as f:
        raw = f.read()
    raw = raw.replace("\\\n", " ")
    raw = raw.replace("${INIT_FILE}", "./IGNF").replace("$RES", "-f %.3f")
    items = []
    lines = raw.split("\n")
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        m = _ECHO.match(ln)
        if m:
            txt = m.group(1).strip('"').strip("'")
            items.append(("echo", txt))
            i += 1
            continue
        m = _INVOKE.match(ln)
        if m:
            argv = [a.replace("'", "").replace('"', "")
                    .replace("+init=./IGNF", "+init=IGNF")
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


_MISSING = [n for n in ("testIGNF", "proj_outIGNF.dist", "ntf_r93.gsb")
            if not os.path.isfile(os.path.join(NAD, n))]


@pytest.mark.skipif(bool(_MISSING), reason=f"{', '.join(_MISSING)} absent")
def test_testignf_corpus():
    old = os.environ.get("PROJ_LIB")
    os.environ["PROJ_LIB"] = NAD  # resolves ntf_r93.gsb inside IGNF defs
    try:
        items = parse_script(os.path.join(NAD, "testIGNF"))
        n_runs = sum(1 for it in items if it[0] == "run")
        assert n_runs == 34
        got = []
        for item in items:
            if item[0] == "echo":
                got.append(item[1])
            else:
                _, argv, body = item
                buf = io.StringIO()
                rc = cs2cs_main(argv, stdin=iter(body), stdout=buf)
                if rc != 0:
                    got.append(f"<<init failure: {' '.join(argv)}>>")
                else:
                    got.extend(buf.getvalue().splitlines())
        with open(os.path.join(NAD, "proj_outIGNF.dist")) as f:
            want = [ln.rstrip("\n") for ln in f]
        bad = [(k, g, w) for k, (g, w) in enumerate(zip(got, want))
               if g.split() != w.split()]
        if len(got) != len(want):
            bad.append((-1, f"{len(got)} lines", f"{len(want)} lines"))
        msg = "\n".join(f"line {k}:\n  got:  {g}\n  want: {w}"
                        for k, g, w in bad[:12])
        assert not bad, f"{len(bad)} mismatching lines of {len(want)}:\n{msg}"
    finally:
        if old is None:
            os.environ.pop("PROJ_LIB", None)
        else:
            os.environ["PROJ_LIB"] = old
