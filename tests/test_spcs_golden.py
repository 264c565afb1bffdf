"""Run the reference's own SPCS test corpus (nad/test27, nad/test83 —
265 + 225 proj invocations over every state-plane zone) through our
``proj`` CLI with the bundled init DB, and diff the output against the
reference's distributed expected files (nad/pj_out27.dist,
nad/pj_out83.dist) with ``diff -b`` semantics (whitespace-insensitive
token comparison)."""

import io
import os
import re

import pytest

from proj_ray.cli import proj_main

NAD = "/root/reference/nad"

_INVOKE = re.compile(r"^\$EXE\s+(.*?)\s*>>?\$\{OUT\}\s*<<EOF\s*$")


def parse_script(path, init_name):
    """Yield (argv, input_lines) per $EXE invocation."""
    cases = []
    with open(path) as f:
        lines = f.readlines()
    i = 0
    while i < len(lines):
        m = _INVOKE.match(lines[i].strip())
        if not m:
            i += 1
            continue
        raw_args = m.group(1)
        raw_args = raw_args.replace("${INIT_FILE}", init_name)
        argv = [a.strip("'\"") for a in raw_args.split()]
        i += 1
        body = []
        while i < len(lines) and lines[i].rstrip("\n") != "EOF":
            body.append(lines[i])
            i += 1
        cases.append((argv, body))
        i += 1
    return cases


def run_cases(cases):
    out_lines = []
    for argv, body in cases:
        buf = io.StringIO()
        rc = proj_main(argv, stdin=iter(body), stdout=buf)
        assert rc == 0, f"proj failed for {argv}"
        out_lines.extend(buf.getvalue().splitlines())
    return out_lines


def diff_b(got_lines, want_lines):
    """diff -b: compare token streams per line; return mismatches."""
    bad = []
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g.split() != w.split():
            bad.append((k, g, w))
    if len(got_lines) != len(want_lines):
        bad.append((-1, f"{len(got_lines)} lines", f"{len(want_lines)} lines"))
    return bad


def _case(script, dist, init_name):
    """One corpus, skipped naming whichever of its two files is absent."""
    missing = [n for n in (script, dist)
               if not os.path.isfile(os.path.join(NAD, n))]
    return pytest.param(script, dist, init_name, marks=pytest.mark.skipif(
        bool(missing), reason=f"{', '.join(missing)} absent"))


@pytest.mark.parametrize("script,dist,init_name", [
    _case("test27", "pj_out27.dist", "nad27"),
    _case("test83", "pj_out83.dist", "nad83"),
])
def test_spcs_corpus(script, dist, init_name):
    os.environ.pop("PROJ_LIB", None)
    cases = parse_script(os.path.join(NAD, script), init_name)
    assert len(cases) > 200
    got = run_cases(cases)
    with open(os.path.join(NAD, dist)) as f:
        want = [ln.rstrip("\n") for ln in f]
    bad = diff_b(got, want)
    msg = "\n".join(f"line {k}:\n  got:  {g}\n  want: {w}"
                    for k, g, w in bad[:10])
    assert not bad, f"{len(bad)} mismatching lines (of {len(want)}):\n{msg}"
