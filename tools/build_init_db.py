#!/usr/bin/env python
"""Build the bundled +init database.

Parses the reference distribution's public keyed init files (the
``nad/epsg`` format consumed by src/pj_init.c get_init/get_opt:97-291 —
EPSG / IGN / ESRI-published CRS definitions, i.e. data, not code) into
``proj_ray/data/init_db.tsv.gz``: UTF-8 text, one ``file<TAB>key<TAB>defn``
line per entry, gzip-compressed with ``mtime=0`` so a rebuild is
byte-stable.  ``+init=epsg:2154`` / ``+init=IGNF:LAMB93`` /
``+init=nad27:3001`` then resolve without PROJ_LIB.  Standard library
only, like the loader (``proj_ray.crs.init_db_lookup``).

Usage: python tools/build_init_db.py [--nad /root/reference/nad]
"""

import argparse
import gzip
import os
import sys

FILES = ["epsg", "epsg-deprecated", "IGNF", "esri", "esri.extra",
         "other.extra", "nad27", "nad83", "world", "GL27", "CH"]


def iter_init_entries(path):
    """Yield (key, defn) for every ``<key> words <>`` block, mirroring
    the tokenizer contract of proj_ray.crs.read_init_file."""
    key = None
    words = []
    with open(path, "r", errors="replace") as f:
        for line in f:
            hash_at = line.find("#")
            if hash_at >= 0:
                line = line[:hash_at]
            for w in line.split():
                if key is None:
                    if w.startswith("<") and w.endswith(">") and len(w) > 2:
                        key = w[1:-1]
                        words = []
                    continue
                if w == "<>":
                    yield key, " ".join(words)
                    key = None
                    continue
                words.append(w)
    if key is not None and words:
        yield key, " ".join(words)


def write_init_db(rows, out):
    """Write (file, key, defn) rows, in the given order, as the gzipped
    TSV the loader reads."""
    lines = []
    for row in rows:
        line = "\t".join(row)
        # the loader splits on str.splitlines() and then on tabs
        if len(line.split("\t")) != 3 or line.splitlines() != [line]:
            raise ValueError(f"tab or line break in init entry {row!r}")
        lines.append(line + "\n")
    data = gzip.compress("".join(lines).encode("utf-8"), compresslevel=9,
                         mtime=0)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "wb") as f:
        f.write(data)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nad", default="/root/reference/nad")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "proj_ray", "data", "init_db.tsv.gz"))
    args = ap.parse_args()

    rows = []
    for fname in FILES:
        path = os.path.join(args.nad, fname)
        if not os.path.isfile(path):
            print(f"skip (missing): {fname}", file=sys.stderr)
            continue
        seen = set()
        for key, defn in iter_init_entries(path):
            if key in seen:  # first occurrence wins (get_init contract)
                continue
            seen.add(key)
            rows.append((fname, key, defn))
        print(f"{fname}: {len(seen)} entries")

    write_init_db(rows, args.out)
    print(f"wrote {len(rows)} total entries -> {args.out}")


if __name__ == "__main__":
    main()
