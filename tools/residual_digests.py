"""Print every verify residual, worst origin and tolerance, and a digest of every trial's draw, over a fixed grid.

The grid is `verify.run_all(seed, dims)` at its default 100 trials for the
seeds 1, 2, 5, 19, 23 and 42, each at the dims (2, 3, 4), (1, 2), (1, 5),
(3,) and (1, 2, 3): 30 runs, about 5 s on a 2-core host.  Two kinds of
line, tab-separated:

    residual  <seed>  <dims>  <identity>  <repr(residual)>  <repr(worst origin)>  <repr(tolerance)>
    draw      <seed>  <dims>  <stream>  <trial>  <sha256>

The draw digest of (stream, trial) hashes, in call order, the dtype, shape
and bytes of each (dims, arrays) member that trial hands to
`verify._stack`: its one run of standard normals.  It is taken by wrapping
`_stack` from outside the package, before any grouping, padding or
stacking: equal digests mean that every stream drew the same bits.  A tree from before `_stack` hashes the same members by
wrapping each draw handed to `verify._groups` (its own copy of this tool
does that).  Run each tree's own copy once and compare:

    PYTHONPATH=src python3 tools/residual_digests.py > new.txt
    (cd /path/to/other && PYTHONPATH=src python3 tools/residual_digests.py) > old.txt
    python3 tools/residual_digests.py --compare old.txt new.txt

`--compare A B` lists each residual whose repr moved from A to B with the
ratio B/A and B's share of its tolerance, each moved worst origin, each
changed tolerance, each changed draw digest and each line present on one
side only; then, per stream tag with any such digest, how many changed,
how many are new in B and how many are gone from A; then a summary whose
`rises` counts the residuals that grew.  It exits 1 if it listed anything
before the summary, 0 if the two outputs hold the same lines.
The eprkit tree in use is named on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

sys.dont_write_bytecode = True  # before the first eprkit import: no bytecode caches in the tree under test

SEEDS = (1, 2, 5, 19, 23, 42)
DIMS = ((2, 3, 4), (1, 2), (1, 5), (3,), (1, 2, 3))


def _update(h, value) -> None:
    """Hash one draw's output: tuples and lists item by item, anything else as a numpy array."""
    if isinstance(value, (tuple, list)):
        h.update(f"({len(value)}".encode())
        for item in value:
            _update(h, item)
        return
    a = np.asarray(value)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def digesting(stack, digests: dict):
    """verify._stack hashing each member (t, dims, arrays) handed to it as (dims, arrays), into digests[(stream, t)]."""

    def wrapped(table, stream, members, *args, **kwargs):
        members = list(members)
        for t, *drawn in members:
            _update(digests.setdefault((stream, t), hashlib.sha256()), tuple(drawn))
        return stack(table, stream, members, *args, **kwargs)

    return wrapped


def dump(out) -> None:
    import eprkit
    from eprkit import verify as vf

    print(f"eprkit from {eprkit.__file__}", file=sys.stderr)
    plain = vf._stack
    try:
        for seed in SEEDS:
            for dims in DIMS:
                digests: dict = {}
                vf._stack = digesting(plain, digests)
                key = f"{seed}\t{dims}"
                for r in vf.run_all(seed=seed, dims=dims):
                    out.write(f"residual\t{key}\t{r.name}\t{r.residual!r}\t{r.worst!r}\t{r.tolerance!r}\n")
                for (stream, t), h in sorted(digests.items()):
                    out.write(f"draw\t{key}\t{stream}\t{t}\t{h.hexdigest()}\n")
    finally:
        vf._stack = plain


def _read(path: str) -> tuple[dict, dict]:
    """(residuals, draws) of one output: residuals[(seed, dims, name)] = (residual, worst, tolerance) reprs."""
    residuals, draws = {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            kind, *fields = line.rstrip("\n").split("\t")
            if kind == "residual":
                residuals[tuple(fields[:3])] = tuple(fields[3:])
            elif kind == "draw":
                draws[tuple(fields[:4])] = fields[4]
    return residuals, draws


def compare(path_a: str, path_b: str, out) -> bool:
    """Write the differences of two outputs and their summary to out; True if there is any."""
    res_a, draws_a = _read(path_a)
    res_b, draws_b = _read(path_b)
    moved = origins = tolerances = one_side = rises = 0
    worst_rise, worst_share = 1.0, 0.0
    for key in sorted(res_a.keys() | res_b.keys()):
        label = "\t".join(key)
        if key not in res_a or key not in res_b:
            one_side += 1
            out.write(f"only in {'A' if key in res_a else 'B'}\t{label}\n")
            continue
        (ra, wa, ta), (rb, wb, tb) = res_a[key], res_b[key]
        a, b, tol = float(ra), float(rb), float(tb)
        worst_share = max(worst_share, b / tol)
        if ra != rb:
            moved += 1
            rises += b > a
            ratio = b / a if a else float("inf")
            worst_rise = max(worst_rise, ratio)
            out.write(f"moved\t{label}\t{ra} -> {rb}\tratio {ratio:.3g}\t{b / tol:.2e} of tolerance\n")
        if wa != wb:
            origins += 1
            out.write(f"origin\t{label}\t{wa} -> {wb}\n")
        if ta != tb:
            tolerances += 1
            out.write(f"tolerance\t{label}\t{ta} -> {tb}\n")
    changed, tags = 0, {}
    for key in sorted(draws_a.keys() | draws_b.keys(), key=lambda k: (k[0], k[1], int(k[2]), int(k[3]))):
        a, b = draws_a.get(key, "-"), draws_b.get(key, "-")
        if a != b:
            changed += 1
            counts = tags.setdefault(int(key[2]), dict.fromkeys(("changed", "new", "gone"), 0))
            counts["new" if a == "-" else "gone" if b == "-" else "changed"] += 1
            out.write(f"draw\t{chr(9).join(key)}\t{a} -> {b}\n")
    for tag, counts in sorted(tags.items()):
        out.write(f"stream\t{tag}\t" + ", ".join(f"{n} {kind}" for kind, n in counts.items()) + "\n")
    out.write(
        f"summary\t{len(res_b)} residuals, {moved} moved, {origins} origins moved, {rises} rises, "
        f"largest rise factor {worst_rise:.3g}, largest share of tolerance {worst_share:.2e}; "
        f"{len(draws_b)} draw digests, {changed} changed\n"
    )
    return bool(moved or origins or tolerances or one_side or changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two outputs of this tool")
    args = parser.parse_args(argv)
    if args.compare:
        return int(compare(*args.compare, sys.stdout))
    dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
