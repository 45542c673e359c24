"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 20

``--trace 0`` is the timed run: no observers attached, every end-to-end
metric reported.  ``--trace 1`` is the traced run: untraced and traced
passes alternate over the same draw and every per-layer metric is
reported.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``failed`` counts failed operations that are not on
the known-failure list (``bench.KNOWN_FAILURES``); every failure, known
or not, is listed and lowers ``pass_frac``.  The exit code is 1 when any
run printed a wrong output silently, or when passes or set-ups did not
repeat exactly, and 2 when the program's sources are missing.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_sha(root):
    """The checkout's HEAD commit read from ``.git`` (no subprocess), or
    "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from repro.obs import EnvFingerprint
    import_s = time.perf_counter() - t_start

    args = parse_args(argv, sorted(bench.WORKLOADS))
    workload = bench.WORKLOADS[args.workload]
    fingerprint = EnvFingerprint.collect(git_sha=git_sha(ROOT))
    print("stamp " + json.dumps({
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "fingerprint": list(fingerprint.key),
        "git_sha": fingerprint.git_sha}), flush=True)
    result, lines, code = bench.execute(workload, args.seed, args.seconds,
                                        bool(args.trace), import_s)
    print("\n".join(lines))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
