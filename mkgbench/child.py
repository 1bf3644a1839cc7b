"""One measured scan in a fresh interpreter.

    python3 child.py INPUTS OUTDIR [--setup-only | --trace]

Imports mkg from the checkout's ``src``, reads the scan passes from the
JSON file INPUTS, and records ``time.monotonic()`` once it is ready to
scan; the parent subtracts its own launch time (CLOCK_MONOTONIC is
system-wide on Linux) to get the set-up time.  It then calls
``mkg.verifier.scan_lines`` once per pass, serialising every record, and
times that with ``perf_counter``.  Reports go to OUTDIR/reports.jsonl,
measurements to OUTDIR/result.json and, with --trace, spans to
OUTDIR/spans.*.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rusage() -> tuple[float, int]:
    """(user+sys CPU seconds, summed peak RSS in KiB) of this process and
    its reaped children."""
    cpu = 0.0
    rss = 0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        cpu += ru.ru_utime + ru.ru_stime
        rss += ru.ru_maxrss
    return cpu, rss


def main(argv: list[str]) -> int:
    inputs, outdir, mode = Path(argv[0]), Path(argv[1]), argv[2:]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mkg.verifier as verifier
    if not Path(verifier.__file__).resolve().is_relative_to(src.resolve()):
        print(f"mkg imported from {verifier.__file__}, not {src}",
              file=sys.stderr)
        return 2
    passes = json.loads(inputs.read_text(encoding="ascii"))
    ready = time.monotonic()
    result = {"ready": ready}
    if mode != ["--setup-only"]:
        tracer = None
        if mode == ["--trace"]:
            import spans  # this script's directory is on sys.path
            tracer = spans.install()
        threads = getattr(verifier, "default_threads", None)
        result["scan_threads"] = threads() if threads else None
        lines = []
        error = None
        cpu0, _ = _rusage()
        t0 = time.perf_counter()
        try:
            for p in passes:
                for rec in verifier.scan_lines(p["lines"], p["r"],
                                               budget=p["budget"]):
                    if isinstance(rec, verifier.ScanError):
                        lines.append(verifier.scan_error_to_json(rec))
                    else:
                        lines.append(verifier.report_to_json(rec))
        except Exception:  # the scan raised: the rest of its instances fail
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu1, rss = _rusage()
        result.update(wall_s=wall, cpu_s=cpu1 - cpu0,
                      peak_rss_mib=rss / 1024, error=error)
        (outdir / "reports.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="ascii")
        if tracer is not None:
            tracer.dump(outdir)
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
