"""Write pins/<workload>.json: the answers the benchmark holds later
versions of mkg to.

    python3 mkgbench/make_pins.py

Run once, on the commit that defined the benchmark; re-pinning on a
later commit would let a changed answer pass.  Each instance's report
must first pass validate.py's independent checks.  dense-r2 is pinned on
workloads.PINNED_SEEDS (its complete hosts do not depend on the seed).
"""

import json
import sys
from pathlib import Path

import validate
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mkg.verifier import report_to_json, scan_lines  # noqa: E402

FIELDS = validate.PINNED_EXACT + ("chromatic_number", "verdict")


def pin(workload: str, seeds) -> dict:
    pins = {}
    for seed in seeds:
        for p in workloads.passes(workload, seed):
            instances = [(line, p["r"]) for line in p["lines"]]
            reports = [report_to_json(rep) for rep in
                       scan_lines(p["lines"], p["r"], budget=p["budget"])]
            failures, parsed = validate.validate(instances, reports, {}, False)
            if failures:
                raise SystemExit(f"{workload}: {failures[:3]}")
            for (line, _), rep in zip(instances, parsed):
                entry = {f: rep[f] for f in FIELDS}
                if rep["verdict"] == "undecided":
                    del entry["chromatic_number"]
                    entry["chi_bounds"] = rep["certificates"]["chi_bounds"]
                pins[validate.pin_key(line, rep["r"])] = entry
    return pins


def main() -> None:
    for workload in workloads.NAMES:
        seeds = workloads.PINNED_SEEDS if workload == "dense-r2" else (0,)
        out = validate.PINS / f"{workload}.json"
        pins = pin(workload, seeds)
        # one pin per line, so a diff of this file names the instances
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in pins.items())
        out.write_text(f'{{"workload": "{workload}", "seeds": {list(seeds)},\n'
                       f'"pins": {{\n{body}\n}}}}\n')
        print(out, file=sys.stderr)


if __name__ == "__main__":
    main()
