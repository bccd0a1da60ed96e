"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. A deliberately corrupted reference cost makes the run incorrect
   (fail_ratio above 0) and names the corrupted instance.
2. Every metric documented in BENCHMARK.json and README.md appears in the
   output of an untraced or a traced run, and the runs print no metric
   that BENCHMARK.json does not list.
3. A directory holding only BENCHMARK.json and perfbench/ (no package
   source) makes the benchmark exit non-zero without printing a result.

All three use the cheap tiny1500 workload; scratch files go to .perfbench/.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selfcheck"


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny1500",
                           "--seed", "0", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_corrupted_reference():
    refs = SCRATCH / "references"
    shutil.copytree(HERE / "references", refs)
    doc = json.loads((refs / "tiny1500.json").read_text())
    key = "grid2x3/7"
    doc["entries"][key]["cost"] += 1e-6
    (refs / "tiny1500.json").write_text(json.dumps(doc))
    out = run(["--references", str(refs)])
    res = result_of(out)
    record = json.loads((ROOT / ".perfbench" / "tiny1500-seed0-trace0.json").read_text())
    ok = (not res["correct"] and res["failed"] > 0 and record["fail_ratio"] > 0
          and any(f.startswith(key + ": cost") for f in record["failures"]))
    return ok, f"failed {res['failed']}/{res['attempted']}, exit {out.returncode}"


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    sections = (HERE / "README.md").read_text().split("\n## ")
    tables = "".join(sec for sec in sections if sec.startswith(("End-to-end", "Per-layer")))
    readme = set(re.findall(r"^\| `([\w.]+)` \| [\w/%.-]+ \|", tables, re.M))
    out0 = run(["--trace", "0"])
    res0 = result_of(out0)
    res1 = result_of(run(["--trace", "1"]))
    printed = set(res0["metrics"]) | set(res1["metrics"])
    problems = []
    if set(res0["metrics"]) != e2e:
        problems.append(f"untraced metrics differ from end_to_end: "
                        f"{sorted(set(res0['metrics']) ^ e2e)}")
    if set(res1["metrics"]) != layer:
        problems.append(f"traced metrics differ from per_layer: "
                        f"{sorted(set(res1['metrics']) ^ layer)}")
    if not re.search(r"^fail_ratio \S+ ratio", out0.stdout, re.M):
        problems.append("no fail_ratio line")
    missing = (readme | e2e | layer) - printed - {"fail_ratio"}
    if missing:
        problems.append(f"documented but not printed: {sorted(missing)}")
    undocumented = (printed | {"fail_ratio"}) - readme
    if undocumented:
        problems.append(f"printed but not in README.md: {sorted(undocumented)}")
    if not (res0["correct"] and res1["correct"]):
        problems.append("a clean run was not correct")
    return not problems, "; ".join(problems) or f"{len(printed)} metrics"


def check_bare_directory():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--trace", "0"], cwd=bare)
    printed_result = any(line.startswith("{") for line in out.stdout.splitlines())
    return out.returncode != 0 and not printed_result, f"exit {out.returncode}"


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failed = 0
    for name, fn in (("corrupted reference fails", check_corrupted_reference),
                     ("documented metrics printed", check_metric_names),
                     ("no package source: no result", check_bare_directory)):
        ok, detail = fn()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})", flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
