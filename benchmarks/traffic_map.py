#!/usr/bin/env python3
"""The traffic rule, recorded: which ``src/repro`` functions does nothing enter?

A temp ``sitecustomize.py`` on ``PYTHONPATH`` installs a ``sys.setprofile`` hook
in every Python process the traffic starts (pool workers, ``repro serve``
children, forked shard workers) and logs each ``src/repro`` code object entered.
Traffic: ``e2e/run.py --tiny``, the examples, ``smoke_faults.py``, the three
serving smokes (single process, ``--shards 3``, ``--shards 2 --replicas 2
--chaos``), one pass of the six subcommands, and a ``repro serve --live`` pass
that takes an add, a routed query, a remove, another add and another routed
query over HTTP.
Prints the functions nothing entered, minus ``traffic_exempt.txt``, whose lines
``<fnmatch pattern> <reason>`` match ``repro/file.py::Qual.name``.  ``--check``
exits 1 on a remainder, a failed step, an exemption without a reason or a stale
exemption (one that matches nothing idle).
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import urllib.request
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = """\
import os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        at = code.co_filename.rfind("/src/repro/")
        if at >= 0:
            with open(os.path.join(os.environ["TRAFFIC_LOG"], f"{os.getpid()}.log"), "a") as log:
                log.write(f"{code.co_filename[at + 5:]}:{code.co_firstlineno}\\n")
sys.setprofile(_hook); threading.setprofile(_hook)
"""


def functions(rel: str, node: ast.AST, prefix: str = ""):
    """``(file:first line, file::qualname, line count)`` of every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if named and not isinstance(child, ast.ClassDef):
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield f"{rel}:{first}", f"{rel}::{prefix}{child.name}", child.end_lineno - first + 1
        yield from functions(rel, child, f"{prefix}{child.name}." if named else prefix)


def record(logs: Path, work: Path) -> list[str]:
    """Run the traffic under the hook; returns the steps that failed."""
    (logs / "sitecustomize.py").write_text(HOOK)
    env = {**os.environ, "TRAFFIC_LOG": str(logs), "PYTHONPATH": f"{logs}{os.pathsep}{SRC}"}
    failed = []

    def run(*command, stdin=None):
        print("traffic:", *command, file=sys.stderr)
        if subprocess.run([sys.executable, *command], env=env, cwd=work, input=stdin,
                          text=True, stdout=subprocess.DEVNULL).returncode:
            failed.append(" ".join(command))

    def repro(*args, **kw):
        run("-m", "repro.cli", *args, "--trace", "trace.jsonl", "--metrics-out", "metrics", **kw)

    def serve(*args):
        """``repro serve --port 0 ...`` in the background, and its URL."""
        server = subprocess.Popen([sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                                   *args], env=env, cwd=work, text=True, stdout=subprocess.PIPE)
        return server, server.stdout.readline().split()[-1]  # "SERVING http://host:port"

    def post(url, body):
        print("traffic: POST", url, file=sys.stderr)
        request = urllib.request.Request(url, json.dumps(body).encode(),
                                         {"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=30).close()
        except OSError:
            failed.append(f"POST {url}")

    run(f"{ROOT}/benchmarks/e2e/run.py", "--tiny")
    for script in sorted((ROOT / "examples").glob("*.py")):
        run(str(script))
    run(f"{ROOT}/benchmarks/smoke_faults.py")
    for smoke in ([], ["--shards", "3"], ["--shards", "2", "--replicas", "2", "--chaos"]):
        run(f"{ROOT}/benchmarks/smoke_serving.py", "--out", "smoke.json", *smoke)
    texts = [[f"t{(7919 * i + j * j) % 300}" for j in range(200)] for i in range(6)]
    texts[1][40:100] = texts[0][20:80]  # planted reuse: search and selfjoin find it
    for i, tokens in enumerate(texts):  # the corpus is work/*.txt
        (work / f"d{i}.txt").write_text(" ".join(tokens))
    sizes = ("-w", "12", "--tau", "3", "--k-max", "3", "-m", "1")
    repro("index", "--data", ".", "--out", "idx", *sizes, "--min-tokens", "1",
          "--greedy-partition", "--sample-ratio", "0.5", "--rotate", "1", "--routing", "exact")
    repro("ingest", "--dir", "lsm", "--data", ".", *sizes, "--from-stdin", "--remove", "2",
          "--flush", "--fsync", "--routing", "exact", stdin=" ".join(texts[3]) + "\n")
    repro("ingest", "--dir", "lsm", *sizes, "--compact")  # a resume, values checked
    repro("search", "--index", "idx", "--query", "d1.txt", "--min-pairs", "1", "--show-text",
          "--mmap", "--routing", "off", "--jobs", "2", "--checkpoint", "search.ckpt")
    repro("selfjoin", "--data", ".", *sizes, "--min-tokens", "1", "--jobs", "2",
          "--checkpoint", "join.ckpt")
    server, url = serve("--index", "idx", "--mmap", "--routing", "exact",
                        "--request-timeout", "30")
    with server:
        ask = ("-m", "repro.cli", "query", "--server", url, "--retries", "1", "--timeout", "30")
        run(*ask, "--query", "d1.txt", "--show-pairs", "--routing", "off", "--request-timeout", "9")
        run(*ask, "--healthz")
        server.terminate()  # the CLI unwinds SIGTERM like Ctrl-C and exits 0
    live, url = serve("--index", "lsm", "--live")
    with live:
        routed = ("-m", "repro.cli", "query", "--server", url, "--query", "d1.txt",
                  "--routing", "exact")
        post(f"{url}/ingest", {"text": " ".join(texts[4])})
        run(*routed)  # fingerprints the memtable's document
        post(f"{url}/remove", {"doc_id": 0})
        post(f"{url}/ingest", {"text": " ".join(texts[5])})
        run(*routed)  # and then only the one added since
        live.terminate()
    return failed + ["repro serve"] * bool(server.returncode) + [
        "repro serve --live"] * bool(live.returncode)


def main() -> int:
    exempt = [line.split(None, 1)
              for line in (ROOT / "benchmarks/traffic_exempt.txt").read_text().splitlines()
              if line.strip() and not line.startswith("#")]
    with tempfile.TemporaryDirectory() as logs, tempfile.TemporaryDirectory() as work:
        failed = record(Path(logs), Path(work))
        entered = {line for log in Path(logs).glob("*.log") for line in log.read_text().split()}
    everything = [found for path in sorted((SRC / "repro").rglob("*.py"))
                  for found in functions(path.relative_to(SRC).as_posix(),
                                         ast.parse(path.read_text()))]
    idle = [(name, size) for key, name, size in everything if key not in entered]
    left = [pair for pair in idle if not any(fnmatchcase(pair[0], entry[0]) for entry in exempt)]
    print(f"{len(everything)} functions ({sum(size for *_, size in everything)} lines); "
          f"nothing entered {len(idle)} ({sum(size for _, size in idle)} "
          f"lines), {len(idle) - len(left)} of them exempt, {len(left)} left:",
          *(f"  {name}  ({size} lines)" for name, size in left), sep="\n")
    problems = [f"traffic step failed: {step}" for step in failed] + [
        f"exemption without a reason: {entry[0]}" for entry in exempt if len(entry) < 2]
    stale = [f"stale exemption (matches nothing idle): {entry[0]}" for entry in exempt
             if not any(fnmatchcase(name, entry[0]) for name, _ in idle)]
    print(*problems, *stale, sep="\n", file=sys.stderr)
    return 1 if "--check" in sys.argv[1:] and (left or problems or stale) else 0


if __name__ == "__main__":
    raise SystemExit(main())
