"""Print what a run keeps alive, per bench workload and run length.

    python3 tests/retained_state.py [TICKS ...]

For each `bench` workload at 32 clients and seed 0, under the default config
(tracing on, as `htapsim bench` runs it), and for each tick budget (500,
2,000 and 8,000 unless given), it builds the cluster with
`htapsim.bench.build`, runs it to the budget and prints one line:

- `end_mib`: tracemalloc's traced memory after the run and a full collection,
  counted from just before the build, so the import is not in it;
- `bytes_per_txn`: that figure over the finished (committed or aborted)
  transactions;
- `chain_max` and `versions_per_row`: the longest version chain, and the
  versions over the rows (chains) of every segment's heap;
- `gc_objects`: objects the cyclic GC tracks, counted after the run less
  those counted before the build.

Then it prints, for each module of `src/htapsim`, the peak traced memory
of `compile()` over it, which the interpreter pays at import whenever it
writes no bytecode cache, and its parser-token count: the tokens `tokenize`
yields less comments, blank lines and the encoding.  CPython 3.11's parser
keeps its tokens in an array of 8,192 slots and doubles it at the next
token, so a module that crosses that count compiles with a higher peak.
Only the standard library is used; pytest does not collect this file.  Runs
at 8,000 ticks take tens of seconds each under tracemalloc.
"""

from __future__ import annotations

import gc
import sys
import tokenize
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "htapsim"
sys.path.insert(0, str(ROOT / "src"))

from htapsim.bench import WORKLOADS, build  # noqa: E402
from htapsim.sim import SimConfig  # noqa: E402

CLIENTS = 32
SEED = 0
TICKS = (500, 2000, 8000)
MIB = 1024 * 1024


def retained(workload: str, ticks: int) -> str:
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    cluster = build(workload, CLIENTS, SimConfig(), seed=SEED)
    cluster.run(until_tick=ticks)
    gc.collect()
    end, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    objects = len(gc.get_objects()) - objects_before
    finished = cluster.committed_txns + cluster.aborted_txns
    chains = [
        len(chain)
        for seg in cluster.segments
        for table in seg.store.tables.values()
        for chain in table.values()
    ]
    return (
        f"{workload} ticks={ticks} finished={finished} end_mib={end / MIB:.2f} "
        f"bytes_per_txn={end / max(finished, 1):.0f} chain_max={max(chains, default=0)} "
        f"versions_per_row={sum(chains) / max(len(chains), 1):.2f} gc_objects={objects}"
    )


def compile_peak(path: Path) -> float:
    """Peak traced MiB of compiling the module at `path`."""
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    compile(source, str(path), "exec")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / MIB


def parser_tokens(path: Path) -> int:
    """Tokens of the module at `path`, less comments, blank lines and the
    encoding, which the parser does not keep."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as fh:
        return sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))


def main(argv: list[str]) -> int:
    ticks = [int(t) for t in argv] or TICKS
    for workload in WORKLOADS:
        for t in ticks:
            print(retained(workload, t), flush=True)
    for path in sorted(PACKAGE.glob("*.py")):
        print(
            f"compile {path.name} peak_mib={compile_peak(path):.2f}"
            f" tokens={parser_tokens(path)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
