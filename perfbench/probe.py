"""Time one set-up of a workload in a fresh process: import decolog and
parse the inputs gen.py wrote.  Prints the seconds taken.

    python3 perfbench/probe.py WORKDIR
"""
import json
import sys
import time
from pathlib import Path

from loading import input_texts, parse_inputs


def main() -> None:
    work = Path(sys.argv[1])
    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    texts = input_texts(inputs, work)
    start = time.perf_counter()
    import decolog
    parse_inputs(decolog, texts)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
